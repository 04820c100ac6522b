"""Closed-walk counts: the three closed forms and the return refinements."""

from __future__ import annotations

from math import comb

import pytest

from treewalks import verify
from treewalks.oracle import dp_return_profile, dp_walk_count
from treewalks.series import gf_walk_counts
from treewalks.triangles import borel_entry_transform, catalan_entry, catalan_number
from treewalks.walks import (
    first_return_count,
    second_return_count,
    walks_polynomial,
    walks_via_borel,
    walks_via_catalan,
    walks_via_components,
    walks_with_k_returns,
)

# exponent-descending coefficients of W(2n) as a polynomial in the degree,
# n = 1..6, frozen from the published example table
POLY_TABLE = {
    1: [1],
    2: [2, -1],
    3: [5, -6, 2],
    4: [14, -28, 20, -5],
    5: [42, -120, 135, -70, 14],
    6: [132, -495, 770, -616, 252, -42],
}

# per-return shape counts from the same table: (n, k) -> multiplier of
# delta^k (delta-1)^(n-k)
K_RETURN_TABLE = {
    (1, 1): 1,
    (2, 2): 1, (2, 1): 1,
    (3, 3): 1, (3, 2): 2, (3, 1): 2,
    (4, 4): 1, (4, 3): 3, (4, 2): 5, (4, 1): 5,
    (5, 5): 1, (5, 4): 4, (5, 3): 9, (5, 2): 14, (5, 1): 14,
    (6, 6): 1, (6, 5): 5, (6, 4): 14, (6, 3): 28, (6, 2): 42, (6, 1): 42,
}


@pytest.mark.parametrize(
    "fn", [walks_via_components, walks_via_catalan, walks_via_borel]
)
def test_w2_is_delta(fn):
    for delta in range(1, 10):
        assert fn(1, delta) == delta


def test_known_values():
    assert walks_via_components(2, 3) == 15
    assert walks_via_components(3, 2) == 20 == comb(6, 3)
    assert walks_via_catalan(2, 4) == 28  # 2*16 - 4
    assert walks_via_catalan(1, 1) == 1
    assert walks_via_catalan(4, 3) == 543
    assert walks_via_borel(2, 5) == 2 * 25 - 5
    assert walks_via_borel(3, 3) == 87


def test_three_way_equality_grid():
    for n in range(1, 21):
        for delta in range(1, 10):
            a = walks_via_components(n, delta)
            b = walks_via_catalan(n, delta)
            c = walks_via_borel(n, delta)
            assert a == b == c, (n, delta, a, b, c)


def _per_term_walks(n, delta):
    """W(2n) summed term by term from catalan_entry, with a power per term."""
    return sum(
        delta**k * (delta - 1) ** (n - k) * catalan_entry(n - 1, n - k)
        for k in range(1, n + 1)
    )


@pytest.mark.parametrize("fn", [walks_via_catalan, walks_via_components])
def test_horner_routes_match_per_term_sum(fn):
    for n in range(1, 61):
        for delta in range(1, 8):
            assert fn(n, delta) == _per_term_walks(n, delta), (n, delta)


@pytest.mark.parametrize("fn", [walks_via_catalan, walks_via_components])
def test_horner_routes_match_gf_at_n1000(fn):
    for delta in (2, 3, 7):
        assert fn(1000, delta) == gf_walk_counts(delta, 1000)[1000]


def test_agrees_with_dp_oracle():
    for n in range(1, 13):
        for delta in range(1, 7):
            assert walks_via_catalan(n, delta) == dp_walk_count(n, delta)


def test_delta_one_degenerates_to_single_walk():
    for n in range(1, 15):
        assert walks_via_catalan(n, 1) == 1


def test_delta_two_is_central_binomial():
    for n in range(1, 21):
        assert walks_via_catalan(n, 2) == comb(2 * n, n)


def test_polynomial_table():
    for n, coeffs in POLY_TABLE.items():
        assert walks_polynomial(n).coefficient_list() == coeffs


def test_polynomial_structure():
    for n in range(1, 15):
        poly = walks_polynomial(n)
        assert poly.degree == n
        # leading coefficient is B(n-1, 0), which is the n-th Catalan number
        assert poly.coefficients[n] == catalan_number(n) > 0
        assert 0 not in poly.coefficients  # no constant term
        for l in range(1, n + 1):
            c = poly.coefficients[l]
            assert c == (-1) ** (n - l) * borel_entry_transform(n - 1, n - l)
            assert c != 0 and (c > 0) == ((n - l) % 2 == 0)


def test_polynomial_evaluation_matches_dp_oracle():
    for n in range(1, 41):
        poly = walks_polynomial(n)
        for delta in (1, 2, 3, 7, 20):
            assert poly.evaluate(delta) == dp_walk_count(n, delta), (n, delta)


def _dp_walk_polynomials(max_n):
    """W(2n) for n = 0..max_n as ascending coefficient lists in Z[delta].

    A distance DP whose states are polynomials: a[d] counts the walks so
    far that end at depth d.  A step away from the root multiplies by
    delta at depth 0 and by delta - 1 elsewhere; a step back is one move.
    Depths past the number of steps left are dropped, so a kept state has
    at most max_n steps away and fits in max_n + 1 coefficients.
    """
    size = max_n + 1
    a = [[1] + [0] * max_n]
    counts = [a[0]]
    for s in range(1, 2 * max_n + 1):
        b = []
        for d in range(min(s, 2 * max_n - s) + 1):
            p = list(a[d + 1]) if d + 1 < len(a) else [0] * size
            if d:
                q = a[d - 1]
                for i in range(max_n):
                    p[i + 1] += q[i]  # delta * q
                if d > 1:
                    for i in range(size):
                        p[i] -= q[i]  # (delta - 1) * q
            b.append(p)
        a = b
        if s % 2 == 0:
            counts.append(a[0])
    return counts


def test_polynomial_coefficients_match_polynomial_dp():
    counts = _dp_walk_polynomials(60)
    for n in range(1, 61):
        dp = counts[n]
        assert dp[0] == 0 and not any(dp[n + 1:]), n
        assert walks_polynomial(n).coefficient_list() == dp[n:0:-1], n


def test_polynomial_horner_evaluation_matches_per_term_sum():
    for n in range(1, 31):
        poly = walks_polynomial(n)
        for delta in (-3, 0, 1, 2, 3, 7, 20):
            per_term = sum(c * delta**l for l, c in poly.coefficients.items())
            assert poly.evaluate(delta) == per_term, (n, delta)


def test_polynomial_rendering():
    assert walks_polynomial(1).render() == "δ"
    assert (
        walks_polynomial(3).render()
        == "5δ³ − 6δ² + 2δ"
    )
    assert walks_polynomial(3).render(ascii_only=True) == "5d^3 - 6d^2 + 2d"


def test_polynomial_json():
    import json

    assert json.loads(walks_polynomial(4).to_json()) == ["14", "-28", "20", "-5"]


def test_polynomial_json_is_json_dumps_text():
    import json

    for n in range(1, 61):
        poly = walks_polynomial(n)
        assert poly.to_json() == json.dumps(list(map(str, poly.coefficient_list())))


def test_k_returns_table():
    for (n, k), mult in K_RETURN_TABLE.items():
        for delta in range(1, 7):
            expected = delta**k * (delta - 1) ** (n - k) * mult
            assert walks_with_k_returns(n, k, delta) == expected


def test_k_returns_values():
    assert walks_with_k_returns(2, 1, 3) == 6
    assert walks_with_k_returns(3, 2, 2) == 8
    for n in range(1, 12):
        for delta in range(1, 6):
            assert walks_with_k_returns(n, n, delta) == delta**n


def test_k_returns_sum_to_total():
    for n in range(1, 16):
        for delta in range(1, 8):
            total = sum(walks_with_k_returns(n, k, delta) for k in range(1, n + 1))
            assert total == walks_via_catalan(n, delta)


def test_k_returns_domain_errors():
    with pytest.raises(ValueError):
        walks_with_k_returns(3, 0, 2)
    with pytest.raises(ValueError):
        walks_with_k_returns(3, 4, 2)
    with pytest.raises(ValueError):
        walks_with_k_returns(0, 1, 2)


def test_first_return():
    assert first_return_count(3, 3) == 24
    assert first_return_count(4, 2) == 10
    for delta in range(1, 8):
        assert first_return_count(1, delta) == delta
    for n in range(1, 21):
        for delta in range(1, 10):
            assert first_return_count(n, delta) == walks_with_k_returns(n, 1, delta)


def test_second_return():
    assert second_return_count(2, 3) == 9
    assert second_return_count(3, 3) == 36
    for delta in range(1, 8):
        assert second_return_count(2, delta) == delta**2
    # the corollary's consistency with the k = 2 refinement rests on the
    # diagonal identity C(n-1, n-2) = Catalan(n-1); tested, not assumed
    for n in range(2, 21):
        for delta in range(1, 10):
            assert second_return_count(n, delta) == walks_with_k_returns(n, 2, delta)
    with pytest.raises(ValueError):
        second_return_count(1, 3)


def test_return_counts_match_dp_profile():
    for n in range(1, 10):
        for delta in range(1, 6):
            profile = dp_return_profile(n, delta)
            assert first_return_count(n, delta) == profile[0]
            if n >= 2:
                assert second_return_count(n, delta) == profile[1]


def test_return_profile_matches_k_returns_to_n40():
    for n in range(1, 41):
        for delta in (1, 2, 3, 7):
            profile = dp_return_profile(n, delta)
            assert profile == [walks_with_k_returns(n, k, delta) for k in range(1, n + 1)]


def test_domain_errors():
    for fn in (walks_via_components, walks_via_catalan, walks_via_borel):
        with pytest.raises(ValueError):
            fn(0, 3)
        with pytest.raises(ValueError):
            fn(3, 0)


def test_verify_central_binomial_check_catches_a_wrong_count(monkeypatch):
    def wrong_at_n4(n, delta):
        return walks_via_catalan(n, delta) + (n == 4)

    monkeypatch.setattr(verify, "walks_via_catalan", wrong_at_n4)
    result = verify.check_central_binomial(8)
    assert not result.passed
    assert result.detail == "n=4: 71 != binom(2n,n)=70"


@pytest.mark.parametrize(
    "route, detail",
    [
        ("dp_walk_count", "profile sum off at (n=3, delta=2)"),
        ("first_return_count", "first-return mismatch at (n=3, delta=2)"),
        ("second_return_count", "second-return mismatch at (n=3, delta=2)"),
        ("walks_with_k_returns", "k-return mismatch at (n=3, k=1, delta=2)"),
    ],
)
def test_verify_return_check_catches_a_wrong_count(monkeypatch, route, detail):
    right = getattr(verify, route)

    def wrong_at_n3_delta2(n, *args):  # args is (delta,) or (k, delta)
        return right(n, *args) + (n == 3 and args[-1] == 2)

    monkeypatch.setattr(verify, route, wrong_at_n3_delta2)
    result = verify.check_return_corollaries(5, 3)
    assert not result.passed
    assert result.detail == detail
