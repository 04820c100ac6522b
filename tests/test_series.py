"""The generating-function route, against a t-series reference and sympy.

The route expands the rationalised Kesten-McKay function in u = t^2.
The reference below is the earlier route, kept here only as a test
oracle: it divides the t-series denominator by its constant term and
inverts it degree by degree, O(N^2) products over all 2N + 2 degrees.
The two share no code but ``exact_div``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

import pytest

from treewalks import verify
from treewalks.exact import exact_div
from treewalks.series import gf_walk_counts, sqrt_coefficients
from treewalks.walks import walks_via_catalan


def _reciprocal(a: list, inv_a0) -> list:
    """Coefficients r with a * r = 1 to degree len(a) - 1; inv_a0 is 1 / a[0]."""
    D = len(a) - 1
    tail = a[1:]
    out = [inv_a0] + [0] * D
    for d in range(1, D + 1):
        out[d] = -sum(map(mul, tail[:d], out[d - 1 :: -1])) * inv_a0
    return out


def reciprocal_series(a: list) -> list:
    """The reciprocal of a truncated series, exact rationals if a[0] != 1."""
    if a[0] == 0:
        raise ZeroDivisionError("reciprocal of a series with zero constant term")
    return _reciprocal(a, 1 if a[0] == 1 else Fraction(1, a[0]))


def _normalised_denominator(delta: int, D: int) -> list[int]:
    """(delta - 2 + delta sqrt(1 - c t^2)) / (2(delta - 1)) to degree D, c = 4(delta - 1)."""
    c = 4 * (delta - 1)
    out = [1] + [0] * D
    term = 1
    for m in range(1, D // 2 + 1):
        term = exact_div(term * (2 * m - 3) * c, 2 * m)
        out[2 * m] = exact_div(delta * term, 2 * (delta - 1))
    return out


def reference_gf_series(delta: int, N: int) -> list[int]:
    """The t-series of the generating function to degree 2N + 1."""
    return _reciprocal(_normalised_denominator(delta, 2 * N + 1), 1)


def product(a: list, b: list) -> list:
    """a * b truncated to the shorter length."""
    D = min(len(a), len(b))
    return [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(D)]


def test_sqrt_series_examples():
    assert sqrt_coefficients(3, 2) == [1, -4, -8]
    assert sqrt_coefficients(2, 2) == [1, -2, -2]
    assert sqrt_coefficients(1, 3) == [1, 0, 0, 0]
    # the reference's t-denominator at delta = 3 is (1 + 3 s(t^2)) / 4
    assert _normalised_denominator(3, 4) == [1, 0, -3, 0, -6]


def test_sqrt_series_squares_back():
    for delta in range(1, 7):
        for N in [0, 1, 5, 12]:
            s = sqrt_coefficients(delta, N)
            expected = [1, -4 * (delta - 1)] + [0] * N
            assert product(s, s) == expected[: N + 1]


def test_reciprocal_geometric():
    assert reciprocal_series([1, -1, 0, 0, 0, 0, 0]) == [1] * 7


def test_reciprocal_constant():
    assert reciprocal_series([2, 0, 0, 0]) == [Fraction(1, 2), 0, 0, 0]


def test_reciprocal_times_input_is_unit():
    a = [4, 0, -12, 0, -24, 0, 0, 0, 0]
    r = reciprocal_series(a)
    assert product(a, r) == [1] + [0] * 8
    # the delta=3 denominator: 4*r carries the walk counts 1, 3, 15
    assert [4 * r[0], 4 * r[2], 4 * r[4]] == [1, 3, 15]


def test_reciprocal_zero_constant_term():
    with pytest.raises(ZeroDivisionError):
        reciprocal_series([0, 1, 0, 0])


def test_gf_walk_counts_examples():
    assert gf_walk_counts(2, 3) == [1, 2, 6, 20]
    assert gf_walk_counts(3, 2) == [1, 3, 15]
    assert gf_walk_counts(5, 0) == [1]


def test_gf_at_delta_1_is_all_ones():
    # 4(delta - 1) = 0 makes s = 1, so W(2n) = W(2n - 2) for every n
    N = 200
    counts = gf_walk_counts(1, N)
    assert counts == [1] * (N + 1)
    assert verify._gf_quadratic_fault(counts, 1) is None
    for delta in (0, -3):
        with pytest.raises(ValueError, match=f"^delta must be >= 1, got {delta}$"):
            gf_walk_counts(delta, 4)
    with pytest.raises(ValueError, match="^N must be >= 0, got -1$"):
        gf_walk_counts(3, -1)


def test_gf_odd_coefficients_vanish():
    for delta in range(2, 6):
        f = reference_gf_series(delta, 8)
        assert len(f) == 18  # includes a top odd degree for the check
        assert all(f[d] == 0 for d in range(1, len(f), 2))
        assert f[::2] == gf_walk_counts(delta, 8)


def test_gf_matches_combinatorial_formulas():
    for delta in range(2, 10):
        counts = gf_walk_counts(delta, 20)
        assert counts[0] == 1
        for n in range(1, 21):
            assert counts[n] == walks_via_catalan(n, delta)


def test_series_truncation_bookkeeping():
    for N in [0, 1, 7]:
        assert len(sqrt_coefficients(3, N)) == N + 1
        assert len(gf_walk_counts(3, N)) == N + 1
        assert len(reference_gf_series(3, N)) == 2 * N + 2
    assert len(_normalised_denominator(3, 0)) == 1
    assert len(reciprocal_series([1, 2, 3, 4, 5, 6])) == 6


@pytest.mark.parametrize("delta", [2, 3, 6, 20])
def test_gf_matches_t_series_reference(delta):
    f = reference_gf_series(delta, 400)
    assert not any(f[1::2])
    assert gf_walk_counts(delta, 400) == f[::2]


def test_gf_matches_sympy_kesten_mckay():
    sp = pytest.importorskip("sympy")
    t, u = sp.symbols("t u")
    order = 12
    for delta in range(2, 9):
        s = sp.sqrt(1 - 4 * (delta - 1) * u)
        rationalised = (delta * s - (delta - 2)) / (2 * (1 - delta**2 * u))
        kesten_mckay = 2 * (delta - 1) / (delta - 2 + delta * sp.sqrt(1 - 4 * (delta - 1) * t**2))
        km = sp.Poly(sp.series(kesten_mckay, t, 0, 2 * order + 2).removeO(), t)
        rat = sp.Poly(sp.series(rationalised, u, 0, order + 1).removeO(), u)
        km_t = [km.coeff_monomial(t**d) for d in range(2 * order + 2)]
        rat_u = [rat.coeff_monomial(u**n) for n in range(order + 1)]
        assert km_t[1::2] == [0] * (order + 1)
        assert km_t[::2] == rat_u == gf_walk_counts(delta, order)
        # both the closed form and its computed coefficients solve the quadratic
        quadratic = (1 - delta**2 * u) * rationalised**2 + (delta - 2) * rationalised - (delta - 1)
        assert sp.cancel(sp.together(quadratic)) == 0
        F = sum(c * u**n for n, c in enumerate(gf_walk_counts(delta, order)))
        residual = sp.Poly(sp.expand((1 - delta**2 * u) * F**2 + (delta - 2) * F - (delta - 1)), u)
        assert all(residual.coeff_monomial(u**n) == 0 for n in range(order + 1))
