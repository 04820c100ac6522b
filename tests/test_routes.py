"""The five routes to W(2n, delta) agree exactly, at small and large n."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from treewalks import verify
from treewalks.oracle import dp_walk_count
from treewalks.series import gf_walk_counts
from treewalks.walks import walks_via_borel, walks_via_catalan, walks_via_components


def five_routes(n: int, delta: int, gf: list[int] | None) -> dict[str, int]:
    values = {
        "components": walks_via_components(n, delta),
        "catalan": walks_via_catalan(n, delta),
        "borel": walks_via_borel(n, delta),
        "oracle": dp_walk_count(n, delta),
    }
    if gf is not None:
        values["gf"] = gf[n]
    return values


def test_five_method_agreement_small():
    for delta in range(1, 7):
        gf = gf_walk_counts(delta, 60) if delta >= 2 else None
        for n in range(1, 61):
            values = five_routes(n, delta, gf)
            assert len(set(values.values())) == 1, (n, delta, values)


def test_five_method_agreement_large():
    for delta in (2, 3, 6):
        gf = gf_walk_counts(delta, 400)
        for n in (199, 200, 399, 400):
            values = five_routes(n, delta, gf)
            assert len(set(values.values())) == 1, (n, delta)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 300), delta=st.integers(1, 50))
def test_each_route_matches_dp(n, delta):
    gf = gf_walk_counts(delta, n) if delta >= 2 else None
    expected = dp_walk_count(n, delta)
    for route, value in five_routes(n, delta, gf).items():
        assert value == expected, route


def test_verify_gf_quadratic_check_catches_a_wrong_coefficient(monkeypatch):
    def wrong_at_u5(delta, N):
        counts = gf_walk_counts(delta, N)
        if delta == 3:
            counts[5] += 1
        return counts

    monkeypatch.setattr(verify, "gf_walk_counts", wrong_at_u5)
    result = verify.check_method_agreement(8, 4)
    assert not result.passed
    assert "gf quadratic identity fails at (u^5, delta=3)" in result.detail


def test_verify_agreement_check_catches_a_disagreeing_route(monkeypatch):
    def wrong_at_6_3(n, delta):
        return walks_via_borel(n, delta) + ((n, delta) == (6, 3))

    monkeypatch.setattr(verify, "walks_via_borel", wrong_at_6_3)
    result = verify.check_method_agreement(8, 4)
    assert not result.passed
    assert result.detail.startswith("disagreement at (n=6, delta=3): ")
    assert f"'borel': {walks_via_catalan(6, 3) + 1}" in result.detail
