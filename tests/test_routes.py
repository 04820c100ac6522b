"""The five routes to W(2n, delta) agree exactly, at small and large n."""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treewalks
from treewalks import cli, exact, triangles, verify, walks
from treewalks.oracle import dp_return_profiles, dp_walk_count, dp_walk_counts
from treewalks.series import gf_walk_counts
from treewalks.walks import (
    components_walk_counts,
    walks_via_borel,
    walks_via_catalan,
    walks_via_components,
)

PACKAGE_DIR = Path(treewalks.__file__).parent


def five_routes(n: int, delta: int, gf: list[int]) -> dict[str, int]:
    return {
        "components": walks_via_components(n, delta),
        "catalan": walks_via_catalan(n, delta),
        "borel": walks_via_borel(n, delta),
        "oracle": dp_walk_count(n, delta),
        "gf": gf[n],
    }


def test_five_method_agreement_small():
    for delta in range(1, 7):
        gf = gf_walk_counts(delta, 60)
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
    gf = gf_walk_counts(delta, n)
    expected = dp_walk_count(n, delta)
    for route, value in five_routes(n, delta, gf).items():
        assert value == expected, route


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("method", walks.ROUTES)
def test_every_route_refuses_n_below_1_alike(method, n):
    with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
        walks.ROUTES[method](n, 3)


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

    monkeypatch.setitem(walks.ROUTES, "borel", wrong_at_6_3)
    result = verify.check_method_agreement(8, 4)
    assert not result.passed
    assert result.detail.startswith("disagreement at (n=6, delta=3): ")
    assert f"'borel': {walks_via_catalan(6, 3) + 1}" in result.detail


def _components_off_at_6_3(delta, N):
    counts = components_walk_counts(delta, N)
    if delta == 3:
        counts[6] += 1
    return counts


def _dp_off_at_6_3(N, delta):
    counts = dp_walk_counts(N, delta)
    if delta == 3:
        counts[6] += 1
    return counts


@pytest.mark.parametrize(
    "series, wrong",
    [("components_walk_counts", _components_off_at_6_3), ("dp_walk_counts", _dp_off_at_6_3)],
)
def test_verify_agreement_check_catches_a_wrong_series(monkeypatch, series, wrong):
    monkeypatch.setattr(verify, series, wrong)
    result = verify.check_method_agreement(8, 4)
    assert not result.passed
    assert result.detail.startswith("disagreement at (n=6, delta=3): ")


# the top two n cover both parities of the oracle's halving readout
@pytest.mark.parametrize("bad_n", [7, 8])
@pytest.mark.parametrize("method", ["components", "gf", "oracle"])
def test_verify_agreement_check_calls_each_series_route_at_the_top_n(monkeypatch, method, bad_n):
    right = walks.ROUTES[method]

    def wrong_at_bad_n(n, delta):
        return right(n, delta) + (n == bad_n)

    monkeypatch.setitem(walks.ROUTES, method, wrong_at_bad_n)
    result = verify.check_method_agreement(8, 4)
    assert not result.passed
    assert result.detail.startswith(f"disagreement at (n={bad_n}, delta=1): ")
    assert f"'{method} at n alone': 2" in result.detail


def test_one_route_table_serves_the_cli_and_verify(monkeypatch, capsys):
    def wrong_at_6_3(n, delta):
        return walks_via_borel(n, delta) + ((n, delta) == (6, 3))

    monkeypatch.setitem(walks.ROUTES, "borel", wrong_at_6_3)
    result = verify.check_method_agreement(8, 4)
    assert not result.passed and "'borel'" in result.detail
    code = cli.main(["walks", "--n", "6", "--delta", "3", "--method", "all"])
    assert code == 1
    assert capsys.readouterr().err.startswith("method disagreement: ")


def _footprint(route, *args):
    """Code objects of the package functions that run while ``route(*args)`` does."""
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and PACKAGE_DIR in Path(code.co_filename).parents:
            seen.add(code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        route(*args)
    finally:
        sys.setprofile(previous)
    return seen


def test_routes_share_only_the_checked_division_and_the_domain_check():
    n, delta = 9, 3
    footprints = {
        "components": _footprint(walks_via_components, n, delta)
        | _footprint(components_walk_counts, delta, n),
        "catalan": _footprint(walks_via_catalan, n, delta),
        "borel": _footprint(walks_via_borel, n, delta),
        "gf": _footprint(gf_walk_counts, delta, n),
        "oracle": _footprint(dp_walk_count, n, delta)
        | _footprint(dp_walk_counts, n, delta)
        | _footprint(dp_return_profiles, n, delta),
    }
    assert all(footprints.values())
    allowed = {exact.exact_div.__code__, walks._check_domain.__code__}
    for (a, fa), (b, fb) in combinations(footprints.items(), 2):
        shared = sorted(
            f"{Path(c.co_filename).stem}.{getattr(c, 'co_qualname', c.co_name)}"
            for c in (fa & fb) - allowed
        )
        assert not shared, (a, b, shared)


def test_borel_routes_share_only_the_checked_division_and_the_index_check():
    n = 9
    cells = [(m, k) for m in range(n + 1) for k in range(m + 1)]
    footprints = {
        "explicit": _footprint(lambda: [triangles.borel_entry_explicit(*c) for c in cells]),
        "transform": _footprint(lambda: [triangles.borel_transform_row(m) for m in range(n + 1)]),
        "borel_row": _footprint(lambda: [triangles.borel_row(m) for m in range(n + 1)]),
        "borel_table": _footprint(triangles.borel_table, n),
    }
    assert all(footprints.values())
    allowed = {exact.exact_div.__code__, triangles._check_index.__code__}
    for (a, fa), (b, fb) in combinations(footprints.items(), 2):
        shared = sorted(
            f"{Path(c.co_filename).stem}.{getattr(c, 'co_qualname', c.co_name)}"
            for c in (fa & fb) - allowed
        )
        assert not shared, (a, b, shared)
