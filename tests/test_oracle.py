"""The formula-independent oracles and their mutual agreement."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewalks import oracle
from treewalks.oracle import dp_return_profile, dp_return_profiles, dp_walk_count, dp_walk_counts
from treewalks.walks import walks_with_k_returns


def test_dp_base_cases():
    for delta in range(1, 8):
        assert dp_walk_count(0, delta) == 1
        assert dp_walk_count(1, delta) == delta


def test_dp_hand_trace():
    # profiles on the 3-regular tree: (1) -> (0,3) -> (3,0,6) -> (0,15,0,12) -> (15,...)
    assert dp_walk_count(2, 3) == 15


def _two_n_step_dp(length, delta):
    """Closed walks of the given length as a DP on walks ending at each depth."""
    counts = [1]
    for step in range(1, length + 1):
        top = min(step, length - step)
        nxt = [0] * (top + 1)
        for d in range(step % 2, top + 1, 2):
            down = counts[d + 1] if d + 1 < len(counts) else 0
            if d == 0:
                nxt[0] = down
            else:
                w = delta if d == 1 else delta - 1
                nxt[d] = w * counts[d - 1] + down
        counts = nxt
    return counts[0]


@pytest.mark.parametrize("delta", [1, 2, 3, 7, 20])
def test_half_length_dp_matches_two_n_step_dp(delta):
    for n in range(61):
        assert dp_walk_count(n, delta) == _two_n_step_dp(2 * n, delta)


@pytest.mark.parametrize("n", [250, 1000])
@pytest.mark.parametrize("delta", [3, 20])
def test_half_length_dp_matches_two_n_step_dp_at_large_n(n, delta):
    assert dp_walk_count(n, delta) == _two_n_step_dp(2 * n, delta)


@pytest.mark.parametrize("delta", range(1, 7))
def test_one_run_readouts_match_the_per_n_dps(delta):
    counts, profiles = dp_walk_counts(60, delta), dp_return_profiles(60, delta)
    assert len(counts) == 61 and len(profiles) == 60
    for n in range(61):
        assert counts[n] == dp_walk_count(n, delta) == _two_n_step_dp(2 * n, delta)
    for n in range(1, 61):
        assert profiles[n - 1] == dp_return_profile(n, delta)


def test_one_run_readouts_at_n0():
    assert dp_walk_counts(0, 3) == [1]
    assert dp_return_profiles(0, 3) == []
    with pytest.raises(ValueError):
        dp_walk_counts(-1, 3)
    with pytest.raises(ValueError):
        dp_return_profiles(3, 0)


@pytest.mark.parametrize("bits", [0, 9])
@pytest.mark.parametrize("delta", [1, 2, 3, 7])
def test_limited_steps_hold_only_depths_that_can_return(delta, bits):
    total = 24
    full = list(oracle._steps(delta, bits, total))
    for limit in (total, total + 1, total + 6):
        for step, counts in enumerate(oracle._steps(delta, bits, total, limit), 1):
            # the deepest kept depth has the step's parity and can still
            # reach the root by step `limit`; no shallower one is dropped
            reach = min(step, limit - step)
            assert 2 * (len(counts) - 1) + step % 2 == reach - (reach - step) % 2
            assert counts == full[step - 1][: len(counts)]


def _plain_steps(delta, bits, total):
    """The unscaled a_d(x), packed in bits-bit slots, depths step % 2, step % 2 + 2, ..."""
    a = {0: 1}
    for step in range(1, total + 1):
        depths = range(step % 2, step + 1, 2)
        a = {
            d: delta * a[1] << bits if d == 0 else a.get(d - 1, 0) + (delta - 1) * a.get(d + 1, 0)
            for d in depths
        }
        yield [a[d] for d in depths]


@pytest.mark.parametrize("bits", [0, 9])
@pytest.mark.parametrize("delta", [2, 3, 7, 20])
def test_steps_carry_the_plain_dp_rescaled(delta, bits):
    # after step s of a run of `total` steps, depth d holds a_d c^((d - s)/2 + K)
    c = delta - 1
    for total in range(25):
        K = (total + 1) // 2
        plain = list(_plain_steps(delta, bits, total))
        for limit in (None, total, total + 3):
            steps = oracle._steps(delta, bits, total, limit)
            for step, (counts, a) in enumerate(zip(steps, plain, strict=True), 1):
                want = [a_d * c ** ((2 * i + step % 2 - step) // 2 + K) for i, a_d in enumerate(a)]
                assert counts == want[: len(counts)]
                assert limit is not None or len(counts) == len(want)


@pytest.mark.parametrize("delta", [2**20, 2**20 + 1, 10**6])
def test_readouts_at_huge_degree(delta):
    profiles = dp_return_profiles(8, delta)
    assert dp_walk_counts(8, delta) == [_two_n_step_dp(2 * n, delta) for n in range(9)]
    for n in range(1, 9):
        full = _full_width_return_profile(n, delta)
        assert dp_return_profile(n, delta) == profiles[n - 1] == full
        assert dp_walk_count(n, delta) == _two_n_step_dp(2 * n, delta) == sum(full)


def test_a_value_above_the_top_slot_raises(monkeypatch):
    # 2-bit slots cannot hold the profile [6, 9] of n = 2 at delta = 3
    monkeypatch.setattr(oracle, "_slot_bits", lambda n, delta: 2)
    with pytest.raises(ArithmeticError, match="top slot"):
        dp_return_profile(3, 3)
    with pytest.raises(ArithmeticError, match="top slot"):
        dp_return_profiles(3, 3)


def test_a_non_exact_division_raises():
    # oracle.py imports nothing from the package, so it checks its own divisions
    with pytest.raises(ArithmeticError):
        oracle._exact(7, 2)
    assert oracle._exact(-12, 4) == -3


def test_return_profile_examples():
    assert dp_return_profile(2, 3) == [6, 9]
    # computed by enumeration: shapes of semi-length 3 on the binary tree
    # have component counts {1,1,2,2,3}; weights 2*1^2, 4*1, 8 per shape
    assert dp_return_profile(3, 2) == [4, 8, 8]
    for delta in range(1, 7):
        assert dp_return_profile(1, delta) == [delta]


def test_return_profile_sums_to_total():
    for n in range(1, 12):
        for delta in range(1, 6):
            profile = dp_return_profile(n, delta)
            assert len(profile) == n
            assert sum(profile) == dp_walk_count(n, delta)


def test_return_profile_via_enumeration():
    # independent route: weight each enumerated shape by its components
    from treewalks.rlseq import components, enumerate_sequences

    for n in range(1, 9):
        for delta in (2, 3, 5):
            by_k = [0] * n
            for seq in enumerate_sequences(n):
                k = len(components(seq))
                by_k[k - 1] += delta**k * (delta - 1) ** (n - k)
            assert dp_return_profile(n, delta) == by_k


def _full_width_return_profile(n, delta):
    """dp_return_profile with an (n + 1)-wide return vector at every depth."""
    zero = [0] * (n + 1)
    rows = [[1] + [0] * n]
    for step in range(1, 2 * n + 1):
        top = min(step, 2 * n - step)
        nxt = [zero] * (top + 1)
        for d in range(step % 2, top + 1, 2):
            above = rows[d + 1] if d + 1 < len(rows) else zero
            if d == 0:
                nxt[0] = [0] + above[:-1]
            else:
                w = delta if d == 1 else delta - 1
                nxt[d] = [w * a + b for a, b in zip(rows[d - 1], above)]
        rows = nxt
    return rows[0][1:]


@pytest.mark.parametrize("delta", [1, 2, 3, 7])
def test_trimmed_return_profile_matches_full_width_dp(delta):
    for n in range(1, 41):
        assert dp_return_profile(n, delta) == _full_width_return_profile(n, delta)


def test_trimmed_return_profile_matches_full_width_dp_at_n80():
    profile = dp_return_profile(80, 20)
    assert len(profile) == 80
    assert profile == _full_width_return_profile(80, 20)


# B = n (2 + delta.bit_length()) has the least slack just below a power of two
@pytest.mark.parametrize("delta", [3, 7, 15, 31, 255])
def test_packed_return_profile_slot_width(delta):
    for n in range(1, 41):
        assert dp_return_profile(n, delta) == _full_width_return_profile(n, delta)


@pytest.mark.parametrize("n", [80, 120])
@pytest.mark.parametrize("delta", [15, 255])
def test_packed_return_profile_slot_width_at_large_n(n, delta):
    assert dp_return_profile(n, delta) == _full_width_return_profile(n, delta)


@pytest.mark.parametrize("delta", [1, 2])
def test_packed_return_profile_at_small_degree(delta):
    for n in range(1, 61):
        assert dp_return_profile(n, delta) == _full_width_return_profile(n, delta)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 200), st.integers(1, 2000))
def test_packed_return_profile_matches_corollaries(n, delta):
    profile = dp_return_profile(n, delta)
    assert sum(profile) == dp_walk_count(n, delta)
    for k in range(1, n + 1):
        assert profile[k - 1] == walks_with_k_returns(n, k, delta)


def test_domain_errors():
    with pytest.raises(ValueError):
        dp_walk_count(-1, 3)
    with pytest.raises(ValueError):
        dp_walk_count(3, 0)
    with pytest.raises(ValueError):
        dp_return_profile(0, 3)


def test_oracle_imports_nothing_from_the_package():
    # the ground truth must not run the code it is the check of
    modules = []
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    package = [m for m in modules if m.startswith(".") or m.split(".")[0] == "treewalks"]
    assert modules and not package, package
