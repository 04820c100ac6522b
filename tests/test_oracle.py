"""The formula-independent oracles and their mutual agreement."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewalks.oracle import (
    dp_return_profile,
    dp_walk_count,
    dp_walk_count_by_length,
    weighted_dyck_count,
)
from treewalks.rlseq import EnumerationCapError
from treewalks.walks import walks_with_k_returns


def test_dp_base_cases():
    for delta in range(1, 8):
        assert dp_walk_count(0, delta) == 1
        assert dp_walk_count(1, delta) == delta


def test_dp_hand_trace():
    # profiles on the 3-regular tree: (1) -> (0,3) -> (3,0,6) -> (0,15,0,12) -> (15,...)
    assert dp_walk_count(2, 3) == 15


def test_odd_lengths_have_no_closed_walks():
    for length in range(1, 16, 2):
        for delta in range(1, 6):
            assert dp_walk_count_by_length(length, delta) == 0


def _two_n_step_dp(length, delta):
    """dp_walk_count_by_length as a 2n-step DP on walks ending at each depth."""
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
    for length in range(121):
        assert dp_walk_count_by_length(length, delta) == _two_n_step_dp(length, delta)


@pytest.mark.parametrize("n", [250, 1000])
@pytest.mark.parametrize("delta", [3, 20])
def test_half_length_dp_matches_two_n_step_dp_at_large_n(n, delta):
    assert dp_walk_count(n, delta) == _two_n_step_dp(2 * n, delta)


def test_weighted_dyck_examples():
    assert weighted_dyck_count(2, 3) == 15  # 3^2 (RLRL) + 3*2 (RRLL)
    assert weighted_dyck_count(3, 2) == 20
    for delta in range(1, 8):
        assert weighted_dyck_count(1, delta) == delta


def test_weighted_dyck_matches_dp():
    for n in range(1, 13):
        for delta in range(1, 7):
            assert weighted_dyck_count(n, delta) == dp_walk_count(n, delta)


@pytest.mark.parametrize("n", [13, 14])
@pytest.mark.parametrize("delta", [1, 2, 3, 7])
def test_weighted_dyck_matches_dp_up_to_default_cap(n, delta):
    assert weighted_dyck_count(n, delta) == dp_walk_count(n, delta)


def test_weighted_dyck_cap():
    with pytest.raises(EnumerationCapError):
        weighted_dyck_count(9, 3, cap=8)


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
    from treewalks.rlseq import enumerate_sequences

    for n in range(1, 9):
        for delta in (2, 3, 5):
            by_k = [0] * n
            for seq in enumerate_sequences(n):
                k = seq.component_count
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
    with pytest.raises(ValueError):
        weighted_dyck_count(0, 3)
