"""The deletion/insertion bijection behind the component recurrence."""

from __future__ import annotations

import re
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treewalks import _kernel, rlseq, verify
from treewalks.rlseq import (
    ComponentIndexError,
    components,
    delete_component_pair,
    enumerate_sequences,
    insert_component_pair,
    is_balanced_legal,
)


@pytest.mark.parametrize(
    "word,i,expected",
    [
        ("RRLL", 1, "RL"),
        ("RLRL", 1, "RL"),
        ("RRLLRL", 1, "RLRL"),
        ("RRLLRL", 2, "RRLL"),
        ("RRLRLL", 1, "RLRL"),
    ],
)
def test_delete_examples(word, i, expected):
    out = delete_component_pair(word, i)
    assert type(out) is str and out == expected


@pytest.mark.parametrize(
    "alpha,i,k,expected",
    [
        ("RLRL", 1, 2, "RRLLRL"),
        ("", 1, 1, "RL"),
        ("RL", 1, 1, "RRLL"),
        ("RLRL", 2, 2, "RLRRLL"),
        ("RLRL", 1, 3, "RLRLRL"),  # j = k-1: a bare RL is inserted
    ],
)
def test_insert_examples(alpha, i, k, expected):
    out = insert_component_pair(alpha, i, k)
    assert type(out) is str and out == expected


def test_delete_bad_component_index():
    with pytest.raises(ComponentIndexError):
        delete_component_pair("RRLL", 2)
    with pytest.raises(ComponentIndexError):
        delete_component_pair("RL", 0)


def test_insert_precondition_violations():
    # alpha has j = 1 component; k = 3 needs j >= 2
    with pytest.raises(ComponentIndexError):
        insert_component_pair("RRLL", 1, 3)
    with pytest.raises(ComponentIndexError):
        insert_component_pair("RL", 2, 1)  # i > k
    with pytest.raises(ComponentIndexError):
        insert_component_pair("RL", 0, 1)


def test_delete_postconditions_exhaustive():
    for n in range(1, 7):
        for seq in enumerate_sequences(n):
            k = len(components(seq))
            for i in range(1, k + 1):
                out = delete_component_pair(seq, i)
                assert len(out) == len(seq) - 2
                assert is_balanced_legal(out)
                assert k - 1 <= len(components(out)) <= n - 1 or n == 1


def test_round_trip_exhaustive():
    # insert then delete is the identity for every valid (alpha, i, k)
    for n in range(1, 9):
        for alpha in enumerate_sequences(n - 1):
            j = len(components(alpha))
            for k in range(1, n + 1):
                if j < k - 1:
                    continue
                for i in range(1, k + 1):
                    omega = insert_component_pair(alpha, i, k)
                    assert len(components(omega)) == k
                    assert len(omega) == len(alpha) + 2
                    assert delete_component_pair(omega, i) == alpha


def test_bijectivity_exhaustive():
    # for fixed i = 1, deletion maps S(n, k) bijectively onto the union
    # of S(n-1, j) over j >= k-1
    for n in range(1, 9):
        prev_by_comps: dict[int, set[str]] = {}
        for seq in enumerate_sequences(n - 1):
            prev_by_comps.setdefault(len(components(seq)), set()).add(seq)
        cur_by_comps: dict[int, list[str]] = {}
        for seq in enumerate_sequences(n):
            cur_by_comps.setdefault(len(components(seq)), []).append(seq)
        for k, members in cur_by_comps.items():
            images = [delete_component_pair(seq, 1) for seq in members]
            assert len(set(images)) == len(images), f"not injective at n={n}, k={k}"
            target = {
                s for j, seqs in prev_by_comps.items() if j >= k - 1 for s in seqs
            }
            assert set(images) == target, f"image mismatch at n={n}, k={k}"


@given(st.data())
def test_round_trip_random(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    alpha = data.draw(st.sampled_from(enumerate_sequences(n - 1)))
    j = len(components(alpha))
    k = data.draw(st.integers(min_value=1, max_value=j + 1))
    i = data.draw(st.integers(min_value=1, max_value=k))
    omega = insert_component_pair(alpha, i, k)
    assert delete_component_pair(omega, i) == alpha


def _words(n):
    """Balanced legal words of length 2n, by filtering every R/L string."""
    for letters in product("RL", repeat=2 * n):
        heights = [0]
        for ch in letters:
            heights.append(heights[-1] + (1 if ch == "R" else -1))
        if min(heights) == 0 == heights[-1]:
            yield "".join(letters)


def _split(word):
    parts, height, start = [], 0, 0
    for pos, ch in enumerate(word):
        height += 1 if ch == "R" else -1
        if height == 0:
            parts.append(word[start : pos + 1])
            start = pos + 1
    return parts


def test_maps_match_string_slicing_reference():
    # the reference cuts and glues strings; it shares no mask arithmetic
    for n in range(7):
        for word in _words(n):
            parts = _split(word)
            j = len(parts)
            for i in range(1, j + 1):
                cut = parts[: i - 1] + [parts[i - 1][1:-1]] + parts[i:]
                assert delete_component_pair(word, i) == "".join(cut)
            for k in range(1, j + 2):
                for i in range(1, k + 1):
                    hi = j - k + i
                    wrapped = "R" + "".join(parts[i - 1 : hi]) + "L"
                    expected = "".join(parts[: i - 1]) + wrapped + "".join(parts[hi:])
                    assert insert_component_pair(word, i, k) == expected


def test_verify_bijection_check_catches_a_wrong_deletion(monkeypatch):
    # drops the first two steps instead of the first component's outer R...L
    monkeypatch.setattr(rlseq, "_delete", lambda mask, ends, i: mask >> 2)
    result = verify.check_bijection(4)
    assert not result.passed
    assert re.search(r"\(n=\d+, k=\d+\)", result.detail)


def test_verify_bijection_check_catches_an_insert_below_the_root(monkeypatch):
    # wraps the block in L...R instead of R...L, so omega dips below the root
    insert = rlseq._insert

    def flipped(mask, ends, i, k):
        hi = len(ends) - k + i
        start = ends[i - 2] if i > 1 else 0
        end = ends[hi - 1] if hi else 0
        return insert(mask, ends, i, k) ^ (1 << start | 1 << (end + 1))

    monkeypatch.setattr(rlseq, "_insert", flipped)
    result = verify.check_bijection(4)
    assert not result.passed
    assert result.detail.startswith("insert postcondition fails at ")


def test_verify_bijection_check_catches_a_wrong_round_trip(monkeypatch):
    # inserts at the mirrored index: a valid word with k components, not omega
    insert = rlseq._insert
    monkeypatch.setattr(
        rlseq, "_insert", lambda mask, ends, i, k: insert(mask, ends, k - i + 1, k)
    )
    result = verify.check_bijection(4)
    assert not result.passed
    assert result.detail.startswith("round trip fails at ")


def test_verify_bijection_check_catches_a_missing_path(monkeypatch):
    # the kernel drops RLRLRL, the last path of level 3, and its three pairs
    dyck_paths = _kernel.dyck_paths
    monkeypatch.setattr(
        _kernel, "dyck_paths", lambda n: list(dyck_paths(n))[: -1 if n == 3 else None]
    )
    result = verify.check_bijection(4)
    assert not result.passed
    assert result.detail == "6 (omega, i) pairs but 9 (alpha, i, k) triples at n=3"


@pytest.mark.parametrize("max_n, pairs", [(8, 4_861), (10, 58_785)])
def test_verify_bijection_check_counts_every_pair(max_n, pairs):
    # sum over n of the components of every path of length 2n
    expected = sum(
        len(components(rlseq._word(mask, 2 * n)))
        for n in range(1, max_n + 1)
        for mask, _ in _kernel.dyck_paths(n)
    )
    assert expected == pairs
    assert verify.check_bijection(max_n) == verify.CheckResult(
        "deletion/insertion bijection", True, cases=pairs
    )
