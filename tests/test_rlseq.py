"""RL-sequences: legality, components, enumeration, and the S-tables."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treewalks import _kernel, rlseq, verify
from treewalks.rlseq import (
    AlphabetError,
    EnumerationCapError,
    IllegalSequenceError,
    components,
    delete_component_pair,
    enumerate_sequences,
    insert_component_pair,
    is_balanced_legal,
    s_closed_form,
    s_table_enumerated,
    s_table_recurrence,
)
from treewalks.cli import format_rows
from treewalks.triangles import TriangleIndexError, catalan_number


def test_is_balanced_legal_basics():
    assert is_balanced_legal("RRLL")
    assert is_balanced_legal("")
    assert not is_balanced_legal("RLLR")  # prefix RLL illegal
    assert not is_balanced_legal("RRL")  # unbalanced
    assert not is_balanced_legal("LR")


def test_invalid_alphabet_raises():
    with pytest.raises(AlphabetError):
        is_balanced_legal("RXL")
    with pytest.raises(AlphabetError):
        components("RLx ")


def test_illegal_sequence_rejected_by_constructor():
    # every entry point that takes a word as a walk shape validates it first
    for word in ["RLLR", "R"]:
        with pytest.raises(IllegalSequenceError):
            components(word)
        with pytest.raises(IllegalSequenceError):
            delete_component_pair(word, 1)
        with pytest.raises(IllegalSequenceError):
            insert_component_pair(word, 1, 1)


@pytest.mark.parametrize(
    "word,error",
    [("RRx", AlphabetError), ("LX", IllegalSequenceError), ("RLLx", IllegalSequenceError)],
)
def test_first_fault_in_the_word_is_reported(word, error):
    # one left-to-right scan: a bad letter after an illegal prefix is not reached
    with pytest.raises(error):
        components(word)
    if error is IllegalSequenceError:
        assert not is_balanced_legal(word)


@given(st.text(alphabet="RL", max_size=24))
def test_balanced_legal_matches_reference(word):
    # reference: balanced by counting, legal by prefix minima
    balanced = word.count("R") == word.count("L")
    legal = True
    h = 0
    for ch in word:
        h += 1 if ch == "R" else -1
        legal = legal and h >= 0
    assert is_balanced_legal(word) == (balanced and legal)


@pytest.mark.parametrize(
    "word,expected",
    [
        ("RRLLRL", ["RRLL", "RL"]),
        ("RLRLRL", ["RL", "RL", "RL"]),
        ("RRRLLL", ["RRRLLL"]),
        ("", []),
    ],
)
def test_components(word, expected):
    parts = components(word)
    assert type(parts) is tuple and all(type(c) is str for c in parts)
    assert list(parts) == expected
    assert "".join(parts) == word


def test_components_rejects_illegal():
    with pytest.raises(IllegalSequenceError):
        components("RLLR")  # prefix RLL illegal
    with pytest.raises(IllegalSequenceError):
        components("R")  # unbalanced


def test_component_pieces_are_arch_shaped():
    for seq in enumerate_sequences(6):
        parts = components(seq)
        assert "".join(parts) == seq
        for piece in parts:
            assert piece[0] == "R" and piece[-1] == "L"
            # touches height 0 only at its own ends
            h = 0
            for ch in piece[:-1]:
                h += 1 if ch == "R" else -1
                assert h > 0 or ch == piece[0]


def test_enumeration_counts_and_order():
    assert enumerate_sequences(2) == ["RRLL", "RLRL"]
    assert enumerate_sequences(0) == [""]
    for n in range(9):
        words = enumerate_sequences(n)
        assert type(words) is list and all(type(w) is str for w in words)
        assert len(words) == catalan_number(n)
        assert len(set(words)) == len(words)
        assert words == sorted(words, key=lambda w: [0 if c == "R" else 1 for c in w])
        assert all(is_balanced_legal(w) for w in words)


def test_enumeration_component_multiset_n3():
    counts = sorted(len(components(s)) for s in enumerate_sequences(3))
    assert counts == [1, 1, 2, 2, 3]


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_sequences(9, cap=8)
    assert len(enumerate_sequences(9, cap=9)) == catalan_number(9)
    with pytest.raises(EnumerationCapError):
        s_table_enumerated(9, cap=8)


def test_histogram_totals_are_catalan():
    rows = _kernel.component_histograms(11)
    assert [sum(row) for row in rows] == [catalan_number(n) for n in range(12)]


# sha256 over ",".join(masks of n) + "\n" for n = 0..12, in kernel order
KERNEL_ORDER_SHA256 = "35bbaad1eb1457ee1d3c7836064b753452a6ab52503d69290eca5bab95c01b3c"


def test_kernel_order_is_pinned():
    digest = hashlib.sha256()
    for n in range(13):
        masks = ",".join(str(mask) for mask, _ in _kernel.dyck_paths(n))
        digest.update(f"{masks}\n".encode())
    assert digest.hexdigest() == KERNEL_ORDER_SHA256


def test_kernel_classes_are_its_paths_grouped_by_ends():
    # the bijection check's count rests on each path being listed once, and
    # the pinned order above fixes dyck_paths, so each class is held to it
    for n in range(13):
        grouped = {}
        for mask, ends in _kernel.dyck_paths(n):
            grouped.setdefault(tuple(ends), []).append(mask)
        classes = _kernel.dyck_classes(n)
        assert [(ends, masks.typecode, list(masks)) for ends, masks in classes.items()] == [
            (ends, "Q", masks) for ends, masks in grouped.items()
        ], n
        assert sum(map(len, classes.values())) == catalan_number(n)
        assert max(max(masks) for masks in classes.values()) < 1 << 2 * n


def test_kernel_ends_match_component_scan():
    for n in range(13):
        for mask, ends in _kernel.dyck_paths(n):
            assert ends == rlseq._scan(rlseq._word(mask, 2 * n))[1], (n, mask)


def test_histogram_matches_per_path_count():
    rows = _kernel.component_histograms(12)
    assert len(rows) == 13
    for n, hist in enumerate(rows):
        counted = [0] * (n + 1)
        for _, ends in _kernel.dyck_paths(n):
            counted[len(ends)] += 1
        assert hist == counted, n
        if n:
            assert hist[1:] == [s_closed_form(n, k) for k in range(1, n + 1)]


@pytest.fixture(scope="module")
def rows_to_default_cap():
    return _kernel.component_histograms(16)


# rows 15 and 16 pack their counts in 31- and 33-bit slots, wider than
# one 30-bit CPython digit
@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_histogram_matches_closed_form_up_to_default_cap(rows_to_default_cap, n):
    expected = [0, *(s_closed_form(n, k) for k in range(1, n + 1))]
    assert rows_to_default_cap[n] == expected


def _bitwise_ends(mask, length):
    """Reference scan, one step at a time: ends, or None off a Dyck path."""
    ends, height = [], 0
    for pos in range(length):
        height += 1 if mask >> pos & 1 else -1
        if height < 0:
            return None
        if not height:
            ends.append(pos + 1)
    return None if height else ends


def _scan_matches_reference(mask, length):
    """The word scan of a spelled mask agrees with the reference; True if legal."""
    word = rlseq._word(mask, length)
    expected = _bitwise_ends(mask, length)
    if expected is None:
        with pytest.raises(IllegalSequenceError):
            rlseq._scan(word)
        return False
    # the spelled word scans back to the mask; length 0 is ""
    assert len(word) == length and rlseq._scan(word) == (mask, expected), (length, mask)
    return True


def test_bit_scan_matches_stepwise_reference():
    legal = sum(
        _scan_matches_reference(mask, length)
        for length in range(0, 17, 2)
        for mask in range(1 << length)
    )
    assert legal == sum(catalan_number(n) for n in range(9))


def test_bit_scan_at_heights_above_eight():
    # towers R^a L^a of height a >= 9 among RL pairs, at semi-lengths
    # 13..20, beyond the exhaustive test's 16 letters; each word is also
    # scanned with its last letter, or its tower's last letter, flipped
    for n in range(13, 21):
        for a in range(9, n + 1):
            for j in range(n - a + 1):
                mask, _ = rlseq._scan("RL" * j + "R" * a + "L" * a + "RL" * (n - a - j))
                for m in (mask, mask ^ 1 << (2 * n - 1), mask ^ 1 << (2 * (j + a) - 1)):
                    _scan_matches_reference(m, 2 * n)


def test_negative_n_rejected():
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        next(_kernel.dyck_paths(-1))
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        enumerate_sequences(-1)
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        _kernel.component_histograms(-1)
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        _kernel.dyck_classes(-1)
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        s_table_recurrence(-1)


def test_s_table_enumerated_small_values():
    table = s_table_enumerated(3)
    assert table[1][1] == 1
    assert table[2][1] == 1 and table[2][2] == 1
    assert list(table[3][1:]) == [2, 2, 1]


def test_s_table_recurrence_values():
    table = s_table_recurrence(4)
    assert table[3][2] == table[2][1] + table[2][2] == 2
    for n in range(1, 5):
        assert table[n][n] == 1
    assert sum(table[4][1:]) == 14


def test_s_closed_form_values():
    assert s_closed_form(3, 1) == 2
    assert s_closed_form(4, 2) == 5
    for n in range(1, 10):
        assert s_closed_form(n, n) == 1
    # a ValueError, so the CLI reports it as a domain error
    with pytest.raises(TriangleIndexError, match=r"need 1 <= k <= n, got \(n=3, k=0\)"):
        s_closed_form(3, 0)
    with pytest.raises(TriangleIndexError, match=r"need 1 <= k <= n, got \(n=3, k=4\)"):
        s_closed_form(3, 4)


def test_three_routes_agree_to_n12():
    enum = s_table_enumerated(12)
    rec = s_table_recurrence(12)
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert enum[n][k] == rec[n][k] == s_closed_form(n, k)


def test_s_table_recurrence_matches_closed_form_to_n200():
    rec = s_table_recurrence(200)
    for n in range(1, 201):
        assert list(rec[n][1:]) == [s_closed_form(n, k) for k in range(1, n + 1)]


def test_row_sums_are_catalan():
    rec = s_table_recurrence(12)
    for n in range(1, 13):
        assert sum(rec[n][k] for k in range(1, n + 1)) == catalan_number(n)


def test_stable_serialization_round_trip():
    import json

    table = s_table_recurrence(5)
    parsed = json.loads("".join(format_rows(table, "json")))
    assert parsed[0] == ["1"]
    assert [int(e) for e in parsed[5]] == list(table[5])
    assert "".join(format_rows(table, "csv")).splitlines()[3] == "0,2,2,1"


def test_verify_s_table_check_catches_a_wrong_recurrence_entry(monkeypatch):
    def one_wrong_entry(n):
        rows = [list(row) for row in s_table_recurrence(n)]
        rows[4][2] += 1
        return tuple(map(tuple, rows))

    monkeypatch.setattr(rlseq, "s_table_recurrence", one_wrong_entry)
    result = verify.check_s_table(6)
    assert not result.passed
    assert result.detail.startswith("(n=4, k=2): ")
    assert "recurrence=6" in result.detail


def test_verify_s_table_check_catches_a_wrong_row_sum(monkeypatch):
    monkeypatch.setattr(verify, "catalan_number", lambda n: catalan_number(n) + (n == 5))
    result = verify.check_s_table(6)
    assert not result.passed
    assert result.detail == "row 5 sums to 42, not Catalan(5)"
