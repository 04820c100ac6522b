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
    RLSequence,
    components,
    cumulative_s,
    enumerate_sequences,
    is_balanced_legal,
    s_closed_form,
    s_table_enumerated,
    s_table_recurrence,
)
from treewalks.triangles import TriangleTable, catalan_entry, catalan_number, format_rows


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
        RLSequence("RLx ")


def test_illegal_sequence_rejected_by_constructor():
    with pytest.raises(IllegalSequenceError):
        RLSequence("RLLR")
    with pytest.raises(IllegalSequenceError):
        RLSequence("R")


@pytest.mark.parametrize(
    "word,error",
    [("RRx", AlphabetError), ("LX", IllegalSequenceError), ("RLLx", IllegalSequenceError)],
)
def test_first_fault_in_the_word_is_reported(word, error):
    # one left-to-right scan: a bad letter after an illegal prefix is not reached
    with pytest.raises(error):
        RLSequence(word)
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


def test_string_round_trip():
    for word in ["", "RL", "RRLLRL", "RRRLLL"]:
        assert str(RLSequence(word)) == word


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
    decomp = components(word)
    assert [str(c) for c in decomp.components] == expected
    assert str(decomp.concatenation()) == word


def test_components_rejects_illegal():
    with pytest.raises(IllegalSequenceError):
        components("RLLR")


def test_component_pieces_are_arch_shaped():
    for seq in enumerate_sequences(6):
        for piece in components(seq).components:
            s = str(piece)
            assert s[0] == "R" and s[-1] == "L"
            # touches height 0 only at its own ends
            h = 0
            for ch in s[:-1]:
                h += 1 if ch == "R" else -1
                assert h > 0 or ch == s[0]


def test_enumeration_counts_and_order():
    assert [str(s) for s in enumerate_sequences(2)] == ["RRLL", "RLRL"]
    assert [str(s) for s in enumerate_sequences(0)] == [""]
    for n in range(9):
        seqs = enumerate_sequences(n)
        assert len(seqs) == catalan_number(n)
        assert len(set(seqs)) == len(seqs)
        words = [str(s) for s in seqs]
        assert words == sorted(words, key=lambda w: [0 if c == "R" else 1 for c in w])
        assert all(is_balanced_legal(w) for w in words)


def test_enumeration_component_multiset_n3():
    counts = sorted(s.component_count for s in enumerate_sequences(3))
    assert counts == [1, 1, 2, 2, 3]


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_sequences(9, cap=8)
    assert len(enumerate_sequences(9, cap=9)) == catalan_number(9)
    with pytest.raises(EnumerationCapError):
        s_table_enumerated(9, cap=8)


def test_histogram_totals_are_catalan():
    for n in range(12):
        assert sum(_kernel.component_histogram(n)) == catalan_number(n)


# sha256 over ",".join(masks of n) + "\n" for n = 0..12, in kernel order
KERNEL_ORDER_SHA256 = "35bbaad1eb1457ee1d3c7836064b753452a6ab52503d69290eca5bab95c01b3c"


def test_kernel_order_is_pinned():
    digest = hashlib.sha256()
    for n in range(13):
        masks = ",".join(str(mask) for mask, _ in _kernel.dyck_paths(n))
        digest.update(f"{masks}\n".encode())
    assert digest.hexdigest() == KERNEL_ORDER_SHA256


def test_kernel_ends_match_component_scan():
    for n in range(13):
        for mask, ends in _kernel.dyck_paths(n):
            assert ends == rlseq._component_ends(mask, 2 * n), (n, mask)


def test_histogram_matches_per_path_count():
    for n in range(13):
        counted = [0] * (n + 1)
        for _, ends in _kernel.dyck_paths(n):
            counted[len(ends)] += 1
        hist = _kernel.component_histogram(n)
        assert hist == counted, n
        if n:
            assert hist[1:] == [s_closed_form(n, k) for k in range(1, n + 1)]


@pytest.mark.parametrize("n", [13, 14])
def test_histogram_matches_closed_form_up_to_default_cap(n):
    expected = [0, *(s_closed_form(n, k) for k in range(1, n + 1))]
    assert _kernel.component_histogram(n) == expected


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


def test_bit_scan_matches_stepwise_reference():
    legal = 0
    for length in range(0, 17, 2):
        for mask in range(1 << length):
            expected = _bitwise_ends(mask, length)
            assert rlseq._component_ends(mask, length) == expected, (length, mask)
            legal += expected is not None
            # a bit at or beyond the length is refused
            assert rlseq._component_ends(mask | 1 << length, length) is None
    assert legal == sum(catalan_number(n) for n in range(9))


def test_bit_scan_at_heights_above_eight():
    # towers R^a L^a of height a >= 9 among RL pairs, at semi-lengths
    # 13..20, beyond the exhaustive test's 16 letters; each word is also
    # scanned with its last letter, or its tower's last letter, flipped
    for n in range(13, 21):
        for a in range(9, n + 1):
            for j in range(n - a + 1):
                mask = rlseq._scan("RL" * j + "R" * a + "L" * a + "RL" * (n - a - j))
                for m in (mask, mask ^ 1 << (2 * n - 1), mask ^ 1 << (2 * (j + a) - 1)):
                    assert rlseq._component_ends(m, 2 * n) == _bitwise_ends(m, 2 * n), (n, m)


def test_negative_n_rejected():
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        next(_kernel.dyck_paths(-1))
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        _kernel.component_histogram(-1)


def test_s_table_enumerated_small_values():
    table = s_table_enumerated(3)
    assert table.entry(1, 1) == 1
    assert table.entry(2, 1) == 1 and table.entry(2, 2) == 1
    assert list(table.rows[3][1:]) == [2, 2, 1]


def test_s_table_recurrence_values():
    table = s_table_recurrence(4)
    assert table.entry(3, 2) == table.entry(2, 1) + table.entry(2, 2) == 2
    for n in range(1, 5):
        assert table.entry(n, n) == 1
    assert sum(table.rows[4][1:]) == 14


def test_s_closed_form_values():
    assert s_closed_form(3, 1) == 2
    assert s_closed_form(4, 2) == 5
    for n in range(1, 10):
        assert s_closed_form(n, n) == 1
    with pytest.raises(IndexError):
        s_closed_form(3, 0)
    with pytest.raises(IndexError):
        s_closed_form(3, 4)


def test_three_routes_agree_to_n12():
    enum = s_table_enumerated(12)
    rec = s_table_recurrence(12)
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert enum.entry(n, k) == rec.entry(n, k) == s_closed_form(n, k)


def test_s_table_recurrence_matches_closed_form_to_n200():
    rec = s_table_recurrence(200)
    for n in range(1, 201):
        assert list(rec.rows[n][1:]) == [s_closed_form(n, k) for k in range(1, n + 1)]


def test_row_sums_are_catalan():
    rec = s_table_recurrence(12)
    for n in range(1, 13):
        assert sum(rec.entry(n, k) for k in range(1, n + 1)) == catalan_number(n)


def test_cumulative_s():
    assert cumulative_s(0, 1) == 1
    assert cumulative_s(2, 2) == 2 == catalan_entry(2, 1)
    assert cumulative_s(3, 3) == 3 == catalan_entry(3, 1)
    # identity with the Catalan triangle: sum_{j>=k-1} S(n-1, j) = C(n-1, n-k)
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert cumulative_s(n - 1, k) == catalan_entry(n - 1, n - k)
    with pytest.raises(IndexError):
        cumulative_s(3, 5)
    with pytest.raises(IndexError):
        cumulative_s(3, 0)


def test_stable_serialization_round_trip():
    import json

    table = s_table_recurrence(5)
    parsed = json.loads("".join(format_rows(table.rows, "json")))
    assert parsed[0] == ["1"]
    assert [int(e) for e in parsed[5]] == list(table.rows[5])
    assert "".join(format_rows(table.rows, "csv")).splitlines()[3] == "0,2,2,1"


def test_verify_s_table_check_catches_a_wrong_recurrence_entry(monkeypatch):
    def one_wrong_entry(n):
        rows = [list(row) for row in s_table_recurrence(n).rows]
        rows[4][2] += 1
        return TriangleTable(tuple(map(tuple, rows)), kind="s")

    monkeypatch.setattr(rlseq, "s_table_recurrence", one_wrong_entry)
    result = verify.check_s_table(6, 6)
    assert not result.passed
    assert result.detail.startswith("(n=4, k=2): ")
    assert "recurrence=6" in result.detail
