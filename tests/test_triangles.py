"""Triangle formulas, cross-validation, and serialization."""

from __future__ import annotations

import json
from math import comb

import pytest

from treewalks import verify
from treewalks.rlseq import s_table_recurrence
from treewalks.triangles import (
    TriangleIndexError,
    TriangleTable,
    borel_entry_explicit,
    borel_entry_transform,
    borel_row,
    borel_rows,
    borel_table,
    catalan_entry,
    catalan_number,
    catalan_table,
    format_rows,
)

# rows 0..7 of both triangles, frozen from the published tables
CATALAN_ROWS = [
    [1],
    [1, 1],
    [1, 2, 2],
    [1, 3, 5, 5],
    [1, 4, 9, 14, 14],
    [1, 5, 14, 28, 42, 42],
    [1, 6, 20, 48, 90, 132, 132],
    [1, 7, 27, 75, 165, 297, 429, 429],
]
BOREL_ROWS = [
    [1],
    [2, 1],
    [5, 6, 2],
    [14, 28, 20, 5],
    [42, 120, 135, 70, 14],
    [132, 495, 770, 616, 252, 42],
    [429, 2002, 4004, 4368, 2730, 924, 132],
    [1430, 8008, 19656, 27300, 23100, 11880, 3432, 429],
]


def test_catalan_numbers():
    assert catalan_number(0) == 1
    assert catalan_number(4) == 14
    assert catalan_number(7) == 429
    for n in range(20):
        assert catalan_number(n) == catalan_entry(n, n)


@pytest.mark.parametrize(
    "n,k,expected", [(5, 3, 28), (6, 4, 90), (0, 0, 1), (7, 5, 297)]
)
def test_catalan_entry_values(n, k, expected):
    assert catalan_entry(n, k) == expected


def test_catalan_entry_left_edge():
    for n in range(15):
        assert catalan_entry(n, 0) == 1


def test_catalan_table_matches_published_rows():
    table = catalan_table(7)
    assert [list(r) for r in table.rows] == CATALAN_ROWS


def test_borel_table_matches_published_rows():
    table = borel_table(7)
    assert [list(r) for r in table.rows] == BOREL_ROWS


def test_catalan_recurrence_agrees_with_formula():
    table = catalan_table(30)
    for n in range(31):
        for k in range(n + 1):
            assert table.entry(n, k) == catalan_entry(n, k)


def test_catalan_diagonal_identity():
    for n in range(1, 31):
        assert catalan_entry(n, n) == catalan_entry(n, n - 1) == catalan_number(n)


@pytest.mark.parametrize("n,k,expected", [(4, 2, 135), (0, 0, 1), (2, 1, 6)])
def test_borel_explicit_values(n, k, expected):
    assert borel_entry_explicit(n, k) == expected


@pytest.mark.parametrize("n,k,expected", [(3, 2, 20), (5, 3, 616)])
def test_borel_transform_values(n, k, expected):
    assert borel_entry_transform(n, k) == expected


def test_borel_diagonal_is_catalan():
    for n in range(20):
        assert borel_entry_transform(n, n) == catalan_number(n)


def test_borel_explicit_equals_transform():
    for n in range(31):
        for k in range(n + 1):
            assert borel_entry_explicit(n, k) == borel_entry_transform(n, k)


def test_borel_row_equals_entry_routes():
    for n in range(41):
        row = borel_row(n)
        assert row == [borel_entry_transform(n, k) for k in range(n + 1)]
        assert row == [borel_entry_explicit(n, k) for k in range(n + 1)]
    with pytest.raises(TriangleIndexError):
        borel_row(-1)


def test_borel_table_recurrence_equals_row_and_entry_routes():
    full = borel_table(60).rows
    for n, built in enumerate(full):
        assert list(built) == borel_row(n)
        assert list(built) == [borel_entry_explicit(n, k) for k in range(n + 1)]
    for N in range(60):
        assert borel_table(N).rows == full[: N + 1]
    with pytest.raises(TriangleIndexError):
        borel_table(-1)


def test_borel_row_equals_recurrence_at_large_n():
    wanted = {100, 249, 500}
    for n, built in enumerate(borel_rows(max(wanted))):
        if n in wanted:
            assert list(built) == borel_row(n), n


def test_published_borel_formula_denominator_is_wrong():
    # regression documenting the typo: a 1/n denominator contradicts the
    # triangle itself (and is undefined at n = 0)
    n, k = 1, 0
    wrong = comb(2 * n + 2, n - k) * comb(n + k, n) // n
    assert wrong == 4
    assert borel_entry_explicit(1, 0) == 2
    wrong21 = comb(6, 1) * comb(3, 2) // 2
    assert wrong21 == 9 and borel_entry_explicit(2, 1) == 6


def test_index_errors():
    for bad in [(2, 3), (-1, 0), (3, -1)]:
        with pytest.raises(TriangleIndexError):
            catalan_entry(*bad)
        with pytest.raises(TriangleIndexError):
            borel_entry_explicit(*bad)
        with pytest.raises(TriangleIndexError):
            borel_entry_transform(*bad)


def test_table_invariants_and_bounds():
    table = catalan_table(6)
    assert "".join(format_rows(table.rows, "plain")).count("\n") == len(table.rows) == 7
    with pytest.raises(TriangleIndexError):
        table.entry(7, 0)
    with pytest.raises(TriangleIndexError):
        table.entry(3, 4)


@pytest.mark.parametrize(
    "rows, kind",
    [
        (((1,), (1, 1), (1, 2)), "catalan"),  # row 2 too short
        (((1,), (1, 0)), "catalan"),
        (((1,), (0, 1)), "borel"),
        (((1,), (0, 1), (1, 1, 1)), "s"),  # S(2, 0) = 1
        (((1,), (0, 1), (0, 0, 1)), "s"),  # S(2, 1) = 0
    ],
)
def test_table_check_refuses_bad_tables(rows, kind):
    with pytest.raises(ValueError):
        TriangleTable(rows, kind=kind)


def test_csv_serialization():
    table = catalan_table(2)
    assert "".join(format_rows(table.rows, "csv")) == "1\n1,1\n1,2,2\n"


def test_json_round_trip():
    table = borel_table(5)
    payload = "".join(format_rows(table.rows, "json"))
    parsed = json.loads(payload)
    assert parsed == [[str(e) for e in row] for row in table.rows]
    assert json.dumps(parsed) + "\n" == payload
    assert [[int(e) for e in row] for row in parsed] == [list(r) for r in table.rows]


@pytest.mark.parametrize(
    "rows",
    [catalan_table(60).rows, borel_table(60).rows, s_table_recurrence(60).rows],
    ids=["catalan", "borel", "s"],
)
def test_json_rows_are_json_dumps_text(rows):
    expected = json.dumps([list(map(str, row)) for row in rows]) + "\n"
    assert "".join(format_rows(rows, "json")) == expected


def test_verify_borel_check_catches_a_wrong_entry(monkeypatch):
    def wrong_at_5_2(n, k):
        return borel_entry_explicit(n, k) + ((n, k) == (5, 2))

    monkeypatch.setattr(verify, "borel_entry_explicit", wrong_at_5_2)
    result = verify.check_borel_consistency(8)
    assert not result.passed
    assert result.detail == "(n=5, k=2): 771 != 770 or row 770"


def test_verify_borel_check_catches_a_wrong_table_entry(monkeypatch):
    def wrong_at_9_4(N):
        rows = [list(r) for r in borel_table(N).rows]
        rows[9][4] += 1
        return TriangleTable(tuple(map(tuple, rows)), kind="borel")

    monkeypatch.setattr(verify, "borel_table", wrong_at_9_4)
    result = verify.check_borel_consistency(12)
    assert not result.passed
    right = borel_entry_explicit(9, 4)
    assert result.detail == f"(n=9, k=4): table {right + 1} != {right}"
