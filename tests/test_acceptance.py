"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every check is exact integer equality; the stated runtime bounds
are asserted with a wall clock.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from math import comb

from treewalks import cli, rlseq
from treewalks import fixtures as fx
from treewalks.oracle import dp_return_profile, dp_walk_count
from treewalks.series import gf_walk_counts
from treewalks.triangles import (
    borel_entry_explicit,
    borel_table,
    borel_transform_row,
    catalan_entry,
    catalan_table,
)
from treewalks.walks import (
    first_return_count,
    second_return_count,
    walks_polynomial,
    walks_via_borel,
    walks_via_catalan,
    walks_via_components,
    walks_with_k_returns,
)

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
POLY_TABLE = {
    1: [1],
    2: [2, -1],
    3: [5, -6, 2],
    4: [14, -28, 20, -5],
    5: [42, -120, 135, -70, 14],
    6: [132, -495, 770, -616, 252, -42],
}
K_RETURN_TABLE = {
    (1, 1): 1,
    (2, 2): 1, (2, 1): 1,
    (3, 3): 1, (3, 2): 2, (3, 1): 2,
    (4, 4): 1, (4, 3): 3, (4, 2): 5, (4, 1): 5,
    (5, 5): 1, (5, 4): 4, (5, 3): 9, (5, 2): 14, (5, 1): 14,
    (6, 6): 1, (6, 5): 5, (6, 4): 14, (6, 3): 28, (6, 2): 42, (6, 1): 42,
}


@contextmanager
def criterion(num: int, name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None:
            assert elapsed < budget_s, f"took {elapsed:.2f}s, budget {budget_s}s"
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_paper_table_reproduction(capsys):
    with criterion(1, "triangle-table reproduction", budget_s=1.0):
        assert [list(r) for r in catalan_table(7)] == CATALAN_ROWS
        assert [list(r) for r in borel_table(7)] == BOREL_ROWS
        # the bundled tables that verify's fixture check reads hold the same values
        assert fx.TRIANGLES == {"catalan": CATALAN_ROWS, "borel": BOREL_ROWS}
        # through the CLI surface as well
        for kind, expected in (("catalan", CATALAN_ROWS), ("borel", BOREL_ROWS)):
            assert cli.main(["triangle", kind, "--rows", "7", "--format", "json"]) == 0
            rows = json.loads(capsys.readouterr().out)
            assert [list(map(int, row)) for row in rows] == expected


def test_criterion_2_polynomial_reproduction():
    with criterion(2, "polynomial reproduction", budget_s=1.0):
        assert fx.WALK_POLYNOMIALS == POLY_TABLE
        assert fx.K_RETURN_MULTIPLIERS == K_RETURN_TABLE
        for n, coeffs in POLY_TABLE.items():
            assert list(walks_polynomial(n)) == coeffs
        for (n, k), mult in K_RETURN_TABLE.items():
            assert catalan_entry(n - 1, n - k) == mult
            for delta in (1, 2, 3, 7):
                expected = delta**k * (delta - 1) ** (n - k) * mult
                assert walks_with_k_returns(n, k, delta) == expected


def test_criterion_3_five_method_agreement():
    with criterion(3, "five-method agreement", budget_s=60.0):
        for delta in range(1, 10):
            gf = gf_walk_counts(delta, 20)
            for n in range(1, 21):
                w = walks_via_components(n, delta)
                assert w == walks_via_catalan(n, delta)
                assert w == walks_via_borel(n, delta)
                assert w == dp_walk_count(n, delta)
                assert w == gf[n]


def test_criterion_4_s_table_triple_equality():
    with criterion(4, "S-table triple equality", budget_s=30.0):
        enum = rlseq.s_table_enumerated(12)
        rec = rlseq.s_table_recurrence(12)
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert enum[n][k] == rec[n][k] == rlseq.s_closed_form(n, k)


def test_criterion_5_bijection_suite():
    with criterion(5, "deletion/insertion bijection", budget_s=30.0):
        for n in range(1, 9):
            prev: dict[int, set[str]] = {}
            for seq in rlseq.enumerate_sequences(n - 1):
                prev.setdefault(len(rlseq.components(seq)), set()).add(seq)
            cur: dict[int, list[str]] = {}
            for seq in rlseq.enumerate_sequences(n):
                cur.setdefault(len(rlseq.components(seq)), []).append(seq)
            for k, members in cur.items():
                images = [rlseq.delete_component_pair(s, 1) for s in members]
                assert len(set(images)) == len(images)
                target = {s for j, ss in prev.items() if j >= k - 1 for s in ss}
                assert set(images) == target
            for alpha in rlseq.enumerate_sequences(n - 1):
                j = len(rlseq.components(alpha))
                for k in range(1, n + 1):
                    if j < k - 1:
                        continue
                    for i in range(1, k + 1):
                        omega = rlseq.insert_component_pair(alpha, i, k)
                        assert rlseq.delete_component_pair(omega, i) == alpha


def test_criterion_6_borel_consistency():
    with criterion(6, "Borel explicit = transform (+typo regression)"):
        for n in range(31):
            assert [borel_entry_explicit(n, k) for k in range(n + 1)] == borel_transform_row(n)
        # the formula as printed (1/n denominator) fails at (1, 0)
        assert comb(4, 1) * comb(1, 1) // 1 == 4 != borel_entry_explicit(1, 0) == 2


def test_criterion_7_delta2_identity():
    with criterion(7, "delta=2 central binomial identity"):
        for n in range(1, 21):
            assert walks_via_catalan(n, 2) == comb(2 * n, n)


def test_criterion_8_return_corollaries():
    with criterion(8, "first/second-return corollaries"):
        for n in range(1, 13):
            for delta in range(1, 7):
                profile = dp_return_profile(n, delta)
                assert first_return_count(n, delta) == profile[0]
                if n >= 2:
                    assert second_return_count(n, delta) == profile[1]
