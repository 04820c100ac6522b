"""Catalan's triangle and Borel's triangle, exact and cross-validated.

C(n, k) counts monotone lattice paths from (0,0) to (n,k) staying weakly
below the diagonal (OEIS A009766).  B(n, k) is its row-wise binomial
transform (OEIS A234950):

    B(n, k) = sum_{s=k}^{n} binom(s, k) * C(n, s)

The published explicit formula for B(n, k) carries a 1/n factor, which is
inconsistent with the triangle itself (it gives B(1, 0) = 4 instead of 2
and is undefined at n = 0).  The correct denominator is n + 1:

    B(n, k) = binom(2n+2, n-k) * binom(n+k, n) / (n + 1)

We implement the corrected form and check exact divisibility; the
transform definition above is kept as an independent second route and
the two are required to agree everywhere.  That route is a row
function, ``borel_transform_row``: Catalan row n evaluated at 1 + 2^b
by Horner's rule, in O(n) shifts and additions, as one big integer with
B(n, k) in b-bit slot k; the test suite holds it to the sum above
(``test_borel_transform_row_equals_the_transform_sum``).  ``borel_row``
builds a whole row from Cat(n) by the exact ratio of consecutive entries
of the corrected form, in O(n) products and exact divisions; it is what
the walk polynomial uses.  ``borel_rows`` is a third route, a row recurrence.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate
from math import comb
from operator import add

from treewalks.exact import ExactnessError, exact_div, slots


class TriangleIndexError(ValueError):
    """Raised when (n, k) falls outside the lower triangle 0 <= k <= n."""


def _check_index(n: int, k: int) -> None:
    if n < 0 or k < 0 or k > n:
        raise TriangleIndexError(f"(n={n}, k={k}) outside the triangle 0 <= k <= n")


def catalan_number(n: int) -> int:
    """n-th Catalan number, binom(2n, n)/(n+1)."""
    if n < 0:
        raise TriangleIndexError(f"n must be >= 0, got {n}")
    return exact_div(comb(2 * n, n), n + 1)


def catalan_entry(n: int, k: int) -> int:
    """C(n, k) = ((n - k + 1)/(n + 1)) * binom(n + k, n), exactly."""
    _check_index(n, k)
    return exact_div((n - k + 1) * comb(n + k, n), n + 1)


def borel_entry_explicit(n: int, k: int) -> int:
    """B(n, k) by the corrected explicit formula (1/(n+1) denominator)."""
    _check_index(n, k)
    return exact_div(comb(2 * n + 2, n - k) * comb(n + k, n), n + 1)


def borel_transform_row(n: int) -> list[int]:
    """Row n of Borel's triangle by the binomial transform, B_n(x) = P_n(1 + x).

    P_n(y) = sum_s C(n, s) y^s, read through ``catalan_entry``, is
    evaluated by Horner's rule at y = 1 + 2^b, b = 3n + 3, a shift and
    two additions per step, and B(n, k) is read off as b-bit slot k
    (Kronecker substitution).  No carry crosses a slot: every term is
    non-negative, every coefficient that occurs is at most B(n, k), and
    B(n, k) <= B_n(1) = P_n(2) <= 2^n Cat(n + 1) < 2^(3n + 2).  A value
    left above the top slot raises ExactnessError.
    """
    _check_index(n, 0)
    bits = 3 * n + 3
    packed = 0
    for s in range(n, -1, -1):
        packed += (packed << bits) + catalan_entry(n, s)
    return slots(packed, bits, n + 1, f"Borel transform row {n}")


def borel_row(n: int) -> list[int]:
    """Row n of Borel's triangle, B(n, 0..n), in O(n) products and exact divisions.

    The row starts from B(n, n) = Cat(n) and steps down by the exact ratio
    of the corrected closed form,

        B(n, k) = B(n, k+1) (k+1)(n+k+3) / ((n-k)(n+k+1)),

    each step a checked division.  A start value off by a constant factor
    would pass every division, so the far end is checked against the
    independent identity B(n, 0) = Cat(n+1).
    """
    _check_index(n, 0)
    row = [catalan_number(n)]
    for k in range(n - 1, -1, -1):
        row.append(exact_div(row[-1] * ((k + 1) * (n + k + 3)), (n - k) * (n + k + 1)))
    if row[-1] != catalan_number(n + 1):
        raise ExactnessError(f"B({n}, 0) = {row[-1]} is not Catalan({n + 1})")
    row.reverse()
    return row


def checked_rows(rows: Iterable[tuple[int, ...]], kind: str) -> Iterator[tuple[int, ...]]:
    """Yield each row of a ``kind`` table, raising ValueError at the first bad one.

    Row n holds n + 1 entries, all >= 1, except that an "s" row n >= 1
    starts with S(n, 0) = 0 (a non-empty walk shape has a component).
    """
    for n, row in enumerate(rows):
        if len(row) != n + 1:
            raise ValueError(f"row {n} has {len(row)} entries, expected {n + 1}")
        counts = row
        if kind == "s" and n:
            if row[0] != 0:
                raise ValueError(f"row {n} has S({n}, 0) = {row[0]}, expected 0")
            counts = row[1:]
        if min(counts) < 1:
            raise ValueError(f"row {n} has an entry < 1")
        yield row


def catalan_rows(N: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..N of Catalan's triangle via the additive ballot recurrence.

    C(n, k) = C(n-1, k) + C(n, k-1) with C(n, 0) = 1 makes row n the
    running sum of row n - 1 with a 0 appended.  The recurrence is
    standard but not part of the source identities, so the test suite
    validates it against ``catalan_entry`` rather than trusting it.
    """
    if N < 0:
        raise TriangleIndexError(f"N must be >= 0, got {N}")
    row: tuple[int, ...] = (1,)
    yield row
    for _ in range(N):
        row = tuple(accumulate((*row, 0)))
        yield row


def borel_rows(N: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..N of Borel's triangle, each built from the one before.

    The ballot step gives (1 - x) P_n(x) = P_{n-1}(x) - Cat(n) x^(n+1)
    for the Catalan row polynomials P_n(x) = sum_s C(n, s) x^s; since
    B_n(x) = P_n(1 + x), substituting x -> 1 + x gives

        B(n, k) = Cat(n) binom(n+1, k+1) - B(n-1, k+1),  B(-1, .) = 0.

    binom(n+1, .) advances by Pascal's rule and Cat(n) by the checked
    ratio Cat(n) = Cat(n-1) 2(2n-1)/(n+1), so a row costs O(n) operations
    and the table O(N^2).  This route calls neither ``borel_row``, the
    entry formulas nor ``catalan_number``; ``verify`` checks it against
    the other three.
    """
    if N < 0:
        raise TriangleIndexError(f"N must be >= 0, got {N}")
    row: tuple[int, ...] = ()  # B(-1, .)
    binom = [1, 1]  # binom(n+1, 0..n+1)
    cat = 1  # Cat(0)
    for n in range(N + 1):
        if n:
            cat = exact_div(cat * (2 * (2 * n - 1)), n + 1)
        row = tuple(cat * b - a for b, a in zip(binom[1:], (*row[1:], 0, 0)))
        yield row
        binom = list(map(add, [0, *binom], [*binom, 0]))


def catalan_table(N: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..N of Catalan's triangle, from ``catalan_rows``, each row checked."""
    return tuple(checked_rows(catalan_rows(N), "catalan"))


def borel_table(N: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..N of Borel's triangle, from ``borel_rows``, each row checked."""
    return tuple(checked_rows(borel_rows(N), "borel"))
