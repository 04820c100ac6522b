"""Balanced legal RL-sequences (Dyck paths) and their component structure.

An RL-sequence records a closed walk's radial shape: R moves away from
the root, L moves toward it.  Balanced means #R = #L; legal means no
prefix has more L's than R's.  A component is a maximal segment between
consecutive visits to height 0, so the number of components equals the
number of returns to the root.

S(n, k) = number of balanced legal sequences of length 2n with exactly
k components.  Three routes to it live here:

  * enumeration (``s_table_enumerated``): one run over the half-paths
    lists every prefix once, and each row counts its whole paths as
    products of head counts, a tail being a head read backwards,
  * the deletion-bijection recurrence S(n, k) = sum_{j>=k-1} S(n-1, j)
    (``s_table_recurrence``),
  * the Catalan-triangle closed form S(n, k) = C(n-1, n-k)
    (``s_closed_form``),

plus the deletion/insertion pair realizing the bijection itself.

An S-table is a tuple of rows, row m being S(m, 0..m): (1,), (0, 1),
(0, 1, 1), (0, 2, 2, 1), ...  Row 0 is the empty sequence, and
S(m, 0) = 0 for m >= 1.  This is the layout, row for row, of
``_kernel.component_histograms(n)``.

A sequence is its word over {R, L}: the word functions here take and
return plain ``str``.  Inside, a word is a (mask, length) pair in the bit
layout of ``treewalks._kernel`` (R = set bit).  ``_scan`` reads a word's
letters once, into its mask and component ends, and ``_word`` spells a
mask back.  That module and this one read the bits, and so, for speed,
does ``verify.check_bijection``.  ``_delete`` and ``_insert`` take the
bounds of the cut or wrapped block from ``_bounds`` and ``_wrap_bounds``
and are lane-generic: one call maps every lane of a packed integer, 32
bits wide in the check, and the word functions here are its one-lane
case.  The check
packs the (path, i) pairs of one level whose component i spans the same
block of steps, so one call per block deletes or inserts on all of them.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate

from treewalks import _kernel
from treewalks.triangles import TriangleIndexError, catalan_entry, checked_rows

#: Default semi-length cap of ``enumerate_sequences``, ``s_table_enumerated``
#: and ``stable --enum-cap``.  Its ~2.7M whole paths bound only
#: ``enumerate_sequences``; the S-table lists each prefix of length <= n
#: once (7,060 at n = 14) and enumerates no whole path or tail.  The
#: bijection check has its own bound, ``verify --enum-cap`` (default 8).
ENUM_CAP_DEFAULT = 14


class AlphabetError(ValueError):
    """A character outside {R, L} was supplied."""


class IllegalSequenceError(ValueError):
    """The word is not balanced or not legal."""


class ComponentIndexError(ValueError):
    """A component index exceeds the sequence's component count."""


class EnumerationCapError(ValueError):
    """Requested enumeration exceeds the resource cap."""


def check_enumeration_cap(n: int, cap: int) -> None:
    """Refuse to enumerate semi-length n beyond the cap."""
    if n > cap:
        raise EnumerationCapError(
            f"n={n} exceeds enumeration cap {cap}; raise the cap explicitly"
        )


def _scan(word: str) -> tuple[int, list[int]]:
    """Bitmask and component ends of a balanced legal word, in one pass.

    ``ends`` holds the position just after each return to height 0, so
    component c ends at ends[c-1].  Raises at the first fault the scan meets.
    """
    mask = height = 0
    ends: list[int] = []
    for pos, ch in enumerate(word):
        if ch == "R":
            mask |= 1 << pos
            height += 1
        elif ch == "L":
            height -= 1
            if not height:
                ends.append(pos + 1)
            elif height < 0:
                break
        else:
            raise AlphabetError(f"invalid character {ch!r} at position {pos}")
    if height:
        raise IllegalSequenceError(f"not a balanced legal RL-sequence: {word!r}")
    return mask, ends


def is_balanced_legal(word: str) -> bool:
    """True iff the word is balanced (#R = #L) and legal (Dyck prefix condition)."""
    try:
        _scan(word)
    except IllegalSequenceError:
        return False
    return True


_LETTERS = str.maketrans("10", "RL")


def _word(mask: int, length: int) -> str:
    """The word of a mask's first ``length`` steps; length 0 gives ""."""
    # bin() spells the bits highest first, after "0b" and a guard bit set at ``length``
    return bin(mask & (1 << length) - 1 | 1 << length)[:2:-1].translate(_LETTERS)


def components(word: str) -> tuple[str, ...]:
    """Split a balanced legal word at its returns to height 0, in order."""
    _, ends = _scan(word)
    return tuple(word[start:end] for start, end in zip([0, *ends], ends))


def enumerate_sequences(n: int, cap: int = ENUM_CAP_DEFAULT) -> list[str]:
    """All balanced legal words of length 2n, lexicographic with R < L."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    check_enumeration_cap(n, cap)
    # a path is its head's n letters then its tail's, so every n-letter
    # word is spelled once per call and each path is one join
    halves = [_word(m, n) for m in range(1 << n)]
    low = (1 << n) - 1
    return [halves[m & low] + halves[m >> n] for m, _ in _kernel.dyck_paths(n)]


def s_table_enumerated(n: int, cap: int = ENUM_CAP_DEFAULT) -> tuple[tuple[int, ...], ...]:
    """S-table up to length 2n, counted from enumerated half-paths.

    The rows are ``_kernel.component_histograms(n)``: one run enumerates
    every prefix of length <= n once, the heads of every row at once, and
    each tail is counted as a head read backwards.  No whole sequence and
    no tail is enumerated.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    check_enumeration_cap(n, cap)
    rows = map(tuple, _kernel.component_histograms(n))
    return tuple(checked_rows(rows, "s"))


def _s_rows(n: int) -> Iterator[list[int]]:
    """Rows S(m, m..0), highest k first, for m = 0..n, from S(m, k) = sum_{j=k-1}^{m-1} S(m-1, j).

    Read highest k first, S(m, m..1) are the running sums of row m-1, and
    S(m, 0) = 0 (no shape of length 2m >= 2 has zero components) ends the
    row, so each row is one pass of O(m) additions and only the last one
    is held.
    """
    row = [1]
    yield row
    for _ in range(n):
        row = [*accumulate(row), 0]
        yield row


def s_table_recurrence(n: int) -> tuple[tuple[int, ...], ...]:
    """S-table from S(n, k) = sum_{j=k-1}^{n-1} S(n-1, j), base S(0, 0) = 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return tuple(checked_rows((tuple(reversed(row)) for row in _s_rows(n)), "s"))


def s_closed_form(n: int, k: int) -> int:
    """S(n, k) = C(n-1, n-k), the Catalan-triangle closed form."""
    if not 1 <= k <= n:
        raise TriangleIndexError(f"need 1 <= k <= n, got (n={n}, k={k})")
    return catalan_entry(n - 1, n - k)


def _bounds(ends: list[int], i: int) -> tuple[int, int]:
    """Start and end of component i (1-based) of a path with these ends."""
    return ends[i - 2] if i > 1 else 0, ends[i - 1]


def _delete(mask: int, start: int, end: int, lanes: int = 1) -> int:
    """Drop bits start and end - 1, moving the bits above each down.

    ``mask`` holds one word per w-bit lane and ``lanes`` is
    sum_j 2^(w j) over its lanes, so every constant mask is repeated in
    every lane.  No bit crosses a lane: the right shifts move only bits at
    or above start + 1, or at or above end >= 2, of their own lane.
    """
    below = mask & ((1 << end) - 1) * lanes
    low = below & ((1 << start) - 1) * lanes
    return low | (below & ((1 << end) - (2 << start)) * lanes) >> 1 | (mask ^ below) >> 2


def delete_component_pair(word: str, i: int) -> str:
    """Remove the outer R...L pair of the i-th component (1-based).

    The bijection's deletion map: the i-th component R w L becomes w,
    which may itself be empty or split into several components.
    """
    mask, ends = _scan(word)
    if not 1 <= i <= len(ends):
        raise ComponentIndexError(
            f"component index {i} out of range 1..{len(ends)}"
        )
    return _word(_delete(mask, *_bounds(ends, i)), len(word) - 2)


def _wrap_bounds(ends: list[int], i: int, k: int) -> tuple[int, int]:
    """Start and end of the block that insertion at (i, k) wraps."""
    hi = len(ends) - k + i  # last wrapped component (may be i-1: wrap nothing)
    return ends[i - 2] if i > 1 else 0, ends[hi - 1] if hi else 0


def _insert(mask: int, start: int, end: int, lanes: int = 1) -> int:
    """Wrap bits start..end-1 in a set bit below and a clear bit above.

    Lane-generic as ``_delete`` is.  The left shifts move a lane's bits
    up by at most two, so a word of at most w - 2 bits stays in its lane.
    """
    below = mask & ((1 << end) - 1) * lanes
    low = below & ((1 << start) - 1) * lanes
    return low | lanes << start | (below ^ low) << 1 | (mask ^ below) << 2


def insert_component_pair(alpha: str, i: int, k: int) -> str:
    """Inverse of deletion: wrap components i..(j-k+i) of alpha in R...L.

    alpha has j components; the result has exactly k components and the
    wrapped block sits at position i.  Requires 1 <= i <= k <= j + 1.
    """
    mask, ends = _scan(alpha)
    j = len(ends)
    if not (1 <= i <= k and j >= k - 1):
        raise ComponentIndexError(
            f"need 1 <= i <= k and components >= k-1, got (i={i}, k={k}, components={j})"
        )
    return _word(_insert(mask, *_wrap_bounds(ends, i, k)), len(alpha) + 2)
