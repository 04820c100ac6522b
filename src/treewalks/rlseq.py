"""Balanced legal RL-sequences (Dyck paths) and their component structure.

An RL-sequence records a closed walk's radial shape: R moves away from
the root, L moves toward it.  Balanced means #R = #L; legal means no
prefix has more L's than R's.  A component is a maximal segment between
consecutive visits to height 0, so the number of components equals the
number of returns to the root.

S(n, k) = number of balanced legal sequences of length 2n with exactly
k components.  Three routes to it live here:

  * enumeration (``s_table_enumerated``): every half-path is enumerated,
    and the whole paths are counted as products of head and tail counts,
  * the deletion-bijection recurrence S(n, k) = sum_{j>=k-1} S(n-1, j)
    (``s_table_recurrence``),
  * the Catalan-triangle closed form S(n, k) = C(n-1, n-k)
    (``s_closed_form``),

plus the deletion/insertion pair realizing the bijection itself.

An S-table is a ``TriangleTable`` of kind "s" whose row m is
S(m, 0..m): (1,), (0, 1), (0, 1, 1), (0, 2, 2, 1), ...  Row 0 is the
empty sequence, and S(m, 0) = 0 for m >= 1.  This is the layout
``_kernel.component_histogram(m)`` returns.

The string form over {R, L} is the interface representation.  Inside, a
sequence is a (mask, length) pair in the bit layout of ``treewalks._kernel``
(R = set bit); only that module and this one read the bits.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

from treewalks import _kernel
from treewalks.triangles import TriangleTable, catalan_entry

#: Default semi-length cap for enumeration.  Its ~2.7M whole paths bound
#: only ``enumerate_sequences`` and the bijection check; the S-table and
#: ``weighted_dyck_count`` enumerate half-paths alone.
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


def _scan(word: str) -> int:
    """Bitmask of a balanced legal word; raises at the first fault the scan meets."""
    mask = height = 0
    for pos, ch in enumerate(word):
        if ch == "R":
            mask |= 1 << pos
            height += 1
        elif ch == "L":
            height -= 1
            if height < 0:
                break
        else:
            raise AlphabetError(f"invalid character {ch!r} at position {pos}")
    if height:
        raise IllegalSequenceError(f"not a balanced legal RL-sequence: {word!r}")
    return mask


def is_balanced_legal(word: str) -> bool:
    """True iff the word is balanced (#R = #L) and legal (Dyck prefix condition)."""
    try:
        _scan(word)
    except IllegalSequenceError:
        return False
    return True


def _component_ends(mask: int, length: int) -> list[int] | None:
    """Position just after each return to height 0: component c ends at ends[c-1].

    None if the mask goes below the root, does not end on it, or has bits
    at or beyond ``length``.
    """
    if mask >> length:
        return None
    ends: list[int] = []
    height = 0
    for pos in range(length):
        height += 1 if mask >> pos & 1 else -1
        if height < 0:
            return None
        if not height:
            ends.append(pos + 1)
    return None if height else ends


class RLSequence:
    """Immutable balanced legal RL-sequence."""

    __slots__ = ("_mask", "_length")

    def __init__(self, word: str):
        self._mask = _scan(word)
        self._length = len(word)

    @classmethod
    def _from_mask(cls, mask: int, length: int) -> "RLSequence":
        # trusted constructor: mask already known balanced legal
        obj = object.__new__(cls)
        obj._mask = mask
        obj._length = length
        return obj

    def __len__(self) -> int:
        return self._length

    def __str__(self) -> str:
        return "".join(
            "R" if self._mask >> p & 1 else "L" for p in range(self._length)
        )

    def __repr__(self) -> str:
        return f"RLSequence({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RLSequence):
            return NotImplemented
        return self._mask == other._mask and self._length == other._length

    def __hash__(self) -> int:
        return hash((self._mask, self._length))

    @property
    def component_count(self) -> int:
        return len(_component_ends(self._mask, self._length))


@dataclass(frozen=True)
class ComponentDecomposition:
    """Ordered components whose concatenation is the original sequence."""

    components: tuple[RLSequence, ...]

    def __len__(self) -> int:
        return len(self.components)

    def concatenation(self) -> RLSequence:
        mask = offset = 0
        for part in self.components:
            mask |= part._mask << offset
            offset += len(part)
        return RLSequence._from_mask(mask, offset)


def components(seq: RLSequence | str) -> ComponentDecomposition:
    """Split a balanced legal sequence at its returns to height 0."""
    if isinstance(seq, str):
        seq = RLSequence(seq)
    ends = _component_ends(seq._mask, seq._length)
    parts = tuple(
        RLSequence._from_mask(seq._mask >> start & ((1 << (end - start)) - 1), end - start)
        for start, end in zip([0, *ends], ends)
    )
    return ComponentDecomposition(components=parts)


def enumerate_sequences(n: int, cap: int = ENUM_CAP_DEFAULT) -> list[RLSequence]:
    """All balanced legal sequences of length 2n, lexicographic with R < L."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    check_enumeration_cap(n, cap)
    return [RLSequence._from_mask(m, 2 * n) for m, _ in _kernel.dyck_paths(n)]


def s_table_enumerated(n: int, cap: int = ENUM_CAP_DEFAULT) -> TriangleTable:
    """S-table up to length 2n, counted from enumerated half-paths.

    Row m is ``_kernel.component_histogram(m)``: every head (first m
    letters) and every tail (last m letters) is enumerated, the whole
    sequences are not.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    check_enumeration_cap(n, cap)
    rows = tuple(tuple(_kernel.component_histogram(m)) for m in range(n + 1))
    return TriangleTable(rows, kind="s")


def _s_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Rows S(m, 0..m) for m = 0..n, from S(m, k) = sum_{j=k-1}^{m-1} S(m-1, j).

    Row m is 0 (no shape of length 2m >= 2 has zero components) followed
    by the suffix sums of row m-1, so each row costs O(m) additions and
    only the last one is held.
    """
    row: tuple[int, ...] = (1,)
    yield row
    for _ in range(n):
        suffix = list(accumulate(reversed(row)))
        suffix.reverse()
        row = (0, *suffix)
        yield row


def s_table_recurrence(n: int) -> TriangleTable:
    """S-table from S(n, k) = sum_{j=k-1}^{n-1} S(n-1, j), base S(0, 0) = 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return TriangleTable(tuple(_s_rows(n)), kind="s")


def s_closed_form(n: int, k: int) -> int:
    """S(n, k) = C(n-1, n-k), the Catalan-triangle closed form."""
    if not 1 <= k <= n:
        raise IndexError(f"need 1 <= k <= n, got (n={n}, k={k})")
    return catalan_entry(n - 1, n - k)


def cumulative_s(n: int, k: int) -> int:
    """Number of sequences of length 2n with at least k-1 components.

    Equals sum_{j >= k-1} S(n, j), summed over row n of the recurrence.
    Valid for 1 <= k <= n+1 (k = n+1 gives S(n, n) = 1).
    """
    if n < 0 or not 1 <= k <= n + 1:
        raise IndexError(f"need n >= 0 and 1 <= k <= n+1, got (n={n}, k={k})")
    for row in _s_rows(n):
        pass
    return sum(row[k - 1 :])


def _delete(mask: int, ends: list[int], i: int) -> int:
    start = ends[i - 2] if i > 1 else 0
    end = ends[i - 1]
    low = mask & ((1 << start) - 1)
    inner = (mask & ((1 << end) - 1)) >> (start + 1) << start
    return low | inner | (mask >> end) << (end - 2)


def delete_component_pair(seq: RLSequence | str, i: int) -> RLSequence:
    """Remove the outer R...L pair of the i-th component (1-based).

    The bijection's deletion map: the i-th component R w L becomes w,
    which may itself be empty or split into several components.
    """
    if isinstance(seq, str):
        seq = RLSequence(seq)
    ends = _component_ends(seq._mask, seq._length)
    if not 1 <= i <= len(ends):
        raise ComponentIndexError(
            f"component index {i} out of range 1..{len(ends)}"
        )
    return RLSequence._from_mask(_delete(seq._mask, ends, i), seq._length - 2)


def _insert(mask: int, ends: list[int], i: int, k: int) -> int:
    hi = len(ends) - k + i  # last wrapped component (may be i-1: wrap nothing)
    start = ends[i - 2] if i > 1 else 0
    end = ends[hi - 1] if hi else 0
    low = mask & ((1 << start) - 1)
    wrapped = (mask & ((1 << end) - 1)) ^ low
    return low | 1 << start | wrapped << 1 | (mask >> end) << (end + 2)


def insert_component_pair(alpha: RLSequence | str, i: int, k: int) -> RLSequence:
    """Inverse of deletion: wrap components i..(j-k+i) of alpha in R...L.

    alpha has j components; the result has exactly k components and the
    wrapped block sits at position i.  Requires 1 <= i <= k <= j + 1.
    """
    if isinstance(alpha, str):
        alpha = RLSequence(alpha)
    ends = _component_ends(alpha._mask, alpha._length)
    j = len(ends)
    if not (1 <= i <= k and j >= k - 1):
        raise ComponentIndexError(
            f"need 1 <= i <= k and components >= k-1, got (i={i}, k={k}, components={j})"
        )
    return RLSequence._from_mask(_insert(alpha._mask, ends, i, k), alpha._length + 2)
