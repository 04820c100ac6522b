"""Brute-force enumeration kernel.

Walk shapes (balanced legal RL-sequences / Dyck paths) of semi-length n are
encoded as integer bitmasks: bit ``p`` set means step ``p`` is an R (away
from the root), clear means L (toward the root), with step 0 the first
letter.  Enumeration order is lexicographic over the string form with
R < L, i.e. depth-first preferring R at every position.

Every path is one head (steps 0..n-1, from the root to some height h)
followed by one tail (steps n..2n-1, from h back to the root), and every
such pair is a path.  One recursion builds both halves: all heads, then,
once per height a head reaches, all tails from that height.  A path is
``head | tail`` and its returns are the head's followed by the tail's.
Heads come out in lexicographic order and so do the tails of each height;
as the head fills the first n letters, taking heads in order and, for
each, its tails in order gives the lexicographic order of whole paths.

Cost: the halves are Dyck prefixes of length n, at most C(n, n/2) of
them, built once.  ``dyck_paths`` then spends one OR and one join of two
short return lists on each of the Catalan(n) paths.  ``component_histogram``
enumerates every half but no whole path: it counts the heads by end
height and return count, the tails of each height by return count, and
multiplies the two counts: O(number of halves), plus O(n³) products of
small counts.
"""

from __future__ import annotations

from collections.abc import Iterator


def _halves(n: int, start: int, stop: int, height: int) -> list[tuple[int, list[int], int]]:
    """Steps start..stop-1 from ``height``, R first: (bits, return positions, end height).

    An R is taken only while the walk can still get back to the root by
    step 2n, so a run that stops at 2n ends at the root.
    """
    out = []

    def rec(bits: int, pos: int, h: int, ends: list[int]) -> None:
        if pos == stop:
            out.append((bits, ends, h))
            return
        if h + 1 < 2 * n - pos:
            rec(bits | 1 << pos, pos + 1, h + 1, ends)
        if h:
            # an L landing at height 0 closes a component
            rec(bits, pos + 1, h - 1, ends + [pos + 1] if h == 1 else ends)

    rec(0, start, height, [])
    return out


def dyck_paths(n: int) -> Iterator[tuple[int, list[int]]]:
    """Every Dyck path of semi-length n as (mask, ends), lexicographic with R first.

    ``ends`` holds the position just after each return to height 0, as
    ``rlseq._component_ends`` gives it; its length is the component count.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    tails: dict[int, list[tuple[int, list[int], int]]] = {}
    for head, head_ends, height in _halves(n, 0, n, 0):
        if height not in tails:
            tails[height] = _halves(n, n, 2 * n, height)
        for tail, tail_ends, _ in tails[height]:
            yield head | tail, head_ends + tail_ends


def component_histogram(n: int) -> list[int]:
    """Count Dyck paths of semi-length n by number of returns to height 0.

    Returns a list ``hist`` of length n+1 where ``hist[k]`` is the number
    of paths with exactly k components; ``hist[0]`` is 1 only for n = 0
    (the empty path).  Every half is enumerated, the whole paths are not:
    the heads are counted by (end height h, return count a) as H_h[a], the
    tails from each h by return count b as T_h[b], and since every
    (head, tail) pair of one height is one path with a + b returns,
    hist[k] = sum over h and a + b = k of H_h[a] T_h[b].
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    heads: dict[int, list[int]] = {}
    for _, ends, height in _halves(n, 0, n, 0):
        heads.setdefault(height, [0] * (n + 1))[len(ends)] += 1
    hist = [0] * (n + 1)
    for height, head_counts in heads.items():
        tail_counts = [0] * (n + 1)
        for _, ends, _ in _halves(n, n, 2 * n, height):
            tail_counts[len(ends)] += 1
        for a, h in enumerate(head_counts):
            for b, t in enumerate(tail_counts[: n + 1 - a]):
                hist[a + b] += h * t
    return hist
