"""Brute-force enumeration kernel.

Walk shapes (balanced legal RL-sequences / Dyck paths) of semi-length n are
encoded as integer bitmasks: bit ``p`` set means step ``p`` is an R (away
from the root), clear means L (toward the root), with step 0 the first
letter.  Enumeration order is lexicographic over the string form with
R < L, i.e. depth-first preferring R at every position.
"""

from __future__ import annotations


def enumerate_masks(n: int) -> list[int]:
    """All Dyck-path bitmasks of semi-length n, lexicographic with R first."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out: list[int] = []
    length = 2 * n

    def rec(mask: int, pos: int, r: int, l: int) -> None:
        if pos == length:
            out.append(mask)
            return
        if r < n:
            rec(mask | (1 << pos), pos + 1, r + 1, l)
        if l < r:
            rec(mask, pos + 1, r, l + 1)

    rec(0, 0, 0, 0)
    return out


def component_histogram(n: int) -> list[int]:
    """Count Dyck paths of semi-length n by number of returns to height 0.

    Returns a list ``hist`` of length n+1 where ``hist[k]`` is the number
    of paths with exactly k components; ``hist[0]`` is 1 only for n = 0
    (the empty path).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    hist = [0] * (n + 1)

    def rec(pos: int, r: int, l: int, comps: int) -> None:
        if pos == 2 * n:
            hist[comps] += 1
            return
        if r < n:
            rec(pos + 1, r + 1, l, comps)
        if l < r:
            # an L landing at height 0 closes a component
            rec(pos + 1, r, l + 1, comps + (1 if l + 1 == r else 0))

    rec(0, 0, 0, 0)
    return hist
