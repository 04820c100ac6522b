"""Formula-independent ground truth for closed-walk counts.

Two routes, independent of every closed form under test:

  * a dynamic program on distance-from-root states.  On a tree a walk's
    future depends only on its current depth: every vertex at depth
    d >= 1 has one edge toward the root and delta - 1 away, and the root
    has delta away.  The adjacency matrix A is symmetric, so

        A^(2n)[r, r] = sum_v (A^n[r, v])^2 = sum_d N_d a_d(n)^2,

    where a_d(n) counts walks of length n from the root r to one fixed
    vertex at depth d, and N_0 = 1, N_d = delta (delta-1)^(d-1) counts
    the vertices at depth d.  The DP therefore runs n steps, not 2n,
    on integers of half the bit length (the symmetric-walk view of
    Kesten, Trans. AMS 92, 1959, and McKay, Linear Algebra Appl. 40,
    1981),
  * brute-force enumeration of Dyck-path shapes weighted by
    delta^k (delta-1)^(n-k) for a shape with k components.
"""

from __future__ import annotations

from itertools import zip_longest
from operator import add

from treewalks import _kernel
from treewalks.rlseq import ENUM_CAP_DEFAULT, check_enumeration_cap


def _check(delta: int) -> None:
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")


def dp_walk_count_by_length(length: int, delta: int) -> int:
    """Closed walks of the given length from the root (0 when length is odd)."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    _check(delta)
    if length % 2:
        return 0  # the tree is bipartite
    n = length // 2
    # counts[i] = a_d, the walks of `step` steps from the root to one
    # fixed vertex at depth d = 2i + step % 2; no other depth is reached.
    # A step sets a_0 <- delta a_1 and a_d <- a_(d-1) + (delta-1) a_(d+1)
    # for d >= 1; `up` holds the latter for every depth d >= 1 of the new
    # parity, and the root is prepended on even steps.
    scale = (delta - 1).__mul__
    counts = [1]
    for step in range(1, n + 1):
        up = [*map(add, counts, map(scale, counts[1:])), counts[-1]]
        counts = [delta * counts[0], *up] if step % 2 == 0 else up
    # weight each depth by N_d; N_(d+2) = N_d (delta-1)^2 for d >= 1
    two_down = (delta - 1) ** 2
    if n % 2:
        total, weight, rest = 0, delta, counts
    else:
        total, weight, rest = counts[0] ** 2, delta * (delta - 1), counts[1:]
    for a in rest:
        total += weight * a * a
        weight *= two_down
    return total


def dp_walk_count(n: int, delta: int) -> int:
    """Closed walks of length 2n from the root, by the distance-state DP."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return dp_walk_count_by_length(2 * n, delta)


def weighted_dyck_count(n: int, delta: int, cap: int = ENUM_CAP_DEFAULT) -> int:
    """Sum over Dyck-path shapes of semi-length n of delta^k (delta-1)^(n-k)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check(delta)
    check_enumeration_cap(n, cap)
    hist = _kernel.component_histogram(n)
    return sum(
        count * delta**k * (delta - 1) ** (n - k)
        for k, count in enumerate(hist)
        if count
    )


def dp_return_profile(n: int, delta: int) -> list[int]:
    """Closed walks of length 2n by exact number of returns to the root.

    Entry k-1 of the result counts walks with exactly k returns,
    k = 1..n.  Computed by the distance DP augmented with a return
    counter; independent of the triangle formulas.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check(delta)
    # rows[d][r] = walks ending at distance d with r returns so far.  Only
    # depths of the step's parity are reached; a depth beyond
    # min(step, 2n - step) can no longer get back by step 2n.  r returns
    # and the climb to d take 2r + d <= step steps, so rows[d] holds
    # r = 0..(step - d)/2 only: the row from depth d - 1 is one longer
    # than the row from d + 1.
    rows = [[1]]
    for step in range(1, 2 * n + 1):
        top = min(step, 2 * n - step)
        nxt: list[list[int]] = [[]] * (top + 1)
        for d in range(step % 2, top + 1, 2):
            above = rows[d + 1] if d + 1 < len(rows) else []
            if d == 0:
                nxt[0] = [0, *above]  # stepping down to the root is a return
            else:
                w = delta if d == 1 else delta - 1
                nxt[d] = [w * a + b for a, b in zip_longest(rows[d - 1], above, fillvalue=0)]
        rows = nxt
    return rows[0][1:]
