"""Formula-independent ground truth for closed-walk counts.

Two routes, independent of every closed form under test:

  * a dynamic program on distance-from-root states (on a tree the walk's
    future depends only on the current depth, so tracking depth alone is
    exact: every vertex at depth d >= 1 has one edge toward the root and
    delta - 1 away, and the root has delta away),
  * brute-force enumeration of Dyck-path shapes weighted by
    delta^k (delta-1)^(n-k) for a shape with k components.
"""

from __future__ import annotations

from itertools import zip_longest

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
    # counts[d] = walks of the current length ending at distance d.  Only
    # depths of the step's parity are reached; a depth beyond
    # min(step, length - step) can no longer get back by the last step.
    counts = [1]
    for step in range(1, length + 1):
        top = min(step, length - step)
        nxt = [0] * (top + 1)
        for d in range(step % 2, top + 1, 2):
            down = counts[d + 1] if d + 1 < len(counts) else 0
            if d == 0:
                nxt[0] = down
            else:
                w = delta if d == 1 else delta - 1
                nxt[d] = w * counts[d - 1] + down
        counts = nxt
    return counts[0]


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
