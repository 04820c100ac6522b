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
    1981).  The return profile runs the same n steps with each a_d a
    polynomial in a return marker x, packed into one integer with a
    B-bit slot per power of x, B = n (2 + delta.bit_length()); it joins
    the halves as a_0(x)^2 (n even) + x sum_(d>=1) N_d a_d(x)^2.  Every
    coefficient is at most 4^n delta^n < 2^B, so no slot carries,
  * Dyck-path shapes counted by component number from enumerated
    half-paths (every head and tail is enumerated, the whole paths are
    not), weighted by delta^k (delta-1)^(n-k) for k components.
"""

from __future__ import annotations

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
    k = 1..n.  Computed by the distance DP with a return marker x;
    independent of the triangle formulas.

    a_d(x) counts walks of n steps from the root to one fixed vertex at
    depth d, with x marking each step into the root.  A closed walk is a
    first half to some vertex v followed by the reverse of a second half
    to v.  The returns of the second half fall at times 0..n-1 of its
    reverse: its own returns, plus one for time 0, minus one if v is the
    root.  Hence

        P(x) = a_0(x)^2 (n even only) + x * sum_(d>=1) N_d a_d(x)^2,

    and entry k-1 is the coefficient of x^k.  Each polynomial is packed
    into one integer with a B-bit slot per power of x (Kronecker
    substitution), B = n (2 + delta.bit_length()).  No carry crosses a
    slot.  Every coefficient that occurs counts either walks of at most
    n steps from the root (at most delta^n) or closed walks of length
    2n, and all terms are non-negative.  A closed walk of length 2n is
    an RL-word of length 2n (at most 4^n of them) with at most delta
    choices for each of its n R steps, so a coefficient is at most
    4^n delta^n < 2^(2n) 2^(n delta.bit_length()) = 2^B.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check(delta)
    bits = n * (2 + delta.bit_length())
    # counts[i] = a_d(x) at depth d = 2i + step % 2, as in
    # dp_walk_count_by_length; a step into the root is a return, so it
    # multiplies by delta x.
    scale = (delta - 1).__mul__
    counts = [1]
    for step in range(1, n + 1):
        up = [*map(add, counts, map(scale, counts[1:])), counts[-1]]
        counts = [delta * counts[0] << bits, *up] if step % 2 == 0 else up
    # weight each depth by N_d; N_(d+2) = N_d (delta-1)^2 for d >= 1
    two_down = (delta - 1) ** 2
    if n % 2:
        root, weight, rest = 0, delta, counts
    else:
        root, weight, rest = counts[0] ** 2, delta * (delta - 1), counts[1:]
    away = 0
    for a in rest:
        away += weight * (a * a)
        weight *= two_down
    # a walk into the root has returned at least once, so root's slot 0
    # is empty; slot k-1 of `packed` is the coefficient of x^k in P
    packed = (root >> bits) + away
    mask = (1 << bits) - 1
    profile = []
    for _ in range(n):
        profile.append(packed & mask)
        packed >>= bits
    return profile
