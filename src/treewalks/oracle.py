"""Formula-independent ground truth for closed-walk counts.

A dynamic program on distance-from-root states, independent of every
closed form under test: this module imports nothing from the package.
On a tree a walk's future depends only on its current depth: every
vertex at depth d >= 1 has one edge toward the root and delta - 1 away,
and the root has delta away.  The adjacency matrix A is symmetric, so

    A^(2n)[r, r] = sum_v (A^n[r, v])^2 = sum_d N_d a_d(n)^2,

where a_d(n) counts walks of length n from the root r to one fixed
vertex at depth d, and N_0 = 1, N_d = delta (delta-1)^(d-1) counts the
vertices at depth d.  The DP therefore runs n steps, not 2n, on integers
of half the bit length (the symmetric-walk view of Kesten, Trans. AMS
92, 1959, and McKay, Linear Algebra Appl. 40, 1981).  The return
profile runs the same n steps with each a_d a polynomial in a return
marker x, packed into B-bit slots.  That halving readout serves one n;
``dp_walk_counts`` and ``dp_return_profiles`` read the root after each
even step of one 2N-step run of the same loop, ``_steps``, for every n <= N.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice
from operator import add


def _check(delta: int) -> None:
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")


def _steps(delta: int, bits: int, total: int, limit: int | None = None) -> Iterator[list[int]]:
    """The a_d(x), packed in ``bits``-bit slots, after each of ``total`` steps.

    With ``limit`` >= total, a depth above limit - step, which cannot get
    back to the root by step ``limit``, is dropped; a kept depth d stays
    exact, since d +- 1 were kept one step before.
    """
    # counts[i] = a_d, the walks of `step` steps from the root to one
    # fixed vertex at depth d = 2i + step % 2; no other depth is reached.
    # A step sets a_0 <- delta x a_1 and a_d <- a_(d-1) + (delta-1) a_(d+1)
    # for d >= 1; `up` holds the latter for every depth d >= 1 of the new
    # parity, and the root is prepended on even steps.  A step into the
    # root is a return, so x shifts it up one slot.
    scale = (delta - 1).__mul__
    counts = [1]
    for step in range(1, total + 1):
        up = [*map(add, counts, map(scale, counts[1:])), counts[-1]]
        counts = [delta * counts[0] << bits, *up] if step % 2 == 0 else up
        if limit is not None:
            del counts[(limit - step - step % 2) // 2 + 1 :]
        yield counts


def _packed_walks(n: int, delta: int, bits: int) -> int:
    """(root >> bits) + away after n steps, a_d(x) packed in ``bits``-bit slots.

    root = a_0(x)^2 (0 for odd n) and away = sum_(d>=1) N_d a_d(x)^2;
    with ``bits = 0`` the return marker x is 1: the plain count.
    """
    counts = [1]
    for counts in _steps(delta, bits, n):
        pass
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
    return (root >> bits) + away


def dp_walk_count(n: int, delta: int) -> int:
    """Closed walks of length 2n from the root, by the distance-state DP."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _check(delta)
    return _packed_walks(n, delta, 0)


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
    # a walk into the root has returned at least once, so root's slot 0
    # is empty; slot k-1 of `packed` is the coefficient of x^k in P
    packed, mask = _packed_walks(n, delta, bits), (1 << bits) - 1
    return [packed >> bits * k & mask for k in range(n)]


def _even_roots(N: int, delta: int, bits: int) -> list[int]:
    """a_0(x) after steps 2, 4, ..., 2N of one run limited to 2N steps."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    _check(delta)
    return [counts[0] for counts in islice(_steps(delta, bits, 2 * N, 2 * N), 1, None, 2)]


def dp_walk_counts(N: int, delta: int) -> list[int]:
    """Closed walks of length 2n for n = 0..N: a_0 after each even step of one run."""
    return [1, *_even_roots(N, delta, 0)]


def dp_return_profiles(N: int, delta: int) -> list[list[int]]:
    """``dp_return_profile(n, delta)`` for n = 1..N, entry n-1, from one DP run.

    ``dp_walk_counts``'s run with B-bit slots, B = N (2 + delta.bit_length()):
    after step 2n, slot k of a_0(x) counts the closed walks of length 2n
    with k returns, the last step included.  No slot carries.  A kept walk
    of s steps to depth d <= 2N - s extends in one fixed way to a closed
    walk of length 2N (back to the root, then out and back to one fixed
    neighbour), distinct walks to distinct walks.  So every coefficient of
    every kept a_d is at most W(2N, delta) <= 4^N delta^N < 2^B.
    """
    bits = N * (2 + delta.bit_length())
    roots, mask = _even_roots(N, delta, bits), (1 << bits) - 1
    return [[root >> bits * k & mask for k in range(1, n + 1)] for n, root in enumerate(roots, 1)]
