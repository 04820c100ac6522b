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

In the DP a_d <- a_(d-1) + c a_(d+1), c = delta - 1, for d >= 1, a
step from a deeper vertex is weighted c.  The loop carries
U_d = a_d c^((d - s)/2 + K) after step s of a run of 2K or 2K - 1 steps
instead, so every step that does not enter the root is one addition,
U_d <- U_(d-1) + U_(d+1), and the only weighted step is the step into
the root: one multiplication by delta and one exact division by c.  The
readouts divide the scale back out.  Every operation is a ring
operation on polynomials in x, carried out at x = 2^B, and every
division is by a constant that divides every coefficient; so the packed
integers stay exact, and only the final coefficients, not the rescaled
ones on the way, must fit their B-bit slots.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice
from operator import add, mul


def _check(delta: int) -> None:
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")


def _exact(numerator: int, divisor: int) -> int:
    """numerator / divisor, raising ArithmeticError unless it is an integer."""
    q, r = divmod(numerator, divisor)
    if r:
        raise ArithmeticError("non-exact division by a power of delta - 1 in the DP")
    return q


def _steps(delta: int, bits: int, total: int, limit: int | None = None) -> Iterator[list[int]]:
    """The rescaled a_d(x), packed in ``bits``-bit slots, after each of ``total`` steps.

    After step s the loop holds U_d = a_d(x) c^((d - s)/2 + K), with
    c = delta - 1 and K = ceil(total / 2); for delta = 1 the base of that
    power is 1.  With ``limit`` >= total, a depth above limit - step,
    which cannot get back to the root by step ``limit``, is dropped; a
    kept depth d stays exact, since d +- 1 were kept one step before.
    """
    # counts[i] = U_d for the walks of `step` steps from the root to one
    # fixed vertex at depth d = 2i + step % 2; no other depth is reached.
    # The DP a_d <- a_(d-1) + c a_(d+1) for d >= 1 becomes
    # U_d <- U_(d-1) + U_(d+1), since U_(d+1) carries one more factor c,
    # and a_0 <- delta x a_1 becomes U_0 <- delta x U_1 / c.  U_1 has at
    # least one factor c while step <= 2K, so that division is exact.  A
    # step into the root is a return, so x shifts it up one slot.  At
    # delta = 1 there is no vertex past depth 1: nothing flows from depth
    # 2 into depth 1, and the deeper entries are never read.
    base = delta - 1 or 1
    counts = [base ** ((total + 1) // 2)]
    for step in range(1, total + 1):
        up = [*map(add, counts, counts[1:]), counts[-1]]
        if step % 2 == 0:
            counts = [_exact(counts[0], base) * delta << bits, *up]
        else:
            if delta == 1:
                up[0] = counts[0]
            counts = up
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
    # after n = total steps U_d = a_d c^(d/2) for even n and a_d c^((d+1)/2)
    # for odd n, so U_0 = a_0 and N_d a_d^2 = delta U_d^2 / c^(1 + n % 2)
    if n % 2:
        root, rest = 0, counts
    else:
        root, rest = counts[0] ** 2, counts[1:]
    if delta == 1:
        del rest[n % 2 :]  # no vertex past depth 1
    away = _exact(sum(map(mul, rest, rest)), (delta - 1 or 1) ** (1 + n % 2))
    return (root >> bits) + delta * away


def _slot_bits(n: int, delta: int) -> int:
    """B = n (2 + delta.bit_length()), the slot width of a return profile to length 2n."""
    return n * (2 + delta.bit_length())


def _slots(packed: int, bits: int, lo: int, hi: int) -> list[int]:
    """Slots lo..hi-1 of ``packed``, raising ArithmeticError if a value sits above slot hi-1."""
    if packed >> bits * hi:
        raise ArithmeticError(f"packed return profile carries out of its top slot {hi - 1}")
    mask = (1 << bits) - 1
    return [packed >> bits * k & mask for k in range(lo, hi)]


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
    substitution), B = n (2 + delta.bit_length()).  The DP carries the
    a_d rescaled by powers of delta - 1 (see ``_steps``), whose
    coefficients may overflow a slot; but every step is a ring operation
    at x = 2^B and every division is by a constant dividing every
    coefficient, so only the coefficients of P itself must fit.  They
    are closed walks of length 2n: an RL-word of length 2n (at most 4^n
    of them) with at most delta choices for each of its n R steps, so a
    coefficient is at most 4^n delta^n < 2^(2n) 2^(n delta.bit_length())
    = 2^B.  A value left above the top slot raises ArithmeticError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check(delta)
    bits = _slot_bits(n, delta)
    # a walk into the root has returned at least once, so root's slot 0
    # is empty; slot k-1 of `packed` is the coefficient of x^k in P
    return _slots(_packed_walks(n, delta, bits), bits, 0, n)


def _even_roots(N: int, delta: int, bits: int) -> list[int]:
    """a_0(x) after steps 2, 4, ..., 2N of one run limited to 2N steps."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    _check(delta)
    base = delta - 1 or 1
    runs = islice(_steps(delta, bits, 2 * N, 2 * N), 1, None, 2)
    # with K = N, the root after step 2n carries c^(N - n)
    return [_exact(counts[0], base ** (N - n)) for n, counts in enumerate(runs, 1)]


def dp_walk_counts(N: int, delta: int) -> list[int]:
    """Closed walks of length 2n for n = 0..N: a_0 after each even step of one run."""
    return [1, *_even_roots(N, delta, 0)]


def dp_return_profiles(N: int, delta: int) -> list[list[int]]:
    """``dp_return_profile(n, delta)`` for n = 1..N, entry n-1, from one DP run.

    ``dp_walk_counts``'s run with B-bit slots, B = N (2 + delta.bit_length()):
    after step 2n, slot k of a_0(x) counts the closed walks of length 2n
    with k returns, the last step included.  The run carries rescaled
    a_d whose coefficients may overflow a slot, but, as in
    ``dp_return_profile``, only the final coefficients must fit: once c^(N - n)
    is divided out, a_0(x) after step 2n is a polynomial whose
    coefficients count closed walks of length 2n, at most
    4^n delta^n <= 4^N delta^N < 2^B each.  A value left above slot n
    raises ArithmeticError.
    """
    bits = _slot_bits(N, delta)
    return [_slots(root, bits, 1, n + 1) for n, root in enumerate(_even_roots(N, delta, bits), 1)]
