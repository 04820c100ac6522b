"""The closed-walk generating function, coefficient by coefficient.

The generating function for closed-walk counts on an infinite
delta-regular tree (Kesten-McKay) is

    f(t) = 2(delta - 1) / (delta - 2 + delta * sqrt(1 - 4(delta - 1) t^2))

whose t^(2n) coefficient is W(2n, delta).  Only even degrees occur, so
write u = t^2 and s = sqrt(1 - 4(delta - 1) u).  Multiplying numerator
and denominator by delta * s - (delta - 2) gives the rationalised form

    f = (delta * s - (delta - 2)) / (2 (1 - delta^2 u)),

so W(0) = 1 and W(2n) = delta^2 W(2n - 2) + (delta / 2) [u^n] s for
n >= 1: one exact ratio step and one product per degree, O(N) big-integer
products in all.  No fractions and no floats, since the acceptance check
is exact integer equality with the combinatorial formulas; every division
is checked.  f also satisfies (1 - delta^2 u) f^2 + (delta - 2) f -
(delta - 1) = 0, which ``verify`` checks on the computed coefficients.

The recurrence is polynomial in delta, since [u^n] s = -2 Catalan(n-1)
(delta - 1)^n, and so is W(2n, delta), whose coefficients are Borel's
triangle.  The two agree at every delta >= 2, infinitely many points, so
they are one polynomial and agree at delta = 1 too.  There 4(delta - 1)
= 0 makes s = 1, so every [u^n] s with n >= 1 vanishes and every count
is 1.  The 0/0 at delta = 1 belongs to the un-rationalised form above,
which is never evaluated.  delta = 2 gives f = 1 / sqrt(1 - 4u), the
central binomials.
"""

from __future__ import annotations

from treewalks.exact import ExactnessError, exact_div


def sqrt_coefficients(delta: int, N: int) -> list[int]:
    """[u^m] sqrt(1 - c u) for m = 0..N, c = 4(delta - 1).

    The coefficient binom(1/2, m) (-c)^m advances by the ratio
    (2m - 3) c / (2m).  With c = 4(delta - 1) it equals
    -2 Catalan(m-1) (delta - 1)^m for m >= 1, an integer, so each
    division is exact; each is checked.
    """
    c = 4 * (delta - 1)
    out = [1]
    term = 1
    for m in range(1, N + 1):
        term = exact_div(term * (2 * m - 3) * c, 2 * m)
        out.append(term)
    return out


def gf_walk_counts(delta: int, N: int) -> list[int]:
    """[t^(2n)] of the generating function for n = 0..N, as exact integers."""
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    s = sqrt_coefficients(delta, N)
    w = exact_div(delta * s[0] - (delta - 2), 2)
    if w != 1:
        raise ExactnessError(f"constant term is {w}, expected 1")
    counts = [w]
    square = delta * delta
    for n in range(1, N + 1):
        w = square * w + exact_div(delta * s[n], 2)
        if w < 0:
            raise ExactnessError(f"coefficient of t^{2 * n} is negative: {w}")
        counts.append(w)
    return counts
