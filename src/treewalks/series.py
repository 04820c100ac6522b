"""Exact truncated power series and the closed-walk generating function.

The generating function for closed-walk counts on an infinite
delta-regular tree (Kesten-McKay) is

    f(t) = 2(delta - 1) / (delta - 2 + delta * sqrt(1 - 4(delta - 1) t^2))

whose t^(2n) coefficient is W(2n, delta).  The gf route divides the
denominator by its constant term 2(delta - 1).  What is left has constant
term 1 and integer coefficients, so f is its reciprocal, found by an
integer recurrence in O(N^2) big-integer products: no fractions and no
floats, since the acceptance check is exact integer equality with the
combinatorial formulas.  ``PowerSeries``, ``sqrt_series`` and
``reciprocal_series`` are the general exact-rational (fractions.Fraction)
counterparts; the reciprocal shares the gf route's recurrence loop.

delta = 2 is fine (the denominator's constant term is 2); delta = 1 is
rejected because the formula degenerates to 0/0.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from treewalks.exact import ExactnessError, exact_div


class PowerSeries:
    """Truncated formal power series with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        if not cs:
            raise ValueError("a truncated series stores at least the constant term")
        self.coeffs = cs

    @property
    def order(self) -> int:
        """Maximum retained degree."""
        return len(self.coeffs) - 1

    def __getitem__(self, d: int) -> Fraction:
        return self.coeffs[d]

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        D = min(self.order, other.order)
        out = [Fraction(0)] * (D + 1)
        for i, a in enumerate(self.coeffs[: D + 1]):
            if a == 0:
                continue
            for j in range(D + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return PowerSeries(out)

    def scale(self, c) -> "PowerSeries":
        c = Fraction(c)
        return PowerSeries([c * a for a in self.coeffs])


def sqrt_series(c, D: int) -> "PowerSeries":
    """Series g with g^2 = 1 - c*t^2 (truncated to degree D), g(0) = 1.

    Binomial expansion: [t^(2m)] g = binom(1/2, m) * (-c)^m, computed by
    the iterative ratio so every coefficient stays an exact Fraction.
    """
    if D < 0:
        raise ValueError(f"D must be >= 0, got {D}")
    c = Fraction(c)
    out = [Fraction(0)] * (D + 1)
    out[0] = Fraction(1)
    term = Fraction(1)  # binom(1/2, m) * (-c)^m
    m = 0
    while 2 * (m + 1) <= D:
        m += 1
        # binom(1/2, m) / binom(1/2, m-1) = (1/2 - (m-1)) / m = (3 - 2m) / (2m)
        term *= Fraction(3 - 2 * m, 2 * m) * (-c)
        out[2 * m] = term
    return PowerSeries(out)


def _reciprocal(a: list, inv_a0) -> list:
    """Coefficients r with a * r = 1 to degree len(a) - 1; inv_a0 is 1 / a[0].

    Degree-by-degree solve of sum_{i=0}^{d} a[i] r[d-i] = 0: O(D^2)
    products.  With integer a and a[0] = 1 (inv_a0 = 1) it stays in the
    integers.
    """
    D = len(a) - 1
    tail = a[1:]
    out = [inv_a0] + [0] * D
    for d in range(1, D + 1):
        out[d] = -sum(map(mul, tail[:d], out[d - 1 :: -1])) * inv_a0
    return out


def reciprocal_series(s: PowerSeries) -> PowerSeries:
    """Series r with s*r = 1 up to s's truncation order."""
    a0 = s.coeffs[0]
    if a0 == 0:
        raise ZeroDivisionError("reciprocal of a series with zero constant term")
    return PowerSeries(_reciprocal(s.coeffs, 1 / a0))


def _normalised_denominator(delta: int, D: int) -> list[int]:
    """(delta - 2 + delta sqrt(1 - c t^2)) / (2(delta - 1)) to degree D, c = 4(delta - 1).

    The square root's t^(2m) coefficient binom(1/2, m) (-c)^m advances by
    the ratio (2m - 3) c / (2m).  With c = 4(delta - 1) it equals
    -2 Catalan(m-1) (delta - 1)^m, an integer divisible by 2(delta - 1),
    so both divisions are exact; each is checked.
    """
    c = 4 * (delta - 1)
    out = [1] + [0] * D
    term = 1
    for m in range(1, D // 2 + 1):
        term = exact_div(term * (2 * m - 3) * c, 2 * m)
        out[2 * m] = exact_div(delta * term, 2 * (delta - 1))
    return out


def _gf_coefficients(delta: int, N: int) -> list[int]:
    """Integer coefficients of the generating function to degree 2N + 1."""
    if delta < 2:
        raise ValueError(f"delta must be >= 2 (formula degenerates below), got {delta}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    return _reciprocal(_normalised_denominator(delta, 2 * N + 1), 1)


def gf_series(delta: int, N: int) -> PowerSeries:
    """The walk generating function truncated to degree 2N + 1.

    The extra odd degree is deliberate so the odd-coefficients-vanish
    check in ``gf_walk_counts`` is meaningful at the top order.
    """
    return PowerSeries(_gf_coefficients(delta, N))


def gf_walk_counts(delta: int, N: int) -> list[int]:
    """[t^(2n)] of the generating function for n = 0..N, as exact integers.

    Every degree up to 2N + 1 is computed, and the odd ones must vanish.
    """
    f = _gf_coefficients(delta, N)
    for d in range(1, len(f), 2):
        if f[d]:
            raise ExactnessError(f"odd-degree coefficient t^{d} is {f[d]}, expected 0")
    counts = f[::2]
    if counts[0] != 1:
        raise ExactnessError(f"constant term is {counts[0]}, expected 1")
    for n_, coeff in enumerate(counts):
        if coeff < 0:
            raise ExactnessError(f"coefficient of t^{2 * n_} is negative: {coeff}")
    return counts
