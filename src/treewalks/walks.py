"""Closed-walk counts at a vertex of an infinite delta-regular tree.

W(2n, delta) is computed by three mutually independent closed forms:

  * components route:  sum_k delta^k (delta-1)^(n-k) * |{paths of
    semi-length n-1 with >= k-1 components}|
  * Catalan route:     sum_k delta^k (delta-1)^(n-k) * C(n-1, n-k)
  * Borel route:       sum_l (-1)^(n-l) * B(n-1, n-l) * delta^l, by
                       Horner's rule on ``walks_polynomial(n)``, the
                       signed Borel row n-1 from ``borel_row``: O(n) exact
                       ratio steps down from B(n-1, n-1) = Cat(n-1)

All three must agree exactly with each other and with the DP and
generating-function oracles; ``ROUTES`` holds the five side by side.

delta = 1 is admitted by all five routes, gf included, as a formal
specialization: W = 1 for every n, the one walk that steps to the lone
neighbour and back n times, even though an infinite 1-regular tree does
not exist.
"""

from __future__ import annotations

from treewalks.exact import ExactnessError, exact_div
from treewalks.oracle import dp_walk_count
from treewalks.rlseq import _s_rows
from treewalks.series import gf_walk_counts
from treewalks.triangles import borel_row, catalan_entry, catalan_number


def _check_domain(n: int, delta: int, min_n: int = 1) -> None:
    if n < min_n:
        raise ValueError(f"n must be >= {min_n}, got {n}")
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")


def walks_via_components(n: int, delta: int) -> int:
    """Closed walks of length 2n via the component-count recurrence.

    Weights row n of the S recurrence, S(n, k) = sum_{j>=k-1} S(n-1, j),
    holding one row at a time.
    """
    _check_domain(n, delta)
    for row in _s_rows(n):
        pass
    return _weigh(row, delta)


def components_walk_counts(delta: int, N: int) -> list[int]:
    """``walks_via_components(n, delta)`` for n = 0..N, entry n, from one run of the S rows."""
    _check_domain(N, delta, min_n=0)
    return [_weigh(row, delta) for row in _s_rows(N)]


def _weigh(row: list[int], delta: int) -> int:
    """sum_k S(n, k) delta^k (delta-1)^(n-k) over row n of ``_s_rows``, by homogeneous Horner."""
    h, power = 0, 1  # h <- h delta + S(n, k) power for k = n..0; power = (delta-1)^(n-k)
    for s in row:
        h = h * delta + s * power
        power *= delta - 1
    return h


def walks_via_catalan(n: int, delta: int) -> int:
    """Closed walks of length 2n via Catalan-triangle entries.

    W = sum_j delta^(n-j) (delta-1)^j C(n-1, j).  Row n - 1 is stepped by
    the exact ratio C(m, j) / C(m, j-1) = (m-j+1)(m+j) / ((m-j+2) j) and
    weighted by homogeneous Horner, h <- h delta + C(n-1, j) (delta-1)^j,
    so W = delta h.
    """
    _check_domain(n, delta)
    m = n - 1
    h = entry = power = 1  # the j = 0 term; entry = C(m, j), power = (delta-1)^j
    for j in range(1, n):
        entry = exact_div(entry * ((m - j + 1) * (m + j)), (m - j + 2) * j)
        power *= delta - 1
        h = h * delta + entry * power
    return h * delta


def walks_via_borel(n: int, delta: int) -> int:
    """Closed walks of length 2n via Borel-triangle coefficients, by Horner's rule."""
    _check_domain(n, delta)
    h = 0
    for c in walks_polynomial(n):
        h = h * delta + c
    return h * delta  # no constant term


def walks_polynomial(n: int) -> tuple[int, ...]:
    """Walk-count polynomial in the tree degree, exponents n down to 1.

    Entry i is the coefficient of degree^(n-i), namely (-1)^i B(n-1, i):
    Borel row n-1 with alternating signs.  It starts at B(n-1, 0), the
    n-th Catalan number; every entry is non-zero, and there is no
    constant term, so the degree is the tuple's length.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return tuple(-b if i % 2 else b for i, b in enumerate(borel_row(n - 1)))


#: The five routes to W(2n, delta) as ``route(n, delta)``, in the order
#: ``walks --method all`` prints them; ``cli`` and ``verify`` both read it.
#: Every entry refuses n < 1 and delta < 1 through ``_check_domain``.
ROUTES = {
    "components": walks_via_components,
    "catalan": walks_via_catalan,
    "borel": walks_via_borel,
    "gf": lambda n, delta: _check_domain(n, delta) or gf_walk_counts(delta, n)[n],
    "oracle": lambda n, delta: _check_domain(n, delta) or dp_walk_count(n, delta),
}


def walks_with_k_returns(n: int, k: int, delta: int) -> int:
    """Closed walks of length 2n returning to the root exactly k times."""
    _check_domain(n, delta)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got (n={n}, k={k})")
    return delta**k * (delta - 1) ** (n - k) * catalan_entry(n - 1, n - k)


def first_return_count(n: int, delta: int) -> int:
    """Walks of length 2n returning to the start for the first time at the end."""
    _check_domain(n, delta)
    c = catalan_number(n - 1)
    # the diagonal identity C(n-1, n-1) = Catalan(n-1) makes this the k=1 term
    if c != catalan_entry(n - 1, n - 1):
        raise ExactnessError(f"diagonal identity fails at n={n}: Catalan(n-1)={c}")
    return delta * (delta - 1) ** (n - 1) * c


def second_return_count(n: int, delta: int) -> int:
    """Walks of length 2n ending at the root on their second return."""
    _check_domain(n, delta, min_n=2)
    return delta**2 * (delta - 1) ** (n - 2) * catalan_number(n - 1)
