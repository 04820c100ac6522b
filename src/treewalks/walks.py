"""Closed-walk counts at a vertex of an infinite delta-regular tree.

W(2n, delta) is computed by three mutually independent closed forms:

  * components route:  sum_k delta^k (delta-1)^(n-k) * |{paths of
    semi-length n-1 with >= k-1 components}|
  * Catalan route:     sum_k delta^k (delta-1)^(n-k) * C(n-1, n-k)
  * Borel route:       sum_l (-1)^(n-l) * B(n-1, n-l) * delta^l, with
                       Borel row n-1 from ``borel_row``: O(n) exact
                       ratio steps down from B(n-1, n-1) = Cat(n-1)

All three must agree exactly; the test grid enforces it against the DP
and generating-function oracles as well.

delta = 1 is admitted as a formal specialization (W = 1, the single
there-and-back walk) even though an infinite 1-regular tree does not
exist.
"""

from __future__ import annotations

from dataclasses import dataclass

from treewalks.exact import ExactnessError, exact_div
from treewalks.rlseq import _s_rows
from treewalks.triangles import borel_row, catalan_entry, catalan_number

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _check_domain(n: int, delta: int, min_n: int = 1) -> None:
    if n < min_n:
        raise ValueError(f"n must be >= {min_n}, got {n}")
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")


@dataclass(frozen=True)
class DeltaPolynomial:
    """Walk-count polynomial in the tree degree, exponents 1..n.

    ``coefficients[l]`` is the (signed, exact) coefficient of degree^l.
    Leading coefficient is B(n-1, 0), the n-th Catalan number; signs
    alternate down from the top; there is no constant term.
    """

    coefficients: dict[int, int]

    @property
    def degree(self) -> int:
        return max(self.coefficients)

    def evaluate(self, delta: int) -> int:
        """Value at ``delta``, by Horner's rule from the top coefficient."""
        h = 0
        for c in self.coefficient_list():
            h = h * delta + c
        return h * delta  # no constant term

    def coefficient_list(self) -> list[int]:
        """Coefficients exponent-descending, degree down to 1."""
        return [self.coefficients.get(l, 0) for l in range(self.degree, 0, -1)]

    def render(self, ascii_only: bool = False) -> str:
        var = "d" if ascii_only else "δ"
        minus = "-" if ascii_only else "−"
        terms = []
        for l in range(self.degree, 0, -1):
            c = self.coefficients.get(l, 0)
            if c == 0:
                continue
            mag = abs(c)
            if l == 1:
                power = ""
            elif ascii_only:
                power = f"^{l}"
            else:
                power = str(l).translate(_SUPERSCRIPTS)
            term = f"{'' if mag == 1 else mag}{var}{power}"
            if not terms:
                terms.append(term if c > 0 else f"{minus}{term}")
            else:
                terms.append(f" {minus} {term}" if c < 0 else f" + {term}")
        return "".join(terms) if terms else "0"

    def to_json(self) -> str:
        """Exponent-descending coefficient array, decimal strings.

        The text is json.dumps's: decimal strings need no escaping.
        """
        return '["' + '", "'.join(map(str, self.coefficient_list())) + '"]'


def walks_via_components(n: int, delta: int) -> int:
    """Closed walks of length 2n via the component-count recurrence.

    Weights row n of the S recurrence, S(n, k) = cumulative_s(n-1, k),
    holding one row at a time.  The weighting is homogeneous Horner,
    h <- h delta + S(n, k) (delta-1)^(n-k) for k = n down to 1, with the
    power advanced by one product per term, so W = delta h.
    """
    _check_domain(n, delta)
    for row in _s_rows(n):
        pass
    h, power = 0, 1  # power = (delta-1)^(n-k)
    for k in range(n, 0, -1):
        h = h * delta + row[k] * power
        power *= delta - 1
    return h * delta


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
    """Closed walks of length 2n via Borel-triangle coefficients."""
    _check_domain(n, delta)
    return walks_polynomial(n).evaluate(delta)


def walks_polynomial(n: int) -> DeltaPolynomial:
    """Walk-count polynomial: coefficient of degree^l is (-1)^(n-l) B(n-1, n-l)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    row = borel_row(n - 1)
    coeffs = {l: (-1) ** (n - l) * row[n - l] for l in range(1, n + 1)}
    return DeltaPolynomial(coefficients=coeffs)


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
