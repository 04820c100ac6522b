"""Bundled golden tables, transcribed once and treated as read-only.

catalan_triangle.csv / borel_triangle.csv: rows 0..7 of each triangle,
one CSV line per row.

walk_polynomials.csv: one line per n = 1..6, "n,c_n,...,c_1" with the
walk-polynomial coefficients exponent-descending.

k_return_multipliers.csv: "n,k,m" lines; m is the shape count multiplying
delta^k (delta-1)^(n-k) in the per-return breakdown of W(2n).

Each reader raises ValueError unless the file holds exactly that extent,
so a truncated or empty file cannot pass a check by covering nothing.
Tests and the CLI can point at an alternate directory (used to exercise
the corrupted-fixture failure path).
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

FIXTURE_NAMES = (
    "catalan_triangle.csv",
    "borel_triangle.csv",
    "walk_polynomials.csv",
    "k_return_multipliers.csv",
)


def fixture_text(name: str, fixture_dir: str | Path | None = None) -> str:
    if fixture_dir is not None:
        return (Path(fixture_dir) / name).read_text()
    return (resources.files(__package__) / name).read_text()


def _int_rows(name: str, fixture_dir: str | Path | None) -> list[list[int]]:
    """The fixture's non-empty CSV lines, each as a list of integers."""
    text = fixture_text(name, fixture_dir)
    return [[int(e) for e in line.split(",")] for line in text.splitlines() if line]


def triangle_rows(kind: str, fixture_dir: str | Path | None = None) -> list[list[int]]:
    """Rows 0..7 of the triangle, row n with n + 1 entries."""
    name = f"{kind}_triangle.csv"
    rows = _int_rows(name, fixture_dir)
    if [len(row) for row in rows] != list(range(1, 9)):
        raise ValueError(f"{name} does not hold rows 0..7 with n + 1 entries each")
    return rows


def polynomial_coefficients(fixture_dir: str | Path | None = None) -> dict[int, list[int]]:
    """n -> exponent-descending coefficient list, for n = 1..6."""
    out = {n: coeffs for n, *coeffs in _int_rows("walk_polynomials.csv", fixture_dir)}
    if {n: len(c) for n, c in out.items()} != {n: n for n in range(1, 7)}:
        raise ValueError("walk_polynomials.csv does not hold n = 1..6 with n coefficients each")
    return out


def k_return_multipliers(fixture_dir: str | Path | None = None) -> dict[tuple[int, int], int]:
    """(n, k) -> shape-count multiplier from the per-return tables, 1 <= k <= n <= 6."""
    out = {(n, k): m for n, k, m in _int_rows("k_return_multipliers.csv", fixture_dir)}
    if out.keys() != {(n, k) for n in range(1, 7) for k in range(1, n + 1)}:
        raise ValueError(
            "k_return_multipliers.csv does not hold every (n, k) with 1 <= k <= n <= 6"
        )
    return out
