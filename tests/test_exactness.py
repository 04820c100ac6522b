"""Exactness checks raise ExactnessError, also under ``python -O``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from treewalks.exact import ExactnessError, exact_div

SRC = Path(__file__).resolve().parent.parent / "src"

# Each case breaks one identity a route relies on and expects the named
# exception; run in a child interpreter so that -O is really in force.
SCRIPT = r"""
import sys
from treewalks import _kernel, series, triangles, verify, walks
from treewalks.exact import ExactnessError, exact_div

def raises(fn, *args, naming=""):
    try:
        fn(*args)
    except ExactnessError as error:
        return naming in str(error)
    return False

checks = {
    "optimize flag": sys.flags.optimize >= 1,
    "exact division": raises(exact_div, 7, 2) and exact_div(-12, 4) == -3,
}
real = series.sqrt_coefficients
# at delta = 3: W(0) = (3 s0 - 1) / 2 and W(2n) = 9 W(2n - 2) + 3 s_n / 2
for label, terms in (
    ("gf exact division", [1, -3]),
    ("gf negative coefficient", [1, -8]),
    ("gf constant term", [3, -4]),
):
    series.sqrt_coefficients = lambda delta, N, terms=terms: terms
    checks[label] = raises(series.gf_walk_counts, 3, 1)
series.sqrt_coefficients = real
checks["gf walk counts"] = series.gf_walk_counts(3, 3) == [1, 3, 15, 87]
real = verify.gf_walk_counts
# wrong only at delta = 2, where W(4) = 6
verify.gf_walk_counts = lambda delta, N, real=real: (
    [1, 2, 7] + [0] * (N - 2) if delta == 2 else real(delta, N)
)
result = verify.check_method_agreement(3, 3)
checks["gf quadratic identity"] = not result.passed and "u^2, delta=2" in result.detail
verify.gf_walk_counts = real
real = triangles.catalan_number
triangles.catalan_number = lambda m: 2 * real(m) if m == 10 else real(m)
checks["Borel row far end"] = raises(triangles.borel_row, 10)
triangles.catalan_number = real
real = triangles.catalan_entry
# C(5, 5) = 2^18 fills the top 18-bit slot of transform row 5 and carries out
triangles.catalan_entry = lambda m, s: 2**18 if (m, s) == (5, 5) else real(m, s)
checks["transform row carry"] = raises(triangles.borel_transform_row, 5, naming="row 5")
triangles.catalan_entry = real
real = _kernel._levels
def eight_empty_heads(n, start, stop, height):
    # level 1 as eight empty heads: slot 0 of H_0 holds 8, not below 2^3
    yield [(0, [], 0)]
    yield [(0, [], 0)] * 8
_kernel._levels = eight_empty_heads
checks["histogram carry"] = raises(_kernel.component_histograms, 1, naming="row 1")
_kernel._levels = real
walks.catalan_number = lambda m: 0
checks["diagonal identity"] = raises(walks.first_return_count, 3, 3)
failed = [label for label, ok in checks.items() if not ok]
print("failed:", failed if failed else "none")
"""


def test_exactness_checks_hold_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "failed: none"


def test_a_non_exact_division_names_bit_lengths_not_digits():
    # 10^5000 + 1 has 5,001 digits, past Python's default int -> str limit
    with pytest.raises(ExactnessError) as caught:
        exact_div(10**5000 + 1, 10)
    assert str(caught.value) == "non-exact division of a 16610-bit by a 4-bit integer"
