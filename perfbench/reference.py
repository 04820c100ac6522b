"""Expected answers and output checks, written without importing treewalks.

Every expected value comes from a closed form over ``math.comb``:

    C(n, k)     = (n - k + 1) / (n + 1) * binom(n + k, n)        Catalan's triangle
    B(n, k)     = binom(2n + 2, n - k) * binom(n + k, n) / (n + 1)   Borel's triangle
    W_k(2n, d)  = d^k (d - 1)^(n - k) C(n - 1, n - k)             walks with k returns
    W(2n, d)    = sum_k W_k(2n, d)
    S(n, k)     = C(n - 1, n - k)                                  component counts

The walk polynomial is expanded directly from W(2n, d), by the binomial
theorem on (d - 1)^(n - k), so it does not go through Borel's triangle.

A query is a dict: ``{"cli": [argv...]}`` for ``treewalks.cli.main`` or
``{"lib": name, "args": [...]}`` for a library call.  ``expected(query)``
gives the canonical answer; ``check(query, expect, rc, text)`` parses the
program's output into the same canonical form and returns None when it
matches, or a one-line reason when it does not.
"""

from __future__ import annotations

import json
import re
from math import comb

#: Checks printed by ``treewalks verify``; each must report PASS.
VERIFY_CHECKS = 7
WALK_METHODS = ("components", "catalan", "borel", "gf", "oracle")


def catalan_entry(n: int, k: int) -> int:
    return (n - k + 1) * comb(n + k, n) // (n + 1)


def borel_entry(n: int, k: int) -> int:
    return comb(2 * n + 2, n - k) * comb(n + k, n) // (n + 1)


def return_profile(n: int, delta: int) -> list[int]:
    """Walks of length 2n by exact number k = 1..n of returns to the root."""
    return [
        delta**k * (delta - 1) ** (n - k) * catalan_entry(n - 1, n - k)
        for k in range(1, n + 1)
    ]


def walk_count(n: int, delta: int) -> int:
    return sum(return_profile(n, delta))


def walk_polynomial(n: int) -> list[int]:
    """Coefficients of W(2n, d) as a polynomial in d, degree n down to 1."""
    coeff = [0] * (n + 1)
    for k in range(1, n + 1):
        c = catalan_entry(n - 1, n - k)
        for j in range(n - k + 1):  # d^k * binom(n-k, j) d^j (-1)^(n-k-j)
            coeff[k + j] += c * comb(n - k, j) * (-1) ** (n - k - j)
    return coeff[n:0:-1]


def _option(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def expected(query: dict):
    """The canonical answer the query must produce."""
    if "lib" in query:
        if query["lib"] != "dp_return_profile":
            raise ValueError(f"no reference for library call {query['lib']}")
        return return_profile(*query["args"])
    argv = query["cli"]
    cmd = argv[0]
    if cmd == "walks":
        n, delta = int(_option(argv, "--n")), int(_option(argv, "--delta"))
        method = _option(argv, "--method", "catalan")
        methods = WALK_METHODS if method == "all" else (method,)
        w = walk_count(n, delta)
        return {m: w for m in methods}
    if cmd == "poly":
        return walk_polynomial(int(_option(argv, "--n")))
    if cmd == "triangle":
        rows = int(_option(argv, "--rows"))
        entry = catalan_entry if argv[1] == "catalan" else borel_entry
        return [[entry(n, k) for k in range(n + 1)] for n in range(rows + 1)]
    if cmd == "stable":
        n = int(_option(argv, "--n"))
        return [[1]] + [[catalan_entry(m - 1, m - k) for k in range(1, m + 1)]
                        for m in range(1, n + 1)]
    if cmd == "verify":
        return ["PASS"] * VERIFY_CHECKS
    raise ValueError(f"no reference for command {cmd!r}")


def _parse_table(text: str, fmt: str) -> list[list[int]]:
    if fmt == "json":
        return [[int(e) for e in row] for row in json.loads(text)]
    sep = "," if fmt == "csv" else " "
    return [[int(e) for e in line.split(sep)] for line in text.splitlines()]


_POLY_TERM = re.compile(r"^(\d*)[δd](?:\^(\d+)|([⁰¹²³⁴⁵⁶⁷⁸⁹]+))?$")
_SUPERSCRIPT = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def _parse_rendered_poly(text: str) -> list[int]:
    """Parse '42δ⁵ − 120δ⁴ + … + 14δ' (or the --ascii form) into coefficients."""
    tokens = text.replace("−", "-").split()
    sign, terms = 1, {}
    if tokens and tokens[0].startswith("-"):
        sign, tokens[0] = -1, tokens[0][1:]
    for pos, tok in enumerate(tokens):
        if pos % 2:
            if tok not in ("+", "-"):
                raise ValueError(f"bad operator {tok!r}")
            sign = -1 if tok == "-" else 1
            continue
        m = _POLY_TERM.match(tok)
        if not m:
            raise ValueError(f"bad term {tok!r}")
        power = int(m.group(2) or (m.group(3) or "1").translate(_SUPERSCRIPT))
        if power in terms:
            raise ValueError(f"repeated power {power}")
        terms[power] = sign * int(m.group(1) or 1)
    return [terms.get(p, 0) for p in range(max(terms), 0, -1)]


_VERIFY_LINE = re.compile(r"^\S.*?\s{2,}(PASS|FAIL)(?:\s|$)")


def _verify_status(line: str) -> str:
    m = _VERIFY_LINE.match(line)
    if not m:
        raise ValueError(f"bad verify line {line!r}")
    return m.group(1)


def canonical(query: dict, text: str):
    """Parse the program's output for ``query`` into the canonical answer."""
    if "lib" in query:
        return [int(e) for e in text.split(",")]
    argv = query["cli"]
    cmd, fmt = argv[0], _option(argv, "--format", "plain")
    if cmd == "walks":
        if fmt == "json":
            return {m: int(v) for m, v in json.loads(text).items()}
        if fmt == "csv":
            return {m: int(v) for m, v in (line.split(",") for line in text.splitlines())}
        lines = text.splitlines()
        if len(lines) == 1 and _option(argv, "--method", "catalan") != "all":
            return {_option(argv, "--method", "catalan"): int(lines[0])}
        return {m: int(v) for m, v in (line.split() for line in lines)}
    if cmd == "poly":
        if fmt == "json":
            return [int(c) for c in json.loads(text)]
        if fmt == "csv":
            return [int(c) for c in text.strip().split(",")]
        return _parse_rendered_poly(text.strip())
    if cmd in ("triangle", "stable"):
        return _parse_table(text.strip(), fmt)
    if cmd == "verify":
        return [_verify_status(line) for line in text.splitlines()]
    raise ValueError(f"no parser for command {cmd!r}")


def check(query: dict, expect, rc: int, text: str) -> str | None:
    """None when the query exited 0 with the expected answer, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        got = canonical(query, text)
    except (ValueError, TypeError, AttributeError, KeyError, IndexError) as exc:
        return f"unparseable output: {exc}"
    if got != expect:
        return "answer differs from the reference"
    return None


def bits(answer) -> int:
    """Bit length of the largest integer in a canonical answer."""
    if isinstance(answer, int):
        return abs(answer).bit_length()
    if isinstance(answer, dict):
        answer = list(answer.values())
    if isinstance(answer, list):
        return max((bits(a) for a in answer), default=0)
    return 0
