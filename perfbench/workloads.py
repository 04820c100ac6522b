"""Seeded query streams for the three workloads.

``build(name, seed)`` returns the list of queries one pass sends, in
order.  The seed picks the degrees, which size goes with which degree,
cap or format, the output formats and the order.  The multiset of sizes
that sets the cost is the same for every seed, so two seeds cost about
the same and the spread across seeds measures the machine and the
program, not the draw.
``tiny=True`` shrinks every size so that a pass takes well under a second
(used by the self-test).
"""

from __future__ import annotations

import random

FORMATS = ("plain", "csv", "json")

#: Reference-loop runs per speed sample (calibrate.py), about 5 % of a
#: typical query of the workload: a dozen for the long ``routes`` queries,
#: three for the 30 ms ``sweep`` queries, where more would cost a fifth of
#: each pass.  Fixed per workload, so that it is the same on every commit.
CALIBRATION_RUNS = {"routes": 11, "verify": 5, "sweep": 3}


def _cli(*argv) -> dict:
    return {"cli": [str(a) for a in argv]}


def _routes(rng: random.Random, tiny: bool) -> list[dict]:
    ladder = (10, 12, 14, 16, 18, 20, 22, 26) if tiny else (100, 120, 140, 160, 180, 200, 225, 250)
    # the i-th size takes its degree from the i-th stratum of 3..20
    strata = ((3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (13, 14), (15, 17), (18, 20))
    queries = [
        _cli("walks", "--method", "all", "--n", n, "--delta", rng.randint(lo, hi),
             "--format", rng.choice(FORMATS))
        for n, (lo, hi) in zip(ladder, strata)
    ]
    rng.shuffle(queries)
    return queries


def _verify(rng: random.Random, tiny: bool) -> list[dict]:
    caps = (4, 4, 4, 5) if tiny else (9, 9, 9, 10)
    tops = (6, 7, 8, 8) if tiny else (28, 29, 30, 30)
    degrees = [5, 5, 6, 6]
    rng.shuffle(degrees)
    queries = [
        _cli("verify", "--max-n", top, "--max-delta", d, "--enum-cap", cap)
        for top, d, cap in zip(rng.sample(tops, len(tops)), degrees, caps)
    ]
    sizes = (3, 4, 5, 5, 6, 6) if tiny else (7, 8, 9, 9, 10, 10, 10, 11, 11, 11, 12, 12)
    queries += [
        _cli("stable", "--method", "enumerated", "--n", n, "--format", rng.choice(FORMATS))
        for n in sizes
    ]
    rng.shuffle(queries)
    return queries


def _sweep(rng: random.Random, tiny: bool) -> list[dict]:
    n = 15 if tiny else 120
    queries = []
    # degrees 3..20 over and over; the method mix is fixed, the pairing seeded
    methods = ["borel"] * 30 + ["gf"] * 6 + ["components"] * 6
    rng.shuffle(methods)
    deltas = [3 + (i + rng.randrange(18)) % 18 for i in range(len(methods))]
    queries += [
        _cli("walks", "--method", m, "--n", n, "--delta", d, "--format", rng.choice(FORMATS))
        for m, d in zip(methods, deltas)
    ]
    queries += [_cli("poly", "--n", n, "--format", f) for f in FORMATS]
    queries += [_cli("stable", "--n", n, "--format", rng.choice(FORMATS)) for _ in range(2)]
    cat_rows = (10, 12, 14, 16) if tiny else (130, 136, 143, 150)
    bor_rows = (10, 14) if tiny else (118, 122)
    queries += [
        _cli("triangle", "catalan", "--rows", rows, "--format", rng.choice(FORMATS))
        for rows in cat_rows
    ]
    queries += [
        _cli("triangle", "borel", "--rows", rows, "--format", rng.choice(FORMATS))
        for rows in bor_rows
    ]
    dp_sizes = (4, 5, 6, 7, 8, 9, 10, 12) if tiny else (35, 37, 50, 52, 65, 67, 78, 80)
    # each size once, each degree from its own stratum of 3..20 once
    dp_strata = ((3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (13, 14), (15, 17), (18, 20))
    degrees = [rng.randint(lo, hi) for lo, hi in dp_strata]
    rng.shuffle(degrees)
    queries += [
        {"lib": "dp_return_profile", "args": [n, d]} for n, d in zip(dp_sizes, degrees)
    ]
    rng.shuffle(queries)
    return queries


_BUILDERS = {"routes": _routes, "verify": _verify, "sweep": _sweep}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, tiny: bool = False) -> list[dict]:
    """The seeded query stream of one pass of workload ``name``."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), tiny)


def kind(query: dict) -> str:
    """Short label of a query, for the per-kind counts."""
    if "lib" in query:
        return query["lib"]
    argv = query["cli"]
    if argv[0] in ("walks", "stable"):
        method = argv[argv.index("--method") + 1] if "--method" in argv else "default"
        return f"{argv[0]}:{method}"
    if argv[0] == "triangle":
        return f"triangle:{argv[1]}"
    return argv[0]
