"""Cross-method verification suite backing the `verify` CLI command.

Every check returns a CheckResult; a failed check carries the first
located mismatch so a corrupted fixture or a broken formula is reported
with coordinates, never as a bare boolean.  A passing check counts the
cases it compared in ``cases``; a check that compared none fails with
"checked nothing".
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict, namedtuple
from itertools import accumulate
from math import comb

from treewalks import _kernel, rlseq
from treewalks import fixtures as fx
from treewalks.oracle import dp_return_profile, dp_return_profiles, dp_walk_count, dp_walk_counts
from treewalks.series import gf_walk_counts
from treewalks.triangles import (
    borel_entry_explicit,
    borel_row,
    borel_table,
    borel_transform_row,
    catalan_entry,
    catalan_number,
    catalan_table,
)
from treewalks.walks import (
    ROUTES,
    components_walk_counts,
    first_return_count,
    second_return_count,
    walks_polynomial,
    walks_via_catalan,
    walks_with_k_returns,
)


CheckResult = namedtuple("CheckResult", "name passed detail cases", defaults=("", 0))


def _passed(name: str, cases: int) -> CheckResult:
    """The result of a check that found no mismatch in ``cases`` cases."""
    if cases < 1:
        return CheckResult(name, False, "checked nothing")
    return CheckResult(name, True, "", cases)


def check_method_agreement(max_n: int, max_delta: int) -> CheckResult:
    """components = catalan = borel = DP oracle = gf, exactly.

    components, the oracle and gf are each one whole series per delta,
    O(max_n^2) each, and the gf coefficients must also satisfy the
    quadratic (1 - delta^2 u) f^2 + (delta - 2) f - (delta - 1) = 0,
    u = t^2, in every degree up to max_n.  catalan and borel, O(n) per n,
    are their ``walks.ROUTES`` entries at every n; at the top two n, one
    of each parity, so are the other three.
    """
    name = "five-method agreement"
    catalan, borel = ROUTES["catalan"], ROUTES["borel"]
    for delta in range(1, max_delta + 1):
        gf = gf_walk_counts(delta, max_n)
        bad = _gf_quadratic_fault(gf, delta)
        if bad is not None:
            d, residual = bad
            return CheckResult(
                name,
                False,
                f"gf quadratic identity fails at (u^{d}, delta={delta}): residual {residual}",
            )
        comp, dp = components_walk_counts(delta, max_n), dp_walk_counts(max_n, delta)
        for n in range(1, max_n + 1):
            values = {"components": comp[n], "catalan": catalan(n, delta)}
            values.update(borel=borel(n, delta), oracle=dp[n], gf=gf[n])
            if n >= max_n - 1:  # catalan and borel above are ROUTES entries already
                for m in ("components", "oracle", "gf"):
                    values[f"{m} at n alone"] = ROUTES[m](n, delta)
            if len(set(values.values())) != 1:
                return CheckResult(
                    name, False, f"disagreement at (n={n}, delta={delta}): {values}"
                )
    return _passed(name, max_n * max_delta)


def _gf_quadratic_fault(f: list[int], delta: int) -> tuple[int, int] | None:
    """First (degree, residual) where f breaks the quadratic, or None.

    The quadratic has one power-series root with f(0) = 1, so its
    coefficients up to degree N pin f down to degree N: at degree d >= 1,
    f_d appears only with coefficient 2 f_0 + delta - 2 = delta, which is
    not 0 for any delta >= 1, so f_d is fixed by the lower degrees.
    """
    square = [sum(f[i] * f[d - i] for i in range(d + 1)) for d in range(len(f))]
    for d in range(len(f)):
        # [u^d] of the left-hand side; only degree 0 has a constant term
        lower = delta * delta * square[d - 1] if d else delta - 1
        residual = square[d] + (delta - 2) * f[d] - lower
        if residual:
            return d, residual
    return None


def check_s_table(max_n: int) -> CheckResult:
    """enumerated = recurrence = closed form for all S(n, k), n <= max_n."""
    name = "S-table triple equality"
    enum = rlseq.s_table_enumerated(max_n, cap=max_n)
    rec = rlseq.s_table_recurrence(max_n)
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            a, b, c = enum[n][k], rec[n][k], rlseq.s_closed_form(n, k)
            if not (a == b == c):
                return CheckResult(
                    name,
                    False,
                    f"(n={n}, k={k}): enumerated={a} recurrence={b} closed={c}",
                )
        total = sum(rec[n][1:])
        if total != catalan_number(n):
            return CheckResult(
                name, False, f"row {n} sums to {total}, not Catalan({n})"
            )
    return _passed(name, max_n * (max_n + 1) // 2)


#: Bits of the lane that holds one path in the bijection check; the
#: check and ``_all_paths`` step through a block four bytes a lane.
_LANE_BITS = 32
#: Lanes that the bijection check deletes, inserts and tests in one step.
_CHUNK_LANES = 1 << 16


def _check_lane_room(n: int) -> None:
    # a word of length 2n stays in its 32-bit lane under ``rlseq._insert``,
    # which shifts it up by two, only while 2n + 2 <= 32
    if 2 * n + 2 > _LANE_BITS:
        raise ValueError(
            f"the bijection check packs paths into {_LANE_BITS}-bit lanes, so "
            f"min(--max-n, --enum-cap) must be <= {_LANE_BITS // 2 - 1}, got {n}"
        )


def check_bijection(max_n: int) -> CheckResult:
    """Exhaustive deletion/insertion bijection check, every i, on packed masks.

    At each level n, every Dyck path omega with k components and every
    1 <= i <= k is deleted to alpha = f_i(omega), which must be a path of
    level n - 1 with at least k - 1 components, and inserting at (i, k)
    must give omega back.  Insert after delete is the identity, so
    deletion is injective from the (omega, i) pairs into the valid
    (alpha, i, k) triples; an alpha with j components has (j+1)(j+2)/2
    of them.  Equal counts make deletion a bijection, so every triple
    inserts to a k-component path that deletes back to alpha, for every
    i, and S(n, k) = sum_{j >= k-1} S(n-1, j) follows.

    The pairs of a level whose component i spans the same deletion block
    (start, end) = (e_(i-1), e_i), as ``_kernel.dyck_classes`` gives the
    ends, are packed one path per 32-bit lane (Kronecker packing, as
    ``_kernel.component_histograms`` packs its counts), whatever their i
    and k, ``_CHUNK_LANES`` lanes at a time, so one ``rlseq._delete`` call
    deletes the block from every lane of a chunk.  Each image must be a
    path of length 2n - 2, as ``_all_paths`` tests on every lane at once,
    must agree with its omega below start, and from end - 2 on with omega
    from end on.  Then every image is a path that returns to the root at
    e_1, ..., e_(i-1), at some points up to end - 2 with a return at
    end - 2 itself unless end - 2 = start, and then at e_(i+1) - 2, ...,
    e_k - 2, with its lane's own i and k.  So every image has at least
    k - 1 components, and ``rlseq._wrap_bounds``, which reads the (i-1)-th
    end and the (k-i+1)-th end from the last, gives every lane the
    insertion bounds (start, end - 2) that it gives lane 0 of the chunk.
    One ``rlseq._insert`` call then inserts on every lane, and must give
    the chunk back.

    A chunk that fails any of this is judged again one lane at a time,
    each with its own i and k, and the first lane that fails alone is
    reported; if none does, the check goes on, as it would pair by pair.
    The class of each chunk's lane 0 and of each lane judged alone comes
    from one running pointer per block: a class, and the lane past it.
    Of two or more failing pairs, the one reported is the first in the
    check's order of blocks and lanes, not in the kernel's order of paths.
    ``_kernel.dyck_classes`` gives a level packed at 4 bytes a path in the
    classes of paths that share their ends, and each chunk is copied from
    its classes when it is checked.  Of level n - 1 the check keeps only
    its count of triples; the ends of an image that the check reads, lane
    0's of a chunk or one lane's, are scanned from its word.

    The count rests on ``_kernel.dyck_classes`` listing each path once.
    For n <= 12 the tests hold it to ``_kernel.dyck_paths`` grouped by
    ends, whose order ``test_kernel_order_is_pinned`` pins.  A level past
    15 would leave insertion no room in a lane and raises ValueError.
    """
    _check_lane_room(max_n)
    name = "deletion/insertion bijection"
    triples = 1  # level 0: the empty path and its one triple
    pairs = 0
    for n in range(1, max_n + 1):
        classes = _kernel.dyck_classes(n)
        blocks = defaultdict(list)  # (start, end) -> the ends of its classes
        for ends in classes:
            for block in zip((0, *ends), ends):
                blocks[block].append(ends)
        for (start, end), members in blocks.items():
            block = memoryview(b"".join(map(classes.__getitem__, members)))
            c, top = 0, len(classes[members[0]])  # a lane's class, and the lane past it
            for first in range(0, len(block) // 4, _CHUNK_LANES):
                while top <= first:
                    c += 1
                    top += len(classes[members[c]])
                chunk = block[4 * first : 4 * (first + _CHUNK_LANES)]
                if _block_fault(chunk, start, end, members[c], n) is None:
                    continue
                for lane in range(first, first + len(chunk) // 4):
                    while top <= lane:
                        c += 1
                        top += len(classes[members[c]])
                    omega = block[4 * lane : 4 * lane + 4]
                    fault = _block_fault(omega, start, end, members[c], n)
                    if fault is not None:
                        return CheckResult(name, False, fault)
        count = sum(len(ends) * len(omegas) for ends, omegas in classes.items())
        if count != triples:
            detail = f"{count} (omega, i) pairs but {triples} (alpha, i, k) triples at n={n}"
            return CheckResult(name, False, detail)
        pairs += count
        triples = sum(len(omegas) * comb(len(ends) + 2, 2) for ends, omegas in classes.items())
    return _passed(name, pairs)


def _block_fault(omegas, start: int, end: int, ends: tuple, n: int) -> str | None:
    """None iff every lane of the block deletes and re-inserts cleanly, else a fault.

    ``omegas`` is the bytes of masks of level n from one block, in native
    4-byte words; lane 0 has these ends, and component i of k at
    (start, end).  The fault is worded with lane 0's i, k and image, so a
    block of one lane names its own (omega, i) pair.
    """
    i, k = ends.index(end) + 1, len(ends)
    size, order = len(omegas), sys.byteorder
    lanes = int.from_bytes(b"\1\0\0\0" * (size // 4), "little")
    packed = int.from_bytes(omegas, order)
    alpha = rlseq._delete(packed, start, end, lanes)
    if _all_paths(alpha, 2 * n - 2, size):
        # lane 0, first in memory, is the integer's top lane on a big-endian host
        first = alpha if order == "little" else alpha >> 8 * size - _LANE_BITS
        word = rlseq._word(first, 2 * n - 2)
        alpha_ends = rlseq._scan(word)[1]
        if len(alpha_ends) >= k - 1:
            back = rlseq._insert(alpha, *rlseq._wrap_bounds(alpha_ends, i, k), lanes)
            if back != packed:
                try:
                    ok = not back >> 2 * n and len(rlseq._scan(rlseq._word(back, 2 * n))[1]) == k
                except rlseq.IllegalSequenceError:
                    ok = False
                fault = "round trip" if ok else "insert postcondition"
                return f"{fault} fails at {word}, i={i}, k={k}"
            # images agree with omega off the block: a round trip implies it
            # unless both maps are wrong
            below = ((1 << start) - 1) * lanes
            above = ((1 << _LANE_BITS) - (1 << end)) * lanes
            if not ((alpha ^ packed) & below or (alpha << 2 ^ packed) & above):
                return None
    return f"f_{i} image mismatch on (n={n}, k={k})"


@functools.cache
def _step_tables() -> tuple[bytes, bytes]:
    """Two ``bytes.translate`` tables over the 256 bytes of eight steps.

    The first gives 8 minus a byte's net height change, in 0..16; the
    second how far its lowest prefix (the empty prefix included) lies
    below its start, in 0..8.  A byte is two nibbles of four steps, the
    low one first.  Built on first use, once per process.
    """
    net = [2 * v.bit_count() - 4 for v in range(16)]
    low = [min(accumulate((2 * (v >> p & 1) - 1 for p in range(4)), initial=0)) for v in range(16)]
    nibbles = [(v & 15, v >> 4) for v in range(256)]
    return (
        bytes(8 - net[a] - net[b] for a, b in nibbles),
        bytes(-min(low[a], net[a] + low[b]) for a, b in nibbles),
    )


@functools.cache
def _dip_table(start: int, steps: int) -> bytes:
    """The ``bytes.translate`` table of the byte of a lane whose first step is ``start``.

    The word has ``steps`` steps in that byte, and the bits above them are
    read as R steps, which never go lower; a byte goes to 127 - start plus
    how far below its start its lowest prefix lies.
    """
    above = 255 << steps & 255
    dips = bytes(v | above for v in range(256)).translate(_step_tables()[1])
    return bytes(127 - start + dip for dip in dips)


def _all_paths(packed: int, length: int, size: int) -> bool:
    """True iff every 32-bit lane of ``packed`` is a Dyck path of ``length`` steps.

    A ``packed`` past ``size`` bytes fails.  Byte b of every lane, steps
    8b..8b+7, is cut out as one row of bytes, and only the rows that hold
    steps of the word are read.  With H_b the height before byte b, the
    row is translated into 8 - (H_(b+1) - H_b), and the running sum of
    those rows gives 8b - H_b in every lane.  Adding the row translated
    by ``_dip_table`` gives 127 - (H_b + the lowest height within byte b
    relative to H_b), which has its high bit clear iff the path stays at
    or above 0 through byte b.  No carry crosses a byte: the running sum
    is at most 48 and every byte of the total lies in 103..159, so the
    rows' totals, ORed, are ASCII iff the word never dips below 0.  A lane
    that never dips has at least length / 2 set bits, with equality iff
    its word ends at 0 and it has no bit at or above ``length``; so once
    every lane does, ``packed`` has size / 4 * length / 2 set bits iff
    every lane is a path.
    """
    if packed >> 8 * size or packed.bit_count() != size * length // 8:
        return False
    steps = packed.to_bytes(size, "little")
    drop = _step_tables()[0]
    rise = worst = 0
    for start in range(0, length, 8):
        row = steps[start // 8 :: 4]
        dip = row.translate(_dip_table(start, min(length - start, 8)))
        worst |= rise + int.from_bytes(dip, "little")
        if start + 8 < length:
            rise += int.from_bytes(row.translate(drop), "little")
    return worst.to_bytes(size // 4, "little").isascii()


def check_borel_consistency(max_n: int) -> CheckResult:
    """Explicit formula, transform, ``borel_row`` and ``borel_table`` agree.

    The four routes are compared entry by entry for rows 0..max_n; the
    transform is taken a row at a time, by ``borel_transform_row``.
    """
    name = "Borel explicit = transform"
    table = borel_table(max_n)
    for n in range(max_n + 1):
        row, transform = borel_row(n), borel_transform_row(n)
        for k in range(n + 1):
            a, b = borel_entry_explicit(n, k), transform[k]
            if not a == b == row[k]:
                return CheckResult(name, False, f"(n={n}, k={k}): {a} != {b} or row {row[k]}")
            if table[n][k] != a:
                return CheckResult(name, False, f"(n={n}, k={k}): table {table[n][k]} != {a}")
    return _passed(name, (max_n + 1) * (max_n + 2) // 2)


def check_central_binomial(max_n: int) -> CheckResult:
    """Degree-2 specialization: W(2n, 2) = binom(2n, n) (the infinite path)."""
    name = "delta=2 central binomial identity"
    for n in range(1, max_n + 1):
        w, c = walks_via_catalan(n, 2), comb(2 * n, n)
        if w != c:
            return CheckResult(name, False, f"n={n}: {w} != binom(2n,n)={c}")
    return _passed(name, max_n)


def check_return_corollaries(max_n: int, max_delta: int) -> CheckResult:
    """First/second/k-return closed forms against the return-profile DP.

    One ``dp_return_profiles`` run per delta gives every n's profile; it
    must sum to ``dp_walk_count``, and equal ``dp_return_profile`` at the top two n.
    """
    name = "first/second return corollaries"
    for delta in range(1, max_delta + 1):
        for n, profile in enumerate(dp_return_profiles(max_n, delta), 1):
            if sum(profile) != dp_walk_count(n, delta):
                return CheckResult(name, False, f"profile sum off at (n={n}, delta={delta})")
            if n >= max_n - 1 and profile != dp_return_profile(n, delta):
                return CheckResult(name, False, f"profile sweep off at (n={n}, delta={delta})")
            if first_return_count(n, delta) != profile[0]:
                return CheckResult(
                    name, False, f"first-return mismatch at (n={n}, delta={delta})"
                )
            if n >= 2 and second_return_count(n, delta) != profile[1]:
                return CheckResult(
                    name, False, f"second-return mismatch at (n={n}, delta={delta})"
                )
            for k in range(1, n + 1):
                if walks_with_k_returns(n, k, delta) != profile[k - 1]:
                    return CheckResult(
                        name, False, f"k-return mismatch at (n={n}, k={k}, delta={delta})"
                    )
    return _passed(name, max_delta * max_n * (max_n + 1) // 2)


def check_fixtures() -> CheckResult:
    """Recompute every bundled golden table and diff entry-for-entry."""
    name = "golden fixtures"
    cat, bor = fx.TRIANGLES["catalan"], fx.TRIANGLES["borel"]
    polys, mults = fx.WALK_POLYNOMIALS, fx.K_RETURN_MULTIPLIERS
    for kind, table, fixture in (("catalan", catalan_table, cat), ("borel", borel_table, bor)):
        rows = table(len(fixture) - 1)
        for n, (row, expected) in enumerate(zip(rows, fixture, strict=True)):
            for k, (c, f) in enumerate(zip(row, expected, strict=True)):
                if c != f:
                    return CheckResult(
                        name, False, f"{kind} triangle (n={n}, k={k}): computed {c}, fixture {f}"
                    )
    for n, expected in polys.items():
        got = list(walks_polynomial(n))
        if got != expected:
            return CheckResult(
                name, False, f"polynomial n={n}: computed {got}, fixture {expected}"
            )
    for (n, k), m in mults.items():
        got_m = catalan_entry(n - 1, n - k)
        if got_m != m:
            return CheckResult(
                name, False, f"k-return multiplier (n={n}, k={k}): computed {got_m}, fixture {m}"
            )
    entries = sum(map(len, cat + bor)) + sum(map(len, polys.values())) + len(mults)
    return _passed(name, entries)


def run_all(max_n: int, max_delta: int, enum_cap: int) -> list[CheckResult]:
    _check_lane_room(min(max_n, enum_cap))
    return [
        check_method_agreement(max_n, max_delta),
        check_s_table(min(max_n, enum_cap)),
        check_bijection(min(max_n, enum_cap)),
        check_borel_consistency(max(max_n, 30)),
        check_central_binomial(max_n),
        check_return_corollaries(min(max_n, 12), max_delta),
        check_fixtures(),
    ]
