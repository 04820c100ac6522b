"""Brute-force enumeration kernel.

Walk shapes (balanced legal RL-sequences / Dyck paths) of semi-length n are
encoded as integer bitmasks: bit ``p`` set means step ``p`` is an R (away
from the root), clear means L (toward the root), with step 0 the first
letter.  Enumeration order is lexicographic over the string form with
R < L, i.e. R before L at every position.

Every path is one head (steps 0..n-1, from the root to some height h)
followed by one tail (steps n..2n-1, from h back to the root), and every
such pair is a path.  One iterative enumerator, ``_levels``, builds the
halves a step at a time: all heads, then, once per height a head reaches,
all tails from that height.  A path is ``head | tail`` and its returns
are the head's followed by the tail's.  Each level lists its prefixes in
lexicographic order (a prefix's R child, then its L child, prefix by
prefix), so heads come out in order and so do the tails of each height;
as the head fills the first n letters, taking heads in order and, for
each, its tails in order gives the lexicographic order of whole paths.

Cost: the halves are Dyck prefixes of length n, at most C(n, n/2) of
them, built once.  ``dyck_paths`` then spends one OR and one join of two
short return lists on each of the Catalan(n) paths.  ``dyck_classes``
takes no Python step per path: it groups each height's tails by their
returns, once, and then makes one packed addition and one byte copy per
head and tail group, 2,871 of them for the 16,796 paths of level 10.
``component_histograms(n)`` enumerates no whole path and no tail: one
head run to depth n lists the prefixes of every length m <= n, which are
exactly the heads of semi-length m, and a tail read backwards is a head,
so row m costs one pass over the at most C(m, m/2) prefixes of length m
plus m + 1 squarings of (m + 1)-slot big integers: each height's counts
by return number are packed into one integer (Kronecker substitution,
Harvey, J. Symbolic Comput. 44, 2009), as ``oracle.dp_return_profile``
packs its polynomials.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator

from treewalks.exact import ExactnessError

#: A half-path: (bits, return positions, end height).
_Half = tuple[int, list[int], int]


def _levels(n: int, start: int, stop: int, height: int) -> Iterator[list[_Half]]:
    """Halves from ``height`` over steps start..stop-1, a level per step.

    Yields the empty half's level, then, after each step, every half so
    far, in lexicographic order.  An R is taken only while the walk can
    still get back to the root by step 2n, so a run that stops at 2n ends
    at the root.
    """
    level = [(0, [], height)]
    yield level
    for pos in range(start, stop):
        r, room = 1 << pos, 2 * n - pos - 1
        nxt = []
        for bits, ends, h in level:
            if h < room:
                nxt.append((bits | r, ends, h + 1))
            if h == 1:
                # an L landing at height 0 closes a component
                nxt.append((bits, ends + [pos + 1], 0))
            elif h:
                nxt.append((bits, ends, h - 1))
        level = nxt
        yield level


def dyck_paths(n: int) -> Iterator[tuple[int, list[int]]]:
    """Every Dyck path of semi-length n as (mask, ends), lexicographic with R first.

    ``ends`` holds the position just after each return to height 0, as
    ``rlseq._scan`` gives it for the path's word; its length is the
    component count.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    for heads in _levels(n, 0, n, 0):
        pass
    tails: dict[int, list[_Half]] = {}
    for head, head_ends, height in heads:
        if height not in tails:
            for level in _levels(n, n, 2 * n, height):
                pass
            tails[height] = level
        for tail, tail_ends, _ in tails[height]:
            yield head | tail, head_ends + tail_ends


def dyck_classes(n: int) -> dict:
    """Level n's paths as a dict from each ends tuple to an ``array("Q")`` of masks.

    The ends are ``dyck_paths``'s, and the classes and the masks of each
    class come in its order.  A head's returns all lie at or below n and a
    tail's above n, so ``head_ends + tail_ends`` pins the split, and the
    paths of one class are, head by head, one head with every tail of one
    group: the tails of the head's height that share their returns.  Each
    group is packed one tail per 64-bit lane (Kronecker packing, as
    ``component_histograms`` packs its counts), and one addition,
    ``tails + head * lanes``, joins the head to every lane.  No carry
    crosses a lane: the head's bits lie below n, the tail's from n up,
    and every mask is below 2^(2n), which fits a lane while n <= 32.
    """
    from array import array  # here, so that importing the CLI loads nothing new

    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    order = sys.byteorder
    for heads in _levels(n, 0, n, 0):
        pass
    groups: dict[int, list] = {}  # height -> (ends, packed tails, bytes, lanes) by tail group
    classes: dict[tuple[int, ...], array] = {}
    for head, head_ends, height in heads:
        if height not in groups:
            for level in _levels(n, n, 2 * n, height):
                pass
            by_ends: dict[tuple[int, ...], list[int]] = {}
            for tail, tail_ends, _ in level:
                by_ends.setdefault(tuple(tail_ends), []).append(tail)
            groups[height] = group = []
            for ends, tails in by_ends.items():
                packed = int.from_bytes(array("Q", tails), order)
                lanes = int.from_bytes(b"\1\0\0\0\0\0\0\0" * len(tails), "little")
                group.append((ends, packed, 8 * len(tails), lanes))
        head_ends = tuple(head_ends)
        for tail_ends, tails, size, lanes in groups[height]:
            masks = (tails + head * lanes).to_bytes(size, order)
            ends = head_ends + tail_ends
            if ends in classes:
                classes[ends].frombytes(masks)
            else:
                classes[ends] = array("Q", masks)
    return classes


def component_histograms(n: int) -> list[list[int]]:
    """Count Dyck paths of semi-length 0..n by number of returns to height 0.

    Row m is a list of length m+1 whose entry k is the number of paths of
    semi-length m with exactly k components; row 0 is [1] (the empty
    path).  One head run to depth n enumerates every prefix once, and its
    level m is exactly the heads of semi-length m, as the room test never
    binds before step m.  Level m gives H_h(x) = sum_a H_h[a] x^a, the
    heads ending at height h counted by their a returns.  A tail from h,
    read backwards with R and L swapped, is a head ending at h, and the
    tail's returns are that head's visits to height 0 at times 0..m-1
    (its start counts, its end does not), so T_h = x H_h for h >= 1 and
    T_0 = H_0.  Every (head, tail) pair of one height is one path with
    a + b returns, so row m is the coefficient list of

        sum_h H_h T_h = H_0^2 + x sum_(h>=1) H_h^2.

    Each H_h is packed into one integer with a ``2m + 1``-bit slot per
    power of x, so the row is m + 1 big-integer squarings.  No carry
    crosses a slot: every term is non-negative, and every coefficient
    that occurs counts heads or paths, RL-words of length at most 2m, of
    which there are at most 4^m < 2^(2m+1).  The bound rests on counting
    alone, not on Catalan's triangle.  A value left above the top slot
    raises ExactnessError.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rows = []
    for m, level in enumerate(_levels(n, 0, n, 0)):
        bits = 2 * m + 1
        x = [1 << bits * r for r in range(m + 1)]
        heads = [0] * (m + 1)
        for _, ends, height in level:
            heads[height] += x[len(ends)]
        packed = heads[0] ** 2 + (sum(h * h for h in heads[1:]) << bits)
        mask = (1 << bits) - 1
        hist = []
        for _ in range(m + 1):
            hist.append(packed & mask)
            packed >>= bits
        if packed:
            raise ExactnessError(f"histogram row {m} carries out of its top slot")
        rows.append(hist)
    return rows
