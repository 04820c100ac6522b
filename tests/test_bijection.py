"""The deletion/insertion bijection behind the component recurrence."""

from __future__ import annotations

import random
import re
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from treewalks import _kernel, rlseq, verify
from treewalks.rlseq import (
    ComponentIndexError,
    components,
    delete_component_pair,
    enumerate_sequences,
    insert_component_pair,
    is_balanced_legal,
)

DELETE, INSERT = rlseq._delete, rlseq._insert
LANE = verify._LANE_BITS
WORD = (1 << LANE) - 1


@pytest.mark.parametrize(
    "word,i,expected",
    [
        ("RRLL", 1, "RL"),
        ("RLRL", 1, "RL"),
        ("RRLLRL", 1, "RLRL"),
        ("RRLLRL", 2, "RRLL"),
        ("RRLRLL", 1, "RLRL"),
    ],
)
def test_delete_examples(word, i, expected):
    out = delete_component_pair(word, i)
    assert type(out) is str and out == expected


@pytest.mark.parametrize(
    "alpha,i,k,expected",
    [
        ("RLRL", 1, 2, "RRLLRL"),
        ("", 1, 1, "RL"),
        ("RL", 1, 1, "RRLL"),
        ("RLRL", 2, 2, "RLRRLL"),
        ("RLRL", 1, 3, "RLRLRL"),  # j = k-1: a bare RL is inserted
    ],
)
def test_insert_examples(alpha, i, k, expected):
    out = insert_component_pair(alpha, i, k)
    assert type(out) is str and out == expected


def test_delete_bad_component_index():
    with pytest.raises(ComponentIndexError):
        delete_component_pair("RRLL", 2)
    with pytest.raises(ComponentIndexError):
        delete_component_pair("RL", 0)


def test_insert_precondition_violations():
    # alpha has j = 1 component; k = 3 needs j >= 2
    with pytest.raises(ComponentIndexError):
        insert_component_pair("RRLL", 1, 3)
    with pytest.raises(ComponentIndexError):
        insert_component_pair("RL", 2, 1)  # i > k
    with pytest.raises(ComponentIndexError):
        insert_component_pair("RL", 0, 1)


def test_delete_postconditions_exhaustive():
    for n in range(1, 7):
        for seq in enumerate_sequences(n):
            k = len(components(seq))
            for i in range(1, k + 1):
                out = delete_component_pair(seq, i)
                assert len(out) == len(seq) - 2
                assert is_balanced_legal(out)
                assert k - 1 <= len(components(out)) <= n - 1 or n == 1


def test_round_trip_exhaustive():
    # insert then delete is the identity for every valid (alpha, i, k)
    for n in range(1, 9):
        for alpha in enumerate_sequences(n - 1):
            j = len(components(alpha))
            for k in range(1, n + 1):
                if j < k - 1:
                    continue
                for i in range(1, k + 1):
                    omega = insert_component_pair(alpha, i, k)
                    assert len(components(omega)) == k
                    assert len(omega) == len(alpha) + 2
                    assert delete_component_pair(omega, i) == alpha


def test_bijectivity_exhaustive():
    # for fixed i = 1, deletion maps S(n, k) bijectively onto the union
    # of S(n-1, j) over j >= k-1
    for n in range(1, 9):
        prev_by_comps: dict[int, set[str]] = {}
        for seq in enumerate_sequences(n - 1):
            prev_by_comps.setdefault(len(components(seq)), set()).add(seq)
        cur_by_comps: dict[int, list[str]] = {}
        for seq in enumerate_sequences(n):
            cur_by_comps.setdefault(len(components(seq)), []).append(seq)
        for k, members in cur_by_comps.items():
            images = [delete_component_pair(seq, 1) for seq in members]
            assert len(set(images)) == len(images), f"not injective at n={n}, k={k}"
            target = {
                s for j, seqs in prev_by_comps.items() if j >= k - 1 for s in seqs
            }
            assert set(images) == target, f"image mismatch at n={n}, k={k}"


@given(st.data())
def test_round_trip_random(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    alpha = data.draw(st.sampled_from(enumerate_sequences(n - 1)))
    j = len(components(alpha))
    k = data.draw(st.integers(min_value=1, max_value=j + 1))
    i = data.draw(st.integers(min_value=1, max_value=k))
    omega = insert_component_pair(alpha, i, k)
    assert delete_component_pair(omega, i) == alpha


def _words(n):
    """Balanced legal words of length 2n, by filtering every R/L string."""
    for letters in product("RL", repeat=2 * n):
        heights = [0]
        for ch in letters:
            heights.append(heights[-1] + (1 if ch == "R" else -1))
        if min(heights) == 0 == heights[-1]:
            yield "".join(letters)


def _split(word):
    parts, height, start = [], 0, 0
    for pos, ch in enumerate(word):
        height += 1 if ch == "R" else -1
        if height == 0:
            parts.append(word[start : pos + 1])
            start = pos + 1
    return parts


def test_maps_match_string_slicing_reference():
    # the reference cuts and glues strings; it shares no mask arithmetic
    for n in range(7):
        for word in _words(n):
            parts = _split(word)
            j = len(parts)
            for i in range(1, j + 1):
                cut = parts[: i - 1] + [parts[i - 1][1:-1]] + parts[i:]
                assert delete_component_pair(word, i) == "".join(cut)
            for k in range(1, j + 2):
                for i in range(1, k + 1):
                    hi = j - k + i
                    wrapped = "R" + "".join(parts[i - 1 : hi]) + "L"
                    expected = "".join(parts[: i - 1]) + wrapped + "".join(parts[hi:])
                    assert insert_component_pair(word, i, k) == expected


def test_verify_bijection_check_catches_a_wrong_deletion(monkeypatch):
    # drops the first two steps instead of the first component's outer R...L
    monkeypatch.setattr(rlseq, "_delete", lambda mask, start, end, lanes=1: mask >> 2)
    result = verify.check_bijection(4)
    assert not result.passed
    assert re.search(r"\(n=\d+, k=\d+\)", result.detail)


def test_verify_bijection_check_catches_an_insert_below_the_root(monkeypatch):
    # wraps the block in L...R instead of R...L, so omega dips below the root
    insert = rlseq._insert

    def flipped(mask, start, end, lanes=1):
        return insert(mask, start, end, lanes) ^ (lanes << start | lanes << (end + 1))

    monkeypatch.setattr(rlseq, "_insert", flipped)
    result = verify.check_bijection(4)
    assert not result.passed
    assert result.detail.startswith("insert postcondition fails at ")


def test_verify_bijection_check_catches_a_wrong_round_trip(monkeypatch):
    # inserts at the mirrored index: a valid word with k components, not omega
    wrap_bounds = rlseq._wrap_bounds
    monkeypatch.setattr(
        rlseq, "_wrap_bounds", lambda ends, i, k: wrap_bounds(ends, k - i + 1, k)
    )
    result = verify.check_bijection(4)
    assert not result.passed
    assert result.detail.startswith("round trip fails at ")


RLRLRL = 0b010101


def _edit_level_3(monkeypatch, edit):
    """Patch the kernel so that ``edit`` alters level 3's classes."""
    dyck_classes = _kernel.dyck_classes

    def edited(n):
        classes = dyck_classes(n)
        if n == 3:
            edit(classes)
        return classes

    monkeypatch.setattr(_kernel, "dyck_classes", edited)


def test_verify_bijection_check_catches_a_missing_path(monkeypatch):
    # the kernel drops RLRLRL, the last path of level 3 and alone in its
    # class, and its three pairs
    def drop(classes):
        assert list(classes.pop((2, 4, 6))) == [RLRLRL]

    _edit_level_3(monkeypatch, drop)
    result = verify.check_bijection(4)
    assert not result.passed
    assert result.detail == "6 (omega, i) pairs but 9 (alpha, i, k) triples at n=3"


def test_verify_bijection_check_catches_a_path_listed_twice(monkeypatch):
    # RLRLRL's second copy round-trips as the first does, so only the
    # count of its three pairs, taken twice, can catch it
    _edit_level_3(monkeypatch, lambda classes: classes[(2, 4, 6)].append(RLRLRL))
    result = verify.check_bijection(4)
    assert not result.passed
    assert result.detail == "12 (omega, i) pairs but 9 (alpha, i, k) triples at n=3"


@pytest.mark.parametrize("max_n, pairs", [(8, 4_861), (10, 58_785)])
def test_verify_bijection_check_counts_every_pair(max_n, pairs):
    # sum over n of the components of every path of length 2n
    expected = sum(
        len(components(rlseq._word(mask, 2 * n)))
        for n in range(1, max_n + 1)
        for mask, _ in _kernel.dyck_paths(n)
    )
    assert expected == pairs
    assert verify.check_bijection(max_n) == verify.CheckResult(
        "deletion/insertion bijection", True, cases=pairs
    )


@st.composite
def _block(draw):
    end = draw(st.integers(min_value=2, max_value=62))
    return draw(st.integers(min_value=0, max_value=end - 2)), end


def _maps_act_on_each_lane(words, block, bits):
    start, end = block
    lanes = sum(1 << bits * j for j in range(len(words)))
    packed = sum(w << bits * j for j, w in enumerate(words))
    for fn in (DELETE, INSERT):
        out = fn(packed, start, end, lanes)
        assert [out >> bits * j & (1 << bits) - 1 for j in range(len(words))] == [
            fn(w, start, end) for w in words
        ]
        assert not out >> bits * len(words)


@given(
    st.lists(st.integers(0, (1 << 62) - 1) | st.integers(1 << 61, (1 << 62) - 1), min_size=1),
    _block(),
)
@example([(1 << 62) - 1, 1 << 61, (1 << 62) - 1], (0, 62))
@example([(1 << 62) - 1, 0, (1 << 62) - 1], (60, 62))
def test_maps_act_on_each_lane_as_on_one_word(words, block):
    # 62-bit words fill a 64-bit lane up to the two guard bits that
    # insertion needs
    _maps_act_on_each_lane(words, block, 64)


@given(
    st.lists(st.integers(0, (1 << 30) - 1) | st.integers(1 << 29, (1 << 30) - 1), min_size=1),
    _block().filter(lambda block: block[1] <= 30),
)
@example([(1 << 30) - 1, 1 << 29, (1 << 30) - 1], (0, 30))
@example([(1 << 30) - 1, 0, (1 << 30) - 1], (28, 30))
def test_maps_act_on_each_32_bit_lane_as_on_one_word(words, block):
    # the check's own lane: 30-bit words, the paths of level 15
    assert LANE == 32
    _maps_act_on_each_lane(words, block, LANE)


def _reference_check(max_n):
    """The bijection check one (omega, i) pair at a time, as it ran before packing."""
    name = "deletion/insertion bijection"
    prev = {0: []}
    pairs = 0
    for n in range(1, max_n + 1):
        level = {}
        count = 0
        for omega, ends in _kernel.dyck_paths(n):
            if n < max_n:
                level[omega] = ends
            k = len(ends)
            for i in range(1, k + 1):
                alpha = rlseq._delete(omega, *rlseq._bounds(ends, i))
                alpha_ends = prev.get(alpha)
                if alpha_ends is None or len(alpha_ends) < k - 1:
                    detail = f"f_{i} image mismatch on (n={n}, k={k})"
                    return verify.CheckResult(name, False, detail)
                back = rlseq._insert(alpha, *rlseq._wrap_bounds(alpha_ends, i, k))
                if back != omega:
                    spelled = rlseq._word(back, 2 * n)
                    ok = (
                        not back >> 2 * n
                        and rlseq.is_balanced_legal(spelled)
                        and len(rlseq.components(spelled)) == k
                    )
                    fault = "round trip" if ok else "insert postcondition"
                    word = rlseq._word(alpha, 2 * n - 2)
                    detail = f"{fault} fails at {word}, i={i}, k={k}"
                    return verify.CheckResult(name, False, detail)
            count += k
        triples = sum((len(e) + 1) * (len(e) + 2) // 2 for e in prev.values())
        if count != triples:
            detail = f"{count} (omega, i) pairs but {triples} (alpha, i, k) triples at n={n}"
            return verify.CheckResult(name, False, detail)
        pairs += count
        prev = level
    return verify._passed(name, pairs)


@pytest.mark.parametrize("max_n", range(10))
def test_packed_check_equals_the_per_pair_reference(max_n):
    assert verify.check_bijection(max_n) == _reference_check(max_n)


def _one_lane_fault(fn, target, wrong):
    """fn with the result for one (word, start, end) replaced, on every lane."""

    def faulty(mask, start, end, lanes=1):
        out = 0
        for j in range(lanes.bit_length() // LANE + 1):
            word = mask >> LANE * j & WORD
            got = fn(word, start, end)
            out |= (wrong(got) if (word, start, end) == target else got) << LANE * j
        return out

    return faulty


RRLRLL, RLRL, RRLRLRLRLL, RLRRLRLL = 0b001011, 0b0101, 0b0010101011, 0b00101101
RRLLRLRL, RLRLRLRL = 0b01010011, 0b01010101


def _classes(n):
    """Level n's paths grouped by their ends, in the kernel's order."""
    classes = {}
    for mask, ends in _kernel.dyck_paths(n):
        classes.setdefault(tuple(ends), []).append(mask)
    return classes


def _block_lanes(n, start, end):
    """The lanes of level n's deletion block (start, end), in the check's order."""
    return [
        mask
        for ends, masks in _classes(n).items()
        if (start, end) in zip((0, *ends), ends)
        for mask in masks
    ]


def test_a_block_mixes_component_indices_and_counts():
    # (start, end) = (4, 6) is component 2 of 3 of lane 0, and 3 of 4 of lane 1
    lanes = _block_lanes(4, 4, 6)
    assert lanes[:2] == [RRLLRLRL, RLRLRLRL]
    ends = [rlseq._scan(rlseq._word(mask, 8))[1] for mask in lanes[:2]]
    assert ends == [[4, 6, 8], [2, 4, 6, 8]]
    assert [rlseq._bounds(ends[0], 2), rlseq._bounds(ends[1], 3)] == [(4, 6)] * 2


@pytest.mark.parametrize(
    "n, omega, attr, target, wrong, detail",
    [
        # RRLRLL is lane 1 of the level-3 class with ends (6,); RRRLLL is lane 0
        (3, RRLRLL, "_delete", (RRLRLL, 0, 6), lambda _: 0b0011, "round trip fails at RRLL, i=1, k=1"),
        (3, RRLRLL, "_delete", (RRLRLL, 0, 6), lambda _: 0b1111, "f_1 image mismatch on (n=3, k=1)"),
        (
            3,
            RRLRLL,
            "_insert",
            (RLRL, 0, 4),
            lambda got: got ^ (1 | 1 << 5),
            "insert postcondition fails at RLRL, i=1, k=1",
        ),
        (
            5,
            RRLRLRLRLL,
            "_delete",
            (RRLRLRLRLL, 0, 10),
            lambda _: 0b01010011,
            "round trip fails at RRLLRLRL, i=1, k=1",
        ),
        # component 2 of RLRRLRLL, lane 1 of the block (2, 8)
        (
            4,
            RLRRLRLL,
            "_delete",
            (RLRRLRLL, 2, 8),
            lambda _: 0b001101,
            "round trip fails at RLRRLL, i=2, k=2",
        ),
        # component 3 of RLRLRLRL, lane 1 of the block (4, 6), whose lane 0
        # RRLLRLRL has it as component 2 of 3
        (
            4,
            RLRLRLRL,
            "_delete",
            (RLRLRLRL, 4, 6),
            lambda _: 0b010011,
            "f_3 image mismatch on (n=4, k=4)",
        ),
        (
            4,
            RLRLRLRL,
            "_insert",
            (0b010101, 4, 4),
            lambda got: got ^ (1 << 5 | 1 << 6),
            "insert postcondition fails at RLRLRL, i=3, k=4",
        ),
    ],
)
def test_a_fault_in_one_lane_is_reported_as_per_pair(
    monkeypatch, n, omega, attr, target, wrong, detail
):
    # the failing pair is omega's, and omega is not lane 0 of its block
    _, start, end = target
    lanes = _block_lanes(n, start, end + 2 * (attr == "_insert"))
    assert omega in lanes[1:]
    monkeypatch.setattr(rlseq, attr, _one_lane_fault(getattr(rlseq, attr), target, wrong))
    expected = verify.CheckResult("deletion/insertion bijection", False, detail)
    assert verify.check_bijection(6) == _reference_check(6) == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_the_check_scans_the_ends_of_an_image_from_its_word(monkeypatch, n):
    # the scanner loses the last end of every word of level n - 1, so the
    # first image of level n, R^(n-1) L^(n-1), is wrapped as if it had no
    # component and gives a path of two components for k = 1
    scan = rlseq._scan

    def short(word):
        mask, ends = scan(word)
        return mask, ends[:-1] if len(word) == 2 * n - 2 else ends

    monkeypatch.setattr(rlseq, "_scan", short)
    alpha = "R" * (n - 1) + "L" * (n - 1)
    detail = f"insert postcondition fails at {alpha}, i=1, k=1"
    result = verify.check_bijection(6)
    assert result == verify.CheckResult("deletion/insertion bijection", False, detail)


def _lane_zero_only(mask, start, end, lanes=1):
    # every lane but 0 is shifted as if unmasked, so a block of two or more
    # paths fails while each single word is deleted right
    return DELETE(mask, start, end)


def _spill_past_top_lane(mask, start, end, lanes=1):
    # the packed image overflows its block's bytes, and a single word gets
    # the bit just past its lane, which no path of level n - 1 has
    return DELETE(mask, start, end, lanes) | lanes << LANE


@pytest.mark.parametrize("fake, passed", [(_lane_zero_only, True), (_spill_past_top_lane, False)])
def test_a_failed_block_is_judged_pair_by_pair(monkeypatch, fake, passed):
    monkeypatch.setattr(rlseq, "_delete", fake)
    result = verify.check_bijection(6)
    assert result == _reference_check(6)
    assert result.passed is passed


def test_every_lane_of_a_block_wraps_its_image_at_the_same_bounds():
    # alpha = f_i(omega), read through its own ends with omega's own i and
    # k, is wrapped at (start, end - 2): a bound that depends on the block
    # alone, so lane 0's bounds serve every lane of the block
    prev = {0: []}
    for n in range(1, 10):
        level = dict(_kernel.dyck_paths(n))
        for omega, ends in level.items():
            k = len(ends)
            for i in range(1, k + 1):
                start, end = rlseq._bounds(ends, i)
                alpha_ends = prev[rlseq._delete(omega, start, end)]
                assert rlseq._wrap_bounds(alpha_ends, i, k) == (start, end - 2)
        prev = level


def test_the_check_makes_one_packed_insertion_per_block(monkeypatch):
    # a level of semi-length n has n(n+1)/2 blocks (start, end), even
    # 0 <= start < end <= 2n: 220 over levels 1..10, where one call per
    # class of shared ends and component index would make 5,120
    calls = []
    insert = rlseq._insert

    def counted(mask, start, end, lanes=1):
        calls.append(lanes)
        return insert(mask, start, end, lanes)

    monkeypatch.setattr(rlseq, "_insert", counted)
    assert verify.check_bijection(10).passed
    blocks = {
        (n, rlseq._bounds(ends, i))
        for n in range(1, 11)
        for ends in _classes(n)
        for i in range(1, len(ends) + 1)
    }
    assert len(calls) == len(blocks) == 220


def test_levels_past_a_lane_are_refused_before_any_check(monkeypatch):
    monkeypatch.setattr(verify, "check_method_agreement", lambda *_: pytest.fail("a check ran"))
    for refused in (lambda: verify.run_all(16, 1, 16), lambda: verify.check_bijection(16)):
        with pytest.raises(ValueError, match="--enum-cap"):
            refused()
    # level 15 is taken: with no paths it fails at level 1, not up front
    monkeypatch.setattr(_kernel, "dyck_classes", lambda n: {})
    detail = "0 (omega, i) pairs but 1 (alpha, i, k) triples at n=1"
    assert verify.check_bijection(15).detail == detail


RRLRLRLL, RRRLLLRL = 0b00101011, 0b01000111


def test_of_two_failing_pairs_the_first_in_block_order_is_reported(monkeypatch):
    # both images are RRRRLL, no path; RRLRLRLL's pair (i = 1, k = 1) is in
    # block (0, 8), which the check builds before block (0, 6) of
    # RRRLLLRL's pair (i = 1, k = 2), though the kernel lists it later
    masks = [mask for mask, _ in _kernel.dyck_paths(4)]
    assert masks.index(RRRLLLRL) < masks.index(RRLRLRLL)
    delete = _one_lane_fault(DELETE, (RRLRLRLL, 0, 8), lambda _: 0b1111)
    delete = _one_lane_fault(delete, (RRRLLLRL, 0, 6), lambda _: 0b1111)
    monkeypatch.setattr(rlseq, "_delete", delete)
    assert _reference_check(5).detail == "f_1 image mismatch on (n=4, k=2)"
    expected = verify.CheckResult(
        "deletion/insertion bijection", False, "f_1 image mismatch on (n=4, k=1)"
    )
    assert verify.check_bijection(5) == expected


@pytest.mark.parametrize(
    "target, wrong",
    [((RLRRLRLL, 2, 8), lambda _: 0b001101), ((RLRLRLRL, 4, 6), lambda _: 0b010011)],
)
def test_the_check_never_lists_a_level_path_by_path(monkeypatch, target, wrong):
    # the expected detail comes first: the reference lists every path
    monkeypatch.setattr(rlseq, "_delete", _one_lane_fault(DELETE, target, wrong))
    expected = _reference_check(6)
    assert not expected.passed
    monkeypatch.setattr(_kernel, "dyck_paths", lambda n: pytest.fail("dyck_paths was called"))
    assert verify.check_bijection(6) == expected
    monkeypatch.setattr(rlseq, "_delete", DELETE)
    passed = verify.CheckResult("deletion/insertion bijection", True, cases=4_861)
    assert verify.check_bijection(8) == passed


def _is_path(mask, length):
    """The scanner's verdict: the word of ``mask`` is a path of ``length`` steps."""
    if mask >> length:
        return False
    return rlseq.is_balanced_legal(rlseq._word(mask, length))


def _packed(words):
    """``words`` one per 32-bit lane, with the byte size of the packing."""
    return sum(w << LANE * j for j, w in enumerate(words)), LANE // 8 * len(words)


def test_the_packed_path_test_equals_the_scanner_on_every_short_word():
    for length in range(13):
        words = range(1 << length)
        paths = [w for w in words if _is_path(w, length)]
        for w in words:
            assert verify._all_paths(w, length, 4) is (w in paths), (length, w)
            # a bit above the word, in its lane or just past it
            for above in (length, LANE - 1, LANE):
                assert not verify._all_paths(w | 1 << above, length, 4), (length, w, above)
        if paths:
            packed, size = _packed(paths)
            assert verify._all_paths(packed, length, size)
        for w in words[:: 1 + len(words) // 64]:
            if w not in paths:
                # one non-path among paths fails the packed test, in any lane
                for j in (0, len(paths) // 2, len(paths)):
                    packed, size = _packed(paths[:j] + [w] + paths[j:])
                    assert not verify._all_paths(packed, length, size), (length, w, j)


def _random_path(rng, m):
    """A Dyck path of semi-length m: a shuffled balanced word, rotated past its lowest point."""
    steps = list("R" * m + "L" * m)
    rng.shuffle(steps)
    height, low, cut = 0, 0, 0
    for pos, ch in enumerate(steps):
        height += 1 if ch == "R" else -1
        if height < low:
            low, cut = height, pos + 1
    return rlseq._scan("".join(steps[cut:] + steps[:cut]))[0]


@pytest.mark.parametrize("length", [24, 30])
def test_the_packed_path_test_equals_the_scanner_on_random_long_words(length):
    rng = random.Random(length)
    paths = [_random_path(rng, length // 2) for _ in range(1500)]
    words = paths + [rng.getrandbits(length) for _ in range(1500)]
    for w in words:
        assert verify._all_paths(w, length, 4) is _is_path(w, length), w
    packed, size = _packed(paths)
    assert verify._all_paths(packed, length, size)
    for _ in range(200):
        # one flipped bit changes a path's final height, so it fails
        flip = 1 << LANE * rng.randrange(len(paths)) + rng.randrange(length)
        assert not verify._all_paths(packed ^ flip, length, size)


@pytest.mark.parametrize(
    "image",
    [
        pytest.param(0b011010, id="dips below the root"),
        pytest.param(0b010111, id="ends above the root"),
        pytest.param(0b001101 | 1 << 6, id="a bit above the word"),
    ],
)
def test_a_lane_whose_image_is_no_path_fails_and_names_its_pair(monkeypatch, image):
    # component 2 of RLRRLRLL, lane 1 of the block (2, 8), deletes to a
    # word of six steps that is not a path of level 3
    assert not _is_path(image, 6)
    lanes = _block_lanes(4, 2, 8)
    assert RLRRLRLL in lanes[1:]
    delete = _one_lane_fault(DELETE, (RLRRLRLL, 2, 8), lambda _: image)
    monkeypatch.setattr(rlseq, "_delete", delete)
    expected = verify.CheckResult(
        "deletion/insertion bijection", False, "f_2 image mismatch on (n=4, k=2)"
    )
    assert verify.check_bijection(6) == _reference_check(6) == expected


RRRLLLRLRL, RLRRRLLLRL = 0b0101000111, 0b0100011101


_CHUNK_CASES = [
    pytest.param(None, None, id="passing"),
    # lane 5 of the 14 lanes of block (8, 10) at level 5, component 3 of
    # 3: the third chunk of two, whose lane 0 has ends (8, 10)
    pytest.param((RRRLLLRLRL, 8, 10), lambda _: 0b01010011, id="round trip"),
    # lane 5 of block (0, 2) at level 5, whose chunk's lane 0 has ends (2, 10)
    pytest.param((RLRRRLLLRL, 0, 2), lambda _: 0b11111111, id="image"),
]


# in chunks of one lane the class pointer moves at every chunk, and in
# chunks of three some chunks start inside a class
@pytest.mark.parametrize(
    "size, target, wrong",
    [
        pytest.param(size, *case.values, id=case.id if size == 2 else f"{case.id}, chunks of {size}")
        for size in (1, 2, 3)
        for case in _CHUNK_CASES
    ],
)
def test_chunks_of_two_lanes_judge_as_the_reference_does(monkeypatch, size, target, wrong):
    if target is not None:
        monkeypatch.setattr(rlseq, "_delete", _one_lane_fault(DELETE, target, wrong))
    expected = _reference_check(7)
    assert expected.passed is (target is None)
    widths = []
    insert = rlseq._insert

    def counted(mask, start, end, lanes=1):
        widths.append(lanes.bit_length() // LANE + 1)
        return insert(mask, start, end, lanes)

    monkeypatch.setattr(rlseq, "_insert", counted)
    monkeypatch.setattr(verify, "_CHUNK_LANES", size)
    assert verify.check_bijection(7) == expected
    assert max(widths) == size
    if expected.passed:
        # each chunk passes whole, judged by the i and k of its own lane 0,
        # so none is judged again lane by lane
        blocks = {
            (n, rlseq._bounds(ends, i))
            for n in range(1, 8)
            for ends in _classes(n)
            for i in range(1, len(ends) + 1)
        }
        assert len(widths) == sum(-(-len(_block_lanes(n, *b)) // size) for n, b in blocks)
