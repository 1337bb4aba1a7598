from __future__ import annotations

import itertools
import random
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyndon2d import (
    InvalidInput,
    NotSufficientlyPeriodic,
    Occurrence,
    OpCounter,
    build_index,
    search_text,
)
from lyndon2d import dictmatch, strings1d
from lyndon2d.classify import classify_matrix, conjugacy_shift, summarize_matrix
from lyndon2d.dictmatch import (
    SENTINEL,
    _named_spans,
    _phase_steps,
    _row_changes,
    verify_candidate,
)
from lyndon2d.lw2d import SummaryColumn, TwoDLWBuilder, alg2_2dlw
from lyndon2d.reference import brute_search
from lyndon2d.strings1d import NameRegistry, compute_period
from lyndon2d.workbench import gen_matrix
from oracles import (
    brute_is_lyndon,
    brute_least_rotation,
    brute_period,
    named_by_definition,
    occurs_at,
    periodic_extension,
    rotations,
)

HALF = Fraction(1, 2)


def window_column(rows, index, width=None):
    """Periods and window-frame offsets of full-height rows, named from the definition."""
    width = len(rows[0]) if width is None else width
    window = named_by_definition(rows, 0, width, index)
    return SummaryColumn(tuple(window.periods), tuple(window.lwpos))


# ---------------------------------------------------------------------------
# build_index


def test_build_all_a_pattern():
    pattern = ["aaaaaaaa"] * 8
    index = build_index([pattern])
    assert index.m == 8
    assert len(index.groups) == 1
    group = next(iter(index.groups.values()))
    assert group.lcm == 1  # joint period 1, never above the width
    assert group.entries == {(0,) * 8: [(0, 0)]}


def test_build_rotated_patterns_share_subgroup():
    rng = random.Random(1)
    periods = [3, 4, 2, 3, 1, 4, 2, 3]  # prefix LCM hits 12 > 8 at row 2
    p1 = gen_matrix(periods, 8, alphabet=3, rng=rng)
    p2 = [periodic_extension(row, 8, 1) for row in p1]
    index = build_index([p1, p2], max_period_fraction=HALF)
    assert len(index.groups) == 1
    group = next(iter(index.groups.values()))
    assert group.lcm == 12  # running LCM outgrows the width at row 2
    assert len(group.entries) == 1
    entries = [e for es in group.entries.values() for e in es]
    assert sorted(pid for pid, _ in entries) == [0, 1]
    z_values = {pid: z for pid, z in entries}
    assert z_values[1] == (z_values[0] - 1) % group.lcm


def test_build_distinct_period_structures_split_groups():
    rng = random.Random(2)
    mixed = gen_matrix([2, 3] * 8, 16, alphabet=3, rng=rng, strict=True)
    uniform = gen_matrix([2] * 16, 16, alphabet=3, rng=rng, strict=True)
    index = build_index([mixed, uniform])
    assert len(index.groups) == 2


def test_index_records_are_immutable_tuples():
    rng = random.Random(2)
    mixed = gen_matrix([2, 3] * 8, 16, alphabet=3, rng=rng, strict=True)
    uniform = gen_matrix([2] * 16, 16, alphabet=3, rng=rng, strict=True)
    index = build_index([mixed, uniform])
    first, second = index.groups.values()
    assert first.entries is not second.entries  # each group gets its own dict
    with pytest.raises(AttributeError):
        index.phases = set()
    with pytest.raises(AttributeError):
        first.entries = {}
    assert Occurrence(0, 1, 2) == (0, 1, 2)
    assert hash(Occurrence(0, 1, 2)) == hash((0, 1, 2))


def test_build_input_validation():
    with pytest.raises(InvalidInput):
        build_index([])
    with pytest.raises(InvalidInput):
        build_index([["ab", "ab"], ["abc", "abc", "abc"]])
    with pytest.raises(InvalidInput):
        build_index([["abc", "abc"]])
    with pytest.raises(NotSufficientlyPeriodic) as info:
        build_index([["abababab"] * 7 + ["abcdefgh"]])
    assert "pattern 0 row 7" in str(info.value)
    assert info.value.row == 7
    assert info.value.period == 8
    assert info.value.pattern == 0


def test_build_rejects_more_row_words_than_name_characters(monkeypatch):
    # chr(id + 1) names a row word, so ids stop at sys.maxunicode - 1
    monkeypatch.setattr(NameRegistry, "__len__", lambda self: sys.maxunicode + 1)
    with pytest.raises(InvalidInput, match="distinct pattern row words"):
        build_index([["abab"] * 4], max_period_fraction=HALF)


@pytest.mark.parametrize(
    "fraction", ["abc", "1/0", float("nan"), float("inf"), None, 0, Fraction(3, 4)]
)
def test_build_rejects_bad_fraction(fraction):
    with pytest.raises(InvalidInput):
        build_index([["abab"] * 4], max_period_fraction=fraction)


# Rows of width 8 with periods <= 4; the rows on each line are rotations of
# one Lyndon word, so different row strings share a name.
MEMO_POOL = (
    "aabaabaa", "abaabaab", "baabaaba",
    "aabbaabb", "bbaabbaa",
    "abababab", "babababa",
    "aaaaaaaa",
)


@settings(max_examples=60, deadline=None)
@given(
    patterns=st.lists(
        st.lists(st.sampled_from(MEMO_POOL), min_size=8, max_size=8), min_size=1, max_size=6
    )
)
def test_build_names_each_distinct_row_once(patterns):
    with mock.patch.object(strings1d, "compute_period", wraps=strings1d.compute_period) as named:
        index = build_index(patterns, max_period_fraction=HALF)
    assert named.call_count == len({row for pattern in patterns for row in pattern})
    # the index equals one built by classifying each pattern without a memo
    registry = NameRegistry()
    phases = set()
    for pid, pattern in enumerate(patterns):
        cm = classify_matrix(pattern, HALF, registry)
        key = "".join([chr(name + 1) for name in cm.key.names])
        group = index.groups[key]
        assert (pid, cm.z) in group.entries[cm.key.offsets]
        assert group.lcm == cm.lcm
        periods = [len(registry.word(name)) for name in cm.key.names]
        phases.add(_phase_steps(periods, cm.key.offsets))
    assert index.phases == phases
    entries = [e for group in index.groups.values() for es in group.entries.values() for e in es]
    assert len(entries) == len(patterns)
    words = [index.registry.word(i) for i in range(len(index.registry))]
    assert words == [registry.word(i) for i in range(len(registry))]


def test_build_reports_the_first_failing_pattern_and_row():
    # the aperiodic row fails in pattern 1 before pattern 2 repeats it
    periodic = ["abababab"] * 8
    first = ["abababab"] * 3 + ["abcdabcd"] + ["abababab"] * 4
    second = ["abcdabcd"] + ["abababab"] * 7
    with pytest.raises(NotSufficientlyPeriodic) as info:
        build_index([periodic, first, second])
    assert str(info.value).startswith("pattern 1 row 3: ")
    assert (info.value.pattern, info.value.row, info.value.period) == (1, 3, 4)


# ---------------------------------------------------------------------------
# window row naming


def tile(word: str, width: int, shift: int = 0) -> str:
    """``word`` repeated to ``width`` columns, starting at its rotation ``shift``.

    Unlike ``periodic_extension`` this repeats the word itself, not its
    smallest period, so a bordered word such as "aba" keeps period 3.
    """
    return "".join(word[(x + shift) % len(word)] for x in range(width))


def primitive_words(min_size: int, max_size: int):
    return st.text("abc", min_size=min_size, max_size=max_size).filter(
        lambda w: brute_period(w * 2) == len(w)
    )


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    fraction=st.sampled_from([Fraction(1, 4), Fraction(1, 2)]),
    m=st.integers(4, 16),
    start=st.integers(0, 3),
)
def test_window_names_match_least_rotation_definition(data, fraction, m, start):
    limit = int(fraction * m)
    words = data.draw(st.lists(primitive_words(1, limit), min_size=1, max_size=4))
    pattern = [tile(words[i % len(words)], m) for i in range(m)]
    index = build_index([pattern], max_period_fraction=fraction)
    width = data.draw(st.integers(m, m + m // 2))
    size = start + width
    registered = [index.registry.word(i) for i in range(len(index.registry))]
    lyndon_words = [
        "".join(w)
        for k in range(1, min(limit, 3) + 1)
        for w in itertools.product("abc", repeat=k)
        if brute_is_lyndon("".join(w))
    ]
    absent = [w for w in lyndon_words if index.registry.get(w) is None]
    if limit >= 2:
        # six Lyndon words of length <= 2 over abc, at most four registered
        assert absent
    at_limit = data.draw(st.lists(primitive_words(limit, limit + 1), max_size=3))
    rows = (
        [tile(w, size, j) for w in registered for j in range(len(w))]
        + [tile(w, size, j) for w in absent for j in range(len(w))]
        + [tile(w, size, data.draw(st.integers(0, len(w) - 1))) for w in at_limit]
        + data.draw(st.lists(st.text("abc", min_size=size, max_size=size), max_size=4))
    )
    # each row's window walked on its own as one window; a walk that
    # records no change leaves the row a sentinel
    got = []
    for row in rows:
        changes = _row_changes(row[start : start + width], index, width, [width], 0, 1)
        got.append(changes[0][1:] if changes else (SENTINEL, 1, 0))
    expected = named_by_definition(rows, start, width, index)
    assert got == list(zip(expected.names, expected.periods, expected.lwpos))
    names = "".join(name for name, _, _ in got)
    n_rotations = sum(len(w) for w in registered)
    n_absent = sum(len(w) for w in absent)
    assert SENTINEL not in names[:n_rotations]
    assert names[n_rotations : n_rotations + n_absent] == SENTINEL * n_absent


def test_probe_names_every_rotation_of_every_word():
    # every rotation of a Lyndon word of length <= 4 over abc, at any start
    # in a row, names the word and its Lyndon offset when the index interned
    # it, and nothing otherwise; an occurrence of the word before the start
    # is not the row's
    rng = random.Random(21)
    patterns = [gen_matrix([rng.randint(1, 4) for _ in range(8)], 8, rng=rng) for _ in range(3)]
    index = build_index(patterns, max_period_fraction=HALF)
    registry = index.registry
    lyndon_words = [
        "".join(w)
        for k in range(1, 5)
        for w in itertools.product("abc", repeat=k)
        if brute_is_lyndon("".join(w))
    ]
    named = 0
    for lyndon in lyndon_words:
        name = registry.get(lyndon)
        named += name is not None
        for rotation in rotations(lyndon):
            offset, word = brute_least_rotation(rotation)
            assert word == lyndon
            for head in ("", "d", lyndon + "d"):
                start = len(head)
                row = head + rotation * 2 + "d"
                hit = registry._probe(row, start, len(rotation))
                assert hit == (None if name is None else (name, start + offset))
    assert named == len(registry)


def test_same_key_rows_of_another_class_are_sentinels():
    # aabab and aaabb are Lyndon words that share one class key but are not
    # conjugate, so a row tiled with aabab names nothing against an index of
    # aaabb rows: its walk records no change and it stays a SENTINEL
    assert strings1d._class_key("aabab") == strings1d._class_key("aaabb")
    m, step = 20, 10
    pattern = ["aaabb" * 4] * m
    index = build_index([pattern])
    a, b = "aabab" * 8, "aaabb" * 8
    stops = [30, 40, 40]
    assert index.registry._probe(a, 0, 5) is None
    assert _row_changes(a, index, step, stops, 0, 3) == []
    assert _row_changes(b, index, step, stops, 0, 3) == [(0, chr(1), 5, 0)]
    text = [a] * 10 + [b] * 20 + [a] * 10
    found = search_text(text, index)
    assert found == brute_search(text, [pattern])
    assert found == {Occurrence(0, 10, c) for c in range(0, 21, 5)}


def test_index_memory_is_linear_in_the_pattern_characters():
    # the index holds the registry's words, the groups and the phase set:
    # 8 patterns of 64x64 with row periods 16-32 retain ~2.5 bytes per
    # pattern character, and a table of every rotation of every row word
    # would add ~60
    rng = random.Random(29)
    m = 64
    patterns = [
        gen_matrix([rng.randint(16, 32) for _ in range(m)], m, alphabet=4, rng=rng)
        for _ in range(8)
    ]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = build_index(patterns, max_period_fraction=HALF)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index.registry) > 8 * m // 2
    assert retained <= 16 * len(patterns) * m * m


# ---------------------------------------------------------------------------
# verify_candidate


@pytest.fixture
def head_split_index():
    rng = random.Random(3)
    periods = [3, 4, 2, 3, 1, 4, 2, 3]
    pattern = gen_matrix(periods, 8, alphabet=3, rng=rng)
    return pattern, build_index([pattern], max_period_fraction=HALF)


def test_verify_self_window(head_split_index):
    pattern, index = head_split_index
    group = next(iter(index.groups.values()))
    window = [periodic_extension(row, 12) for row in pattern]
    col = window_column(window, index)
    assert verify_candidate(col, group, 0, 12) == [(0, 0)]


def test_verify_rotated_window(head_split_index):
    pattern, index = head_split_index
    group = next(iter(index.groups.values()))
    # window holds the pattern rotated right by 3: occurrence at column 3
    window = [periodic_extension(row, 12, -3) for row in pattern]
    col = window_column(window, index)
    assert verify_candidate(col, group, 0, 12) == [(0, 3)]
    for pid, s in [(0, 3)]:
        assert occurs_at(window, pattern, 0, s)


def test_verify_perturbed_head_misses(head_split_index):
    pattern, index = head_split_index
    group = next(iter(index.groups.values()))
    window = [periodic_extension(row, 12) for row in pattern]
    # shift only the second row's phase: head offsets no longer match
    window[1] = periodic_extension(pattern[1], 12, 1)
    col = window_column(window, index)
    assert index.groups[named_by_definition(window, 0, 12, index).names] is group
    assert verify_candidate(col, group, 0, 12) == []


def test_verify_degenerate_group_reports_every_admissible_shift():
    pattern = [periodic_extension("ab", 8)] * 8  # joint repeat of 2
    index = build_index([pattern])
    group = next(iter(index.groups.values()))
    window = [periodic_extension("ab", 12)] * 8
    col = window_column(window, index)
    assert verify_candidate(col, group, 0, 12) == [(0, 0), (0, 2), (0, 4)]


def test_verify_text_frame_matches_window_frame():
    # search verifies a band with offsets counted from text column 0 over the
    # columns of its lifetime; it must agree with the same rows cut out as a
    # window with offsets counted from the window's first column, hits (moved
    # by the window start) and tallies alike
    rng = random.Random(12)
    m, width = 8, 12
    choices = [(1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 4)]  # the last never outgrows m
    patterns = [
        gen_matrix([rng.choice(c) for _ in range(m)], m, alphabet=2, rng=rng) for c in choices
    ]
    index = build_index(patterns, max_period_fraction=HALF)
    text = []
    for pat in patterns * 2:
        text.extend(periodic_extension(row, 40, rng.randrange(4)) for row in pat)
    kinds = set()
    for start in (0, 5, 12, 28):
        window = named_by_definition(text, start, width, index)
        for top, group in window_candidates(text, start, width, index, phase_filter=False)[1]:
            end = top + m
            assert index.groups[window.names[top:end]] is group
            periods = tuple(window.periods[top:end])
            col = SummaryColumn(periods, tuple(window.lwpos[top:end]))
            phases = tuple((start + lw) % p for p, lw in zip(periods, col.lwpos))
            band = SummaryColumn(periods, phases)
            in_text, in_window = OpCounter(), OpCounter()
            got = verify_candidate(band, group, start, start + width, in_text)
            in_col = verify_candidate(col, group, 0, width, in_window)
            assert got == [(pid, start + s) for pid, s in in_col]
            assert (in_text.ops, in_text.lookups, in_text.candidates) == (
                in_window.ops,
                in_window.lookups,
                in_window.candidates,
            )
            kinds.add(group.lcm > m)
    assert kinds == {True, False}


def test_verify_candidate_charges_each_candidate_once():
    # verify_candidate makes every OpCounter charge: per candidate one
    # candidate, one lookup and 8m - 7 ops for the builder's m rows plus one
    # op per pattern entry its offsets matched
    rng = random.Random(21)
    m, width = 8, 12
    patterns = [
        gen_matrix([rng.choice((1, 2, 4)) for _ in range(m)], m, alphabet=2, rng=rng)
        for _ in range(3)
    ]
    patterns.append([periodic_extension(row, m, 1) for row in patterns[0]])
    index = build_index(patterns, max_period_fraction=HALF)
    text = []
    for pat in patterns[:3]:
        shift = rng.randrange(4)
        text.extend(periodic_extension(row, width, shift) for row in pat)
    window, candidates = window_candidates(text, 0, width, index)
    charged = []
    for top, group in candidates:
        band = SummaryColumn(window.periods[top : top + m], window.lwpos[top : top + m])
        builder = TwoDLWBuilder()
        builder.add_rows(band.periods, band.lwpos)
        entries = len(group.entries.get(tuple(builder.offsets), ()))
        counter = OpCounter()
        verify_candidate(band, group, 0, width, counter)
        assert (counter.candidates, counter.lookups, counter.ops) == (1, 1, 8 * m - 7 + entries)
        charged.append(entries)
    # every plant is a candidate, and the first is matched by two patterns
    assert len(charged) >= 3 and max(charged) == 2


def test_verify_is_a_conjugacy_query():
    # a window holds pattern q at shift s exactly when rotating the window's
    # repetition left by s yields q's: s runs through conjugacy_shift + k*lcm
    rng = random.Random(13)
    m, width = 8, 12
    patterns = [
        gen_matrix([rng.randint(1, 4) for _ in range(m)], m, alphabet=3, rng=rng)
        for _ in range(48)
    ]
    index = build_index(patterns, max_period_fraction=HALF)
    registry = NameRegistry()
    classified = [classify_matrix(pattern, HALF, registry) for pattern in patterns]
    windows = 0
    for pattern, cp in zip(patterns, classified):
        for c in range(cp.lcm):
            window = [periodic_extension(row, width, c) for row in pattern]
            col = window_column(window, index)
            group = index.groups[named_by_definition(window, 0, width, index).names]
            cw = classify_matrix(window, HALF, registry)
            expected = []
            for q, _ in itertools.chain(*group.entries.values()):
                shift = conjugacy_shift(cw, classified[q])
                if shift is not None:
                    expected.extend((q, s) for s in range(shift, width - m + 1, group.lcm))
            assert sorted(verify_candidate(col, group, 0, width)) == sorted(expected)
            windows += 1
    assert windows >= 400


# ---------------------------------------------------------------------------
# search_text + brute_search


def test_brute_search_examples():
    text = ["abab", "cdcd", "abab", "cdcd"]
    pattern = ["ab", "cd"]
    got = brute_search(text, [pattern])
    assert got == {
        Occurrence(0, 0, 0),
        Occurrence(0, 0, 2),
        Occurrence(0, 2, 0),
        Occurrence(0, 2, 2),
    }
    assert brute_search(text, [["zz"]]) == set()
    assert brute_search(text, [text]) == {Occurrence(0, 0, 0)}


def test_brute_search_matches_occurs_at():
    rng = random.Random(12)
    sizes = set()
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 9)
        text = ["".join(rng.choice("ab") for _ in range(n_cols)) for _ in range(n_rows)]
        patterns = []
        for _ in range(3):
            # non-square, sometimes taller or wider than the text
            h, w = rng.randint(1, n_rows + 2), rng.randint(1, n_cols + 2)
            if h <= n_rows and w <= n_cols and rng.random() < 0.5:
                top, left = rng.randint(0, n_rows - h), rng.randint(0, n_cols - w)
                pattern = [row[left : left + w] for row in text[top : top + h]]
            else:
                pattern = ["".join(rng.choice("ab") for _ in range(w)) for _ in range(h)]
            sizes.add((h > n_rows or w > n_cols, h != w))
            patterns.append(pattern)
        expected = {
            Occurrence(pid, r, c)
            for pid, pattern in enumerate(patterns)
            for r in range(n_rows)
            for c in range(n_cols)
            if occurs_at(text, pattern, r, c)
        }
        assert brute_search(text, patterns) == expected
    assert sizes == {(False, False), (False, True), (True, False), (True, True)}


def test_search_tiled_pattern_matches_brute():
    rng = random.Random(4)
    periods = [2, 4, 1, 3, 2, 4, 1, 3]
    pattern = gen_matrix(periods, 8, alphabet=3, rng=rng, strict=False)
    index = build_index([pattern], max_period_fraction=HALF)
    text = [periodic_extension(row, 32) for row in pattern]
    found = search_text(text, index)
    assert found == brute_search(text, [pattern])
    assert Occurrence(0, 0, 0) in found
    for occ in found:
        assert occurs_at(text, pattern, occ.row, occ.col)


def test_search_no_periodic_rows():
    pattern = [periodic_extension("ab", 8)] * 8
    index = build_index([pattern])
    rng = random.Random(5)
    text = []
    for _ in range(16):
        while True:
            row = "".join(rng.choice("abc") for _ in range(16))
            from oracles import brute_period

            if brute_period(row) > 4:  # no window slice can look periodic enough
                break
        text.append(row)
    assert search_text(text, index) == set()


def test_search_multiple_patterns_planted():
    rng = random.Random(6)
    m = 8
    patterns = [
        gen_matrix([rng.choice((1, 2)) for _ in range(m)], m, alphabet=2, rng=rng, strict=True)
        for _ in range(4)
    ]
    index = build_index(patterns)
    text = []
    for band in range(4):
        pat = patterns[band]
        shift = rng.randrange(4)
        text.extend(periodic_extension(row, 40, shift) for row in pat)
    found = search_text(text, index)
    expected = brute_search(text, patterns)
    assert found == expected
    assert len(expected) >= 4
    for occ in found:
        assert occurs_at(text, patterns[occ.pattern], occ.row, occ.col)


def test_search_finds_bands_at_run_edges():
    # a band of exactly m named rows is a run of length m: at the first
    # text row, between sentinel rows, and ending at the last text row
    rng = random.Random(9)
    m, width = 8, 24
    pattern = gen_matrix([rng.choice((1, 2)) for _ in range(m)], m, alphabet=2, rng=rng)
    index = build_index([pattern])

    def band(rows):
        shift = rng.randrange(2)
        return [periodic_extension(row, width, shift) for row in rows]

    def noise(count):
        # letters no pattern row uses, so every noise row is a sentinel
        return ["".join(rng.choice("xyz") for _ in range(width)) for _ in range(count)]

    text = band(pattern) + noise(1) + band(pattern) + noise(2) + band(pattern)
    counter = OpCounter()
    found = search_text(text, index, counter=counter)
    assert found == brute_search(text, [pattern])
    assert {occ.row for occ in found} == {0, m + 1, len(text) - m}
    assert counter.candidates > 0

    short = noise(2) + band(pattern[: m - 1]) + noise(2)
    counter = OpCounter()
    assert search_text(short, index, counter=counter) == set() == brute_search(short, [pattern])
    assert counter.candidates == 0


def test_search_text_validation():
    pattern = [periodic_extension("ab", 8)] * 8
    index = build_index([pattern])
    assert search_text([], index) == set()
    assert search_text(["abab"] * 2, index) == set()  # smaller than the pattern
    for ragged in (["abab", "ab"], ["abab"] * 8 + ["aba"], ["abab", "ababa", "abab"]):
        with pytest.raises(InvalidInput, match="share one width"):
            search_text(ragged, index)


def test_counter_bounds():
    rng = random.Random(8)
    periods = [3, 4, 2, 3, 1, 4, 2, 3]
    pattern = gen_matrix(periods, 8, alphabet=3, rng=rng)
    index = build_index([pattern], max_period_fraction=HALF)
    text = [periodic_extension(row, 48) for row in pattern]
    counter = OpCounter()
    found = search_text(text, index, counter=counter)
    assert found
    assert counter.candidates > 0
    assert counter.ops <= 16 * index.m * counter.candidates
    assert counter.lookups <= 3 * counter.candidates


# ---------------------------------------------------------------------------
# phase filter


def search_windows(n_cols, m):
    """(start, width) of every column window ``search_text`` scans."""
    step = max(1, m // 2)
    return [(start, min(m + step, n_cols - start)) for start in range(0, n_cols - m + 1, step)]


def band_steps(steps, top, m):
    """The step string of the band of m rows from ``top``, cut from the
    ``_phase_steps`` string of a column of rows that starts at row 0."""
    return steps[2 * top : 2 * top + 2 * m - 3]


def window_candidates(text, start, width, index, phase_filter=True):
    """The window's summaries and its candidates: (top, group) for every
    band of m rows whose names are a group's key and, under the phase
    filter, whose step string is some pattern's.  A name string that holds
    a ``SENTINEL`` is no group's key."""
    m = index.m
    window = named_by_definition(text, start, width, index)
    steps = _phase_steps(window.periods, window.lwpos)
    candidates = []
    for top in range(len(text) - m + 1):
        group = index.groups.get(window.names[top : top + m])
        if group is not None and (not phase_filter or band_steps(steps, top, m) in index.phases):
            candidates.append((top, group))
    return window, candidates


def per_window_search(text, index, phase_filter=True):
    """Every window named, filtered and verified on its own, in its own frame."""
    m = index.m
    found = set()
    for start, width in search_windows(len(text[0]), m):
        window, candidates = window_candidates(text, start, width, index, phase_filter)
        for top, group in candidates:
            band = SummaryColumn(window.periods[top : top + m], window.lwpos[top : top + m])
            for pid, s in verify_candidate(band, group, 0, width):
                found.add(Occurrence(pid, top, start + s))
    return found


@st.composite
def phase_plants(draw):
    """Patterns sharing one name sequence and differing only in row phases,
    and a uniformly periodic text of m-row bands over the same words.

    A band copies one pattern's phases under one column shift, or takes
    random phases, so every band is a candidate while only some candidates
    are occurrences.
    """
    fraction = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2)]))
    m = draw(st.integers(4 if fraction == Fraction(1, 4) else 2, 12))
    pool = draw(st.lists(primitive_words(1, int(fraction * m)), min_size=1, max_size=3))
    words = [draw(st.sampled_from(pool)) for _ in range(m)]
    phases = draw(
        st.lists(
            st.tuples(*[st.integers(0, len(w) - 1) for w in words]), min_size=2, max_size=4
        )
    )
    patterns = [[tile(w, m, ph) for w, ph in zip(words, row_phases)] for row_phases in phases]
    width = draw(st.integers(m, 3 * m))
    text = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            row_phases = [draw(st.integers(0, len(w) - 1)) for w in words]
        else:
            shift = draw(st.integers(0, width))
            row_phases = [ph + shift for ph in draw(st.sampled_from(phases))]
        text.extend(tile(w, width, ph) for w, ph in zip(words, row_phases))
    return fraction, patterns, text


@settings(max_examples=120, deadline=None)
@given(case=phase_plants())
def test_phase_filter_keeps_every_occurrence(case):
    fraction, patterns, text = case
    index = build_index(patterns, max_period_fraction=fraction)
    assert len(index.groups) == 1
    expected = brute_search(text, patterns)
    assert search_text(text, index) == expected
    assert per_window_search(text, index, phase_filter=False) == expected


@settings(max_examples=60, deadline=None)
@given(case=phase_plants())
def test_occurrence_steps_equal_pattern_steps(case):
    fraction, patterns, text = case
    index = build_index(patterns, max_period_fraction=fraction)
    m = index.m
    pattern_steps = []
    for pattern in patterns:
        col = summarize_matrix(pattern, fraction, NameRegistry())
        pattern_steps.append(_phase_steps(col.periods, col.lwpos))
        # build_index takes the steps from the canonical offsets
        assert pattern_steps[-1] == _phase_steps(col.periods, alg2_2dlw(col).offsets)
    for occ in brute_search(text, patterns):
        for start, width in search_windows(len(text[0]), m):
            if start <= occ.col and occ.col + m <= start + width:
                window = named_by_definition(text, start, width, index)
                steps = _phase_steps(window.periods, window.lwpos)
                assert band_steps(steps, occ.row, m) == pattern_steps[occ.pattern]
                # search takes the steps of a run of rows from its first band
                # that is not live on, and cuts each band's from them
                below = _phase_steps(window.periods[occ.row :], window.lwpos[occ.row :])
                assert below == steps[2 * occ.row :]


def test_phase_filter_drops_a_plant_with_one_row_moved():
    rng = random.Random(31)
    m = 16
    pattern = gen_matrix([2, 4] * 8, m, alphabet=3, rng=rng, strict=True)
    index = build_index([pattern])
    plant = [periodic_extension(row, 2 * m) for row in pattern]
    moved = list(plant)
    moved[5] = periodic_extension(pattern[5], 2 * m, 1)  # period 4, neighbours' period 2
    for start, width in search_windows(2 * m, m):
        names = named_by_definition(moved, start, width, index).names
        assert names == named_by_definition(plant, start, width, index).names
        assert window_candidates(moved, start, width, index, phase_filter=False)[1]
    counter = OpCounter()
    assert search_text(moved, index, counter=counter) == set() == brute_search(moved, [pattern])
    assert counter.candidates == 0
    counter = OpCounter()
    found = search_text(plant, index, counter=counter)
    assert Occurrence(0, 0, 0) in found
    assert found == brute_search(plant, [pattern])
    assert counter.candidates > 0


@pytest.mark.parametrize("j", [0, 7, 14])
def test_phase_filter_is_exact_on_step_strings(j):
    # two patterns over one period-4 word share their name string, and the
    # second shifts rows j + 1 .. m - 1 by one column, so their step strings
    # differ only in the steps that cross from row j or j - 1 to a row below
    # j: the near step of row j and the far steps of rows j - 1 and j.  A
    # band that shifts those rows by two spells the same names but takes a
    # third value in those steps, so its step string is neither pattern's
    # and it is never verified
    m, width, word = 16, 32, "aabc"

    def band(shift, cols):
        return [tile(word, cols, shift if i > j else 0) for i in range(m)]

    patterns = [band(0, m), band(1, m)]
    index = build_index(patterns)
    assert len(index.groups) == 1
    columns = [summarize_matrix(pattern, Fraction(1, 4), NameRegistry()) for pattern in patterns]
    steps = [_phase_steps(col.periods, col.lwpos) for col in columns]
    assert index.phases == set(steps)
    crossing = {2 * j - 1, 2 * j, 2 * j + 1}
    assert [x != y for x, y in zip(*steps)] == [i in crossing for i in range(2 * m - 3)]
    for shift in (1, 2):
        text = band(shift, width)
        window, candidates = window_candidates(text, 0, width, index, phase_filter=False)
        assert candidates == [(0, index.groups[window.names])]
        counter = OpCounter()
        found = search_text(text, index, counter=counter)
        assert found == brute_search(text, patterns)
        if shift == 1:
            assert Occurrence(1, 0, 0) in found
            assert counter.candidates > 0
        else:
            assert _phase_steps(window.periods, window.lwpos) not in index.phases
            assert found == set()
            assert counter.candidates == 0


def test_far_steps_drop_a_band_that_every_near_step_passes():
    # rows alternate periods 2 and 3, so every near step is 0 modulo 1 and
    # only the far steps, between rows of one period, tell bands apart.  The
    # two patterns share their name string and differ only in the phase of
    # their last row, so only its far step to row m - 3 differs; a band that
    # moves that row by two columns takes the third value modulo 3 there,
    # and it is no occurrence, so it is never verified
    m, width = 8, 24

    def band(shift, cols):
        return [
            tile("ab", cols) if i % 2 == 0 else tile("aab", cols, shift if i == m - 1 else 0)
            for i in range(m)
        ]

    patterns = [band(0, m), band(1, m)]
    index = build_index(patterns, max_period_fraction=HALF)
    assert len(index.groups) == 1
    columns = [summarize_matrix(pattern, HALF, NameRegistry()) for pattern in patterns]
    steps = [_phase_steps(col.periods, col.lwpos) for col in columns]
    assert set(steps[0][::2]) == set(steps[1][::2]) == {chr(0)}
    assert [x != y for x, y in zip(*steps)] == [i == 2 * m - 5 for i in range(2 * m - 3)]
    third = band(2, width)
    window, candidates = window_candidates(third, 0, width, index, phase_filter=False)
    assert candidates == [(0, index.groups[window.names])]
    assert window_candidates(third, 0, width, index)[1] == []
    counter = OpCounter()
    assert search_text(third, index, counter=counter) == set() == brute_search(third, patterns)
    assert counter.candidates == 0
    # stacked between the two patterns' own bands, it still costs nothing,
    # and every occurrence is found
    text = band(0, width) + third + band(1, width)
    counter = OpCounter()
    found = search_text(text, index, counter=counter)
    assert found == brute_search(text, patterns)
    assert {Occurrence(0, 0, 0), Occurrence(1, 2 * m, 0)} <= found
    assert counter.candidates == len({occ.row for occ in found})


# ---------------------------------------------------------------------------
# candidate lifetimes: windows in which a band's rows keep their names and phases


def window_rows(text, index):
    """Each window's start, stop, name string, periods and text-frame phases,
    with every row named from scratch."""
    named = []
    for start, width in search_windows(len(text[0]), index.m):
        window = named_by_definition(text, start, width, index)
        phases = [(start + lw) % p for p, lw in zip(window.periods, window.lwpos)]
        named.append((start, start + width, window.names, window.periods, phases))
    return named


def band_lifetimes(text, index):
    """(top, start, stop, periods, phases, group) of every candidate lifetime.

    A lifetime is a maximal run of windows in which the band of m rows from
    ``top`` keeps its rows' names and phases and passes the phase filter; it
    spans the run's first window start to its last window stop.
    """
    m = index.m
    named = window_rows(text, index)
    candidates = [
        dict(window_candidates(text, start, stop - start, index)[1])
        for start, stop, *_ in named
    ]
    lifetimes = []
    for top in range(len(text) - m + 1):
        end = top + m

        def state(w):
            _, _, names, _, phases = named[w]
            return names[top:end], phases[top:end]

        for _, run in itertools.groupby(range(len(named)), key=state):
            run = list(run)
            group = candidates[run[0]].get(top)
            # candidacy depends only on the band's names and phases
            assert all(candidates[w].get(top) is group for w in run)
            if group is not None:
                start, _, _, periods, phases = named[run[0]]
                stop = named[run[-1]][1]
                lifetimes.append((top, start, stop, periods[top:end], phases[top:end], group))
    return lifetimes


@st.composite
def lifetime_texts(draw):
    """Patterns over a few words, and m-row bands that mix the row kinds
    search tells apart.

    A band copies a pattern's words under its phases shifted by one column
    offset, or under random phases.  Each of its rows keeps that tiling, is
    random over ``abc``, switches word or phase at a random column, or is
    periodic only in a middle segment between a random prefix and a random
    suffix.  A middle segment tiles a pattern word (named) or a word with a
    ``d``, which no pattern row has (unnamed).  A trailing partial band of 0
    to m - 1 rows, random, tiled or a pattern's first rows, makes heights
    that are not multiples of m and, below one more band, heights under 2m:
    its rows lie below the last anchor row, i == m - 1 (mod m).
    """
    fraction = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]))
    m = draw(st.integers(fraction.denominator, 12))
    limit = int(fraction * m)
    pool = draw(st.lists(primitive_words(1, limit), min_size=1, max_size=3, unique=True))
    unnamed = st.text("abd", min_size=1, max_size=limit).filter(
        lambda w: "d" in w and brute_period(w * 2) == len(w)
    )
    patterns = []
    for _ in range(draw(st.integers(1, 3))):
        words = [draw(st.sampled_from(pool)) for _ in range(m)]
        patterns.append([tile(w, m, draw(st.integers(0, len(w) - 1))) for w in words])
    width = draw(st.integers(m, 5 * m))
    random_row = st.text("abc", min_size=width, max_size=width)
    text = []
    for _ in range(draw(st.integers(1, 3))):
        pattern = draw(st.sampled_from(patterns))
        shift = draw(st.integers(0, width))
        for prow in pattern:
            word = prow[: brute_period(prow)]
            phase = shift if draw(st.booleans()) else draw(st.integers(0, len(word) - 1))
            row = tile(word, width, phase)
            kind = draw(st.sampled_from(["keep", "keep", "word", "phase", "random", "middle"]))
            if kind == "random":
                row = draw(random_row)
            elif kind == "middle":
                a = draw(st.integers(0, width))
                b = draw(st.integers(a, width))
                other = draw(st.sampled_from(pool) if draw(st.booleans()) else unnamed)
                middle = tile(other, width, draw(st.integers(0, len(other) - 1)))
                noise = draw(random_row)
                row = noise[:a] + middle[a:b] + noise[b:]
            elif kind != "keep":
                other = draw(st.sampled_from(pool)) if kind == "word" else word
                cut = draw(st.integers(1, width - 1))
                row = row[:cut] + tile(other, width, draw(st.integers(0, len(other) - 1)))[cut:]
            text.append(row)
    tail = draw(st.integers(0, m - 1))
    kind = draw(st.sampled_from(["random", "tiled", "pattern"]))
    if kind == "pattern":
        shift = draw(st.integers(0, width))
        for prow in draw(st.sampled_from(patterns))[:tail]:
            word = prow[: brute_period(prow)]
            text.append(tile(word, width, shift))
    else:
        for _ in range(tail):
            if kind == "random":
                text.append(draw(random_row))
            else:
                word = draw(st.sampled_from(pool))
                text.append(tile(word, width, draw(st.integers(0, len(word) - 1))))
    return fraction, patterns, text


@settings(max_examples=250, deadline=None)
@given(case=lifetime_texts())
def test_scheduled_naming_equals_per_window_search(case):
    fraction, patterns, text = case
    index = build_index(patterns, max_period_fraction=fraction)
    m = index.m
    named = window_rows(text, index)
    # each row's walk records exactly the windows where naming each window
    # from scratch changes that row's name, period or text-frame phase (all
    # rows start as sentinels), with the row named as that window names it
    stops = [stop for _, stop, *_ in named]
    for i, row in enumerate(text):
        expected, previous = [], (SENTINEL, 1, 0)
        for w, (_, _, names, periods, phases) in enumerate(named):
            now = names[i], periods[i], phases[i]
            if now != previous:
                expected.append((w, *now))
                previous = now
        assert _row_changes(row, index, max(1, m // 2), stops, 0, len(stops)) == expected
    # and each verification covers one whole lifetime of its band
    calls = []
    original = dictmatch.verify_candidate

    def recorded(column, group, start, stop, counter=None):
        calls.append((start, stop, list(column.periods), list(column.lwpos), id(group)))
        return original(column, group, start, stop, counter)

    with mock.patch.object(dictmatch, "verify_candidate", recorded):
        found = search_text(text, index)
    expected_calls = [
        (start, stop, list(periods), list(phases), id(group))
        for _, start, stop, periods, phases, group in band_lifetimes(text, index)
    ]
    assert sorted(calls) == sorted(expected_calls)
    assert found == per_window_search(text, index)
    assert found <= brute_search(text, patterns)


def test_one_lifetime_verifies_each_candidate_once():
    # 11 windows of uniformly periodic rows: each of the 3 bands is one
    # candidate through all of them, so search verifies it once; a search
    # that verified per window would charge 11 times as many
    rng = random.Random(8)
    m, width = 8, 48
    pattern = gen_matrix([3, 4, 2, 3, 1, 4, 2, 3], m, alphabet=3, rng=rng)
    index = build_index([pattern], max_period_fraction=HALF)
    text = []
    for shift in (0, 5, 2):
        text.extend(periodic_extension(row, width, shift) for row in pattern)
    assert len(search_windows(width, m)) == 11
    first = window_candidates(text, 0, m + m // 2, index)[1]
    assert len(first) == 3
    spans = [lifetime[:3] for lifetime in band_lifetimes(text, index)]
    assert spans == [(0, 0, 48), (8, 0, 48), (16, 0, 48)]
    counter = OpCounter()
    found = search_text(text, index, counter=counter)
    assert found == brute_search(text, [pattern])
    assert counter.candidates == len(first)

    # shifting one row's phase from column 24 on leaves that row periodic on
    # either side and a sentinel in the two windows that straddle column 24.
    # Only the band that holds the row closes there, and the moved row breaks
    # its phase steps, so it stays closed: the other two bands still take one
    # verification each, where the windows from 0, 16 and 24 hold 7 reports
    text[1] = text[1][:24] + periodic_extension(pattern[1], width, 1)[24:]
    counts = [len(window_candidates(text, start, 12, index)[1]) for start in (0, 16, 24)]
    assert counts == [3, 2, 2]
    spans = [lifetime[:3] for lifetime in band_lifetimes(text, index)]
    assert spans == [(0, 0, 24), (8, 0, 48), (16, 0, 48)]
    counter = OpCounter()
    found = search_text(text, index, counter=counter)
    assert found == brute_search(text, [pattern])
    assert counter.candidates == 3


def test_rephasing_one_row_reopens_only_its_band():
    # the last row of a 4-band text re-phases every 32 columns.  Its period 3
    # is coprime to the period 2 of the row above, so its phase step is 0
    # modulo 1 and its band passes the phase filter again after each move:
    # search pays one more verification per reopening of that band, not one
    # for every band of the text at every move
    rng = random.Random(41)
    m, width = 8, 128
    patterns = [gen_matrix([3, 4, 1, 4, 2, 4, 2, 3], m, alphabet=3, rng=rng) for _ in range(4)]
    index = build_index(patterns, max_period_fraction=HALF)
    plain = []
    for pattern in patterns:
        shift = rng.randrange(12)
        plain.extend(periodic_extension(row, width, shift) for row in pattern)
    counter = OpCounter()
    found = search_text(plain, index, counter=counter)
    assert found == brute_search(plain, patterns)
    before = counter.candidates
    assert before == len(patterns)

    text = list(plain)
    last = text[-1]
    assert brute_period(last) == 3
    text[-1] = "".join(last[(c + c // 32) % 3] for c in range(width))
    tops = [lifetime[0] for lifetime in band_lifetimes(text, index)]
    reopened = tops.count(len(text) - m) - 1
    assert reopened == 3
    assert len(tops) == len(patterns) + reopened
    counter = OpCounter()
    found = search_text(text, index, counter=counter)
    assert found == brute_search(text, patterns)
    assert counter.candidates == before + reopened


# ---------------------------------------------------------------------------
# row schedule: a row is visited only at windows where its name can change


def count_period_calls(monkeypatch):
    """A one-entry list that counts ``compute_period`` calls made by search."""
    calls = [0]
    original = dictmatch.compute_period

    def counted(s, limit=None):
        calls[0] += 1
        return original(s, limit)

    monkeypatch.setattr(dictmatch, "compute_period", counted)
    return calls


def test_schedule_visits_aperiodic_rows_every_third_window(monkeypatch):
    # m = 16 at fraction 1/4: windows of 24 columns stepping by 8, and 8-column
    # tail blocks.  A block with no period <= 4 keeps its row a sentinel in
    # the 3 windows that contain it, so 31 windows take at most 11 visits.
    rng = random.Random(13)
    m, width = 16, 256
    assert len(search_windows(width, m)) == 31
    while True:
        row = "".join(rng.choice("abc") for _ in range(width))
        if all(brute_period(row[x : x + 8]) > 4 for x in range(width - 7)):
            break
    pattern = [tile("ab", m)] * m
    index = build_index([pattern])
    calls = count_period_calls(monkeypatch)
    assert search_text([row] * m, index) == set()
    assert calls[0] <= m * 11

    # a row periodic across its whole width is named once and never visited
    # again: one tail block, whose period decides the window.  The 15 equal
    # rows above the anchor share one walk of the anchor's span, so the text
    # takes one walk for the anchor and one for the other rows
    calls[0] = 0
    text = [tile("ab", width)] * m
    found = search_text(text, index)
    assert found == brute_search(text, [pattern])
    assert found
    assert calls[0] == 2

    # m distinct rows, each periodic across its whole width, are walked once
    # each
    calls[0] = 0
    text = [tile(w, width, s) for w in ("abcc", "abbc", "aabc", "abc") for s in range(len(w))]
    text.append(tile("ab", width))
    assert len(set(text)) == len(text) == m
    found = search_text(text, index)
    assert found == brute_search(text, [pattern]) == set()
    assert calls[0] == m


def test_unnamed_periodic_rows_are_carried(monkeypatch):
    # rows of period 3 over "cd" name no row of the ab pattern, yet their
    # period is admissible: each takes one compute_period call, like a named
    # row, instead of one in each of its 15 windows
    rng = random.Random(17)
    m, size = 32, 256
    pattern = [tile("ab", m, x % 2) for x in range(m)]
    index = build_index([pattern])
    words = ["ccd", "cdd"]
    text = [tile(rng.choice(words), size, rng.randrange(3)) for _ in range(size)]
    calls = count_period_calls(monkeypatch)
    found = search_text(text, index)
    assert found == brute_search(text, [pattern]) == set()
    assert calls[0] <= 256


def replay(changes, end):
    """The (name, period, phase) a row walk leaves at each of ``end`` windows."""
    windows = [w for w, *_ in changes]
    assert windows == sorted(set(windows))
    assert all(0 <= w < end for w in windows)
    states, state = [], (SENTINEL, 1, 0)
    at = dict(zip(windows, [change[1:] for change in changes]))
    for w in range(end):
        state = at.get(w, state)
        states.append(state)
    return states


@settings(max_examples=150, deadline=None)
@given(case=lifetime_texts(), data=st.data())
def test_walk_over_a_window_range_replays_the_full_walk(case, data):
    # a walk over windows [first, last) starts the range as a sentinel and
    # names the row at each window there as the full walk does; a row still
    # named at last ends with a sentinel change at last, so outside the
    # range the row reads unnamed
    fraction, patterns, text = case
    index = build_index(patterns, max_period_fraction=fraction)
    m = index.m
    step = max(1, m // 2)
    stops = [start + width for start, width in search_windows(len(text[0]), m)]
    end = len(stops)
    first = data.draw(st.integers(0, end - 1))
    last = data.draw(st.integers(first + 1, end))
    unnamed = (SENTINEL, 1, 0)
    for row in text:
        full = replay(_row_changes(row, index, step, stops, 0, end), end)
        changes = _row_changes(row, index, step, stops, first, last)
        part = replay(changes, end)
        assert part[first:last] == full[first:last]
        assert part[:first] == [unnamed] * first
        assert part[last:] == [unnamed] * (end - last)
        if last < end and full[last - 1] != unnamed:
            assert changes[-1] == (last, *unnamed)
        else:
            assert all(w < last for w, *_ in changes)


@settings(max_examples=150, deadline=None)
@given(case=lifetime_texts(), data=st.data())
def test_named_spans_cover_the_windows_where_some_walk_is_named(case, data):
    # the spans of 0-3 row walks, each over every window, over a range, or
    # going on with the last walk's row from where that walk stopped (so
    # spans of two walks touch), are sorted, non-empty, apart and inside
    # [0, end), and cover window w exactly when some walk, replayed, is
    # named at w
    fraction, patterns, text = case
    index = build_index(patterns, max_period_fraction=fraction)
    m = index.m
    step = max(1, m // 2)
    stops = [start + width for start, width in search_windows(len(text[0]), m)]
    end = len(stops)
    walks, row, last = [], None, end
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["full", "range", "next"]))
        if kind == "next" and last < end:
            first = last
        else:
            row = data.draw(st.sampled_from(text))
            first = 0 if kind == "full" else data.draw(st.integers(0, end - 1))
        last = end if kind == "full" else data.draw(st.integers(first + 1, end))
        walks.append(_row_changes(row, index, step, stops, first, last))
    spans = _named_spans(walks, end)
    assert all(0 <= first < last <= end for first, last in spans)
    assert all(a_last < b_first for (_, a_last), (b_first, _) in zip(spans, spans[1:]))
    covered = [any(first <= w < last for first, last in spans) for w in range(end)]
    states = [replay(changes, end) for changes in walks]
    assert covered == [any(s[w][0] != SENTINEL for s in states) for w in range(end)]


def test_rows_between_unnamed_anchors_are_not_walked(monkeypatch):
    # m = 16 at fraction 1/4: 7 windows over 64 columns, and anchor rows 15,
    # 31, 47 and 63, one in every band of 16 rows.  No anchor of this random
    # text is named in any window, so no band can be a candidate and only
    # the anchors are walked, with at most one compute_period call per
    # window each; walking all 64 rows would take at least 64 calls
    rng = random.Random(21)
    m, size = 16, 64
    windows = search_windows(size, m)
    assert len(windows) == 7
    patterns = [[tile(w, m, x % len(w)) for x in range(m)] for w in ("ab", "abc", "aab")]
    index = build_index(patterns)
    text = ["".join(rng.choice("abc") for _ in range(size)) for _ in range(size)]
    anchors = text[m - 1 :: m]
    assert len(anchors) == 4
    for start, width in windows:
        assert named_by_definition(anchors, start, width, index).names == SENTINEL * 4
    calls = count_period_calls(monkeypatch)
    found = search_text(text, index)
    assert found == brute_search(text, patterns)
    assert calls[0] <= 4 * 7


# ---------------------------------------------------------------------------
# repeated rows: each distinct row string is walked once per partial anchor
# span, and once per text for spans that cover every window


@st.composite
def repeated_row_texts(draw, fraction):
    """Patterns over a few words, and a text whose rows are drawn with
    replacement from a small pool, so equal rows fall inside one block,
    across blocks and in disjoint anchor spans of one block.

    The pool holds pattern row words tiled at random phases, some rows of
    the patterns planted at one column shift, and unnamed periodic rows
    over ``abd``.  Unless the pool is uniformly periodic, it also holds
    aperiodic rows: random ones, and rows that tile a pattern word only
    between a random prefix and a random suffix, which are named in some
    windows only.  A band of m rows is one whole plant or m draws from the
    pool, and a trailing partial band of up to m - 1 draws follows.  In a
    text that is not uniformly periodic, a plant's last row, its block's
    anchor, keeps the plant only left of the middle column in bands 0, 2,
    ... and only right of it in bands 1, 3, ..., with random columns on the
    other side, so the anchors above and below a block can be named in
    disjoint window ranges that both hold occurrences.

    Returns (patterns, text, uniform).
    """
    m = draw(st.integers(fraction.denominator, 12))
    limit = int(fraction * m)
    words = draw(st.lists(primitive_words(1, limit), min_size=1, max_size=3, unique=True))
    patterns = []
    for _ in range(draw(st.integers(1, 2))):
        row_words = [draw(st.sampled_from(words)) for _ in range(m)]
        patterns.append([tile(w, m, draw(st.integers(0, len(w) - 1))) for w in row_words])
    width = draw(st.integers(m, 6 * m))
    plants = []
    for pattern in patterns:
        shift = draw(st.integers(0, width))
        plants.append([tile(prow[: brute_period(prow)], width, shift) for prow in pattern])
    named = st.sampled_from(words).flatmap(
        lambda w: st.integers(0, len(w) - 1).map(lambda s: tile(w, width, s))
    )
    unnamed = st.text("abd", min_size=1, max_size=limit).filter(
        lambda w: "d" in w and brute_period(w * 2) == len(w)
    )
    kinds = [named, st.sampled_from([row for plant in plants for row in plant])]
    kinds.append(unnamed.map(lambda w: tile(w, width)))
    uniform = draw(st.booleans())
    if not uniform:
        random_row = st.text("abc", min_size=width, max_size=width)
        kinds.append(random_row)
        cuts = st.tuples(st.integers(0, width), st.integers(0, width)).map(sorted)
        kinds.append(
            st.tuples(random_row, named, cuts).map(
                lambda t: t[0][: t[2][0]] + t[1][t[2][0] : t[2][1]] + t[0][t[2][1] :]
            )
        )
    pool = draw(st.lists(st.one_of(kinds), min_size=1, max_size=5))
    cut = width // 2
    text = []
    for j in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            band = list(draw(st.sampled_from(plants)))
            if not uniform:
                noise, keep = draw(random_row), band[-1]
                band[-1] = noise[:cut] + keep[cut:] if j % 2 else keep[:cut] + noise[cut:]
            text.extend(band)
        else:
            text.extend(draw(st.sampled_from(pool)) for _ in range(m))
    text.extend(draw(st.sampled_from(pool)) for _ in range(draw(st.integers(0, m - 1))))
    return patterns, text, uniform


@pytest.mark.parametrize("fraction", [Fraction(1, 4), Fraction(1, 3), HALF])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_repeated_rows_find_what_distinct_rows_find(fraction, data):
    patterns, text, uniform = data.draw(repeated_row_texts(fraction))
    index = build_index(patterns, max_period_fraction=fraction)
    found = search_text(text, index)
    expected = brute_search(text, patterns)
    if uniform:
        assert found == expected
    else:
        assert found <= expected
    assert found == per_window_search(text, index)


def test_full_span_rows_are_walked_once_per_text(monkeypatch):
    # a 256-row text of 8 distinct rows, each named and periodic across its
    # whole width: every anchor is named in all windows, so every block's
    # span covers all windows, and the blocks share one walk per distinct
    # row string.  The text takes one walk per anchor and one per distinct
    # non-anchor row, far below one walk per distinct row of each block
    rng = random.Random(23)
    m, size = 16, 256
    words = ("ab", "abc", "aab")
    patterns = [[tile(w, m, x % len(w)) for x in range(m)] for w in words]
    index = build_index(patterns)
    rows = [tile(w, size, s) for w in words for s in range(len(w))]
    assert len(set(rows)) == 8
    text = [rng.choice(rows) for _ in range(size)]
    anchors = range(m - 1, size, m)
    others = {row for i, row in enumerate(text) if i % m != m - 1}
    bound = len(anchors) + len(others)
    per_block = len(anchors) + sum(len(set(text[k : k + m - 1])) for k in range(0, size, m))
    calls = count_period_calls(monkeypatch)
    found = search_text(text, index)
    assert found == brute_search(text, patterns)
    assert calls[0] <= bound < per_block // 4


@settings(max_examples=300, deadline=None)
@given(data=st.data(), limit=st.integers(1, 6))
def test_tail_block_period_decides_the_window(data, limit):
    # search takes a window's period <= L from its last 2L columns: any
    # window period p <= L is a period of the block, so by Fine-Wilf the
    # block's least period q divides p, and one slice comparison decides
    width = data.draw(st.integers(2 * limit, 6 * limit))
    word = data.draw(primitive_words(1, limit + 2))
    window = tile(word, width, data.draw(st.integers(0, len(word) - 1)))
    if data.draw(st.booleans()):
        x = data.draw(st.integers(0, width - 1))
        window = window[:x] + data.draw(st.sampled_from("abc")) + window[x + 1 :]
    q = compute_period(window[width - 2 * limit :], limit)
    shortcut = q if q and window[q:] == window[: width - q] else 0
    assert shortcut == compute_period(window, limit)
