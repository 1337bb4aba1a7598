from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lyndon2d import (
    InvalidInput,
    NotSufficientlyPeriodic,
    Occurrence,
    OpCounter,
    SummaryColumn,
    TwoDLWBuilder,
    build_index,
    search_text,
    verify_candidate,
)
from lyndon2d.dictmatch import (
    SENTINEL,
    PatternGroup,
    _Automaton,
    _head_key,
    _head_row_count,
    _window_summaries,
)
from lyndon2d.reference import brute_search
from lyndon2d.workbench import gen_matrix
from oracles import (
    brute_is_lyndon,
    brute_least_rotation,
    brute_period,
    occurs_at,
    periodic_extension,
    rotations,
)

HALF = Fraction(1, 2)


def window_column(rows, index, width=None):
    """Summaries of full-height rows, exactly as the search path builds them."""
    width = len(rows[0]) if width is None else width
    ids, periods, lwpos = _window_summaries(rows, 0, width, index)
    return SummaryColumn(tuple(periods), tuple(lwpos), tuple(ids))


# ---------------------------------------------------------------------------
# automaton


def test_automaton_matches_naive_scan():
    rng = random.Random(0)
    for _ in range(50):
        alphabet = range(4)
        k = rng.randint(1, 4)
        length = rng.randint(1, 4)
        keywords = {
            tuple(rng.choice(alphabet) for _ in range(length)) for _ in range(k)
        }
        auto = _Automaton()
        for word in keywords:
            auto.insert(word, word)
        auto.build()
        text = [rng.choice([*alphabet, SENTINEL]) for _ in range(40)]
        got = {(end, w) for end, w in auto.scan(text)}
        expected = {
            (end, w)
            for w in keywords
            for end in range(len(w) - 1, len(text))
            if tuple(text[end - len(w) + 1 : end + 1]) == w
        }
        assert got == expected


# ---------------------------------------------------------------------------
# build_index


def test_build_all_a_pattern():
    pattern = ["aaaaaaaa"] * 8
    index = build_index([pattern])
    assert index.m == 8 and index.d == 1
    assert len(index.groups) == 1
    group = next(iter(index.groups.values()))
    assert group.r == 8  # running LCM stays at 1, never above the width
    assert group.lcm_prefix_r == (1,) * 8
    assert group.subgroups == {(0,) * 8: {(): [(0, 0)]}}


def test_build_rotated_patterns_share_subgroup():
    rng = random.Random(1)
    periods = [3, 4, 2, 3, 1, 4, 2, 3]  # prefix LCM hits 12 > 8 at row 2
    p1 = gen_matrix(periods, 8, alphabet=3, rng=rng)
    p2 = [periodic_extension(row, 8, 1) for row in p1]
    index = build_index([p1, p2], max_period_fraction=HALF)
    assert len(index.groups) == 1
    group = next(iter(index.groups.values()))
    assert group.r == 2
    assert len(group.subgroups) == 1
    entries = [e for tails in group.subgroups.values() for es in tails.values() for e in es]
    assert sorted(pid for pid, _ in entries) == [0, 1]
    z_values = {pid: z for pid, z in entries}
    assert z_values[1] == (z_values[0] - 1) % group.lcm_prefix_r[-1]


def test_build_distinct_period_structures_split_groups():
    rng = random.Random(2)
    mixed = gen_matrix([2, 3] * 8, 16, alphabet=3, rng=rng, strict=True)
    uniform = gen_matrix([2] * 16, 16, alphabet=3, rng=rng, strict=True)
    index = build_index([mixed, uniform])
    assert len(index.groups) == 2


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


# ---------------------------------------------------------------------------
# window row naming


def tile(word: str, width: int, shift: int = 0) -> str:
    """``word`` repeated to ``width`` columns, starting at its rotation ``shift``.

    Unlike ``periodic_extension`` this repeats the word itself, not its
    smallest period, so a bordered word such as "aba" keeps period 3.
    """
    return "".join(word[(x + shift) % len(word)] for x in range(width))


def named_by_definition(rows, start, width, index):
    """Window summaries from the definition: least rotation of the period, then the registry."""
    limit = int(index.fraction * index.m)
    ids, periods, lwpos = [], [], []
    for row in rows:
        piece = row[start : start + width]
        p = brute_period(piece)
        name = None
        if p <= limit:
            offset, word = brute_least_rotation(piece[:p])
            name = index.registry.get(word)
        if name is None:
            ids.append(SENTINEL)
            periods.append(1)
            lwpos.append(0)
        else:
            ids.append(name)
            periods.append(p)
            lwpos.append(offset)
    return ids, periods, lwpos


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
    absent = [w for w in lyndon_words if w not in index.registry]
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
    got = _window_summaries(rows, start, width, index)
    assert (got.ids, got.periods, got.lwpos) == named_by_definition(rows, start, width, index)
    n_rotations = sum(len(w) for w in registered)
    n_absent = sum(len(w) for w in absent)
    assert SENTINEL not in got.ids[:n_rotations]
    assert got.ids[n_rotations : n_rotations + n_absent] == [SENTINEL] * n_absent


def test_rotation_table_holds_every_rotation_of_every_word():
    rng = random.Random(21)
    patterns = [gen_matrix([rng.randint(1, 4) for _ in range(8)], 8, rng=rng) for _ in range(3)]
    index = build_index(patterns, max_period_fraction=HALF)
    expected = {}
    for name in range(len(index.registry)):
        for rotation in rotations(index.registry.word(name)):
            offset, word = brute_least_rotation(rotation)
            assert index.registry.get(word) == name
            expected[rotation] = (name, offset)
    assert index.rotations == expected


# ---------------------------------------------------------------------------
# head keys


def group_of(periods):
    r, prefix = _head_row_count(periods, len(periods))
    return PatternGroup(tuple(range(len(periods))), tuple(periods), r, prefix)


@st.composite
def head_rows(draw):
    """Periods, Lyndon offsets and the top row of one candidate."""
    periods = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    lwpos = [draw(st.integers(0, p - 1)) for p in periods]
    return periods, lwpos, draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(rows=head_rows())
@example(rows=([3] * 8, [2, 0, 1, 1, 0, 2, 2, 1], 0))  # single class: LCM stops at row 1
@example(rows=([1, 2, 3, 2, 1, 6, 3, 2], [0, 1, 2, 0, 0, 5, 1, 1], 2))  # stops partway
@example(rows=([3, 4, 2, 3, 1, 4, 2, 3], [1, 3, 0, 2, 0, 1, 1, 2], 1))  # head split
def test_head_key_equals_builder_over_every_head_row(rows):
    periods, lwpos, top = rows
    group = group_of(periods)
    # pad above and below: the key reads only rows top .. top + r - 1
    periods = [1] * top + periods + [1]
    lwpos = [0] * top + lwpos + [0]
    shortcut, full = OpCounter(), OpCounter()
    builder = TwoDLWBuilder(full)
    builder.add_rows(periods, lwpos, top, top + group.r)
    assert _head_key(periods, lwpos, top, group, shortcut) == (tuple(builder.offsets), builder.z)
    assert (shortcut.ops, shortcut.lookups, shortcut.candidates) == (
        full.ops,
        full.lookups,
        full.candidates,
    )


def test_head_key_regimes():
    single, partway, split = (
        group_of(p) for p in ([3] * 8, [1, 2, 3, 2, 1, 6, 3, 2], [3, 4, 2, 3, 1, 4, 2, 3])
    )
    assert (single.grow, single.r) == (1, 8)
    assert (partway.grow, partway.r) == (3, 8)
    assert (split.grow, split.r) == (2, 2)


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
    assert verify_candidate(col, group, 12) == [(0, 0)]


def test_verify_rotated_window(head_split_index):
    pattern, index = head_split_index
    group = next(iter(index.groups.values()))
    # window holds the pattern rotated right by 3: occurrence at column 3
    window = [periodic_extension(row, 12, -3) for row in pattern]
    col = window_column(window, index)
    assert verify_candidate(col, group, 12) == [(0, 3)]
    for pid, s in [(0, 3)]:
        assert occurs_at(window, pattern, 0, s)


def test_verify_perturbed_head_misses(head_split_index):
    pattern, index = head_split_index
    group = next(iter(index.groups.values()))
    window = [periodic_extension(row, 12) for row in pattern]
    # shift only the second row's phase: head offsets no longer match
    window[1] = periodic_extension(pattern[1], 12, 1)
    col = window_column(window, index)
    assert col.names == group.name_seq
    assert verify_candidate(col, group, 12) == []


def test_verify_degenerate_group_reports_every_admissible_shift():
    pattern = [periodic_extension("ab", 8)] * 8  # joint repeat of 2
    index = build_index([pattern])
    group = next(iter(index.groups.values()))
    window = [periodic_extension("ab", 12)] * 8
    col = window_column(window, index)
    assert verify_candidate(col, group, 12) == [(0, 0), (0, 2), (0, 4)]


def test_verify_from_top_row_matches_column_form():
    # the search path verifies against the whole window from the candidate's
    # top row; it must agree with an m-row column, hits and tallies alike
    rng = random.Random(12)
    m = 8
    choices = [(1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 4)]  # the last never outgrows m
    patterns = [
        gen_matrix([rng.choice(c) for _ in range(m)], m, alphabet=2, rng=rng) for c in choices
    ]
    index = build_index(patterns, max_period_fraction=HALF)
    text = []
    for pat in patterns * 2:
        text.extend(periodic_extension(row, 12, rng.randrange(4)) for row in pat)
    window = _window_summaries(text, 0, 12, index)
    kinds = set()
    for end, name_seq in index.automaton.scan(window.ids):
        top = end - m + 1
        group = index.groups[name_seq]
        col = SummaryColumn(
            tuple(window.periods[top : end + 1]),
            tuple(window.lwpos[top : end + 1]),
            tuple(window.ids[top : end + 1]),
        )
        from_top, from_col = OpCounter(), OpCounter()
        got = verify_candidate(window, group, 12, from_top, top)
        assert got == verify_candidate(col, group, 12, from_col)
        assert (from_top.ops, from_top.lookups, from_top.candidates) == (
            from_col.ops,
            from_col.lookups,
            from_col.candidates,
        )
        kinds.add(group.r < m)
    assert kinds == {True, False}


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


def test_search_text_validation():
    pattern = [periodic_extension("ab", 8)] * 8
    index = build_index([pattern])
    assert search_text([], index) == set()
    assert search_text(["abab"] * 2, index) == set()  # smaller than the pattern
    with pytest.raises(InvalidInput):
        search_text(["abab", "ab"], index)


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
