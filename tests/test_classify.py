from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_LCM, SAMPLE_MATRIX, SAMPLE_OFFSETS, SAMPLE_Z
from lyndon2d import (
    InvalidInput,
    InvalidQuery,
    NameRegistry,
    NotSufficientlyPeriodic,
    classify_matrix,
    conjugacy_shift,
    longest_suffix_prefix,
)
from lyndon2d.classify import summarize_matrix
from lyndon2d.lw2d import SummaryColumn
from lyndon2d.reference import alg1_2dlw
from lyndon2d.strings1d import is_primitive, summarize_row
from lyndon2d.workbench import gen_matrix
from oracles import brute_least_rotation, brute_period, max_overlap, periodic_extension, rot_left
from test_strings1d import ANAGRAM_CLASSES, PROBE_LETTERS, probe_words

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def classify_pair(rows_a, rows_b, fraction):
    reg = NameRegistry()
    return (
        classify_matrix(rows_a, fraction, reg),
        classify_matrix(rows_b, fraction, reg),
    )


# ---------------------------------------------------------------------------
# classify_matrix


def test_classify_sample_golden():
    cm = classify_matrix(SAMPLE_MATRIX, HALF)
    assert cm.key.offsets == SAMPLE_OFFSETS
    assert cm.z == SAMPLE_Z
    assert cm.lcm == SAMPLE_LCM
    assert cm.rows == 8 and cm.width == 8


def test_classify_all_a():
    cm = classify_matrix(["aaaaaaaa"] * 4, QUARTER)
    assert cm.key.offsets == (0, 0, 0, 0)
    assert cm.z == 0
    assert cm.lcm == 1


def test_classify_rotation_preserves_key():
    rng = random.Random(1)
    rows = gen_matrix([2, 3, 1, 4], 16, alphabet=3, rng=rng)
    a, b = classify_pair(rows, rot_left(rows, 1), QUARTER)
    assert a.key == b.key
    assert b.z == (a.z - 1) % a.lcm


def test_classify_errors():
    with pytest.raises(InvalidInput):
        classify_matrix(["ab", "abc"], HALF)
    with pytest.raises(InvalidInput):
        classify_matrix([], HALF)
    with pytest.raises(NotSufficientlyPeriodic) as info:
        classify_matrix(["abababab", "abcdefgh"], HALF)
    assert info.value.row == 1
    assert info.value.period == 8


# ---------------------------------------------------------------------------
# summarize_matrix


@pytest.mark.parametrize(
    "rows, message",
    [
        (["abab", "abab", "ab"], "row 2: width 2, expected 4"),
        (["", ""], "row 0: empty row"),
        (["abab", "ababa"], "row 1: width 5, expected 4"),
    ],
)
def test_summarize_matrix_names_the_row_of_a_wrong_width(rows, message):
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        summarize_matrix(rows, "1/2", NameRegistry())


def seeded_registry(seeds):
    """A registry holding the Lyndon word of every primitive seed, in order."""
    reg = NameRegistry()
    for word in seeds:
        if is_primitive(word):
            reg.intern(brute_least_rotation(word)[1])
    return reg


def registry_words(reg):
    return [reg.word(i) for i in range(len(reg))]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_summarize_matrix_names_rows_like_summarize_row(data):
    # the probe test's rows: NUL, ASCII, 2- and 4-byte letters, a lone
    # surrogate and anagram classes sharing a key, at every rotation, some
    # of seeded classes and some of classes first seen mid-matrix
    fraction = data.draw(st.sampled_from([QUARTER, Fraction(1, 3), HALF]))
    width = 7 * fraction.denominator + data.draw(st.integers(0, 3))
    seeds = ANAGRAM_CLASSES + data.draw(st.lists(probe_words, max_size=4))
    pool = []
    for _ in range(data.draw(st.integers(1, 6))):
        word = data.draw(st.sampled_from(seeds) | probe_words)
        phase = data.draw(st.integers(0, len(word) - 1))
        pool.append((word * (width // len(word) + 2))[phase : phase + width])
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))

    reference = seeded_registry(seeds)
    expected = [summarize_row(row, reference, fraction) for row in rows]
    reg = seeded_registry(seeds)
    column = summarize_matrix(rows, fraction, reg)
    assert column == SummaryColumn(*map(tuple, zip(*expected)))
    assert registry_words(reg) == registry_words(reference)

    # a row above the fraction at row i stops the matrix with summarize_row's
    # error; the words of the rows above it are interned
    late = data.draw(
        st.text(st.sampled_from(PROBE_LETTERS), min_size=width, max_size=width).filter(
            lambda row: brute_period(row) * fraction.denominator > width * fraction.numerator
        )
    )
    i = data.draw(st.integers(0, len(rows)))
    with pytest.raises(NotSufficientlyPeriodic) as single:
        summarize_row(late, NameRegistry(), fraction)
    reg = seeded_registry(seeds)
    with pytest.raises(NotSufficientlyPeriodic) as info:
        summarize_matrix(rows[:i] + [late] + rows[i:], fraction, reg)
    assert info.value.row == i
    assert info.value.period == single.value.period == brute_period(late)
    assert str(info.value) == f"row {i}: {single.value}"
    above = seeded_registry(seeds)
    for row in rows[:i]:
        summarize_row(row, above, fraction)
    assert registry_words(reg) == registry_words(above)


def reference_class(rows):
    """Row Lyndon words and canonical conjugate, from the definitions and Alg. 1."""
    periods, lwpos, words = [], [], []
    for row in rows:
        p = brute_period(row)
        offset, word = brute_least_rotation(row[:p])
        periods.append(p)
        lwpos.append(offset)
        words.append(word)
    return tuple(words), alg1_2dlw(SummaryColumn(tuple(periods), tuple(lwpos)))


def reference_answers(ref_a, ref_b, width):
    """(longest_suffix_prefix, conjugacy_shift) from two reference classes."""
    (words_a, word_a), (words_b, word_b) = ref_a, ref_b
    if words_a != words_b or word_a.offsets != word_b.offsets:
        return None, None
    shift = (word_a.z - word_b.z) % word_a.lcm
    return (width - shift if shift <= width // 2 else None), shift


def test_classify_overlap_shaped_matrices_match_reference():
    # The classify-overlap shape, scaled down: periods up to
    # width/4 over abcd, fraction 1/4, one registry; rotated copies, copies
    # with one row's phase moved, and unrelated matrices.
    rng = random.Random(10)
    rows_n, width = 24, 96
    matrices, rotations = [], []
    for _ in range(3):
        periods = [rng.randint(1, width // 4) for _ in range(rows_n)]
        base = gen_matrix(periods, width, alphabet=4, rng=rng, strict=True)
        b = len(matrices)
        matrices.append(base)
        for c in (rng.randint(1, width // 2), rng.randrange(math.lcm(*periods))):
            rotations.append((b, len(matrices), c))
            matrices.append(rot_left(base, c))
        moved = list(base)
        i = rng.choice([i for i, p in enumerate(periods) if p > 1])
        moved[i] = periodic_extension(base[i], width, rng.randrange(1, periods[i]))
        matrices.append(moved)
    for _ in range(2):
        periods = [rng.randint(1, width // 4) for _ in range(rows_n)]
        matrices.append(gen_matrix(periods, width, alphabet=4, rng=rng, strict=True))

    reg = NameRegistry()
    classified = [classify_matrix(rows, QUARTER, reg) for rows in matrices]
    references = [reference_class(rows) for rows in matrices]
    for cm, (words, word) in zip(classified, references):
        assert tuple(reg.word(name) for name in cm.key.names) == words
        assert (cm.key.offsets, cm.z, cm.lcm) == (word.offsets, word.z, word.lcm)
    for b, k, c in rotations:
        assert conjugacy_shift(classified[b], classified[k]) == c % classified[b].lcm

    seen = set()
    for a, ref_a, rows_a in zip(classified, references, matrices):
        for b, ref_b, rows_b in zip(classified, references, matrices):
            overlap, shift = reference_answers(ref_a, ref_b, width)
            assert longest_suffix_prefix(a, b) == overlap
            assert conjugacy_shift(a, b) == shift
            assert overlap == max_overlap(rows_a, rows_b, (width + 1) // 2)
            seen.add((overlap is None, shift is None))
    assert seen == {(False, False), (True, False), (True, True)}


# ---------------------------------------------------------------------------
# conjugacy_shift


def test_conjugacy_identity_and_rotation():
    rng = random.Random(2)
    rows = gen_matrix([2, 3, 4], 24, alphabet=3, rng=rng)
    a, a2 = classify_pair(rows, rows, QUARTER)
    assert conjugacy_shift(a, a2) == 0
    a, b = classify_pair(rows, rot_left(rows, 1), QUARTER)
    assert conjugacy_shift(a, b) == 1
    assert conjugacy_shift(b, a) == (-1) % a.lcm


def test_conjugacy_distinct_classes():
    a, b = classify_pair(["aaaa"] * 2, ["bbbb"] * 2, QUARTER)
    assert conjugacy_shift(a, b) is None


def test_conjugacy_query_validation():
    reg = NameRegistry()
    a = classify_matrix(["aaaa"] * 2, QUARTER, reg)
    b = classify_matrix(["aaaa"] * 3, QUARTER, reg)
    with pytest.raises(InvalidQuery):
        conjugacy_shift(a, b)
    c = classify_matrix(["aaaa"] * 2, QUARTER)  # separate registry
    with pytest.raises(InvalidQuery):
        conjugacy_shift(a, c)
    d = classify_matrix(["aaaa"] * 2, HALF, reg)  # other fraction, same class
    assert conjugacy_shift(a, d) == 0


@pytest.mark.parametrize(
    "fraction", ["abc", "1/0", float("nan"), float("inf"), None, 0, Fraction(3, 4)]
)
def test_classify_rejects_bad_fraction(fraction):
    with pytest.raises(InvalidInput):
        classify_matrix(["abab", "aaaa"], fraction)


def test_queries_compare_across_fractions():
    reg = NameRegistry()
    rows = gen_matrix([2, 3, 1, 4], 16, alphabet=3, rng=random.Random(4))
    a = classify_matrix(rows, "1/4", reg)
    b = classify_matrix(rot_left(rows, 3), Fraction(1, 4), reg)
    assert conjugacy_shift(a, b) == 3
    assert longest_suffix_prefix(a, b) == 13
    # the fraction only admits rows: at 1/2 the same rows get the same key,
    # z and LCM, and compare with matrices classified at 1/4
    half = classify_matrix(rows, HALF, reg)
    assert (half.key, half.z, half.lcm) == (a.key, a.z, a.lcm)
    assert conjugacy_shift(half, classify_matrix(rows, QUARTER, reg)) == 0
    assert conjugacy_shift(half, b) == 3
    assert longest_suffix_prefix(half, b) == 13


def test_conjugacy_roundtrip_random():
    rng = random.Random(3)
    for _ in range(150):
        m = rng.randint(1, 6)
        periods = [rng.randint(1, 4) for _ in range(m)]
        width = 4 * max(periods)
        rows = gen_matrix(periods, width, alphabet=3, rng=rng, strict=True)
        c = rng.randrange(0, 40)
        a, b = classify_pair(rows, rot_left(rows, c), QUARTER)
        assert conjugacy_shift(a, b) == c % a.lcm


# ---------------------------------------------------------------------------
# longest_suffix_prefix


def test_overlap_identical():
    rows = gen_matrix([2, 4, 1], 16, alphabet=3, rng=random.Random(4), strict=True)
    a, b = classify_pair(rows, rows, QUARTER)
    assert longest_suffix_prefix(a, b) == 16


def test_overlap_shift_two_of_six():
    # width 8 with row periods {1,2,3}: joint repeat 6, rotate by 2 -> overlap 6
    rows = ["aaaaaaaa", "abababab", "abcabcab"]
    a, b = classify_pair(rows, rot_left(rows, 2), Fraction(3, 8))
    assert (a.z - b.z) % a.lcm == 2
    assert a.lcm == 6
    assert longest_suffix_prefix(a, b) == 6
    assert max_overlap(rows, rot_left(rows, 2), 4) == 6


def test_overlap_distinct_classes():
    # same name sequence, phases shifted inconsistently: different offsets
    rows_a = ["abababab", "abababab"]
    rows_b = ["abababab", "babababa"]
    a, b = classify_pair(rows_a, rows_b, QUARTER)
    assert a.key.names == b.key.names
    assert a.key.offsets != b.key.offsets
    assert longest_suffix_prefix(a, b) is None
    assert max_overlap(rows_a, rows_b, 4) is None


def test_overlap_shift_too_wide():
    # rotation by more than half the width leaves no in-contract overlap
    rows = gen_matrix([5, 7], 56, alphabet=3, rng=random.Random(5), strict=True)
    a, b = classify_pair(rows, rot_left(rows, 30), QUARTER)
    assert a.lcm == 35
    assert (a.z - b.z) % a.lcm == 30
    assert longest_suffix_prefix(a, b) is None
    assert max_overlap(rows, rot_left(rows, 30), 28) is None


def test_overlap_query_validation():
    reg = NameRegistry()
    a = classify_matrix(["aaaa"] * 2, QUARTER, reg)
    b = classify_matrix(["aaaaaaaa"] * 2, QUARTER, reg)
    with pytest.raises(InvalidQuery):
        longest_suffix_prefix(a, b)


@pytest.mark.parametrize("fraction", [QUARTER, HALF])
def test_overlap_agrees_with_characters(fraction):
    rng = random.Random(6)
    strict = fraction == QUARTER
    for _ in range(200):
        height = rng.randint(1, 5)
        width = rng.choice([8, 12, 16, 24])
        periods = [rng.randint(1, int(fraction * width)) for _ in range(height)]
        rows_a = gen_matrix(periods, width, alphabet=2, rng=rng, strict=strict)
        if rng.random() < 0.5:
            rows_b = rot_left(rows_a, rng.randrange(0, 2 * width))
        else:
            rows_b = gen_matrix(periods, width, alphabet=2, rng=rng, strict=strict)
        a, b = classify_pair(rows_a, rows_b, fraction)
        expected = max_overlap(rows_a, rows_b, (width + 1) // 2)
        assert longest_suffix_prefix(a, b) == expected


def test_overlap_refuses_what_the_classes_cannot_decide():
    # the last 4 columns of a equal the first 4 of b, half the width, but
    # rows of periods 4 and 3 need 4 + 3 - 1 = 6 columns to share a class
    rows_a, rows_b = ["bbabbbab"], ["bbabbabb"]
    assert max_overlap(rows_a, rows_b, 4) == 4
    a, b = classify_pair(rows_a, rows_b, HALF)
    assert (a.max_period, b.max_period) == (4, 3)
    with pytest.raises(InvalidQuery):
        longest_suffix_prefix(a, b)
    # the classes still decide the pair's conjugacy
    assert conjugacy_shift(a, b) is None


@st.composite
def overlap_pairs(draw, fraction):
    """Two matrices of one shape whose rows take independent periods.

    Each row of a repeats a random word of at most ``fraction * width``
    letters.  Row i of b repeats its own random word, or continues a's last
    k columns, one k >= width/2 per pair, under a random period that those
    columns have, which need not be row i's period in a.
    """
    height = draw(st.integers(1, 4))
    width = draw(st.integers(fraction.denominator, 24))
    limit = int(fraction * width)
    words = st.integers(1, limit).flatmap(lambda p: st.text("ab", min_size=p, max_size=p))
    rows_a = [(w * width)[:width] for w in draw(st.lists(words, min_size=height, max_size=height))]
    k = draw(st.integers((width + 1) // 2, width))
    rows_b = []
    for row in rows_a:
        suffix = row[width - k :]
        periods = [q for q in range(1, limit + 1) if suffix[q:] == suffix[:-q]]
        if draw(st.booleans()):
            word = suffix[: draw(st.sampled_from(periods))]
        else:
            word = draw(words)
        rows_b.append((word * width)[:width])
    return rows_a, rows_b


@pytest.mark.parametrize("fraction", [QUARTER, Fraction(1, 3), HALF])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_overlap_answers_or_refuses_by_its_contract(fraction, data):
    # the query answers the widest overlap of at least half the width, and
    # refuses exactly the pairs of different classes whose rows need more
    # than half the width to share a class
    rows_a, rows_b = data.draw(overlap_pairs(fraction))
    a, b = classify_pair(rows_a, rows_b, fraction)
    width = a.width
    threshold = max(
        p + q - math.gcd(p, q)
        for p, q in zip(map(brute_period, rows_a), map(brute_period, rows_b))
    )
    refused = a.key != b.key and threshold > (width + 1) // 2
    if refused:
        assert fraction > QUARTER
        with pytest.raises(InvalidQuery):
            longest_suffix_prefix(a, b)
    else:
        assert longest_suffix_prefix(a, b) == max_overlap(rows_a, rows_b, (width + 1) // 2)


def test_queries_use_no_characters():
    # the classified values alone answer queries; original rows are gone
    reg = NameRegistry()
    rows = gen_matrix([2, 3], 24, alphabet=3, rng=random.Random(7), strict=True)
    a = classify_matrix(rows, QUARTER, reg)
    b = classify_matrix(rot_left(rows, 3), QUARTER, reg)
    del rows
    assert conjugacy_shift(a, b) == 3
    assert longest_suffix_prefix(a, b) == 21
