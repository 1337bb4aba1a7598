from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_LCM, SAMPLE_LWPOS, SAMPLE_MATRIX, SAMPLE_OFFSETS, SAMPLE_PERIODS, SAMPLE_Z
from lyndon2d import CapExceeded, InvalidInput, NameRegistry
from lyndon2d.classify import summarize_matrix
from lyndon2d.lw2d import SummaryColumn, TwoDLWBuilder, alg2_2dlw
from lyndon2d.reference import alg1_2dlw, conjugate_offsets, materialize_lcm_matrix, naive_2dlw
from oracles import random_summary_arrays, rot_left
from lyndon2d.workbench import first_primes

SAMPLE_COLUMN = SummaryColumn(SAMPLE_PERIODS, SAMPLE_LWPOS)

PRIMES_TO_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                 67, 71, 73, 79, 83, 89, 97]


@st.composite
def summary_columns(draw, max_m=10, max_period=8):
    m = draw(st.integers(1, max_m))
    periods = [draw(st.integers(1, max_period)) for _ in range(m)]
    lwpos = [draw(st.integers(0, p - 1)) for p in periods]
    return SummaryColumn(tuple(periods), tuple(lwpos))


def random_column(rng, **kw) -> SummaryColumn:
    periods, lwpos = random_summary_arrays(rng, **kw)
    return SummaryColumn(periods, lwpos)


# ---------------------------------------------------------------------------
# the modular inverse


def test_alg2_every_two_row_column_up_to_period_12():
    # the second row's inverse is taken of rem = p1 % p2 modulo p2 // gcd, so
    # every (rem, period) pair with 0 < rem < period <= 12 is driven here
    pairs = set()
    for p1 in range(1, 13):
        for p2 in range(1, 13):
            if p1 % p2:
                pairs.add((p1 % p2, p2))
            for lw1 in range(p1):
                for lw2 in range(p2):
                    col = SummaryColumn((p1, p2), (lw1, lw2))
                    assert alg2_2dlw(col) == naive_2dlw(col)
    assert pairs == {(rem, p) for p in range(1, 13) for rem in range(1, p)}


# ---------------------------------------------------------------------------
# conjugate_offsets


def test_conjugate_offsets_sample_column():
    assert conjugate_offsets(SAMPLE_COLUMN, 2) == SAMPLE_OFFSETS
    assert conjugate_offsets(SAMPLE_COLUMN, 0) == SAMPLE_LWPOS


def test_conjugate_offsets_against_rotated_characters():
    rng = random.Random(3)
    reg = NameRegistry()
    for _ in range(50):
        from lyndon2d.workbench import gen_matrix

        m = rng.randint(1, 6)
        periods = [rng.randint(1, 4) for _ in range(m)]
        width = 8 * max(periods)
        rows = gen_matrix(periods, width, alphabet=3, rng=rng)
        col = summarize_matrix(rows, Fraction(1, 2), reg)
        c = rng.randrange(1, 50)
        rotated = summarize_matrix(rot_left(rows, c), Fraction(1, 2), reg)
        assert conjugate_offsets(col, c) == rotated.lwpos


# ---------------------------------------------------------------------------
# the three algorithms, golden cases


def test_naive_sample_golden():
    word = naive_2dlw(SAMPLE_COLUMN)
    assert word.offsets == SAMPLE_OFFSETS
    assert word.z == SAMPLE_Z
    assert word.lcm == SAMPLE_LCM


def test_naive_unit_periods():
    word = naive_2dlw(SummaryColumn((1, 1, 1), (0, 0, 0)))
    assert word.offsets == (0, 0, 0)
    assert word.z == 0
    assert word.lcm == 1


def test_naive_cap_exceeded_on_primes():
    col = SummaryColumn(tuple(PRIMES_TO_100), tuple(0 for _ in PRIMES_TO_100))
    with pytest.raises(CapExceeded) as info:
        naive_2dlw(col, cap=1 << 22)
    assert info.value.lcm == math.prod(PRIMES_TO_100)
    assert info.value.lcm > 1 << 64


def test_alg1_sample_golden():
    word = alg1_2dlw(SAMPLE_COLUMN)
    assert word.offsets == SAMPLE_OFFSETS
    assert word.z == SAMPLE_Z
    assert word.lcm == 6


def test_alg1_single_row():
    word = alg1_2dlw(SummaryColumn((7,), (5,)))
    assert word.offsets == (0,)
    assert word.z == 5
    assert word.lcm == 7


def test_alg2_sample_golden_and_row2_internals():
    builder = TwoDLWBuilder()
    builder.add_row(2, 0)
    assert builder.z == 0
    z_before, lcm_before = builder.z, builder.lcm
    assert lcm_before == 2
    builder.add_row(3, 2)
    # row 2: gcd(2,3)=1, reduced modulus 3, inverse of 2 mod 3 is 2,
    # first shift (2-0)%3=2, advance x=(2*2)%3=1, offset 0, z=0+1*2=2
    advance = builder.z - z_before
    assert advance % lcm_before == 0
    assert advance // lcm_before == 1
    assert builder.offsets[1] == 0
    assert builder.z == 2
    for p, lw in zip(SAMPLE_PERIODS[2:], SAMPLE_LWPOS[2:]):
        builder.add_row(p, lw)
    assert tuple(builder.offsets) == SAMPLE_OFFSETS
    assert builder.z == SAMPLE_Z
    assert builder.lcm == SAMPLE_LCM


def test_alg2_factor_branch_collapses():
    # second row's period divides the running LCM: offset equals the first shift
    word = alg2_2dlw(SummaryColumn((4, 2), (3, 1)))
    assert word.offsets == (0, (1 - 3) % 2)
    assert word.z == 3
    assert word.lcm == 4


@pytest.mark.parametrize(
    "periods, lwpos",
    [
        ((), ()),  # no rows
        ((2, 3), (1,)),  # unequal lengths
        ((0,), (0,)),  # period 0
        ((2, 3), (1, 3)),  # offset not below its period
    ],
)
def test_alg2_rejects_bad_columns(periods, lwpos):
    col = SummaryColumn(periods, lwpos)  # building checks nothing
    with pytest.raises(InvalidInput):
        alg2_2dlw(col)


def test_builder_rejects_bad_offsets():
    builder = TwoDLWBuilder()
    with pytest.raises(InvalidInput):
        builder.add_row(3, 3)


def builder_state(builder: TwoDLWBuilder) -> tuple:
    return builder.offsets, builder.z, builder.lcm


@settings(deadline=None, max_examples=300)
@given(summary_columns(max_m=14, max_period=12), st.data())
def test_add_rows_matches_add_row(col, data):
    # rows [start, stop) fed in one batch of sliced arrays, optionally after
    # a prefix fed row by row, must give the state of feeding them one by one
    start = data.draw(st.integers(0, col.m))
    stop = data.draw(st.integers(start, col.m))
    fed = data.draw(st.integers(0, start))
    one, batch = TwoDLWBuilder(), TwoDLWBuilder()
    for i in range(fed, stop):
        one.add_row(col.periods[i], col.lwpos[i])
    for i in range(fed, start):
        batch.add_row(col.periods[i], col.lwpos[i])
    batch.add_rows(col.periods[start:stop], col.lwpos[start:stop])
    assert builder_state(batch) == builder_state(one)


# ---------------------------------------------------------------------------
# cross-algorithm properties


def test_triple_agreement_random():
    rng = random.Random(2024)
    for _ in range(1500):
        col = random_column(rng)
        reference = naive_2dlw(col)
        assert alg1_2dlw(col) == reference
        assert alg2_2dlw(col) == reference


@settings(deadline=None, max_examples=200)
@given(summary_columns())
def test_triple_agreement_hypothesis(col):
    reference = naive_2dlw(col)
    assert alg1_2dlw(col) == reference
    assert alg2_2dlw(col) == reference


@settings(deadline=None, max_examples=200)
@given(summary_columns())
def test_offsets_are_conjugate_at_z(col):
    word = alg2_2dlw(col)
    assert word.offsets == conjugate_offsets(col, word.z)


def test_residue_identity_and_first_minimum():
    rng = random.Random(5)
    for _ in range(400):
        col = random_column(rng)
        builder = TwoDLWBuilder()
        for i in range(col.m):
            z_before = builder.z
            lcm_prev = builder.lcm
            builder.add_row(col.periods[i], col.lwpos[i])
            advance = builder.z - z_before
            assert advance % lcm_prev == 0
            p = col.periods[i]
            g = math.gcd(lcm_prev, p)
            first_shift = (col.lwpos[i] - z_before) % p
            assert builder.offsets[i] == first_shift % g
            assert builder.offsets[i] < g
            # agree with the explicit shifted sequence over one full period
            seq = [(first_shift - x * lcm_prev) % p for x in range(p // g)]
            assert min(seq) == builder.offsets[i]
            assert advance // lcm_prev == seq.index(min(seq))


def test_shift_bound_and_sum_identity():
    rng = random.Random(6)
    for _ in range(400):
        col = random_column(rng)
        prefixes = list(itertools.accumulate(col.periods, math.lcm))
        bases = [1] + prefixes[:-1]
        builder = TwoDLWBuilder()
        advances = []
        for i, (p, lw) in enumerate(zip(col.periods, col.lwpos)):
            z_before, lcm_before = builder.z, builder.lcm
            assert lcm_before == bases[i]
            builder.add_row(p, lw)
            diff = builder.z - z_before
            assert diff % lcm_before == 0
            x = diff // lcm_before
            assert 0 <= x < builder.lcm // lcm_before
            advances.append(x)
        assert builder.lcm == prefixes[-1]
        assert 0 <= builder.z < builder.lcm
        assert builder.z == sum(x * b for x, b in zip(advances, bases))


def test_conjugation_canonicity():
    rng = random.Random(7)
    for _ in range(300):
        col = random_column(rng)
        word = alg2_2dlw(col)
        c = rng.randrange(0, word.lcm + 5)
        shifted = SummaryColumn(col.periods, conjugate_offsets(col, c))
        word2 = alg2_2dlw(shifted)
        assert word2.offsets == word.offsets
        assert word2.z == (word.z - c) % word.lcm


def test_all_conjugates_distinct():
    rng = random.Random(8)
    for _ in range(200):
        col = random_column(rng, max_m=8, max_period=6)
        total = math.lcm(*col.periods)
        arrays = {conjugate_offsets(col, c) for c in range(total)}
        assert len(arrays) == total


def test_faithful_mode_matches_bounded():
    rng = random.Random(9)
    for _ in range(200):
        col = random_column(rng, max_m=8, max_period=6)
        assert alg1_2dlw(col, faithful=True) == alg1_2dlw(col)


def test_faithful_mode_cap_guard():
    col = SummaryColumn(tuple(first_primes(25)), tuple([1] * 25))
    with pytest.raises(CapExceeded):
        alg1_2dlw(col, faithful=True, cap=1 << 22)
    # bounded mode handles the same input without a cap
    word = alg1_2dlw(col)
    assert word == alg2_2dlw(col)


# ---------------------------------------------------------------------------
# materialize_lcm_matrix


def test_materialize_truncates_sample_matrix():
    assert materialize_lcm_matrix(SAMPLE_MATRIX) == [row[:6] for row in SAMPLE_MATRIX]


def test_materialize_unit_periods():
    assert materialize_lcm_matrix(["aaaa", "aaaa"]) == ["a", "a"]


def test_materialize_extends_periods():
    from oracles import brute_period

    got = materialize_lcm_matrix(["abab", "abca"])
    assert got == ["ababab", "abcabc"]
    # character-by-character periodic continuation
    for row, ext in zip(["abab", "abca"], got):
        p = brute_period(row)
        assert all(ext[x] == row[x % p] for x in range(len(ext)))


def test_materialize_errors():
    with pytest.raises(CapExceeded):
        materialize_lcm_matrix(
            ["ababab" * 100, ("aabaaab" * 100)[:600]], cap=10
        )
    with pytest.raises(InvalidInput):
        materialize_lcm_matrix(["ab", "abc"])
