"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; expected values follow the worked examples and the brute-force
oracles in oracles.py.
"""

from __future__ import annotations

import functools
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import SAMPLE_LCM, SAMPLE_LWPOS, SAMPLE_MATRIX, SAMPLE_OFFSETS, SAMPLE_PERIODS, SAMPLE_Z
from lyndon2d import (
    CapExceeded,
    NameRegistry,
    OpCounter,
    build_index,
    classify_matrix,
    longest_suffix_prefix,
    search_text,
)
from lyndon2d.classify import summarize_matrix
from lyndon2d.dictmatch import verify_candidate
from lyndon2d.lw2d import SummaryColumn, alg2_2dlw
from lyndon2d.reference import alg1_2dlw, brute_search, conjugate_offsets, naive_2dlw
from lyndon2d.strings1d import compute_period, summarize_row
from lyndon2d.workbench import first_primes, gen_matrix, run_bench
from oracles import (
    max_overlap,
    named_by_definition,
    occurs_at,
    periodic_extension,
    random_summary_arrays,
    rot_left,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL", flush=True)
                raise
            print(f"[acceptance] {label}: PASS", flush=True)

        return wrapper

    return decorate


# ---------------------------------------------------------------------------


@criterion("criterion 1: worked-example matrix classification")
def test_criterion_01_figure_golden():
    started = time.perf_counter()
    registry = NameRegistry()
    col = summarize_matrix(SAMPLE_MATRIX, HALF, registry)
    words = [naive_2dlw(col), alg1_2dlw(col), alg2_2dlw(col)]
    elapsed = time.perf_counter() - started
    assert col.periods == SAMPLE_PERIODS
    assert col.lwpos == SAMPLE_LWPOS
    for word in words:
        assert word.offsets == SAMPLE_OFFSETS
        assert word.z == SAMPLE_Z
        assert word.lcm == SAMPLE_LCM
    assert words[0] == words[1] == words[2]
    assert elapsed < 0.010


@criterion("criterion 2: 1D worked example naming")
def test_criterion_02_one_dimensional_golden():
    started = time.perf_counter()
    registry = NameRegistry()
    t1 = summarize_row("abbaabbaabbaabbaab", registry, HALF)
    t2 = summarize_row("aabbaabbaabbaabbaa", registry, HALF)
    elapsed = time.perf_counter() - started
    assert t1.name == t2.name
    assert registry.word(t1.name) == "aabb"
    assert t1.lwpos == 3
    assert t2.lwpos == 0
    assert elapsed < 0.010


@criterion("criterion 3: oracle equivalence on 10,000 random columns")
def test_criterion_03_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(331)
    for trial in range(10_000):
        periods, lwpos = random_summary_arrays(rng, max_m=12, max_period=8)
        col = SummaryColumn(periods, lwpos)
        reference = naive_2dlw(col)
        assert alg1_2dlw(col) == reference, trial
        assert alg2_2dlw(col) == reference, trial
        if trial % 40 == 0:
            # independent minimality re-check against every conjugate
            for c in range(reference.lcm):
                assert conjugate_offsets(col, c) >= reference.offsets
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0


@criterion("criterion 4: conjugation canonicity on 1,000 matrices")
def test_criterion_04_conjugation_canonicity():
    started = time.perf_counter()
    rng = random.Random(442)
    for trial in range(1_000):
        strict = trial % 2 == 0
        fraction = QUARTER if strict else HALF
        height = rng.randint(1, 8)
        width = rng.choice([8, 12, 16])
        max_period = width // 4 if strict else width // 2
        periods = [rng.randint(1, max_period) for _ in range(height)]
        rows = gen_matrix(periods, width, alphabet=3, rng=rng, strict=strict)
        registry = NameRegistry()
        base = classify_matrix(rows, fraction, registry)
        c = rng.randrange(0, 3 * base.lcm)
        rotated = classify_matrix(rot_left(rows, c), fraction, registry)
        assert rotated.key == base.key, trial
        assert rotated.z == (base.z - c) % base.lcm, trial
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0


@criterion("criterion 5: exponential-LCM scalability")
def test_criterion_05_exponential_lcm():
    primes = first_primes(25)
    assert primes[-1] == 97
    rows = gen_matrix(primes, 404, alphabet=3, rng=random.Random(5), strict=True)
    col = summarize_matrix(rows, QUARTER, NameRegistry())
    assert col.periods == tuple(primes)

    with pytest.raises(CapExceeded) as info:
        naive_2dlw(col)
    assert info.value.lcm == math.prod(primes)
    assert info.value.lcm > 1 << 64

    started = time.perf_counter()
    fast = alg2_2dlw(col)
    t_alg2 = time.perf_counter() - started
    started = time.perf_counter()
    bounded = alg1_2dlw(col)
    t_alg1 = time.perf_counter() - started
    assert fast == bounded
    assert fast.lcm == math.prod(primes)
    assert t_alg2 < 0.100
    assert t_alg1 < 0.100


@criterion("criterion 6: suffix-prefix queries vs character oracle, 1,000 pairs")
def test_criterion_06_suffix_prefix_oracle():
    started = time.perf_counter()
    rng = random.Random(663)
    in_contract = 0
    for trial in range(1_000):
        height = rng.randint(1, 6)
        width = rng.choice([8, 12, 16, 20, 24, 32])
        periods = [rng.randint(1, width // 4) for _ in range(height)]
        rows_a = gen_matrix(periods, width, alphabet=2, rng=rng, strict=True)
        kind = trial % 3
        if kind == 0:
            rows_b = rot_left(rows_a, rng.randrange(0, 2 * width))
        elif kind == 1:
            # perturb one row's phase, usually breaking the class
            rows_b = list(rows_a)
            idx = rng.randrange(height)
            rows_b[idx] = periodic_extension(rows_a[idx], width, 1)
        else:
            rows_b = gen_matrix(periods, width, alphabet=2, rng=rng, strict=True)
        registry = NameRegistry()
        a = classify_matrix(rows_a, QUARTER, registry)
        b = classify_matrix(rows_b, QUARTER, registry)
        expected = max_overlap(rows_a, rows_b, (width + 1) // 2)
        assert longest_suffix_prefix(a, b) == expected, trial
        if expected is not None:
            in_contract += 1
    assert in_contract > 200  # both outcomes well represented
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# dictionary matching fixtures shared by criteria 7 and 9


@pytest.fixture(scope="module")
def planted_search():
    rng = random.Random(777)
    m, d, size = 16, 10, 256
    patterns = []
    for _ in range(d):
        periods = [rng.randrange(1, 5) for _ in range(m)]
        patterns.append(gen_matrix(periods, m, alphabet=3, rng=rng, strict=True))
    text: list[str] = []
    while len(text) < size:
        pattern = patterns[rng.randrange(d)]
        shift = rng.randrange(12)
        for row in pattern:
            if len(text) >= size:
                break
            text.append(periodic_extension(row, size, shift))
    index = build_index(patterns)
    counter = OpCounter()
    started = time.perf_counter()
    found = search_text(text, index, counter=counter)
    search_seconds = time.perf_counter() - started
    started = time.perf_counter()
    expected = brute_search(text, patterns)
    brute_seconds = time.perf_counter() - started
    return {
        "m": m,
        "patterns": patterns,
        "text": text,
        "found": found,
        "expected": expected,
        "counter": counter,
        "search_seconds": search_seconds,
        "brute_seconds": brute_seconds,
    }


@criterion("criterion 7: dictionary matching end-to-end on 256x256 text")
def test_criterion_07_dictionary_end_to_end(planted_search):
    found = planted_search["found"]
    expected = planted_search["expected"]
    assert len(expected) >= 20
    assert found == expected
    assert planted_search["search_seconds"] < 5.0
    assert planted_search["brute_seconds"] < 60.0
    patterns = planted_search["patterns"]
    text = planted_search["text"]
    for occ in found:
        assert occurs_at(text, patterns[occ.pattern], occ.row, occ.col)


@criterion("criterion 8: arithmetic verification vs characters, exhaustive family")
def test_criterion_08_verification_exhaustive():
    started = time.perf_counter()
    rng = random.Random(888)
    m = 8
    window_width = 12  # 3m/2
    patterns = []
    # force a joint period above the width into the family alongside groups
    # whose shifts repeat inside the window
    patterns.append(gen_matrix([3, 4, 2, 3, 1, 4, 2, 3], m, alphabet=3, rng=rng))
    for _ in range(39):
        periods = [rng.randrange(1, 5) for _ in range(m)]
        patterns.append(gen_matrix(periods, m, alphabet=3, rng=rng))
    index = build_index(patterns, max_period_fraction=HALF)
    assert any(g.lcm > m for g in index.groups.values())
    assert any(g.lcm <= window_width - m for g in index.groups.values())
    assert all(g.lcm <= 64 for g in index.groups.values())

    windows = []
    for pattern in patterns:
        lcm = math.lcm(*[compute_period(row) for row in pattern])
        for c in range(lcm):
            windows.append([periodic_extension(row, window_width, c) for row in pattern])
    for _ in range(200):
        periods = [rng.randrange(1, 5) for _ in range(m)]
        windows.append(gen_matrix(periods, window_width, alphabet=3, rng=rng))

    pairs = 0
    for window in windows:
        summary = named_by_definition(window, 0, window_width, index)
        group = index.groups.get(summary.names)
        if group is None:
            continue
        col = SummaryColumn(tuple(summary.periods), tuple(summary.lwpos))
        verdicts = set(verify_candidate(col, group, 0, window_width))
        in_group = {pid for entries in group.entries.values() for pid, _ in entries}
        for pid in in_group:
            pairs += 1
            for s in range(window_width - m + 1):
                arithmetic = (pid, s) in verdicts
                characters = occurs_at(window, patterns[pid], 0, s)
                assert arithmetic == characters, (pid, s)
    assert pairs > 100
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0


@criterion("criterion 9: verification cost stays within 16 operations per row")
def test_criterion_09_verification_cost(planted_search):
    counter = planted_search["counter"]
    m = planted_search["m"]
    assert counter.candidates > 0
    assert counter.ops <= 16 * m * counter.candidates
    assert counter.lookups <= 3 * counter.candidates


@criterion("criterion 10: benchmark trend and cross-checked outputs")
def test_criterion_10_benchmark_trend():
    started = time.perf_counter()
    prime_rows = run_bench("prime-lcm", [32, 64, 128, 256], repeats=5, seed=10)
    for row in prime_rows:
        assert row["t_naive_ns"] is None  # cap-blocked
        assert row["lcm"] > 1 << 22
    xs = [math.log(row["m"]) for row in prime_rows]
    ys = [math.log(row["t_alg2_ns"]) for row in prime_rows]
    n = len(xs)
    slope = (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) / (
        n * sum(x * x for x in xs) - sum(xs) ** 2
    )
    assert slope < 2.0, f"fitted exponent {slope:.2f} is not subquadratic"

    small_rows = run_bench("small-lcm", [8, 16, 32], repeats=3, seed=11)
    for row in small_rows:  # cross-verified inside the harness before timing
        assert row["t_naive_ns"] is not None
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
