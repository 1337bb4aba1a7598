"""Seeded inputs and character-level oracles for the perfbench workloads.

Nothing here imports lyndon2d.  The inputs and the yardstick must stay the
same when the library changes, so generation and checking live with the
benchmark and depend only on the standard library.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

FRACTION_NUM, FRACTION_DEN = 1, 4  # the library's default search fraction


# ---------------------------------------------------------------------------
# words and rows


def primitive_word(rng: random.Random, length: int, letters: str) -> str:
    """Random word of the given length that is not a power of a shorter word."""
    while True:
        word = "".join(rng.choice(letters) for _ in range(length))
        if (word + word).find(word, 1) == length:
            return word


def lyndon_rotation(word: str) -> str:
    return min(word[i:] + word[:i] for i in range(len(word)))


def smallest_period(row: str) -> int:
    """Least p >= 1 with row[i] == row[i + p] wherever both exist."""
    n = len(row)
    return next(p for p in range(1, n + 1) if row[p:] == row[: n - p])


def periodic_row(word: str, phase: int, width: int) -> str:
    """The periodic extension of ``word`` read from column ``phase`` on."""
    p = len(word)
    phase %= p
    return (word * ((phase + width) // p + 1))[phase : phase + width]


def distinct_lyndon_words(rng: random.Random, lengths, letters: str, taken: set) -> list[str]:
    words = []
    for length in lengths:
        while True:
            word = lyndon_rotation(primitive_word(rng, length, letters))
            if word not in taken:
                taken.add(word)
                words.append(word)
                break
    return words


def read_rows(path: Path) -> list[str]:
    """The rows of a matrix file, one per line."""
    return path.read_text(encoding="utf-8").split()


def write_matrices(folder: Path, prefix: str, matrices: list[list[str]]) -> list[Path]:
    """One matrix file per matrix, one row per line; returns the paths."""
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, rows in enumerate(matrices):
        path = folder / f"{prefix}{i:03d}.txt"
        path.write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# search oracle


def find_occurrences(text: list[str], patterns: list[list[str]]) -> set[tuple[int, int, int]]:
    """Every (pattern, row, col) where a square pattern equals the text block.

    Exact: each m-wide text slice is matched against the pattern rows by
    string equality, then each column of row ids against the patterns' id
    sequences by tuple equality.
    """
    m = len(patterns[0])
    row_id: dict[str, int] = {}
    pids_by_key: dict[tuple[int, ...], list[int]] = {}
    for pid, pattern in enumerate(patterns):
        key = tuple(row_id.setdefault(row, len(row_id)) for row in pattern)
        pids_by_key.setdefault(key, []).append(pid)
    first_ids = {key[0] for key in pids_by_key}
    found: set[tuple[int, int, int]] = set()
    n_rows, n_cols = len(text), len(text[0])
    for col in range(n_cols - m + 1):
        ids = [row_id.get(row[col : col + m], -1) for row in text]
        for top in range(n_rows - m + 1):
            if ids[top] in first_ids:
                for pid in pids_by_key.get(tuple(ids[top : top + m]), ()):
                    found.add((pid, top, col))
    return found


@dataclass
class SearchInputs:
    """Pattern and text files of one search workload plus the oracle's answers."""

    pattern_paths: list[Path]
    text_paths: list[Path]
    patterns: list[list[str]]
    texts: list[list[str]]
    expected: list[set[tuple[int, int, int]]]
    m: int


# ---------------------------------------------------------------------------
# search-periodic: stripe textures, candidates at almost every window row


@dataclass(frozen=True)
class PeriodicSpec:
    single_rows: int = 192  # a single-class band: a candidate at almost every row
    alt_rows: int = 64  # an alternating band: a candidate at every other row
    cols: int = 256
    m: int = 32
    single_groups: int = 6
    alt_groups: int = 6
    per_group: int = 25
    texts: int = 16
    plants: int = 4
    letters: str = "abcd"
    single_periods: tuple[int, int] = (5, 8)  # range; keeps occurrences per plant similar
    alt_periods: tuple[int, int] = (5, 8)  # LCM 40 > m: the head-split regime


def _group_row_words(group: tuple[str, ...], m: int) -> list[str]:
    return [group[i % len(group)] for i in range(m)]


def gen_periodic(spec: PeriodicSpec, seed: int, out: Path) -> SearchInputs:
    """Patterns in single-class and alternating groups; texts of two stripe bands.

    Every text row is the periodic extension of a group word, so each row is
    periodic across every window.  A single-class group repeats one Lyndon
    word (LCM = p <= m); an alternating group alternates periods 5 and 8.
    Each text stacks one band of each kind, in random order.
    """
    rng = random.Random(f"search-periodic:{seed}")
    m = spec.m
    if spec.single_rows % m or spec.alt_rows % m or m % 2:
        raise ValueError("band heights must be multiples of an even m")
    if max(spec.single_periods + spec.alt_periods) * FRACTION_DEN > m * FRACTION_NUM:
        raise ValueError("group periods exceed m/4")
    taken: set[str] = set()
    singles = [
        (word,)
        for word in distinct_lyndon_words(
            rng,
            [rng.randint(*spec.single_periods) for _ in range(spec.single_groups)],
            spec.letters,
            taken,
        )
    ]
    alts = [
        tuple(distinct_lyndon_words(rng, spec.alt_periods, spec.letters, taken))
        for _ in range(spec.alt_groups)
    ]
    patterns: list[list[str]] = []
    pattern_group: list[tuple[str, ...]] = []
    for group in singles + alts:
        words = _group_row_words(group, m)
        for _ in range(spec.per_group):
            phases = [rng.randrange(len(w)) for w in words]
            patterns.append([periodic_row(w, ph, m) for w, ph in zip(words, phases)])
            pattern_group.append(group)

    texts = []
    for _ in range(spec.texts):
        bands = [(rng.choice(singles), spec.single_rows), (rng.choice(alts), spec.alt_rows)]
        rng.shuffle(bands)
        text: list[str] = []
        slots = []  # (top row, group) of every m-row slot a pattern can be planted in
        for group, height in bands:
            slots += [(len(text) + i, group) for i in range(0, height, m)]
            for word in _group_row_words(group, height):
                text.append(periodic_row(word, rng.randrange(len(word)), spec.cols))
        for top, group in rng.sample(slots, spec.plants):
            pid = rng.choice([i for i, g in enumerate(pattern_group) if g == group])
            col = rng.randrange(spec.cols - m + 1)
            for i, (word, row) in enumerate(zip(_group_row_words(group, m), patterns[pid])):
                phase = (len(word) + (word * 2).find(row[: len(word)]) - col) % len(word)
                text[top + i] = periodic_row(word, phase, spec.cols)
        texts.append(text)
    return SearchInputs(
        write_matrices(out / "patterns", "p", patterns),
        write_matrices(out / "texts", "t", texts),
        patterns,
        texts,
        [find_occurrences(text, patterns) for text in texts],
        m,
    )


# ---------------------------------------------------------------------------
# search-noise: random text with planted periodic patterns


@dataclass(frozen=True)
class NoiseSpec:
    rows: int = 256
    cols: int = 256
    m: int = 16
    patterns: int = 300
    texts: int = 16
    plants: int = 100
    letters: str = "abc"


def gen_noise(spec: NoiseSpec, seed: int, out: Path) -> SearchInputs:
    """Random text over a 3-letter alphabet with non-overlapping planted patterns.

    Pattern rows have periods of at most m/4.  Plants do not overlap, so
    each stays intact; the oracle still counts every occurrence, planted or
    not.
    """
    rng = random.Random(f"search-noise:{seed}")
    m = spec.m
    max_p = m * FRACTION_NUM // FRACTION_DEN
    patterns = []
    for _ in range(spec.patterns):
        rows = []
        for _ in range(m):
            word = primitive_word(rng, rng.randint(1, max_p), spec.letters)
            rows.append(periodic_row(word, rng.randrange(len(word)), m))
        patterns.append(rows)

    texts = []
    for _ in range(spec.texts):
        grid = [
            [rng.choice(spec.letters) for _ in range(spec.cols)] for _ in range(spec.rows)
        ]
        placed: list[tuple[int, int]] = []
        attempts = 0
        while len(placed) < spec.plants and attempts < 100 * spec.plants:
            attempts += 1
            top = rng.randrange(spec.rows - m + 1)
            col = rng.randrange(spec.cols - m + 1)
            if any(abs(top - t) < m and abs(col - c) < m for t, c in placed):
                continue
            placed.append((top, col))
            for i, row in enumerate(patterns[rng.randrange(spec.patterns)]):
                grid[top + i][col : col + m] = row
        texts.append(["".join(row) for row in grid])
    return SearchInputs(
        write_matrices(out / "patterns", "p", patterns),
        write_matrices(out / "texts", "t", texts),
        patterns,
        texts,
        [find_occurrences(text, patterns) for text in texts],
        m,
    )


# ---------------------------------------------------------------------------
# classify-overlap: conjugacy and overlap oracle


def crt(residues: list[int], moduli: list[int]) -> int | None:
    """Least c >= 0 with c = residues[i] (mod moduli[i]) for all i, or None."""
    x, mod = 0, 1
    for r, p in zip(residues, moduli):
        g = math.gcd(mod, p)
        if (r - x) % g:
            return None
        reduced = p // g
        if reduced > 1:
            t = ((r - x) // g) * pow(mod // g, -1, reduced) % reduced
            x += mod * t
        mod *= reduced
        x %= mod
    return x


@dataclass
class Matrix:
    rows: list[str]
    periods: tuple[int, ...]


def conjugacy_oracle(a: Matrix, b: Matrix) -> int | None:
    """Rotation c in [0, lcm) taking a's horizontal repetition to b's, or None.

    Each row's residue is found by comparing characters over one period;
    the residues are then combined by the Chinese remainder theorem.
    """
    if a.periods != b.periods or len(a.rows[0]) != len(b.rows[0]):
        return None
    residues = []
    for row_a, row_b, p in zip(a.rows, b.rows, a.periods):
        c = (row_a[:p] * 2).find(row_b[:p])
        if c < 0 or c >= p:
            return None
        residues.append(c)
    return crt(residues, list(a.periods))


def overlap_oracle(a: Matrix, b: Matrix, shift: int | None) -> int | None:
    """Widest suffix of a equal to a prefix of b, if at least half the width.

    An overlap of w >= width/2 columns spans two periods of every row, so it
    exists exactly when the rotation s = width - w is a conjugacy shift; the
    widest one uses the least shift.  Positive answers are re-checked on the
    characters.
    """
    width = len(a.rows[0])
    if shift is None or shift > width // 2:
        return None
    w = width - shift
    if any(ra[width - w :] != rb[:w] for ra, rb in zip(a.rows, b.rows)):
        raise AssertionError("overlap oracle disagrees with the characters")
    return w


def pair_answers(a: Matrix, b: Matrix) -> tuple[int | None, int | None]:
    """(longest_suffix_prefix, conjugacy_shift) as the oracle computes them."""
    shift = conjugacy_oracle(a, b)
    return overlap_oracle(a, b, shift), shift


@dataclass(frozen=True)
class OverlapSpec:
    rows: int = 128
    width: int = 256
    bases: int = 8
    rotations: int = 3
    perturbed: int = 2
    probes: int = 32
    letters: str = "abcd"


@dataclass
class OverlapInputs:
    library_paths: list[Path]
    probe_paths: list[Path]
    library: list[Matrix]
    probes: list[Matrix]
    expected: list[list[tuple[int | None, int | None]]]  # [probe][library entry]
    expected_bulk: list[tuple[int | None, int | None]]  # all (a, b) library pairs


def gen_overlap(spec: OverlapSpec, seed: int, out: Path) -> OverlapInputs:
    """Library of base matrices, rotated copies and one-row perturbations.

    Row periods go up to width/4, so the joint LCM of a base has tens of
    digits.  Rotations are either small (an overlap exists) or drawn from the
    whole LCM.  Probes mix exact library copies, new rotations, new
    perturbations and unrelated matrices.
    """
    rng = random.Random(f"classify-overlap:{seed}")
    max_p = spec.width * FRACTION_NUM // FRACTION_DEN

    def new_base():
        periods = [rng.randint(1, max_p) for _ in range(spec.rows)]
        words = [primitive_word(rng, p, spec.letters) for p in periods]
        return words, [rng.randrange(p) for p in periods]

    def build(base, shift=0, perturb=None) -> Matrix:
        words, phases = base
        rows = []
        for i, (word, phase) in enumerate(zip(words, phases)):
            if perturb is not None and perturb[0] == i:
                phase += perturb[1]
            rows.append(periodic_row(word, phase + shift, spec.width))
        return Matrix(rows, tuple(len(w) for w in words))

    def rotation(base, small: bool) -> int:
        if small:
            return rng.randint(1, spec.width // 2)
        return rng.randrange(math.lcm(*(len(w) for w in base[0])))

    def perturbation(base) -> tuple[int, int]:
        row = rng.choice([i for i, w in enumerate(base[0]) if len(w) > 1])
        return row, rng.randrange(1, len(base[0][row]))

    bases = [new_base() for _ in range(spec.bases)]
    library: list[Matrix] = []
    for base in bases:
        library.append(build(base))
        for k in range(spec.rotations):
            library.append(build(base, shift=rotation(base, small=k % 2 == 0)))
        for _ in range(spec.perturbed):
            library.append(build(base, perturb=perturbation(base)))
    probes: list[Matrix] = []
    for k in range(spec.probes):
        kind = k % 5
        base = rng.choice(bases)
        if kind == 0:
            probes.append(library[rng.randrange(len(library))])
        elif kind in (1, 2):
            probes.append(build(base, shift=rotation(base, small=kind == 1)))
        elif kind == 3:
            probes.append(build(base, perturb=perturbation(base)))
        else:
            probes.append(build(new_base()))
    return OverlapInputs(
        write_matrices(out / "library", "l", [matrix.rows for matrix in library]),
        write_matrices(out / "probes", "q", [matrix.rows for matrix in probes]),
        library,
        probes,
        [[pair_answers(q, entry) for entry in library] for q in probes],
        [pair_answers(a, b) for a in library for b in library],
    )
