"""Multi-pattern 2D dictionary matching over row-periodic data.

Patterns are grouped by their vertical sequence of row class ids, and each
pattern is keyed by its 2D Lyndon word: the canonical offsets of its rows
and the column z where that conjugate begins.  Text search names the rows
of a sliding column window by one lookup of each row's period prefix in the
index's rotation table, feeds the id sequence through a multi-keyword
automaton, and verifies each candidate as a conjugacy query, never
re-reading pattern characters: the candidate's m rows hold a pattern at
shift s exactly when both 2D Lyndon words have the same offsets and
s is congruent to their z difference modulo the joint period.

Between the automaton and verification sits a phase filter.  Rotating a
window by s columns moves each row's Lyndon offset by -s modulo its period,
so the step between adjacent rows' offsets, taken modulo the gcd of their
periods, is the same at every shift.  A report whose steps hash to no
pattern's steps cannot be an occurrence and is dropped unverified; a hash
collision only sends a report on to verification, which stays exact.  The
character-level ground truth, ``brute_search``, lives in
:mod:`lyndon2d.reference`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .classify import summarize_matrix
from .errors import InvalidInput, NotSufficientlyPeriodic
from .lw2d import OpCounter, SummaryColumn, TwoDLWBuilder, alg2_2dlw
from .strings1d import NameRegistry, compute_period, period_fraction

# Search names rows by table lookup and no longer calls least_rotation.  The
# binding stays because perfbench's trace hooks wrap dictmatch.least_rotation
# and its smoke tests expect every hooked span; drop it once the hook list
# follows (ROADMAP item 5).
from .strings1d import least_rotation  # noqa: F401

SENTINEL = -1  # row name that matches no pattern row


@dataclass(frozen=True)
class Occurrence:
    """Top-left corner of one pattern occurrence in the text."""

    pattern: int
    row: int
    col: int


class _Automaton:
    """Aho-Corasick over sequences of integer symbols."""

    def __init__(self) -> None:
        self._goto: list[dict[int, int]] = [{}]
        self._fail: list[int] = [0]
        self._out: list[list] = [[]]

    def insert(self, word: Iterable[int], payload) -> None:
        state = 0
        for sym in word:
            nxt = self._goto[state].get(sym)
            if nxt is None:
                nxt = len(self._goto)
                self._goto.append({})
                self._fail.append(0)
                self._out.append([])
                self._goto[state][sym] = nxt
            state = nxt
        self._out[state].append(payload)

    def build(self) -> None:
        queue = deque(self._goto[0].values())
        while queue:
            state = queue.popleft()
            for sym, child in self._goto[state].items():
                queue.append(child)
                f = self._fail[state]
                while f and sym not in self._goto[f]:
                    f = self._fail[f]
                target = self._goto[f].get(sym, 0)
                self._fail[child] = target if target != child else 0
                self._out[child].extend(self._out[self._fail[child]])

    def scan(self, symbols: Sequence[int]) -> Iterator[tuple[int, object]]:
        """Yield (end_index, payload) for every keyword ending at end_index."""
        state = 0
        goto, fail, out = self._goto, self._fail, self._out
        for idx, sym in enumerate(symbols):
            while state and sym not in goto[state]:
                state = fail[state]
            state = goto[state].get(sym, 0)
            for payload in out[state]:
                yield idx, payload


@dataclass
class PatternGroup:
    """Patterns sharing one vertical sequence of row class ids.

    The shared ids fix the row periods and so the joint period ``lcm``.
    ``entries`` maps a 2D Lyndon word's canonical offsets to the (pattern
    id, z) pairs of the group's patterns with those offsets.
    """

    name_seq: tuple[int, ...]
    periods: tuple[int, ...]
    lcm: int
    entries: dict[tuple[int, ...], list[tuple[int, int]]] = field(default_factory=dict)


@dataclass
class DictionaryIndex:
    """Read-only search structures for one pattern dictionary.

    ``rotations`` maps every rotation ``w[j:] + w[:j]`` of every interned
    word ``w`` to the word's id and the least-rotation offset ``(len(w) - j)
    % len(w)``, so a window row is named by one lookup of its period prefix.
    ``phases`` holds ``hash(_phase_steps(periods, lwpos))`` of every pattern.
    These are in-process ``hash()`` values, not portable across Python
    builds, so the set is rebuilt with the index and never saved.
    """

    registry: NameRegistry
    m: int
    d: int
    fraction: Fraction
    groups: dict[tuple[int, ...], PatternGroup]
    automaton: _Automaton
    rotations: dict[str, tuple[int, int]]
    phases: set[int]


def _phase_steps(periods: Sequence[int], lwpos: Sequence[int]) -> tuple[int, ...]:
    """Entry i is ``(lwpos[i+1] - lwpos[i]) % gcd(periods[i], periods[i+1])``.

    A column rotation moves both offsets by the same amount modulo a common
    divisor of the two periods, so every entry is independent of the shift.
    """
    return tuple(
        [(b - a) % gcd(p, q) for a, b, p, q in zip(lwpos, lwpos[1:], periods, periods[1:])]
    )


def build_index(
    patterns: Sequence[Sequence[str]],
    *,
    max_period_fraction: Fraction | int | float | str = Fraction(1, 4),
) -> DictionaryIndex:
    """Group square patterns by row classes and index their 2D Lyndon words.

    Every pattern must be m x m with each row's period at most
    ``max_period_fraction * m``.  The index is immutable once built and safe
    to share across threads.
    """
    fraction = period_fraction(max_period_fraction)
    if not patterns:
        raise InvalidInput("empty pattern dictionary")
    m = len(patterns[0])
    for pid, pattern in enumerate(patterns):
        if len(pattern) != m or any(len(row) != m for row in pattern):
            raise InvalidInput(f"pattern {pid} is not {m}x{m}")
    registry = NameRegistry()
    groups: dict[tuple[int, ...], PatternGroup] = {}
    phases: set[int] = set()
    for pid, pattern in enumerate(patterns):
        try:
            col = summarize_matrix(pattern, fraction, registry)
        except NotSufficientlyPeriodic as exc:
            raise NotSufficientlyPeriodic(
                f"pattern {pid} {exc}", period=exc.period, row=exc.row
            ) from None
        assert col.names is not None
        lw = alg2_2dlw(col)
        group = groups.get(col.names)
        if group is None:
            group = groups[col.names] = PatternGroup(col.names, col.periods, lw.lcm)
        group.entries.setdefault(lw.offsets, []).append((pid, lw.z))
        phases.add(hash(_phase_steps(col.periods, col.lwpos)))
    automaton = _Automaton()
    for name_seq, group in groups.items():
        automaton.insert(name_seq, group)
    automaton.build()
    rotations: dict[str, tuple[int, int]] = {}
    for name in range(len(registry)):
        word = registry.word(name)
        p = len(word)
        for j in range(p):
            rotations[word[j:] + word[:j]] = (name, (p - j) % p)
    return DictionaryIndex(
        registry, m, len(patterns), fraction, groups, automaton, rotations, phases
    )


class WindowSummaries(NamedTuple):
    """Class ids, periods and Lyndon offsets of every row of one text window.

    A row whose window period exceeds the admissible bound, or whose Lyndon
    word names no pattern row, gets the ``SENTINEL`` id, period 1 and
    offset 0.
    """

    ids: list[int]
    periods: list[int]
    lwpos: list[int]


def verify_candidate(
    window_summaries: SummaryColumn | WindowSummaries,
    group: PatternGroup,
    window_width: int,
    counter: OpCounter | None = None,
    top: int = 0,
) -> list[tuple[int, int]]:
    """Arithmetically verify pattern occurrences against one candidate window.

    ``window_summaries`` covers the m window rows starting at row ``top``
    (it may hold more rows) and those rows must carry the group's name
    sequence.  Their 2D Lyndon word is looked up among the group's; a
    pattern with the same offsets occurs at every shift s in
    [0, window_width - m] with s == z_window - z_pattern modulo the group's
    LCM, which is the ``conjugacy_shift`` of the window and the pattern.
    Returns (pattern id, column offset inside the window) pairs; chargeable
    work is the builder's constant number of arithmetic operations per row
    plus one exact-match lookup.
    """
    m = len(group.periods)
    if counter:
        counter.candidates += 1
        counter.lookups += 1
    builder = TwoDLWBuilder(counter)
    builder.add_rows(window_summaries.periods, window_summaries.lwpos, top, top + m)
    hits: list[tuple[int, int]] = []
    for pid, z_pat in group.entries.get(tuple(builder.offsets), ()):
        if counter:
            counter.tick(1)
        for s in range((builder.z - z_pat) % group.lcm, window_width - m + 1, group.lcm):
            hits.append((pid, s))
    return hits


def _window_summaries(
    rows: Sequence[str], start: int, width: int, index: DictionaryIndex
) -> WindowSummaries:
    # fraction <= 1/2 and width >= m, so the bound meets compute_period's
    # 2*limit <= len contract and p <= limit is p <= fraction*m.
    # A period p <= limit makes piece[:p] primitive, so it is a rotation of
    # an interned word exactly when its least rotation is that word.
    limit = int(index.fraction * index.m)
    lookup = index.rotations.get
    ids: list[int] = []
    periods: list[int] = []
    lwpos: list[int] = []
    stop = start + width
    for row in rows:
        piece = row[start:stop]
        p = compute_period(piece, limit)
        named = lookup(piece[:p]) if p else None
        if named is None:
            ids.append(SENTINEL)
            periods.append(1)
            lwpos.append(0)
        else:
            ids.append(named[0])
            periods.append(p)
            lwpos.append(named[1])
    return WindowSummaries(ids, periods, lwpos)


def _scan_window(
    rows: Sequence[str],
    start: int,
    width: int,
    index: DictionaryIndex,
    counter: OpCounter | None,
) -> set[Occurrence]:
    window = _window_summaries(rows, start, width, index)
    m = index.m
    phases = index.phases
    steps: tuple[int, ...] | None = None
    found: set[Occurrence] = set()
    for end, group in index.automaton.scan(window.ids):
        top = end - m + 1
        if steps is None:
            steps = _phase_steps(window.periods, window.lwpos)
        if hash(steps[top:end]) not in phases:
            continue
        for pid, s in verify_candidate(window, group, width, counter, top):
            found.add(Occurrence(pid, top, start + s))
    return found


def search_text(
    text: Sequence[str],
    index: DictionaryIndex,
    *,
    counter: OpCounter | None = None,
) -> set[Occurrence]:
    """All pattern occurrences found by windowed naming plus verification.

    The text is scanned in column windows of width 3m/2 stepping by m/2, so
    every occurrence start falls inside some window.  Each window row is
    named over the whole window by looking up its period prefix in the
    index's rotation table; rows whose window period exceeds fraction*m, or
    whose period prefix rotates no pattern row's Lyndon word, get a sentinel
    name and generate no candidates.  A run of m names that matches a
    pattern group goes on only when its adjacent rows' phase steps hash
    into ``index.phases``; every true occurrence passes, because its steps
    equal its pattern's.  Verification then computes the run's 2D Lyndon
    word and answers a conjugacy query against the group's patterns with
    one lookup (``verify_candidate``).  The result is sound for any input,
    and complete whenever every window row crossing a true occurrence is
    uniformly periodic across the window (texts assembled from uniformly
    periodic rows always qualify).
    """
    rows = list(text)
    if not rows:
        return set()
    n_cols = len(rows[0])
    if any(len(r) != n_cols for r in rows):
        raise InvalidInput("text rows must share one width")
    m = index.m
    if len(rows) < m or n_cols < m:
        return set()
    step = max(1, m // 2)
    window = m + step
    found: set[Occurrence] = set()
    for start in range(0, n_cols - m + 1, step):
        found |= _scan_window(rows, start, min(window, n_cols - start), index, counter)
    return found

