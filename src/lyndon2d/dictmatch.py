"""Multi-pattern 2D dictionary matching over row-periodic data.

Patterns are grouped by their vertical sequence of row class ids.  Within a
group, each pattern is indexed by the canonical offsets of its first r rows
(r chosen so the running period LCM first outgrows the pattern width) plus
the raw Lyndon offsets of the remaining rows re-based to the canonical
column.  Text search names the rows of a sliding column window by one lookup
of each row's period prefix in the index's rotation table, feeds the id
sequence through a multi-keyword automaton, and verifies each candidate
arithmetically, never re-reading pattern characters.

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
from .lw2d import OpCounter, SummaryColumn, TwoDLWBuilder, lcm_prefixes
from .strings1d import NameRegistry, compute_period

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

    ``r`` counts the head rows whose canonical offsets key the subgroups:
    the smallest count whose running LCM exceeds the pattern width, or all
    rows when the LCM never does.  ``grow`` counts the head rows up to the
    last one that changes the running LCM; the builder's step for every
    later head row leaves z alone.  Subgroup entries map the re-based offset
    array of the remaining rows to (pattern id, head shift) pairs.
    """

    name_seq: tuple[int, ...]
    periods: tuple[int, ...]
    r: int
    lcm_prefix_r: tuple[int, ...]
    subgroups: dict[tuple[int, ...], dict[tuple[int, ...], list[tuple[int, int]]]] = field(
        default_factory=dict
    )
    grow: int = field(init=False)

    def __post_init__(self) -> None:
        self.grow = self.lcm_prefix_r.index(self.lcm_prefix_r[-1]) + 1


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


def _head_row_count(periods: Sequence[int], m: int) -> tuple[int, tuple[int, ...]]:
    prefixes = lcm_prefixes(periods)
    for i, value in enumerate(prefixes):
        if value > m:
            return i + 1, tuple(prefixes[: i + 1])
    return len(periods), tuple(prefixes)


def build_index(
    patterns: Sequence[Sequence[str]],
    *,
    max_period_fraction: Fraction | int | float | str = Fraction(1, 4),
) -> DictionaryIndex:
    """Group square patterns by row classes and index their canonical heads.

    Every pattern must be m x m with each row's period at most
    ``max_period_fraction * m``.  The index is immutable once built and safe
    to share across threads.
    """
    if not patterns:
        raise InvalidInput("empty pattern dictionary")
    m = len(patterns[0])
    for pid, pattern in enumerate(patterns):
        if len(pattern) != m or any(len(row) != m for row in pattern):
            raise InvalidInput(f"pattern {pid} is not {m}x{m}")
    fraction = Fraction(max_period_fraction)
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
        group = groups.get(col.names)
        if group is None:
            r, prefix = _head_row_count(col.periods, m)
            if r < m:
                assert prefix[-2] <= m < prefix[-1]
            group = PatternGroup(col.names, col.periods, r, prefix)
            groups[col.names] = group
        _insert_pattern(group, col, pid)
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


def _head_key(
    periods: Sequence[int],
    lwpos: Sequence[int],
    top: int,
    group: PatternGroup,
    counter: OpCounter | None = None,
) -> tuple[tuple[int, ...], int]:
    """Canonical offsets and shift z of the group's head rows starting at ``top``.

    Only the first ``group.grow`` rows go through the builder.  The LCM they
    reach is the head's LCM, which every later head period divides, so each
    later row takes the builder's ``rem == 0`` step: z stays and the offset
    is the row's Lyndon offset re-based to z.  Those rows are charged the
    builder's 8 operations each all the same.
    """
    grow, r = group.grow, group.r
    builder = TwoDLWBuilder(counter)
    builder.add_rows(periods, lwpos, top, top + grow)
    z = builder.z
    if counter:
        counter.tick(8 * (r - grow))
    return tuple(builder.offsets) + _tail_key(periods, lwpos, top + grow, top + r, z), z


def _tail_key(
    periods: Sequence[int], lwpos: Sequence[int], start: int, stop: int, z: int
) -> tuple[int, ...]:
    """Lyndon offsets of rows ``start`` to ``stop - 1`` re-based to column z."""
    return tuple([(lwpos[i] - z) % periods[i] for i in range(start, stop)])


def _insert_pattern(group: PatternGroup, col: SummaryColumn, pid: int) -> None:
    head, z_head = _head_key(col.periods, col.lwpos, 0, group)
    tail = _tail_key(col.periods, col.lwpos, group.r, col.m, z_head)
    group.subgroups.setdefault(head, {}).setdefault(tail, []).append((pid, z_head))


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
    sequence.  Returns (pattern id, column offset inside the window) pairs;
    chargeable work is a constant number of arithmetic operations per row
    plus a constant number of exact-match lookups.
    """
    periods, lwpos = window_summaries.periods, window_summaries.lwpos
    m, r = len(group.periods), group.r
    if counter:
        counter.candidates += 1
    head, z_head = _head_key(periods, lwpos, top, group, counter)
    subgroup = group.subgroups.get(head)
    if counter:
        counter.lookups += 1
    if subgroup is None:
        return []
    hits: list[tuple[int, int]] = []
    lcm_head = group.lcm_prefix_r[-1]
    if r == m:
        # Degenerate regime: the running LCM never outgrew the width, so one
        # congruence class of shifts can repeat inside the window.
        if counter:
            counter.lookups += 1
        for pid, z_pat in subgroup.get((), []):
            start = (z_head - z_pat) % lcm_head
            if counter:
                counter.tick(1)
            for s in range(start, window_width - m + 1, lcm_head):
                hits.append((pid, s))
        return hits
    for w in (0, lcm_head):
        shifted = z_head + w
        tail = _tail_key(periods, lwpos, top + r, top + m, shifted)
        if counter:
            counter.tick(m - r)
            counter.lookups += 1
        for pid, z_pat in subgroup.get(tail, []):
            s = shifted - z_pat
            if counter:
                counter.tick(1)
            if 0 <= s <= window_width - m:
                hits.append((pid, s))
    # The two alignments are one full head-LCM apart, which exceeds the
    # admissible shift range, so a pattern can land at most once.
    assert len({pid for pid, _ in hits}) == len(hits)
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
    pattern group is verified only when its adjacent rows' phase steps hash
    into ``index.phases``; every true occurrence passes, because its steps
    equal its pattern's.  The result is sound for any input, and complete
    whenever every window row crossing a true occurrence is uniformly
    periodic across the window (texts assembled from uniformly periodic
    rows always qualify).
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

