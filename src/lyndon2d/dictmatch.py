"""Multi-pattern 2D dictionary matching over row-periodic data.

Patterns are grouped by their vertical sequence of row class ids.  Within a
group, each pattern is indexed by the canonical offsets of its first r rows
(r chosen so the running period LCM first outgrows the pattern width) plus
the raw Lyndon offsets of the remaining rows re-based to the canonical
column.  Text search names the rows of a sliding column window, feeds the
id sequence through a multi-keyword automaton, and verifies each candidate
arithmetically, never re-reading pattern characters.  The character-level
ground truth, ``brute_search``, lives in :mod:`lyndon2d.reference`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .classify import summarize_matrix
from .errors import InvalidInput, NotSufficientlyPeriodic
from .lw2d import OpCounter, SummaryColumn, TwoDLWBuilder, lcm_prefixes
from .strings1d import NameRegistry, compute_period, least_rotation

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
    rows when the LCM never does.  Subgroup entries map the re-based offset
    array of the remaining rows to (pattern id, head shift) pairs.
    """

    name_seq: tuple[int, ...]
    periods: tuple[int, ...]
    r: int
    lcm_prefix_r: tuple[int, ...]
    subgroups: dict[tuple[int, ...], dict[tuple[int, ...], list[tuple[int, int]]]] = field(
        default_factory=dict
    )


@dataclass
class DictionaryIndex:
    """Read-only search structures for one pattern dictionary."""

    registry: NameRegistry
    m: int
    d: int
    fraction: Fraction
    groups: dict[tuple[int, ...], PatternGroup]
    automaton: _Automaton


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
    automaton = _Automaton()
    for name_seq in groups:
        automaton.insert(name_seq, name_seq)
    automaton.build()
    return DictionaryIndex(registry, m, len(patterns), fraction, groups, automaton)


def _head_key(
    periods: Sequence[int],
    lwpos: Sequence[int],
    top: int,
    r: int,
    counter: OpCounter | None = None,
) -> tuple[tuple[int, ...], int]:
    """Canonical offsets and shift z of the r head rows starting at ``top``."""
    builder = TwoDLWBuilder(counter)
    builder.add_rows(periods, lwpos, top, top + r)
    return tuple(builder.offsets), builder.z


def _tail_key(
    periods: Sequence[int], lwpos: Sequence[int], start: int, stop: int, z: int
) -> tuple[int, ...]:
    """Lyndon offsets of rows ``start`` to ``stop - 1`` re-based to column z."""
    return tuple([(lwpos[i] - z) % periods[i] for i in range(start, stop)])


def _insert_pattern(group: PatternGroup, col: SummaryColumn, pid: int) -> None:
    head, z_head = _head_key(col.periods, col.lwpos, 0, group.r)
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
    head, z_head = _head_key(periods, lwpos, top, r, counter)
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
    limit = int(index.fraction * index.m)
    get = index.registry.get
    ids: list[int] = []
    periods: list[int] = []
    lwpos: list[int] = []
    stop = start + width
    for row in rows:
        piece = row[start:stop]
        p = compute_period(piece, limit)
        name = None
        if p:
            offset, word = least_rotation(piece[:p])
            name = get(word)
        if name is None:
            ids.append(SENTINEL)
            periods.append(1)
            lwpos.append(0)
        else:
            ids.append(name)
            periods.append(p)
            lwpos.append(offset)
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
    groups = index.groups
    found: set[Occurrence] = set()
    for end, name_seq in index.automaton.scan(window.ids):
        top = end - m + 1
        for pid, s in verify_candidate(window, groups[name_seq], width, counter, top):
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
    named over the whole window; rows whose window period exceeds
    fraction*m get a sentinel name and generate no candidates.  The result
    is sound for any input, and complete whenever every window row crossing
    a true occurrence is uniformly periodic across the window (texts
    assembled from uniformly periodic rows always qualify).
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

