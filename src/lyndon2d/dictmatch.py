"""Multi-pattern 2D dictionary matching over row-periodic data.

The dictionary is a set of classified patterns: ``build_index`` runs
``classify_matrix`` on each one.  Every row class id gets a one-character
name, ``chr(id + 1)``, so the m row names of a pattern form one string, and
patterns are grouped under that string.  Within a group each pattern is
keyed by its 2D Lyndon word: the canonical offsets of its rows and the
column z where that conjugate begins.  Text search names the rows of a
sliding column window by one lookup of each row's period prefix in the
index's rotation table; a row that names nothing gets the ``SENTINEL``
character.  A row's phase, the column of its Lyndon start modulo its period,
is counted from column 0 of the text, so a row that stays periodic carries
its name and phase into the next window after one slice comparison.  Each
text row is visited only at windows where its name can change.  A block of
2L columns with no period <= L = fraction*m has no superstring with one, so
a row whose window ends in such a block is a sentinel in every window that
holds the block, and is not looked at again until the windows have passed
it.  A row whose period holds from the window start to the end of the row
keeps its name to the end and is never visited again.
Consecutive windows in which no row changes its name or phase form a
stretch, and a stretch is scanned once as one wide window.  Its names,
periods and offsets travel in the same ``SummaryColumn`` record as a
matrix's.  All patterns are m rows tall, so a candidate is an m-row slice of
the name string that is a group's key: one regex finds the runs of at least
m named rows and every m-slice inside a run is looked up once.  Each
candidate is verified once per stretch as a conjugacy query, never
re-reading pattern characters: the candidate's m rows hold a pattern at
shift s exactly when both 2D Lyndon words have the same offsets and s is
congruent to their z difference modulo the joint period.

Between the lookup and verification sits a phase filter.  Rotating a
window by s columns moves each row's Lyndon offset by -s modulo its period,
so the step between adjacent rows' offsets, taken modulo the gcd of their
periods, is the same at every shift.  A candidate whose steps hash to no
pattern's steps cannot be an occurrence and is dropped unverified; a hash
collision only sends a candidate on to verification, which stays exact.
The character-level ground truth, ``brute_search``, lives in
:mod:`lyndon2d.reference`.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .classify import classify_matrix
from .errors import InvalidInput, NotSufficientlyPeriodic
from .lw2d import OpCounter, SummaryColumn, TwoDLWBuilder
from .strings1d import NameRegistry, compute_period, period_fraction

# Search names rows by table lookup and no longer calls least_rotation.  The
# binding stays because perfbench's trace hooks wrap dictmatch.least_rotation
# and its smoke tests expect every hooked span; drop it once the hook list
# follows (ROADMAP item 5).
from .strings1d import least_rotation  # noqa: F401

SENTINEL = "\0"  # name of a window row that matches no pattern row


@dataclass(frozen=True)
class Occurrence:
    """Top-left corner of one pattern occurrence in the text."""

    pattern: int
    row: int
    col: int


@dataclass
class PatternGroup:
    """Patterns sharing one string of m row names.

    The shared names fix the row periods and so the joint period ``lcm``.
    ``entries`` maps a 2D Lyndon word's canonical offsets to the (pattern
    id, z) pairs of the group's patterns with those offsets.
    """

    periods: tuple[int, ...]
    lcm: int
    entries: dict[tuple[int, ...], list[tuple[int, int]]] = field(default_factory=dict)


@dataclass
class DictionaryIndex:
    """Read-only search structures for one pattern dictionary.

    ``max_period`` is the largest admissible row period, the period fraction
    times m rounded down.  ``groups`` is keyed by each group's m-character
    name string, and ``runs`` matches the runs of at least m names without a
    ``SENTINEL``.  ``rotations`` maps every rotation ``w[j:] + w[:j]`` of
    every interned word ``w`` to the word's name character and the
    least-rotation offset ``(len(w) - j) % len(w)``, so a window row is named
    by one lookup of its period prefix.  ``phases`` holds
    ``hash(_phase_steps(periods, lwpos))`` of every pattern.  These are
    in-process ``hash()`` values, not portable across Python builds, so the
    set is rebuilt with the index and never saved.
    """

    registry: NameRegistry
    m: int
    max_period: int
    groups: dict[str, PatternGroup]
    runs: re.Pattern[str]
    rotations: dict[str, tuple[str, int]]
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
    ``max_period_fraction * m``, and the patterns may hold at most
    ``sys.maxunicode`` distinct row words, one name character each.  The
    index is immutable once built and safe to share across threads.
    """
    fraction = period_fraction(max_period_fraction)
    if not patterns:
        raise InvalidInput("empty pattern dictionary")
    m = len(patterns[0])
    for pid, pattern in enumerate(patterns):
        if len(pattern) != m or any(len(row) != m for row in pattern):
            raise InvalidInput(f"pattern {pid} is not {m}x{m}")
    registry = NameRegistry()
    groups: dict[str, PatternGroup] = {}
    phases: set[int] = set()
    for pid, pattern in enumerate(patterns):
        try:
            cm = classify_matrix(pattern, fraction, registry)
        except NotSufficientlyPeriodic as exc:
            raise NotSufficientlyPeriodic(
                f"pattern {pid} {exc}", period=exc.period, row=exc.row
            ) from None
        if len(registry) > sys.maxunicode:  # chr(id + 1) names every word
            raise InvalidInput(
                f"{len(registry)} distinct pattern row words; names allow {sys.maxunicode}"
            )
        names, offsets = cm.key.names, cm.key.offsets
        key = "".join([chr(name + 1) for name in names])
        group = groups.get(key)
        if group is None:
            periods = tuple([len(registry.word(name)) for name in names])
            group = groups[key] = PatternGroup(periods, cm.lcm)
        group.entries.setdefault(offsets, []).append((pid, cm.z))
        # The canonical offsets are the pattern's own rotated by z columns,
        # which leaves every phase step unchanged.
        phases.add(hash(_phase_steps(group.periods, offsets)))
    rotations: dict[str, tuple[str, int]] = {}
    for name_id in range(len(registry)):
        word = registry.word(name_id)
        name = chr(name_id + 1)
        p = len(word)
        for j in range(p):
            rotations[word[j:] + word[:j]] = (name, (p - j) % p)
    runs = re.compile(f"[^{SENTINEL}]{{{m},}}")
    return DictionaryIndex(registry, m, int(fraction * m), groups, runs, rotations, phases)


def verify_candidate(
    window_summaries: SummaryColumn,
    group: PatternGroup,
    window_width: int,
    counter: OpCounter | None = None,
    top: int = 0,
) -> list[tuple[int, int]]:
    """Arithmetically verify pattern occurrences against one candidate window.

    ``window_summaries`` covers the m window rows starting at row ``top``
    (it may hold more rows) and those rows must carry the group's name
    string.  Their 2D Lyndon word is looked up among the group's; a
    pattern with the same offsets occurs at every shift s in
    [0, window_width - m] with s == z_window - z_pattern modulo the group's
    LCM, which is the ``conjugacy_shift`` of the window and the pattern.
    Returns (pattern id, column offset inside the window) pairs.

    This is the one place that charges an :class:`OpCounter`, once per
    call: one candidate, one exact-match lookup, and 8m - 7 arithmetic
    operations for the builder's m rows (8 per row, the first costs 1) plus
    one per pattern entry the lookup matched.  ``search_text`` calls it
    once per candidate per stretch, with the stretch as the window, so a
    candidate that repeats across the windows of a stretch is charged once.
    """
    m = len(group.periods)
    builder = TwoDLWBuilder()
    builder.add_rows(window_summaries.periods, window_summaries.lwpos, top, top + m)
    entries = group.entries.get(tuple(builder.offsets), ())
    if counter:
        counter.candidates += 1
        counter.lookups += 1
        counter.ops += 8 * m - 7 + len(entries)
    hits: list[tuple[int, int]] = []
    for pid, z_pat in entries:
        for s in range((builder.z - z_pat) % group.lcm, window_width - m + 1, group.lcm):
            hits.append((pid, s))
    return hits


def _name_piece(
    row: str, start: int, stop: int, index: DictionaryIndex
) -> tuple[str, int, int]:
    # The name, least period and phase of row[start:stop]: period 0 when no
    # period is admissible, and the ``SENTINEL`` name with phase 0 when the
    # period's word names no pattern row.  The phase is the column of the
    # Lyndon start modulo p, counted from column 0 of the text.
    #
    # fraction <= 1/2 and stop - start >= m, so the bound L = max_period
    # meets compute_period's 2*limit <= len contract and p <= L is
    # p <= fraction*m.  A period p <= L makes piece[:p] primitive, so it is
    # a rotation of an interned word exactly when its least rotation is that
    # word.
    piece = row[start:stop]
    p = compute_period(piece, index.max_period)
    hit = index.rotations.get(piece[:p]) if p else None
    if hit is None:
        return SENTINEL, p, 0
    return hit[0], p, (start + hit[1]) % p


def _window_summaries(
    rows: Sequence[str], start: int, width: int, index: DictionaryIndex
) -> SummaryColumn:
    # The rows named from scratch over one window, with offsets in the
    # window's frame; a ``SENTINEL`` row gets period 1 and offset 0.
    names, periods, lwpos = [], [], []
    for row in rows:
        name, p, phase = _name_piece(row, start, start + width, index)
        if name == SENTINEL:
            p = 1
        names.append(name)
        periods.append(p)
        lwpos.append((phase - start) % p)
    return SummaryColumn(periods, lwpos, "".join(names))


def _candidates(
    names: str, groups: Mapping[str, PatternGroup], runs: re.Pattern[str], m: int
) -> Iterator[tuple[int, PatternGroup]]:
    """Yield (top, group) for every m-slice ``names[top:top + m]`` that is a key.

    ``runs`` matches the runs of at least m non-sentinel names, so sentinel
    rows are skipped without a lookup.
    """
    for run in runs.finditer(names):
        for top in range(run.start(), run.end() - m + 1):
            group = groups.get(names[top : top + m])
            if group is not None:
                yield top, group


class _Stretch(NamedTuple):
    """Windows from column ``start`` on in which no row changes its name or
    phase: the rows' ``column`` in the frame of ``start`` and the (top,
    group) candidates that passed the phase filter."""

    start: int
    column: SummaryColumn
    candidates: list[tuple[int, PatternGroup]]


def _stretch_candidates(
    names: Sequence[str],
    periods: Sequence[int],
    phases: Sequence[int],
    start: int,
    index: DictionaryIndex,
) -> _Stretch | None:
    # The stretch that begins at column ``start``, or None when no candidate
    # passes the phase filter.  Phase steps are the same in every frame, so
    # they come from the text-frame phases.
    m = index.m
    steps: tuple[int, ...] | None = None
    passed: list[tuple[int, PatternGroup]] = []
    for top, group in _candidates("".join(names), index.groups, index.runs, m):
        if steps is None:
            steps = _phase_steps(periods, phases)
        if hash(steps[top : top + m - 1]) in index.phases:
            passed.append((top, group))
    if not passed:
        return None
    lwpos = [(phase - start) % p for p, phase in zip(periods, phases)]
    return _Stretch(start, SummaryColumn(list(periods), lwpos), passed)


def _verify_stretch(
    stretch: _Stretch, stop: int, counter: OpCounter | None
) -> Iterator[Occurrence]:
    start, column, candidates = stretch
    for top, group in candidates:
        for pid, s in verify_candidate(column, group, stop - start, counter, top):
            yield Occurrence(pid, top, start + s)


def search_text(
    text: Sequence[str],
    index: DictionaryIndex,
    *,
    counter: OpCounter | None = None,
) -> set[Occurrence]:
    """All pattern occurrences found by windowed naming plus verification.

    The text is scanned in column windows of width 3m/2 stepping by m/2, so
    every occurrence start falls inside some window.  A window row is named
    by its least period p there: when p <= L = fraction*m and its period
    prefix rotates a pattern row's Lyndon word, the index's rotation table
    gives a one-character name and the row's phase, the column of its
    Lyndon start modulo p counted from column 0 of the text.  Every other
    row gets the ``SENTINEL`` name and generates no candidates.

    Rows are named on a schedule.  Each row records the next window at
    which its name or phase can change, and a window visits only the rows
    due there.  A visit does one of three things:

    - A row with a period p <= L, named or not, is carried into the next
      window when the columns that window adds repeat the p columns before
      them.
    - Any other row first takes the period of the window's last 2L columns.
      A block with no period <= L has no superstring with one, so the row
      is a ``SENTINEL`` in every window that contains the block (3 windows
      at fraction 1/4 and 2 at 1/2 when 4 divides m) and falls due again at the first window
      that starts past the block's start.
    - Only a row whose tail block is periodic is named over the whole
      window.  When its period p holds from the window start to the end of
      the row, it holds in every later window, and the row is never visited
      again.

    A stretch is a maximal run of consecutive windows in which no row
    changes its name or phase.  Adjacent windows overlap by m >= 2p
    columns, so every named row is periodic across its whole stretch, and
    the stretch is scanned as one wide window.  Inside every run of at
    least m named rows, each m-row slice of the name string is looked up in
    ``index.groups``.  A slice that is a group's key goes on only when its
    adjacent rows' phase steps hash into ``index.phases``; every true
    occurrence passes, because its steps equal its pattern's.  Each such
    candidate is verified once per stretch: ``verify_candidate`` computes
    the slice's 2D Lyndon word and answers a conjugacy query against the
    group's patterns with one lookup.  The result equals the union of
    scanning every window on its own.  It is sound for any input, and
    complete whenever every window row crossing a true occurrence is
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
    limit = index.max_period
    block = 2 * limit  # every window is at least m >= 2L wide
    n_rows = len(rows)
    n_windows = (n_cols - m) // step + 1
    names, periods, phases = [SENTINEL] * n_rows, [1] * n_rows, [0] * n_rows
    # The period <= L that row i holds up to the last window that visited
    # it, named or not; 0 when it has none.
    carried = [0] * n_rows
    due: list[list[int]] = [list(range(n_rows))] + [[] for _ in range(n_windows - 1)]
    found: set[Occurrence] = set()
    stretch: _Stretch | None = None
    stop = 0
    for w in range(n_windows):
        start = w * step
        prev_stop, stop = stop, min(start + window, n_cols)
        visits, due[w] = due[w], []  # release each bucket once its window is done
        changed = False
        for i in visits:
            row = rows[i]
            p = carried[i]
            if p and row[prev_stop - p : stop - p] == row[prev_stop:stop]:
                # p still holds across the window, and by Fine-Wilf on the m
                # columns shared with the last window it is still least
                after = w + 1
            else:
                if compute_period(row[stop - block : stop], limit):
                    name, p, phase = _name_piece(row, start, stop, index)
                    whole_row = p and row[start + p :] == row[start : n_cols - p]
                    after = n_windows if whole_row else w + 1
                else:
                    name, p, phase = SENTINEL, 0, 0
                    after = (stop - block) // step + 1
                carried[i] = p
                if name != names[i] or phase != phases[i]:
                    names[i], periods[i], phases[i] = name, p if name != SENTINEL else 1, phase
                    changed = True
            if after < n_windows:
                due[after].append(i)
        if changed:
            if stretch is not None:
                found.update(_verify_stretch(stretch, prev_stop, counter))
            stretch = _stretch_candidates(names, periods, phases, start, index)
    if stretch is not None:
        found.update(_verify_stretch(stretch, stop, counter))
    return found
