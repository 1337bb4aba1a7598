"""Multi-pattern 2D dictionary matching over row-periodic data.

``build_index`` names the dictionary's distinct rows in one pass of the
naming loop, so each distinct pattern row is named once, and takes each
pattern's 2D Lyndon word from ``alg2_2dlw``: the canonical offsets of its
rows and the column z where that conjugate begins.  Every row class id
gets a one-character name, ``chr(id + 1)``, so the m row names of a
pattern form one string.  The index maps that name string to the canonical
offsets of its patterns' words, and those to (pattern id, z) pairs.

Text search names the rows of a sliding column window with the registry's
class probe, the one that names pattern rows at build: the interned words
that share the class key of the row's period prefix are looked for in the
window, and a row that names nothing gets the ``SENTINEL`` character.  A
row's phase, the column of its Lyndon start modulo its period, is counted
from column 0 of the text, so a row keeps its name and phase across windows
for as long as it stays periodic.  Each text row is walked through the
windows on its own, and the walk records only the windows where its name or
phase changes.  All patterns are m rows tall, so a candidate is a band of m
rows whose name string is a group's key.  Every such band holds exactly one
anchor row, i == m - 1 (mod m), which must be named for the band to be a
candidate, so search walks the anchors first (the anchor rows of
Baeza-Yates and Regnier's 2D matcher) and walks each other row once, over
one window range per block: from the first window where either neighbouring
anchor is named to the last.  Where both anchors are unnamed inside that
range, every band holding the row has an unnamed anchor, so the row's
changes there open and close no candidate.  A walk depends only on the row
string and the windows walked, so a range that covers every window walks
each distinct row string once for the whole text, and every block reuses
those walks.  So a text of highly periodic rows, whose anchors are
named everywhere and which has few distinct rows, costs at most one walk per
anchor and one per distinct row.  At each window where some row changes, one
regex finds the runs of named rows and every m-slice inside a run is looked
up once.  A band stays a candidate until one of its own rows changes, and it
is verified once for that whole lifetime as a conjugacy query, never
re-reading pattern characters: the band's m rows hold a pattern at text
column c exactly when both 2D Lyndon words have the same offsets and c is
congruent to their z difference modulo the joint period.

Before the lookup sits a phase filter.  Rotating a window by s columns
moves each row's Lyndon offset by -s modulo its period, so the step between
two rows' offsets, taken modulo the gcd of their periods, is the same at
every shift.  A band's string holds, for each row, its step to the next row
and its step to the row after that, one character each, 2m - 3 in all; the
far steps tell bands apart where adjacent rows have coprime periods and
every near step is 0.  A band whose step string is no pattern's cannot be
an occurrence, so its names are not looked up and it is never verified.
The character-level ground truth, ``brute_search``, lives in
:mod:`lyndon2d.reference`.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, islice
from math import gcd
from typing import NamedTuple

from .errors import InvalidInput, NotSufficientlyPeriodic
from .lw2d import OpCounter, SummaryColumn, alg2_2dlw
from .strings1d import NameRegistry, _name_rows, compute_period, period_fraction, summarize_row

# Search names rows by the class probe and no longer calls least_rotation.
# The binding stays because perfbench's trace hooks wrap
# dictmatch.least_rotation and its smoke tests expect every hooked span;
# drop it once the hook list follows (ROADMAP item 5).
from .strings1d import least_rotation  # noqa: F401

SENTINEL = "\0"  # name of a window row that matches no pattern row
_NAMED_RUN = re.compile(f"[^{SENTINEL}]+")


class Occurrence(NamedTuple):
    """Top-left corner of one pattern occurrence in the text."""

    pattern: int
    row: int
    col: int


class DictionaryIndex(NamedTuple):
    """Read-only search structures for one pattern dictionary.

    ``max_period`` is the largest admissible row period, the period fraction
    times m rounded down.  ``groups`` maps each m-character name string to
    a group: a dict from a 2D Lyndon word's canonical offsets to the
    (pattern id, z) pairs of the patterns with that string and those
    offsets.  The names fix the row periods and so the joint period, which
    a band that spells them computes itself.  Rows are named through
    ``registry``'s class probe, at build and in search alike.  ``phases``
    holds the 2m - 3 character step string ``_phase_steps(periods, lwpos)``
    of every pattern, which a band's own step string must equal for the
    band to hold that pattern.
    """

    registry: NameRegistry
    m: int
    max_period: int
    groups: dict[str, dict[tuple[int, ...], list[tuple[int, int]]]]
    phases: set[str]


def _phase_steps(periods: Sequence[int], lwpos: Sequence[int]) -> str:
    """Each row's steps to the next row and to the row after that, one character each.

    Characters 2j and 2j + 1 are ``chr((lwpos[k] - lwpos[j]) % gcd(periods[j],
    periods[k]))`` for k = j + 1 and k = j + 2; the last row has no steps and
    the one before it only its near one, so n rows give 2n - 3 characters
    and the band of m rows from row t is the slice [2t : 2t + 2m - 3].  A
    column rotation moves both offsets by the same amount modulo a common
    divisor of the two periods, so every step is independent of the shift.
    A step is below gcd(p, q) <= L <= m / 2, so ``chr`` takes it for any m
    whose patterns fit in memory.  The rows are read in place, without
    copying either sequence.
    """
    if len(lwpos) < 2:
        return ""
    rows = zip(
        lwpos,
        islice(lwpos, 1, None),
        islice(lwpos, 2, None),
        periods,
        islice(periods, 1, None),
        islice(periods, 2, None),
    )
    steps = [chr((b - a) % gcd(p, q)) + chr((c - a) % gcd(p, r)) for a, b, c, p, q, r in rows]
    steps.append(chr((lwpos[-1] - lwpos[-2]) % gcd(periods[-2], periods[-1])))
    return "".join(steps)


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
        if len(pattern) != m or set(map(len, pattern)) != {m}:
            raise InvalidInput(f"pattern {pid} is not {m}x{m}")
    registry = NameRegistry()
    # each distinct row in order of first sight, so the registry numbers the
    # words as naming the patterns one by one would
    rows = list(dict.fromkeys(chain.from_iterable(patterns)))
    periods, lwpos, names = _name_rows(rows, registry, fraction)
    if len(registry) > sys.maxunicode:  # chr(id + 1) names every word
        raise InvalidInput(
            f"{len(registry)} distinct pattern row words; names allow {sys.maxunicode}"
        )
    if len(periods) < len(rows):
        # naming stopped at this row; its first sight is the first failing
        # pattern row, and summarize_row raises its error
        bad = rows[len(periods)]
        pid, idx = divmod(list(chain.from_iterable(patterns)).index(bad), m)
        try:
            summarize_row(bad, registry, fraction)
        except NotSufficientlyPeriodic as exc:
            raise NotSufficientlyPeriodic(
                f"pattern {pid} row {idx}: {exc}", period=exc.period, row=idx, pattern=pid
            ) from None
    summary = dict(zip(rows, zip(periods, lwpos, [chr(name + 1) for name in names])))
    groups: dict[str, dict[tuple[int, ...], list[tuple[int, int]]]] = {}
    phases: set[str] = set()
    for pid, pattern in enumerate(patterns):
        col_periods, col_lwpos, chars = zip(*map(summary.__getitem__, pattern))
        word = alg2_2dlw(SummaryColumn(col_periods, col_lwpos))
        key = "".join(chars)
        groups.setdefault(key, {}).setdefault(word.offsets, []).append((pid, word.z))
        # The canonical offsets are the pattern's own rotated by z columns,
        # which leaves every phase step unchanged.
        phases.add(_phase_steps(col_periods, word.offsets))
    return DictionaryIndex(registry, m, int(fraction * m), groups, phases)


def verify_candidate(
    column: SummaryColumn,
    group: dict[tuple[int, ...], list[tuple[int, int]]],
    start: int,
    stop: int,
    counter: OpCounter | None = None,
) -> list[tuple[int, int]]:
    """Arithmetically verify pattern occurrences in one band of m text rows.

    ``column`` holds the band's periods and Lyndon offsets, each offset
    counted from text column 0, and the rows carry the group's name string
    and are periodic from column ``start`` to ``stop``.  Their 2D Lyndon
    word, from ``alg2_2dlw``, is looked up among the group's; a pattern with
    the same offsets occurs at every text column c in [start, stop - m] with
    c == z_band - z_pattern modulo the band's joint period.  The band's names
    fix its periods, so that is the patterns' joint period too, and the
    residue is the ``conjugacy_shift`` of the band and the pattern.  Returns
    (pattern id, text column) pairs.

    This is the one place that charges an :class:`OpCounter`, once per
    call: one candidate, one exact-match lookup, and 8m - 7 arithmetic
    operations for the builder's m rows (8 per row, the first costs 1) plus
    one per pattern entry the lookup matched.  ``search_text`` calls it
    once per candidate lifetime, with the lifetime's columns as start and
    stop, so a candidate that repeats across windows is charged once.
    """
    m = column.m
    word = alg2_2dlw(column)
    entries = group.get(word.offsets, ())
    if counter:
        counter.candidates += 1
        counter.lookups += 1
        counter.ops += 8 * m - 7 + len(entries)
    hits: list[tuple[int, int]] = []
    for pid, z_pat in entries:
        first = start + (word.z - z_pat - start) % word.lcm
        for c in range(first, stop - m + 1, word.lcm):
            hits.append((pid, c))
    return hits


def _row_changes(
    row: str,
    index: DictionaryIndex,
    step: int,
    stops: Sequence[int],
    first: int,
    last: int,
) -> list[tuple[int, str, int, int]]:
    # Walk one text row through windows first to last - 1, window w spanning
    # columns w*step to stops[w], and return (w, name, period, phase) for
    # every window where the row's name or text-frame phase changes.  The
    # row starts the range as a ``SENTINEL`` with phase 0, and a sentinel
    # has period 1.  A row still named at a last < len(stops) ends with a
    # ``SENTINEL`` change at last, so replaying the changes leaves it
    # unnamed outside the range.  Three rules decide which windows are
    # looked at; the others keep the name of the last window looked at.
    limit = index.max_period
    block = 2 * limit  # every window is at least m >= 2L wide
    changes = []
    name, phase = SENTINEL, 0
    p = 0  # the period <= L the row holds in the last window looked at, or 0
    w = first
    while w < last:
        start, stop = w * step, stops[w]
        if p and row[stops[w - 1] - p : stop - p] == row[stops[w - 1] : stop]:
            # 1. A row with a period p <= L, named or not, is carried into
            # the next window when the columns that window adds repeat the p
            # columns before them; by Fine-Wilf on the m columns shared with
            # the last window, p is still least.
            w += 1
            continue
        # 2. Any other row takes p, the least period <= L of the window's last
        # 2L columns, or 0.  A block with no period <= L has no superstring
        # with one, so the row is a SENTINEL in every window that contains
        # the block (3 windows at fraction 1/4 and 2 at 1/2 when 4 divides
        # m), and the walk goes on at the first window that starts past the
        # block's start.
        p = compute_period(row[stop - block : stop], limit)
        if not p:
            if name != SENTINEL:  # a SENTINEL has phase 0, so only a named row changes
                name, phase = SENTINEL, 0
                changes.append((w, SENTINEL, 1, 0))
            w = (stop - block) // step + 1
            continue
        # 3. Otherwise a period <= L of the whole window, if it has one, is
        # also a period of the block, so by Fine-Wilf p divides it, and one
        # slice comparison decides whether the window has period p.  When p
        # holds from the window start to the end of the row, it holds in
        # every later window, and the walk ends.
        after = w + 1
        if row[start + p : stop] != row[start : stop - p]:
            p = 0
        elif row[stop:] == row[stop - p : len(row) - p]:
            after = last
        hit = index.registry._probe(row, start, p) if p else None
        now = (chr(hit[0] + 1), hit[1] % p) if hit else (SENTINEL, 0)
        if now != (name, phase):
            name, phase = now
            changes.append((w, name, p if hit else 1, phase))
        w = after
    if name != SENTINEL and last < len(stops):
        changes.append((last, SENTINEL, 1, 0))
    return changes


def search_text(
    text: Sequence[str],
    index: DictionaryIndex,
    *,
    counter: OpCounter | None = None,
) -> set[Occurrence]:
    """All pattern occurrences found by windowed naming plus verification.

    The text is scanned in column windows m + s wide that step by
    s = m // 2 (1 when m = 1), so every occurrence start falls inside some
    window.  A window row is named by its least period p there: when
    p <= L = fraction*m and its period prefix rotates a pattern row's
    Lyndon word, the registry's class probe finds that word in the window,
    which gives a one-character name and the row's phase, the column of its
    Lyndon start modulo p counted from column 0 of the text.  Every other
    row gets the ``SENTINEL`` name and generates no candidates.  Only a band
    of m rows whose names spell a group's key at a window can hold one of
    the group's patterns there, and the band's 2D Lyndon word decides which
    patterns occur and at which columns.  Each anchor row, one in every m,
    is walked through all windows, and every other row once, over one window
    range per block: from the first window where either neighbouring anchor
    is named to the last.  Equal rows share one walk across the whole text
    where their range covers every window.

    The result equals the union of scanning every window on its own.  It is
    sound for any input, and complete whenever every window row crossing a
    true occurrence is uniformly periodic across the window (texts
    assembled from uniformly periodic rows always qualify).  ``counter``,
    when given, is charged by ``verify_candidate`` once per candidate
    lifetime: the run of windows over which the band's rows keep their
    names and phases.
    """
    if not text:
        return set()
    n_cols = len(text[0])
    if len(set(map(len, text))) > 1:
        raise InvalidInput("text rows must share one width")
    m = index.m
    n_rows = len(text)
    if n_rows < m or n_cols < m:
        return set()
    step = max(1, m // 2)
    n_windows = (n_cols - m) // step + 1
    stops = [min(w * step + m + step, n_cols) for w in range(n_windows)]
    # each window's changes, flat as row, name, period, phase, ...; a tuple
    # per change would add 72 bytes to the peak memory for every text row
    opened: dict[int, list[int | str]] = {}
    # Every band of m rows holds exactly one anchor row, i == m - 1 (mod m),
    # and is a candidate only at windows where its anchor is named.  Block k
    # holds rows k .. k + m - 1 and ends with the anchor k + m - 1, which is
    # walked through every window first.  The block's other rows are walked
    # once each, over one window range: from the first window where the
    # anchor above or the anchor below (either may be missing) is named to
    # the last.  Outside the range a row reads ``SENTINEL``.  Inside it, at
    # a window where neither anchor is named, both read ``SENTINEL``, and
    # every band holding the row holds one of them, so no such band is live
    # and the row's changes there close nothing and open nothing.  Blocks
    # are walked in order, so each window's rows are recorded in ascending
    # order.  A row's changes depend only on its string and the range, and a
    # range over every window is the same in every block, so its walks are
    # kept for the whole text.  A partial range walks each of its rows.
    full: dict[str, list[tuple[int, str, int, int]]] = {}  # walks over all windows, by row
    above: list[tuple[int, str, int, int]] = []  # the walk of the anchor above the block
    for k in range(0, n_rows, m):
        anchor = k + m - 1
        walk = []
        if anchor < n_rows:
            walk = _row_changes(text[anchor], index, step, stops, 0, n_windows)
        first, last = n_windows, 0
        for changes in (above, walk):
            if changes:  # a walk starts unnamed, so its first change names it
                first = min(first, changes[0][0])
                last = max(last, changes[-1][0] if changes[-1][1] == SENTINEL else n_windows)
        if first < last:
            whole = first == 0 and last == n_windows
            for i in range(k, min(anchor, n_rows)):
                row = text[i]
                changes = full.get(row) if whole else None
                if changes is None:
                    changes = _row_changes(row, index, step, stops, first, last)
                    if whole:
                        full[row] = changes
                for w, name, p, phase in changes:
                    opened.setdefault(w, []).extend((i, name, p, phase))
        for w, name, p, phase in walk:
            opened.setdefault(w, []).extend((anchor, name, p, phase))
        above = walk
    names, periods, phases = [SENTINEL] * n_rows, [1] * n_rows, [0] * n_rows
    found: set[Occurrence] = set()
    live: dict[int, tuple[dict, int]] = {}  # top -> (group, first column)

    def close(top: int, stop: int) -> None:
        group, start = live.pop(top)
        band = SummaryColumn(periods[top : top + m], phases[top : top + m])
        for pid, c in verify_candidate(band, group, start, stop, counter):
            found.add(Occurrence(pid, top, c))

    # At each window with changes, close every live band that holds a
    # changed row and apply the changes.  Then, in each run of named rows, a
    # band of m rows that is not live opens when its step string is in
    # ``index.phases`` and its names are a group's key, tested in that
    # order; every true occurrence passes, because its steps equal its
    # pattern's.  A run's steps are computed once, from its first band that
    # is not live, and each band's are a slice of them.  A live band's rows
    # keep their names and phases, and adjacent windows overlap by m >= 2p
    # columns, so each named row is periodic from the window where the band
    # opened to the stop of the last window of its lifetime, and closing
    # verifies the band once over those columns.
    for w in sorted(opened):
        if live:
            changed = opened[w][::4]  # ascending row numbers
            for top in [t for t in live if bisect_left(changed, t) < bisect_left(changed, t + m)]:
                close(top, stops[w - 1])
        # an exhausted list iterator frees the list; holding it through the
        # scan would add 32 bytes per change to the peak memory
        flat = iter(opened.pop(w))
        for i, name, p, phase in zip(flat, flat, flat, flat):
            names[i], periods[i], phases[i] = name, p, phase
        joined = "".join(names)
        for run in _NAMED_RUN.finditer(joined):
            end = run.end()
            steps = None
            for top in range(run.start(), end - m + 1):
                if top in live:
                    continue
                if steps is None:  # tops ascend, so no row above this one is needed
                    base = top
                    steps = _phase_steps(periods[base:end], phases[base:end])
                at = 2 * (top - base)
                if steps[at : at + 2 * m - 3] in index.phases:
                    group = index.groups.get(joined[top : top + m])
                    if group is not None:
                        live[top] = (group, w * step)
    for top in list(live):
        close(top, stops[-1])
    return found
