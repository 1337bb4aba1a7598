"""One-dimensional primitives: smallest periods, least rotations, row naming.

A periodic row is summarized by three values: the length of its smallest
period, the lexicographically least rotation of that period (a Lyndon word,
interned to a dense integer id), and the offset at which that rotation first
occurs in the row.  Everything downstream works on these summaries instead
of the characters.

The hot tests run as C-level string operations: a period bounded by half
the row is one ``str.find`` plus one ``str.endswith``, and primitivity is
one ``str.find`` in the doubled word.  A least rotation compares only the
rotations that start at a longest run of the smallest letter, found with
``in``, ``count`` and ``find``; the two-pointer scan takes over when runs
are long or candidates many, so the bound stays linear.  The KMP border
array remains for unbounded periods.  A row whose class is already
interned skips the rotation scan: the registry files words by a
rotation-invariant key, the word's length and the low half of the Adler-32
checksum of its UTF-8 bytes (their sum, computed in C), and one
``str.find`` per word on the row's key names it.

One loop names rows, a whole matrix's in one pass: it checks the period
fraction and computes the period limit once, and reads the registry's
tables through local bindings.  :func:`summarize_row` runs it over one row
and ``classify.summarize_matrix`` over a matrix.  Text search names the
periodic windows of a row through the same class probe.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple
from zlib import adler32

from .errors import InvalidInput, NotLyndon, NotPrimitive, NotSufficientlyPeriodic


def border_array(s: str) -> list[int]:
    """Failure function: border[i] is the longest proper border of s[:i+1]."""
    border = [0] * len(s)
    k = 0
    for i in range(1, len(s)):
        while k and s[i] != s[k]:
            k = border[k - 1]
        if s[i] == s[k]:
            k += 1
        border[i] = k
    return border


def compute_period(s: str, limit: int | None = None) -> int:
    """Length of the smallest period of s; len(s) when s is unbordered.

    The period p is the smallest positive value with s[j] == s[j + p] for
    every valid j; it need not divide len(s).

    With a ``limit`` such that 2*limit <= len(s), the answer is bounded: the
    smallest period when it is at most ``limit``, else 0.  Any period
    p <= limit makes the head s[:n-limit] occur at p, and by Fine and Wilf
    the first occurrence after 0 is the smallest period whenever one that
    small exists, so one ``find`` and one ``endswith`` decide it in linear
    time.  Without a limit, or with 2*limit > len(s), the border array
    answers.
    """
    n = len(s)
    if not n:
        raise InvalidInput("empty string has no period")
    if limit is None or 2 * limit > n:
        return n - border_array(s)[-1]
    q = s.find(s[: n - limit], 1)
    if q > 0 and s.endswith(s[n - limit : n - q]):
        return q
    return 0


def is_primitive(s: str) -> bool:
    """True iff s is not an integer power of a shorter string.

    s is a proper power exactly when it occurs inside s+s strictly between
    the two trivial occurrences.
    """
    if not s:
        raise InvalidInput("empty string is not classified")
    return (s + s).find(s, 1) == len(s)


# Past either cap the candidate search could cost more than linear time, so
# the two-pointer scan answers instead.
_RUN_CAP = 16
_CANDIDATE_CAP = 16


def _least_rotation_start(s: str) -> int:
    # Requires s primitive.  Every rotation is a slice of cyclic = s + s[:-1].
    # The least rotation starts with the longest cyclic run c^L of the
    # smallest letter c.  For n > 1 that run is shorter than n, so its
    # occurrences are maximal runs that never overlap, which makes ``count``
    # exact.  Each step is a C-level string operation over O(n) characters.
    n = len(s)
    cyclic = s + s[:-1]
    c = min(s)
    run = c
    while run + c in cyclic:
        run += c
        if len(run) == _RUN_CAP:
            return _two_pointer_start(s)
    end = n + len(run) - 1
    count = cyclic.count(run, 0, end)
    if count == 1:
        return cyclic.find(run)
    if count > _CANDIDATE_CAP:
        return _two_pointer_start(s)
    best = start = cyclic.find(run)
    best_word = cyclic[start : start + n]
    for _ in range(count - 1):
        start = cyclic.find(run, start + len(run), end)
        word = cyclic[start : start + n]
        if word < best_word:
            best, best_word = start, word
    return best


def _two_pointer_start(s: str) -> int:
    # Two-pointer minimum-rotation scan over s+s: i and j are the two
    # surviving candidate starts and k the length of their common prefix.
    # A mismatch eliminates the larger candidate together with the k starts
    # after it, so the scan is linear.  For primitive s the least rotation
    # is unique and k never reaches len(s).
    n = len(s)
    doubled = s + s
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def least_rotation(s: str) -> tuple[int, str]:
    """Offset and value of the lexicographically least rotation of s.

    Requires s primitive, so the least rotation is unique and the returned
    word is a Lyndon word.  Runs in linear time.
    """
    if not s:
        raise InvalidInput("empty string has no rotations")
    if not is_primitive(s):
        raise NotPrimitive(f"{s!r} is a proper power")
    k = _least_rotation_start(s)
    return k, s[k:] + s[:k]


def is_lyndon(s: str) -> bool:
    """True iff s is primitive and no rotation of it is strictly smaller."""
    if not s:
        raise InvalidInput("empty string is not classified")
    return is_primitive(s) and _least_rotation_start(s) == 0


def _class_key(word: str) -> int:
    # The same for every rotation of word, so a row's period prefix has the
    # key of its least rotation.  The low 16 bits of Adler-32 are one plus
    # the sum of the bytes, modulo 65521, and a rotation of word permutes its
    # UTF-8 bytes (surrogates passed through, so every str encodes).  The
    # length sits above them, so words of different lengths never share a
    # key.
    return len(word) << 16 | adler32(word.encode("utf-8", "surrogatepass")) & 0xFFFF


class NameRegistry:
    """Bidirectional interning of Lyndon words as dense integer ids.

    Build single-writer, then treat as immutable: ids are stable for the
    registry's lifetime and the frozen registry may be shared across
    threads.  Only Lyndon words may be interned.

    Words are filed by a rotation-invariant class key: their length and the
    low half of their Adler-32 checksum, one plus the sum of their UTF-8
    bytes modulo 65521.  Words of one class share a key, and words of other
    classes may share it too, so each key heads a chain of ids that a
    lookup walks comparing words.  Rows are named by one class probe, which
    walks the chain of a row's period prefix, so a row whose class is
    interned is named by one ``str.find`` per word on the chain.  Index
    build and classify probe whole rows in the naming loop, and search
    probes each periodic window of a text row.
    """

    def __init__(self) -> None:
        self._first_id_by_key: dict[int, int] = {}
        self._next_id: list[int | None] = []  # the next id on the same key
        self._word_by_id: list[str] = []

    def __len__(self) -> int:
        return len(self._word_by_id)

    def _find(self, word: str, key: int) -> int | None:
        name_id = self._first_id_by_key.get(key)
        while name_id is not None and self._word_by_id[name_id] != word:
            name_id = self._next_id[name_id]
        return name_id

    def _probe(self, row: str, start: int, period: int) -> tuple[int, int] | None:
        # The id and row offset of the interned Lyndon word of the class of
        # row[start : start + period], or None when the class is not
        # interned.  ``period`` must be the least period of
        # row[start : start + 2 * period - 1], which then holds every
        # rotation of the prefix, each at one offset below start + period.
        # An interned word with the prefix's key has the prefix's length, so
        # if it occurs there it is a rotation of the prefix, and, being a
        # Lyndon word, the least one; being primitive, it occurs at one
        # offset only: the Lyndon offset.
        stop = start + 2 * period - 1
        name_id = self._first_id_by_key.get(_class_key(row[start : start + period]))
        while name_id is not None:
            offset = row.find(self._word_by_id[name_id], start, stop)
            if offset >= 0:
                return name_id, offset
            name_id = self._next_id[name_id]
        return None

    def _add(self, word: str, key: int) -> int:
        # word must be a Lyndon word not yet interned, and key its class key.
        new_id = len(self._word_by_id)
        self._next_id.append(self._first_id_by_key.get(key))
        self._first_id_by_key[key] = new_id
        self._word_by_id.append(word)
        return new_id

    def intern(self, word: str) -> int:
        """Return the id for a Lyndon word, allocating one on first sight."""
        key = _class_key(word)
        existing = self._find(word, key)
        if existing is not None:
            return existing
        if not is_lyndon(word):
            raise NotLyndon(f"{word!r} is not a Lyndon word")
        return self._add(word, key)

    def get(self, word: str) -> int | None:
        """Id of an already interned word, or None.  Never interns."""
        return self._find(word, _class_key(word))

    def word(self, name_id: int) -> str:
        """The Lyndon word stored under a dense id."""
        return self._word_by_id[name_id]


def period_fraction(value: Fraction | int | float | str) -> Fraction:
    """``value`` as a Fraction in (0, 1/2], the admissible period bound.

    A Fraction argument comes back as the same object.  Anything that is
    not a finite number in range raises :class:`InvalidInput`.
    """
    if isinstance(value, Fraction):
        fraction = value
    else:
        try:
            fraction = Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise InvalidInput(f"period fraction must be a number, got {value!r}") from None
    num = fraction.numerator
    if num <= 0 or 2 * num > fraction.denominator:
        raise InvalidInput(f"period fraction must be in (0, 1/2], got {fraction}")
    return fraction


class RowSummary(NamedTuple):
    """Per-row classification: period length, Lyndon offset, class id."""

    period: int
    lwpos: int
    name: int


def _name_rows(
    rows: Sequence[str],
    registry: NameRegistry,
    max_period_fraction: Fraction | int | float | str,
) -> tuple[list[int], list[int], list[int]]:
    # The one naming loop: periods, Lyndon offsets and class ids of one or
    # more rows of one width.  The fraction is checked and the period limit
    # computed once.  Naming stops at the first row with no period within
    # the limit, so when the lists come back shorter than the rows, their
    # length is that row's index.  Every row is named: dictmatch.build_index
    # passes each distinct pattern row once, in one call.
    periods: list[int] = []
    lwpos: list[int] = []
    names: list[int] = []
    fraction = period_fraction(max_period_fraction)
    limit = fraction.numerator * len(rows[0]) // fraction.denominator
    first_id = registry._first_id_by_key.get
    next_id = registry._next_id
    word_by_id = registry._word_by_id
    for row in rows:
        period = compute_period(row, limit)
        if not period:
            break
        # NameRegistry._probe(row, 0, period), inlined: a call per row slows classify ~4%
        word = row[:period]
        key = _class_key(word)
        name = first_id(key)
        while name is not None:
            offset = row.find(word_by_id[name], 0, 2 * period - 1)
            if offset >= 0:
                break
            name = next_id[name]
        else:
            # A first sighting of the class.  The prefix of a smallest period
            # is primitive (a shorter root would be a smaller period of the
            # row), so its least rotation is a Lyndon word, and the probe
            # showed that it is not interned.
            offset = _least_rotation_start(word)
            name = registry._add(word[offset:] + word[:offset], key)
        periods.append(period)
        lwpos.append(offset)
        names.append(name)
    return periods, lwpos, names


def summarize_row(
    s: str,
    registry: NameRegistry,
    max_period_fraction: Fraction | int | float | str = Fraction(1, 2),
) -> RowSummary:
    """Classify a periodic string by the Lyndon conjugate of its period.

    ``max_period_fraction`` bounds the admissible period relative to len(s):
    1/2 is the widest supported contract, the matching applications pass
    1/4.  The returned ``lwpos`` is both the least-rotation offset of the
    period prefix and the first start of the Lyndon word in ``s``.

    The row is named by the loop that names a matrix's rows, run over this
    one row.  The registry is probed first: each interned word with the
    class key of the period prefix is looked for in ``s`` with one
    ``str.find``, and the one found is the row's Lyndon word, at ``lwpos``.
    Only at the first sighting of a class does the least-rotation scan run,
    and the new word is interned.  A row the loop cannot admit is reported
    here, with its unbounded period.
    """
    if not s:
        raise InvalidInput("cannot summarize an empty row")
    fraction = period_fraction(max_period_fraction)
    periods, lwpos, names = _name_rows((s,), registry, fraction)
    if not periods:
        period = compute_period(s)
        raise NotSufficientlyPeriodic(
            f"period {period} exceeds {fraction} of width {len(s)}", period=period
        )
    return RowSummary(periods[0], lwpos[0], names[0])
