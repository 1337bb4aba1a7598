"""Whole-matrix classification and constant-time horizontal overlap queries.

Two matrices land in the same class exactly when their horizontal
repetitions differ only by a whole-column rotation.  A classified matrix is
identified by its row class ids plus the canonical offset array, and carries
the shift z of the canonical conjugate; overlap and conjugacy queries then
reduce to a constant amount of big-integer arithmetic on z values.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import InvalidInput, InvalidQuery, NotSufficientlyPeriodic
from .lw2d import SummaryColumn, alg2_2dlw
from .strings1d import NameRegistry, _name_rows, period_fraction, summarize_row


class MatrixClassKey(NamedTuple):
    """Equivalence-class identity: row class ids plus canonical offsets."""

    names: tuple[int, ...]
    offsets: tuple[int, ...]


class ClassifiedMatrix(NamedTuple):
    """Succinct matrix identity: class key plus the canonical shift z.

    ``registry`` records the row class ids the key is written in; queries
    refuse to compare matrices classified against different registries.
    ``max_period`` is the largest row period, which bounds the overlap that
    ``longest_suffix_prefix`` needs to tell two classes apart.
    """

    key: MatrixClassKey
    z: int
    lcm: int
    rows: int
    width: int
    registry: NameRegistry
    max_period: int


def summarize_matrix(
    rows: Sequence[str],
    fraction: Fraction | int | float | str,
    registry: NameRegistry,
) -> SummaryColumn:
    """Summary column for a rectangular matrix; errors carry the offending row.

    The column carries each row's interned name id besides its period and
    Lyndon offset, so it is all that ``alg2_2dlw`` and a class key need of
    the matrix.  The rows are named in one pass, by the loop that
    :func:`~lyndon2d.strings1d.summarize_row` runs for a single row, and
    the first row it cannot admit is handed to ``summarize_row`` for its
    error.  Every row is named, repeated ones too; ``dictmatch.build_index``
    names a dictionary's distinct rows in one pass of the same loop instead.
    """
    if not rows:
        raise InvalidInput("matrix has no rows")
    width = len(rows[0])
    if not width:
        raise InvalidInput("row 0: empty row")
    if len(set(map(len, rows))) > 1:
        for idx, row in enumerate(rows):
            if len(row) != width:
                raise InvalidInput(f"row {idx}: width {len(row)}, expected {width}")
    periods, lwpos, names = _name_rows(rows, registry, fraction)
    if len(periods) < len(rows):
        # naming stopped at this row, so summarize_row raises its error
        idx = len(periods)
        try:
            summarize_row(rows[idx], registry, fraction)
        except NotSufficientlyPeriodic as exc:
            raise NotSufficientlyPeriodic(
                f"row {idx}: {exc}", period=exc.period, row=idx
            ) from None
    return SummaryColumn(tuple(periods), tuple(lwpos), tuple(names))


def classify_matrix(
    rows: Sequence[str],
    fraction: Fraction | int | float | str,
    registry: NameRegistry | None = None,
) -> ClassifiedMatrix:
    """Classify a matrix into its horizontal conjugacy class.

    Matrices meant to be compared afterwards must be classified against the
    same registry.  ``fraction`` caps each row's period relative to the
    width, and a row above the cap raises
    :class:`~lyndon2d.errors.NotSufficientlyPeriodic`: any value in
    (0, 1/2] works, for conjugacy and overlap queries alike.  The fraction
    only decides which rows are admitted: an admitted row's summary is its
    least period, Lyndon offset and class id whatever the fraction, so
    matrices classified under different fractions compare.  The key and z
    are the 2D Lyndon word that :func:`~lyndon2d.lw2d.alg2_2dlw` computes
    from the matrix's :func:`summarize_matrix` column.
    """
    reg = registry if registry is not None else NameRegistry()
    col = summarize_matrix(rows, period_fraction(fraction), reg)
    word = alg2_2dlw(col)
    return ClassifiedMatrix(
        key=MatrixClassKey(col.names, word.offsets),
        z=word.z,
        lcm=word.lcm,
        rows=col.m,
        width=len(rows[0]),
        registry=reg,
        max_period=max(col.periods),
    )


def _check_comparable(a: ClassifiedMatrix, b: ClassifiedMatrix, *, require_width: bool) -> None:
    if a.rows != b.rows:
        raise InvalidQuery(f"row counts differ: {a.rows} vs {b.rows}")
    if require_width and a.width != b.width:
        raise InvalidQuery(f"widths differ: {a.width} vs {b.width}")
    if a.registry is not b.registry:
        raise InvalidQuery("matrices were classified against different registries")


def conjugacy_shift(a: ClassifiedMatrix, b: ClassifiedMatrix) -> int | None:
    """Column rotation of a's repetition that yields b's, or None.

    Returns the unique c in [0, lcm) such that rotating a's horizontal
    repetition left by c columns gives b's; None when the matrices are in
    different classes.
    """
    _check_comparable(a, b, require_width=False)
    if a.key != b.key:
        return None
    return (a.z - b.z) % a.lcm


def longest_suffix_prefix(a: ClassifiedMatrix, b: ClassifiedMatrix) -> int | None:
    """Widest suffix of a's columns equal to a prefix of b's, if at least half the width.

    Answered with a constant number of big-integer operations and no access
    to matrix characters.  Overlaps narrower than ceil(width/2) columns are
    out of contract and report None.

    The classes decide an overlap of w columns once w >= T, where
    T = max_i(p_i + q_i - gcd(p_i, q_i)) over the row periods p_i of a and
    q_i of b: by Fine-Wilf such an overlap puts row i of both matrices in
    one class.  Matrices of one class have p_i == q_i, so T <= width/2 and
    the answer is exact.  For matrices of different classes with
    T > ceil(width/2), an overlap in [ceil(width/2), T) cannot be told from
    none without the characters, so the query raises
    :class:`~lyndon2d.errors.InvalidQuery` rather than answer None.  Only a
    matrix classified above fraction 1/4 can be refused: at 1/4 or below
    every p_i and q_i is at most width/4, so T < width/2.  T is read from
    the registry words, one per row, and only when the two ``max_period``
    fields allow a refusal.
    """
    _check_comparable(a, b, require_width=True)
    if a.key != b.key:
        # T <= max_period(a) + max_period(b) - 1, so the words are read only
        # when that bound exceeds ceil(width/2), which is (width + 3) // 2 - 1
        if a.max_period + b.max_period > (a.width + 3) // 2:
            half = (a.width + 1) // 2
            word = a.registry.word
            periods = [(len(word(i)), len(word(j))) for i, j in zip(a.key.names, b.key.names)]
            threshold = max(p + q - gcd(p, q) for p, q in periods)
            if threshold > half:
                raise InvalidQuery(
                    f"matrices of different classes: an overlap of {half} to"
                    f" {threshold - 1} columns cannot be decided without their characters"
                )
        return None
    shift = (a.z - b.z) % a.lcm
    if shift > a.width // 2:
        return None
    return a.width - shift
