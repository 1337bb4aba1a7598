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
from typing import NamedTuple

from .errors import InvalidInput, InvalidQuery, NotSufficientlyPeriodic
from .lw2d import SummaryColumn, alg2_2dlw
from .strings1d import NameRegistry, RowSummary, _name_rows, period_fraction, summarize_row


class MatrixClassKey(NamedTuple):
    """Equivalence-class identity: row class ids plus canonical offsets."""

    names: tuple[int, ...]
    offsets: tuple[int, ...]


class ClassifiedMatrix(NamedTuple):
    """Succinct matrix identity: class key plus the canonical shift z.

    ``registry`` records the row class ids the key is written in; queries
    refuse to compare matrices classified against different registries.
    """

    key: MatrixClassKey
    z: int
    lcm: int
    rows: int
    width: int
    registry: NameRegistry


def summarize_matrix(
    rows: Sequence[str],
    fraction: Fraction | int | float | str,
    registry: NameRegistry,
    *,
    memo: dict[str, RowSummary] | None = None,
) -> SummaryColumn:
    """Summary column for a rectangular matrix; errors carry the offending row.

    The column carries each row's interned name id besides its period and
    Lyndon offset, so it is all that ``alg2_2dlw`` and a dictionary index
    need of the matrix.  The rows are named in one pass, by the loop that
    :func:`~lyndon2d.strings1d.summarize_row` runs for a single row, and
    the first row it cannot admit is handed to ``summarize_row`` for its
    error.  ``memo`` maps row strings to their summaries.  A row found
    there is not named again, and each newly named row is stored in it, so
    calls that share one memo, as ``dictmatch.build_index``'s calls do,
    name every distinct row once.  A row's summary depends on the registry,
    and a row found in the memo is not checked against the fraction again,
    so a memo may be shared only among calls that use the same registry and
    fraction.
    """
    if not rows:
        raise InvalidInput("matrix has no rows")
    width = len(rows[0])
    if not width:
        raise InvalidInput("row 0: empty row")
    for idx, row in enumerate(rows):
        if len(row) != width:
            raise InvalidInput(f"row {idx}: width {len(row)}, expected {width}")
    periods, lwpos, names = _name_rows(rows, registry, fraction, memo)
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
    out of contract and report None.  Any classification fraction works:
    an overlap of at least half the width always spans a full period of
    every row, which is what the class-and-shift argument needs.
    """
    _check_comparable(a, b, require_width=True)
    if a.key != b.key:
        return None
    shift = (a.z - b.z) % a.lcm
    if shift > a.width // 2:
        return None
    return a.width - shift
