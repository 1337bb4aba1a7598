"""Canonical conjugate computation for stacks of periodic rows.

A matrix whose rows are all periodic repeats horizontally every LCM of the
row periods.  Rotating whole columns of that repetition shifts each row's
Lyndon offset modulo its own period, so conjugates are compared purely on
their offset arrays.  ``alg2_2dlw`` finds the numerically smallest array by
computing each canonical offset directly with one modular inverse against
the running LCM, touching only a constant number of big-integer operations
per row, so it stays fast when the joint LCM is astronomically large.
``TwoDLWBuilder`` runs that step one row at a time, or over the rows of two
parallel arrays, checking each row as it goes; ``alg2_2dlw`` is the
package's one production path to a 2D Lyndon word.  Search charges its
operation tallies in ``dictmatch.verify_candidate``, once per candidate
lifetime.  The enumeration and candidate-scan oracles live in
:mod:`lyndon2d.reference`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from .errors import InvalidInput


class OpCounter:
    """Tallies of search work for the cost assertions in tests.

    Charged by ``dictmatch.verify_candidate``, which says what each slot
    counts.  Search verifies each candidate once per lifetime, the windows
    in which its m rows keep their names and phases, not once per window.
    """

    __slots__ = ("ops", "lookups", "candidates")

    def __init__(self) -> None:
        self.ops = 0
        self.lookups = 0
        self.candidates = 0


class SummaryColumn(NamedTuple):
    """Per-row periods and Lyndon offsets of a matrix or of text rows.

    ``names`` holds a summarized matrix's interned row ids, one per row; a
    band of text rows carries none.  Building a column checks nothing;
    :func:`alg2_2dlw`, through which every column becomes a 2D Lyndon word,
    checks the arrays it is given.
    """

    periods: Sequence[int]
    lwpos: Sequence[int]
    names: Sequence[int] | None = None

    @property
    def m(self) -> int:
        return len(self.periods)


class TwoDLyndonWord(NamedTuple):
    """Canonical offset array plus the column z where it begins.

    ``offsets[i]`` is the Lyndon offset of row i in the canonical conjugate;
    ``z`` is the (arbitrary-precision) column of that conjugate inside the
    horizontal repetition, whose width is the joint period ``lcm``, so
    0 <= z < lcm.
    """

    offsets: tuple[int, ...]
    z: int
    lcm: int


class TwoDLWBuilder:
    """Row-at-a-time modular computation of the canonical offsets and shift.

    Feed rows top-down with :meth:`add_row` or, for a run of rows,
    :meth:`add_rows`.  After every row, ``offsets``, ``z`` and ``lcm``
    describe the canonical conjugate of the rows seen so far.  The builder
    starts from the canonical conjugate of no rows (z = 0, lcm = 1), so the
    first row takes the same step as every later one.
    """

    def __init__(self) -> None:
        self.offsets: list[int] = []
        self.z = 0
        self.lcm = 1

    def add_row(self, period: int, lwpos: int) -> None:
        self.add_rows((period,), (lwpos,))

    def add_rows(self, periods: Sequence[int], lwpos: Sequence[int]) -> None:
        """Feed every row of two parallel arrays, top row first.

        Same result as one :meth:`add_row` per row.  Each row's offset must
        lie in [0, period), which also rejects a period <= 0; a row outside
        raises ``InvalidInput`` and leaves the builder part-way through the
        arrays, so a builder that raised must be discarded.
        """
        offsets = self.offsets
        z, lcm = self.z, self.lcm
        for period, lw in zip(periods, lwpos):
            if not 0 <= lw < period:
                raise InvalidInput(f"offset {lw} outside [0, {period})")
            first_shift = (lw - z) % period
            rem = lcm % period  # the one big-int modulus for this row
            if rem == 0:
                offsets.append(first_shift)
            else:
                # 0 < rem < period, so p_red >= 2 and rem // g is coprime to it
                g = math.gcd(rem, period)
                p_red = period // g
                x = pow(rem // g, -1, p_red) * (first_shift // g) % p_red
                offsets.append((first_shift - x * rem) % period)
                z += x * lcm
                lcm *= p_red
        self.z, self.lcm = z, lcm


def alg2_2dlw(col: SummaryColumn) -> TwoDLyndonWord:
    """Canonical conjugate via modular arithmetic, no candidate scanning.

    Each row's minimal shifted offset and the column advance that attains it
    are computed directly from a modular inverse, so the whole run costs a
    constant number of big-integer operations per row regardless of how
    large the joint LCM grows.  It checks the arrays it is given: at least
    one row and equal lengths here, since ``zip`` would drop the surplus,
    and every offset inside its positive period in the builder's loop.
    """
    periods, lwpos = col.periods, col.lwpos
    if not periods:
        raise InvalidInput("need at least one row")
    if len(lwpos) != len(periods):
        raise InvalidInput("periods and lwpos must share one length")
    builder = TwoDLWBuilder()
    builder.add_rows(periods, lwpos)
    return TwoDLyndonWord(tuple(builder.offsets), builder.z, builder.lcm)

