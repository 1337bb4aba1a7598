"""Reference algorithms the production paths are checked against.

Nothing in the package's own search or classification calls into this
module; the tests, ``bench`` and ``search --oracle`` do.  Two routes to the
canonical conjugate sit beside the production ``alg2_2dlw``:

* ``naive_2dlw`` enumerates every conjugate's offsets (the test oracle),
* ``alg1_2dlw`` eliminates candidate columns row by row; with
  ``faithful=True`` it is the paper's Alg. 1 scan up to the joint LCM.

Both return the same result as ``alg2_2dlw`` whenever they are runnable.
``brute_search`` is the character-by-character ground truth for dictionary
search.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .dictmatch import Occurrence
from .errors import CapExceeded, InvalidInput
from .lw2d import SummaryColumn, TwoDLyndonWord
from .strings1d import compute_period

DEFAULT_CAP = 1 << 22


def conjugate_offsets(col: SummaryColumn, c: int) -> tuple[int, ...]:
    """Offset array of the conjugate that begins c columns to the right."""
    return tuple((lw - c) % p for p, lw in zip(col.periods, col.lwpos))


def naive_2dlw(col: SummaryColumn, cap: int = DEFAULT_CAP) -> TwoDLyndonWord:
    """Reference computation: enumerate every conjugate and take the minimum.

    Work is proportional to the joint LCM, hence the cap.  This is the
    oracle the two fast algorithms are checked against; the smallest column
    attaining the minimal array is returned (columns of the repetition have
    pairwise distinct arrays, so there are never ties).
    """
    total = math.lcm(*col.periods)
    if total > cap:
        raise CapExceeded(f"joint LCM {total} exceeds cap {cap}", lcm=total)
    periods, lwpos = col.periods, col.lwpos
    best: tuple[int, ...] | None = None
    best_c = 0
    for c in range(total):
        arr = tuple((lw - c) % p for p, lw in zip(periods, lwpos))
        if best is None or arr < best:
            best, best_c = arr, c
    assert best is not None
    return TwoDLyndonWord(best, best_c, total)


def alg1_2dlw(
    col: SummaryColumn, *, faithful: bool = False, cap: int = DEFAULT_CAP
) -> TwoDLyndonWord:
    """Canonical conjugate by incremental elimination of candidate columns.

    Rows whose period divides the running LCM fix their offset immediately;
    any other row scans the shifted-offset sequence for its minimum and
    advances z to the first column attaining it.  The scan covers one full
    period of that sequence, which is all that can differ.  With
    ``faithful=True`` the scan instead runs x as long as
    z + x*LCM[i-1] <= LCM_m, touching O(LCM_m) candidates; that mode needs
    the final LCM up front and is guarded by ``cap``.
    """
    periods, lwpos = col.periods, col.lwpos
    lcm_all = 0
    if faithful:
        lcm_all = math.lcm(*periods)
        if lcm_all > cap:
            raise CapExceeded(
                f"faithful scan over LCM {lcm_all} exceeds cap {cap}", lcm=lcm_all
            )
    offsets = [0]
    lcm = periods[0]
    z = lwpos[0]
    for i in range(1, len(periods)):
        p, lw = periods[i], lwpos[i]
        rem = lcm % p
        if rem == 0:
            offsets.append((lw - z) % p)
            continue
        g = math.gcd(rem, p)
        first_shift = (lw - z) % p
        if faithful:
            x_limit = (lcm_all - z) // lcm + 1
        else:
            x_limit = p // g
        best_val = p
        best_x = 0
        for x in range(x_limit):
            val = (first_shift - x * rem) % p
            if val < best_val:
                best_val, best_x = val, x
        offsets.append(best_val)
        z += best_x * lcm
        lcm *= p // g
    return TwoDLyndonWord(tuple(offsets), z, lcm)


def materialize_lcm_matrix(rows: Sequence[str], cap: int = DEFAULT_CAP) -> list[str]:
    """Rows truncated or periodically extended to the width of their joint LCM.

    Each row continues by its smallest period, however large.  Used by test
    oracles; the core algorithms never materialize.
    """
    if not rows:
        raise InvalidInput("matrix has no rows")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise InvalidInput("rows must share one positive width")
    periods = [compute_period(row) for row in rows]
    total = math.lcm(*periods)
    if total > cap:
        raise CapExceeded(f"joint LCM {total} exceeds cap {cap}", lcm=total)
    return ["".join(row[x % p] for x in range(total)) for row, p in zip(rows, periods)]


def brute_search(
    text: Sequence[str], patterns: Sequence[Sequence[str]]
) -> set[Occurrence]:
    """Ground truth: direct character comparison at every text position.

    ``str.find`` locates each pattern's first row in a text row; slice
    equality then checks the pattern's other rows below it.
    """
    rows = list(text)
    if not rows:
        return set()
    n_cols = len(rows[0])
    if any(len(r) != n_cols for r in rows):
        raise InvalidInput("text rows must share one width")
    found: set[Occurrence] = set()
    for pid, pattern in enumerate(patterns):
        height = len(pattern)
        if height == 0 or height > len(rows):
            continue
        first = pattern[0]
        width = len(first)
        if width == 0 or width > n_cols:
            continue
        for top in range(len(rows) - height + 1):
            row = rows[top]
            c = row.find(first)
            while c >= 0:
                if all(
                    rows[top + k][c : c + width] == pattern[k] for k in range(1, height)
                ):
                    found.add(Occurrence(pid, top, c))
                c = row.find(first, c + 1)
    return found
