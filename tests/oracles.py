"""Brute-force reference implementations the fast paths are checked against.

Everything here is deliberately naive: direct definitions, quadratic scans,
full enumerations.  Expected values frozen into the test modules were
computed with these functions.
"""

from __future__ import annotations

import codecs
import random
from collections.abc import Sequence
from typing import NamedTuple

from lyndon2d.dictmatch import SENTINEL
from lyndon2d.errors import InvalidInput


def brute_period(s: str) -> int:
    """Smallest p with s[j] == s[j + p] for all valid j, by trying every p."""
    n = len(s)
    for p in range(1, n):
        if all(s[j] == s[j + p] for j in range(n - p)):
            return p
    return n


def rotations(s: str) -> list[str]:
    return [s[k:] + s[:k] for k in range(len(s))]


def brute_least_rotation(s: str) -> tuple[int, str]:
    """Smallest rotation and the first offset attaining it."""
    rots = rotations(s)
    best = min(rots)
    return rots.index(best), best


def brute_is_lyndon(s: str) -> bool:
    return all(s < r for r in rotations(s)[1:])


def periodic_extension(row: str, width: int, shift: int = 0) -> str:
    """The row continued periodically to `width`, rotated left by `shift`."""
    p = brute_period(row)
    return "".join(row[(x + shift) % p] for x in range(width))


def rot_left(rows: Sequence[str], c: int) -> list[str]:
    """Column rotation of the horizontal repetition, re-cut to the original width."""
    return [periodic_extension(row, len(row), c) for row in rows]


def max_overlap(a: Sequence[str], b: Sequence[str], min_width: int) -> int | None:
    """Widest w >= min_width with a's last w columns equal to b's first w."""
    width = len(a[0])
    for w in range(width, min_width - 1, -1):
        if all(ra[width - w :] == rb[:w] for ra, rb in zip(a, b)):
            return w
    return None


def occurs_at(text: Sequence[str], pattern: Sequence[str], row: int, col: int) -> bool:
    if row < 0 or col < 0 or row + len(pattern) > len(text):
        return False
    if col + len(pattern[0]) > len(text[0]):
        return False
    return all(
        text[row + i][col : col + len(pattern[i])] == pattern[i]
        for i in range(len(pattern))
    )


class NamedWindow(NamedTuple):
    """A column window's rows named one by one: the name characters as one
    string, the periods, and the Lyndon offsets in the window's frame."""

    names: str
    periods: list[int]
    lwpos: list[int]


def named_by_definition(rows: Sequence[str], start: int, width: int, index) -> NamedWindow:
    """Name the window ``row[start:start + width]`` of every row from the definition.

    A row whose brute-force period p is at most ``index.max_period`` and
    whose period prefix has a least rotation registered in the index takes
    that word's name character, period p and the rotation's offset; any
    other row is a ``SENTINEL`` with period 1 and offset 0.
    """
    names, periods, lwpos = [], [], []
    for row in rows:
        piece = row[start : start + width]
        p = brute_period(piece)
        name = None
        if p <= index.max_period:
            offset, word = brute_least_rotation(piece[:p])
            name = index.registry.get(word)
        if name is None:
            names.append(SENTINEL)
            periods.append(1)
            lwpos.append(0)
        else:
            names.append(chr(name + 1))
            periods.append(p)
            lwpos.append(offset)
    return NamedWindow("".join(names), periods, lwpos)


def random_summary_arrays(
    rng: random.Random, max_m: int = 12, max_period: int = 8
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    m = rng.randint(1, max_m)
    periods = tuple(rng.randint(1, max_period) for _ in range(m))
    lwpos = tuple(rng.randrange(p) for p in periods)
    return periods, lwpos


def read_matrix_file_by_definition(path: str) -> list[str]:
    """The matrix-file reader, written from its definition.

    The bytes, less one leading byte-order mark, are split at LF, CRLF and
    lone CR, and each line is decoded with its ending; no line-ending byte
    is ever part of a multi-byte sequence, so the lines are exactly those
    of the decoded text.  Lines are checked in order, and the first faulty
    one is reported: a line that is not UTF-8, or a row whose characters
    are not all printable and non-whitespace, or whose width differs from
    the first row's.  ``workbench.read_matrix_file`` must give the same
    rows, or raise ``InvalidInput`` with the same message, on every file.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except ValueError as exc:  # open() refuses a path with an embedded NUL
        raise InvalidInput(f"{path!r}: {exc}") from None
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8) :]
    rows: list[str] = []
    width: int | None = None
    for lineno, raw in enumerate(data.splitlines(keepends=True), start=1):
        try:
            line = raw.decode("utf-8").rstrip("\r\n")
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
        if not line or line.startswith("#"):
            continue
        if not all(ch.isprintable() and not ch.isspace() for ch in line):
            raise InvalidInput(
                f"{path}:{lineno}: rows must be printable, non-whitespace characters"
            )
        if width is None:
            width = len(line)
        elif len(line) != width:
            raise InvalidInput(f"{path}:{lineno}: expected width {width}, got {len(line)}")
        rows.append(line)
    if not rows:
        raise InvalidInput(f"{path}: no matrix rows found")
    return rows
