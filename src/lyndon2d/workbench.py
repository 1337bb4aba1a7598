"""Command-line workbench: file formats, fixture generation, benchmarks.

Matrix files are plain text, one row per line; blank lines and lines
starting with '#' are ignored.  All commands print machine-parseable
records (JSON on stdout, one per line; the bench command prints TSV) and
send diagnostics to stderr.  Exit codes: 0 success, 1 domain error
(periodicity, a failed cross-check), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from collections.abc import Iterable
from fractions import Fraction
from itertools import repeat

from .classify import ClassifiedMatrix, classify_matrix, conjugacy_shift, longest_suffix_prefix
from .dictmatch import Occurrence, build_index, search_text
from .errors import InvalidInput, InvalidQuery, LyndonError, NotSufficientlyPeriodic
from .lw2d import SummaryColumn, alg2_2dlw
from .reference import DEFAULT_CAP, alg1_2dlw, brute_search, naive_2dlw
from .strings1d import NameRegistry, is_primitive, period_fraction

EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _is_row_text(line: str) -> bool:
    """True iff every character is printable and none is whitespace.

    " " is the one whitespace character ``str.isprintable`` accepts, so this
    equals checking ``ch.isspace() or not ch.isprintable()`` per character.
    """
    return line.isprintable() and " " not in line


def read_matrix_file(path: str) -> list[str]:
    """Parse a matrix file; raises InvalidInput naming the offending line.

    The first faulty line is reported: a line that is not UTF-8, a row with
    a character that is not printable or is whitespace, or a row whose
    width differs from the first row's.  The file is first read as bytes; a
    file that fails the whole-file test below is read once more as text, and
    a byte that is not UTF-8 is reported from that same pass, so no file is
    opened more than twice.
    """
    try:
        with open(path, "rb") as fh:
            lines = list(map(bytes.rstrip, fh, repeat(b"\r\n")))
    except ValueError as exc:  # open() refuses a path with an embedded NUL
        raise InvalidInput(f"{path!r}: {exc}") from None
    # Lines of one width made of ASCII letters and digits are UTF-8 rows,
    # printable and without whitespace, and no blank or comment line, no
    # byte-order mark and no lone-CR line end passes the test, so such a
    # file's lines are its rows.  They are decoded one at a time, so only
    # one copy of the rows is held.
    if len(set(map(len, lines))) == 1 and all(map(bytes.isalnum, lines)):
        for i, line in enumerate(lines):
            lines[i] = line.decode()
        return lines
    del lines  # any other file is read again as text
    # utf-8-sig skips a byte-order mark, and surrogateescape turns each byte
    # that is not UTF-8 into a lone surrogate, which _parse_lines reports at
    # its line
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        return _parse_lines(path, fh)


def _parse_lines(path: str, lines: Iterable[str]) -> list[str]:
    # lines come with their line ends, blank and comment lines included,
    # so that each keeps its line number
    rows: list[str] = []
    width: int | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        try:
            data = line.encode()
        except UnicodeEncodeError:
            # valid UTF-8 never decodes to a lone surrogate, so the line holds
            # an escaped byte, and decoding its bytes strictly gives the reason
            try:
                raw.encode("utf-8", "surrogateescape").decode()
            except UnicodeDecodeError as exc:
                raise InvalidInput(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
        if not line or line.startswith("#"):
            continue
        # a row whose UTF-8 bytes are ASCII letters and digits skips the
        # per-character Unicode lookup, as in read_matrix_file's whole-file
        # test; the test stays inline, as a helper call gives back part of
        # the saving
        if not data.isalnum() and not _is_row_text(line):
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


# ---------------------------------------------------------------------------
# fixture generation


def first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _random_primitive(rng: random.Random, length: int, alphabet: int) -> str:
    if length > 1 and alphabet < 2:
        raise InvalidInput(f"no primitive word of length {length} over a 1-letter alphabet")
    letters = "abcdefghijklmnopqrstuvwxyz"[:alphabet]
    while True:
        word = "".join(rng.choice(letters) for _ in range(length))
        if is_primitive(word):
            return word


def gen_matrix(
    periods: list[int],
    width: int,
    *,
    alphabet: int = 3,
    rng: random.Random | None = None,
    rotate: int = 0,
    strict: bool = False,
) -> list[str]:
    """Deterministic fixture rows, one per requested period.

    Each row tiles a fresh random primitive word of the requested length, so
    its smallest period is exactly that length.  ``rotate`` shifts every row
    left by that many columns of its periodic extension, producing the
    conjugate fixture for a given rotation.
    """
    if rng is None:
        rng = random.Random(0)
    if not 1 <= alphabet <= 26:
        raise InvalidInput(f"alphabet size must be in [1, 26], got {alphabet}")
    if width < 1:
        raise InvalidInput("width must be positive")
    denom = 4 if strict else 2
    rows = []
    for p in periods:
        if p < 1:
            raise InvalidInput("periods must be positive")
        if denom * p > width:
            raise InvalidInput(
                f"period {p} too large for width {width} (limit width/{denom})"
            )
        word = _random_primitive(rng, p, alphabet)
        rows.append("".join(word[(x + rotate) % p] for x in range(width)))
    return rows


def _parse_periods(
    text: str, rows: int | None, width: int, rng: random.Random, strict: bool
) -> list[int]:
    if text == "primes":
        if rows is None:
            raise InvalidInput("--periods primes requires --rows")
        return first_primes(rows)
    if text == "random":
        if rows is None:
            raise InvalidInput("--periods random requires --rows")
        max_p = width // (4 if strict else 2)
        if max_p < 1:
            raise InvalidInput(f"width {width} admits no periodic rows")
        return [rng.randrange(1, max_p + 1) for _ in range(rows)]
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InvalidInput(f"cannot parse period list {text!r}") from None
    if rows is not None and len(values) != rows:
        raise InvalidInput(f"--rows {rows} does not match {len(values)} listed periods")
    return values


# ---------------------------------------------------------------------------
# benchmarking

_SMALL_PERIOD_CHOICES = (1, 2, 3, 4, 6, 12)


def _bench_column(mode: str, m: int, rng: random.Random) -> SummaryColumn:
    if mode == "small-lcm":
        periods = [rng.choice(_SMALL_PERIOD_CHOICES) for _ in range(m)]
    elif mode == "prime-lcm":
        periods = first_primes(m)
    else:
        raise InvalidInput(f"unknown bench mode {mode!r}")
    lwpos = [rng.randrange(p) for p in periods]
    return SummaryColumn(tuple(periods), tuple(lwpos))


def _time_ns(func, repeats: int, min_sample_ns: int = 2_000_000) -> int:
    func()  # warm-up
    t0 = time.perf_counter_ns()
    func()
    once = max(time.perf_counter_ns() - t0, 1)
    inner = min(max(1, min_sample_ns // once), 100_000)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(inner):
            func()
        samples.append((time.perf_counter_ns() - t0) / inner)
    return int(statistics.median(samples))


def format_big(value: int, max_digits: int = 24) -> str:
    text = str(value)
    if len(text) <= max_digits:
        return text
    return f"{text[:12]}...({len(text)} digits)"


def bench_case(mode: str, m: int, repeats: int, rng: random.Random, cap: int) -> dict:
    """One benchmark row; outputs are cross-checked before any timing."""
    col = _bench_column(mode, m, rng)
    fast = alg2_2dlw(col)
    bounded = alg1_2dlw(col)
    if bounded != fast:
        raise LyndonError(f"bench cross-check failed at m={m}: alg1 != alg2")
    naive_ok = fast.lcm <= cap
    if naive_ok:
        reference = naive_2dlw(col, cap=cap)
        if reference != fast:
            raise LyndonError(f"bench cross-check failed at m={m}: naive != alg2")
    return {
        "m": m,
        "lcm": fast.lcm,
        "t_naive_ns": _time_ns(lambda: naive_2dlw(col, cap=cap), repeats) if naive_ok else None,
        "t_alg1_ns": _time_ns(lambda: alg1_2dlw(col), repeats),
        "t_alg2_ns": _time_ns(lambda: alg2_2dlw(col), repeats),
    }


def run_bench(
    mode: str,
    sizes: list[int],
    repeats: int,
    *,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
) -> list[dict]:
    rng = random.Random(seed)
    cases = [(m, random.Random(rng.randrange(1 << 30))) for m in sizes]
    return [bench_case(mode, m, repeats, case_rng, cap) for m, case_rng in cases]


# ---------------------------------------------------------------------------
# subcommands


def _emit(record: dict) -> None:
    print(json.dumps(record))


def _classify_file(
    path: str, fraction: Fraction, registry: NameRegistry
) -> tuple[ClassifiedMatrix, int]:
    """Read and classify one matrix file; returns it with the classify time in ns.

    A row that is not periodic enough is reported with the file's path.
    """
    rows = read_matrix_file(path)
    started = time.perf_counter_ns()
    try:
        cm = classify_matrix(rows, fraction, registry)
    except NotSufficientlyPeriodic as exc:
        raise NotSufficientlyPeriodic(f"{path}: {exc}", period=exc.period, row=exc.row) from None
    return cm, time.perf_counter_ns() - started


def _cmd_classify(args: argparse.Namespace) -> int:
    registry = NameRegistry()
    cm, elapsed = _classify_file(args.path, args.fraction, registry)
    words = [registry.word(i) for i in cm.key.names]
    periods = [len(word) for word in words]
    # The canonical conjugate starts z columns in, so each row's own Lyndon
    # offset is its canonical offset moved back by z.
    lwpos = [(offset + cm.z) % p for offset, p in zip(cm.key.offsets, periods)]
    _emit(
        {
            "rows": cm.rows,
            "width": cm.width,
            "periods": periods,
            "lwpos": lwpos,
            "names": words,
            "offsets": list(cm.key.offsets),
            "z": str(cm.z),
            "lcm": str(cm.lcm),
            "elapsed_ns": elapsed,
        }
    )
    return 0


def _classify_pair(args: argparse.Namespace) -> tuple[ClassifiedMatrix, ClassifiedMatrix]:
    registry = NameRegistry()
    a, _ = _classify_file(args.path_a, args.fraction, registry)
    b, _ = _classify_file(args.path_b, args.fraction, registry)
    return a, b


def _cmd_conjugate(args: argparse.Namespace) -> int:
    a, b = _classify_pair(args)
    shift = conjugacy_shift(a, b)
    record: dict = {"same_class": shift is not None}
    if shift is not None:
        record["shift"] = str(shift)
    _emit(record)
    return 0


def _cmd_overlap(args: argparse.Namespace) -> int:
    a, b = _classify_pair(args)
    width = longest_suffix_prefix(a, b)
    record: dict = {"match": width is not None}
    if width is not None:
        record["width"] = width
    _emit(record)
    return 0


def _reading_order(occ: Occurrence) -> tuple[int, int, int]:
    return occ.row, occ.col, occ.pattern


def _cmd_search(args: argparse.Namespace) -> int:
    text = read_matrix_file(args.text)
    patterns = [read_matrix_file(path) for path in args.pattern]
    # build_index numbers the patterns; name a failing file by its path
    m = len(patterns[0])
    for pid, (path, pattern) in enumerate(zip(args.pattern, patterns)):
        if len(pattern) != m or len(pattern[0]) != m:
            raise InvalidInput(f"{path}: pattern {pid} is not {m}x{m}")
    try:
        index = build_index(patterns)
    except NotSufficientlyPeriodic as exc:
        raise NotSufficientlyPeriodic(
            f"{args.pattern[exc.pattern]}: {exc}",
            period=exc.period,
            row=exc.row,
            pattern=exc.pattern,
        ) from None
    found = search_text(text, index)
    for occ in sorted(found, key=_reading_order):
        _emit({"pattern": occ.pattern, "row": occ.row, "col": occ.col})
    if args.oracle:
        expected = brute_search(text, patterns)
        if found != expected:
            missing = sorted(expected - found, key=_reading_order)[:5]
            extra = sorted(found - expected, key=_reading_order)[:5]
            print(
                f"oracle mismatch: missing={missing} extra={extra}",
                file=sys.stderr,
            )
            return EXIT_DOMAIN
        print(f"oracle agreement on {len(found)} occurrences", file=sys.stderr)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    periods = _parse_periods(args.periods, args.rows, args.width, rng, args.strict)
    rows = gen_matrix(
        periods,
        args.width,
        alphabet=args.alphabet,
        rng=rng,
        rotate=args.rotate,
        strict=args.strict,
    )
    for row in rows:
        print(row)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    results = run_bench(args.mode, args.sizes, args.repeats, cap=args.cap, seed=args.seed)
    print("m\tlcm\tt_naive_ns\tt_alg1_ns\tt_alg2_ns")
    for row in results:
        naive = "cap" if row["t_naive_ns"] is None else str(row["t_naive_ns"])
        print(
            f"{row['m']}\t{format_big(row['lcm'])}\t{naive}"
            f"\t{row['t_alg1_ns']}\t{row['t_alg2_ns']}"
        )
    return 0


def _fraction_arg(text: str) -> Fraction:
    try:
        return period_fraction(text)
    except InvalidInput as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _size_list(text: str) -> list[int]:
    return [_positive_int(tok) for tok in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyndon2d",
        description="Classify row-periodic matrices, answer overlap queries, and search 2D dictionaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fraction_help = "max period as a fraction of width, in (0, 1/2] (default: %(default)s)"

    p = sub.add_parser("classify", help="classify one matrix file")
    p.add_argument("path")
    p.add_argument("--fraction", type=_fraction_arg, default="1/2", help=fraction_help)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("conjugate", help="column rotation relating two matrices, if any")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--fraction", type=_fraction_arg, default="1/4", help=fraction_help)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("overlap", help="widest horizontal suffix-prefix match of two matrices")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--fraction", type=_fraction_arg, default="1/4", help=fraction_help)
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("search", help="find dictionary patterns in a text matrix")
    p.add_argument("--text", required=True)
    p.add_argument("--pattern", action="append", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check against brute force")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("gen", help="generate a periodic matrix fixture")
    p.add_argument("--rows", type=_positive_int, default=None)
    p.add_argument("--width", type=int, required=True)
    p.add_argument(
        "--periods",
        required=True,
        help="comma list (e.g. 2,3,1), 'primes', or 'random'",
    )
    p.add_argument("--alphabet", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rotate", type=int, default=0, help="emit the left-rotation by this many columns")
    p.add_argument("--strict", action="store_true", help="enforce periods <= width/4")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time the three algorithms on synthetic inputs")
    p.add_argument("--mode", choices=("small-lcm", "prime-lcm"), required=True)
    p.add_argument("--sizes", type=_size_list, default="8,16,32", help="comma list of row counts")
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInput, InvalidQuery) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LyndonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
