from __future__ import annotations

import builtins
import contextlib
import io
import json
import random
import string
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_MATRIX
from lyndon2d import InvalidInput, NameRegistry, workbench
from lyndon2d.classify import summarize_matrix
from lyndon2d.lw2d import TwoDLyndonWord, alg2_2dlw
from lyndon2d.strings1d import compute_period
from lyndon2d.workbench import (
    _is_row_text,
    first_primes,
    format_big,
    gen_matrix,
    main,
    read_matrix_file,
    run_bench,
)
from oracles import brute_period, periodic_extension, read_matrix_file_by_definition


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "lyndon2d", *args], capture_output=True, text=True
    )


def write_matrix(path, rows):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def sample_file(tmp_path):
    return write_matrix(tmp_path / "fig.txt", SAMPLE_MATRIX)


# ---------------------------------------------------------------------------
# matrix files


def test_read_matrix_file_skips_comments(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# header\n\nabab\ncdcd\n\n# trailer\n", encoding="utf-8")
    assert read_matrix_file(str(path)) == ["abab", "cdcd"]


def test_read_matrix_file_no_trailing_newline(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(b"abab\ncdcd")
    assert read_matrix_file(str(path)) == ["abab", "cdcd"]


def test_read_matrix_file_errors_name_lines(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("abab\nabc\n", encoding="utf-8")
    with pytest.raises(InvalidInput, match=":2:"):
        read_matrix_file(str(path))
    path.write_text("ab ab\n", encoding="utf-8")
    with pytest.raises(InvalidInput, match=":1:"):
        read_matrix_file(str(path))
    path.write_text("# only comments\n", encoding="utf-8")
    with pytest.raises(InvalidInput):
        read_matrix_file(str(path))


def test_gen_roundtrip_periods(tmp_path):
    rows = gen_matrix([2, 3, 1, 3, 3, 2, 3, 2], 8, alphabet=3)
    assert [compute_period(r) for r in rows] == [2, 3, 1, 3, 3, 2, 3, 2]
    assert [brute_period(r) for r in rows] == [2, 3, 1, 3, 3, 2, 3, 2]
    path = write_matrix(tmp_path / "g.txt", rows)
    assert read_matrix_file(path) == rows


def test_gen_constant_rows():
    assert gen_matrix([1, 1], 6, alphabet=1) == ["aaaaaa", "aaaaaa"]


def test_gen_infeasible_combination():
    with pytest.raises(InvalidInput):
        gen_matrix([2], 8, alphabet=1)
    with pytest.raises(InvalidInput):
        gen_matrix([5], 8)
    with pytest.raises(InvalidInput):
        gen_matrix([3], 8, strict=True)


def test_first_primes():
    assert first_primes(5) == [2, 3, 5, 7, 11]
    assert len(first_primes(25)) == 25 and first_primes(25)[-1] == 97


def test_format_big():
    assert format_big(123) == "123"
    big = 10**50 + 7
    assert format_big(big) == f"{str(big)[:12]}...(51 digits)"


# ---------------------------------------------------------------------------
# CLI: classify


def test_cli_classify_sample_golden(sample_file):
    result = run_cli("classify", sample_file, "--fraction", "1/2")
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout)
    assert record["rows"] == 8 and record["width"] == 8
    assert record["periods"] == [2, 3, 1, 3, 3, 2, 3, 2]
    assert record["lwpos"] == [0, 2, 0, 1, 1, 1, 2, 1]
    assert record["offsets"] == [0, 0, 0, 2, 2, 1, 0, 1]
    assert record["z"] == "2" and record["lcm"] == "6"
    assert "algorithm" not in record
    assert record["elapsed_ns"] > 0


def test_cli_classify_all_a(tmp_path):
    path = write_matrix(tmp_path / "a.txt", ["aaaa"] * 4)
    result = run_cli("classify", path)
    record = json.loads(result.stdout)
    assert record["offsets"] == [0, 0, 0, 0]
    assert record["z"] == "0" and record["lcm"] == "1"


def test_cli_classify_primes_cap(tmp_path):
    gen = run_cli(
        "gen", "--rows", "25", "--width", "404", "--periods", "primes", "--strict"
    )
    assert gen.returncode == 0, gen.stderr
    path = tmp_path / "primes.txt"
    path.write_text(gen.stdout, encoding="utf-8")
    result = run_cli("classify", str(path), "--fraction", "1/4")
    assert result.returncode == 0
    record = json.loads(result.stdout)
    assert record["periods"] == first_primes(25)
    assert len(record["lcm"]) == 37  # about 2.3e36
    # the CLI derives lwpos from classify_matrix's canonical offsets and z
    col = summarize_matrix(read_matrix_file(str(path)), Fraction(1, 4), NameRegistry())
    assert record["lwpos"] == list(col.lwpos)
    assert record["offsets"] == list(alg2_2dlw(col).offsets)


def test_cli_classify_parse_and_domain_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("abab\nabc\n", encoding="utf-8")
    result = run_cli("classify", str(bad))
    assert result.returncode == 2
    assert ":2:" in result.stderr

    aperiodic = write_matrix(tmp_path / "ap.txt", ["abcd", "abcd"])
    result = run_cli("classify", aperiodic)
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {aperiodic}: row 0: ")

    # overlap classifies two files; the error names the one that failed
    periodic = write_matrix(tmp_path / "p.txt", ["abababab", "aaaaaaaa"])
    second = write_matrix(tmp_path / "ap2.txt", ["abababab", "abcdabcd"])
    result = run_cli("overlap", periodic, second)
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {second}: row 1: ")
    assert periodic not in result.stderr and "Traceback" not in result.stderr

    # search builds one index from every pattern file; the error names the
    # file that failed, not its position
    text = write_matrix(tmp_path / "t.txt", ["abababab"] * 8)
    pattern = write_matrix(tmp_path / "pat.txt", ["abababab"] * 8)
    second = write_matrix(tmp_path / "ap8.txt", ["abcdabcd"] * 8)
    result = run_cli("search", "--text", text, "--pattern", pattern, "--pattern", second)
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {second}: pattern 1 row 0: ")
    assert pattern not in result.stderr and "Traceback" not in result.stderr

    result = run_cli("classify", str(tmp_path / "missing.txt"))
    assert result.returncode == 2


def test_cli_overlap_refusal_exits_2(tmp_path, capsys):
    # an overlap of 4 columns exists, but rows of periods 4 and 3 need 6 to
    # share a class, so the query refuses instead of reporting no match
    a = write_matrix(tmp_path / "a.txt", ["bbabbbab"])
    b = write_matrix(tmp_path / "b.txt", ["bbabbabb"])
    assert main(["overlap", a, b, "--fraction", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: matrices of different classes")


def test_cli_search_names_mis_sized_pattern_file(tmp_path, capsys):
    text = write_matrix(tmp_path / "t.txt", ["aaaaaaaa"] * 8)
    square = write_matrix(tmp_path / "p.txt", ["aaaa"] * 4)
    wide = write_matrix(tmp_path / "p2.txt", ["aaaa"] * 2)
    # a lone 2x4 file, and a 2x4 file after a 4x4 one: both are named by path
    for patterns, pid, m in (([wide], 0, 2), ([square, wide], 1, 4)):
        argv = ["search", "--text", text]
        for path in patterns:
            argv += ["--pattern", path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {wide}: pattern {pid} is not {m}x{m}\n"
    # the square file alone searches
    assert main(["search", "--text", text, "--pattern", square]) == 0


def test_row_text_predicate_every_code_point():
    for code in range(0x110000):
        ch = chr(code)
        assert _is_row_text(ch) == (not (ch.isspace() or not ch.isprintable())), hex(code)


def test_read_matrix_file_rejects_inner_whitespace(tmp_path):
    for ch in ("\t", "\x0b", "\u00a0", "\u3000", "\x00"):
        path = write_matrix(tmp_path / "m.txt", ["abab", f"ab{ch}b"])
        with pytest.raises(InvalidInput, match=":2:"):
            read_matrix_file(path)


def test_read_matrix_file_rejects_non_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"abab\nab\xffab\n")
    with pytest.raises(InvalidInput, match="latin1.txt"):
        read_matrix_file(str(path))
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "latin1.txt" in err and "Traceback" not in err


@pytest.mark.parametrize(
    ("data", "message"),
    [
        (b"abab\nabab\nab\xffb\n", "3: not UTF-8 text (invalid start byte)"),
        (b"abab\r\nabab\r\nab\xffb\r\n", "3: not UTF-8 text (invalid start byte)"),
        (b"abab\rabab\rab\xffb\r", "3: not UTF-8 text (invalid start byte)"),
        (b"abab\n#\xff\nabab\n", "2: not UTF-8 text (invalid start byte)"),  # a comment
        (b"abab\n#\t\xff\nabab\n", "2: not UTF-8 text (invalid start byte)"),  # with a tab
        # an encoded surrogate, which UTF-8 forbids
        (b"abab\nab\xed\xb2\x80b\n", "2: not UTF-8 text (invalid continuation byte)"),
        ("ab\u00e9b\n".encode() + b"ab\xffb\n", "2: not UTF-8 text (invalid start byte)"),
        (b"\xef\xbb\xbfabab\nab\xffb\n", "2: not UTF-8 text (invalid start byte)"),
        (b"abab\nabab\nab\xe2\x82", "3: not UTF-8 text (unexpected end of data)"),  # cut
        (b"abab\n" * 3000 + b"ab\xc3\n", "3001: not UTF-8 text (invalid continuation byte)"),
        # an earlier fault is reported first, wherever the decoder fails
        (b"abab\nabc\nab\xffb\n", "2: expected width 4, got 3"),
        (b"abab\nabc\nab\xe2\x82", "2: expected width 4, got 3"),
        # faults on the last line, which the whole-file test sends on to the
        # line parser
        (b"abab\ncdcd\nab\n", "3: expected width 4, got 2"),
        (b"abab\ncdcd\nab d\n", "3: rows must be printable, non-whitespace characters"),
    ],
)
def test_read_matrix_file_names_the_first_faulty_line(tmp_path, data, message):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    for reader in (read_matrix_file, read_matrix_file_by_definition):
        with pytest.raises(InvalidInput) as info:
            reader(str(path))
        assert str(info.value) == f"{path}:{message}"


def test_read_matrix_file_opens_a_file_at_most_twice(tmp_path, monkeypatch):
    # once as bytes, and once as text for a file that fails the whole-file
    # test, a byte that is not UTF-8 included
    path = tmp_path / "bad.txt"
    path.write_bytes(b"abab\n" * 3 + b"ab\xffb\n")
    opens = []
    real_open = builtins.open

    def counting_open(*args, **kwargs):
        opens.append(args)
        return real_open(*args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    with pytest.raises(InvalidInput, match=":4: not UTF-8 text \\(invalid start byte\\)"):
        read_matrix_file(str(path))
    assert len(opens) <= 2


def test_read_matrix_file_skips_a_byte_order_mark(tmp_path, capsys):
    plain = write_matrix(tmp_path / "plain.txt", SAMPLE_MATRIX)
    marked = tmp_path / "bom.txt"
    marked.write_text("\ufeff" + "\n".join(SAMPLE_MATRIX) + "\n", encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_matrix_file(str(marked)) == read_matrix_file(plain) == SAMPLE_MATRIX
    assert main(["classify", plain]) == 0 == main(["classify", str(marked)])
    out = capsys.readouterr().out.splitlines()
    # elapsed_ns differs between runs; every other field is equal
    a, b = (json.loads(line) for line in out)
    del a["elapsed_ns"], b["elapsed_ns"]
    assert a == b
    # only a leading mark is skipped: U+FEFF inside a row is still rejected
    inner = write_matrix(tmp_path / "inner.txt", ["abab", "ab\ufeffb"])
    with pytest.raises(InvalidInput, match=":2:"):
        read_matrix_file(inner)
    inner = write_matrix(tmp_path / "inner.txt", ["a\ufeffbab"])
    with pytest.raises(InvalidInput, match=":1:"):
        read_matrix_file(inner)


def test_row_fast_path_is_sound_on_ascii():
    # read_matrix_file skips _is_row_text for ASCII rows whose bytes are all
    # alphanumeric, so every such character must pass the full check
    for code in range(128):
        if bytes([code]).isalnum():
            assert _is_row_text(chr(code)), hex(code)


@pytest.mark.parametrize(
    "data",
    [
        b"abab\ncdcd\n",
        b"abab\r\ncdcd\r\n",
        b"abab\rcdcd\r",
        # files whose lines are all rows of letters and digits, which the
        # whole-file test returns as they are
        b"abab\ncdcd",  # no line end after the last row
        b"\xef\xbb\xbfabab\ncdcd\n",  # a byte-order mark
        b"0101\n2323\n",  # digits only
        # files with other lines, which the line parser reads
        b"abab\ncdcd\n\n",  # a trailing blank line
        b"abab\ncdcd\n#end\n",  # a comment of the rows' width
        "ab\u00e9b\ncdcd\n".encode(),  # printable, not ASCII
    ],
)
def test_read_matrix_file_reads_lf_crlf_and_lone_cr(tmp_path, data):
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    rows = read_matrix_file(str(path))
    assert rows == read_matrix_file_by_definition(str(path))
    assert rows == data.decode("utf-8-sig").split()[:2]


def test_read_matrix_file_counts_lines_at_any_line_end(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(b"abab\rcdc\r")
    with pytest.raises(InvalidInput, match=":2: expected width 4, got 3"):
        read_matrix_file(str(path))
    path.write_bytes(b"abab\r\ncdcd\r\nab\r\n")
    with pytest.raises(InvalidInput, match=":3: expected width 4, got 2"):
        read_matrix_file(str(path))


def test_read_matrix_file_memory_stays_line_by_line(tmp_path):
    rng = random.Random(0)
    rows = ["".join(rng.choice("abcd") for _ in range(256)) for _ in range(256)]
    path = write_matrix(tmp_path / "m.txt", rows)
    read_matrix_file(path)  # the decoder's first use imports its module
    tracemalloc.start()
    try:
        got = read_matrix_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == rows
    # the rows themselves plus a bounded read buffer; reading the whole file
    # at once would hold its bytes and its text besides the rows
    held = sys.getsizeof(got) + sum(sys.getsizeof(row) for row in got)
    assert peak <= held + 32 * 1024, (peak, held)


_ROW_CHARS = string.ascii_letters + string.digits
# every other kind of character a row check must judge: punctuation
# (including "#"), whitespace, controls, non-ASCII letters, U+00A0, U+2028
# and an inner byte-order mark
_OTHER_CHARS = string.punctuation + " \t\x00\x0c\x7f\u00e9\u00df\u00a0\u2028\ufeff"
# a byte that is never UTF-8, a lead byte without its continuation, and a
# three-byte sequence cut after two bytes
_BAD_UTF8 = (b"\xff", b"\xc3", b"\xe2\x80")


@st.composite
def _matrix_file_bytes(draw) -> bytes:
    """A small file of rows, other lines, blank and comment lines, any line ends."""
    width = draw(st.integers(1, 6))
    row = st.text(st.sampled_from(_ROW_CHARS), min_size=width, max_size=width)
    other = st.text(st.sampled_from(_ROW_CHARS + _OTHER_CHARS), max_size=width + 1)
    line = row | row | other | other.map("#".__add__) | st.just("")
    end = st.sampled_from(["\n", "\r\n", "\r"])
    lines = draw(st.lists(st.tuples(line, end), max_size=8))
    text = "".join(body + ending for body, ending in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    data = text.encode()
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_BAD_UTF8)) + data[at:]
    return data


def _rows_or_message(reader, path: str):
    try:
        return reader(path)
    except InvalidInput as exc:
        return f"InvalidInput: {exc}"


@pytest.fixture(scope="module")
def reader_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "m.txt"


@settings(max_examples=400, deadline=None)
@given(data=_matrix_file_bytes())
def test_read_matrix_file_equals_the_definition(reader_path, data):
    reader_path.write_bytes(data)
    expected = _rows_or_message(read_matrix_file_by_definition, str(reader_path))
    assert _rows_or_message(read_matrix_file, str(reader_path)) == expected


# ---------------------------------------------------------------------------
# CLI: argument validation


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "m.txt", "--fraction", "abc"],
        ["classify", "m.txt", "--fraction", "1/0"],
        ["classify", "m.txt", "--fraction", "0"],
        ["classify", "m.txt", "--fraction", "3/4"],
        ["classify", "m.txt", "--fraction", "-1/4"],
        ["conjugate", "a.txt", "b.txt", "--fraction", "abc"],
        ["overlap", "a.txt", "b.txt", "--fraction", "1/0"],
        ["bench", "--mode", "small-lcm", "--sizes", "a"],
        ["bench", "--mode", "small-lcm", "--sizes", "4,0"],
        ["bench", "--mode", "small-lcm", "--repeats", "0"],
        ["bench", "--mode", "small-lcm", "--cap", "-1"],
        ["gen", "--width", "8", "--periods", "primes", "--rows", "-1"],
        ["overlap", "a.txt", "b.txt", "--fraction", "3/4"],
        ["bench", "--mode", "large-lcm"],
    ],
)
def test_cli_rejects_bad_arguments_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: argument" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--text", "t.txt", "--pattern", "p.txt", "--parallel"],
        ["bench", "--mode", "small-lcm", "--parallel"],
        ["classify", "m.txt", "--algo", "alg2"],
        ["classify", "m.txt", "--cap", "6"],
        ["classify", "m.txt", "--faithful"],
    ],
)
def test_cli_removed_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    removed = argv[-1] if argv[-1].startswith("--") else argv[-2]
    assert removed in err


def test_read_matrix_file_rejects_nul_in_path(capsys):
    with pytest.raises(InvalidInput, match="null"):
        read_matrix_file("m\x00.txt")
    assert main(["classify", "m\x00.txt"]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    """Matrix paths for generated argv: usable, aperiodic, malformed and missing."""
    folder = tmp_path_factory.mktemp("cli")
    pattern = gen_matrix([2, 1, 2, 2, 1, 2, 2, 1], 8, alphabet=2, strict=True)
    matrices = {
        "sample": SAMPLE_MATRIX,
        "pattern": pattern,
        "text": [periodic_extension(row, 24) for row in pattern] * 2,
        "aperiodic": ["abcdefgh"] * 8,
        "ragged": ["abab", "abc"],
        "empty": ["# no rows"],
    }
    paths = {name: write_matrix(folder / f"{name}.txt", rows) for name, rows in matrices.items()}
    (folder / "latin1.txt").write_bytes(b"abab\nab\xffab\n")
    for name in ("latin1", "missing"):
        paths[name] = str(folder / f"{name}.txt")
    paths["folder"] = str(folder)
    return paths


def _generated_argv(data, paths: dict[str, str]) -> list[str]:
    """One argv of a subcommand: positionals, required and optional flags, junk.

    Each of the positionals, the required flags and the absence of a stray
    token holds in three draws out of four, so every exit code turns up.
    """
    def path(*usable: str):
        return st.sampled_from([paths[name] for name in usable]) | st.sampled_from(
            sorted(paths.values())
        )

    number = st.integers(-2, 64).map(str) | st.sampled_from(["", "x", "1.5", "1e3"])
    fraction = st.sampled_from(["1/4", "1/2", "0.25", "1/3", "0", "3/4", "-1/4", "1/0", "abc"])
    periods = st.sampled_from(["primes", "random", "", "2,x"]) | st.lists(
        st.integers(1, 8) | st.integers(-1, 64), min_size=1, max_size=8
    ).map(lambda ps: ",".join(map(str, ps)))
    usually = st.integers(0, 3).map(bool)
    matrix = path("sample", "pattern", "text")
    # subcommand -> (positional count, required flags, every flag's value or None)
    forms = {
        "classify": (1, (), {"--fraction": fraction}),
        "conjugate": (2, (), {"--fraction": fraction}),
        "overlap": (2, (), {"--fraction": fraction}),
        "search": (0, ("--text", "--pattern"), {
            "--text": path("text"),
            "--pattern": path("pattern"),
            "--oracle": None,
        }),
        "gen": (0, ("--width", "--periods"), {
            "--rows": number,
            "--width": number,
            "--periods": periods,
            "--alphabet": st.integers(-1, 27).map(str),
            "--seed": number,
            "--rotate": number,
            "--strict": None,
        }),
    }
    command = data.draw(st.sampled_from(sorted(forms)))
    n_positional, required, options = forms[command]
    argv = [command]
    if data.draw(usually):
        argv += data.draw(st.lists(matrix, min_size=n_positional, max_size=n_positional))
    flags = [flag for flag in required if data.draw(usually)]
    flags += data.draw(st.lists(st.sampled_from(sorted(options)), max_size=4))
    for flag in flags:
        argv.append(flag)
        if options[flag] is not None:
            argv.append(data.draw(options[flag]))
    if not data.draw(usually):
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(st.text(max_size=4)))
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_exit_contract_on_generated_argv(cli_paths, data):
    argv = _generated_argv(data, cli_paths)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize(
    ("command", "default"), [("classify", "1/2"), ("conjugate", "1/4"), ("overlap", "1/4")]
)
def test_cli_fraction_help_shows_its_default(command, default, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    expected = f"max period as a fraction of width, in (0, 1/2] (default: {default})"
    assert f"--fraction FRACTION {expected}" in help_text


def test_cli_fraction_accepts_decimal_and_bound(sample_file, capsys):
    assert main(["classify", sample_file, "--fraction", "0.5"]) == 0
    assert main(["classify", sample_file, "--fraction", "1/2"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records[0]["offsets"] == records[1]["offsets"]


# ---------------------------------------------------------------------------
# CLI: conjugate / overlap


def test_cli_conjugate_and_overlap_identical(tmp_path):
    rows = gen_matrix([2, 3, 1], 16, alphabet=3, strict=True)
    path = write_matrix(tmp_path / "m.txt", rows)
    conj = run_cli("conjugate", path, path)
    assert json.loads(conj.stdout) == {"same_class": True, "shift": "0"}
    over = run_cli("overlap", path, path)
    assert json.loads(over.stdout) == {"match": True, "width": 16}


def test_cli_conjugate_rotated_fixture(tmp_path):
    args = ["gen", "--width", "16", "--periods", "2,3,4", "--seed", "9", "--strict"]
    base = run_cli(*args)
    rotated = run_cli(*args, "--rotate", "2")
    path_a = tmp_path / "a.txt"
    path_b = tmp_path / "b.txt"
    path_a.write_text(base.stdout, encoding="utf-8")
    path_b.write_text(rotated.stdout, encoding="utf-8")
    result = run_cli("conjugate", str(path_a), str(path_b))
    assert json.loads(result.stdout) == {"same_class": True, "shift": "2"}
    over = run_cli("overlap", str(path_a), str(path_b))
    assert json.loads(over.stdout) == {"match": True, "width": 14}


def test_cli_different_content(tmp_path):
    path_a = write_matrix(tmp_path / "a.txt", ["aaaa"] * 2)
    path_b = write_matrix(tmp_path / "b.txt", ["bbbb"] * 2)
    result = run_cli("conjugate", str(path_a), str(path_b))
    assert json.loads(result.stdout) == {"same_class": False}
    over = run_cli("overlap", str(path_a), str(path_b))
    assert json.loads(over.stdout) == {"match": False}


def test_cli_dimension_mismatch(tmp_path):
    path_a = write_matrix(tmp_path / "a.txt", ["aaaa"] * 2)
    path_b = write_matrix(tmp_path / "b.txt", ["aaaa"] * 3)
    result = run_cli("overlap", str(path_a), str(path_b))
    assert result.returncode == 2
    assert "differ" in result.stderr


# ---------------------------------------------------------------------------
# CLI: gen determinism


def test_cli_gen_deterministic():
    args = ("gen", "--rows", "6", "--width", "24", "--periods", "random", "--seed", "3")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    different = run_cli(*args[:-1], "4")
    assert different.stdout != first.stdout


def test_cli_gen_usage_errors():
    assert run_cli("gen", "--width", "8", "--periods", "primes").returncode == 2
    assert (
        run_cli("gen", "--rows", "3", "--width", "12", "--periods", "prime-set").returncode
        == 2
    )
    assert run_cli("gen", "--width", "8", "--periods", "2,x").returncode == 2
    assert (
        run_cli("gen", "--rows", "2", "--width", "8", "--periods", "2,2,2").returncode
        == 2
    )


# ---------------------------------------------------------------------------
# CLI: search


def test_cli_search_planted(tmp_path):
    import random

    rng = random.Random(11)
    pattern = gen_matrix([2, 1, 2, 2, 1, 2, 2, 1], 8, alphabet=2, rng=rng, strict=True)
    text = [periodic_extension(row, 32) for row in pattern] * 2
    text_path = write_matrix(tmp_path / "text.txt", text)
    pat_path = write_matrix(tmp_path / "pat.txt", pattern)
    result = run_cli("search", "--text", text_path, "--pattern", pat_path, "--oracle")
    assert result.returncode == 0, result.stderr
    records = [json.loads(line) for line in result.stdout.splitlines()]
    assert records
    assert {"pattern": 0, "row": 0, "col": 0} in records
    keys = [(r["row"], r["col"], r["pattern"]) for r in records]
    assert keys == sorted(keys)
    assert "oracle agreement" in result.stderr


def test_cli_search_no_match(tmp_path):
    pattern = gen_matrix([2] * 8, 8, alphabet=2, strict=True)
    text = ["c" * 32] * 16  # constant rows, different alphabet content
    text_path = write_matrix(tmp_path / "text.txt", text)
    pat_path = write_matrix(tmp_path / "pat.txt", pattern)
    result = run_cli("search", "--text", text_path, "--pattern", pat_path)
    assert result.returncode == 0
    assert result.stdout == ""


def test_cli_search_oracle_mismatch_reports(tmp_path, monkeypatch, capsys):
    import random

    rng = random.Random(13)
    patterns = [
        gen_matrix([2, 1, 2, 2, 1, 2, 2, 1], 8, alphabet=2, rng=rng, strict=True),
        gen_matrix([1, 2, 2, 1, 2, 1, 2, 2], 8, alphabet=2, rng=rng, strict=True),
    ]
    text = [periodic_extension(row, 32) for pat in patterns for row in pat]
    text_path = write_matrix(tmp_path / "text.txt", text)
    pat_paths = [write_matrix(tmp_path / f"p{i}.txt", pat) for i, pat in enumerate(patterns)]
    real_search = workbench.search_text

    def lossy_search(*args, **kwargs):
        found = sorted(real_search(*args, **kwargs), key=lambda o: (o.row, o.col))
        return set(found[::2])  # drop every other occurrence

    monkeypatch.setattr(workbench, "search_text", lossy_search)
    argv = ["search", "--text", text_path, "--oracle"]
    for path in pat_paths:
        argv += ["--pattern", path]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "oracle mismatch" in err
    assert "Traceback" not in err


def test_cli_search_oracle_runs_without_numpy(tmp_path, monkeypatch, capsys):
    pattern = gen_matrix([2, 1, 2, 2, 1, 2, 2, 1], 8, alphabet=2, strict=True)
    text = [periodic_extension(row, 32) for row in pattern]
    text_path = write_matrix(tmp_path / "text.txt", text)
    pat_path = write_matrix(tmp_path / "pat.txt", pattern)
    monkeypatch.setitem(sys.modules, "numpy", None)  # makes `import numpy` fail
    assert main(["search", "--text", text_path, "--pattern", pat_path, "--oracle"]) == 0
    captured = capsys.readouterr()
    assert captured.out
    assert "oracle agreement" in captured.err and "Traceback" not in captured.err


def test_import_does_not_load_numpy():
    code = "import sys, lyndon2d, lyndon2d.workbench; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["lyndon2d.reference", "dataclasses", "inspect"])
def test_import_does_not_load_reference(module):
    code = f"import sys, lyndon2d; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_public_api_is_the_supported_names():
    import importlib

    import lyndon2d

    supported = [
        "CapExceeded",
        "InvalidInput",
        "InvalidQuery",
        "LyndonError",
        "NotLyndon",
        "NotPrimitive",
        "NotSufficientlyPeriodic",
        "NameRegistry",
        "OpCounter",
        "Occurrence",
        "DictionaryIndex",
        "ClassifiedMatrix",
        "MatrixClassKey",
        "build_index",
        "search_text",
        "classify_matrix",
        "conjugacy_shift",
        "longest_suffix_prefix",
    ]
    assert sorted(lyndon2d.__all__) == sorted(supported)
    for name in lyndon2d.__all__:
        assert getattr(lyndon2d, name) is not None
    # building blocks outside __all__ stay importable from their modules
    internal = {
        "classify": ["summarize_matrix"],
        "dictmatch": ["verify_candidate"],
        "lw2d": ["SummaryColumn", "TwoDLWBuilder", "alg2_2dlw"],
        "strings1d": [
            "compute_period",
            "is_lyndon",
            "is_primitive",
            "least_rotation",
            "summarize_row",
        ],
    }
    for module, names in internal.items():
        loaded = importlib.import_module(f"lyndon2d.{module}")
        for name in names:
            assert callable(getattr(loaded, name)), (module, name)


# ---------------------------------------------------------------------------
# CLI: bench


def test_cli_bench_small(tmp_path):
    result = run_cli(
        "bench", "--mode", "small-lcm", "--sizes", "4,8", "--repeats", "1"
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "m\tlcm\tt_naive_ns\tt_alg1_ns\tt_alg2_ns"
    assert len(lines) == 3
    for line in lines[1:]:
        m, lcm, t_naive, t1, t2 = line.split("\t")
        assert int(t_naive) > 0 and int(t1) > 0 and int(t2) > 0


def test_cli_bench_cross_check_failure_exits_1(monkeypatch, capsys):
    def wrong_word(col):
        word = alg2_2dlw(col)
        return TwoDLyndonWord(word.offsets, word.z + 1, word.lcm)

    monkeypatch.setattr(workbench, "alg1_2dlw", wrong_word)
    assert main(["bench", "--mode", "small-lcm", "--sizes", "4", "--repeats", "1"]) == 1
    err = capsys.readouterr().err
    assert "cross-check failed" in err
    assert "Traceback" not in err


def test_run_bench_prime_mode_blocks_naive():
    rows = run_bench("prime-lcm", [16], repeats=1)
    assert rows[0]["t_naive_ns"] is None
    assert rows[0]["lcm"] > 1 << 22


def test_run_bench_repeat_invariance():
    one = run_bench("small-lcm", [6], repeats=1, seed=5)
    five = run_bench("small-lcm", [6], repeats=3, seed=5)
    assert one[0]["m"] == five[0]["m"]
    assert one[0]["lcm"] == five[0]["lcm"]
