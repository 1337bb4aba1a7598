from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import SAMPLE_MATRIX
from lyndon2d import InvalidInput, compute_period, workbench
from lyndon2d.workbench import (
    _is_row_text,
    first_primes,
    format_big,
    gen_matrix,
    main,
    read_matrix_file,
    run_bench,
)
from oracles import brute_period


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
    result = run_cli("classify", sample_file, "--algo", "alg2", "--fraction", "1/2")
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout)
    assert record["rows"] == 8 and record["width"] == 8
    assert record["periods"] == [2, 3, 1, 3, 3, 2, 3, 2]
    assert record["lwpos"] == [0, 2, 0, 1, 1, 1, 2, 1]
    assert record["offsets"] == [0, 0, 0, 2, 2, 1, 0, 1]
    assert record["z"] == "2" and record["lcm"] == "6"
    assert record["algorithm"] == "alg2"
    assert record["elapsed_ns"] > 0


def test_cli_classify_identical_across_algorithms(sample_file):
    records = []
    for algo in ("naive", "alg1", "alg2"):
        result = run_cli("classify", sample_file, "--algo", algo, "--fraction", "1/2")
        assert result.returncode == 0
        records.append(json.loads(result.stdout))
    for record in records:
        record.pop("algorithm")
        record.pop("elapsed_ns")
    assert records[0] == records[1] == records[2]


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
    result = run_cli("classify", str(path), "--algo", "naive", "--fraction", "1/4")
    assert result.returncode == 1
    assert "cap" in result.stderr
    result = run_cli("classify", str(path), "--algo", "alg2", "--fraction", "1/4")
    assert result.returncode == 0
    record = json.loads(result.stdout)
    assert record["periods"] == first_primes(25)
    assert len(record["lcm"]) == 37  # about 2.3e36


def test_cli_classify_parse_and_domain_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("abab\nabc\n", encoding="utf-8")
    result = run_cli("classify", str(bad))
    assert result.returncode == 2
    assert ":2:" in result.stderr

    aperiodic = write_matrix(tmp_path / "ap.txt", ["abcd", "abcd"])
    result = run_cli("classify", aperiodic)
    assert result.returncode == 1

    result = run_cli("classify", str(tmp_path / "missing.txt"))
    assert result.returncode == 2


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
        ["classify", "m.txt", "--cap", "-1"],
        ["classify", "m.txt", "--cap", "0"],
        ["bench", "--mode", "small-lcm", "--sizes", "a"],
        ["bench", "--mode", "small-lcm", "--sizes", "4,0"],
        ["bench", "--mode", "small-lcm", "--repeats", "0"],
        ["bench", "--mode", "small-lcm", "--cap", "-1"],
        ["gen", "--width", "8", "--periods", "primes", "--rows", "-1"],
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
    ],
)
def test_cli_removed_parallel_flag_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "--parallel" in err


@pytest.mark.parametrize("algo", ["naive", "alg2"])
def test_cli_faithful_needs_alg1(sample_file, algo, capsys):
    assert main(["classify", sample_file, "--algo", algo, "--faithful"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--faithful" in captured.err and "Traceback" not in captured.err
    assert main(["classify", sample_file, "--algo", "alg1", "--faithful"]) == 0


@pytest.mark.parametrize(
    "extra", [[], ["--algo", "alg2"], ["--algo", "alg1"]]
)
def test_cli_cap_needs_an_enumerating_run(sample_file, extra, capsys):
    assert main(["classify", sample_file, "--cap", "1", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--cap" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "extra", [["--algo", "naive"], ["--algo", "alg1", "--faithful"]]
)
def test_cli_cap_bounds_enumerating_runs(sample_file, extra, capsys):
    # the sample's joint LCM is 6
    assert main(["classify", sample_file, "--cap", "1", *extra]) == 1
    assert main(["classify", sample_file, "--cap", "6", *extra]) == 0
    err = capsys.readouterr().err
    assert "exceeds cap 1" in err and "Traceback" not in err


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
    from oracles import periodic_extension

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

    from oracles import periodic_extension

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
    from oracles import periodic_extension

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


def test_import_does_not_load_reference():
    code = "import sys, lyndon2d; print('lyndon2d.reference' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_public_api_is_the_supported_names():
    import lyndon2d

    supported = [
        "CapExceeded",
        "InvalidInput",
        "InvalidQuery",
        "LyndonError",
        "NoInverse",
        "NotLyndon",
        "NotPrimitive",
        "NotSufficientlyPeriodic",
        "NameRegistry",
        "OpCounter",
        "Occurrence",
        "DictionaryIndex",
        "ClassifiedMatrix",
        "MatrixClassKey",
        "SummaryColumn",
        "TwoDLWBuilder",
        "compute_period",
        "is_primitive",
        "is_lyndon",
        "least_rotation",
        "summarize_row",
        "summarize_matrix",
        "alg2_2dlw",
        "build_index",
        "search_text",
        "verify_candidate",
        "classify_matrix",
        "conjugacy_shift",
        "longest_suffix_prefix",
    ]
    assert sorted(lyndon2d.__all__) == sorted(supported)
    for name in lyndon2d.__all__:
        assert getattr(lyndon2d, name) is not None


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


def test_run_bench_prime_mode_blocks_naive():
    rows = run_bench("prime-lcm", [16], repeats=1)
    assert rows[0]["t_naive_ns"] is None
    assert rows[0]["lcm"] > 1 << 22


def test_run_bench_repeat_invariance():
    one = run_bench("small-lcm", [6], repeats=1, seed=5)
    five = run_bench("small-lcm", [6], repeats=3, seed=5)
    assert one[0]["m"] == five[0]["m"]
    assert one[0]["lcm"] == five[0]["lcm"]
