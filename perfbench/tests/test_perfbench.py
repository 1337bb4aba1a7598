"""Self-test of the benchmark: inputs, oracle, failure accounting and tracing."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402

TINY = {
    "search-periodic": bench_inputs.PeriodicSpec(
        single_rows=64, alt_rows=64, cols=64, single_groups=2, alt_groups=2, per_group=3,
        texts=2, plants=2,
    ),
    "search-noise": bench_inputs.NoiseSpec(rows=48, cols=48, patterns=6, texts=2, plants=3),
    "classify-overlap": bench_inputs.OverlapSpec(
        rows=12, width=64, bases=2, rotations=2, perturbed=1, probes=5
    ),
}
GENERATORS = {name: gen for name, (_, gen, _) in run.WORKLOADS.items()}


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Make the runs use the tiny specs and a temporary work directory."""
    for name, spec in TINY.items():
        cls, gen, _ = run.WORKLOADS[name]
        monkeypatch.setitem(run.WORKLOADS, name, (cls, gen, lambda spec=spec: spec))
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(TINY))
def test_same_seed_gives_identical_files(name, tmp_path):
    gen = GENERATORS[name]
    gen(TINY[name], 7, tmp_path / "a")
    gen(TINY[name], 7, tmp_path / "b")
    gen(TINY[name], 8, tmp_path / "c")
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.txt"))
    assert files
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    assert any(
        (tmp_path / "a" / rel).read_bytes() != (tmp_path / "c" / rel).read_bytes() for rel in files
    )


def test_search_oracle_matches_direct_comparison(tmp_path):
    inputs = GENERATORS["search-noise"](TINY["search-noise"], 3, tmp_path)
    patterns = [p.read_text().split() for p in inputs.pattern_paths]
    m = inputs.m
    for text, expected in zip(inputs.texts, inputs.expected):
        direct = {
            (pid, r, c)
            for pid, pat in enumerate(patterns)
            for r in range(len(text) - m + 1)
            for c in range(len(text[0]) - m + 1)
            if all(text[r + i][c : c + m] == pat[i] for i in range(m))
        }
        assert direct == expected
        assert expected


def test_conjugacy_oracle_against_rotation():
    words = ("ab", "abc", "a")
    periods = (2, 3, 1)

    def matrix(phases):
        return bench_inputs.Matrix(
            [bench_inputs.periodic_row(w, ph, 8) for w, ph in zip(words, phases)], periods
        )

    a = matrix((0, 0, 0))
    for c in range(6):
        b = matrix((c, c, c))
        assert bench_inputs.conjugacy_oracle(a, b) == c
        assert bench_inputs.pair_answers(a, b) == (8 - c if c <= 4 else None, c)
    perturbed = matrix((0, 1, 0))
    assert bench_inputs.conjugacy_oracle(a, perturbed) == 4  # 0 mod 2 and 1 mod 3
    assert bench_inputs.conjugacy_oracle(matrix((1, 0, 0)), perturbed) == 1
    other_class = bench_inputs.Matrix(
        [a.rows[0], bench_inputs.periodic_row("acb", 0, 8), a.rows[2]], periods
    )
    assert bench_inputs.conjugacy_oracle(a, other_class) is None
    assert bench_inputs.crt([1, 0], [2, 4]) is None


@pytest.mark.parametrize("name", list(TINY))
def test_timed_oracle_gives_the_expected_answers(name, lib, tmp_path):
    workload_cls, gen, _ = run.WORKLOADS[name]
    inputs = gen(TINY[name], 4, tmp_path)
    workload = workload_cls(lib, inputs)
    for i in range(workload.pool):
        assert workload.oracle(i) == inputs.expected[i]


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(name, trace, tiny, capsys):
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", str(trace)])
    result = last_json(capsys.readouterr().out)
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if name != "search-noise":
        assert result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == expected[key]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if trace and name == "classify-overlap":
        assert result["metrics"]["dictmatch.calls"]["value"] == 0


def _with_search_result(monkeypatch, lib, edit):
    dictmatch = lib["dictmatch"]
    original = dictmatch.search_text

    def edited(text, index, **kwargs):
        return edit(set(original(text, index, **kwargs)), dictmatch.Occurrence)

    monkeypatch.setattr(dictmatch, "search_text", edited)


def test_extra_occurrence_fails_the_run(monkeypatch, lib, tiny, capsys):
    _with_search_result(monkeypatch, lib, lambda found, occ: found | {occ(0, 1, 1)})
    code = run.main(["--workload", "search-periodic", "--seed", "5", "--seconds", "0.2"])
    result = last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False


def test_missing_occurrence_raises_failed_share(monkeypatch, lib, tiny):
    _, tally, line = run.run_workload("search-periodic", 5, 0.2, False, lib)
    assert tally.failed == 0 and line["metrics"]["failed_share"]["value"] == 0

    def drop_one(found, occ):
        return set(sorted(found, key=lambda o: (o.row, o.col, o.pattern))[1:])

    _with_search_result(monkeypatch, lib, drop_one)
    _, tally, line = run.run_workload("search-periodic", 5, 0.2, False, lib)
    assert tally.wrong == 0
    assert line["metrics"]["failed_share"]["value"] > 0
    assert line["metrics"]["search_recall"]["value"] < 1


def test_traced_counts_repeat_exactly(lib, tiny):
    runs = [
        run.run_workload("search-periodic", 9, 0.2, True, lib)[0]
        for _ in range(2)
    ]
    for key in ("lw2d.ops", "dictmatch.lookups", "dictmatch.candidates", "lw2d.add_row.calls",
                "strings1d.compute_period.calls", "dictmatch.verify_candidate.calls"):
        assert runs[0][key] == runs[1][key]
    assert runs[0]["dictmatch.candidates"] > 0
    assert runs[0]["dictmatch.ops_per_row_candidate"] <= run.OPS_BOUND


def test_absent_hook_target_omits_its_metrics(monkeypatch, lib, tiny):
    hooks = tuple(
        (name, mod, cls, "renamed_add_row" if attr == "add_row" else attr, obs)
        for name, mod, cls, attr, obs in bench_trace.HOOKS
    )
    monkeypatch.setattr(bench_trace, "HOOKS", hooks)
    metrics, tally, _ = run.run_workload("search-periodic", 5, 0.2, True, lib)
    assert tally.wrong == 0
    assert not any(key.startswith("lw2d.add_row.") for key in metrics)
    assert "dictmatch.verify_candidate.calls" in metrics
    assert lib["dictmatch"].verify_candidate.__module__ == "lyndon2d.dictmatch"  # unhooked


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
