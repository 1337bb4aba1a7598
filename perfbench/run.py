"""End-to-end and per-layer benchmark of lyndon2d search and classify.

    python3 perfbench/run.py --workload search-periodic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The load is a closed loop: one client in one process, no threads, each
request sent after the previous answer.  A request reads its input file with
``workbench.read_matrix_file`` and makes one library call with the library's
defaults.  Inputs are generated from ``--seed`` into files under
``.perfbench/`` and checked against the benchmark's own oracle
(``bench_inputs``); generation and checking are never timed.  Right before
each request the oracle answers the same file, timed: the request's latency
divided by the oracle's is the guarded latency figure, because the shared
host's speed drifts by more than half over minutes and the two drift
together.

Before the last line, each workload prints one ``report`` line with the
metrics under the names a reader of the library uses (``search_ms_p50``,
``classify_ms_p50``, ``search_recall``, ...).  The last line is one JSON
object: ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  A wrong output (an extra occurrence or a
wrong query answer) makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import bench_inputs
from bench_trace import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SEGMENTS = 10  # set-ups per run, spread over it
BULK_SWEEPS = 20
OPS_BOUND = 16  # acceptance criterion 9: ops <= 16 * m * candidates

END_TO_END = {
    "setup_s": "s",
    "setup_peak_mb": "MB",
    "request_per_oracle": "ratio",
    "request_peak_mb": "MB",
}

PER_LAYER = {
    "strings1d.compute_period.calls": "count",
    "strings1d.compute_period.self_ms": "ms",
    "strings1d.compute_period.share": "ratio",
    "strings1d.compute_period.chars": "count",
    "strings1d.least_rotation.calls": "count",
    "strings1d.least_rotation.self_ms": "ms",
    "strings1d.periodic_share": "ratio",
    "strings1d.summarize_row.calls": "count",
    "strings1d.summarize_row.self_ms": "ms",
    "strings1d.summarize_row.share": "ratio",
    "strings1d.registry.get.calls": "count",
    "strings1d.registry.get.misses": "count",
    "strings1d.registry.intern.calls": "count",
    "strings1d.registry.intern.new": "count",
    "lw2d.add_row.calls": "count",
    "lw2d.add_row.self_ms": "ms",
    "lw2d.add_row.share": "ratio",
    "lw2d.add_row.divisible_share": "ratio",
    "lw2d.alg2_2dlw.calls": "count",
    "lw2d.alg2_2dlw.self_ms": "ms",
    "lw2d.ops": "count",
    "dictmatch.calls": "count",
    "dictmatch.search_text.self_ms": "ms",
    "dictmatch.search_text.share": "ratio",
    "dictmatch.verify_candidate.calls": "count",
    "dictmatch.verify_candidate.self_ms": "ms",
    "dictmatch.verify_candidate.share": "ratio",
    "dictmatch.candidates": "count",
    "dictmatch.candidates.head_split": "count",
    "dictmatch.candidates.degenerate": "count",
    "dictmatch.hits": "count",
    "dictmatch.hit_ratio": "ratio",
    "dictmatch.lookups": "count",
    "dictmatch.ops_per_row_candidate": "ops",
    "dictmatch.sentinel_share": "ratio",
    "dictmatch.recall": "ratio",
    "classify.classify_matrix.self_ms": "ms",
    "classify.classify_matrix.share": "ratio",
    "classify.query.calls": "count",
    "classify.query.self_ms": "ms",
    "classify.query.match_ratio": "ratio",
    "classify.query.per_s": "1/s",
    "workbench.read_matrix_file.calls": "count",
    "workbench.read_matrix_file.self_ms": "ms",
    "workbench.read_matrix_file.share": "ratio",
    "workbench.read_matrix_file.bytes": "bytes",
    "setup.read_s": "s",
    "setup.build_s": "s",
    "trace.requests": "count",
    "trace.request_ms_best": "ms",
    "trace.untraced_ms_best": "ms",
    "trace.overhead": "ratio",
    "trace.overhead_ms": "ms",
}


def import_library() -> dict:
    """Import lyndon2d from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "lyndon2d" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lyndon2d sources under {src}")
    sys.path.insert(0, str(src))
    modules = {
        name: importlib.import_module(f"lyndon2d.{name}")
        for name in ("classify", "dictmatch", "lw2d", "strings1d", "workbench")
    }
    origin = Path(modules["workbench"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: imported lyndon2d from {origin}, not {src}")
    return modules


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Tally:
    """Outcome counts of the requests of one phase."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    found: int = 0
    expected: int = 0
    errors: list[str] = field(default_factory=list)


class SearchWorkload:
    """Parse pattern files and build the index; each request searches one text."""

    kind = "search"

    def __init__(self, lib: dict, inputs: bench_inputs.SearchInputs) -> None:
        self.lib = lib
        self.inputs = inputs
        self.pool = len(inputs.text_paths)
        self.cells = [len(t) * len(t[0]) for t in inputs.texts]

    def load(self):
        read = self.lib["workbench"].read_matrix_file
        return [read(str(p)) for p in self.inputs.pattern_paths]

    def build(self, loaded):
        return self.lib["dictmatch"].build_index(loaded)

    def request(self, state, i: int):
        text = self.lib["workbench"].read_matrix_file(str(self.inputs.text_paths[i]))
        return self.lib["dictmatch"].search_text(text, state)

    def oracle(self, i: int):
        text = bench_inputs.read_rows(self.inputs.text_paths[i])
        return bench_inputs.find_occurrences(text, self.inputs.patterns)

    def check(self, i: int, result, tally: Tally) -> None:
        found = {(o.pattern, o.row, o.col) for o in result}
        expected = self.inputs.expected[i]
        hit = len(found & expected)
        tally.found += hit
        tally.expected += len(expected)
        if len(found) > hit:
            tally.wrong += 1
            tally.errors.append(f"text {i}: extra occurrences {sorted(found - expected)[:3]}")
        if hit < len(expected):
            tally.failed += 1


class ClassifyWorkload:
    """Classify the library in set-up; each request classifies and queries one probe."""

    kind = "classify"
    fraction = Fraction(1, 4)

    def __init__(self, lib: dict, inputs: bench_inputs.OverlapInputs) -> None:
        self.lib = lib
        self.inputs = inputs
        self.pool = len(inputs.probe_paths)
        self.cells = [len(q.rows) * len(q.rows[0]) for q in inputs.probes]

    def load(self):
        read = self.lib["workbench"].read_matrix_file
        return [read(str(p)) for p in self.inputs.library_paths]

    def build(self, loaded):
        classify = self.lib["classify"]
        registry = self.lib["strings1d"].NameRegistry()
        return registry, [classify.classify_matrix(rows, self.fraction, registry) for rows in loaded]

    def request(self, state, i: int):
        registry, library = state
        classify = self.lib["classify"]
        rows = self.lib["workbench"].read_matrix_file(str(self.inputs.probe_paths[i]))
        probe = classify.classify_matrix(rows, self.fraction, registry)
        lsp, shift = classify.longest_suffix_prefix, classify.conjugacy_shift
        return [(lsp(probe, entry), shift(probe, entry)) for entry in library]

    def oracle(self, i: int):
        rows = bench_inputs.read_rows(self.inputs.probe_paths[i])
        probe = bench_inputs.Matrix(rows, tuple(map(bench_inputs.smallest_period, rows)))
        return [bench_inputs.pair_answers(probe, entry) for entry in self.inputs.library]

    def check(self, i: int, result, tally: Tally) -> None:
        if result != self.inputs.expected[i]:
            tally.wrong += 1
            tally.errors.append(f"probe {i}: query answers differ from the oracle")

    def bulk(self, state):
        """Both queries over every ordered library pair."""
        library = state[1]
        classify = self.lib["classify"]
        lsp, shift = classify.longest_suffix_prefix, classify.conjugacy_shift
        return [(lsp(a, b), shift(a, b)) for a in library for b in library]


WORKLOADS = {
    "search-periodic": (SearchWorkload, bench_inputs.gen_periodic, bench_inputs.PeriodicSpec),
    "search-noise": (SearchWorkload, bench_inputs.gen_noise, bench_inputs.NoiseSpec),
    "classify-overlap": (ClassifyWorkload, bench_inputs.gen_overlap, bench_inputs.OverlapSpec),
}


# ---------------------------------------------------------------------------
# measurement


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def attempt(
    workload, state, k: int, tally: Tally, tracer: Tracer | None = None
) -> tuple[int, int]:
    """Run the oracle on input ``k``, then make request ``k``.

    Returns both latencies in ns, request first.  The output is checked
    untimed.
    """
    clock = time.perf_counter_ns
    start = clock()
    workload.oracle(k)
    oracle_ns = clock() - start
    tally.attempted += 1
    if tracer is not None:
        tracer.begin_request(tally.attempted)
    start = clock()
    try:
        result = workload.request(state, k)
    except Exception as exc:  # a raising request is a failed request
        result = exc
    end = clock()
    if tracer is not None:
        tracer.end_request()
    if isinstance(result, Exception):
        tally.failed += 1
        tally.errors.append(f"request {k}: {type(result).__name__}: {result}")
    else:
        workload.check(k, result, tally)
    return end - start, oracle_ns


def closed_loop(workload, state, deadline: int, tally: Tally, tracer: Tracer | None = None):
    """Send requests one after another in whole passes over the input pool.

    Stops at the first pass boundary after ``deadline`` (perf_counter_ns),
    after one pass at least; returns the request and the oracle latencies
    in ns.
    """
    samples: list[int] = []
    oracle: list[int] = []
    while not samples or len(samples) % workload.pool or time.perf_counter_ns() < deadline:
        request_ns, oracle_ns = attempt(workload, state, len(samples) % workload.pool, tally, tracer)
        samples.append(request_ns)
        oracle.append(oracle_ns)
    return samples, oracle


def best_ms(samples: list[int], pool: int) -> float:
    """Mean over the pool's inputs of each input's fastest request, in ms.

    ``samples`` must hold whole passes over the pool.  Other tenants of the
    machine slow it down in phases of several seconds, which moves the
    median between two modes from run to run.  An input's fastest request is
    its latency on the uncontended machine, and a faster program lowers it in
    proportion.
    """
    return statistics.fmean(min(samples[k::pool]) for k in range(pool)) / 1e6


def per_oracle(samples: list[int], oracle: list[int]) -> float:
    """Median over requests of the request's latency over its oracle's.

    The oracle answers the same input right before the request, in pure
    Python like the library, so a slow phase of the host stretches both.
    On the 2-core shared host where this was written, ten 30-second runs of
    search-periodic had median request latencies of 111-168 ms, and this
    ratio 3.16-3.38.
    """
    return statistics.median(s / o for s, o in zip(samples, oracle))


def timed_setup(workload):
    start = time.perf_counter()
    loaded = workload.load()
    mid = time.perf_counter()
    state = workload.build(loaded)
    end = time.perf_counter()
    return state, mid - start, end - mid


def traced_peak_mb(func) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def bulk_query_rate(workload, state, tally: Tally) -> float:
    """Median queries per second over repeated sweeps; wrong answers count in ``tally``."""
    if workload.bulk(state) != workload.inputs.expected_bulk:
        tally.wrong += 1
        tally.errors.append("bulk queries differ from the oracle")
    queries = 2 * len(workload.inputs.expected_bulk)
    rates = []
    for _ in range(BULK_SWEEPS):
        start = time.perf_counter_ns()
        workload.bulk(state)
        rates.append(queries * 1e9 / (time.perf_counter_ns() - start))
    return statistics.median(rates)


def measure(workload, seconds: float) -> tuple[dict, dict, Tally]:
    """Untraced run: end-to-end metrics plus the report under the library's names.

    The run has SEGMENTS parts, each a fresh set-up followed by requests, so
    the set-ups are spread over the run like the requests.
    """
    setups: list[float] = []
    samples: list[int] = []
    oracle: list[int] = []
    tally = Tally()
    start = time.perf_counter_ns()
    for segment in range(SEGMENTS):
        gc.collect()
        state, read_s, build_s = timed_setup(workload)
        setups.append(read_s + build_s)
        if segment == 0:
            attempt(workload, state, 0, tally)  # warm-up: checked, not timed
        gc.collect()
        deadline = start + int((segment + 1) * seconds / SEGMENTS * 1e9)
        segment_samples, segment_oracle = closed_loop(workload, state, deadline, tally)
        samples += segment_samples
        oracle += segment_oracle
    setup_peak = traced_peak_mb(lambda: workload.build(workload.load()))
    peaks = [traced_peak_mb(lambda: workload.request(state, i)) for i in range(workload.pool)]
    cells = sum(workload.cells[i % workload.pool] for i in range(len(samples)))
    ms = [s / 1e6 for s in samples]
    metrics = {
        "setup_s": statistics.median(setups),
        "setup_peak_mb": setup_peak,
        "request_per_oracle": per_oracle(samples, oracle),
        "request_peak_mb": max(peaks),
    }
    prefix = workload.kind
    report = {
        "setup_s": (metrics["setup_s"], "s", len(setups)),
        "setup_s_best": (min(setups), "s", len(setups)),
        "setup_peak_mb": (setup_peak, "MB", 1),
        f"{prefix}_per_oracle": (metrics["request_per_oracle"], "ratio", len(samples)),
        "oracle_ms_p50": (statistics.median(oracle) / 1e6, "ms", len(oracle)),
        f"{prefix}_ms_best": (best_ms(samples, workload.pool), "ms", len(samples)),
        f"{prefix}_ms_p50": (statistics.median(ms), "ms", len(samples)),
        f"{prefix}_ms_p90": (percentile(ms, 90), "ms", len(samples)),
        f"{prefix}_cells_per_s": (cells * 1e9 / sum(samples), "cells/s", len(samples)),
        f"{prefix}_peak_mb": (metrics["request_peak_mb"], "MB", len(peaks)),
    }
    if workload.kind == "search":
        recall = tally.found / tally.expected if tally.expected else 1.0
        report["search_recall"] = (recall, "ratio", tally.expected)
    else:
        report["query_per_s"] = (bulk_query_rate(workload, state, tally), "queries/s", BULK_SWEEPS)
    report["failed_share"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    return metrics, report, tally


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_traced(workload, seconds: float, lib: dict, trace_path: Path) -> tuple[dict, Tally]:
    """Traced run: per-layer metrics, with the untraced latency for the overhead."""
    reads, builds = [], []
    for _ in range(3):
        gc.collect()
        state, read_s, build_s = timed_setup(workload)
        reads.append(read_s)
        builds.append(build_s)
    tally = Tally()
    attempt(workload, state, 0, tally)  # warm-up: checked, not timed
    gc.collect()
    untraced, _ = closed_loop(workload, state, time.perf_counter_ns() + int(seconds * 5e8), tally)
    tracer = Tracer()
    tracer.install(lib)
    gc.collect()
    try:
        deadline = time.perf_counter_ns() + int(seconds * 5e8)
        traced, _ = closed_loop(workload, state, deadline, tally, tracer)
    finally:
        tracer.uninstall()
    n = len(traced)
    calls, self_ns, counts = tracer.calls, tracer.self_ns, tracer.counts
    overhead_ns = sum(tracer.overhead_ns[r] for r in tracer.request_ns)
    busy_ns = sum(tracer.request_ns.values()) - overhead_ns

    def per(name: str) -> float:
        return calls.get(name, 0) / n

    def self_ms(name: str) -> float:
        return self_ns.get(name, 0) / n / 1e6

    def share(name: str) -> float:
        return _ratio(self_ns.get(name, 0), busy_ns)

    cp_calls = calls.get("strings1d.compute_period", 0)
    get_calls = calls.get("strings1d.registry.get", 0)
    named_rows = get_calls - counts.get("get.misses", 0)
    verify_calls = calls.get("dictmatch.verify_candidate", 0)
    metrics = {
        "strings1d.compute_period.calls": per("strings1d.compute_period"),
        "strings1d.compute_period.self_ms": self_ms("strings1d.compute_period"),
        "strings1d.compute_period.share": share("strings1d.compute_period"),
        "strings1d.compute_period.chars": counts.get("compute_period.chars", 0) / n,
        "strings1d.least_rotation.calls": per("strings1d.least_rotation"),
        "strings1d.least_rotation.self_ms": self_ms("strings1d.least_rotation"),
        "strings1d.periodic_share": _ratio(calls.get("strings1d.least_rotation", 0), cp_calls),
        "strings1d.summarize_row.calls": per("strings1d.summarize_row"),
        "strings1d.summarize_row.self_ms": self_ms("strings1d.summarize_row"),
        "strings1d.summarize_row.share": share("strings1d.summarize_row"),
        "strings1d.registry.get.calls": per("strings1d.registry.get"),
        "strings1d.registry.get.misses": counts.get("get.misses", 0) / n,
        "strings1d.registry.intern.calls": per("strings1d.registry.intern"),
        "strings1d.registry.intern.new": counts.get("intern.new", 0) / n,
        "lw2d.add_row.calls": per("lw2d.add_row"),
        "lw2d.add_row.self_ms": self_ms("lw2d.add_row"),
        "lw2d.add_row.share": share("lw2d.add_row"),
        "lw2d.alg2_2dlw.calls": per("lw2d.alg2_2dlw"),
        "lw2d.alg2_2dlw.self_ms": self_ms("lw2d.alg2_2dlw"),
        "dictmatch.calls": tracer.dictmatch_calls / n,
        "dictmatch.search_text.self_ms": self_ms("dictmatch.search_text"),
        "dictmatch.search_text.share": share("dictmatch.search_text"),
        "dictmatch.verify_candidate.calls": per("dictmatch.verify_candidate"),
        "dictmatch.verify_candidate.self_ms": self_ms("dictmatch.verify_candidate"),
        "dictmatch.verify_candidate.share": share("dictmatch.verify_candidate"),
        "dictmatch.candidates.head_split": counts.get("candidates.head_split", 0) / n,
        "dictmatch.candidates.degenerate": counts.get("candidates.degenerate", 0) / n,
        "dictmatch.hits": counts.get("hits", 0) / n,
        "dictmatch.hit_ratio": _ratio(counts.get("hit_calls", 0), verify_calls),
        "dictmatch.sentinel_share": _ratio(cp_calls - named_rows, cp_calls),
        "dictmatch.recall": _ratio(tally.found, tally.expected),
        "classify.classify_matrix.self_ms": self_ms("classify.classify_matrix"),
        "classify.classify_matrix.share": share("classify.classify_matrix"),
        "classify.query.calls": per("classify.query"),
        "classify.query.self_ms": self_ms("classify.query"),
        "classify.query.match_ratio": _ratio(
            counts.get("query.match", 0), calls.get("classify.query", 0)
        ),
        "workbench.read_matrix_file.calls": per("workbench.read_matrix_file"),
        "workbench.read_matrix_file.self_ms": self_ms("workbench.read_matrix_file"),
        "workbench.read_matrix_file.share": share("workbench.read_matrix_file"),
        "workbench.read_matrix_file.bytes": counts.get("read.bytes", 0) / n,
        "setup.read_s": min(reads),
        "setup.build_s": min(builds),
        "trace.requests": n,
        "trace.request_ms_best": best_ms(traced, workload.pool),
        "trace.untraced_ms_best": best_ms(untraced, workload.pool),
        "trace.overhead": best_ms(traced, workload.pool) / best_ms(untraced, workload.pool) - 1,
        "trace.overhead_ms": overhead_ns / n / 1e6,
    }
    if counts.get("add_row.later") or not calls.get("lw2d.add_row"):
        metrics["lw2d.add_row.divisible_share"] = _ratio(
            counts.get("add_row.divisible", 0), counts.get("add_row.later", 0)
        )
    if workload.kind == "search":
        metrics.update(exact_counts(workload, state, lib, tally))
        metrics["classify.query.per_s"] = 0.0
    else:
        metrics.update(
            {
                "lw2d.ops": 0,
                "dictmatch.candidates": 0,
                "dictmatch.lookups": 0,
                "dictmatch.ops_per_row_candidate": 0.0,
            }
        )
        metrics["classify.query.per_s"] = bulk_query_rate(workload, state, tally)
    for target in tracer.absent:
        print(f"perfbench: hook target {target} is absent; its metrics are omitted", file=sys.stderr)
    for span in tracer.absent_spans():
        for key in [k for k in metrics if k.startswith(span + ".")]:
            del metrics[key]
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(tracer.dump()))
    return metrics, tally


def exact_counts(workload, state, lib: dict, tally: Tally) -> dict:
    """One pass over the pool with ``search_text(counter=OpCounter())``."""
    counter_cls = getattr(lib["lw2d"], "OpCounter", None)
    if counter_cls is None:
        print("perfbench: lw2d.OpCounter is absent; exact counts are omitted", file=sys.stderr)
        return {}
    ops = lookups = candidates = 0
    for i in range(workload.pool):
        text = lib["workbench"].read_matrix_file(str(workload.inputs.text_paths[i]))
        counter = counter_cls()
        try:
            result = lib["dictmatch"].search_text(text, state, counter=counter)
        except TypeError:
            print("perfbench: search_text takes no counter; exact counts are omitted", file=sys.stderr)
            return {}
        check = Tally()
        workload.check(i, result, check)
        if check.wrong:
            tally.wrong += 1
            tally.errors.extend(check.errors)
        ops += counter.ops
        lookups += counter.lookups
        candidates += counter.candidates
    n = workload.pool
    return {
        "lw2d.ops": ops / n,
        "dictmatch.candidates": candidates / n,
        "dictmatch.lookups": lookups / n,
        "dictmatch.ops_per_row_candidate": _ratio(ops, workload.inputs.m * candidates),
    }


# ---------------------------------------------------------------------------
# command line


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, lib: dict
) -> tuple[dict, Tally, dict]:
    """Generate inputs, measure, and return (metrics, tally, report line)."""
    workload_cls, generate, spec_cls = WORKLOADS[name]
    inputs_dir = WORK / f"inputs-{name}-{seed}-{os.getpid()}"
    try:
        inputs = generate(spec_cls(), seed, inputs_dir)
        workload = workload_cls(lib, inputs)
        if trace:
            trace_path = WORK / "traces" / f"{name}-seed{seed}.json"
            metrics, tally = measure_traced(workload, seconds, lib, trace_path)
            report = {k: (v, PER_LAYER[k], metrics["trace.requests"]) for k, v in metrics.items()}
            report["ops_bound"] = (OPS_BOUND, "ops", 0)
        else:
            metrics, report, tally = measure(workload, seconds)
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
    line = {
        "report": name,
        "seed": seed,
        "trace": int(trace),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in report.items()},
    }
    return metrics, tally, line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lib = import_library()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    metrics_out: dict = {}
    attempted = failed = wrong = 0
    for name in names:
        metrics, tally, line = run_workload(name, args.seed, args.seconds, bool(args.trace), lib)
        print(json.dumps(line), flush=True)
        for err in tally.errors[:5]:
            print(f"perfbench: {name}: {err}", file=sys.stderr)
        attempted += tally.attempted
        failed += tally.failed
        wrong += tally.wrong
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, unit in units.items():
            if key in metrics:
                metrics_out[prefix + key] = {"value": metrics[key], "unit": unit}
    print(
        json.dumps(
            {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics_out}
        )
    )
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
