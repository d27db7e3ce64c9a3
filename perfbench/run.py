"""Seeded benchmark of the klcograph pipeline.

    python3 perfbench/run.py --workload tree-random --seed 1 --seconds 10 --trace 0

Runs one workload in this single-threaded process and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer numbers
of a traced run.  A summary of each run, and the spans of a traced run, are
written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import gen
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "klcograph"

SETUP_REPEATS = 3


# Time of calibration_work() on the machine the benchmark was defined on, in
# its usual state.  Time metrics are scaled by this over a median calibration
# time, the one around each query or the run's for set-up, so they read as
# times at that reference speed.
REFERENCE_CALIBRATION_S = 0.0075
CALIBRATE_EVERY_S = 0.2  # of measured query time
CALIBRATION_WINDOW = 3  # samples on each side that give a query its local speed

_CALIBRATION_TABLE = list(range(256))


def calibration_work() -> int:
    """Fixed pure-Python work that allocates nothing: loads, indexing, integer ops."""
    table = _CALIBRATION_TABLE
    acc = 0
    for i in range(40000):
        acc = (acc + table[i & 255] ^ (i >> 3)) & 0xFFFF
    return acc


def speed_scale(calibration: list[float]) -> float:
    """Factor that turns this run's wall times into times at the reference speed."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibration)


def calibrate() -> float:
    """Seconds one calibration_work() takes now: a probe of the machine's current speed."""
    t0 = perf_counter()
    calibration_work()
    return perf_counter() - t0


def import_library():
    """Import klcograph afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "klcograph" or m.startswith("klcograph.")]:
        del sys.modules[name]
    lib = importlib.import_module("klcograph")
    importlib.import_module("klcograph.cli")
    if Path(lib.__file__).resolve().parent != SRC:
        raise ImportError(f"klcograph imported from {lib.__file__}, not from {SRC}")
    return lib


def failing_layer(exc: BaseException) -> str:
    """Module of the innermost klcograph frame in the traceback."""
    layer = "bench"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent == SRC:
            layer = path.stem
    return layer


class Hooks:
    """What checks record: the sizes of checked box certificates, and spans of
    the check phase in traced runs."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.boxes: list[int] = []

    def check_span(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.root("check")


class Run:
    """Closed loop over whole rounds of a workload's inputs, one query at a time."""

    def __init__(self, workload, lib, rounds, seconds, tracer=None) -> None:
        self.workload = workload
        self.lib = lib
        self.rounds = rounds
        self.seconds = seconds
        self.tracer = tracer
        self.hooks = Hooks(tracer)
        self.queries: list[dict] = []
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.inputs_seen: list = []
        self.calibration: list[float] = []

    def execute(self, inp, spec):
        """One query: (output or None, failure or None, seconds)."""
        wl, lib = self.workload, self.lib
        arg = wl.prepare(lib, inp, spec)
        gc.collect()
        t0 = perf_counter()
        try:
            out = wl.execute(lib, arg)
            failure = None
        except Exception as exc:  # any raise is a failed query, never an aborted run
            out = None
            failure = (failing_layer(exc), type(exc).__name__)
        return out, failure, perf_counter() - t0

    def traced(self, inp, spec, traced_first: bool):
        """The query untraced and traced, in the given order."""
        tracer = self.tracer
        tracer.qid += 1
        for traced in (True, False) if traced_first else (False, True):
            if traced:
                with tracer.root("query"):
                    result = self.execute(inp, spec)
                self.traced_s += result[2]
            else:
                self.untraced_s += self.execute(inp, spec)[2]
        return result

    def go(self) -> int:
        """Run whole passes over the distinct rounds until the measured query
        time, speed-scaled, reaches ``seconds``.  Whole passes keep the size
        mix, and so the tail percentile, the same however many there are."""
        inp, specs = self.rounds[0][0]
        self.execute(inp, specs[0])  # warm-up: the first query also pays for lazy set-up
        measured = 0.0
        calibrated_at = -1.0
        done = 0
        while not done or done % len(self.rounds) or measured * speed_scale(self.calibration) < self.seconds:
            for inp, specs in self.rounds[done % len(self.rounds)]:
                if measured - calibrated_at >= CALIBRATE_EVERY_S:
                    self.calibration.append(calibrate())
                    calibrated_at = measured
                if self.tracer:
                    # whichever pass runs first pays for re-growing the heap after
                    # the last check, so the order alternates by input
                    first = len(self.inputs_seen) % 2 == 1
                    results = [self.traced(inp, spec, first) for spec in specs]
                else:
                    results = [self.execute(inp, spec) for spec in specs]
                measured += sum(dt for _, _, dt in results)
                outs = [out if failure is None else None for out, failure, _ in results]
                try:
                    verdicts = self.workload.check(self.lib, self.hooks, inp, specs, outs)
                except Exception as exc:  # output the checks cannot read is a wrong answer
                    traceback.print_exc()
                    verdicts = [("bench", f"check-raised-{type(exc).__name__}")] * len(specs)
                for spec, (out, failure, dt), verdict in zip(specs, results, verdicts):
                    bad = failure or verdict
                    self.queries.append(
                        {
                            "family": inp.family,
                            "n": inp.n,
                            "spec": repr(spec),
                            "format": spec[0] if spec else None,
                            "bytes": len(inp.texts[spec[0]]) if spec else 0,
                            "ms": dt * 1000,
                            "cal": len(self.calibration) - 1,  # last calibration before it
                            "ok": bad is None,
                            "layer": bad[0] if bad else None,
                            "reason": bad[1] if bad else None,
                            "wrong_answer": failure is None and verdict is not None,
                        }
                    )
                self.inputs_seen.append(inp)
                inp.info.pop("graph", None)  # keep the harness's memory out of peak_rss_mb
                inp.info.pop("adj", None)
            done += 1
        self.measured_s = measured
        return done


def rank_value(ms_sorted: list[float], rank: int, slowest: float) -> float:
    """1-based rank into the sorted times; a failed query (inf) reads as the slowest time seen."""
    value = ms_sorted[rank - 1]
    return slowest if math.isinf(value) else value


def timing(queries: list[dict], scales: list[float], tail_rank: int) -> tuple[float, float, float]:
    """p50, tail and vertices per second of the queries, each time multiplied by its scale."""
    ms = [q["ms"] * k for q, k in zip(queries, scales)]
    ranked = sorted(t if q["ok"] else math.inf for q, t in zip(queries, ms))
    slowest = max(ms)
    n = len(ranked)
    p50 = (rank_value(ranked, max(1, n // 2), slowest) + rank_value(ranked, n // 2 + 1, slowest)) / 2
    verified = sum(q["n"] for q in queries if q["ok"])
    return p50, rank_value(ranked, tail_rank, slowest), verified / (sum(ms) / 1000)


def end_to_end(
    queries: list[dict], passes: int, setup_s: float, calibration: list[float]
) -> tuple[dict, dict]:
    n = len(queries)
    tail_rank = max(1, n - 10 * passes)  # ten queries beyond it in each pass
    failed = sum(not q["ok"] for q in queries)
    scale = speed_scale(calibration)
    # each query is scaled by the machine's speed around it: the calibration
    # samples within CALIBRATION_WINDOW of the last one taken before it
    w = CALIBRATION_WINDOW
    local = [speed_scale(calibration[max(0, q["cal"] - w): q["cal"] + w + 1]) for q in queries]
    names = ("query_p50_ms", "query_tail_ms", "vertices_per_s")
    wall = dict(zip(names, timing(queries, [1.0] * n, tail_rank)))
    wall["setup_s"] = setup_s
    p50, tail, vps = timing(queries, local, tail_rank)
    metrics = {
        "query_p50_ms": (p50, "ms"),
        "query_tail_ms": (tail, "ms"),
        "vertices_per_s": (vps, "1/s"),
        "success_rate": (1 - failed / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s * scale, "s"),
    }
    reasons: dict[str, int] = {}
    for q in queries:
        if not q["ok"]:
            key = f"{q['layer']}:{q['reason']}"
            reasons[key] = reasons.get(key, 0) + 1
    extra = {
        "wall": wall,
        "speed_scale": scale,
        "query_tail_percentile": 100 * tail_rank / n,
        "queries": n,
        "error_rate": failed / n,
        "errors_by_reason": reasons,
    }
    return metrics, extra


def per_layer(run: Run, tracer, memory_peaks: dict) -> dict:
    agg = tracer.aggregate()
    nq = len(run.queries)
    b = agg["bucket_ms"]
    calls = agg["calls"]
    lib_inputs = [inp for inp in run.inputs_seen if inp.tree is not None]
    shapes = [gen.tree_shape(inp.tree.root) for inp in lib_inputs]
    runs = [
        len(seq.runs)
        for inp in lib_inputs
        for seq in (inp.info["kappa"], run.lib.conjugate(inp.info["kappa"]))
        if "kappa" in inp.info
    ]
    parsed = {"edges": 0, "g6": 0}
    for q in run.queries:
        if q["format"]:
            parsed[q["format"]] += q["bytes"]

    def rate(nbytes, ms):
        return nbytes / (ms / 1000) if ms > 0 else 0.0

    m: dict[str, tuple] = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_ms"] = (agg["layer_ms"][layer], "ms")
    for name in (
        "graphs.parse_edge_list", "graphs.parse_graph6",
        "cotree.build_cotree", "cotree.find_p4", "cotree.binarize", "cotree.serialize",
        "sequences.kappa_hat", "sequences.lambda_hat", "sequences.kappa_hat_annotated",
        "ferrers.build_ferrers", "ferrers.columns", "ferrers.read_colouring", "ferrers.render",
        "certificate.certify_non_colourable", "certificate.verify_box_cograph",
        "oracle.kappa_hat_oracle", "oracle.lambda_hat_oracle",
        "cli.main",
    ):
        m[f"{name}.self_ms"] = (b.get(name, 0.0), "ms")
    m["graphs.parse_edge_list.bytes_per_s"] = (
        rate(parsed["edges"], b.get("graphs.parse_edge_list", 0.0)), "B/s")
    m["graphs.parse_graph6.bytes_per_s"] = (
        rate(parsed["g6"], b.get("graphs.parse_graph6", 0.0)), "B/s")
    m["cotree.binarize.calls_per_query"] = (calls.get("cotree.binarize", 0) / nq, "calls/query")
    m["cotree.serialize.failed"] = (agg["failed"].get("cotree.serialize", 0), "count")
    m["cotree.nodes"] = (statistics.mean(s[0] for s in shapes) if shapes else 0.0, "nodes")
    m["cotree.depth_max"] = (max((s[1] for s in shapes), default=0), "levels")
    m["sequences.runs_max"] = (max(runs, default=0), "runs")
    m["sequences.evals_per_query"] = (agg["evals"] / nq, "evals/query")
    boxes = run.hooks.boxes
    m["certificate.box_vertices"] = (statistics.mean(boxes) if boxes else 0.0, "vertices")
    for layer in tracing.LAYERS:
        m[f"{layer}.peak_kib"] = (memory_peaks[layer], "KiB")
    m["trace.overhead_ratio"] = (run.traced_s / run.untraced_s, "ratio")
    m["trace.queries"] = (nq, "count")
    return m


def memory_pass(run: Run, tracer) -> dict:
    """tracemalloc peaks per top-level layer call, on the round's median-size inputs."""
    groups = run.rounds[0]
    median_n = sorted(inp.n for inp, _ in groups)[(len(groups) - 1) // 2]
    for inp, specs in groups:
        if inp.n != median_n:
            continue
        for spec in specs:
            arg = run.workload.prepare(run.lib, inp, spec)
            gc.collect()
            try:
                tracer.memory_query(run.workload.execute, run.lib, arg)
            except Exception:  # failures are counted by the span pass
                pass
    return tracer.peak_kib


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC.parent))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        rounds = None  # the previous set-up's pool must not count in peak_rss_mb
        gc.collect()
        t0 = perf_counter()
        try:
            lib = import_library()
        except ImportError as exc:
            print(f"perfbench: cannot import klcograph from {SRC.parent}: {exc}", file=sys.stderr)
            return 2
        rounds = workload.setup(lib, random.Random(args.seed))
        setup_times.append(perf_counter() - t0)
    setup_s = statistics.median(setup_times)
    gc.collect()
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gc.freeze()  # the input pool is not the program's garbage to scan

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(lib)
    run = Run(workload, lib, rounds, args.seconds, tracer)
    try:
        rounds_done = run.go()
        peaks = memory_pass(run, tracer) if tracer else None
    finally:
        if tracer:
            tracer.uninstall()

    passes = rounds_done // len(rounds)
    metrics, extra = end_to_end(run.queries, passes, setup_s, run.calibration)
    extra["setup_peak_rss_mb"] = setup_rss_mb
    if tracer:
        metrics = per_layer(run, tracer, peaks)
    correct = not any(q["wrong_answer"] for q in run.queries)
    failed = sum(not q["ok"] for q in run.queries)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(run.queries)} queries in {rounds_done} rounds ({run.measured_s:.2f} s), {failed} failed")
    print(f"  query_tail_ms is p{extra['query_tail_percentile']:.1f} of {extra['queries']} queries; "
          f"error_rate {extra['error_rate']:.4f} {extra['errors_by_reason']}")
    print(f"  peak RSS {setup_rss_mb:.1f} MB by the end of set-up, before any query")
    print(f"  speed scale {extra['speed_scale']:.4f}; unscaled wall: "
          + ", ".join(f"{k} {v:.4f}" for k, v in extra["wall"].items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.4f} {unit}")
    if tracer:
        layers = {k: v for k, v in metrics.items() if k.count(".") == 1 and k.endswith(".self_ms")}
        top = max(layers, key=lambda k: layers[k][0])
        print(f"  largest self time: {top.split('.')[0]}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds_done,
        "setup_times_s": setup_times,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
        "inputs": [inp.record() for inp, _ in rounds[0]],
        "failures": [q for q in run.queries if not q["ok"]],
        "query_ms": [[q["family"], q["n"], q["spec"], q["ms"]] for q in run.queries],
    }
    if tracer:
        summary["spans_fields"] = ["name", "layer", "parent", "query", "start", "end", "error"]
        summary["spans"] = tracer.spans
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(summary))

    print(json.dumps({
        "correct": correct,
        "attempted": len(run.queries),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
