"""Make ``perfbench/baseline.json``: run the benchmark over fixed seeds and summarise it.

    python3 perfbench/repeat.py

Runs ``run.py`` on every workload, one run at a time: untraced with seeds
1-10, then traced with seed 1.  For every end-to-end metric it gives the
median, the quartiles and the spread, the distance between the first and
third quartile as a share of the median, as ``statistics.quantiles(values,
n=4)`` gives them.  It does so for the gated, speed-scaled figures and for
the unscaled wall times of the same runs.  The result goes to
``perfbench/out/baseline.json``; copy it over ``perfbench/baseline.json``
to make it the baseline.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SEEDS = range(1, 11)
SECONDS = 5


def run(workload: str, seed: int, trace: int) -> tuple[dict, float]:
    """One run: (its summary file, its wall time in seconds)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: some answer failed its check")
    summary = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    print(f"{workload} seed {seed} trace {trace}: {elapsed:.1f} s, "
          f"attempted {result['attempted']} failed {result['failed']}", flush=True)
    return summary, elapsed


def stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    doc = {
        "about": "end_to_end: ten untraced runs per workload, seeds 1-10, --seconds 5, one run at a time; "
                 "median, quartiles and spread = (q3 - q1) / median.  'unscaled' gives the same statistics "
                 "of the raw wall times of the same runs.  per_layer: one traced run per workload, seed 1.",
        "python": sys.version.split()[0],
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [run(workload, seed, 0) for seed in SEEDS]
        traced, traced_s = run(workload, 1, 1)
        summaries = [s for s, _ in runs]
        reasons: dict[str, int] = {}
        for s in summaries:
            for key, count in s["errors_by_reason"].items():
                reasons[key] = reasons.get(key, 0) + count
        per_layer = {k: v["value"] for k, v in traced["metrics"].items()}
        layers = {k.split(".")[0]: v for k, v in per_layer.items()
                  if k.count(".") == 1 and k.endswith(".self_ms")}
        doc["workloads"][workload] = {
            "end_to_end": {
                name: {**stats([s["metrics"][name]["value"] for s in summaries]),
                       "unit": summaries[0]["metrics"][name]["unit"]}
                for name in summaries[0]["metrics"]
            },
            "unscaled": {name: stats([s["wall"][name] for s in summaries])
                         for name in summaries[0]["wall"]},
            "speed_scale": sorted(s["speed_scale"] for s in summaries),
            "setup_peak_rss_mb": stats([s["setup_peak_rss_mb"] for s in summaries]),
            "query_tail_percentile": sorted({s["query_tail_percentile"] for s in summaries}),
            "queries_per_run": sorted({s["queries"] for s in summaries}),
            "run_wall_s": {"untraced": stats([t for _, t in runs]), "traced": traced_s},
            "error_rate": sum(reasons.values()) / sum(s["queries"] for s in summaries),
            "errors_by_reason": reasons,
            "per_layer": per_layer,
            "largest_self_time_layer": max(layers, key=layers.get),
            "inputs_round_0": summaries[0]["inputs"],
        }
        for name, row in doc["workloads"][workload]["end_to_end"].items():
            raw = doc["workloads"][workload]["unscaled"].get(name)
            print(f"   {name:16s} median {row['median']:12.4f} spread {row['spread']:.3f}"
                  + (f"   unscaled median {raw['median']:12.4f} spread {raw['spread']:.3f}" if raw else ""))
    (OUT / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
