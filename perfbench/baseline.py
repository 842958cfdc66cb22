"""Record the benchmark's baseline for the current source tree.

    python3 perfbench/baseline.py [--out perfbench/BASELINE.json]

For every workload it makes one untraced run per seed (seeds 1..10) and one
traced run (seed 1), then writes the platform, the medians, quartiles and
spreads of every end-to-end metric, the traced per-layer numbers, and the
failures each workload saw, route by route.  The spread of a metric is the
distance between its first and third quartile over its median, the figure
BENCHMARK.json's bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
# Fields of a run's detail line kept per run (see run.summarize).
DETAIL = (
    "passes",
    "fail_ratio",
    "exact_ratio",
    "calibration_s",
    "wall_solves_per_s",
    "wall_solve_p50_s",
    "solve_p90_s",
    "wall_solve_p90_s",
    "refusals",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def revision() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(HERE / "BASELINE.json"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    import numpy

    out = {
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "revision": revision(),
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for wl in bench["workloads"]:
        name = wl["name"]
        values: dict[str, list[float]] = {}
        runs = []
        for seed in SEEDS:
            detail, result = run(name, seed, bench["run_seconds"], 0)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            runs.append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                **{k: detail.get(k) for k in DETAIL},
            })
            print(name, seed, result["metrics"], flush=True)
        e2e = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            e2e[metric] = {
                "median": statistics.median(vals),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals),
                "values": vals,
            }
        refusals: dict[str, int] = {}
        for r in runs:
            for route, count in r["refusals"].items():
                refusals[route] = refusals.get(route, 0) + count
        detail, traced = run(name, 1, bench["run_seconds"], 1)
        out["workloads"][name] = {
            "why": wl["why"],
            "end_to_end": e2e,
            "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "refusals": refusals,
            "runs": runs,
            "traced": {
                "seed": 1,
                "correct": traced["correct"],
                "attempted": traced["attempted"],
                "failed": traced["failed"],
                "refusals": detail["refusals"],
                "gate_failures": detail["gate_failures"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
