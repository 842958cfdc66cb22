"""Benchmark of ``maxconv solve`` over seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Set-up generates the workload's instance files from the
seed and computes every reference answer.  The solves then run in a worker
process of their own (see worker.py), one closed-loop client, and every
answer is checked against its reference.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it carries details: per-route refusals,
failure and exactness ratios, the figures over raw solves, and the raw p90
where a run holds 100 solves.

Shared hosts change speed while a run lasts (a 2-vCPU x86-64 host was
seen to swing by 1.8x within a minute), so every timing in the end-to-end
metrics is rescaled to one reference speed by a calibration loop timed next
to it (see ``summarize``).

The exit code is 0 when every answer is sound and every count gate holds,
1 when one is not (the result line still prints), and 2 when the run could
not be made at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
IMPORT_LAUNCHES = 8  # half before the timed phase, half after it
# Time of worker.calibrate() at the reference speed: about its median on
# the 2-vCPU x86-64 host where BASELINE.json was recorded.  Every timing
# in the end-to-end metrics is rescaled to this speed.
CAL_REF_S = 0.007
CHILD_TIMEOUT_S = 150
# One process, one client: keep numpy's BLAS pool from starting threads.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class RunError(Exception):
    """The run could not be made; no result is printed."""


def set_up(wl: workloads.Workload, seed: int, work: Path) -> list[dict]:
    """Write the instance files, their references (one file each, so that
    the worker holds one at a time) and the manifest; return the manifest's
    instance entries."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    insts = []
    order = list(range(wl.pool)) + [j for j in wl.trace if j >= wl.pool]
    for j in order:
        inst = workloads.instance(wl.name, seed, j)
        path = work / f"{j:04d}.json"
        path.write_text(inst.text())
        ref_path = work / f"{j:04d}.ref.json"
        ref_path.write_text(json.dumps(reference.answer(inst.problem, inst.payload)))
        lens = None
        if inst.problem == "maxconv":
            lens = [len(inst.payload["a"]), len(inst.payload["b"])]
        insts.append(
            {
                "file": str(path),
                "ref": str(ref_path),
                "problem": inst.problem,
                "method": inst.method,
                "args": list(inst.extra_args),
                "randomized": inst.method == "rand",
                "lens": lens,
            }
        )
    manifest = {
        "src": str(SRC),
        "pool": wl.pool,
        "trace": [order.index(j) for j in wl.trace],
        "instances": insts,
    }
    (work / "manifest.json").write_text(json.dumps(manifest))
    return insts


def run_child(argv: list[str]) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{argv[0]} ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RunError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def run_worker(work: Path, mode: str, arg: str, tag: str) -> dict:
    out = work / f"{tag}.json"
    run_child([str(HERE / "worker.py"), str(work), mode, arg, str(out)])
    return json.loads(out.read_text())


def import_seconds(launches: int) -> list[float]:
    """Times to import maxconv.cli, each in a fresh interpreter and rescaled
    to the reference speed by the calibration loop timed right after it."""
    times = []
    for _ in range(launches):
        elapsed, cal = map(float, run_child([str(HERE / "import_probe.py"), str(SRC)]).split())
        times.append(elapsed * CAL_REF_S / cal)
    return times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (values may hold +inf)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(samples: list[dict], insts: list[dict], final_cal: float | None = None) -> dict:
    """Counts, ratios and latencies of one set of solves.

    When the solves were timed next to a calibration loop (``cal``, plus
    ``final_cal`` after the last one), the end-to-end figures use each
    solve's time rescaled to the reference speed, at which the loop takes
    CAL_REF_S: dt * CAL_REF_S / (mean of the loop times before and after
    the solve).  This removes most of the machine's drift; the figures over
    plain wall time are kept alongside as ``wall_*``.
    """
    # A failure is a refusal, a crash or a wrong answer; only the last is
    # fatal to the run.
    failed = [s for s in samples if s["code"] != 0 or not s["sound"]]
    wrong = [s for s in samples if s["code"] == 0 and not s["sound"]]
    wall = [s["dt"] for s in samples]
    scaled = wall
    if final_cal is not None:
        cals = [s["cal"] for s in samples] + [final_cal]
        scaled = [dt * 2 * CAL_REF_S / (c0 + c1) for dt, c0, c1 in zip(wall, cals, cals[1:])]
    refusals: dict[str, int] = {}
    for s in failed:
        if s["code"] != 0:
            key = "{problem}/{method}".format(**insts[s["index"]])
            refusals[key] = refusals.get(key, 0) + 1
    ok = len(samples) - len(failed)

    def late(times: list[float]) -> list[float]:
        return [t if s["code"] == 0 and s["sound"] else math.inf for t, s in zip(times, samples)]

    out = {
        "attempted": len(samples),
        "failed": len(failed),
        "wrong": len(wrong),
        "passes": len(samples) / len({s["index"] for s in samples}),
        "busy_s": sum(wall),
        "scaled_s": sum(scaled),
        "solves_per_s": ok / sum(scaled),
        # Finite while most solves succeed; capped at the phase otherwise.
        "solve_p50_s": min(statistics.median(late(scaled)), sum(scaled)),
        "wall_solves_per_s": ok / sum(wall),
        "wall_solve_p50_s": min(statistics.median(late(wall)), sum(wall)),
        "fail_ratio": len(failed) / len(samples),
        "exact_ratio": sum(s["matched"] for s in samples) / sum(s["entries"] for s in samples),
        "refusals": refusals,
        "errors": sorted({s["error"] for s in failed if s["code"] != 0})[:10],
        "wrong_answers": [insts[s["index"]]["file"] for s in wrong][:10],
    }
    if final_cal is not None:
        out["calibration_s"] = statistics.median(cals)
    if len(samples) >= 100:
        out["solve_p90_s"] = min(percentile(late(scaled), 0.9), sum(scaled))
        out["wall_solve_p90_s"] = min(percentile(late(wall), 0.9), sum(wall))
    return out


def end_to_end(work: Path, seconds: int, insts: list[dict]) -> tuple[dict, dict]:
    # Launches on both sides of the timed phase sample two moments of the
    # machine, which varies in speed from second to second.
    imports = import_seconds(IMPORT_LAUNCHES // 2)
    result = run_worker(work, "timed", str(seconds), "timed")
    imports += import_seconds(IMPORT_LAUNCHES - IMPORT_LAUNCHES // 2)
    setup_s = statistics.median(imports)
    summary = summarize(result["samples"], insts, result["final_cal"])
    metrics = {
        "solves_per_s": (summary["solves_per_s"], "1/s"),
        "solve_p50_s": (summary["solve_p50_s"], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }
    return summary, metrics


def per_layer(wl: workloads.Workload, work: Path, insts: list[dict]) -> tuple[dict, dict]:
    first = run_worker(work, "trace", "plain,traced", "trace-a")
    again = run_worker(work, "trace", "traced", "trace-b")
    summary = summarize(first["traced"]["samples"], insts, first["traced"]["final_cal"])
    plain = summarize(first["plain"]["samples"], insts, first["plain"]["final_cal"])
    layers = dict(first["traced"]["layers"])
    layers["fail_ratio"] = summary["fail_ratio"]
    layers["exact_ratio"] = summary["exact_ratio"]
    layers["trace.overhead_ratio"] = summary["scaled_s"] / plain["scaled_s"]
    repeat = summarize(again["traced"]["samples"], insts)
    again_layers = dict(again["traced"]["layers"], fail_ratio=repeat["fail_ratio"], exact_ratio=repeat["exact_ratio"])
    gates = first["traced"]["gate_failures"] + again["traced"]["gate_failures"]
    for name in tracing.PER_LAYER:
        if name not in tracing.TIMED and layers[name] != again_layers[name]:
            gates.append(f"{name} did not repeat: {layers[name]} then {again_layers[name]}")
    # A workload whose own layer records nothing would pass every gate above
    # on zeros.
    if not sum(layers[name] for name in wl.own):
        gates.append(f"{' + '.join(wl.own)} is 0: the layer this workload measures recorded nothing")
    summary["gate_failures"] = gates
    summary["spans"] = first["traced"]["spans"]
    metrics = {name: (layers[name], unit) for name, unit in tracing.PER_LAYER.items()}
    return summary, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "maxconv" / "cli.py").is_file():
        print(f"error: no maxconv package under {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = WORK / wl.name
    try:
        insts = set_up(wl, args.seed, work)
        if args.trace:
            summary, metrics = per_layer(wl, work, insts)
        else:
            summary, metrics = end_to_end(work, args.seconds, insts)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = summary["wrong"] == 0 and not summary.get("gate_failures")
    detail = {k: v for k, v in summary.items() if k not in ("attempted", "failed")}
    print(json.dumps({"workload": wl.name, "seed": args.seed, "detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
