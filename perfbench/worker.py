"""One workload's solves, in a process of its own.

    python3 worker.py WORKDIR timed SECONDS OUT.json
    python3 worker.py WORKDIR trace MODES OUT.json   (MODES: plain,traced)

WORKDIR holds the instance files, their references and ``manifest.json``
that run.py wrote during set-up.  Every solve is ``maxconv.cli.main(["solve",
...])`` on one instance file, with the run report captured and checked
against its reference, read from its file after the clock stops, so that
the worker's peak memory holds one reference at a time.  The loop is closed: one
solve at a time, no threads.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
import tracing

_CAL = np.arange(50_000, dtype=np.int64)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    A shared host's speed drifts from one second to the next; timing this
    next to every solve lets run.py express solve times at one reference
    speed.
    """
    t0 = perf_counter()
    s = 0
    for i in range(100_000):
        s += i
    for _ in range(10):
        np.maximum(_CAL, _CAL[::-1]).sum()
    return perf_counter() - t0


def load_package(src: Path):
    sys.path.insert(0, str(src))
    import maxconv.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"maxconv was imported from {cli.__file__}, not from {src}")
    return cli


def solve_once(main, inst: dict, tracer=None) -> dict:
    argv = ["solve", "--input", inst["file"], "--method", inst["method"], *inst["args"]]
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = tracer.open("main", "cli") if tracer else None
        t0 = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed solve, not a dead run
            code, error = -1, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if span is not None:
            tracer.close(span)
            span.info["report_bytes"] = len(out.getvalue().encode())
    ref = json.loads(Path(inst["ref"]).read_text())
    sample = {"dt": dt, "code": code, "sound": True, "matched": 0, "entries": reference.entries(ref)}
    if code == 0:
        try:
            ans = json.loads(out.getvalue())["answer"]
        except (ValueError, KeyError, TypeError):
            ans = {}
        sample["sound"], sample["matched"] = reference.compare(ref, ans, inst["randomized"])
    else:
        sample["error"] = error or err.getvalue().strip()[-200:]
    return sample


def warm_up(cli, insts) -> None:
    # One solve outside the measurement pays for first-call costs inside
    # numpy and the interpreter; import time is measured on its own.
    solve_once(cli.main, insts[0])


def timed(cli, insts, seconds: float, pool: int) -> dict:
    warm_up(cli, insts)
    samples = []
    start = perf_counter()
    passes = None
    # Whole passes over the pool only, so every instance is solved equally
    # often; the first pass sets how many fill the run most nearly.
    while passes is None or len(samples) < passes * pool:
        j = len(samples) % pool
        cal = calibrate()
        sample = solve_once(cli.main, insts[j])
        sample.update(index=j, cal=cal)
        samples.append(sample)
        if passes is None and len(samples) == pool:
            passes = max(2, round(seconds / (perf_counter() - start)))
    return {"samples": samples, "final_cal": calibrate()}


def traced(cli, insts, trace_set, modes: list[str], spans_path: Path) -> dict:
    from maxconv import colorcoding, core, decision

    result: dict = {}
    # The passes are compared with each other, so each one runs warm.
    for j in trace_set:
        solve_once(cli.main, insts[j])
    for mode in modes:
        tracer = tracing.Tracer() if mode == "traced" else None
        if tracer:
            tracer.install(cli, core, decision, colorcoding)
        samples = []
        try:
            for pos, j in enumerate(trace_set):
                if tracer:
                    tracer.solve = pos
                cal = calibrate()
                sample = solve_once(cli.main, insts[j], tracer)
                sample.update(index=j, cal=cal)
                samples.append(sample)
            final_cal = calibrate()
        finally:
            if tracer:
                tracer.uninstall()
        result[mode] = {"samples": samples, "final_cal": final_cal}
        if tracer:
            outcomes = {pos: s["code"] for pos, s in enumerate(samples)}
            shapes = {
                pos: (insts[j]["problem"], insts[j]["method"], insts[j]["lens"])
                for pos, j in enumerate(trace_set)
            }
            result[mode]["layers"] = tracing.layer_metrics(tracer, outcomes)
            result[mode]["gate_failures"] = tracing.gate_failures(tracer, shapes)
            result[mode]["spans"] = len(tracer.spans)
            tracer.dump(spans_path)
    return result


def main(argv: list[str]) -> int:
    workdir, mode, arg, out_path = Path(argv[0]), argv[1], argv[2], Path(argv[3])
    manifest = json.loads((workdir / "manifest.json").read_text())
    cli = load_package(Path(manifest["src"]))
    insts = manifest["instances"]
    if mode == "timed":
        result = timed(cli, insts, float(arg), manifest["pool"])
    else:
        spans = out_path.with_suffix(".spans.jsonl")
        result = traced(cli, insts, manifest["trace"], arg.split(","), spans)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
