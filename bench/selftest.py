"""Tiny-scale self-test of the benchmark; exits non-zero on the first problem.

    python3 bench/selftest.py

Shrinks every workload, runs each once untraced and once traced through
``run.main``, and checks that the last output line carries exactly the
metrics ``BENCHMARK.json`` names, each with its unit, and no failed
operation. It then traces one pass of every workload directly and checks that
the spans nest and that no self time is negative. Takes about 15 seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run
import tracing
import workloads

SEED = 7


def shrink() -> None:
    workloads.CROWD_AGENTS, workloads.CROWD_FRAMES = 16, 8
    workloads.SWEEP_SCENES = 6
    workloads.CHURN_AGENTS, workloads.CHURN_FRAMES = 8, 80
    run.MIN_PASSES = run.TRACE_MIN_PASSES = 1
    run.SETUP_SAMPLES = 1
    run.reference_digests = lambda workload, seed: None  # recorded for full-size inputs only


def last_line(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"{argv}: exit {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_result(result: dict, expected: list[dict], what: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{what}: correct={result['correct']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        raise AssertionError(f"{what}: metrics/units differ from BENCHMARK.json: {set(got.items()) ^ set(want.items())}")


def check_spans(workload: str) -> int:
    work = run.BENCH / ".work" / f"selftest-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = run.Bench(workload, SEED, work)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            p = bench.run_pass(tracer=tracer, online=False)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if p.failures:
        raise AssertionError(f"{workload}: traced pass failed: {p.failures[:3]}")
    problems = tracing.check_nesting(tracer.spans)
    if problems:
        raise AssertionError(f"{workload}: {problems[:3]}")
    negative = [(s[0], t) for s, t in zip(tracer.spans, tracing.self_times(tracer.spans)) if t < -1e-9]
    if negative:
        raise AssertionError(f"{workload}: negative self times {negative[:3]}")
    layers = {s[0].split(".")[0] for s in tracer.spans}
    missing = set(tracing.LAYERS) - layers
    if missing:
        raise AssertionError(f"{workload}: no spans for layers {sorted(missing)}")
    return len(tracer.spans)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    shrink()
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
            check_result(last_line(argv), expected, f"{name} trace {trace}")
        n = check_spans(name)
        print(f"{name}: metrics and units match BENCHMARK.json; {n} spans nest, no negative self time")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
