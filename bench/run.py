"""Benchmark of the motkit pipeline: ``simulate`` -> ``track`` -> ``eval``.

Run from the repository root::

    python3 bench/run.py --workload crowd --seed 0 --seconds 30 --trace 0

The benchmark writes each workload's scene configs (generated from
``--seed``), then repeats *passes* while the next one is expected to end
within ``--seconds``, with at least ``MIN_PASSES`` of them. A pass runs every
command of the workload in-process through ``motkit.cli.main``, one at a
time in a closed loop. After each scene's commands it replays the scene's
track runs of ``Workload.online`` through ``motkit.tracker.run_sequence``,
fed by a generator that timestamps each frame pull (the online-tracking
view). Every output is hashed and checked; see ``checks.py``. A command that
exits non-zero, raises, produces output that fails a check, or whose output
hashes differ from the first pass or from ``reference.json`` counts as a
failed operation.

``--trace 0`` prints the end-to-end metrics: sums of per-command best scaled
times, percentiles of per-frame best scaled latencies (see REFERENCE_S), quality
(IDF1, and identity switches for information), peak RSS and the import time
of a fresh interpreter. ``--trace 1`` alternates untraced passes with passes
traced by ``tracing.Tracer`` and prints the per-layer metrics (medians over
traced passes) plus the tracing overhead. Both print one JSON object as the
last line of stdout and write details to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import check_eval, check_gt, check_tracks, kept_detections, scene_spec
from tracing import Tracer, check_nesting, layer_metrics, unit_of
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 5
TRACE_MIN_PASSES = 2  # of each kind, untraced and traced
SETUP_SAMPLES = 5
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "simulate_s": "s",
    "track_fps": "frames/s",
    "eval_s": "s",
    "frame_p50_ms": "ms",
    "frame_tail_ms": "ms",
    "idf1": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# Printed and recorded, but not a BENCHMARK.json metric: the switch count moves
# with the seed's inputs (IQR/median ~0.2 over ten sweep seeds), wider than any
# bound could be. The sweep's ordinal check and the output digests gate it.
INFO_UNITS = {"ids": "count"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tail_percentile(n_samples: int) -> float:
    """The highest ladder percentile that leaves at least ten of n samples above it."""
    return max((p for p in TAIL_LADDER if n_samples * (100.0 - p) / 100.0 >= 10), default=50.0)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of already sorted values (0.0 when there are none)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def timed_frames(frames, spans: list[tuple[float, float]], p: "Pass"):
    """Yield frames, appending each one's (start, end): from its pull to the next pull.

    Between frames it lets the pass time its reference loop when one is due,
    outside both frames' spans.
    """
    start = None
    for item in frames:
        if start is not None:
            spans.append((start, time.perf_counter()))
        p.reference()
        start = time.perf_counter()
        yield item
    if start is not None:
        spans.append((start, time.perf_counter()))


# Host speed. Other tenants of a shared machine slow all code together, for
# seconds to minutes at a time: on the 2-vCPU sandbox this was built on, the
# same commands ran up to 2x slower in one 30-second run than in the next.
# So a pass also times a fixed pure-Python loop between commands and between
# replayed frames, at most every REFERENCE_EVERY_S, and once at its end. Each
# command's and frame's time is scaled by REFERENCE_S over the mean of the
# loops just before and just after it: seconds on a host where the loop
# takes REFERENCE_S. Unscaled pass times are in the details under bench/out/.
REFERENCE_S = 0.006  # about the loop's time on that sandbox when idle
REFERENCE_EVERY_S = 0.2
_BOXES = [(i % 17 * 3.0, i % 13 * 2.0, i % 17 * 3.0 + 20.0, i % 13 * 2.0 + 30.0) for i in range(96)]


def reference_loop() -> float:
    """Seconds a fixed loop, shaped like the pipeline's scalar box overlaps, takes now."""
    t0 = time.perf_counter()
    total = 0.0
    for a in _BOXES:
        for b in _BOXES:
            iw = min(a[2], b[2]) - max(a[0], b[0])
            ih = min(a[3], b[3]) - max(a[1], b[1])
            if iw > 0.0 and ih > 0.0:
                total += iw * ih
    return time.perf_counter() - t0


class Deadline:
    """Decides whether another pass fits in the measuring time."""

    def __init__(self, seconds: float) -> None:
        self.start = self.last = time.perf_counter()
        self.end = self.start + seconds
        self.longest = 0.0

    def another(self, required: bool) -> bool:
        """True while passes are still required, or the next one should end in time."""
        now = time.perf_counter()
        self.longest = max(self.longest, now - self.last)
        self.last = now
        return required or now + self.longest <= self.end


class Pass:
    """Everything one pass measured and produced."""

    def __init__(self) -> None:
        self.wall: dict[str, float] = {}  # operation -> command wall time
        self.frames_tracked = 0
        self.replays: dict[str, list[tuple[float, float]]] = {}  # online replay -> (start, end) per frame
        self.hashes: dict[str, str] = {}
        self.op_of: dict[str, str] = {}  # hashed file -> the operation that wrote it
        self.evals: dict[tuple[str, str], dict] = {}
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}  # failed operation -> what went wrong
        self.spans: dict[str, tuple[float, float]] = {}  # operation -> (start, end)
        self.references: list[tuple[float, float]] = []  # (when, reference loop seconds)

    def reference(self, due_only: bool = True) -> None:
        if not due_only or not self.references or time.perf_counter() - self.references[-1][0] >= REFERENCE_EVERY_S:
            self.references.append((time.perf_counter(), reference_loop()))

    def scale_at(self, start: float, end: float) -> float:
        """Factor that turns seconds spent from start to end into seconds on the reference host."""
        i = bisect.bisect_right(self.references, (start, float("inf")))
        j = bisect.bisect_left(self.references, (end, float("-inf")))
        near = self.references[i - 1 : i] + self.references[j : j + 1]
        return REFERENCE_S / statistics.fmean(r for _, r in near)

    def scale(self, op: str) -> float:
        return self.scale_at(*self.spans[op])

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, []).append(message)

    @property
    def pipeline_s(self) -> float:
        return sum(self.wall.values())

    def kind_s(self, kind: str) -> float:
        return sum(t for op, t in self.wall.items() if op.startswith(kind + " "))


class Bench:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        import motkit.cli
        import motkit.formats
        import motkit.tracker

        self.cli, self.formats, self.tracker = motkit.cli, motkit.formats, motkit.tracker
        self.wl = WORKLOADS[workload](seed)
        self.seed = seed
        self.work = work
        self.reference = reference_digests(workload, seed)
        self.specs = {}
        for scene, config in self.wl.scenes.items():
            (work / scene).mkdir(parents=True, exist_ok=True)
            (work / scene / "scene.cfg").write_text(config)
            self.specs[scene] = scene_spec(config)
        self.first: Pass | None = None

    # -- one command -------------------------------------------------------------------
    def _command(self, p: Pass, op: str, argv: list[str], tracer) -> str | None:
        """Run one CLI command, add its wall time; return its stdout, or None if it failed."""
        p.reference()
        p.attempted += 1
        out = io.StringIO()
        span = tracer.span(f"command.{argv[0]}") if tracer else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
                with span:
                    t0 = time.perf_counter()
                    code = self.cli.main(argv)
                    t1 = time.perf_counter()
                    p.wall[op], p.spans[op] = t1 - t0, (t0, t1)
        except Exception:
            p.fail(op, f"raised\n{traceback.format_exc()}")
            return None
        if code != 0:
            p.fail(op, f"exit {code}: {err.getvalue().strip()}")
            return None
        return out.getvalue()

    def _record(self, p: Pass, op: str, key: str, data: bytes, problems: list[str]) -> None:
        p.hashes[key] = sha256(data)
        p.op_of[key] = op
        for msg in problems:
            p.fail(op, f"{key}: {msg}")

    # -- one pass ----------------------------------------------------------------------
    def run_pass(self, tracer=None, online: bool = True) -> Pass:
        p = Pass()
        for scene in self.wl.scenes:
            d = self.work / scene
            spec = self.specs[scene]
            op = f"simulate {scene}"
            if self._command(p, op, ["simulate", str(d / "scene.cfg"), "--out-dir", str(d)], tracer) is None:
                continue
            gt_text = (d / "gt.txt").read_text()
            preds_text = (d / "preds.csv").read_text()
            gt_rows = sum(1 for line in gt_text.splitlines() if line.strip())
            self._record(p, op, f"{scene}/gt.txt", gt_text.encode(), check_gt(gt_text, spec))
            try:
                kept, n_frames = kept_detections(preds_text, spec["variant"])
                problems = []
            except ValueError as exc:
                kept, n_frames, problems = [], 0, [str(exc)]
            self._record(p, op, f"{scene}/preds.csv", preds_text.encode(), problems)
            for strategy in self.wl.strategies:
                tracks = d / f"tracks-{strategy}.txt"
                op = f"track {scene} {strategy}"
                argv = ["track", str(d / "preds.csv"), "--strategy", strategy, "--out", str(tracks)]
                summary = self._command(p, op, argv, tracer)
                if summary is None:
                    continue
                p.frames_tracked += n_frames
                track_text = tracks.read_text()
                problems = check_tracks(track_text, kept)
                if not summary.startswith(f"frames={n_frames} "):
                    problems.append(f"summary {summary.strip()!r} does not count {n_frames} frames")
                self._record(p, op, f"{scene}/tracks-{strategy}.txt", track_text.encode(), problems)
                op = f"eval {scene} {strategy}"
                stdout = self._command(p, op, ["eval", str(d / "gt.txt"), str(tracks), "--json"], tracer)
                if stdout is None:
                    continue
                res, problems = check_eval(stdout, gt_rows, len(kept))
                self._record(p, op, f"{scene}/eval-{strategy}.json", stdout.encode(), problems)
                p.evals[(scene, strategy)] = res
            if online:
                # right after the scene's commands, so that the frame samples of a
                # many-scene workload are spread over the pass like its commands
                self._online(p, scene)
        p.reference(due_only=False)
        self._compare(p)
        return p

    def _online(self, p: Pass, scene: str) -> None:
        """Replay the scene's online track runs through run_sequence, timing each frame."""
        from motkit.association import Strategy

        d = self.work / scene
        preds = frames = None
        for strategy in self.wl.online:
            op = f"online {scene} {strategy}"
            p.reference()
            p.attempted += 1
            try:
                if preds is None:
                    preds = self.formats.parse_predictions((d / "preds.csv").read_text())
                    frames = preds.dense_frames()
                cfg = self.tracker.TrackerConfig(strategy=Strategy(strategy), variant=preds.variant)
                spans: list[tuple[float, float]] = []
                records = self.tracker.run_sequence(timed_frames(frames, spans, p), cfg)
                p.replays[op] = spans
                text = self.formats.write_mot(records)
            except Exception:
                p.fail(op, f"raised\n{traceback.format_exc()}")
                continue
            if text.encode() != (d / f"tracks-{strategy}.txt").read_bytes():
                p.fail(op, "records differ from the track command's output")

    def _compare(self, p: Pass) -> None:
        """Hashes must repeat the first pass's, and the first pass must match the reference."""
        if self.first is None:
            self.first = p
            if self.reference is not None:
                for group, digest in group_digests(p.hashes).items():
                    if self.reference.get(group, digest) != digest:
                        for key in p.hashes:
                            if group_of(key) == group:
                                p.fail(p.op_of[key], f"{group}: digest differs from reference.json")
            return
        for key, digest in p.hashes.items():
            if self.first.hashes.get(key) != digest:
                p.fail(p.op_of[key], f"{key}: differs from the first pass")

    # -- quality -----------------------------------------------------------------------
    def quality(self, p: Pass) -> tuple[dict, list[str]]:
        by_strategy = {}
        for s in self.wl.strategies:
            runs = [r for (_, strat), r in p.evals.items() if strat == s and r]
            if runs:
                by_strategy[s] = {
                    "ids": sum(r["ids"] for r in runs),
                    "idf1": statistics.fmean(r["idf1"] for r in runs),
                    "runs": len(runs),
                }
        problems = []
        if self.wl.name == "sweep":
            iou, dis = by_strategy.get("iou"), by_strategy.get("dis")
            if not iou or not dis:
                problems.append("sweep: iou or dis has no evaluated runs")
            elif not (iou["ids"] < dis["ids"] and iou["idf1"] >= dis["idf1"]):
                problems.append(f"sweep: ordinal claim fails: iou {iou} vs dis {dis}")
        return by_strategy, problems


def reference_digests(workload: str, seed: int) -> dict | None:
    """Recorded output digests of a workload and seed, if ``reference.json`` has them."""
    recorded = json.loads((BENCH / "reference.json").read_text())["digests"]
    return recorded.get(workload, {}).get(str(seed))


def group_of(key: str) -> str:
    """Output group of a hashed file: its name without the scene directory."""
    return key.split("/", 1)[1]


def group_digests(hashes: dict[str, str]) -> dict[str, str]:
    """One digest per output group, over its files' hashes in scene order."""
    groups: dict[str, list[str]] = {}
    for key, digest in hashes.items():
        groups.setdefault(group_of(key), []).append(digest)
    return {g: sha256("\n".join(ds).encode()) for g, ds in groups.items()}


def setup_seconds() -> tuple[float, list[float]]:
    """Median scaled time of a fresh interpreter's ``import motkit.cli``, after one warm-up."""
    code = "import time; t = time.perf_counter(); import motkit.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        scale = REFERENCE_S / reference_loop()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=60)
        if i:
            samples.append(scale * float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def environment() -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "motkit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_sha256": src.hexdigest(),
    }


def best_of(passes: list[Pass]) -> Pass:
    """A pass whose command times are each command's fastest, scaled, over the passes.

    Other tenants only ever slow a command down, by up to 2x for a few
    seconds, so the fastest of several scaled runs of a command repeats
    better than their median.
    """
    best = Pass()
    for op in passes[0].wall:
        best.wall[op] = min(p.wall[op] * p.scale(op) for p in passes if op in p.wall)
    return best


def pass_scale(p: Pass) -> float:
    return statistics.median(p.scale(op) for op in p.wall) if p.wall else 1.0


def frame_best(passes: list[Pass]) -> list[float]:
    """Each replayed frame's fastest latency over the passes, sorted.

    A frame's latency percentiles then describe which frames are heavy, not
    which pass another tenant slowed (see best_of).
    """
    best = []
    for op, frames in passes[0].replays.items():
        runs = [[(b - a) * p.scale_at(a, b) for a, b in p.replays[op]]
                for p in passes if len(p.replays.get(op, ())) == len(frames)]
        best.extend(map(min, zip(*runs)))
    return sorted(best)


def end_to_end(bench: Bench, passes: list[Pass]) -> tuple[dict, dict]:
    best = best_of(passes)
    frames = frame_best(passes)
    tail_p = tail_percentile(len(frames))
    quality, _ = bench.quality(passes[0])
    setup, setup_samples = setup_seconds()
    values = {
        "pipeline_s": best.pipeline_s,
        "simulate_s": best.kind_s("simulate"),
        "track_fps": passes[0].frames_tracked / best.kind_s("track") if best.kind_s("track") else 0.0,
        "eval_s": best.kind_s("eval"),
        "frame_p50_ms": 1e3 * percentile(frames, 50.0),
        "frame_tail_ms": 1e3 * percentile(frames, tail_p),
        "ids": sum(q["ids"] for q in quality.values()),
        "idf1": statistics.fmean(q["idf1"] for q in quality.values()) if quality else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup,
    }
    detail = {
        "pass_reference_s": [statistics.median(r for _, r in p.references) for p in passes],
        "frame_tail": {"percentile": tail_p, "frames": len(frames), "passes": len(passes)},
        "setup_samples_s": setup_samples,
        "quality_by_strategy": quality,
        "unscaled_passes": [{"pipeline_s": p.pipeline_s, **{f"{k}_s": p.kind_s(k) for k in ("simulate", "track", "eval")},
                    "frames_tracked": p.frames_tracked} for p in passes],
    }
    return values, detail


def per_layer(bench: Bench, seconds: float, out_dir: Path) -> tuple[dict, dict, list[Pass]]:
    plain: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    problems: list[str] = []
    last = None
    clock = Deadline(seconds)
    while clock.another(len(traced) < TRACE_MIN_PASSES):
        plain.append(bench.run_pass(online=False))
        tracer = Tracer()
        tracer.install()
        try:
            p = bench.run_pass(tracer=tracer, online=False)
        finally:
            tracer.uninstall()
        traced.append((p, layer_metrics(tracer.spans, tracer.counts)))
        problems.extend(check_nesting(tracer.spans)[:5])
        last = tracer
    med = statistics.median
    # per-layer seconds scale by the pass's median command scale
    values = {name: med((pass_scale(p) if unit_of(name) == "s" else 1.0) * m[name] for p, m in traced)
              for name in traced[0][1]}
    traced_s = best_of([p for p, _ in traced]).pipeline_s
    values["trace.overhead_frac"] = traced_s / best_of(plain).pipeline_s - 1.0
    with gzip.open(out_dir / f"spans-{bench.wl.name}-{bench.seed}.json.gz", "wt") as fh:
        json.dump({"columns": ["name", "start", "end", "parent"], "spans": last.spans,
                   "counts": dict(last.counts)}, fh)
    detail = {"hook_errors": last.hook_errors, "span_problems": problems, "traced_passes": len(traced),
              "untraced_passes": len(plain), "spans_per_pass": len(last.spans)}
    return values, detail, plain + [p for p, _ in traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "motkit" / "cli.py").is_file():
        print(f"error: no motkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.trace:
            values, detail, passes = per_layer(bench, args.seconds, out_dir)
            units = {name: unit_of(name) for name in values}
        else:
            passes = []
            clock = Deadline(args.seconds)
            while clock.another(len(passes) < MIN_PASSES):
                passes.append(bench.run_pass())
            values, detail = end_to_end(bench, passes)
            units = {**END_TO_END_UNITS, **INFO_UNITS}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # the sweep's ordinal claim, and in traced runs the span tree, are checks on the whole run
    problems = bench.quality(bench.first)[1] + detail.get("span_problems", [])
    failures = [f"{op}: {msg}" for p in passes for op, msgs in p.failures.items() for msg in msgs]
    failed = sum(len(p.failures) for p in passes)
    attempted = sum(p.attempted for p in passes)
    correct = not failed and not problems
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace, environment=environment(),
        attempted=attempted, failed=failed, failures=failures[:20], problems=problems,
        group_digests=group_digests(bench.first.hashes), hashes=bench.first.hashes, metrics=values,
    )
    (out_dir / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")

    for msg in failures[:5] + problems:
        print(f"FAILED: {msg}", file=sys.stderr)
    for name, value in values.items():
        print(f"{args.workload:6} {name:36} {value:14.6g} {units[name]}")
    if "frame_tail" in detail:
        tail = detail["frame_tail"]
        print(f"{args.workload:6} frame latencies: each of {tail['frames']} frames at its best of "
              f"{tail['passes']} passes; frame_tail_ms is p{tail['percentile']:g}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()
                    if name not in INFO_UNITS},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
