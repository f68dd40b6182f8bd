"""In-memory span tracing of the motkit layers, installed from outside the package.

``Tracer.install`` replaces every public function defined in a layer module
(and every other ``motkit`` module's reference to it, which is how
``from .x import f`` callers see it) with a wrapper that records a span
``[name, start, end, parent]`` and, for the functions ``_hooks`` names,
work counts read from its arguments and result. ``uninstall`` puts the
originals back. ``geometry`` is deliberately not wrapped: its scalar ``iou``
runs millions of times per scene and a wrapper would dominate the run; its
work shows as the cell counts of its callers.

Missing functions (renamed or removed by a later refactor) are skipped, and a
hook that fails on a changed signature only loses its counts, so the derived
metrics read zero instead of breaking the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "formats", "simulator", "association", "tracker", "metrics")
COMMAND = "command"  # the benchmark's own span around one CLI command


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_frac") else "count"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _hooks(counts):
    def parse_predictions(args, kwargs, result):
        counts["formats.rows_parsed"] += sum(len(d) for d in result.by_frame.values())

    def parsed(args, kwargs, result):
        counts["formats.rows_parsed"] += len(result)

    def written(header_lines):
        def hook(args, kwargs, result):
            counts["formats.rows_written"] += result.count("\n") - header_lines
        return hook

    def generate(args, kwargs, result):
        cfg = _arg(args, kwargs, 0, "cfg")
        counts["simulator.agent_frames"] += len(cfg.agents) * cfg.frames
        counts["simulator.gt_rows"] += len(result[0])

    def matrix(kind):
        def hook(args, kwargs, result):
            counts[f"association.{kind}_cells"] += result.size
            counts[f"association.{kind}_admissible"] += int((result < float("inf")).sum())
        return hook

    def associate(args, kwargs, result):
        counts["association.dets_offered"] += len(_arg(args, kwargs, 1, "dets"))
        counts["association.matches"] += len(result.matches)

    def step(args, kwargs, result):
        before, after = _arg(args, kwargs, 0, "state"), result[0]
        spawned = after.next_id - before.next_id
        counts["tracker.frames"] += 1
        counts["tracker.live_total"] += len(after.live)
        counts["tracker.spawned"] += spawned
        counts["tracker.retired"] += len(before.live) + spawned - len(after.live)

    def idf1(args, kwargs, result):
        per_frame = [defaultdict(int), defaultdict(int)]
        gt, hyp = _arg(args, kwargs, 0, "gt"), _arg(args, kwargs, 1, "hyp")
        for e in gt:
            if e.consider:
                per_frame[0][e.frame] += 1
        for r in hyp:
            per_frame[1][r.frame] += 1
        counts["metrics.idf1_pairs"] += sum(n * per_frame[1].get(f, 0) for f, n in per_frame[0].items())

    return {
        "formats.parse_predictions": parse_predictions,
        "formats.parse_mot": parsed,
        "formats.parse_track_file": parsed,
        "formats.write_predictions": written(1),
        "formats.write_gt": written(0),
        "formats.write_mot": written(0),
        "simulator.generate": generate,
        "association.iou_cost": matrix("iou"),
        "association.displacement_cost": matrix("dis"),
        "association.associate": associate,
        "tracker.step": step,
        "metrics.idf1": idf1,
    }


class Tracer:
    """Spans and counts of one traced pass; ``spans[i][3]`` is the parent index or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.hook_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except Exception as exc:  # a changed signature loses only the counts
                    self.hook_errors[name] = repr(exc)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the body: the benchmark's own command spans."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def install(self) -> None:
        hooks = _hooks(self.counts)
        motkit_modules = [m for n, m in list(sys.modules.items()) if n == "motkit" or n.startswith("motkit.")]
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"motkit.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                replaced[id(value)] = self.wrap(name, value, hooks.get(name))
        for module in motkit_modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    self._patch(module, attr, replaced[id(value)])
        metrics = sys.modules["motkit.metrics"]
        lsa = getattr(metrics, "linear_sum_assignment", None)
        if lsa is not None:
            self._patch(metrics, "linear_sum_assignment", self.wrap("metrics.lsa", lsa))

    def _patch(self, module, attr, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def check_nesting(spans) -> list[str]:
    """Problems with the span tree: a child outside its parent, overlapping siblings."""
    problems = []
    last_end: dict[int, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            pname, pstart, pend, _ = spans[parent]
            if parent >= i or start < pstart or end > pend:
                problems.append(f"span {i} {name} lies outside its parent {parent} {pname}")
        if start < last_end.get(parent, float("-inf")):
            problems.append(f"span {i} {name} overlaps its previous sibling")
        last_end[parent] = end
    return problems


def _command_of(spans) -> list[str]:
    """For each span, the name of the command span it belongs to ('' if none)."""
    owner = []
    for name, _, _, parent in spans:
        if parent < 0:
            owner.append(name if name.startswith(COMMAND + ".") else "")
        else:
            owner.append(owner[parent])
    return owner


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer times and counts of one traced pass, under the benchmark's metric names."""
    own = self_times(spans)
    owner = _command_of(spans)
    total = defaultdict(float)      # inclusive time by span name
    self_by = defaultdict(float)    # self time by span name
    cli_self = defaultdict(float)   # cli-layer self time by command kind
    command_time = 0.0
    for (name, start, end, _), mine, cmd in zip(spans, own, owner):
        total[name] += end - start
        self_by[name] += mine
        if name.startswith(COMMAND + "."):
            command_time += end - start
            cli_self[name.split(".", 1)[1]] += mine
        elif name.startswith("cli.") and cmd:
            cli_self[cmd.split(".", 1)[1]] += mine

    def ratio(a, b):
        return counts.get(a, 0.0) / counts[b] if counts.get(b) else 0.0

    out = {f"cli.{kind}_self_s": cli_self[kind] for kind in ("simulate", "track", "eval")}
    for fn in ("parse_predictions", "parse_mot", "parse_track_file", "write_predictions", "write_gt", "write_mot"):
        out[f"formats.{fn}_s"] = total[f"formats.{fn}"]
    out["formats.rows_parsed"] = counts.get("formats.rows_parsed", 0.0)
    out["formats.rows_written"] = counts.get("formats.rows_written", 0.0)
    out["simulator.generate_s"] = total["simulator.generate"]
    out["simulator.perturb_s"] = total["simulator.perturb"]
    out["simulator.agent_frames"] = counts.get("simulator.agent_frames", 0.0)
    out["simulator.visible_frac"] = ratio("simulator.gt_rows", "simulator.agent_frames")
    out["association.iou_cost_s"] = total["association.iou_cost"]
    out["association.displacement_cost_s"] = total["association.displacement_cost"]
    out["association.greedy_match_s"] = total["association.greedy_match"]
    out["association.associate_self_s"] = self_by["association.associate"]
    out["association.iou_cells"] = counts.get("association.iou_cells", 0.0)
    out["association.dis_cells"] = counts.get("association.dis_cells", 0.0)
    out["association.iou_admissible_frac"] = ratio("association.iou_admissible", "association.iou_cells")
    out["association.dis_admissible_frac"] = ratio("association.dis_admissible", "association.dis_cells")
    out["association.match_frac"] = ratio("association.matches", "association.dets_offered")
    out["tracker.run_sequence_self_s"] = self_by["tracker.run_sequence"]
    out["tracker.step_self_s"] = self_by["tracker.step"]
    out["tracker.frames"] = counts.get("tracker.frames", 0.0)
    out["tracker.live_mean"] = ratio("tracker.live_total", "tracker.frames")
    out["tracker.spawned"] = counts.get("tracker.spawned", 0.0)
    out["tracker.retired"] = counts.get("tracker.retired", 0.0)
    out["metrics.clear_mot_s"] = total["metrics.clear_mot"]
    out["metrics.idf1_s"] = total["metrics.idf1"]
    out["metrics.lsa_s"] = total["metrics.lsa"]
    out["metrics.idf1_pairs"] = counts.get("metrics.idf1_pairs", 0.0)
    # time inside commands that no span of the library layers below cli covers:
    # argparse, config parsing, file reads, atomic writes, and the tracer itself
    out["trace.unattributed_frac"] = sum(cli_self.values()) / command_time if command_time else 0.0
    return out
