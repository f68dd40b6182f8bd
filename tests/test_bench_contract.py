"""The benchmark's tracer against the library it traces.

``bench/tracing.py`` skips a function that a refactor renamed or removed, and
a hook that fails only loses its counts, so a broken contract shows as a
per-layer time of zero, not as an error. This runs the three commands once
under the tracer and requires every library layer's time to be non-zero, and
runs every strategy on a crowd-size frame, which the small scene's matrices
never reach, requiring its matrix times and cell counts.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from motkit import association, cli
from motkit.association import ROUNDS, Strategy, confidence_order, displacement_cost, greedy_match, iou_cost
from test_association import crowd_case

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS = ("formats.", "simulator.", "association.", "tracker.", "metrics.")

SCENE = """\
scenario = custom
frames = 30
width = 200
height = 200
variant = ltrb
seed = 5
center_noise = 0.8
size_noise = 0.4
disp_noise = 2.2
ts_noise = 0.7
fp_rate = 0.05
fn_rate = 0.05
agent = 1 30 60 1:30:60 30:170:140
agent = 2 30 60 1:170:60 30:30:140
agent = 3 25 50 1:100:30 30:100:170
"""


def test_every_traced_layer_function_runs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    (tmp_path / "scene.cfg").write_text(SCENE)
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["simulate", str(tmp_path / "scene.cfg"), "--out-dir", str(out)]) == 0
        for strategy in ("combined", "iou-dis"):
            tracks = out / f"tracks-{strategy}.txt"
            assert cli.main(["track", str(out / "preds.csv"), "--strategy", strategy, "--out", str(tracks)]) == 0
            assert cli.main(["eval", str(out / "gt.txt"), str(tracks), "--json"]) == 0
    finally:
        tracer.uninstall()
        sys.modules.pop("tracing", None)
    assert tracer.hook_errors == {}
    times = {
        name: value
        for name, value in tracing.layer_metrics(tracer.spans, tracer.counts).items()
        if name.startswith(LAYERS) and name.endswith("_s")
    }
    assert times and [name for name, value in times.items() if not value > 0] == []


def replay_counts(strategy, dets, tracks):
    """Cells and admissible (finite) cells of each matrix kind the strategy's rounds build, replayed untraced."""
    counts = dict.fromkeys(("iou_cells", "iou_admissible", "dis_cells", "dis_admissible"), 0)
    det_idx, trk_idx = list(range(len(dets))), list(range(len(tracks)))
    for kinds in ROUNDS[strategy]:
        d, t = [dets[i] for i in det_idx], [tracks[j] for j in trk_idx]
        cost = 0.0
        for kind in kinds:
            m = displacement_cost(d, t) if kind == "dis" else iou_cost(d, t, "ltrb")
            counts[f"{kind}_cells"] += m.size
            counts[f"{kind}_admissible"] += int(np.isfinite(m).sum())
            cost = cost + m
        res = greedy_match(cost, confidence_order(d))
        det_idx = [det_idx[i] for i in res.unmatched_detections]
        trk_idx = [trk_idx[j] for j in res.unmatched_tracklets]
    return counts


@pytest.mark.parametrize("strategy", list(Strategy))
def test_broad_phase_frame_is_traced(monkeypatch, strategy):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    dets, tracks = crowd_case(np.random.default_rng(7), "ltrb", nonfinite=False)
    assert len(dets) * len(tracks) >= association.BROAD_PHASE_MIN_CELLS
    want, counts = association.associate(strategy, dets, tracks, "ltrb"), replay_counts(strategy, dets, tracks)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert association.associate(strategy, dets, tracks, "ltrb") == want
    finally:
        tracer.uninstall()
        sys.modules.pop("tracing", None)
    assert tracer.hook_errors == {}
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    kinds = {kind for kinds in ROUNDS[strategy] for kind in kinds}
    assert metrics["association.greedy_match_s"] > 0
    assert (metrics["association.iou_cost_s"] > 0) == (counts["iou_cells"] > 0) == ("iou" in kinds)
    assert (metrics["association.displacement_cost_s"] > 0) == (counts["dis_cells"] > 0) == ("dis" in kinds)
    assert {name: tracer.counts.get(f"association.{name}", 0) for name in counts} == counts
