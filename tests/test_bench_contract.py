"""The benchmark's tracer against the library it traces.

``bench/tracing.py`` skips a function that a refactor renamed or removed, and
a hook that fails only loses its counts, so a broken contract shows as a
per-layer time of zero, not as an error. This runs the three commands once
under the tracer and requires every library layer's time to be non-zero.
"""

import sys
from pathlib import Path

from motkit import cli

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
