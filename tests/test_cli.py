import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motkit
from motkit.cli import main
from motkit.formats import parse_track_file, write_gt, write_mot, write_predictions
from motkit.geometry import BoxLTRB
from motkit.formats import GtEntry, TrackRecord


CROSSING_CONFIG = """
# standard crossing benchmark
scenario = crossing
frames = 60
width = 200
height = 200
variant = ltrb
seed = 5
disp_noise = 1.5
center_noise = 0.8
size_noise = 0.5
ts_noise = 0.8
iou_bias = -0.25
fp_rate = 0.02
fn_rate = 0.06
"""


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_fixture_files(tmp_path):
    gt = [GtEntry(f, 1, BoxLTRB(10, 10, 30, 50), 1, 1.0) for f in range(1, 11)]
    hyp = [TrackRecord(f, 1 if f <= 5 else 2, BoxLTRB(10, 10, 30, 50), 1.0) for f in range(1, 11)]
    gt_path = tmp_path / "gt.txt"
    hyp_path = tmp_path / "hyp.txt"
    gt_path.write_text(write_gt(gt))
    hyp_path.write_text(write_mot(hyp))
    return gt_path, hyp_path


class TestSimulate:
    def test_writes_files(self, tmp_path, capsys):
        config = tmp_path / "scene.cfg"
        config.write_text(CROSSING_CONFIG)
        out = tmp_path / "out"
        rc = main(["simulate", str(config), "--out-dir", str(out)])
        assert rc == 0
        assert (out / "gt.txt").exists() and (out / "preds.csv").exists()
        assert (out / "preds.csv").read_text().startswith("variant: ltrb")

    def test_same_seed_is_hash_identical(self, tmp_path):
        config = tmp_path / "scene.cfg"
        config.write_text(CROSSING_CONFIG)
        hashes = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["simulate", str(config), "--seed", "9", "--out-dir", str(out)]) == 0
            hashes.append((file_hash(out / "gt.txt"), file_hash(out / "preds.csv")))
        assert hashes[0] == hashes[1]

    def test_different_seed_differs(self, tmp_path):
        config = tmp_path / "scene.cfg"
        config.write_text(CROSSING_CONFIG)
        outs = []
        for seed in ("3", "4"):
            out = tmp_path / seed
            assert main(["simulate", str(config), "--seed", seed, "--out-dir", str(out)]) == 0
            outs.append(file_hash(out / "preds.csv"))
        assert outs[0] != outs[1]

    def test_workers_do_not_change_output(self, tmp_path):
        config = tmp_path / "scene.cfg"
        config.write_text(CROSSING_CONFIG)
        hashes = []
        for run in ("a", "b"):
            out = tmp_path / run
            rc = main(["simulate", str(config), "--seed", "2", "--out-dir", str(out)])
            assert rc == 0
            hashes.append((file_hash(out / "gt.txt"), file_hash(out / "preds.csv")))
        assert hashes[0] == hashes[1]

    def test_custom_agents(self, tmp_path):
        config = tmp_path / "scene.cfg"
        config.write_text(
            "scenario = custom\nframes = 5\nwidth = 100\nheight = 100\n"
            "agent = 0 10 12 1:30:50 5:38:50\n"
            "agent = 1 10 12 1:70:50\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out-dir", str(out)]) == 0
        text = (out / "gt.txt").read_text()
        assert len(text.splitlines()) == 10

    def test_wh_scene_without_visible_agents_gets_false_alarms(self, tmp_path):
        config = tmp_path / "scene.cfg"
        config.write_text(
            "scenario = custom\nframes = 4\nwidth = 100\nheight = 100\nvariant = wh\nfp_rate = 1.0\n"
            "agent = 0 10 12 1:-50:-50\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out-dir", str(out)]) == 0
        preds = (out / "preds.csv").read_text()
        assert preds.startswith("variant: wh")
        assert main(["track", str(out / "preds.csv"), "--out", str(tmp_path / "t.txt")]) == 0

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "scene.cfg"
        config.write_text("scenario = crossing\nbogus = 1\n")
        assert main(["simulate", str(config), "--out-dir", str(tmp_path / "o")]) == 2

    def test_bad_scenario_exits_2(self, tmp_path):
        config = tmp_path / "scene.cfg"
        config.write_text("scenario = flying\n")
        assert main(["simulate", str(config), "--out-dir", str(tmp_path / "o")]) == 2


class TestTrack:
    def _simulate(self, tmp_path):
        config = tmp_path / "scene.cfg"
        config.write_text(CROSSING_CONFIG)
        out = tmp_path / "sim"
        assert main(["simulate", str(config), "--out-dir", str(out)]) == 0
        return out

    def test_track_writes_mot_and_summary(self, tmp_path, capsys):
        sim = self._simulate(tmp_path)
        out_file = tmp_path / "tracks.txt"
        rc = main(["track", str(sim / "preds.csv"), "--strategy", "iou", "--variant", "ltrb",
                   "--lifetime", "30", "--out", str(out_file)])
        assert rc == 0
        summary = capsys.readouterr().out
        assert "frames=60" in summary and "tracks=" in summary
        records = parse_track_file(out_file.read_text())
        assert records, "tracker should emit records"

    def test_track_stdout_when_no_out(self, tmp_path, capsys):
        sim = self._simulate(tmp_path)
        capsys.readouterr()  # discard the simulate summary
        rc = main(["track", str(sim / "preds.csv"), "--strategy", "dis"])
        assert rc == 0
        captured = capsys.readouterr()
        assert parse_track_file(captured.out)
        assert "frames=60" in captured.err

    def test_variant_mismatch_exits_2(self, tmp_path, capsys):
        sim = self._simulate(tmp_path)
        rc = main(["track", str(sim / "preds.csv"), "--variant", "wh"])
        assert rc == 2
        assert "variant" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["track", str(tmp_path / "nope.csv")]) == 2

    def test_malformed_predictions_exit_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("variant: wh\n1,10,10,4,4,0.9,1,2,0,0,0,0.7\n2,oops\n")
        assert main(["track", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_overflowing_box_edge_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("variant: ltrb\n1,1.7e308,10,1.7e308,20,0.9,1,0,0,0,0,10,10,0.5\n")
        assert main(["track", str(bad), "--out", str(tmp_path / "tracks.txt")]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "edge overflows" in err
        assert not (tmp_path / "tracks.txt").exists()

    def test_overflowing_box_area_exits_2_with_line(self, tmp_path, capsys):
        # a static wh detection: its edges are finite, its area is not
        bad = tmp_path / "bad.csv"
        row = "1e200,1e200,2e200,2e200,0.9,1,0,0,0,0,0.5"
        bad.write_text(f"variant: wh\n1,{row}\n2,{row}\n")
        assert main(["track", str(bad), "--out", str(tmp_path / "tracks.txt")]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "area overflows" in err
        assert not (tmp_path / "tracks.txt").exists()

    def test_every_strategy_flag_accepted(self, tmp_path):
        sim = self._simulate(tmp_path)
        for strategy in ("dis", "iou", "combined", "iou-dis", "dis-iou"):
            out_file = tmp_path / f"{strategy}.txt"
            assert main(["track", str(sim / "preds.csv"), "--strategy", strategy,
                         "--out", str(out_file)]) == 0


class TestEval:
    def test_gt_against_itself(self, tmp_path, capsys):
        gt_path, _ = write_fixture_files(tmp_path)
        hyp_path = tmp_path / "self.txt"
        hyp_path.write_text(
            write_mot([TrackRecord(f, 1, BoxLTRB(10, 10, 30, 50), 1.0) for f in range(1, 11)])
        )
        rc = main(["eval", str(gt_path), str(hyp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MOTA" in out and "1.000" in out

    def test_id_split_fixture_table(self, tmp_path, capsys):
        gt_path, hyp_path = write_fixture_files(tmp_path)
        rc = main(["eval", str(gt_path), str(hyp_path)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        header, values = out[0].split(), out[1].split()
        assert header == ["MOTA", "IDF1", "IDs", "FP", "FN"]
        assert values == ["0.900", "0.500", "1", "0", "0"]

    def test_json_round_trips(self, tmp_path, capsys):
        gt_path, hyp_path = write_fixture_files(tmp_path)
        rc = main(["eval", str(gt_path), str(hyp_path), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mota"] == pytest.approx(0.9)
        assert payload["idf1"] == pytest.approx(0.5)
        assert payload["ids"] == 1

    def test_no_ground_truth_exits_3(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text("1,1,10,10,20,40,0,1,1\n")  # consider flag 0
        hyp_path = tmp_path / "hyp.txt"
        hyp_path.write_text(write_mot([TrackRecord(1, 1, BoxLTRB(10, 10, 30, 50), 1.0)]))
        assert main(["eval", str(gt_path), str(hyp_path)]) == 3

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["eval", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 2

    @pytest.mark.parametrize("bad_files", [("gt",), ("hyp",), ("gt", "hyp")])
    def test_overflowing_box_edge_exits_2_with_line(self, tmp_path, capsys, bad_files):
        rows = {
            "gt": ("1,1,10,10,20,40,1,1,1\n", "1,1,1e308,10,1.7e308,20,1,1,1\n"),
            "hyp": ("1,1,10,10,20,40,1,-1,-1,-1\n", "1,1,1e308,10,1.7e308,20,1,-1,-1,-1\n"),
        }
        paths = {}
        for name, (good, bad) in rows.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(good + (bad if name in bad_files else ""))
        assert main(["eval", str(paths["gt"]), str(paths["hyp"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err and "edge overflows" in captured.err

    @pytest.mark.parametrize("bad_files", [("gt",), ("hyp",)])
    def test_overflowing_box_area_exits_2_with_line(self, tmp_path, capsys, bad_files):
        rows = {
            "gt": ("1,1,10,10,20,40,1,1,1\n", "2,1,0,0,1e200,1e200,1,1,1\n"),
            "hyp": ("1,1,10,10,20,40,1,-1,-1,-1\n", "2,1,0,0,1e200,1e200,1,-1,-1,-1\n"),
        }
        paths = {}
        for name, (good, huge) in rows.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(good + (huge if name in bad_files else ""))
        assert main(["eval", str(paths["gt"]), str(paths["hyp"]), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err and "area overflows" in captured.err

    @pytest.mark.parametrize("name, kind", [("gt", "ground-truth"), ("hyp", "hypothesis")])
    def test_repeated_row_exits_2_with_line(self, tmp_path, capsys, name, kind):
        rows = {
            "gt": ["1,1,10,10,20,40,1,1,1", "1,2,50,10,20,40,1,1,1", "2,1,10,10,20,40,1,1,1"],
            "hyp": ["1,1,10,10,20,40,1,-1,-1,-1", "1,2,50,10,20,40,1,-1,-1,-1", "2,1,10,10,20,40,1,-1,-1,-1"],
        }
        rows[name] = rows[name][:2] + [""] + rows[name][1:]  # line 4 repeats frame 1, id 2
        paths = {}
        for key, lines in rows.items():
            paths[key] = tmp_path / f"{key}.txt"
            paths[key].write_text("\n".join(lines) + "\n")
        assert main(["eval", str(paths["gt"]), str(paths["hyp"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line 4: duplicate {kind} entry for frame 1, id 2" in captured.err

    @pytest.mark.parametrize("flags, code", [((1, 0), 0), ((0, 0), 3)])
    def test_repeated_ignored_ground_truth_row_is_no_repeat(self, tmp_path, capsys, flags, code):
        # rows with the consider flag 0 are not scored, so they repeat nothing
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text("".join(f"1,1,10,10,20,40,{flag},1,1\n" for flag in flags))
        hyp_path = tmp_path / "hyp.txt"
        hyp_path.write_text("1,1,10,10,20,40,1,-1,-1,-1\n")
        assert main(["eval", str(gt_path), str(hyp_path)]) == code
        assert "duplicate" not in capsys.readouterr().err

    @pytest.mark.parametrize("thresh", ["nan", "-1", "0", "2", "inf"])
    def test_threshold_outside_unit_interval_exits_2(self, tmp_path, capsys, thresh):
        gt_path, hyp_path = write_fixture_files(tmp_path)
        assert main(["eval", str(gt_path), str(hyp_path), f"--iou-thresh={thresh}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold" in captured.err

    def test_threshold_checked_before_ground_truth(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text("1,1,10,10,20,40,0,1,1\n")  # consider flag 0: exit 3 if scored
        hyp_path = tmp_path / "hyp.txt"
        hyp_path.write_text(write_mot([TrackRecord(1, 1, BoxLTRB(10, 10, 30, 50), 1.0)]))
        assert main(["eval", str(gt_path), str(hyp_path), "--iou-thresh", "0"]) == 2


class TestCheckLosses:
    def test_passes_and_reports(self, capsys):
        rc = main(["check-losses"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "focal_grad_max_rel_err" in out
        assert "FAIL" not in out


class TestPipeline:
    def test_end_to_end_determinism(self, tmp_path):
        config = tmp_path / "scene.cfg"
        config.write_text(CROSSING_CONFIG)
        digests = []
        for run in ("r1", "r2"):
            base = tmp_path / run
            sim = base / "sim"
            assert main(["simulate", str(config), "--seed", "21", "--out-dir", str(sim)]) == 0
            tracks = base / "tracks.txt"
            assert main(["track", str(sim / "preds.csv"), "--strategy", "iou",
                         "--out", str(tracks)]) == 0
            digests.append(
                (file_hash(sim / "gt.txt"), file_hash(sim / "preds.csv"), file_hash(tracks))
            )
        assert digests[0] == digests[1]

    def test_console_entry_point(self):
        src = Path(motkit.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "motkit", "--help"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert result.returncode == 0
        assert "track" in result.stdout and "simulate" in result.stdout
        # the installed `motkit` script runs the same entry point
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert 'motkit = "motkit.cli:entry"' in scripts.splitlines()
