import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import motkit
from motkit import cli, metrics
from motkit.cli import build_parser, main
from motkit.formats import Detection, parse_track_file, write_gt, write_mot, write_predictions
from motkit.geometry import BoxLTRB
from motkit.formats import GtEntry, TrackRecord
from motkit.tracker import Tracklet, TrackerConfig
from oracles import clear_mot_objects, idf1_objects, parse_mot_rows, parse_track_file_rows


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

    def test_out_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        config, taken = tmp_path / "scene.cfg", tmp_path / "taken"
        config.write_text(CROSSING_CONFIG)
        taken.write_text("kept\n")
        assert main(["simulate", str(config), "--out-dir", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot write {taken / 'gt.txt'}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.cfg", "taken"]
        assert taken.read_text() == "kept\n"

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "scene.cfg"
        config.write_text("scenario = crossing\nbogus = 1\n")
        assert main(["simulate", str(config), "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "settings, named",
        [
            ("size_noise = inf", "size_noise_sigma"),  # was an OverflowError traceback
            ("ts_noise = inf", "ts_noise_sigma"),
            ("center_noise = nan", "center_noise_sigma"),  # acted as 0
            ("disp_noise = nan", "disp_noise_sigma"),
            ("iou_bias = inf", "iou_pred_bias"),  # clamped
            ("iou_bias = -inf", "iou_pred_bias"),
            ("agent = 0 nan 12 1:30:50", "width"),  # the agent vanished
            ("agent = 0 10 inf 1:30:50", "height"),
            ("agent = 0 10 12 1:nan:50", "waypoint"),
            ("agent = 0 10 12 1:30:50 5:30:-inf", "waypoint"),
            ("width = -5", "width"),  # wrote an empty scene
            ("height = 0", "height"),
            pytest.param("width = 1" + "0" * 400, "width", id="width-401-digits"),  # was a traceback
        ],
    )
    def test_non_finite_or_empty_scene_settings_exit_2(self, tmp_path, capsys, settings, named):
        config = tmp_path / "scene.cfg"
        agent = "" if settings.startswith("agent") else "agent = 0 10 12 1:30:50 5:38:50\n"
        config.write_text(f"scenario = custom\nframes = 5\nwidth = 100\nheight = 100\n{agent}{settings}\n")
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {config}: " in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["center_noise", "size_noise", "disp_noise", "ts_noise"])
    @pytest.mark.parametrize("variant", ["ltrb", "wh"])
    def test_noise_past_the_float_range_exits_2_without_files(self, tmp_path, capsys, setting, variant):
        # was an OverflowError traceback from the writer, after gt.txt had been written
        config = tmp_path / "scene.cfg"
        config.write_text(f"scenario = crossing\nframes = 20\nvariant = {variant}\n{setting} = 1.7e308\n")
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out-dir", str(out)]) == 2
        assert f"error: {setting}_sigma = 1.7e+308 jitters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["ltrb", "wh"])
    def test_simulate_builds_no_detection_objects(self, tmp_path, variant):
        config = tmp_path / "scene.cfg"
        noise = "center_noise = 0.8\nsize_noise = 0.4\ndisp_noise = 2.2\nts_noise = 0.7\niou_bias = -0.3\n"
        config.write_text(f"scenario = crossing\nvariant = {variant}\n{noise}fp_rate = 0.5\nfn_rate = 0.2\n")
        with mock.patch.object(Detection, "__post_init__", side_effect=AssertionError("Detection built")):
            assert main(["simulate", str(config), "--out-dir", str(tmp_path / "out")]) == 0
        preds = (tmp_path / "out" / "preds.csv").read_text()
        assert preds.startswith(f"variant: {variant}\n") and preds.count("\n") > 60

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

    def test_out_that_is_a_directory_exits_2(self, tmp_path, capsys):
        sim = self._simulate(tmp_path)
        capsys.readouterr()  # discard the simulate summary
        taken = tmp_path / "taken"
        taken.mkdir()
        assert main(["track", str(sim / "preds.csv"), "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot write {taken}: ")
        # the temp file is made next to the output path, and removed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.cfg", "sim", "taken"]
        assert list(taken.iterdir()) == []

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

    def test_box_area_above_half_the_float_limit_exits_2_with_line(self, tmp_path, capsys):
        # a finite area, but the union of two such boxes overflows
        bad = tmp_path / "bad.csv"
        bad.write_text("variant: wh\n1,10,10,4,4,0.9,1,2,0,0,0,0.7\n1,0,0,1.3e154,1.3e154,0.9,1,0,0,0,0,0.5\n")
        assert main(["track", str(bad), "--out", str(tmp_path / "tracks.txt")]) == 2
        assert "line 3: box area overflows: (-6.5e+153, -6.5e+153, 6.5e+153, 6.5e+153)" in capsys.readouterr().err
        assert not (tmp_path / "tracks.txt").exists()

    @pytest.mark.parametrize("strategy", ["iou", "dis"])
    def test_detections_at_the_float_limit_track_without_warnings(self, tmp_path, capsys, strategy):
        # 4 + 4 ltrb rows at x = -1e308 and 1e308: the second frame's 16-cell matrices take
        # the kernels, whose differences overflow
        rows = ["variant: ltrb"]
        for frame, x in ((1, -1e308), (2, 1e308)):
            rows += [f"{frame},{x},{10 * k},4,4,0.9,1,0,0,{x},{10 * k - 2},{x},{10 * k + 2},0.5" for k in range(4)]
        preds = tmp_path / "preds.csv"
        preds.write_text("\n".join(rows) + "\n")
        out = tmp_path / "tracks.txt"
        assert main(["track", str(preds), "--strategy", strategy, "--out", str(out)]) == 0
        assert capsys.readouterr().out == "frames=2 detections=8 tracks=8\n"
        assert len(parse_track_file(out.read_text())) == 8

    def test_frame_numbers_far_apart(self, tmp_path, capsys):
        # the gap between the frames is never stepped through
        preds = tmp_path / "preds.csv"
        preds.write_text(f"variant: wh\n1,10,10,4,4,0.9,1,0,0,0,0,0.7\n{2**63},10,10,4,4,0.9,1,0,0,0,0,0.7\n")
        out = tmp_path / "tracks.txt"
        assert main(["track", str(preds), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"frames={2**63} detections=2 tracks=2\n"
        assert [(r.frame, r.track_id) for r in parse_track_file(out.read_text())] == [(1, 1), (2**63, 2)]

    @pytest.mark.parametrize("strategy", ["iou", "dis"])
    def test_gaps_around_the_lifetime(self, tmp_path, capsys, strategy):
        # lifetime 3: 1 and 2 empty frames keep id 1, 3 and 4 retire it, then a gap of 2**63;
        # the second object's confidence-0.3 row at frame 4 is dropped, so it too is gone by frame 7
        a, b = "10,10,4,4,0.9,1,0,0,0,0,0.7", "40,40,6,6,{},1,0,0,0,0,0.6"
        late = 16 + 2**63
        rows = [f"1,{a}", f"2,{a}", f"2,{b.format(0.9)}", f"4,{a}", f"4,{b.format(0.3)}", f"7,{a}",
                f"7,{b.format(0.8)}", f"11,{a}", f"16,{a}", f"{late},{a}", f"{late},{b.format(0.95)}"]
        preds = tmp_path / "preds.csv"
        preds.write_text("variant: wh\n" + "\n".join(rows) + "\n")
        out = tmp_path / "tracks.txt"
        assert main(["track", str(preds), "--strategy", strategy, "--lifetime", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"frames={late} detections=11 tracks=7\n"
        assert out.read_text() == (
            "1,1,8,8,4,4,0.9,-1,-1,-1\n2,1,8,8,4,4,0.9,-1,-1,-1\n2,2,37,37,6,6,0.9,-1,-1,-1\n"
            "4,1,8,8,4,4,0.9,-1,-1,-1\n7,1,8,8,4,4,0.9,-1,-1,-1\n7,3,37,37,6,6,0.8,-1,-1,-1\n"
            f"11,4,8,8,4,4,0.9,-1,-1,-1\n16,5,8,8,4,4,0.9,-1,-1,-1\n{late},6,8,8,4,4,0.9,-1,-1,-1\n"
            f"{late},7,37,37,6,6,0.95,-1,-1,-1\n"
        )

    @pytest.mark.parametrize("strategy", ["iou", "dis"])
    def test_class_ids_past_int64_stay_apart(self, tmp_path, capsys, strategy):
        # frame 2's class 2**63 matches none of frame 1's classes; 4 x 4 cells take the kernels
        rows = ["variant: ltrb"]
        for frame, classes in ((1, [1, 2**63 + 1, 1, 2**63 + 1]), (2, [2**63] * 4)):
            rows += [f"{frame},{20 * k},10,4,4,0.9,{c},0,0,{20 * k - 2},8,{20 * k + 2},12,0.5"
                     for k, c in enumerate(classes)]
        preds = tmp_path / "preds.csv"
        preds.write_text("\n".join(rows) + "\n")
        out = tmp_path / "tracks.txt"
        assert main(["track", str(preds), "--strategy", strategy, "--out", str(out)]) == 0
        records = parse_track_file(out.read_text())
        assert sorted(r.track_id for r in records if r.frame == 2) == [5, 6, 7, 8]

    def test_every_strategy_flag_accepted(self, tmp_path):
        sim = self._simulate(tmp_path)
        for strategy in ("dis", "iou", "combined", "iou-dis", "dis-iou"):
            out_file = tmp_path / f"{strategy}.txt"
            assert main(["track", str(sim / "preds.csv"), "--strategy", strategy,
                         "--out", str(out_file)]) == 0

    def test_defaults_are_the_tracker_config_defaults(self):
        args = build_parser().parse_args(["track", "preds.csv"])
        cfg = TrackerConfig()
        assert (args.strategy, args.lifetime, args.theta, args.iou_filter_form) == (
            cfg.strategy.value, cfg.lifetime, cfg.out_threshold, cfg.iou_filter_form
        )
        assert args.variant is None  # taken from the file header


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

    @pytest.mark.parametrize("bad_file", ["gt", "hyp"])
    def test_box_area_above_half_the_float_limit_exits_2_with_line(self, tmp_path, capsys, bad_file):
        # two identical boxes whose areas are finite but sum to an infinite union, which
        # scored IOU 0: one FP and one FN
        rows = {"gt": "1,1,0,0,{0},{0},1,1,1\n", "hyp": "1,1,0,0,{0},{0},1,-1,-1,-1\n"}
        paths = {}
        for name, row in rows.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(row.format("1.3e154" if name == bad_file else "10"))
        assert main(["eval", str(paths["gt"]), str(paths["hyp"]), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 1: box area overflows: (0.0, 0.0, 1.3e+154, 1.3e+154)" in captured.err

    def test_identical_boxes_just_under_the_area_bound_match(self, tmp_path, capsys):
        rows = {"gt": "1,1,0,0,9e153,9e153,1,1,1\n", "hyp": "1,1,0,0,9e153,9e153,1,-1,-1,-1\n"}
        for name, row in rows.items():
            (tmp_path / f"{name}.txt").write_text(row)
        assert main(["eval", str(tmp_path / "gt.txt"), str(tmp_path / "hyp.txt"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["mota"], payload["idf1"], payload["fp"], payload["fn"]) == (1.0, 1.0, 0, 0)

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

    def test_each_table_is_scored_once(self, tmp_path, capsys, monkeypatch):
        # both scorers read the tables cmd_eval scored, so an eval builds two scored tables, not four,
        # and finds their hits in one broad-phase call
        built, broad_phase = [], []
        pairs = metrics.x_overlap_pairs
        monkeypatch.setattr(metrics, "x_overlap_pairs", lambda *keys: broad_phase.append(keys) or pairs(*keys))

        def counting(rows, kind):
            if not isinstance(rows, metrics._Scored):
                built.append(kind)
            return scored(rows, kind)

        scored = metrics._scored
        monkeypatch.setattr(metrics, "_scored", counting)
        monkeypatch.setattr(cli, "_scored", counting)
        gt_path, hyp_path = write_fixture_files(tmp_path)
        assert main(["eval", str(gt_path), str(hyp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["idf1"] == 0.5
        assert built == ["ground-truth", "hypothesis"] and len(broad_phase) == 1

    @pytest.mark.parametrize(
        "gt_flags, hyp_repeats, code, message",
        [
            ((1, 1), True, 2, "line 2: duplicate ground-truth entry for frame 1, id 1"),
            ((0, 0), True, 2, "line 2: duplicate hypothesis entry for frame 1, id 1"),
            ((0, 0), False, 3, "error: no considered ground truth; MOTA is undefined"),
        ],
    )
    def test_refusal_order(self, tmp_path, capsys, gt_flags, hyp_repeats, code, message):
        # ground-truth repeats, then hypothesis repeats, then no ground truth
        gt_path, hyp_path = tmp_path / "gt.txt", tmp_path / "hyp.txt"
        gt_path.write_text("".join(f"1,1,10,10,20,40,{flag},1,1\n" for flag in gt_flags))
        hyp_path.write_text("1,1,10,10,20,40,1,-1,-1,-1\n" * (2 if hyp_repeats else 1))
        assert main(["eval", str(gt_path), str(hyp_path)]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

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

    def test_readme_quick_start(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
        (config,) = re.findall(r"```ini\n(.*?)```", section, re.S)
        commands = [
            shlex.split(line)
            for block in re.findall(r"```sh\n(.*?)```", section, re.S)
            for line in block.splitlines()
            if line.startswith("motkit ")
        ]
        assert [c[1] for c in commands] == ["simulate", "track", "eval"]
        monkeypatch.chdir(tmp_path)
        Path("scene.cfg").write_text(config)
        for command in commands + [commands[-1] + ["--json"]]:
            assert main(command[1:]) == 0, command
        scores = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert scores["num_gt"] == len(Path("out/gt.txt").read_text().splitlines()) > 0

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


class TestEvalOnColumns:
    def eval_json(self, tmp_path, capsys, gt_text, hyp_text):
        (tmp_path / "gt.txt").write_text(gt_text)
        (tmp_path / "hyp.txt").write_text(hyp_text)
        code = main(["eval", str(tmp_path / "gt.txt"), str(tmp_path / "hyp.txt"), "--json"])
        captured = capsys.readouterr()
        return code, captured

    def test_builds_no_row_objects(self, tmp_path, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("eval built a box object")

        monkeypatch.setattr(BoxLTRB, "__post_init__", refuse)
        gt_text = "".join(f"{f},{i},{10 * i},10,20,40,1,1,1\n" for f in range(1, 30) for i in range(1, 6))
        hyp_text = "".join(f"{f},{i},{10 * i + 1},10,20,40,1,-1,-1,-1\n" for f in range(1, 30) for i in range(1, 6))
        code, captured = self.eval_json(tmp_path, capsys, gt_text, hyp_text)
        assert code == 0, captured.err
        assert json.loads(captured.out)["num_gt"] == 145

    def test_frames_and_ids_past_int64(self, tmp_path, capsys):
        big = 2**63
        gt_text = f"{big},{big + 1},0,0,10,10,1,1,1\n{big + 1},{big + 1},0,0,10,10,1,1,1\n1,{2**64},50,50,10,10,1,1,1\n"
        hyp_text = (f"{big + 1},7,0,0,10,10,1,-1,-1,-1\n{big},{2**70},0,0,10,10,1,-1,-1,-1\n"
                    f"1,{2**70},50,50,10,10,1,-1,-1,-1\n")
        code, captured = self.eval_json(tmp_path, capsys, gt_text, hyp_text)
        assert code == 0, captured.err
        gt, hyp = parse_mot_rows(gt_text), parse_track_file_rows(hyp_text)
        clear, ident = clear_mot_objects(gt, hyp), idf1_objects(gt, hyp)
        payload = json.loads(captured.out)
        got = (payload["mota"], payload["ids"], payload["fp"], payload["fn"])
        assert got == (clear.mota, clear.ids, clear.fp, clear.fn)
        assert (payload["idf1"], payload["idtp"]) == (ident.idf1, ident.idtp) and clear.ids == 1

        code, captured = self.eval_json(tmp_path, capsys, gt_text, hyp_text + f"\n{big},{2**70},5,5,10,10,1,-1,-1,-1\n")
        assert code == 2 and captured.out == ""
        assert f"line 5: duplicate hypothesis entry for frame {big}, id {2**70}" in captured.err

    def test_repeat_after_an_ignored_row(self, tmp_path, capsys):
        # the first (1, 2) row is ignored, so the third line is no repeat; line 6 is
        gt_text = "1,2,10,10,20,40,0,1,1\n1,1,50,10,20,40,1,1,1\n1,2,10,10,20,40,1,1,1\n\n2,1,50,10,20,40,1,1,1\n" \
                  "1,2,90,10,20,40,1,1,1\n"
        code, captured = self.eval_json(tmp_path, capsys, gt_text, "1,1,50,10,20,40,1,-1,-1,-1\n")
        assert code == 2 and captured.out == ""
        assert "line 6: duplicate ground-truth entry for frame 1, id 2" in captured.err

    def test_out_of_order_frames_and_hypothesis_frames_without_ground_truth(self, tmp_path, capsys):
        gt_text = "3,1,10,10,20,40,1,1,1\n1,1,10,10,20,40,1,1,1\n2,2,50,10,20,40,1,1,1\n2,1,12,10,20,40,1,1,1\n"
        hyp_text = ("9,4,10,10,20,40,1,-1,-1,-1\n2,4,12,10,20,40,1,-1,-1,-1\n1,3,10,10,20,40,1,-1,-1,-1\n"
                    "3,3,10,10,20,40,1,-1,-1,-1\n2,5,50,10,20,40,1,-1,-1,-1\n")
        code, captured = self.eval_json(tmp_path, capsys, gt_text, hyp_text)
        assert code == 0, captured.err
        gt, hyp = parse_mot_rows(gt_text), parse_track_file_rows(hyp_text)
        clear, ident = clear_mot_objects(gt, hyp), idf1_objects(gt, hyp)
        payload = json.loads(captured.out)
        got = (payload["ids"], payload["fp"], payload["fn"], payload["idtp"])
        assert got == (clear.ids, clear.fp, clear.fn, ident.idtp)
        assert (clear.ids, clear.fp) == (2, 1)


class TestTrackOnColumns:
    @pytest.fixture
    def crowded(self, tmp_path):
        """Predictions of 30 walkers crossing a 200x200 scene, with misses and false alarms."""
        agents = "".join(
            f"agent = {k} 14 20 1:{10 + 6 * k}:{20 + 5 * (k % 7)} 30:{190 - 6 * k}:{180 - 5 * (k % 5)}\n"
            for k in range(30)
        )
        noise = "center_noise = 0.8\nsize_noise = 0.4\ndisp_noise = 2.2\nts_noise = 0.7\niou_bias = -0.3\n"
        config = tmp_path / "scene.cfg"
        noise += "fp_rate = 0.3\nfn_rate = 0.1\n"
        config.write_text(f"scenario = custom\nframes = 30\nvariant = wh\n{noise}{agents}")
        assert main(["simulate", str(config), "--out-dir", str(tmp_path / "sim")]) == 0
        return tmp_path / "sim" / "preds.csv"

    def test_builds_no_row_objects(self, tmp_path, capsys, crowded, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("track built a row object")

        monkeypatch.setattr(BoxLTRB, "__post_init__", refuse)
        monkeypatch.setattr(Tracklet, "__init__", refuse)
        monkeypatch.setattr(TrackRecord, "__init__", refuse)
        capsys.readouterr()
        for strategy in ("dis", "iou", "combined", "iou-dis", "dis-iou"):
            out = tmp_path / f"{strategy}.txt"
            assert main(["track", str(crowded), "--strategy", strategy, "--out", str(out)]) == 0
            ids = {line.split(",")[1] for line in out.read_text().splitlines()}
            assert capsys.readouterr().out.endswith(f" tracks={len(ids)}\n") and len(ids) > 30

    def test_pipeline_builds_no_row_objects(self, tmp_path, capsys, crowded, monkeypatch):
        """simulate -> track (every strategy) -> eval on columns: every row constructor raises."""
        def refuse(*args, **kwargs):
            raise AssertionError("the pipeline built a row object")

        monkeypatch.setattr(BoxLTRB, "__post_init__", refuse)
        for row in (GtEntry, Detection, TrackRecord, Tracklet):
            monkeypatch.setattr(row, "__init__", refuse)
        sim = tmp_path / "sim-on-columns"
        assert main(["simulate", str(tmp_path / "scene.cfg"), "--out-dir", str(sim)]) == 0
        for name in ("gt.txt", "preds.csv"):  # the same files as the fixture's unpatched run
            assert (sim / name).read_bytes() == (crowded.parent / name).read_bytes()
        for strategy in ("dis", "iou", "combined", "iou-dis", "dis-iou"):
            tracks = tmp_path / f"{strategy}.txt"
            assert main(["track", str(sim / "preds.csv"), "--strategy", strategy, "--out", str(tracks)]) == 0
            capsys.readouterr()
            assert main(["eval", str(sim / "gt.txt"), str(tracks), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["num_gt"] > 300 and payload["idtp"] > 0

    def test_lifetime_past_int64_tracks_as_a_long_one(self, tmp_path, crowded):
        texts = []
        for lifetime in (10**6, 2**70):
            out = tmp_path / f"tracks-{lifetime}.txt"
            assert main(["track", str(crowded), "--strategy", "iou-dis", "--lifetime", str(lifetime),
                         "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1] and texts[0]
