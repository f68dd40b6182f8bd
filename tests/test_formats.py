import math
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from motkit.formats import (
    Detection,
    DetectionFrame,
    GtEntry,
    ParseError,
    Predictions,
    TrackRecord,
    _RECORD_COLUMNS,
    _fmt,
    _MotTable,
    parse_mot,
    parse_predictions,
    parse_track_file,
    write_gt,
    write_mot,
    write_predictions,
)
from motkit.association import tracked_box
from motkit.cli import main
from motkit.geometry import (
    BoxLTRB,
    Displacement,
    Point2,
    Size2,
    TrackedSizeLTRB,
    TrackedSizeWH,
    ltrb,
)
from motkit.simulator import generate, parse_scene, perturb
from motkit.tracker import TrackerConfig, run_sequence
from oracles import write_gt_rows, write_mot_rows, write_predictions_objects

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
unit = st.floats(0, 1, allow_nan=False, allow_infinity=False)
positive_size = st.floats(0, 1e4, allow_nan=False, allow_infinity=False)
any_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestParseMot:
    def test_basic_row(self):
        entries = parse_mot("1,1,10,20,4,2,1,1,1.0")
        assert entries == [GtEntry(1, 1, BoxLTRB(10, 20, 14, 22), 1, 1.0, True)]

    def test_empty_file(self):
        assert parse_mot("") == []

    def test_negative_width_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_mot("1,1,10,20,-4,2,1,1,1")

    def test_error_on_later_line(self):
        text = "1,1,10,20,4,2,1,1,1\n2,1,10,20,4,2,1,1,1\n2,1,oops,20,4,2,1,1,1"
        with pytest.raises(ParseError, match="line 3"):
            parse_mot(text)

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="9 fields"):
            parse_mot("1,1,10,20,4,2,1")

    def test_conf_zero_marks_ignored(self):
        entries = parse_mot("1,1,10,20,4,2,0,1,0.5")
        assert entries[0].consider is False

    def test_crlf_and_blank_lines(self):
        entries = parse_mot("1,1,10,20,4,2,1,1,1\r\n\r\n2,2,0,0,5,5,1,1,1\r\n")
        assert [e.frame for e in entries] == [1, 2]

    def test_nonpositive_ids_rejected(self):
        with pytest.raises(ParseError):
            parse_mot("0,1,10,20,4,2,1,1,1")
        with pytest.raises(ParseError):
            parse_mot("1,0,10,20,4,2,1,1,1")

    def test_underscore_separators_rejected(self):
        with pytest.raises(ParseError):
            parse_mot("1,1,1_0,20,4,2,1,1,1")

    def test_nonfinite_rejected(self):
        with pytest.raises(ParseError):
            parse_mot("1,1,inf,20,4,2,1,1,1")


class TestIntegerFields:
    """Integer columns accept integral decimals like ``3.0`` and nothing fractional."""

    @pytest.mark.parametrize(
        "parse, text, line",
        [
            (parse_mot, "1,1,10,20,4,2,1,1,1\n2.7,1,10,20,4,2,1,1,1", 2),
            (parse_mot, "1,1.9,10,20,4,2,1,1,1", 1),
            (parse_mot, "1,1,10,20,4,2,1,1.5,1", 1),
            (parse_track_file, "1,1,0,0,10,10,0.9,-1,-1,-1\n2.7,1,0,0,10,10,0.9,-1,-1,-1", 2),
            (parse_track_file, "1,1.9,0,0,10,10,0.9,-1,-1,-1", 1),
            (parse_predictions, "variant: wh\n2.7,10,10,4,4,0.9,1,2,0,0,0,0.7", 2),
            (parse_predictions, "variant: wh\n1,10,10,4,4,0.9,1.9,2,0,0,0,0.7", 2),
        ],
    )
    def test_fractional_value_rejected_with_line(self, parse, text, line):
        with pytest.raises(ParseError, match=f"line {line}: non-integral"):
            parse(text)

    def test_integral_decimal_accepted(self):
        gt = parse_mot("3.0,2.0,10,20,4,2,1,1.0,1")[0]
        assert (gt.frame, gt.track_id, gt.class_id) == (3, 2, 1)
        assert parse_track_file("3.0,2,0,0,10,10,0.9,-1,-1,-1")[0].frame == 3
        assert list(parse_predictions("variant: wh\n3.0,10,10,4,4,0.9,1,2,0,0,0,0.7").by_frame) == [3]


GOOD_WH_ROW = "1,10,10,4,4,0.9,1,2,0,0,0,0.7"


class TestOverflowingEdges:
    """Finite fields whose derived box edge overflows to infinity are rejected with the line."""

    @pytest.mark.parametrize(
        "parse, text, line",
        [
            (parse_mot, "1,1,10,20,4,2,1,1,1\n1,2,1e308,20,1.7e308,2,1,1,1", 2),
            (parse_mot, "1,1,10,1.7e308,4,1.7e308,1,1,1", 1),
            (parse_track_file, "1,1,1e308,10,1.7e308,20,1,-1,-1,-1", 1),
            (parse_predictions, "variant: ltrb\n1,1.7e308,10,1.7e308,20,0.9,1,0,0,0,0,10,10,0.5", 2),
            (parse_predictions, f"variant: wh\n{GOOD_WH_ROW}\n1,-1.7e308,10,1.7e308,20,0.9,1,0,0,0,0,0.5", 3),
            (parse_predictions, "variant: wh\n1,10,1.7e308,4,1.7e308,0.9,1,0,0,0,0,0.5", 2),
            # the wh tracked box: its center (cx - dx) and its width (w - dw) overflow
            (parse_predictions, "variant: wh\n1,1e308,10,4,4,0.9,1,-1e308,0,0,0,0.5", 2),
            (parse_predictions, "variant: wh\n1,10,10,1.7e308,4,0.9,1,0,0,-1.7e308,0,0.5", 2),
        ],
    )
    def test_rejected_with_line(self, parse, text, line):
        with pytest.raises(ParseError, match=f"line {line}: .*edge overflows"):
            parse(text)

    def test_large_finite_edges_accepted(self):
        # edges near the float limit, on boxes whose areas stay under half of it
        assert parse_mot("1,1,1e308,10,7e307,1,1,1,1")[0].box.right == 1.7e308
        assert parse_track_file("1,1,-1.7e308,10,1.7e308,0.5,1,-1,-1,-1")[0].box.right == 0.0
        assert parse_predictions("variant: wh\n1,1.7e308,10,1e307,4,0.9,1,0,0,0,0,0.5").by_frame[1]
        huge_ltrb = "variant: ltrb\n1,10,10,4,4,0.9,1,0,0,-1.7e308,0,0,0.5,0.5"
        assert parse_predictions(huge_ltrb).by_frame[1]

    @settings(max_examples=400, deadline=None)
    @given(
        variant=st.sampled_from(["wh", "ltrb"]),
        cx=any_finite, cy=any_finite, w=st.floats(0, allow_infinity=False), h=st.floats(0, allow_infinity=False),
        dx=any_finite, dy=any_finite, ts=st.lists(any_finite, min_size=4, max_size=4),
    )
    def test_rejects_exactly_the_rows_whose_boxes_overflow(self, variant, cx, cy, w, h, dx, dy, ts):
        size = TrackedSizeWH(*ts[:2]) if variant == "wh" else TrackedSizeLTRB(*ts)
        det = _det(cx=cx, cy=cy, w=w, h=h, dx=dx, dy=dy, ts=size)
        boxes = (det.box(), tracked_box(det, variant))
        edges = [v for box in boxes for v in ltrb(box)]
        text = write_predictions(variant, [(1, [det])])
        if all(map(math.isfinite, edges)) and all(box.area <= sys.float_info.max / 2 for box in boxes):
            assert parse_predictions(text).by_frame[1][0] == det
        else:
            with pytest.raises(ParseError, match="line 2: .*(edge|area) overflows"):
                parse_predictions(text)


class TestOverflowingAreas:
    """Finite edges whose box area overflows to infinity are rejected with the line."""

    @pytest.mark.parametrize(
        "parse, text, line",
        [
            (parse_mot, "1,1,10,20,4,2,1,1,1\n1,2,0,0,1e200,1e200,1,1,1", 2),
            (parse_mot, "1,1,-1e308,0,1.5e308,2,1,1,1", 1),
            (parse_track_file, "1,1,0,0,1e200,1e200,1,-1,-1,-1", 1),
            (parse_predictions, "variant: wh\n1,0,0,1e200,1e200,0.9,1,0,0,0,0,0.5", 2),
            # the wh tracked box: the detection box is small, the recovered previous size is not
            (parse_predictions, f"variant: wh\n{GOOD_WH_ROW}\n1,0,0,4,4,0.9,1,0,0,-1e200,-1e200,0.5", 3),
            # ltrb tracked edges are finite, but the width between them is not
            (parse_predictions, "variant: ltrb\n1,0,0,4,4,0.9,1,0,0,-1e308,0,1e308,1,0.5", 2),
            (parse_predictions, "variant: ltrb\n1,0,0,4,4,0.9,1,0,0,0,0,1e200,1e200,0.5", 2),
        ],
    )
    def test_rejected_with_line(self, parse, text, line):
        with pytest.raises(ParseError, match=f"line {line}: .*area overflows"):
            parse(text)


class TestWriteMot:
    def test_single_record(self):
        text = write_mot([TrackRecord(1, 2, BoxLTRB(0, 0, 10, 10), 0.9)])
        assert text == "1,2,0,0,10,10,0.9,-1,-1,-1\n"

    def test_empty_input(self):
        assert write_mot([]) == ""

    def test_sorted_by_frame_then_id(self):
        records = [
            TrackRecord(2, 1, BoxLTRB(0, 0, 1, 1), 1.0),
            TrackRecord(1, 2, BoxLTRB(0, 0, 1, 1), 1.0),
            TrackRecord(1, 1, BoxLTRB(0, 0, 1, 1), 1.0),
        ]
        lines = write_mot(records).splitlines()
        assert [line.split(",")[:2] for line in lines] == [["1", "1"], ["1", "2"], ["2", "1"]]

    def test_round_trip_1000_random_records(self):
        import numpy as np

        rng = np.random.default_rng(0)
        records = []
        used = set()
        while len(records) < 1000:
            frame = int(rng.integers(1, 50))
            tid = int(rng.integers(1, 40))
            if (frame, tid) in used:
                continue
            used.add((frame, tid))
            left = float(rng.uniform(-100, 900))
            top = float(rng.uniform(-100, 900))
            records.append(
                TrackRecord(
                    frame,
                    tid,
                    BoxLTRB(left, top, left + float(rng.uniform(0, 200)), top + float(rng.uniform(0, 200))),
                    float(rng.uniform(0, 1)),
                )
            )
        back = parse_track_file(write_mot(records))
        assert sorted(back, key=lambda r: (r.frame, r.track_id)) == sorted(
            records, key=lambda r: (r.frame, r.track_id)
        )


class TestGtRoundTrip:
    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 30),
                st.integers(1, 20),
                finite,
                finite,
                positive_size,
                positive_size,
                st.booleans(),
                unit,
            ),
            max_size=30,
        )
    )
    def test_parse_write_identity(self, rows):
        entries = []
        used = set()
        for frame, tid, left, top, w, h, consider, vis in rows:
            if (frame, tid) in used:
                continue
            used.add((frame, tid))
            entries.append(
                GtEntry(frame, tid, BoxLTRB(left, top, left + w, top + h), 1, vis, consider)
            )
        back = parse_mot(write_gt(entries))
        key = lambda e: (e.frame, e.track_id)
        for got, want in zip(sorted(back, key=key), sorted(entries, key=key)):
            assert got.frame == want.frame and got.track_id == want.track_id
            assert got.consider == want.consider
            assert got.box.left == pytest.approx(want.box.left, abs=1e-9)
            assert got.box.right == pytest.approx(want.box.right, abs=1e-9)
            assert got.visibility == want.visibility


def _det(frame=1, cx=10.0, cy=10.0, w=4.0, h=4.0, conf=0.9, cls=1, dx=2.0, dy=0.0,
         ts=TrackedSizeWH(0.0, 0.0), o=0.7):
    return Detection(frame, Point2(cx, cy), Size2(w, h), conf, cls, Displacement(dx, dy), ts, o)


class TestPredictions:
    def test_wh_row(self):
        preds = parse_predictions("variant: wh\n1,10,10,4,4,0.9,1,2,0,0,0,0.7\n")
        assert preds.variant == "wh"
        d = preds.by_frame[1][0]
        assert d.disp == Displacement(2, 0)
        assert d.tracked_size == TrackedSizeWH(0, 0)
        assert d.iou_pred == 0.7

    def test_ltrb_row(self):
        preds = parse_predictions("variant: ltrb\n1,10,10,4,4,0.9,1,2,0,8,8,12,12,0.7\n")
        assert preds.variant == "ltrb"
        assert preds.by_frame[1][0].tracked_size == TrackedSizeLTRB(8, 8, 12, 12)

    def test_wh_with_four_ts_values_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_predictions("variant: wh\n1,10,10,4,4,0.9,1,2,0,8,8,12,12,0.7\n")

    def test_iou_pred_out_of_range_rejected(self):
        with pytest.raises(ParseError, match="iou_pred"):
            parse_predictions("variant: wh\n1,10,10,4,4,0.9,1,2,0,0,0,1.5\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_predictions("1,10,10,4,4,0.9,1,2,0,0,0,0.7\n")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ParseError, match="variant"):
            parse_predictions("variant: xyz\n")

    def test_header_only_is_empty(self):
        assert parse_predictions("variant: ltrb\n").by_frame == {}

    def test_frames_grouped_ascending(self):
        text = write_predictions(
            "wh",
            [(2, [_det(frame=2)]), (1, [_det(frame=1)])],
        )
        preds = parse_predictions(text)
        assert list(preds.by_frame) == [1, 2]

    def test_round_trip_both_variants(self):
        import numpy as np

        rng = np.random.default_rng(1)
        for variant in ("wh", "ltrb"):
            frames = []
            for frame in range(1, 11):
                dets = []
                for _ in range(rng.integers(0, 4)):
                    if variant == "wh":
                        ts = TrackedSizeWH(float(rng.normal()), float(rng.normal()))
                    else:
                        left, top = rng.uniform(0, 50, size=2)
                        ts = TrackedSizeLTRB(
                            float(left), float(top),
                            float(left + rng.uniform(0, 30)), float(top + rng.uniform(0, 30)),
                        )
                    dets.append(
                        _det(
                            frame=frame,
                            cx=float(rng.uniform(0, 100)),
                            cy=float(rng.uniform(0, 100)),
                            w=float(rng.uniform(0, 30)),
                            h=float(rng.uniform(0, 30)),
                            conf=float(rng.uniform(0, 1)),
                            dx=float(rng.normal()),
                            dy=float(rng.normal()),
                            ts=ts,
                            o=float(rng.uniform(0, 1)),
                        )
                    )
                frames.append((frame, dets))
            text = write_predictions(variant, frames)
            back = parse_predictions(text)
            assert back.variant == variant
            flat_in = [d for _, dets in frames for d in dets]
            flat_out = [d for _, dets in sorted(back.by_frame.items()) for d in dets]
            assert flat_in == flat_out

    def test_dense_frames_are_the_parsed_frames(self):
        preds = parse_predictions(
            "variant: wh\n5,10,10,4,4,0.9,1,0,0,0,0,0.5\n2,10,10,4,4,0.9,1,0,0,0,0,0.5\n"
        )
        dense = preds.dense_frames()
        assert dense == list(preds.by_frame.items()) and [f for f, _ in dense] == [2, 5]
        assert parse_predictions("variant: wh\n").dense_frames() == [] == Predictions("wh").dense_frames()

    def test_frames_far_apart_replay_as_motkit_track_writes_them(self, tmp_path):
        # the frame numbers alone span 2**63 frames: only the two parsed ones are listed
        row = "{},10,10,4,4,0.9,1,0,0,0,0,0.5\n"
        path = tmp_path / "preds.csv"
        path.write_text("variant: wh\n" + row.format(1) + row.format(2**63))
        preds = parse_predictions(path.read_text())
        assert len(preds.dense_frames()) == 2
        records = run_sequence(preds.dense_frames(), TrackerConfig(variant="wh"))
        assert main(["track", str(path), "--out", str(tmp_path / "tracks.txt")]) == 0
        assert write_mot(records).encode() == (tmp_path / "tracks.txt").read_bytes()

    def test_variant_mismatch_on_write_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            write_predictions("ltrb", [(1, [_det()])])


# Integral values on both sides of _fmt's 1e15 limit, signed zeros, and decimals.
WRITTEN = [0.0, -0.0, 3.0, 0.5, 1e15 - 1, 1e15, 1e15 + 2, 999999999999999.9, 2.0**60, 5e-324, 1.7e308]
written = st.sampled_from(WRITTEN + [-v for v in WRITTEN]) | any_finite
written_size = st.sampled_from(WRITTEN) | positive_size
written_unit = st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324]) | unit


@st.composite
def prediction_frames(draw):
    variant = draw(st.sampled_from(["wh", "ltrb"]))
    n_ts = 2 if variant == "wh" else 4
    frames = []
    for frame_no in draw(st.lists(st.sampled_from([1, 2, 7, 2**63, 2**64 + 1]), max_size=4)):
        dets = []
        for _ in range(draw(st.integers(0, 4))):
            v = [draw(written), draw(written), draw(written_size), draw(written_size)]
            v += [draw(written) for _ in range(2 + n_ts)]
            ts = TrackedSizeWH(*v[6:]) if variant == "wh" else TrackedSizeLTRB(*v[6:])
            cls = draw(st.sampled_from([1, 2, 2**63, 2**64 + 3]))
            conf, iou_pred = draw(written_unit), draw(written_unit)
            dets.append(
                Detection(frame_no, Point2(*v[:2]), Size2(*v[2:4]), conf, cls, Displacement(*v[4:6]), ts, iou_pred)
            )
        frames.append((frame_no, dets))
    return variant, frames


class TestWritePredictionsEqualsReferee:
    """The column writer against the object-by-object writer it replaced, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(prediction_frames())
    def test_plain_lists_and_frames(self, case):
        variant, frames = case
        want = write_predictions_objects(variant, frames)
        assert write_predictions(variant, frames) == want
        assert write_predictions(variant, [(f, DetectionFrame.of(dets)) for f, dets in frames]) == want

    def test_formats_at_the_integral_limit(self):
        dets = [_det(cx=1e15 - 1, cy=-1e15 + 1, w=1e15, h=-0.0, dx=1e15 + 2, dy=999999999999999.9)]
        want = "variant: wh\n1,999999999999999,-999999999999999,1000000000000000.0,0,0.9,1,1000000000000002.0,999999999999999.9,0,0,0.7\n"
        assert write_predictions("wh", [(1, dets)]) == write_predictions_objects("wh", [(1, dets)]) == want

    @pytest.mark.parametrize("dets", [[_det()], [_det(ts=TrackedSizeLTRB(0, 0, 1, 1)), _det()]])
    def test_variant_mismatch_names_the_other_variant(self, dets):
        for write in (write_predictions, write_predictions_objects):
            with pytest.raises(ValueError, match="^detection variant wh does not match file variant ltrb$"):
                write("ltrb", [(1, []), (2, dets)])


class TestMotTable:
    GT = "2,1,10,20,4,2,1,1,1.0\n\n1,3,0,0,5,5,0,2,0.5\n"
    TRACK = "1,1,0,0,10,10,0.9,-1,-1,-1\n1,2,5,5,10,10,0.25,-1,-1,-1\n"

    def test_rows_index_as_entries_and_records(self):
        gt, track = parse_mot(self.GT), parse_track_file(self.TRACK)
        assert gt[1] == GtEntry(1, 3, BoxLTRB(0, 0, 5, 5), 2, 0.5, False) and gt[-2].consider
        assert list(track) == [
            TrackRecord(1, 1, BoxLTRB(0, 0, 10, 10), 0.9),
            TrackRecord(1, 2, BoxLTRB(5, 5, 15, 15), 0.25),
        ]
        assert track[1:] == [track[1]] and len(gt) == 2
        assert repr(gt) == repr(list(gt)) and track == tuple(track) and gt != track and gt != "not rows"

    def test_columns_without_row_objects(self, monkeypatch):
        def refuse(self):
            raise AssertionError("built a box object")

        monkeypatch.setattr(BoxLTRB, "__post_init__", refuse)
        gt = parse_mot(self.GT)
        assert gt.frame.tolist() == [2, 1] and gt.id.tolist() == [1, 3] and gt.conf.tolist() == [1.0, 0.0]
        assert gt.box.tolist() == [[10, 20, 14, 22], [0, 0, 5, 5]] and gt.cls.tolist() == [1, 2]
        assert parse_track_file(self.TRACK).cls is None and len(parse_track_file("")) == 0

    def test_a_plain_list_is_framed_once(self):
        rows = list(parse_mot(self.GT)) + [GtEntry(2**64, 2**63, BoxLTRB(1, 2, 3, 4), 1, 1.0)]
        table = _MotTable.of(rows)
        assert _MotTable.of(table) is table and all(a is b for a, b in zip(table, rows))
        assert table.frame.tolist() == [2, 1, 2**64] and table.conf.tolist() == [1.0, 0.0, 1.0]
        assert _MotTable.of([TrackRecord(1, 5, BoxLTRB(0, 0, 1, 1), 0.0)]).conf.tolist() == [0.0]

    def test_a_framed_ground_truth_list_keeps_class_and_visibility(self):
        rows = [GtEntry(2, 1, BoxLTRB(0, 0, 4, 2), 7, 0.25, False), GtEntry(1, 3, BoxLTRB(1, 1, 2, 2), 2, 0.5)]
        table = _MotTable.of(rows)
        assert table.cls.tolist() == [7, 2] and table.column("visibility").tolist() == [0.25, 0.5]
        assert write_gt(rows) == "1,3,1,1,1,1,1,2,0.5\n2,1,0,0,4,2,0,7,0.25\n"
        assert parse_mot(write_gt(rows)) == [rows[1], rows[0]]


# -- the MOT column writers against the row writers they replaced ---------------------------------

edge = st.sampled_from(WRITTEN + [-v for v in WRITTEN]) | any_finite | st.integers(-1000, 1000)
key = st.sampled_from([1, 2, 7, 2**63, 2**64 + 1]) | st.integers(1, 40)


@st.composite
def mot_rows(draw, gt):
    """Ground-truth entries or track records in no (frame, id) order, some keys repeated."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        left, right = sorted((draw(edge), draw(edge)))
        top, bottom = sorted((draw(edge), draw(edge)))
        box = BoxLTRB(left, top, right, bottom)
        if gt:
            cls = draw(st.sampled_from([1, 2, 2**63]))
            rows.append(GtEntry(draw(key), draw(key), box, cls, draw(written), draw(st.booleans())))
        else:
            rows.append(TrackRecord(draw(key), draw(key), box, draw(written)))
    return rows


def written_or_raised(write, rows):
    """The text ``write`` makes of ``rows``, or the type of the exception it raises."""
    try:
        return write(rows)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def as_tables(rows):
    """The rows as a list, as a table of their Python lists and as a table of numpy columns."""
    listed = _MotTable.of(rows)
    names = ("frame", "id", "box", "conf", "cls", "visibility") if listed.cls is not None else _RECORD_COLUMNS
    return rows, listed, _MotTable(*map(listed.column, names))


class TestMotWritersEqualRowReferees:
    """``write_gt`` and ``write_mot`` against the row writers in ``oracles``: the same bytes or exception type."""

    @settings(max_examples=200, deadline=None)
    @given(mot_rows(gt=True))
    def test_write_gt(self, rows):
        want = written_or_raised(write_gt_rows, rows)
        for table in as_tables(rows):
            assert written_or_raised(write_gt, table) == want

    @settings(max_examples=200, deadline=None)
    @given(mot_rows(gt=False))
    def test_write_mot(self, rows):
        want = written_or_raised(write_mot_rows, rows)
        for table in as_tables(rows):
            assert written_or_raised(write_mot, table) == want

    def test_more_rows_than_a_block(self):
        rows = [TrackRecord(k % 7 + 1, 5000 - k, BoxLTRB(k / 3, 0.5, k, 2**60), k / 5000) for k in range(5000)]
        assert write_mot(rows) == write_mot_rows(rows)
        gt = [GtEntry(r.frame, r.track_id, r.box, 1, r.confidence, r.track_id % 3 > 0) for r in rows]
        assert write_gt(gt) == write_gt_rows(gt)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_value_that_is_not_finite_raises_as_fmt_does(self, bad):
        with pytest.raises((OverflowError, ValueError)) as raised:
            _fmt(bad)
        box, det = BoxLTRB(0, 0, 1, 1), _det(cx=bad)
        bad_box = BoxLTRB(0, 0, bad, 1) if bad > 1 else BoxLTRB(bad, 0, 1, 1)  # an edge, or a width past the range
        writes = [
            (write_mot, write_mot_rows, [TrackRecord(2, 1, box, 0.5), TrackRecord(1, 1, box, bad)]),
            (write_gt, write_gt_rows, [GtEntry(1, 1, box, 1, bad)]),
            (write_gt, write_gt_rows, [GtEntry(1, 1, bad_box, 1, 1.0)]),
            (lambda f: write_predictions("wh", f), lambda f: write_predictions_objects("wh", f), [(1, [_det(), det])]),
        ]
        for write, referee, rows in writes:
            for form in (write, referee):
                with pytest.raises(raised.type):
                    form(rows)


def test_writers_on_the_churn_scene_stay_within_a_bounded_peak(monkeypatch):
    """The files of the benchmark's churn scene (seed 0), written at most 1.5 times the row writers' peak."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    cfg, noise = parse_scene(workloads.churn(0).scenes["churn"])
    gt, oracle = generate(cfg)
    dets = perturb(oracle, noise, cfg.seed, image_size=(cfg.width, cfg.height), variant=cfg.variant)
    # the row writers peaked at 4.0 MiB (predictions) and 6.8 MiB (ground truth) on these files
    for write, limit in ((lambda: write_predictions(cfg.variant, dets), 6.0), (lambda: write_gt(gt), 10.2)):
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * 2**20
