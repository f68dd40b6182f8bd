import math

import pytest
from hypothesis import given, settings, strategies as st

from motkit.formats import (
    Detection,
    GtEntry,
    ParseError,
    TrackRecord,
    parse_mot,
    parse_predictions,
    parse_track_file,
    write_gt,
    write_mot,
    write_predictions,
)
from motkit.association import tracked_box
from motkit.geometry import (
    BoxLTRB,
    Displacement,
    Point2,
    Size2,
    TrackedSizeLTRB,
    TrackedSizeWH,
    ltrb,
)

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
        # edges near the float limit, on boxes whose areas stay finite
        assert parse_mot("1,1,1e308,10,7e307,1,1,1,1")[0].box.right == 1.7e308
        assert parse_track_file("1,1,-1.7e308,10,1.7e308,1,1,-1,-1,-1")[0].box.right == 0.0
        assert parse_predictions("variant: wh\n1,1.7e308,10,1e307,4,0.9,1,0,0,0,0,0.5").by_frame[1]
        huge_ltrb = "variant: ltrb\n1,10,10,4,4,0.9,1,0,0,-1.7e308,0,0,1,0.5"
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
        derived = [v for box in boxes for v in ltrb(box)] + [box.area for box in boxes]
        text = write_predictions(variant, [(1, [det])])
        if all(map(math.isfinite, derived)):
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

    def test_dense_frames_fills_gaps(self):
        preds = parse_predictions(
            "variant: wh\n2,10,10,4,4,0.9,1,0,0,0,0,0.5\n5,10,10,4,4,0.9,1,0,0,0,0,0.5\n"
        )
        dense = preds.dense_frames()
        assert [f for f, _ in dense] == [2, 3, 4, 5]
        assert [len(d) for _, d in dense] == [1, 0, 0, 1]

    def test_variant_mismatch_on_write_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            write_predictions("ltrb", [(1, [_det()])])
