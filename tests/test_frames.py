"""The columnar detection frames against the row-by-row parse and the object loops.

``parse_predictions`` converts a whole file column by column and hands out
one ``DetectionFrame`` per frame; association and the tracker read those
columns. These tests hold that path to the per-object forms it replaced:
the row parser (``formats._prediction_rows``), the scalar geometry functions
and the object-by-object cost loops in ``oracles``.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from motkit import formats
from motkit.association import FILTER_FORMS, Strategy, associate, displacement_cost, iou_cost, tracked_box
from motkit.formats import DetectionFrame, ParseError, parse_predictions, write_predictions
from motkit.geometry import ltrb, size_gate
from motkit.simulator import MODERATE_NOISE, AgentSpec, ScenarioConfig, generate, perturb, random_scenario
from motkit.tracker import TrackerConfig, run_sequence
from oracles import displacement_cost_loop, iou_cost_loop
from test_association import cutover, mixed_case  # noqa: F401 (cutover is a fixture)

N_TS = {"wh": 2, "ltrb": 4}


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def row_parse(text: str, variant: str):
    return formats._prediction_rows(text.splitlines()[1:], variant)


# -- (a) every column equals its scalar function ---------------------------------------------

SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1.7e308, -1.7e308, 5e-324])
ordinary = st.floats(-1e4, 1e4, allow_nan=False)
coord = ordinary | ordinary | SPECIAL
size = st.floats(0, 1e4) | st.sampled_from([0.0, -0.0, 1e200, 1e300, 1.7e308])
unit = st.sampled_from([0.0, 0.4, 0.9, 1.0]) | st.floats(0, 1)


@st.composite
def prediction_file(draw):
    variant = draw(st.sampled_from(["wh", "ltrb"]))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        values = [draw(coord), draw(coord), draw(size), draw(size), draw(unit)]
        cls = draw(st.integers(1, 3))
        values2 = [draw(coord) for _ in range(2 + N_TS[variant])] + [draw(unit)]
        frame = draw(st.integers(1, 6))  # repeated, missing and out-of-order frames
        rows.append(",".join([str(frame), *map(repr, values), str(cls), *map(repr, values2)]))
    blank = draw(st.sampled_from(["", "\n", "\n\n"]))
    return variant, f"variant: {variant}\n" + blank + "\n".join(rows) + "\n"


class TestColumnsEqualScalarFunctions:
    # each example draws up to ~170 values, which a loaded host can make look slow
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(prediction_file())
    def test_columns_and_objects(self, case):
        variant, text = case
        try:
            want = row_parse(text, variant)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_predictions(text)
            assert str(got.value) == str(exc)
            return
        # a file the row parser accepts never needs it: the columns take it whole
        with mock.patch.object(formats, "_prediction_rows", side_effect=AssertionError):
            preds = parse_predictions(text)
        assert list(preds.by_frame) == list(want)
        for f, frame in preds.by_frame.items():
            dets = want[f]
            assert len(frame) == len(dets)
            assert repr(list(frame)) == repr(dets)
            scalar = {
                "box": [ltrb(d.box()) for d in dets],
                "tracked": [ltrb(tracked_box(d, variant)) for d in dets],
                "back": [(d.center.x - d.disp.dx, d.center.y - d.disp.dy) for d in dets],
                "gate": [size_gate(d.size) for d in dets],
            }
            for name, values in scalar.items():
                assert bits(frame.column(name)) == bits(values), name
                assert bits(frame.values(name)) == bits(values), name

    def test_signed_zero_ltrb_edges_keep_their_order(self):
        text = "variant: ltrb\n1,0,0,1,1,0.9,1,0,0,0.0,-0.0,-0.0,0.0,0.5\n1,0,0,1,1,0.9,1,0,0,1,1,-1,-1,0.5\n"
        frame = parse_predictions(text).by_frame[1]
        assert frame.values("tracked") == [[0.0, -0.0, -0.0, 0.0], [-1.0, -1.0, 1.0, 1.0]]
        assert [str(v) for v in frame.values("tracked")[0]] == ["0.0", "-0.0", "-0.0", "0.0"]

    def test_signed_zero_wh_tracked_box(self):
        # back-projected center -0.0 and a recovered size of -0.0: max(0.0, -0.0) is +0.0
        text = "variant: wh\n1,-0.0,-0.0,-0.0,-0.0,0.9,1,0.0,0.0,0.0,0.0,0.5\n"
        frame = parse_predictions(text).by_frame[1]
        want = [ltrb(tracked_box(d, "wh")) for d in row_parse(text, "wh")[1]]
        assert bits(frame.column("tracked")) == bits(want)
        assert [str(v) for v in frame.values("tracked")[0]] == ["-0.0", "-0.0", "0.0", "0.0"]

    def test_sequence_protocol(self):
        dets, _ = mixed_case(np.random.default_rng(3), "wh", 5, 0)
        frame = parse_predictions(write_predictions("wh", [(1, dets)])).by_frame[1]
        assert len(frame) == 5 and list(frame) == dets
        assert frame[-1] == dets[-1] and list(frame[1:4]) == dets[1:4]
        assert list(frame.take([3, 0])) == [dets[3], dets[0]]
        with pytest.raises(IndexError):
            frame[5]
        plain = DetectionFrame.of(dets)
        assert DetectionFrame.of(plain) is plain and plain[2] is dets[2]


# -- (b) malformed files fail with the row parser's message ---------------------------------

GOOD = {"wh": "1,10,10,4,4,0.9,1,2,0,0,0,0.7", "ltrb": "1,10,10,4,4,0.9,1,2,0,8,8,12,12,0.7"}
# (field index, replacement text); index -1 is iou_pred
FIELD_FAULTS = [
    (1, "oops"), (0, ""), (0, "2.5"), (6, "1.5"), (0, "1e3"), (3, "1_0"), (0, "1_0"),
    (2, "nan"), (4, "inf"), (7, "-inf"), (-1, "NaN"), (5, "1.5"), (-1, "-0.1"), (3, "-4"),
    (0, "0"), (0, "-2"),
]
# whole rows of each variant whose derived boxes overflow
OVERFLOW_ROWS = {
    "wh": [
        "1,1.7e308,10,1.7e308,20,0.9,1,0,0,0,0,0.5",   # box edge
        "1,1e308,10,4,4,0.9,1,-1e308,0,0,0,0.5",       # tracked center
        "1,10,10,1.7e308,4,0.9,1,0,0,-1.7e308,0,0.5",  # tracked width
        "1,0,0,1e200,1e200,0.9,1,0,0,0,0,0.5",         # box area
        "1,0,0,4,4,0.9,1,0,0,-1e200,-1e200,0.5",       # tracked area
    ],
    "ltrb": [
        "1,1.7e308,10,1.7e308,20,0.9,1,0,0,0,0,10,10,0.5",
        "1,0,0,1e200,1e200,0.9,1,0,0,0,0,1,1,0.5",
        "1,0,0,4,4,0.9,1,0,0,-1e308,0,1e308,1,0.5",
        "1,0,0,4,4,0.9,1,0,0,0,0,1e200,1e200,0.5",
    ],
}


def faulty_rows(variant):
    good = GOOD[variant].split(",")
    for index, text in FIELD_FAULTS:
        fields = list(good)
        fields[index] = text
        yield ",".join(fields)
    yield GOOD[variant] + ",1"                       # a field too many
    yield GOOD[variant].rsplit(",", 1)[0]            # a field too few
    yield GOOD[variant].replace(",", "_", 1)         # an underscore that also merges two fields
    yield from OVERFLOW_ROWS[variant]


@pytest.mark.parametrize("variant", ["wh", "ltrb"])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_malformed_file_raises_the_row_parsers_error(variant, position):
    checked = 0
    for bad in faulty_rows(variant):
        rows = [GOOD[variant]] * 5
        rows[position] = bad
        text = f"variant: {variant}\n" + "\n".join(rows) + "\n"
        with pytest.raises(ParseError) as want:
            row_parse(text, variant)
        with pytest.raises(ParseError) as got:
            parse_predictions(text)
        assert str(got.value) == str(want.value)
        assert got.value.line_no == position + 2
        checked += 1
    assert checked == len(FIELD_FAULTS) + 3 + len(OVERFLOW_ROWS[variant])


def test_rows_the_screen_refuses_but_the_row_parser_accepts_are_framed():
    # integral decimals pass the row parser's int fields, not Python's int()
    text = "variant: wh\n3.0,10,10,4,4,0.9,1,2,0,0,0,0.7\n1,10,10,4,4,0.9,2.0,2,0,0,0,0.7\n"
    preds = parse_predictions(text)
    assert {f: repr(list(frame)) for f, frame in preds.by_frame.items()} == {
        f: repr(dets) for f, dets in row_parse(text, "wh").items()
    }
    assert all(isinstance(frame, DetectionFrame) for frame in preds.by_frame.values())


# -- (c) a frame and a plain list of the same detections give the same results ---------------


def framed(dets, variant):
    """The same detections as a parsed frame (a slice of a file's columns)."""
    by_frame = parse_predictions(write_predictions(variant, [(1, dets)])).by_frame
    return by_frame.get(1, DetectionFrame.of([]))


class TestFrameEqualsList:
    def test_cost_matrices(self, cutover):
        rng = np.random.default_rng(41)
        sides = set()
        for _ in range(120):
            n, m = (int(v) for v in rng.integers(0, 12, size=2))
            sides.add(n * m < cutover)
            for variant in ("ltrb", "wh"):
                dets, tracks = mixed_case(rng, variant, n, m)
                frame = framed(dets, variant)
                for form in FILTER_FORMS:
                    want = iou_cost_loop(dets, tracks, variant, form)
                    assert bits(iou_cost(frame, tracks, variant, form)) == bits(want)
                    assert bits(iou_cost(dets, tracks, variant, form)) == bits(want)
                want = displacement_cost_loop(dets, tracks)
                assert bits(displacement_cost(frame, tracks)) == bits(want)
                assert bits(displacement_cost(dets, tracks)) == bits(want)
        assert sides == {True, False}

    def test_associate(self, cutover):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n, m = (int(v) for v in rng.integers(0, 10, size=2))
            for variant in ("ltrb", "wh"):
                dets, tracks = mixed_case(rng, variant, n, m)
                frame = framed(dets, variant)
                for strategy in Strategy:
                    for form in FILTER_FORMS:
                        got = associate(strategy, frame, tracks, variant, form)
                        assert repr(got) == repr(associate(strategy, dets, tracks, variant, form))

    @pytest.mark.parametrize("variant", ["ltrb", "wh"])
    def test_run_sequence(self, variant):
        # false alarms have confidences in [0.5, 1): theta 0.75 drops some of a frame's rows
        noise = replace(MODERATE_NOISE, fp_rate=0.5)
        scenes = [random_scenario(seed, variant) for seed in range(3)] + [crowded(variant)]
        filtered = 0
        for k, cfg in enumerate(scenes):
            _, oracle = generate(cfg)
            noisy = perturb(oracle, noise, seed=k, image_size=(cfg.width, cfg.height), variant=variant)
            frames = parse_predictions(write_predictions(variant, noisy)).dense_frames()
            lists = [(f, list(dets)) for f, dets in frames]
            filtered += sum(1 for _, dets in lists if any(0.75 >= d.confidence for d in dets))
            for strategy in Strategy:
                for form in FILTER_FORMS:
                    for theta in (0.4, 0.75):
                        tcfg = TrackerConfig(strategy, variant, out_threshold=theta, iou_filter_form=form)
                        assert repr(run_sequence(frames, tcfg)) == repr(run_sequence(lists, tcfg))
        assert filtered > 0


def crowded(variant):
    """Ten agents crossing a small image: most frames' matrices are over the cutover."""
    rng = np.random.default_rng(5)
    agents = []
    for k in range(10):
        w, h = (float(v) for v in rng.uniform([16, 20], [30, 40]))
        x0, y0, x1, y1 = (float(v) for v in rng.uniform(20, 180, size=4))
        agents.append(AgentSpec(width=w, height=h, waypoints=((1, x0, y0), (20, x1, y1)), depth=k))
    return ScenarioConfig(width=200, height=200, frames=20, agents=tuple(agents), variant=variant)

