"""The columnar detection frames against the row-by-row parse and the object loops.

``parse_predictions`` converts a whole file column by column and hands out
one ``DetectionFrame`` per frame; association and the tracker read those
columns. These tests hold that path to the per-object forms it replaced:
the row parser (``oracles.prediction_rows``), the scalar geometry functions
and the object-by-object cost loops in ``oracles``.
"""

import contextlib
import io
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from motkit import formats
from motkit.association import FILTER_FORMS, Strategy, associate, displacement_cost, iou_cost, tracked_box
from motkit.cli import main
from motkit.formats import (
    DetectionFrame,
    ParseError,
    _MotTable,
    parse_mot,
    parse_predictions,
    parse_track_file,
    write_predictions,
)
from motkit.geometry import ltrb, size_gate
from motkit.simulator import MODERATE_NOISE, AgentSpec, ScenarioConfig, generate, perturb
from motkit.tracker import TrackerConfig, TrackerState, _Tracklets, run_sequence, step
from oracles import (
    displacement_cost_loop,
    iou_cost_loop,
    parse_mot_rows,
    parse_track_file_rows,
    prediction_rows,
    random_scenario,
)
from test_association import cutover, mixed_case  # noqa: F401 (cutover is a fixture)

N_TS = {"wh": 2, "ltrb": 4}


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def row_parse(text: str, variant: str):
    return prediction_rows(text.splitlines()[1:], variant)


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
        # a file the row parser accepts never reaches the error finder: the columns take it whole
        with mock.patch.object(formats, "_first_error", side_effect=AssertionError):
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

    def test_equals_any_sequence_of_equal_detections(self):
        dets, _ = mixed_case(np.random.default_rng(4), "ltrb", 4, 0)
        frame = parse_predictions(write_predictions("ltrb", [(1, dets)])).by_frame[1]
        assert frame == dets and dets == frame and frame == tuple(dets) and frame == DetectionFrame.of(dets)
        assert frame != dets[:3] and frame != dets[::-1] and frame != [*dets, dets[0]]
        assert frame.take([]) == [] and frame != 4 and frame != "abcd"


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


# two faults in one row: the first in the row's order of checks names it
PREDICTION_PAIR_FAULTS = [
    ((0, "0"), (1, "x")), ((1, "x"), (0, "0")), ((3, "-4"), (5, "1.5")), ((-1, "1.5"), (3, "-4")),
    ((5, "2"), (6, "x")), ((-1, "nan"), (3, "-4")), ((1, "1.7e308"), (3, "1.7e308"), (-1, "1.5")),
]


@pytest.mark.parametrize("variant", ["wh", "ltrb"])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_row_with_two_faults_raises_the_row_parsers_first(variant, position):
    for faults in PREDICTION_PAIR_FAULTS:
        fields = GOOD[variant].split(",")
        for index, text in faults:
            fields[index] = text
        rows = [GOOD[variant]] * 5
        rows[position] = ",".join(fields)
        text = f"variant: {variant}\n" + "\n".join(rows) + "\n"
        with pytest.raises(ParseError) as want:
            row_parse(text, variant)
        with pytest.raises(ParseError) as got:
            parse_predictions(text)
        assert (str(got.value), got.value.line_no) == (str(want.value), position + 2)


MOT = {"gt": (parse_mot, parse_mot_rows), "track": (parse_track_file, parse_track_file_rows)}
MOT_GOOD = {"gt": "1,1,10,20,4,2,1,1,1", "track": "1,1,10,20,4,2,0.9,-1,-1,-1"}
# (field index, replacement text), for both MOT formats
MOT_FIELD_FAULTS = [
    (1, "0"), (0, "0"), (1, "-3"), (4, "-4"), (5, "-0.5"), (0, "2.5"), (1, "1e3"), (2, "oops"), (3, ""),
    (2, "1_0"), (0, "1_0"), (2, "nan"), (5, "inf"), (6, "-inf"), (6, "1e309"),
]
GT_FIELD_FAULTS = [(7, "1.5"), (8, "nan"), (7, "x"), (8, "")]
# two faults in one row: the first in the row's order of checks names it
MOT_PAIR_FAULTS = [
    ((1, "0"), (2, "oops")), ((0, "x"), (1, "0")), ((4, "-4"), (6, "nan")), ((3, "nan"), (5, "-1")),
    ((2, "1e308"), (4, "1.7e308"), (6, "x")), ((4, "1e200"), (5, "1e200"), (6, "inf")),
]
GT_PAIR_FAULTS = [((4, "1e200"), (5, "1e200"), (7, "1.5")), ((2, "1e308"), (4, "1.7e308"), (8, "nan"))]
MOT_OVERFLOW_BOXES = [
    "1e308,20,1.7e308,2",        # right edge
    "10,-1.7e308,1e-300,1.7e308",  # accepted: edges near the limit, a small area
    "10,1.7e308,4,1.7e308",      # bottom edge
    "0,0,1e200,1e200",           # area
    "-1e308,0,1.5e308,2",        # area, the width overflowing
    "0,0,1.3e154,1.3e154",       # area above half the float limit
]


def mot_faulty_rows(name):
    good = MOT_GOOD[name].split(",")
    singles = [(fault,) for fault in MOT_FIELD_FAULTS + (GT_FIELD_FAULTS if name == "gt" else [])]
    for faults in singles + MOT_PAIR_FAULTS + (GT_PAIR_FAULTS if name == "gt" else []):
        fields = list(good)
        for index, text in faults:
            fields[index] = text
        yield ",".join(fields)
    for box in MOT_OVERFLOW_BOXES:
        yield ",".join(good[:2] + box.split(",") + good[6:])
    yield MOT_GOOD[name] + ",1"                       # a field too many
    yield MOT_GOOD[name].rsplit(",", 1)[0]            # a field too few
    yield MOT_GOOD[name].replace(",", "_", 1)         # an underscore that also merges two fields


@pytest.mark.parametrize("name", ["gt", "track"])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_malformed_mot_file_raises_the_row_parsers_error(name, position):
    parse, referee = MOT[name]
    checked = 0
    for bad in mot_faulty_rows(name):
        rows = [MOT_GOOD[name]] * 5
        rows[position] = bad
        text = "\n".join(rows) + "\n"
        try:
            want = referee(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse(text)
            assert (str(got.value), got.value.line_no) == (str(exc), position + 1)
            checked += 1
        else:
            assert repr(parse(text)) == repr(want)
    faults = len(MOT_FIELD_FAULTS + MOT_PAIR_FAULTS) + (len(GT_FIELD_FAULTS + GT_PAIR_FAULTS) if name == "gt" else 0)
    assert checked == faults + len(MOT_OVERFLOW_BOXES) - 1 + 3


def test_unread_track_columns_take_any_text():
    text = "1,1,10,20,4,2,0.9,x,1_0,\n"
    assert repr(parse_track_file(text)) == repr(parse_track_file_rows(text))
    assert parse_track_file(text)[0].frame == 1


# -- (d) every format against its referee, on mutated files ---------------------------------

FORMATS = ("gt", "track", "wh", "ltrb")
TOKENS = ["nan", "inf", "-inf", "1e309", "-0", "_", "1_0", "3.0", "3.", "1.5e3", "1e3", "2.5", "-4", "1.5", "", "x"]
HUGE = [str(2**63), str(2**63 - 1), str(2**70), "9.3e18", "-1"]
value = st.sampled_from(["0", "1", "-2.5", "12.25", "0.5", "40"]) | st.floats(-50, 50).map(repr)


@st.composite
def mutated_file(draw):
    """A valid file of one of the four formats, with up to four faults of the kinds files show."""
    name = draw(st.sampled_from(FORMATS))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        frame = str(draw(st.integers(1, 5)))
        size = [repr(draw(st.floats(0, 40))) for _ in range(2)]
        unit = repr(draw(st.floats(0, 1)))
        if name in ("gt", "track"):
            head = [frame, str(draw(st.integers(1, 4))), draw(value), draw(value), *size]
            tail = ["1", str(draw(st.integers(1, 3))), unit] if name == "gt" else [unit, "-1", "-1", "-1"]
            rows.append(head + tail)
        else:
            ts = [draw(value) for _ in range(N_TS[name])]
            rows.append([frame, draw(value), draw(value), *size, unit, "1", draw(value), draw(value), *ts, unit])
    # faults gather in one row often enough that the order of a row's checks shows
    focus = draw(st.integers(0, 5))
    for _ in range(draw(st.integers(0, 4))):
        if not rows:
            break
        fields = rows[draw(st.sampled_from([focus % len(rows)] * 2 + [draw(st.integers(0, len(rows) - 1))]))]
        k = draw(st.integers(0, len(fields) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "token", "huge"]))
        if kind == "delete":
            del fields[k]
        elif kind == "duplicate":
            fields.insert(k, fields[k])
        elif kind == "token":
            fields[k] = draw(st.sampled_from(TOKENS))
        else:  # a frame, or a MOT id
            fields[draw(st.integers(0, 1 if name in ("gt", "track") else 0))] = draw(st.sampled_from(HUGE))
    lines = [",".join(fields) for fields in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    if name in N_TS:
        lines.insert(0, f"variant: {name}")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return name, end.join(lines) + end * draw(st.booleans())


def parse_by(name, text, referee):
    """A file's parse by the package or by the referee, as text: its repr, or its error and line."""
    try:
        if name in N_TS and referee:
            return repr(prediction_rows(text.splitlines()[1:], name))
        if name in N_TS:
            return repr({f: list(frame) for f, frame in parse_predictions(text).by_frame.items()})
        return repr(MOT[name][referee](text))
    except ParseError as exc:
        return f"ParseError {exc.line_no}: {exc}"


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_file())
def test_every_format_gives_its_referees_result(case):
    name, text = case
    assert parse_by(name, text, referee=False) == parse_by(name, text, referee=True)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


GOOD_FILE = {"gt": "1,1,10,20,4,2,1,1,1\n2,1,11,20,4,2,1,1,1\n", "track": "1,1,10,20,4,2,0.9,-1,-1,-1\n"}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_file())
def test_cli_on_mutated_files_exits_0_2_or_3(workdir, case):
    name, text = case
    path = workdir / f"{name}.txt"
    path.write_text(text, newline="")
    if name in N_TS:
        argv = ["track", str(path), "--out", str(workdir / "tracks.txt")]
    else:
        files = {**{k: workdir / f"good-{k}.txt" for k in GOOD_FILE}, name: path}
        for k, good in GOOD_FILE.items():
            if k != name:
                files[k].write_text(good)
        argv = ["eval", str(files["gt"]), str(files["track"])]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3)
    if code == 2:
        assert re.search(r"line \d+: ", err), err
    else:
        assert "line" not in err


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



# -- a take of a take, for every kind of column table ------------------------------------------


def same_column(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bits (object columns, of Python ints, by value)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()


def column_tables(variant):
    """A factory per table kind, and the objects it frames (None: it is made from columns).

    Each call makes the table afresh, so that nothing is read before its
    view. Parsed detections are the second frame of a file, a slice of its
    table that starts past row 0; the other kinds are whole tables, their own
    slice. A framed table is made from the same objects every time.
    """
    dets, _ = mixed_case(np.random.default_rng(11), variant, 9, 0)
    text = write_predictions(variant, [(1, dets[:3]), (2, dets[3:])])
    gt = "".join(
        f"{f},{i},{i}.5,-0.0,{2 * i},3,{i % 2},{i % 3 + 1},0.{i}\n" for f, i in zip([2, 1, 1, 3, 2, 1], range(1, 7))
    )
    track = "".join(f"{f},{i},{i}.25,0,1,{i},0.{i},-1,-1,-1\n" for f, i in zip([1, 1, 2, 2, 3, 3], range(1, 7)))

    def tracklets():
        cfg = TrackerConfig(variant=variant, lifetime=3)
        state, _ = step(TrackerState(), parse_predictions(text).by_frame[1], cfg)
        frame = parse_predictions(text).by_frame[2]
        state, _ = step(state, frame._table.take(range(3, 9)), cfg)
        return state.live

    objects = {"detections": list(parse_predictions(text).by_frame[2]), "ground truth": list(parse_mot(gt)),
               "tracklets": tuple(tracklets())}
    return {
        "detections": (lambda: parse_predictions(text).by_frame[2], None),
        "ground truth": (lambda: parse_mot(gt), None),
        "tracker output": (lambda: parse_track_file(track), None),
        "tracker records": (lambda: run_sequence(sorted(parse_predictions(text).by_frame.items()),
                                                 TrackerConfig(variant=variant)), None),
        "tracklets": (tracklets, None),
        "framed detections": (lambda: DetectionFrame.of(objects["detections"]), objects["detections"]),
        "framed ground truth": (lambda: _MotTable.of(objects["ground truth"]), objects["ground truth"]),
        "framed tracklets": (lambda: _Tracklets.of(objects["tracklets"]), objects["tracklets"]),
    }


@pytest.mark.parametrize("variant", ["wh", "ltrb"])
@pytest.mark.parametrize("kind", ["detections", "ground truth", "tracker output", "tracker records", "tracklets",
                                  "framed detections", "framed ground truth", "framed tracklets"])
def test_take_of_a_take_reads_the_parents_rows(kind, variant):
    make, framed = column_tables(variant)[kind]
    parent = make()
    root = parent if parent._table is None else parent._table
    names = sorted({*root._lists, *root._arrays})
    assert len(parent) >= 6 and len(names) >= 4
    for first, second in (([5, 1, 3, 0, 4], [2, 0, 4]), ([5, 1, 3, 0, 4], []), ([], [])):
        rows = [first[i] for i in second]
        for read in ("values", "column", "objects"):  # each read on fresh tables, its own first read
            fresh, expect = make(), make()
            inner = fresh.take(first)
            outer = inner.take(second)
            assert type(inner) is type(outer) is type(fresh) and len(outer) == len(rows)
            for name in names if read != "objects" else ():
                if read == "values":
                    want = expect.values(name)
                    assert repr(outer.values(name)) == repr([want[r] for r in rows]), name
                    assert repr(inner.values(name)) == repr([want[r] for r in first]), name
                else:
                    assert same_column(outer.column(name), expect.column(name)[rows]), name
                    assert same_column(inner.column(name), expect.column(name)[first]), name
            if read == "objects":
                assert repr(list(outer)) == repr([expect[r] for r in rows])
                assert outer == [expect[r] for r in rows] and inner == [expect[r] for r in first]
                if framed is not None:  # a view of a framed table hands out the very objects framed
                    assert all(got is framed[r] for got, r in zip(outer, rows))


# -- one detection table class: the slices of a whole table, and a table of detection objects -----


def whole_table(source, variant):
    """The one detection table of a parsed file, a generated scene or a perturbed one, and its lists."""
    _, oracle = generate(crowded(variant))
    noisy = perturb(oracle, MODERATE_NOISE, 3, image_size=(200, 200), variant=variant)
    if source == "parsed":
        return parse_predictions(write_predictions(variant, noisy)).by_frame[1]._table, formats._LOOP_COLUMNS
    return (oracle if source == "generated" else noisy)[0][1]._table, ()


@pytest.mark.parametrize("variant", ["wh", "ltrb"])
@pytest.mark.parametrize("source", ["parsed", "generated", "perturbed"])
def test_a_slice_of_a_whole_table_holds_its_lists_when_made(source, variant):
    table, lists = whole_table(source, variant)
    assert table._table is None and len(table) > 100 and set(table._lists) == set(lists)
    spans = ((0, len(table)), (30, 42), (7, 7))
    views = [table.take(slice(a, b)) for a, b in spans]  # all made before any column is read
    for (a, b), view in zip(spans, views):
        assert type(view) is DetectionFrame and view.variant == variant and len(view) == b - a
        assert set(view._lists) == set(lists)
        for name in lists:
            assert view._lists[name] == table.values(name)[a:b], name
        assert repr(view) == f"DetectionFrame({list(table)[a:b]!r})"


def test_tracking_parsed_frames_builds_no_list_of_a_column(monkeypatch):
    _, oracle = generate(crowded("wh"))
    noisy = perturb(oracle, replace(MODERATE_NOISE, fp_rate=0.9), 3, image_size=(200, 200), variant="wh")
    parsed = parse_predictions(write_predictions("wh", noisy)).by_frame
    table = parsed[1]._table
    by_frame = {f: table.take(frame._index) for f, frame in parsed.items()}  # the parser's slices, cut anew
    values, built = formats._Table.values, []

    def recorded(self, name):
        if name not in self._lists and not isinstance(self._index, list):  # not a row list of a take
            built.append((type(self).__name__, name))
        return values(self, name)

    monkeypatch.setattr(formats._Table, "values", recorded)
    for strategy in Strategy:  # one round and two, under a threshold that filters some rows
        run_sequence(by_frame.items(), TrackerConfig(strategy, "wh", out_threshold=0.75))
    assert built == []


@pytest.mark.parametrize("variant", ["wh", "ltrb"])
def test_a_table_of_detection_objects_is_whole(variant):
    dets, _ = mixed_case(np.random.default_rng(5), variant, 9, 0)
    table = DetectionFrame.of(dets)
    assert table._table is None and table.variant == variant and DetectionFrame.of(table) is table
    for rows in ([4, 0, 7], [], slice(2, 6), slice(9, 9)):
        view = table.take(rows)
        want = dets[rows] if isinstance(rows, slice) else [dets[r] for r in rows]
        assert view.variant == variant and repr(view) == f"DetectionFrame({want!r})"
    assert DetectionFrame.of([]) is DetectionFrame.of(()) and DetectionFrame.of([])._table is None
