import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from motkit import metrics
from motkit.formats import GtEntry, TrackRecord, _MotTable, parse_mot, parse_track_file
from motkit.geometry import BoxLTRB, ltrb
from motkit.metrics import clear_mot, idf1
from oracles import clear_enumerate, clear_mot_objects, clear_outcomes, idf1_enumerate, idf1_objects, mot_line


def gt_row(frame, tid, box, consider=True):
    return GtEntry(frame, tid, box, 1, 1.0, consider)


def hyp_row(frame, tid, box, conf=1.0):
    return TrackRecord(frame, tid, box, conf)


BOX = BoxLTRB(10, 10, 30, 50)
FAR_BOX = BoxLTRB(100, 100, 120, 140)


def split_track_fixture():
    """Single 10-frame GT track; hypothesis switches id after frame 5."""
    gt = [gt_row(f, 1, BOX) for f in range(1, 11)]
    hyp = [hyp_row(f, 1 if f <= 5 else 2, BOX) for f in range(1, 11)]
    return gt, hyp


class TestClearMot:
    def test_perfect_tracker(self):
        gt = [gt_row(f, 1, BOX) for f in range(1, 6)] + [gt_row(3, 2, FAR_BOX)]
        hyp = [hyp_row(e.frame, e.track_id, e.box) for e in gt]
        res = clear_mot(gt, hyp)
        assert res.mota == 1.0
        assert (res.fp, res.fn, res.ids) == (0, 0, 0)
        assert res.num_gt == 6

    def test_id_split_fixture(self):
        gt, hyp = split_track_fixture()
        res = clear_mot(gt, hyp)
        assert res.ids == 1
        assert res.mota == pytest.approx(0.9, abs=1e-12)
        assert (res.fp, res.fn) == (0, 0)

    def test_empty_hypothesis(self):
        gt = [gt_row(f, 1, BOX) for f in range(1, 6)]
        res = clear_mot(gt, [])
        assert res.fn == 5 and res.fp == 0 and res.ids == 0
        assert res.mota == 0.0

    def test_no_ground_truth_is_an_error(self):
        with pytest.raises(ValueError):
            clear_mot([], [hyp_row(1, 1, BOX)])

    def test_ignored_entries_removed(self):
        gt = [gt_row(1, 1, BOX), gt_row(1, 2, FAR_BOX, consider=False)]
        res = clear_mot(gt, [hyp_row(1, 1, BOX)])
        assert res.num_gt == 1
        assert res.fn == 0 and res.mota == 1.0

    def test_only_ignored_ground_truth_is_an_error(self):
        with pytest.raises(ValueError):
            clear_mot([gt_row(1, 1, BOX, consider=False)], [])

    def test_low_iou_match_not_counted(self):
        res = clear_mot([gt_row(1, 1, BOX)], [hyp_row(1, 1, FAR_BOX)])
        assert res.fn == 1 and res.fp == 1
        assert res.mota == -1.0  # MOTA may go negative

    def test_continuity_prevents_switch_to_better_box(self):
        # hyp A overlaps gt well; hyp B overlaps even better from frame 2 on.
        # The frame-1 correspondence (gt, A) stays valid and must be kept, so
        # no switch is counted and B becomes a false positive.
        gt_box = BoxLTRB(0, 0, 10, 10)
        a_box = BoxLTRB(0, 0, 10, 14)   # IOU 10/14
        b_box = BoxLTRB(0, 0, 10, 11)   # IOU 10/11
        gt = [gt_row(1, 1, gt_box), gt_row(2, 1, gt_box), gt_row(3, 1, gt_box)]
        hyp = [hyp_row(1, 7, a_box)]
        for f in (2, 3):
            hyp += [hyp_row(f, 7, a_box), hyp_row(f, 8, b_box)]
        res = clear_mot(gt, hyp)
        assert res.ids == 0
        assert res.fp == 2

    def test_reacquired_same_id_not_a_switch(self):
        gt = [gt_row(f, 1, BOX) for f in range(1, 8)]
        hyp = [hyp_row(f, 3, BOX) for f in (1, 2, 3, 6, 7)]  # gap at 4, 5
        res = clear_mot(gt, hyp)
        assert res.ids == 0
        assert res.fn == 2

    def test_switch_after_gap_with_new_id(self):
        gt = [gt_row(f, 1, BOX) for f in range(1, 8)]
        hyp = [hyp_row(f, 3, BOX) for f in (1, 2, 3)] + [hyp_row(f, 4, BOX) for f in (6, 7)]
        res = clear_mot(gt, hyp)
        assert res.ids == 1

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError):
            clear_mot([gt_row(1, 1, BOX), gt_row(1, 1, BOX)], [])
        with pytest.raises(ValueError):
            clear_mot([gt_row(1, 1, BOX)], [hyp_row(1, 2, BOX), hyp_row(1, 2, BOX)])

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        gt, hyp = _random_sequence(rng)
        if not gt:
            gt = [gt_row(1, 1, BOX)]
        base = clear_mot(gt, hyp) if gt else None
        relabel = {tid: 1000 + tid for tid in {r.track_id for r in hyp}}
        hyp2 = [hyp_row(r.frame, relabel[r.track_id], r.box, r.confidence) for r in hyp]
        res2 = clear_mot(gt, hyp2)
        assert (base.mota, base.fp, base.fn, base.ids) == (res2.mota, res2.fp, res2.fn, res2.ids)

    def test_frame_order_permutation_invariance(self):
        gt, hyp = split_track_fixture()
        rng = np.random.default_rng(0)
        gt2 = list(gt)
        hyp2 = list(hyp)
        rng.shuffle(gt2)
        rng.shuffle(hyp2)
        a = clear_mot(gt, hyp)
        b = clear_mot(gt2, hyp2)
        assert a == b


class TestIdf1:
    def test_perfect(self):
        gt = [gt_row(f, 1, BOX) for f in range(1, 6)]
        hyp = [hyp_row(f, 9, BOX) for f in range(1, 6)]
        res = idf1(gt, hyp)
        assert res.idf1 == 1.0
        assert res.idtp == 5 and res.idfp == 0 and res.idfn == 0

    def test_id_split_fixture(self):
        gt, hyp = split_track_fixture()
        res = idf1(gt, hyp)
        assert (res.idtp, res.idfp, res.idfn) == (5, 5, 5)
        assert res.idf1 == pytest.approx(0.5, abs=1e-12)

    def test_empty_hypothesis(self):
        gt = [gt_row(f, 1, BOX) for f in range(1, 4)]
        res = idf1(gt, [])
        assert res.idtp == 0 and res.idf1 == 0.0

    def test_both_empty_is_vacuously_perfect(self):
        res = idf1([], [])
        assert res.idf1 == 1.0

    def test_relabeling_invariance(self):
        gt, hyp = split_track_fixture()
        hyp2 = [hyp_row(r.frame, r.track_id + 50, r.box) for r in hyp]
        assert idf1(gt, hyp).idf1 == idf1(gt, hyp2).idf1

    def test_fragmented_hypothesis_picks_best(self):
        # one gt track covered 7 frames by id A and 3 by id B
        gt = [gt_row(f, 1, BOX) for f in range(1, 11)]
        hyp = [hyp_row(f, 1, BOX) for f in range(1, 8)] + [hyp_row(f, 2, BOX) for f in range(8, 11)]
        res = idf1(gt, hyp)
        assert res.idtp == 7


def _random_sequence(rng, max_tracks=3, max_frames=6):
    """Small random gt/hyp sequences over a coarse box grid."""
    def random_box():
        x = float(rng.integers(0, 4)) * 8
        y = float(rng.integers(0, 4)) * 8
        w = float(rng.integers(1, 3)) * 8
        h = float(rng.integers(1, 3)) * 8
        return BoxLTRB(x, y, x + w, y + h)

    n_frames = int(rng.integers(1, max_frames + 1))
    gt, hyp = [], []
    for tid in range(1, int(rng.integers(1, max_tracks + 1)) + 1):
        for f in range(1, n_frames + 1):
            if rng.random() < 0.75:
                gt.append(gt_row(f, tid, random_box()))
    for tid in range(1, int(rng.integers(1, max_tracks + 1)) + 1):
        for f in range(1, n_frames + 1):
            if rng.random() < 0.75:
                hyp.append(hyp_row(f, tid, random_box()))
    return gt, hyp


class TestAgainstEnumeration:
    def test_idf1_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            gt, hyp = _random_sequence(rng)
            res = idf1(gt, hyp)
            expected_f1, idtp, idfp, idfn = idf1_enumerate(
                [(e.frame, e.track_id, (e.box.left, e.box.top, e.box.right, e.box.bottom)) for e in gt],
                [(r.frame, r.track_id, (r.box.left, r.box.top, r.box.right, r.box.bottom)) for r in hyp],
            )
            assert res.idtp == idtp
            assert res.idf1 == pytest.approx(expected_f1, abs=1e-12)

    def test_count_sanity_bounds(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            gt, hyp = _random_sequence(rng)
            if not gt:
                continue
            res = clear_mot(gt, hyp)
            assert res.fp + res.fn + res.ids <= len(gt) + len(hyp)
            # a switch needs a previously matched frame, so switches are
            # bounded by matched-frame transitions per gt track
            assert res.ids <= max(0, len(gt) - 1)


class TestThresholdDomain:
    @pytest.mark.parametrize("thresh", [math.nan, -1.0, 0.0, 1.0000001, 2.0, math.inf, -math.inf])
    @pytest.mark.parametrize("score", [clear_mot, idf1])
    def test_outside_unit_interval_rejected(self, score, thresh):
        gt, hyp = split_track_fixture()
        with pytest.raises(ValueError, match="threshold"):
            score(gt, hyp, thresh)

    @pytest.mark.parametrize("thresh", [1e-9, 0.5, 1.0])
    def test_inside_accepted(self, thresh):
        gt, hyp = split_track_fixture()
        assert clear_mot(gt, hyp, thresh).ids == 1
        assert idf1(gt, hyp, thresh).idtp == 5


def rows_of(entries):
    return [(e.frame, e.track_id, (e.box.left, e.box.top, e.box.right, e.box.bottom)) for e in entries]


def crowded_sequence(rng):
    """Three to five objects jumping around a small area each frame.

    Hypotheses drop boxes, swap ids, add false alarms and copy a ground-truth
    box exactly often enough that a threshold of 1.0 still matches.
    """
    n_gt = int(rng.integers(3, 6))
    hyp_of = [int(h) for h in rng.permutation(n_gt) + 1]
    gt, hyp = [], []
    for f in range(1, int(rng.integers(3, 8)) + 1):
        if rng.random() < 0.3:
            a, b = rng.choice(n_gt, size=2, replace=False)
            hyp_of[a], hyp_of[b] = hyp_of[b], hyp_of[a]
        for g in range(n_gt):
            if rng.random() < 0.15:
                continue
            x, y = (float(v) for v in rng.uniform(0, 60, size=2))
            w, h = (float(v) for v in rng.uniform(15, 35, size=2))
            box = BoxLTRB(x, y, x + w, y + h)
            gt.append(gt_row(f, g + 1, box))
            if rng.random() < 0.15:
                continue
            if rng.random() >= 0.4:
                dx, dy = (float(v) for v in rng.normal(0, 4, size=2))
                box = BoxLTRB(x + dx, y + dy, x + dx + w, y + dy + h)
            hyp.append(hyp_row(f, hyp_of[g], box))
        if rng.random() < 0.3:
            x, y = (float(v) for v in rng.uniform(0, 60, size=2))
            hyp.append(hyp_row(f, n_gt + 1, BoxLTRB(x, y, x + 20, y + 30)))
    return gt, hyp


def counted_assignments(monkeypatch):
    """Patch ``metrics.linear_sum_assignment`` to append, per call, the hits it is given and the hits it takes.

    A hit is a cell below ``_BIG_COST``; return the list of those pairs of counts.
    """
    calls = []
    real = metrics.linear_sum_assignment

    def counting(cost):
        rows, cols = real(cost)
        calls.append((int((cost < metrics._BIG_COST).sum()), int((cost[rows, cols] < metrics._BIG_COST).sum())))
        return rows, cols

    monkeypatch.setattr(metrics, "linear_sum_assignment", counting)
    return calls


@pytest.fixture(params=["found", "kept"])
def hit_source(request):
    """Return ``prepare(gt, hyp, thresh)``: the tables to score, on which the scorers find the hits
    themselves (``found``) or read the ones :func:`metrics._hits` already kept on the ground-truth table (``kept``)."""
    def prepare(gt, hyp, thresh):
        if request.param == "found":
            return gt, hyp
        g, h = metrics._scored(gt, "ground-truth"), metrics._scored(hyp, "hypothesis")
        metrics._hits(g, h, thresh)
        return g, h

    return prepare


class TestAgainstOraclesAtThresholds:
    @pytest.mark.parametrize("thresh", [0.3, 0.5, 1.0])
    def test_clear_mot_matches_enumeration(self, thresh, hit_source, monkeypatch):
        assignments = counted_assignments(monkeypatch)
        rng = np.random.default_rng(41)
        switches = 0
        for _ in range(60):
            gt, hyp = crowded_sequence(rng)
            res = clear_mot(*hit_source(gt, hyp, thresh), thresh)
            assert (res.fp, res.fn, res.ids) == clear_enumerate(rows_of(gt), rows_of(hyp), thresh)
            switches += res.ids
        # some frames leave two or more free hits to the assignment, so its choice among them is checked
        assert switches > 0 and sum(given >= 2 for given, _ in assignments) > 0

    @pytest.mark.parametrize("thresh", [0.3, 0.5, 1.0])
    def test_idf1_matches_enumeration(self, thresh):
        rng = np.random.default_rng(42)
        for _ in range(30):
            gt, hyp = crowded_sequence(rng)
            res = idf1(gt, hyp, thresh)
            expected_f1, idtp, idfp, idfn = idf1_enumerate(rows_of(gt), rows_of(hyp), thresh)
            assert (res.idtp, res.idfp, res.idfn) == (idtp, idfp, idfn)
            assert res.idf1 == pytest.approx(expected_f1, abs=1e-12)


def wide_sequence(rng):
    """Twenty-four objects on a grid, nearly all tracked exactly, so continuity keeps
    most of a frame's pairs from the last frame, at every threshold."""
    n_gt = 24
    hyp_of = list(range(1, n_gt + 1))
    gt, hyp = [], []
    for f in range(1, int(rng.integers(3, 6)) + 1):
        if rng.random() < 0.5:
            a, b = rng.choice(n_gt, size=2, replace=False)
            hyp_of[a], hyp_of[b] = hyp_of[b], hyp_of[a]
        for g in range(n_gt):
            x, y = 40.0 * (g % 6) + float(rng.uniform(0, 8)), 40.0 * (g // 6) + float(rng.uniform(0, 8))
            box = BoxLTRB(x, y, x + 30, y + 30)
            gt.append(gt_row(f, g + 1, box, consider=rng.random() >= 0.02))
            if rng.random() < 0.03:
                continue
            if rng.random() < 0.05:
                dx, dy = (float(v) for v in rng.normal(0, 4, size=2))
                box = BoxLTRB(x + dx, y + dy, x + dx + 30, y + dy + 30)
            hyp.append(hyp_row(f, hyp_of[g], box))
    return gt, hyp


def mot_texts(gt, hyp):
    """Ground-truth and tracker-output file text of the rows, in the given order."""
    return (
        "".join(mot_line(e.frame, e.track_id, ltrb(e.box), f"{int(e.consider)},{e.class_id},{e.visibility}") for e in gt),
        "".join(mot_line(r.frame, r.track_id, ltrb(r.box), f"{r.confidence},-1,-1,-1") for r in hyp),
    )


def scores(score_clear, score_idf1, gt, hyp, thresh):
    return repr((score_clear(gt, hyp, thresh), score_idf1(gt, hyp, thresh)))


class TestColumnsAgainstObjectScorers:
    @pytest.mark.parametrize("thresh", [0.3, 0.5, 1.0])
    def test_tables_and_lists_equal_the_object_scorers(self, thresh, hit_source, monkeypatch):
        assignments = counted_assignments(monkeypatch)
        rng = np.random.default_rng(43)
        switches = kept = 0
        for k in range(40):
            gt, hyp = wide_sequence(rng) if k % 4 == 0 else crowded_sequence(rng)
            gt_text, hyp_text = mot_texts(gt, hyp)
            for g, h in ((parse_mot(gt_text), parse_track_file(hyp_text)), (gt, hyp)):
                expected = scores(clear_mot_objects, idf1_objects, list(g), list(h), thresh)
                assert scores(clear_mot, idf1, *hit_source(g, h, thresh), thresh) == expected
            start = len(assignments)
            res = clear_mot(gt, hyp, thresh)
            switches += res.ids
            if k % 4 == 0:  # the matches no assignment took were kept from the last frame by continuity
                kept += res.num_gt - res.fn - sum(taken for _, taken in assignments[start:])
        assert switches > 0 and kept > 10 * 24  # more than a whole grid per wide sequence

    @pytest.mark.parametrize("first, ids", [(("1,1", "1,2"), 0), (("1,2", "1,1"), 2)])
    def test_tied_rows_go_to_the_earlier_row_in_the_file(self, first, ids):
        # every frame-1 pair has IOU 1: the assignment takes the rows in file order
        gt_text = "".join(f"{key},{box},1,1,1\n" for key, box in zip(
            (*first, "2,1", "2,2"), ("0,0,10,10", "0,0,10,10", "0,0,10,10", "50,50,10,10")))
        hyp_text = "1,10,0,0,10,10,1,-1,-1,-1\n1,20,0,0,10,10,1,-1,-1,-1\n" \
                   "2,10,0,0,10,10,1,-1,-1,-1\n2,20,50,50,10,10,1,-1,-1,-1\n"
        gt, hyp = parse_mot(gt_text), parse_track_file(hyp_text)
        assert clear_mot(gt, hyp).ids == clear_mot(list(gt), list(hyp)).ids == ids
        assert repr(clear_mot(gt, hyp)) == repr(clear_mot_objects(list(gt), list(hyp)))

    def test_out_of_order_frames_and_frames_of_one_side_only(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            gt, hyp = crowded_sequence(rng)
            hyp += [hyp_row(f, 1, BOX) for f in (40, 41)]  # frames without ground truth
            gt += [gt_row(f, 9, FAR_BOX) for f in (50, 51)]  # frames without hypotheses
            order_gt, order_hyp = rng.permutation(len(gt)), rng.permutation(len(hyp))
            gt, hyp = [gt[k] for k in order_gt], [hyp[k] for k in order_hyp]
            g, h = (parse_mot(mot_texts(gt, [])[0]), parse_track_file(mot_texts([], hyp)[1]))
            for thresh in (0.3, 1.0):
                assert scores(clear_mot, idf1, g, h, thresh) == scores(
                    clear_mot_objects, idf1_objects, list(g), list(h), thresh)

    def test_repeat_after_an_ignored_row_names_the_scored_repeat(self):
        gt = [gt_row(1, 2, BOX, consider=False), gt_row(1, 1, BOX), gt_row(1, 2, BOX), gt_row(2, 1, BOX),
              gt_row(1, 2, FAR_BOX), gt_row(2, 1, FAR_BOX)]
        for rows in (gt, parse_mot(mot_texts(gt, [])[0])):
            with pytest.raises(ValueError) as got:
                clear_mot(rows, [])
            with pytest.raises(ValueError) as expected:
                clear_mot_objects(list(rows), [])
            assert str(got.value) == str(expected.value) == "duplicate ground-truth entry for frame 1, id 2"
            assert got.value.row == 4  # the table row: the ignored row counts
            assert clear_mot(rows[:4], []) == clear_mot_objects(list(rows[:4]), [])

    def test_ids_and_frames_past_int64_stay_exact(self):
        big = 2**63
        gt = [gt_row(big + 1, big, BOX), gt_row(big + 1, big + 1, FAR_BOX), gt_row(2, 2**70, BOX)]
        hyp = [hyp_row(big + 1, 5, BOX), hyp_row(big + 1, big + 2, FAR_BOX), hyp_row(2, 2**70, BOX)]
        g, h = parse_mot(mot_texts(gt, hyp)[0]), parse_track_file(mot_texts(gt, hyp)[1])
        assert g.frame.dtype == object and h.id.dtype == object
        assert scores(clear_mot, idf1, g, h, 0.5) == scores(clear_mot_objects, idf1_objects, gt, hyp, 0.5)
        with pytest.raises(ValueError, match=f"duplicate hypothesis entry for frame {big + 1}, id {big + 2}$"):
            clear_mot(g, list(h) + [hyp_row(big + 1, big + 2, BOX)])


# x-edges that share, touch, nest and have zero width, at the largest finite magnitudes and infinite (which only
# the API admits); y-extents from a few edges, so that boxes whose x-extents meet may still miss in y
x_edges = st.sampled_from([0.0, 1.0, 2.5, 3.0, 7.0, 10.0]) | st.floats(-20, 20) | st.sampled_from(
    [-sys.float_info.max, -1e308, 1e308, sys.float_info.max, -math.inf, math.inf])
y_edges = st.sampled_from([0.0, 1.0, 4.0, 9.0])
boxes = st.tuples(st.tuples(x_edges, x_edges).map(sorted), st.tuples(y_edges, y_edges).map(sorted)).map(
    lambda e: BoxLTRB(e[0][0], e[1][0], e[0][1], e[1][1]))


@st.composite
def id_tables(draw):
    """Ground truth and hypotheses over a few frames, one past int64, whose boxes come from one small pool."""
    pool = draw(st.lists(boxes, min_size=1, max_size=4))
    rows = st.lists(st.tuples(st.sampled_from([1, 2, 3, 2**64 + 1]), st.integers(1, 3), st.sampled_from(pool)),
                    max_size=10, unique_by=lambda r: r[:2])
    return [gt_row(*r) for r in draw(rows)], [hyp_row(*r) for r in draw(rows)]


def counted_broad_phase(monkeypatch):
    """Patch ``metrics.x_overlap_pairs`` to append the pairs each call keeps; return that list."""
    calls = []
    real = metrics.x_overlap_pairs

    def counting(*keys):
        rows, cols = real(*keys)
        calls.append(len(rows))
        return rows, cols

    monkeypatch.setattr(metrics, "x_overlap_pairs", counting)
    return calls


def sparse_crowd_sequence(rng):
    """150 objects in 1920² over five frames, mostly disjoint; hypotheses jitter, drop and relabel them."""
    gt, hyp = [], []
    hyp_of = rng.permutation(150) + 1
    for f in range(1, 6):
        xy = rng.uniform(0, 1880, size=(150, 2))
        wh = rng.uniform(20, 60, size=(150, 2))
        for g in range(150):
            (x, y), (w, h) = xy[g].tolist(), wh[g].tolist()
            gt.append(gt_row(f, g + 1, BoxLTRB(x, y, x + w, y + h)))
            if rng.random() < 0.9:
                dx, dy = rng.normal(0, 3, size=2).tolist()
                h_id = int(hyp_of[g]) + 1000 * (f > 3 and g % 7 == 0)  # a seventh of the tracks relabeled late
                hyp.append(hyp_row(f, h_id, BoxLTRB(x + dx, y + dy, x + dx + w, y + dy + h)))
    return gt, hyp


class TestIdf1OnCandidatePairs:
    """CLEAR and IDF1 score the hits found on same-frame x-overlap candidates; every score equals the referees'."""

    @settings(max_examples=400, deadline=None)
    @given(id_tables(), st.sampled_from([0.3, 0.5, 1.0]))
    @example(([], []), 0.5)
    @example(([gt_row(1, 1, BOX)], []), 0.5)
    @example(([], [hyp_row(1, 1, BOX)]), 0.5)
    def test_equals_the_referees(self, tables, thresh):
        gt, hyp = tables
        got = idf1(_MotTable.of(gt), _MotTable.of(hyp), thresh)
        assert repr(got) == repr(idf1_objects(gt, hyp, thresh))
        want = idf1_enumerate(rows_of(gt), rows_of(hyp), thresh)
        assert repr((got.idf1, got.idtp, got.idfp, got.idfn)) == repr(want)
        try:
            clear = clear_mot(_MotTable.of(gt), _MotTable.of(hyp), thresh)
        except ValueError as exc:
            with pytest.raises(ValueError) as expected:
                clear_mot_objects(gt, hyp, thresh)
            assert str(exc) == str(expected.value)
        else:
            assert repr(clear) == repr(clear_mot_objects(gt, hyp, thresh))
            # the solver's pick among tied matchings is one of the enumerated ones; without ties, the one
            assert (clear.fp, clear.fn, clear.ids) in set(clear_outcomes(rows_of(gt), rows_of(hyp), thresh))

    def test_one_gt_table_against_two_hyp_tables_and_two_thresholds(self):
        # the hits kept on the ground-truth table belong to one hypothesis table and threshold: no answer reuses them
        gt, hyp = crowded_sequence(np.random.default_rng(46))
        shifted = [hyp_row(r.frame, r.track_id, BoxLTRB(r.box.left + 2, r.box.top, r.box.right + 2, r.box.bottom))
                   for r in hyp]
        g = metrics._scored(_MotTable.of(gt), "ground-truth")
        tables = [(h, metrics._scored(_MotTable.of(h), "hypothesis")) for h in (hyp, shifted)]
        answers = []
        # each step changes the hypothesis table or the threshold, not both
        for k, thresh in [(0, 0.3), (1, 0.3), (1, 1.0), (0, 1.0), (0, 0.3)]:
            h, table = tables[k]
            answers.append(scores(clear_mot, idf1, g, table, thresh))
            assert answers[-1] == scores(clear_mot_objects, idf1_objects, gt, h, thresh)
        assert len(set(answers)) == 4

    def test_both_scorers_share_one_broad_phase(self, monkeypatch):
        calls = counted_broad_phase(monkeypatch)
        gt, hyp = crowded_sequence(np.random.default_rng(47))
        g, h = metrics._scored(_MotTable.of(gt), "ground-truth"), metrics._scored(_MotTable.of(hyp), "hypothesis")
        assert scores(clear_mot, idf1, g, h, 0.5) == scores(clear_mot_objects, idf1_objects, gt, hyp, 0.5)
        assert len(calls) == 1

    def test_an_infinite_edge_takes_every_pair_of_its_frame(self, monkeypatch):
        calls = counted_broad_phase(monkeypatch)
        gt = [gt_row(1, 1, BOX), gt_row(1, 2, BoxLTRB(-math.inf, 0, 5, 1)), gt_row(2, 1, BOX), gt_row(3, 1, BOX)]
        hyp = [hyp_row(1, 7, BOX), hyp_row(1, 8, FAR_BOX), hyp_row(2, 7, FAR_BOX), hyp_row(2, 8, BOX)]
        got = idf1(gt, hyp)
        assert calls == [2 * 2 + 1 * 2]  # frame 3 has no hypotheses
        assert (got.idtp, got.idfp, got.idfn) == (1, 3, 3)
        assert repr(got) == repr(idf1_objects(gt, hyp))

    def test_a_crowd_takes_one_call_on_under_a_tenth_of_the_cells(self, monkeypatch):
        calls = counted_broad_phase(monkeypatch)
        gt, hyp = sparse_crowd_sequence(np.random.default_rng(45))
        got = idf1(gt, hyp)
        assert repr(got) == repr(idf1_objects(gt, hyp)) and got.idtp > 0.8 * len(hyp)
        cells = sum(sum(e.frame == f for e in gt) * sum(r.frame == f for r in hyp) for f in range(1, 6))
        assert len(calls) == 1 and 0 < calls[0] < cells // 10
