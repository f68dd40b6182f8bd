import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motkit.geometry import (
    BoxLTRB,
    Displacement,
    Point2,
    Size2,
    TrackedSizeLTRB,
    TrackedSizeWH,
    box_from_center_size,
    iou,
    iou_array,
    iou_ltrb,
    ltrb,
    size_gate,
    tracked_box_ltrb,
    tracked_box_wh,
    x_overlap_pairs,
)
from oracles import iou_ltrb_minmax, raster_iou

coords = st.floats(-1000, 1000, allow_nan=False, allow_infinity=False)
sizes = st.floats(0, 500, allow_nan=False, allow_infinity=False)


def boxes():
    return st.builds(
        lambda x, y, w, h: BoxLTRB(x, y, x + w, y + h), coords, coords, sizes, sizes
    )


class TestIou:
    def test_identical_boxes(self):
        b = BoxLTRB(0, 0, 1, 1)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoxLTRB(0, 0, 1, 1), BoxLTRB(5, 5, 6, 6)) == 0.0

    def test_one_third_overlap(self):
        # inter 2, union 6
        assert iou(BoxLTRB(0, 0, 2, 2), BoxLTRB(1, 0, 3, 2)) == pytest.approx(1 / 3, abs=1e-15)

    def test_degenerate_pair_is_zero(self):
        p = BoxLTRB(3, 3, 3, 3)
        assert iou(p, p) == 0.0

    def test_touching_edges_do_not_intersect(self):
        assert iou(BoxLTRB(0, 0, 1, 1), BoxLTRB(1, 0, 2, 1)) == 0.0

    @given(boxes(), boxes())
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    # dyadic pixel coordinates (multiples of 1/64) keep every sum exactly
    # representable; with arbitrary floats a subpixel box can be absorbed
    # entirely by rounding when shifted, which no implementation survives
    dyadic = st.integers(-64000, 64000).map(lambda n: n / 64.0)
    dyadic_size = st.integers(0, 32000).map(lambda n: n / 64.0)

    @given(dyadic, dyadic, dyadic_size, dyadic_size, dyadic, dyadic, dyadic_size, dyadic_size, dyadic, dyadic)
    def test_translation_invariant(self, ax, ay, aw, ah, bx, by, bw, bh, dx, dy):
        a = BoxLTRB(ax, ay, ax + aw, ay + ah)
        b = BoxLTRB(bx, by, bx + bw, by + bh)
        shifted_a = BoxLTRB(a.left + dx, a.top + dy, a.right + dx, a.bottom + dy)
        shifted_b = BoxLTRB(b.left + dx, b.top + dy, b.right + dx, b.bottom + dy)
        assert iou(shifted_a, shifted_b) == pytest.approx(iou(a, b), abs=1e-12)

    @given(boxes())
    def test_self_iou_is_one_when_nondegenerate(self, a):
        if a.area > 0:
            assert iou(a, a) == 1.0

    def test_matches_rasterization_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            l1, t1, l2, t2 = rng.integers(0, 56, size=4)
            a = (int(l1), int(t1), int(l1 + rng.integers(1, 64 - l1 + 1)), int(t1 + rng.integers(1, 64 - t1 + 1)))
            b = (int(l2), int(t2), int(l2 + rng.integers(1, 64 - l2 + 1)), int(t2 + rng.integers(1, 64 - t2 + 1)))
            inter, union, expected = raster_iou(a, b)
            got = iou(BoxLTRB(*a), BoxLTRB(*b))
            assert got == expected


def related_boxes():
    """Pairs built around the kernel's edge cases: touching, nested, zero-area or unrelated."""
    def touching(a, d):
        return BoxLTRB(a.right, a.top + d, a.right + a.width + 1.0, a.bottom + d)

    def nested(a, d):
        f = min(abs(d) / 1000.0, 0.5)
        top = min(a.top + f * a.height, a.bottom)
        return BoxLTRB(min(a.left + f * a.width, a.right), top, a.right, max(top, a.bottom - f * a.height))

    def zero_area(a, d):
        return BoxLTRB(a.left + d, a.top, a.left + d, a.bottom)

    relate = st.sampled_from([touching, nested, zero_area, None])
    return st.builds(
        lambda a, b, d, r: (a, r(a, d) if r else b), boxes(), boxes(), coords, relate
    )


#: Edge values where comparisons and ``min``/``max`` could part: NaN, infinities, signed zeros, the float limit.
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, sys.float_info.max, -sys.float_info.max, 8.9e307, -8.9e307]
edge = st.one_of(st.sampled_from(SPECIAL), st.floats(-4, 4), st.floats())


@st.composite
def edge_row_pairs(draw):
    """Two ltrb rows, each a list or a tuple; the second reuses edges of the first, so edges meet and touch."""
    a = [draw(edge) for _ in range(4)]
    b = [draw(st.one_of(edge, st.sampled_from(a))) for _ in range(4)]
    return draw(st.sampled_from([list, tuple]))(a), draw(st.sampled_from([list, tuple]))(b)


class TestIouLtrb:
    @settings(max_examples=300)
    @given(st.one_of(edge_row_pairs(), related_boxes().map(lambda p: (ltrb(p[0]), list(ltrb(p[1]))))))
    def test_equals_the_min_max_referee_bit_for_bit(self, rows):
        a, b = rows
        # repr tells -0.0 from 0.0, and NaN only equals itself this way
        assert repr(iou_ltrb(a, b)) == repr(iou_ltrb_minmax(a, b))
        assert repr(iou_ltrb(b, a)) == repr(iou_ltrb_minmax(b, a))

    def test_every_edge_special_against_each_relation(self):
        # each of the eight edges in turn NaN, infinite, -0.0 or at the float limit, the
        # other box disjoint, overlapping, touching or equal: a pick that parts from min
        # or max on NaN changes the result in some of these
        a = [0.0, 0.0, 1.0, 1.0]
        for b in ([2.0, 0.0, 3.0, 1.0], [0.5, 0.5, 2.0, 2.0], [1.0, 0.0, 2.0, 1.0], a):
            for k, value in itertools.product(range(8), [math.nan, math.inf, -math.inf, -0.0, sys.float_info.max]):
                row = a + b
                row[k] = value
                x, y = row[:4], tuple(row[4:])
                assert repr(iou_ltrb(x, y)) == repr(iou_ltrb_minmax(x, y))
                assert repr(iou_ltrb(y, x)) == repr(iou_ltrb_minmax(y, x))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestIouArray:
    @given(st.lists(related_boxes(), min_size=1, max_size=6))
    def test_bitwise_equal_to_scalar_both_orders(self, pairs):
        firsts = [p for p, _ in pairs]
        seconds = [q for _, q in pairs]
        a = np.array([ltrb(p) for p in firsts])
        b = np.array([ltrb(q) for q in seconds])
        for x, y, xs, ys in ((a, b, firsts, seconds), (b, a, seconds, firsts)):
            assert np.array_equal(bits(iou_array(x, y)), bits([iou(p, q) for p, q in zip(xs, ys)]))
            matrix = iou_array(x[:, None], y[None])
            assert np.array_equal(bits(matrix), bits([[iou(p, q) for q in ys] for p in xs]))

    def test_edge_cases_hold_their_values(self):
        a = np.array([ltrb(BoxLTRB(0, 0, 1, 1))] * 4)
        b = np.array([ltrb(box) for box in (
            BoxLTRB(1, 0, 2, 1),            # touching edge
            BoxLTRB(0.25, 0.25, 0.75, 0.75),  # nested
            BoxLTRB(0.5, 0, 0.5, 1),        # zero area inside
            BoxLTRB(-3, -3, -2, -2),        # disjoint, negative
        )])
        assert iou_array(a, b).tolist() == [0.0, 0.25, 0.0, 0.0]
        p = np.array([ltrb(BoxLTRB(3, 3, 3, 3))])
        assert iou_array(p, p).tolist() == [0.0]

    def test_far_apart_boxes_at_the_float_limit(self):
        # iw overflows to -inf; where the boxes also touch (ih = 0), iw * ih is NaN
        a = [BoxLTRB(-1.7e308, 0, -1.6e308, 1), BoxLTRB(-1.7e308, 0, -1.6e308, 2)]
        b = [BoxLTRB(1.6e308, 1, 1.7e308, 2), BoxLTRB(1.6e308, 0, 1.7e308, 3)]
        matrix = iou_array(np.array([ltrb(p) for p in a])[:, None], np.array([ltrb(q) for q in b])[None])
        assert np.array_equal(bits(matrix), bits([[iou(p, q) for q in b] for p in a]))
        assert matrix.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_infinite_edges_equal_scalar_without_a_warning(self):
        # an edge at inf makes an infinite area, two make an inf - inf width: NaN, as with Python floats
        inf = math.inf
        a = [BoxLTRB(0, 0, inf, 1), BoxLTRB(inf, 0, inf, 1), BoxLTRB(-inf, -inf, inf, inf), BoxLTRB(0, 0, 1, 1)]
        rows = np.array([ltrb(p) for p in a])
        matrix = iou_array(rows[:, None], rows[None])
        assert np.array_equal(bits(matrix), bits([[iou(p, q) for q in a] for p in a]))

    def test_pairwise_shapes_including_empty(self):
        a = np.array([ltrb(BoxLTRB(0, 0, 2, 2))] * 3)
        assert iou_array(a[:, None], a[None]).shape == (3, 3)
        assert iou_array(np.zeros((0, 4))[:, None], a[None]).shape == (0, 3)
        assert iou_array(a[:, None], np.zeros((0, 4))[None]).shape == (3, 0)


def meeting_pairs(lo, hi, other_lo, other_hi, group=None, other_group=None):
    """Every (i, j) whose closed x-extents meet, and whose groups are equal if given, by brute force."""
    return {
        (i, j) for i in range(len(lo)) for j in range(len(other_lo))
        if lo[i] <= other_hi[j] and other_lo[j] <= hi[i] and (group is None or group[i] == other_group[j])
    }


# few distinct edges, so extents share edges, touch, nest and have zero width
edges = st.sampled_from([0.0, 1.0, 2.5, 3.0, 7.0, 10.0]) | st.floats(-20, 20, allow_nan=False)
extents = st.lists(st.tuples(edges, edges).map(sorted), max_size=12)
# the same in a few groups, with edges at the largest finite magnitudes, whose widened keys overflow
huge = st.sampled_from([-sys.float_info.max, -1e308, 1e308, sys.float_info.max])
grouped_extents = st.lists(st.tuples(st.integers(0, 3), st.tuples(edges | huge, edges | huge).map(sorted)), max_size=12)


def grouped_keys(extents):
    """The group keys and the left and right edges of (group, (lo, hi)) extents, as arrays."""
    group = np.array([g for g, _ in extents], dtype=int)
    lo, hi = np.array([x for _, x in extents], dtype=float).reshape(-1, 2).T
    return group, lo, hi


class TestXOverlapPairs:
    @settings(max_examples=300)
    @given(extents, extents)
    def test_keeps_every_meeting_pair_once(self, rows_x, cols_x):
        (lo, hi), (other_lo, other_hi) = (np.array(x, dtype=float).reshape(-1, 2).T for x in (rows_x, cols_x))
        rows, cols = x_overlap_pairs(lo, hi, other_lo, other_hi)
        got = list(zip(rows.tolist(), cols.tolist()))
        assert len(set(got)) == len(got)
        assert meeting_pairs(lo, hi, other_lo, other_hi) <= set(got)

    @settings(max_examples=300)
    @given(grouped_extents, grouped_extents)
    def test_grouped_keeps_every_meeting_pair_of_one_group_once(self, rows_x, cols_x):
        (group, lo, hi), (other_group, other_lo, other_hi) = grouped_keys(rows_x), grouped_keys(cols_x)
        rows, cols = x_overlap_pairs(lo, hi, other_lo, other_hi, group, other_group)
        got = list(zip(rows.tolist(), cols.tolist()))
        assert len(set(got)) == len(got)
        assert all(group[i] == other_group[j] for i, j in got)
        assert meeting_pairs(lo, hi, other_lo, other_hi, group, other_group) <= set(got)

    def test_a_group_starts_its_own_running_maximum(self):
        # group 0's wide extent reaches past every row's x, but no row of group 1 meets it
        lo, hi, group = np.array([50.0, 70.0]), np.array([60.0, 80.0]), np.array([1, 1])
        other_lo, other_hi = np.array([0.0, 55.0, 90.0]), np.array([100.0, 58.0, 95.0])
        rows, cols = x_overlap_pairs(lo, hi, other_lo, other_hi, group, np.array([0, 1, 1]))
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 1)]

    def test_a_spanning_extent_meets_every_row(self):
        lo, hi = np.arange(0.0, 100.0, 10.0), np.arange(5.0, 105.0, 10.0)
        other_lo, other_hi = np.array([40.0, -1.0, 90.0, 11.0]), np.array([44.0, 200.0, 90.0, 12.0])
        rows, cols = x_overlap_pairs(lo, hi, other_lo, other_hi)
        assert set(zip(rows.tolist(), cols.tolist())) == meeting_pairs(lo, hi, other_lo, other_hi)
        assert int((cols == 1).sum()) == len(lo)

    @settings(max_examples=500)
    @given(
        st.floats(-1e300, 1e300, allow_nan=False),
        st.floats(0, 1e300, allow_nan=False),
        st.integers(-8, 8),
        st.booleans(),
    )
    def test_keeps_every_center_the_gate_admits(self, x, gate, quarters, right):
        # a center within 2 ulps of the gate from x + gate or x - gate, exactly, then rounded:
        # kept whenever |x - c| <= gate as floats compute it, though c can lie past x +- gate as computed
        edge = Fraction(x) + (Fraction(gate) if right else -Fraction(gate))
        c = float(edge + Fraction(quarters, 4) * Fraction(math.ulp(gate)))
        rows, _ = x_overlap_pairs(np.array([x]) - gate, np.array([x]) + gate, np.array([c]), np.array([c]))
        if abs(x - c) <= gate:
            assert rows.tolist() == [0]

    def test_keeps_a_center_past_the_computed_window(self):
        # x + gate is 2**-52 exactly, c is past it, yet x - c rounds to -gate
        x, gate, c = -1.0, 1.0 + 2.0**-52, 2.0**-52 + 2.0**-54
        assert c > x + gate and abs(x - c) == gate
        for scale in (2.0**-1000, 1.0, 2.0**900):
            for sign in (1.0, -1.0):
                xs, gs, cs = sign * x * scale, gate * scale, sign * c * scale
                assert abs(xs - cs) == gs and abs(cs) > abs(xs + sign * gs)
                rows, _ = x_overlap_pairs(np.array([xs - gs]), np.array([xs + gs]), np.array([cs]), np.array([cs]))
                assert rows.tolist() == [0]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", range(4))
    def test_a_key_not_finite_gives_every_pair(self, value, key):
        keys = [np.array([0.0, 10.0, 20.0]), np.array([1.0, 11.0, 21.0]), np.array([0.5, 50.0]), np.array([0.7, 60.0])]
        keys[key][0] = value
        rows, cols = x_overlap_pairs(*keys)
        assert rows.tolist() == [0, 0, 1, 1, 2, 2] and cols.tolist() == [0, 1] * 3
        rows, cols = x_overlap_pairs(*keys, np.array([0, 1, 1]), np.array([1, 0]))
        assert sorted(zip(rows.tolist(), cols.tolist())) == [(0, 1), (1, 0), (2, 0)]  # every pair of one group


class TestBoxConstruction:
    def test_from_center_size(self):
        assert box_from_center_size(Point2(10, 10), Size2(4, 2)) == BoxLTRB(8, 9, 12, 11)

    def test_degenerate_point_box(self):
        assert box_from_center_size(Point2(0, 0), Size2(0, 0)) == BoxLTRB(0, 0, 0, 0)

    @given(coords, coords, sizes, sizes)
    def test_center_round_trip(self, x, y, w, h):
        b = box_from_center_size(Point2(x, y), Size2(w, h))
        assert b.center.x == pytest.approx(x, abs=1e-9)
        assert b.center.y == pytest.approx(y, abs=1e-9)

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            BoxLTRB(5, 0, 3, 1)
        with pytest.raises(ValueError):
            Size2(-1, 2)


class TestTrackedBoxWH:
    def test_zero_size_change(self):
        b = tracked_box_wh(Point2(10, 10), Size2(4, 4), Displacement(2, 0), TrackedSizeWH(0, 0))
        assert b.center == Point2(8, 10)
        assert (b.width, b.height) == (4, 4)

    def test_previous_size_recovered(self):
        # current size (6, 4), size grew by (2, 0), so previous was (4, 4)
        b = tracked_box_wh(Point2(10, 10), Size2(6, 4), Displacement(0, 0), TrackedSizeWH(2, 0))
        assert b == BoxLTRB(8, 8, 12, 12)

    def test_oversized_change_clamps_to_degenerate(self):
        b = tracked_box_wh(Point2(10, 10), Size2(4, 4), Displacement(1, 1), TrackedSizeWH(10, 10))
        assert b == BoxLTRB(9, 9, 9, 9)
        assert b.area == 0

    @given(coords, coords, sizes, sizes)
    def test_identity_when_nothing_changes(self, x, y, w, h):
        c, s = Point2(x, y), Size2(w, h)
        assert tracked_box_wh(c, s, Displacement(0, 0), TrackedSizeWH(0, 0)) == box_from_center_size(c, s)


class TestTrackedBoxLTRB:
    def test_identity_passthrough(self):
        assert tracked_box_ltrb(TrackedSizeLTRB(8, 8, 12, 12)) == BoxLTRB(8, 8, 12, 12)

    def test_flipped_vertical_edges_normalize(self):
        # previous object centered (10, 10), size (4, 4), edges written y-up
        assert tracked_box_ltrb(TrackedSizeLTRB(8, 12, 12, 8)) == BoxLTRB(8, 8, 12, 12)

    def test_zero_size(self):
        assert tracked_box_ltrb(TrackedSizeLTRB(5, 5, 5, 5)) == BoxLTRB(5, 5, 5, 5)


class TestSizeGate:
    def test_geometric_mean(self):
        assert size_gate(Size2(4, 9)) == 6.0

    def test_zero(self):
        assert size_gate(Size2(0, 0)) == 0.0

    def test_square(self):
        assert size_gate(Size2(5, 5)) == 5.0

    @given(sizes, sizes)
    def test_nonnegative(self, w, h):
        assert size_gate(Size2(w, h)) >= 0.0
        assert math.isfinite(size_gate(Size2(w, h)))
