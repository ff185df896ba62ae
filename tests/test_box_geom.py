import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from voxeldet.box_geom import (
    Box3D,
    Detection,
    bev_iou,
    build_anchor_grid,
    decode,
    direction_bit,
    encode,
    iou3d,
    oriented_nms,
    pairwise_bev_iou,
    pairwise_iou3d,
    wrap_angle,
)
from voxeldet.box_geom import _bev_overlap

from helpers import clipped_bev_area, monte_carlo_bev_iou


def _box(x=0.0, y=0.0, z=0.0, w=1.0, l=1.0, h=1.0, theta=0.0):
    return Box3D(x, y, z, w, l, h, theta)


def _random_boxes(rng, n, span):
    return np.column_stack([rng.uniform(-span, span, (n, 2)), rng.uniform(-1, 1, n),
                            rng.uniform(0.5, 4, (n, 3)), rng.uniform(-np.pi, np.pi, n)])


def _near_degenerate_pairs(n, seed):
    """Row pairs up to 60 m out: a box and itself shifted by 0, 1/2 or 1 length and
    width, turned 1e-16 to 1e-6 rad. Inside tests flicker on the shared edges, and
    some batches of 20k clip a polygon to more than 8 vertices."""
    rng = np.random.default_rng(seed)
    a = _random_boxes(rng, n, 60.0)
    along, across = rng.choice([0.0, 0.0, 0.0, 0.5, 1.0], (2, n)) * a[:, [4, 3]].T
    c, s = np.cos(a[:, 6]), np.sin(a[:, 6])
    b = a.copy()
    b[:, 0] += c * along - s * across
    b[:, 1] += s * along + c * across
    b[:, 6] += rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16, -6, n)
    return a, b


box_strategy = st.builds(
    Box3D,
    x=st.floats(-50, 50),
    y=st.floats(-50, 50),
    z=st.floats(-3, 3),
    w=st.floats(0.2, 5),
    l=st.floats(0.2, 8),
    h=st.floats(0.2, 4),
    theta=st.floats(-np.pi + 1e-9, np.pi),
)


class TestWrapAngle:
    def test_half_open_interval(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)

    @given(st.floats(-100, 100))
    def test_range(self, t):
        w = wrap_angle(t)
        assert -np.pi < w <= np.pi


class TestBevIou:
    def test_identical(self):
        for theta in (0.3, np.pi / 4, np.pi / 2, -np.pi + 1e-9):
            b = _box(w=1.6, l=3.9, theta=theta)
            assert bev_iou(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_square_and_its_45_degree_turn_meet_in_an_octagon(self):
        inter = 2.0 * (np.sqrt(2.0) - 1.0)
        assert bev_iou(_box(), _box(theta=np.pi / 4)) == pytest.approx(inter / (2.0 - inter),
                                                                        abs=1e-12)

    def test_containment(self):
        big = _box(x=1.0, w=4.0, l=6.0, theta=0.3)
        small = _box(x=1.5, y=0.2, w=1.0, l=2.0, theta=-0.9)
        assert bev_iou(big, small) == pytest.approx(2.0 / 24.0, abs=1e-12)
        assert bev_iou(small, big) == pytest.approx(2.0 / 24.0, abs=1e-12)

    @pytest.mark.parametrize("other", [_box(x=1.0), _box(x=1.0, y=1.0)], ids=["edge", "corner"])
    def test_touching(self, other):
        assert bev_iou(_box(), other) == 0.0
        assert bev_iou(other, _box()) == 0.0

    def test_half_shifted_unit_squares(self):
        a = _box()
        b = _box(x=0.5)
        assert bev_iou(a, b) == pytest.approx(0.5 / 1.5)

    def test_disjoint(self):
        assert bev_iou(_box(), _box(x=10.0)) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = Box3D(*rng.uniform(-2, 2, 3), *rng.uniform(0.5, 3, 3), rng.uniform(-np.pi, np.pi))
            b = Box3D(*rng.uniform(-2, 2, 3), *rng.uniform(0.5, 3, 3), rng.uniform(-np.pi, np.pi))
            assert bev_iou(a, b) == pytest.approx(bev_iou(b, a), abs=1e-12)

    def test_rotated_cross(self):
        # two 1x3 rectangles crossing at right angles share a 1x1 square
        a = _box(w=1.0, l=3.0)
        b = _box(w=1.0, l=3.0, theta=np.pi / 2)
        assert bev_iou(a, b) == pytest.approx(1.0 / 5.0)

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            a = np.array([*rng.uniform(-3, 3, 2), 0.0, *rng.uniform(0.5, 4, 2), 1.0,
                          rng.uniform(-np.pi, np.pi)])
            b = np.array([*rng.uniform(-3, 3, 2), 0.0, *rng.uniform(0.5, 4, 2), 1.0,
                          rng.uniform(-np.pi, np.pi)])
            exact = bev_iou(a, b)
            approx = monte_carlo_bev_iou(a, b, n_samples=200_000, seed=trial)
            assert exact == pytest.approx(approx, abs=5e-3)

    def test_overlap_matches_scalar_clipper(self):
        a, b = _near_degenerate_pairs(1000, 5)
        rng = np.random.default_rng(6)
        a = np.vstack([a, _random_boxes(rng, 300, 3.0)])
        b = np.vstack([b, _random_boxes(rng, 300, 3.0)])
        want = [clipped_bev_area(x, y) for x, y in zip(a, b)]
        np.testing.assert_allclose(_bev_overlap(a, b), want, rtol=0.0, atol=1e-10)

    def test_pairwise_equals_scalar(self):
        rng = np.random.default_rng(3)
        a, b = _near_degenerate_pairs(8, 4)
        boxes_a = np.vstack([_random_boxes(rng, 16, 6.0), a])
        boxes_b = np.vstack([_random_boxes(rng, 16, 6.0), b])
        for pairwise, scalar in ((pairwise_bev_iou, bev_iou), (pairwise_iou3d, iou3d)):
            got = pairwise(boxes_a, boxes_b)
            want = np.array([[scalar(x, y) for y in boxes_b] for x in boxes_a])
            assert np.array_equal(got, want)
            assert 0 < np.count_nonzero(got) < got.size / 2
            assert pairwise(boxes_a[:0], boxes_b).shape == (0, len(boxes_b))
            assert pairwise(boxes_a, boxes_b[:0]).shape == (len(boxes_a), 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_near_degenerate_stress(self, seed):
        a, b = _near_degenerate_pairs(20_000, 100 + seed)
        area = _bev_overlap(a, b)
        smaller = np.minimum(a[:, 3] * a[:, 4], b[:, 3] * b[:, 4])
        assert np.all((area >= 0.0) & (area <= smaller + 1e-9))
        for pairwise in (pairwise_bev_iou, pairwise_iou3d):
            iou = pairwise(a[:200], b[:200])
            assert np.all((iou >= 0.0) & (iou <= 1.0))


class TestIou3d:
    def test_identical(self):
        b = _box(w=1.6, l=3.9, h=1.5, theta=-0.7)
        assert iou3d(b, b) == pytest.approx(1.0)

    def test_half_height_shift(self):
        a = _box(h=2.0)
        b = _box(z=1.0, h=2.0)
        assert iou3d(a, b) == pytest.approx(1.0 / 3.0)

    def test_no_z_overlap(self):
        assert iou3d(_box(), _box(z=5.0)) == 0.0


class TestCodec:
    def test_identity_residuals(self):
        b = _box(x=3, y=4, z=-1, w=1.6, l=3.9, h=1.56, theta=0.4)
        np.testing.assert_allclose(encode(b, b), np.zeros(7), atol=1e-15)

    def test_diagonal_normalized_shift(self):
        anchor = _box(w=1.6, l=3.9, h=1.56)
        d = np.sqrt(1.6**2 + 3.9**2)
        gt = _box(x=d, w=1.6, l=3.9, h=1.56)
        res = encode(gt, anchor)
        np.testing.assert_allclose(res, [1, 0, 0, 0, 0, 0, 0], atol=1e-12)

    def test_log_width_ratio(self):
        anchor = _box(w=1.0)
        gt = _box(w=2.0)
        assert encode(gt, anchor)[3] == pytest.approx(np.log(2.0))

    def test_decode_flipped_bit(self):
        anchor = _box(theta=0.3)
        decoded = decode(np.zeros(7), anchor, bit=0)
        assert decoded[6] == pytest.approx(wrap_angle(0.3 + np.pi))
        np.testing.assert_allclose(decoded[:6], anchor.as_array()[:6], atol=1e-12)

    def test_decode_height(self):
        anchor = _box(h=1.5)
        res = np.zeros(7)
        res[5] = np.log(2.0)
        assert decode(res, anchor)[5] == pytest.approx(3.0)

    @settings(max_examples=200)
    @given(gt=box_strategy, anchor=box_strategy)
    def test_roundtrip(self, gt, anchor):
        # at the bin edges (theta = 0 or pi) the direction bit itself is
        # ambiguous at float resolution, so the identity is only a.e.
        assume(abs(gt.theta) > 1e-6 and np.pi - abs(gt.theta) > 1e-6)
        res = encode(gt, anchor)
        bit = int(direction_bit(gt.theta))
        back = decode(res, anchor, bit=bit)
        np.testing.assert_allclose(back, gt.as_array(), atol=1e-12)

    @settings(max_examples=100)
    @given(gt=box_strategy, anchor=box_strategy,
           dx=st.floats(-30, 30), dy=st.floats(-30, 30))
    def test_translation_invariance(self, gt, anchor, dx, dy):
        res = encode(gt, anchor)
        shift = np.array([dx, dy, 0, 0, 0, 0, 0])
        res2 = encode(gt.as_array() + shift, anchor.as_array() + shift)
        np.testing.assert_allclose(res2, res, atol=1e-9)


class TestNms:
    def test_duplicate_suppressed(self):
        b = _box(w=1.6, l=3.9)
        kept = oriented_nms([Detection(b, 0.9), Detection(b, 0.8)], 0.05)
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_disjoint_kept(self):
        kept = oriented_nms([Detection(_box(), 0.9), Detection(_box(x=10), 0.8)], 0.05)
        assert len(kept) == 2

    def test_chain_suppression(self):
        a = Detection(_box(x=0.0), 0.9)
        b = Detection(_box(x=0.8), 0.8)
        c = Detection(_box(x=1.6), 0.7)
        kept = oriented_nms([a, b, c], 0.05)
        assert [d.score for d in kept] == [0.9, 0.7]

    def test_tie_keeps_earlier(self):
        b, shifted = _box(), _box(x=0.01)
        kept = oriented_nms([Detection(b, 0.5), Detection(shifted, 0.5)], 0.05)
        assert len(kept) == 1 and kept[0].box == b
        kept = oriented_nms([Detection(shifted, 0.5), Detection(b, 0.5)], 0.05)
        assert len(kept) == 1 and kept[0].box == shifted

    def test_kept_are_antichain(self):
        rng = np.random.default_rng(1)
        dets = [
            Detection(Box3D(*rng.uniform(0, 10, 2), 0.0, *rng.uniform(0.5, 3, 2), 1.0,
                            rng.uniform(-np.pi, np.pi)), rng.random())
            for _ in range(40)
        ]
        kept = oriented_nms(dets, 0.05)
        for i, d1 in enumerate(kept):
            for d2 in kept[i + 1:]:
                assert bev_iou(d1.box, d2.box) <= 0.05

    def test_empty(self):
        assert oriented_nms([], 0.05) == []


class TestAnchors:
    def test_layout(self):
        anchors = build_anchor_grid(0.0, -2.0, n_x=3, n_y=2, cell_size=0.4)
        assert anchors.shape == (12, 7)
        # first cell, first orientation
        np.testing.assert_allclose(anchors[0, :3], [0.2, -1.8, -1.0])
        assert anchors[0, 6] == 0.0
        assert anchors[1, 6] == pytest.approx(np.pi / 2)
        # row-major (iy, ix, a)
        box = anchors.reshape(2, 3, 2, 7)[1, 2, 1]
        np.testing.assert_allclose(box[[0, 1, 6]], [1.0, -1.4, np.pi / 2])

    def test_anchor_matches_itself(self):
        anchors = build_anchor_grid(0.0, 0.0, n_x=2, n_y=2, cell_size=0.4)
        ious = pairwise_iou3d(anchors, anchors[:1])
        assert ious[0, 0] == pytest.approx(1.0)


class TestValidation:
    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 0.0, 1, 1, 0)

    def test_score_range_enforced(self):
        with pytest.raises(ValueError):
            Detection(_box(), 1.5)
