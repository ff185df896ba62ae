import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from voxeldet.box_geom import (
    Box3D,
    Detection,
    bev_iou,
    blockwise_bev_and_3d_iou,
    build_anchor_grid,
    decode,
    direction_bit,
    encode,
    iou3d,
    oriented_nms,
    pairwise_bev_and_3d_iou,
    pairwise_bev_iou,
    pairwise_iou3d,
    wrap_angle,
)
from voxeldet import box_geom
from voxeldet.box_geom import _bev_overlap

from helpers import clipped_bev_area, monte_carlo_bev_iou, near_pairs, oriented_nms_matrix


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


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _reach(a, b):
    """The circle sum and the centre distance as the prefilter in
    ``_pairwise_blocks`` forms them."""
    reach = 0.5 * np.hypot(a[3], a[4]) + 0.5 * np.hypot(b[3], b[4])
    return reach, np.hypot(a[0] - b[0], a[1] - b[1])


def _edge_pairs():
    """Row pairs where a float shortcut for far pairs could go wrong.

    Circles tangent to within 0-4 ulp and just beyond the shortcut's slack,
    with corners pointing at each other; centres near 1e150 and 1e154, some
    sizes 1e149 and 3e154 (squares that overflow); boxes near 1e-162 m
    whose squares are subnormal; inf and nan x or y; zero sizes.
    """
    pairs = []
    for wa, la, wb, lb in ((1.6, 3.9, 1.6, 3.9), (0.7, 2.1, 1.9, 5.3)):
        reach = 0.5 * np.hypot(wa, la) + 0.5 * np.hypot(wb, lb)
        dists = []
        for k in range(5):
            up = down = reach
            for _ in range(k):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            dists += [up, down]
        dists += [reach * (1.0 + 1e-8), reach * (1.0 - 1e-8)]
        for d in dists:
            for ux, uy in ((1.0, 0.0), (0.0, 1.0)):
                heading = np.arctan2(uy, ux)
                for toward in (True, False):
                    ta = heading - np.arctan2(wa, la) if toward else 0.0
                    tb = heading + np.pi - np.arctan2(wb, lb) if toward else 0.0
                    a = np.array([0.0, 0.0, 0.0, wa, la, 1.5, ta])
                    b = np.array([d * ux, d * uy, 0.3, wb, lb, 1.5, float(wrap_angle(tb))])
                    pairs.append((a, b))
    big = [np.array([x, y, 0.0, w, l, 1.5, 0.4])
           for x, y in ((1e150, -1e150), (-1e150, 1e150), (1e154, 1e154), (-1e154, 0.0))
           for w, l in ((1.6, 3.9), (1e149, 3e149), (3e154, 3e154))]
    pairs += [(a, b) for i, a in enumerate(big) for b in big[i:]]
    pairs += [(a, a + np.array([2e149, 0, 0, 0, 0, 0, 0])) for a in big]
    rng = np.random.default_rng(0)
    for _ in range(200):
        xa, ya, wa, la, wb, lb = np.r_[rng.uniform(-3, 3, 2), rng.uniform(0.5, 5, 4)] * 1e-162
        d = (0.5 * np.hypot(wa, la) + 0.5 * np.hypot(wb, lb)) * (1.0 - rng.uniform(0, 1e-2))
        phi = rng.uniform(-np.pi, np.pi)
        pairs.append((np.array([xa, ya, 0.0, wa, la, 1e-162, 0.0]),
                      np.array([xa + d * np.cos(phi), ya + d * np.sin(phi), 0.0, wb, lb, 1e-162,
                                phi])))
    unit = np.array([0.0, 0.0, 0.0, 1.6, 3.9, 1.5, 0.2])
    odd = []
    for col in (0, 1):
        for value in (np.inf, -np.inf, np.nan):
            row = unit.copy()
            row[col] = value
            odd.append(row)
    pairs += [(a, b) for i, a in enumerate(odd) for b in odd[i:] + [unit]]
    zero = [np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
            np.array([0.5, 0.0, 0.0, 0.0, 2.0, 1.0, 0.3]),
            np.array([0.0, 0.2, 0.0, 1.6, 0.0, 1.0, 0.0]),
            np.array([30.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0])]
    pairs += [(a, b) for i, a in enumerate(zero) for b in zero[i:] + [unit]]
    return pairs


def _nms_frame(seed, kind):
    """Seeded NMS candidates: car boxes over 70 x 80 m, tight clusters, or
    clusters with scores tied to one decimal and duplicate boxes, some of
    them whole duplicate detections."""
    rng = np.random.default_rng(seed)
    if kind == "wide":
        centres = np.column_stack([rng.uniform(0, 70, 60), rng.uniform(-40, 40, 60)])
        yaw = rng.uniform(-np.pi, np.pi, 60)
    else:
        heads = rng.uniform(0, 30, (8, 2))
        centres = np.repeat(heads, 8, axis=0) + rng.normal(0.0, 0.6, (64, 2))
        yaw = np.repeat(rng.uniform(-np.pi, np.pi, 8), 8) + rng.normal(0.0, 0.3, 64)
    n = len(centres)
    boxes = np.column_stack([centres, rng.uniform(-1.2, -0.8, n), rng.uniform(1.5, 1.9, n),
                             rng.uniform(3.5, 4.5, n), rng.uniform(1.4, 1.7, n),
                             wrap_angle(yaw)])
    scores = rng.uniform(0.3, 1.0, n)
    if kind == "ties":
        scores = np.round(scores, 1)
        boxes[1::5] = boxes[::5][: len(boxes[1::5])]
        scores[1::10] = scores[::10][: len(scores[1::10])]
    return [Detection(Box3D.from_array(b), float(s)) for b, s in zip(boxes, scores)]


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
        def shared_clip(k):
            return lambda boxes_a, boxes_b: pairwise_bev_and_3d_iou(boxes_a, boxes_b)[k]

        for pairwise, scalar in ((pairwise_bev_iou, bev_iou), (pairwise_iou3d, iou3d),
                                 (shared_clip(0), bev_iou), (shared_clip(1), iou3d)):
            got = pairwise(boxes_a, boxes_b)
            want = np.array([[scalar(x, y) for y in boxes_b] for x in boxes_a])
            assert np.array_equal(got, want)
            assert 0 < np.count_nonzero(got) < got.size / 2
            assert pairwise(boxes_a[:0], boxes_b).shape == (0, len(boxes_b))
            assert pairwise(boxes_a, boxes_b[:0]).shape == (len(boxes_a), 0)

    def test_scalar_equals_pairwise_on_edge_pairs(self):
        pairs = _edge_pairs()
        apart = [box_geom._circles_apart(a, b) for a, b in pairs]
        assert 0 < sum(apart) < len(pairs)
        with np.errstate(all="ignore"):
            for a, b in pairs:
                for p, q in ((a, b), (b, a)):
                    reach, dist = _reach(p, q)
                    assert not (box_geom._circles_apart(p, q) and dist <= reach)
                    forms = [(p, q), (p[None], q[None])]
                    if min(p[3:6].min(), q[3:6].min()) > 0:
                        forms.append((Box3D.from_array(p), Box3D.from_array(q)))
                    want_bev = _bits(pairwise_bev_iou(p[None], q[None])[0, 0])
                    want_3d = _bits(pairwise_iou3d(p[None], q[None])[0, 0])
                    for x, y in forms:
                        assert _bits(bev_iou(x, y)) == want_bev, (p, q)
                        assert _bits(iou3d(x, y)) == want_3d, (p, q)

    def test_far_pair_builds_no_array(self, monkeypatch):
        def clip(*args, **kwargs):
            raise AssertionError("a far pair reached _pairwise")

        monkeypatch.setattr(box_geom, "_pairwise", clip)
        # reach = hypot(1.6, 3.9) = 4.215 m
        a = _box(w=1.6, l=3.9)
        b = _box(x=3.0, y=3.0, w=1.6, l=3.9, theta=1.0)
        for p, q in ((a, b), (b, a), (a.as_array(), b.as_array()), (b.as_array(), a)):
            assert bev_iou(p, q) == 0.0
            assert iou3d(p, q) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_near_degenerate_stress(self, seed):
        a, b = _near_degenerate_pairs(20_000, 100 + seed)
        area = _bev_overlap(a, b)
        smaller = np.minimum(a[:, 3] * a[:, 4], b[:, 3] * b[:, 4])
        assert np.all((area >= 0.0) & (area <= smaller + 1e-9))
        for pairwise in (pairwise_bev_iou, pairwise_iou3d):
            iou = pairwise(a[:200], b[:200])
            assert np.all((iou >= 0.0) & (iou <= 1.0))


def _blocks(seed):
    """Box-array pairs of a few frames: empty on either side or both, near
    and far pairs, and equal boxes."""
    rng = np.random.default_rng(seed)
    blocks = [(np.zeros((0, 7)), _random_boxes(rng, 3, 6.0)),
              (_random_boxes(rng, 4, 6.0), np.zeros((0, 7))),
              (np.zeros((0, 7)), np.zeros((0, 7)))]
    for _ in range(5):
        a = _random_boxes(rng, int(rng.integers(1, 9)), 6.0)
        b = np.concatenate([_random_boxes(rng, int(rng.integers(0, 6)), 6.0), a[:2]])
        blocks.append((a, b))
    return [blocks[k] for k in rng.permutation(len(blocks))]


class TestBlockwise:
    @pytest.mark.parametrize("seed", range(4))
    def test_each_block_equals_its_own_clip_bit_for_bit(self, seed):
        blocks = _blocks(seed)
        got = blockwise_bev_and_3d_iou(blocks)
        assert len(got) == len(blocks)
        nonzero = 0
        for (a, b), (bev, vol) in zip(blocks, got):
            want_bev, want_3d = pairwise_bev_and_3d_iou(a, b)
            assert bev.shape == vol.shape == (len(a), len(b))
            assert bev.tobytes() == want_bev.tobytes() and vol.tobytes() == want_3d.tobytes()
            for i, j in np.ndindex(bev.shape):
                alone = pairwise_bev_and_3d_iou(a[i : i + 1], b[j : j + 1])
                assert _bits(bev[i, j]) == _bits(alone[0][0, 0])
                assert _bits(vol[i, j]) == _bits(alone[1][0, 0])
            nonzero += int(np.count_nonzero(bev))
        assert nonzero > len(blocks)

    @pytest.mark.parametrize("chunk", [None, 1, 3])
    def test_one_clip_per_chunk_and_the_same_bits(self, monkeypatch, chunk):
        blocks = _blocks(11)
        want = [tuple(m.tobytes() for m in pair) for pair in blockwise_bev_and_3d_iou(blocks)]
        if chunk is not None:
            monkeypatch.setattr(box_geom, "_CLIP_CHUNK", chunk)
        rows = []
        real = box_geom._bev_overlap
        monkeypatch.setattr(box_geom, "_bev_overlap",
                            lambda a, b: rows.append(len(a)) or real(a, b))
        got = [tuple(m.tobytes() for m in pair) for pair in blockwise_bev_and_3d_iou(blocks)]
        near, size = near_pairs(blocks), box_geom._CLIP_CHUNK
        assert got == want and 0 < near and sum(rows) == near
        assert len(rows) == -(-near // size) and max(rows) == min(near, size)

    def test_no_near_pair_makes_no_clip(self, monkeypatch):
        def clip(*args):
            raise AssertionError("clip without near pairs")

        monkeypatch.setattr(box_geom, "_bev_overlap", clip)
        far = np.array([[100.0, 0.0, 0.0, 1.6, 3.9, 1.5, 0.0]])
        got = blockwise_bev_and_3d_iou([(far, far - [[200.0, 0, 0, 0, 0, 0, 0]]),
                                        (np.zeros((0, 7)), far)])
        assert [m.shape for pair in got for m in pair] == [(1, 1), (1, 1), (0, 1), (0, 1)]
        assert not got[0][0].any() and blockwise_bev_and_3d_iou([]) == []


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

    @pytest.mark.parametrize("threshold", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("kind", ["wide", "clusters", "ties"])
    def test_equals_whole_matrix_oracle(self, kind, threshold):
        for seed in range(3):
            dets = _nms_frame(seed, kind)
            for subset in (dets, dets[:1], []):
                got = oriented_nms(subset, threshold)
                want = oriented_nms_matrix(subset, threshold)
                assert len(got) == len(want) and all(g is w for g, w in zip(got, want))
                if threshold == 1.0:
                    assert len(got) == len(subset)

    @pytest.mark.parametrize("kind", ["wide", "clusters"])
    def test_clips_only_the_greedy_pairs_within_reach(self, monkeypatch, kind):
        dets = _nms_frame(7, kind)
        order = np.argsort(-np.array([d.score for d in dets]), kind="stable")
        boxes = np.array([dets[k].box.as_array() for k in order])
        iou = pairwise_bev_iou(boxes, boxes)
        # the pairs the greedy loop tests: each candidate against the kept ones,
        # in kept order, until one suppresses it
        kept, tested, near = [], 0, 0
        for i in range(len(boxes)):
            for j in kept:
                reach, dist = _reach(boxes[i], boxes[j])
                tested += 1
                near += bool(dist <= reach)
                if iou[i, j] > 0.05:
                    break
            else:
                kept.append(i)
        assert 0 < near < tested / 2
        real, calls = box_geom._pairwise, []
        monkeypatch.setattr(box_geom, "_pairwise",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        got = oriented_nms(dets, 0.05)
        assert len(calls) == near
        assert [d.box for d in got] == [Box3D.from_array(boxes[i]) for i in kept]


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
