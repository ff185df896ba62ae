import warnings

import numpy as np
import pytest

from voxeldet.box_geom import Box3D, build_anchor_grid, encode, iou3d, oriented_nms
from voxeldet.config import toy_config
from voxeldet.depth_head import PartOutput, fuse_scores
from voxeldet.model import ModelOutput, VehicleDetector
from voxeldet.nn_core import Tensor
from voxeldet.train import (
    LossReport,
    LossWeights,
    TargetAssignment,
    assign_targets,
    build_part_targets,
    dir_loss,
    focal_loss,
    loc_loss,
    prepare_batches,
    smooth_l1,
    total_loss,
    train_toy,
)
from voxeldet.synthetic import Scene, make_toy_dataset
from voxeldet.kitti_io import PointCloud

from helpers import build_part_targets_per_scene, decode_per_candidate, finite_diff_error


def micro_config(**overrides):
    kwargs = dict(
        range_min=(0.0, -2.4, -3.0),
        range_max=(4.8, 2.4, 1.0),
        part_bounds=((0, 5), (3, 9), (7, 12)),
        toy_ground_points=150,
        toy_car_points=60,
        toy_max_cars=1,
        batch_size=2,
    )
    kwargs.update(overrides)
    return toy_config(**kwargs)


def _logit(p):
    return np.log(p / (1.0 - p))


class TestAssignTargets:
    def _anchors(self):
        return build_anchor_grid(0.0, -2.0, n_x=10, n_y=10, cell_size=0.4)

    def test_no_gts_all_negative(self):
        asn = assign_targets(self._anchors(), [])
        assert (asn.labels == 0).all()
        assert (asn.residuals == 0.0).all() and (asn.direction_bits == 0).all()

    def test_anchor_identical_to_gt(self):
        anchors = self._anchors()
        gt = Box3D.from_array(anchors[24])
        asn = assign_targets(anchors, [gt])
        assert asn.labels[24] == 1
        np.testing.assert_allclose(asn.residuals[24], 0.0, atol=1e-12)

    def test_best_anchor_forced_positive(self):
        anchors = self._anchors()
        base = Box3D.from_array(anchors[24])
        # rotated enough that the best IoU lands between the two thresholds
        gt = Box3D(base.x + 0.1, base.y + 0.1, base.z, base.w, base.l, base.h, 0.5)
        ious = np.array([iou3d(Box3D.from_array(a), gt) for a in anchors])
        assert 0.45 < ious.max() < 0.6
        asn = assign_targets(anchors, [gt])
        best = ious.argmax()
        assert asn.labels[best] == 1
        # the forced anchor encodes the only ground truth
        np.testing.assert_allclose(asn.residuals[best], encode(gt.as_array(), anchors[best]),
                                   rtol=0.0, atol=1e-12)

    def test_labels_monotone_in_iou(self):
        anchors = self._anchors()
        gt = Box3D(2.05, -0.1, -1.0, 1.6, 3.9, 1.56, 0.3)
        asn = assign_targets(anchors, [gt])
        ious = np.array([iou3d(Box3D.from_array(a), gt) for a in anchors])
        rank = {1: 2, -1: 1, 0: 0}
        order = np.argsort(ious)
        ranks = np.array([rank[int(l)] for l in asn.labels[order]])
        # once the rank steps up along increasing IoU it must never step down
        assert (np.diff(ranks) >= 0).all()

    def test_direction_bits(self):
        anchors = self._anchors()
        gt_pos = Box3D.from_array(anchors[24])
        asn = assign_targets(anchors, [gt_pos])
        assert asn.direction_bits[24] == 1   # theta 0 -> non-negative bin


class TestFocalLoss:
    def test_perfect_confident(self):
        logits = Tensor(np.array([20.0, -20.0]))
        labels = np.array([1, 0])
        assert focal_loss(logits, labels).item() <= 1e-6

    def test_single_positive_half(self):
        loss = focal_loss(Tensor(np.array([0.0])), np.array([1]))
        assert loss.item() == pytest.approx(0.25 * 0.25 * np.log(2.0), rel=1e-12)
        assert loss.item() == pytest.approx(0.04332, abs=5e-6)

    def test_gamma_zero_alpha_one_is_ce_on_positives(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=7)
        labels = np.ones(7, dtype=int)
        loss = focal_loss(Tensor(logits), labels, alpha=1.0, gamma=0.0)
        p = 1.0 / (1.0 + np.exp(-logits))
        expected = -np.log(p).sum() / 7.0
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_ignored_anchors_masked_out(self):
        logits = Tensor(np.array([3.0, -100.0, 100.0]))
        labels = np.array([1, -1, -1])
        with_ignored = focal_loss(logits, labels).item()
        alone = focal_loss(Tensor(np.array([3.0])), np.array([1])).item()
        assert with_ignored == pytest.approx(alone, rel=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=12), requires_grad=True)
        labels = rng.integers(-1, 2, size=12)

        def loss():
            return focal_loss(logits, labels)

        assert finite_diff_error(loss, [logits]) < 1e-6


class TestLocLoss:
    def test_exact_zero(self):
        pred = Tensor(np.ones((3, 7)))
        mask = np.ones((3, 7))
        assert loc_loss(pred, np.ones((3, 7)), mask, 3).item() == 0.0

    def test_half_offset(self):
        pred = Tensor(np.zeros((1, 7)))
        target = np.zeros((1, 7))
        target[0, 2] = 0.5
        assert loc_loss(pred, target, np.ones((1, 7)), 1).item() == pytest.approx(0.125)

    def test_linear_tail(self):
        pred = Tensor(np.zeros((1, 7)))
        target = np.zeros((1, 7))
        target[0, 0] = 2.0
        assert loc_loss(pred, target, np.ones((1, 7)), 1).item() == pytest.approx(1.5)

    def test_smooth_l1_continuity_at_one(self):
        vals = smooth_l1(Tensor(np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12])))
        np.testing.assert_allclose(vals.data, 0.5, atol=1e-9)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        pred = Tensor(rng.normal(scale=2.0, size=(4, 7)), requires_grad=True)
        target = rng.normal(scale=2.0, size=(4, 7))
        mask = np.repeat(rng.integers(0, 2, size=(4, 1)), 7, axis=1)

        def loss():
            return loc_loss(pred, target, mask, int(mask[:, 0].sum()))

        assert finite_diff_error(loss, [pred]) < 1e-6


class TestDirLoss:
    def test_confident_correct(self):
        logits = Tensor(np.array([[20.0, -20.0]]))
        onehot = np.array([[1.0, 0.0]])
        assert dir_loss(logits, onehot, np.ones(1), 1, bin_axis=1).item() < 1e-6

    def test_uniform_logits(self):
        logits = Tensor(np.zeros((1, 2)))
        onehot = np.array([[1.0, 0.0]])
        assert dir_loss(logits, onehot, np.ones(1), 1, bin_axis=1).item() == pytest.approx(np.log(2.0))

    def test_no_positives_zero(self):
        logits = Tensor(np.random.default_rng(3).normal(size=(4, 2)))
        onehot = np.zeros((4, 2))
        assert dir_loss(logits, onehot, np.zeros(4), 0, bin_axis=1).item() == 0.0

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        bits = rng.integers(0, 2, size=5)
        onehot = np.eye(2)[bits]
        mask = rng.integers(0, 2, size=5).astype(float)

        def loss():
            return dir_loss(logits, onehot, mask, max(1, int(mask.sum())), bin_axis=1)

        assert finite_diff_error(loss, [logits]) < 1e-6


class TestTotalLoss:
    def _terms(self, loc, cls, dir_):
        return (Tensor(np.array(loc)), Tensor(np.array(cls)), Tensor(np.array(dir_)))

    def test_all_zero(self):
        total, report = total_loss(
            [self._terms(0.0, 0.0, 0.0)] * 3, Tensor(np.array(0.0)), LossWeights()
        )
        assert total.item() == 0.0
        assert report.total == 0.0

    def test_worked_example(self):
        parts = [self._terms(0.1, 0.3, 0.5)] * 3
        total, report = total_loss(parts, Tensor(np.array(0.2)), LossWeights())
        assert total.item() == pytest.approx(1.9, rel=1e-12)
        assert report.seg == pytest.approx(0.2)
        assert report.loc == (pytest.approx(0.1),) * 3

    def test_seg_weight_linearity(self):
        parts = [self._terms(0.1, 0.3, 0.5)] * 3
        seg = Tensor(np.array(0.2))
        base, _ = total_loss(parts, seg, LossWeights(lambda_seg=0.5))
        doubled, _ = total_loss(parts, seg, LossWeights(lambda_seg=1.0))
        assert doubled.item() - base.item() == pytest.approx(0.5 * 0.2)

    def test_csv_roundtrip_header(self):
        report = LossReport(1.9, 0.2, (0.1,) * 3, (0.3,) * 3, (0.5,) * 3)
        assert LossReport.csv_header().count(",") == report.csv_row(0).count(",")


class TestPartTargets:
    def test_slicing_matches_anchor_layout(self):
        h, w = 4, 6
        anchors = build_anchor_grid(0.0, 0.0, n_x=w, n_y=h, cell_size=0.4)
        gt = Box3D.from_array(anchors[(2 * w + 3) * 2 + 0])  # cell (2,3), yaw 0
        asn = assign_targets(anchors, [gt])
        targets = build_part_targets([asn], h, w, lo=2, hi=6)
        # cell (2,3) sits at sliced x-offset 1
        assert targets.cls_labels[0, 0, 2, 1] == 1
        in_slice = asn.labels.reshape(h, w, 2)[:, 2:6] == 1
        assert targets.n_positive == int(in_slice.sum())
        assert targets.box_mask[0, :7, 2, 1].all()
        assert targets.dir_onehot[0, 0, 1, 2, 1] == 1.0

    @staticmethod
    def _assert_same(got, want):
        for name in ("cls_labels", "box_target", "box_mask", "dir_onehot", "dir_mask"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.flags.c_contiguous, name
            np.testing.assert_array_equal(g, w, err_msg=name)
        assert got.n_positive == want.n_positive

    @pytest.mark.parametrize("lo,hi", [(0, 6), (2, 6), (0, 3), (3, 4)])
    def test_matches_per_scene_oracle_random(self, lo, hi):
        h, w, n = 4, 6, 4 * 6 * 2
        rng = np.random.default_rng(lo * 10 + hi)
        assignments = [
            TargetAssignment(rng.integers(-1, 2, size=n).astype(np.int8),
                             rng.normal(size=(n, 7)), rng.integers(0, 2, size=n))
            for _ in range(3)
        ]
        self._assert_same(build_part_targets(assignments, h, w, lo, hi),
                          build_part_targets_per_scene(assignments, h, w, lo, hi))

    def test_matches_per_scene_oracle_assigned(self):
        h, w = 5, 7
        anchors = build_anchor_grid(0.0, 0.0, n_x=w, n_y=h, cell_size=0.4)
        gts = [Box3D(1.3, 0.9, -1.0, 1.6, 3.9, 1.56, -2.0),
               Box3D(2.0, 1.4, -1.0, 1.6, 3.9, 1.56, 1.2)]
        assignments = [assign_targets(anchors, gts[:k]) for k in range(3)]
        assert sum(int((a.labels == 1).sum()) for a in assignments) > 0
        for lo, hi in [(0, 4), (2, 7)]:
            self._assert_same(build_part_targets(assignments, h, w, lo, hi),
                              build_part_targets_per_scene(assignments, h, w, lo, hi))


class TestTrainToy:
    def test_two_steps_deterministic_and_finite(self):
        cfg = micro_config(train_steps=2, toy_scenes=2)
        scenes = make_toy_dataset(cfg)
        res1 = train_toy(cfg, scenes, steps=2)
        res2 = train_toy(cfg, scenes, steps=2)
        assert np.isfinite(res1.totals).all()
        np.testing.assert_array_equal(res1.totals, res2.totals)

    def test_zero_learning_rate_flat_trace(self):
        cfg = micro_config(train_steps=3, toy_scenes=2, learning_rate=1e-300,
                           weight_decay=0.0, batch_size=2)
        scenes = make_toy_dataset(cfg)
        res = train_toy(cfg, scenes, steps=3)
        assert res.totals[0] == pytest.approx(res.totals[1], rel=1e-9)
        assert res.totals[1] == pytest.approx(res.totals[2], rel=1e-9)


class TestModelSmoke:
    def test_forward_shapes_and_detect(self):
        cfg = micro_config()
        model = VehicleDetector(cfg)
        scenes = make_toy_dataset(cfg, n_scenes=1)
        grids_out = model.forward(
            [__import__("voxeldet.voxel_grid", fromlist=["voxelize"]).voxelize(
                scenes[0].cloud, cfg.voxelizer())]
        )
        assert grids_out.bev.shape == (1, 128, 12, 12)
        assert grids_out.probability.shape == (1, 1, 12, 12)
        assert grids_out.fused.shape == (1, 256, 12, 12)
        assert len(grids_out.parts) == 3
        dets = model.detect(grids_out)
        assert isinstance(dets, list) and len(dets) == 1


class TestDetectOracle:
    """One batched decode per frame equals one ``decode`` call per candidate."""

    @staticmethod
    def _outputs(cfg, seed, planted=()):
        rng = np.random.default_rng(seed)
        h = w = 12
        parts = []
        for spec in cfg.parts():
            cls = rng.integers(-6, 3, size=(2, 2, h, spec.width)).astype(np.float32)
            box = (0.3 * rng.normal(size=(2, 14, h, spec.width))).astype(np.float32)
            # unless planted, sizes stay within micro_config's 4.8 m extent:
            # the 3.9 m anchor length leaves a residual of log(4.8 / 3.9) = 0.21
            sizes = box.reshape(2, 2, 7, h, spec.width)[:, :, 3:6]
            np.minimum(sizes, 0.2, out=sizes)
            dirs = rng.integers(-1, 2, size=(2, 4, h, spec.width)).astype(np.float32)
            for b, a, iy, ix, channel, value in planted:
                if spec.lo <= ix < spec.hi:
                    cls[b, a, iy, ix - spec.lo] = 5.0
                    box[b, 7 * a + channel, iy, ix - spec.lo] = value
            parts.append(PartOutput(Tensor(cls), Tensor(box), Tensor(dirs)))
        return ModelOutput(None, None, None, parts)

    def _check(self, cfg, output):
        model = VehicleDetector(cfg)
        fused = fuse_scores(output.parts, cfg.parts(), 12)
        extent = max(np.subtract(cfg.range_max, cfg.range_min))
        oracle = decode_per_candidate(fused, model.anchors, cfg.score_threshold,
                                      cfg.pre_nms_top_k, extent)
        assert model.detect(output) == [oriented_nms(d, cfg.nms_iou) for d in oracle]
        return fused, oracle

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle_with_nms(self, seed):
        cfg = micro_config(score_threshold=0.1)
        # one length residual over the size rule's bound: l = 3.9 m · e^0.5 = 6.4 m
        planted = [(seed % 2, 1, 5, 6, 4, 0.5)]
        fused, oracle = self._check(cfg, self._outputs(cfg, seed, planted))
        n_cand = (fused.scores >= cfg.score_threshold).reshape(2, -1).sum(axis=1)
        assert [len(d) for d in oracle] == [n - (b == seed % 2) for b, n in enumerate(n_cand)]

    def test_drops_non_finite_and_non_positive_size(self):
        # nms_iou 1 keeps every candidate, so the whole decoded list is compared
        cfg = micro_config(score_threshold=0.3, nms_iou=1.0)
        planted = [(0, 0, 3, 4, 0, np.inf), (1, 1, 8, 10, 4, -1000.0)]
        fused, oracle = self._check(cfg, self._outputs(cfg, 11, planted))
        for b, a, iy, ix, _, _ in planted:
            n_cand = int((fused.scores[b] >= cfg.score_threshold).sum())
            assert len(oracle[b]) == n_cand - 1
            assert fused.scores[b, a, iy, ix] >= cfg.score_threshold

    def test_drops_sizes_over_the_range_extent_without_warnings(self):
        """Size residuals of about 500, as an untrained net gives on a full-scale
        scan, would decode to about 1e217 m; such candidates are dropped before
        decode, so neither decode nor NMS warns, and every box kept fits the
        voxel range's largest extent."""
        cfg = micro_config(score_threshold=0.3)
        extent = max(np.subtract(cfg.range_max, cfg.range_min))
        oversized = [(0, 0, 3, 4, 3, 500.0), (0, 1, 3, 5, 4, 480.0), (1, 1, 8, 10, 5, 520.0)]
        fits = [(1, 0, 8, 9, 4, 0.2)]   # l = 3.9 m · e^0.2 = 4.76 m
        output = self._outputs(cfg, 17, oversized + fits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fused, oracle = self._check(cfg, output)
        n_cand = (fused.scores >= cfg.score_threshold).reshape(2, -1).sum(axis=1)
        assert [len(d) for d in oracle] == [n_cand[0] - 2, n_cand[1] - 1]
        sizes = np.array([[d.box.w, d.box.l, d.box.h] for dets in oracle for d in dets])
        assert sizes.max() <= extent
        assert any(abs(d.box.l - 3.9 * np.exp(0.2)) < 1e-6 for d in oracle[1])

    def test_pre_nms_top_k_truncation(self):
        cfg = micro_config(score_threshold=0.02, nms_iou=1.0, pre_nms_top_k=7)
        output = self._outputs(cfg, 5)
        fused, oracle = self._check(cfg, output)
        n_cand = (fused.scores >= cfg.score_threshold).reshape(2, -1).sum(axis=1)
        assert (n_cand > cfg.pre_nms_top_k).all()
        assert [len(d) for d in oracle] == [cfg.pre_nms_top_k] * 2
        # the coarse logits tie, so the cut falls inside a run of equal scores
        ranked = np.sort(fused.scores[0].ravel())[::-1]
        assert ranked[cfg.pre_nms_top_k - 1] == ranked[cfg.pre_nms_top_k]
