import numpy as np
import pytest

from voxeldet.box_geom import Box3D
from voxeldet.kitti_io import PointCloud
from voxeldet.nn_core import Tensor
from voxeldet.seg_context import (
    DetectionBranch,
    MaskKind,
    SegmentationBranch,
    SemanticContextEncoder,
    fuse,
    make_mask,
    seg_loss,
)
from voxeldet.voxel_grid import VoxelizerConfig, make_grid, voxelize

from helpers import finite_diff_error, projected_loss, random_cotangent

TOY_CFG = VoxelizerConfig(
    range_min=(0.0, -4.8, -3.0),
    range_max=(9.6, 4.8, 1.0),
    voxel_size=(0.05, 0.05, 0.1),
)
# 192x192 voxels -> 24x24 BEV cells of 0.4 m


def _empty_grid(cfg=TOY_CFG):
    return make_grid(cfg.grid_shape, np.empty((0, 3)), np.empty((0, 4)))


def _car(x, y, theta=0.0, w=1.6, l=3.9):
    return Box3D(x, y, -1.0, w, l, 1.56, theta)


class TestMakeMask:
    def test_no_boxes_all_background(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([
            rng.uniform(0, 9.6, 100), rng.uniform(-4.8, 4.8, 100),
            rng.uniform(-3, 1, 100), rng.uniform(0, 1, 100),
        ])
        grid = voxelize(PointCloud(pts), TOY_CFG)
        mask = make_mask(grid, [], MaskKind.BOX_TYPE, TOY_CFG)
        assert mask.labels.shape == (24, 24)
        assert not mask.labels.any()

    def test_box_type_aligned_rasterization(self):
        # 4.0 x 1.6 m box centered on a 0.4 m cell corner: exactly 10 x 4 cells
        box = Box3D(4.8, 0.0, -1.0, 1.6, 4.0, 1.56, 0.0)
        mask = make_mask(_empty_grid(), [box], MaskKind.BOX_TYPE, TOY_CFG)
        assert mask.labels.sum() == 40
        ys, xs = np.nonzero(mask.labels)
        assert xs.min() == 7 and xs.max() == 16   # 10 cells along x
        assert ys.min() == 10 and ys.max() == 13  # 4 cells along y

    @pytest.mark.parametrize("x, y", [(1e99, 0.0), (-1e99, 0.0), (4.8, 1e99), (4.8, -1e99)])
    def test_box_type_window_off_the_grid_marks_nothing(self, x, y):
        far = make_mask(_empty_grid(), [_car(x, y), _car(4.8, 0.0)], MaskKind.BOX_TYPE, TOY_CFG)
        near = make_mask(_empty_grid(), [_car(4.8, 0.0)], MaskKind.BOX_TYPE, TOY_CFG)
        np.testing.assert_array_equal(far.labels, near.labels)
        assert near.labels.any()

    def test_voxel_type_empty_grid_background(self):
        mask = make_mask(_empty_grid(), [_car(4.8, 0.0)], MaskKind.VOXEL_TYPE, TOY_CFG)
        assert not mask.labels.any()

    def test_voxel_type_marks_occupied_cells(self):
        pts = np.array([[4.83, 0.03, -1.0, 0.5]])
        grid = voxelize(PointCloud(pts), TOY_CFG)
        np.testing.assert_array_equal(grid.indices[0], [96, 96, 20])
        mask = make_mask(grid, [_car(4.8, 0.0)], MaskKind.VOXEL_TYPE, TOY_CFG)
        assert mask.labels.sum() == 1
        assert mask.labels[12, 12]

    def test_voxel_subset_of_box(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n_pts = 300
            pts = np.column_stack([
                rng.uniform(0, 9.6, n_pts), rng.uniform(-4.8, 4.8, n_pts),
                rng.uniform(-3, 1, n_pts), rng.uniform(0, 1, n_pts),
            ])
            boxes = [
                _car(rng.uniform(2, 8), rng.uniform(-3, 3), rng.uniform(-np.pi, np.pi))
                for _ in range(3)
            ]
            grid = voxelize(PointCloud(pts), TOY_CFG)
            voxel_mask = make_mask(grid, boxes, MaskKind.VOXEL_TYPE, TOY_CFG)
            box_mask = make_mask(grid, boxes, MaskKind.BOX_TYPE, TOY_CFG)
            assert not (voxel_mask.labels & ~box_mask.labels).any()


class TestSegmentationBranch:
    def test_output_shape_and_range(self):
        branch = SegmentationBranch(channels=8, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 8, 8, 12)))
        m = branch(x)
        assert m.shape == (2, 1, 8, 12)
        assert np.all((m.data > 0) & (m.data < 1))

    def test_rejects_bad_dims(self):
        branch = SegmentationBranch(channels=8)
        with pytest.raises(ValueError, match="multiples of 4"):
            branch(Tensor(np.zeros((1, 8, 6, 8))))

    def test_gradcheck_small(self):
        branch = SegmentationBranch(channels=4, seed=1)
        x = Tensor(np.random.default_rng(2).normal(size=(1, 4, 8, 8)), requires_grad=True)
        cot = random_cotangent((1, 1, 8, 8), seed=3)
        params = [x, branch.res_full.conv1.weight, branch.head.weight, branch.head.bias]

        def loss():
            return projected_loss(branch(x), cot)

        assert finite_diff_error(loss, params, max_entries=8) < 1e-4


class TestDetectionBranch:
    def test_output_channels(self):
        branch = DetectionBranch(channels=8, seed=0)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 8, 6, 10)))
        out = branch(x)
        assert out.shape == (2, 8, 6, 10)

    def test_zero_input_zero_output(self):
        branch = DetectionBranch(channels=8, seed=0)
        out = branch(Tensor(np.zeros((1, 8, 4, 4))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_gradcheck_small(self):
        branch = DetectionBranch(channels=4, seed=4)
        x = Tensor(np.random.default_rng(5).normal(size=(1, 4, 6, 6)), requires_grad=True)
        cot = random_cotangent((1, 4, 6, 6), seed=6)
        params = [x, branch.down.weight, branch.up.weight]

        def loss():
            return projected_loss(branch(x), cot)

        assert finite_diff_error(loss, params, max_entries=8) < 1e-4


class TestFuse:
    def _fm(self, seed=0, c=3):
        return Tensor(np.random.default_rng(seed).normal(size=(1, c, 4, 5)))

    def test_zero_mask_identity(self):
        f = self._fm()
        m = Tensor(np.zeros((1, 1, 4, 5)))
        np.testing.assert_allclose(fuse(f, m).data, f.data)

    def test_unit_mask_doubles(self):
        f = self._fm()
        m = Tensor(np.ones((1, 1, 4, 5)))
        np.testing.assert_allclose(fuse(f, m).data, 2.0 * f.data)

    def test_single_cell_scaling(self):
        f = self._fm()
        m = np.zeros((1, 1, 4, 5))
        m[0, 0, 2, 3] = 0.5
        out = fuse(f, Tensor(m))
        np.testing.assert_allclose(out.data[:, :, 2, 3], 1.5 * f.data[:, :, 2, 3])
        np.testing.assert_allclose(out.data[:, :, 0, 0], f.data[:, :, 0, 0])

    def test_monotone_in_mask(self):
        f = self._fm(seed=7)
        rng = np.random.default_rng(8)
        m1 = rng.uniform(0, 0.5, size=(1, 1, 4, 5))
        m2 = m1 + rng.uniform(0, 0.5, size=(1, 1, 4, 5))
        r1 = np.abs(fuse(f, Tensor(m1)).data)
        r2 = np.abs(fuse(f, Tensor(m2)).data)
        assert np.all(r2 >= r1 - 1e-15)

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        f = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        m = Tensor(rng.uniform(0.1, 0.9, size=(1, 1, 3, 3)), requires_grad=True)
        cot = random_cotangent((1, 2, 3, 3), seed=10)

        def loss():
            return projected_loss(fuse(f, m), cot)

        assert finite_diff_error(loss, [f, m]) < 1e-6

    def test_fusion_gradient_wrt_mask_is_channel_sum(self):
        # d/dM sum(R * G) = sum_c F_c * G_c at each cell
        rng = np.random.default_rng(11)
        f = Tensor(rng.normal(size=(1, 4, 3, 3)))
        m = Tensor(rng.uniform(size=(1, 1, 3, 3)), requires_grad=True)
        g = rng.normal(size=(1, 4, 3, 3))
        projected_loss(fuse(f, m), Tensor(g)).backward()
        np.testing.assert_allclose(m.grad, (f.data * g).sum(axis=1, keepdims=True), atol=1e-12)

    def test_deterministic(self):
        f = self._fm(seed=12)
        m = Tensor(np.random.default_rng(13).uniform(size=(1, 1, 4, 5)))
        r1 = fuse(f, m).data
        r2 = fuse(f, m).data
        assert np.array_equal(r1, r2)


class TestSegLoss:
    def test_perfect_confident(self):
        labels = np.array([[[[1.0, 0.0]]]])
        probs = Tensor(np.array([[[[1.0, 0.0]]]]))
        assert seg_loss(probs, labels).item() <= 1e-6

    def test_uniform_half(self):
        labels = np.zeros((1, 1, 3, 3))
        labels[0, 0, 1, 1] = 1.0
        probs = Tensor(np.full((1, 1, 3, 3), 0.5))
        assert seg_loss(probs, labels).item() == pytest.approx(np.log(2.0))

    def test_two_cell_mismatch_closed_form(self):
        eps = 1e-7
        labels = np.array([[[[1.0, 0.0]]]])
        probs = Tensor(np.array([[[[0.0, 0.0]]]]))  # clamped to eps
        expected = (-np.log(eps) - np.log(1.0 - eps)) / 2.0
        assert seg_loss(probs, labels).item() == pytest.approx(expected, rel=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(14)
        logits = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        labels = rng.integers(0, 2, size=(1, 1, 4, 4)).astype(float)

        def loss():
            from voxeldet.nn_core import sigmoid
            return seg_loss(sigmoid(logits), labels)

        assert finite_diff_error(loss, [logits]) < 1e-6


class TestEncoder:
    def test_shapes_and_channels(self):
        enc = SemanticContextEncoder(channels=8, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 8, 8, 8)))
        r, m = enc(x)
        assert r.shape == (1, 16, 8, 8)
        assert m.shape == (1, 1, 8, 8)
        assert enc.out_channels == 16

    @staticmethod
    def _grads(module):
        return [p.grad for p in module.named_parameters().values()]

    def test_fused_output_does_not_train_segmentation(self):
        enc = SemanticContextEncoder(channels=8, seed=0)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 8, 8, 8)))
        r, _ = enc(x)
        projected_loss(r, random_cotangent(r.shape, 2)).backward()
        assert all(g is None or not np.any(g) for g in self._grads(enc.segmentation))
        assert all(g is not None and np.any(g) for g in self._grads(enc.detection))

    def test_mask_output_trains_segmentation(self):
        enc = SemanticContextEncoder(channels=8, seed=0)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 8, 8, 8)))
        _, m = enc(x)
        labels = np.random.default_rng(3).random(m.shape) < 0.3
        seg_loss(m, labels).backward()
        assert all(g is not None and np.any(g) for g in self._grads(enc.segmentation))
