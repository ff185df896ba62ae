"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Measured on a 2-core x86-64 host: the toy-training
criterion (8) takes about 210 s of its 600 s bound, the geometry oracle (1)
42-47 s of its 60 s bound, CLI determinism (10) about 10 s; the rest take
under a second each.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from voxeldet import nn_core
from voxeldet.box_geom import (
    Box3D,
    Detection,
    bev_iou,
    build_anchor_grid,
    decode,
    direction_bit,
    encode,
    iou3d,
    pairwise_bev_iou,
    pairwise_iou3d,
)
from voxeldet.config import dump_config, toy_config
from voxeldet.depth_head import DEFAULT_PARTS, PartOutput, PartSpec, check_coverage, fuse_scores
from voxeldet.eval_metrics import (
    FrameDetections,
    FrameGroundTruth,
    accumulate_matches,
    aos,
    average_precision,
)
from voxeldet.kitti_io import PointCloud
from voxeldet.nn_core import BatchNormState, ConvSpec, Tensor, batch_norm, conv2d
from voxeldet.seg_context import (
    DetectionBranch,
    MaskKind,
    SegmentationBranch,
    fuse,
    make_mask,
    seg_loss,
)
from voxeldet.sparse_conv import (
    build_rulebook,
    densify_bev,
    densify_grid,
    sparse_conv_forward,
    sparse_conv_op,
)
from voxeldet.synthetic import make_benchmark_cloud, make_toy_dataset
from voxeldet.train import (
    LossWeights,
    dir_loss,
    focal_loss,
    loc_loss,
    seg_mask_iou,
    total_loss,
    train_toy,
)
from voxeldet.voxel_grid import VoxelizerConfig, make_grid, voxelize

from helpers import (
    child_env,
    dense_conv3d_shift_oracle,
    finite_diff_error,
    monte_carlo_bev_iou,
    projected_loss,
)


def _report(criterion: int, message: str):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_geometry_oracle():
    """bev_iou vs a 1e6-sample Monte-Carlo area oracle, 1000 pairs, |err| < 2e-3."""
    n_pairs = 1000
    n_samples = 1_000_000
    rng = np.random.Generator(np.random.Philox(20240811))
    t0 = time.perf_counter()
    max_err = 0.0
    for _ in range(n_pairs):
        boxes = []
        for _ in range(2):
            boxes.append(np.array([
                rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0,
                rng.uniform(0.5, 4), rng.uniform(0.5, 4), 1.0,
                rng.uniform(-np.pi, np.pi),
            ]))
        a, b = boxes
        exact = bev_iou(a, b)
        approx = monte_carlo_bev_iou(a, b, n_samples=n_samples, seed=rng)
        max_err = max(max_err, abs(exact - approx))
    elapsed = time.perf_counter() - t0
    assert max_err < 2e-3, f"max |error| {max_err:.2e}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    _report(1, f"geometry oracle max |err| {max_err:.2e} over {n_pairs} pairs "
               f"in {elapsed:.1f}s")


def test_criterion_2_sparse_conv_oracle():
    """200 random grids (<=8^3, <=20 sites) vs dense 3D convolution, 1e-10."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(200):
        shape = tuple(int(v) for v in rng.integers(2, 9, 3))
        n_cells = shape[0] * shape[1] * shape[2]
        n_sites = int(rng.integers(1, min(20, n_cells) + 1))
        flat = rng.choice(n_cells, size=n_sites, replace=False)
        iz, rem = np.divmod(flat, shape[0] * shape[1])
        iy, ix = np.divmod(rem, shape[0])
        c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        grid = make_grid(shape, np.stack([ix, iy, iz], 1), rng.normal(size=(n_sites, c_in)))
        coords = np.column_stack([np.zeros(n_sites, np.int64), grid.indices])
        order = np.lexsort((coords[:, 1], coords[:, 2], coords[:, 3], coords[:, 0]))
        coords = coords[order]
        feats = grid.features[order]

        if trial % 2 == 0:
            kernel, stride, mode = 3, (1, 1, 1), "submanifold"
        else:
            kernel = tuple(int(v) for v in rng.integers(1, 4, 3))
            stride = tuple(int(v) for v in rng.integers(1, 3, 3))
            mode = "strided"
        rb, out_coords, out_shape = build_rulebook(coords, shape, kernel, stride, mode)
        weights = rng.normal(size=(len(rb.offsets), c_in, c_out))
        bias = rng.normal(size=c_out)
        got = sparse_conv_forward(feats, weights, bias, rb)

        dense = densify_grid(make_grid(shape, coords[:, 1:], feats))
        wmap = {off: weights[k] for k, off in enumerate(rb.offsets)}
        expected = dense_conv3d_shift_oracle(
            dense, wmap, bias, rb.offsets,
            out_shape if mode == "strided" else shape,
            stride=stride if mode == "strided" else (1, 1, 1),
        )
        ref = expected[out_coords[:, 1], out_coords[:, 2], out_coords[:, 3]]
        worst = max(worst, float(np.abs(got - ref).max()))
    assert worst < 1e-10, f"max abs diff {worst:.2e}"
    _report(2, f"sparse forward vs dense oracle, 200 grids, max abs diff {worst:.2e}")


def _gradcheck_cases():
    """(name, builder) pairs; each builder(seed) -> (make_loss, params)."""
    import voxeldet.sparse_conv as sc

    def dense_op(fn, shape, n_extra=0):
        def build(seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=shape(rng)), requires_grad=True)
            cot = Tensor(rng.normal(size=fn(x).shape))
            return (lambda: projected_loss(fn(x), cot)), [x]

        return build

    def rand_shape4(rng, cmin=1, cmax=4):
        return (int(rng.integers(1, 3)), int(rng.integers(cmin, cmax)),
                int(rng.integers(2, 4)) * 2, int(rng.integers(2, 4)) * 2)

    def conv_case(seed):
        rng = np.random.default_rng(seed)
        stride = int(rng.integers(1, 3))
        dilation = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        pad = int(rng.integers(0, 3))
        ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        spec = ConvSpec(ci, co, kernel=k, stride=stride, padding=pad, dilation=dilation)
        h = w = 8
        if spec.out_size(h) < 1:
            spec = ConvSpec(ci, co, kernel=k, stride=stride, padding=k, dilation=dilation)
        x = Tensor(rng.normal(size=(2, ci, h, w)), requires_grad=True)
        wt = Tensor(rng.normal(size=(co, ci, k, k)) * 0.4, requires_grad=True)
        b = Tensor(rng.normal(size=co), requires_grad=True)
        out_shape = (2, co, spec.out_size(h), spec.out_size(w))
        cot = Tensor(rng.normal(size=out_shape))
        return (lambda: projected_loss(conv2d(x, wt, b, spec), cot)), [x, wt, b]

    def bn_case(seed):
        rng = np.random.default_rng(seed)
        shape = rand_shape4(rng, 2, 4)
        training = seed % 2 == 0
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        gamma = Tensor(rng.normal(1.0, 0.2, size=shape[1]), requires_grad=True)
        beta = Tensor(rng.normal(size=shape[1]), requires_grad=True)
        state = BatchNormState(shape[1])
        state.running_mean[:] = rng.normal(size=shape[1])
        state.running_var[:] = 0.5 + rng.random(shape[1])
        cot = Tensor(rng.normal(size=shape))

        def make():
            return projected_loss(
                batch_norm(x, gamma, beta,
                           BatchNormState(shape[1]) if training else state, training),
                cot,
            )

        return make, [x, gamma, beta]

    def sparse_case(seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(v) for v in rng.integers(3, 6, 3))
        n_cells = shape[0] * shape[1] * shape[2]
        n_sites = int(rng.integers(2, 10))
        flat = rng.choice(n_cells, size=n_sites, replace=False)
        iz, rem = np.divmod(flat, shape[0] * shape[1])
        iy, ix = np.divmod(rem, shape[0])
        coords = np.column_stack([np.zeros(n_sites, np.int64), ix, iy, iz])
        order = np.lexsort((coords[:, 1], coords[:, 2], coords[:, 3], coords[:, 0]))
        coords = coords[order]
        rb, _, _ = build_rulebook(coords, shape, 3, 1, "submanifold")
        ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        feats = Tensor(rng.normal(size=(n_sites, ci)), requires_grad=True)
        wt = Tensor(rng.normal(size=(27, ci, co)) * 0.4, requires_grad=True)
        b = Tensor(rng.normal(size=co), requires_grad=True)
        cot = Tensor(rng.normal(size=(n_sites, co)))
        return (lambda: projected_loss(sparse_conv_op(feats, wt, b, rb), cot)), [feats, wt, b]

    def densify_case(seed):
        rng = np.random.default_rng(seed)
        shape = (3, 4, 2)
        coords = np.array([[0, 0, 0, 0], [0, 2, 1, 0], [0, 1, 3, 1]])
        feats = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        cot = Tensor(rng.normal(size=(1, 4, 4, 3)))
        return (lambda: projected_loss(densify_bev(feats, coords, shape, 1), cot)), [feats]

    def fuse_case(seed):
        rng = np.random.default_rng(seed)
        shape = rand_shape4(rng, 2, 5)
        f = Tensor(rng.normal(size=shape), requires_grad=True)
        m = Tensor(rng.uniform(0.05, 0.95, size=(shape[0], 1) + shape[2:]),
                   requires_grad=True)
        cot = Tensor(rng.normal(size=shape))
        return (lambda: projected_loss(fuse(f, m), cot)), [f, m]

    def seg_loss_case(seed):
        rng = np.random.default_rng(seed)
        shape = (1, 1, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        logits = Tensor(rng.normal(size=shape), requires_grad=True)
        labels = rng.integers(0, 2, size=shape).astype(float)
        return (lambda: seg_loss(nn_core.sigmoid(logits), labels)), [logits]

    def focal_case(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        logits = Tensor(rng.normal(size=n), requires_grad=True)
        labels = rng.integers(-1, 2, size=n)
        return (lambda: focal_loss(logits, labels)), [logits]

    def loc_case(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        pred = Tensor(rng.normal(scale=2.0, size=(n, 7)), requires_grad=True)
        target = rng.normal(scale=2.0, size=(n, 7))
        mask = np.repeat(rng.integers(0, 2, size=(n, 1)), 7, axis=1).astype(float)
        n_pos = max(1, int(mask[:, 0].sum()))
        return (lambda: loc_loss(pred, target, mask, n_pos)), [pred]

    def dir_case(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        logits = Tensor(rng.normal(size=(n, 2)), requires_grad=True)
        onehot = np.eye(2)[rng.integers(0, 2, size=n)]
        mask = rng.integers(0, 2, size=n).astype(float)
        n_pos = max(1, int(mask.sum()))
        return (lambda: dir_loss(logits, onehot, mask, n_pos, bin_axis=1)), [logits]

    def seg_branch_case(seed):
        branch = SegmentationBranch(channels=4, seed=seed)
        rng = np.random.default_rng(seed + 1)
        x = Tensor(rng.normal(size=(1, 4, 8, 8)), requires_grad=True)
        cot = Tensor(rng.normal(size=(1, 1, 8, 8)))
        params = [x, branch.res_half_a.conv1.weight, branch.fuse_full.weight,
                  branch.head.weight]
        return (lambda: projected_loss(branch(x), cot)), params

    def det_branch_case(seed):
        branch = DetectionBranch(channels=4, seed=seed)
        rng = np.random.default_rng(seed + 1)
        x = Tensor(rng.normal(size=(1, 4, 6, 6)), requires_grad=True)
        cot = Tensor(rng.normal(size=(1, 8, 6, 6)))
        return (lambda: projected_loss(branch(x), cot)), [x, branch.down.weight,
                                                          branch.up.weight]

    return [
        ("conv2d", conv_case),
        ("batch_norm", bn_case),
        ("relu", dense_op(nn_core.relu, rand_shape4)),
        ("sigmoid", dense_op(nn_core.sigmoid, rand_shape4)),
        ("logsumexp", dense_op(lambda x: nn_core.logsumexp(x, axis=1), rand_shape4)),
        ("maxpool2", dense_op(nn_core.maxpool2, rand_shape4)),
        ("upsample_nearest2", dense_op(nn_core.upsample_nearest2, rand_shape4)),
        ("narrow", dense_op(lambda x: nn_core.narrow(x, 3, 1, 2), rand_shape4)),
        ("sparse_conv", sparse_case),
        ("densify_bev", densify_case),
        ("reweight_fusion", fuse_case),
        ("seg_loss", seg_loss_case),
        ("focal_loss", focal_case),
        ("loc_loss", loc_case),
        ("dir_loss", dir_case),
        ("segmentation_branch", seg_branch_case),
        ("detection_branch", det_branch_case),
    ]


def test_criterion_3_gradient_suite():
    """Central finite differences, rel err < 1e-4, >= 5 random shapes per op."""
    worst_by_op = {}
    for name, builder in _gradcheck_cases():
        worst = 0.0
        for seed in range(5):
            make_loss, params = builder(seed * 101 + 13)
            err = finite_diff_error(make_loss, params, max_entries=8, seed=seed)
            worst = max(worst, err)
        worst_by_op[name] = worst
        assert worst < 1e-4, f"{name}: rel err {worst:.2e}"
    summary = max(worst_by_op.items(), key=lambda kv: kv[1])
    _report(3, f"gradient suite over {len(worst_by_op)} ops, worst {summary[0]} "
               f"at {summary[1]:.2e}")


def test_criterion_4_codec_roundtrip():
    """decode(encode(gt, anchor)) identity within 1e-12 over 10k pairs."""
    rng = np.random.default_rng(20240812)
    n = 10_000
    gts = np.column_stack([
        rng.uniform(-50, 50, n), rng.uniform(-50, 50, n), rng.uniform(-3, 3, n),
        rng.uniform(0.3, 4, n), rng.uniform(0.3, 8, n), rng.uniform(0.3, 4, n),
        rng.uniform(-np.pi, np.pi, n),
    ])
    anchors = np.column_stack([
        rng.uniform(-50, 50, n), rng.uniform(-50, 50, n), rng.uniform(-3, 3, n),
        rng.uniform(0.3, 4, n), rng.uniform(0.3, 8, n), rng.uniform(0.3, 4, n),
        rng.uniform(-np.pi, np.pi, n),
    ])
    res = encode(gts, anchors)
    bits = direction_bit(gts[:, 6])
    back = decode(res, anchors, bit=bits)
    err = np.abs(back - gts).max()
    assert err < 1e-12, f"max err {err:.2e}"
    _report(4, f"codec round trip max |err| {err:.2e} over {n} pairs")


def test_criterion_5_loss_arithmetic():
    """Weighted composite matches the hand-computed 1.9 exactly."""
    parts = [(Tensor(np.array(0.1)), Tensor(np.array(0.3)), Tensor(np.array(0.5)))] * 3
    total, report = total_loss(parts, Tensor(np.array(0.2)), LossWeights())
    expected = 0.5 * 0.2 + 3 * (2 * 0.1 + 0.3 + 0.2 * 0.5)
    assert total.item() == expected == 1.9
    assert report.total == 1.9
    _report(5, "total loss reproduces the worked composite 1.9 exactly")


def test_criterion_6_partition_consistency():
    """Bounds [0,72],[52,124],[104,176]: coverage, 20-cell overlaps, max fusion."""
    covered = check_coverage(DEFAULT_PARTS, 176)
    assert covered.min() >= 1
    overlaps = [DEFAULT_PARTS[0].hi - DEFAULT_PARTS[1].lo,
                DEFAULT_PARTS[1].hi - DEFAULT_PARTS[2].lo]
    assert overlaps == [20, 20]
    assert all(ov * 0.4 == pytest.approx(8.0) for ov in overlaps)
    assert (covered == 2).sum() == 40

    rng = np.random.default_rng(99)
    for _ in range(20):
        outs = [
            PartOutput(
                Tensor(rng.normal(scale=3.0, size=(1, 2, 4, spec.width))),
                Tensor(rng.normal(size=(1, 14, 4, spec.width))),
                Tensor(rng.normal(size=(1, 4, 4, spec.width))),
            )
            for spec in DEFAULT_PARTS
        ]
        fused = fuse_scores(outs, DEFAULT_PARTS, 176)
        for spec, out in zip(DEFAULT_PARTS, outs):
            probs = 1.0 / (1.0 + np.exp(-out.cls_logits.data))
            assert (fused.scores[:, :, :, spec.lo:spec.hi] >= probs - 1e-12).all()
    _report(6, "partition coverage total, overlaps 20 cells (8 m), fused max holds")


def test_criterion_7_mask_containment():
    """voxel-type foreground subset of box-type on 100 scenes; exact 10x4 raster."""
    cfg = VoxelizerConfig(range_min=(0.0, -4.8, -3.0), range_max=(9.6, 4.8, 1.0),
                          voxel_size=(0.05, 0.05, 0.1))
    box = Box3D(4.8, 0.0, -1.0, 1.6, 4.0, 1.56, 0.0)
    empty = make_grid(cfg.grid_shape, np.empty((0, 3)), np.empty((0, 4)))
    raster = make_mask(empty, [box], MaskKind.BOX_TYPE, cfg)
    assert raster.labels.sum() == 40

    rng = np.random.default_rng(3)
    for scene_i in range(100):
        n = int(rng.integers(50, 400))
        pts = np.column_stack([
            rng.uniform(0, 9.6, n), rng.uniform(-4.8, 4.8, n),
            rng.uniform(-3, 1, n), rng.uniform(0, 1, n),
        ])
        boxes = [
            Box3D(rng.uniform(1.5, 8), rng.uniform(-3.5, 3.5), rng.uniform(-2, 0),
                  rng.uniform(1, 2.5), rng.uniform(2, 5), rng.uniform(1, 2),
                  rng.uniform(-np.pi, np.pi))
            for _ in range(int(rng.integers(0, 4)))
        ]
        grid = voxelize(PointCloud(pts), cfg)
        vm = make_mask(grid, boxes, MaskKind.VOXEL_TYPE, cfg)
        bm = make_mask(grid, boxes, MaskKind.BOX_TYPE, cfg)
        assert not (vm.labels & ~bm.labels).any(), f"scene {scene_i}"
    _report(7, "voxel-type within box-type on 100 scenes; 10x4 raster exact")


def test_criterion_8_toy_training():
    """200 AdamW steps halve the loss and reach mask IoU > 0.8 in < 10 min."""
    cfg = toy_config()
    scenes = make_toy_dataset(cfg)
    t0 = time.perf_counter()
    result = train_toy(cfg, scenes, steps=200)
    elapsed = time.perf_counter() - t0
    totals = result.totals
    start = totals[:10].mean()
    end = totals[-10:].mean()
    iou = seg_mask_iou(result.model, result.prepared)
    assert elapsed < 600.0, f"wall clock {elapsed:.0f}s"
    assert end <= 0.5 * start, f"loss {start:.3f} -> {end:.3f}"
    assert iou > 0.8, f"mask IoU {iou:.3f}"
    _report(8, f"toy training: loss {start:.2f} -> {end:.2f} "
               f"({1 - end / start:.0%} drop), mask IoU {iou:.2f}, {elapsed:.0f}s")


def test_criterion_9_metric_protocol():
    """Hand-computed R11 AP on five micro datasets; AOS <= AP randomized."""

    def car(x, theta=0.0, l=3.9):
        return Box3D(x, 0.0, -1.0, 1.6, l, 1.56, theta)

    def gt_frame(boxes):
        n = len(boxes)
        return FrameGroundTruth(list(boxes), np.full(n, 50.0), np.zeros(n, int),
                                np.zeros(n))

    def dets(boxes, scores):
        return FrameDetections(list(boxes), np.asarray(scores, float))

    # perfect
    gt = [car(10.0), car(20.0)]
    m = accumulate_matches([(dets(gt, [0.9, 0.8]), gt_frame(gt))], pairwise_iou3d)
    assert average_precision(m, "R11") == 100.0

    # one higher-ranked FP: envelope 0.5 everywhere -> 50
    gt = [car(10.0)]
    m = accumulate_matches([(dets([car(50.0), gt[0]], [0.9, 0.8]), gt_frame(gt))], pairwise_iou3d)
    assert average_precision(m, "R11") == 50.0

    # flipped orientation: AP 100, AOS 0
    gt = [car(10.0, theta=0.0)]
    m = accumulate_matches([(dets([car(10.0, theta=np.pi)], [0.9]), gt_frame(gt))],
                           pairwise_bev_iou)
    assert average_precision(m, "R11") == 100.0
    assert aos(m, "R11") == pytest.approx(0.0, abs=1e-12)

    # threshold boundary: IoU just below 0.7 is a miss
    gt = [car(10.0)]
    shifted = car(10.7)
    assert iou3d(shifted, gt[0]) < 0.7
    m = accumulate_matches([(dets([shifted], [0.9]), gt_frame(gt))], pairwise_iou3d)
    assert average_precision(m, "R11") == 0.0

    # empty detections
    gt = [car(10.0)]
    m = accumulate_matches([(dets([], []), gt_frame(gt))], pairwise_iou3d)
    assert average_precision(m, "R11") == 0.0

    rng = np.random.default_rng(4)
    for _ in range(30):
        n_gt = int(rng.integers(1, 5))
        gt = [car(8.0 * (i + 1), theta=rng.uniform(-np.pi, np.pi)) for i in range(n_gt)]
        n_det = int(rng.integers(0, 7))
        det_boxes = []
        for _ in range(n_det):
            src = gt[int(rng.integers(0, n_gt))]
            det_boxes.append(Box3D(src.x + rng.uniform(-1.5, 1.5),
                                   src.y + rng.uniform(-1.5, 1.5), src.z, src.w, src.l,
                                   src.h, rng.uniform(-np.pi, np.pi)))
        m = accumulate_matches([(dets(det_boxes, rng.random(n_det)), gt_frame(gt))],
                               pairwise_bev_iou)
        ap = average_precision(m, "R11")
        o = aos(m, "R11")
        assert o <= ap + 1e-9
    _report(9, "five micro datasets exact (100/50/flip/boundary/empty); AOS <= AP")


def _run_cli(tmp_path, threads, *argv):
    cmd = [sys.executable, "-m", "voxeldet.cli", "--threads", str(threads), *argv]
    proc = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_10_cli_determinism(tmp_path):
    """Byte-identical outputs across runs and --threads 1 vs 8."""
    from voxeldet.cli import write_simple_detections
    from voxeldet.kitti_io import write_calib, write_labels, write_point_cloud
    from voxeldet.kitti_io import CalibMatrices, detection_to_label

    cfg = toy_config(
        range_min=(0.0, -2.4, -3.0), range_max=(4.8, 2.4, 1.0),
        part_bounds=((0, 5), (3, 9), (7, 12)), toy_ground_points=120,
        toy_car_points=50, toy_max_cars=1, toy_scenes=2, batch_size=2, train_steps=2,
    )
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(dump_config(cfg))

    scene = make_toy_dataset(cfg, n_scenes=1)[0]
    cloud_path = tmp_path / "scene.bin"
    write_point_cloud(cloud_path, scene.cloud)
    calib = CalibMatrices(np.eye(3), np.hstack(
        [np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]),
         np.zeros((3, 1))]), np.eye(3, 4))
    calib_path = tmp_path / "calib.txt"
    write_calib(calib_path, calib)
    labels_path = tmp_path / "labels.txt"
    write_labels(labels_path, [
        detection_to_label(Detection(b, 0.9), calib) for b in scene.gt_boxes
    ])
    dets_path = tmp_path / "dets.txt"
    write_simple_detections(dets_path, [Detection(scene.gt_boxes[0], 0.9)])
    for d in ("dets", "labels", "calib"):
        (tmp_path / d).mkdir()
    write_simple_detections(tmp_path / "dets" / "000000.txt",
                            [Detection(scene.gt_boxes[0], 0.9)])
    (tmp_path / "labels" / "000000.txt").write_text(labels_path.read_text())
    (tmp_path / "calib" / "000000.txt").write_text(calib_path.read_text())

    base = ["--config", str(cfg_path)]
    commands = {
        "dump-config": (base + ["dump-config"], []),
        "voxelize": (base + ["voxelize", "--cloud", str(cloud_path), "--out", "grid.txt"],
                     ["grid.txt"]),
        "masks": (base + ["masks", "--cloud", str(cloud_path), "--labels", str(labels_path),
                          "--calib", str(calib_path), "--out", "mask.pgm"], ["mask.pgm"]),
        "train-toy": (base + ["train-toy", "--checkpoint", "model.bin",
                              "--trace", "trace.csv"], ["model.bin", "trace.csv"]),
        "forward": (base + ["forward", "--cloud", str(cloud_path),
                            "--checkpoint", "model.bin", "--out", "fdets.txt"],
                    ["fdets.txt"]),
        "nms": (base + ["nms", "--detections", str(dets_path), "--out", "kept.txt"],
                ["kept.txt"]),
        "eval": (base + ["eval", "--detections-dir", str(tmp_path / "dets"),
                         "--labels-dir", str(tmp_path / "labels"),
                         "--calib-dir", str(tmp_path / "calib"),
                         "--machine-out", "report.kv"], ["report.kv"]),
        "render-bev": (base + ["render-bev", "--cloud", str(cloud_path),
                               "--detections", str(dets_path), "--out", "scene.ppm"],
                       ["scene.ppm"]),
        "bench": (base + ["bench", "--points", "1500", "--out", "bench.txt"],
                  ["bench.txt"]),
    }
    for name, (argv, files) in commands.items():
        outputs = []
        for threads in (1, 8):
            stdout = _run_cli(tmp_path, threads, *argv)
            blob = stdout + b"".join((tmp_path / f).read_bytes() for f in files)
            outputs.append(blob)
        assert outputs[0] == outputs[1], f"{name}: threads 1 vs 8 differ"
        stdout = _run_cli(tmp_path, 1, *argv)
        blob = stdout + b"".join((tmp_path / f).read_bytes() for f in files)
        assert blob == outputs[0], f"{name}: rerun differs"
    _report(10, f"{len(commands)} subcommands byte-identical across runs and threads")


def test_criterion_11_voxelize_throughput():
    """120k-point cloud voxelized on the default grid in < 200 ms (soft)."""
    from voxeldet.config import RunConfig

    cfg = RunConfig()
    cloud = make_benchmark_cloud(cfg, n_points=120_000, seed=5)
    vox = cfg.voxelizer()
    voxelize(cloud, vox)   # warm-up
    t0 = time.perf_counter()
    grid = voxelize(cloud, vox)
    elapsed = time.perf_counter() - t0
    assert grid.num_sites > 0
    assert elapsed < 0.2, f"voxelize took {elapsed * 1e3:.0f} ms"
    _report(11, f"voxelize 120k points in {elapsed * 1e3:.0f} ms "
                f"({grid.num_sites} sites)")
