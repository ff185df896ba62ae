"""BatchNorm folded into the preceding conv at inference.

Eval mode is inference. Every Conv–BN(–ReLU) unit runs as one conv with
weight w·scale and bias shift (``BatchNorm.fold``), the detection branch's
upsample and 3×3 conv run as four sub-pixel 2×2 convs, the SCE writes its
skips, merges and R in place, and nothing records a graph. These tests hold
the folded path to the unfolded ``relu(norm(conv(x)))`` (with the upsample
as its own op) in float64 and the in-place writes bit for bit to their op
chains, check that an eval forward records no graph and that backward from
it raises, hold training mode bit for bit to the separate ops, check that
an eval forward writes no parameter, buffer or input, and count the conv
work of a full-scale eval forward.
"""

import contextlib

import numpy as np
import pytest

from voxeldet import nn_core, seg_context, sparse_conv
from voxeldet.config import RunConfig, toy_config
from voxeldet.depth_head import PartSpec, PartTower
from voxeldet.model import VehicleDetector
from voxeldet.nn_core import BatchNorm, ConvSpec, Tensor, conv2d, relu, upsample_nearest2
from voxeldet.seg_context import (
    DetectionBranch,
    ResidualBlock,
    SegmentationBranch,
    SemanticContextEncoder,
)
from voxeldet.sparse_conv import VfeEncoder
from voxeldet.synthetic import make_toy_dataset
from voxeldet.voxel_grid import make_grid, voxelize

from helpers import (
    encoder_ops,
    merge_ops,
    projected_loss,
    random_cotangent,
    residual_block_ops,
)


def _explicit_conv_bn(x, conv, norm, with_relu=True, *, upsample=False):
    y = norm(conv(upsample_nearest2(x) if upsample else x))
    return relu(y) if with_relu else y


def _explicit_sparse_conv_bn_relu(self, name, x, rulebook):
    return relu(self._children[name + ".norm"](self._children[name](x, rulebook)))


@contextlib.contextmanager
def _unfolded(monkeypatch):
    """Run every Conv–BN(–ReLU) unit as three separate ops, in either mode."""
    with monkeypatch.context() as m:
        m.setattr(nn_core, "conv_bn", _explicit_conv_bn)
        m.setattr(VfeEncoder, "_conv_bn_relu", _explicit_sparse_conv_bn_relu)
        yield


def _randomise_norms(module, seed):
    """Random γ, β and running statistics for every BatchNorm in ``module``."""
    rng = np.random.default_rng(seed)
    for name, arr in module.state_dict().items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gamma":
            arr[...] = rng.uniform(0.5, 2.0, arr.shape)
        elif leaf in ("beta", "running_mean"):
            arr[...] = rng.normal(0.0, 0.5, arr.shape)
        elif leaf == "running_var":
            arr[...] = rng.uniform(0.2, 3.0, arr.shape)


def _outputs(result):
    if isinstance(result, Tensor):
        return [result]
    if isinstance(result, tuple):   # the encoder's (R, M)
        return list(result)
    return [result.cls_logits, result.box, result.dir_logits]


def _vfe_plan(enc, seed):
    rng = np.random.default_rng(seed)
    grids = []
    for _ in range(2):
        idx = np.unique(np.column_stack([rng.integers(0, 16, 80), rng.integers(0, 16, 80),
                                         rng.integers(0, 8, 80)]), axis=0)
        grids.append(make_grid((16, 16, 8), idx, rng.normal(size=(len(idx), 4))))
    return enc.build_plan(grids)


def _residual_block():
    return ResidualBlock(6, np.random.default_rng(1)), (2, 6, 8, 8)


def _detection_branch():
    return DetectionBranch(6, seed=2), (2, 6, 8, 8)


def _segmentation_branch():
    return SegmentationBranch(6, seed=6), (2, 6, 8, 12)


def _encoder():
    return SemanticContextEncoder(6, seed=7), (2, 6, 8, 12)


def _part_tower_dilated():
    spec = PartSpec(0, 12, kernel=3, dilation=2)
    return PartTower(spec, np.random.default_rng(3), in_channels=6, mid_channels=5), (2, 6, 5, 12)


def _part_tower_1x1():
    spec = PartSpec(0, 12, kernel=1)
    return PartTower(spec, np.random.default_rng(4), in_channels=6, mid_channels=5), (2, 6, 5, 12)


def _vfe_encoder():
    return VfeEncoder((16, 16, 8), seed=5), None


CASES = {
    "residual_block": _residual_block,
    "detection_branch": _detection_branch,
    "segmentation_branch": _segmentation_branch,
    "semantic_context_encoder": _encoder,
    "part_tower_k3_d2": _part_tower_dilated,
    "part_tower_k1": _part_tower_1x1,
    "vfe_encoder": _vfe_encoder,
}


def _build(case):
    """(module, input, forward): a seeded module with random norms and its input."""
    module, shape = CASES[case]()
    _randomise_norms(module, seed=11)
    if shape is None:
        return module, _vfe_plan(module, seed=12), lambda m, plan: _outputs(m.forward(plan))
    x = Tensor(np.random.default_rng(13).normal(size=shape), requires_grad=True)
    return module, x, lambda m, inp: _outputs(m(inp))


def _no_norm_pass(*args, **kwargs):
    raise AssertionError("an eval forward ran a separate BatchNorm pass")


TENSOR_CASES = [case for case in CASES if case != "vfe_encoder"]
# upsampled maps an eval forward builds: only the pyramid's two merges, never
# the input of the detection branch's up-conv
UPSAMPLES = {"segmentation_branch": 2, "semantic_context_encoder": 2}


@pytest.mark.parametrize("case", CASES)
def test_eval_fold_matches_unfolded_in_float64(monkeypatch, case):
    monkeypatch.setattr(sparse_conv, "_FEATURE_DTYPE", np.float64)
    module, x, forward = _build(case)
    module.eval()
    upsampled = []
    with monkeypatch.context() as m:
        m.setattr(BatchNorm, "forward", _no_norm_pass)
        m.setattr(nn_core, "upsample_nearest2",
                  lambda t: upsampled.append(t) or upsample_nearest2(t))
        folded = [t.data for t in forward(module, x)]
    assert len(upsampled) == UPSAMPLES.get(case, 0)
    with _unfolded(monkeypatch):
        unfolded = [t.data for t in forward(module, x)]
    for got, ref in zip(folded, unfolded):
        assert got.dtype == ref.dtype == np.float64 and got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _toy_detector():
    """A 12×12-cell toy detector, its one-scene grid and its forward."""
    cfg = toy_config(range_min=(0.0, -2.4, -3.0), range_max=(4.8, 2.4, 1.0),
                     part_bounds=((0, 5), (3, 9), (7, 12)))
    grid = voxelize(make_toy_dataset(cfg, n_scenes=1)[0].cloud, cfg.voxelizer())

    def forward(model, g):
        out = model.forward([g])
        return [out.bev, out.probability, out.fused] + [t for part in out.parts
                                                        for t in _outputs(part)]
    return VehicleDetector(cfg), grid, forward


@pytest.mark.parametrize("case", [*CASES, "vehicle_detector"])
def test_eval_forward_records_no_graph(case):
    """An eval forward, with no ``no_grad`` around it, returns outputs that
    record no graph and gives no parameter or input a gradient; ``backward``
    from a loss of them raises. The training forward records a graph that
    reaches every parameter."""
    module, x, forward = _toy_detector() if case == "vehicle_detector" else _build(case)
    leaves = list(module.named_parameters().values())
    leaves += [x] if isinstance(x, Tensor) else []
    for training in (False, True):
        module.train(training)
        outs = forward(module, x)
        loss = sum(projected_loss(o, random_cotangent(o.shape, seed=40 + i))
                   for i, o in enumerate(outs))
        if training:
            assert all(o.requires_grad for o in outs)
            loss.backward()
            assert all(t.grad is not None for t in leaves)
        else:
            assert not any(o.requires_grad or o._parents for o in outs)
            with pytest.raises(ValueError, match="records no graph"):
                loss.backward()
            assert all(t.grad is None for t in leaves)


@pytest.mark.parametrize("case", ["residual_block", "segmentation_branch",
                                  "semantic_context_encoder"])
def test_in_place_merges_are_bit_identical_to_graph_ops(monkeypatch, case):
    """Eval mode writes the skips, pyramid merges and R in place; in float32
    their bits equal those of the op chains ``relu(x + y)``,
    ``fine + upsample_nearest2(coarse)`` and ``fuse(concat([bev, U]), M)``."""
    module, x, forward = _build(case)
    module.eval()
    x32 = Tensor(x.data.astype(np.float32))
    in_place = [t.data for t in forward(module, x32)]
    with monkeypatch.context() as m:
        m.setattr(ResidualBlock, "forward", residual_block_ops)
        m.setattr(seg_context, "_merge", merge_ops)
        m.setattr(SemanticContextEncoder, "forward", encoder_ops)
        ops = [t.data for t in forward(module, x32)]
    for got, ref in zip(in_place, ops):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("case", TENSOR_CASES)
def test_eval_forward_without_graph_leaves_input_bytes_unchanged(case):
    module, x, forward = _build(case)
    module.eval()
    bev = Tensor(x.data.astype(np.float32))
    before = bev.data.tobytes()
    forward(module, bev)
    assert bev.data.tobytes() == before


@pytest.mark.parametrize("case", CASES)
def test_training_is_bit_identical_to_explicit_path(monkeypatch, case):
    runs = []
    for explicit in (False, True):
        module, x, forward = _build(case)
        with _unfolded(monkeypatch) if explicit else contextlib.nullcontext():
            outs = forward(module, x)
            loss = sum(projected_loss(o, random_cotangent(o.shape, seed=20 + i))
                       for i, o in enumerate(outs))
            loss.backward()
        grads = {n: p.grad for n, p in module.named_parameters().items()}
        if isinstance(x, Tensor):
            grads["input"] = x.grad
        runs.append(([o.data for o in outs], grads, module.state_dict()))
    (outs, grads, state), (outs_ref, grads_ref, state_ref) = runs
    for got, ref in zip(outs, outs_ref):
        np.testing.assert_array_equal(got, ref)
    assert grads.keys() == grads_ref.keys()
    for name in grads:
        assert grads[name] is not None, name
        np.testing.assert_array_equal(grads[name], grads_ref[name], err_msg=name)
    for name in state:   # running statistics took the same update
        np.testing.assert_array_equal(state[name], state_ref[name], err_msg=name)


@pytest.mark.parametrize("case", CASES)
def test_eval_forward_leaves_state_dict_unchanged(case):
    module, x, forward = _build(case)
    module.eval()
    before = {k: v.copy() for k, v in module.state_dict().items()}
    forward(module, x)
    after = module.state_dict()
    assert after.keys() == before.keys()
    for name in before:
        np.testing.assert_array_equal(after[name], before[name], err_msg=name)


def test_conv2d_relu_keyword_matches_relu_op(monkeypatch):
    # two output rows per band, so the in-place ReLU runs on several bands
    spec = ConvSpec(3, 4, kernel=3, padding=1)
    monkeypatch.setattr(nn_core, "_IM2COL_CHUNK", 2 * 3 * 9 * 8)
    rng = np.random.default_rng(32)
    arrays = (rng.normal(size=(2, 3, 9, 8)), rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4))
    cot = random_cotangent((2, 4, 9, 8), seed=33)
    runs = []
    for fused in (True, False):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = conv2d(x, w, b, spec, relu=True) if fused else relu(conv2d(x, w, b, spec))
        projected_loss(out, cot).backward()
        runs.append([out.data, x.grad, w.grad, b.grad])
    for got, ref in zip(*runs):
        np.testing.assert_array_equal(got, ref)


def test_eval_forward_conv_flops_of_default_config(monkeypatch):
    """2 × the conv2d multiply-adds of one eval forward of the default
    (full-scale) config. They depend only on map shapes, so a few sites
    suffice: 83.74 GFLOP, of which the detection branch's sub-pixel up-conv
    takes 4.71 where a 3×3 conv of the upsampled map would take 10.38."""
    cfg = RunConfig()
    model = VehicleDetector(cfg).eval()
    nx, ny, nz = cfg.grid_shape
    idx = np.array([[0, 0, 0], [nx // 2, ny // 2, nz // 2], [nx - 1, ny - 1, nz - 1]])
    grid = make_grid(cfg.grid_shape, idx, np.ones((3, 4)))
    flops = []
    real_conv2d = nn_core.conv2d

    def counting_conv2d(x, weight, bias, spec, **kwargs):
        out = real_conv2d(x, weight, bias, spec, **kwargs)
        n, c = x.shape[:2]
        flops.append(2 * n * spec.out_channels * c * spec.kernel ** 2 * out.shape[2] * out.shape[3])
        return out

    monkeypatch.setattr(nn_core, "conv2d", counting_conv2d)
    model.forward([grid])
    assert round(sum(flops) / 1e9, 2) == 83.74
