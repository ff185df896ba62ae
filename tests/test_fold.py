"""BatchNorm folded into the preceding conv at inference.

In eval mode every Conv–BN(–ReLU) unit runs as one conv with weight w·scale
and bias shift (``BatchNorm.fold``). These tests hold the folded path to
the unfolded ``relu(norm(conv(x)))`` in float64, hold training mode bit for
bit to the three separate ops, and check that an eval forward writes no
parameter or buffer.
"""

import contextlib

import numpy as np
import pytest

from voxeldet import nn_core, sparse_conv
from voxeldet.depth_head import PartSpec, PartTower
from voxeldet.nn_core import BatchNorm, ConvSpec, Tensor, conv2d, no_grad, relu
from voxeldet.seg_context import DetectionBranch, ResidualBlock
from voxeldet.sparse_conv import VfeEncoder
from voxeldet.voxel_grid import make_grid

from helpers import projected_loss, random_cotangent


def _explicit_conv_bn(x, conv, norm, with_relu=True):
    y = norm(conv(x))
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


@pytest.mark.parametrize("case", CASES)
def test_eval_fold_matches_unfolded_in_float64(monkeypatch, case):
    monkeypatch.setattr(sparse_conv, "_FEATURE_DTYPE", np.float64)
    module, x, forward = _build(case)
    module.eval()
    with no_grad(), monkeypatch.context() as m:
        m.setattr(BatchNorm, "__call__", _no_norm_pass)
        folded = [t.data for t in forward(module, x)]
    with no_grad(), _unfolded(monkeypatch):
        unfolded = [t.data for t in forward(module, x)]
    for got, ref in zip(folded, unfolded):
        assert got.dtype == ref.dtype == np.float64 and got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


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
    with no_grad():
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
