"""Engine dtype contract and the precision of float32 training and inference.

Every op keeps the dtype of its input: float32 in gives float32 out, and
float64 in gives the same bits as the plain float64 numpy arithmetic the
ops were written as. Forward passes, training and eval alike, run in
``sparse_conv._FEATURE_DTYPE`` (float32), and so do their backward passes.
``nn_core.astype`` casts the network outputs to float64, so every loss term
is computed and summed in float64. Parameters, gradient buffers, AdamW
moments, running statistics and checkpoints stay float64.
"""

import numpy as np
import pytest

from voxeldet import nn_core, sparse_conv, train
from voxeldet.nn_core import (
    BatchNormState,
    ConvSpec,
    Tensor,
    absolute,
    add,
    astype,
    batch_norm,
    clamp,
    concat,
    concat_channels,
    conv2d,
    div,
    load_checkpoint,
    log,
    logsumexp,
    maxpool2,
    mul,
    narrow,
    no_grad,
    power,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    save_checkpoint,
    sigmoid,
    upsample_nearest2,
)
from voxeldet.model import VehicleDetector
from voxeldet.seg_context import seg_loss
from voxeldet.sparse_conv import build_rulebook, densify_bev, sparse_conv_forward
from voxeldet.synthetic import make_toy_dataset
from voxeldet.train import LossWeights, part_loss_terms, prepare_batches, total_loss, train_step

from helpers import conv2d_naive, finite_diff_error, projected_loss, random_cotangent
from test_nn_core import _BAND_CASES, _two_row_bands
from test_sparse_conv import _random_sites
from test_train import micro_config

# float32 carries 24 significand bits (unit roundoff 6e-8); a few hundred
# accumulated products stay well inside this relative bound
F32_RTOL = 1e-5


def _close_f32(got32, ref64, rtol=F32_RTOL):
    """float32 result within ``rtol`` of the float64 one, relative to its largest entry."""
    assert got32.dtype == np.float32
    scale = max(float(np.abs(ref64).max()), 1e-30)
    assert float(np.abs(got32.astype(np.float64) - ref64).max()) <= rtol * scale


def _im2col_conv_f64(x, w, b, spec):
    """The float64 band arithmetic of conv2d, spelled out: one im2col, one matmul."""
    n, c, h, wd = x.shape
    p, k, s, d = spec.padding, spec.kernel, spec.stride, spec.dilation
    oh, ow = spec.out_size(h), spec.out_size(wd)
    xp = np.zeros((n, c, h + 2 * p, wd + 2 * p))
    xp[:, :, p : p + h, p : p + wd] = x
    cols = np.empty((n, c, k, k, oh, ow))
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i * d : i * d + s * (oh - 1) + 1 : s,
                                  j * d : j * d + s * (ow - 1) + 1 : s]
    out = np.matmul(w.reshape(len(w), -1), cols.reshape(n, c * k * k, oh * ow))
    return out.reshape(n, len(w), oh, ow) + b.reshape(1, -1, 1, 1)


class TestEngineDtype:
    @pytest.mark.parametrize("stride,padding,dilation,kernel", _BAND_CASES)
    @pytest.mark.parametrize("bands", ["single", "multi"])
    def test_conv2d(self, monkeypatch, stride, padding, dilation, kernel, bands):
        rng = np.random.default_rng(60 + stride * 10 + padding * 3 + dilation + kernel)
        x = rng.normal(size=(2, 3, 9, 8))
        w = rng.normal(size=(4, 3, kernel, kernel))
        b = rng.normal(size=4)
        spec = ConvSpec(3, 4, kernel=kernel, stride=stride, padding=padding, dilation=dilation)
        if bands == "multi":
            _two_row_bands(monkeypatch, spec, 9, 8)
        out64 = conv2d(Tensor(x), Tensor(w), Tensor(b), spec).data
        assert out64.dtype == np.float64
        if bands == "single":
            np.testing.assert_array_equal(out64, _im2col_conv_f64(x, w, b, spec))
        out32 = conv2d(Tensor(x.astype(np.float32)), Tensor(w), Tensor(b), spec).data
        _close_f32(out32, conv2d_naive(x, w, b, stride, padding, dilation))

    def test_batch_norm_eval(self):
        rng = np.random.default_rng(70)
        x = rng.normal(size=(2, 3, 4, 5))
        gamma, beta = rng.normal(1.0, 0.1, size=3), rng.normal(size=3)
        state = BatchNormState(3)
        state.running_mean[:] = rng.normal(size=3)
        state.running_var[:] = 1.0 + rng.random(3)

        def run(data):
            return batch_norm(Tensor(data), Tensor(gamma), Tensor(beta), state,
                              training=False).data

        p = (1, 3, 1, 1)
        ivar = 1.0 / np.sqrt(state.running_var + 1e-5)
        ref = gamma.reshape(p) * ((x - state.running_mean.reshape(p)) * ivar.reshape(p)) \
            + beta.reshape(p)
        np.testing.assert_array_equal(run(x), ref)
        _close_f32(run(x.astype(np.float32)), ref)
        assert state.running_mean.dtype == state.running_var.dtype == np.float64

    @pytest.mark.parametrize("name, op, ref", [
        ("relu", relu, lambda x: np.maximum(x, 0.0)),
        ("sigmoid", sigmoid, lambda x: np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                                                np.exp(x) / (1.0 + np.exp(x)))),
        ("maxpool2", maxpool2,
         lambda x: x.reshape(2, 3, 2, 2, 2, 2).max(axis=(3, 5))),
        ("upsample_nearest2", upsample_nearest2,
         lambda x: x.repeat(2, axis=2).repeat(2, axis=3)),
        ("concat", lambda t: concat([t, t * 2.0], axis=1),
         lambda x: np.concatenate([x, x * 2.0], axis=1)),
        ("narrow", lambda t: narrow(t, 3, 1, 2), lambda x: x[:, :, :, 1:3]),
        ("add_scalar", lambda t: 1.0 + t, lambda x: 1.0 + x),
        ("mul_scalar", lambda t: t * 0.3, lambda x: x * 0.3),
        ("rsub_scalar", lambda t: 2 - t, lambda x: 2.0 - x),
        ("div_scalar", lambda t: t / 3.0, lambda x: x / 3.0),
    ])
    def test_elementwise_and_shape_ops(self, name, op, ref):
        x = np.random.default_rng(80).normal(size=(2, 3, 4, 4))
        out64 = op(Tensor(x)).data
        assert out64.dtype == np.float64
        np.testing.assert_array_equal(out64, ref(x))
        out32 = op(Tensor(x.astype(np.float32))).data
        _close_f32(out32, ref(x), rtol=1e-6)

    @pytest.mark.parametrize("name, op", [
        ("add", lambda t, u: add(t, u)),
        ("mul", lambda t, u: mul(t, u)),
        ("div", lambda t, u: div(t, u)),
        ("sub_neg", lambda t, u: -(t - u)),
        ("power", lambda t, u: power(t, 1.5)),
        ("log", lambda t, u: log(t)),
        ("absolute", lambda t, u: absolute(t)),
        ("clamp", lambda t, u: clamp(t, 0.8, 1.5)),
        ("relu", lambda t, u: relu(t)),
        ("sigmoid", lambda t, u: sigmoid(t)),
        ("logsumexp", lambda t, u: logsumexp(t, axis=1)),
        ("reduce_sum_axis", lambda t, u: reduce_sum(t, axis=(0, 2))),
        ("reduce_sum_full", lambda t, u: reduce_sum(t)),
        ("reduce_mean_axis", lambda t, u: reduce_mean(t, axis=1)),
        ("reduce_mean_full", lambda t, u: reduce_mean(t)),
        ("scalar_chain", lambda t, u: mul(reduce_sum(t), 0.5) / 3.0 + 1.0),
        ("reshape", lambda t, u: reshape(t, (6, 16))),
        ("narrow", lambda t, u: narrow(t, 2, 1, 2)),
        ("concat", lambda t, u: concat([t, u], axis=0)),
        ("concat_channels", lambda t, u: concat_channels([t, u])),
        ("conv2d", lambda t, u: conv2d(t, Tensor(np.full((2, 3, 3, 3), 0.1), requires_grad=True),
                                       Tensor(np.zeros(2), requires_grad=True),
                                       ConvSpec(3, 2, kernel=3, stride=2, padding=1))),
        ("conv2d_relu", lambda t, u: conv2d(t, Tensor(np.full((2, 3, 1, 1), -0.1),
                                                      requires_grad=True),
                                            None, ConvSpec(3, 2, kernel=1), relu=True)),
        ("maxpool2", lambda t, u: maxpool2(t)),
        ("upsample_nearest2", lambda t, u: upsample_nearest2(t)),
        ("batch_norm_train", lambda t, u: batch_norm(
            t, Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True),
            BatchNormState(3), training=True)),
        ("batch_norm_eval", lambda t, u: batch_norm(
            t, Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True),
            BatchNormState(3), training=False)),
    ])
    def test_float32_in_float32_out_and_grad(self, name, op):
        """Every op, full reductions and scalar arithmetic included, keeps float32:
        numpy returns an op on 0-d float32 arrays as an ``np.float32`` scalar."""
        rng = np.random.default_rng(85)
        t = Tensor(rng.uniform(0.5, 2.0, size=(2, 3, 4, 4)).astype(np.float32),
                   requires_grad=True)
        u = Tensor(rng.uniform(0.5, 2.0, size=(2, 3, 4, 4)).astype(np.float32),
                   requires_grad=True)
        out = op(t, u)
        assert out.data.dtype == np.float32
        loss = out.sum()
        assert loss.data.dtype == np.float32
        loss.backward()
        assert t.grad.dtype == np.float32 and np.isfinite(t.grad).all()
        assert u.grad is None or u.grad.dtype == np.float32

    def test_sparse_conv_forward_and_densify(self):
        rng = np.random.default_rng(90)
        shape = (6, 5, 4)
        coords = _random_sites(rng, shape, 20)
        feats = rng.normal(size=(len(coords), 3))
        rb, _, _ = build_rulebook(coords, shape, 3, 1, "submanifold")
        weights, bias = rng.normal(size=(27, 3, 5)), rng.normal(size=5)
        out64 = sparse_conv_forward(feats, weights, bias, rb)
        ref = np.zeros((rb.n_out, 5))
        for k, (in_idx, out_idx) in enumerate(rb.pairs):
            if len(in_idx):
                ref[out_idx] += feats[in_idx] @ weights[k]
        np.testing.assert_array_equal(out64, ref + bias)
        out32 = sparse_conv_forward(feats.astype(np.float32), weights, bias, rb)
        _close_f32(out32, out64)

        dense64 = densify_bev(Tensor(out64), coords, shape, batch_size=2).data
        dense32 = densify_bev(Tensor(out32), coords, shape, batch_size=2).data
        assert dense64.dtype == np.float64 and dense32.dtype == np.float32
        np.testing.assert_array_equal(
            dense32, densify_bev(Tensor(out32.astype(np.float64)), coords, shape, 2).data
            .astype(np.float32))


# -- model-level precision ------------------------------------------------------------


@pytest.fixture
def micro_setup():
    cfg = micro_config(toy_scenes=2)
    model = VehicleDetector(cfg)
    batches = prepare_batches(cfg, model, make_toy_dataset(cfg))
    return cfg, model, batches


def _eval_forward(model, plan):
    model.eval()
    with no_grad():
        out = model.forward_from_plan(plan)
    model.train()
    return out


def _arrays(out):
    """Name -> array for the BEV map B, R, M and every head output."""
    named = {"bev": out.bev.data, "fused": out.fused.data, "probability": out.probability.data}
    for i, part in enumerate(out.parts):
        named.update({f"part{i}.cls": part.cls_logits.data, f"part{i}.box": part.box.data,
                      f"part{i}.dir": part.dir_logits.data})
    return named


class TestInferencePrecision:
    def test_float32_eval_matches_float64_reference(self, micro_setup, monkeypatch):
        _, model, batches = micro_setup
        plan = batches[0].plan
        got = _arrays(_eval_forward(model, plan))
        monkeypatch.setattr(sparse_conv, "_FEATURE_DTYPE", np.float64)
        ref = _arrays(_eval_forward(model, plan))
        for name in ref:
            assert ref[name].dtype == np.float64, name
            _close_f32(got[name], ref[name])

    def test_eval_forward_leaves_float64_state_untouched(self, micro_setup, tmp_path):
        _, model, batches = micro_setup
        before = {k: v.copy() for k, v in model.state_dict().items()}
        save_checkpoint(tmp_path / "before.bin", model.state_dict())
        _eval_forward(model, batches[0].plan)
        after = model.state_dict()
        for name, value in after.items():
            assert value.dtype == np.float64, name
            np.testing.assert_array_equal(value, before[name])
        save_checkpoint(tmp_path / "after.bin", after)
        assert (tmp_path / "before.bin").read_bytes() == (tmp_path / "after.bin").read_bytes()


class TestTrainingPrecision:
    def test_float32_features_over_float64_state(self, micro_setup, monkeypatch, tmp_path):
        cfg, model, batches = micro_setup
        _eval_forward(model, batches[0].plan)
        assert model.training
        out = model.forward_from_plan(batches[0].plan)
        assert all(a.dtype == np.float32 for a in _arrays(out).values())

        seen = []   # every loss input and every loss term, down to the total

        def recording_seg_loss(probability, labels):
            seen.extend([probability, seg_loss(probability, labels)])
            return seen[-1]

        def recording_part_loss_terms(part_output, targets, weights):
            terms = part_loss_terms(part_output, targets, weights)
            seen.extend([part_output.cls_logits, part_output.box, part_output.dir_logits, *terms])
            return terms

        def recording_total_loss(part_terms, seg_term, weights):
            total, report = total_loss(part_terms, seg_term, weights)
            seen.append(total)
            return total, report

        monkeypatch.setattr(train, "seg_loss", recording_seg_loss)
        monkeypatch.setattr(train, "part_loss_terms", recording_part_loss_terms)
        monkeypatch.setattr(train, "total_loss", recording_total_loss)
        optimizer = nn_core.AdamW(model.named_parameters(), lr=cfg.learning_rate)
        train_step(model, batches[0], LossWeights.from_config(cfg), optimizer)
        assert len(seen) == 2 + 6 * len(cfg.parts()) + 1
        assert all(t.data.dtype == np.float64 for t in seen)

        params = model.named_parameters()
        assert all(p.data.dtype == np.float64 for p in params.values())
        assert all(p.grad is not None and p.grad.dtype == np.float64 for p in params.values())
        assert all(a.dtype == np.float64 for a in [*optimizer.m.values(), *optimizer.v.values()])
        assert all(b.dtype == np.float64 for b in model.named_buffers().values())
        state = model.state_dict()
        save_checkpoint(tmp_path / "step.bin", state)
        loaded = load_checkpoint(tmp_path / "step.bin")
        for name, value in state.items():
            assert loaded[name].dtype == np.float64, name
            np.testing.assert_array_equal(loaded[name], value)

    def test_one_step_matches_float64_reference(self, micro_setup, monkeypatch):
        """Measured on this config: loss 3.5e-8, gradients 1.7e-6, running
        statistics 2.2e-7 (relative L2 error against an all-float64 step)."""
        cfg, _, batches = micro_setup

        def one_step():
            model = VehicleDetector(cfg)
            optimizer = nn_core.AdamW(model.named_parameters(), lr=cfg.learning_rate)
            report = train_step(model, batches[0], LossWeights.from_config(cfg), optimizer)
            grads = np.concatenate([p.grad.ravel() for p in model.named_parameters().values()])
            stats = np.concatenate([b.ravel() for b in model.named_buffers().values()])
            return report.total, grads, stats

        loss32, grads32, stats32 = one_step()
        monkeypatch.setattr(sparse_conv, "_FEATURE_DTYPE", np.float64)
        loss64, grads64, stats64 = one_step()

        def rel(got, ref):
            return np.linalg.norm(np.subtract(got, ref)) / np.linalg.norm(ref)

        assert rel(loss32, loss64) <= 1e-6
        assert rel(grads32, grads64) <= 1e-4
        assert rel(stats32, stats64) <= 1e-5


class TestAstype:
    def test_forward_and_backward_dtypes(self):
        x = Tensor(np.random.default_rng(95).normal(size=(3, 4)), requires_grad=True)
        assert astype(x, np.float64) is x
        y = astype(x, np.float32)
        assert y.data.dtype == np.float32
        np.testing.assert_array_equal(y.data, x.data.astype(np.float32))
        z = astype(y * 2.0, np.float64)
        assert z.data.dtype == np.float64
        z.sum().backward()
        assert x.grad.dtype == np.float64
        np.testing.assert_array_equal(x.grad, 2.0)

        leaf32 = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        (astype(leaf32, np.float64) * 3.0).sum().backward()
        assert leaf32.grad.dtype == np.float32
        np.testing.assert_array_equal(leaf32.grad, 3.0)

    def test_finite_difference_through_both_casts(self):
        """x and x ± h are float32-exact (multiples of 2^-10), so the float64 →
        float32 → float64 round trip loses nothing and the check runs in float64."""
        rng = np.random.default_rng(96)
        x = Tensor(np.round(rng.normal(size=(3, 4)) * 1024) / 1024, requires_grad=True)
        cot = random_cotangent((3, 4), 97)

        def loss():
            return projected_loss(sigmoid(astype(relu(astype(x, np.float32)), np.float64)), cot)

        assert finite_diff_error(loss, [x], h=2.0 ** -10) < 1e-5
