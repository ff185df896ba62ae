import struct

import numpy as np
import pytest

from voxeldet import nn_core
from voxeldet.nn_core import (
    AdamW,
    BatchNorm,
    BatchNormState,
    Conv2d,
    ConvSpec,
    Tensor,
    batch_norm,
    clamp,
    concat,
    conv2d,
    load_checkpoint,
    logsumexp,
    maxpool2,
    narrow,
    no_grad,
    relu,
    save_checkpoint,
    sigmoid,
    upsample_nearest2,
)

from helpers import (
    adamw_step_textbook,
    batch_norm_backward_chain,
    conv2d_backward_col2im,
    conv2d_naive,
    conv_input_grad_zero_stuffed,
    finite_diff_error,
    maxpool2_windows,
    projected_loss,
    random_cotangent,
)


def _param(arr):
    return Tensor(arr, requires_grad=True)


def _assert_close_rel(got, ref, rtol=1e-12):
    """``got`` within ``rtol`` of ``ref``, relative to the largest entry of ``ref``."""
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= rtol * np.abs(ref).max(initial=0.0)


class TestConv2d:
    def test_identity_1x1(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 4, 4)))
        w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        spec = ConvSpec(3, 3, kernel=1)
        out = conv2d(x, w, None, spec)
        np.testing.assert_allclose(out.data, x.data)

    def test_ones_kernel_on_one_hot(self):
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 1.0
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(Tensor(x), w, None, ConvSpec(1, 1, kernel=3, padding=1))
        expected = np.zeros((5, 5))
        expected[1:4, 1:4] = 1.0
        np.testing.assert_allclose(out.data[0, 0], expected)

    def test_dilated_shape(self):
        x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 7, 7)))
        spec = ConvSpec(2, 4, kernel=3, padding=2, dilation=2)
        w = Tensor(np.random.default_rng(2).normal(size=(4, 2, 3, 3)))
        out = conv2d(x, w, None, spec)
        assert out.shape == (1, 4, 7, 7)

    def test_identity_kernel_is_identity_map(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 6, 5)))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = conv2d(x, Tensor(w), None, ConvSpec(3, 3, kernel=3, padding=1))
        np.testing.assert_allclose(out.data, x.data)

    @pytest.mark.parametrize("stride,padding,dilation", [(1, 0, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2)])
    def test_matches_naive_oracle(self, stride, padding, dilation):
        rng = np.random.default_rng(stride * 10 + padding * 3 + dilation)
        x = rng.normal(size=(2, 3, 9, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        spec = ConvSpec(3, 4, kernel=3, stride=stride, padding=padding, dilation=dilation)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), spec)
        expected = conv2d_naive(x, w, b, stride, padding, dilation)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        x = _param(rng.normal(size=(2, 3, 8, 8)))
        w = _param(rng.normal(size=(4, 3, 3, 3)) * 0.3)
        b = _param(rng.normal(size=4))
        spec = ConvSpec(3, 4, kernel=3, stride=2, padding=1)
        cot = random_cotangent((2, 4, 4, 4), seed=8)

        def loss():
            return projected_loss(conv2d(x, w, b, spec), cot)

        assert finite_diff_error(loss, [x, w, b], max_entries=40) < 1e-5

    def test_shape_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 5, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w, None, ConvSpec(5, 2, kernel=3))


# (stride, padding, dilation, kernel); every case has an odd number (>= 5) of output rows
_BAND_CASES = [(1, 1, 1, 3), (2, 1, 1, 3), (1, 2, 2, 3), (1, 0, 1, 1)]


def _two_row_bands(monkeypatch, spec, h, w):
    """Shrink the per-image im2col budget to 2 rows per band: >= 3 bands, the last partial."""
    oh, ow = spec.out_size(h), spec.out_size(w)
    assert oh >= 5 and oh % 2 == 1
    monkeypatch.setattr(nn_core, "_IM2COL_CHUNK", 2 * spec.in_channels * spec.kernel**2 * ow)


class TestConv2dBands:
    @pytest.mark.parametrize("stride,padding,dilation,kernel", _BAND_CASES)
    def test_multi_band_matches_oracle_and_single_band(self, monkeypatch, stride, padding,
                                                        dilation, kernel):
        rng = np.random.default_rng(20 + stride * 10 + padding * 3 + dilation + kernel)
        x = rng.normal(size=(2, 3, 9, 8))
        w = rng.normal(size=(4, 3, kernel, kernel))
        b = rng.normal(size=4)
        spec = ConvSpec(3, 4, kernel=kernel, stride=stride, padding=padding, dilation=dilation)
        cot = Tensor(rng.normal(size=(2, 4, spec.out_size(9), spec.out_size(8))))

        def run():
            xt, wt, bt = _param(x.copy()), _param(w.copy()), _param(b.copy())
            out = conv2d(xt, wt, bt, spec)
            projected_loss(out, cot).backward()
            return out.data, xt.grad, wt.grad, bt.grad

        single = run()
        _two_row_bands(monkeypatch, spec, 9, 8)
        multi = run()
        expected = conv2d_naive(x, w, b, stride, padding, dilation)
        np.testing.assert_allclose(multi[0], expected, atol=1e-12)
        for got, ref in zip(multi, single):
            np.testing.assert_allclose(got, ref, atol=1e-12)

    @pytest.mark.parametrize("stride,padding,dilation,kernel", _BAND_CASES)
    def test_multi_band_gradients_match_finite_differences(self, monkeypatch, stride, padding,
                                                           dilation, kernel):
        rng = np.random.default_rng(40 + stride * 10 + padding * 3 + dilation + kernel)
        spec = ConvSpec(3, 4, kernel=kernel, stride=stride, padding=padding, dilation=dilation)
        x = _param(rng.normal(size=(2, 3, 9, 8)))
        w = _param(rng.normal(size=(4, 3, kernel, kernel)) * 0.3)
        b = _param(rng.normal(size=4))
        cot = random_cotangent((2, 4, spec.out_size(9), spec.out_size(8)), seed=8)
        _two_row_bands(monkeypatch, spec, 9, 8)

        def loss():
            return projected_loss(conv2d(x, w, b, spec), cot)

        assert finite_diff_error(loss, [x, w, b], max_entries=40) < 1e-5


def _conv_grads_and_oracle(rng, spec, h, w, x_grad=True, w_grad=True):
    """conv2d's (dx, dw, db) from backward, and the col2im oracle's."""
    x = Tensor(rng.normal(size=(2, spec.in_channels, h, w)), requires_grad=x_grad)
    wt = Tensor(rng.normal(size=(spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)),
                requires_grad=w_grad)
    b = _param(rng.normal(size=spec.out_channels))
    out = conv2d(x, wt, b, spec)
    cot = rng.normal(size=out.shape)
    projected_loss(out, Tensor(cot)).backward()
    ref = conv2d_backward_col2im(x.data, wt.data, cot, spec.stride, spec.padding, spec.dilation)
    return (x.grad, wt.grad, b.grad), ref


class TestConv2dBackwardOracle:
    """dX as one transposed conv and banded dW GEMMs against the col2im backward."""

    @pytest.mark.parametrize("stride,padding,dilation,kernel", _BAND_CASES)
    @pytest.mark.parametrize("bands", ["single", "multi"])
    def test_band_cases(self, monkeypatch, stride, padding, dilation, kernel, bands):
        spec = ConvSpec(3, 4, kernel=kernel, stride=stride, padding=padding, dilation=dilation)
        if bands == "multi":
            _two_row_bands(monkeypatch, spec, 9, 8)
        got, ref = _conv_grads_and_oracle(np.random.default_rng(100 + kernel * 7 + stride),
                                          spec, 9, 8)
        for g, r in zip(got, ref):
            _assert_close_rel(g, r)

    @pytest.mark.parametrize("name,spec,h,w", [
        ("1x1_stride2", ConvSpec(3, 4, kernel=1, stride=2), 9, 8),
        ("stride2_unread_tail", ConvSpec(3, 4, kernel=3, stride=2), 10, 8),
        ("padding_over_reach", ConvSpec(3, 4, kernel=3, padding=3), 9, 8),
        ("padding_over_reach_stride2", ConvSpec(3, 4, kernel=3, stride=2, padding=3), 9, 8),
    ])
    def test_geometries(self, name, spec, h, w):
        got, ref = _conv_grads_and_oracle(np.random.default_rng(7), spec, h, w)
        for g, r in zip(got, ref):
            _assert_close_rel(g, r)
        # input rows and columns that no window reads get no gradient
        eff = spec.dilation * (spec.kernel - 1) + 1
        read_h = (spec.out_size(h) - 1) * spec.stride + eff - spec.padding
        read_w = (spec.out_size(w) - 1) * spec.stride + eff - spec.padding
        assert not got[0][:, :, read_h:].any() and not got[0][:, :, :, read_w:].any()
        if name == "stride2_unread_tail":
            assert read_h == h - 1 and read_w == w - 1

    def test_input_without_grad(self):
        spec = ConvSpec(3, 4, kernel=3, stride=2, padding=1)
        got, ref = _conv_grads_and_oracle(np.random.default_rng(5), spec, 9, 8, x_grad=False)
        assert got[0] is None
        _assert_close_rel(got[1], ref[1])
        _assert_close_rel(got[2], ref[2])

    def test_frozen_weight(self):
        spec = ConvSpec(3, 4, kernel=3, padding=2, dilation=2)
        got, ref = _conv_grads_and_oracle(np.random.default_rng(6), spec, 9, 8, w_grad=False)
        assert got[1] is None
        _assert_close_rel(got[0], ref[0])
        _assert_close_rel(got[2], ref[2])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bands", ["single", "multi"])
    @pytest.mark.parametrize("stride,padding,dilation", [
        (1, 1, 1), (1, 0, 1), (1, 2, 2), (1, 1, 2), (1, 3, 1), (2, 1, 1), (2, 2, 2), (2, 0, 1),
    ])
    def test_input_grad_bit_identical_to_zero_stuffed(self, monkeypatch, dtype, bands, stride,
                                                      padding, dilation):
        spec = ConvSpec(3, 4, kernel=3, stride=stride, padding=padding, dilation=dilation)
        h, w = 13, 11
        oh, ow = spec.out_size(h), spec.out_size(w)
        if bands == "multi":   # two rows of dX per band
            monkeypatch.setattr(nn_core, "_IM2COL_CHUNK", 2 * 4 * 9 * w)
        rng = np.random.default_rng(60 + 7 * stride + 3 * padding + dilation)
        g = rng.normal(size=(2, 4, oh, ow)).astype(dtype)
        weight = rng.normal(size=(4, 3, 3, 3))
        got = nn_core._conv_input_grad(g, weight, spec, h, w)
        ref = conv_input_grad_zero_stuffed(g, weight, spec, h, w)
        assert got.dtype == ref.dtype == dtype
        np.testing.assert_array_equal(got, ref)

    def test_stride1_input_grad_makes_no_padded_copy_of_the_gradient(self, monkeypatch):
        import tracemalloc

        spec = ConvSpec(8, 8, kernel=3, padding=1)
        g = np.random.default_rng(9).normal(size=(1, 8, 64, 64))
        weight = np.random.default_rng(10).normal(size=(8, 8, 3, 3))
        monkeypatch.setattr(nn_core, "_IM2COL_CHUNK", 2 * 8 * 9 * 64)
        padded_copy = g.nbytes * (66 * 66) / (64 * 64)
        tracemalloc.start()
        try:
            out = nn_core._conv_input_grad(g, weight, spec, 64, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + padded_copy / 2


class TestBatchNorm:
    def test_constant_channel_zero_centered(self):
        bn = BatchNorm(2)
        x = Tensor(np.full((4, 2, 3, 3), 7.0))
        out = bn(x)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_eval_identity_with_unit_stats(self):
        bn = BatchNorm(3, eps=0.0).eval()
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 4)))
        out = bn(x)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_train_normalizes_samples(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(5.0, 2.0, size=(8, 1, 25, 25)))
        gamma, beta = _param(np.ones(1)), _param(np.zeros(1))
        out = batch_norm(x, gamma, beta, BatchNormState(1), training=True, eps=1e-9)
        assert abs(out.data.mean()) < 1e-6
        assert abs(out.data.var() - 1.0) < 1e-6

    def test_zero_variance_channel_finite(self):
        bn = BatchNorm(1)
        out = bn(Tensor(np.full((2, 1, 2, 2), 3.0)))
        assert np.all(np.isfinite(out.data))

    def test_running_stats_update(self):
        bn = BatchNorm(1, momentum=0.9)
        x = Tensor(np.full((1, 1, 2, 2), 4.0))
        bn(x)
        np.testing.assert_allclose(bn.state.running_mean, [0.4])

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_gradcheck(self, mode):
        rng = np.random.default_rng(11)
        x = _param(rng.normal(size=(3, 2, 4, 4)))
        gamma = _param(rng.normal(1.0, 0.1, size=2))
        beta = _param(rng.normal(size=2))
        state = BatchNormState(2)
        state.running_mean[:] = rng.normal(size=2)
        state.running_var[:] = 1.0 + rng.random(2)
        cot = random_cotangent((3, 2, 4, 4), seed=12)

        def loss():
            out = batch_norm(x, gamma, beta, state if mode == "eval" else BatchNormState(2),
                             training=(mode == "train"))
            return projected_loss(out, cot)

        assert finite_diff_error(loss, [x, gamma, beta], max_entries=30) < 1e-4


class TestBatchNormBackwardOracle:
    """dx from x̂ and the two per-channel sums against the explicit chain rule."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_matches_chain(self, mode):
        rng = np.random.default_rng(13)
        x = rng.normal(2.0, 1.5, size=(3, 3, 4, 5))
        x[:, 1] = 2.5   # constant channel: batch variance 0, so only eps keeps σ > 0
        gamma = rng.normal(1.0, 0.2, size=3)
        g = rng.normal(size=x.shape)
        state = BatchNormState(3)
        state.running_mean[:] = rng.normal(size=3)
        state.running_var[:] = [1.3, 0.0, 0.7]
        xt, gt, bt = _param(x.copy()), _param(gamma.copy()), _param(rng.normal(size=3))
        out = batch_norm(xt, gt, bt, state if mode == "eval" else BatchNormState(3),
                         training=(mode == "train"))
        projected_loss(out, Tensor(g)).backward()
        running = (state.running_mean, state.running_var) if mode == "eval" else None
        ref = batch_norm_backward_chain(x, gamma, g, 1e-5, running)
        for got, r in zip((xt.grad, gt.grad, bt.grad), ref):
            _assert_close_rel(got, r)


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_sigmoid_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_extreme_stable(self):
        out = sigmoid(Tensor([-800.0, 800.0]))
        assert np.all(np.isfinite(out.data))

    def test_logsumexp_matches_numpy(self):
        rng = np.random.default_rng(4)
        x = rng.normal(scale=50.0, size=(3, 4))
        out = logsumexp(Tensor(x), axis=1)
        expected = np.log(np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1)) + x.max(axis=1)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


def _maxpool_case(kind, dtype):
    """An input with many ties: values drawn from a few numbers and both zeros."""
    rng = np.random.default_rng(90)
    shape = {"even": (2, 3, 6, 8), "odd": (2, 3, 7, 9)}.get(kind, (2, 3, 6, 8))
    if kind == "all_equal":
        return np.full(shape, 0.5, dtype)
    if kind == "nan":
        x = rng.normal(size=shape).astype(dtype)
        x.reshape(-1)[rng.choice(x.size, 20, replace=False)] = np.nan
        return x
    return rng.choice(np.array([-1.0, -0.0, 0.0, 0.25, 2.0]), size=shape).astype(dtype)


class TestPoolingAndShape:
    def test_maxpool_values(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        np.testing.assert_allclose(maxpool2(x).data, [[[[4.0]]]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["even", "odd", "all_equal", "nan"])
    def test_maxpool_bit_identical_to_window_argmax(self, dtype, kind):
        data = _maxpool_case(kind, dtype)
        x = _param(data)
        out = maxpool2(x)
        cot = np.random.default_rng(91).normal(size=out.shape).astype(dtype)
        projected_loss(out, Tensor(cot)).backward()
        ref_out, ref_grad = maxpool2_windows(data, cot)
        assert out.data.dtype == x.grad.dtype == dtype
        # byte equality: signed zeros and NaN positions must match too
        assert out.data.tobytes() == ref_out.tobytes()
        assert x.grad.tobytes() == ref_grad.tobytes()
        if kind == "all_equal":   # the first position, (0, 0), wins every window
            assert (x.grad[:, :, 0::2, 0::2] == cot).all()
            assert not x.grad[:, :, 1::2].any() and not x.grad[:, :, :, 1::2].any()
        if kind == "odd":   # the trailing odd row and column get no gradient
            assert not x.grad[:, :, -1].any() and not x.grad[:, :, :, -1].any()

    def test_maxpool_without_grad_records_no_node(self):
        x = _param(_maxpool_case("even", np.float32))
        with no_grad():
            out = maxpool2(x)
        assert not out.requires_grad and out._backward is None and out._parents == ()

    def test_upsample_replicates(self):
        x = Tensor(np.array([[7.0]]).reshape(1, 1, 1, 1))
        np.testing.assert_allclose(upsample_nearest2(x).data, np.full((1, 1, 2, 2), 7.0))

    def test_concat_channel_count(self):
        a = Tensor(np.zeros((1, 2, 3, 3)))
        b = Tensor(np.zeros((1, 3, 3, 3)))
        assert concat([a, b]).shape == (1, 5, 3, 3)

    def test_narrow_roundtrip(self):
        x = Tensor(np.arange(24.0).reshape(1, 2, 3, 4))
        sl = narrow(x, 3, 1, 2)
        np.testing.assert_allclose(sl.data, x.data[:, :, :, 1:3])

    def test_narrow_is_a_view_with_a_scattered_gradient(self):
        x = _param(np.arange(24.0).reshape(1, 2, 3, 4))
        sl = narrow(x, 3, 1, 2)
        assert np.shares_memory(sl.data, x.data)
        (sl * 3.0).sum().backward()
        want = np.zeros_like(x.data)
        want[..., 1:3] = 3.0
        np.testing.assert_array_equal(x.grad, want)

    @pytest.mark.parametrize("padding", [0, 2])
    def test_conv2d_of_a_narrowed_view_equals_conv2d_of_its_copy(self, padding):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 7, 11)).astype(np.float32)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        spec = ConvSpec(3, 4, kernel=3, padding=padding, dilation=2)
        view = conv2d(narrow(Tensor(x), 3, 2, 6), w, None, spec)
        copy = conv2d(Tensor(x[..., 2:8].copy()), w, None, spec)
        assert np.array_equal(view.data, copy.data)


class TestBackward:
    def test_relu_sum_gradient(self):
        x = _param(np.array([1.0, 2.0, 3.0]))
        relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_backward_non_scalar_raises(self):
        x = _param(np.ones(3))
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_graph_reusable_after_reset(self):
        x = _param(np.array([2.0]))
        (x * x).sum().backward()
        first = x.grad.copy()
        x.zero_grad()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, first)

    def test_grad_accumulates_across_uses(self):
        x = _param(np.array([3.0]))
        (x + x).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0)

    def test_first_gradient_is_an_owned_array(self):
        """``add`` hands one upstream buffer to both parents; each stores its own
        copy. A 0-d gradient stays a 0-d array in the leaf's dtype."""
        a, b = _param(np.ones(3)), _param(np.ones(3))
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        for dtype in (np.float64, np.float32):
            s = Tensor(np.array(2.0, dtype), requires_grad=True)
            (s * s).backward()
            assert isinstance(s.grad, np.ndarray) and s.grad.dtype == dtype
            assert s.grad.shape == () and s.grad == 4.0

    @pytest.mark.parametrize("seed", range(5))
    def test_elementwise_chain_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        x = _param(rng.normal(size=(3, 4)) + 3.0)
        y = _param(rng.normal(size=(3, 4)) + 3.0)
        cot = random_cotangent((3, 4), seed + 100)

        def loss():
            out = sigmoid(x * y - x * y ** -1.0 + nn_core.log(clamp(x, 0.5, 10.0)))
            return projected_loss(out, cot)

        assert finite_diff_error(loss, [x, y]) < 1e-6


class TestAdamW:
    def test_zero_grad_zero_decay_keeps_params(self):
        p = _param(np.array([1.0, -2.0]))
        opt = AdamW({"w": p}, lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_allclose(p.data, [1.0, -2.0])

    def test_descends_quadratic(self):
        p = _param(np.array([1.0]))
        opt = AdamW({"w": p}, lr=0.1, weight_decay=0.0)
        loss = (p * p).sum()
        loss.backward()
        opt.step()
        assert p.data[0] ** 2 < 1.0

    def test_decoupled_weight_decay(self):
        p = _param(np.array([1.0]))
        opt = AdamW({"w": p}, lr=0.1, weight_decay=0.01)
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 * (1 - 0.001)])


    def test_in_place_step_matches_textbook_bits(self):
        """Decayed and undecayed names and a parameter that never gets a gradient,
        over 11 steps: the in-place update gives the textbook expression's bits."""
        shapes = {"conv.weight": (4, 3, 3, 3), "conv.bias": (4,), "norm.gamma": (4,),
                  "idle.weight": (5,)}
        runs = []
        for step in (AdamW.step, adamw_step_textbook):
            rng = np.random.default_rng(31)
            params = {name: _param(rng.normal(size=shape)) for name, shape in shapes.items()}
            opt = AdamW(params, lr=0.01, weight_decay=0.05, betas=(0.8, 0.99))
            for _ in range(11):
                for name, p in params.items():
                    p.grad = None if name == "idle.weight" else rng.normal(size=p.shape)
                step(opt)
            runs.append((params, opt))
        (params, opt), (params_ref, opt_ref) = runs
        for name in shapes:
            np.testing.assert_array_equal(params[name].data, params_ref[name].data, err_msg=name)
            np.testing.assert_array_equal(opt.m[name], opt_ref.m[name], err_msg=name)
            np.testing.assert_array_equal(opt.v[name], opt_ref.v[name], err_msg=name)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a.weight": rng.normal(size=(3, 2)),
            "b.bias": rng.normal(size=(5,)),
            "scalar": np.array(3.5),
        }
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, tensors)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for k in tensors:
            assert loaded[k].shape == np.shape(tensors[k])
            np.testing.assert_array_equal(loaded[k], np.asarray(tensors[k], dtype=np.float64))

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"w": np.ones(4)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("raw", [
        struct.pack("<I", 2**31) + b"w",                              # name past the end
        struct.pack("<I", 1) + b"w" + struct.pack("<I", 2**31),        # absurd rank
        struct.pack("<I", 1) + b"w" + struct.pack("<IQ", 1, 2**40),    # payload past the end
    ], ids=["name", "rank", "payload"])
    def test_oversized_header_fields_rejected(self, tmp_path, raw):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)


class TestModule:
    def test_state_dict_roundtrip(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(ConvSpec(2, 3, kernel=3), rng)
        bn = BatchNorm(3)
        parent = nn_core.Module()
        parent.conv = conv
        parent.bn = bn
        state = {k: v.copy() for k, v in parent.state_dict().items()}
        for p in parent.named_parameters().values():
            p.data += 1.0
        parent.load_state_dict(state)
        for k, v in parent.state_dict().items():
            np.testing.assert_array_equal(v, state[k])

    def test_load_rejects_unknown_keys(self):
        bn = BatchNorm(2)
        state = bn.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            bn.load_state_dict(state)
