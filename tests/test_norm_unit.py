"""A training Conv–BN(–ReLU) unit is one graph node that keeps only x̂ and its output.

``conv_bn`` and the sparse encoder's ``_conv_bn_relu`` record the unit through
``nn_core._norm_unit``. Its outputs, running statistics and gradients equal,
bit for bit, those of the separate conv, ``batch_norm`` and ``relu`` nodes
(``helpers.norm_unit_chain``); a toy step starts backward with at most 0.75×
the traced allocations of that chain; and an output made under ``no_grad``
holds no reference to its input.
"""

import gc
import weakref

import numpy as np
import pytest

from voxeldet import nn_core, train
from voxeldet.nn_core import BatchNorm, Conv2d, ConvSpec, Tensor, conv2d, conv_bn, no_grad
from voxeldet.sparse_conv import VfeBlockSpec, VfeEncoder, build_rulebook

from helpers import norm_unit_chain, projected_loss, random_cotangent
from test_backward_release import _toy_step_setup, traced_step_levels
from test_sparse_conv import _random_sites

# (stride, padding, dilation, batch, with_relu)
DENSE_CASES = [(1, 1, 1, 4, True), (2, 1, 1, 4, True), (1, 2, 2, 1, True),
               (1, 0, 1, 1, False), (2, 2, 2, 4, False)]
DENSE_IDS = ["pad1", "stride2", "dilation2_pad2_batch1", "pad0_no_relu",
             "stride2_dilation2_no_relu"]


def _dense_unit(case, seed=3):
    """A float32 input leaf, a bias-free conv and a training-mode BatchNorm."""
    stride, padding, dilation, batch, _ = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(batch, 3, 9, 8)).astype(np.float32), requires_grad=True)
    spec = ConvSpec(3, 5, kernel=3, stride=stride, padding=padding, dilation=dilation,
                    bias=False)
    conv, norm = Conv2d(spec, rng), BatchNorm(5)
    norm.gamma.data[:] = rng.normal(1.0, 0.3, size=5)
    norm.beta.data[:] = rng.normal(0.0, 0.3, size=5)
    return x, conv, norm


def _sparse_unit(mode, seed=5):
    """A one-block encoder, float32 site features and the rulebook of ``mode``."""
    rng = np.random.default_rng(seed)
    shape = (6, 6, 6)
    coords = _random_sites(rng, shape, 60)
    subm = mode == "submanifold"
    enc = VfeEncoder(shape, blocks=(VfeBlockSpec(3, 4, int(subm), 2),), seed=seed)
    if subm:
        name, rb = "block0.subm0", build_rulebook(coords, shape, 3, 1, mode)[0]
    else:
        kernel, stride, _ = enc._shape_schedule[0]
        name, rb = "block0.down", build_rulebook(coords, shape, kernel, stride, mode)[0]
    x = Tensor(rng.normal(size=(len(coords), 3)).astype(np.float32), requires_grad=True)
    return x, enc, name, rb


def _assert_same_unit(got, want):
    """``got`` and ``want`` are (out, x, conv, norm): equal outputs and running
    statistics before backward, then equal gradients of x, W, γ and β."""
    (out, x, conv, norm), (want_out, want_x, want_conv, want_norm) = got, want
    assert out.data.dtype == want_out.data.dtype == np.float32
    assert np.array_equal(out.data, want_out.data)
    assert np.array_equal(norm.state.running_mean, want_norm.state.running_mean)
    assert np.array_equal(norm.state.running_var, want_norm.state.running_var)
    for o in (out, want_out):
        projected_loss(nn_core.astype(o, np.float64), random_cotangent(o.shape, 17)).backward()
    pairs = [(x, want_x), (conv.weight, want_conv.weight), (norm.gamma, want_norm.gamma),
             (norm.beta, want_norm.beta)]
    for t, want_t in pairs:
        assert t.grad.dtype == want_t.grad.dtype
        assert np.array_equal(t.grad, want_t.grad)


@pytest.mark.parametrize("case", DENSE_CASES, ids=DENSE_IDS)
def test_dense_unit_equals_chain(case):
    with_relu = case[-1]
    x, conv, norm = _dense_unit(case)
    out = conv_bn(x, conv, norm, with_relu)
    assert out._parents == (x, conv.weight, norm.gamma, norm.beta)   # one node over the leaves
    want_x, want_conv, want_norm = _dense_unit(case)
    want = norm_unit_chain(want_conv(want_x), want_norm, with_relu)
    _assert_same_unit((out, x, conv, norm), (want, want_x, want_conv, want_norm))


@pytest.mark.parametrize("mode", ["submanifold", "strided"])
def test_sparse_unit_equals_chain(mode):
    x, enc, name, rb = _sparse_unit(mode)
    out = enc._conv_bn_relu(name, x, rb)
    conv, norm = enc._children[name], enc._children[name + ".norm"]
    assert out._parents == (x, conv.weight, norm.gamma, norm.beta)
    want_x, want_enc, _, want_rb = _sparse_unit(mode)
    want_conv, want_norm = want_enc._children[name], want_enc._children[name + ".norm"]
    want = norm_unit_chain(want_conv(want_x, want_rb), want_norm)
    _assert_same_unit((out, x, conv, norm), (want, want_x, want_conv, want_norm))


@pytest.mark.parametrize("unit", ["dense", "sparse"])
def test_backward_frees_the_unit_input_without_the_cycle_collector(unit):
    """Once backward has passed the unit, nothing holds its input: the conv
    node that the unit runs inside its own is released too."""
    if unit == "dense":
        leaf, conv, norm = _dense_unit(DENSE_CASES[0])
        run = lambda t: conv_bn(t, conv, norm)
    else:
        leaf, enc, name, rb = _sparse_unit("submanifold")
        run = lambda t: enc._conv_bn_relu(name, t, rb)
    gc.disable()
    try:
        x = leaf * 2.0
        data = weakref.ref(x.data)
        out = run(x)
        del x
        projected_loss(nn_core.astype(out, np.float64), random_cotangent(out.shape, 3)).backward()
        assert data() is None
    finally:
        gc.enable()
    assert leaf.grad is not None


def test_train_step_equals_chain(monkeypatch):
    """A whole toy step, dense and sparse units alike: the same loss report,
    gradients and updated parameters as with every unit run as separate nodes."""
    model, batch, weights, optimizer = _toy_step_setup()
    report = train.train_step(model, batch, weights, optimizer)
    with monkeypatch.context() as m:
        m.setattr(nn_core, "_norm_unit", norm_unit_chain)
        want_model, want_batch, want_weights, want_optimizer = _toy_step_setup()
        want_report = train.train_step(want_model, want_batch, want_weights, want_optimizer)
    assert report == want_report
    got, want = model.named_parameters(), want_model.named_parameters()
    assert got.keys() == want.keys()
    for name in got:
        assert np.array_equal(got[name].grad, want[name].grad), name
        assert np.array_equal(got[name].data, want[name].data), name
    got, want = model.named_buffers(), want_model.named_buffers()
    for name in got:
        assert np.array_equal(got[name], want[name]), name


def test_train_step_keeps_less_than_the_chain(monkeypatch):
    """Traced allocations when a toy step's backward starts are at most 0.75×
    those of the same step with every unit run as separate nodes."""
    levels = traced_step_levels(monkeypatch)
    monkeypatch.setattr(nn_core, "_norm_unit", norm_unit_chain)
    chain = traced_step_levels(monkeypatch)
    assert levels["start"] <= 0.75 * chain["start"], (levels, chain)


def _no_grad_dense(op, training):
    x, conv, norm = _dense_unit((1, 1, 1, 2, True))
    norm.train(training)
    if op == "conv2d":
        return x, lambda t: conv2d(t, conv.weight, None, conv.spec)
    return x, lambda t: conv_bn(t, conv, norm)


def _no_grad_sparse(op, training):
    x, enc, name, rb = _sparse_unit("submanifold")
    enc.train(training)
    return x, lambda t: enc._conv_bn_relu(name, t, rb)


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("op, make", [("conv2d", _no_grad_dense), ("conv_bn", _no_grad_dense),
                                      ("sparse", _no_grad_sparse)])
def test_no_grad_output_holds_no_reference_to_its_input(op, make, training):
    x, unit = make(op, training)
    data = weakref.ref(x.data)
    with no_grad():
        out = unit(x)
    assert out._backward is None and out._parents == ()
    del x
    assert data() is None
    assert np.isfinite(out.data).all()
