"""``Tensor.backward`` releases the graph while it walks it.

The gradients equal, bit for bit, those of the walk-then-release backward
(``helpers.backward_walk_then_release``); afterwards every non-leaf node has
dropped its parents, closure and gradient; and a toy training step's memory
peak during backward stays near the forward graph it starts from.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from voxeldet import nn_core, train
from voxeldet.config import toy_config
from voxeldet.model import VehicleDetector
from voxeldet.nn_core import AdamW, BatchNorm, Conv2d, ConvSpec, Tensor, conv_bn, relu
from voxeldet.sparse_conv import build_rulebook, sparse_conv_op
from voxeldet.synthetic import make_toy_dataset

from helpers import backward_walk_then_release, projected_loss, random_cotangent
from test_sparse_conv import _random_sites


def _diamond():
    """``y`` feeds a ReLU and a square, which meet again in one sum."""
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    y = x * w
    loss = (relu(y) + y * y).sum()
    return loss, [x, w]


def _conv_bn_residual():
    """A training-mode conv-BN-ReLU, conv-BN chain whose output adds its input."""
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(np.float32), requires_grad=True)
    spec = ConvSpec(3, 3, kernel=3, padding=1, bias=False)
    conv1, norm1, conv2, norm2 = Conv2d(spec, rng), BatchNorm(3), Conv2d(spec, rng), BatchNorm(3)
    h = conv_bn(conv_bn(x, conv1, norm1), conv2, norm2, with_relu=False)
    out = relu(h + x)
    loss = projected_loss(nn_core.astype(out, np.float64), random_cotangent(out.shape, 13))
    leaves = [x, conv1.weight, conv2.weight, norm1.gamma, norm1.beta, norm2.gamma, norm2.beta]
    return loss, leaves


def _sparse_layer():
    rng = np.random.default_rng(14)
    coords = _random_sites(rng, (4, 4, 4), 12)
    rb, _, _ = build_rulebook(coords, (4, 4, 4), 3, 1, "submanifold")
    feats = Tensor(rng.normal(size=(len(coords), 3)), requires_grad=True)
    weights = Tensor(rng.normal(size=(27, 3, 2)) * 0.4, requires_grad=True)
    bias = Tensor(rng.normal(size=2), requires_grad=True)
    out = relu(sparse_conv_op(feats, weights, bias, rb))
    return projected_loss(out, random_cotangent(out.shape, 15)), [feats, weights, bias]


GRAPHS = [_diamond, _conv_bn_residual, _sparse_layer]
GRAPH_IDS = ["diamond", "conv_bn_residual", "sparse_conv_op"]


@pytest.mark.parametrize("make", GRAPHS, ids=GRAPH_IDS)
def test_gradients_equal_walk_then_release(make):
    loss, leaves = make()
    loss.backward()
    want_loss, want_leaves = make()
    backward_walk_then_release(want_loss)
    for got, want in zip(leaves, want_leaves):
        assert got.grad.dtype == want.grad.dtype
        assert np.array_equal(got.grad, want.grad)


@pytest.mark.parametrize("make", GRAPHS, ids=GRAPH_IDS)
def test_graph_released_after_backward(make):
    loss, leaves = make()
    nodes = nn_core._toposort(loss)
    inner = [n for n in nodes if n._parents and n is not loss]
    assert inner
    loss.backward()
    for node in inner:
        assert node._parents == () and node._backward is None and node.grad is None
    assert loss._parents == () and loss._backward is None
    np.testing.assert_array_equal(loss.grad, np.ones_like(loss.data))
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape


def test_node_freed_once_the_walk_passes_it():
    """A node's buffers are gone before the walk reaches its inputs' closures."""
    x = Tensor(np.arange(1.0, 5.0), requires_grad=True)
    alive = []

    def grad(g):
        alive.append(square_data() is not None)
        return 2.0 * g

    y = nn_core._unary(x, 2.0 * x.data, grad)
    square = y * y
    square_data = weakref.ref(square.data)
    loss = square.sum()
    del square
    loss.backward()
    assert alive == [False]
    np.testing.assert_array_equal(x.grad, 8.0 * x.data)


def _toy_step_setup():
    """A toy-config model, its one batch of ``batch_size`` scenes, and AdamW."""
    cfg = toy_config(toy_scenes=toy_config().batch_size)
    model = VehicleDetector(cfg)
    model.train()
    batch, = train.prepare_batches(cfg, model, make_toy_dataset(cfg))
    optimizer = AdamW(model.named_parameters(), lr=cfg.learning_rate,
                      weight_decay=cfg.weight_decay, betas=(cfg.adam_beta1, cfg.adam_beta2))
    return model, batch, train.LossWeights.from_config(cfg), optimizer


def test_train_step_gradients_equal_walk_then_release(monkeypatch):
    model, batch, weights, optimizer = _toy_step_setup()
    report = train.train_step(model, batch, weights, optimizer)
    with monkeypatch.context() as m:
        m.setattr(Tensor, "backward", backward_walk_then_release)
        want_model, want_batch, want_weights, want_optimizer = _toy_step_setup()
        want_report = train.train_step(want_model, want_batch, want_weights, want_optimizer)
    assert report == want_report
    got, want = model.named_parameters(), want_model.named_parameters()
    assert got.keys() == want.keys()
    for name in got:
        assert np.array_equal(got[name].grad, want[name].grad), name
        assert np.array_equal(got[name].data, want[name].data), name


def traced_step_levels(monkeypatch) -> dict:
    """Allocations traced during one toy step, after a warm-up step: ``start``
    when backward starts and ``peak`` within backward, in bytes."""
    model, batch, weights, optimizer = _toy_step_setup()
    train.train_step(model, batch, weights, optimizer)
    levels = {}
    walk = Tensor.backward

    def traced_backward(self):
        levels["start"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        walk(self)
        levels["peak"] = tracemalloc.get_traced_memory()[1]

    with monkeypatch.context() as m:
        m.setattr(Tensor, "backward", traced_backward)
        tracemalloc.start()
        try:
            train.train_step(model, batch, weights, optimizer)
        finally:
            tracemalloc.stop()
    return levels


def test_train_step_backward_peak_is_forward_graph(monkeypatch):
    """Allocations traced during one toy step (after a warm-up step) peak within
    backward at most 1.25× their level when backward starts; holding the whole
    graph until the walk ends, as ``backward_walk_then_release`` does, takes
    about 2×."""
    levels = traced_step_levels(monkeypatch)
    assert levels["peak"] <= 1.25 * levels["start"], levels
