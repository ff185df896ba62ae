"""Dense tensor engine with reverse-mode differentiation.

A :class:`Tensor` wraps a float64 or float32 numpy buffer plus an optional
gradient buffer; operations record closures that accumulate gradients when
:meth:`Tensor.backward` is called on a scalar. Every op keeps the dtype of
its input and casts parameters at use, and a gradient is accumulated in the
dtype of the tensor it belongs to. So feature maps and their gradients run
in float32, in training and inference alike, while the parameters, their
gradients, running statistics and checkpoints stay float64; :func:`astype`
moves a value, and its gradient back, between the two. For a fixed dtype
and BLAS thread count the outputs are byte-identical from run to run.
Feature maps follow the (batch, channel, height, width) layout; sparse voxel
features travel through the same engine as (sites, channels) matrices.
:meth:`Tensor.backward` releases the graph while it walks it, so each
node's closure and saved buffers are freed as soon as its gradient has been
passed on, and a training step's memory peak is about its forward graph.

Layers define ``forward``, and only :meth:`Module.__call__` runs it, in eval
mode under :class:`no_grad`: eval is inference, which folds each BatchNorm
into its conv, records no graph and writes into the fresh maps it made.

Ops build their graph nodes through two builders. A one-input op computes
its output and calls ``_unary(a, out_data, grad)``, whose backward adds
``grad(out.grad)`` to ``a``; a broadcasting two-input op calls
``_binary(a, b, out_data, grad_a, grad_b)``, which sums each gradient down
to its input's shape and skips an input that takes none. Only ``concat``
(many inputs), ``conv2d``, ``batch_norm`` and ``sparse_conv.sparse_conv_op``
(whose input gradients share work) write their own backward closures, and
``_norm_unit``, which records a training Conv–BN(–ReLU) unit, dense or
sparse, as one node that keeps only x̂ and the unit's output. Each conv kind
has one kernel: dX runs through ``conv2d``, and the sparse input gradient is
``sparse_conv.sparse_conv_forward`` on the swapped pairs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

# Element budget of one conv2d im2col band of one image (c·k² · band columns):
# 4 MB in float32. On a 2-core Xeon with 2 MiB of L2 per core, budgets from
# 128K to 2M elements gave bit-identical full-scale frames, each in 1.2–1.4 s,
# within run-to-run noise of the others.
# The backward bands its dW GEMMs by the same budget, so it fixes the order
# in which dW sums its bands; dX is a conv2d call.
_IM2COL_CHUNK = 1024 * 1024


def _as_array(x) -> np.ndarray:
    """float32 arrays and scalars pass through as float32 arrays; everything
    else becomes float64. numpy returns an op on 0-d arrays as a scalar, so a
    float32 scalar must keep its dtype too."""
    if getattr(x, "dtype", None) == np.float32:
        return np.asarray(x)
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A float64 (or float32) array with an optional gradient slot of the same dtype.

    Parameters and their gradients are float64; feature maps, in training
    and inference, are float32. Tensors produced by engine operations
    remember their parents and a backward closure; leaves created with
    ``requires_grad=True`` collect gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        # The first gradient is copied into this tensor's dtype, never aliased
        # (``add`` hands one buffer to both parents); np.array also turns the
        # numpy scalar that an op on 0-d arrays returns back into an array.
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    # -- autodiff ------------------------------------------------------------

    def backward(self):
        """Reverse-mode accumulation from a scalar output.

        The graph is released during the walk: each node popped off the
        topological order runs its closure and then drops it, its parents
        and (unless it is the root) its gradient. Every consumer has added
        to a node's gradient before the node runs, so nothing dropped is
        read again, and the buffers a closure saved (such as BatchNorm x̂)
        are freed as the walk passes it. Leaves and the root keep their
        gradients. A root that records no graph (an eval loss) raises.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward from a tensor that records no graph: no input "
                             "requires a gradient, or the forward ran in eval mode")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward()
            if node._parents:
                node._backward = None
                node._parents = ()
                if node is not self:
                    node.grad = None

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -other)

    def __rsub__(self, other):
        return add(other, -self)

    def __pow__(self, p):
        return power(self, p)

    def sum(self, axis=None):
        return reduce_sum(self, axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _wrap_pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap two operands; a Python number takes the other operand's dtype.

    numpy treats Python numbers as weak scalars (NEP 50); a wrapped 0-d
    float64 array would instead promote a float32 operand to float64.
    """
    if isinstance(a, Tensor) and isinstance(b, (int, float)):
        b = Tensor(np.asarray(b, a.data.dtype))
    elif isinstance(b, Tensor) and isinstance(a, (int, float)):
        a = Tensor(np.asarray(a, b.data.dtype))
    return _wrap(a), _wrap(b)


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative DFS; graphs can chain a few hundred ops deep.
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


_GRAD_ENABLED = True


class no_grad:
    """Context manager: ops record no graph inside (every eval-mode forward)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Assemble an op output; ``backward`` may be None for constant results."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _unary(a: Tensor, out_data: np.ndarray, grad) -> Tensor:
    """The node of a one-input op: backward adds ``grad(out.grad)`` to ``a``."""

    def backward():
        a._accumulate(grad(out.grad))

    out = _node(out_data, (a,), backward)
    return out


def _binary(a: Tensor, b: Tensor, out_data: np.ndarray, grad_a, grad_b) -> Tensor:
    """The node of a broadcasting two-input op: backward adds
    ``grad_a(out.grad)`` and ``grad_b(out.grad)``, each summed down to its
    input's shape, to each input that requires a gradient."""

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad_a(out.grad), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad_b(out.grad), b.shape))

    out = _node(out_data, (a, b), backward)
    return out


# -- elementwise arithmetic ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def mul(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data)


def power(a, p: float) -> Tensor:
    a = _wrap(a)
    return _unary(a, a.data ** p, lambda g: g * p * a.data ** (p - 1))


def log(a) -> Tensor:
    a = _wrap(a)
    return _unary(a, np.log(a.data), lambda g: g / a.data)


def absolute(a) -> Tensor:
    a = _wrap(a)
    return _unary(a, np.abs(a.data), lambda g: g * np.sign(a.data))


def clamp(a, lo: float, hi: float) -> Tensor:
    a = _wrap(a)
    return _unary(a, np.clip(a.data, lo, hi), lambda g: g * ((a.data >= lo) & (a.data <= hi)))


def relu(a) -> Tensor:
    a = _wrap(a)
    return _unary(a, np.maximum(a.data, 0.0), lambda g: g * (a.data > 0))


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    x = a.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)
    return _unary(a, out_data, lambda g: g * out_data * (1.0 - out_data))


def logsumexp(a, axis: int = 1) -> Tensor:
    a = _wrap(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    return _unary(a, np.squeeze(m + np.log(s), axis=axis),
                  lambda g: np.expand_dims(g, axis=axis) * (e / s))


# -- reductions and shape ops ----------------------------------------------------


def reduce_sum(a, axis=None) -> Tensor:
    a = _wrap(a)
    return _unary(a, a.data.sum(axis=axis), lambda g: np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis=axis), a.shape).copy())


def reduce_mean(a, axis=None) -> Tensor:
    a = _wrap(a)
    scale = a.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
    return reduce_sum(a, axis) * (1.0 / float(scale))


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    return _unary(a, a.data.reshape(shape), lambda g: g.reshape(a.shape))


def astype(a, dtype) -> Tensor:
    """``a`` cast to ``dtype`` (float32 or float64); the gradient flows back in
    ``a``'s dtype. A cast to ``a``'s own dtype returns ``a``."""
    a = _wrap(a)
    if a.data.dtype == dtype:
        return a
    return _unary(a, a.data.astype(dtype), lambda g: g.astype(a.data.dtype))


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries along ``axis`` starting at ``start``: a view of
    ``a``'s data, not a copy."""
    a = _wrap(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def grad(g):
        ga = np.zeros_like(a.data)
        ga[index] = g
        return ga

    return _unary(a, a.data[index], grad)


def concat(tensors) -> Tensor:
    """Join tensors along the channel axis (axis 1)."""
    tensors = [_wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=1)
    offsets = np.cumsum([0] + [t.shape[1] for t in tensors])

    def backward():
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(out.grad[:, lo:hi])

    out = _node(out_data, tuple(tensors), backward)
    return out


# -- 2D feature-map operations -----------------------------------------------------


@dataclass(frozen=True)
class ConvSpec:
    """Shape contract for a 2D convolution layer."""

    in_channels: int
    out_channels: int
    kernel: int = 3
    stride: int = 1
    padding: int = 0
    dilation: int = 1
    bias: bool = True

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1 or self.dilation < 1:
            raise ValueError(f"invalid conv spec {self}")

    def out_size(self, n: int) -> int:
        eff = self.dilation * (self.kernel - 1) + 1
        return (n + 2 * self.padding - eff) // self.stride + 1


def _conv_windows(x: np.ndarray, b: int, lo: int, hi: int, spec: ConvSpec,
                  ow: int) -> np.ndarray:
    """Read-only (c, k, k, hi − lo, ow) window view of output rows [lo, hi) of image ``b``.

    Element [:, i, j, y, x] is the zero-padded input at row i·d + (lo + y)·s and
    column j·d + x·s, for stride s and dilation d; no index arrays are built for
    any geometry. With padding the view reads a zero-padded copy of only the
    input rows that the band reads; without it, ``x`` itself.
    """
    c, h, w = x.shape[1:]
    p, k, s, d = spec.padding, spec.kernel, spec.stride, spec.dilation
    r0, r1 = lo * s, (hi - 1) * s + (k - 1) * d + 1   # the padded rows the band reads
    if p:
        slab = np.zeros((c, r1 - r0, w + 2 * p), x.dtype)
        top, bottom = max(r0 - p, 0), min(r1 - p, h)
        slab[:, top + p - r0 : bottom + p - r0, p : p + w] = x[b, :, top:bottom]
    else:
        slab = x[b, :, r0:r1]
    sc, sh, sw = slab.strides
    return np.lib.stride_tricks.as_strided(
        slab, (c, k, k, hi - lo, ow), (sc, d * sh, d * sw, s * sh, s * sw), writeable=False
    )


def conv2d(x, weight, bias, spec: ConvSpec, *, relu: bool = False) -> Tensor:
    """Cross-correlation with stride/padding/dilation, then a ReLU if ``relu``.

    ``weight`` has shape (out_channels, in_channels, k, k); ``bias`` is a
    (out_channels,) tensor or None. The im2col columns are copied from a
    strided window view (:func:`_conv_windows`), one band of output rows of
    one image at a time, and each band feeds one GEMM. With padding, each
    band's view reads a zero-padded copy of only its own input rows, so no
    padded copy of the whole input is made or kept. ``_IM2COL_CHUNK`` is the
    per-image element budget of a band; bias and ReLU are applied in place to
    each output band while it is still in cache.

    Backward: dW accumulates one GEMM ``g_band @ cols.T`` per band of each
    image, copying each band's columns once from the input (BLAS reads the
    transpose in place). dX runs through ``conv2d`` (:func:`_conv_input_grad`);
    db is the sum of the upstream gradient. Without ``relu`` the backward
    never reads the output.
    """
    x, weight = _wrap(x), _wrap(weight)
    n, c, h, w = x.shape
    if c != spec.in_channels or weight.shape != (spec.out_channels, c, spec.kernel, spec.kernel):
        raise ValueError(
            f"conv2d shape mismatch: input {x.shape}, weight {weight.shape}, spec {spec}"
        )
    oh, ow = spec.out_size(h), spec.out_size(w)
    if oh < 1 or ow < 1:
        raise ValueError(f"conv2d output would be empty for input {x.shape} with {spec}")

    oc, ckk = spec.out_channels, c * spec.kernel ** 2
    dtype = x.data.dtype
    w2 = np.ascontiguousarray(weight.data, dtype).reshape(oc, ckk)
    if bias is not None:
        bias = _wrap(bias)
        b2 = bias.data.reshape(oc, 1).astype(dtype, copy=False)
    rows = max(1, _IM2COL_CHUNK // (ckk * ow))
    bands = [(lo, min(lo + rows, oh)) for lo in range(0, oh, rows)]

    def cols(b, lo, hi):
        """The (c·k², (hi − lo)·ow) im2col columns of output rows [lo, hi) of image ``b``."""
        return _conv_windows(x.data, b, lo, hi, spec, ow).reshape(ckk, (hi - lo) * ow)

    out_data = np.empty((n, oc, oh, ow), dtype)
    for b in range(n):
        for lo, hi in bands:
            band = out_data[b, :, lo:hi].reshape(oc, (hi - lo) * ow)
            np.matmul(w2, cols(b, lo, hi), out=band)
            if bias is not None:
                band += b2
            if relu:
                np.maximum(band, 0, out=band)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward():
        g = out.grad.reshape(n, oc, oh * ow)
        if relu:
            g = g * (out_data.reshape(n, oc, oh * ow) > 0)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))
        if x.requires_grad:
            x._accumulate(_conv_input_grad(g.reshape(n, oc, oh, ow), weight.data, spec, h, w))
        if weight.requires_grad:
            gw = np.zeros((oc, ckk), g.dtype)
            for b in range(n):
                for lo, hi in bands:
                    gw += g[b, :, lo * ow : hi * ow] @ cols(b, lo, hi).T
            weight._accumulate(gw.reshape(weight.shape))

    out = _node(out_data, parents, backward)
    return out


def _conv_input_grad(g: np.ndarray, weight: np.ndarray, spec: ConvSpec, h: int, w: int):
    """Gradient of ``conv2d`` with respect to its (h, w) input: a transposed conv.

    dX correlates the upstream gradient ``g`` with the flipped, transposed
    kernel at stride 1 and dilation d, through ``conv2d``. At stride 1 that is
    a conv with padding (k−1)·d − p, so each band pads only its own rows. At a
    larger stride (or a padding above (k−1)·d) ``g`` is first zero-stuffed by
    the stride and padded by (k−1)·d, and dX is read from row and column ``p``
    on. Rows and columns that no window read get 0.
    """
    n, oc, oh, ow = g.shape
    p, k, s, d = spec.padding, spec.kernel, spec.stride, spec.dilation
    c, e = spec.in_channels, (k - 1) * d
    flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    if s == 1 and p <= e:
        return conv2d(g, flipped, None, ConvSpec(oc, c, k, padding=e - p, dilation=d)).data
    gs = np.zeros((n, oc, max(p + h, s * (oh - 1) + 1) + e, max(p + w, s * (ow - 1) + 1) + e),
                  g.dtype)
    gs[:, :, e : e + s * (oh - 1) + 1 : s, e : e + s * (ow - 1) + 1 : s] = g
    return conv2d(gs[:, :, p : p + h + e, p : p + w + e], flipped, None,
                  ConvSpec(oc, c, k, dilation=d)).data


def maxpool2(x) -> Tensor:
    """2x2 max pooling with stride 2; trailing odd rows/columns are dropped.

    The output is the elementwise maximum of the four stride-2 views of the
    even-cropped input, in every mode: the forward copies no windows and
    keeps no index array. Backward finds each window's winner by ``argmax`` over its
    positions (0,0), (0,1), (1,0), (1,1): the first maximum wins a tie, and
    the first NaN wins over numbers. ``np.maximum`` returns its second
    operand on a tie, so the forward pairs the views to give the same
    winner's value, signed zeros included.
    """
    x = _wrap(x)
    n, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    if oh < 1 or ow < 1:
        raise ValueError(f"maxpool2 needs spatial dims >= 2, got {x.shape}")
    v00, v01, v10, v11 = (x.data[:, :, i : 2 * oh : 2, j : 2 * ow : 2]
                          for i in (0, 1) for j in (0, 1))
    out_data = np.maximum(v01, v00)
    np.maximum(np.maximum(v11, v10), out_data, out=out_data)

    def grad(g_out):
        view = x.data[:, :, : 2 * oh, : 2 * ow].reshape(n, c, oh, 2, ow, 2)
        arg = view.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, 4).argmax(axis=-1)
        gx = np.zeros_like(x.data)
        for pos in range(4):
            i, j = divmod(pos, 2)
            gx[:, :, i : 2 * oh : 2, j : 2 * ow : 2] = np.where(arg == pos, g_out, 0)
        return gx

    return _unary(x, out_data, grad)


def upsample_nearest2(x) -> Tensor:
    """Double both spatial dims by replication."""
    x = _wrap(x)
    n, c, h, w = x.shape
    return _unary(x, x.data.repeat(2, axis=2).repeat(2, axis=3),
                  lambda g: g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))


def batch_norm(x, gamma, beta, state: "BatchNormState", training: bool,
               momentum: float = 0.9, eps: float = 1e-5) -> Tensor:
    """Normalize over all axes except channel axis 1.

    Training mode uses batch statistics and folds them into ``state``'s
    running estimates; eval mode reads the running estimates. γ, β and the
    running estimates are cast to the dtype of ``x`` at use.
    ``momentum`` is the weight kept by the old estimate:
    ``running = momentum * running + (1 - momentum) * batch``. At 0.9 the
    initial (0, 1) estimates fade to under 1% within 50 steps.

    Backward: dγ = Σ g·x̂ and dβ = Σ g over all but the channel axis. With
    σ = √(var + eps) and m elements per channel, training mode gives
    dx = (γ/σ)·(g − Σg/m − x̂·Σ(g·x̂)/m) from those same two sums; eval mode,
    where the statistics are constants, gives dx = (γ/σ)·g.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    xhat = np.empty_like(x.data)
    out_data, ivar, gamma_b = _normalize(x.data, xhat, gamma, beta, state, training,
                                         momentum, eps)

    def backward():
        gx = _batch_norm_grad(out.grad, xhat, ivar, gamma, beta, gamma_b, training,
                              x.requires_grad)
        if gx is not None:
            x._accumulate(gx)

    out = _node(out_data, (x, gamma, beta), backward)
    return out


def _normalize(data: np.ndarray, xhat: np.ndarray, gamma: Tensor, beta: Tensor,
               state: "BatchNormState", training: bool, momentum: float, eps: float):
    """The forward of :func:`batch_norm`: writes x̂ of ``data`` into ``xhat``
    (which may be ``data`` itself) and returns the output γ·x̂ + β, 1/√(var + eps)
    and γ, the last two shaped to broadcast and γ cast to ``data``'s dtype.
    Training mode takes the statistics from the batch and folds them into
    ``state``."""
    axes = tuple(ax for ax in range(data.ndim) if ax != 1)
    pshape = tuple(data.shape[1] if ax == 1 else 1 for ax in range(data.ndim))
    if training:
        mean = data.mean(axis=axes)
        var = data.var(axis=axes)
        state.running_mean[:] = momentum * state.running_mean + (1 - momentum) * mean
        state.running_var[:] = momentum * state.running_var + (1 - momentum) * var
    else:
        mean = state.running_mean.astype(data.dtype, copy=False)
        var = state.running_var.astype(data.dtype, copy=False)
    ivar = (1.0 / np.sqrt(var + eps)).reshape(pshape)
    np.subtract(data, mean.reshape(pshape), out=xhat)
    xhat *= ivar
    gamma_b, beta_b = (t.data.reshape(pshape).astype(data.dtype, copy=False)
                       for t in (gamma, beta))
    return gamma_b * xhat + beta_b, ivar, gamma_b


def _batch_norm_grad(g, xhat, ivar, gamma, beta, gamma_b, training: bool, need_dx: bool):
    """Add dγ and dβ of :func:`batch_norm` to γ and β; return dx if ``need_dx``.

    Training mode builds dx in ``xhat``'s buffer, which nothing reads after it."""
    axes = tuple(ax for ax in range(g.ndim) if ax != 1)
    g_sum = g.sum(axis=axes)
    gxhat_sum = (g * xhat).sum(axis=axes)
    if gamma.requires_grad:
        gamma._accumulate(gxhat_sum)
    if beta.requires_grad:
        beta._accumulate(g_sum)
    if not need_dx:
        return None
    scale = gamma_b * ivar
    if not training:
        return g * scale
    m = g.size // g.shape[1]
    gx = np.multiply(xhat, (gxhat_sum / -m).reshape(ivar.shape), out=xhat)
    gx += g
    gx -= (g_sum / m).reshape(ivar.shape)
    gx *= scale
    return gx


def _norm_unit(y: Tensor, norm: "BatchNorm", with_relu: bool) -> Tensor:
    """``relu(norm(y))``, or ``norm(y)`` when not ``with_relu``, in training
    mode, as one graph node in place of the node of the conv output ``y``.

    ``y`` must be a fresh output of ``conv2d`` without ``relu`` or of
    ``sparse_conv.sparse_conv_op``, whose backward never reads it: x̂ is
    written over its buffer, and the ReLU runs in place on the node's output,
    so the node keeps only x̂ and its output. Backward masks the gradient by
    ``out > 0``, runs :func:`batch_norm`'s gradient into ``y.grad`` and then
    ``y``'s own backward. The results equal, bit for bit, those of the
    separate ``conv``, ``batch_norm`` and ``relu`` nodes.
    """
    gamma, beta, xhat = norm.gamma, norm.beta, y.data
    out_data, ivar, gamma_b = _normalize(xhat, xhat, gamma, beta, norm.state, True,
                                         norm.momentum, norm.eps)
    if with_relu:
        np.maximum(out_data, 0.0, out=out_data)

    def backward():
        y.grad = _batch_norm_grad(out.grad * (out.data > 0) if with_relu else out.grad,
                                  xhat, ivar, gamma, beta, gamma_b, True, y._backward is not None)
        if y.grad is not None:
            y._backward()
        y.grad, y._backward, y._parents = None, None, ()   # as Tensor.backward releases a node

    out = _node(out_data, y._parents + (gamma, beta), backward)
    return out


# -- parameter containers -----------------------------------------------------------


class BatchNormState:
    """Running statistics shared by train and eval passes."""

    def __init__(self, channels: int):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)


class Module:
    """Minimal layer base: named parameters, buffers, train/eval mode. Calling
    a module runs its ``forward``; eval mode, which records no graph, also
    decides the BatchNorm fold and where a layer writes in place."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._children: dict[str, Module] = {}
        self.training = True

    def __setattr__(self, name, value):
        if isinstance(value, Module):
            self.__dict__.setdefault("_children", {})[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, value: np.ndarray) -> Tensor:
        t = Tensor(value, requires_grad=True)
        self._params[name] = t
        return t

    def register_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        self._buffers[name] = value
        return value

    def add_module(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    def train(self, mode: bool = True):
        self.training = mode
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def __call__(self, *args):
        if self.training:
            return self.forward(*args)
        with no_grad():
            return self.forward(*args)

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {prefix + name: t for name, t in self._params.items()}
        for cname, child in self._children.items():
            out.update(child.named_parameters(prefix + cname + "."))
        return out

    def named_buffers(self, prefix: str = "") -> dict[str, np.ndarray]:
        out = {prefix + name: b for name, b in self._buffers.items()}
        for cname, child in self._children.items():
            out.update(child.named_buffers(prefix + cname + "."))
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        out = {name: t.data for name, t in self.named_parameters().items()}
        out.update(self.named_buffers())
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]):
        """Copy ``state`` into the parameters and buffers in place; KeyError
        unless it has exactly their names, ValueError naming the first array
        whose shape differs."""
        own = self.state_dict()   # the parameters' and buffers' own arrays
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(f"state mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, arr in own.items():
            if arr.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}")
            arr[...] = state[name]


def he_normal(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    """Kaiming-style normal init scaled by 1/sqrt(fan_in)."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class Conv2d(Module):
    def __init__(self, spec: ConvSpec, rng: np.random.Generator):
        super().__init__()
        self.spec = spec
        fan_in = spec.in_channels * spec.kernel * spec.kernel
        shape = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
        self.weight = self.register_parameter("weight", he_normal(rng, shape, fan_in))
        self.bias = (
            self.register_parameter("bias", np.zeros(spec.out_channels)) if spec.bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.spec)


class BatchNorm(Module):
    """Batch normalization over all axes except channels (axis 1).

    ``momentum`` is the weight kept by the running estimates at each
    training step, as in :func:`batch_norm`.
    """

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.gamma = self.register_parameter("gamma", np.ones(channels))
        self.beta = self.register_parameter("beta", np.zeros(channels))
        self.state = BatchNormState(channels)
        self.register_buffer("running_mean", self.state.running_mean)
        self.register_buffer("running_var", self.state.running_var)

    def forward(self, x: Tensor) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.state, self.training,
                          self.momentum, self.eps)

    def fold(self) -> tuple[np.ndarray, np.ndarray]:
        """The eval-mode norm as a float64 per-channel affine map (scale, shift).

        ``norm(y) = y·scale + shift`` with ``scale = γ/√(running_var + eps)``
        and ``shift = β − running_mean·scale``. A bias-free conv whose
        weight is scaled per output channel, with ``shift`` as its bias,
        computes the conv and the norm in one pass.
        """
        scale = self.gamma.data / np.sqrt(self.state.running_var + self.eps)
        return scale, self.beta.data - self.state.running_mean * scale


# Sub-pixel phases of a 3×3 conv of a nearest-upsampled map: row (or column)
# parity a of the output reads half-map rows (i−1, i) for a = 0 and (i, i+1)
# for a = 1, and _PHASE_TAPS[a] sums the kernel rows each of the two reads
# takes: (W₀, W₁ + W₂) and (W₀ + W₁, W₂).
_PHASE_TAPS = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]], np.float64)


def conv_bn(x, conv: Conv2d, norm: BatchNorm, with_relu: bool = True, *,
            upsample: bool = False) -> Tensor:
    """``relu(norm(conv(x)))``, or ``norm(conv(x))`` when not ``with_relu``;
    with ``upsample``, the conv reads ``upsample_nearest2(x)`` and must be
    3×3 with padding 1 and stride 1 (``ValueError`` otherwise).

    ``conv`` has no bias. Training records one graph node for the unit
    (:func:`_norm_unit`), which keeps only x̂ and the unit's output. In eval
    mode the norm is folded into the conv (:meth:`BatchNorm.fold`), so one
    conv2d pass of ``x.data`` applies the shift and the ReLU to each output
    band in place; the folded unit records no graph, whatever ``x`` requires.

    With ``upsample``, eval mode never builds the upsampled (2h, 2w) map.
    Each output phase (a, b) is a 2×2 conv of ``x`` with padding 1, written
    into ``out[:, :, a::2, b::2]`` from its rows [a, a + h) and columns
    [b, b + w). Phase rows and columns take the kernel taps ``_PHASE_TAPS``:
    parity 0 reads half-map rows (i−1, i) with kernel rows (W₀, W₁ + W₂),
    parity 1 reads (i, i + 1) with (W₀ + W₁, W₂). The four phases run as one
    conv with 4·C output channels, which held the full-scale frame's peak
    memory level where four separate convs did not. This takes 16
    multiply-adds per output cell and channel pair where the upsampled conv
    takes 36, and it equals that conv up to the rounding of the summed taps.
    """
    x, spec = _wrap(x), conv.spec
    if upsample and (spec.kernel, spec.stride, spec.padding, spec.dilation) != (3, 1, 1, 1):
        raise ValueError(f"conv_bn with upsample needs a 3x3, stride-1, padding-1 conv, got {spec}")
    if norm.training:
        return _norm_unit(conv(upsample_nearest2(x) if upsample else x), norm, with_relu)
    scale, shift = norm.fold()
    weight = conv.weight.data * scale.reshape(-1, 1, 1, 1)
    if not upsample:
        return conv2d(x.data, weight, shift, spec, relu=with_relu)
    (n, c, h, w), oc = x.shape, spec.out_channels
    out = np.empty((n, oc, 2 * h, 2 * w), x.data.dtype)
    taps = np.einsum("aik,ockl,bjl->abocij", _PHASE_TAPS, weight, _PHASE_TAPS, optimize=True)
    y = conv2d(x.data, taps.reshape(4 * oc, c, 2, 2), np.tile(shift, 4),
               ConvSpec(c, 4 * oc, 2, padding=1), relu=with_relu).data
    y = y.reshape(n, 2, 2, oc, h + 1, w + 1)
    for a in (0, 1):
        for b in (0, 1):
            out[:, :, a::2, b::2] = y[:, a, b, :, a : a + h, b : b + w]
    return Tensor(out)


_ADAM_EPS = 1e-8
# elements per AdamW update block: 32 K float64 scratch values stay in cache
_ADAM_BLOCK = 32_768
# last name parts that take no weight decay: biases and BatchNorm's gamma and beta
_NO_DECAY = ("bias", "gamma", "beta")


class AdamW:
    """Decoupled weight-decay Adam over a named parameter dict of C-contiguous
    float64 arrays."""

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.01,
                 betas: tuple[float, float] = (0.9, 0.999)):
        self.params = dict(params)
        for name, p in self.params.items():
            if not p.data.flags.c_contiguous:
                raise ValueError(f"AdamW updates {name} in flat blocks; it must be C-contiguous")
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        """One update, in place, over blocks of ``_ADAM_BLOCK`` elements with
        two scratch blocks that every parameter reuses, so the temporaries
        stay in cache. Each element gets the bits of the textbook expression
        ``p -= lr·(m/bc1)/(√(v/bc2) + eps)``, then ``p -= lr·wd·p``."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        scratch, denominators = np.empty((2, _ADAM_BLOCK))
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            decay = self.weight_decay and not name.split(".")[-1] in _NO_DECAY
            flat = [a.reshape(-1) for a in (p.data, g, self.m[name], self.v[name])]
            for lo in range(0, p.data.size, _ADAM_BLOCK):
                data, grad, m, v = (a[lo : lo + _ADAM_BLOCK] for a in flat)
                s, denom = scratch[: len(data)], denominators[: len(data)]
                m *= self.beta1
                m += np.multiply(grad, 1 - self.beta1, out=s)
                v *= self.beta2
                np.multiply(grad, 1 - self.beta2, out=s)
                v += np.multiply(s, grad, out=s)
                np.divide(v, bc2, out=denom)
                np.sqrt(denom, out=denom)
                denom += _ADAM_EPS
                np.divide(m, bc1, out=s)
                s /= denom
                data -= np.multiply(s, self.lr, out=s)
                if decay:
                    data -= np.multiply(data, self.lr * self.weight_decay, out=s)


# -- checkpoint format ---------------------------------------------------------------
#
# A checkpoint is a flat sequence of records, one per named tensor:
#   u32 LE  name length in bytes
#   bytes   UTF-8 name
#   u32 LE  rank
#   u64 LE  dims[rank]
#   f64 LE  values (C order)


def save_checkpoint(path, tensors: dict[str, np.ndarray]):
    with open(path, "wb") as f:
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype="<f8")
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; ValueError if any field runs past the end of the file."""
    tensors = {}
    with open(path, "rb") as f:
        data = f.read()
    pos = 0

    def take(size: int, what: str) -> bytes:
        """The next ``size`` bytes; ValueError if fewer are left."""
        nonlocal pos
        if size > len(data) - pos:
            raise ValueError(f"truncated checkpoint: {what} needs {size} bytes at offset {pos}, "
                             f"{len(data) - pos} left")
        pos += size
        return data[pos - size : pos]

    while pos < len(data):
        (nlen,) = struct.unpack("<I", take(4, "name header"))
        name = take(nlen, "name").decode("utf-8")
        (rank,) = struct.unpack("<I", take(4, f"rank of {name!r}"))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, f"dims of {name!r}"))
        raw = take(8 * math.prod(dims), f"tensor {name!r}")
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    return tensors
