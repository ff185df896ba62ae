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
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

# Element budget of one conv2d im2col band of one image (c·k² · band columns):
# 4 MB in float32, sized so that a band is still in L2 when its GEMM reads it.
# The backward bands its dW GEMMs and its dX transposed conv by the same budget.
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

        The recorded graph is released afterwards (closures capture their
        inputs, which would otherwise pin every intermediate buffer through
        reference cycles); leaves keep their gradients.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward()
        for node in order:
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

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

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
    """Context manager: ops record no graph inside (inference paths)."""

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


# -- elementwise arithmetic ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    out_data = a.data + b.data

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad, b.shape))

    out = _node(out_data, (a, b), backward)
    return out


def mul(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    out_data = a.data * b.data

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad * a.data, b.shape))

    out = _node(out_data, (a, b), backward)
    return out


def div(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    out_data = a.data / b.data

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-out.grad * a.data / (b.data * b.data), b.shape))

    out = _node(out_data, (a, b), backward)
    return out


def power(a, p: float) -> Tensor:
    a = _wrap(a)
    out_data = a.data ** p

    def backward():
        a._accumulate(out.grad * p * a.data ** (p - 1))

    out = _node(out_data, (a,), backward)
    return out


def log(a) -> Tensor:
    a = _wrap(a)
    out_data = np.log(a.data)

    def backward():
        a._accumulate(out.grad / a.data)

    out = _node(out_data, (a,), backward)
    return out


def absolute(a) -> Tensor:
    a = _wrap(a)
    out_data = np.abs(a.data)

    def backward():
        a._accumulate(out.grad * np.sign(a.data))

    out = _node(out_data, (a,), backward)
    return out


def clamp(a, lo: float, hi: float) -> Tensor:
    a = _wrap(a)
    out_data = np.clip(a.data, lo, hi)

    def backward():
        mask = (a.data >= lo) & (a.data <= hi)
        a._accumulate(out.grad * mask)

    out = _node(out_data, (a,), backward)
    return out


def relu(a) -> Tensor:
    a = _wrap(a)
    out_data = np.maximum(a.data, 0.0)

    def backward():
        a._accumulate(out.grad * (a.data > 0))

    out = _node(out_data, (a,), backward)
    return out


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    x = a.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)

    def backward():
        a._accumulate(out.grad * out_data * (1.0 - out_data))

    out = _node(out_data, (a,), backward)
    return out


def logsumexp(a, axis: int = 1) -> Tensor:
    a = _wrap(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(m + np.log(s), axis=axis)

    def backward():
        a._accumulate(np.expand_dims(out.grad, axis=axis) * (e / s))

    out = _node(out_data, (a,), backward)
    return out


# -- reductions and shape ops ----------------------------------------------------


def reduce_sum(a, axis=None) -> Tensor:
    a = _wrap(a)
    out_data = a.data.sum(axis=axis)

    def backward():
        g = out.grad
        if axis is not None:
            g = np.expand_dims(g, axis=axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    out = _node(out_data, (a,), backward)
    return out


def reduce_mean(a, axis=None) -> Tensor:
    a = _wrap(a)
    scale = a.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
    return reduce_sum(a, axis) * (1.0 / float(scale))


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    out_data = a.data.reshape(shape)

    def backward():
        a._accumulate(out.grad.reshape(a.shape))

    out = _node(out_data, (a,), backward)
    return out


def astype(a, dtype) -> Tensor:
    """``a`` cast to ``dtype`` (float32 or float64); the gradient flows back in
    ``a``'s dtype. A cast to ``a``'s own dtype returns ``a``."""
    a = _wrap(a)
    if a.data.dtype == dtype:
        return a
    out_data = a.data.astype(dtype)

    def backward():
        a._accumulate(out.grad.astype(a.data.dtype))

    out = _node(out_data, (a,), backward)
    return out


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries along ``axis`` starting at ``start``."""
    a = _wrap(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out_data = a.data[index].copy()

    def backward():
        g = np.zeros_like(a.data)
        g[index] = out.grad
        a._accumulate(g)

    out = _node(out_data, (a,), backward)
    return out


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward():
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * out.grad.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(out.grad[tuple(index)])

    out = _node(out_data, tuple(tensors), backward)
    return out


def concat_channels(tensors) -> Tensor:
    return concat(tensors, axis=1)


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


def _conv_windows(xp: np.ndarray, spec: ConvSpec, oh: int, ow: int) -> np.ndarray:
    """Read-only (n, c, k, k, oh, ow) window view of the padded input ``xp``.

    Element [..., i, j, y, x] is xp[..., i·d + y·s, j·d + x·s] for stride s
    and dilation d; no index arrays are built for any geometry.
    """
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    k, s, d = spec.kernel, spec.stride, spec.dilation
    return np.lib.stride_tricks.as_strided(
        xp, (n, c, k, k, oh, ow), (sn, sc, d * sh, d * sw, s * sh, s * sw), writeable=False
    )


def conv2d(x, weight, bias, spec: ConvSpec, *, relu: bool = False) -> Tensor:
    """Cross-correlation with stride/padding/dilation, then a ReLU if ``relu``.

    ``weight`` has shape (out_channels, in_channels, k, k); ``bias`` is a
    (out_channels,) tensor or None. The im2col columns are copied from a
    strided window view of the padded input, one band of output rows of one
    image at a time, and each band feeds one GEMM. ``_IM2COL_CHUNK`` is the
    per-image element budget of a band, sized to L2 so that the GEMM reads
    the columns back from cache; bias and ReLU are applied in place to each
    output band while it is still in cache.

    Backward: dW accumulates one GEMM ``g_band @ cols.T`` per band of each
    image, copying each band's columns once (BLAS reads the transpose in
    place). dX is itself a conv (:func:`_conv_input_grad`), banded the same
    way; db is the sum of the upstream gradient.
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

    p, k, s, d = spec.padding, spec.kernel, spec.stride, spec.dilation
    oc, ckk = spec.out_channels, c * k * k
    dtype = x.data.dtype
    if p:
        xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype)
        xp[:, :, p : p + h, p : p + w] = x.data
    else:
        xp = x.data
    win = _conv_windows(xp, spec, oh, ow)
    w2 = weight.data.reshape(oc, ckk).astype(dtype, copy=False)
    if bias is not None:
        bias = _wrap(bias)
        b2 = bias.data.reshape(oc, 1).astype(dtype, copy=False)
    rows = max(1, _IM2COL_CHUNK // (ckk * ow))
    bands = [(lo, min(lo + rows, oh)) for lo in range(0, oh, rows)]

    out_data = np.empty((n, oc, oh, ow), dtype)
    for b in range(n):
        for lo, hi in bands:
            band = out_data[b, :, lo:hi].reshape(oc, (hi - lo) * ow)
            np.matmul(w2, win[b, :, :, :, lo:hi].reshape(ckk, (hi - lo) * ow), out=band)
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
        if weight.requires_grad:
            gw = np.zeros((oc, ckk), g.dtype)
            for b in range(n):
                for lo, hi in bands:
                    cols = win[b, :, :, :, lo:hi].reshape(ckk, (hi - lo) * ow)
                    gw += g[b, :, lo * ow : hi * ow] @ cols.T
            weight._accumulate(gw.reshape(weight.shape))
        if x.requires_grad:
            x._accumulate(_conv_input_grad(g.reshape(n, oc, oh, ow), weight.data, spec, h, w))

    out = _node(out_data, parents, backward)
    return out


def _conv_input_grad(g: np.ndarray, weight: np.ndarray, spec: ConvSpec, h: int, w: int):
    """Gradient of ``conv2d`` with respect to its (h, w) input: a transposed conv.

    The upstream gradient ``g`` is zero-stuffed by the stride and padded by
    (k−1)·d; a stride-1, dilation-d correlation of it with the flipped,
    transposed kernel, read from row and column ``p`` on, is the unpadded
    input gradient. Rows and columns that no window read get 0.
    """
    n, oc, oh, ow = g.shape
    p, k, s, d = spec.padding, spec.kernel, spec.stride, spec.dilation
    c, e = spec.in_channels, (k - 1) * d
    gs = np.zeros((n, oc, max(p + h, s * (oh - 1) + 1) + e, max(p + w, s * (ow - 1) + 1) + e),
                  g.dtype)
    gs[:, :, e : e + s * (oh - 1) + 1 : s, e : e + s * (ow - 1) + 1 : s] = g
    win = _conv_windows(gs[:, :, p:, p:], ConvSpec(oc, c, k, dilation=d), h, w)
    okk = oc * k * k
    wt = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, okk).astype(g.dtype)
    rows = max(1, _IM2COL_CHUNK // (okk * w))
    gx = np.empty((n, c, h, w), g.dtype)
    for b in range(n):
        for lo in range(0, h, rows):
            hi = min(lo + rows, h)
            np.matmul(wt, win[b, :, :, :, lo:hi].reshape(okk, (hi - lo) * w),
                      out=gx[b, :, lo:hi].reshape(c, (hi - lo) * w))
    return gx


def maxpool2(x) -> Tensor:
    """2x2 max pooling with stride 2; trailing odd rows/columns are dropped."""
    x = _wrap(x)
    n, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    if oh < 1 or ow < 1:
        raise ValueError(f"maxpool2 needs spatial dims >= 2, got {x.shape}")
    view = x.data[:, :, : 2 * oh, : 2 * ow].reshape(n, c, oh, 2, ow, 2)
    windows = view.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, 4)
    arg = windows.argmax(axis=-1)
    out_data = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]

    def backward():
        g = np.zeros((n, c, oh, ow, 4), out.grad.dtype)
        np.put_along_axis(g, arg[..., None], out.grad[..., None], axis=-1)
        g = g.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        gx = np.zeros_like(x.data)
        gx[:, :, : 2 * oh, : 2 * ow] = g.reshape(n, c, 2 * oh, 2 * ow)
        x._accumulate(gx)

    out = _node(out_data, (x,), backward)
    return out


def upsample_nearest2(x) -> Tensor:
    """Double both spatial dims by replication."""
    x = _wrap(x)
    out_data = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def backward():
        n, c, h2, w2 = out.grad.shape
        g = out.grad.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5))
        x._accumulate(g)

    out = _node(out_data, (x,), backward)
    return out


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
    c = x.shape[1]
    axes = tuple(ax for ax in range(x.ndim) if ax != 1)
    pshape = tuple(c if ax == 1 else 1 for ax in range(x.ndim))
    dtype = x.data.dtype
    gamma_b = gamma.data.reshape(pshape).astype(dtype, copy=False)
    beta_b = beta.data.reshape(pshape).astype(dtype, copy=False)

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        state.running_mean[:] = momentum * state.running_mean + (1 - momentum) * mean
        state.running_var[:] = momentum * state.running_var + (1 - momentum) * var
    else:
        mean = state.running_mean.astype(dtype, copy=False)
        var = state.running_var.astype(dtype, copy=False)

    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean.reshape(pshape)) * ivar.reshape(pshape)
    out_data = gamma_b * xhat + beta_b

    def backward():
        g = out.grad
        g_sum = g.sum(axis=axes)
        gxhat_sum = (g * xhat).sum(axis=axes)
        if gamma.requires_grad:
            gamma._accumulate(gxhat_sum)
        if beta.requires_grad:
            beta._accumulate(g_sum)
        if not x.requires_grad:
            return
        scale = gamma_b * ivar.reshape(pshape)
        if training:
            m = x.data.size // c
            gx = xhat * (gxhat_sum / -m).reshape(pshape)
            gx += g
            gx -= (g_sum / m).reshape(pshape)
            gx *= scale
        else:
            gx = g * scale
        x._accumulate(gx)

    out = _node(out_data, (x, gamma, beta), backward)
    return out


# -- parameter containers -----------------------------------------------------------


class BatchNormState:
    """Running statistics shared by train and eval passes."""

    def __init__(self, channels: int):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)


class Module:
    """Minimal layer base: named parameters, buffers, train/eval mode."""

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
        params = self.named_parameters()
        buffers = self.named_buffers()
        known = set(params) | set(buffers)
        missing = known - set(state)
        extra = set(state) - known
        if missing or extra:
            raise KeyError(f"state mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, t in params.items():
            if t.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}")
            t.data[...] = state[name]
        for name, b in buffers.items():
            b[...] = state[name]


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

    def __call__(self, x: Tensor) -> Tensor:
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

    def __call__(self, x: Tensor) -> Tensor:
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


def conv_bn(x, conv: Conv2d, norm: BatchNorm, with_relu: bool = True) -> Tensor:
    """``relu(norm(conv(x)))``, or ``norm(conv(x))`` when not ``with_relu``.

    ``conv`` has no bias. Training runs the three ops as written. In eval
    mode the norm is folded into the conv (:meth:`BatchNorm.fold`), so one
    conv2d pass applies the shift and the ReLU to each output band in place.
    """
    if norm.training:
        y = norm(conv(x))
        return relu(y) if with_relu else y
    scale, shift = norm.fold()
    return conv2d(x, conv.weight.data * scale.reshape(-1, 1, 1, 1), shift, conv.spec,
                  relu=with_relu)


_ADAM_EPS = 1e-8
# last name parts that take no weight decay: biases and BatchNorm's gamma and beta
_NO_DECAY = ("bias", "gamma", "beta")


class AdamW:
    """Decoupled weight-decay Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.01,
                 betas: tuple[float, float] = (0.9, 0.999)):
        self.params = dict(params)
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
        """One update, in place: per parameter one scratch buffer and one
        denominator buffer, and the bits of the textbook expression
        ``p -= lr·(m/bc1)/(√(v/bc2) + eps)``, then ``p -= lr·wd·p``."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m, v, s = self.m[name], self.v[name], np.empty_like(p.data)
            m *= self.beta1
            m += np.multiply(g, 1 - self.beta1, out=s)
            v *= self.beta2
            np.multiply(g, 1 - self.beta2, out=s)
            v += np.multiply(s, g, out=s)
            denom = np.divide(v, bc2)
            np.sqrt(denom, out=denom)
            denom += _ADAM_EPS
            np.divide(m, bc1, out=s)
            s /= denom
            p.data -= np.multiply(s, self.lr, out=s)
            if self.weight_decay and not name.split(".")[-1] in _NO_DECAY:
                p.data -= np.multiply(p.data, self.lr * self.weight_decay, out=s)


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
