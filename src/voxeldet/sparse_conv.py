"""Sparse 3D convolution over active voxel sites.

A :class:`Rulebook` is the gather-scatter plan: for every kernel offset it
lists (input ordinal, output ordinal) pairs. Submanifold mode keeps the
active site set unchanged (output site o reads input site o + offset);
strided mode emits output sites at the floor-divided input coordinates,
clipped to the dense output extent, and pairs follow the standard strided
support i = o * stride + offset.

The voxel feature encoder stacks four blocks of submanifold layers plus one
strided downsampling layer each, then densifies the surviving z levels into
BEV channels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import nn_core
from .nn_core import BatchNorm, Module, Tensor, he_normal, relu
from .voxel_grid import SparseVoxelGrid

# Feature dtype of eval-mode forward passes; training stays float64.
_INFERENCE_DTYPE = np.float32


def _as_triple(v) -> tuple[int, int, int]:
    if np.isscalar(v):
        return (int(v),) * 3
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"expected scalar or 3 values, got {v}")
    return t


def kernel_offsets(kernel, centered: bool) -> list[tuple[int, int, int]]:
    """Canonical (lexicographic) offset enumeration for a kernel."""
    kx, ky, kz = _as_triple(kernel)
    if centered:
        ranges = [range(-(k // 2), k // 2 + 1) for k in (kx, ky, kz)]
    else:
        ranges = [range(k) for k in (kx, ky, kz)]
    return list(itertools.product(*ranges))


@dataclass(frozen=True)
class Rulebook:
    """Gather-scatter plan: per kernel offset, paired input/output ordinals."""

    offsets: tuple[tuple[int, int, int], ...]
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]   # (in_ordinals, out_ordinals)
    n_in: int
    n_out: int

    @property
    def total_pairs(self) -> int:
        return sum(len(i) for i, _ in self.pairs)


def _sorted_coord_keys(coords: np.ndarray, shape) -> np.ndarray:
    nx, ny, nz = shape
    return ((coords[:, 0] * nz + coords[:, 3]) * ny + coords[:, 2]) * nx + coords[:, 1]


def _sort_coords(coords: np.ndarray, shape) -> np.ndarray:
    keys = _sorted_coord_keys(coords, shape)
    return np.argsort(keys, kind="stable")


def build_rulebook(coords: np.ndarray, shape, kernel, stride=1,
                   mode: str = "submanifold") -> tuple[Rulebook, np.ndarray, tuple]:
    """Plan a sparse convolution over batched site coordinates.

    ``coords`` is (n, 4) int64 rows (batch, ix, iy, iz) sorted by
    (batch, iz, iy, ix); returns the rulebook, the output coordinates in the
    same ordering, and the output spatial shape.
    """
    kx, ky, kz = _as_triple(kernel)
    nx, ny, nz = shape
    n_in = len(coords)
    keys = _sorted_coord_keys(coords, shape)
    if n_in and (np.diff(keys) <= 0).any():
        raise ValueError("site coordinates must be unique and sorted by (batch, iz, iy, ix)")

    if mode == "submanifold":
        if kx % 2 == 0 or ky % 2 == 0 or kz % 2 == 0:
            raise ValueError("submanifold mode requires odd kernel sizes")
        if _as_triple(stride) != (1, 1, 1):
            raise ValueError("submanifold mode requires stride 1")
        out_coords, out_shape = coords, (nx, ny, nz)
        out_keys = keys
        offsets = kernel_offsets((kx, ky, kz), centered=True)

        def input_coords_for(out_c, off):
            return out_c[:, 1:] + np.array(off)

    elif mode == "strided":
        sx, sy, sz = _as_triple(stride)
        out_shape = tuple(
            max(1, (n - k) // s + 1) for n, k, s in ((nx, kx, sx), (ny, ky, sy), (nz, kz, sz))
        )
        s_arr = np.array([sx, sy, sz])
        down = coords[:, 1:] // s_arr
        down = np.minimum(down, np.array(out_shape) - 1)
        out_coords = np.unique(np.column_stack([coords[:, 0], down]), axis=0)
        order = _sort_coords(out_coords, out_shape)
        out_coords = out_coords[order]
        offsets = kernel_offsets((kx, ky, kz), centered=False)

        def input_coords_for(out_c, off):
            return out_c[:, 1:] * s_arr + np.array(off)

    else:
        raise ValueError(f"unknown mode {mode!r}")

    pairs = []
    in_extent = np.array([nx, ny, nz])
    for off in offsets:
        cand = input_coords_for(out_coords, off)
        valid = ((cand >= 0) & (cand < in_extent)).all(axis=1)
        out_ord = np.flatnonzero(valid)
        cand_coords = np.column_stack([out_coords[out_ord, 0], cand[out_ord]])
        cand_keys = _sorted_coord_keys(cand_coords, shape)
        pos = np.searchsorted(keys, cand_keys)
        pos = np.minimum(pos, max(n_in - 1, 0))
        found = (keys[pos] == cand_keys) if n_in else np.zeros(len(cand_keys), bool)
        pairs.append((pos[found].astype(np.int64), out_ord[found].astype(np.int64)))

    rb = Rulebook(tuple(offsets), tuple(pairs), n_in=n_in, n_out=len(out_coords))
    return rb, out_coords, out_shape


# -- raw numpy execution -----------------------------------------------------------


def sparse_conv_forward(features: np.ndarray, weights: np.ndarray, bias,
                        rulebook: Rulebook) -> np.ndarray:
    """Gather-scatter sparse convolution; ``weights`` is (offsets, c_in, c_out).

    The output has the dtype of ``features``; weights and bias are cast to it.
    """
    if weights.shape[0] != len(rulebook.offsets) or weights.shape[1] != features.shape[1]:
        raise ValueError(
            f"weight shape {weights.shape} incompatible with rulebook "
            f"({len(rulebook.offsets)} offsets) and features {features.shape}"
        )
    dtype = features.dtype
    weights = weights.astype(dtype, copy=False)
    out = np.zeros((rulebook.n_out, weights.shape[2]), dtype)
    # within one offset the output ordinals are unique, so a fancy-index += is exact
    for k, (in_idx, out_idx) in enumerate(rulebook.pairs):
        if len(in_idx):
            out[out_idx] += features[in_idx] @ weights[k]
    if bias is not None:
        out += bias.astype(dtype, copy=False)
    return out


def sparse_conv_backward(upstream: np.ndarray, rulebook: Rulebook, features: np.ndarray,
                         weights: np.ndarray):
    """Transpose gather-scatter of the forward pass.

    Returns (input grads, weight grads, bias grads).
    """
    d_feat = np.zeros_like(features)
    d_w = np.zeros_like(weights)
    for k, (in_idx, out_idx) in enumerate(rulebook.pairs):
        if len(in_idx):
            g = upstream[out_idx]
            d_w[k] = features[in_idx].T @ g
            d_feat[in_idx] += g @ weights[k].T   # input ordinals are unique per offset
    return d_feat, d_w, upstream.sum(axis=0)


def sparse_conv_op(features: Tensor, weights: Tensor, bias, rulebook: Rulebook) -> Tensor:
    """Autodiff node wrapping the raw sparse convolution."""
    bias_data = None if bias is None else bias.data
    out_data = sparse_conv_forward(features.data, weights.data, bias_data, rulebook)
    parents = (features, weights) if bias is None else (features, weights, bias)

    def backward():
        d_feat, d_w, d_b = sparse_conv_backward(out.grad, rulebook, features.data, weights.data)
        if features.requires_grad:
            features._accumulate(d_feat)
        if weights.requires_grad:
            weights._accumulate(d_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(d_b)

    out = nn_core._node(out_data, parents, backward)
    return out


def densify_bev(features: Tensor, coords: np.ndarray, shape, batch_size: int) -> Tensor:
    """Stack the remaining z levels into channels: (B, C * nz, ny, nx)."""
    nx, ny, nz = shape
    _, c = features.shape
    dense_shape = (batch_size, c * nz, ny, nx)
    out_data = np.zeros((batch_size, nz, c, ny, nx), features.data.dtype)
    flat = out_data.reshape(batch_size * nz, c, ny * nx)
    b_z = coords[:, 0] * nz + coords[:, 3]
    yx = coords[:, 2] * nx + coords[:, 1]
    flat[b_z, :, yx] = features.data
    out_data = out_data.reshape(dense_shape)

    def backward():
        g = out.grad.reshape(batch_size * nz, c, ny * nx)
        features._accumulate(g[b_z, :, yx])

    out = nn_core._node(out_data, (features,), backward)
    return out


# -- VFE blocks -----------------------------------------------------------------


@dataclass(frozen=True)
class VfeBlockSpec:
    in_channels: int
    out_channels: int
    n_submanifold: int
    stride_xy: int
    stride_z: int = 2

    def __post_init__(self):
        if self.in_channels <= 0 or self.out_channels <= 0:
            raise ValueError(f"channels must be positive: {self}")
        if self.stride_xy not in (1, 2) or self.stride_z not in (1, 2):
            raise ValueError(f"strides must be 1 or 2: {self}")


DEFAULT_BLOCKS = (
    VfeBlockSpec(4, 16, 2, 2),
    VfeBlockSpec(16, 32, 2, 2),
    VfeBlockSpec(32, 64, 3, 2),
    VfeBlockSpec(64, 64, 3, 1),
)


class SparseConv3d(Module):
    """One sparse convolution layer; rulebooks are supplied at call time."""

    def __init__(self, in_channels: int, out_channels: int, kernel, rng,
                 bias: bool = False):
        super().__init__()
        self.kernel = _as_triple(kernel)
        n_off = int(np.prod(self.kernel))
        fan_in = in_channels * n_off
        self.weight = self.register_parameter(
            "weight", he_normal(rng, (n_off, in_channels, out_channels), fan_in)
        )
        self.bias = self.register_parameter("bias", np.zeros(out_channels)) if bias else None

    def __call__(self, features: Tensor, rulebook: Rulebook) -> Tensor:
        return sparse_conv_op(features, self.weight, self.bias, rulebook)


@dataclass
class _BlockPlan:
    subm_rulebook: Rulebook
    strided_rulebook: Rulebook


@dataclass
class VfePlan:
    """Precomputed rulebooks and site sets for one batch of grids."""

    batch_size: int
    init_features: np.ndarray
    blocks: list[_BlockPlan]
    final_coords: np.ndarray
    final_shape: tuple[int, int, int]

    @property
    def empty(self) -> bool:
        return len(self.init_features) == 0


class VfeEncoder(Module):
    """Four sparse blocks over the voxel grid, reshaped to a BEV feature map.

    Each block runs its submanifold layers (kernel 3, batch norm, ReLU) and
    one strided layer that downsamples x/y by ``stride_xy`` and halves z.
    The z kernel stretches to 3 when the extent is odd so boundary sites
    still contribute.
    """

    def __init__(self, grid_shape, blocks=DEFAULT_BLOCKS, seed: int = 0):
        super().__init__()
        self.grid_shape = tuple(int(s) for s in grid_shape)
        self.blocks = tuple(blocks)
        for prev, nxt in zip(self.blocks, self.blocks[1:]):
            if prev.out_channels != nxt.in_channels:
                raise ValueError(f"channel mismatch between blocks: {prev} -> {nxt}")
        rng = np.random.default_rng(seed)
        self._shape_schedule = self._plan_shapes()
        for bi, spec in enumerate(self.blocks):
            ch = spec.in_channels
            for li in range(spec.n_submanifold):
                conv = SparseConv3d(ch, spec.out_channels, 3, rng)
                self.add_module(f"block{bi}.subm{li}", conv)
                self.add_module(f"block{bi}.subm{li}.norm", BatchNorm(spec.out_channels))
                ch = spec.out_channels
            kernel, _ = self._shape_schedule[bi]
            conv = SparseConv3d(ch, spec.out_channels, kernel, rng)
            self.add_module(f"block{bi}.down", conv)
            self.add_module(f"block{bi}.down.norm", BatchNorm(spec.out_channels))

    def _plan_shapes(self):
        """Per-block strided kernel and output extent, from the grid shape."""
        schedule = []
        shape = self.grid_shape
        for spec in self.blocks:
            stride = (spec.stride_xy, spec.stride_xy, spec.stride_z)
            kernel = tuple(
                1 if s == 1 else (s if n % s == 0 else s + 1)
                for n, s in zip(shape, stride)
            )
            shape = tuple(max(1, (n - k) // s + 1) for n, k, s in zip(shape, kernel, stride))
            schedule.append((kernel, shape))
        return schedule

    @property
    def bev_shape(self) -> tuple[int, int, int]:
        """(channels, height=y cells, width=x cells) of the output map."""
        _, final = self._shape_schedule[-1]
        c = self.blocks[-1].out_channels * final[2]
        return (c, final[1], final[0])

    def build_plan(self, grids) -> VfePlan:
        grids = [grids] if isinstance(grids, SparseVoxelGrid) else list(grids)
        for g in grids:
            if g.shape != self.grid_shape:
                raise ValueError(f"grid shape {g.shape} != encoder shape {self.grid_shape}")
            if g.channels != self.blocks[0].in_channels:
                raise ValueError(
                    f"grid has {g.channels} channels, block expects "
                    f"{self.blocks[0].in_channels}"
                )
        coords = np.concatenate(
            [
                np.column_stack([np.full(g.num_sites, b, dtype=np.int64), g.indices])
                for b, g in enumerate(grids)
            ]
        ) if grids else np.empty((0, 4), np.int64)
        feats = (
            np.concatenate([g.features for g in grids])
            if grids
            else np.empty((0, self.blocks[0].in_channels))
        )

        shape = self.grid_shape
        plans = []
        for bi, spec in enumerate(self.blocks):
            kernel, out_shape = self._shape_schedule[bi]
            subm_rb, _, _ = build_rulebook(coords, shape, 3, 1, "submanifold")
            stride = (spec.stride_xy, spec.stride_xy, spec.stride_z)
            strided_rb, coords, shape2 = build_rulebook(coords, shape, kernel, stride, "strided")
            assert shape2 == out_shape
            shape = out_shape
            plans.append(_BlockPlan(subm_rb, strided_rb))
        return VfePlan(
            batch_size=len(grids),
            init_features=feats,
            blocks=plans,
            final_coords=coords,
            final_shape=shape,
        )

    def forward(self, plan: VfePlan) -> Tensor:
        """BEV map of the plan's grids: float64 in training, else ``_INFERENCE_DTYPE``.

        The dense layers downstream follow the dtype of this map.
        """
        c, h, w = self.bev_shape
        dtype = plan.init_features.dtype if self.training else _INFERENCE_DTYPE
        if plan.empty:
            return Tensor(np.zeros((plan.batch_size, c, h, w), dtype))
        x = Tensor(plan.init_features.astype(dtype, copy=False))
        for bi, spec in enumerate(self.blocks):
            bp = plan.blocks[bi]
            for li in range(spec.n_submanifold):
                x = self._children[f"block{bi}.subm{li}"](x, bp.subm_rulebook)
                x = relu(self._children[f"block{bi}.subm{li}.norm"](x))
            x = self._children[f"block{bi}.down"](x, bp.strided_rulebook)
            x = relu(self._children[f"block{bi}.down.norm"](x))
        return densify_bev(x, plan.final_coords, plan.final_shape, plan.batch_size)

    def __call__(self, grids) -> Tensor:
        return self.forward(self.build_plan(grids))


def densify_grid(grid: SparseVoxelGrid) -> np.ndarray:
    """(nx, ny, nz, channels) dense array; zero where no site exists."""
    nx, ny, nz = grid.shape
    dense = np.zeros((nx, ny, nz, grid.channels))
    dense[grid.indices[:, 0], grid.indices[:, 1], grid.indices[:, 2]] = grid.features
    return dense

