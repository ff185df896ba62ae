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
from .nn_core import BatchNorm, Module, Tensor, he_normal
from .voxel_grid import SparseVoxelGrid, decode_site_keys, site_keys

# Feature dtype of every forward pass, training and eval alike; parameters,
# gradients, running statistics and checkpoints stay float64 and are cast at use.
_FEATURE_DTYPE = np.float32


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


def build_rulebook(coords: np.ndarray, shape, kernel, stride=1,
                   mode: str = "submanifold") -> tuple[Rulebook, np.ndarray, tuple]:
    """Plan a sparse convolution over batched site coordinates.

    ``coords`` is (n, 4) int64 rows (batch, ix, iy, iz) sorted by
    (batch, iz, iy, ix); returns the rulebook, the output coordinates in the
    same ordering, and the output spatial shape.

    Every candidate input key is an output's base key plus the offset's key
    step, so only the per-axis bounds test touches coordinates. Pairs are
    listed in increasing output ordinal, and because the key map is
    monotone their input ordinals increase too. In submanifold mode the
    centre offset is the identity and offset -d pairs are the swapped pairs
    of +d, so only half of the offsets need a lookup.
    """
    kernel = _as_triple(kernel)
    n_in = len(coords)
    keys = site_keys(coords[:, 1:], shape, coords[:, 0])
    if n_in and (np.diff(keys) <= 0).any():
        raise ValueError("site coordinates must be unique and sorted by (batch, iz, iy, ix)")

    if mode == "submanifold":
        if any(k % 2 == 0 for k in kernel):
            raise ValueError("submanifold mode requires odd kernel sizes")
        if _as_triple(stride) != (1, 1, 1):
            raise ValueError("submanifold mode requires stride 1")
        out_coords, out_shape, base_keys = coords, tuple(shape), keys
        offsets = kernel_offsets(kernel, centered=True)
        support = coords[:, 1:]
    elif mode == "strided":
        s_arr = np.array(_as_triple(stride))
        out_shape = tuple(max(1, (n - k) // s + 1) for n, k, s in zip(shape, kernel, s_arr))
        down = np.minimum(coords[:, 1:] // s_arr, np.array(out_shape) - 1)
        out_batch, out_idx = decode_site_keys(
            np.unique(site_keys(down, out_shape, coords[:, 0])), out_shape)
        out_coords = np.column_stack([out_batch, out_idx])
        offsets = kernel_offsets(kernel, centered=False)
        support = out_idx * s_arr
        base_keys = site_keys(support, shape, out_batch)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # in_axis[a][d]: whether support coordinate + d stays inside axis a
    in_axis = [
        {d: (support[:, a] + d >= 0) & (support[:, a] + d < shape[a])
         for d in sorted({off[a] for off in offsets})}
        for a in range(3)
    ]
    pairs = [None] * len(offsets)
    lookups = range(len(offsets) // 2 if mode == "submanifold" else len(offsets))
    for k in lookups:
        off = offsets[k]
        valid = in_axis[0][off[0]] & in_axis[1][off[1]] & in_axis[2][off[2]]
        out_ord = np.flatnonzero(valid)
        # within bounds, key(c + off) = key(c) + key step of off
        cand_keys = base_keys[out_ord] + (off[2] * shape[1] + off[1]) * shape[0] + off[0]
        pos = np.minimum(np.searchsorted(keys, cand_keys), max(n_in - 1, 0))
        found = (keys[pos] == cand_keys) if n_in else np.zeros(len(cand_keys), bool)
        pairs[k] = (pos[found].astype(np.int64), out_ord[found].astype(np.int64))
    if mode == "submanifold":   # offsets are listed so that offsets[-1 - k] = -offsets[k]
        identity = np.arange(n_in, dtype=np.int64)
        pairs[len(offsets) // 2] = (identity, identity)
        for k in lookups:
            pairs[-1 - k] = pairs[k][::-1]

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


def sparse_conv_op(features: Tensor, weights: Tensor, bias, rulebook: Rulebook) -> Tensor:
    """Autodiff node wrapping the raw sparse convolution.

    The sparse input gradient is ``sparse_conv_forward`` on the swapped pairs,
    with each offset's weights transposed. The backward computes only the
    gradients a parent takes: no input gradient for features without
    ``requires_grad`` (the first layer's voxel features), no weight gradient
    for frozen weights, and no bias sum for a bias-free layer.
    """
    bias_data = None if bias is None else bias.data
    out_data = sparse_conv_forward(features.data, weights.data, bias_data, rulebook)
    parents = (features, weights) if bias is None else (features, weights, bias)

    def backward():
        upstream, x = out.grad, features.data
        w = weights.data.astype(x.dtype, copy=False)
        if features.requires_grad:
            swapped = Rulebook(rulebook.offsets, tuple((o, i) for i, o in rulebook.pairs),
                               n_in=rulebook.n_out, n_out=rulebook.n_in)
            features._accumulate(sparse_conv_forward(upstream, w.transpose(0, 2, 1), None,
                                                     swapped))
        if weights.requires_grad:
            d_w = np.zeros_like(w)
            for k, (in_idx, out_idx) in enumerate(rulebook.pairs):
                if len(in_idx):
                    d_w[k] = x[in_idx].T @ upstream[out_idx]
            weights._accumulate(d_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(upstream.sum(axis=0))

    out = nn_core._node(out_data, parents, backward)
    return out


def densify_bev(features: Tensor, coords: np.ndarray, shape, batch_size: int) -> Tensor:
    """Stack the remaining z levels into channels: (B, C * nz, ny, nx)."""
    nx, ny, nz = shape
    _, c = features.shape
    dense_shape = (batch_size, c * nz, ny, nx)
    out_data = np.zeros((batch_size, nz, c, ny, nx), features.data.dtype)
    flat = out_data.reshape(batch_size * nz, c, ny * nx)
    b_z, yx = np.divmod(site_keys(coords[:, 1:], shape, coords[:, 0]), ny * nx)
    flat[b_z, :, yx] = features.data
    return nn_core._unary(features, out_data.reshape(dense_shape),
                          lambda g: g.reshape(batch_size * nz, c, ny * nx)[b_z, :, yx])


# -- VFE blocks -----------------------------------------------------------------


@dataclass(frozen=True)
class VfeBlockSpec:
    in_channels: int
    out_channels: int
    n_submanifold: int
    stride_xy: int

    def __post_init__(self):
        if self.in_channels <= 0 or self.out_channels <= 0:
            raise ValueError(f"channels must be positive: {self}")
        if self.stride_xy not in (1, 2):
            raise ValueError(f"stride_xy must be 1 or 2: {self}")
        if self.n_submanifold < 0:
            raise ValueError(f"n_submanifold must be >= 0: {self}")


DEFAULT_BLOCKS = (
    VfeBlockSpec(4, 16, 2, 2),
    VfeBlockSpec(16, 32, 2, 2),
    VfeBlockSpec(32, 64, 3, 2),
    VfeBlockSpec(64, 64, 3, 1),
)


def block_shapes(grid_shape, blocks) -> list[tuple[tuple, tuple, tuple]]:
    """Per block, the strided layer's (kernel, stride, output extent).

    x/y downsample by ``stride_xy`` and z always halves; a stride-2 kernel
    stretches to 3 on an odd extent so boundary sites still contribute.
    Raises when one block's output channels are not the next one's input.
    """
    for prev, nxt in zip(blocks, blocks[1:]):
        if prev.out_channels != nxt.in_channels:
            raise ValueError(f"channel mismatch between blocks: {prev} -> {nxt}")
    schedule = []
    shape = tuple(int(n) for n in grid_shape)
    for spec in blocks:
        stride = (spec.stride_xy, spec.stride_xy, 2)
        kernel = tuple(
            1 if s == 1 else (s if n % s == 0 else s + 1) for n, s in zip(shape, stride)
        )
        shape = tuple(max(1, (n - k) // s + 1) for n, k, s in zip(shape, kernel, stride))
        schedule.append((kernel, stride, shape))
    return schedule


def bev_map_shape(grid_shape, blocks) -> tuple[int, int, int]:
    """(channels, height=y cells, width=x cells) of the encoder's BEV map."""
    nx, ny, nz = block_shapes(grid_shape, blocks)[-1][2]
    return (blocks[-1].out_channels * nz, ny, nx)


class SparseConv3d(Module):
    """One bias-free sparse convolution layer; rulebooks are supplied at call time."""

    def __init__(self, in_channels: int, out_channels: int, kernel, rng):
        super().__init__()
        self.kernel = _as_triple(kernel)
        n_off = int(np.prod(self.kernel))
        fan_in = in_channels * n_off
        self.weight = self.register_parameter(
            "weight", he_normal(rng, (n_off, in_channels, out_channels), fan_in)
        )

    def forward(self, features: Tensor, rulebook: Rulebook) -> Tensor:
        return sparse_conv_op(features, self.weight, None, rulebook)


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
    one strided layer on the schedule of :func:`block_shapes`.
    """

    def __init__(self, grid_shape, blocks=DEFAULT_BLOCKS, seed: int = 0):
        super().__init__()
        self.grid_shape = tuple(int(s) for s in grid_shape)
        self.blocks = tuple(blocks)
        self._shape_schedule = block_shapes(self.grid_shape, self.blocks)
        rng = np.random.default_rng(seed)
        for bi, spec in enumerate(self.blocks):
            ch = spec.in_channels
            for li in range(spec.n_submanifold):
                conv = SparseConv3d(ch, spec.out_channels, 3, rng)
                self.add_module(f"block{bi}.subm{li}", conv)
                self.add_module(f"block{bi}.subm{li}.norm", BatchNorm(spec.out_channels))
                ch = spec.out_channels
            kernel = self._shape_schedule[bi][0]
            conv = SparseConv3d(ch, spec.out_channels, kernel, rng)
            self.add_module(f"block{bi}.down", conv)
            self.add_module(f"block{bi}.down.norm", BatchNorm(spec.out_channels))

    @property
    def bev_shape(self) -> tuple[int, int, int]:
        """(channels, height=y cells, width=x cells) of the output map."""
        return bev_map_shape(self.grid_shape, self.blocks)

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
        for kernel, stride, _ in self._shape_schedule:
            subm_rb, _, _ = build_rulebook(coords, shape, 3, 1, "submanifold")
            strided_rb, coords, shape = build_rulebook(coords, shape, kernel, stride, "strided")
            plans.append(_BlockPlan(subm_rb, strided_rb))
        return VfePlan(
            batch_size=len(grids),
            init_features=feats,
            blocks=plans,
            final_coords=coords,
            final_shape=shape,
        )

    def forward(self, plan: VfePlan) -> Tensor:
        """BEV map of the plan's grids in ``_FEATURE_DTYPE``.

        The dense layers downstream follow the dtype of this map.
        """
        c, h, w = self.bev_shape
        if plan.empty:
            return Tensor(np.zeros((plan.batch_size, c, h, w), _FEATURE_DTYPE))
        x = Tensor(plan.init_features.astype(_FEATURE_DTYPE, copy=False))
        for bi, spec in enumerate(self.blocks):
            bp = plan.blocks[bi]
            for li in range(spec.n_submanifold):
                x = self._conv_bn_relu(f"block{bi}.subm{li}", x, bp.subm_rulebook)
            x = self._conv_bn_relu(f"block{bi}.down", x, bp.strided_rulebook)
        return densify_bev(x, plan.final_coords, plan.final_shape, plan.batch_size)

    def _conv_bn_relu(self, name: str, x: Tensor, rulebook: Rulebook) -> Tensor:
        """``relu(norm(conv(x)))`` of bias-free layer ``name``: one graph node in
        training (:func:`nn_core._norm_unit`); eval mode folds the norm in."""
        conv, norm = self._children[name], self._children[name + ".norm"]
        if norm.training:
            return nn_core._norm_unit(conv(x, rulebook), norm, True)
        scale, shift = norm.fold()
        out = sparse_conv_forward(x.data, conv.weight.data * scale, shift, rulebook)
        return Tensor(np.maximum(out, 0, out=out))


def densify_grid(grid: SparseVoxelGrid) -> np.ndarray:
    """(nx, ny, nz, channels) dense array; zero where no site exists."""
    nx, ny, nz = grid.shape
    dense = np.zeros((nx, ny, nz, grid.channels))
    dense[grid.indices[:, 0], grid.indices[:, 1], grid.indices[:, 2]] = grid.features
    return dense

