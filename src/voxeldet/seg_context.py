"""Semantic context encoder: BEV masks, two branches, and re-weight fusion.

Ground-truth masks live on the grid of the voxel encoder's BEV map: one cell
per ``bev_stride`` x ``bev_stride`` voxel columns, where ``bev_stride`` is the
product of the encoder blocks' x/y strides (``RunConfig.bev_stride``). The
segmentation branch is a small feature pyramid that predicts a per-cell
foreground probability map M; the detection branch is a shallow U-Net, and
the encoder concatenates its output U with its input; the fusion scales each
feature of that concat by (1 + M). Only the segmentation loss L_S trains M:
the encoder fuses a detached copy of M.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import nn_core
from .box_geom import points_in_bev_rect
from .nn_core import BatchNorm, Conv2d, ConvSpec, Module, Tensor
from .voxel_grid import SparseVoxelGrid, VoxelizerConfig


class MaskKind(enum.Enum):
    VOXEL_TYPE = "voxel_type"
    BOX_TYPE = "box_type"


@dataclass(frozen=True)
class SemanticMask:
    """Per-BEV-cell foreground labels."""

    labels: np.ndarray                    # (h, w) bool

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=bool))


def _foreground_voxel_columns(indices_xy: np.ndarray, cfg: VoxelizerConfig,
                              gt_boxes) -> np.ndarray:
    """Which of the given voxel columns have centers inside some box."""
    if len(indices_xy) == 0:
        return np.zeros(0, dtype=bool)
    centers = np.array(cfg.range_min[:2]) + (indices_xy + 0.5) * np.array(cfg.voxel_size[:2])
    fg = np.zeros(len(indices_xy), dtype=bool)
    for box in gt_boxes:
        fg |= points_in_bev_rect(centers, box)
    return fg


def make_mask(grid: SparseVoxelGrid, gt_boxes, kind: MaskKind, cfg: VoxelizerConfig,
              bev_stride: int = 8) -> SemanticMask:
    """Rasterize ground-truth boxes into a BEV foreground mask.

    Box-type marks a cell when any of its voxel centers falls inside a box;
    voxel-type additionally requires that voxel to be non-empty, so its
    foreground is always a subset of the box-type foreground.
    """
    nx, ny, _ = grid.shape
    h, w = ny // bev_stride, nx // bev_stride
    labels = np.zeros((h, w), dtype=bool)
    if not gt_boxes:
        return SemanticMask(labels)

    if kind is MaskKind.VOXEL_TYPE:
        cols = np.unique(grid.indices[:, :2], axis=0) if grid.num_sites else np.empty((0, 2), np.int64)
    elif kind is MaskKind.BOX_TYPE:
        # a column centre inside a box lies in that box's window
        windows = [np.empty((0, 2), np.int64)]
        vx, vy = cfg.voxel_size[0], cfg.voxel_size[1]
        x0, y0 = cfg.range_min[0], cfg.range_min[1]
        for box in gt_boxes:
            b = box.as_array()
            r = 0.5 * np.hypot(b[3], b[4])
            ix_lo = max(0, int(np.floor((b[0] - r - x0) / vx)))
            ix_hi = min(nx, int(np.ceil((b[0] + r - x0) / vx)) + 1)
            iy_lo = max(0, int(np.floor((b[1] - r - y0) / vy)))
            iy_hi = min(ny, int(np.ceil((b[1] + r - y0) / vy)) + 1)
            gx, gy = np.meshgrid(np.arange(ix_lo, ix_hi), np.arange(iy_lo, iy_hi), indexing="ij")
            windows.append(np.column_stack([gx.ravel(), gy.ravel()]))
        cols = np.concatenate(windows)
    else:
        raise ValueError(f"unknown mask kind {kind!r}")

    cells = cols[_foreground_voxel_columns(cols, cfg, gt_boxes)] // bev_stride
    cells = cells[(cells[:, 0] < w) & (cells[:, 1] < h)]
    labels[cells[:, 1], cells[:, 0]] = True
    return SemanticMask(labels)


# -- network branches --------------------------------------------------------------


class ResidualBlock(Module):
    """Two 3x3 convolutions with batch norm and an additive skip.

    In eval mode the skip is added and the ReLU run in place on the second
    conv's fresh output, so the block makes no map beyond its two conv
    outputs; the input is never written. The bits equal those of
    ``relu(x + y)``, which training records.
    """

    def __init__(self, channels: int, rng):
        super().__init__()
        self.conv1 = Conv2d(ConvSpec(channels, channels, 3, padding=1, bias=False), rng)
        self.norm1 = BatchNorm(channels)
        self.conv2 = Conv2d(ConvSpec(channels, channels, 3, padding=1, bias=False), rng)
        self.norm2 = BatchNorm(channels)

    def forward(self, x: Tensor) -> Tensor:
        y = nn_core.conv_bn(x, self.conv1, self.norm1)
        y = nn_core.conv_bn(y, self.conv2, self.norm2, with_relu=False)
        if self.training:
            return nn_core.relu(x + y)
        np.add(y.data, x.data, out=y.data)
        np.maximum(y.data, 0.0, out=y.data)
        return y


def _merge(fine: Tensor, coarse: Tensor, training: bool) -> Tensor:
    """``fine + upsample_nearest2(coarse)``. Outside ``training`` (eval mode,
    which records no graph) ``fine`` is added into the fresh upsampled map."""
    up = nn_core.upsample_nearest2(coarse)
    if training:
        return fine + up
    np.add(up.data, fine.data, out=up.data)
    return up


# the mask head starts at the foreground base rate, so early steps discriminate
# instead of deflating the map wholesale
MASK_PRIOR = 0.15


class SegmentationBranch(Module):
    """Feature pyramid over the BEV map ending in a sigmoid probability head.

    Residual blocks sit at full, 1/2 and 1/4 scale (two maxpools down, two
    nearest-neighbor upsamples back); two 3x3 fusion convolutions merge the
    scales before the 1x1 head. Each merge adds a finer map to an upsampled
    coarse one; in eval mode it adds in place into the fresh upsampled map.
    """

    def __init__(self, channels: int = 128, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.channels = channels
        self.res_full = ResidualBlock(channels, rng)
        self.res_half_a = ResidualBlock(channels, rng)
        self.res_half_b = ResidualBlock(channels, rng)
        self.res_quarter_a = ResidualBlock(channels, rng)
        self.res_quarter_b = ResidualBlock(channels, rng)
        self.fuse_half = Conv2d(ConvSpec(channels, channels, 3, padding=1, bias=False), rng)
        self.fuse_half_norm = BatchNorm(channels)
        self.fuse_full = Conv2d(ConvSpec(channels, channels, 3, padding=1, bias=False), rng)
        self.fuse_full_norm = BatchNorm(channels)
        self.head = Conv2d(ConvSpec(channels, 1, 1), rng)
        self.head.weight.data[:] = rng.normal(0.0, 0.01, size=self.head.weight.shape)
        self.head.bias.data[:] = -np.log((1.0 - MASK_PRIOR) / MASK_PRIOR)

    def forward(self, bev: Tensor) -> Tensor:
        _, c, h, w = bev.shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        if h % 4 or w % 4:
            raise ValueError(f"spatial dims must be multiples of 4, got {(h, w)}")
        full = self.res_full(bev)
        half = self.res_half_b(self.res_half_a(nn_core.maxpool2(full)))
        quarter = self.res_quarter_b(self.res_quarter_a(nn_core.maxpool2(half)))
        merged_half = nn_core.conv_bn(_merge(half, quarter, self.training), self.fuse_half,
                                      self.fuse_half_norm)
        merged_full = nn_core.conv_bn(_merge(full, merged_half, self.training), self.fuse_full,
                                      self.fuse_full_norm)
        return nn_core.sigmoid(self.head(merged_full))


class DetectionBranch(Module):
    """Shallow U-Net, C channels in and out: stride-2 descent, upsample back.

    The upsample and the last conv run as one ``conv_bn(..., upsample=True)``,
    which eval mode computes as sub-pixel convs of the half-resolution map.
    """

    def __init__(self, channels: int = 128, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.channels = channels
        self.down = Conv2d(ConvSpec(channels, channels, 3, stride=2, padding=1, bias=False), rng)
        self.down_norm = BatchNorm(channels)
        self.mid = Conv2d(ConvSpec(channels, channels, 3, padding=1, bias=False), rng)
        self.mid_norm = BatchNorm(channels)
        self.up = Conv2d(ConvSpec(channels, channels, 3, padding=1, bias=False), rng)
        self.up_norm = BatchNorm(channels)

    def forward(self, bev: Tensor) -> Tensor:
        _, c, h, w = bev.shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        if h % 2 or w % 2:
            raise ValueError(f"spatial dims must be even, got {(h, w)}")
        x = nn_core.conv_bn(bev, self.down, self.down_norm)
        x = nn_core.conv_bn(x, self.mid, self.mid_norm)
        return nn_core.conv_bn(x, self.up, self.up_norm, upsample=True)


def fuse(features: Tensor, probability: Tensor) -> Tensor:
    """Re-weight detection features by the segmentation probability map."""
    if features.shape[2:] != probability.shape[2:] or features.shape[0] != probability.shape[0]:
        raise ValueError(
            f"spatial/batch mismatch: features {features.shape}, probability {probability.shape}"
        )
    return (1.0 + probability) * features


def seg_loss(probability: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over all cells, with each probability clamped."""
    y = np.asarray(labels, dtype=np.float64).reshape(probability.shape)
    p = nn_core.clamp(probability, 1e-7, 1.0 - 1e-7)
    y_t = Tensor(y)
    losses = -(y_t * nn_core.log(p) + (1.0 - y_t) * nn_core.log(1.0 - p))
    return losses.mean()


class SemanticContextEncoder(Module):
    """Both branches plus the re-weight fusion, O channels in, 2*O out.

    M enters the fusion detached, so the detection losses train the
    detection branch through R but never reach the segmentation branch;
    only L_S, applied to the returned M, trains it. Without the detach the
    detection gradient on the segmentation branch outweighs the L_S
    gradient several times over and M stops being a foreground mask.

    In eval mode, which records no graph, R is written straight into one
    (B, 2·O, H, W) array, (1 + M)·bev into the first O channels and
    (1 + M)·U into the rest, for the detection U-Net's output U; no
    concatenated map is built and ``bev`` is never written. The bits equal
    those of ``fuse(concat([bev, U]), M)``, which training records.
    """

    def __init__(self, channels: int = 128, seed: int = 0):
        super().__init__()
        self.segmentation = SegmentationBranch(channels, seed=seed)
        self.detection = DetectionBranch(channels, seed=seed + 1)

    @property
    def out_channels(self) -> int:
        return 2 * self.detection.channels

    def forward(self, bev: Tensor) -> tuple[Tensor, Tensor]:
        """Returns (fused feature map R, probability map M)."""
        m = self.segmentation(bev)
        u = self.detection(bev)
        if self.training:
            return fuse(nn_core.concat([bev, u]), m.detach()), m
        c = bev.shape[1]
        weight = 1.0 + m.data
        r = np.empty((bev.shape[0], 2 * c) + bev.shape[2:], bev.data.dtype)
        np.multiply(weight, bev.data, out=r[:, :c])
        np.multiply(weight, u.data, out=r[:, c:])
        return Tensor(r), m
