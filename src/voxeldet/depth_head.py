"""Depth-aware detection head: overlapping x-axis parts with distinct kernels.

The fused BEV feature map (width axis = forward x) is split into parts,
each with its own two-layer convolution tower (kernel size and dilation per
part) and three sibling 1x1 heads: class logits (2 anchors per cell), box
residuals (7 per anchor) and direction logits (2 per anchor). Anchor ``a``
owns class channel ``a``, box channels ``7a .. 7a+6`` and direction channels
``2a, 2a+1``, so the box map reshapes to (B, A, 7, H, W) and the direction
map to (B, A, 2, H, W); anchor rows of ``box_geom.build_anchor_grid`` follow
the same (iy, ix, a) order. At inference the per-part class scores are fused
by taking the highest sigmoid score at each cell; box and direction values
follow the winning part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn_core
from .nn_core import BatchNorm, Conv2d, ConvSpec, Module, Tensor

ANCHORS_PER_CELL = 2
BOX_CHANNELS = 7 * ANCHORS_PER_CELL
DIR_CHANNELS = 2 * ANCHORS_PER_CELL


@dataclass(frozen=True)
class PartSpec:
    """Half-open x-cell interval [lo, hi) with the tower's kernel and dilation."""

    lo: int
    hi: int
    kernel: int = 3
    dilation: int = 1

    def __post_init__(self):
        if self.hi <= self.lo:
            raise ValueError(f"empty part interval {self}")
        if (self.kernel - 1) * self.dilation % 2 != 0:
            raise ValueError(f"kernel/dilation cannot preserve shape: {self}")

    @property
    def width(self) -> int:
        return self.hi - self.lo

    @property
    def padding(self) -> int:
        return (self.kernel - 1) * self.dilation // 2


DEFAULT_PARTS = (
    PartSpec(0, 72, kernel=1, dilation=1),
    PartSpec(52, 124, kernel=3, dilation=1),
    PartSpec(104, 176, kernel=3, dilation=2),
)


def check_coverage(parts, width: int):
    """Every cell in [0, width) must fall into at least one part."""
    covered = np.zeros(width, dtype=int)
    for p in parts:
        if p.lo < 0 or p.hi > width:
            raise ValueError(f"part {p} outside map width {width}")
        covered[p.lo : p.hi] += 1
    if (covered == 0).any():
        gap = int(np.flatnonzero(covered == 0)[0])
        raise ValueError(f"cell x={gap} covered by no part")
    return covered


def split_parts(feature_map: Tensor, parts) -> list[Tensor]:
    """Slice the map along the width (x) axis, one slice per part."""
    width = feature_map.shape[3]
    check_coverage(parts, width)
    return [nn_core.narrow(feature_map, 3, p.lo, p.width) for p in parts]


@dataclass
class PartOutput:
    cls_logits: Tensor   # (B, 2, H, Wp)
    box: Tensor          # (B, 14, H, Wp)
    dir_logits: Tensor   # (B, 4, H, Wp)


# the class heads start at a 1% foreground prior (focal-loss companion init),
# so the first steps are not dominated by the sea of negatives
CLASS_PRIOR = 0.01


class PartTower(Module):
    """Two convolutions at the part's kernel/dilation, then the three heads."""

    def __init__(self, spec: PartSpec, rng, in_channels: int = 256, mid_channels: int = 128):
        super().__init__()
        self.spec = spec
        conv = lambda ci, co: Conv2d(
            ConvSpec(ci, co, spec.kernel, padding=spec.padding, dilation=spec.dilation,
                     bias=False),
            rng,
        )
        self.conv1 = conv(in_channels, mid_channels)
        self.norm1 = BatchNorm(mid_channels)
        self.conv2 = conv(mid_channels, mid_channels)
        self.norm2 = BatchNorm(mid_channels)
        self.cls_head = Conv2d(ConvSpec(mid_channels, ANCHORS_PER_CELL, 1), rng)
        self.box_head = Conv2d(ConvSpec(mid_channels, BOX_CHANNELS, 1), rng)
        self.dir_head = Conv2d(ConvSpec(mid_channels, DIR_CHANNELS, 1), rng)
        for head in (self.cls_head, self.box_head, self.dir_head):
            head.weight.data[:] = rng.normal(0.0, 0.01, size=head.weight.shape)
        self.cls_head.bias.data[:] = -np.log((1.0 - CLASS_PRIOR) / CLASS_PRIOR)

    def forward(self, part_slice: Tensor) -> PartOutput:
        x = nn_core.conv_bn(part_slice, self.conv1, self.norm1)
        x = nn_core.conv_bn(x, self.conv2, self.norm2)
        return PartOutput(self.cls_head(x), self.box_head(x), self.dir_head(x))


class DepthAwareHead(Module):
    def __init__(self, parts=DEFAULT_PARTS, map_width: int = 176, in_channels: int = 256,
                 mid_channels: int = 128, seed: int = 0):
        super().__init__()
        self.parts = tuple(parts)
        self.map_width = map_width
        check_coverage(self.parts, map_width)
        rng = np.random.default_rng(seed)
        for i, spec in enumerate(self.parts):
            self.add_module(f"part{i}", PartTower(spec, rng, in_channels, mid_channels))

    def forward(self, feature_map: Tensor) -> list[PartOutput]:
        if feature_map.shape[3] != self.map_width:
            raise ValueError(
                f"map width {feature_map.shape[3]} != configured {self.map_width}"
            )
        slices = split_parts(feature_map, self.parts)
        return [self._children[f"part{i}"](s) for i, s in enumerate(slices)]


@dataclass
class FusedOutput:
    """Full-width maps after cross-part max fusion (plain arrays, inference only).

    The arrays keep the dtype of the part outputs.
    """

    scores: np.ndarray       # (B, 2, H, W) fused class scores after the sigmoid
    box: np.ndarray          # (B, 14, H, W) residuals from the winning part
    dir_logits: np.ndarray   # (B, 4, H, W)


def fuse_scores(part_outputs, parts, map_width: int) -> FusedOutput:
    """Per cell and anchor, keep the highest part score; ties pick the lower index.

    Each part's maps are placed at its x-range in one part-stacked array per
    output (scores (P, B, A, H, W), box (P, B, A, 7, H, W), direction
    (P, B, A, 2, H, W), -inf scores outside the part). One argmax over the
    part axis picks the winner, and box and direction values are gathered
    from it for the same anchor.
    """
    check_coverage(parts, map_width)
    first = part_outputs[0].cls_logits.data
    b, a, h, _ = first.shape
    scores = np.full((len(parts), b, a, h, map_width), -np.inf, first.dtype)
    box = np.zeros((len(parts), b, a, 7, h, map_width), first.dtype)
    dirs = np.zeros((len(parts), b, a, 2, h, map_width), first.dtype)
    for pi, (spec, out) in enumerate(zip(parts, part_outputs)):
        scores[pi, ..., spec.lo : spec.hi] = nn_core.sigmoid(out.cls_logits.data).data
        box[pi, ..., spec.lo : spec.hi] = out.box.data.reshape(b, a, 7, h, spec.width)
        dirs[pi, ..., spec.lo : spec.hi] = out.dir_logits.data.reshape(b, a, 2, h, spec.width)
    part_index = scores.argmax(axis=0)           # first max wins ties
    win = part_index[None, :, :, None]
    return FusedOutput(
        np.take_along_axis(scores, part_index[None], axis=0)[0],
        np.take_along_axis(box, win, axis=0)[0].reshape(b, BOX_CHANNELS, h, map_width),
        np.take_along_axis(dirs, win, axis=0)[0].reshape(b, DIR_CHANNELS, h, map_width),
    )
