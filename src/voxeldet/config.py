"""Run configuration: every tunable, loadable from a key=value text file.

Unknown keys are rejected; values are validated against the module
preconditions they feed (grid divisibility, part coverage, threshold
ranges). ``dump_config(load_config(p)) == dump_config(defaults)`` holds for
a dumped-defaults file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .depth_head import ANCHORS_PER_CELL, PartSpec, check_coverage
from .sparse_conv import VfeBlockSpec, bev_map_shape
from .voxel_grid import VoxelizerConfig


@dataclass
class RunConfig:
    # voxelization
    range_min: tuple = (0.0, -40.0, -3.0)
    range_max: tuple = (70.4, 40.0, 1.0)
    voxel_size: tuple = (0.05, 0.05, 0.1)
    max_points_per_voxel: int = 5
    # VFE blocks: in, out, submanifold layers, x/y stride
    vfe_blocks: tuple = ((4, 16, 2, 2), (16, 32, 2, 2), (32, 64, 3, 2), (64, 64, 3, 1))
    # semantic context encoder
    mask_kind: str = "box_type"
    # depth-aware head: x-cell intervals with kernel/dilation per part
    part_bounds: tuple = ((0, 72), (52, 124), (104, 176))
    part_kernels: tuple = (1, 3, 3)
    part_dilations: tuple = (1, 1, 2)
    head_mid_channels: int = 128
    # anchors
    anchor_size: tuple = (1.6, 3.9, 1.56)
    anchor_z: float = -1.0
    anchor_yaws: tuple = (0.0, float(np.pi / 2))
    # target assignment
    positive_iou: float = 0.6
    negative_iou: float = 0.45
    # losses
    lambda_loc: float = 2.0
    lambda_dir: float = 0.2
    lambda_seg: float = 0.5
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    # inference
    score_threshold: float = 0.3
    nms_iou: float = 0.05
    pre_nms_top_k: int = 1000
    # optimization
    learning_rate: float = 2.25e-4
    weight_decay: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    train_steps: int = 200
    batch_size: int = 4
    # augmentation
    aug_max_samples: int = 4
    aug_translation_var: float = 0.25
    aug_box_yaw: bool = True
    aug_box_yaw_range: float = float(np.pi / 4)
    aug_global_rotation: bool = True
    ransac_iterations: int = 100
    ransac_inlier_tol: float = 0.1
    # evaluation
    eval_iou: float = 0.7
    ap_mode: str = "R11"
    # synthetic toy data
    toy_scenes: int = 20
    toy_ground_points: int = 500
    toy_car_points: int = 140
    toy_max_cars: int = 3
    # seeds
    seed: int = 0
    model_seed: int = 0
    data_seed: int = 0

    # -- derived views ---------------------------------------------------------

    def voxelizer(self) -> VoxelizerConfig:
        return VoxelizerConfig(
            range_min=tuple(self.range_min),
            range_max=tuple(self.range_max),
            voxel_size=tuple(self.voxel_size),
            max_points_per_voxel=self.max_points_per_voxel,
            seed=self.seed,
        )

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return self.voxelizer().grid_shape

    @property
    def bev_stride(self) -> int:
        """Voxels per BEV cell along x and y: the product of the blocks' ``stride_xy``."""
        return int(np.prod([b.stride_xy for b in self.blocks()]))

    @property
    def bev_height(self) -> int:
        return bev_map_shape(self.grid_shape, self.blocks())[1]

    @property
    def bev_width(self) -> int:
        return bev_map_shape(self.grid_shape, self.blocks())[2]

    @property
    def bev_cell_size(self) -> tuple[float, float]:
        """(x, y) extent of one BEV cell in metres."""
        return tuple(v * self.bev_stride for v in self.voxel_size[:2])

    def blocks(self) -> tuple[VfeBlockSpec, ...]:
        return tuple(VfeBlockSpec(*b) for b in self.vfe_blocks)

    def parts(self) -> tuple[PartSpec, ...]:
        return tuple(
            PartSpec(lo, hi, kernel=k, dilation=d)
            for (lo, hi), k, d in zip(self.part_bounds, self.part_kernels, self.part_dilations)
        )

    def validate(self) -> "RunConfig":
        for f in fields(self):
            if isinstance(f.default, float) and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("range_min", "range_max", "voxel_size", "anchor_size"):
            values = getattr(self, name)
            if len(values) != 3 or not np.isfinite(values).all():
                raise ValueError(f"{name} needs 3 finite values, got {values}")
        for name, size in (("vfe_blocks", 4), ("part_bounds", 2)):
            for group in getattr(self, name):
                if len(group) != size:
                    raise ValueError(f"each {name} group needs {size} values, got {group}")
        for low, names in ((1, ("train_steps", "batch_size", "pre_nms_top_k", "head_mid_channels",
                                "toy_scenes", "toy_max_cars", "ransac_iterations")),
                           (0, ("weight_decay", "aug_max_samples", "toy_ground_points",
                                "toy_car_points", "lambda_loc", "lambda_dir", "lambda_seg",
                                "focal_gamma", "aug_translation_var", "aug_box_yaw_range",
                                "seed", "model_seed", "data_seed"))):
            for name in names:
                if getattr(self, name) < low:
                    raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not len(self.part_kernels) == len(self.part_dilations) == len(self.part_bounds):
            raise ValueError(
                f"need one kernel and one dilation per part: {len(self.part_bounds)} parts, "
                f"{len(self.part_kernels)} kernels, {len(self.part_dilations)} dilations"
            )
        for name in ("part_kernels", "part_dilations"):
            if any(v < 1 for v in getattr(self, name)):
                raise ValueError(f"every {name} element must be >= 1, got {getattr(self, name)}")
        blocks = self.blocks()
        if not blocks or blocks[0].in_channels != 4:
            raise ValueError("first block must accept the 4 voxel feature channels")
        grid = self.grid_shape
        nx, ny, _ = grid
        _, height, width = bev_map_shape(grid, blocks)
        if nx % self.bev_stride or ny % self.bev_stride:
            raise ValueError(f"grid {grid} not divisible by the BEV stride {self.bev_stride}")
        if width % 4 or height % 4:
            raise ValueError(
                f"BEV map {height}x{width} must be divisible by 4 for the pyramid branch"
            )
        check_coverage(self.parts(), width)
        if not 0.0 <= self.negative_iou <= self.positive_iou <= 1.0:
            raise ValueError(
                f"need 0 <= negative_iou <= positive_iou <= 1, got "
                f"{self.negative_iou}, {self.positive_iou}"
            )
        for name in ("score_threshold", "nms_iou", "eval_iou", "focal_alpha"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if len(self.anchor_yaws) != ANCHORS_PER_CELL:
            raise ValueError(
                f"need {ANCHORS_PER_CELL} anchor yaws, got {len(self.anchor_yaws)}"
            )
        if not np.isfinite(self.anchor_yaws).all():
            raise ValueError(f"anchor_yaws must be finite, got {self.anchor_yaws}")
        if min(self.anchor_size) <= 0:
            raise ValueError(f"anchor size must be positive: {self.anchor_size}")
        if self.ap_mode not in ("R11", "R40"):
            raise ValueError(f"ap_mode must be R11 or R40, got {self.ap_mode!r}")
        if self.mask_kind not in ("box_type", "voxel_type"):
            raise ValueError(f"mask_kind must be box_type or voxel_type, got {self.mask_kind!r}")
        for name in ("learning_rate", "ransac_inlier_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        return self


def toy_config(**overrides) -> RunConfig:
    """Reduced-extent grid (24x24 BEV cells) with the same code paths."""
    kwargs = dict(
        range_min=(0.0, -4.8, -3.0),
        range_max=(9.6, 4.8, 1.0),
        part_bounds=((0, 10), (7, 17), (14, 24)),
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs).validate()


# -- text format ---------------------------------------------------------------


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _format(value) -> str:
    """A value as config text: ``;`` between groups, ``,`` between list elements."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        sep = ";" if value and isinstance(value[0], tuple) else ","
        return sep.join(_format(v) for v in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


def _parse(text: str, default):
    """Config text in the shape of the field's default.

    The default is a bool, int, float or str, a tuple of one of these (a
    ``,`` list, empty elements skipped), or a tuple of tuples (``;`` groups of
    ``,`` elements, where an empty element is an error).
    """
    if isinstance(default, bool):
        word = text.strip().lower()
        if word not in _BOOLS:
            raise ValueError(f"not a boolean: {word!r}")
        return _BOOLS[word]
    if isinstance(default, tuple) and isinstance(default[0], tuple):
        kind = type(default[0][0])
        return tuple(tuple(kind(x) for x in grp.split(",")) for grp in text.split(";")
                     if grp.strip())
    if isinstance(default, tuple):
        return tuple(type(default[0])(x) for x in text.split(",") if x.strip())
    return type(default)(text)


def dump_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        lines.append(f"{f.name} = {_format(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    known = {f.name: f for f in fields(RunConfig)}
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = _parse(value, known[key].default)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {exc}") from exc
    cfg = replace(base or RunConfig(), **overrides)
    return cfg.validate()


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    with open(path, "r") as f:
        return parse_config(f.read(), base)
