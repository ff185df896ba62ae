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
from .sparse_conv import VfeBlockSpec
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
    bev_stride: int = 8
    # semantic context encoder
    sce_channels: int = 128
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
    def bev_width(self) -> int:
        return self.grid_shape[0] // self.bev_stride

    @property
    def bev_height(self) -> int:
        return self.grid_shape[1] // self.bev_stride

    @property
    def bev_cell_size(self) -> float:
        return self.voxel_size[0] * self.bev_stride

    def blocks(self) -> tuple[VfeBlockSpec, ...]:
        return tuple(VfeBlockSpec(*b) for b in self.vfe_blocks)

    def parts(self) -> tuple[PartSpec, ...]:
        return tuple(
            PartSpec(lo, hi, kernel=k, dilation=d)
            for (lo, hi), k, d in zip(self.part_bounds, self.part_kernels, self.part_dilations)
        )

    def validate(self) -> "RunConfig":
        vox = self.voxelizer()
        nx, ny, _ = vox.grid_shape
        if nx % self.bev_stride or ny % self.bev_stride:
            raise ValueError(
                f"grid {vox.grid_shape} not divisible by bev_stride {self.bev_stride}"
            )
        if self.bev_width % 4 or self.bev_height % 4:
            raise ValueError(
                f"BEV map {self.bev_height}x{self.bev_width} must be divisible by 4 "
                "for the pyramid branch"
            )
        blocks = self.blocks()
        if blocks[0].in_channels != 4:
            raise ValueError("first block must accept the 4 voxel feature channels")
        check_coverage(self.parts(), self.bev_width)
        if not len(self.part_kernels) == len(self.part_dilations) == len(self.part_bounds):
            raise ValueError(
                f"need one kernel and one dilation per part: {len(self.part_bounds)} parts, "
                f"{len(self.part_kernels)} kernels, {len(self.part_dilations)} dilations"
            )
        if not 0.0 <= self.negative_iou <= self.positive_iou <= 1.0:
            raise ValueError(
                f"need 0 <= negative_iou <= positive_iou <= 1, got "
                f"{self.negative_iou}, {self.positive_iou}"
            )
        for name in ("score_threshold", "nms_iou", "eval_iou"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if len(self.anchor_yaws) != ANCHORS_PER_CELL:
            raise ValueError(
                f"need {ANCHORS_PER_CELL} anchor yaws, got {len(self.anchor_yaws)}"
            )
        if min(self.anchor_size) <= 0:
            raise ValueError(f"anchor size must be positive: {self.anchor_size}")
        if self.ap_mode not in ("R11", "R40"):
            raise ValueError(f"ap_mode must be R11 or R40, got {self.ap_mode!r}")
        if self.mask_kind not in ("box_type", "voxel_type"):
            raise ValueError(f"mask_kind must be box_type or voxel_type, got {self.mask_kind!r}")
        for name in ("train_steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ValueError("learning_rate must be positive, weight_decay non-negative")
        if min(self.lambda_loc, self.lambda_dir, self.lambda_seg,
               self.focal_alpha, self.focal_gamma) < 0:
            raise ValueError("loss weights must be non-negative")
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


def _fmt_floats(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def _parse_floats(s) -> tuple:
    return tuple(float(x) for x in s.split(",") if x.strip())


def _fmt_ints(v) -> str:
    return ",".join(str(int(x)) for x in v)


def _parse_ints(s) -> tuple:
    return tuple(int(x) for x in s.split(",") if x.strip())


def _fmt_groups(v) -> str:
    return ";".join(",".join(str(int(x)) for x in grp) for grp in v)


def _parse_groups(s) -> tuple:
    return tuple(tuple(int(x) for x in grp.split(",")) for grp in s.split(";") if grp.strip())


def _fmt_bool(v) -> str:
    return "true" if v else "false"


def _parse_bool(s):
    s = s.strip().lower()
    if s in ("true", "1", "yes"):
        return True
    if s in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


_CODECS = {
    tuple: None,  # resolved per-field below
    int: (str, int),
    float: (repr, float),
    bool: (_fmt_bool, _parse_bool),
    str: (str, str),
}

_TUPLE_FIELDS = {
    "range_min": (_fmt_floats, _parse_floats),
    "range_max": (_fmt_floats, _parse_floats),
    "voxel_size": (_fmt_floats, _parse_floats),
    "vfe_blocks": (_fmt_groups, _parse_groups),
    "part_bounds": (_fmt_groups, _parse_groups),
    "part_kernels": (_fmt_ints, _parse_ints),
    "part_dilations": (_fmt_ints, _parse_ints),
    "anchor_size": (_fmt_floats, _parse_floats),
    "anchor_yaws": (_fmt_floats, _parse_floats),
}


def _codec_for(f):
    if f.name in _TUPLE_FIELDS:
        return _TUPLE_FIELDS[f.name]
    return _CODECS[f.type if isinstance(f.type, type) else type(f.default)]


def dump_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        fmt, _ = _codec_for(f)
        lines.append(f"{f.name} = {fmt(getattr(cfg, f.name))}")
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
        _, parse = _codec_for(known[key])
        try:
            overrides[key] = parse(value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {exc}") from exc
    cfg = replace(base or RunConfig(), **overrides)
    return cfg.validate()


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    with open(path, "r") as f:
        return parse_config(f.read(), base)
