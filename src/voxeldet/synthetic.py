"""Synthetic miniature scenes for toy training, benchmarks and tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .box_geom import Box3D, overlaps_any
from .config import RunConfig
from .kitti_io import PointCloud

GROUND_Z = -1.7


@dataclass(frozen=True)
class Scene:
    cloud: PointCloud
    gt_boxes: tuple


def _car_surface_points(rng, box: Box3D, n: int) -> np.ndarray:
    """Points on the box's top and side faces, in world coordinates."""
    faces = rng.integers(0, 5, size=n)   # 0 top, 1/2 front/back, 3/4 sides
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    x = np.where(faces == 1, -0.5, np.where(faces == 2, 0.5, u))
    y = np.where(faces == 3, -0.5, np.where(faces == 4, 0.5, v))
    z = np.where(faces == 0, 0.5, rng.uniform(-0.5, 0.5, size=n))
    local = np.column_stack([x * box.l, y * box.w, z * box.h])
    c, s = np.cos(box.theta), np.sin(box.theta)
    world = np.column_stack([
        box.x + local[:, 0] * c - local[:, 1] * s,
        box.y + local[:, 0] * s + local[:, 1] * c,
        box.z + local[:, 2],
    ])
    intensity = rng.uniform(0.2, 0.9, size=n)
    return np.column_stack([world, intensity])


def make_scene(cfg: RunConfig, rng: np.random.Generator) -> Scene:
    """One miniature scene: a flat ground carpet plus 1..N separated cars."""
    x_lo, y_lo, _ = cfg.range_min
    x_hi, y_hi, _ = cfg.range_max
    margin = max(cfg.anchor_size[1], cfg.anchor_size[0]) * 0.7
    # tiny test grids: never let margins cross in the middle
    margin_x = min(margin, (x_hi - x_lo) * 0.3)
    margin_y = min(margin, (y_hi - y_lo) * 0.3)

    n_ground = cfg.toy_ground_points
    ground = np.column_stack([
        rng.uniform(x_lo, x_hi, n_ground),
        rng.uniform(y_lo, y_hi, n_ground),
        GROUND_Z + rng.normal(0.0, 0.02, n_ground),
        rng.uniform(0.05, 0.3, n_ground),
    ])

    boxes: list[Box3D] = []
    points = [ground]
    n_cars = int(rng.integers(1, cfg.toy_max_cars + 1))
    w, l, h = cfg.anchor_size
    attempts = 0
    while len(boxes) < n_cars and attempts < 40:
        attempts += 1
        cand = Box3D(
            x=rng.uniform(x_lo + margin_x, x_hi - margin_x),
            y=rng.uniform(y_lo + margin_y, y_hi - margin_y),
            z=GROUND_Z + h / 2.0,
            w=w * rng.uniform(0.95, 1.05),
            l=l * rng.uniform(0.95, 1.05),
            h=h * rng.uniform(0.95, 1.05),
            theta=rng.uniform(-np.pi, np.pi),
        )
        if overlaps_any(cand, boxes):
            continue
        boxes.append(cand)
        points.append(_car_surface_points(rng, cand, cfg.toy_car_points))

    return Scene(PointCloud(np.concatenate(points)), tuple(boxes))


def make_toy_dataset(cfg: RunConfig, n_scenes: int | None = None,
                     seed: int | None = None) -> list[Scene]:
    n = cfg.toy_scenes if n_scenes is None else n_scenes
    base = cfg.data_seed if seed is None else seed
    return [make_scene(cfg, np.random.default_rng([base, i])) for i in range(n)]


def make_benchmark_cloud(cfg: RunConfig, n_points: int = 120_000,
                         seed: int = 0) -> PointCloud:
    """A dense uniform cloud across the configured range (for timing runs)."""
    rng = np.random.default_rng(seed)
    lo = np.array(cfg.range_min)
    hi = np.array(cfg.range_max)
    xyz = lo + rng.random((n_points, 3)) * (hi - lo)
    return PointCloud(np.column_stack([xyz, rng.random(n_points)]))
