"""Ground-plane fitting and ground-truth-sampling scene augmentation.

The plane comes from seeded RANSAC over 3-point samples refined by a least
squares fit on the inliers. Sampled (box, points) pairs from other scenes
are dropped onto the plane at their stored x/y pose, rejected on any BEV
overlap with existing boxes; every ground-truth box is then jittered and
the whole scene rotated about z.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .box_geom import Box3D, overlaps_any, points_in_box3d, wrap_angle
from .config import RunConfig
from .kitti_io import PointCloud
from .synthetic import Scene


@dataclass(frozen=True)
class GroundPlane:
    """a*x + b*y + c*z + d = 0 with a unit, upward-pointing normal."""

    normal: tuple[float, float, float]
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64)
        norm = np.linalg.norm(n)
        if not np.isfinite(norm) or norm < 1e-12:
            raise ValueError("degenerate plane normal")
        n = n / norm
        d = float(self.offset) / norm
        if n[2] < 0:
            n, d = -n, -d
        if n[2] <= 0:
            raise ValueError("plane normal must have an upward component")
        object.__setattr__(self, "normal", tuple(n))
        object.__setattr__(self, "offset", d)

    def height_at(self, x, y):
        a, b, c = self.normal
        return -(a * np.asarray(x) + b * np.asarray(y) + self.offset) / c


def _plane_from_points(p0, p1, p2):
    n = np.cross(p1 - p0, p2 - p0)
    norm = np.linalg.norm(n)
    if norm < 1e-12:
        return None
    n = n / norm
    return n, float(-n @ p0)


def _least_squares_plane(xyz: np.ndarray):
    centroid = xyz.mean(axis=0)
    _, _, vt = np.linalg.svd(xyz - centroid, full_matrices=False)
    n = vt[-1]
    return n, float(-n @ centroid)


def fit_ground_plane(cloud: PointCloud, iterations: int = 100,
                     inlier_tol: float = 0.1, seed: int = 0) -> GroundPlane:
    """Seeded RANSAC plane fit, refined by least squares over the inliers."""
    xyz = cloud.xyz
    n_pts = len(xyz)
    if n_pts < 3:
        raise ValueError(f"plane fit needs at least 3 points, got {n_pts}")
    rng = np.random.default_rng(seed)
    best_count, best = -1, None
    for _ in range(iterations):
        i, j, k = rng.choice(n_pts, size=3, replace=False)
        cand = _plane_from_points(xyz[i], xyz[j], xyz[k])
        if cand is None:
            continue
        n, d = cand
        count = int(np.count_nonzero(np.abs(xyz @ n + d) <= inlier_tol))
        if count > best_count:
            best_count, best = count, (n, d)
    if best is None:
        raise ValueError("all RANSAC samples were collinear")
    n, d = best
    inliers = xyz[np.abs(xyz @ n + d) <= inlier_tol]
    if len(inliers) >= 3:
        n, d = _least_squares_plane(inliers)
    return GroundPlane(tuple(n), d)


# -- ground-truth database -----------------------------------------------------


@dataclass(frozen=True)
class GtSample:
    box: Box3D
    points: np.ndarray   # (n, 4) world coordinates at the stored pose

    def __post_init__(self):
        object.__setattr__(self, "points",
                           np.asarray(self.points, dtype=np.float64).reshape(-1, 4))


def build_gt_database(scenes) -> list[GtSample]:
    """Crop every ground-truth box (with its interior points) out of the scenes."""
    samples = []
    for scene in scenes:
        pts = scene.cloud.points
        for box in scene.gt_boxes:
            inside = points_in_box3d(pts[:, :3], box)
            samples.append(GtSample(box, pts[inside]))
    return samples


# -- augmentation ---------------------------------------------------------------


def _rotate_z(points_xy: np.ndarray, angle: float, center=(0.0, 0.0)) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    dx = points_xy[:, 0] - center[0]
    dy = points_xy[:, 1] - center[1]
    return np.column_stack([center[0] + c * dx - s * dy, center[1] + s * dx + c * dy])


def _translate_sample(sample: GtSample, dz: float) -> GtSample:
    pts = sample.points.copy()
    pts[:, 2] += dz
    return GtSample(replace(sample.box, z=sample.box.z + dz), pts)


def augment_scene(scene: Scene, gt_database, plane: GroundPlane,
                  rng: np.random.Generator, max_samples: int = 4,
                  translation_var: float = 0.25, box_yaw: bool = True,
                  box_yaw_range: float = np.pi / 4,
                  global_rotation: bool = True) -> Scene:
    """Paste database samples onto the plane, jitter boxes, rotate the scene.

    Sampled boxes keep their stored x/y pose but rest their bottom faces on
    the fitted plane; any BEV overlap with an existing box rejects the
    sample. Per-box translation noise is N(0, translation_var) per axis;
    the global rotation angle is uniform on [-pi/2, pi/2].
    """
    boxes = list(scene.gt_boxes)
    extra_points = []

    n_insert = min(max_samples, len(gt_database))
    if n_insert:
        picks = rng.choice(len(gt_database), size=n_insert, replace=False)
        for pi in picks:
            sample = gt_database[int(pi)]
            dz = plane.height_at(sample.box.x, sample.box.y) + sample.box.h / 2.0 - sample.box.z
            sample = _translate_sample(sample, float(dz))
            if overlaps_any(sample.box, boxes):
                continue
            boxes.append(sample.box)
            extra_points.append(sample.points)

    points = scene.cloud.points.copy()
    if extra_points:
        points = np.concatenate([points] + extra_points)

    # per-box jitter, applied to the box and the points inside it; membership
    # is frozen against the pre-jitter cloud so boxes never steal each other's
    # moved points (boxes are disjoint by construction)
    std = np.sqrt(translation_var)
    if std > 0 or box_yaw:
        masks = [points_in_box3d(points[:, :3], box) for box in boxes]
        jittered = []
        for box, inside in zip(boxes, masks):
            shift = rng.normal(0.0, std, size=3) if std > 0 else np.zeros(3)
            yaw = rng.uniform(-box_yaw_range, box_yaw_range) if box_yaw else 0.0
            if yaw != 0.0:
                points[inside, :2] = _rotate_z(points[inside, :2], yaw, center=(box.x, box.y))
            points[inside, :3] += shift
            jittered.append(
                replace(box, x=float(box.x + shift[0]), y=float(box.y + shift[1]),
                        z=float(box.z + shift[2]), theta=float(wrap_angle(box.theta + yaw)))
            )
        boxes = jittered

    if global_rotation:
        angle = float(rng.uniform(-np.pi / 2, np.pi / 2))
        points[:, :2] = _rotate_z(points[:, :2], angle)
        rotated = []
        for box in boxes:
            cx, cy = _rotate_z(np.array([[box.x, box.y]]), angle)[0]
            rotated.append(replace(box, x=cx, y=cy, theta=float(wrap_angle(box.theta + angle))))
        boxes = rotated

    return Scene(PointCloud(points), tuple(boxes))


def augment_scenes(scenes, cfg: RunConfig, seed: int) -> list[Scene]:
    """The ``train-toy --augment`` pipeline: one database of every scene's
    boxes, then per scene a ground-plane fit and :func:`augment_scene` with
    ``cfg``'s sampling settings, all drawing from ``default_rng([seed, 0xA6])``."""
    rng = np.random.default_rng([seed, 0xA6])
    database = build_gt_database(scenes)
    augmented = []
    for scene in scenes:
        plane = fit_ground_plane(scene.cloud, cfg.ransac_iterations, cfg.ransac_inlier_tol,
                                 seed=cfg.seed)
        augmented.append(augment_scene(
            scene, database, plane, rng, max_samples=cfg.aug_max_samples,
            translation_var=cfg.aug_translation_var, box_yaw=cfg.aug_box_yaw,
            box_yaw_range=cfg.aug_box_yaw_range, global_rotation=cfg.aug_global_rotation))
    return augmented
