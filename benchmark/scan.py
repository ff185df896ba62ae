"""Deterministic ray-cast LiDAR scan with HDL-64E-like geometry.

The sensor sits at the LiDAR-frame origin, 1.73 m above a flat ground plane.
64 beams span -24.8 to +2 degrees of elevation and sweep 2,000 azimuth
steps; each ray returns its first hit among the ground plane, seeded cars
and seeded building walls, or nothing within the maximum range. Every
obstacle is an oriented box, intersected by the slab method in its own
frame, vectorised over all rays at once.

Only numpy is used; the same seed always gives the same scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_BEAMS = 64
ELEVATION_DEG = (-24.8, 2.0)
AZIMUTH_STEPS = 2000
MOUNT_HEIGHT = 1.73
MAX_RANGE = 120.0
RANGE_NOISE = 0.01
CAR_SIZE = (1.6, 3.9, 1.56)   # w, l, h, matching the default anchor
N_CARS = 24
N_WALLS = 10


@dataclass(frozen=True)
class Scan:
    """(n, 4) float64 x, y, z, intensity plus the beam index of each return."""

    points: np.ndarray
    rings: np.ndarray
    cars: np.ndarray    # (n_cars, 7) x, y, z, w, l, h, theta in the LiDAR frame
    n_rays: int


def ray_directions() -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (n_rays, 3) ordered beam-major, and each ray's beam index."""
    elev = np.deg2rad(np.linspace(ELEVATION_DEG[0], ELEVATION_DEG[1], N_BEAMS))
    azim = np.arange(AZIMUTH_STEPS) * (2.0 * np.pi / AZIMUTH_STEPS)
    el, az = np.meshgrid(elev, azim, indexing="ij")
    dirs = np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=-1)
    rings = np.repeat(np.arange(N_BEAMS), AZIMUTH_STEPS)
    return dirs.reshape(-1, 3), rings


def ray_box_distance(dirs: np.ndarray, box) -> np.ndarray:
    """Distance along each ray from the origin to an oriented box, inf on a miss.

    ``box`` is (x, y, z, w, l, h, theta) with a volumetric center; the ray
    is moved into the box frame and clipped against the three slabs.
    """
    x, y, z, w, l, h, theta = box
    c, s = np.cos(theta), np.sin(theta)
    origin = np.array([-x * c - y * s, x * s - y * c, -z])
    local = np.column_stack([
        dirs[:, 0] * c + dirs[:, 1] * s,
        -dirs[:, 0] * s + dirs[:, 1] * c,
        dirs[:, 2],
    ])
    half = np.array([l, w, h]) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-half - origin) / local
        t2 = (half - origin) / local
    # a ray parallel to a slab hits it only if the origin lies inside it
    parallel = local == 0.0
    inside = np.abs(origin) <= half
    t_lo = np.where(parallel, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
    t_hi = np.where(parallel, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
    near = t_lo.max(axis=1)
    far = t_hi.min(axis=1)
    hit = (near <= far) & (far > 0.0)
    return np.where(hit, np.where(near > 0.0, near, far), np.inf)


def _place_boxes(rng, n, size_fn, radius_lo, radius_hi, existing, gap):
    """Rejection-sample n non-overlapping boxes in an annulus around the sensor."""
    boxes = list(existing)
    placed = []
    for _ in range(200 * n):
        if len(placed) == n:
            break
        w, l, h = size_fn()
        r = rng.uniform(radius_lo, radius_hi)
        phi = rng.uniform(-np.pi, np.pi)
        cand = np.array([r * np.cos(phi), r * np.sin(phi), -MOUNT_HEIGHT + h / 2.0,
                         w, l, h, rng.uniform(-np.pi, np.pi)])
        reach = 0.5 * np.hypot(w, l)
        if any(np.hypot(cand[0] - b[0], cand[1] - b[1]) < reach + 0.5 * np.hypot(b[3], b[4]) + gap
               for b in boxes):
            continue
        boxes.append(cand)
        placed.append(cand)
    return np.array(placed).reshape(-1, 7)


def make_scan(seed: int) -> Scan:
    """Cast every ray against ground, cars and walls; keep first hits in range."""
    rng = np.random.default_rng([seed, 0x5CA7])
    w0, l0, h0 = CAR_SIZE
    cars = _place_boxes(
        rng, N_CARS,
        lambda: (w0 * rng.uniform(0.95, 1.05), l0 * rng.uniform(0.95, 1.05),
                 h0 * rng.uniform(0.95, 1.05)),
        8.0, 55.0, (), 1.0,
    )
    walls = _place_boxes(
        rng, N_WALLS,
        lambda: (rng.uniform(0.4, 1.0), rng.uniform(8.0, 25.0), rng.uniform(4.0, 12.0)),
        30.0, 70.0, cars, 2.0,
    )

    dirs, rings = ray_directions()
    dist = np.full(len(dirs), np.inf)
    kind = np.zeros(len(dirs), dtype=np.int8)          # 0 ground, 1 car, 2 wall
    down = dirs[:, 2] < 0.0
    dist[down] = -MOUNT_HEIGHT / dirs[down, 2]
    for label, boxes in ((1, cars), (2, walls)):
        for box in boxes:
            d = ray_box_distance(dirs, box)
            closer = d < dist
            dist[closer] = d[closer]
            kind[closer] = label

    keep = dist <= MAX_RANGE
    dist = dist[keep] + rng.normal(0.0, RANGE_NOISE, size=int(keep.sum()))
    kind = kind[keep]
    xyz = dirs[keep] * dist[:, None]
    base = np.array([0.15, 0.6, 0.35])[kind]
    intensity = np.clip(base + rng.normal(0.0, 0.08, size=len(kind)), 0.0, 1.0)
    return Scan(np.column_stack([xyz, intensity]), rings[keep], cars, len(dirs))
