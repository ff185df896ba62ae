"""Point-cloud voxelization over the fixed LiDAR-frame grid.

Points are binned into equally spaced voxels; each non-empty voxel keeps at
most ``max_points_per_voxel`` points chosen by a per-voxel counter RNG and
carries the mean (x, y, z, intensity) of the survivors as its feature. The
module owns the site order (batch, iz, iy, ix): grids, sparse-conv rulebooks
and the BEV scatter all sort, search and index by :func:`site_keys`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kitti_io import PointCloud

FEATURE_CHANNELS = 4


@dataclass(frozen=True)
class VoxelizerConfig:
    range_min: tuple[float, float, float] = (0.0, -40.0, -3.0)
    range_max: tuple[float, float, float] = (70.4, 40.0, 1.0)
    voxel_size: tuple[float, float, float] = (0.05, 0.05, 0.1)
    max_points_per_voxel: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_points_per_voxel < 1:
            raise ValueError("max_points_per_voxel must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.seed >= 2**64:   # the over-cap sampler's Philox key is seed << 64 | voxel key
            raise ValueError(f"seed must be < 2**64, got {self.seed}")
        for lo, hi, v in zip(self.range_min, self.range_max, self.voxel_size):
            if v <= 0 or hi <= lo:
                raise ValueError(f"bad axis range [{lo}, {hi}) with voxel size {v}")
            n = (hi - lo) / v
            if abs(n - round(n)) > 1e-6:
                raise ValueError(
                    f"range extent {hi - lo} is not an integer multiple of voxel size {v}"
                )

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return tuple(
            int(round((hi - lo) / v))
            for lo, hi, v in zip(self.range_min, self.range_max, self.voxel_size)
        )


@dataclass(frozen=True)
class SparseVoxelGrid:
    """Active voxel sites sorted by their :func:`site_keys`, i.e. by (iz, iy, ix)."""

    shape: tuple[int, int, int]
    indices: np.ndarray            # (n, 3) int64 columns ix, iy, iz
    features: np.ndarray           # (n, channels) float64

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1, 3)
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            feats = feats.reshape(len(idx), -1)
        if feats.shape[0] != len(idx):
            raise ValueError("feature row count must match site count")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "features", feats)
        if len(idx):
            if idx.min() < 0 or (idx >= np.array(self.shape)).any():
                raise ValueError("voxel indices outside grid shape")
            if (np.diff(site_keys(idx, self.shape)) <= 0).any():
                raise ValueError("sites must be unique and sorted by (iz, iy, ix)")

    @property
    def num_sites(self) -> int:
        return len(self.indices)

    @property
    def channels(self) -> int:
        return self.features.shape[1]


def site_keys(indices: np.ndarray, shape, batch=0) -> np.ndarray:
    """int64 keys ``((batch * nz + iz) * ny + iy) * nx + ix`` of (n, 3) rows (ix, iy, iz).

    ``batch`` is a scalar or one value per row; keys increase in (batch, iz, iy, ix) order.
    """
    nx, ny, nz = shape
    return ((batch * nz + indices[:, 2]) * ny + indices[:, 1]) * nx + indices[:, 0]


def decode_site_keys(keys: np.ndarray, shape) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`site_keys`: the batches and the (n, 3) rows (ix, iy, iz)."""
    nx, ny, nz = shape
    rest, ix = np.divmod(keys, nx)
    rest, iy = np.divmod(rest, ny)
    batch, iz = np.divmod(rest, nz)
    return batch, np.stack([ix, iy, iz], axis=1)


def make_grid(shape, indices, features) -> SparseVoxelGrid:
    """Build a grid from unordered sites, sorting them canonically."""
    indices = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        features = features.reshape(len(indices), -1)
    order = np.argsort(site_keys(indices, shape), kind="stable")
    return SparseVoxelGrid(tuple(shape), indices[order], features[order])


def cell_indices(points, lo, size, shape) -> tuple[np.ndarray, np.ndarray]:
    """The int64 cells ``floor((p - lo) / size)`` of the (n, d) points inside
    the grid ``[lo, lo + shape·size)``, and the mask of those points. Only
    in-range coordinates are cast, so a far point is dropped on any platform."""
    cells = np.floor((points - lo) / size)
    inside = ((points >= lo) & (cells >= 0) & (cells < np.asarray(shape))).all(axis=1)
    return cells[inside].astype(np.int64), inside


def _sample_voxel(seed: int, flat_voxel: int, count: int, keep: int) -> np.ndarray:
    """Deterministic without-replacement pick keyed by (seed, voxel index)."""
    gen = np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(flat_voxel)))
    return gen.choice(count, size=keep, replace=False)


def voxelize(cloud: PointCloud, cfg: VoxelizerConfig) -> SparseVoxelGrid:
    """Bin a point cloud into the sparse voxel grid with mean features.

    Points outside the range are dropped (:func:`cell_indices`). The per-voxel subsample is keyed
    by (seed, voxel index) over a canonical within-voxel point order, so the
    result is independent of point arrival order.
    """
    shape = cfg.grid_shape
    idx, in_range = cell_indices(cloud.points[:, :3], np.array(cfg.range_min),
                                 np.array(cfg.voxel_size), shape)
    pts = cloud.points[in_range]
    if len(pts) == 0:
        return SparseVoxelGrid(shape, np.empty((0, 3), np.int64),
                               np.empty((0, FEATURE_CHANNELS)))

    flat = site_keys(idx, shape)
    # canonical order: voxel, then point coordinates
    order = np.lexsort((pts[:, 3], pts[:, 2], pts[:, 1], pts[:, 0], flat))
    pts = pts[order]
    flat = flat[order]

    starts = np.flatnonzero(np.r_[True, np.diff(flat) != 0])
    counts = np.diff(np.r_[starts, len(flat)])
    voxel_flat = flat[starts]

    keep_mask = np.ones(len(flat), dtype=bool)
    cap = cfg.max_points_per_voxel
    for s, c, fv in zip(starts[counts > cap], counts[counts > cap], voxel_flat[counts > cap]):
        keep_mask[s : s + c] = False
        keep_mask[s + _sample_voxel(cfg.seed, fv, c, cap)] = True

    kcounts = np.minimum(counts, cap)
    sums = np.add.reduceat(pts[keep_mask], np.cumsum(kcounts) - kcounts, axis=0)
    features = sums / kcounts[:, None]
    return SparseVoxelGrid(shape, decode_site_keys(voxel_flat, shape)[1], features)


def format_grid_dump(grid: SparseVoxelGrid) -> str:
    """Text dump: header "nx ny nz channels", one "ix iy iz f0 f1 ..." per site."""
    lines = [f"{grid.shape[0]} {grid.shape[1]} {grid.shape[2]} {grid.channels}"]
    for (ix, iy, iz), feat in zip(grid.indices, grid.features):
        lines.append(f"{ix} {iy} {iz} " + " ".join(f"{f:.17g}" for f in feat))
    return "\n".join(lines) + "\n"

