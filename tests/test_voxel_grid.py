import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeldet.kitti_io import PointCloud
from voxeldet.voxel_grid import (
    SparseVoxelGrid,
    VoxelizerConfig,
    cell_indices,
    decode_site_keys,
    format_grid_dump,
    make_grid,
    site_keys,
    voxelize,
)

DEFAULT = VoxelizerConfig()

TOY = VoxelizerConfig(
    range_min=(0.0, -2.0, -3.0),
    range_max=(4.0, 2.0, 1.0),
    voxel_size=(0.5, 0.5, 0.5),
    max_points_per_voxel=5,
    seed=7,
)


class TestConfig:
    def test_default_grid_shape(self):
        assert DEFAULT.grid_shape == (1408, 1600, 40)

    def test_non_multiple_extent_rejected(self):
        with pytest.raises(ValueError, match="integer multiple"):
            VoxelizerConfig(range_max=(70.43, 40.0, 1.0))

    def test_max_points_validated(self):
        with pytest.raises(ValueError):
            VoxelizerConfig(max_points_per_voxel=0)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (2**64, "seed must be < 2**64, got 18446744073709551616"),
    ], ids=["negative", "2_64"])
    def test_seed_outside_the_philox_key_range_rejected(self, seed, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            VoxelizerConfig(seed=seed)


class TestVoxelize:
    def test_single_point_site_and_feature(self):
        cloud = PointCloud(np.array([[10.0, 0.0, -1.0, 0.3]]))
        grid = voxelize(cloud, DEFAULT)
        assert grid.num_sites == 1
        np.testing.assert_array_equal(grid.indices[0], [200, 800, 20])
        np.testing.assert_allclose(grid.features[0], [10.0, 0.0, -1.0, 0.3])

    def test_empty_cloud(self):
        grid = voxelize(PointCloud(np.empty((0, 4))), DEFAULT)
        assert grid.num_sites == 0
        assert grid.channels == 4

    def test_identical_points_capped(self):
        cloud = PointCloud(np.tile([1.23, 0.4, -0.7, 0.9], (7, 1)))
        grid = voxelize(cloud, TOY)
        assert grid.num_sites == 1
        np.testing.assert_allclose(grid.features[0], [1.23, 0.4, -0.7, 0.9])

    def test_out_of_range_discarded(self):
        cloud = PointCloud(np.array([
            [5.0, 0.0, 0.0, 0.1],    # x beyond toy range
            [1.0, 0.0, 0.0, 0.1],
            [1.0, 0.0, 0.99, 0.1],   # inside, near top
            [1.0, 0.0, 1.0, 0.1],    # z exactly at range_max -> dropped
        ]))
        grid = voxelize(cloud, TOY)
        assert grid.num_sites == 2

    def test_sites_sorted_z_major(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([
            rng.uniform(0, 4, 200), rng.uniform(-2, 2, 200),
            rng.uniform(-3, 1, 200), rng.uniform(0, 1, 200),
        ])
        grid = voxelize(PointCloud(pts), TOY)
        keys = list(zip(grid.indices[:, 2], grid.indices[:, 1], grid.indices[:, 0]))
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        pts = np.column_stack([
            rng.uniform(0, 4, 500), rng.uniform(-2, 2, 500),
            rng.uniform(-3, 1, 500), rng.uniform(0, 1, 500),
        ])
        grid_a = voxelize(PointCloud(pts), TOY)
        grid_b = voxelize(PointCloud(pts[rng.permutation(500)]), TOY)
        np.testing.assert_array_equal(grid_a.indices, grid_b.indices)
        np.testing.assert_array_equal(grid_a.features, grid_b.features)

    def test_sampling_respects_cap_and_membership(self):
        rng = np.random.default_rng(2)
        # 60 points crowded into one voxel
        pts = np.column_stack([
            rng.uniform(0.0, 0.5, 60), rng.uniform(-2.0, -1.5, 60),
            rng.uniform(-3.0, -2.5, 60), rng.uniform(0, 1, 60),
        ])
        grid = voxelize(PointCloud(pts), TOY)
        assert grid.num_sites == 1
        x, y, z, _ = grid.features[0]
        assert 0.0 <= x < 0.5 and -2.0 <= y < -1.5 and -3.0 <= z < -2.5

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 120))
    def test_feature_inside_voxel_extent(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = np.column_stack([
            rng.uniform(0, 4, n), rng.uniform(-2, 2, n),
            rng.uniform(-3, 1, n), rng.uniform(0, 1, n),
        ])
        grid = voxelize(PointCloud(pts), TOY)
        lo = np.array(TOY.range_min)
        v = np.array(TOY.voxel_size)
        for (ix, iy, iz), feat in zip(grid.indices, grid.features):
            cell_lo = lo + np.array([ix, iy, iz]) * v
            assert np.all(feat[:3] >= cell_lo - 1e-12)
            assert np.all(feat[:3] <= cell_lo + v + 1e-12)


class TestGridDump:
    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        pts = np.column_stack([
            rng.uniform(0, 4, 50), rng.uniform(-2, 2, 50),
            rng.uniform(-3, 1, 50), rng.uniform(0, 1, 50),
        ])
        grid = voxelize(PointCloud(pts), TOY)
        header, *rows = format_grid_dump(grid).splitlines()
        assert header.split() == [str(n) for n in (*grid.shape, grid.channels)]
        indices = np.array([[int(v) for v in row.split()[:3]] for row in rows])
        features = np.array([[float(v) for v in row.split()[3:]] for row in rows])
        np.testing.assert_array_equal(indices, grid.indices)
        np.testing.assert_array_equal(features, grid.features)


class TestGridValidation:
    def test_unsorted_rejected(self):
        idx = np.array([[1, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="sorted"):
            SparseVoxelGrid((2, 2, 2), idx, np.zeros((2, 4)))

    def test_out_of_shape_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            SparseVoxelGrid((2, 2, 2), np.array([[5, 0, 0]]), np.zeros((1, 4)))


# (shape, sites, seed): odd extents, a 1x1x1 grid, and an empty site set
CODEC_CASES = [((5, 3, 7), 50, 0), ((9, 11, 3), 80, 1), ((7, 1, 5), 30, 2),
               ((1, 1, 1), 6, 3), ((3, 5, 9), 0, 4)]


def _random_sites(shape, n, seed):
    """n seeded (batch, (ix, iy, iz)) sites with batches 0-3; repeats allowed."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, n), rng.integers(0, shape, (n, 3))


class TestSiteKeys:
    @pytest.mark.parametrize("shape, n, seed", CODEC_CASES)
    def test_key_order_is_batch_z_y_x_order(self, shape, n, seed):
        batch, idx = _random_sites(shape, n, seed)
        keys = site_keys(idx, shape, batch)
        assert keys.dtype == np.int64
        oracle = np.lexsort((idx[:, 0], idx[:, 1], idx[:, 2], batch))
        np.testing.assert_array_equal(np.argsort(keys, kind="stable"), oracle)

    @pytest.mark.parametrize("shape, n, seed", CODEC_CASES)
    def test_decode_returns_batches_and_rows(self, shape, n, seed):
        batch, idx = _random_sites(shape, n, seed)
        back_batch, back_idx = decode_site_keys(site_keys(idx, shape, batch), shape)
        np.testing.assert_array_equal(back_batch, batch)
        np.testing.assert_array_equal(back_idx, idx)
        assert back_idx.shape == (n, 3)

    @pytest.mark.parametrize("shape, n, seed", CODEC_CASES)
    def test_make_grid_orders_sites_as_lexsort(self, shape, n, seed):
        rng = np.random.default_rng(seed)
        flat = rng.choice(int(np.prod(shape)), size=min(n, int(np.prod(shape))), replace=False)
        idx = np.stack(np.unravel_index(flat, shape), axis=1)
        feats = rng.normal(size=(len(idx), 4))
        grid = make_grid(shape, idx, feats)
        order = np.lexsort((idx[:, 0], idx[:, 1], idx[:, 2]))
        np.testing.assert_array_equal(grid.indices, idx[order])
        np.testing.assert_array_equal(grid.features, feats[order])


class TestCellIndices:
    def test_keeps_the_half_open_grid_and_casts_only_its_cells(self):
        pts = np.array([[0.0, 0.0], [1.99, 0.5], [2.0, 0.5], [-1e-9, 0.5], [0.5, 0.99],
                        [3e38, 0.0], [-3e38, 0.5], [np.nan, 0.5], [0.5, np.inf], [1e300, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells, inside = cell_indices(pts, np.array([0.0, 0.0]), np.array([0.5, 0.25]), (4, 4))
        np.testing.assert_array_equal(inside, [1, 1, 0, 0, 1, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(cells, [[0, 0], [3, 2], [1, 3]])
        assert cells.dtype == np.int64

    def test_points_at_float32_extremes_drop_out_of_voxelize(self):
        rng = np.random.default_rng(3)
        near = np.column_stack([rng.uniform(0, 4, 50), rng.uniform(-2, 2, 50),
                                rng.uniform(-3, 1, 50), rng.uniform(0, 1, 50)])
        far = np.array([[3e38, 0, 0, 0], [-3e38, 0, 0, 0], [1, -3e38, 3e38, 0]], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grids = [voxelize(PointCloud(pts), TOY) for pts in (near, np.vstack([far, near]))]
        assert format_grid_dump(grids[0]) == format_grid_dump(grids[1])
