"""The BEV map's shape and cell size follow from the voxel grid and ``vfe_blocks``."""

from dataclasses import replace

import numpy as np

from voxeldet.box_geom import Box3D
from voxeldet.config import toy_config
from voxeldet.depth_head import ANCHORS_PER_CELL
from voxeldet.model import VehicleDetector
from voxeldet.seg_context import MaskKind, make_mask
from voxeldet.voxel_grid import make_grid


def test_anchor_centres_are_mask_cell_centres_on_non_square_cells():
    """0.4 x 0.8 m cells: each anchor sits at the centre of the cell make_mask marks."""
    cfg = toy_config(voxel_size=(0.05, 0.1, 0.1))
    h, w = cfg.bev_height, cfg.bev_width
    assert (h, w) == (12, 24)
    anchors = VehicleDetector(cfg).anchors.reshape(h, w, ANCHORS_PER_CELL, 7)
    vox = cfg.voxelizer()
    grid = make_grid(vox.grid_shape, np.empty((0, 3)), np.empty((0, 4)))
    stride = cfg.bev_stride
    cell = stride * np.array(vox.voxel_size[:2])
    for iy in range(h):
        for ix in range(w):
            x, y = anchors[iy, ix, 0, :2]
            np.testing.assert_array_equal(anchors[iy, ix, :, :2], [[x, y]] * ANCHORS_PER_CELL)
            # a 0.3 m box around the anchor covers voxel centres of one cell only
            mask = make_mask(grid, [Box3D(x, y, -1.0, 0.3, 0.3, 1.0, 0.0)],
                             MaskKind.BOX_TYPE, vox, stride)
            assert np.flatnonzero(mask.labels).tolist() == [iy * w + ix]
            # centre of that cell's voxel columns [i * stride, (i + 1) * stride)
            centre = np.array(vox.range_min[:2]) + (np.array([ix, iy]) + 0.5) * cell
            np.testing.assert_allclose([x, y], centre, atol=1e-9)


def _sweep_configs(n, seed):
    """Seeded toy configs varying block strides and channels, parts and voxel size."""
    rng = np.random.default_rng(seed)
    base = toy_config()
    for _ in range(n):
        strides = rng.integers(1, 3, size=4)
        channels = [4, 16, 32, 64, int(rng.choice([32, 64]))]
        if rng.random() < 0.2:   # break the channel chain
            channels[int(rng.integers(1, 4))] += 8
        blocks = tuple(
            (channels[i], channels[i + 1] if i < 3 else channels[4], 1, int(strides[i]))
            for i in range(4)
        )
        if rng.random() < 0.2:
            blocks = blocks[:3] + ((blocks[3][0] + 8,) + blocks[3][1:],)
        voxel_size = (float(rng.choice([0.05, 0.1, 0.2])), float(rng.choice([0.05, 0.1, 0.2])),
                      0.1)
        # mostly the x extent of the map, else one picked blind
        width = round(9.6 / voxel_size[0]) // int(np.prod(strides))
        if rng.random() < 0.3:
            width = int(rng.choice([6, 12, 24, 48]))
        third = width // 3
        part_bounds = ((0, third + 1), (third - 1, 2 * third + 1), (2 * third - 1, width))
        yield replace(base, vfe_blocks=blocks, part_bounds=part_bounds, voxel_size=voxel_size)


def test_validate_passes_exactly_when_the_model_builds():
    outcomes = []
    for cfg in _sweep_configs(30, seed=5):
        try:
            cfg.validate()
            valid = True
        except ValueError:
            valid = False
        try:
            model = VehicleDetector(cfg)
        except ValueError:
            model = None
        assert valid == (model is not None), cfg
        outcomes.append(valid)
        if model is None:
            continue
        channels = model.sce.segmentation.channels
        assert model.vfe.bev_shape == (channels, cfg.bev_height, cfg.bev_width)
        assert model.sce.detection.channels == channels
        assert len(model.anchors) == cfg.bev_height * cfg.bev_width * ANCHORS_PER_CELL
    assert 5 <= sum(outcomes) <= 25, outcomes
