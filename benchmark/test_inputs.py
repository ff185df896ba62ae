"""Tests of the benchmark's generated inputs.

    python3 -m pytest benchmark/test_inputs.py -q

They pin the structure of the ray-cast scan and the planted NMS/eval set,
so a change to either shows up here before it shows up as a moved metric.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from planted import (CARS_PER_FRAME, FALSE_POSITIVES, MEMBERS_PER_CAR, STRATA,  # noqa: E402
                     expected_ap, make_planted)
from scan import N_BEAMS, ray_box_distance, make_scan  # noqa: E402

SITE_BANDS = {0: (32_000, 40_000), 1: (16_000, 24_000), 2: (7_500, 12_000), 3: (3_000, 5_500)}


@pytest.fixture(scope="module")
def scan():
    return make_scan(1)


def test_scan_is_deterministic(scan):
    again = make_scan(1)
    assert np.array_equal(scan.points, again.points)
    assert not np.array_equal(make_scan(2).points[:100], scan.points[:100])


def test_scan_has_64_rings_and_about_115k_returns(scan):
    assert len(np.unique(scan.rings)) == N_BEAMS == 64
    assert 105_000 <= len(scan.points) <= 125_000
    assert 0.0 <= scan.points[:, 3].min() and scan.points[:, 3].max() <= 1.0


def test_about_half_the_returns_lie_behind_the_sensor(scan):
    assert 0.45 <= (scan.points[:, 0] < 0).mean() <= 0.55


def test_sites_per_level_lie_in_band(scan):
    from voxeldet.config import RunConfig
    from voxeldet.kitti_io import PointCloud
    from voxeldet.sparse_conv import VfeEncoder
    from voxeldet.voxel_grid import voxelize

    cfg = RunConfig()
    grid = voxelize(PointCloud(scan.points), cfg.voxelizer())
    plan = VfeEncoder(cfg.voxelizer().grid_shape, cfg.blocks()).build_plan([grid])
    for level, (lo, hi) in SITE_BANDS.items():
        assert lo <= plan.blocks[level].subm_rulebook.n_in <= hi, level


def test_ray_box_distance_hits_the_near_face():
    dirs = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    box = (10.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0)             # x from 9 to 11
    d = ray_box_distance(dirs, box)
    assert d[0] == pytest.approx(9.0)
    assert np.isinf(d[1]) and np.isinf(d[2])
    turned = (10.0, 0.0, 0.0, 1.0, 2.0, 1.0, np.pi / 2)    # now 1 m long in x
    assert ray_box_distance(dirs[:1], turned)[0] == pytest.approx(9.5)


@pytest.fixture(scope="module")
def planted():
    return make_planted(3, 10)


def test_planted_sizes_do_not_depend_on_the_seed(planted):
    other = make_planted(4, 10)
    for a, b in zip(planted, other):
        assert len(a.cars) == len(b.cars)
        assert len(a.detections) == len(b.detections)
    for f in planted:
        assert len(f.cars) == CARS_PER_FRAME
        assert len(f.detections) == CARS_PER_FRAME * (1 + MEMBERS_PER_CAR) + FALSE_POSITIVES
        assert len(f.expected_kept) == CARS_PER_FRAME + FALSE_POSITIVES
        assert f.detections[:, 7].min() > 0.3
        assert len(np.unique(f.detections[:, 7])) == len(f.detections)


def test_planted_nms_keeps_heads_and_false_positives_with_fixed_work(planted):
    from voxeldet import box_geom
    from voxeldet.box_geom import Box3D, Detection

    calls = []
    real = box_geom.bev_iou
    box_geom.bev_iou = lambda a, b: calls.append(1) or real(a, b)
    try:
        per_frame = []
        for f in planted[:3] + make_planted(4, 3):
            dets = [Detection(Box3D.from_array(r[:7]), float(r[7])) for r in f.detections]
            calls.clear()
            kept = box_geom.oriented_nms(dets, 0.05)
            per_frame.append(len(calls))
            got = np.array([[*d.box.as_array(), d.score] for d in kept])
            assert np.array_equal(got, f.expected_kept)
    finally:
        box_geom.bev_iou = real
    # heads pairwise, members up to their own head, false positives against all kept
    n, m, k = CARS_PER_FRAME, MEMBERS_PER_CAR, FALSE_POSITIVES
    expected = n * (n - 1) // 2 + m * n * (n + 1) // 2 + sum(n + j for j in range(k))
    assert per_frame == [expected] * len(per_frame)


def test_planted_ap_follows_from_matched_over_total(planted):
    ap = expected_ap(planted)
    assert set(ap) == {"easy", "moderate", "hard"}
    assert all(0.0 < v <= 100.0 for v in ap.values())
    assert sum(f.missed.sum() for f in planted) > 0
    assert set().union(*(f.strata for f in planted)) == set(STRATA)
