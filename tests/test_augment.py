import numpy as np
import pytest

from voxeldet.augment import (
    GroundPlane,
    GtSample,
    augment_scene,
    augment_scenes,
    build_gt_database,
    fit_ground_plane,
)
from voxeldet.box_geom import Box3D, bev_iou, points_in_box3d
from voxeldet.config import toy_config
from voxeldet.kitti_io import PointCloud
from voxeldet.synthetic import Scene, make_toy_dataset

from helpers import augment_scenes_loop

FLAT = GroundPlane((0.0, 0.0, 1.0), 1.7)   # z = -1.7


def _scene_with_car(x=4.0, y=0.0, theta=0.3):
    # bottom face floats just above the ground carpet
    box = Box3D(x, y, -1.68 + 0.78, 1.6, 3.9, 1.56, theta)
    rng = np.random.default_rng(0)
    local = rng.uniform(-0.4, 0.4, size=(40, 3))
    pts = np.column_stack([
        box.x + local[:, 0], box.y + local[:, 1], box.z + local[:, 2],
        rng.uniform(0, 1, 40),
    ])
    ground = np.column_stack([
        rng.uniform(0, 9, 100), rng.uniform(-4, 4, 100),
        np.full(100, -1.7), rng.uniform(0, 1, 100),
    ])
    return Scene(PointCloud(np.concatenate([pts, ground])), (box,))


class TestGroundPlane:
    def test_normal_oriented_upward(self):
        plane = GroundPlane((0.0, 0.0, -2.0), 3.4)
        assert plane.normal[2] > 0
        assert plane.height_at(0.0, 0.0) == pytest.approx(1.7)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            GroundPlane((0.0, 0.0, 0.0), 1.0)


class TestFitGroundPlane:
    def test_noisy_plane_with_outliers(self):
        rng = np.random.default_rng(5)
        ground = np.column_stack([
            rng.uniform(0, 40, 1000), rng.uniform(-20, 20, 1000),
            np.full(1000, -1.7) + rng.normal(0, 0.01, 1000),
        ])
        outliers = np.column_stack([
            rng.uniform(0, 40, 100), rng.uniform(-20, 20, 100), rng.uniform(-1, 2, 100),
        ])
        pts = np.vstack([ground, outliers])
        cloud = PointCloud(np.column_stack([pts, np.zeros(len(pts))]))
        plane = fit_ground_plane(cloud, iterations=80, inlier_tol=0.1, seed=1)
        assert plane.height_at(10.0, 0.0) == pytest.approx(-1.7, abs=0.02)
        cos_err = np.dot(plane.normal, [0, 0, 1])
        assert np.degrees(np.arccos(np.clip(cos_err, -1, 1))) < 1.0

    def test_three_points_exact(self):
        pts = np.array([[0, 0, 0.0], [1, 0, 1.0], [0, 1, 2.0]])
        cloud = PointCloud(np.column_stack([pts, np.zeros(3)]))
        plane = fit_ground_plane(cloud, iterations=5, seed=0)
        np.testing.assert_allclose(pts @ np.asarray(plane.normal) + plane.offset, 0.0,
                                   atol=1e-12)

    def test_coplanar_all_inliers(self):
        rng = np.random.default_rng(6)
        pts = np.column_stack([rng.uniform(0, 10, 50), rng.uniform(0, 10, 50), np.full(50, 2.5)])
        cloud = PointCloud(np.column_stack([pts, np.zeros(50)]))
        plane = fit_ground_plane(cloud, iterations=10, seed=2)
        assert (np.abs(pts @ np.asarray(plane.normal) + plane.offset) < 1e-9).all()

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_ground_plane(PointCloud(np.zeros((2, 4))), seed=0)


class TestGtDatabase:
    def test_build_crops_member_points(self):
        scene = _scene_with_car()
        samples = build_gt_database([scene])
        assert len(samples) == 1
        assert len(samples[0].points) == 40
        assert points_in_box3d(samples[0].points[:, :3], samples[0].box).all()


class TestAugmentScene:
    def test_identity_path_keeps_scene(self):
        scene = _scene_with_car()
        out = augment_scene(scene, [], FLAT, np.random.default_rng(0),
                            translation_var=0.0, box_yaw=False, global_rotation=False)
        np.testing.assert_array_equal(out.cloud.points, scene.cloud.points)
        assert out.gt_boxes == scene.gt_boxes

    def test_insertion_rests_on_plane(self):
        scene = _scene_with_car(x=2.0)
        sample_box = Box3D(7.0, 2.0, 5.0, 1.6, 3.9, 1.56, 0.0)   # stored far off the ground
        sample_pts = np.column_stack([np.full(10, 7.0), np.full(10, 2.0),
                                      np.full(10, 5.0), np.zeros(10)])
        out = augment_scene(scene, [GtSample(sample_box, sample_pts)], FLAT,
                            np.random.default_rng(1), translation_var=0.0,
                            box_yaw=False, global_rotation=False)
        assert len(out.gt_boxes) == 2
        inserted = out.gt_boxes[1]
        assert inserted.z - inserted.h / 2.0 == pytest.approx(-1.7)
        # its points moved by the same z shift
        assert out.cloud.points[-1, 2] == pytest.approx(5.0 + (inserted.z - 5.0))

    def test_colliding_sample_rejected(self):
        scene = _scene_with_car(x=4.0, y=0.0, theta=0.0)
        overlapping = GtSample(Box3D(4.5, 0.0, 0.0, 1.6, 3.9, 1.56, 0.0),
                               np.zeros((5, 4)))
        out = augment_scene(scene, [overlapping], FLAT, np.random.default_rng(2),
                            translation_var=0.0, box_yaw=False, global_rotation=False)
        assert len(out.gt_boxes) == 1

    def test_membership_preserved_under_full_augmentation(self):
        cfg = toy_config()
        scenes = make_toy_dataset(cfg, n_scenes=3, seed=11)
        db = build_gt_database(scenes[1:])
        eps = 1e-9   # car points sit exactly on faces; rigid motion leaves fp dust
        for trial in range(5):
            rng = np.random.default_rng(trial)
            scene = scenes[0]
            before_counts = [
                int(points_in_box3d(scene.cloud.points[:, :3], b).sum())
                for b in scene.gt_boxes
            ]
            out = augment_scene(scene, db, FLAT, rng, max_samples=2)
            kept = out.gt_boxes[: len(scene.gt_boxes)]
            for box, n_before in zip(kept, before_counts):
                grown = Box3D(box.x, box.y, box.z, box.w + eps, box.l + eps,
                              box.h + eps, box.theta)
                n_after = int(points_in_box3d(out.cloud.points[:, :3], grown).sum())
                assert n_after >= n_before

    def test_global_rotation_consistency(self):
        # rotation only: box yaw and point membership rotate together
        scene = _scene_with_car(x=4.0, y=1.0, theta=0.4)
        box = scene.gt_boxes[0]
        n_before = int(points_in_box3d(scene.cloud.points[:, :3], box).sum())
        out = augment_scene(scene, [], FLAT, np.random.default_rng(3),
                            translation_var=0.0, box_yaw=False, global_rotation=True)
        rotated = out.gt_boxes[0]
        n_after = int(points_in_box3d(out.cloud.points[:, :3], rotated).sum())
        assert n_after == n_before
        # center radius preserved by the rigid motion
        assert np.hypot(rotated.x, rotated.y) == pytest.approx(np.hypot(box.x, box.y))


class TestAugmentScenes:
    def test_equals_the_step_by_step_loop(self):
        cfg = toy_config(toy_scenes=6)
        scenes = make_toy_dataset(cfg)
        got = augment_scenes(scenes, cfg, seed=3)
        want = augment_scenes_loop(scenes, cfg, seed=3)
        assert [s.gt_boxes for s in got] == [s.gt_boxes for s in want]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.cloud.points, w.cloud.points)
        # samples were pasted, so the loop's database and generator were exercised
        assert sum(map(len, (s.gt_boxes for s in got))) > sum(
            map(len, (s.gt_boxes for s in scenes)))


class TestSyntheticScenes:
    def test_deterministic(self):
        cfg = toy_config()
        a = make_toy_dataset(cfg, n_scenes=2, seed=3)
        b = make_toy_dataset(cfg, n_scenes=2, seed=3)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.cloud.points, sb.cloud.points)
            assert sa.gt_boxes == sb.gt_boxes

    def test_cars_disjoint_and_in_range(self):
        cfg = toy_config()
        for scene in make_toy_dataset(cfg, n_scenes=5, seed=4):
            boxes = scene.gt_boxes
            for i, a in enumerate(boxes):
                assert cfg.range_min[0] < a.x < cfg.range_max[0]
                assert cfg.range_min[1] < a.y < cfg.range_max[1]
                for b in boxes[i + 1:]:
                    assert bev_iou(a, b) == 0.0

    def test_car_points_inside_boxes(self):
        cfg = toy_config()
        scene = make_toy_dataset(cfg, n_scenes=1, seed=5)[0]
        for box in scene.gt_boxes:
            grown = Box3D(box.x, box.y, box.z, box.w + 1e-6, box.l + 1e-6,
                          box.h + 1e-6, box.theta)
            inside = points_in_box3d(scene.cloud.points[:, :3], grown)
            assert inside.sum() >= cfg.toy_car_points * 0.9
