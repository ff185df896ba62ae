import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voxeldet.box_geom import Box3D, Detection, wrap_angle
from voxeldet.kitti_io import (
    MAX_FIELD,
    CalibMatrices,
    LabelRecord,
    PointCloud,
    camera_box_to_lidar,
    detection_to_label,
    labels_to_lidar_boxes,
    lidar_box_to_camera,
    parse_numbers,
    read_calib,
    read_labels,
    read_point_cloud,
    read_rows,
    write_calib,
    write_detections,
    write_point_cloud,
)

CANONICAL_LABEL = (
    "Car 0.00 0 1.57 599.41 156.40 629.75 189.25 2.85 2.63 12.34 0.47 1.49 69.44 -1.56"
)

# Kitti-style extrinsics: camera x = -velo y, camera y = -velo z, camera z = velo x
KITTI_STYLE_R = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])


class TestPointCloudIO:
    def test_golden_two_points(self, tmp_path):
        raw = np.array([[1, 2, 3, 0.5], [4, 5, 6, 0.1]], dtype="<f4").tobytes()
        p = tmp_path / "scan.bin"
        p.write_bytes(raw)
        cloud = read_point_cloud(p)
        np.testing.assert_allclose(
            cloud.points, np.array([[1, 2, 3, 0.5], [4, 5, 6, 0.1]], dtype=np.float32)
        )

    def test_empty_file(self, tmp_path):
        p = tmp_path / "scan.bin"
        p.write_bytes(b"")
        assert len(read_point_cloud(p).points) == 0

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "scan.bin"
        p.write_bytes(b"\x00" * 17)
        with pytest.raises(ValueError, match="truncated record"):
            read_point_cloud(p)

    def test_nonfinite_dropped_with_diagnostic(self, tmp_path, caplog):
        pts = np.array([[1, 2, 3, 0.5], [np.nan, 0, 0, 0]], dtype="<f4")
        p = tmp_path / "scan.bin"
        p.write_bytes(pts.tobytes())
        with caplog.at_level("WARNING"):
            cloud = read_point_cloud(p)
        assert len(cloud.points) == 1
        assert "non-finite" in caplog.text

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(9)
        for trial in range(20):
            path = tmp_path / f"scan{trial}.bin"
            n = int(rng.integers(0, 50))
            pts = (rng.normal(scale=1e3, size=(n, 4))).astype(np.float32)
            write_point_cloud(path, PointCloud(pts.astype(np.float64)))
            back = read_point_cloud(path)
            np.testing.assert_array_equal(back.points, pts.astype(np.float64))


class TestLabels:
    def test_canonical_line(self, tmp_path):
        p = tmp_path / "label.txt"
        p.write_text(CANONICAL_LABEL + "\n")
        (rec,) = read_labels(p)
        assert rec.cls == "Car"
        assert rec.truncation == 0.0
        assert rec.occlusion == 0
        assert rec.alpha == pytest.approx(1.57)
        assert rec.bbox == pytest.approx((599.41, 156.40, 629.75, 189.25))
        assert rec.dims == pytest.approx((2.85, 2.63, 12.34))
        assert rec.location == pytest.approx((0.47, 1.49, 69.44))
        assert rec.rotation_y == pytest.approx(-1.56)
        assert rec.score is None
        assert not rec.is_dontcare

    def test_empty_file(self, tmp_path):
        p = tmp_path / "label.txt"
        p.write_text("")
        assert read_labels(p) == []

    def test_wrong_field_count_names_line(self, tmp_path):
        p = tmp_path / "label.txt"
        p.write_text(CANONICAL_LABEL + "\n" + CANONICAL_LABEL.rsplit(" ", 1)[0] + "\n")
        with pytest.raises(ValueError, match=r"label\.txt:2: expected 15 or 16 fields"):
            read_labels(p)

    def test_dontcare_flagged(self, tmp_path):
        p = tmp_path / "label.txt"
        p.write_text("DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10\n")
        (rec,) = read_labels(p)
        assert rec.is_dontcare

    def test_score_field_parsed(self, tmp_path):
        p = tmp_path / "result.txt"
        p.write_text(CANONICAL_LABEL + " 0.87\n")
        (rec,) = read_labels(p)
        assert rec.score == pytest.approx(0.87)

    @pytest.mark.parametrize("field, value", [
        (11, "nan"),    # location x
        (13, "inf"),    # location z
        (1, "nan"),     # truncation
        (2, "inf"),     # occlusion
        (10, "inf"),    # length
        (14, "-inf"),   # rotation_y
        (15, "nan"),    # score
    ])
    def test_non_finite_field_names_line(self, tmp_path, field, value):
        fields = (CANONICAL_LABEL + " 0.87").split()
        fields[field] = value
        p = tmp_path / "label.txt"
        p.write_text(CANONICAL_LABEL + "\n" + " ".join(fields) + "\n")
        with pytest.raises(ValueError, match=r"label\.txt:2: numeric fields must be finite"):
            read_labels(p)


    @pytest.mark.parametrize("value", ["1.7", "-0.5", "7", "-2", "1e300"])
    def test_occlusion_outside_levels_names_line(self, tmp_path, value):
        fields = CANONICAL_LABEL.split()
        fields[2] = value
        p = tmp_path / "label.txt"
        p.write_text(CANONICAL_LABEL + "\n" + " ".join(fields) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"label.txt:2: occlusion must be an integer in -1..3, got '{value}'")):
            read_labels(p)

    @pytest.mark.parametrize("value", ["-1", "0", "1", "2", "3"])
    def test_occlusion_levels_parse_as_int(self, tmp_path, value):
        fields = CANONICAL_LABEL.split()
        fields[2] = value
        p = tmp_path / "label.txt"
        p.write_text(" ".join(fields) + "\n")
        (rec,) = read_labels(p)
        assert rec.occlusion == int(value) and type(rec.occlusion) is int

    @pytest.mark.parametrize("value", ["-3.0", "7.5", "1.01", "-0.01", "-1"])
    def test_truncation_outside_unit_interval_names_line(self, tmp_path, value):
        fields = CANONICAL_LABEL.split()
        fields[1] = value
        p = tmp_path / "label.txt"
        p.write_text(CANONICAL_LABEL + "\n" + " ".join(fields) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"label.txt:2: truncation must be in [0, 1] (-1 for DontCare), got '{value}'")):
            read_labels(p)

    @pytest.mark.parametrize("cls, value", [("Car", "0"), ("Car", "1"), ("Car", "0.15"),
                                            ("DontCare", "-1")])
    def test_truncation_in_range_parses(self, tmp_path, cls, value):
        fields = CANONICAL_LABEL.split()
        fields[0], fields[1] = cls, value
        p = tmp_path / "label.txt"
        p.write_text(" ".join(fields) + "\n")
        (rec,) = read_labels(p)
        assert rec.truncation == float(value) and rec.is_dontcare == (cls == "DontCare")


class TestFrameConversion:
    def test_identity_calib_yaw(self):
        calib = CalibMatrices(np.eye(3), np.eye(3, 4), np.eye(3, 4))
        rec = LabelRecord("Car", 0, 0, 0, (0, 0, 10, 10), (1.5, 1.6, 3.9), (0, 0, 0),
                          rotation_y=-np.pi / 2)
        box = camera_box_to_lidar(rec, calib)
        assert box.theta == pytest.approx(0.0)
        assert box.z == pytest.approx(0.75)

    def test_kitti_style_extrinsics_forward_depth(self):
        calib = CalibMatrices(np.eye(3), np.hstack([KITTI_STYLE_R, np.zeros((3, 1))]),
                              np.eye(3, 4))
        rec = LabelRecord("Car", 0, 0, 0, (0, 0, 10, 10), (1.5, 1.6, 3.9),
                          (0.0, 1.65, 10.0), rotation_y=0.0)
        box = camera_box_to_lidar(rec, calib)
        # scripted oracle: solve the stacked homogeneous system directly
        m = np.eye(4)
        m[:3, :3] = KITTI_STYLE_R
        expected = np.linalg.solve(m, np.array([0.0, 1.65, 10.0, 1.0]))[:3]
        assert box.x == pytest.approx(expected[0]) == pytest.approx(10.0)
        assert box.z == pytest.approx(expected[2] + 0.75)

    def test_roundtrip_lidar_camera_lidar(self):
        rng = np.random.default_rng(0)
        calib = CalibMatrices(np.eye(3), np.hstack([KITTI_STYLE_R, rng.normal(size=(3, 1))]),
                              np.eye(3, 4))
        for _ in range(20):
            box = Box3D(*rng.uniform(1, 50, 2), rng.uniform(-2, 0), *rng.uniform(1, 4, 3),
                        rng.uniform(-np.pi + 1e-6, np.pi))
            loc, ry = lidar_box_to_camera(box, calib)
            rec = LabelRecord("Car", 0, 0, 0, (0, 0, 10, 10),
                              (box.h, box.w, box.l), tuple(loc), ry)
            back = camera_box_to_lidar(rec, calib)
            np.testing.assert_allclose(back.as_array()[:6], box.as_array()[:6], atol=1e-6)
            assert abs(wrap_angle(back.theta - box.theta)) < 1e-6


class TestDetectionsFile:
    def _calib(self):
        return CalibMatrices(np.eye(3), np.hstack([KITTI_STYLE_R, np.zeros((3, 1))]),
                             np.eye(3, 4))

    def test_write_read_roundtrip(self, tmp_path):
        calib = self._calib()
        dets = [
            Detection(Box3D(12.0, 3.0, -0.8, 1.6, 3.9, 1.56, 0.3), 0.9),
            Detection(Box3D(30.0, -5.0, -1.0, 1.7, 4.2, 1.4, -1.2), 0.4),
        ]
        path = tmp_path / "result.txt"
        write_detections(path, dets, calib)
        records = read_labels(path)
        boxes, kept = labels_to_lidar_boxes(records, calib)
        assert len(boxes) == 2
        for det, box, rec in zip(dets, boxes, kept):
            np.testing.assert_allclose(box.as_array(), det.box.as_array(), atol=1e-3)
            assert rec.score == pytest.approx(det.score, abs=1e-3)

    def test_empty_detections(self, tmp_path):
        path = tmp_path / "result.txt"
        write_detections(path, [], self._calib())
        assert path.read_text() == ""

    def test_out_of_range_theta_wrapped(self):
        det = Detection(Box3D(10, 0, -1, 1.6, 3.9, 1.56, np.pi), 0.5)
        # raw inverse would give rotation_y = -3*pi/2; the written value must be wrapped
        rec = detection_to_label(det, self._calib())
        assert -np.pi < rec.rotation_y <= np.pi
        assert rec.rotation_y == pytest.approx(wrap_angle(-np.pi - np.pi / 2))


class TestCalibIO:
    def test_roundtrip(self, tmp_path):
        calib = CalibMatrices(np.eye(3), np.hstack([KITTI_STYLE_R, np.array([[0.1], [0.2], [-0.3]])]),
                              np.arange(12, dtype=float).reshape(3, 4) / 40.0)
        path = tmp_path / "calib.txt"
        write_calib(path, calib)
        back = read_calib(path)
        np.testing.assert_allclose(back.rect, calib.rect)
        np.testing.assert_allclose(back.velo_to_cam, calib.velo_to_cam)
        np.testing.assert_allclose(back.proj, calib.proj)

    @pytest.mark.parametrize("key, row, message", [
        ("P2", "1 0 0 0 0 1 0 0 0 0 1 abc", "could not convert string to float: 'abc'"),
        ("R0_rect", "1 0 0 0 1 0 0 0", "expected 9 values, got 8"),
        ("Tr_velo_to_cam", "1 0 0 0 0 1 0 0 0 0 1 nan", "values must be finite"),
        ("Tr_velo_to_cam", "1 0 0 0 0 1 0 0 0 0 1 inf", "values must be finite"),
    ])
    def test_bad_row_names_file_and_key(self, tmp_path, key, row, message):
        rows = {"P2": "1 0 0 0 0 1 0 0 0 0 1 0", "R0_rect": "1 0 0 0 1 0 0 0 1",
                "Tr_velo_to_cam": "1 0 0 0 0 1 0 0 0 0 1 0", key: row}
        path = tmp_path / "calib.txt"
        path.write_text("".join(f"{name}: {values}\n" for name, values in rows.items()))
        with pytest.raises(ValueError) as info:
            read_calib(path)
        assert str(info.value) == f"{path}: {key}: {message}"

    def test_missing_key_and_unused_rows(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P0: not numbers\nP2: 1 0 0 0 0 1 0 0 0 0 1 0\n"
                        "R0_rect: 1 0 0 0 1 0 0 0 1\n")
        with pytest.raises(ValueError, match=r"\.txt: missing calibration key 'Tr_velo_to_cam'"):
            read_calib(path)
        with path.open("a") as f:
            f.write("Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0\n")
        np.testing.assert_array_equal(read_calib(path).proj, np.eye(3, 4))

    def test_non_orthonormal_row_names_file(self, tmp_path):
        path = tmp_path / "calib.txt"
        write_calib(path, CalibMatrices(np.eye(3), np.eye(3, 4), np.eye(3, 4)))
        path.write_text(path.read_text().replace("R0_rect: 1.0", "R0_rect: 2.0"))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: rect is not orthonormal"):
            read_calib(path)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            CalibMatrices(np.eye(3) * 2.0, np.eye(3, 4), np.eye(3, 4))


class TestRowRules:
    """One row reader and one number rule serve labels, calibrations and detections."""

    def test_read_rows_skips_blank_lines_and_names_the_line(self, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_text("1 2\n\n   \n3 4\n")
        assert read_rows(p, str.split) == [["1", "2"], ["3", "4"]]

        def second(line):
            fields = line.split()
            if len(fields) < 2:
                raise ValueError("too short")
            return fields[1]

        p.write_text("1 2\n\nbad\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:3: too short")):
            read_rows(p, second)

    @pytest.mark.parametrize("reader", [read_labels, read_calib])
    def test_undecodable_line_names_file_and_line(self, tmp_path, reader):
        p = tmp_path / "rows.txt"
        p.write_bytes(CANONICAL_LABEL.encode() + b"\n" + b"Car \xff 0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{p}:2: 'utf-8' codec can't decode byte 0xff in position 4")):
            reader(p)

    def test_parse_numbers_checks_finite_then_field_rules_then_bound(self):
        def positive(vals):
            if min(vals) <= 0:
                raise ValueError("must be positive")

        assert parse_numbers(["1e100", "-0.5", "1e-320"]) == [1e100, -0.5, 1e-320]
        assert MAX_FIELD == 1e100
        for fields, message in [(["1", "nan"], "values must be finite"),
                                (["-1e200", "inf"], "values must be finite"),
                                (["-1e200", "2"], "must be positive"),
                                (["1e200", "2"], "values must be at most 1e+100 in magnitude")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                parse_numbers(fields, "values", positive)

    @pytest.mark.parametrize("field", [8, 9, 10, 11, 13])
    def test_label_field_beyond_bound_names_line(self, tmp_path, field):
        fields = CANONICAL_LABEL.split()
        fields[field] = "1e200"
        p = tmp_path / "label.txt"
        p.write_text(CANONICAL_LABEL + "\n" + " ".join(fields) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                "label.txt:2: numeric fields must be at most 1e+100 in magnitude")):
            read_labels(p)
        fields[field] = "1e100"
        p.write_text(" ".join(fields) + "\n")
        (rec,) = read_labels(p)
        assert 1e100 in rec.dims + rec.location

    def test_calib_value_beyond_bound_names_file_and_key(self, tmp_path):
        path = tmp_path / "calib.txt"
        write_calib(path, CalibMatrices(np.eye(3), np.eye(3, 4), np.eye(3, 4)))
        path.write_text(path.read_text().replace("P2: 1.000000000000e+00", "P2: 1e200"))
        with pytest.raises(ValueError) as info:
            read_calib(path)
        assert str(info.value) == f"{path}: P2: values must be at most 1e+100 in magnitude"
