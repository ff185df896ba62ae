"""KITTI-format file I/O and camera/LiDAR box-frame conversion.

Coordinate frames follow the dataset convention:
    camera:  x right, y down, z forward; boxes yaw about y (rotation_y),
             box origin at the bottom-face center
    LiDAR:   x forward, y left, z up; boxes yaw about z, volumetric center

Point clouds are headerless little-endian float32 quadruples
(x, y, z, intensity); labels, calibrations and results are the usual
space-separated text files.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .box_geom import Box3D, wrap_angle

log = logging.getLogger(__name__)

POINT_RECORD_BYTES = 16
_ORTHO_TOL = 1e-4
# value count of each calibration row read, in CalibMatrices field order
_CALIB_SIZES = {"R0_rect": 9, "Tr_velo_to_cam": 12, "P2": 12}


@dataclass(frozen=True)
class PointCloud:
    """(n, 4) float64 array of x, y, z, intensity."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 4)
        object.__setattr__(self, "points", pts)

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]


@dataclass(frozen=True)
class CalibMatrices:
    """Rectification rotation, LiDAR-to-camera rigid transform, projection."""

    rect: np.ndarray          # 3x3 R0_rect
    velo_to_cam: np.ndarray   # 3x4 [R | t]
    proj: np.ndarray          # 3x4 P2

    def __post_init__(self):
        rect = np.asarray(self.rect, dtype=np.float64).reshape(3, 3)
        v2c = np.asarray(self.velo_to_cam, dtype=np.float64).reshape(3, 4)
        proj = np.asarray(self.proj, dtype=np.float64).reshape(3, 4)
        for name, rot in (("rect", rect), ("velo_to_cam rotation", v2c[:, :3])):
            if not np.allclose(rot @ rot.T, np.eye(3), atol=_ORTHO_TOL):
                raise ValueError(f"{name} is not orthonormal within {_ORTHO_TOL}")
        object.__setattr__(self, "rect", rect)
        object.__setattr__(self, "velo_to_cam", v2c)
        object.__setattr__(self, "proj", proj)

    def lidar_to_rect(self, xyz: np.ndarray) -> np.ndarray:
        xyz = np.atleast_2d(xyz)
        return (self.rect @ (self.velo_to_cam[:, :3] @ xyz.T + self.velo_to_cam[:, 3:4])).T

    def rect_to_lidar(self, xyz: np.ndarray) -> np.ndarray:
        xyz = np.atleast_2d(xyz)
        try:
            cam = np.linalg.solve(self.rect, xyz.T)
            velo = np.linalg.solve(self.velo_to_cam[:, :3], cam - self.velo_to_cam[:, 3:4])
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular calibration matrices") from exc
        return velo.T


@dataclass(frozen=True)
class LabelRecord:
    cls: str
    truncation: float
    occlusion: int
    alpha: float
    bbox: tuple[float, float, float, float]   # left, top, right, bottom (px)
    dims: tuple[float, float, float]          # h, w, l (m)
    location: tuple[float, float, float]      # camera frame (m)
    rotation_y: float
    score: float | None = None

    @property
    def is_dontcare(self) -> bool:
        return self.cls == "DontCare"

    @property
    def bbox_height(self) -> float:
        return self.bbox[3] - self.bbox[1]


def read_point_cloud(path) -> PointCloud:
    """Decode a headerless float32 LiDAR scan; drops non-finite records."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) % POINT_RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: truncated record, file length {len(raw)} is not a multiple of "
            f"{POINT_RECORD_BYTES} bytes"
        )
    pts = np.frombuffer(raw, dtype="<f4").reshape(-1, 4).astype(np.float64)
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        log.warning("%s: rejected %d non-finite point records (first at index %d)",
                    path, len(bad), bad[0])
        pts = pts[finite]
    return PointCloud(pts)


def write_point_cloud(path, cloud: PointCloud):
    with open(path, "wb") as f:
        f.write(np.ascontiguousarray(cloud.points, dtype="<f4").tobytes())


def _parse_label_line(line: str) -> LabelRecord:
    fields = line.split()
    if len(fields) not in (15, 16):
        raise ValueError(f"expected 15 or 16 fields, got {len(fields)}")
    cls = fields[0]
    vals = [float(v) for v in fields[1:]]
    if not np.isfinite(vals).all():
        raise ValueError("numeric fields must be finite")
    if not (vals[1].is_integer() and -1 <= vals[1] <= 3):   # -1: DontCare
        raise ValueError(f"occlusion must be an integer in -1..3, got {fields[2]!r}")
    if not (0.0 <= vals[0] <= 1.0 or vals[0] == -1.0 and cls == "DontCare"):
        raise ValueError(f"truncation must be in [0, 1] (-1 for DontCare), got {fields[1]!r}")
    rec = LabelRecord(
        cls=cls,
        truncation=vals[0],
        occlusion=int(vals[1]),
        alpha=vals[2],
        bbox=tuple(vals[3:7]),
        dims=tuple(vals[7:10]),
        location=tuple(vals[10:13]),
        rotation_y=vals[13],
        score=vals[14] if len(vals) == 15 else None,
    )
    if not rec.is_dontcare:
        left, top, right, bottom = rec.bbox
        if not (right > left and bottom > top):
            raise ValueError(f"degenerate image bbox {rec.bbox}")
        if not all(d > 0 for d in rec.dims):
            raise ValueError(f"non-positive box dims {rec.dims}")
    return rec


def read_labels(path) -> list[LabelRecord]:
    """One record per non-empty line; DontCare rows are kept and flagged.

    Truncation must lie in [0, 1] (-1 only on a DontCare row) and occlusion
    be an integer in -1..3. A malformed line raises ValueError prefixed
    with ``<path>:<line>:``.
    """
    records = []
    with open(path, "r") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                records.append(_parse_label_line(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return records


def format_label_line(rec: LabelRecord) -> str:
    parts = [
        rec.cls,
        f"{rec.truncation:.2f}",
        str(rec.occlusion),
        f"{rec.alpha:.4f}",
        *(f"{v:.2f}" for v in rec.bbox),
        *(f"{v:.4f}" for v in rec.dims),
        *(f"{v:.4f}" for v in rec.location),
        f"{rec.rotation_y:.4f}",
    ]
    if rec.score is not None:
        parts.append(f"{rec.score:.4f}")
    return " ".join(parts)


def write_labels(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(format_label_line(rec) + "\n")


def read_calib(path) -> CalibMatrices:
    """Read the ``P2``, ``R0_rect`` and ``Tr_velo_to_cam`` rows; other keys are skipped.

    A missing key, a field that is not a number, a wrong value count or a
    non-finite value raises ValueError prefixed with ``<path>: <key>:``; a
    rotation that is not orthonormal raises one prefixed with ``<path>:``.
    """
    rows = {}
    with open(path, "r") as f:
        for line in f:
            key, _, value = line.partition(":")
            rows[key.strip()] = value.split()
    matrices = []
    for key, size in _CALIB_SIZES.items():
        if key not in rows:
            raise ValueError(f"{path}: missing calibration key {key!r}")
        try:
            values = np.array([float(v) for v in rows[key]])
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}") from None
        if values.size != size:
            raise ValueError(f"{path}: {key}: expected {size} values, got {values.size}")
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: {key}: values must be finite")
        matrices.append(values)
    try:
        return CalibMatrices(*matrices)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_calib(path, calib: CalibMatrices):
    with open(path, "w") as f:
        f.write("P2: " + " ".join(f"{v:.12e}" for v in calib.proj.reshape(-1)) + "\n")
        f.write("R0_rect: " + " ".join(f"{v:.12e}" for v in calib.rect.reshape(-1)) + "\n")
        f.write("Tr_velo_to_cam: "
                + " ".join(f"{v:.12e}" for v in calib.velo_to_cam.reshape(-1)) + "\n")


# -- box frame conversion --------------------------------------------------------


def camera_box_to_lidar(label: LabelRecord, calib: CalibMatrices) -> Box3D:
    """Lift a camera-frame label to a LiDAR-frame volumetric-center box."""
    h, w, l = label.dims
    bottom_center = calib.rect_to_lidar(np.array(label.location))[0]
    theta = wrap_angle(-label.rotation_y - np.pi / 2)
    return Box3D(
        x=bottom_center[0],
        y=bottom_center[1],
        z=bottom_center[2] + h / 2.0,
        w=w,
        l=l,
        h=h,
        theta=float(theta),
    )


def lidar_box_to_camera(box: Box3D, calib: CalibMatrices) -> tuple[np.ndarray, float]:
    """Inverse of :func:`camera_box_to_lidar`: bottom-center location + rotation_y."""
    bottom = np.array([box.x, box.y, box.z - box.h / 2.0])
    location = calib.lidar_to_rect(bottom)[0]
    rotation_y = float(wrap_angle(-box.theta - np.pi / 2))
    return location, rotation_y


def detection_to_label(det, calib: CalibMatrices) -> LabelRecord:
    location, rotation_y = lidar_box_to_camera(det.box, calib)
    alpha = float(wrap_angle(rotation_y - np.arctan2(location[0], location[2])))
    return LabelRecord(
        cls="Car",
        truncation=0.0,
        occlusion=0,
        alpha=alpha,
        bbox=(0.0, 0.0, 50.0, 50.0),
        dims=(det.box.h, det.box.w, det.box.l),
        location=tuple(location),
        rotation_y=rotation_y,
        score=float(det.score),
    )


def write_detections(path, detections, calib: CalibMatrices):
    """Emit detections as 16-field camera-frame KITTI result lines.

    The image bbox is a placeholder (no camera projection here).
    """
    with open(path, "w") as f:
        for det in detections:
            f.write(format_label_line(detection_to_label(det, calib)) + "\n")


def labels_to_lidar_boxes(records, calib: CalibMatrices) -> tuple[list[Box3D], list[LabelRecord]]:
    """Convert non-DontCare labels to LiDAR boxes, keeping record metadata."""
    boxes, kept = [], []
    for rec in records:
        if rec.is_dontcare:
            continue
        # one solve per label: a batched solve's bits differ from the per-row ones
        boxes.append(camera_box_to_lidar(rec, calib))
        kept.append(rec)
    return boxes, kept
