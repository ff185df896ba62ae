"""Oriented 3D boxes: anchors, residual codec, rotated IoU, and NMS.

Boxes live in the LiDAR frame as (x, y, z, w, l, h, theta) with the
volumetric center at (x, y, z), length ``l`` along the heading direction,
and yaw ``theta`` measured counterclockwise about +z from +x, wrapped to
(-pi, pi]. Anchors and batches of boxes are plain (n, 7) arrays in the
same column order; :func:`decode` and :func:`encode` take such arrays whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
# relative slack on the squared reach in _circles_apart: far above the few
# ulps by which its float sums and the array prefilter in _pairwise_blocks can differ
_REACH_SLACK = 1.0 + 1e-9
# below this reach the squares underflow and lose that precision, so such
# pairs go to the exact path
_MIN_REACH = 1e-150
# near pairs per _bev_overlap call in _pairwise_blocks. The clip's scratch
# peaks near 1.1 kB a row, so a chunk stays near 2 MB, and past about 2,000
# rows its time per row levels off. Entries do not depend on it.
_CLIP_CHUNK = 2048


def wrap_angle(theta):
    """Wrap an angle (scalar or array) into (-pi, pi]; in-range values pass through."""
    t = np.asarray(theta, dtype=np.float64)
    wrapped = np.pi - np.mod(np.pi - t, TWO_PI)
    return np.where((t > -np.pi) & (t <= np.pi), t, wrapped)


@dataclass(frozen=True)
class Box3D:
    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    theta: float

    def __post_init__(self):
        if not (self.w > 0 and self.l > 0 and self.h > 0):
            raise ValueError(f"box sizes must be positive: {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.w, self.l, self.h, self.theta])

    @staticmethod
    def from_array(a) -> "Box3D":
        a = np.asarray(a, dtype=np.float64)
        return Box3D(*a[:7])


@dataclass(frozen=True)
class Detection:
    box: Box3D
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score out of range: {self.score}")


def _as_array(box) -> np.ndarray:
    return box.as_array() if isinstance(box, Box3D) else np.asarray(box, dtype=np.float64)


def bev_corners(boxes) -> np.ndarray:
    """Counterclockwise BEV rectangle corners of (..., 7) boxes or a Box3D, (..., 4, 2)."""
    b = _as_array(boxes)
    x, y, w, l, theta = (b[..., k, None] for k in (0, 1, 3, 4, 6))
    dx = l * np.array([1.0, -1.0, -1.0, 1.0]) / 2.0
    dy = w * np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([x + c * dx - s * dy, y + s * dx + c * dy], axis=-1)


def _bev_overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BEV intersection area of each row pair of two (P, 7) box arrays.

    One Sutherland-Hodgman clip of every ``a`` rectangle by its convex CCW
    ``b`` rectangle, all rows at once. Row p's polygon fills the first
    ``n[p]`` vertex slots. After each clip edge the slot count becomes the
    largest polygon in the batch: an exact clip has at most 8 vertices, but
    float sign flicker on near-degenerate pairs can emit more.
    """
    poly = bev_corners(a)
    clip = bev_corners(b)
    rows = np.arange(len(poly))[:, None]
    n = np.full(len(poly), 4)
    for i in range(4):
        ax, ay = clip[:, i, 0, None], clip[:, i, 1, None]
        ex = clip[:, (i + 1) % 4, 0, None] - ax
        ey = clip[:, (i + 1) % 4, 1, None] - ay
        slot = np.arange(poly.shape[1])
        valid = slot < n[:, None]
        prev = (rows, (slot - 1) % np.maximum(n, 1)[:, None])
        side = ex * (poly[..., 1] - ay) - ey * (poly[..., 0] - ax)
        inside = side >= 0.0
        d = poly - poly[prev]
        denom = ex * d[..., 1] - ey * d[..., 0]
        crosses = valid & (inside != inside[prev]) & (denom != 0.0)
        t = -side[prev] / np.where(crosses, denom, 1.0)
        # each vertex emits its incoming edge's crossing point, then itself if inside
        cand = np.empty(poly.shape[:2] + (2, 2))
        cand[:, :, 0] = poly[prev] + t[..., None] * d
        cand[:, :, 1] = poly
        keep = np.empty(poly.shape[:2] + (2,), dtype=bool)
        keep[:, :, 0] = crosses
        keep[:, :, 1] = valid & inside
        keep = keep.reshape(len(poly), -1)
        n = keep.sum(axis=1)
        order = np.argsort(~keep, axis=1, kind="stable")[:, : n.max(initial=0)]
        poly = cand.reshape(len(poly), -1, 2)[rows, order]
    slot = np.arange(poly.shape[1])
    nxt = poly[rows, (slot + 1) % np.maximum(n, 1)[:, None]]
    terms = np.where(slot < n[:, None],
                     poly[..., 0] * nxt[..., 1] - poly[..., 1] * nxt[..., 0], 0.0)
    # shoelace sum slot by slot, so a row's area does not depend on the batch width
    twice_area = np.zeros(len(poly))
    for k in range(poly.shape[1]):
        twice_area += terms[:, k]
    return 0.5 * np.abs(twice_area)


def bev_iou(a, b) -> float:
    """Exact rotated-rectangle IoU in the BEV plane, bit for bit the
    :func:`pairwise_bev_iou` entry. A pair whose circumscribed circles are
    clearly apart gets 0.0 from float arithmetic before any array is built."""
    if _circles_apart(a, b):
        return 0.0
    return float(_pairwise(_as_array(a), _as_array(b), bev=True)[0][0, 0])


def iou3d(a, b) -> float:
    """Volumetric IoU: rotated BEV overlap times vertical overlap, bit for bit
    the :func:`pairwise_iou3d` entry, with the far-pair shortcut of :func:`bev_iou`."""
    if _circles_apart(a, b):
        return 0.0
    return float(_pairwise(_as_array(a), _as_array(b), volumetric=True)[1][0, 0])


def _bev_disc(box):
    """(x, y, half-diagonal) of a Box3D or a flat 7-value row as Python floats, else None."""
    if isinstance(box, Box3D):
        x, y, w, l = float(box.x), float(box.y), float(box.w), float(box.l)
    else:
        row = np.asarray(box, dtype=np.float64)
        if row.shape != (7,):
            return None
        x, y, _, w, l, _, _ = row.tolist()
    return x, y, 0.5 * math.hypot(w, l)


def _circles_apart(a, b) -> bool:
    """Whether two single boxes' circumscribed BEV circles are clearly apart.

    Compares the squared centre distance with the squared reach (the sum of
    the half-diagonals) times ``_REACH_SLACK``, so True only where the
    prefilter in :func:`_pairwise_blocks` drops the pair too. Other inputs, NaNs,
    an overflowed squared reach and a reach below ``_MIN_REACH`` give False.
    """
    disc_a, disc_b = _bev_disc(a), _bev_disc(b)
    if disc_a is None or disc_b is None:
        return False
    dx, dy = disc_a[0] - disc_b[0], disc_a[1] - disc_b[1]
    reach = disc_a[2] + disc_b[2]
    return reach > _MIN_REACH and dx * dx + dy * dy > reach * reach * _REACH_SLACK


def pairwise_bev_iou(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """(N, M) rotated BEV IoU matrix; the one-block case of
    :func:`blockwise_bev_and_3d_iou`, with its prefilter and clip."""
    return _pairwise(boxes_a, boxes_b, bev=True)[0]


def pairwise_iou3d(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """(N, M) volumetric IoU matrix; the one-block case of :func:`blockwise_bev_and_3d_iou`."""
    return _pairwise(boxes_a, boxes_b, volumetric=True)[1]


def pairwise_bev_and_3d_iou(boxes_a: np.ndarray, boxes_b: np.ndarray):
    """The (N, M) BEV and 3D IoU matrices from one clip of each prefiltered pair.

    Each equals :func:`pairwise_bev_iou` or :func:`pairwise_iou3d` bit for bit.
    """
    return _pairwise(boxes_a, boxes_b, bev=True, volumetric=True)


def blockwise_bev_and_3d_iou(blocks) -> list:
    """Per (boxes_a, boxes_b) block, its :func:`pairwise_bev_and_3d_iou` pair,
    bit for bit, from one clip of every block's near pairs, in fixed chunks."""
    return _pairwise_blocks(blocks, bev=True, volumetric=True)


def overlaps_any(box: Box3D, boxes) -> bool:
    """Whether ``box`` has a positive BEV IoU with any of ``boxes`` (placement test)."""
    return bool(boxes) and bool(pairwise_bev_iou(
        box.as_array()[None], np.stack([b.as_array() for b in boxes])).max() > 0.0)


def _pairwise(boxes_a, boxes_b, bev: bool = False, volumetric: bool = False):
    """The BEV and the 3D IoU matrix of one block, each None unless asked for."""
    return _pairwise_blocks([(boxes_a, boxes_b)], bev, volumetric)[0]


def _pairwise_blocks(blocks, bev: bool = False, volumetric: bool = False) -> list:
    """Per (boxes_a, boxes_b) block, its BEV and its 3D IoU matrix, each None
    unless asked for.

    Each block keeps only the pairs whose circumscribed BEV circles meet.
    Those of all blocks are clipped together, at most ``_CLIP_CHUNK`` rows
    per :func:`_bev_overlap` call, and each clip serves both kinds. The
    kernel sums each row's area slot by slot, so an entry does not depend on
    which blocks or chunks share its clip. The matrices are views into one
    buffer per kind.
    """
    if not blocks:
        return []
    near_a, near_b, flat, shapes = [], [], [], []
    size = 0
    for boxes_a, boxes_b in blocks:
        boxes_a = np.atleast_2d(np.asarray(boxes_a, dtype=np.float64))
        boxes_b = np.atleast_2d(np.asarray(boxes_b, dtype=np.float64))
        rad_a = 0.5 * np.hypot(boxes_a[:, 3], boxes_a[:, 4])
        rad_b = 0.5 * np.hypot(boxes_b[:, 3], boxes_b[:, 4])
        dist = np.hypot(
            boxes_a[:, 0, None] - boxes_b[None, :, 0],
            boxes_a[:, 1, None] - boxes_b[None, :, 1],
        )
        rows, cols = np.nonzero(dist <= rad_a[:, None] + rad_b[None, :])
        near_a.append(boxes_a[rows])
        near_b.append(boxes_b[cols])
        flat.append(size + rows * len(boxes_b) + cols)
        shapes.append((len(boxes_a), len(boxes_b)))
        size += len(boxes_a) * len(boxes_b)
    a, b, flat = _joined(near_a), _joined(near_b), _joined(flat)
    inter = _joined([_bev_overlap(a[lo : lo + _CLIP_CHUNK], b[lo : lo + _CLIP_CHUNK])
                     for lo in range(0, len(a), _CLIP_CHUNK)] or [np.zeros(0)])
    size_a, size_b = a[:, 3] * a[:, 4], b[:, 3] * b[:, 4]
    out_bev = np.zeros(size) if bev else None
    out_3d = np.zeros(size) if volumetric else None
    if bev:
        _scatter_iou(out_bev, flat, inter, size_a, size_b)
    if volumetric:
        z_overlap = (np.minimum(a[:, 2] + a[:, 5] / 2, b[:, 2] + b[:, 5] / 2)
                     - np.maximum(a[:, 2] - a[:, 5] / 2, b[:, 2] - b[:, 5] / 2))
        _scatter_iou(out_3d, flat, inter * np.maximum(z_overlap, 0.0),
                     size_a * a[:, 5], size_b * b[:, 5])
    out, start = [], 0
    for n, m in shapes:
        stop = start + n * m
        out.append((out_bev[start:stop].reshape(n, m) if bev else None,
                    out_3d[start:stop].reshape(n, m) if volumetric else None))
        start = stop
    return out


def _joined(parts):
    """``np.concatenate(parts)``, without the copy when there is one part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _scatter_iou(out, flat, inter, size_a, size_b):
    """Write each pair's intersection over union at its ``flat`` index of
    ``out``; degenerate pairs stay 0."""
    union = size_a + size_b - inter
    ok = (size_a > 0.0) & (size_b > 0.0) & (union > 0.0)
    out[flat[ok]] = np.clip(inter[ok] / union[ok], 0.0, 1.0)


def points_in_bev_rect(xy: np.ndarray, box) -> np.ndarray:
    """Boolean mask of points inside the box's BEV rectangle (boundary inclusive)."""
    b = _as_array(box)
    xy = np.atleast_2d(xy)
    c, s = np.cos(b[6]), np.sin(b[6])
    dx = xy[:, 0] - b[0]
    dy = xy[:, 1] - b[1]
    local_x = dx * c + dy * s
    local_y = -dx * s + dy * c
    return (np.abs(local_x) <= b[4] / 2.0) & (np.abs(local_y) <= b[3] / 2.0)


def points_in_box3d(xyz: np.ndarray, box) -> np.ndarray:
    """Boolean mask of points inside the oriented 3D box."""
    b = _as_array(box)
    xyz = np.atleast_2d(xyz)
    return points_in_bev_rect(xyz[:, :2], b) & (np.abs(xyz[:, 2] - b[2]) <= b[5] / 2.0)


# -- residual codec ------------------------------------------------------------


def encode(gt, anchor) -> np.ndarray:
    """Regression residuals of a ground-truth box relative to an anchor.

    Centers are normalized by the anchor's BEV diagonal (z by its height);
    sizes are log ratios; yaw is a plain difference.
    """
    g = _as_array(gt)
    a = _as_array(anchor)
    d = np.sqrt(a[..., 3] ** 2 + a[..., 4] ** 2)
    return np.stack(
        [
            (g[..., 0] - a[..., 0]) / d,
            (g[..., 1] - a[..., 1]) / d,
            (g[..., 2] - a[..., 2]) / a[..., 5],
            np.log(g[..., 3] / a[..., 3]),
            np.log(g[..., 4] / a[..., 4]),
            np.log(g[..., 5] / a[..., 5]),
            g[..., 6] - a[..., 6],
        ],
        axis=-1,
    )


def direction_bit(theta) -> np.ndarray:
    """Discretized heading bin: 1 iff the wrapped yaw is non-negative."""
    return (wrap_angle(theta) >= 0.0).astype(np.int64)


def decode(residuals, anchor, bit=None) -> np.ndarray:
    """Invert :func:`encode`; an inconsistent direction bit flips yaw by pi.

    Returns a (..., 7) array; use :class:`Box3D` to wrap single rows.
    """
    r = np.asarray(residuals, dtype=np.float64)
    a = _as_array(anchor)
    d = np.sqrt(a[..., 3] ** 2 + a[..., 4] ** 2)
    theta = wrap_angle(a[..., 6] + r[..., 6])
    if bit is not None:
        flip = np.asarray(bit) != (theta >= 0.0)
        theta = np.where(flip, wrap_angle(theta + np.pi), theta)
    return np.stack(
        [
            r[..., 0] * d + a[..., 0],
            r[..., 1] * d + a[..., 1],
            r[..., 2] * a[..., 5] + a[..., 2],
            np.exp(r[..., 3]) * a[..., 3],
            np.exp(r[..., 4]) * a[..., 4],
            np.exp(r[..., 5]) * a[..., 5],
            theta,
        ],
        axis=-1,
    )


# -- anchors ---------------------------------------------------------------------


def build_anchor_grid(x_min: float, y_min: float, n_x: int, n_y: int, cell_size,
                      size=(1.6, 3.9, 1.56), z_center: float = -1.0,
                      orientations=(0.0, np.pi / 2)) -> np.ndarray:
    """Anchors at BEV cell centers, one per orientation, as an (n_y * n_x * A, 7) array.

    ``cell_size`` is one edge for square cells or an (x, y) pair. Rows run in
    (iy, ix, anchor) order, so ``reshape(n_y, n_x, A, 7)`` lines them up with
    a (H=y, W=x) head map: anchor ``a`` at cell (iy, ix) owns class channel
    ``a``, box channels ``7a .. 7a+6`` and direction channels ``2a, 2a+1``.
    """
    w, l, h = size
    cell_x, cell_y = np.broadcast_to(cell_size, 2)
    xs = x_min + (np.arange(n_x) + 0.5) * cell_x
    ys = y_min + (np.arange(n_y) + 0.5) * cell_y
    boxes = np.empty((n_y, n_x, len(orientations), 7))
    boxes[..., 0] = xs[None, :, None]
    boxes[..., 1] = ys[:, None, None]
    boxes[..., 2] = z_center
    boxes[..., 3] = w
    boxes[..., 4] = l
    boxes[..., 5] = h
    boxes[..., 6] = np.asarray(orientations)[None, None, :]
    return boxes.reshape(-1, 7)


# -- NMS -------------------------------------------------------------------------


def nms_candidates(scores, threshold: float, top_k: int) -> np.ndarray:
    """Indices of the scores >= ``threshold``, at most ``top_k`` of them,
    highest first; equal scores keep their input order. The candidate rule
    of ``VehicleDetector.detect`` and ``voxeldet nms``."""
    scores = np.asarray(scores)
    idx = np.flatnonzero(scores >= threshold)
    return idx[np.argsort(-scores[idx], kind="stable")[:top_k]]


def oriented_nms(detections, iou_threshold: float = 0.05):
    """Greedy descending-score suppression with rotated BEV IoU.

    Score ties keep the earlier detection, so a :func:`nms_candidates` list
    keeps its order. Returns the kept detections in descending score order.
    Each candidate calls :func:`bev_iou` once per kept detection it is tested
    against, until one suppresses it; the benchmark pins that per-pair call
    count, so there is no whole-matrix pass here. Far pairs cost no array
    work, since :func:`bev_iou` answers them from floats.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold out of range: {iou_threshold}")
    dets = list(detections)
    if not dets:
        return []
    scores = np.array([d.score for d in dets])
    order = np.argsort(-scores, kind="stable")
    kept: list[int] = []
    for idx in order:
        box = dets[idx].box
        if all(bev_iou(box, dets[k].box) <= iou_threshold for k in kept):
            kept.append(idx)
    return [dets[k] for k in kept]
