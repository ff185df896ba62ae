"""Average precision and orientation similarity under the KITTI protocol.

Ground truths are stratified into easy/moderate/hard by image-box height,
occlusion and truncation; detections are matched greedily per frame over
one rotated-IoU matrix (volumetric or BEV) at a fixed threshold. Precision
is sampled on an 11-point (or 40-point) interpolated envelope. Orientation
quality replaces precision with the mean (1 + cos(dtheta)) / 2 over true
positives, false positives contributing zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .box_geom import pairwise_bev_iou, pairwise_iou3d, wrap_angle
# not called here; bound because the traced benchmark wraps eval_metrics.bev_iou/iou3d
from .box_geom import bev_iou, iou3d  # noqa: F401

CAR_IOU_THRESHOLD = 0.7


@dataclass(frozen=True)
class DifficultyRule:
    min_bbox_height: float
    max_occlusion: int
    max_truncation: float


DIFFICULTY_RULES = {
    "easy": DifficultyRule(40.0, 0, 0.15),
    "moderate": DifficultyRule(25.0, 1, 0.30),
    "hard": DifficultyRule(25.0, 2, 0.50),
}


@dataclass
class FrameGroundTruth:
    """LiDAR-frame boxes plus the label metadata evaluation needs."""

    boxes: list          # Box3D, class of interest only
    heights: np.ndarray  # image bbox heights (px), parallel to boxes
    occlusions: np.ndarray
    truncations: np.ndarray
    ignored_boxes: list = field(default_factory=list)  # other classes; DontCare rows are dropped


@dataclass
class FrameDetections:
    boxes: list
    scores: np.ndarray


def stratify(gt: FrameGroundTruth) -> dict[str, np.ndarray]:
    """Per difficulty, a boolean include-mask over the frame's ground truths.

    Ground truths failing a stratum's rule are ignored for that stratum:
    they are not counted as targets and detections matching them are not
    penalized.
    """
    out = {}
    for name, rule in DIFFICULTY_RULES.items():
        out[name] = (
            (gt.heights >= rule.min_bbox_height)
            & (gt.occlusions <= rule.max_occlusion)
            & (gt.truncations <= rule.max_truncation)
        )
    return out


def _box_array(boxes) -> np.ndarray:
    """(n, 7) array of Box3D rows; (0, 7) when there are none."""
    return np.array([b.as_array() for b in boxes], dtype=np.float64).reshape(-1, 7)


def _frame_ious(detections: FrameDetections, gt: FrameGroundTruth, pairwise_fn) -> np.ndarray:
    """(dets x columns) IoU matrix; columns are ``gt.boxes`` then ``gt.ignored_boxes``."""
    columns = list(gt.boxes) + list(gt.ignored_boxes)
    return pairwise_fn(_box_array(detections.boxes), _box_array(columns))


def _greedy_match(detections: FrameDetections, ious, target, target_theta, threshold):
    """Greedy pass over one frame's IoU matrix.

    ``target`` marks the columns that may be matched (``target_theta`` holds
    their yaws in column order); every other column is an ignore region.
    A detection takes the unmatched target with the highest IoU >= threshold,
    the last such column on a tie.
    """
    order = np.argsort(-np.asarray(detections.scores), kind="stable")
    hits = ious[:, target]
    hits = np.where(hits >= threshold, hits, -np.inf)
    near_ignored = (ious[:, ~target] >= threshold).any(axis=1)
    kinds, deltas = [], []
    for di in order:
        best = hits[di].max(initial=-np.inf)
        if best > -np.inf:
            gi = np.flatnonzero(hits[di] == best)[-1]
            hits[:, gi] = -np.inf
            kinds.append("tp")
            deltas.append(float(wrap_angle(detections.boxes[di].theta - target_theta[gi])))
            continue
        kinds.append("ignored" if near_ignored[di] else "fp")
        deltas.append(0.0)
    return kinds, deltas, order


@dataclass
class RankedMatches:
    """Score-ranked detection outcomes accumulated over all frames."""

    scores: np.ndarray
    is_tp: np.ndarray
    is_fp: np.ndarray
    similarities: np.ndarray   # (1 + cos(dtheta)) / 2 for TPs, 0 otherwise
    n_gt: int

    def sorted_by_score(self) -> "RankedMatches":
        order = np.argsort(-self.scores, kind="stable")
        return RankedMatches(self.scores[order], self.is_tp[order], self.is_fp[order],
                             self.similarities[order], self.n_gt)


def _pool_matches(frames, matrices, include_masks, threshold) -> RankedMatches:
    """Match every frame on its IoU matrix and pool the outcomes into one ranking."""
    scores, is_tp, is_fp, sims = [], [], [], []
    n_gt = 0
    for (dets, gt), ious, mask in zip(frames, matrices, include_masks):
        mask = np.asarray(mask, dtype=bool)
        target = np.concatenate([mask, np.zeros(len(gt.ignored_boxes), dtype=bool)])
        theta = [b.theta for b, m in zip(gt.boxes, mask) if m]
        n_gt += len(theta)
        kinds, deltas, order = _greedy_match(dets, ious, target, theta, threshold)
        for kind, delta, di in zip(kinds, deltas, order):
            if kind == "ignored":
                continue
            scores.append(float(dets.scores[di]))
            is_tp.append(kind == "tp")
            is_fp.append(kind == "fp")
            sims.append((1.0 + np.cos(delta)) / 2.0 if kind == "tp" else 0.0)
    return RankedMatches(
        np.asarray(scores, dtype=np.float64),
        np.asarray(is_tp, dtype=bool),
        np.asarray(is_fp, dtype=bool),
        np.asarray(sims, dtype=np.float64),
        n_gt,
    ).sorted_by_score()


def accumulate_matches(frames, pairwise_fn) -> RankedMatches:
    """Match every frame at the Car IoU threshold and pool the outcomes into
    one global ranking.

    ``frames`` is a sequence of (FrameDetections, FrameGroundTruth);
    ``pairwise_fn`` is ``pairwise_iou3d`` or ``pairwise_bev_iou``.
    """
    include_all = [np.ones(len(gt.boxes), dtype=bool) for _, gt in frames]
    matrices = [_frame_ious(dets, gt, pairwise_fn) for dets, gt in frames]
    return _pool_matches(frames, matrices, include_all, CAR_IOU_THRESHOLD)


def _recall_samples(mode: str) -> np.ndarray:
    if mode == "R11":
        return np.linspace(0.0, 1.0, 11)
    if mode == "R40":
        return np.arange(1, 41) / 40.0
    raise ValueError(f"unknown AP mode {mode!r}")


def _interpolated(numerators: np.ndarray, matches: RankedMatches, mode: str):
    """Interpolated cumulative ratio in percent; None when there are no ground truths.

    At each rank the ratio is the running sum of ``numerators`` over the
    running count of TPs and FPs. Per sampled recall r, the envelope is the
    best ratio at any rank whose recall reaches r (0 when none does).
    """
    if matches.n_gt == 0:
        return None
    counted = np.cumsum(matches.is_tp | matches.is_fp)
    ratio = np.cumsum(numerators) / np.maximum(counted, 1)
    recall = np.cumsum(matches.is_tp) / matches.n_gt
    # recall never falls along the ranking, so the ranks reaching r form a suffix
    envelope = np.append(np.maximum.accumulate(ratio[::-1])[::-1], 0.0)
    first = np.searchsorted(recall, _recall_samples(mode) - 1e-12)
    return float(np.mean(envelope[first]) * 100.0)


def average_precision(matches: RankedMatches, mode: str = "R11"):
    """Interpolated AP in percent; None when there are no ground truths."""
    return _interpolated(matches.is_tp, matches, mode)


def aos(matches: RankedMatches, mode: str = "R11"):
    """AP-style orientation similarity in percent over the same ranking."""
    return _interpolated(matches.similarities, matches, mode)


@dataclass
class EvalResult:
    """AP (3D and BEV) plus AOS per difficulty stratum, in percent."""

    ap_3d: dict
    ap_bev: dict
    aos: dict

    def as_flat_dict(self) -> dict[str, float | None]:
        out = {}
        for name in self.ap_3d:
            out[f"ap_3d_{name}"] = self.ap_3d[name]
            out[f"ap_bev_{name}"] = self.ap_bev[name]
            out[f"aos_{name}"] = self.aos[name]
        return out


def evaluate_frames(frames, mode: str = "R11", threshold: float = CAR_IOU_THRESHOLD) -> EvalResult:
    """Full protocol: stratify, match in 3D and BEV, sample AP and AOS.

    Each frame's 3D and BEV IoU matrices are computed once and shared by
    every stratum. AOS shares the BEV-matched ranking, so aos <= ap_bev
    stratum by stratum.
    """
    strata = [stratify(gt) for _, gt in frames]
    ious_3d = [_frame_ious(dets, gt, pairwise_iou3d) for dets, gt in frames]
    ious_bev = [_frame_ious(dets, gt, pairwise_bev_iou) for dets, gt in frames]
    ap_3d, ap_bev, aos_out = {}, {}, {}
    for name in DIFFICULTY_RULES:
        masks = [s[name] for s in strata]
        m3d = _pool_matches(frames, ious_3d, masks, threshold)
        mbev = _pool_matches(frames, ious_bev, masks, threshold)
        ap_3d[name] = average_precision(m3d, mode)
        ap_bev[name] = average_precision(mbev, mode)
        aos_out[name] = aos(mbev, mode)
    return EvalResult(ap_3d, ap_bev, aos_out)


def format_report(result: EvalResult) -> str:
    """Plain-text table: difficulties as rows, 3D / BEV / orientation columns."""

    def cell(v):
        return "  absent" if v is None else f"{v:8.2f}"

    lines = [
        "difficulty      AP_3D   AP_BEV      AOS",
        "-" * 40,
    ]
    for name in result.ap_3d:
        lines.append(
            f"{name:<10}{cell(result.ap_3d[name])} {cell(result.ap_bev[name])} "
            f"{cell(result.aos[name])}"
        )
    return "\n".join(lines) + "\n"


def format_machine_report(result: EvalResult) -> str:
    lines = []
    for key, value in result.as_flat_dict().items():
        lines.append(f"{key} = {'absent' if value is None else f'{value:.6f}'}")
    return "\n".join(lines) + "\n"
