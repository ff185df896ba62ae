"""Average precision and orientation similarity under the KITTI protocol.

Ground truths are stratified into easy/moderate/hard by image-box height,
occlusion and truncation. Per frame, one rotated clip of every nearby
detection-box pair gives both the volumetric and the BEV IoU matrix, and
detections are matched greedily over one of them at a fixed threshold: the
score-ordered loop visits only detections that reach a target, and the
rest are classed in array passes. Precision is sampled on an 11-point (or
40-point) interpolated envelope. Orientation quality replaces precision
with the mean (1 + cos(dtheta)) / 2 over true positives, false positives
contributing zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .box_geom import pairwise_bev_and_3d_iou, wrap_angle
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


@dataclass
class _RankedFrames:
    """Every frame's detections in stable descending-score order, built once
    and shared by every stratum and IoU kind."""

    scores: np.ndarray  # all frames' detections, frame by frame, each in score order
    theta: np.ndarray   # their yaws, in the same order
    ious: list          # per frame, a tuple of IoU matrices with rows in score order
    gt_theta: list      # per frame, the yaws of gt.boxes


def _rank_frames(frames, pairwise_fn) -> _RankedFrames:
    """Order each frame's detections by score and compute its IoU matrices.

    ``pairwise_fn(dets, columns)`` returns a tuple of matrices; the columns
    are ``gt.boxes`` then ``gt.ignored_boxes``.
    """
    # the empty first parts keep np.concatenate defined when there are no frames
    scores, theta, ious, gt_theta = [np.zeros(0)], [np.zeros(0)], [], []
    for dets, gt in frames:
        order = np.argsort(-np.asarray(dets.scores), kind="stable")
        boxes = _box_array(dets.boxes)[order]
        columns = _box_array(list(gt.boxes) + list(gt.ignored_boxes))
        scores.append(np.asarray(dets.scores, dtype=np.float64)[order])
        theta.append(boxes[:, 6])
        ious.append(pairwise_fn(boxes, columns))
        gt_theta.append(columns[: len(gt.boxes), 6])
    return _RankedFrames(np.concatenate(scores), np.concatenate(theta), ious, gt_theta)


def _greedy_match(ious, target, threshold):
    """Greedy pass over one frame's IoU matrix, rows in score order.

    ``target`` marks the columns that may be matched; every other column is
    an ignore region. Row by row, a detection takes the unmatched target
    with the highest IoU >= threshold, the last such column on a tie. Only
    rows with some target IoU >= threshold can match, so only they enter
    the loop. Returns each row's matched index among the target columns
    (-1 for none) and whether it reaches an ignore region.
    """
    reached = ious >= threshold
    near_ignored = reached[:, ~target].any(axis=1)
    matched = np.full(len(ious), -1)
    rows = np.flatnonzero(reached[:, target].any(axis=1))
    hits = np.where(reached[rows][:, target], ious[rows][:, target], -np.inf)
    for k, di in enumerate(rows):
        best = hits[k].max()
        if best > -np.inf:
            gi = np.flatnonzero(hits[k] == best)[-1]
            hits[k + 1 :, gi] = -np.inf
            matched[di] = gi
    return matched, near_ignored


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


def _pool_matches(ranked: _RankedFrames, kind: int, include_masks, threshold) -> RankedMatches:
    """Match every frame on its ``kind``-th IoU matrix and pool the outcomes
    into one ranking. Detections that match nothing but reach an ignore
    region leave the ranking; the rest are false positives."""
    is_tp, counted, target_theta = [np.zeros(0, dtype=bool)], [np.zeros(0, dtype=bool)], []
    n_gt = 0
    for ious, gt_theta, mask in zip(ranked.ious, ranked.gt_theta, include_masks):
        mask = np.asarray(mask, dtype=bool)
        target = np.zeros(ious[kind].shape[1], dtype=bool)
        target[: len(mask)] = mask
        n_gt += int(mask.sum())
        matched, near_ignored = _greedy_match(ious[kind], target, threshold)
        hit = matched >= 0
        is_tp.append(hit)
        counted.append(hit | ~near_ignored)
        target_theta.append(gt_theta[mask][matched[hit]])
    is_tp, counted = np.concatenate(is_tp), np.concatenate(counted)
    delta = wrap_angle(ranked.theta[is_tp] - np.concatenate([np.zeros(0), *target_theta]))
    similarities = np.zeros(len(is_tp))
    similarities[is_tp] = (1.0 + np.cos(delta)) / 2.0
    return RankedMatches(ranked.scores[counted], is_tp[counted], ~is_tp[counted],
                         similarities[counted], n_gt).sorted_by_score()


def accumulate_matches(frames, pairwise_fn) -> RankedMatches:
    """Match every frame at the Car IoU threshold and pool the outcomes into
    one global ranking.

    ``frames`` is a sequence of (FrameDetections, FrameGroundTruth);
    ``pairwise_fn`` is ``pairwise_iou3d`` or ``pairwise_bev_iou``.
    """
    include_all = [np.ones(len(gt.boxes), dtype=bool) for _, gt in frames]
    ranked = _rank_frames(frames, lambda dets, columns: (pairwise_fn(dets, columns),))
    return _pool_matches(ranked, 0, include_all, CAR_IOU_THRESHOLD)


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

    Each frame's detections are put in score order once, and one rotated
    clip of its detection-box pairs gives both its BEV and its 3D IoU
    matrix; every stratum shares them. AOS shares the BEV-matched ranking,
    so aos <= ap_bev stratum by stratum.
    """
    strata = [stratify(gt) for _, gt in frames]
    ranked = _rank_frames(frames, pairwise_bev_and_3d_iou)
    ap_3d, ap_bev, aos_out = {}, {}, {}
    for name in DIFFICULTY_RULES:
        masks = [s[name] for s in strata]
        mbev = _pool_matches(ranked, 0, masks, threshold)
        m3d = _pool_matches(ranked, 1, masks, threshold)
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
