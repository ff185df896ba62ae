"""Average precision and orientation similarity under the KITTI protocol.

Ground truths are stratified into easy/moderate/hard by image-box height,
occlusion and truncation; detections are matched greedily per frame by
rotated IoU (volumetric or BEV) at a fixed threshold. Precision is sampled
on an 11-point (or 40-point) interpolated envelope. Orientation quality
replaces precision with the mean (1 + cos(dtheta)) / 2 over true positives,
false positives contributing zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .box_geom import Box3D, bev_iou, iou3d, wrap_angle

CAR_IOU_THRESHOLD = 0.7

# Detections matching these classes are neither hits nor false alarms.
IGNORED_CLASSES = ("Van", "DontCare")


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
    ignored_boxes: list = field(default_factory=list)  # other classes / DontCare


@dataclass
class FrameDetections:
    boxes: list
    scores: np.ndarray


def stratify(gt: FrameGroundTruth, rules=None) -> dict[str, np.ndarray]:
    """Per difficulty, a boolean include-mask over the frame's ground truths.

    Ground truths failing a stratum's rule are ignored for that stratum:
    they are not counted as targets and detections matching them are not
    penalized.
    """
    rules = rules or DIFFICULTY_RULES
    out = {}
    for name, rule in rules.items():
        out[name] = (
            (gt.heights >= rule.min_bbox_height)
            & (gt.occlusions <= rule.max_occlusion)
            & (gt.truncations <= rule.max_truncation)
        )
    return out


def match_frame(detections: FrameDetections, gt_boxes, ignored_boxes, iou_fn,
                threshold: float = CAR_IOU_THRESHOLD):
    """Greedy score-descending matching; each ground truth matches at most once.

    Returns (kinds, orientation_deltas, order): per detection (in descending
    score order) a kind in {"tp", "fp", "ignored"} and, for TPs, the yaw
    error against the matched ground truth.
    """
    order = np.argsort(-np.asarray(detections.scores), kind="stable")
    matched = np.zeros(len(gt_boxes), dtype=bool)
    kinds, deltas = [], []
    for di in order:
        det_box = detections.boxes[di]
        best_iou, best_gi = threshold, -1
        for gi, gt_box in enumerate(gt_boxes):
            if matched[gi]:
                continue
            iou = iou_fn(det_box, gt_box)
            if iou >= best_iou:
                best_iou, best_gi = iou, gi
        if best_gi >= 0:
            matched[best_gi] = True
            kinds.append("tp")
            deltas.append(float(wrap_angle(det_box.theta - gt_boxes[best_gi].theta)))
            continue
        if any(iou_fn(det_box, ib) >= threshold for ib in ignored_boxes):
            kinds.append("ignored")
        else:
            kinds.append("fp")
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


def accumulate_matches(frames, iou_fn, threshold: float = CAR_IOU_THRESHOLD,
                       include_masks=None) -> RankedMatches:
    """Match every frame and pool the outcomes into one global ranking.

    ``frames`` is a sequence of (FrameDetections, FrameGroundTruth);
    ``include_masks``, when given, selects the stratum's ground truths per
    frame (excluded ones become ignored regions).
    """
    scores, is_tp, is_fp, sims = [], [], [], []
    n_gt = 0
    for fi, (dets, gt) in enumerate(frames):
        mask = (
            np.ones(len(gt.boxes), dtype=bool)
            if include_masks is None
            else include_masks[fi]
        )
        gt_boxes = [b for b, m in zip(gt.boxes, mask) if m]
        ignored = [b for b, m in zip(gt.boxes, mask) if not m] + list(gt.ignored_boxes)
        n_gt += len(gt_boxes)
        kinds, deltas, order = match_frame(dets, gt_boxes, ignored, iou_fn, threshold)
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


def _recall_samples(mode: str) -> np.ndarray:
    if mode == "R11":
        return np.linspace(0.0, 1.0, 11)
    if mode == "R40":
        return np.arange(1, 41) / 40.0
    raise ValueError(f"unknown AP mode {mode!r}")


def _envelope(values: np.ndarray, recalls: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """max over curve points with recall >= r, per sampled recall r."""
    out = np.zeros(len(samples))
    for i, r in enumerate(samples):
        eligible = values[recalls >= r - 1e-12]
        out[i] = eligible.max() if len(eligible) else 0.0
    return out


def average_precision(matches: RankedMatches, mode: str = "R11"):
    """Interpolated AP in percent; None when there are no ground truths."""
    if matches.n_gt == 0:
        return None
    tp_cum = np.cumsum(matches.is_tp)
    counted = np.cumsum(matches.is_tp | matches.is_fp)
    valid = counted > 0
    precision = np.zeros(len(matches.scores))
    precision[valid] = tp_cum[valid] / counted[valid]
    recall = tp_cum / matches.n_gt
    samples = _recall_samples(mode)
    return float(np.mean(_envelope(precision, recall, samples)) * 100.0)


def aos(matches: RankedMatches, mode: str = "R11"):
    """AP-style orientation similarity in percent over the same ranking."""
    if matches.n_gt == 0:
        return None
    sim_cum = np.cumsum(matches.similarities)
    counted = np.cumsum(matches.is_tp | matches.is_fp)
    valid = counted > 0
    sim_prec = np.zeros(len(matches.scores))
    sim_prec[valid] = sim_cum[valid] / counted[valid]
    recall = np.cumsum(matches.is_tp) / matches.n_gt
    samples = _recall_samples(mode)
    return float(np.mean(_envelope(sim_prec, recall, samples)) * 100.0)


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


def evaluate_frames(frames, mode: str = "R11", threshold: float = CAR_IOU_THRESHOLD,
                    rules=None) -> EvalResult:
    """Full protocol: stratify, match in 3D and BEV, sample AP and AOS.

    AOS shares the BEV-matched ranking, so aos <= ap_bev stratum by stratum.
    """
    rules = rules or DIFFICULTY_RULES
    ap_3d, ap_bev, aos_out = {}, {}, {}
    for name in rules:
        masks = [stratify(gt, rules)[name] for _, gt in frames]
        m3d = accumulate_matches(frames, iou3d, threshold, masks)
        mbev = accumulate_matches(frames, bev_iou, threshold, masks)
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
