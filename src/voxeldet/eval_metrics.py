"""Average precision and orientation similarity under the KITTI protocol.

Ground truths are stratified into easy/moderate/hard by image-box height,
occlusion and truncation. One clip of every frame's near pairs, in fixed
chunks, gives each frame both its volumetric and its BEV IoU matrix, and
detections are matched greedily over one of them at a fixed threshold.
Each kind is compared with the threshold once for all frames and strata;
the score-ordered loop visits only the (detection, target) entries that
reach it, and the rest are classed in array passes. Precision is sampled
on an 11-point (or 40-point) interpolated envelope. Orientation quality
replaces precision with the mean (1 + cos(dtheta)) / 2 over true
positives, false positives contributing zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .box_geom import blockwise_bev_and_3d_iou, wrap_angle
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
    """Every frame's detections in stable descending-score order and its IoU
    matrices, built once and shared by every stratum and IoU kind.

    Rows and columns are numbered across frames: the rows are all frames'
    detections, frame by frame, each in score order; the columns are each
    frame's ``gt.boxes`` then its ``gt.ignored_boxes``, frame by frame.
    """

    scores: np.ndarray     # per row
    theta: np.ndarray      # per row, the detection's yaw
    col_theta: np.ndarray  # per column, the box's yaw
    gt_cols: np.ndarray    # the columns of gt.boxes, frame by frame
    ious: list             # per frame, a tuple of IoU matrices (its rows by its columns)

    def targets(self, masks) -> np.ndarray:
        """Boolean mask over the columns: the ``gt.boxes`` that ``masks``
        (one include-mask per frame) include."""
        target = np.zeros(len(self.col_theta), dtype=bool)
        target[self.gt_cols] = np.concatenate([np.zeros(0, dtype=bool), *masks])
        return target


def _rank_frames(frames, pairwise_blocks) -> _RankedFrames:
    """Order each frame's detections by score and compute its IoU matrices.

    ``pairwise_blocks`` maps a list of (detections, columns) box arrays, one
    per frame, to one tuple of IoU matrices per frame; the columns are
    ``gt.boxes`` then ``gt.ignored_boxes``.
    """
    # the empty first parts keep np.concatenate defined when there are no frames
    scores, blocks, gt_cols = [np.zeros(0)], [], [np.zeros(0, dtype=np.int64)]
    n_cols = 0
    for dets, gt in frames:
        order = np.argsort(-np.asarray(dets.scores), kind="stable")
        columns = _box_array(list(gt.boxes) + list(gt.ignored_boxes))
        scores.append(np.asarray(dets.scores, dtype=np.float64)[order])
        blocks.append((_box_array(dets.boxes)[order], columns))
        gt_cols.append(n_cols + np.arange(len(gt.boxes)))
        n_cols += len(columns)
    theta = np.concatenate([np.zeros(0)] + [boxes[:, 6] for boxes, _ in blocks])
    col_theta = np.concatenate([np.zeros(0)] + [columns[:, 6] for _, columns in blocks])
    return _RankedFrames(np.concatenate(scores), theta, col_theta, np.concatenate(gt_cols),
                         pairwise_blocks(blocks))


def _reached(ranked: _RankedFrames, kind: int, threshold):
    """The (row, column) entries of every frame's ``kind``-th IoU matrix
    that reach ``threshold``, in greedy order: row by row, the highest IoU
    first and the last column on a tie. One comparison over all frames."""
    mats = [ious[kind] for ious in ranked.ious]
    shapes = np.array([m.shape for m in mats], dtype=np.int64).reshape(-1, 2)
    first = np.cumsum(shapes, axis=0) - shapes       # each frame's first row and column
    sizes = shapes[:, 0] * shapes[:, 1]
    starts = np.cumsum(sizes) - sizes
    values = np.concatenate([np.zeros(0)] + [m.ravel() for m in mats])
    idx = np.flatnonzero(values >= threshold)
    # an empty frame shares its start with the next one, which holds the entry
    frame = np.searchsorted(starts, idx, side="right") - 1
    rows, cols = np.divmod(idx - starts[frame], shapes[frame, 1])
    rows, cols = rows + first[frame, 0], cols + first[frame, 1]
    order = np.lexsort((-cols, -values[idx], rows))
    return rows[order], cols[order]


def _greedy_match(rows, cols, n_rows) -> np.ndarray:
    """Greedy matching over reached (row, target column) entries in greedy
    order: each row, in score order, takes its first entry whose column no
    earlier row took. Returns each row's matched column (-1 for none)."""
    match, taken = {}, set()
    for r, c in zip(rows.tolist(), cols.tolist()):
        if r not in match and c not in taken:
            match[r] = c
            taken.add(c)
    matched = np.full(n_rows, -1)
    matched[np.fromiter(match, dtype=np.int64, count=len(match))] = list(match.values())
    return matched


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


def _pool_matches(ranked: _RankedFrames, reached, target) -> RankedMatches:
    """Match every frame on one IoU kind's ``reached`` entries, with the
    ``target`` columns as targets and every other column as an ignore
    region, and pool the outcomes into one ranking. Detections that match
    nothing but reach an ignore region leave the ranking; the rest are
    false positives."""
    rows, cols = reached
    on_target = target[cols]
    near_ignored = np.zeros(len(ranked.scores), dtype=bool)
    near_ignored[rows[~on_target]] = True
    matched = _greedy_match(rows[on_target], cols[on_target], len(ranked.scores))
    is_tp = matched >= 0
    counted = is_tp | ~near_ignored
    delta = wrap_angle(ranked.theta[is_tp] - ranked.col_theta[matched[is_tp]])
    similarities = np.zeros(len(is_tp))
    similarities[is_tp] = (1.0 + np.cos(delta)) / 2.0
    return RankedMatches(ranked.scores[counted], is_tp[counted], ~is_tp[counted],
                         similarities[counted], int(target.sum())).sorted_by_score()


def accumulate_matches(frames, pairwise_fn) -> RankedMatches:
    """Match every frame at the Car IoU threshold and pool the outcomes into
    one global ranking.

    ``frames`` is a sequence of (FrameDetections, FrameGroundTruth);
    ``pairwise_fn`` is ``pairwise_iou3d`` or ``pairwise_bev_iou``.
    """
    ranked = _rank_frames(frames, lambda blocks: [(pairwise_fn(*block),) for block in blocks])
    target = ranked.targets([np.ones(len(gt.boxes), dtype=bool) for _, gt in frames])
    return _pool_matches(ranked, _reached(ranked, 0, CAR_IOU_THRESHOLD), target)


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

    Each frame's detections are put in score order once, and one clip of
    every frame's near pairs, in fixed chunks, gives each frame both its BEV
    and its 3D IoU matrix. Each kind is compared with ``threshold`` once, and
    every stratum shares that comparison. AOS shares the BEV-matched
    ranking, so aos <= ap_bev stratum by stratum.
    """
    strata = [stratify(gt) for _, gt in frames]
    ranked = _rank_frames(frames, blockwise_bev_and_3d_iou)
    reached_bev, reached_3d = (_reached(ranked, kind, threshold) for kind in (0, 1))
    ap_3d, ap_bev, aos_out = {}, {}, {}
    for name in DIFFICULTY_RULES:
        target = ranked.targets([s[name] for s in strata])
        mbev = _pool_matches(ranked, reached_bev, target)
        m3d = _pool_matches(ranked, reached_3d, target)
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
