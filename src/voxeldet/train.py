"""Target assignment, the detection loss stack, and the toy training loop.

Per part the loss is  lambda_loc * L_loc + L_cls + lambda_dir * L_dir, each
normalized by that part's positive-anchor count; the final objective adds
lambda_seg * L_S over the three parts' sums. Classification uses the focal
re-weighting, localization a smooth L1 over the 7 residual components, and
direction a 2-bin softmax cross-entropy on positive anchors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn_core
from .box_geom import direction_bit, encode, pairwise_iou3d
from .config import RunConfig
from .depth_head import ANCHORS_PER_CELL, PartOutput
from .model import VehicleDetector
from .nn_core import AdamW, Tensor
from .seg_context import MaskKind, make_mask, seg_loss
from .voxel_grid import voxelize


@dataclass(frozen=True)
class LossWeights:
    lambda_loc: float = 2.0
    lambda_dir: float = 0.2
    lambda_seg: float = 0.5
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0

    @staticmethod
    def from_config(cfg: RunConfig) -> "LossWeights":
        return LossWeights(cfg.lambda_loc, cfg.lambda_dir, cfg.lambda_seg,
                           cfg.focal_alpha, cfg.focal_gamma)


@dataclass
class TargetAssignment:
    """Per anchor: label (+1 / 0 / -1 ignored), residuals, yaw bin."""

    labels: np.ndarray          # (n,) int8
    residuals: np.ndarray       # (n, 7)
    direction_bits: np.ndarray  # (n,) int64


def assign_targets(anchors: np.ndarray, gts, positive_iou: float = 0.6,
                   negative_iou: float = 0.45) -> TargetAssignment:
    """Threshold matching on IoU with a forced best anchor per ground truth.

    ``anchors`` is the (n, 7) array of :func:`box_geom.build_anchor_grid`.
    """
    n = len(anchors)
    labels = np.zeros(n, dtype=np.int8)
    matched = np.full(n, -1, dtype=np.int64)
    residuals = np.zeros((n, 7))
    bits = np.zeros(n, dtype=np.int64)
    if gts:
        gt_arr = np.stack([b.as_array() for b in gts])
        ious = pairwise_iou3d(anchors, gt_arr)    # (n, m)
        best_gt = ious.argmax(axis=1)
        best_iou = ious[np.arange(n), best_gt]
        labels[best_iou >= positive_iou] = 1
        labels[(best_iou >= negative_iou) & (best_iou < positive_iou)] = -1
        matched[labels == 1] = best_gt[labels == 1]
        # every gt keeps its best anchor even below the threshold
        for gi in range(len(gts)):
            ai = int(ious[:, gi].argmax())
            if ious[ai, gi] > 1e-6:
                labels[ai] = 1
                matched[ai] = gi
        pos = labels == 1
        if pos.any():
            residuals[pos] = encode(gt_arr[matched[pos]], anchors[pos])
            bits[pos] = direction_bit(gt_arr[matched[pos], 6])
    return TargetAssignment(labels, residuals, bits)


# -- loss terms -------------------------------------------------------------------


def focal_loss(logits: Tensor, labels: np.ndarray, alpha: float = 0.25,
               gamma: float = 2.0) -> Tensor:
    """Focal binary classification loss over non-ignored anchors.

    ``labels`` uses +1 positive, 0 negative, -1 ignored; the sum is
    normalized by max(1, #positive).
    """
    labels = np.asarray(labels).reshape(logits.shape)
    pos = Tensor((labels == 1).astype(np.float64))
    neg = Tensor((labels == 0).astype(np.float64))
    n_pos = max(1.0, float((labels == 1).sum()))
    p = nn_core.sigmoid(logits)
    log_p = nn_core.log(nn_core.clamp(p, 1e-12, 1.0))
    log_q = nn_core.log(nn_core.clamp(1.0 - p, 1e-12, 1.0))
    loss_pos = pos * (1.0 - p) ** gamma * log_p * (-alpha)
    loss_neg = neg * p ** gamma * log_q * (-(1.0 - alpha))
    return (loss_pos + loss_neg).sum() * (1.0 / n_pos)


def smooth_l1(x: Tensor) -> Tensor:
    """0.5 x^2 for |x| < 1, |x| - 0.5 beyond; branch mask is constant."""
    a = nn_core.absolute(x)
    near = Tensor((np.abs(x.data) < 1.0).astype(np.float64))
    return near * (0.5 * x * x) + (1.0 - near) * (a - 0.5)


def loc_loss(pred: Tensor, target: np.ndarray, positive_mask: np.ndarray,
             n_positive: int) -> Tensor:
    """Smooth L1 over the 7 components of positive anchors / max(1, #pos)."""
    mask = Tensor(np.asarray(positive_mask, dtype=np.float64).reshape(pred.shape))
    diff = pred - Tensor(np.asarray(target, dtype=np.float64).reshape(pred.shape))
    return (mask * smooth_l1(diff)).sum() * (1.0 / max(1.0, float(n_positive)))


def dir_loss(logits: Tensor, target_onehot: np.ndarray, positive_mask: np.ndarray,
             n_positive: int, bin_axis: int) -> Tensor:
    """2-bin softmax cross-entropy on positive anchors / max(1, #pos)."""
    lse = nn_core.logsumexp(logits, axis=bin_axis)
    picked = (logits * Tensor(np.asarray(target_onehot, dtype=np.float64))).sum(
        axis=bin_axis
    )
    ce = lse - picked
    mask = Tensor(np.asarray(positive_mask, dtype=np.float64).reshape(ce.shape))
    return (mask * ce).sum() * (1.0 / max(1.0, float(n_positive)))


@dataclass
class LossReport:
    """Scalar total plus the per-term breakdown, as plain floats."""

    total: float
    seg: float
    loc: tuple
    cls: tuple
    dir: tuple

    def csv_row(self, step: int) -> str:
        cells = [str(step), f"{self.total:.9g}", f"{self.seg:.9g}"]
        cells += [f"{v:.9g}" for v in self.loc]
        cells += [f"{v:.9g}" for v in self.cls]
        cells += [f"{v:.9g}" for v in self.dir]
        return ",".join(cells)

    @staticmethod
    def csv_header(n_parts: int = 3) -> str:
        cols = ["step", "total", "L_S"]
        cols += [f"L_loc_{i + 1}" for i in range(n_parts)]
        cols += [f"L_cls_{i + 1}" for i in range(n_parts)]
        cols += [f"L_dir_{i + 1}" for i in range(n_parts)]
        return ",".join(cols)


def total_loss(part_terms, seg_term: Tensor, weights: LossWeights) -> tuple[Tensor, LossReport]:
    """Combine per-part (loc, cls, dir) terms and the segmentation term."""
    total = weights.lambda_seg * seg_term
    loc_vals, cls_vals, dir_vals = [], [], []
    for loc_t, cls_t, dir_t in part_terms:
        # per-part subtotal first: the composite is a sum of part losses
        total = total + (weights.lambda_loc * loc_t + cls_t + weights.lambda_dir * dir_t)
        loc_vals.append(loc_t.item())
        cls_vals.append(cls_t.item())
        dir_vals.append(dir_t.item())
    report = LossReport(total.item(), seg_term.item(), tuple(loc_vals), tuple(cls_vals),
                        tuple(dir_vals))
    return total, report


# -- wiring targets to head maps ----------------------------------------------------


@dataclass
class PartTargets:
    """Target maps for one part slice, aligned with the head's output layout."""

    cls_labels: np.ndarray   # (B, 2, H, Wp) in {1, 0, -1}
    box_target: np.ndarray   # (B, 14, H, Wp)
    box_mask: np.ndarray     # (B, 14, H, Wp)
    dir_onehot: np.ndarray   # (B, 2, 2, H, Wp)
    dir_mask: np.ndarray     # (B, 2, H, Wp)
    n_positive: int


def build_part_targets(assignments, height: int, width: int, lo: int, hi: int) -> PartTargets:
    """Slice per-scene assignments to the part's x-interval in map layout.

    Anchor rows run (iy, ix, a), so the stacked (B, H*W*A, ...) assignment
    arrays reshape to (B, H, W, A, ...) and move to the head's (B, A, ..., H, Wp).
    """
    def to_map(values, *tail):
        grid = np.stack(values).reshape(len(values), height, width, ANCHORS_PER_CELL, *tail)
        return np.ascontiguousarray(np.moveaxis(grid[:, :, lo:hi], (1, 2), (-2, -1)))

    b, wp = len(assignments), hi - lo
    cls_labels = to_map([asn.labels for asn in assignments])                 # (B, A, H, Wp)
    residuals = to_map([asn.residuals for asn in assignments], 7)            # (B, A, 7, H, Wp)
    bits = to_map([asn.direction_bits for asn in assignments])               # (B, A, H, Wp)
    pos = cls_labels == 1
    box_mask = np.broadcast_to(pos[:, :, None], residuals.shape).astype(np.float64)
    dir_onehot = (bits[:, :, None] == np.arange(2)[:, None, None]) & pos[:, :, None]
    return PartTargets(
        cls_labels,
        residuals.reshape(b, 7 * ANCHORS_PER_CELL, height, wp),
        box_mask.reshape(b, 7 * ANCHORS_PER_CELL, height, wp),
        dir_onehot.astype(np.float64),
        pos.astype(np.float64),
        int(pos.sum()),
    )


def part_loss_terms(part_output, targets: PartTargets, weights: LossWeights):
    """(loc, cls, dir) scalar tensors for one part."""
    cls_t = focal_loss(part_output.cls_logits, targets.cls_labels,
                       weights.focal_alpha, weights.focal_gamma)
    loc_t = loc_loss(part_output.box, targets.box_target, targets.box_mask,
                     targets.n_positive)
    b, _, h, wp = part_output.dir_logits.shape
    dir_logits = nn_core.reshape(part_output.dir_logits, (b, 2, 2, h, wp))
    dir_t = dir_loss(dir_logits, targets.dir_onehot, targets.dir_mask,
                     targets.n_positive, bin_axis=2)
    return loc_t, cls_t, dir_t


# -- toy training loop ---------------------------------------------------------------


class TrainingDiverged(ArithmeticError):
    def __init__(self, step: int):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step


@dataclass
class PreparedBatch:
    plan: object
    seg_labels: np.ndarray          # (B, 1, H, W)
    part_targets: list              # PartTargets per part


@dataclass
class TrainResult:
    model: VehicleDetector
    reports: list
    prepared: list = field(default_factory=list)

    @property
    def totals(self) -> np.ndarray:
        return np.array([r.total for r in self.reports])


def prepare_batches(cfg: RunConfig, model: VehicleDetector, scenes) -> list[PreparedBatch]:
    """Voxelize, build plans, masks and targets once; they are static per scene."""
    vox = cfg.voxelizer()
    kind = MaskKind(cfg.mask_kind)
    grids, masks, assignments = [], [], []
    for scene in scenes:
        grid = voxelize(scene.cloud, vox)
        grids.append(grid)
        masks.append(make_mask(grid, list(scene.gt_boxes), kind, vox, cfg.bev_stride))
        assignments.append(
            assign_targets(model.anchors, list(scene.gt_boxes), cfg.positive_iou,
                           cfg.negative_iou)
        )
    batches = []
    h, w = cfg.bev_height, cfg.bev_width
    for start in range(0, len(scenes), cfg.batch_size):
        sel = slice(start, min(start + cfg.batch_size, len(scenes)))
        plan = model.vfe.build_plan(grids[sel])
        seg = np.stack([m.labels.astype(np.float64)[None] for m in masks[sel]])
        parts = [
            build_part_targets(assignments[sel], h, w, spec.lo, spec.hi)
            for spec in cfg.parts()
        ]
        batches.append(PreparedBatch(plan, seg, parts))
    return batches


def train_step(model: VehicleDetector, batch: PreparedBatch, weights: LossWeights,
               optimizer: AdamW) -> LossReport:
    """One AdamW step. The network runs in its feature dtype (float32); its
    outputs are cast to float64 first, so every loss term is computed and
    summed in float64."""
    optimizer.zero_grad()
    output = model.forward_from_plan(batch.plan)
    seg_term = seg_loss(nn_core.astype(output.probability, np.float64), batch.seg_labels)
    terms = [
        part_loss_terms(PartOutput(*(nn_core.astype(t, np.float64)
                                     for t in (p.cls_logits, p.box, p.dir_logits))),
                        targets, weights)
        for p, targets in zip(output.parts, batch.part_targets)
    ]
    total, report = total_loss(terms, seg_term, weights)
    total.backward()
    optimizer.step()
    return report


def train_toy(cfg: RunConfig, scenes, steps: int | None = None) -> TrainResult:
    """Fixed-seed toy training: full forward/backward with AdamW each step.

    Raises :class:`TrainingDiverged` if the total loss stops being finite.
    """
    steps = cfg.train_steps if steps is None else steps
    model = VehicleDetector(cfg)
    model.train()
    batches = prepare_batches(cfg, model, scenes)
    optimizer = AdamW(
        model.named_parameters(),
        lr=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        betas=(cfg.adam_beta1, cfg.adam_beta2),
    )
    weights = LossWeights.from_config(cfg)
    reports = []
    for step in range(steps):
        report = train_step(model, batches[step % len(batches)], weights, optimizer)
        if not np.isfinite(report.total):
            raise TrainingDiverged(step)
        reports.append(report)
    return TrainResult(model, reports, prepared=batches)


def seg_mask_iou(model: VehicleDetector, batches) -> float:
    """Foreground IoU of the thresholded probability map over prepared batches."""
    model.eval()
    inter = union = 0
    for batch in batches:
        output = model.forward_from_plan(batch.plan)
        pred = output.probability.data >= 0.5
        gt = batch.seg_labels >= 0.5
        inter += int((pred & gt).sum())
        union += int((pred | gt).sum())
    model.train()
    return 1.0 if union == 0 else inter / union
