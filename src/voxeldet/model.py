"""The assembled detector: voxel encoder, semantic context, depth-aware head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .box_geom import Box3D, Detection, build_anchor_grid, decode, nms_candidates, oriented_nms
from .config import RunConfig
from .depth_head import ANCHORS_PER_CELL, DepthAwareHead, FusedOutput, fuse_scores
from .nn_core import Module, Tensor
from .seg_context import SemanticContextEncoder
from .sparse_conv import VfeEncoder, VfePlan


@dataclass
class ModelOutput:
    bev: Tensor            # (B, O, H, W) voxel-encoder output
    probability: Tensor    # (B, 1, H, W) segmentation branch M
    fused: Tensor          # (B, 2*O, H, W) re-weighted features R
    parts: list            # per-part head outputs


class VehicleDetector(Module):
    """End-to-end network over a batch of sparse voxel grids."""

    def __init__(self, cfg: RunConfig):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        # Four init streams per model seed: 4·seed + 0 for the VFE, + 1 for the
        # SCE's segmentation branch (its detection branch takes + 2) and + 3 for
        # the head, so no two streams coincide within one model or across seeds.
        seed = 4 * cfg.model_seed
        self.vfe = VfeEncoder(cfg.grid_shape, cfg.blocks(), seed=seed)
        channels, height, width = self.vfe.bev_shape
        self.sce = SemanticContextEncoder(channels, seed=seed + 1)
        self.head = DepthAwareHead(
            cfg.parts(),
            map_width=width,
            in_channels=self.sce.out_channels,
            mid_channels=cfg.head_mid_channels,
            seed=seed + 3,
        )
        self.anchors = build_anchor_grid(
            cfg.range_min[0],
            cfg.range_min[1],
            n_x=width,
            n_y=height,
            cell_size=cfg.bev_cell_size,
            size=tuple(cfg.anchor_size),
            z_center=cfg.anchor_z,
            orientations=tuple(cfg.anchor_yaws),
        )

    def forward_from_plan(self, plan: VfePlan) -> ModelOutput:
        bev = self.vfe(plan)
        fused, probability = self.sce(bev)
        parts = self.head(fused)
        return ModelOutput(bev, probability, fused, parts)

    def forward(self, grids) -> ModelOutput:
        return self.forward_from_plan(self.vfe.build_plan(grids))

    def fuse(self, output: ModelOutput) -> FusedOutput:
        return fuse_scores(output.parts, self.cfg.parts(), self.cfg.bev_width)

    def detect(self, output: ModelOutput) -> list[list[Detection]]:
        """Threshold, decode against the anchors, and apply oriented NMS.

        Size rule: a candidate is dropped when its decoded w, l or h would
        exceed the voxel range's largest extent, i.e. when its size residual
        exceeds ``log(extent / anchor size)``. The rule is tested before decode,
        so no oversized box is built and none reaches NMS. Candidates with a
        non-finite value or a non-positive size are dropped as well.
        """
        fused = self.fuse(output)
        cfg = self.cfg
        b, _, h, w = fused.box.shape
        anchors = self.anchors.reshape(h, w, ANCHORS_PER_CELL, 7)
        extent = max(hi - lo for lo, hi in zip(cfg.range_min, cfg.range_max))
        log_size_limit = np.log(extent / anchors[..., 3:6])
        box = fused.box.reshape(b, ANCHORS_PER_CELL, 7, h, w)
        dirs = fused.dir_logits.reshape(b, ANCHORS_PER_CELL, 2, h, w)
        results = []
        for bi in range(b):
            flat = fused.scores[bi].ravel()
            cand = nms_candidates(flat, cfg.score_threshold, cfg.pre_nms_top_k)
            a, iy, ix = np.unravel_index(cand, fused.scores[bi].shape)
            scores = flat[cand]
            fits = (box[bi, a, 3:6, iy, ix] <= log_size_limit[iy, ix, a]).all(axis=1)
            a, iy, ix, scores = a[fits], iy[fits], ix[fits], scores[fits]
            bits = dirs[bi, a, :, iy, ix].argmax(axis=1)
            boxes = decode(box[bi, a, :, iy, ix], anchors[iy, ix, a], bit=bits)
            ok = np.isfinite(boxes).all(axis=1) & (boxes[:, 3:6].min(axis=1) > 0)
            dets = [Detection(Box3D.from_array(row), float(s))
                    for row, s in zip(boxes[ok], scores[ok])]
            results.append(oriented_nms(dets, cfg.nms_iou))
        return results
