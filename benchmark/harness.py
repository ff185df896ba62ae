"""Measurement plumbing: spans, counters, per-layer patches and statistics.

A :class:`Tracer` keeps every span in memory: name, start, end, parent
span and the operation (frame, step, setup or CLI call) it belongs to.
The untraced run uses :class:`NullTracer` and installs no wrappers.

:func:`install_patches` wraps public module functions and methods from the
outside, so the traced process sees calls the benchmark does not make
itself (the conv2d calls inside a layer, the IoU calls inside NMS). The
wrappers change no result; nothing in the program's source is edited.
"""

from __future__ import annotations

import contextlib
import functools
import math
import resource
import statistics
import time
from collections import defaultdict

import numpy as np

now = time.perf_counter
cpu_now = time.process_time


class NullTracer:
    """The untraced run's tracer: operations record nothing."""

    enabled = False

    def operation(self, op_id, name):
        return contextlib.nullcontext()


class Tracer:
    """In-memory span and counter store, written out when the run ends."""

    enabled = True

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self._stack = []
        self.op = None
        self.counts = defaultdict(lambda: defaultdict(float))
        self.recording = True

    @contextlib.contextmanager
    def span(self, name):
        if not self.recording:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = [name, now(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = now()
            self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id, name):
        """Root span of one frame, step, setup or CLI call."""
        prev, self.op = self.op, op_id
        try:
            with self.span(name):
                yield
        finally:
            self.op = prev

    @contextlib.contextmanager
    def paused(self):
        """Run untraced: warm-ups, and the reference operations of a traced run."""
        prev, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = prev

    def count(self, name, value=1):
        if self.recording and self.op is not None:
            self.counts[self.op][name] += value

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals."""
        children = defaultdict(list)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append(i)
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for c in sorted(children[i], key=lambda j: self.spans[j][1]):
                lo, hi = max(self.spans[c][1], cursor), self.spans[c][2]
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(end - start - covered)
        return out

    def layer_times(self) -> tuple[dict, dict]:
        """Per span name: per-operation totals of duration and of self time."""
        selfs = self.self_times()
        total = defaultdict(lambda: defaultdict(float))
        own = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, op), st in zip(self.spans, selfs):
            total[name][op] += end - start
            own[name][op] += st
        return total, own


def wrap_span(tracer, owner, attr, name, after=None):
    """Replace ``owner.attr`` by a wrapper that records a span around each call.

    ``after(result, args)`` may add counters; it runs outside the span.
    """
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = orig(*args, **kwargs)
        if after is not None and tracer.recording:
            after(result, args)
        return result

    setattr(owner, attr, wrapper)


def wrap_iou(tracer, owner, attr, prefix):
    """Count IoU evaluations and how many of them found any overlap."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(a, b):
        value = orig(a, b)
        tracer.count(prefix + ".iou_calls")
        if value > 0.0:
            tracer.count(prefix + ".iou_nonzero")
        return value

    setattr(owner, attr, wrapper)


def install_patches(tracer):
    """Wrap the program's public entry points for the traced run."""
    from voxeldet import (augment, box_geom, depth_head, eval_metrics, kitti_io, model,
                          nn_core, seg_context, sparse_conv, train, voxel_grid)

    def conv2d_work(result, args):
        x, weight, _, spec = args
        n, c, _, _ = x.shape
        _, out_c, oh, ow = result.shape
        ckk = c * spec.kernel * spec.kernel
        tracer.count("nn_core.conv2d_calls")
        tracer.count("nn_core.conv2d_flop", 2.0 * n * out_c * ckk * oh * ow)
        tracer.count("nn_core.conv2d_im2col_bytes", 8.0 * n * ckk * oh * ow)

    def nms_work(prefix_counts):
        def after(result, args):
            n_in = len(args[0])
            for name in prefix_counts:
                tracer.count(name, n_in)
            tracer.count("box_geom.nms_in", n_in)
            tracer.count("box_geom.nms_kept", len(result))
        return after

    wrap_span(tracer, nn_core, "conv2d", "nn_core.conv2d", conv2d_work)
    wrap_span(tracer, nn_core.Tensor, "backward", "nn_core.backward")
    wrap_span(tracer, nn_core.AdamW, "step", "nn_core.adamw_step")
    wrap_span(tracer, sparse_conv.VfeEncoder, "build_plan", "sparse_conv.build_plan")
    wrap_span(tracer, sparse_conv.VfeEncoder, "forward", "sparse_conv.forward")
    wrap_span(tracer, seg_context.SemanticContextEncoder, "__call__", "seg_context.sce")
    wrap_span(tracer, depth_head.DepthAwareHead, "__call__", "depth_head.head")
    wrap_span(tracer, model, "fuse_scores", "depth_head.fuse_scores")
    wrap_span(tracer, model.VehicleDetector, "detect", "model.detect")
    wrap_span(tracer, model, "oriented_nms", "box_geom.nms", nms_work(["model.candidates"]))
    wrap_span(tracer, box_geom, "oriented_nms", "box_geom.nms", nms_work([]))
    wrap_iou(tracer, box_geom, "bev_iou", "box_geom")
    wrap_iou(tracer, box_geom, "iou3d", "box_geom")
    wrap_iou(tracer, eval_metrics, "bev_iou", "eval_metrics")
    wrap_iou(tracer, eval_metrics, "iou3d", "eval_metrics")
    wrap_span(tracer, eval_metrics, "evaluate_frames", "eval_metrics.evaluate_frames")
    wrap_span(tracer, kitti_io, "read_point_cloud", "kitti_io.read_point_cloud")
    wrap_span(tracer, kitti_io, "read_labels", "kitti_io.read_labels_calib")
    wrap_span(tracer, kitti_io, "read_calib", "kitti_io.read_labels_calib")
    wrap_span(tracer, augment, "fit_ground_plane", "augment.fit_ground_plane")
    wrap_span(tracer, augment, "augment_scene", "augment.augment_scene")
    wrap_span(tracer, train, "prepare_batches", "train.prepare_batches")
    wrap_span(tracer, voxel_grid, "voxelize", "voxel_grid.voxelize")
    wrap_span(tracer, train, "voxelize", "voxel_grid.voxelize")
    wrap_span(tracer, train, "make_mask", "seg_context.make_mask")
    wrap_span(tracer, train, "assign_targets", "train.assign_targets")
    for name in ("seg_loss", "part_loss_terms", "total_loss"):
        wrap_span(tracer, train, name, "train.loss")


# -- statistics -------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def tail(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it, else None."""
    n = len(values)
    for q in (0.99, 0.95, 0.90, 0.75):
        if n * (1.0 - q) >= 10:
            return q, float(np.quantile(values, q))
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
