"""Command-line front end.

Subcommands cover the pipeline end to end: voxelize, masks, forward,
train-toy, nms, eval, render-bev, bench, dump-config. Every subcommand is
deterministic for a fixed seed: file and stdout outputs are byte-identical
across runs and thread settings. Wall-clock timings (bench) go to stderr,
which is exempt from that guarantee.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
import time

import numpy as np

from . import (augment, box_geom, config, eval_metrics, kitti_io, model, nn_core, seg_context,
               synthetic, train, voxel_grid)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process. Parsing leaves it unchanged, and
    it names subcommands, not functions, so it binds no library function."""
    parser = _Parser(prog="voxeldet", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="key=value config file (defaults when omitted)")
    parser.add_argument("--toy", action="store_true",
                        help="start from the reduced-extent toy defaults")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and validated (>= 1) but has no effect yet")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("voxelize", help="dump the sparse voxel grid of a point cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("masks", help="rasterize ground-truth BEV masks to a graymap")
    p.add_argument("--cloud", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--kind", choices=["box_type", "voxel_type"], default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("forward", help="run the network on a point cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="detections file (x y z w l h theta score)")
    p.add_argument("--kitti-out", help="also write a KITTI-format result file")
    p.add_argument("--calib", help="calibration for --kitti-out")

    p = sub.add_parser("train-toy", help="train on the synthetic toy dataset")
    p.add_argument("--checkpoint", required=True, help="output parameter file")
    p.add_argument("--trace", required=True, help="output loss-trace CSV")
    p.add_argument("--steps", type=int, help="override config train_steps")
    p.add_argument("--augment", action="store_true",
                   help="apply ground-plane constrained gt sampling before training")

    p = sub.add_parser("nms", help="score-filter and suppress a detections file")
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="KITTI-protocol AP / AOS over a result set")
    p.add_argument("--detections-dir", required=True,
                   help="directory of per-frame detection files (simple format)")
    p.add_argument("--labels-dir", required=True)
    p.add_argument("--calib-dir", required=True)
    p.add_argument("--out", help="report file (stdout when omitted)")
    p.add_argument("--machine-out", help="machine-readable key=value dump")

    p = sub.add_parser("render-bev", help="render the scene to a portable pixmap")
    p.add_argument("--cloud", required=True)
    p.add_argument("--labels")
    p.add_argument("--calib")
    p.add_argument("--detections")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="per-stage runtime decomposition")
    p.add_argument("--points", type=int, default=120_000)
    p.add_argument("--out", help="stage table file (stdout when omitted)")

    p = sub.add_parser("dump-config", help="print the resolved configuration")
    p.add_argument("--out", help="write to a file instead of stdout")

    return parser


def _load_config(args):
    base = config.toy_config() if args.toy else config.RunConfig()
    if args.config:
        return config.load_config(args.config, base)
    return base.validate()


def _write_text(path, text: str):
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# -- detections file (LiDAR frame, one line per detection) --------------------------

# Largest magnitude of a detection field. The box geometry of nms, eval and
# render-bev multiplies up to three box fields (a BEV area times a height), and
# (1e100)³ is still finite in float64.
_MAX_DETECTION_FIELD = 1e100


def write_simple_detections(path, detections):
    with open(path, "w") as f:
        for det in detections:
            b = det.box
            f.write(
                f"{b.x:.9g} {b.y:.9g} {b.z:.9g} {b.w:.9g} {b.l:.9g} {b.h:.9g} "
                f"{b.theta:.9g} {det.score:.9g}\n"
            )


def read_simple_detections(path):
    """One detection per non-empty line, ``x y z w l h yaw score``.

    Every field must be finite and at most 1e100 in magnitude, the sizes
    positive and the score in [0, 1]. A line that breaks a rule or is
    malformed raises ValueError prefixed with ``<path>:<line>:``.
    """
    dets = []
    with open(path, "r") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                fields = line.split()
                if len(fields) != 8:
                    raise ValueError(f"expected 8 fields, got {len(fields)}")
                vals = [float(v) for v in fields]
                if not all(math.isfinite(v) for v in vals):
                    raise ValueError("fields must be finite")
                if max(abs(v) for v in vals) > _MAX_DETECTION_FIELD:
                    raise ValueError(f"fields must be at most {_MAX_DETECTION_FIELD:g} "
                                     "in magnitude")
                dets.append(box_geom.Detection(box_geom.Box3D(*vals[:7]), vals[7]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return dets


# -- image emitters ------------------------------------------------------------------


def write_pnm(path, image):
    """Binary graymap (P5) for an (h, w) array, pixmap (P6) for an (h, w, 3) one."""
    image = np.asarray(image)
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"{'P5' if image.ndim == 2 else 'P6'}\n{w} {h}\n255\n".encode())
        f.write(image.astype(np.uint8).tobytes())


def _edge_params_in_view(a, b, steps, lo, cell, extent):
    """The values of ``np.linspace(0, 1, steps)``, bit for bit, whose points
    ``a + t·(b − a)`` can land in the view ``[lo, lo + extent·cell)`` (with one
    cell of margin), so an edge gets no more samples than the view can hold."""
    step = 1.0 / (steps - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (lo - cell - a) / (b - a)
        t1 = (lo + (extent + 1) * cell - a) / (b - a)
    t_lo, t_hi = max(0.0, np.fmin(t0, t1).max()), min(1.0, np.fmax(t0, t1).min())
    if not t_lo <= t_hi:
        return np.empty(0)
    first = max(0, math.floor(t_lo / step) - 1)
    last = min(steps - 1, math.ceil(t_hi / step) + 1)
    ts = np.arange(first, last + 1) * step
    if last == steps - 1:
        ts[-1] = 1.0
    return ts


def render_bev_image(cfg, cloud, gt_boxes=(), det_boxes=()):
    """Occupancy-gray BEV with gt boxes in green and detections in red."""
    nx, ny, _ = cfg.grid_shape
    lo = np.array(cfg.range_min[:2])
    v = np.array(cfg.voxel_size[:2])
    img = np.zeros((ny, nx, 3), dtype=np.float64)
    pts = cloud.points
    if len(pts):
        idx = np.floor((pts[:, :2] - lo) / v).astype(np.int64)
        ok = (idx >= 0).all(axis=1) & (idx[:, 0] < nx) & (idx[:, 1] < ny)
        counts = np.zeros((ny, nx))
        np.add.at(counts, (idx[ok, 1], idx[ok, 0]), 1.0)
        shade = np.minimum(counts * 80.0, 220.0)
        img[:] = shade[:, :, None]

    def draw(box, color):
        corners = box_geom.bev_corners(box)
        for i in range(4):
            a, b = corners[i], corners[(i + 1) % 4]
            steps = max(2, int(np.hypot(*(b - a)) / min(v) * 2))
            ts = _edge_params_in_view(a, b, steps, lo, v, np.array([nx, ny]))
            seg = a[None] + ts[:, None] * (b - a)[None]
            cells = np.floor((seg - lo) / v).astype(np.int64)
            ok = (cells >= 0).all(axis=1) & (cells[:, 0] < nx) & (cells[:, 1] < ny)
            img[cells[ok, 1], cells[ok, 0]] = color

    for box in gt_boxes:
        draw(box, (0.0, 255.0, 0.0))
    for box in det_boxes:
        draw(box, (255.0, 0.0, 0.0))
    return img


# -- subcommand bodies --------------------------------------------------------------


def _cmd_voxelize(args, cfg) -> int:
    grid = voxel_grid.voxelize(kitti_io.read_point_cloud(args.cloud), cfg.voxelizer())
    _write_text(args.out, voxel_grid.format_grid_dump(grid))
    return EXIT_OK


def _cmd_masks(args, cfg) -> int:
    cloud = kitti_io.read_point_cloud(args.cloud)
    calib = kitti_io.read_calib(args.calib)
    boxes, _ = kitti_io.labels_to_lidar_boxes(kitti_io.read_labels(args.labels), calib)
    grid = voxel_grid.voxelize(cloud, cfg.voxelizer())
    kind = seg_context.MaskKind(args.kind or cfg.mask_kind)
    mask = seg_context.make_mask(grid, boxes, kind, cfg.voxelizer(), cfg.bev_stride)
    write_pnm(args.out, np.where(mask.labels, 255, 0))
    return EXIT_OK


def _load_model(cfg, checkpoint=None):
    detector = model.VehicleDetector(cfg)
    if checkpoint:
        detector.load_state_dict(nn_core.load_checkpoint(checkpoint))
    detector.eval()
    return detector


def _cmd_forward(args, cfg) -> int:
    if args.kitti_out and not args.calib:
        raise UsageError("--kitti-out requires --calib")
    calib = kitti_io.read_calib(args.calib) if args.kitti_out else None
    detector = _load_model(cfg, args.checkpoint)
    grid = voxel_grid.voxelize(kitti_io.read_point_cloud(args.cloud), cfg.voxelizer())
    output = detector([grid])
    detections = detector.detect(output)[0]
    write_simple_detections(args.out, detections)
    if args.kitti_out:
        kitti_io.write_detections(args.kitti_out, detections, calib)
    return EXIT_OK


def _cmd_train_toy(args, cfg) -> int:
    if args.steps is not None and args.steps < 1:
        raise UsageError("--steps must be >= 1")
    scenes = synthetic.make_toy_dataset(cfg)
    if args.augment:
        scenes = augment.augment_scenes(scenes, cfg, cfg.data_seed)
    result = train.train_toy(cfg, scenes, steps=args.steps)
    nn_core.save_checkpoint(args.checkpoint, result.model.state_dict())
    lines = [train.LossReport.csv_header(len(cfg.parts()))]
    lines += [r.csv_row(i) for i, r in enumerate(result.reports)]
    _write_text(args.trace, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_nms(args, cfg) -> int:
    dets = read_simple_detections(args.detections)
    keep = box_geom.nms_candidates([d.score for d in dets], cfg.score_threshold,
                                   cfg.pre_nms_top_k)
    kept = box_geom.oriented_nms([dets[k] for k in keep], cfg.nms_iou)
    write_simple_detections(args.out, kept)
    return EXIT_OK


def _cmd_eval(args, cfg) -> int:
    det_dir = args.detections_dir
    # every frame on either side is evaluated, so a missing file on the
    # other side stops the run with its path, as the KITTI devkit does
    stems = sorted({
        os.path.splitext(name)[0]
        for directory in (det_dir, args.labels_dir)
        for name in os.listdir(directory)
        if name.endswith(".txt")
    })
    if not stems:
        raise ValueError(f"no detection files in {det_dir}")
    frames = []
    for stem in stems:
        dets = read_simple_detections(os.path.join(det_dir, stem + ".txt"))
        calib = kitti_io.read_calib(os.path.join(args.calib_dir, stem + ".txt"))
        records = kitti_io.read_labels(os.path.join(args.labels_dir, stem + ".txt"))
        labelled = list(zip(*kitti_io.labels_to_lidar_boxes(records, calib)))
        cars = [(box, rec) for box, rec in labelled if rec.cls == "Car"]
        frames.append((
            eval_metrics.FrameDetections([d.box for d in dets], np.array([d.score for d in dets])),
            eval_metrics.FrameGroundTruth([box for box, _ in cars],
                                          np.array([rec.bbox_height for _, rec in cars]),
                                          np.array([rec.occlusion for _, rec in cars]),
                                          np.array([rec.truncation for _, rec in cars]),
                                          [box for box, rec in labelled if rec.cls != "Car"]),
        ))
    result = eval_metrics.evaluate_frames(frames, mode=cfg.ap_mode, threshold=cfg.eval_iou)
    _write_text(args.out, eval_metrics.format_report(result))
    if args.machine_out:
        _write_text(args.machine_out, eval_metrics.format_machine_report(result))
    return EXIT_OK


def _cmd_render_bev(args, cfg) -> int:
    cloud = kitti_io.read_point_cloud(args.cloud)
    gt_boxes = []
    if args.labels:
        if not args.calib:
            raise UsageError("--labels requires --calib")
        gt_boxes, _ = kitti_io.labels_to_lidar_boxes(kitti_io.read_labels(args.labels),
                                                     kitti_io.read_calib(args.calib))
    det_boxes = []
    if args.detections:
        det_boxes = [d.box for d in read_simple_detections(args.detections)]
    write_pnm(args.out, render_bev_image(cfg, cloud, gt_boxes, det_boxes))
    return EXIT_OK


def _cmd_bench(args, cfg) -> int:
    if args.points < 0:
        raise UsageError("--points must be >= 0")
    detector = _load_model(cfg)
    cloud = synthetic.make_benchmark_cloud(cfg, n_points=args.points, seed=cfg.seed)
    timings = []

    def timed(name, run):
        t0 = time.perf_counter()
        result = run()
        timings.append((name, time.perf_counter() - t0))
        return result

    def digest(arr) -> str:
        return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]

    grid = timed("voxelize", lambda: voxel_grid.voxelize(cloud, cfg.voxelizer()))
    plan = timed("plan", lambda: detector.vfe.build_plan([grid]))
    bev = timed("vfe", lambda: detector.vfe(plan))
    fused, probability = timed("sce", lambda: detector.sce(bev))
    parts = timed("head", lambda: detector.head(fused))
    output = model.ModelOutput(bev, probability, fused, parts)
    scores = detector.fuse(output).scores   # untimed: the nms span fuses again in detect
    detections = timed("nms", lambda: detector.detect(output)[0])

    sites = ",".join(str(bp.subm_rulebook.n_in) for bp in plan.blocks)
    pairs = ",".join(str(bp.subm_rulebook.total_pairs + bp.strided_rulebook.total_pairs)
                     for bp in plan.blocks)
    rows = [("voxelize", f"sites={grid.num_sites} {grid.features.dtype}", digest(grid.features)),
            ("plan", f"sites={sites} pairs={pairs}", digest(plan.final_coords)),
            ("vfe", f"shape={bev.shape} {bev.data.dtype}", digest(bev.data)),
            ("sce", f"shape={fused.shape} {fused.data.dtype}", digest(fused.data)),
            ("head", f"scores={scores.shape} {scores.dtype}", digest(scores)),
            ("nms", f"kept={len(detections)}", "-")]
    table = [f"{'stage':<16} {'summary':<40} digest"]
    table += [f"{name:<16} {summary:<40} {dig}" for name, summary, dig in rows]
    _write_text(args.out, "\n".join(table) + "\n")
    sys.stderr.write("stage timings (machine-dependent):\n")
    for name, dt in timings:
        sys.stderr.write(f"  {name:<10} {dt * 1e3:9.1f} ms\n")
    sys.stderr.write(f"  {'total':<10} {sum(dt for _, dt in timings) * 1e3:9.1f} ms\n")
    return EXIT_OK


def _cmd_dump_config(args, cfg) -> int:
    _write_text(args.out, config.dump_config(cfg))
    return EXIT_OK


_COMMANDS = {
    "voxelize": _cmd_voxelize,
    "masks": _cmd_masks,
    "forward": _cmd_forward,
    "train-toy": _cmd_train_toy,
    "nms": _cmd_nms,
    "eval": _cmd_eval,
    "render-bev": _cmd_render_bev,
    "bench": _cmd_bench,
    "dump-config": _cmd_dump_config,
}


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. The parser is built once
    per process, so repeated calls (a benchmark loop, tests) reuse it."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise UsageError("--threads must be >= 1")
        cfg = _load_config(args)
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except ArithmeticError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
