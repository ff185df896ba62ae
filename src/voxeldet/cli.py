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
import math
import os
import sys

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


def _build_parser() -> _Parser:
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
    from .config import RunConfig, load_config, toy_config

    base = toy_config() if args.toy else RunConfig()
    if args.config:
        return load_config(args.config, base)
    return base.validate()


def _write_text(path, text: str):
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# -- detections file (LiDAR frame, one line per detection) --------------------------


def write_simple_detections(path, detections):
    with open(path, "w") as f:
        for det in detections:
            b = det.box
            f.write(
                f"{b.x:.9g} {b.y:.9g} {b.z:.9g} {b.w:.9g} {b.l:.9g} {b.h:.9g} "
                f"{b.theta:.9g} {det.score:.9g}\n"
            )


def read_simple_detections(path):
    from .box_geom import Box3D, Detection

    dets = []
    with open(path, "r") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 8:
                raise ValueError(f"{path}:{lineno}: expected 8 fields, got {len(fields)}")
            vals = [float(v) for v in fields]
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{path}:{lineno}: fields must be finite")
            dets.append(Detection(Box3D(*vals[:7]), vals[7]))
    return dets


# -- image emitters ------------------------------------------------------------------


def write_pgm(path, gray):
    import numpy as np

    gray = np.asarray(gray)
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(gray.astype(np.uint8).tobytes())


def write_ppm(path, rgb):
    import numpy as np

    rgb = np.asarray(rgb)
    h, w, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(rgb.astype(np.uint8).tobytes())


def render_bev_image(cfg, cloud, gt_boxes=(), det_boxes=()):
    """Occupancy-gray BEV with gt boxes in green and detections in red."""
    import numpy as np

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
        from .box_geom import bev_corners

        corners = bev_corners(box)
        for i in range(4):
            a, b = corners[i], corners[(i + 1) % 4]
            steps = max(2, int(np.hypot(*(b - a)) / min(v) * 2))
            ts = np.linspace(0.0, 1.0, steps)
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
    from .kitti_io import read_point_cloud
    from .voxel_grid import format_grid_dump, voxelize

    grid = voxelize(read_point_cloud(args.cloud), cfg.voxelizer())
    _write_text(args.out, format_grid_dump(grid))
    return EXIT_OK


def _cmd_masks(args, cfg) -> int:
    import numpy as np

    from .kitti_io import labels_to_lidar_boxes, read_calib, read_labels, read_point_cloud
    from .seg_context import MaskKind, make_mask
    from .voxel_grid import voxelize

    cloud = read_point_cloud(args.cloud)
    calib = read_calib(args.calib)
    boxes, _ = labels_to_lidar_boxes(read_labels(args.labels), calib)
    grid = voxelize(cloud, cfg.voxelizer())
    kind = MaskKind(args.kind or cfg.mask_kind)
    mask = make_mask(grid, boxes, kind, cfg.voxelizer(), cfg.bev_stride)
    write_pgm(args.out, np.where(mask.labels, 255, 0))
    return EXIT_OK


def _load_model(cfg, checkpoint=None):
    from .model import VehicleDetector
    from .nn_core import load_checkpoint

    model = VehicleDetector(cfg)
    if checkpoint:
        model.load_state_dict(load_checkpoint(checkpoint))
    model.eval()
    return model


def _cmd_forward(args, cfg) -> int:
    from .kitti_io import read_calib, read_point_cloud, write_detections
    from .voxel_grid import voxelize

    from .nn_core import no_grad

    if args.kitti_out and not args.calib:
        raise UsageError("--kitti-out requires --calib")
    calib = read_calib(args.calib) if args.kitti_out else None
    model = _load_model(cfg, args.checkpoint)
    grid = voxelize(read_point_cloud(args.cloud), cfg.voxelizer())
    with no_grad():
        output = model.forward([grid])
    detections = model.detect(output)[0]
    write_simple_detections(args.out, detections)
    if args.kitti_out:
        write_detections(args.kitti_out, detections, calib)
    return EXIT_OK


def _cmd_train_toy(args, cfg) -> int:
    import numpy as np

    from .augment import augment_scene, build_gt_database, fit_ground_plane
    from .nn_core import save_checkpoint
    from .synthetic import make_toy_dataset
    from .train import LossReport, train_toy

    if args.steps is not None and args.steps < 1:
        raise UsageError("--steps must be >= 1")
    scenes = make_toy_dataset(cfg)
    if args.augment:
        rng = np.random.default_rng([cfg.data_seed, 0xA6])
        database = build_gt_database(scenes)
        augmented = []
        for scene in scenes:
            plane = fit_ground_plane(scene.cloud, cfg.ransac_iterations,
                                     cfg.ransac_inlier_tol, seed=cfg.seed)
            augmented.append(
                augment_scene(scene, database, plane, rng,
                              max_samples=cfg.aug_max_samples,
                              translation_var=cfg.aug_translation_var,
                              box_yaw=cfg.aug_box_yaw,
                              box_yaw_range=cfg.aug_box_yaw_range,
                              global_rotation=cfg.aug_global_rotation)
            )
        scenes = augmented
    result = train_toy(cfg, scenes, steps=args.steps)
    save_checkpoint(args.checkpoint, result.model.state_dict())
    n_parts = len(cfg.parts())
    lines = [LossReport.csv_header(n_parts)]
    lines += [r.csv_row(i) for i, r in enumerate(result.reports)]
    with open(args.trace, "w") as f:
        f.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_nms(args, cfg) -> int:
    from .box_geom import oriented_nms

    dets = [d for d in read_simple_detections(args.detections)
            if d.score >= cfg.score_threshold]
    kept = oriented_nms(dets, cfg.nms_iou)
    write_simple_detections(args.out, kept)
    return EXIT_OK


def _cmd_eval(args, cfg) -> int:
    import numpy as np

    from .eval_metrics import (FrameDetections, FrameGroundTruth, evaluate_frames,
                               format_machine_report, format_report)
    from .kitti_io import labels_to_lidar_boxes, read_calib, read_labels

    det_dir = args.detections_dir
    stems = sorted(
        os.path.splitext(name)[0]
        for name in os.listdir(det_dir)
        if name.endswith(".txt")
    )
    if not stems:
        raise ValueError(f"no detection files in {det_dir}")
    frames = []
    for stem in stems:
        dets = read_simple_detections(os.path.join(det_dir, stem + ".txt"))
        calib = read_calib(os.path.join(args.calib_dir, stem + ".txt"))
        records = read_labels(os.path.join(args.labels_dir, stem + ".txt"))
        labelled = list(zip(*labels_to_lidar_boxes(records, calib)))
        cars = [rec for _, rec in labelled if rec.cls == "Car"]
        frames.append((
            FrameDetections([d.box for d in dets], np.array([d.score for d in dets])),
            FrameGroundTruth([box for box, rec in labelled if rec.cls == "Car"],
                             np.array([rec.bbox_height for rec in cars]),
                             np.array([rec.occlusion for rec in cars]),
                             np.array([rec.truncation for rec in cars]),
                             [box for box, rec in labelled if rec.cls != "Car"]),
        ))
    result = evaluate_frames(frames, mode=cfg.ap_mode, threshold=cfg.eval_iou)
    _write_text(args.out, format_report(result))
    if args.machine_out:
        with open(args.machine_out, "w") as f:
            f.write(format_machine_report(result))
    return EXIT_OK


def _cmd_render_bev(args, cfg) -> int:
    from .kitti_io import labels_to_lidar_boxes, read_calib, read_labels, read_point_cloud

    cloud = read_point_cloud(args.cloud)
    gt_boxes = []
    if args.labels:
        if not args.calib:
            raise UsageError("--labels requires --calib")
        gt_boxes, _ = labels_to_lidar_boxes(read_labels(args.labels), read_calib(args.calib))
    det_boxes = []
    if args.detections:
        det_boxes = [d.box for d in read_simple_detections(args.detections)]
    write_ppm(args.out, render_bev_image(cfg, cloud, gt_boxes, det_boxes))
    return EXIT_OK


def _cmd_bench(args, cfg) -> int:
    import hashlib
    import time

    import numpy as np

    from .model import ModelOutput
    from .nn_core import no_grad
    from .synthetic import make_benchmark_cloud
    from .voxel_grid import voxelize

    if args.points < 0:
        raise UsageError("--points must be >= 0")
    model = _load_model(cfg)
    cloud = make_benchmark_cloud(cfg, n_points=args.points, seed=cfg.seed)

    def digest(arr) -> str:
        return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]

    rows, timings = [], []

    t0 = time.perf_counter()
    grid = voxelize(cloud, cfg.voxelizer())
    timings.append(("voxelize", time.perf_counter() - t0))
    rows.append(("voxelize", f"sites={grid.num_sites} {grid.features.dtype}",
                 digest(grid.features)))

    t0 = time.perf_counter()
    plan = model.vfe.build_plan([grid])
    timings.append(("plan", time.perf_counter() - t0))
    sites = ",".join(str(bp.subm_rulebook.n_in) for bp in plan.blocks)
    pairs = ",".join(str(bp.subm_rulebook.total_pairs + bp.strided_rulebook.total_pairs)
                     for bp in plan.blocks)
    rows.append(("plan", f"sites={sites} pairs={pairs}", digest(plan.final_coords)))

    t0 = time.perf_counter()
    with no_grad():
        bev = model.vfe.forward(plan)
    timings.append(("vfe", time.perf_counter() - t0))
    rows.append(("vfe", f"shape={bev.shape} {bev.data.dtype}", digest(bev.data)))

    t0 = time.perf_counter()
    with no_grad():
        fused, probability = model.sce(bev)
    timings.append(("sce", time.perf_counter() - t0))
    rows.append(("sce", f"shape={fused.shape} {fused.data.dtype}", digest(fused.data)))

    t0 = time.perf_counter()
    with no_grad():
        parts = model.head(fused)
    timings.append(("head", time.perf_counter() - t0))
    output = ModelOutput(bev, probability, fused, parts)
    scores = model.fuse(output).scores   # untimed: the nms span fuses again in detect
    rows.append(("head", f"scores={scores.shape} {scores.dtype}", digest(scores)))

    t0 = time.perf_counter()
    detections = model.detect(output)[0]
    timings.append(("nms", time.perf_counter() - t0))
    rows.append(("nms", f"kept={len(detections)}", "-"))

    table = [f"{'stage':<16} {'summary':<40} digest"]
    for (name, summary, dig) in rows:
        table.append(f"{name:<16} {summary:<40} {dig}")
    _write_text(args.out, "\n".join(table) + "\n")
    sys.stderr.write("stage timings (machine-dependent):\n")
    for name, dt in timings:
        sys.stderr.write(f"  {name:<10} {dt * 1e3:9.1f} ms\n")
    sys.stderr.write(f"  {'total':<10} {sum(dt for _, dt in timings) * 1e3:9.1f} ms\n")
    return EXIT_OK


def _cmd_dump_config(args, cfg) -> int:
    from .config import dump_config

    _write_text(args.out, dump_config(cfg))
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
    except Exception as exc:  # noqa: BLE001 - classify trainer divergence
        from .train import TrainingDiverged

        if isinstance(exc, TrainingDiverged):
            sys.stderr.write(f"numeric failure: {exc}\n")
            return EXIT_NUMERIC
        raise


if __name__ == "__main__":
    sys.exit(main())
