"""The three workloads. Each is a closed loop with one client.

Every workload has the same shape. The constructor generates the inputs
from the seed; that is the benchmark's own work and is not timed.
``setup(k)`` hands the inputs to the program, builds the model and runs one
warm-up operation; the runner times it and calls it several times. ``iteration(i)`` runs the next operation only after the
previous one has finished. ``finish()`` runs the checks that need the whole
run. The program sees only the inputs generated here from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import traceback
from collections import defaultdict

import numpy as np

from harness import cpu_now, now
from planted import expected_ap, format_row, make_planted, write_planted
from scan import make_scan


def digest(*parts) -> str:
    """First 16 hex digits of the SHA-256 of arrays or bytes, in order."""
    h = hashlib.sha256()
    for a in parts:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def voxel_counters(points_list, vox) -> dict:
    """Points in, out of range, over the per-voxel cap, and sites, from outside."""
    lo, size = np.array(vox.range_min), np.array(vox.voxel_size)
    shape = np.array(vox.grid_shape)
    out = dict.fromkeys(("voxel_grid.points_in", "voxel_grid.points_out_of_range",
                         "voxel_grid.points_over_cap", "voxel_grid.sites"), 0)
    for pts in points_list:
        idx = np.floor((pts[:, :3] - lo) / size).astype(np.int64)
        ok = ((pts[:, :3] >= lo) & (idx >= 0) & (idx < shape)).all(axis=1)
        flat = (idx[ok, 2] * shape[1] + idx[ok, 1]) * shape[0] + idx[ok, 0]
        counts = np.unique(flat, return_counts=True)[1]
        out["voxel_grid.points_in"] += len(pts)
        out["voxel_grid.points_out_of_range"] += int((~ok).sum())
        out["voxel_grid.points_over_cap"] += int(np.maximum(counts - vox.max_points_per_voxel,
                                                            0).sum())
        out["voxel_grid.sites"] += len(counts)
    return out


def sparse_counters(plans, blocks) -> dict:
    """Sites and rulebook pairs per level; FLOPs as sum of 2 * pairs * c_in * c_out."""
    out = defaultdict(int)
    flop = 0
    for plan in plans:
        for level, (bp, spec) in enumerate(zip(plan.blocks, blocks)):
            subm = bp.subm_rulebook.total_pairs
            strided = bp.strided_rulebook.total_pairs
            out[f"sparse_conv.sites_l{level}"] += bp.subm_rulebook.n_in
            out[f"sparse_conv.pairs_subm_l{level}"] += subm
            out[f"sparse_conv.pairs_strided_l{level}"] += strided
            c_in = spec.in_channels
            for _ in range(spec.n_submanifold):
                flop += 2 * subm * c_in * spec.out_channels
                c_in = spec.out_channels
            flop += 2 * strided * spec.out_channels * spec.out_channels
    out["sparse_conv.gflop"] = flop / 1e9
    return dict(out)


class Workload:
    name = ""
    primary = ""           # kind of the operation whose p50 is op_p50_s
    rate_kind = ""         # kind of the operation throughput_per_s counts
    headline = ("", "")    # this workload's own names for op_p50_s and throughput_per_s
    min_iterations = 1

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        # CPU seconds of each timed operation, by kind; the metrics use these
        self.samples = defaultdict(list)
        self.wall = defaultdict(list)       # wall seconds of the same operations
        self.reference = defaultdict(list)  # CPU seconds of a traced run's reference ops
        self.attempted = 0
        self.failed = 0
        self.checks = []                    # (description, subject, passed)
        self.digests = {}
        self.counters = {}                  # exact counters computed from outside
        self.cycles = defaultdict(list)     # loop cycle -> operation ids
        self.cycle_size = 1                 # operations in one cycle
        self.iterations_per_cycle = 1
        self._firsts = {}
        self.input_summary = ""

    def check(self, description: str, passed: bool, subject: str = ""):
        """A failed check counts as one failed operation; ``subject`` names the operation."""
        self.checks.append((description, subject, bool(passed)))
        if not passed:
            self.failed += 1

    def run_op(self, kind, op_id, span, fn, cycle=None, warmup=False):
        """Run and time one operation; returns its result, or None if it raised.

        A loop operation belongs to a ``cycle`` and is timed. A loop operation
        without one is a traced run's untraced reference for the overhead.
        Warm-ups and references run with the tracer paused.
        """
        self.attempted += 1
        paused = self.tracer.enabled and (warmup or cycle is None)
        quiet = self.tracer.paused() if paused else contextlib.nullcontext()
        t0, c0 = now(), cpu_now()
        try:
            with quiet, self.tracer.operation(op_id, span):
                result = fn()
        except Exception:  # noqa: BLE001 - a failed operation is counted, the loop goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        wall, cpu = now() - t0, cpu_now() - c0
        if cycle is not None:
            self.samples[kind].append(cpu)
            self.wall[kind].append(wall)
            self.cycles[cycle].append(op_id)
        elif not warmup:
            self.reference[kind].append(cpu)
        return result

    def same_as_first(self, key, value, description, subject):
        self.check(description, value == self._firsts.setdefault(key, value), subject)

    def after_setup(self, k):
        pass

    def finish(self):
        pass


# -- frame_infer -------------------------------------------------------------------


class FrameInfer(Workload):
    """Full-scale inference on the default config, one ray-cast scan per frame."""

    name = "frame_infer"
    primary = "frame"
    rate_kind = "frame"
    headline = ("frame_latency_p50_s", "frames_per_s")

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.scan = make_scan(seed)
        self.input_summary = (f"ray-cast scan: {self.scan.n_rays} rays, "
                              f"{len(self.scan.points)} returns, {len(self.scan.cars)} cars")

    def setup(self, k):
        from voxeldet import kitti_io
        from voxeldet.config import RunConfig
        from voxeldet.model import VehicleDetector

        self.path = os.path.join(self.workdir, "scan.bin")
        kitti_io.write_point_cloud(self.path, kitti_io.PointCloud(self.scan.points))
        self.cfg = RunConfig()
        self.model = VehicleDetector(self.cfg)
        self.model.eval()
        self.pending = self.run_op("frame", f"warmup:{k}", "frame", self.frame, warmup=True)

    def frame(self):
        """The timed path: read the .bin, voxelize, encode, detect."""
        from voxeldet import kitti_io, voxel_grid
        from voxeldet.nn_core import no_grad

        model = self.model
        cloud = kitti_io.read_point_cloud(self.path)
        grid = voxel_grid.voxelize(cloud, self.cfg.voxelizer())
        with no_grad():
            # the plan is kept for the rulebook counters; forward() would build the same
            plan = model.vfe.build_plan([grid])
            output = model.forward_from_plan(plan)
        detections = model.detect(output)[0]
        return cloud, grid, plan, output, detections

    def inspect(self, result, label):
        if result is None:
            return
        cloud, grid, plan, output, detections = result
        dets = "".join(format_row([*d.box.as_array(), d.score]) for d in detections)
        digests = {
            "voxelize": digest(grid.indices, grid.features),
            "vfe": digest(output.bev.data),
            "sce": digest(output.fused.data, output.probability.data),
            "head": digest(*(a.data for p in output.parts
                             for a in (p.cls_logits, p.box, p.dir_logits))),
            "detect": digest(dets.encode()),
        }
        counters = voxel_counters([cloud.points], self.cfg.voxelizer())
        self.check("voxelize sites equal an independent count of occupied voxels",
                   counters["voxel_grid.sites"] == grid.num_sites, label)
        counters.update(sparse_counters([plan], self.cfg.blocks()))
        self.same_as_first("digests", digests, "stage digests equal the first frame's", label)
        self.same_as_first("counters", counters, "work counters equal the first frame's", label)
        self.digests, self.counters = self._firsts["digests"], self._firsts["counters"]

    def after_setup(self, k):
        self.inspect(self.pending, f"warmup:{k}")
        self.pending = None

    def iteration(self, i, cycle):
        result = self.run_op("frame", f"frame:{i}", "frame", self.frame, cycle)
        self.inspect(result, f"frame:{i}")

    def throughput(self, times):
        return len(times["frame"]) / sum(times["frame"])


# -- toy_train ------------------------------------------------------------------------


class ToyTrain(Workload):
    """The train-toy --augment pipeline; the loop times train.train_step."""

    name = "toy_train"
    primary = "step"
    rate_kind = "step"
    headline = ("train_step_p50_s", "steps_per_s")
    reference_steps = 3
    min_iterations = reference_steps - 1

    def setup(self, k):
        from voxeldet import augment, train
        from voxeldet.config import toy_config
        from voxeldet.model import VehicleDetector
        from voxeldet.nn_core import AdamW
        from voxeldet.synthetic import make_toy_dataset

        cfg = self.cfg = toy_config()
        scenes = make_toy_dataset(cfg, seed=self.seed)
        rng = np.random.default_rng([self.seed, 0xA6])
        database = augment.build_gt_database(scenes)
        augmented = []
        for scene in scenes:
            plane = augment.fit_ground_plane(scene.cloud, cfg.ransac_iterations,
                                             cfg.ransac_inlier_tol, seed=cfg.seed)
            augmented.append(augment.augment_scene(
                scene, database, plane, rng, max_samples=cfg.aug_max_samples,
                translation_var=cfg.aug_translation_var, box_yaw=cfg.aug_box_yaw,
                box_yaw_range=cfg.aug_box_yaw_range,
                global_rotation=cfg.aug_global_rotation))
        self.scenes = augmented
        self.input_summary = (f"{len(augmented)} augmented scenes, "
                              f"{sum(len(s.gt_boxes) for s in augmented)} boxes")
        self.model = VehicleDetector(cfg)
        self.model.train()
        self.batches = train.prepare_batches(cfg, self.model, augmented)
        self.cycle_size = self.iterations_per_cycle = len(self.batches)
        self.optimizer = AdamW(self.model.named_parameters(), lr=cfg.learning_rate,
                               weight_decay=cfg.weight_decay,
                               betas=(cfg.adam_beta1, cfg.adam_beta2))
        self.weights = train.LossWeights.from_config(cfg)
        self.reports = []
        self.step(0, f"warmup:{k}", warmup=True)

    def step(self, i, op_id, cycle=None, warmup=False):
        from voxeldet import train

        report = self.run_op(
            "step", op_id, "train.train_step",
            lambda: train.train_step(self.model, self.batches[i % len(self.batches)],
                                     self.weights, self.optimizer),
            cycle, warmup)
        if report is not None:
            self.reports.append(report)
            self.check("every step's total loss is finite", np.isfinite(report.total), op_id)

    def after_setup(self, k):
        counters = voxel_counters([s.cloud.points for s in self.scenes], self.cfg.voxelizer())
        counters.update(sparse_counters([b.plan for b in self.batches], self.cfg.blocks()))
        self.same_as_first("counters", counters, "work counters equal the first set-up's",
                           f"setup:{k}")
        self.same_as_first("step0", self.reports[:1],
                           "the warm-up step's loss report equals the first set-up's",
                           f"setup:{k}")
        self.counters = self._firsts["counters"]

    def iteration(self, i, cycle):
        self.step(i + 1, f"step:{i + 1}", cycle)

    def finish(self):
        """The timed loop must reproduce train.train_toy's loss trace bit for bit."""
        from voxeldet import train

        k = min(self.reference_steps, len(self.reports))
        quiet = self.tracer.paused() if self.tracer.enabled else contextlib.nullcontext()
        self.attempted += 1
        with quiet:
            reference = train.train_toy(self.cfg, self.scenes, steps=k)
        self.check(f"first {k} loss reports equal train.train_toy(steps={k}) bit for bit",
                   k == self.reference_steps and reference.reports == self.reports[:k])
        trace = np.array([[r.total, r.seg, *r.loc, *r.cls, *r.dir] for r in self.reports[:k]])
        self.digests = {"loss_trace": digest(trace)}

    def throughput(self, times):
        return len(times["step"]) / sum(times["step"])


# -- postprocess_eval ---------------------------------------------------------------


class PostprocessEval(Workload):
    """cli nms on every planted frame, then one cli eval over the kept files."""

    name = "postprocess_eval"
    primary = "nms"
    rate_kind = "eval"
    headline = ("nms_frame_p50_s", "eval_frames_per_s")
    # short rounds give each run about a dozen eval calls. On a shared
    # 2-vCPU virtual machine the CPU time of one eval call swings by about a
    # tenth; with 10-frame rounds (4 calls per run) the median moved by a
    # fifth between runs
    n_frames = 3

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.frames = make_planted(seed, self.n_frames)
        self.dirs = write_planted(self.frames, os.path.join(workdir, "planted"))
        self.expected_kept = {f.stem: "".join(format_row(r) for r in f.expected_kept)
                              for f in self.frames}
        self.expected_ap = expected_ap(self.frames)
        self.cycle_size = self.n_frames + 1
        kept = sum(len(f.expected_kept) for f in self.frames)
        cand = sum(len(f.detections) for f in self.frames)
        self.input_summary = f"{self.n_frames} frames, {cand} candidates, {kept} to keep"

    def setup(self, k):
        """The planted files are the inputs; set-up is one warm-up round over them."""
        self.pending = self.round(f"warmup:{k}", warmup=True)

    def round(self, tag, cycle=None, warmup=False):
        """NMS every frame through the CLI entry point, then evaluate the kept set."""
        from voxeldet import cli

        codes = {}
        for f in self.frames:
            argv = ["nms", "--detections", os.path.join(self.dirs["detections"], f.stem + ".txt"),
                    "--out", os.path.join(self.dirs["kept"], f.stem + ".txt")]
            codes[f.stem] = self.run_op("nms", f"{tag}:nms:{f.stem}", "cli.nms_cmd",
                                        lambda: cli.main(argv), cycle, warmup)
        self.machine = os.path.join(self.workdir, "eval_machine.txt")
        if os.path.exists(self.machine):
            os.remove(self.machine)
        argv = ["eval", "--detections-dir", self.dirs["kept"], "--labels-dir", self.dirs["label"],
                "--calib-dir", self.dirs["calib"], "--out", os.path.join(self.workdir, "eval.txt"),
                "--machine-out", self.machine]
        codes["eval"] = self.run_op("eval", f"{tag}:eval", "cli.eval_cmd",
                                    lambda: cli.main(argv), cycle, warmup)
        return tag, codes

    def verify(self, pending):
        tag, codes = pending
        kept_texts = []
        for f in self.frames:
            text = ""
            if codes[f.stem] == 0:
                with open(os.path.join(self.dirs["kept"], f.stem + ".txt")) as fh:
                    text = fh.read()
            kept_texts.append(text)
            self.check("nms exits 0 and keeps exactly the cluster heads and the separated "
                       "false positives",
                       text == self.expected_kept[f.stem],
                       f"{tag}:nms:{f.stem}")
        ok = codes["eval"] == 0
        machine = ""
        if ok:
            with open(self.machine) as fh:
                machine = fh.read()
            report = dict(line.split(" = ") for line in machine.splitlines())
            for name, ap in self.expected_ap.items():
                for key in (f"ap_3d_{name}", f"ap_bev_{name}", f"aos_{name}"):
                    ok &= abs(float(report[key]) - ap) <= 1e-5
        self.check("eval exits 0 and AP_3D = AP_BEV = AOS = the planted value ("
                   + ", ".join(f"{k} {v:.4f}" for k, v in self.expected_ap.items()) + ")",
                   ok, f"{tag}:eval")
        self.digests = {"kept": digest("".join(kept_texts).encode()),
                        "eval": digest(machine.encode())}

    def after_setup(self, k):
        self.verify(self.pending)

    def iteration(self, i, cycle):
        self.verify(self.round(f"round{i}", cycle))

    def throughput(self, times):
        """Frames per second of one eval call (median over calls)."""
        return float(np.median([self.n_frames / t for t in times["eval"]]))


WORKLOADS = {w.name: w for w in (FrameInfer, ToyTrain, PostprocessEval)}
