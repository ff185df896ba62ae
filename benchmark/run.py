"""voxeldet benchmark: one workload per process, a closed loop with one client.

    python3 benchmark/run.py --workload frame_infer --seed 1 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The program under test is imported from ``src/`` next to this
directory and nowhere else. Workloads: frame_infer, toy_train,
postprocess_eval (see NOTES.md for why each exists); ``all`` runs each of them
in its own process, one after the other, and exits non-zero if any fails.

The process runs a single thread (BLAS thread pools are pinned to one). It
sets up three times (each set-up ends with a warm-up operation),
then loops for ``--seconds``, then checks the outputs. Standard output gets
a readable report (every end-to-end metric with its unit and sample count,
every correctness check, the stage digests and exact work counters) and, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, and the spans go to
``.bench_out/trace_<workload>_seed<n>.json``.

Exact counters and digests of every run are kept in
``.bench_out/record_<workload>_seed<n>_<source hash>.json``, where the hash
covers ``src/voxeldet`` and this directory; a later run with the same seed
of the same source must reproduce every value it shares with that record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")
N_SETUPS = 3

# per-layer time metrics, one per span name
LAYERS = (
    "kitti_io.read_point_cloud", "kitti_io.read_labels_calib", "voxel_grid.voxelize",
    "sparse_conv.build_plan", "sparse_conv.forward", "nn_core.conv2d", "nn_core.backward",
    "nn_core.adamw_step", "seg_context.sce", "seg_context.make_mask", "depth_head.head",
    "depth_head.fuse_scores", "model.detect", "box_geom.nms", "train.assign_targets",
    "train.loss", "augment.fit_ground_plane", "augment.augment_scene",
    "eval_metrics.evaluate_frames", "cli.nms_cmd",
)
# layers reported by self time (the span minus its children) instead of duration
SELF_TIME = {"cli.nms_cmd"}
LEVELS = range(4)
COUNTS = (
    ["voxel_grid.points_in", "voxel_grid.points_out_of_range", "voxel_grid.points_over_cap",
     "voxel_grid.sites"]
    + [f"sparse_conv.{kind}_l{lv}" for kind in ("sites", "pairs_subm", "pairs_strided")
       for lv in LEVELS]
    + ["nn_core.conv2d_calls", "model.candidates", "box_geom.nms_in", "box_geom.nms_kept",
       "box_geom.iou_calls", "eval_metrics.iou_calls"]
)
COMPUTED = {"sparse_conv.gflop": "GFLOP_computed", "nn_core.conv2d_gflop": "GFLOP_computed",
            "nn_core.conv2d_im2col_gb": "GB_computed"}


def import_program():
    """Put this checkout's src/ first on the path; refuse any other voxeldet."""
    if not os.path.isfile(os.path.join(SRC, "voxeldet", "__init__.py")):
        sys.exit(f"benchmark: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import voxeldet

    if not os.path.abspath(voxeldet.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: voxeldet imported from {voxeldet.__file__}, not {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_workload(w, seconds):
    from harness import cpu_now, now

    setup_cpu, setup_wall = [], []
    for k in range(N_SETUPS):
        t0, c0 = now(), cpu_now()
        with w.tracer.operation(f"setup:{k}", "setup"):
            w.setup(k)
        setup_cpu.append(cpu_now() - c0)
        setup_wall.append(now() - t0)
        w.after_setup(k)
    # a traced run alternates timed (traced) and reference (untraced) iterations;
    # it needs one full timed cycle and one reference
    traced_run = w.tracer.enabled
    least = max(w.min_iterations, 2 * w.iterations_per_cycle if traced_run else 1)
    # the loop ends on a whole cycle, so that each of toy_train's batches (whose
    # steps differ in cost) weighs the same in every run's median
    start, i, n_timed = now(), 0, 0
    while i < least or now() - start < seconds or n_timed % w.iterations_per_cycle:
        if traced_run and i % 2 == 1:
            w.iteration(i, None)
        else:
            w.iteration(i, n_timed // w.iterations_per_cycle)
            n_timed += 1
        i += 1
    w.finish()
    return setup_cpu, setup_wall


def wrapper_counters(w, tracer):
    """Counters seen by the traced wrappers: last set-up plus the first full cycle.

    Also checks that every full cycle and every set-up repeats them exactly.
    """
    def total(op_ids):
        out = {}
        for op in op_ids:
            for name, v in tracer.counts.get(op, {}).items():
                out[name] = out.get(name, 0.0) + v
        return out

    setups = [total([f"setup:{k}"]) for k in range(N_SETUPS)]
    w.check("traced set-ups repeat the same wrapper counters",
            all(s == setups[0] for s in setups))
    full = [total(ops) for _, ops in sorted(w.cycles.items()) if len(ops) == w.cycle_size]
    w.check("full loop cycles repeat the same wrapper counters",
            bool(full) and all(c == full[0] for c in full), f"{len(full)} cycles")
    merged = dict(setups[-1])
    for name, v in (full[0] if full else {}).items():
        merged[name] = merged.get(name, 0.0) + v
    return merged


def per_layer_metrics(w, tracer, counters):
    from harness import median

    totals, selfs = tracer.layer_times()
    metrics = {}
    for name in LAYERS:
        per_op = (selfs if name in SELF_TIME else totals).get(name, {})
        value = median(list(per_op.values())) if per_op else 0.0
        metrics[name + "_s"] = {"value": value, "unit": "s"}
    for name in COUNTS:
        metrics[name] = {"value": int(counters.get(name, 0)), "unit": "count"}
    calls = counters.get("box_geom.iou_calls", 0)
    metrics["box_geom.iou_nonzero_ratio"] = {
        "value": counters.get("box_geom.iou_nonzero", 0) / calls if calls else 0.0,
        "unit": "ratio"}
    values = {"sparse_conv.gflop": counters.get("sparse_conv.gflop", 0.0),
              "nn_core.conv2d_gflop": counters.get("nn_core.conv2d_flop", 0.0) / 1e9,
              "nn_core.conv2d_im2col_gb": counters.get("nn_core.conv2d_im2col_bytes", 0.0) / 1e9}
    for name, unit in COMPUTED.items():
        metrics[name] = {"value": values[name], "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": median(w.samples[w.primary]) - median(w.reference[w.primary]), "unit": "s"}
    return metrics


def source_hash() -> str:
    """SHA-256 of every file of the program (src/voxeldet) and of this benchmark.

    The record of digests and counters is kept per hash, so it compares runs
    of the same source only: a correct change that moves a digest or a
    counter starts a record of its own.
    """
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "voxeldet"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def compare_record(w, args, record):
    """Every value shared with an earlier run of this seed and source must repeat exactly.

    The record keeps the first value seen for each key, so a mismatch stays visible.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"record_{w.name}_seed{args.seed}_{source_hash()}.json")
    earlier = {}
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
    shared = [k for k in record if k in earlier]
    w.check("digests and counters repeat every earlier run of this seed and source",
            all(record[k] == earlier[k] for k in shared), f"{len(shared)} shared values")
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump({**record, **earlier}, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def check_lines(checks):
    """One line per check, with its pass count; every failed operation named."""
    lines = ["checks (passed/run)"]
    groups = {}
    for desc, subject, ok in checks:
        groups.setdefault(desc, []).append((subject, ok))
    for desc, results in groups.items():
        bad = [s for s, ok in results if not ok]
        only = f"  [{results[0][0]}]" if len(results) == 1 and results[0][0] else ""
        lines.append(f"  {'FAIL' if bad else 'PASS'} {len(results) - len(bad)}/{len(results)}"
                     f"  {desc}{only}")
        lines += [f"         failed: {s}" for s in bad]
    return lines


def layer_lines(tracer, metrics):
    """Per-layer metrics, each time with its share of the operations it ran in."""
    totals, own = tracer.layer_times()
    roots = {op: (n, e - b) for n, b, e, parent, op in tracer.spans if parent is None}
    lines = []
    for name, m in metrics.items():
        layer = name[:-2]
        per_op = (own if layer in SELF_TIME else totals).get(layer, {})
        share = ""
        if m["unit"] == "s" and per_op:
            base = sum(roots[op][1] for op in per_op)
            kinds = "/".join(sorted({roots[op][0] for op in per_op}))
            share = f"  {100 * sum(per_op.values()) / base:5.1f}% of {kinds}"
        lines.append(f"  {name:<36} {m['value']:12.6g} {m['unit']}{share}")
    return lines


def write_trace(w, args, tracer, metrics):
    os.makedirs(OUT_DIR, exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    selfs = tracer.self_times()
    totals, own = tracer.layer_times()
    doc = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "span_fields": ["name", "start_s", "end_s", "parent", "op", "self_s"],
        "spans": [[n, s - t0, e - t0, p, op, st]
                  for (n, s, e, p, op), st in zip(tracer.spans, selfs)],
        "layers": {name: {"ops": len(totals[name]),
                          "total_s": sum(totals[name].values()),
                          "self_s": sum(own[name].values())} for name in sorted(totals)},
        "per_layer": metrics,
        # trace.overhead_s is the traced op_p50_s minus the untraced one, of these counts
        "overhead_samples": {"traced": len(w.samples[w.primary]),
                             "untraced": len(w.reference[w.primary])},
    }
    path = os.path.join(OUT_DIR, f"trace_{w.name}_seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def run_all(args) -> int:
    """Each workload in a process of its own, so peak_rss_mb stays per workload."""
    import subprocess

    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout + "\n")
        last = (proc.stdout.strip().splitlines() or ["{}"])[-1]
        ok &= proc.returncode == 0 and last.startswith("{") and json.loads(last)["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # one process, one thread: BLAS must not start workers on the machine's two cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_program()
    if args.workload == "all":
        return run_all(args)
    from harness import NullTracer, Tracer, install_patches, median, peak_rss_mb, tail
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        install_patches(tracer)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        w = WORKLOADS[args.workload](args.seed, workdir, tracer)
        setup_cpu, setup_wall = run_workload(w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    counters = dict(w.counters)
    if args.trace:
        counters.update(wrapper_counters(w, tracer))
    compare_record(w, args, {**{f"digest.{k}": v for k, v in w.digests.items()},
                             **{f"count.{k}": v for k, v in counters.items()}})

    ops = w.samples[w.primary]
    end_to_end = {
        "op_p50_s": {"value": median(ops), "unit": "s"},
        "throughput_per_s": {"value": w.throughput(w.samples), "unit": "1/s"},
        "setup_s": {"value": median(setup_cpu), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    walls = {"op_p50_s": median(w.wall[w.primary]), "throughput_per_s": w.throughput(w.wall),
             "setup_s": median(setup_wall)}
    counts = {"op_p50_s": len(ops), "throughput_per_s": len(w.samples[w.rate_kind]),
              "setup_s": len(setup_cpu), "peak_rss_mb": 1}
    lines = [f"voxeldet benchmark: workload={w.name} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             f"inputs: {w.input_summary}",
             "end-to-end (closed loop, one client; timed on process CPU time, wall time beside)"]
    labels = {"op_p50_s": f"{w.headline[0]} (op_p50_s)",
              "throughput_per_s": f"{w.headline[1]} (throughput_per_s)"}
    for key, m in end_to_end.items():
        wall = f"  wall {walls[key]:.6g}" if key in walls else ""
        lines.append(f"  {labels.get(key, key):<40} {m['value']:12.6g} {m['unit']:<4} "
                     f"n={counts[key]}{wall}")
    lines.append(f"  {'samples (CPU s)':<40} " + " ".join(f"{v:.4g}" for v in ops))
    t = tail(ops)
    if t:
        lines.append(f"  {w.headline[0].replace('p50', f'p{round(t[0] * 100)}'):<40} "
                     f"{t[1]:12.6g} s    n={len(ops)}")
    lines.append(f"  {'error_rate':<40} {w.failed / max(w.attempted, 1):12.6g} "
                 f"     ({w.failed} failed of {w.attempted} operations)")
    lines += check_lines(w.checks)
    lines.append("digests")
    lines += [f"  {k:<12} {v}" for k, v in sorted(w.digests.items())]
    lines.append("exact counters (computed from outside; traced runs add wrapper counts)")
    lines += [f"  {k:<36} {v:.12g}" for k, v in sorted(counters.items())]

    metrics = end_to_end
    if args.trace:
        metrics = per_layer_metrics(w, tracer, counters)
        path = write_trace(w, args, tracer, metrics)
        lines.append(f"per-layer (traced; spans in {os.path.relpath(path, ROOT)}; "
                     "share = time in the layer / time of the operations it ran in)")
        lines += layer_lines(tracer, metrics)
        ref = w.reference[w.primary]
        lines.append(f"  tracing overhead: traced {w.headline[0]} {median(ops):.6g} s "
                     f"(n={len(ops)}) minus untraced {median(ref):.6g} s (n={len(ref)}), "
                     "alternate iterations")

    print("\n".join(lines))
    print(json.dumps({"correct": w.failed == 0, "attempted": w.attempted,
                      "failed": w.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
