"""The traced benchmark wraps program functions by name; every name must exist."""

import os
import subprocess
import sys
from pathlib import Path

from helpers import child_env

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"

# The CLI is imported before the patches go in, as the postprocess_eval workload
# does, so its nms and eval must reach the library through module attributes.
CLI_SPANS = """
import os
import sys

import numpy as np

import harness
from voxeldet import cli
from voxeldet.box_geom import Box3D, Detection
from voxeldet.kitti_io import CalibMatrices, detection_to_label, write_calib, write_labels

tracer = harness.Tracer()
harness.install_patches(tracer)
root = sys.argv[1]
for d in ("dets", "labels", "calib", "kept"):
    os.makedirs(os.path.join(root, d))
calib = CalibMatrices(np.eye(3), np.eye(3, 4), np.eye(3, 4))
det = Detection(Box3D(10.0, 0.0, -1.0, 1.6, 3.9, 1.56, 0.3), 0.9)
cli.write_simple_detections(os.path.join(root, "dets", "000000.txt"), [det])
write_labels(os.path.join(root, "labels", "000000.txt"), [detection_to_label(det, calib)])
write_calib(os.path.join(root, "calib", "000000.txt"), calib)
with tracer.operation("nms", "cli.nms_cmd"):
    assert cli.main(["--toy", "nms", "--detections", os.path.join(root, "dets", "000000.txt"),
                     "--out", os.path.join(root, "kept", "000000.txt")]) == 0
with tracer.operation("eval", "cli.eval_cmd"):
    assert cli.main(["--toy", "eval", "--detections-dir", os.path.join(root, "kept"),
                     "--labels-dir", os.path.join(root, "labels"),
                     "--calib-dir", os.path.join(root, "calib"),
                     "--out", os.path.join(root, "report.txt")]) == 0
print(" ".join(sorted({span[0] for span in tracer.spans})))
"""


def _benchmark_env():
    env = child_env()
    env["PYTHONPATH"] = str(BENCHMARK_DIR) + os.pathsep + env["PYTHONPATH"]
    return env


def test_install_patches_finds_every_wrapped_name():
    code = "import harness; harness.install_patches(harness.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=_benchmark_env(), cwd=BENCHMARK_DIR)
    assert proc.returncode == 0, proc.stderr.decode()


def test_cli_calls_are_traced_when_the_cli_is_imported_first(tmp_path):
    proc = subprocess.run([sys.executable, "-c", CLI_SPANS, str(tmp_path)], capture_output=True,
                          env=_benchmark_env(), cwd=BENCHMARK_DIR)
    assert proc.returncode == 0, proc.stderr.decode()
    spans = set(proc.stdout.decode().split())
    assert {"box_geom.nms", "eval_metrics.evaluate_frames",
            "kitti_io.read_labels_calib"} <= spans, spans
