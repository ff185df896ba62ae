"""The traced benchmark wraps program functions by name; every name must exist."""

import os
import subprocess
import sys
from pathlib import Path

from helpers import child_env

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def test_install_patches_finds_every_wrapped_name():
    env = child_env()
    env["PYTHONPATH"] = str(BENCHMARK_DIR) + os.pathsep + env["PYTHONPATH"]
    code = "import harness; harness.install_patches(harness.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          cwd=BENCHMARK_DIR)
    assert proc.returncode == 0, proc.stderr.decode()
