"""Fuzz the command line with mutated input files.

Each example mutates one valid toy input (a label, calibration, detection or
config file, or a ``.bin`` point cloud) and runs every subcommand that reads
it through ``cli.main``. Whatever the input:

- the exit code is 0, 1, 2 or 3;
- on exit 0, stderr holds nothing but the dropped-points log line;
- otherwise stderr is exactly one ``usage error:``, ``data error:`` or
  ``numeric failure:`` line;
- no Python warning is raised.

A mutated config file runs only ``dump-config``: a config that validates may
still describe a grid too large to build, which no other subcommand should
be asked to allocate here.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeldet import cli
from voxeldet.config import dump_config, toy_config
from voxeldet.kitti_io import CalibMatrices, write_calib

KITTI_R = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
CALIB = CalibMatrices(np.eye(3), np.hstack([KITTI_R, [[0.1], [0.2], [-0.3]]]),
                      np.arange(12.0).reshape(3, 4) / 40.0)
# two cars inside the toy grid (camera frame) and a DontCare region
LABELS = (
    "Car 0.00 0 1.57 0.0 0.0 100.0 100.0 1.56 1.6 3.9 -1.0 1.78 5.0 -1.57\n"
    "Car 0.50 1 0.20 10.0 20.0 60.0 80.0 1.50 1.7 4.2 2.0 1.70 7.0 0.30\n"
    "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10\n"
)
DETECTIONS = (
    "5.0 1.0 -1.0 1.6 3.9 1.56 0.0 0.9\n"
    "5.2 1.1 -1.0 1.6 3.9 1.56 0.1 0.6\n"
    "7.0 -2.0 -0.9 1.7 4.2 1.5 -1.87 0.5\n"
)
CLOUD_POINTS = 64
# 1e100 is the largest magnitude a row may hold
SPECIAL_VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "1e200", "1e100", "-0.0", "1e-320",
                  "abc", ""]
PLANTED_POINT_VALUES = [3e38, -3e38, np.nan]
# a field of a text row or config value: a run of characters between separators
FIELD = re.compile(rb"[^\s,;=]+")
DROPPED_POINTS_LOG = re.compile(r"rejected \d+ non-finite point records")
OUTCOMES = ("usage error: ", "data error: ", "numeric failure: ")


def _valid_files(directory: Path) -> dict[str, Path]:
    """Valid toy inputs of every kind, one frame ``000000`` for ``eval``."""
    paths = {kind: directory / kind / "000000.txt" for kind in ("labels", "calib", "detections")}
    for path in paths.values():
        path.parent.mkdir()
    paths["labels"].write_text(LABELS)
    write_calib(paths["calib"], CALIB)
    paths["detections"].write_text(DETECTIONS)
    paths["config"] = directory / "toy.cfg"
    paths["config"].write_text(dump_config(toy_config()))
    cfg = toy_config()
    rng = np.random.default_rng(0)
    points = rng.uniform(cfg.range_min + (0.0,), cfg.range_max + (1.0,), (CLOUD_POINTS, 4))
    paths["cloud"] = directory / "scan.bin"
    paths["cloud"].write_bytes(points.astype("<f4").tobytes())
    return paths


def _commands(paths: dict[str, Path], out: Path) -> dict[str, list[str]]:
    def p(kind):
        return str(paths[kind])

    return {
        "voxelize": ["--toy", "voxelize", "--cloud", p("cloud"), "--out", str(out)],
        "masks": ["--toy", "masks", "--cloud", p("cloud"), "--labels", p("labels"),
                  "--calib", p("calib"), "--out", str(out)],
        "nms": ["--toy", "nms", "--detections", p("detections"), "--out", str(out)],
        "eval": ["--toy", "eval", "--detections-dir", str(paths["detections"].parent),
                 "--labels-dir", str(paths["labels"].parent),
                 "--calib-dir", str(paths["calib"].parent), "--out", str(out)],
        "render-bev": ["--toy", "render-bev", "--cloud", p("cloud"), "--labels", p("labels"),
                       "--calib", p("calib"), "--detections", p("detections"),
                       "--out", str(out)],
        "dump-config": ["--toy", "--config", p("config"), "dump-config", "--out", str(out)],
    }


READERS = {
    "cloud": ("voxelize", "masks", "render-bev"),
    "labels": ("masks", "eval", "render-bev"),
    "calib": ("masks", "eval", "render-bev"),
    "detections": ("nms", "eval", "render-bev"),
    "config": ("dump-config",),
}


PICK = st.sampled_from(range(1 << 10))   # a position, taken modulo what the file offers
TEXT_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), PICK),
    st.tuples(st.just("duplicate"), PICK),
    st.tuples(st.just("swap"), PICK, st.sampled_from(SPECIAL_VALUES)),
    st.tuples(st.just("byte"), PICK, st.binary(min_size=1, max_size=1)),
)
CLOUD_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, CLOUD_POINTS * 16 - 1)),
    st.tuples(st.just("pad"), st.binary(min_size=1, max_size=31)),
    st.tuples(st.just("plant"), st.integers(0, CLOUD_POINTS - 1), st.integers(0, 3),
              st.sampled_from(PLANTED_POINT_VALUES)),
)


def mutate_text(text: bytes, mutation) -> bytes:
    """A field dropped, duplicated or swapped for a special value, or a stray
    byte inserted."""
    kind, pick, *arg = mutation
    if kind == "byte":
        at = pick % (len(text) + 1)
        return text[:at] + arg[0] + text[at:]
    fields = list(FIELD.finditer(text))
    if not fields:
        return text
    field = fields[pick % len(fields)]
    start, end = field.span()
    if kind == "drop":
        return text[:start] + text[end:]
    if kind == "duplicate":
        sep = text[end:end + 1] if text[end:end + 1] in (b",", b";") else b" "
        return text[:end] + sep + field.group() + text[end:]
    return text[:start] + arg[0].encode() + text[end:]


def mutate_cloud(raw: bytes, mutation) -> bytes:
    """The file truncated or padded, or a coordinate set to ±3e38 or NaN."""
    kind, *arg = mutation
    if kind == "truncate":
        return raw[:arg[0]]
    if kind == "pad":
        return raw + arg[0]
    row, col, value = arg
    points = np.frombuffer(raw[:len(raw) // 16 * 16], dtype="<f4").reshape(-1, 4).copy()
    if len(points):
        points[row % len(points), col] = value
    return points.tobytes() + raw[len(raw) // 16 * 16:]


def run_main(argv) -> tuple[int, str, list]:
    """``cli.main(argv)`` with its exit code, stderr and recorded warnings."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue(), caught


def check_outcome(command, code, err, caught):
    assert code in (0, 1, 2, 3), (command, code, err)
    assert not caught, (command, [str(w.message) for w in caught])
    lines = err.splitlines()
    if code == 0:
        assert all(DROPPED_POINTS_LOG.search(line) for line in lines), (command, err)
    else:
        assert len(lines) == 1 and lines[0].startswith(OUTCOMES), (command, code, err)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_input_exits_cleanly(kind, data):
    mutate, strategy = ((mutate_cloud, CLOUD_MUTATIONS) if kind == "cloud"
                        else (mutate_text, TEXT_MUTATIONS))
    mutations = data.draw(st.lists(strategy, min_size=1, max_size=3), label="mutations")
    with tempfile.TemporaryDirectory() as tmp:
        paths = _valid_files(Path(tmp))
        raw = paths[kind].read_bytes()
        for mutation in mutations:
            raw = mutate(raw, mutation)
        paths[kind].write_bytes(raw)
        commands = _commands(paths, Path(tmp) / "out")
        for command in READERS[kind]:
            check_outcome(command, *run_main(commands[command]))


@pytest.mark.parametrize("command", sorted(set().union(*READERS.values())))
def test_valid_inputs_run_cleanly(tmp_path, command):
    """The unmutated inputs pass every subcommand, so a fuzz failure is the
    mutation's doing."""
    code, err, caught = run_main(_commands(_valid_files(tmp_path), tmp_path / "out")[command])
    assert (code, err, caught) == (0, "", [])
