import os
import subprocess
import sys

import numpy as np
import pytest

from voxeldet.box_geom import Box3D, Detection
from voxeldet.config import RunConfig, dump_config, parse_config, toy_config
from voxeldet.kitti_io import (
    CalibMatrices,
    PointCloud,
    write_calib,
    write_detections,
    write_labels,
    write_point_cloud,
)
from voxeldet.cli import main, read_simple_detections, write_simple_detections
from voxeldet.model import VehicleDetector
from voxeldet.nn_core import save_checkpoint
from voxeldet.synthetic import make_toy_dataset

from helpers import child_env

KITTI_R = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])


def _calib():
    return CalibMatrices(np.eye(3), np.hstack([KITTI_R, np.zeros((3, 1))]), np.eye(3, 4))


def _toy_cfg_file(tmp_path, **overrides):
    cfg = toy_config(**overrides)
    path = tmp_path / "toy.cfg"
    path.write_text(dump_config(cfg))
    return path


def _golden_cloud(tmp_path):
    pts = np.array([[1.0, 2.0, -1.0, 0.5], [4.0, -1.0, 0.0, 0.1]], dtype=np.float32)
    path = tmp_path / "scan.bin"
    path.write_bytes(pts.tobytes())
    return path


def run_cli(*argv) -> int:
    return main(list(argv))


GOOD_LINE = "10.0 0.0 -1.0 1.6 3.9 1.56 0.0 0.9\n"
# a non-finite x, then a non-finite z
NON_FINITE_LINES = ["nan 0.0 -1.0 1.6 3.9 1.56 0.0 0.8\n",
                    "12.0 0.0 inf 1.6 3.9 1.56 0.0 0.8\n"]


class TestConfigFile:
    def test_dump_load_dump_identity(self, tmp_path):
        text = dump_config(RunConfig())
        cfg = parse_config(text)
        assert dump_config(cfg) == text

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("no_such_key = 3\n")

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("max_points_per_voxel = loads\n")

    def test_precondition_validation(self):
        with pytest.raises(ValueError, match="integer multiple"):
            parse_config("range_max = 70.43,40.0,1.0\n")

    def test_part_coverage_validation(self):
        with pytest.raises(ValueError, match="covered by no part"):
            parse_config("part_bounds = 0,50;60,176\n")

    def test_match_in_bev_is_no_longer_a_key(self, tmp_path):
        with pytest.raises(ValueError, match="unknown key 'match_in_bev'"):
            parse_config("match_in_bev = false\n")
        path = tmp_path / "old.cfg"
        path.write_text(dump_config(RunConfig()) + "match_in_bev = false\n")
        assert run_cli("--config", str(path), "dump-config",
                       "--out", str(tmp_path / "o.cfg")) == 2
        assert not (tmp_path / "o.cfg").exists()

    @pytest.mark.parametrize("text, match", [
        ("part_kernels = 1,3,3,3\n", "3 parts, 4 kernels, 3 dilations"),
        ("part_dilations = 1,1,2,2\n", "3 parts, 3 kernels, 4 dilations"),
        ("part_bounds = 0,17;7,24\n", "2 parts, 3 kernels, 3 dilations"),
        ("anchor_yaws = 0.0\n", "need 2 anchor yaws, got 1"),
        ("anchor_yaws = 0.0,0.5,1.0\n", "need 2 anchor yaws, got 3"),
    ], ids=["4_kernels", "4_dilations", "2_bounds", "1_yaw", "3_yaws"])
    def test_length_mismatch_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_config(text, base=toy_config())

    def test_comments_and_blanks(self):
        cfg = parse_config("# comment\n\nlambda_seg = 0.7\n")
        assert cfg.lambda_seg == 0.7


class TestSimpleDetections:
    def test_roundtrip(self, tmp_path):
        dets = [
            Detection(Box3D(10.0, -3.0, -1.0, 1.6, 3.9, 1.56, 0.7), 0.9),
            Detection(Box3D(20.0, 5.0, -0.8, 1.5, 4.2, 1.4, -2.1), 0.4),
        ]
        path = tmp_path / "dets.txt"
        write_simple_detections(path, dets)
        back = read_simple_detections(path)
        for a, b in zip(dets, back):
            np.testing.assert_allclose(b.box.as_array(), a.box.as_array(), rtol=1e-8)
            assert b.score == pytest.approx(a.score)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="expected 8 fields"):
            read_simple_detections(path)

    @pytest.mark.parametrize("line", NON_FINITE_LINES, ids=["nan_x", "inf_z"])
    def test_non_finite_field(self, tmp_path, line):
        path = tmp_path / "dets.txt"
        path.write_text(GOOD_LINE + line)
        with pytest.raises(ValueError, match=r"dets\.txt:2: fields must be finite"):
            read_simple_detections(path)


class TestSubcommands:
    def test_voxelize_golden(self, tmp_path, capsys):
        cloud = _golden_cloud(tmp_path)
        cfg = _toy_cfg_file(tmp_path)
        out = tmp_path / "grid.txt"
        assert run_cli("--config", str(cfg), "voxelize", "--cloud", str(cloud),
                       "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "192 192 40 4"
        assert len(lines) == 3   # header + 2 sites

    def test_voxelize_missing_file(self, tmp_path):
        cfg = _toy_cfg_file(tmp_path)
        assert run_cli("--config", str(cfg), "voxelize", "--cloud",
                       str(tmp_path / "nope.bin"), "--out", str(tmp_path / "o.txt")) == 2

    def test_forward_truncated_checkpoint_exits_2(self, tmp_path):
        cfg = _toy_cfg_file(tmp_path)
        cloud = _golden_cloud(tmp_path)
        full = tmp_path / "full.bin"
        save_checkpoint(full, {"b": np.zeros(1), "w": np.ones((1, 1))})
        raw = full.read_bytes()
        cut_path = tmp_path / "cut.bin"
        for cut in range(len(raw)):
            cut_path.write_bytes(raw[:cut])
            code = run_cli("--config", str(cfg), "forward", "--cloud", str(cloud),
                           "--checkpoint", str(cut_path), "--out", str(tmp_path / "d.txt"))
            assert code == 2, f"cut at byte {cut} of {len(raw)}"

    def test_usage_error_exit_code(self):
        assert run_cli("voxelize", "--cloud") == 1

    def test_masks_pgm(self, tmp_path):
        cfg = _toy_cfg_file(tmp_path)
        cloud = _golden_cloud(tmp_path)
        calib = _calib()
        calib_path = tmp_path / "calib.txt"
        write_calib(calib_path, calib)
        from voxeldet.kitti_io import detection_to_label

        det = Detection(Box3D(4.8, 0.0, -1.0, 1.6, 4.0, 1.56, 0.0), 0.9)
        labels_path = tmp_path / "labels.txt"
        rec = detection_to_label(det, calib)
        write_labels(labels_path, [rec])
        out = tmp_path / "mask.pgm"
        assert run_cli("--config", str(cfg), "masks", "--cloud", str(cloud),
                       "--labels", str(labels_path), "--calib", str(calib_path),
                       "--kind", "box_type", "--out", str(out)) == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n24 24\n255\n")
        assert raw[-24 * 24:].count(b"\xff") == 40   # the 10x4 rasterization

    def test_nms_filters_and_suppresses(self, tmp_path):
        cfg = _toy_cfg_file(tmp_path)
        box = Box3D(4.0, 0.0, -1.0, 1.6, 3.9, 1.56, 0.0)
        dets = [Detection(box, 0.9), Detection(box, 0.8), Detection(box, 0.1)]
        src = tmp_path / "in.txt"
        write_simple_detections(src, dets)
        out = tmp_path / "out.txt"
        assert run_cli("--config", str(cfg), "nms", "--detections", str(src),
                       "--out", str(out)) == 0
        kept = read_simple_detections(out)
        assert len(kept) == 1 and kept[0].score == pytest.approx(0.9)

    @pytest.mark.parametrize("line", NON_FINITE_LINES, ids=["nan_x", "inf_z"])
    def test_nms_non_finite_field_exits_2(self, tmp_path, line):
        cfg = _toy_cfg_file(tmp_path)
        src = tmp_path / "in.txt"
        src.write_text(GOOD_LINE + line)
        out = tmp_path / "out.txt"
        assert run_cli("--config", str(cfg), "nms", "--detections", str(src),
                       "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("line", NON_FINITE_LINES, ids=["nan_x", "inf_z"])
    def test_eval_non_finite_field_exits_2(self, tmp_path, line):
        cfg = _toy_cfg_file(tmp_path)
        for d in ("dets", "labels", "calib"):
            os.makedirs(tmp_path / d, exist_ok=True)
        (tmp_path / "dets" / "000000.txt").write_text(GOOD_LINE + line)
        write_calib(tmp_path / "calib" / "000000.txt", _calib())
        (tmp_path / "labels" / "000000.txt").write_text("")
        report = tmp_path / "report.txt"
        assert run_cli("--config", str(cfg), "eval",
                       "--detections-dir", str(tmp_path / "dets"),
                       "--labels-dir", str(tmp_path / "labels"),
                       "--calib-dir", str(tmp_path / "calib"),
                       "--out", str(report)) == 2
        assert not report.exists()

    @pytest.mark.parametrize("field, value", [(11, "nan"), (13, "inf"), (1, "nan"),
                                              (10, "inf")],
                             ids=["nan_x", "inf_z", "nan_truncation", "inf_length"])
    def test_eval_non_finite_label_exits_2(self, tmp_path, field, value):
        cfg = _toy_cfg_file(tmp_path)
        for d in ("dets", "labels", "calib"):
            os.makedirs(tmp_path / d, exist_ok=True)
        (tmp_path / "dets" / "000000.txt").write_text(GOOD_LINE)
        write_calib(tmp_path / "calib" / "000000.txt", _calib())
        fields = "Car 0.00 0 1.57 0.0 0.0 100.0 100.0 1.56 1.6 3.9 0.0 1.78 10.0 -1.57".split()
        fields[field] = value
        (tmp_path / "labels" / "000000.txt").write_text(" ".join(fields) + "\n")
        report = tmp_path / "report.txt"
        assert run_cli("--config", str(cfg), "eval",
                       "--detections-dir", str(tmp_path / "dets"),
                       "--labels-dir", str(tmp_path / "labels"),
                       "--calib-dir", str(tmp_path / "calib"),
                       "--out", str(report)) == 2
        assert not report.exists()

    @pytest.mark.parametrize("value, message", [
        ("nan", "numeric fields must be finite"),
        ("abc", "could not convert string to float: 'abc'"),
    ])
    def test_eval_bad_label_file_names_file_and_line(self, tmp_path, capsys, value, message):
        cfg = _toy_cfg_file(tmp_path)
        for d in ("dets", "labels", "calib"):
            os.makedirs(tmp_path / d, exist_ok=True)
        good = "Car 0.00 0 1.57 0.0 0.0 100.0 100.0 1.56 1.6 3.9 0.0 1.78 10.0 -1.57"
        bad = good.split()
        bad[11] = value
        for stem in ("000000", "000001"):
            (tmp_path / "dets" / f"{stem}.txt").write_text(GOOD_LINE)
            write_calib(tmp_path / "calib" / f"{stem}.txt", _calib())
        (tmp_path / "labels" / "000000.txt").write_text(good + "\n")
        (tmp_path / "labels" / "000001.txt").write_text(good + "\n\n" + " ".join(bad) + "\n")
        report = tmp_path / "report.txt"
        assert run_cli("--config", str(cfg), "eval",
                       "--detections-dir", str(tmp_path / "dets"),
                       "--labels-dir", str(tmp_path / "labels"),
                       "--calib-dir", str(tmp_path / "calib"),
                       "--out", str(report)) == 2
        assert not report.exists()
        err = capsys.readouterr().err
        assert f"{tmp_path / 'labels' / '000001.txt'}:3: {message}" in err

    def test_forward_kitti_out_without_calib_writes_nothing(self, tmp_path):
        cfg_path = _toy_cfg_file(tmp_path)
        ckpt = tmp_path / "model.bin"
        save_checkpoint(ckpt, VehicleDetector(toy_config()).state_dict())
        out, kitti = tmp_path / "dets.txt", tmp_path / "kitti.txt"
        assert run_cli("--config", str(cfg_path), "forward",
                       "--cloud", str(_golden_cloud(tmp_path)), "--checkpoint", str(ckpt),
                       "--out", str(out), "--kitti-out", str(kitti)) == 1
        assert not out.exists() and not kitti.exists()

    def test_eval_perfect_ap(self, tmp_path):
        cfg = _toy_cfg_file(tmp_path)
        calib = _calib()
        for d in ("dets", "labels", "calib"):
            os.makedirs(tmp_path / d, exist_ok=True)
        boxes = [Box3D(10.0, 0.0, -1.0, 1.6, 3.9, 1.56, 0.3),
                 Box3D(20.0, 4.0, -1.0, 1.6, 3.9, 1.56, -0.5)]
        dets = [Detection(b, 0.9) for b in boxes]
        write_simple_detections(tmp_path / "dets" / "000000.txt", dets)
        write_calib(tmp_path / "calib" / "000000.txt", calib)
        write_detections(tmp_path / "labels_full.txt", dets, calib)
        # strip scores to make a label file
        lines = []
        for line in (tmp_path / "labels_full.txt").read_text().splitlines():
            fields = line.split()
            fields[4:8] = ["0.0", "0.0", "100.0", "100.0"]   # healthy bbox height
            lines.append(" ".join(fields[:15]))
        (tmp_path / "labels" / "000000.txt").write_text("\n".join(lines) + "\n")
        report = tmp_path / "report.txt"
        machine = tmp_path / "report.kv"
        assert run_cli("--config", str(cfg), "eval",
                       "--detections-dir", str(tmp_path / "dets"),
                       "--labels-dir", str(tmp_path / "labels"),
                       "--calib-dir", str(tmp_path / "calib"),
                       "--out", str(report), "--machine-out", str(machine)) == 0
        assert "ap_3d_moderate = 100.000000" in machine.read_text()

    def test_render_bev_ppm(self, tmp_path):
        cfg = _toy_cfg_file(tmp_path)
        cloud = _golden_cloud(tmp_path)
        dets_path = tmp_path / "dets.txt"
        write_simple_detections(
            dets_path, [Detection(Box3D(4.8, 0.0, -1.0, 1.6, 3.9, 1.56, 0.2), 0.9)]
        )
        out = tmp_path / "scene.ppm"
        assert run_cli("--config", str(cfg), "render-bev", "--cloud", str(cloud),
                       "--detections", str(dets_path), "--out", str(out)) == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P6\n192 192\n255\n")
        pixels = np.frombuffer(raw.split(b"\n", 3)[3], dtype=np.uint8).reshape(192, 192, 3)
        # red outline present
        assert ((pixels[:, :, 0] == 255) & (pixels[:, :, 1] == 0)).any()

    def test_dump_config_roundtrip_via_cli(self, tmp_path, capsys):
        out = tmp_path / "cfg.txt"
        assert run_cli("dump-config", "--out", str(out)) == 0
        assert run_cli("--config", str(out), "dump-config", "--out",
                       str(tmp_path / "cfg2.txt")) == 0
        assert out.read_text() == (tmp_path / "cfg2.txt").read_text()


@pytest.fixture(scope="module")
def micro_cfg_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    cfg = toy_config(
        range_min=(0.0, -2.4, -3.0),
        range_max=(4.8, 2.4, 1.0),
        part_bounds=((0, 5), (3, 9), (7, 12)),
        toy_ground_points=120,
        toy_car_points=50,
        toy_max_cars=1,
        toy_scenes=2,
        batch_size=2,
        train_steps=2,
    )
    path = tmp / "micro.cfg"
    path.write_text(dump_config(cfg))
    return path


class TestTrainForwardPipeline:

    def test_train_then_forward(self, micro_cfg_file, tmp_path):
        ckpt = tmp_path / "model.bin"
        trace = tmp_path / "trace.csv"
        assert run_cli("--config", str(micro_cfg_file), "train-toy",
                       "--checkpoint", str(ckpt), "--trace", str(trace)) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0].startswith("step,total,L_S,L_loc_1")
        assert len(lines) == 3
        cfg = toy_config(
            range_min=(0.0, -2.4, -3.0), range_max=(4.8, 2.4, 1.0),
            part_bounds=((0, 5), (3, 9), (7, 12)), toy_ground_points=120,
            toy_car_points=50, toy_max_cars=1, toy_scenes=2, batch_size=2,
            train_steps=2,
        )
        scene = make_toy_dataset(cfg, n_scenes=1)[0]
        cloud_path = tmp_path / "scene.bin"
        write_point_cloud(cloud_path, scene.cloud)
        dets = tmp_path / "dets.txt"
        assert run_cli("--config", str(micro_cfg_file), "forward",
                       "--cloud", str(cloud_path), "--checkpoint", str(ckpt),
                       "--out", str(dets)) == 0
        read_simple_detections(dets)   # parses

    @pytest.mark.parametrize("steps", ["-3", "0"])
    def test_train_toy_rejects_non_positive_steps(self, micro_cfg_file, tmp_path, steps):
        ckpt = tmp_path / "model.bin"
        trace = tmp_path / "trace.csv"
        assert run_cli("--config", str(micro_cfg_file), "train-toy", "--steps", steps,
                       "--checkpoint", str(ckpt), "--trace", str(trace)) == 1
        assert not ckpt.exists() and not trace.exists()

    @pytest.mark.parametrize("key, value", [("train_steps", "0"), ("train_steps", "-1"),
                                            ("batch_size", "0")])
    def test_train_toy_rejects_non_positive_config(self, micro_cfg_file, tmp_path, capsys,
                                                   monkeypatch, key, value):
        import voxeldet.synthetic

        def no_dataset(*args, **kwargs):
            raise AssertionError("dataset built before the config was checked")

        monkeypatch.setattr(voxeldet.synthetic, "make_toy_dataset", no_dataset)
        lines = micro_cfg_file.read_text().splitlines()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(f"{key} = {value}" if line.split("=")[0].strip() == key
                                 else line for line in lines) + "\n")
        ckpt = tmp_path / "model.bin"
        trace = tmp_path / "trace.csv"
        assert run_cli("--config", str(cfg), "train-toy",
                       "--checkpoint", str(ckpt), "--trace", str(trace)) == 2
        assert not ckpt.exists() and not trace.exists()
        assert f"{key} must be >= 1, got {value}" in capsys.readouterr().err

    def test_train_toy_deterministic(self, micro_cfg_file, tmp_path):
        outs = []
        for run in range(2):
            ckpt = tmp_path / f"m{run}.bin"
            trace = tmp_path / f"t{run}.csv"
            assert run_cli("--config", str(micro_cfg_file), "train-toy",
                           "--checkpoint", str(ckpt), "--trace", str(trace)) == 0
            outs.append((ckpt.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]


class TestBench:
    def test_stage_table_deterministic(self, tmp_path):
        cfg = _toy_cfg_file(tmp_path)
        tables = []
        for run in range(2):
            out = tmp_path / f"bench{run}.txt"
            assert run_cli("--config", str(cfg), "bench", "--points", "2000",
                           "--out", str(out)) == 0
            tables.append(out.read_text())
        assert tables[0] == tables[1]
        assert "voxelize" in tables[0] and "nms" in tables[0]


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "cfg.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "voxeldet.cli", "dump-config", "--out", str(out)],
            capture_output=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert out.exists()
