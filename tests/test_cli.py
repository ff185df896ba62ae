import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from voxeldet.box_geom import Box3D, Detection
from voxeldet.config import RunConfig, dump_config, load_config, parse_config, toy_config
from voxeldet.kitti_io import (
    CalibMatrices,
    PointCloud,
    detection_to_label,
    write_calib,
    write_detections,
    write_labels,
    write_point_cloud,
)
from voxeldet import cli
from voxeldet.cli import main, read_simple_detections, write_simple_detections
from voxeldet.model import VehicleDetector
from voxeldet.nn_core import save_checkpoint
from voxeldet.synthetic import make_toy_dataset
from voxeldet.train import LossReport, train_toy
from voxeldet.voxel_grid import voxelize

from helpers import augment_scenes_loop, child_env

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
# a detection line that parses as 8 fields but is still bad, and the error it gives
BAD_DETECTION_LINES = [
    ("12.0 abc -1.0 1.6 3.9 1.56 0.0 0.8\n", "could not convert string to float: 'abc'"),
    ("12.0 0.0 -1.0 1.6 0.0 1.56 0.0 0.8\n", "box sizes must be positive"),
    ("12.0 0.0 -1.0 1.6 3.9 1.56 0.0 1.5\n", "score out of range: 1.5"),
    ("12.0 0.0 -1.0 1.6 1.7e308 1.56 0.3 0.8\n", "fields must be at most 1e+100 in magnitude"),
]
# the largest box that read_simple_detections accepts: 1e100 in magnitude in every box field
LARGEST_LINE = "1e100 -1e100 1e100 1e100 1e100 1e100 1e100 0.8\n"
LABEL_LINE = "Car 0.00 0 1.57 0.0 0.0 100.0 100.0 1.56 1.6 3.9 0.0 1.78 10.0 -1.57\n"
# a calibration row, how it is broken, and the error it gives after "<path>: "
BAD_CALIB_ROWS = [
    ("Tr_velo_to_cam", lambda v: v[:-1] + ["nan"], "Tr_velo_to_cam: values must be finite"),
    ("R0_rect", lambda v: v[:-1], "R0_rect: expected 9 values, got 8"),
    ("P2", lambda v: v[:-1] + ["abc"], "P2: could not convert string to float: 'abc'"),
]


def _bad_calib(path, key, breaks):
    """``_calib()`` written to ``path`` with the values of its ``key`` row broken."""
    write_calib(path, _calib())
    lines = []
    for line in path.read_text().splitlines():
        name, values = line.split(":")
        lines.append(f"{name}: {' '.join(breaks(values.split()))}" if name == key else line)
    path.write_text("\n".join(lines) + "\n")
    return path
BAD_DETECTION_IDS = ["non_numeric", "zero_length", "score_1.5", "length_1.7e308"]


def _run_on_detections(tmp_path, command, text):
    """Run ``command`` (render-bev, nms or eval) with one detections file
    holding ``text`` (eval against one labelled car); returns the exit code,
    the detections file and the output path."""
    if command == "eval":
        for d in ("dets", "labels", "calib"):
            os.makedirs(tmp_path / d)
        dets = tmp_path / "dets" / "000000.txt"
        write_calib(tmp_path / "calib" / "000000.txt", _calib())
        (tmp_path / "labels" / "000000.txt").write_text(LABEL_LINE)
        args = ["--detections-dir", tmp_path / "dets", "--labels-dir", tmp_path / "labels",
                "--calib-dir", tmp_path / "calib"]
    else:
        dets = tmp_path / "dets.txt"
        args = ["--detections", dets]
        if command == "render-bev":
            args += ["--cloud", _golden_cloud(tmp_path)]
    dets.write_text(text)
    out = tmp_path / "out"
    code = run_cli("--config", str(_toy_cfg_file(tmp_path)), command, *map(str, args),
                   "--out", str(out))
    return code, dets, out


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
            parse_config("part_bounds = 0,50;60,120;110,176\n")

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

    @pytest.mark.parametrize("line, message", [
        ("range_min = 0,-40,-3,5", "range_min needs 3 finite values"),
        ("range_max = 70.4,40.0", "range_max needs 3 finite values"),
        ("range_max = inf,40.0,1.0", "range_max needs 3 finite values"),
        ("voxel_size = 0.05,nan,0.1", "voxel_size needs 3 finite values"),
        ("voxel_size = 0.05,0.05,0.1,0.1", "voxel_size needs 3 finite values"),
        ("anchor_size = 1.6,3.9", "anchor_size needs 3 finite values"),
        ("vfe_blocks = 4,16,2;16,32,2,2;32,64,3,2;64,64,3,1",
         "each vfe_blocks group needs 4 values, got (4, 16, 2)"),
        ("vfe_blocks = 4,16,2,2,2,2;16,32,2,2;32,64,3,2;64,64,3,1",
         "each vfe_blocks group needs 4 values, got (4, 16, 2, 2, 2, 2)"),
        ("part_bounds = 0,72,1;52,124;104,176", "each part_bounds group needs 2 values"),
        ("bev_stride = 0", "unknown key 'bev_stride'"),
        ("sce_channels = 128", "unknown key 'sce_channels'"),
        ("part_kernels = 1,3", "3 parts, 2 kernels, 3 dilations"),
        ("learning_rate = nan", "learning_rate must be finite, got nan"),
        ("anchor_z = nan", "anchor_z must be finite, got nan"),
        ("ransac_inlier_tol = 0", "ransac_inlier_tol must be > 0, got 0.0"),
        ("adam_beta1 = 1.0", "adam_beta1 must lie in [0, 1), got 1.0"),
        ("adam_beta2 = -0.1", "adam_beta2 must lie in [0, 1), got -0.1"),
        ("pre_nms_top_k = -1", "pre_nms_top_k must be >= 1, got -1"),
        ("pre_nms_top_k = 0", "pre_nms_top_k must be >= 1, got 0"),
        ("head_mid_channels = 0", "head_mid_channels must be >= 1, got 0"),
        ("toy_scenes = 0", "toy_scenes must be >= 1, got 0"),
        ("toy_max_cars = 0", "toy_max_cars must be >= 1, got 0"),
        ("ransac_iterations = 0", "ransac_iterations must be >= 1, got 0"),
        ("aug_max_samples = -1", "aug_max_samples must be >= 0, got -1"),
        ("toy_ground_points = -1", "toy_ground_points must be >= 0, got -1"),
        ("toy_car_points = -3", "toy_car_points must be >= 0, got -3"),
        ("anchor_yaws = nan,1.5707963267948966", "anchor_yaws must be finite"),
        ("aug_translation_var = -1", "aug_translation_var must be >= 0, got -1.0"),
        ("aug_box_yaw_range = -0.1", "aug_box_yaw_range must be >= 0, got -0.1"),
        ("lambda_loc = -1", "lambda_loc must be >= 0, got -1.0"),
        ("focal_gamma = -2", "focal_gamma must be >= 0, got -2.0"),
        ("part_kernels = -1,3,3", "every part_kernels element must be >= 1, got (-1, 3, 3)"),
        ("part_dilations = 0,1,2", "every part_dilations element must be >= 1, got (0, 1, 2)"),
        ("focal_alpha = 2", "focal_alpha must lie in [0, 1], got 2.0"),
    ], ids=["range_min", "range_max", "range_max_inf", "voxel_size_nan", "voxel_size",
            "anchor_size", "vfe_blocks_3", "vfe_blocks_6", "part_bounds", "bev_stride",
            "sce_channels", "part_kernels", "learning_rate_nan", "anchor_z_nan",
            "ransac_inlier_tol", "adam_beta1", "adam_beta2", "pre_nms_top_k_neg",
            "pre_nms_top_k_0", "head_mid_channels", "toy_scenes", "toy_max_cars",
            "ransac_iterations", "aug_max_samples", "toy_ground_points", "toy_car_points",
            "anchor_yaws_nan", "aug_translation_var", "aug_box_yaw_range", "lambda_loc",
            "focal_gamma", "part_kernels_neg", "part_dilations_0", "focal_alpha"])
    def test_malformed_value_exits_2_naming_the_key(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        out = tmp_path / "o.cfg"
        assert run_cli("--config", str(path), "dump-config", "--out", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err

    @pytest.mark.parametrize("text, message", [
        ("vfe_blocks = 4,16,2,2;16,32,2,2;32,64,3,2;64,64,3,2\n",
         "outside map width 12"),
        ("vfe_blocks = 4,16,2,2;32,32,2,2;32,64,3,2;64,64,3,1\n",
         "channel mismatch between blocks"),
        ("bev_stride = 4\npart_bounds = 0,20;14,34;28,48\n", "unknown key 'bev_stride'"),
    ], ids=["stride_16_map", "channel_chain", "bev_stride_4"])
    def test_toy_config_the_model_would_reject_exits_2(self, tmp_path, capsys, text, message):
        """Shape rules of the encoder and head are checked when the config loads."""
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert run_cli("--toy", "--config", str(path), "dump-config") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line, message", [
        ("seed = -1", "seed must be >= 0, got -1"),
        ("seed = 18446744073709551616", "seed must be < 2**64, got 18446744073709551616"),
        ("model_seed = -1", "model_seed must be >= 0, got -1"),
        ("data_seed = -3", "data_seed must be >= 0, got -3"),
        ("vfe_blocks = 4,16,-3,2;16,32,2,2;32,64,3,2;64,64,3,1", "n_submanifold must be >= 0"),
    ], ids=["seed_neg", "seed_2_64", "model_seed_neg", "data_seed_neg", "n_submanifold_neg"])
    def test_bad_seed_or_layer_count_exits_2(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        assert run_cli("--config", str(path), "dump-config") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err
        assert "Traceback" not in err

    def test_largest_seed_loads_and_samples(self):
        cfg = parse_config("seed = 18446744073709551615\n")
        crowded = PointCloud(np.tile([10.0, 0.0, -1.0, 0.5], (cfg.max_points_per_voxel + 1, 1)))
        assert voxelize(crowded, cfg.voxelizer()).num_sites == 1

    def test_empty_group_element_rejected(self):
        with pytest.raises(ValueError, match="bad value for 'vfe_blocks'"):
            parse_config("vfe_blocks = 4,16,,2;16,32,2,2;32,64,3,2;64,64,3,1\n")

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

    def test_field_bound(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text(LARGEST_LINE)
        assert read_simple_detections(path)[0].box.as_array()[0] == 1e100
        path.write_text(GOOD_LINE + "1.0000001e100 0.0 -1.0 1.6 3.9 1.56 0.0 0.8\n")
        with pytest.raises(ValueError, match=r"dets\.txt:2: fields must be at most 1e\+100"):
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

    @pytest.mark.parametrize("shape", [(1,), (3,)], ids=["broadcastable", "mismatched"])
    def test_forward_wrong_buffer_shape_exits_2(self, tmp_path, capsys, shape):
        cfg = _toy_cfg_file(tmp_path)
        cloud = _golden_cloud(tmp_path)
        key = "vfe.block0.subm0.norm.running_mean"
        state = VehicleDetector(toy_config()).state_dict()
        state[key] = np.zeros(shape)
        ckpt = tmp_path / "ckpt.bin"
        save_checkpoint(ckpt, state)
        assert run_cli("--config", str(cfg), "forward", "--cloud", str(cloud),
                       "--checkpoint", str(ckpt), "--out", str(tmp_path / "d.txt")) == 2
        assert f"shape mismatch for {key}" in capsys.readouterr().err

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

    def test_nms_keeps_only_the_pre_nms_top_k_highest_scores(self, tmp_path):
        """Four disjoint boxes, so NMS alone would keep all of them; the lowest
        score comes first in the file and is the one pre_nms_top_k = 3 drops."""
        cfg = _toy_cfg_file(tmp_path, pre_nms_top_k=3)
        scores = [0.6, 0.9, 0.7, 0.8]
        dets = [Detection(Box3D(2.0 + 10.0 * k, 0.0, -1.0, 1.6, 3.9, 1.56, 0.0), s)
                for k, s in enumerate(scores)]
        src = tmp_path / "in.txt"
        write_simple_detections(src, dets)
        out = tmp_path / "out.txt"
        assert run_cli("--config", str(cfg), "nms", "--detections", str(src),
                       "--out", str(out)) == 0
        kept = read_simple_detections(out)
        assert [d.score for d in kept] == pytest.approx([0.9, 0.8, 0.7])
        assert [d.box.x for d in kept] == [12.0, 32.0, 22.0]

    @pytest.mark.parametrize("line", NON_FINITE_LINES, ids=["nan_x", "inf_z"])
    def test_nms_non_finite_field_exits_2(self, tmp_path, line):
        cfg = _toy_cfg_file(tmp_path)
        src = tmp_path / "in.txt"
        src.write_text(GOOD_LINE + line)
        out = tmp_path / "out.txt"
        assert run_cli("--config", str(cfg), "nms", "--detections", str(src),
                       "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("line, message", BAD_DETECTION_LINES, ids=BAD_DETECTION_IDS)
    def test_nms_bad_row_names_file_and_line(self, tmp_path, capsys, line, message):
        cfg = _toy_cfg_file(tmp_path)
        src = tmp_path / "in.txt"
        src.write_text(GOOD_LINE + "\n" + line)
        out = tmp_path / "out.txt"
        assert run_cli("--config", str(cfg), "nms", "--detections", str(src),
                       "--out", str(out)) == 2
        assert not out.exists()
        assert f"data error: {src}:3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", BAD_DETECTION_LINES, ids=BAD_DETECTION_IDS)
    def test_eval_bad_row_names_file_and_line(self, tmp_path, capsys, line, message):
        cfg = _toy_cfg_file(tmp_path)
        for d in ("dets", "labels", "calib"):
            os.makedirs(tmp_path / d, exist_ok=True)
        dets = tmp_path / "dets" / "000000.txt"
        dets.write_text(GOOD_LINE + line)
        write_calib(tmp_path / "calib" / "000000.txt", _calib())
        (tmp_path / "labels" / "000000.txt").write_text("")
        report = tmp_path / "report.txt"
        assert run_cli("--config", str(cfg), "eval",
                       "--detections-dir", str(tmp_path / "dets"),
                       "--labels-dir", str(tmp_path / "labels"),
                       "--calib-dir", str(tmp_path / "calib"),
                       "--out", str(report)) == 2
        assert not report.exists()
        assert f"data error: {dets}:2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["dets", "labels"])
    def test_eval_frame_missing_on_one_side_exits_2_naming_it(self, tmp_path, capsys, missing):
        """A labelled frame without a result file (or the reverse) stops eval
        instead of dropping out of the score."""
        cfg = _toy_cfg_file(tmp_path)
        for d in ("dets", "labels", "calib"):
            os.makedirs(tmp_path / d, exist_ok=True)
        for stem in ("000000", "000001"):
            (tmp_path / "dets" / f"{stem}.txt").write_text(GOOD_LINE)
            (tmp_path / "labels" / f"{stem}.txt").write_text(LABEL_LINE)
            write_calib(tmp_path / "calib" / f"{stem}.txt", _calib())
        gone = tmp_path / missing / "000001.txt"
        gone.unlink()
        report = tmp_path / "report.txt"
        assert run_cli("--config", str(cfg), "eval",
                       "--detections-dir", str(tmp_path / "dets"),
                       "--labels-dir", str(tmp_path / "labels"),
                       "--calib-dir", str(tmp_path / "calib"),
                       "--out", str(report)) == 2
        assert not report.exists()
        assert str(gone) in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", BAD_DETECTION_LINES, ids=BAD_DETECTION_IDS)
    def test_render_bev_bad_row_names_file_and_line(self, tmp_path, capsys, line, message):
        code, dets, out = _run_on_detections(tmp_path, "render-bev", GOOD_LINE + line)
        assert code == 2
        assert not out.exists()
        assert f"data error: {dets}:2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["render-bev", "nms", "eval"])
    def test_largest_accepted_detection_runs_without_numeric_warnings(self, tmp_path, command):
        """Two equal boxes at the field bound overlap, so nms and eval take
        their IoU; no step of the box geometry overflows."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, out = _run_on_detections(tmp_path, command, GOOD_LINE + LARGEST_LINE * 2)
        assert code == 0
        assert out.exists()

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

    @pytest.mark.parametrize("value", ["1.7", "7"])
    def test_eval_bad_occlusion_names_file_and_line(self, tmp_path, capsys, value):
        cfg = _toy_cfg_file(tmp_path)
        for d in ("dets", "labels", "calib"):
            os.makedirs(tmp_path / d, exist_ok=True)
        (tmp_path / "dets" / "000000.txt").write_text(GOOD_LINE)
        write_calib(tmp_path / "calib" / "000000.txt", _calib())
        good = "Car 0.00 0 1.57 0.0 0.0 100.0 100.0 1.56 1.6 3.9 0.0 1.78 10.0 -1.57"
        bad = good.split()
        bad[2] = value
        (tmp_path / "labels" / "000000.txt").write_text(good + "\n" + " ".join(bad) + "\n")
        report = tmp_path / "report.txt"
        assert run_cli("--config", str(cfg), "eval",
                       "--detections-dir", str(tmp_path / "dets"),
                       "--labels-dir", str(tmp_path / "labels"),
                       "--calib-dir", str(tmp_path / "calib"),
                       "--out", str(report)) == 2
        assert not report.exists()
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'labels' / '000000.txt'}:2: occlusion must be an integer "
                f"in -1..3, got '{value}'") in err

    @pytest.mark.parametrize("value", ["-3.0", "7.5", "1.01"])
    def test_eval_bad_truncation_names_file_and_line(self, tmp_path, capsys, value):
        cfg = _toy_cfg_file(tmp_path)
        for d in ("dets", "labels", "calib"):
            os.makedirs(tmp_path / d, exist_ok=True)
        (tmp_path / "dets" / "000000.txt").write_text(GOOD_LINE)
        write_calib(tmp_path / "calib" / "000000.txt", _calib())
        good = "Car 0.00 0 1.57 0.0 0.0 100.0 100.0 1.56 1.6 3.9 0.0 1.78 10.0 -1.57"
        bad = good.split()
        bad[1] = value
        (tmp_path / "labels" / "000000.txt").write_text(good + "\n" + " ".join(bad) + "\n")
        report = tmp_path / "report.txt"
        assert run_cli("--config", str(cfg), "eval",
                       "--detections-dir", str(tmp_path / "dets"),
                       "--labels-dir", str(tmp_path / "labels"),
                       "--calib-dir", str(tmp_path / "calib"),
                       "--out", str(report)) == 2
        assert not report.exists()
        assert capsys.readouterr().err == (
            f"data error: {tmp_path / 'labels' / '000000.txt'}:2: truncation must be in "
            f"[0, 1] (-1 for DontCare), got '{value}'\n")

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

    def test_one_parser_serves_every_call_in_a_process(self, tmp_path, capsys):
        """Eval, two usage errors, a data error and eval again through one
        parser: each call gets its own exit code and the reports match."""
        calib = _calib()
        for d in ("dets", "labels", "calib", "bad"):
            os.makedirs(tmp_path / d, exist_ok=True)
        boxes = [Box3D(10.0, 0.0, -1.0, 1.6, 3.9, 1.56, 0.3),
                 Box3D(20.0, 4.0, -1.0, 1.6, 3.9, 1.56, -0.5)]
        for stem, dets in (("000000", [Detection(boxes[0], 0.9), Detection(boxes[1], 0.4)]),
                           ("000001", [Detection(replace(boxes[1], x=21.5), 0.8)])):
            write_simple_detections(tmp_path / "dets" / f"{stem}.txt", dets)
            write_calib(tmp_path / "calib" / f"{stem}.txt", calib)
            labels = [detection_to_label(Detection(b, 1.0), calib) for b in boxes]
            write_labels(tmp_path / "labels" / f"{stem}.txt",
                         [replace(rec, bbox=(0.0, 0.0, 100.0, 100.0), score=None)
                          for rec in labels])
        (tmp_path / "bad" / "000000.txt").write_text(GOOD_LINE + NON_FINITE_LINES[0])

        def evaluate(det_dir, out):
            return run_cli("--toy", "eval", "--detections-dir", str(det_dir),
                           "--labels-dir", str(tmp_path / "labels"),
                           "--calib-dir", str(tmp_path / "calib"), "--out", str(out))

        codes = [evaluate(tmp_path / "dets", tmp_path / "first.txt"),
                 run_cli("--toy", "nms", "--detections", str(tmp_path / "dets" / "000000.txt")),
                 run_cli("--threads", "0", "dump-config"),
                 evaluate(tmp_path / "bad", tmp_path / "bad.txt"),
                 evaluate(tmp_path / "dets", tmp_path / "second.txt")]
        assert codes == [0, 1, 1, 2, 0]
        err = capsys.readouterr().err
        assert "required: --out" in err and "--threads must be >= 1" in err
        assert "000000.txt:2: fields must be finite" in err
        first = (tmp_path / "first.txt").read_bytes()
        assert first == (tmp_path / "second.txt").read_bytes()
        assert "100.00" not in first.decode() and not (tmp_path / "bad.txt").exists()
        assert cli._build_parser() is cli._build_parser()

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

    def test_render_bev_samples_only_inside_the_image(self, tmp_path):
        """A 100 km detection costs about what a 10 m one does, and draws the
        same two long edges across the toy image: 2 rows of 192 pixels."""
        cfg = _toy_cfg_file(tmp_path)
        cloud = _golden_cloud(tmp_path)
        images, peaks = [], []
        for length in (10.0, 1e5):
            dets_path, out = tmp_path / f"dets_{length}.txt", tmp_path / f"scene_{length}.ppm"
            write_simple_detections(
                dets_path, [Detection(Box3D(4.8, 0.0, -1.0, 1.6, length, 1.56, 0.0), 0.9)])
            tracemalloc.start()
            try:
                assert run_cli("--config", str(cfg), "render-bev", "--cloud", str(cloud),
                               "--detections", str(dets_path), "--out", str(out)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            images.append(out.read_bytes())
        assert images[0] == images[1]
        pixels = np.frombuffer(images[1].split(b"\n", 3)[3], dtype=np.uint8).reshape(192, 192, 3)
        assert ((pixels[:, :, 0] == 255) & (pixels[:, :, 1] == 0)).sum() == 384
        assert peaks[1] < 16 * 2**20, peaks

    @pytest.mark.parametrize("command", ["eval", "masks", "render-bev", "forward"])
    @pytest.mark.parametrize("key, breaks, message", BAD_CALIB_ROWS,
                             ids=[key for key, _, _ in BAD_CALIB_ROWS])
    def test_bad_calibration_exits_2_naming_file_and_key(self, tmp_path, capsys, command, key,
                                                         breaks, message):
        for d in ("dets", "labels", "calib"):
            os.makedirs(tmp_path / d)
        det = Detection(Box3D(4.8, 0.0, -1.0, 1.6, 3.9, 1.56, 0.0), 0.9)
        write_simple_detections(tmp_path / "dets" / "000000.txt", [det])
        labels = tmp_path / "labels" / "000000.txt"
        write_labels(labels, [detection_to_label(det, _calib())])
        calib = _bad_calib(tmp_path / "calib" / "000000.txt", key, breaks)
        cloud, out = _golden_cloud(tmp_path), tmp_path / "out"
        args = {
            "eval": ["--detections-dir", tmp_path / "dets", "--labels-dir", tmp_path / "labels",
                     "--calib-dir", tmp_path / "calib"],
            "masks": ["--cloud", cloud, "--labels", labels, "--calib", calib],
            "render-bev": ["--cloud", cloud, "--labels", labels, "--calib", calib],
            "forward": ["--cloud", cloud, "--checkpoint", tmp_path / "model.bin",
                        "--kitti-out", tmp_path / "kitti.txt", "--calib", calib],
        }[command]
        if command == "forward":
            save_checkpoint(tmp_path / "model.bin", VehicleDetector(toy_config()).state_dict())
        assert run_cli("--config", str(_toy_cfg_file(tmp_path)), command,
                       *map(str, args), "--out", str(out)) == 2
        assert not out.exists()
        assert f"data error: {calib}: {message}" in capsys.readouterr().err

    def test_dump_config_roundtrip_via_cli(self, tmp_path, capsys):
        out = tmp_path / "cfg.txt"
        assert run_cli("dump-config", "--out", str(out)) == 0
        assert run_cli("--config", str(out), "dump-config", "--out",
                       str(tmp_path / "cfg2.txt")) == 0
        assert out.read_text() == (tmp_path / "cfg2.txt").read_text()


class TestInputBounds:
    """Rows past the field bound stop with their file named, and points or
    boxes at any distance run without a numeric warning."""

    def _eval(self, tmp_path, label_line=LABEL_LINE, calib_breaks=None, det_line=GOOD_LINE):
        for d in ("dets", "labels", "calib"):
            os.makedirs(tmp_path / d)
        (tmp_path / "dets" / "000000.txt").write_text(det_line)
        (tmp_path / "labels" / "000000.txt").write_text(label_line)
        _bad_calib(tmp_path / "calib" / "000000.txt", "Tr_velo_to_cam",
                   calib_breaks or (lambda v: v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_cli("--config", str(_toy_cfg_file(tmp_path)), "eval",
                           "--detections-dir", str(tmp_path / "dets"),
                           "--labels-dir", str(tmp_path / "labels"),
                           "--calib-dir", str(tmp_path / "calib"),
                           "--out", str(tmp_path / "report.txt"))

    def test_eval_label_dims_beyond_bound_exits_2(self, tmp_path, capsys):
        fields = LABEL_LINE.split()
        fields[9] = "1e200"
        assert self._eval(tmp_path, label_line=" ".join(fields) + "\n") == 2
        assert capsys.readouterr().err == (
            f"data error: {tmp_path / 'labels' / '000000.txt'}:1: "
            "numeric fields must be at most 1e+100 in magnitude\n")

    def test_eval_calibration_beyond_bound_exits_2(self, tmp_path, capsys):
        assert self._eval(tmp_path, calib_breaks=lambda v: v[:-1] + ["1e200"]) == 2
        assert capsys.readouterr().err == (
            f"data error: {tmp_path / 'calib' / '000000.txt'}: Tr_velo_to_cam: "
            "values must be at most 1e+100 in magnitude\n")

    def test_eval_detection_as_large_as_the_bound_over_two_cars(self, tmp_path):
        """Both cars lie inside the detection, one of them turned, so eval
        clips both pairs in one batch."""
        turned = "Car 0.00 0 1.57 0.0 0.0 100.0 100.0 1.50 1.7 4.2 2.0 1.70 7.0 0.30\n"
        assert self._eval(tmp_path, label_line=LABEL_LINE + turned,
                          det_line="10.0 0.0 -1.0 1e100 1e100 1.56 0.0 0.9\n") == 0

    @pytest.mark.parametrize("command", ["voxelize", "render-bev", "masks"])
    def test_points_at_float32_extremes_are_dropped(self, tmp_path, command):
        """±3e38 points lie outside the grid: the output is the bytes of the
        cloud without them."""
        pts = np.array([[1.0, 2.0, -1.0, 0.5], [4.0, -1.0, 0.0, 0.1]], dtype=np.float32)
        far = np.array([[3e38, 0.0, 0.0, 0.0], [-3e38, 1.0, -1.0, 0.0],
                        [1.0, 3e38, -3e38, 0.0]], dtype=np.float32)
        labels, calib = tmp_path / "labels.txt", tmp_path / "calib.txt"
        labels.write_text(LABEL_LINE)
        write_calib(calib, _calib())
        outputs = []
        for name, cloud in (("near", pts), ("far", np.concatenate([far[:2], pts, far[2:]]))):
            (tmp_path / f"{name}.bin").write_bytes(cloud.tobytes())
            args = ["--cloud", str(tmp_path / f"{name}.bin"), "--out", str(tmp_path / name)]
            if command != "voxelize":
                args += ["--labels", str(labels), "--calib", str(calib)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli("--config", str(_toy_cfg_file(tmp_path)), command, *args) == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]


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

    def test_train_toy_divergence_exits_3(self, micro_cfg_file, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(micro_cfg_file.read_text() + "learning_rate = 1e300\n")
        ckpt = tmp_path / "model.bin"
        trace = tmp_path / "trace.csv"
        assert run_cli("--config", str(cfg), "train-toy", "--steps", "2",
                       "--checkpoint", str(ckpt), "--trace", str(trace)) == 3
        err = capsys.readouterr().err
        assert "numeric failure: loss became non-finite at step 1" in err
        assert "Traceback" not in err
        assert not ckpt.exists() and not trace.exists()

    def test_train_toy_deterministic(self, micro_cfg_file, tmp_path):
        outs = []
        for run in range(2):
            ckpt = tmp_path / f"m{run}.bin"
            trace = tmp_path / f"t{run}.csv"
            assert run_cli("--config", str(micro_cfg_file), "train-toy",
                           "--checkpoint", str(ckpt), "--trace", str(trace)) == 0
            outs.append((ckpt.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]


    def test_train_toy_augment_deterministic_across_runs_and_threads(self, micro_cfg_file,
                                                                     tmp_path):
        outs = []
        for run, threads in enumerate(["1", "1", "8"]):
            ckpt = tmp_path / f"m{run}.bin"
            trace = tmp_path / f"t{run}.csv"
            assert run_cli("--threads", threads, "--config", str(micro_cfg_file), "train-toy",
                           "--augment", "--checkpoint", str(ckpt), "--trace", str(trace)) == 0
            outs.append((ckpt.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1] == outs[2]

    def test_train_toy_augment_equals_the_step_by_step_pipeline(self, micro_cfg_file, tmp_path):
        cfg = load_config(micro_cfg_file)
        scenes = make_toy_dataset(cfg)
        result = train_toy(cfg, augment_scenes_loop(scenes, cfg, cfg.data_seed))
        save_checkpoint(tmp_path / "oracle.bin", result.model.state_dict())
        rows = [LossReport.csv_header(len(cfg.parts()))]
        rows += [r.csv_row(i) for i, r in enumerate(result.reports)]
        ckpt = tmp_path / "model.bin"
        trace = tmp_path / "trace.csv"
        assert run_cli("--config", str(micro_cfg_file), "train-toy", "--augment",
                       "--checkpoint", str(ckpt), "--trace", str(trace)) == 0
        assert trace.read_text() == "\n".join(rows) + "\n"
        assert ckpt.read_bytes() == (tmp_path / "oracle.bin").read_bytes()
        # the flag changes what is trained on
        plain = [r.csv_row(i) for i, r in enumerate(train_toy(cfg, scenes).reports)]
        assert plain != rows[1:]


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
        plan_row = next(line for line in tables[0].splitlines() if line.startswith("plan "))
        assert "sites=" in plan_row and "pairs=" in plan_row

    def test_negative_points_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bench.txt"
        assert run_cli("--toy", "bench", "--points", "-5", "--out", str(out)) == 1
        assert "--points" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_points_is_an_empty_cloud(self, tmp_path):
        out = tmp_path / "bench.txt"
        assert run_cli("--toy", "bench", "--points", "0", "--out", str(out)) == 0
        table = out.read_text()
        assert "sites=0 " in table and "sites=0,0,0,0 pairs=0,0,0,0" in table


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
