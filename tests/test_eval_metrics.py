from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from voxeldet import box_geom, eval_metrics
from voxeldet.box_geom import Box3D, bev_iou, iou3d, pairwise_bev_iou, pairwise_iou3d
from voxeldet.eval_metrics import (
    DIFFICULTY_RULES,
    EvalResult,
    FrameDetections,
    FrameGroundTruth,
    RankedMatches,
    accumulate_matches,
    aos,
    average_precision,
    evaluate_frames,
    format_machine_report,
    format_report,
    stratify,
)

from helpers import evaluate_frames_per_pair, interpolated_per_sample, match_frame_per_pair


def _box(x, y=0.0, theta=0.0, l=3.9):
    return Box3D(x, y, -1.0, 1.6, l, 1.56, theta)


def _gt(boxes, heights=None, occ=None, trunc=None, ignored=None):
    n = len(boxes)
    return FrameGroundTruth(
        boxes=list(boxes),
        heights=np.asarray(heights if heights is not None else [50.0] * n, dtype=float),
        occlusions=np.asarray(occ if occ is not None else [0] * n),
        truncations=np.asarray(trunc if trunc is not None else [0.0] * n, dtype=float),
        ignored_boxes=list(ignored or []),
    )


def _dets(boxes, scores):
    return FrameDetections(list(boxes), np.asarray(scores, dtype=float))


class TestMatchFrame:
    """One frame matched through ``accumulate_matches`` at the Car threshold."""

    def test_exact_hit(self):
        gt = [_box(10.0)]
        matches = accumulate_matches([(_dets(gt, [0.9]), _gt(gt))], pairwise_iou3d)
        assert matches.is_tp.tolist() == [True]
        assert matches.similarities.tolist() == [1.0]

    def test_double_detection_single_match(self):
        gt = [_box(10.0)]
        matches = accumulate_matches([(_dets([gt[0], gt[0]], [0.9, 0.8]), _gt(gt))],
                                     pairwise_iou3d)
        assert matches.is_tp.tolist() == [True, False]
        assert matches.is_fp.tolist() == [False, True]

    def test_threshold_boundary(self):
        gt = [_box(10.0)]
        # x-shift chosen so 3D IoU lands just under 0.7
        shifted = _box(10.0 + 0.7)
        assert 0.65 < iou3d(shifted, gt[0]) < 0.70
        matches = accumulate_matches([(_dets([shifted], [0.9]), _gt(gt))], pairwise_iou3d)
        assert matches.is_fp.tolist() == [True]

    def test_ignored_region_not_fp(self):
        frame = (_dets([_box(20.0)], [0.9]), _gt([], ignored=[_box(20.0)]))
        matches = accumulate_matches([frame], pairwise_iou3d)
        assert len(matches.scores) == 0 and matches.n_gt == 0


class TestAveragePrecision:
    def test_perfect_detector(self):
        gt = [_box(10.0), _box(20.0)]
        frames = [(_dets(gt, [0.9, 0.8]), _gt(gt))]
        matches = accumulate_matches(frames, pairwise_iou3d)
        assert average_precision(matches, "R11") == pytest.approx(100.0)
        assert average_precision(matches, "R40") == pytest.approx(100.0)

    def test_single_fp_above_tp(self):
        gt = [_box(10.0)]
        frames = [(_dets([_box(40.0), gt[0]], [0.9, 0.8]), _gt(gt))]
        matches = accumulate_matches(frames, pairwise_iou3d)
        # ranking: FP, TP -> precision envelope 0.5 at every recall point
        assert average_precision(matches, "R11") == pytest.approx(50.0)

    def test_no_detections(self):
        frames = [(_dets([], []), _gt([_box(10.0)]))]
        matches = accumulate_matches(frames, pairwise_iou3d)
        assert average_precision(matches, "R11") == pytest.approx(0.0)

    def test_zero_gts_absent(self):
        frames = [(_dets([_box(5.0)], [0.5]), _gt([]))]
        matches = accumulate_matches(frames, pairwise_iou3d)
        assert average_precision(matches, "R11") is None

    def test_monotone_under_appended_tp(self):
        gt = [_box(10.0), _box(20.0), _box(30.0)]
        partial = [(_dets([gt[0], _box(50.0)], [0.9, 0.5]), _gt(gt))]
        fuller = [(_dets([gt[0], _box(50.0), gt[1]], [0.9, 0.5], ), _gt(gt))]
        ap1 = average_precision(accumulate_matches(partial, pairwise_iou3d))
        ap2 = average_precision(accumulate_matches(fuller, pairwise_iou3d))
        assert ap2 >= ap1

    def test_removing_fp_never_decreases(self):
        gt = [_box(10.0)]
        with_fp = [(_dets([gt[0], _box(50.0)], [0.9, 0.95]), _gt(gt))]
        without = [(_dets([gt[0]], [0.9]), _gt(gt))]
        ap1 = average_precision(accumulate_matches(with_fp, pairwise_iou3d))
        ap2 = average_precision(accumulate_matches(without, pairwise_iou3d))
        assert ap2 >= ap1


class TestAos:
    def test_exact_orientation_equals_ap(self):
        gt = [_box(10.0, theta=0.5), _box(20.0, theta=-1.0)]
        frames = [(_dets(gt, [0.9, 0.8]), _gt(gt))]
        matches = accumulate_matches(frames, pairwise_bev_iou)
        assert aos(matches) == pytest.approx(average_precision(matches))

    def test_flipped_orientation_zero(self):
        gt = [_box(10.0, theta=0.0)]
        flipped = [_box(10.0, theta=np.pi)]
        frames = [(_dets(flipped, [0.9]), _gt(gt))]
        matches = accumulate_matches(frames, pairwise_bev_iou)
        assert average_precision(matches) == pytest.approx(100.0)
        assert aos(matches) == pytest.approx(0.0, abs=1e-9)

    def test_quarter_turn_half_similarity(self):
        gt = [_box(10.0, theta=0.0, l=1.6)]  # square footprint keeps IoU = 1 when rotated
        quarter = [_box(10.0, theta=np.pi / 2, l=1.6)]
        frames = [(_dets(quarter, [0.9]), _gt(gt))]
        matches = accumulate_matches(frames, pairwise_bev_iou)
        assert average_precision(matches) == pytest.approx(100.0)
        assert aos(matches) == pytest.approx(50.0)

    def test_aos_bounded_by_ap_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_gt, n_det = rng.integers(1, 5), rng.integers(0, 6)
            gt = [_box(10.0 * (i + 1), theta=rng.uniform(-np.pi, np.pi)) for i in range(n_gt)]
            dets = []
            for _ in range(n_det):
                src = gt[rng.integers(0, n_gt)]
                dets.append(Box3D(src.x + rng.uniform(-2, 2), src.y + rng.uniform(-2, 2),
                                  src.z, src.w, src.l, src.h,
                                  rng.uniform(-np.pi, np.pi)))
            frames = [(_dets(dets, rng.random(n_det)), _gt(gt))]
            matches = accumulate_matches(frames, pairwise_bev_iou)
            ap = average_precision(matches)
            o = aos(matches)
            assert o <= ap + 1e-9


class TestInterpolatedEnvelope:
    def test_equals_per_sample_oracle_on_random_rankings(self):
        """Exact agreement, including no ground truths and recall above 1."""
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(0, 30))
            is_tp = rng.random(n) < rng.random()
            similarities = np.where(is_tp, rng.random(n), 0.0)
            n_gt = int(rng.integers(0, max(1, 2 * is_tp.sum()) + 1))
            matches = RankedMatches(np.sort(rng.random(n))[::-1], is_tp, ~is_tp,
                                    similarities, n_gt)
            for mode in ("R11", "R40"):
                assert average_precision(matches, mode) == interpolated_per_sample(
                    matches, mode, use_similarity=False)
                assert aos(matches, mode) == interpolated_per_sample(
                    matches, mode, use_similarity=True)


class TestStratify:
    def test_easy_gt_in_all_strata(self):
        gt = _gt([_box(10.0)], heights=[50.0], occ=[0], trunc=[0.0])
        masks = stratify(gt)
        assert all(masks[name][0] for name in ("easy", "moderate", "hard"))

    def test_short_gt_excluded_from_easy(self):
        gt = _gt([_box(10.0)], heights=[30.0])
        masks = stratify(gt)
        assert not masks["easy"][0]
        assert masks["moderate"][0] and masks["hard"][0]

    def test_fully_truncated_ignored_everywhere(self):
        gt = _gt([_box(10.0)], trunc=[1.0])
        masks = stratify(gt)
        assert not any(masks[name][0] for name in masks)

    def test_strata_nest(self):
        rng = np.random.default_rng(1)
        gt = _gt(
            [_box(10.0 * (i + 1)) for i in range(20)],
            heights=rng.uniform(10, 80, 20),
            occ=rng.integers(0, 4, 20),
            trunc=rng.uniform(0, 0.8, 20),
        )
        masks = stratify(gt)
        assert not (masks["easy"] & ~masks["moderate"]).any()
        assert not (masks["moderate"] & ~masks["hard"]).any()


class TestEvaluateFrames:
    def test_perfect_everywhere(self):
        gt = [_box(10.0), _box(20.0, y=5.0)]
        frames = [(_dets(gt, [0.9, 0.8]), _gt(gt))]
        result = evaluate_frames(frames)
        for name in DIFFICULTY_RULES:
            assert result.ap_3d[name] == pytest.approx(100.0)
            assert result.ap_bev[name] == pytest.approx(100.0)
            assert result.aos[name] == pytest.approx(100.0)

    def test_ignored_stratum_gt_not_penalized(self):
        hard_only = _box(10.0)
        frames = [(
            _dets([hard_only], [0.9]),
            _gt([hard_only], heights=[30.0], occ=[2], trunc=[0.45]),
        )]
        result = evaluate_frames(frames)
        assert result.ap_3d["easy"] is None     # no easy gts at all
        assert result.ap_3d["hard"] == pytest.approx(100.0)

    def test_report_formats(self):
        gt = [_box(10.0)]
        frames = [(_dets(gt, [0.9]), _gt(gt))]
        result = evaluate_frames(frames)
        text = format_report(result)
        assert "easy" in text and "AP_3D" in text
        machine = format_machine_report(result)
        assert "ap_3d_moderate = 100.000000" in machine


def _random_frame(rng):
    """Cars with jittered detections: score ties, exact IoU ties, ignored boxes, empty sides."""
    n_gt = int(rng.integers(0, 5))
    gts = [Box3D(rng.uniform(0.0, 40.0), rng.uniform(-10.0, 10.0), -1.0, 1.6, 3.9, 1.56,
                 rng.uniform(-np.pi, np.pi)) for _ in range(n_gt)]
    if gts and rng.random() < 0.5:
        # the same footprint 0.4 m higher: identical BEV IoU with every detection
        gts.append(replace(gts[0], z=gts[0].z + 0.4))
    ignored = [Box3D(rng.uniform(0.0, 40.0), rng.uniform(-10.0, 10.0), -1.0, 1.8, 4.5, 1.7,
                     rng.uniform(-np.pi, np.pi)) for _ in range(int(rng.integers(0, 3)))]
    sources = gts + ignored
    dets = []
    for _ in range(int(rng.integers(0, 8)) if sources else int(rng.integers(0, 3))):
        if sources and rng.random() < 0.85:
            src = sources[int(rng.integers(0, len(sources)))]
            dets.append(Box3D(src.x + rng.uniform(-0.6, 0.6), src.y + rng.uniform(-0.4, 0.4),
                              src.z + rng.uniform(-0.2, 0.2), 1.6, 3.9, 1.56,
                              src.theta + rng.uniform(-0.3, 0.3)))
        else:
            dets.append(Box3D(rng.uniform(0.0, 40.0), rng.uniform(-10.0, 10.0), -1.0,
                              1.6, 3.9, 1.56, 0.0))
    n = len(gts)
    gt = _gt(gts, heights=rng.uniform(20.0, 60.0, n), occ=rng.integers(0, 3, n),
             trunc=rng.uniform(0.0, 0.6, n), ignored=ignored)
    return _dets(dets, rng.choice([0.3, 0.6, 0.9], len(dets))), gt


class TestMatrixMatching:
    def test_iou_tie_goes_to_last_ground_truth(self):
        a = Box3D(10.0, 0.0, -0.5, 1.6, 3.9, 2.0, 0.0)
        b = replace(a, z=0.5)
        first, second = replace(a, z=0.0), replace(a, z=-1.0)
        assert iou3d(first, a) == iou3d(first, b) == pytest.approx(0.6)
        assert iou3d(second, a) >= 0.5 > iou3d(second, b)
        # the tied detection takes b, which leaves a for the second one: both
        # match, where taking a would leave the second one a false positive
        frame = (_dets([first, second], [0.9, 0.8]), _gt([a, b]))
        assert evaluate_frames([frame], threshold=0.5).ap_3d["easy"] == pytest.approx(100.0)

    def test_iou_equal_to_threshold_counts(self):
        gt, det = _box(10.0), _box(10.7)
        at = iou3d(det, gt)
        result = evaluate_frames([(_dets([det], [0.9]), _gt([gt]))], threshold=at)
        assert result.ap_3d["easy"] == pytest.approx(100.0)
        # as an ignore region it absorbs the detection, which would otherwise
        # be a false positive ranked above the exact hit on the far car
        far = _box(40.0)
        frame = (_dets([det, far], [0.9, 0.8]), _gt([far], ignored=[gt]))
        result = evaluate_frames([frame], threshold=at)
        assert result.ap_3d["easy"] == pytest.approx(100.0)

    def test_match_frame_equals_per_pair_oracle(self):
        """One frame through ``accumulate_matches`` ranks the outcomes of the
        per-pair greedy oracle."""
        rng = np.random.default_rng(11)
        for _ in range(40):
            dets, gt = _random_frame(rng)
            keep = rng.random(len(gt.boxes)) < 0.7
            targets = [b for b, k in zip(gt.boxes, keep) if k]
            ignored = [b for b, k in zip(gt.boxes, keep) if not k] + gt.ignored_boxes
            frame = (dets, _gt(targets, ignored=ignored))
            for pairwise_fn, iou_fn in ((pairwise_iou3d, iou3d), (pairwise_bev_iou, bev_iou)):
                got = accumulate_matches([frame], pairwise_fn)
                kinds, deltas, order = match_frame_per_pair(
                    dets, targets, ignored, iou_fn, eval_metrics.CAR_IOU_THRESHOLD)
                ranked = [(kind, delta, di) for kind, delta, di in zip(kinds, deltas, order)
                          if kind != "ignored"]
                assert got.n_gt == len(targets)
                assert got.scores.tolist() == [dets.scores[di] for _, _, di in ranked]
                assert got.is_tp.tolist() == [kind == "tp" for kind, _, _ in ranked]
                assert got.is_fp.tolist() == [kind == "fp" for kind, _, _ in ranked]
                assert got.similarities.tolist() == [
                    (1.0 + np.cos(delta)) / 2.0 if kind == "tp" else 0.0
                    for kind, delta, _ in ranked]

    def test_evaluate_frames_equals_per_pair_oracle(self):
        rng = np.random.default_rng(12)
        outcomes = Counter()
        for trial in range(16):
            frames = [_random_frame(rng) for _ in range(int(rng.integers(1, 4)))]
            mode = ("R11", "R40")[trial % 2]
            for threshold in (0.5, 0.7):
                got = evaluate_frames(frames, mode=mode, threshold=threshold).as_flat_dict()
                assert got == evaluate_frames_per_pair(frames, mode, threshold).as_flat_dict()
                outcomes.update("absent" if v is None else "zero" if v == 0.0 else "positive"
                                for v in got.values())
        assert outcomes["positive"] and outcomes["zero"] and outcomes["absent"]

    def test_one_matrix_pair_per_frame_whatever_the_strata(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def per_pair(a, b):
            raise AssertionError("per-pair IoU call during evaluation")

        monkeypatch.setattr(eval_metrics, "pairwise_iou3d", counted("3d", pairwise_iou3d))
        monkeypatch.setattr(eval_metrics, "pairwise_bev_iou", counted("bev", pairwise_bev_iou))
        monkeypatch.setattr(eval_metrics, "stratify", counted("stratify", stratify))
        for module in (box_geom, eval_metrics):
            monkeypatch.setattr(module, "iou3d", per_pair)
            monkeypatch.setattr(module, "bev_iou", per_pair)
        rng = np.random.default_rng(13)
        frames = [_random_frame(rng) for _ in range(5)]
        rule = eval_metrics.DifficultyRule(0.0, 9, 1.0)
        for rules in ({"all": rule}, DIFFICULTY_RULES, dict(DIFFICULTY_RULES, a=rule, b=rule)):
            monkeypatch.setattr(eval_metrics, "DIFFICULTY_RULES", rules)
            calls.clear()
            assert list(evaluate_frames(frames).ap_3d) == list(rules)
            assert calls == {"3d": 5, "bev": 5, "stratify": 5}

