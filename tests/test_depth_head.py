import numpy as np
import pytest

from voxeldet.depth_head import (
    DEFAULT_PARTS,
    DepthAwareHead,
    PartOutput,
    PartSpec,
    PartTower,
    check_coverage,
    fuse_scores,
    split_parts,
)
from voxeldet.nn_core import Tensor

from helpers import finite_diff_error, fuse_scores_per_part, projected_loss, random_cotangent


def _logit(p):
    return np.log(p / (1.0 - p))


class TestPartition:
    def test_default_slice_widths(self):
        x = Tensor(np.zeros((1, 4, 3, 176)))
        slices = split_parts(x, DEFAULT_PARTS)
        assert [s.shape[3] for s in slices] == [72, 72, 72]

    def test_cell_membership(self):
        covering_60 = [i for i, p in enumerate(DEFAULT_PARTS) if p.lo <= 60 < p.hi]
        covering_100 = [i for i, p in enumerate(DEFAULT_PARTS) if p.lo <= 100 < p.hi]
        assert covering_60 == [0, 1]
        assert covering_100 == [1]

    def test_overlap_is_two_car_lengths(self):
        overlap = DEFAULT_PARTS[0].hi - DEFAULT_PARTS[1].lo
        assert overlap == 20
        assert overlap * 0.4 == pytest.approx(8.0)  # ~ 2 x 3.9 m car
        assert DEFAULT_PARTS[1].hi - DEFAULT_PARTS[2].lo == 20

    def test_full_coverage_overlap_counts(self):
        covered = check_coverage(DEFAULT_PARTS, 176)
        assert covered.min() >= 1
        assert (covered == 2).sum() == 40  # two overlap bands of 20 cells

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="covered by no part"):
            check_coverage([PartSpec(0, 10), PartSpec(12, 20)], 20)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            split_parts(Tensor(np.zeros((1, 1, 2, 16))), [PartSpec(0, 20)])


class TestPartTower:
    def test_kernel1_receptive_field_single_cell(self):
        rng = np.random.default_rng(0)
        tower = PartTower(PartSpec(0, 8, kernel=1), rng, in_channels=6, mid_channels=4)
        tower.eval()
        x = rng.normal(size=(1, 6, 4, 8))
        base = tower(Tensor(x)).cls_logits.data
        x2 = x.copy()
        x2[:, :, :, 5] += 10.0  # a distant column
        bumped = tower(Tensor(x2)).cls_logits.data
        np.testing.assert_allclose(bumped[:, :, :, :5], base[:, :, :, :5], atol=1e-12)
        assert not np.allclose(bumped[:, :, :, 5], base[:, :, :, 5])

    def test_dilated_padding_preserves_width(self):
        rng = np.random.default_rng(1)
        spec = PartSpec(104, 176, kernel=3, dilation=2)
        assert spec.padding == 2
        tower = PartTower(spec, rng, in_channels=6, mid_channels=4)
        out = tower(Tensor(rng.normal(size=(1, 6, 3, 72))))
        assert out.cls_logits.shape == (1, 2, 3, 72)
        assert out.box.shape == (1, 14, 3, 72)
        assert out.dir_logits.shape == (1, 4, 3, 72)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        tower = PartTower(PartSpec(0, 6, kernel=3), rng, in_channels=3, mid_channels=3)
        x = Tensor(rng.normal(size=(1, 3, 4, 6)), requires_grad=True)
        cot = random_cotangent((1, 2, 4, 6), seed=3)
        params = [x, tower.conv1.weight, tower.cls_head.weight, tower.cls_head.bias]

        def loss():
            return projected_loss(tower(x).cls_logits, cot)

        assert finite_diff_error(loss, params, max_entries=10) < 1e-4

    def test_translation_equivariance_interior(self):
        rng = np.random.default_rng(4)
        spec = PartSpec(0, 24, kernel=3, dilation=2)
        tower = PartTower(spec, rng, in_channels=4, mid_channels=4)
        # eval mode: train-mode batch statistics couple interior cells to the borders
        tower.eval()
        x = rng.normal(size=(1, 4, 4, 24))
        base = tower(Tensor(x)).cls_logits.data
        rolled = tower(Tensor(np.roll(x, 1, axis=3))).cls_logits.data
        # interior columns, clear of both borders and the wrapped column
        margin = 6
        np.testing.assert_allclose(
            rolled[:, :, :, margin + 1 : 24 - margin],
            base[:, :, :, margin : 24 - margin - 1],
            atol=1e-10,
        )


def _const_output(parts, width_h, value_by_part, box_value_by_part):
    outs = []
    for pi, spec in enumerate(parts):
        cls = np.full((1, 2, width_h, spec.width), _logit(value_by_part[pi]))
        box = np.full((1, 14, width_h, spec.width), float(box_value_by_part[pi]))
        dirs = np.full((1, 4, width_h, spec.width), float(pi))
        outs.append(PartOutput(Tensor(cls), Tensor(box), Tensor(dirs)))
    return outs


class TestFuseScores:
    PARTS = (PartSpec(0, 8, kernel=1), PartSpec(6, 16, kernel=3))

    def test_single_cover_verbatim(self):
        outs = _const_output(self.PARTS, 2, [0.3, 0.7], [1.0, 2.0])
        fused = fuse_scores(outs, self.PARTS, 16)
        assert fused.scores[0, 0, 0, 2] == pytest.approx(0.3)
        assert fused.scores[0, 0, 0, 12] == pytest.approx(0.7)
        assert fused.box[0, 0, 0, 2] == 1.0
        assert fused.box[0, 0, 0, 12] == 2.0

    def test_overlap_takes_max_and_its_part(self):
        outs = _const_output(self.PARTS, 2, [0.3, 0.7], [1.0, 2.0])
        fused = fuse_scores(outs, self.PARTS, 16)
        # overlap cells 6..7 covered by both: part 1 wins with 0.7
        assert fused.scores[0, 0, 0, 7] == pytest.approx(0.7)
        assert fused.box[0, 3, 0, 7] == 2.0
        assert fused.dir_logits[0, 1, 0, 7] == 1.0

    def test_tie_prefers_lower_index(self):
        outs = _const_output(self.PARTS, 1, [0.5, 0.5], [1.0, 2.0])
        fused = fuse_scores(outs, self.PARTS, 16)
        assert fused.box[0, 0, 0, 7] == 1.0
        assert fused.dir_logits[0, 0, 0, 7] == 0.0

    def test_max_property_randomized(self):
        rng = np.random.default_rng(5)
        parts = DEFAULT_PARTS
        outs = []
        for spec in parts:
            outs.append(PartOutput(
                Tensor(rng.normal(size=(2, 2, 3, spec.width))),
                Tensor(rng.normal(size=(2, 14, 3, spec.width))),
                Tensor(rng.normal(size=(2, 4, 3, spec.width))),
            ))
        fused = fuse_scores(outs, parts, 176)
        for pi, (spec, out) in enumerate(zip(parts, outs)):
            part_scores = 1.0 / (1.0 + np.exp(-out.cls_logits.data))
            assert np.all(fused.scores[:, :, :, spec.lo : spec.hi] >= part_scores - 1e-12)
        assert np.all(fused.scores >= 0.0) and np.all(fused.scores <= 1.0)

    def test_box_follows_anchor_argmax(self):
        # anchor 0 and anchor 1 may pick different parts at the same cell
        parts = (PartSpec(0, 4, kernel=1), PartSpec(0, 4, kernel=1))
        a = np.zeros((1, 2, 1, 4))
        b = np.zeros((1, 2, 1, 4))
        a[0, 0] = _logit(0.9)   # anchor 0: part 0 wins
        a[0, 1] = _logit(0.2)
        b[0, 0] = _logit(0.1)
        b[0, 1] = _logit(0.8)   # anchor 1: part 1 wins
        outs = [
            PartOutput(Tensor(a), Tensor(np.full((1, 14, 1, 4), 5.0)),
                       Tensor(np.zeros((1, 4, 1, 4)))),
            PartOutput(Tensor(b), Tensor(np.full((1, 14, 1, 4), 9.0)),
                       Tensor(np.ones((1, 4, 1, 4)))),
        ]
        fused = fuse_scores(outs, parts, 4)
        assert fused.box[0, 0, 0, 0] == 5.0    # anchor 0 residuals from part 0
        assert fused.box[0, 7, 0, 0] == 9.0    # anchor 1 residuals from part 1
        assert fused.dir_logits[0, 0, 0, 0] == 0.0
        assert fused.dir_logits[0, 2, 0, 0] == 1.0


class TestFuseScoresOracle:
    """The whole-array fusion equals the per-part, per-anchor mask copies exactly."""

    PARTS = (PartSpec(0, 9, kernel=1), PartSpec(5, 16, kernel=3), PartSpec(5, 20, kernel=3),
             PartSpec(14, 20, kernel=3, dilation=2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_part_oracle(self, seed, dtype):
        rng = np.random.default_rng(seed)
        outs = []
        for spec in self.PARTS:
            # logits on a coarse lattice, so parts tie often inside the overlap bands
            cls = rng.integers(-2, 3, size=(2, 2, 3, spec.width)).astype(dtype)
            outs.append(PartOutput(Tensor(cls),
                                   Tensor(rng.normal(size=(2, 14, 3, spec.width)).astype(dtype)),
                                   Tensor(rng.normal(size=(2, 4, 3, spec.width)).astype(dtype))))
        fused = fuse_scores(outs, self.PARTS, 20)
        oracle = fuse_scores_per_part(outs, self.PARTS, 20)
        for name in ("scores", "box", "dir_logits"):
            got, want = getattr(fused, name), getattr(oracle, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        # the lattice does produce ties that a higher part index loses: in the
        # band 5..8 that parts 0 to 2 cover, part 0 ties part 1 at the maximum
        band = np.stack([outs[0].cls_logits.data[..., 5:9], outs[1].cls_logits.data[..., :4],
                         outs[2].cls_logits.data[..., :4]])
        top = band.max(axis=0)
        assert ((band[0] == top) & (band[1] == top)).any()
        assert (band.argmax(axis=0) == 1).any()


class TestHead:
    def test_forward_shapes(self):
        head = DepthAwareHead(parts=(PartSpec(0, 6, 1, 1), PartSpec(4, 12, 3, 1)),
                              map_width=12, in_channels=8, mid_channels=4, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 8, 4, 12)))
        outs = head(x)
        assert len(outs) == 2
        assert outs[0].cls_logits.shape == (2, 2, 4, 6)
        assert outs[1].box.shape == (2, 14, 4, 8)

    def test_width_mismatch_rejected(self):
        head = DepthAwareHead(parts=(PartSpec(0, 8, 1, 1),), map_width=8,
                              in_channels=4, mid_channels=4)
        with pytest.raises(ValueError, match="width"):
            head(Tensor(np.zeros((1, 4, 2, 10))))
