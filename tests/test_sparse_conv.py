import numpy as np
import pytest

from voxeldet.nn_core import Tensor
from voxeldet.sparse_conv import (
    DEFAULT_BLOCKS,
    Rulebook,
    VfeBlockSpec,
    VfeEncoder,
    bev_map_shape,
    block_shapes,
    build_rulebook,
    densify_grid,
    kernel_offsets,
    sparse_conv_forward,
    sparse_conv_op,
)
from voxeldet.voxel_grid import make_grid

from helpers import (
    build_rulebook_per_offset,
    dense_conv3d_oracle,
    finite_diff_error,
    projected_loss,
    random_cotangent,
)


def _coords(rows):
    return np.asarray(rows, dtype=np.int64)


def _batched(indices):
    idx = _coords(indices)
    return np.column_stack([np.zeros(len(idx), dtype=np.int64), idx])


def _sort_batched(coords, shape):
    nx, ny, _ = shape
    keys = ((coords[:, 0] * shape[2] + coords[:, 3]) * ny + coords[:, 2]) * nx + coords[:, 1]
    return coords[np.argsort(keys)]


def _random_sites(rng, shape, max_sites):
    n = rng.integers(1, max_sites + 1)
    all_cells = np.array(
        [(x, y, z) for x in range(shape[0]) for y in range(shape[1]) for z in range(shape[2])]
    )
    pick = rng.choice(len(all_cells), size=min(n, len(all_cells)), replace=False)
    return _sort_batched(_batched(all_cells[pick]), shape)


class TestRulebook:
    def test_single_site_center_pair_only(self):
        coords = _batched([[2, 2, 2]])
        rb, out_coords, _ = build_rulebook(coords, (5, 5, 5), 3, 1, "submanifold")
        assert rb.n_out == 1 and rb.total_pairs == 1
        center = rb.offsets.index((0, 0, 0))
        assert len(rb.pairs[center][0]) == 1
        np.testing.assert_array_equal(out_coords, coords)

    def test_two_adjacent_sites_four_pairs(self):
        coords = _sort_batched(_batched([[0, 0, 0], [1, 0, 0]]), (4, 4, 4))
        rb, _, _ = build_rulebook(coords, (4, 4, 4), 3, 1, "submanifold")
        assert rb.total_pairs == 4
        center = rb.offsets.index((0, 0, 0))
        assert len(rb.pairs[center][0]) == 2

    def test_strided_floor_division(self):
        coords = _sort_batched(_batched([[0, 0, 0], [1, 1, 1]]), (2, 2, 2))
        rb, out_coords, out_shape = build_rulebook(coords, (2, 2, 2), 2, 2, "strided")
        assert out_shape == (1, 1, 1)
        assert rb.n_out == 1
        np.testing.assert_array_equal(out_coords, [[0, 0, 0, 0]])
        assert rb.total_pairs == 2

    def test_submanifold_requires_odd_kernel(self):
        with pytest.raises(ValueError, match="odd"):
            build_rulebook(_batched([[0, 0, 0]]), (2, 2, 2), 2, 1, "submanifold")

    def test_no_duplicate_triples(self):
        rng = np.random.default_rng(0)
        coords = _random_sites(rng, (6, 6, 6), 20)
        rb, _, _ = build_rulebook(coords, (6, 6, 6), 3, 1, "submanifold")
        seen = set()
        for k, (in_idx, out_idx) in enumerate(rb.pairs):
            for i, o in zip(in_idx, out_idx):
                assert (k, i, o) not in seen
                seen.add((k, i, o))

    def test_submanifold_preserves_site_count(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            coords = _random_sites(rng, (5, 5, 5), 15)
            rb, out_coords, _ = build_rulebook(coords, (5, 5, 5), 3, 1, "submanifold")
            assert rb.n_out == rb.n_in == len(coords)
            np.testing.assert_array_equal(out_coords, coords)

    @pytest.mark.parametrize("mode", ["submanifold", "strided"])
    def test_ordinals_unique_within_each_offset(self, mode):
        # sparse_conv_forward/backward scatter with a fancy-index +=, exact only if this holds
        rng = np.random.default_rng(6)
        for _ in range(25):
            shape = tuple(int(v) for v in rng.integers(2, 7, size=3))
            coords = np.concatenate([_random_sites(rng, shape, 40) + [b, 0, 0, 0]
                                     for b in range(2)])
            if mode == "submanifold":
                kernel, stride = 3, 1
            else:
                kernel = tuple(int(k) for k in rng.integers(1, 4, size=3))
                stride = tuple(int(s) for s in rng.integers(1, 3, size=3))
            rb, _, _ = build_rulebook(coords, shape, kernel, stride, mode)
            assert rb.total_pairs > 0
            for in_idx, out_idx in rb.pairs:
                assert len(np.unique(in_idx)) == len(in_idx)
                assert len(np.unique(out_idx)) == len(out_idx)


def _seeded_sites(seed, shape, counts):
    """Sorted (batch, ix, iy, iz) rows with counts[b] distinct random sites in batch b."""
    rng = np.random.default_rng(seed)
    parts = [np.empty((0, 4), np.int64)]
    for b, n in enumerate(counts):
        cells = rng.choice(int(np.prod(shape)), size=n, replace=False)
        parts.append(np.column_stack([np.full(n, b), *np.unravel_index(cells, shape)]))
    return _sort_batched(np.concatenate(parts).astype(np.int64), shape)


def _border_sites(shape, batches=2):
    """Every site with at least one coordinate on a face of the grid, in each batch."""
    cells = np.array(np.meshgrid(*(np.arange(n) for n in shape), indexing="ij")).reshape(3, -1).T
    on_face = ((cells == 0) | (cells == np.array(shape) - 1)).any(axis=1)
    rows = [np.column_stack([np.full(on_face.sum(), b), cells[on_face]]) for b in range(batches)]
    return _sort_batched(np.concatenate(rows).astype(np.int64), shape)


# (name, grid shape, coords); z extents 5 and 7 are odd, 4 and 6 even
_RULEBOOK_GRIDS = [
    ("batch1", (7, 6, 5), _seeded_sites(11, (7, 6, 5), [60])),
    ("batch3_empty_middle", (6, 7, 4), _seeded_sites(12, (6, 7, 4), [40, 0, 35])),
    ("borders_odd_z", (5, 4, 7), _border_sites((5, 4, 7))),
    ("borders_even_z", (4, 5, 6), _border_sites((4, 5, 6))),
    ("dense_batch3", (3, 3, 3), _seeded_sites(13, (3, 3, 3), [27, 27, 27])),
    ("single_site", (6, 6, 6), _batched([[5, 0, 3]])),
    ("no_sites", (6, 6, 5), np.empty((0, 4), np.int64)),
]


def _vfe_kernel(shape, stride):
    """The strided kernel VfeEncoder uses: z stretches to 3 when the extent is odd."""
    return tuple(1 if s == 1 else (s if n % s == 0 else s + 1) for n, s in zip(shape, stride))


def _assert_same_rulebook(got, expected):
    (rb, coords, shape), (rb_ref, coords_ref, shape_ref) = got, expected
    assert shape == shape_ref and rb.offsets == rb_ref.offsets
    assert (rb.n_in, rb.n_out) == (rb_ref.n_in, rb_ref.n_out)
    np.testing.assert_array_equal(coords, coords_ref)
    assert coords.dtype == coords_ref.dtype and coords.shape == coords_ref.shape
    for (i, o), (i_ref, o_ref) in zip(rb.pairs, rb_ref.pairs):
        assert i.dtype == o.dtype == np.int64
        np.testing.assert_array_equal(i, i_ref)
        np.testing.assert_array_equal(o, o_ref)


class TestRulebookMatchesPerOffsetOracle:
    @pytest.mark.parametrize("name,shape,coords", _RULEBOOK_GRIDS,
                             ids=[g[0] for g in _RULEBOOK_GRIDS])
    def test_submanifold(self, name, shape, coords):
        _assert_same_rulebook(build_rulebook(coords, shape, 3, 1, "submanifold"),
                              build_rulebook_per_offset(coords, shape, 3, 1, "submanifold"))

    @pytest.mark.parametrize("name,shape,coords", _RULEBOOK_GRIDS,
                             ids=[g[0] for g in _RULEBOOK_GRIDS])
    @pytest.mark.parametrize("stride", [(2, 2, 2), (1, 1, 2), (2, 1, 1)])
    def test_strided_vfe_kernels(self, name, shape, coords, stride):
        kernel = _vfe_kernel(shape, stride)
        _assert_same_rulebook(build_rulebook(coords, shape, kernel, stride, "strided"),
                              build_rulebook_per_offset(coords, shape, kernel, stride, "strided"))

    def test_strided_other_kernels(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            shape = tuple(int(v) for v in rng.integers(1, 8, size=3))
            counts = [int(rng.integers(0, np.prod(shape) + 1)) for _ in range(3)]
            coords = _seeded_sites(seed, shape, counts)
            kernel = tuple(int(k) for k in rng.integers(1, 4, size=3))
            stride = tuple(int(s) for s in rng.integers(1, 4, size=3))
            _assert_same_rulebook(
                build_rulebook(coords, shape, kernel, stride, "strided"),
                build_rulebook_per_offset(coords, shape, kernel, stride, "strided"))

    @pytest.mark.parametrize("name,shape,coords", _RULEBOOK_GRIDS,
                             ids=[g[0] for g in _RULEBOOK_GRIDS])
    def test_submanifold_symmetry(self, name, shape, coords):
        # centre offset is the identity; offset -d pairs are the swapped pairs of +d
        for rb, _, _ in (build_rulebook(coords, shape, 3, 1, "submanifold"),
                         build_rulebook_per_offset(coords, shape, 3, 1, "submanifold")):
            n_off = len(rb.offsets)
            centre = rb.offsets.index((0, 0, 0))
            for side in rb.pairs[centre]:
                np.testing.assert_array_equal(side, np.arange(len(coords)))
            for k, off in enumerate(rb.offsets):
                mirror = n_off - 1 - k
                assert rb.offsets[mirror] == tuple(-d for d in off)
                np.testing.assert_array_equal(rb.pairs[mirror][0], rb.pairs[k][1])
                np.testing.assert_array_equal(rb.pairs[mirror][1], rb.pairs[k][0])


class TestSparseForward:
    def test_identity_center_weight(self):
        rng = np.random.default_rng(2)
        coords = _random_sites(rng, (5, 5, 5), 12)
        feats = rng.normal(size=(len(coords), 3))
        rb, _, _ = build_rulebook(coords, (5, 5, 5), 3, 1, "submanifold")
        weights = np.zeros((27, 3, 3))
        weights[rb.offsets.index((0, 0, 0))] = np.eye(3)
        out = sparse_conv_forward(feats, weights, None, rb)
        np.testing.assert_allclose(out, feats)

    def test_empty_grid(self):
        coords = np.empty((0, 4), np.int64)
        rb, out_coords, _ = build_rulebook(coords, (4, 4, 4), 3, 1, "submanifold")
        out = sparse_conv_forward(np.empty((0, 2)), np.zeros((27, 2, 5)), None, rb)
        assert out.shape == (0, 5)
        assert len(out_coords) == 0

    @pytest.mark.parametrize("mode", ["submanifold", "strided"])
    def test_matches_dense_oracle(self, mode):
        rng = np.random.default_rng(3)
        for trial in range(25):
            shape = tuple(rng.integers(2, 7, size=3))
            coords = _random_sites(rng, shape, 10)
            c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            feats = rng.normal(size=(len(coords), c_in))
            if mode == "submanifold":
                kernel, stride = 3, (1, 1, 1)
            else:
                kernel = tuple(int(k) for k in rng.integers(1, 4, size=3))
                stride = tuple(int(s) for s in rng.integers(1, 3, size=3))
            rb, out_coords, out_shape = build_rulebook(coords, shape, kernel, stride, mode)
            weights = rng.normal(size=(len(rb.offsets), c_in, c_out))
            bias = rng.normal(size=c_out)
            out = sparse_conv_forward(feats, weights, bias, rb)

            grid = make_grid(shape, coords[:, 1:], feats)
            dense = densify_grid(grid)
            wmap = {off: weights[k] for k, off in enumerate(rb.offsets)}
            if mode == "submanifold":
                expected = dense_conv3d_oracle(dense, wmap, bias, rb.offsets, shape)
                ref_coords = coords
            else:
                expected = dense_conv3d_oracle(dense, wmap, bias, rb.offsets, out_shape,
                                               stride=stride)
                ref_coords = out_coords
            # compare restricted to the active output sites
            got_dense = expected[ref_coords[:, 1], ref_coords[:, 2], ref_coords[:, 3]]
            np.testing.assert_allclose(out, got_dense, atol=1e-10)


class TestSparseBackward:
    def _setup(self, seed=4, n_feat=3, n_out_feat=2):
        rng = np.random.default_rng(seed)
        coords = _random_sites(rng, (4, 4, 4), 10)
        rb, _, _ = build_rulebook(coords, (4, 4, 4), 3, 1, "submanifold")
        feats = Tensor(rng.normal(size=(len(coords), n_feat)), requires_grad=True)
        weights = Tensor(rng.normal(size=(27, n_feat, n_out_feat)) * 0.4, requires_grad=True)
        bias = Tensor(rng.normal(size=n_out_feat), requires_grad=True)
        return rb, feats, weights, bias

    def test_finite_difference(self):
        rb, feats, weights, bias = self._setup()
        cot = random_cotangent((rb.n_out, 2), seed=5)

        def loss():
            return projected_loss(sparse_conv_op(feats, weights, bias, rb), cot)

        assert finite_diff_error(loss, [feats, weights, bias], max_entries=60) < 1e-5

    def test_zero_upstream(self):
        rb, feats, weights, bias = self._setup()
        projected_loss(sparse_conv_op(feats, weights, bias, rb), Tensor(np.zeros((rb.n_out, 2)))
                       ).backward()
        assert not feats.grad.any() and not weights.grad.any() and not bias.grad.any()

    def test_single_pair_outer_product(self):
        offsets = tuple(kernel_offsets(1, centered=True))
        rb = Rulebook(offsets, ((np.array([0]), np.array([0])),), n_in=1, n_out=1)
        x = np.array([[1.5, -2.0]])
        w = Tensor(np.zeros((1, 2, 3)), requires_grad=True)
        up = np.array([[0.5, 1.0, -1.0]])
        projected_loss(sparse_conv_op(Tensor(x), w, None, rb), Tensor(up)).backward()
        np.testing.assert_allclose(w.grad[0], np.outer(x[0], up[0]))

    def test_skips_unused_gradients(self):
        """No input gradient for features without grad and no bias sum for no bias; the
        gradients that are computed are bit-identical to a full backward's."""
        rb, feats, weights, bias = self._setup()
        full = sparse_conv_op(feats, weights, bias, rb)
        upstream = np.random.default_rng(6).normal(size=full.shape)
        full.grad = upstream
        full._backward()

        calls = []

        class Watched(np.ndarray):
            """Records ``.sum`` calls and ``.T`` reads on itself and its slices."""

            def sum(self, *args, **kwargs):
                calls.append("sum")
                return np.asarray(self).sum(*args, **kwargs)

            @property
            def T(self):
                calls.append("T")
                return np.asarray(self).T

        frozen = Tensor(feats.data)
        w2 = Tensor(weights.data, requires_grad=True)
        w2.data = weights.data.view(Watched)
        part = sparse_conv_op(frozen, w2, None, rb)
        part.grad = upstream.view(Watched)
        part._backward()
        assert calls == [] and frozen.grad is None
        np.testing.assert_array_equal(w2.grad, weights.grad)

        f3, w3 = Tensor(feats.data, requires_grad=True), Tensor(weights.data, requires_grad=True)
        no_bias = sparse_conv_op(f3, w3, None, rb)
        no_bias.grad = upstream.view(Watched)
        no_bias._backward()
        assert "sum" not in calls
        np.testing.assert_array_equal(f3.grad, feats.grad)
        np.testing.assert_array_equal(w3.grad, weights.grad)


class TestStridedBackward:
    """Finite-difference gradients through strided rulebooks, whose input
    gradient reads the pairs from outputs back to inputs."""

    @staticmethod
    def _check(coords, shape, kernel, stride, seed):
        rng = np.random.default_rng(seed)
        rb, _, _ = build_rulebook(coords, shape, kernel, stride, "strided")
        feats = Tensor(rng.normal(size=(len(coords), 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(len(rb.offsets), 3, 2)) * 0.4, requires_grad=True)
        bias = Tensor(rng.normal(size=2), requires_grad=True)
        cot = random_cotangent((rb.n_out, 2), seed=seed + 1)

        def loss():
            return projected_loss(sparse_conv_op(feats, weights, bias, rb), cot)

        assert finite_diff_error(loss, [feats, weights, bias], max_entries=60) < 1e-5
        return rb, weights

    def test_strided_layer(self):
        shape = (6, 5, 4)
        self._check(_seeded_sites(21, shape, [40]), shape, (2, 2, 2), (2, 2, 2), seed=22)

    def test_vfe_stretched_kernel_on_odd_z(self):
        shape, stride = (4, 6, 5), (2, 2, 2)
        kernel = _vfe_kernel(shape, stride)
        assert kernel == (2, 2, 3)
        rb, _ = self._check(_seeded_sites(23, shape, [45]), shape, kernel, stride, seed=24)
        assert rb.n_out < rb.total_pairs

    def test_batch2_with_an_offset_without_pairs(self):
        # every site has even x, so no odd-x offset of the stride-2 kernel finds a pair
        shape = (6, 4, 4)
        coords = _seeded_sites(25, (3, 4, 4), [10, 12])
        coords[:, 1] *= 2
        rb, weights = self._check(_sort_batched(coords, shape), shape, (2, 2, 2), (2, 2, 2),
                                  seed=26)
        empty = [k for k, (i, _) in enumerate(rb.pairs) if len(i) == 0]
        assert empty and len(empty) < len(rb.offsets)
        assert not weights.grad[empty].any()

    def test_frozen_weights_take_no_weight_gradient(self):
        """The input gradient alone reads no feature transpose and equals a full backward's."""
        shape = (4, 6, 5)
        coords = _seeded_sites(27, shape, [30, 20])
        rb, _, _ = build_rulebook(coords, shape, (2, 2, 3), (2, 2, 2), "strided")
        rng = np.random.default_rng(28)
        x, w = rng.normal(size=(len(coords), 3)), rng.normal(size=(len(rb.offsets), 3, 2))
        upstream = rng.normal(size=(rb.n_out, 2))
        feats, weights = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        full = sparse_conv_op(feats, weights, None, rb)
        full.grad = upstream
        full._backward()

        transposed = []

        class Watched(np.ndarray):
            @property
            def T(self):
                transposed.append(self.shape)
                return np.asarray(self).T

        watched = Tensor(x, requires_grad=True)
        watched.data = x.view(Watched)
        frozen = Tensor(w)
        part = sparse_conv_op(watched, frozen, None, rb)
        part.grad = upstream
        part._backward()
        assert transposed == [] and frozen.grad is None
        np.testing.assert_array_equal(watched.grad, feats.grad)


class TestVfe:
    def test_default_bev_shape(self):
        enc = VfeEncoder((1408, 1600, 40))
        assert enc.bev_shape == (128, 200, 176)
        rng = np.random.default_rng(6)
        idx = np.column_stack([
            rng.integers(0, 1408, 30), rng.integers(0, 1600, 30), rng.integers(0, 40, 30),
        ])
        idx = np.unique(idx, axis=0)
        grid = make_grid((1408, 1600, 40), idx, rng.normal(size=(len(idx), 4)))
        bev = enc.forward(enc.build_plan(grid))
        assert bev.shape == (1, 128, 200, 176)

    def test_empty_grid_zero_bev(self):
        enc = VfeEncoder((64, 64, 8))
        grid = make_grid((64, 64, 8), np.empty((0, 3)), np.empty((0, 4)))
        bev = enc.forward(enc.build_plan(grid))
        # z extent 8 collapses to one level: 64 channels
        assert bev.shape == (1, 64, 8, 8)
        assert not bev.data.any()

    def test_single_site_support(self):
        enc = VfeEncoder((64, 64, 8))
        grid = make_grid((64, 64, 8), [[37, 10, 5]], [[1.0, 2.0, 3.0, 0.5]])
        plan = enc.build_plan(grid)
        # submanifold layers never dilate; the site only moves by floor division
        assert len(plan.final_coords) == 1
        np.testing.assert_array_equal(plan.final_coords[0, 1:3], [37 // 8, 10 // 8])
        bev = enc.forward(plan)
        nonzero = np.nonzero(bev.data.any(axis=(0, 1)))
        assert set(zip(*nonzero)) <= {(10 // 8, 37 // 8)}

    def test_channel_mismatch_rejected(self):
        blocks = (VfeBlockSpec(4, 16, 2, 2), VfeBlockSpec(32, 32, 2, 2))
        with pytest.raises(ValueError, match="channel mismatch"):
            VfeEncoder((16, 16, 8), blocks)

    def test_batch_stacking(self):
        enc = VfeEncoder((32, 32, 8))
        rng = np.random.default_rng(7)
        grids = []
        for _ in range(2):
            idx = np.unique(np.column_stack([
                rng.integers(0, 32, 9), rng.integers(0, 32, 9), rng.integers(0, 8, 9),
            ]), axis=0)
            grids.append(make_grid((32, 32, 8), idx, rng.normal(size=(len(idx), 4))))
        bev = enc.forward(enc.build_plan(grids))
        assert bev.shape == (2, 64, 4, 4)

    def test_z_schedule_shapes(self):
        schedule = block_shapes((1408, 1600, 40), DEFAULT_BLOCKS)
        assert [s for _, _, s in schedule] == [
            (704, 800, 20), (352, 400, 10), (176, 200, 5), (176, 200, 2)]
        assert [k for k, _, _ in schedule] == [(2, 2, 2)] * 3 + [(1, 1, 3)]
        assert [st for _, st, _ in schedule] == [(2, 2, 2)] * 3 + [(1, 1, 2)]
        assert bev_map_shape((1408, 1600, 40), DEFAULT_BLOCKS) == (128, 200, 176)

    def test_block_spec_defaults(self):
        assert DEFAULT_BLOCKS[0] == VfeBlockSpec(4, 16, 2, 2)
        assert DEFAULT_BLOCKS[3].stride_xy == 1


class TestDensifyRoundtrip:
    def test_identity_without_zero_sites(self):
        """Each site's features land at its index; every other cell is zero."""
        rng = np.random.default_rng(8)
        for _ in range(10):
            shape = (4, 3, 5)
            coords = _random_sites(rng, shape, 12)
            feats = rng.normal(size=(len(coords), 3))
            dense = densify_grid(make_grid(shape, coords[:, 1:], feats))
            expected = np.zeros(shape + (3,))
            for (x, y, z), f in zip(coords[:, 1:], feats):
                expected[x, y, z] = f
            np.testing.assert_array_equal(dense, expected)
