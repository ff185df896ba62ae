"""Shared test oracles: finite differences, the walk-then-release backward,
the col2im conv2d backward, the explicit BatchNorm backward chain, a training
Conv–BN–ReLU unit as separate nodes, the SCE's in-place eval skips, merges
and R as explicit ops, dense 3D convolution, a per-offset
rulebook, Monte-Carlo IoU, whole-matrix NMS, per-pair KITTI matching,
per-part, per-candidate and per-scene loops over the head maps, and the
augmentation pipeline as a loop over the ``augment`` steps."""

import os
from pathlib import Path

import numpy as np

import voxeldet
from voxeldet import augment, eval_metrics, nn_core
from voxeldet.box_geom import (Box3D, Detection, bev_iou, decode, iou3d,
                               pairwise_bev_iou, wrap_angle)
from voxeldet.depth_head import ANCHORS_PER_CELL, BOX_CHANNELS, DIR_CHANNELS, FusedOutput
from voxeldet.seg_context import fuse
from voxeldet.train import PartTargets
from voxeldet.sparse_conv import Rulebook, kernel_offsets


def child_env():
    """Environment for a child ``python -m voxeldet...`` run from any directory.

    ``PYTHONPATH`` starts with the absolute directory holding the ``voxeldet``
    package this process imported, so a relative entry such as ``src`` in the
    parent's ``PYTHONPATH`` does not decide what the child imports.
    """
    env = dict(os.environ)
    root = str(Path(voxeldet.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + rest if rest else root
    return env


def finite_diff_error(make_loss, params, h=1e-5, max_entries=None, seed=0):
    """Max relative error between backprop and central finite differences.

    ``make_loss()`` must rebuild the scalar loss Tensor from the current
    contents of ``params`` (a list of leaf Tensors with requires_grad).
    Error is normalized by max(1, |grad|_inf) per parameter.
    """
    for p in params:
        p.zero_grad()
    loss = make_loss()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        idx = np.arange(flat.size)
        if max_entries is not None and flat.size > max_entries:
            idx = rng.choice(flat.size, size=max_entries, replace=False)
        gf = np.zeros(flat.size)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            fp = make_loss().item()
            flat[i] = orig - h
            fm = make_loss().item()
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * h)
        ga_flat = ga.reshape(-1)
        scale = max(1.0, np.abs(ga_flat[idx]).max(initial=0.0), np.abs(gf[idx]).max(initial=0.0))
        worst = max(worst, np.abs(ga_flat[idx] - gf[idx]).max(initial=0.0) / scale)
    return worst


def backward_walk_then_release(root):
    """``Tensor.backward`` as the engine ran it before it released the graph
    during the walk: every closure runs first, in reverse topological order,
    and only then is the graph released, so the whole graph and every
    intermediate gradient stay alive until the walk ends."""
    if root.size != 1:
        raise ValueError(f"backward requires a scalar, got shape {root.shape}")
    order = nn_core._toposort(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward()
    for node in order:
        if node._parents:
            node._backward = None
            node._parents = ()
            if node is not root:
                node.grad = None


def random_cotangent(shape, seed):
    rng = np.random.default_rng(seed)
    return nn_core.Tensor(rng.normal(size=shape))


def projected_loss(out, cotangent):
    """Scalar projection so vector-valued ops can be gradient-checked."""
    return (out * cotangent).sum()


def conv2d_naive(x, w, b, stride, padding, dilation):
    """Direct-loop 2D cross-correlation oracle."""
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    oh = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    ow = (wd + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    out = np.zeros((n, oc, oh, ow))
    for ni in range(n):
        for oi in range(oc):
            for yi in range(oh):
                for xi in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (
                                    w[oi, ci, ky, kx]
                                    * xp[ni, ci, yi * stride + ky * dilation, xi * stride + kx * dilation]
                                )
                    out[ni, oi, yi, xi] = acc + (b[oi] if b is not None else 0.0)
    return out


def conv2d_backward_col2im(x, w, g, stride, padding, dilation):
    """(dx, dw, db) of a 2D cross-correlation by im2col, ``tensordot`` and col2im.

    ``g`` is the upstream gradient (n, oc, oh, ow). dW contracts ``g`` with
    the im2col columns over batch and positions; dX multiplies ``g`` by the
    transposed weight matrix and adds each kernel offset's slice back into the
    padded input, whose centre is dX.
    """
    n, c, h, wd = x.shape
    oc, _, k, _ = w.shape
    s, p, d = stride, padding, dilation
    oh, ow = g.shape[2:]
    xp = np.zeros((n, c, h + 2 * p, wd + 2 * p))
    xp[:, :, p : p + h, p : p + wd] = x
    ys = [slice(i * d, i * d + s * (oh - 1) + 1, s) for i in range(k)]
    xs = [slice(j * d, j * d + s * (ow - 1) + 1, s) for j in range(k)]
    cols = np.empty((n, c, k, k, oh, ow))
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, ys[i], xs[j]]
    g2 = g.reshape(n, oc, oh * ow)
    dw = np.tensordot(g2, cols.reshape(n, c * k * k, oh * ow), axes=([0, 2], [0, 2]))
    dcols = np.matmul(w.reshape(oc, -1).T, g2).reshape(n, c, k, k, oh, ow)
    gxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            gxp[:, :, ys[i], xs[j]] += dcols[:, :, i, j]
    return gxp[:, :, p : p + h, p : p + wd], dw.reshape(w.shape), g2.sum(axis=(0, 2))


def conv_input_grad_zero_stuffed(g, weight, spec, h, w):
    """dX of ``conv2d`` through a zero-stuffed, padded copy of the whole upstream
    gradient: ``g`` is stuffed by the stride and padded by (k−1)·d, then
    correlated at stride 1 with the flipped, transposed kernel from row and
    column p on. The oracle of ``nn_core._conv_input_grad``."""
    n, oc, oh, ow = g.shape
    p, k, s, d = spec.padding, spec.kernel, spec.stride, spec.dilation
    c, e = spec.in_channels, (k - 1) * d
    gs = np.zeros((n, oc, max(p + h, s * (oh - 1) + 1) + e, max(p + w, s * (ow - 1) + 1) + e),
                  g.dtype)
    gs[:, :, e : e + s * (oh - 1) + 1 : s, e : e + s * (ow - 1) + 1 : s] = g
    return nn_core.conv2d(gs[:, :, p : p + h + e, p : p + w + e],
                          weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), None,
                          nn_core.ConvSpec(oc, c, k, dilation=d)).data


def maxpool2_windows(x, g_out):
    """(output, dX) of 2×2 stride-2 max pooling over copied windows: ``argmax``
    over each window's positions (0,0), (0,1), (1,0), (1,1) picks the winner,
    the output takes its value and dX gets ``g_out`` there, 0 elsewhere. The
    oracle of ``nn_core.maxpool2``."""
    n, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    view = x[:, :, : 2 * oh, : 2 * ow].reshape(n, c, oh, 2, ow, 2)
    windows = view.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, 4)
    arg = windows.argmax(axis=-1)
    g = np.zeros((n, c, oh, ow, 4), g_out.dtype)
    np.put_along_axis(g, arg[..., None], g_out[..., None], axis=-1)
    g = g.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    gx = np.zeros_like(x)
    gx[:, :, : 2 * oh, : 2 * ow] = g.reshape(n, c, 2 * oh, 2 * ow)
    return np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0], gx


def batch_norm_backward_chain(x, gamma, g, eps, running=None):
    """(dx, dγ, dβ) of BatchNorm over all axes but 1, through the chain rule.

    With ``running=None`` the statistics are the batch's, and dx flows through
    the batch variance and mean as separate terms; with ``running=(mean,
    var)`` they are constants.
    """
    axes = tuple(ax for ax in range(x.ndim) if ax != 1)
    pshape = tuple(-1 if ax == 1 else 1 for ax in range(x.ndim))
    mean, var = (x.mean(axis=axes), x.var(axis=axes)) if running is None else running
    iv = (1.0 / np.sqrt(var + eps)).reshape(pshape)
    xc = x - mean.reshape(pshape)
    gxhat = g * gamma.reshape(pshape)
    if running is None:
        m = x.size // x.shape[1]
        gvar = (gxhat * xc).sum(axis=axes, keepdims=True) * (-0.5) * iv ** 3
        gmean = (-gxhat * iv).sum(axis=axes, keepdims=True) + gvar * (
            -2.0 * xc.sum(axis=axes, keepdims=True) / m
        )
        dx = gxhat * iv + gvar * 2.0 * xc / m + gmean / m
    else:
        dx = gxhat * iv
    return dx, (g * xc * iv).sum(axis=axes), g.sum(axis=axes)


def norm_unit_chain(y, norm, with_relu=True):
    """``relu(norm(y))`` (``norm(y)`` if not ``with_relu``) of the conv output ``y``
    as separate ``batch_norm`` and ``relu`` nodes: the oracle of
    ``nn_core._norm_unit``, which records the whole unit as one node."""
    out = norm(y)
    return nn_core.relu(out) if with_relu else out


def residual_block_ops(block, x):
    """``ResidualBlock.forward`` with the skip and ReLU as the ops
    ``relu(x + y)``: the oracle of the block's in-place eval writes."""
    y = nn_core.conv_bn(x, block.conv1, block.norm1)
    y = nn_core.conv_bn(y, block.conv2, block.norm2, with_relu=False)
    return nn_core.relu(x + y)


def merge_ops(fine, coarse, training):
    """``seg_context._merge`` as the ops ``fine + upsample_nearest2(coarse)``."""
    return fine + nn_core.upsample_nearest2(coarse)


def encoder_ops(encoder, bev):
    """``SemanticContextEncoder.forward`` with R as the ops
    ``fuse(concat([bev, U]), M)``: the oracle of the eval write of R."""
    m = encoder.segmentation(bev)
    return fuse(nn_core.concat([bev, encoder.detection(bev)]), m.detach()), m


def adamw_step_textbook(opt):
    """One AdamW step of ``opt`` as the plain expressions, one temporary per operation."""
    opt.t += 1
    bc1 = 1.0 - opt.beta1 ** opt.t
    bc2 = 1.0 - opt.beta2 ** opt.t
    for name, p in opt.params.items():
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        m, v = opt.m[name], opt.v[name]
        m *= opt.beta1
        m += (1 - opt.beta1) * g
        v *= opt.beta2
        v += (1 - opt.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + nn_core._ADAM_EPS)
        p.data -= opt.lr * update
        if opt.weight_decay and not name.split(".")[-1] in nn_core._NO_DECAY:
            p.data -= opt.lr * opt.weight_decay * p.data


def dense_conv3d_oracle(dense, weights, bias, offsets, out_shape, stride=(1, 1, 1),
                        origin=(0, 0, 0)):
    """Dense 3D convolution by explicit shifting, independent of any rulebook.

    ``dense`` is (nx, ny, nz, c_in); ``weights`` maps offset -> (c_in, c_out).
    Output voxel o takes input at o*stride + offset + origin.
    """
    nx, ny, nz, _ = dense.shape
    c_out = next(iter(weights.values())).shape[1]
    out = np.zeros(tuple(out_shape) + (c_out,))
    for ox in range(out_shape[0]):
        for oy in range(out_shape[1]):
            for oz in range(out_shape[2]):
                acc = np.zeros(c_out)
                for off, w in weights.items():
                    ix = ox * stride[0] + off[0] + origin[0]
                    iy = oy * stride[1] + off[1] + origin[1]
                    iz = oz * stride[2] + off[2] + origin[2]
                    if 0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz:
                        acc += dense[ix, iy, iz] @ w
                out[ox, oy, oz] = acc + (bias if bias is not None else 0.0)
    return out


def dense_conv3d_shift_oracle(dense, weights, bias, offsets, out_shape, stride=(1, 1, 1)):
    """Vectorized dense 3D convolution by array shifting (rulebook-independent).

    Same contract as :func:`dense_conv3d_oracle` with origin 0: output voxel o
    reads input at o * stride + offset.
    """
    in_shape = dense.shape[:3]
    c_out = next(iter(weights.values())).shape[1]
    out = np.zeros(tuple(out_shape) + (c_out,))
    for off, w in weights.items():
        # valid output range per axis: 0 <= o*s + off < n
        lo = [max(0, (-d + s - 1) // s) if d < 0 else 0
              for s, d in zip(stride, off)]
        hi = [min(o, (n - d + s - 1) // s)
              for o, n, s, d in zip(out_shape, in_shape, stride, off)]
        if any(l >= h for l, h in zip(lo, hi)):
            continue
        src = dense[
            lo[0] * stride[0] + off[0] : (hi[0] - 1) * stride[0] + off[0] + 1 : stride[0],
            lo[1] * stride[1] + off[1] : (hi[1] - 1) * stride[1] + off[1] + 1 : stride[1],
            lo[2] * stride[2] + off[2] : (hi[2] - 1) * stride[2] + off[2] + 1 : stride[2],
        ]
        out[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] += src @ w
    if bias is not None:
        out += bias
    return out


def build_rulebook_per_offset(coords, shape, kernel, stride=1, mode="submanifold"):
    """Rulebook oracle: rebuild and look up the candidate coordinates of every offset.

    Same contract as ``sparse_conv.build_rulebook``; output sites come from
    ``np.unique(axis=0)`` on the coordinate rows, re-sorted by
    (batch, iz, iy, ix), and each of the offsets gets its own bounds test
    and key lookup.
    """
    def keys_of(c, extent):
        nx, ny, nz = extent
        return ((c[:, 0] * nz + c[:, 3]) * ny + c[:, 2]) * nx + c[:, 1]

    kernel = (kernel,) * 3 if np.isscalar(kernel) else tuple(kernel)
    stride = (stride,) * 3 if np.isscalar(stride) else tuple(stride)
    n_in = len(coords)
    keys = keys_of(coords, shape)
    if mode == "submanifold":
        out_coords, out_shape = coords, tuple(shape)
        offsets = kernel_offsets(kernel, centered=True)
        s_arr = np.ones(3, np.int64)
    else:
        s_arr = np.array(stride)
        out_shape = tuple(max(1, (n - k) // s + 1) for n, k, s in zip(shape, kernel, stride))
        down = np.minimum(coords[:, 1:] // s_arr, np.array(out_shape) - 1)
        out_coords = np.unique(np.column_stack([coords[:, 0], down]), axis=0)
        out_coords = out_coords[np.argsort(keys_of(out_coords, out_shape), kind="stable")]
        offsets = kernel_offsets(kernel, centered=False)
    pairs = []
    for off in offsets:
        cand = out_coords[:, 1:] * s_arr + np.array(off)
        valid = ((cand >= 0) & (cand < np.array(shape))).all(axis=1)
        out_ord = np.flatnonzero(valid)
        cand_keys = keys_of(np.column_stack([out_coords[out_ord, 0], cand[out_ord]]), shape)
        pos = np.minimum(np.searchsorted(keys, cand_keys), max(n_in - 1, 0))
        found = (keys[pos] == cand_keys) if n_in else np.zeros(len(cand_keys), bool)
        pairs.append((pos[found].astype(np.int64), out_ord[found].astype(np.int64)))
    rb = Rulebook(tuple(offsets), tuple(pairs), n_in=n_in, n_out=len(out_coords))
    return rb, out_coords, out_shape


def _bev_corners(box):
    x, y, _, w, l, _, th = box
    dx = np.array([l, l, -l, -l]) / 2.0
    dy = np.array([w, -w, -w, w]) / 2.0
    c, s = np.cos(th), np.sin(th)
    return np.stack([x + c * dx - s * dy, y + s * dx + c * dy], axis=1)


def clipped_bev_area(box_a, box_b):
    """Scalar Sutherland-Hodgman oracle: BEV area of ``box_a`` clipped by ``box_b``."""
    poly = [tuple(p) for p in _bev_corners(box_a)]
    clip = _bev_corners(box_b)[::-1]                     # counterclockwise
    for (ax, ay), (bx, by) in zip(clip, np.roll(clip, -1, axis=0)):
        def side(p):
            return (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)

        points, poly = poly, []
        for prev, cur in zip(points[-1:] + points[:-1], points):
            if (side(cur) >= 0.0) != (side(prev) >= 0.0):
                t = side(prev) / (side(prev) - side(cur))
                poly.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
            if side(cur) >= 0.0:
                poly.append(cur)
    if len(poly) < 3:
        return 0.0
    x, y = np.array(poly).T
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def near_pairs(blocks) -> int:
    """The (a, b) pairs, over all (boxes_a, boxes_b) blocks, whose centre
    distance is at most the sum of their half-diagonals: the pairs the
    rotated-IoU prefilter sends to the clip."""
    count = 0
    for a, b in blocks:
        dist = np.hypot(a[:, 0, None] - b[None, :, 0], a[:, 1, None] - b[None, :, 1])
        reach = 0.5 * np.hypot(a[:, 3], a[:, 4])[:, None] + 0.5 * np.hypot(b[:, 3], b[:, 4])
        count += int(np.count_nonzero(dist <= reach))
    return count


# samples per block of the Monte-Carlo oracle: its buffers (~0.8 MB) stay in cache
_MC_BLOCK = 16_384


def monte_carlo_bev_iou(box_a, box_b, n_samples=1_000_000, seed=0):
    """Area-sampling IoU oracle for two rotated BEV rectangles.

    Samples are drawn uniformly over the joint corner bounding box from
    ``seed``: an int seeds a fresh ``Philox`` generator, a ``Generator`` is
    drawn from in place. The draws are consumed in blocks of rows into
    preallocated buffers; every sample sees the same float operations as in
    one whole-array pass, so the estimate does not depend on the block size.
    """
    rng = seed
    if not isinstance(rng, np.random.Generator):
        rng = np.random.Generator(np.random.Philox(seed))
    all_corners = np.vstack([_bev_corners(box_a), _bev_corners(box_b)])
    lo = all_corners.min(axis=0)
    span = all_corners.max(axis=0) - lo
    pts = np.empty((_MC_BLOCK, 2))
    dx, dy, u, v = (np.empty(_MC_BLOCK) for _ in range(4))
    in_a, in_b, both = (np.empty(_MC_BLOCK, dtype=bool) for _ in range(3))

    def inside(p, box, out):
        # box frame: rx = dx*c + dy*s, ry = -dx*s + dy*c (dx*(-s) rounds as -dx*s)
        x, y, _, w, l, _, th = box
        c, s = np.cos(th), np.sin(th)
        n = len(p)
        np.subtract(p[:, 0], x, out=dx[:n])
        np.subtract(p[:, 1], y, out=dy[:n])
        np.multiply(dx[:n], c, out=u[:n])
        np.multiply(dy[:n], s, out=v[:n])
        np.add(u[:n], v[:n], out=u[:n])
        np.abs(u[:n], out=u[:n])
        np.less_equal(u[:n], l / 2.0, out=out)
        np.multiply(dx[:n], -s, out=u[:n])
        np.multiply(dy[:n], c, out=v[:n])
        np.add(u[:n], v[:n], out=u[:n])
        np.abs(u[:n], out=u[:n])
        np.less_equal(u[:n], w / 2.0, out=both[:n])
        np.logical_and(out, both[:n], out=out)

    inter = union = 0
    for start in range(0, n_samples, _MC_BLOCK):
        n = min(_MC_BLOCK, n_samples - start)
        p = pts[:n]
        rng.random(out=p)
        p *= span
        p += lo
        inside(p, box_a, in_a[:n])
        inside(p, box_b, in_b[:n])
        inter += np.count_nonzero(np.logical_and(in_a[:n], in_b[:n], out=both[:n]))
        union += np.count_nonzero(np.logical_or(in_a[:n], in_b[:n], out=both[:n]))
    if union == 0:
        return 0.0
    return inter / union


def oriented_nms_matrix(detections, iou_threshold):
    """Whole-matrix NMS oracle: sort once, build one ``pairwise_bev_iou`` matrix
    with each candidate as the first argument, then one greedy pass over its
    columns, each kept column suppressing every later row it exceeds."""
    dets = list(detections)
    order = np.argsort(-np.array([d.score for d in dets]), kind="stable")
    boxes = np.array([dets[k].box.as_array() for k in order]).reshape(-1, 7)
    iou = pairwise_bev_iou(boxes, boxes)
    suppressed = np.zeros(len(dets), dtype=bool)
    kept = []
    for j in range(len(dets)):
        if suppressed[j]:
            continue
        kept.append(dets[order[j]])
        # not (iou <= threshold), so a NaN suppresses as it does in oriented_nms
        suppressed[j + 1:] |= ~(iou[j + 1:, j] <= iou_threshold)
    return kept


def match_frame_per_pair(detections, gt_boxes, ignored_boxes, iou_fn, threshold):
    """Greedy matching oracle: one scalar ``iou_fn(det, gt)`` call per pair.

    Detections go in stable descending-score order; each takes the unmatched
    ground truth with the highest IoU >= threshold (the last one on a tie),
    else is "ignored" when an ignored box reaches the threshold, else "fp".
    """
    order = np.argsort(-np.asarray(detections.scores), kind="stable")
    matched = np.zeros(len(gt_boxes), dtype=bool)
    kinds, deltas = [], []
    for di in order:
        det_box = detections.boxes[di]
        best_iou, best_gi = threshold, -1
        for gi, gt_box in enumerate(gt_boxes):
            if matched[gi]:
                continue
            iou = iou_fn(det_box, gt_box)
            if iou >= best_iou:
                best_iou, best_gi = iou, gi
        if best_gi >= 0:
            matched[best_gi] = True
            kinds.append("tp")
            deltas.append(float(wrap_angle(det_box.theta - gt_boxes[best_gi].theta)))
            continue
        if any(iou_fn(det_box, ib) >= threshold for ib in ignored_boxes):
            kinds.append("ignored")
        else:
            kinds.append("fp")
        deltas.append(0.0)
    return kinds, deltas, order


def evaluate_frames_per_pair(frames, mode, threshold):
    """KITTI protocol oracle: every stratum re-matches every frame pair by pair."""
    ap_3d, ap_bev, aos_out = {}, {}, {}
    for name in eval_metrics.DIFFICULTY_RULES:
        pooled = {}
        for key, iou_fn in (("3d", iou3d), ("bev", bev_iou)):
            scores, is_tp, is_fp, sims, n_gt = [], [], [], [], 0
            for dets, gt in frames:
                mask = eval_metrics.stratify(gt)[name]
                gt_boxes = [b for b, m in zip(gt.boxes, mask) if m]
                ignored = [b for b, m in zip(gt.boxes, mask) if not m] + list(gt.ignored_boxes)
                n_gt += len(gt_boxes)
                kinds, deltas, order = match_frame_per_pair(dets, gt_boxes, ignored, iou_fn,
                                                            threshold)
                for kind, delta, di in zip(kinds, deltas, order):
                    if kind == "ignored":
                        continue
                    scores.append(float(dets.scores[di]))
                    is_tp.append(kind == "tp")
                    is_fp.append(kind == "fp")
                    sims.append((1.0 + np.cos(delta)) / 2.0 if kind == "tp" else 0.0)
            pooled[key] = eval_metrics.RankedMatches(
                np.asarray(scores, dtype=np.float64), np.asarray(is_tp, dtype=bool),
                np.asarray(is_fp, dtype=bool), np.asarray(sims, dtype=np.float64), n_gt,
            ).sorted_by_score()
        ap_3d[name] = eval_metrics.average_precision(pooled["3d"], mode)
        ap_bev[name] = eval_metrics.average_precision(pooled["bev"], mode)
        aos_out[name] = eval_metrics.aos(pooled["bev"], mode)
    return eval_metrics.EvalResult(ap_3d, ap_bev, aos_out)


def _envelope_per_sample(values, recalls, samples):
    """max over curve points with recall >= r, one loop pass per sampled recall r."""
    out = np.zeros(len(samples))
    for i, r in enumerate(samples):
        eligible = values[recalls >= r - 1e-12]
        out[i] = eligible.max() if len(eligible) else 0.0
    return out


def interpolated_per_sample(matches, mode, use_similarity):
    """``eval_metrics.average_precision`` (or ``aos``) oracle: the envelope read per sample."""
    if matches.n_gt == 0:
        return None
    numerators = matches.similarities if use_similarity else matches.is_tp
    num_cum = np.cumsum(numerators)
    counted = np.cumsum(matches.is_tp | matches.is_fp)
    valid = counted > 0
    ratio = np.zeros(len(matches.scores))
    ratio[valid] = num_cum[valid] / counted[valid]
    recall = np.cumsum(matches.is_tp) / matches.n_gt
    samples = eval_metrics._recall_samples(mode)
    return float(np.mean(_envelope_per_sample(ratio, recall, samples)) * 100.0)


def fuse_scores_per_part(part_outputs, parts, map_width):
    """``depth_head.fuse_scores`` oracle: one boolean-mask copy per part and anchor."""
    first = part_outputs[0].cls_logits.data
    b, _, h, _ = first.shape
    n_parts = len(parts)
    stacked = np.full((n_parts, b, ANCHORS_PER_CELL, h, map_width), -np.inf, first.dtype)
    for pi, (spec, out) in enumerate(zip(parts, part_outputs)):
        stacked[pi, :, :, :, spec.lo : spec.hi] = nn_core.sigmoid(out.cls_logits.data).data
    part_index = stacked.argmax(axis=0)
    scores = np.take_along_axis(stacked, part_index[None], axis=0)[0]

    box = np.zeros((b, BOX_CHANNELS, h, map_width), first.dtype)
    dir_logits = np.zeros((b, DIR_CHANNELS, h, map_width), first.dtype)
    for pi, (spec, out) in enumerate(zip(parts, part_outputs)):
        for a in range(ANCHORS_PER_CELL):
            win = part_index[:, a, :, spec.lo : spec.hi] == pi
            box_slice = box[:, 7 * a : 7 * a + 7, :, spec.lo : spec.hi]
            box_vals = out.box.data[:, 7 * a : 7 * a + 7]
            box_slice[np.broadcast_to(win[:, None], box_slice.shape)] = box_vals[
                np.broadcast_to(win[:, None], box_vals.shape)
            ]
            dir_slice = dir_logits[:, 2 * a : 2 * a + 2, :, spec.lo : spec.hi]
            dir_vals = out.dir_logits.data[:, 2 * a : 2 * a + 2]
            dir_slice[np.broadcast_to(win[:, None], dir_slice.shape)] = dir_vals[
                np.broadcast_to(win[:, None], dir_vals.shape)
            ]
    return FusedOutput(scores, box, dir_logits)


def decode_per_candidate(fused, anchors, score_threshold, pre_nms_top_k, max_size):
    """Pre-NMS detections of ``VehicleDetector.detect``, one ``decode`` per candidate.

    A candidate whose size residual r exceeds ``log(max_size / anchor_size)`` for
    w, l or h is skipped before it is decoded.
    """
    _, _, h, w = fused.box.shape
    anchors = anchors.reshape(h, w, ANCHORS_PER_CELL, 7)
    results = []
    for b in range(fused.scores.shape[0]):
        cand = np.nonzero(fused.scores[b] >= score_threshold)
        if len(cand[0]) > pre_nms_top_k:
            scores = fused.scores[b][cand]
            order = np.lexsort((np.arange(len(scores)), -scores))[:pre_nms_top_k]
            cand = tuple(axis[order] for axis in cand)
        dets = []
        for a, iy, ix in zip(*cand):
            residual = fused.box[b, 7 * a : 7 * a + 7, iy, ix]
            dir_pair = fused.dir_logits[b, 2 * a : 2 * a + 2, iy, ix]
            if any(residual[3 + j] > np.log(max_size / anchors[iy, ix, a, 3 + j])
                   for j in range(3)):
                continue
            decoded = decode(residual, anchors[iy, ix, a], bit=int(dir_pair.argmax()))
            if not np.all(np.isfinite(decoded)) or decoded[3:6].min() <= 0:
                continue
            dets.append(Detection(Box3D.from_array(decoded),
                                  float(fused.scores[b, a, iy, ix])))
        results.append(dets)
    return results


def build_part_targets_per_scene(assignments, height, width, lo, hi):
    """``train.build_part_targets`` oracle: one scene, anchor and direction bit at a time."""
    wp = hi - lo
    b = len(assignments)
    cls_labels = np.empty((b, 2, height, wp), dtype=np.int8)
    box_target = np.empty((b, 14, height, wp))
    box_mask = np.zeros((b, 14, height, wp))
    dir_onehot = np.zeros((b, 2, 2, height, wp))
    dir_mask = np.zeros((b, 2, height, wp))
    for bi, asn in enumerate(assignments):
        lab = asn.labels.reshape(height, width, 2)[:, lo:hi]
        cls_labels[bi] = lab.transpose(2, 0, 1)
        res = asn.residuals.reshape(height, width, 2, 7)[:, lo:hi]
        box_target[bi] = res.transpose(2, 3, 0, 1).reshape(14, height, wp)
        pos = (lab == 1).transpose(2, 0, 1)
        box_mask[bi] = np.repeat(pos, 7, axis=0).reshape(2, 7, height, wp).reshape(14, height, wp)
        bits = asn.direction_bits.reshape(height, width, 2)[:, lo:hi].transpose(2, 0, 1)
        onehot = np.zeros((2, 2, height, wp))
        for a in range(2):
            for bit in range(2):
                onehot[a, bit] = (bits[a] == bit) & pos[a]
        dir_onehot[bi] = onehot
        dir_mask[bi] = pos
    n_positive = int((cls_labels == 1).sum())
    return PartTargets(cls_labels, box_target, box_mask, dir_onehot, dir_mask, n_positive)


def augment_scenes_loop(scenes, cfg, seed):
    """``augment.augment_scenes`` written out step by step, the loop that the
    benchmark's ``ToyTrain.setup`` runs: the database, then per scene a plane
    fit and ``augment_scene`` with the config's settings, one generator."""
    rng = np.random.default_rng([seed, 0xA6])
    database = augment.build_gt_database(scenes)
    augmented = []
    for scene in scenes:
        plane = augment.fit_ground_plane(scene.cloud, cfg.ransac_iterations,
                                         cfg.ransac_inlier_tol, seed=cfg.seed)
        augmented.append(augment.augment_scene(
            scene, database, plane, rng, max_samples=cfg.aug_max_samples,
            translation_var=cfg.aug_translation_var, box_yaw=cfg.aug_box_yaw,
            box_yaw_range=cfg.aug_box_yaw_range, global_rotation=cfg.aug_global_rotation))
    return augmented
