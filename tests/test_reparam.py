"""Folding engine: fusion oracles, FC-from-conv, and end-to-end equivalence."""

import cProfile
import dataclasses
import hashlib
import pstats

import numpy as np
import pytest
from conftest import dyadic_block_weights, fix_tile_sums, walk_layers

from repmlp.block import RepMLPConfig, forward_train, random_train_weights
from repmlp.checkpoint import load_block_checkpoint, save_infer_checkpoint
from repmlp.models import MODEL_BUILDERS
from repmlp.reparam import (
    absorb_bn_into_fc1,
    conv_to_fc,
    convert_block,
    forward_infer,
    fuse_bn_into_conv,
)
from repmlp.tensor import (
    BnParams,
    ConvSpec,
    FcSpec,
    ShapeError,
    batchnorm_inference,
    conv2d,
    grouped_fc,
)
from repmlp.verify import _PART_MULTIPLIERS, build_grid, check_cell, format_config, parse_config

EPS = 1e-5


def bn_of(mean, var, gamma, beta):
    as_arr = lambda v: np.asarray(v, dtype=np.float64)
    return BnParams(as_arr(mean), as_arr(var), as_arr(gamma), as_arr(beta), eps=EPS)


def test_fuse_bn_into_conv_scalar_oracle():
    # std = sqrt((4 - eps) + eps) = 2, scale = gamma/std = 1:
    # kernel unchanged, bias = beta - mean * scale = 2
    conv = ConvSpec(np.full((1, 1, 1, 1), 5.0), None, (0, 0), 1)
    bn = bn_of([1.0], [4.0 - EPS], [2.0], [3.0])
    fused = fuse_bn_into_conv(conv, bn)
    np.testing.assert_allclose(fused.kernel, [[[[5.0]]]], atol=1e-12)
    np.testing.assert_allclose(fused.bias, [2.0], atol=1e-12)


def test_fuse_bn_into_conv_identity_bn_is_noop():
    rng = np.random.default_rng(0)
    conv = ConvSpec(rng.normal(size=(3, 2, 3, 3)), None, (1, 1), 1)
    bn = bn_of(np.zeros(3), np.full(3, 1.0 - EPS), np.ones(3), np.zeros(3))
    fused = fuse_bn_into_conv(conv, bn)
    np.testing.assert_allclose(fused.kernel, conv.kernel, atol=1e-15)
    np.testing.assert_allclose(fused.bias, np.zeros(3), atol=1e-15)


def test_fuse_bn_into_conv_composite_forward():
    rng = np.random.default_rng(1)
    for it in range(25):
        g = int(rng.choice([1, 2]))
        c, o, k = 2 * g, 4 * g, int(rng.choice([1, 3]))
        conv = ConvSpec(rng.normal(size=(o, c // g, k, k)), None, (k // 2, k // 2), g,
                        1 + it % 2)
        bn = bn_of(rng.normal(size=o), rng.uniform(0.5, 1.5, o),
                   rng.normal(size=o), rng.normal(size=o))
        x = rng.normal(size=(2, c, 5, 5))
        want = batchnorm_inference(conv2d(x, conv), bn)
        got = conv2d(x, fuse_bn_into_conv(conv, bn))
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


def test_fuse_bn_into_conv_rejects_biased_conv():
    bn = bn_of([0.0], [1.0], [1.0], [0.0])
    for spec in (ConvSpec(np.ones((1, 1, 1, 1)), np.zeros(1), (0, 0), 1),
                 FcSpec(np.ones((1, 1)), np.zeros(1), 1)):
        with pytest.raises(ShapeError):
            fuse_bn_into_conv(spec, bn)


def test_fuse_bn_into_conv_fc_composite_forward():
    # an FC is a 1x1 conv to the fold: rows scale, groups carry over
    rng = np.random.default_rng(2)
    for _ in range(25):
        g = int(rng.choice([1, 2, 4]))
        p, q = 8, 4 * g
        fc = FcSpec(rng.normal(size=(q, p // g)), None, g)
        bn = bn_of(rng.normal(size=q), rng.uniform(0.5, 1.5, q),
                   rng.normal(size=q), rng.normal(size=q))
        v = rng.normal(size=(3, p))
        raw = grouped_fc(v, fc).reshape(3, q, 1, 1)
        want = batchnorm_inference(raw, bn).reshape(3, q)
        fused = fuse_bn_into_conv(fc, bn)
        assert isinstance(fused, FcSpec) and fused.groups == g
        got = grouped_fc(v, fused)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


def test_absorb_bn_into_fc1_scalar_oracle():
    # scale = 2/2 = 1, shift = 3 - 1 = 2, bias gains kernel @ shift = 8
    bn = bn_of([1.0], [4.0 - EPS], [2.0], [3.0])
    fc1 = FcSpec(np.array([[4.0]]), np.array([0.0]), 1)
    folded = absorb_bn_into_fc1(bn, fc1)
    np.testing.assert_allclose(folded.kernel, [[4.0]], atol=1e-12)
    np.testing.assert_allclose(folded.bias, [8.0], atol=1e-12)


def test_absorb_bn_into_fc1_composite_forward():
    rng = np.random.default_rng(3)
    c, d = 6, 4
    for _ in range(15):
        bn = bn_of(rng.normal(size=c), rng.uniform(0.5, 1.5, c),
                   rng.normal(size=c), rng.normal(size=c))
        fc1 = FcSpec(rng.normal(size=(d, c)), rng.normal(size=d), 1)
        pooled = rng.normal(size=(5, c, 1, 1))
        want = grouped_fc(batchnorm_inference(pooled, bn).reshape(5, c), fc1)
        got = grouped_fc(pooled.reshape(5, c), absorb_bn_into_fc1(bn, fc1))
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
    # the FC reads one input per BN channel; a replicated input is refused
    with pytest.raises(ShapeError):
        absorb_bn_into_fc1(bn, FcSpec(rng.normal(size=(d, 2 * c)), rng.normal(size=d), 1))


def test_conv_to_fc_k1_is_scaled_identity():
    conv = ConvSpec(np.full((1, 1, 1, 1), 2.5), None, (0, 0), 1)
    fc = conv_to_fc(conv, 1, 3, 4)
    np.testing.assert_array_equal(fc.kernel, 2.5 * np.eye(12))
    assert fc.bias is None


def test_conv_to_fc_rejects_stride():
    # a stride-2 conv is not resolution preserving; it must not fold
    conv = ConvSpec(np.ones((1, 1, 3, 3)), None, (1, 1), 1, 2)
    with pytest.raises(ShapeError):
        conv_to_fc(conv, 1, 4, 4)


def test_conv_to_fc_refuses_kernel_larger_than_tile():
    # a block refuses a branch kernel wider than its tile, and conv_to_fc is
    # the fold of a one-branch block: a 3x3 conv on a 2x2 tile does not fold
    conv = ConvSpec(np.ones((1, 1, 3, 3)), None, (1, 1), 1)
    with pytest.raises(ShapeError, match="exceeds tile size"):
        conv_to_fc(conv, 1, 2, 2)
    with pytest.raises(ShapeError, match="exceeds tile size"):
        conv_to_fc(conv, 1, 2, 5)


def test_conv_to_fc_all_ones_3x3_window_membership():
    # all-ones 3x3 conv on a 3x3 tile: kernel entry (out pixel, in pixel) is 1
    # exactly when the pixels are within Chebyshev distance 1, else 0
    conv = ConvSpec(np.ones((1, 1, 3, 3)), None, (1, 1), 1)
    fc = conv_to_fc(conv, 1, 3, 3)
    want = np.zeros((9, 9))
    for oi in range(3):
        for oj in range(3):
            for ii in range(3):
                for ij in range(3):
                    if abs(oi - ii) <= 1 and abs(oj - ij) <= 1:
                        want[oi * 3 + oj, ii * 3 + ij] = 1.0
    np.testing.assert_array_equal(fc.kernel, want)


def probe_stack_kernel(conv, in_channels, part_h, part_w):
    """Literal construction: convolve one probe image per within-group input
    position (an identity replicated once per group, reshaped to tiles) and
    stack the flattened responses as matrix columns."""
    g = conv.groups
    per_group = in_channels * part_h * part_w // g
    eye = np.eye(per_group, dtype=conv.kernel.dtype)
    basis = np.tile(eye, (1, g)).reshape(per_group, in_channels, part_h, part_w)
    resp = conv2d(basis, ConvSpec(conv.kernel, None, conv.padding, g))
    return resp.reshape(per_group, conv.out_channels * part_h * part_w).T


def test_conv_to_fc_equals_probe_stack():
    # direct placement must reproduce the probe construction entry for entry
    rng = np.random.default_rng(11)
    cases = [
        (1, 1, 1, 3, 3, 3),   # kernel as large as the tile
        (2, 2, 1, 3, 4, 4),
        (4, 6, 2, 3, 4, 5),
        (4, 4, 4, 5, 5, 7),   # kernel as tall as the tile
        (6, 4, 2, 1, 7, 7),
        (3, 3, 3, 7, 8, 7),   # kernel as wide as the tile
        (64, 64, 8, 5, 7, 7),  # the 5x5 branch of repmlp-res50's c3 block
    ]
    for c, o, g, k, h, w in cases:
        conv = ConvSpec(rng.normal(size=(o, c // g, k, k)), None,
                        (k // 2, k // 2), g)
        fc = conv_to_fc(conv, c, h, w)
        assert np.array_equal(fc.kernel, probe_stack_kernel(conv, c, h, w))


def conv_to_fc_scatter(kernel, groups, in_channels, part_h, part_w):
    """The FC kernel placed one kernel tap at a time: for tap (ki, kj), every
    output position it reaches inside the tile is written with one fancy
    index."""
    o, cg, kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    grid = np.zeros((o, part_h, part_w, cg, part_h, part_w), dtype=kernel.dtype)
    for ki in range(kh):
        rows = np.arange(max(0, ph - ki), min(part_h, part_h + ph - ki))
        for kj in range(kw):
            cols = np.arange(max(0, pw - kj), min(part_w, part_w + pw - kj))
            if rows.size and cols.size:
                grid[:, rows[:, None], cols[None, :], :,
                     (rows + ki - ph)[:, None],
                     (cols + kj - pw)[None, :]] = kernel[:, :, ki, kj]
    return grid.reshape(o * part_h * part_w, in_channels // groups * part_h * part_w)


def test_conv_to_fc_bytes_equal_tap_scatter_oracle():
    # signed zeros, square kernels up to the tile size, non-square tiles
    rng = np.random.default_rng(21)
    for dtype in (np.float32, np.float64):
        for _ in range(60):
            g = int(rng.choice([1, 2, 3]))
            c, o = g * int(rng.integers(1, 4)), g * int(rng.integers(1, 4))
            h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            k = int(rng.choice([k for k in (1, 3, 5, 7) if k <= min(h, w)]))
            kernel = rng.uniform(-1, 1, (o, c // g, k, k)).astype(dtype)
            kernel[rng.random(kernel.shape) < 0.2] = 0.0
            kernel[rng.random(kernel.shape) < 0.2] = -0.0
            conv = ConvSpec(kernel, None, (k // 2, k // 2), g)
            got = conv_to_fc(conv, c, h, w).kernel
            want = conv_to_fc_scatter(kernel, g, c, h, w)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), (c, o, g, k, h, w)


def test_conv_to_fc_columns_are_impulse_responses():
    rng = np.random.default_rng(4)
    c, o, g, k, h, w = 4, 6, 2, 3, 4, 5
    conv = ConvSpec(rng.normal(size=(o, c // g, k, k)), None, (1, 1), g)
    fc = conv_to_fc(conv, c, h, w)
    assert fc.kernel.shape == (o * h * w, c * h * w // g)
    # one-hot input in group 0: flat response must equal the kernel column
    for col in rng.choice(c * h * w // g, size=5, replace=False):
        x = np.zeros((1, c, h, w))
        x.reshape(-1)[col] = 1.0   # group 0 occupies the first C/g channels
        resp = conv2d(x, conv).reshape(-1)
        og = o // g
        np.testing.assert_array_equal(resp[:og * h * w],
                                      fc.kernel[:og * h * w, col])


def test_conv_to_fc_bias_replicated_per_pixel():
    conv = ConvSpec(np.zeros((2, 1, 1, 1)), np.array([3.0, -1.0]), (0, 0), 1)
    fc = conv_to_fc(conv, 1, 2, 2)
    np.testing.assert_array_equal(fc.bias, [3, 3, 3, 3, -1, -1, -1, -1])


def test_conv_to_fc_matches_direct_conv():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = int(rng.choice([1, 2]))
        c, o = 2 * g, 2 * g
        k = int(rng.choice([1, 3]))
        h, w = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        conv = ConvSpec(rng.normal(size=(o, c // g, k, k)),
                        rng.normal(size=o), (k // 2, k // 2), g)
        fc = conv_to_fc(conv, c, h, w)
        x = rng.normal(size=(3, c, h, w))
        want = conv2d(x, conv).reshape(3, -1)
        got = grouped_fc(x.reshape(3, -1), fc)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


def test_conv_to_fc_preconditions():
    with pytest.raises(ShapeError):   # padding must preserve resolution
        conv_to_fc(ConvSpec(np.ones((1, 1, 3, 3)), None, (0, 0), 1), 1, 4, 4)
    with pytest.raises(ShapeError):   # channel mismatch
        conv_to_fc(ConvSpec(np.ones((1, 2, 1, 1)), None, (0, 0), 1), 1, 3, 3)
    with pytest.raises(ShapeError, match="square"):   # a block branch is square
        conv_to_fc(ConvSpec(np.ones((1, 1, 1, 3)), None, (0, 1), 1), 1, 3, 3)


def test_convert_block_identity_bns_keep_fc3():
    cfg = RepMLPConfig(2, 2, 3, 3, 3, 3)
    rng = np.random.default_rng(6)
    kernel = rng.normal(size=(18, 18))
    fc3 = FcSpec(kernel, None, 1)
    bn = BnParams(np.zeros(18), np.full(18, 1.0 - EPS), np.ones(18), np.zeros(18), EPS)
    from repmlp.block import RepMLPTrainWeights
    out = convert_block(cfg, RepMLPTrainWeights(fc3=fc3, fc3_bn=bn))
    np.testing.assert_allclose(out.fc3.kernel, kernel, atol=1e-14)
    np.testing.assert_allclose(out.fc3.bias, np.zeros(18), atol=1e-14)
    assert out.fc1 is None and out.fc2 is None


def test_convert_block_k1_identity_branch_adds_identity():
    from repmlp.block import RepMLPTrainWeights
    cfg = RepMLPConfig(2, 2, 3, 3, 3, 3, branch_kernels=(1,))
    fc3 = FcSpec(np.zeros((18, 18)), None, 1)
    id_bn = lambda n: BnParams(np.zeros(n), np.full(n, 1.0 - EPS),
                               np.ones(n), np.zeros(n), EPS)
    conv = ConvSpec(np.eye(2).reshape(2, 2, 1, 1), None, (0, 0), 1)
    out = convert_block(cfg, RepMLPTrainWeights(
        fc3=fc3, fc3_bn=id_bn(18), branches=((conv, id_bn(2)),)))
    np.testing.assert_allclose(out.fc3.kernel, np.eye(18), atol=1e-12)


def test_convert_block_leaves_inputs_untouched_and_unshared():
    cfg = RepMLPConfig(4, 4, 10, 12, 5, 6, groups=2, branch_kernels=(1, 3, 5))
    for dtype in (np.float32, np.float64):
        w = random_train_weights(cfg, np.random.default_rng(3), dtype)
        arrays = [w.fc3.kernel, w.fc1.kernel, w.fc1.bias, w.fc2.kernel, w.fc2.bias]
        for bn in [w.fc3_bn, w.gp_bn] + [bn for _, bn in w.branches]:
            arrays += [bn.mean, bn.var, bn.gamma, bn.beta]
        arrays += [conv.kernel for conv, _ in w.branches]
        before = [a.tobytes() for a in arrays]
        fc3 = convert_block(cfg, w).fc3
        assert [a.tobytes() for a in arrays] == before
        for a in arrays:
            assert not np.shares_memory(fc3.kernel, a)
            assert not np.shares_memory(fc3.bias, a)


def sequential_grid_sum(cfg, w):
    """fc3 as a fold that builds every grid: the BN-folded fc3, then each
    BN-fused branch's zero-filled tap-scatter grid added in ascending kernel
    order."""
    fused = fuse_bn_into_conv(w.fc3, w.fc3_bn)
    kernel, bias = fused.kernel.copy(), fused.bias.copy()
    for conv, bn in w.branches:
        branch = fuse_bn_into_conv(conv, bn)
        kernel += conv_to_fc_scatter(branch.kernel, cfg.groups, cfg.in_channels,
                                     cfg.part_h, cfg.part_w)
        bias += np.repeat(branch.bias, cfg.part_h * cfg.part_w)
    return kernel, bias


# fc3 and branch kernels with planted +0.0 and -0.0 entries: one tile and
# several, kernels smaller than and as large as the tile, with and without a 1x1
SIGNED_ZERO_CONFIGS = (
    RepMLPConfig(2, 2, 6, 4, 3, 2, branch_kernels=(1,)),
    RepMLPConfig(4, 4, 12, 10, 6, 5, groups=2, branch_kernels=(3, 5)),
    RepMLPConfig(3, 6, 7, 5, 7, 5, groups=3, branch_kernels=(1, 3, 5)),
    RepMLPConfig(6, 3, 8, 14, 4, 7, groups=3, branch_kernels=(1, 3)),
    RepMLPConfig(2, 4, 5, 9, 5, 9, groups=1, branch_kernels=(3, 5)),
    RepMLPConfig(4, 2, 8, 8, 8, 8, groups=2, branch_kernels=(1, 3, 5, 7)),
)


def signed_zero_weights(cfg, rng, dtype):
    w = random_train_weights(cfg, rng, dtype)
    for kernel in [w.fc3.kernel] + [conv.kernel for conv, _ in w.branches]:
        flat = kernel.reshape(-1)
        flat[rng.random(flat.size) < 0.3] = 0.0
        flat[rng.random(flat.size) < 0.3] = -0.0
    return w


def test_convert_block_bytes_equal_sequential_grid_sum():
    # convert_block adds each branch's window view into fc3 in place; the
    # bytes must be those of adding full zero-filled grids one after another,
    # signed zeros included: an fc3 -0.0 outside a branch's window takes that
    # branch's +0.0 and comes out +0.0
    rng = np.random.default_rng(41)
    for dtype in (np.float32, np.float64):
        for cfg in SIGNED_ZERO_CONFIGS:
            w = signed_zero_weights(cfg, rng, dtype)
            want_kernel, want_bias = sequential_grid_sum(cfg, w)
            fc3 = convert_block(cfg, w).fc3
            assert fc3.kernel.dtype == want_kernel.dtype
            assert fc3.kernel.shape == want_kernel.shape
            assert fc3.kernel.tobytes() == want_kernel.tobytes(), (dtype, cfg)
            assert fc3.bias.tobytes() == want_bias.tobytes(), (dtype, cfg)


def test_fold_slabs_give_the_bytes_of_one_slab(monkeypatch):
    # the fold adds the branches into fc3 one slab of output channels at a
    # time, through one plane buffer of at most SLAB_BYTES that each slab
    # zeroes and each branch overwrites; one channel per slab and a ragged
    # split must give the bytes of the default slabs and of the sequential
    # grid sum. The last config spans several slabs, the last one ragged, at
    # the default SLAB_BYTES. The channels of each slab's window view are
    # counted, so a split that did not happen cannot pass
    from repmlp import reparam, tensor
    channels = []
    window_view = reparam._window_view

    def counted_view(planes, part_h):
        channels.append(planes.shape[0])
        return window_view(planes, part_h)

    monkeypatch.setattr(reparam, "_window_view", counted_view)
    configs = SIGNED_ZERO_CONFIGS + (RepMLPConfig(16, 20, 8, 8, 8, 8, branch_kernels=(1, 3, 5, 7)),)
    default_bytes = tensor.SLAB_BYTES
    rng = np.random.default_rng(43)
    for dtype in (np.float32, np.float64):
        for cfg in configs:
            w = signed_zero_weights(cfg, rng, dtype)
            want_kernel, want_bias = sequential_grid_sum(cfg, w)
            o = cfg.out_channels
            per_channel = (cfg.in_channels // cfg.groups * cfg.part_w * (2 * cfg.part_h - 1)
                           * cfg.part_w * np.dtype(dtype).itemsize)
            default = max(1, default_bytes // per_channel)
            if cfg is configs[-1]:
                assert default < o and o % default, (dtype, default)
            for slab_bytes, slab in ((default_bytes, default), (per_channel - 1, 1), (per_channel, 1),
                                     ((o // 2 + 1) * per_channel + per_channel // 2, o // 2 + 1)):
                monkeypatch.setattr(tensor, "SLAB_BYTES", slab_bytes)
                channels.clear()
                fc3 = convert_block(cfg, w).fc3
                assert channels == [min(slab, o - o0) for o0 in range(0, o, slab)]
                assert fc3.kernel.tobytes() == want_kernel.tobytes(), (dtype, cfg, slab)
                assert fc3.bias.tobytes() == want_bias.tobytes(), (dtype, cfg, slab)


def test_convert_block_signed_zero_diagonal_hand_case():
    # fc3 and every branch tap are -0.0: a diagonal entry sums -0.0 + -0.0
    # + -0.0 and stays -0.0; an entry outside the 1x1 window gets that
    # branch's +0.0, and outside both windows both +0.0s, so it is +0.0
    from repmlp.block import RepMLPTrainWeights
    cfg = RepMLPConfig(1, 1, 3, 3, 3, 3, branch_kernels=(1, 3))
    id_bn = lambda n: BnParams(np.ones(n), np.ones(n), np.ones(n), np.ones(n), EPS)
    fc3 = FcSpec(np.full((9, 9), -0.0), None, 1)
    branches = tuple((ConvSpec(np.full((1, 1, k, k), -0.0), None, (k // 2, k // 2), 1),
                      id_bn(1)) for k in (1, 3))
    kernel = convert_block(cfg, RepMLPTrainWeights(fc3, id_bn(9), branches)).fc3.kernel
    assert np.all(np.signbit(np.diag(kernel)))
    grid = kernel.reshape(3, 3, 3, 3)
    assert grid[0, 0, 0, 1] == 0.0 and not np.signbit(grid[0, 0, 0, 1])   # in the 3x3 only
    assert grid[0, 0, 2, 2] == 0.0 and not np.signbit(grid[0, 0, 2, 2])   # in neither window
    assert np.count_nonzero(np.signbit(kernel)) == 9


def _arrays(obj):
    """Every array inside nested weight dataclasses, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


def test_cifar_init_memory_bounded():
    # each draw fills its float32 array in chunks; a whole-array float64 draw
    # then astype peaked at 63.8 MiB over the arrays init returns
    import tracemalloc

    from repmlp.models import build_pure_mlp_cifar, init_model_weights

    model = build_pure_mlp_cifar()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        weights = init_model_weights(model, np.random.default_rng(5), np.float32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start - sum(a.nbytes for a in _arrays(weights))) / 2 ** 20 < 1


def test_cifar_convert_memory_bounded():
    # convert adds each branch into fc3 through a strided view of a padded
    # kernel; a full (O, h, w, C/g, h, w) grid per branch peaked at 67.6 MB
    # over the arrays convert returns
    import tracemalloc

    from repmlp.models import build_pure_mlp_cifar, convert_model_weights, init_model_weights

    model = build_pure_mlp_cifar()
    weights = init_model_weights(model, np.random.default_rng(5), np.float32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        deploy = convert_model_weights(model, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    old = {id(a) for a in _arrays(weights)}
    new = {id(a): a.nbytes for a in _arrays(deploy) if id(a) not in old}
    assert (peak - start - sum(new.values())) / 2 ** 20 < 8


def test_equivalence_spot_checks_both_dtypes():
    cases = [
        RepMLPConfig(4, 4, 8, 8, 4, 4, groups=2, branch_kernels=(1, 3)),
        RepMLPConfig(8, 4, 14, 14, 7, 7, groups=4, branch_kernels=(1, 3, 5, 7),
                     gp_internal_dim=6),
        RepMLPConfig(2, 6, 6, 6, 6, 6, branch_kernels=(5,)),
    ]
    for dtype, tol in ((np.float32, 1e-4), (np.float64, 1e-9)):
        rng = np.random.default_rng(7)
        for cfg in cases:
            w = random_train_weights(cfg, rng, dtype)
            x = rng.uniform(-1, 1, (2, cfg.in_channels, cfg.height, cfg.width)).astype(dtype)
            diff = np.abs(forward_train(x, cfg, w)
                          - forward_infer(x, cfg, convert_block(cfg, w))).max()
            assert diff <= tol, (cfg, dtype, diff)


def test_fc_kernel_addition_matches_summed_outputs():
    # folding relies on FC(x, W1 + W2) = FC(x, W1) + FC(x, W2)
    rng = np.random.default_rng(8)
    v = rng.normal(size=(4, 12))
    k1 = rng.normal(size=(6, 6))
    k2 = rng.normal(size=(6, 6))
    a = grouped_fc(v, FcSpec(k1, None, 2))
    b = grouped_fc(v, FcSpec(k2, None, 2))
    both = grouped_fc(v, FcSpec(k1 + k2, None, 2))
    np.testing.assert_allclose(a + b, both, atol=1e-12, rtol=0)


def test_conversion_superposition_exact_scale():
    rng = np.random.default_rng(9)
    f1 = rng.normal(size=(4, 2, 3, 3))
    f2 = rng.normal(size=(4, 2, 3, 3))
    a, b = 0.3, -1.7
    mk = lambda k: conv_to_fc(ConvSpec(k, None, (1, 1), 2), 4, 5, 5).kernel
    np.testing.assert_allclose(mk(a * f1 + b * f2), a * mk(f1) + b * mk(f2),
                               atol=1e-10, rtol=0)


def test_converted_weights_store_fewer_numbers():
    def numel_train(w):
        total = w.fc3.kernel.size
        total += sum(a.size for a in (w.fc3_bn.mean, w.fc3_bn.var,
                                      w.fc3_bn.gamma, w.fc3_bn.beta))
        for conv, bn in w.branches:
            total += conv.kernel.size
            total += sum(a.size for a in (bn.mean, bn.var, bn.gamma, bn.beta))
        for fc in (w.fc1, w.fc2):
            if fc is not None:
                total += fc.kernel.size + fc.bias.size
        if w.gp_bn is not None:
            total += 4 * w.gp_bn.num_features
        return total

    def numel_infer(w):
        total = w.fc3.kernel.size + w.fc3.bias.size
        for fc in (w.fc1, w.fc2):
            if fc is not None:
                total += fc.kernel.size + fc.bias.size
        return total

    rng = np.random.default_rng(11)
    for cfg in (RepMLPConfig(4, 4, 8, 8, 4, 4, branch_kernels=(1, 3)),
                RepMLPConfig(2, 2, 4, 4, 4, 4)):
        w = random_train_weights(cfg, rng, np.float64)
        assert numel_infer(convert_block(cfg, w)) < numel_train(w)


def test_conversion_reload_replays_bit_identical(tmp_path):
    cfg = RepMLPConfig(4, 4, 8, 8, 4, 4, groups=2, branch_kernels=(1, 3),
                       gp_internal_dim=4)
    rng = np.random.default_rng(12)
    w = random_train_weights(cfg, rng, np.float32)
    infer = convert_block(cfg, w)
    path = tmp_path / "folded.rmlp"
    save_infer_checkpoint(str(path), cfg, infer)
    _, form, loaded = load_block_checkpoint(str(path))
    assert form == "infer"
    x = rng.uniform(-1, 1, (3, 4, 8, 8)).astype(np.float32)
    first = forward_infer(x, cfg, loaded)
    second = forward_infer(x, cfg, loaded)
    assert np.array_equal(first, second)
    # the serialized form itself is reproducible byte for byte
    again = tmp_path / "folded2.rmlp"
    save_infer_checkpoint(str(again), cfg, loaded)
    assert path.read_bytes() == again.read_bytes()
    # and matches the in-memory conversion exactly (f32 payloads)
    assert np.array_equal(first, forward_infer(x, cfg, infer))


def test_passing_checks_format_no_messages():
    # a check that passes must not build its error text: numpy's dtype
    # __str__ is what an eagerly formatted f"{arr.dtype}" message calls
    cfg = max(build_grid("quick"), key=lambda c: (c.has_global_path, len(c.branch_kernels)))
    assert cfg.has_global_path and len(cfg.branch_kernels) >= 3
    profile = cProfile.Profile()
    result = profile.runcall(check_cell, cfg, 1, np.float32, 1e-4)
    assert result.ok
    calls = [key for key in pstats.Stats(profile).stats
             if key[0].endswith("_dtype.py") and key[2] == "__str__"]
    assert calls == []


def test_quick_grid_covers_every_partition_multiplier():
    # the quick grid samples the full one with a stride; a stride sharing a
    # factor with the nine multipliers (27 did) sees only some of them, and
    # with (1, 1) alone no cell runs the global path
    quick = build_grid("quick")
    seen = {(c.height // c.part_h, c.width // c.part_w) for c in quick}
    assert seen == set(_PART_MULTIPLIERS)
    assert sum(c.has_global_path for c in quick) >= len(quick) // 2
    assert len(quick) == 64


FRAC_BITS = 20


def exact_cell(cfg, seed, batch=2):
    """f64 block weights and input on which both forms are exact.

    Every kernel, bias, BN mean, gamma and beta, and every input value is
    j/8 for an integer j in [-4, 4], so |value| <= u = 1/2. Each BN has
    var = 4^k - 2^-17 (k = 0 or 1) and eps = 2^-17: var + eps is exactly 1
    or 4, so std is 1 or 2, the BN scale gamma/std is a multiple of 2^-4
    with |scale| <= 1/2, and the shift beta - mean * scale a multiple of
    2^-7 with |shift| <= 3/4 (see conftest.dyadic_bn). One pixel per
    (image, channel, tile) then moves by less than h*w/8 so that the tile
    sum is a multiple of h*w/8: every tile mean, the global path's average
    pool, is a multiple of 2^-3 and exact, and no input value exceeds
    X = 1/2 + (h*w - 1)/8 in magnitude.

    Bit budget. Along the deepest path of either form, the powers of two
    that every value is a multiple of are: input and pooled tile 2^-3; BN
    2^-7; fc1 (kernel 2^-3) 2^-10, and folded fc1 (kernel 2^-7 times the
    pooled 2^-3, bias 2^-10) the same; fc2 2^-13; the tile map (input plus
    the global path) 2^-13; a branch conv or fc3 (kernel 2^-3) 2^-16; their
    BN, and the folded fc3 (kernel 2^-7, bias 2^-7), 2^-20 = 2^-FRAC_BITS.
    A multiple of 2^-20 below 2^(53 - 20) in magnitude is an f64 value, so
    when magnitude_bound(cfg) is below 2^33 no product or partial sum of
    either form rounds: the summation order (BLAS kernel, GEMM chunks and
    tiles) cannot matter, and both forms give the exact result, bit for
    bit, on any host.
    """
    rng = np.random.default_rng(seed)
    random_train_weights(cfg, rng, np.float64)  # the pinned digests draw after it
    w = dyadic_block_weights(cfg, rng)
    ints = rng.integers(-4, 5, (batch, cfg.in_channels, cfg.height, cfg.width))
    return w, fix_tile_sums(ints, cfg)


def magnitude_bound(cfg):
    """An upper bound on |value| of every product, partial sum and output of
    both forms on exact_cell draws: a dot product's partial sums are
    bounded by the sum of its |products| plus |bias|."""
    u = 0.5
    area = cfg.part_h * cfg.part_w
    x = u + (area - 1) / 8
    tile = x
    bounds = [area * x]  # a tile sum, before the pool divides it
    if cfg.has_global_path:
        hidden = cfg.in_channels * u * (u * x + 0.75) + u
        tile = x + cfg.gp_hidden * u * hidden + u
        bounds += [hidden, tile]
    fan_in = cfg.fc_in_dim // cfg.groups
    terms = 1 + len(cfg.branch_kernels)
    # fc3 (or a branch conv, whose fan-in is no larger) before its BN;
    # after, the sum of every path, which bounds the folded fc3 too
    bounds += [fan_in * u * tile, terms * (fan_in * u * u * tile + 0.75)]
    return max(bounds)


def bundled_block_configs():
    """Distinct block configs of every MODEL_BUILDERS model at its default size."""
    found = {}
    for build in MODEL_BUILDERS.values():
        for layer in walk_layers(build().layers):
            if layer.kind == "repmlp_train":
                found.setdefault(layer.attr("cfg"))
    return list(found)


def test_fold_is_exact_on_dyadic_draws():
    # no tolerance: a fold defect far below f32 rounding noise fails here
    bundled = bundled_block_configs()
    assert len(bundled) == 7
    for cfg in bundled + list(build_grid("quick")):
        bound = magnitude_bound(cfg)
        assert bound < 2.0 ** (53 - FRAC_BITS), format_config(cfg)
        w, x = exact_cell(cfg, 1)
        train = forward_train(x, cfg, w)
        infer = forward_infer(x, cfg, convert_block(cfg, w))
        assert np.abs(train).max() <= bound, format_config(cfg)
        assert np.array_equal(train, infer), format_config(cfg)


# sha256 of the f64 outputs of exact_cell(cfg, 1) for the repmlp-res50 c3
# block and the first pure-mlp-cifar block. No operation rounds on these
# draws, so unlike every other byte pin these hold on any host and BLAS
# build. exact_cell draws after random_train_weights, so they also pin how
# much of the stream that draw takes.
EXACT_OUTPUT_SHA256 = {
    "C=64,O=64,H=28,W=28,h=7,w=7,g=8,ks=1-3-5,gp=16384":
        "8c1e150891e33f4503ae86185fd275167e9cc4f384b5fe0799c6880738a89411",
    "C=16,O=16,H=32,W=32,h=8,w=8,g=2,ks=1-3-5-7,gp=832":
        "f73f8e65ce9e2d71eb84d51c9ad45565effbd0dbcb7dfec56a85fc214712a5d3",
}


def test_exact_outputs_match_pinned_digests():
    for text, digest in EXACT_OUTPUT_SHA256.items():
        cfg = parse_config(text)
        w, x = exact_cell(cfg, 1)
        for y in (forward_train(x, cfg, w), forward_infer(x, cfg, convert_block(cfg, w))):
            assert hashlib.sha256(y.tobytes()).hexdigest() == digest, text


def spec_block(x, cfg, w):
    """The training-form block as the paper writes it (arXiv 2105.01883,
    §3), in image coordinates, with no library kernel: no partition,
    conv2d, grouped_fc, _gemm or batchnorm_inference. x[n, c, a*h + i,
    b*w + j] is pixel (i, j) of tile (a, b). Each BN is gamma * (v - mean)
    / sqrt(var + eps) + beta, its features broadcast as `shape` gives."""
    n, c = x.shape[:2]
    o, g, h, wd = cfg.out_channels, cfg.groups, cfg.part_h, cfg.part_w
    ph, pw = cfg.parts_h, cfg.parts_w

    def bn(v, p, shape):
        std = np.sqrt(p.var + p.eps)
        return ((v - p.mean.reshape(shape)) / std.reshape(shape) * p.gamma.reshape(shape)
                + p.beta.reshape(shape))

    tiles = x.reshape(n, c, ph, h, pw, wd)
    if cfg.has_global_path:
        # each tile's mean, BN over channels, fc1, ReLU, fc2, added onto
        # every pixel of its tile
        pooled = bn(np.einsum("ncaibj->ncab", tiles) / (h * wd), w.gp_bn, (1, c, 1, 1))
        hidden = np.einsum("dc,ncab->ndab", w.fc1.kernel, pooled)
        hidden = np.maximum(hidden + w.fc1.bias.reshape(1, -1, 1, 1), 0.0)
        back = np.einsum("cd,ndab->ncab", w.fc2.kernel, hidden)
        tiles = tiles + (back + w.fc2.bias.reshape(1, c, 1, 1))[:, :, :, None, :, None]

    # fc3: output (o, y, z) of a tile reads inputs (q, i, j) of its group
    grouped = tiles.reshape(n, g, c // g, ph, h, pw, wd)
    kernel = w.fc3.kernel.reshape(g, o // g, h, wd, c // g, h, wd)
    out = np.einsum("gpyzqij,ngqaibj->ngpaybz", kernel, grouped, optimize=True)
    out = out.reshape(n, o, ph, h, pw, wd)
    out = bn(out, w.fc3_bn, (1, o, 1, h, 1, wd))

    # each branch: a k x k conv of every tile, zero-padded at the tile's
    # edge, one tap at a time, then its BN
    for conv, conv_bn in w.branches:
        k = conv.kernel.shape[-1]
        r = k // 2
        padded = np.zeros((n, g, c // g, ph, h + 2 * r, pw, wd + 2 * r))
        padded[:, :, :, :, r:r + h, :, r:r + wd] = grouped
        taps = conv.kernel.reshape(g, o // g, c // g, k, k)
        branch = np.zeros((n, g, o // g, ph, h, pw, wd))
        for u in range(k):
            for v in range(k):
                branch += np.einsum("gpq,ngqaibj->ngpaibj", taps[:, :, :, u, v],
                                    padded[:, :, :, :, u:u + h, :, v:v + wd])
        out = out + bn(branch.reshape(n, o, ph, h, pw, wd), conv_bn, (1, o, 1, 1, 1, 1))
    return out.reshape(n, o, ph * h, pw * wd)


@pytest.mark.parametrize("text", [
    "C=64,O=64,H=28,W=28,h=7,w=7,g=8,ks=1-3-5,gp=16384",      # repmlp-res50 c3
    "C=128,O=128,H=14,W=14,h=7,w=7,g=8,ks=1-3-5,gp=2048",     # light-res50 c4
    "C=16,O=16,H=32,W=32,h=8,w=8,g=2,ks=1-3-5-7,gp=832",      # pure-mlp-cifar, first
])
def test_train_forward_equals_the_paper_block(text):
    # on exact_cell draws no operation of either side rounds, so a defect in
    # a kernel that both block forms share shows here bit for bit
    cfg = parse_config(text)
    for seed in (1, 2, 3):
        w, x = exact_cell(cfg, seed)
        assert forward_train(x, cfg, w).tobytes() == spec_block(x, cfg, w).tobytes(), seed
