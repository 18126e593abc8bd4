"""Oracles for the reference tensor kernels."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repmlp.tensor import (
    KC,
    TILE,
    BnParams,
    ConvSpec,
    FcSpec,
    ShapeError,
    avg_pool_global,
    batchnorm_inference,
    conv2d,
    grouped_fc,
    inverse_partition,
    partition,
    _gemm,
)


def conv_loops(x, kernel, padding, groups):
    """Plain-loop convolution, deliberately independent of the library."""
    n, c, h, w = x.shape
    o, cg, kh, kw = kernel.shape
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho, wo = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    out = np.zeros((n, o, ho, wo), dtype=np.float64)
    og = o // groups
    for ni in range(n):
        for oi in range(o):
            gi = oi // og
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cg):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[ni, gi * cg + ci, i + u, j + v] * kernel[oi, ci, u, v]
                    out[ni, oi, i, j] = acc
    return out


def gemm(w, cols):
    """The library's tiled GEMM helper, into a fresh array."""
    out = np.empty((w.shape[0], cols.shape[1]), dtype=cols.dtype)
    _gemm(w, cols, out, 1)
    return out


def conv_patches(x, kh, kw, padding, groups, stride):
    """Per group, the (C/g * kh * kw, N * H_out * W_out) patch matrix: rows
    in (channel, tap row, tap column) order, columns in (image, output row,
    output column) order, sampled at the stride."""
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    n, c, ho, wo = win.shape[:4]
    cg = c // groups
    return [win[:, gi * cg:(gi + 1) * cg].transpose(1, 4, 5, 0, 2, 3).reshape(cg * kh * kw, -1)
            for gi in range(groups)], (n, ho, wo)


def test_conv_all_ones_counts_window_overlap():
    # 3x3 ones kernel over a padded 3x3 ones image counts valid taps per pixel
    x = np.ones((1, 1, 3, 3))
    spec = ConvSpec(np.ones((1, 1, 3, 3)), None, (1, 1), 1)
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float64)
    np.testing.assert_array_equal(conv2d(x, spec)[0, 0], expected)


def test_conv_matches_loop_reference():
    # a stride-s conv is the stride-1 loop reference sampled every s pixels
    rng = np.random.default_rng(101)
    cases = [
        # (c, o, g, k, h, w, padding, stride)
        (1, 1, 1, 3, 4, 4, (1, 1), 1),
        (2, 3, 1, 3, 5, 4, (1, 1), 1),
        (4, 2, 2, 1, 4, 6, (0, 0), 1),
        (4, 4, 4, 3, 6, 5, (1, 1), 1),
        (3, 3, 3, 3, 3, 3, (1, 1), 1),
        (2, 4, 2, 5, 6, 6, (2, 2), 1),
        (2, 2, 1, 3, 5, 5, (0, 0), 1),   # valid conv, shrinking output
        (2, 2, 1, 3, 5, 5, (2, 1), 1),   # asymmetric padding
        (3, 4, 1, 7, 12, 11, (3, 3), 2),  # the res50 stem's shape
        (4, 4, 2, 3, 7, 8, (1, 1), 2),
        (2, 3, 1, 1, 7, 7, (0, 0), 2),
        (4, 2, 2, 3, 8, 9, (0, 2), 3),
    ]
    for c, o, g, k, h, w, pad, s in cases:
        x = rng.normal(size=(2, c, h, w))
        kernel = rng.normal(size=(o, c // g, k, k))
        got = conv2d(x, ConvSpec(kernel, None, pad, g, s))
        want = conv_loops(x, kernel, pad, g)[:, :, ::s, ::s]
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


def test_conv_bytes_equal_gemm_on_patch_matrix():
    # conv2d is the tiled GEMM on the patch matrix, one call per group, with
    # the bias added last; grouped_fc over the patch rows is the same GEMM,
    # so it gives the same bytes too. Covers strides, groups, padding, batch
    # sizes, one-pixel outputs, signed zeros and both dtypes
    rng = np.random.default_rng(103)
    cases = [
        # (n, cg, og, g, kh, kw, h, w, padding, stride)
        (1, 3, 2, 1, 3, 3, 6, 7, (1, 1), 1),
        (2, 5, 3, 2, 3, 3, 7, 6, (1, 1), 2),
        (3, 2, 2, 4, 1, 1, 5, 5, (0, 0), 2),
        (1, 7, 4, 1, 7, 7, 11, 11, (3, 3), 2),
        (2, 4, 1, 2, 5, 3, 9, 8, (2, 0), 3),
        (3, 6, 2, 4, 2, 2, 6, 9, (0, 1), 3),
        (2, 1, 3, 1, 3, 3, 5, 5, (0, 0), 1),
        (1, 40, 3, 1, 1, 1, 1, 1, (0, 0), 1),    # one-pixel input and output
        (1, 33, 2, 2, 3, 3, 3, 3, (0, 0), 1),    # valid conv to one pixel
        (3, 40, 2, 1, 1, 1, 2, 2, (0, 0), 2),    # stride to one pixel per image
        (1, 9, 2, 2, 3, 3, 1, 1, (1, 1), 2),     # padded one-pixel input
        (4, 70, 3, 1, 1, 1, 3, 3, (0, 0), 1),    # K over one chunk, M over one tile
        (2, 16, 5, 2, 3, 3, 5, 6, (1, 1), 1),    # K = 144, three chunks
        (24, 8, 4, 2, 5, 5, 8, 8, (2, 2), 1),    # bundled 5x5 branch on 8x8 tiles,
        (24, 8, 4, 2, 7, 7, 8, 8, (3, 3), 1),    # and 7x7: several slabs each
        (2, 5, 3, 1, 1, 1, 9, 8, (0, 0), 2),     # 1x1 stride 2 on a non-square map
        (2, 3, 2, 2, 1, 1, 5, 6, (1, 0), 2),     # padded 1x1 stride 2
        (2, 3, 2, 1, 1, 3, 6, 7, (0, 1), 1),     # one tap row
        (2, 3, 2, 1, 3, 1, 6, 7, (1, 0), 1),     # one tap column
    ]
    for dtype in (np.float32, np.float64):
        for n, cg, og, g, kh, kw, h, w, pad, s in cases:
            x = rng.normal(size=(n, cg * g, h, w)).astype(dtype)
            x[rng.random(x.shape) < 0.2] = -0.0
            kernel = rng.normal(size=(og * g, cg, kh, kw)).astype(dtype)
            kernel[rng.random(kernel.shape) < 0.2] = -0.0
            patches, (_, ho, wo) = conv_patches(x, kh, kw, pad, g, s)
            flat = kernel.reshape(og * g, -1)
            for bias in (None, rng.normal(size=og * g).astype(dtype)):
                got = conv2d(x, ConvSpec(kernel, bias, pad, g, s))
                want = np.concatenate([gemm(flat[gi * og:(gi + 1) * og], patches[gi])
                                       for gi in range(g)])
                if bias is not None:
                    want += bias.reshape(-1, 1)
                want = want.reshape(og * g, n, ho, wo).transpose(1, 0, 2, 3)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.flags.c_contiguous
                assert got.tobytes() == np.ascontiguousarray(want).tobytes(), \
                    (dtype, n, cg, og, g, kh, kw, s)
                rows = np.concatenate([p.T for p in patches], axis=1)
                fc = grouped_fc(rows, FcSpec(flat, bias, g))
                assert fc.reshape(n, ho, wo, -1).transpose(0, 3, 1, 2).tobytes() == got.tobytes()


def test_gemm_sums_kc_chunks_by_fixed_pairwise_tree():
    # the helper's order written out tile by tile: KC-long BLAS products,
    # then a pairwise tree over them (7 chunks: ((0+1)+(2+3)) + ((4+5)+6)).
    # The helper multiplies all whole tiles in one call per chunk, and the
    # reference one separate TILE-wide call per tile, so a column's bytes
    # must not depend on the call's width; a ragged operand is zero-padded
    # to whole tiles, and its padding columns do not touch the rest
    rng = np.random.default_rng(104)
    for dtype in (np.float32, np.float64):
        for k, tree in ((KC, lambda p: p[0]),
                        (2 * KC + 5, lambda p: (p[0] + p[1]) + p[2]),
                        (7 * KC - 3, lambda p: ((p[0] + p[1]) + (p[2] + p[3]))
                         + ((p[4] + p[5]) + p[6]))):
            for tiles in (1, 3):
                w = rng.normal(size=(5, k)).astype(dtype)
                cols = rng.normal(size=(k, tiles * TILE + 7)).astype(dtype)
                got = gemm(w, cols)
                for start in range(0, cols.shape[1], TILE):
                    width = min(TILE, cols.shape[1] - start)
                    tile = np.zeros((k, TILE), dtype=dtype)
                    tile[:, :width] = cols[:, start:start + width]
                    parts = [w[:, k0:k0 + KC] @ tile[k0:k0 + KC] for k0 in range(0, k, KC)]
                    want = tree(parts)[:, :width]
                    assert got[:, start:start + width].tobytes() == want.tobytes(), \
                        (dtype, k, tiles, start)


@pytest.mark.parametrize("op, k", [("fc", 392), ("conv", 2048), ("fc", 16384)],
                         ids=["c3-fc3", "c5-conv", "gp-fc2"])
def test_blocked_sum_within_error_bound(op, k):
    # KC-long BLAS dot products added by a pairwise tree of depth
    # ceil(log2(ceil(K / KC))) err by at most gamma_n |w|^T |x| per element,
    # n = KC + that depth (Blanchard, Higham and Mary 2020; Higham, Accuracy
    # and Stability of Numerical Algorithms, 3.1), against a float64
    # reference that itself errs by at most gamma_K in float64
    rng = np.random.default_rng(k)

    def gamma(n, u):
        return n * u / (1 - n * u)

    if op == "fc":
        rows = 70 if k < 16384 else 8
        v = rng.uniform(0.0, 1.0, (rows, 2 * k)).astype(np.float32)
        kernel = rng.uniform(-0.2, 1.0, (6, k)).astype(np.float32)
        got = grouped_fc(v, FcSpec(kernel, None, 2)).astype(np.float64)
        v64, k64 = v.astype(np.float64), kernel.astype(np.float64)
        want = np.hstack([v64[:, :k] @ k64[:3].T, v64[:, k:] @ k64[3:].T])
        scale = np.hstack([v64[:, :k] @ np.abs(k64[:3]).T, v64[:, k:] @ np.abs(k64[3:]).T])
    else:
        x = rng.uniform(0.0, 1.0, (1, k, 3, 3)).astype(np.float32)
        kernel = rng.uniform(-0.2, 1.0, (4, k, 1, 1)).astype(np.float32)
        got = conv2d(x, ConvSpec(kernel, None, (0, 0), 1)).astype(np.float64)
        x64, k64 = x.astype(np.float64), kernel.astype(np.float64)
        want = conv_loops(x64, k64, (0, 0), 1)
        scale = conv_loops(np.abs(x64), np.abs(k64), (0, 0), 1)
    depth = int(np.ceil(np.log2(-(-k // KC)))) if k > KC else 0
    bound = (gamma(KC + depth, 2.0 ** -24) + gamma(k, 2.0 ** -53)) * scale
    err = np.abs(got - want)
    assert np.all(err <= bound), float(np.max(err / bound))
    assert np.max(err) > 0  # the float32 sums really rounded


def test_conv_group_split_matches_stacked_dense():
    # output group j must read only input channel group j
    rng = np.random.default_rng(33)
    c, o, g, k = 6, 4, 2, 3
    x = rng.normal(size=(3, c, 5, 5))
    kernel = rng.normal(size=(o, c // g, k, k))
    full = conv2d(x, ConvSpec(kernel, None, (1, 1), g))
    for gi in range(g):
        xg = x[:, gi * (c // g):(gi + 1) * (c // g)]
        kg = kernel[gi * (o // g):(gi + 1) * (o // g)]
        part = conv2d(xg, ConvSpec(kg, None, (1, 1), 1))
        np.testing.assert_array_equal(full[:, gi * (o // g):(gi + 1) * (o // g)], part)


def test_conv_bias_is_per_output_channel():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 4, 4))
    kernel = rng.normal(size=(2, 3, 1, 1))
    bias = np.array([10.0, -20.0])
    plain = conv2d(x, ConvSpec(kernel, None, (0, 0), 1))
    with_bias = conv2d(x, ConvSpec(kernel, bias, (0, 0), 1))
    np.testing.assert_array_equal(with_bias, plain + bias.reshape(1, 2, 1, 1))


def test_conv_validation():
    kernel = np.ones((2, 3, 3, 3), dtype=np.float32)
    spec = ConvSpec(kernel, None, (1, 1), 1)
    with pytest.raises(ShapeError):
        conv2d(np.ones((1, 4, 5, 5), dtype=np.float32), spec)  # channel mismatch
    with pytest.raises(ShapeError):
        conv2d(np.ones((4, 5, 5), dtype=np.float32), spec)  # not 4-D
    with pytest.raises(ShapeError):
        conv2d(np.ones((1, 3, 5, 5)), spec)  # f64 input, f32 kernel
    with pytest.raises(ShapeError):
        conv2d(np.ones((1, 3, 2, 2), dtype=np.float32),
               ConvSpec(kernel, None, (0, 0), 1))  # kernel larger than input
    with pytest.raises(ShapeError):
        ConvSpec(np.ones((3, 2, 1, 1)), None, (0, 0), 2)  # 3 outputs, 2 groups
    with pytest.raises(ShapeError):
        ConvSpec(kernel, np.ones(3), (1, 1), 1)  # bias length != out channels
    with pytest.raises(ShapeError):
        ConvSpec(np.ones((2, 3, 3, 3), dtype=np.int64), None, (1, 1), 1)
    for stride in (0, -1, 2.0, "2", True, None):
        with pytest.raises(ShapeError):
            ConvSpec(kernel, None, (1, 1), 1, stride)
    for padding in ((1.5, 1.5), (1, 1.0), (True, True), (1, None), [1, 1], 1, (1, 1, 1)):
        with pytest.raises(ShapeError):
            ConvSpec(kernel, None, padding, 1)
    for groups in (2.0, True, "1", None):
        with pytest.raises(ShapeError):
            ConvSpec(np.ones((2, 3, 3, 3)), None, (1, 1), groups)


def test_grouped_fc_two_group_hand_case():
    v = np.array([[1.0, 2.0, 3.0, 4.0]])
    spec = FcSpec(np.array([[1.0, 1.0], [1.0, 1.0]]), None, 2)
    np.testing.assert_array_equal(grouped_fc(v, spec), [[3.0, 7.0]])


def test_grouped_fc_dense_matches_matmul():
    rng = np.random.default_rng(7)
    v = rng.normal(size=(4, 6))
    kernel = rng.normal(size=(5, 6))
    bias = rng.normal(size=5)
    got = grouped_fc(v, FcSpec(kernel, bias, 1))
    np.testing.assert_allclose(got, v @ kernel.T + bias, atol=1e-12, rtol=0)


def test_grouped_fc_equals_grouped_one_by_one_conv():
    # both make one grouped _gemm call; N = 33 is two whole TILE-column
    # groups plus a ragged tail, and every P / g (320, 160, 80) spans KC chunks
    rng = np.random.default_rng(8)
    p, q = 320, 12
    for dtype in (np.float32, np.float64):
        for n in (1, 3, 33):
            for g in (1, 2, 4):
                v = rng.normal(size=(n, p)).astype(dtype)
                kernel = rng.normal(size=(q, p // g)).astype(dtype)
                bias = rng.normal(size=q).astype(dtype)
                fc = grouped_fc(v, FcSpec(kernel, bias, g))
                conv = conv2d(v.reshape(n, p, 1, 1),
                              ConvSpec(kernel.reshape(q, p // g, 1, 1), bias, (0, 0), g))
                assert np.array_equal(fc, conv.reshape(n, q))


def test_grouped_fc_validation():
    spec = FcSpec(np.ones((2, 2)), None, 2)
    assert (spec.in_dim, spec.out_dim) == (4, 2)
    with pytest.raises(ShapeError):
        grouped_fc(np.ones((1, 3)), spec)  # wrong feature count
    with pytest.raises(ShapeError):
        FcSpec(np.ones((2, 2)), None, 3)  # groups do not divide out_dim
    # a float, bool, str, None or 0 is not a group count
    for groups in (2.0, True, "1", None, 0):
        with pytest.raises(ShapeError):
            FcSpec(np.ones((2, 2)), None, groups)


_F32 = np.ones((2, 3, 3, 3), dtype=np.float32)


@pytest.mark.parametrize("build, message", [
    (lambda: ConvSpec(_F32.astype(np.int64), None, (1, 1), 1),
     "conv kernel must be float32 or float64, got int64"),
    (lambda: grouped_fc(np.ones((1, 2), dtype=np.float16), FcSpec(np.ones((2, 2)), None, 1)),
     "fc input must be float32 or float64, got float16"),
    (lambda: conv2d(np.ones((1, 3, 5, 5)), ConvSpec(_F32, None, (1, 1), 1)),
     "conv2d: dtype mismatch float64 vs float32"),
    (lambda: conv2d(np.ones((4, 5, 5), dtype=np.float32), ConvSpec(_F32, None, (1, 1), 1)),
     "feature map must be 4-D (N, C, H, W), got shape (4, 5, 5)"),
    (lambda: ConvSpec(_F32[0], None, (1, 1), 1),
     "conv kernel must be 4-D, got shape (3, 3, 3)"),
    (lambda: FcSpec(np.ones(4), None, 1),
     "fc kernel must be 2-D, got shape (4,)"),
    (lambda: ConvSpec(_F32, np.ones(3, dtype=np.float32), (1, 1), 1),
     "conv bias must have shape (2,), got (3,)"),
    (lambda: FcSpec(np.ones((2, 2)), np.ones(3), 2),
     "fc bias must have shape (2,), got (3,)"),
    (lambda: FcSpec(np.ones((2, 2)), np.ones(2, dtype=np.float32), 2),
     "fc bias: dtype mismatch float64 vs float32"),
    (lambda: BnParams(np.zeros(2), np.ones(3), np.ones(2), np.zeros(2)),
     "bn parameter lengths differ"),
    (lambda: partition(np.ones((1, 1, 5, 4)), 2, 2),
     "partition: (5, 4) not divisible by tile (2, 2)"),
    (lambda: inverse_partition(np.ones((4, 1, 2, 2)), 1, 5, 4),
     "inverse_partition: (5, 4) not divisible by tile (2, 2)"),
], ids=["dtype-name", "fc-input-dtype", "conv2d-mismatch", "4d-map", "conv-kernel-shape",
        "fc-kernel-shape", "conv-bias-shape", "fc-bias-shape", "fc-bias-mismatch", "bn-lengths",
        "partition", "inverse-partition"])
def test_validation_messages(build, message):
    with pytest.raises(ShapeError) as err:
        build()
    assert str(err.value) == message


def test_batchnorm_scalar_oracle():
    # gamma (x - mean) / std + beta with std = sqrt(var + eps) = 2
    eps = 1e-5
    bn = BnParams(mean=np.array([1.0]), var=np.array([4.0 - eps]),
                  gamma=np.array([3.0]), beta=np.array([-1.0]), eps=eps)
    x = np.full((1, 1, 1, 1), 2.0)
    np.testing.assert_allclose(batchnorm_inference(x, bn), [[[[0.5]]]], atol=1e-12)


def test_batchnorm_requires_matching_channels():
    bn = BnParams(np.zeros(2), np.ones(2), np.ones(2), np.zeros(2))
    with pytest.raises(ShapeError):
        batchnorm_inference(np.ones((1, 3, 2, 2)), bn)
    with pytest.raises(ShapeError):
        BnParams(np.zeros(2), -np.ones(2), np.ones(2), np.zeros(2))  # negative variance


def test_avg_pool_global():
    x = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
    got = avg_pool_global(x)
    np.testing.assert_array_equal(got, [[[[1.5]], [[5.5]]]])


def test_partition_tile_layout():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    tiles = partition(x, 2, 2)
    assert tiles.shape == (4, 1, 2, 2)
    np.testing.assert_array_equal(tiles[0, 0], [[0, 1], [4, 5]])
    np.testing.assert_array_equal(tiles[1, 0], [[2, 3], [6, 7]])
    np.testing.assert_array_equal(tiles[2, 0], [[8, 9], [12, 13]])
    np.testing.assert_array_equal(tiles[3, 0], [[10, 11], [14, 15]])


def test_partition_round_trip_bitwise():
    rng = np.random.default_rng(9)
    for n, c, h, w, ph, pw in [(1, 1, 4, 4, 2, 2), (3, 5, 6, 9, 2, 3),
                               (2, 2, 7, 7, 7, 7), (4, 3, 12, 8, 4, 2)]:
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        back = inverse_partition(partition(x, ph, pw), n, h, w)
        assert np.array_equal(back, x)


def test_partition_rejects_non_divisible():
    with pytest.raises(ShapeError):
        partition(np.ones((1, 1, 5, 4)), 2, 2)
    with pytest.raises(ShapeError):
        inverse_partition(np.ones((3, 1, 2, 2)), 1, 4, 4)  # 3 tiles, needs 4


def test_kernels_bitwise_under_batch_split():
    # a batch split by hand and concatenated must equal the whole batch bit
    # for bit, for the conv and the grouped FC kernel alike: every GEMM
    # zero-pads its operand to whole TILE-column groups and runs them in one
    # BLAS call per chunk, so a split only changes the call's width (a
    # multiple of TILE) and where a position sits in it. The strided and
    # the one-pixel-output convs split down to a single output pixel; the FC
    # with K over KC and a ragged last tile splits around one tile
    rng = np.random.default_rng(11)
    x = rng.normal(size=(10, 4, 6, 6)).astype(np.float32)
    conv = ConvSpec(rng.normal(size=(6, 2, 3, 3)).astype(np.float32),
                    rng.normal(size=6).astype(np.float32), (1, 1), 2)
    strided = ConvSpec(rng.normal(size=(4, 4, 3, 3)).astype(np.float32), None, (1, 1), 1, 2)
    pixels = rng.normal(size=(10, 256, 1, 1)).astype(np.float32)
    one_pixel = ConvSpec(rng.normal(size=(8, 256, 1, 1)).astype(np.float32),
                         rng.normal(size=8).astype(np.float32), (0, 0), 1)
    # 7 images of 5 x 5 outputs: 175 positions, so image edges fall inside
    # tiles and the last tile is ragged
    x7 = rng.normal(size=(7, 20, 7, 7)).astype(np.float32)
    crossing = ConvSpec(rng.normal(size=(5, 20, 3, 3)).astype(np.float32),
                        rng.normal(size=5).astype(np.float32), (0, 0), 1)
    v = x.reshape(10, -1)
    fc = FcSpec(rng.normal(size=(48, 36)).astype(np.float32),
                rng.normal(size=48).astype(np.float32), 4)
    v70 = rng.normal(size=(70, 784)).astype(np.float32)
    fc392 = FcSpec(rng.normal(size=(16, 392)).astype(np.float32),
                   rng.normal(size=16).astype(np.float32), 2)
    # 40 whole tiles and a ragged tail: each split changes how many columns
    # the one wide call per chunk covers
    v645 = rng.normal(size=(40 * TILE + 5, 600)).astype(np.float32)
    fc600 = FcSpec(rng.normal(size=(12, 200)).astype(np.float32),
                   rng.normal(size=12).astype(np.float32), 3)
    assert 392 % KC and 200 % KC and 70 % TILE and 7 * 5 * 5 % TILE
    small = (1, 3, 4, 10, 16)
    for op, inp, chunks in ((lambda b: conv2d(b, conv), x, small),
                            (lambda b: conv2d(b, strided), x, small),
                            (lambda b: conv2d(b, one_pixel), pixels, small),
                            (lambda b: conv2d(b, crossing), x7, (1, 2, 3, 7)),
                            (lambda b: grouped_fc(b, fc), v, small),
                            (lambda b: grouped_fc(b, fc392), v70,
                             (1, TILE - 1, TILE, TILE + 1, 70)),
                            (lambda b: grouped_fc(b, fc600), v645,
                             (1, TILE - 1, TILE, TILE + 1, 100))):
        whole = op(inp)
        for chunk in chunks:
            parts = [op(inp[i:i + chunk]) for i in range(0, len(inp), chunk)]
            assert np.array_equal(np.concatenate(parts), whole), chunk
    # narrow FCs as the bundled ResNets run them: r rows per sample (1 for
    # the head FC, parts for fc3 and the global path), so at batch N a call
    # has N * r columns, below, at and above TILE. A batch of N samples must
    # give the bytes of each sample alone
    narrow = FcSpec(rng.normal(size=(24, 392)).astype(np.float32),
                    rng.normal(size=24).astype(np.float32), 2)
    for r in (1, 4, 16):
        rows = rng.normal(size=(8 * r, 784)).astype(np.float32)
        alone = [grouped_fc(rows[i * r:(i + 1) * r], narrow) for i in range(8)]
        for n in (1, 2, 3, 8):
            got = grouped_fc(rows[:n * r], narrow)
            assert np.array_equal(got, np.concatenate(alone[:n])), (r, n)


def test_conv_slabs_give_the_bytes_of_one_slab(monkeypatch):
    # conv2d builds and multiplies its patch matrix one slab of whole images
    # at a time. Slabs of 3.5 images' patch bytes split a batch of 8 into 3,
    # 3 and 2 images, and slabs under one image run image by image; both
    # must give the bytes of one slab over the whole batch. The _gemm calls
    # are counted, so a split that did not happen cannot pass
    from repmlp import tensor
    rng = np.random.default_rng(31)
    widths = []
    gemm_ = tensor._gemm

    def counted_gemm(w, cols, out, groups):
        widths.append(cols.shape[1])
        gemm_(w, cols, out, groups)

    monkeypatch.setattr(tensor, "_gemm", counted_gemm)
    grouped7 = ConvSpec(rng.normal(size=(8, 8, 7, 7)).astype(np.float32),
                        rng.normal(size=8).astype(np.float32), (3, 3), 2)
    strided3 = ConvSpec(rng.normal(size=(5, 6, 3, 3)), None, (1, 1), 1, 2)
    for spec, x, g, positions in ((grouped7, rng.normal(size=(8, 16, 8, 8)).astype(np.float32),
                                   2, 64),
                                  (strided3, rng.normal(size=(8, 6, 9, 9)), 1, 25)):
        per_image = spec.kernel[0].size * positions * x.itemsize
        monkeypatch.setattr(tensor, "SLAB_BYTES", 8 * per_image)
        widths.clear()
        whole = conv2d(x, spec)
        assert widths == [8 * positions] * g
        for slab_bytes, images in ((7 * per_image // 2, (3, 3, 2)), (per_image - 1, (1,) * 8)):
            monkeypatch.setattr(tensor, "SLAB_BYTES", slab_bytes)
            widths.clear()
            got = conv2d(x, spec)
            assert widths == [b * positions for b in images for _ in range(g)]
            assert got.tobytes() == whole.tobytes(), slab_bytes


def test_ragged_gemm_streams_weights_once(monkeypatch):
    # a GEMM whose column count is not a multiple of TILE runs one chunk
    # loop over one zero-padded operand, so each group reads its weights
    # once: a grouped conv with a 7x7 output at batch 1 (49 columns) and a
    # grouped FC over 33 rows make one _tile_products call per group. The
    # FC and a grouped 1x1 conv lay out their operand once, in one _gemm
    # call for all groups; the 3x3 conv makes one _gemm call per group
    from repmlp import tensor
    rng = np.random.default_rng(41)
    calls = []
    products = tensor._tile_products
    gemms = []
    gemm_ = tensor._gemm

    def counted_products(w, cols):
        calls.append(cols.shape[1])
        return products(w, cols)

    def counted_gemm(w, cols, out, groups):
        gemms.append(groups)
        gemm_(w, cols, out, groups)

    monkeypatch.setattr(tensor, "_tile_products", counted_products)
    monkeypatch.setattr(tensor, "_gemm", counted_gemm)
    conv = ConvSpec(rng.normal(size=(6, 4, 3, 3)).astype(np.float32), None, (1, 1), 3)
    got = conv2d(rng.normal(size=(1, 12, 7, 7)).astype(np.float32), conv)
    assert got.shape == (1, 6, 7, 7) and calls == [4 * TILE] * 3
    assert gemms == [1] * 3
    calls.clear()
    gemms.clear()
    fc = FcSpec(rng.normal(size=(8, 2 * KC + 3)).astype(np.float32), None, 2)
    got = grouped_fc(rng.normal(size=(33, 4 * KC + 6)).astype(np.float32), fc)
    assert got.shape == (33, 8) and calls == [3 * TILE] * 2
    assert gemms == [2]
    calls.clear()
    gemms.clear()
    one = ConvSpec(rng.normal(size=(6, 4, 1, 1)).astype(np.float32), None, (0, 0), 3)
    got = conv2d(rng.normal(size=(1, 12, 7, 7)).astype(np.float32), one)
    assert got.shape == (1, 6, 7, 7) and calls == [4 * TILE] * 3 and gemms == [3]


def test_conv_on_empty_batch():
    # a batch of no images gives no images at the output's channels and
    # size, on the patch-matrix path (plain and strided) and the 1x1 path
    x = np.zeros((0, 4, 6, 6), dtype=np.float32)
    for k, pad, stride, size in ((3, (1, 1), 1, 6), (3, (1, 1), 2, 3), (1, (0, 0), 2, 3)):
        spec = ConvSpec(np.ones((6, 2, k, k), dtype=np.float32), None, pad, 2, stride)
        got = conv2d(x, spec)
        assert got.shape == (0, 6, size, size) and got.dtype == np.float32, (k, stride)


def test_cifar_train_forward_patch_memory_bounded():
    # the 7x7 branch patch matrix of the pure-mlp-cifar train form is 51 MB
    # at batch 32 when built whole; in slabs the forward peaks far lower
    import tracemalloc

    from repmlp.models import build_pure_mlp_cifar, init_model_weights, run_model
    model = build_pure_mlp_cifar()
    rng = np.random.default_rng(5)
    weights = init_model_weights(model, rng, np.float32)
    x = rng.uniform(-1, 1, (32,) + model.input_shape).astype(np.float32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_model(model, weights, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / 2 ** 20 < 25


def test_kernels_preserve_dtype():
    for dtype in (np.float32, np.float64):
        x = np.ones((1, 2, 4, 4), dtype=dtype)
        spec = ConvSpec(np.ones((2, 2, 3, 3), dtype=dtype), None, (1, 1), 1)
        assert conv2d(x, spec).dtype == dtype
        v = np.ones((1, 4), dtype=dtype)
        fc = FcSpec(np.ones((2, 4), dtype=dtype), None, 1)
        assert grouped_fc(v, fc).dtype == dtype
        assert partition(x, 2, 2).dtype == dtype
