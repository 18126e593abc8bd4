"""Oracles for the reference tensor kernels."""

import numpy as np
import pytest

from repmlp.tensor import (
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


def test_conv_all_ones_counts_window_overlap():
    # 3x3 ones kernel over a padded 3x3 ones image counts valid taps per pixel
    x = np.ones((1, 1, 3, 3))
    spec = ConvSpec(np.ones((1, 1, 3, 3)), None, (1, 1), 1)
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float64)
    np.testing.assert_array_equal(conv2d(x, spec)[0, 0], expected)


def test_conv_matches_loop_reference():
    rng = np.random.default_rng(101)
    cases = [
        # (c, o, g, k, h, w, padding)
        (1, 1, 1, 3, 4, 4, (1, 1)),
        (2, 3, 1, 3, 5, 4, (1, 1)),
        (4, 2, 2, 1, 4, 6, (0, 0)),
        (4, 4, 4, 3, 6, 5, (1, 1)),
        (3, 3, 3, 3, 3, 3, (1, 1)),
        (2, 4, 2, 5, 6, 6, (2, 2)),
        (2, 2, 1, 3, 5, 5, (0, 0)),   # valid conv, shrinking output
        (2, 2, 1, 3, 5, 5, (2, 1)),   # asymmetric padding
    ]
    for c, o, g, k, h, w, pad in cases:
        x = rng.normal(size=(2, c, h, w))
        kernel = rng.normal(size=(o, c // g, k, k))
        got = conv2d(x, ConvSpec(kernel, None, pad, g))
        want = conv_loops(x, kernel, pad, g)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


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


def test_grouped_fc_two_group_hand_case():
    v = np.array([[1.0, 2.0, 3.0, 4.0]])
    spec = FcSpec(np.array([[1.0, 1.0], [1.0, 1.0]]), None, 2, 4, 2)
    np.testing.assert_array_equal(grouped_fc(v, spec), [[3.0, 7.0]])


def test_grouped_fc_dense_matches_matmul():
    rng = np.random.default_rng(7)
    v = rng.normal(size=(4, 6))
    kernel = rng.normal(size=(5, 6))
    bias = rng.normal(size=5)
    got = grouped_fc(v, FcSpec(kernel, bias, 1, 6, 5))
    np.testing.assert_allclose(got, v @ kernel.T + bias, atol=1e-12, rtol=0)


def test_grouped_fc_equals_grouped_one_by_one_conv():
    rng = np.random.default_rng(8)
    for g in (1, 2, 4):
        p, q = 8, 12
        v = rng.normal(size=(3, p))
        kernel = rng.normal(size=(q, p // g))
        bias = rng.normal(size=q)
        fc = grouped_fc(v, FcSpec(kernel, bias, g, p, q))
        conv = conv2d(v.reshape(3, p, 1, 1),
                      ConvSpec(kernel.reshape(q, p // g, 1, 1), bias, (0, 0), g))
        np.testing.assert_allclose(fc, conv.reshape(3, q), atol=1e-12, rtol=0)


def test_grouped_fc_validation():
    spec = FcSpec(np.ones((2, 2)), None, 2, 4, 2)
    with pytest.raises(ShapeError):
        grouped_fc(np.ones((1, 3)), spec)  # wrong feature count
    with pytest.raises(ShapeError):
        FcSpec(np.ones((2, 3)), None, 2, 4, 2)  # kernel shape mismatch
    with pytest.raises(ShapeError):
        FcSpec(np.ones((2, 2)), None, 3, 4, 2)  # groups do not divide dims


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
    # for bit, for the conv and the grouped FC kernel alike
    rng = np.random.default_rng(11)
    x = rng.normal(size=(10, 4, 6, 6)).astype(np.float32)
    conv = ConvSpec(rng.normal(size=(6, 2, 3, 3)).astype(np.float32),
                    rng.normal(size=6).astype(np.float32), (1, 1), 2)
    v = x.reshape(10, -1)
    fc = FcSpec(rng.normal(size=(48, 36)).astype(np.float32),
                rng.normal(size=48).astype(np.float32), 4, 144, 48)
    for op, inp in ((lambda b: conv2d(b, conv), x), (lambda b: grouped_fc(b, fc), v)):
        whole = op(inp)
        for chunk in (1, 3, 4, 10, 16):
            parts = [op(inp[i:i + chunk]) for i in range(0, len(inp), chunk)]
            assert np.array_equal(np.concatenate(parts), whole), chunk


def test_kernels_preserve_dtype():
    for dtype in (np.float32, np.float64):
        x = np.ones((1, 2, 4, 4), dtype=dtype)
        spec = ConvSpec(np.ones((2, 2, 3, 3), dtype=dtype), None, (1, 1), 1)
        assert conv2d(x, spec).dtype == dtype
        v = np.ones((1, 4), dtype=dtype)
        fc = FcSpec(np.ones((2, 4), dtype=dtype), None, 1, 4, 2)
        assert grouped_fc(v, fc).dtype == dtype
        assert partition(x, 2, 2).dtype == dtype
