"""Training-form block: per-path oracles, validation and the seeded draw."""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest

import repmlp
from repmlp.block import (
    DRAW_CHUNK,
    RepMLPConfig,
    RepMLPTrainWeights,
    _uniform,
    check_train_weights,
    forward_train,
    global_perceptron,
    local_perceptron,
    partition_perceptron,
    random_bn,
    random_conv_bn,
    random_train_weights,
)
from repmlp.reparam import check_infer_weights, convert_block, forward_infer
from repmlp.tensor import BnParams, ConvSpec, FcSpec, ShapeError, partition
from repmlp.verify import thread_count

EPS = 1e-5


def identity_bn(features, scale=1.0, shift=0.0):
    """BN that multiplies by scale and adds shift: std comes out as 1."""
    return BnParams(mean=np.zeros(features), var=np.full(features, 1.0 - EPS),
                    gamma=np.full(features, float(scale)),
                    beta=np.full(features, float(shift)), eps=EPS)


def dense_fc(kernel, bias=None):
    kernel = np.asarray(kernel, dtype=np.float64)
    b = None if bias is None else np.asarray(bias, dtype=np.float64)
    return FcSpec(kernel, b, 1)


def test_config_derived_properties():
    cfg = RepMLPConfig(8, 4, 12, 8, 4, 4, groups=2, branch_kernels=(1, 3))
    assert (cfg.parts_h, cfg.parts_w, cfg.num_parts) == (3, 2, 6)
    assert cfg.has_global_path
    assert cfg.gp_hidden == 2          # default in_channels // 4
    assert cfg.fc_in_dim == 8 * 16 and cfg.fc_out_dim == 4 * 16
    single = RepMLPConfig(8, 8, 4, 4, 4, 4)
    assert not single.has_global_path
    assert RepMLPConfig(2, 2, 4, 4, 4, 4).gp_hidden == 1  # floored default
    unsorted = RepMLPConfig(4, 4, 8, 8, 4, 4, branch_kernels=(3, 1))
    assert unsorted.branch_kernels == (1, 3)
    assert unsorted == RepMLPConfig(4, 4, 8, 8, 4, 4, branch_kernels=(1, 3))


def test_config_validation():
    with pytest.raises(ShapeError):
        RepMLPConfig(3, 4, 8, 8, 4, 4, groups=2)       # groups must divide C
    with pytest.raises(ShapeError):
        RepMLPConfig(4, 4, 10, 8, 4, 4)                # tiles must divide H
    with pytest.raises(ShapeError):
        RepMLPConfig(4, 4, 8, 8, 4, 4, branch_kernels=(2,))   # even kernel
    with pytest.raises(ShapeError):
        RepMLPConfig(4, 4, 8, 8, 4, 4, branch_kernels=(5,))   # kernel > tile
    with pytest.raises(ShapeError):
        RepMLPConfig(4, 4, 8, 8, 4, 4, branch_kernels=(3, 3))
    with pytest.raises(ShapeError):
        RepMLPConfig(4, 4, 8, 8, 4, 4, gp_nonlinearity="tanh")
    with pytest.raises(ShapeError):
        RepMLPConfig(4, 4, 8, 8, 4, 4, gp_internal_dim=0)
    # each of these passed the range checks as a float or bool stand-in:
    # in_channels=4.0 built a block with fc_in_dim 64.0, True ran as 1
    good = dict(in_channels=4, out_channels=4, height=8, width=8, part_h=4, part_w=4,
                groups=2)
    for name in good:
        for bad in (float(good[name]), True, str(good[name]), None):
            with pytest.raises(ShapeError, match=f"{name} must be an int"):
                RepMLPConfig(**dict(good, **{name: bad}))
    for bad in (4.0, True, "4"):
        with pytest.raises(ShapeError, match="gp_internal_dim must be an int"):
            RepMLPConfig(**good, gp_internal_dim=bad)
    for kernels in ((3.0,), (1, True), ("3",)):
        with pytest.raises(ShapeError, match="branch kernels must be ints"):
            RepMLPConfig(**good, branch_kernels=kernels)


def test_global_path_adds_tile_means():
    # unit MLP turns the broadcast add into "tile + its own mean"
    cfg = RepMLPConfig(1, 1, 4, 4, 2, 2, gp_internal_dim=1)
    w = RepMLPTrainWeights(
        fc3=dense_fc(np.eye(4)),
        fc3_bn=identity_bn(4),
        gp_bn=identity_bn(1),
        fc1=dense_fc([[1.0]], [0.0]),
        fc2=dense_fc([[1.0]], [0.0]),
    )
    x = np.zeros((1, 1, 4, 4))
    x[0, 0, :2, :2] = 1.0
    x[0, 0, :2, 2:] = 2.0
    x[0, 0, 2:, :2] = 3.0
    x[0, 0, 2:, 2:] = 4.0
    pmap = global_perceptron(x, cfg, w.fc1, w.fc2, w.gp_bn)
    assert pmap.shape == (4, 1, 2, 2)
    for tile, value in enumerate((2.0, 4.0, 6.0, 8.0)):
        np.testing.assert_allclose(pmap[tile], value, atol=1e-12)


def test_global_path_skipped_when_tile_covers_image():
    cfg = RepMLPConfig(2, 2, 4, 4, 4, 4)
    rng = np.random.default_rng(0)
    w = random_train_weights(cfg, rng, np.float64)
    assert w.fc1 is None and w.fc2 is None and w.gp_bn is None
    x = rng.normal(size=(3, 2, 4, 4))
    np.testing.assert_array_equal(global_perceptron(x, cfg, None, None, None),
                                  partition(x, 4, 4))


def test_local_perceptron_empty_branch_list_is_exact_zero():
    cfg = RepMLPConfig(2, 3, 4, 4, 4, 4)
    w = random_train_weights(cfg, np.random.default_rng(1), np.float64)
    pmap = np.random.default_rng(2).normal(size=(5, 2, 4, 4))
    out = local_perceptron(pmap, cfg, w)
    assert out.shape == (5, 3, 4, 4)
    assert np.all(out == 0.0)


def test_local_perceptron_k1_identity_branch_scales_pixels():
    cfg = RepMLPConfig(1, 1, 4, 4, 4, 4, branch_kernels=(1,))
    conv = ConvSpec(np.full((1, 1, 1, 1), 3.0), None, (0, 0), 1)
    w = RepMLPTrainWeights(fc3=dense_fc(np.zeros((16, 16))), fc3_bn=identity_bn(16),
                           branches=((conv, identity_bn(1, shift=0.25)),))
    pmap = np.random.default_rng(3).normal(size=(2, 1, 4, 4))
    np.testing.assert_allclose(local_perceptron(pmap, cfg, w), 3.0 * pmap + 0.25,
                               atol=1e-12)


def test_local_perceptron_sums_branches():
    cfg = RepMLPConfig(2, 2, 6, 6, 6, 6, branch_kernels=(1, 3, 5))
    rng = np.random.default_rng(4)
    w = random_train_weights(cfg, rng, np.float64)
    pmap = rng.normal(size=(3, 2, 6, 6))
    total = local_perceptron(pmap, cfg, w)
    by_hand = sum(
        local_perceptron(pmap,
                         RepMLPConfig(2, 2, 6, 6, 6, 6, branch_kernels=(k,)),
                         RepMLPTrainWeights(fc3=w.fc3, fc3_bn=w.fc3_bn,
                                            branches=(pair,)))
        for k, pair in zip((1, 3, 5), w.branches))
    np.testing.assert_allclose(total, by_hand, atol=1e-12)


def test_partition_perceptron_matches_manual_affine():
    cfg = RepMLPConfig(2, 2, 2, 2, 2, 2)
    rng = np.random.default_rng(5)
    w = random_train_weights(cfg, rng, np.float64)
    pmap = rng.normal(size=(4, 2, 2, 2))
    flat = pmap.reshape(4, 8)
    scale = w.fc3_bn.gamma / np.sqrt(w.fc3_bn.var + EPS)
    shift = w.fc3_bn.beta - w.fc3_bn.mean * scale
    manual = (flat @ w.fc3.kernel.T) * scale + shift
    got = partition_perceptron(pmap, cfg, w)
    np.testing.assert_allclose(got, manual.reshape(4, 2, 2, 2), atol=1e-12)


def test_forward_train_hand_walkthrough():
    # identity FC3 doubled by its BN, plus a K=1 branch 2x + 0.5:
    # x -> 2x + (2x + 0.5) = 4x + 0.5
    cfg = RepMLPConfig(1, 1, 2, 2, 2, 2, branch_kernels=(1,))
    conv = ConvSpec(np.full((1, 1, 1, 1), 2.0), None, (0, 0), 1)
    w = RepMLPTrainWeights(
        fc3=dense_fc(np.eye(4)),
        fc3_bn=identity_bn(4, scale=2.0),
        branches=((conv, identity_bn(1, shift=0.5)),),
    )
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    got = forward_train(x, cfg, w)
    np.testing.assert_allclose(got, [[[[4.5, 8.5], [12.5, 16.5]]]], atol=1e-12)


def test_forward_output_channels_can_differ():
    cfg = RepMLPConfig(4, 2, 6, 6, 3, 3, groups=2, branch_kernels=(1, 3),
                       gp_internal_dim=3)
    rng = np.random.default_rng(6)
    w = random_train_weights(cfg, rng, np.float64)
    x = rng.normal(size=(2, 4, 6, 6))
    assert forward_train(x, cfg, w).shape == (2, 2, 6, 6)


def test_check_train_weights_rejections():
    cfg = RepMLPConfig(2, 2, 4, 4, 2, 2, branch_kernels=(1,), gp_internal_dim=2)
    rng = np.random.default_rng(7)
    good = random_train_weights(cfg, rng, np.float64)
    check_train_weights(cfg, good)

    biased_fc3 = FcSpec(good.fc3.kernel, np.zeros(8), 1)
    with pytest.raises(ShapeError):
        check_train_weights(cfg, RepMLPTrainWeights(
            fc3=biased_fc3, fc3_bn=good.fc3_bn, branches=good.branches,
            gp_bn=good.gp_bn, fc1=good.fc1, fc2=good.fc2))

    conv, bn = good.branches[0]
    undeclared = ConvSpec(np.ones((2, 2, 3, 3)), None, (1, 1), 1)
    with pytest.raises(ShapeError):
        check_train_weights(cfg, RepMLPTrainWeights(
            fc3=good.fc3, fc3_bn=good.fc3_bn, branches=((undeclared, bn),),
            gp_bn=good.gp_bn, fc1=good.fc1, fc2=good.fc2))

    strided = dataclasses.replace(conv, stride=2)
    with pytest.raises(ShapeError):  # a strided branch would fold into a wrong FC
        check_train_weights(cfg, RepMLPTrainWeights(
            fc3=good.fc3, fc3_bn=good.fc3_bn, branches=((strided, bn),),
            gp_bn=good.gp_bn, fc1=good.fc1, fc2=good.fc2))

    narrow = ConvSpec(conv.kernel.astype(np.float32), None, conv.padding, conv.groups)
    with pytest.raises(ShapeError):  # an f32 branch in an f64 block
        check_train_weights(cfg, RepMLPTrainWeights(
            fc3=good.fc3, fc3_bn=good.fc3_bn, branches=((narrow, bn),),
            gp_bn=good.gp_bn, fc1=good.fc1, fc2=good.fc2))

    with pytest.raises(ShapeError):  # declared branch missing entirely
        check_train_weights(cfg, RepMLPTrainWeights(
            fc3=good.fc3, fc3_bn=good.fc3_bn, branches=(),
            gp_bn=good.gp_bn, fc1=good.fc1, fc2=good.fc2))

    with pytest.raises(ShapeError):  # global path weights required
        check_train_weights(cfg, RepMLPTrainWeights(
            fc3=good.fc3, fc3_bn=good.fc3_bn, branches=good.branches))

    bad_fc1 = FcSpec(np.ones((3, 2)), np.zeros(3), 1)
    with pytest.raises(ShapeError):  # fc1 width != gp_internal_dim
        check_train_weights(cfg, RepMLPTrainWeights(
            fc3=good.fc3, fc3_bn=good.fc3_bn, branches=good.branches,
            gp_bn=good.gp_bn, fc1=bad_fc1, fc2=good.fc2))

    bias_free_fc2 = dataclasses.replace(good.fc2, bias=None)
    with pytest.raises(ShapeError, match="bias"):  # the global-path FCs carry biases
        check_train_weights(cfg, dataclasses.replace(good, fc2=bias_free_fc2))

    wide = dataclasses.replace(good, fc1=FcSpec(np.ones((5, 2)), np.zeros(5), 1),
                               fc2=FcSpec(np.ones((2, 5)), np.zeros(2), 1))
    grouped = dataclasses.replace(good, fc1=FcSpec(np.ones((2, 1)), np.zeros(2), 2))
    for bad in (wide, grouped):  # a 2 -> 5 -> 2 MLP, and a grouped 2 -> 2 fc1
        with pytest.raises(ShapeError):
            check_train_weights(cfg, bad)
        infer = dataclasses.replace(convert_block(cfg, good), fc1=bad.fc1, fc2=bad.fc2)
        with pytest.raises(ShapeError):
            check_infer_weights(cfg, infer)
        with pytest.raises(ShapeError):
            forward_infer(np.zeros((1, 2, 4, 4)), cfg, infer)

    two = RepMLPConfig(2, 2, 3, 3, 3, 3, branch_kernels=(1, 3))
    ordered = random_train_weights(two, rng, np.float64)
    check_train_weights(two, ordered)
    with pytest.raises(ShapeError):  # branch 3 before branch 1
        check_train_weights(two, dataclasses.replace(ordered, branches=ordered.branches[::-1]))


def test_forward_rejects_mismatched_input():
    cfg = RepMLPConfig(2, 2, 4, 4, 2, 2, gp_internal_dim=1)
    w = random_train_weights(cfg, np.random.default_rng(8), np.float64)
    with pytest.raises(ShapeError):
        forward_train(np.zeros((1, 3, 4, 4)), cfg, w)
    with pytest.raises(ShapeError):
        forward_train(np.zeros((1, 2, 8, 4)), cfg, w)



# an empty draw, then every size on either side of the chunk edges, each as an
# int, a 2-D and a 4-D shape
DRAW_SHAPES = [
    0, (0, 5),
    1, (1, 1), (1, 1, 1, 1),
    DRAW_CHUNK - 1, (7, 4681), (7, 31, 151, 1),
    DRAW_CHUNK, (128, 256), (8, 8, 16, 32),
    DRAW_CHUNK + 1, (99, 331), (3, 3, 11, 331),
    3 * DRAW_CHUNK + 5, (37, 2657), (37, 1, 2657, 1),
]


@pytest.mark.parametrize("shape", DRAW_SHAPES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lo, hi", [(-0.1, 0.1), (0.5, 1.5)])
def test_uniform_equals_one_whole_draw(shape, dtype, lo, hi):
    chunked, whole = np.random.default_rng(11), np.random.default_rng(11)
    got = _uniform(chunked, shape, lo, hi, dtype)
    want = whole.uniform(lo, hi, size=shape).astype(dtype)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()
    assert chunked.random() == whole.random()  # same stream position after the draw


def test_uniform_is_the_only_rng_uniform_call():
    # every seeded draw goes through block._uniform, so the chunking has one home
    outside = []
    for path in sorted(pathlib.Path(repmlp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        home = [(f.lineno, f.end_lineno) for f in ast.walk(tree) if path.name == "block.py"
                and isinstance(f, ast.FunctionDef) and f.name == "_uniform"]
        outside += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "uniform"
                    and not any(a <= node.lineno <= b for a, b in home)]
    assert outside == []


def test_random_conv_bn_draws_kernel_then_bn():
    got, want = np.random.default_rng(4), np.random.default_rng(4)
    conv, bn = random_conv_bn(got, 6, 4, 3, 1, 2, 2, np.float32)
    kernel = _uniform(want, (4, 3, 3, 3), -0.5, 0.5, np.float32)
    assert conv.kernel.tobytes() == kernel.tobytes() and conv.bias is None
    assert (conv.padding, conv.groups, conv.stride) == ((1, 1), 2, 2)
    ref = random_bn(want, 4, np.float32)
    assert all(getattr(bn, f).tobytes() == getattr(ref, f).tobytes()
               for f in ("mean", "var", "gamma", "beta"))
    assert got.random() == want.random()


def test_library_reads_no_environment_variable():
    # every setting is an argument, so no variable can change a result
    names, reads = ("environ", "getenv"), []
    for path in sorted(pathlib.Path(repmlp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in names
                  or isinstance(node, ast.alias) and node.name in names]
    assert reads == []


@pytest.mark.parametrize("value", ["abc", "0"])
def test_thread_count_ignores_repmlp_threads(monkeypatch, value):
    monkeypatch.setenv("REPMLP_THREADS", value)
    assert thread_count() == 1
