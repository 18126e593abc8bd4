"""Model graphs: frozen accounting oracles, builders, executor."""

import concurrent.futures
import dataclasses
import os
import threading

import numpy as np
import pytest
from conftest import dyadic, dyadic_bn, dyadic_block_weights, fix_tile_sums, walk_layers

from repmlp.block import RepMLPConfig
from repmlp.models import (
    FLATTEN,
    MODEL_BUILDERS,
    RELU,
    LayerSpec,
    Model,
    _analyze,
    _run_layers,
    add_layer,
    block_flops,
    block_params,
    build_named_model,
    build_pure_mlp_cifar,
    build_resnet50,
    build_wide_convnet,
    conv_layer,
    convert_graph,
    convert_model_weights,
    count_flops,
    count_params,
    fc_layer,
    init_model_weights,
    pool_layer,
    repmlp_layer,
    run_model,
)
from repmlp.tensor import ConvSpec, FcSpec, ShapeError, usable_cpus
from repmlp.verify import build_grid, run_equivalence


def shape_of(model):
    """The output shape that model accounting walks the graph to."""
    return _analyze(model.layers, ("map",) + model.input_shape)[2]


# component-sum oracle, worked out once by hand for a mid-size block:
# C = O = 256, 7x7 tiles on a 14x14 map (4 tiles), g = 8, branches {1,3,5},
# global-path hidden width 64 (the C/4 default).
#   fc3 kernel 12544 * 12544/8 = 19,668,992;  fc3 BN 2 * 12544 = 25,088
#   branches (256*32*k^2 + 512) for k in {1,3,5} = 8,704 + 74,240 + 205,312
#   global path 256*64+64 + 64*256+256 + 2*256 = 33,600
_ORACLE_CFG = RepMLPConfig(256, 256, 14, 14, 7, 7, groups=8,
                           branch_kernels=(1, 3, 5))


def test_block_accounting_frozen_oracle():
    assert block_params(_ORACLE_CFG, "train") == 20_015_936
    assert block_flops(_ORACLE_CFG, "train") == 135_004_160
    assert block_params(_ORACLE_CFG, "infer") == 19_714_624
    assert block_flops(_ORACLE_CFG, "infer") == 78_807_040


def test_block_accounting_closed_forms():
    # single dense FC P -> Q and a lone KxK conv, the two textbook cases
    layers = (conv_layer(3, 8, 3, pad=1),)
    m = Model("conv-only", (3, 10, 10), layers)
    assert count_params(m) == 8 * 3 * 9 + 16
    assert count_flops(m) == 8 * 3 * 9 * 100
    deploy = convert_graph(m)
    assert count_params(deploy) == 8 * 3 * 9 + 8
    assert count_flops(deploy) == count_flops(m)

    from repmlp.models import FLATTEN
    m2 = Model("fc-only", (4, 2, 2), (FLATTEN, fc_layer(16, 5)))
    assert count_params(m2) == 16 * 5 + 5
    assert count_flops(m2) == 16 * 5


# frozen totals for every registered model (train and deploy forms);
# derived from the builders once, then pinned so refactors cannot drift
_FROZEN = {
    "pure-mlp-cifar": (22_714_906, 119_595_008, 22_246_778, 53_534_720),
    "wide-convnet": (502_634, 64_143_360, 501_738, 64_143_360),
    "resnet50": (25_557_032, 4_089_184_256, 25_530_472, 4_089_184_256),
    "repmlp-res50": (41_117_224, 4_046_757_888, 40_917_608, 3_987_048_448),
    "repmlp-res50-c4-r4": (31_013_992, 3_844_939_776, 30_879_272, 3_827_378_176),
    "repmlp-res50-c4-r8": (25_088_072, 3_666_855_936, 25_029_832, 3_662_465_536),
    "repmlp-light-res50": (58_400_872, 3_134_193_664, 57_917_224, 3_021_799_424),
}


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_model_totals_frozen(name):
    model = MODEL_BUILDERS[name]()
    deploy = convert_graph(model)
    got = (count_params(model), count_flops(model),
           count_params(deploy), count_flops(deploy))
    assert got == _FROZEN[name], (name, got)


@pytest.mark.parametrize("form", ["train", "deploy"])
def test_executed_macs_equal_count_flops(monkeypatch, form):
    # every conv runs at its output stride and the FC runs once, so the MACs
    # run_model executes are exactly the ones count_flops accounts
    from repmlp import models
    executed = []
    conv2d, grouped_fc = models.conv2d, models.grouped_fc

    def counted_conv(x, spec):
        y = conv2d(x, spec)
        kh, kw = spec.kernel_size
        executed.append(y.size * spec.kernel.shape[1] * kh * kw)
        return y

    def counted_fc(v, spec):
        y = grouped_fc(v, spec)
        executed.append(y.size * spec.in_dim // spec.groups)
        return y

    monkeypatch.setattr(models, "conv2d", counted_conv)
    monkeypatch.setattr(models, "grouped_fc", counted_fc)
    model = build_resnet50(input_res=64)
    rng = np.random.default_rng(24)
    weights = init_model_weights(model, rng, np.float32)
    x = rng.uniform(-1, 1, (1,) + model.input_shape).astype(np.float32)
    if form == "deploy":
        weights = convert_model_weights(model, weights)
        model = convert_graph(model)
    y = run_model(model, weights, x)
    assert y.shape == (1, 1000)
    assert sum(executed) == count_flops(model)


def test_resnet50_structure():
    model = build_resnet50()
    kinds = [layer.kind for layer in model.layers]
    assert kinds[0] == "conv" and model.layers[0].attr("k") == 7
    assert kinds.count("add") == 16          # 3 + 4 + 6 + 3 bottlenecks
    assert shape_of(model) == ("vec", 1000)
    # every conv in the train graph is bias-free and carries its bn
    for layer in walk_layers(model.layers):
        if layer.kind == "conv":
            assert layer.attr("bn") is True


def test_repmlp_resnet_block_configs():
    model = MODEL_BUILDERS["repmlp-res50"]()
    cfgs = [l.attr("cfg") for l in walk_layers(model.layers) if l.kind == "repmlp_train"]
    assert len(cfgs) == 3 + 5                # stride-1 bottlenecks of c3 and c4
    c3 = [c for c in cfgs if c.height == 28]
    c4 = [c for c in cfgs if c.height == 14]
    assert len(c3) == 3 and len(c4) == 5
    for c in cfgs:
        assert c.part_h == c.part_w == 7
        assert c.groups == 8 and c.branch_kernels == (1, 3, 5)
    assert all(c.in_channels == 64 and c.gp_hidden == 64 * 16 * 16 for c in c3)
    assert all(c.in_channels == 64 and c.gp_hidden == 64 * 4 * 4 for c in c4)


def _block_bodies(model):
    """(body, cfg) of every residual branch that holds a block."""
    return [(branch, layer.attr("cfg")) for add in model.layers if add.kind == "add"
            for branch in add.children for layer in branch if layer.kind == "repmlp_train"]


def test_repmlp_resnet_c4_r8_and_light_block_configs():
    r8 = _block_bodies(MODEL_BUILDERS["repmlp-res50-c4-r8"]())
    assert len(r8) == 5                      # stride-1 bottlenecks of c4 only
    for body, c in r8:
        assert (c.height, c.in_channels, c.out_channels) == (14, 32, 32)   # 256 / 8
        assert c.gp_hidden == 32 * 4 * 4 and c.groups == 8 and c.part_h == 7
        assert [l.attr("k") for l in body if l.kind == "conv"] == [1, 3, 3, 1]

    light = _block_bodies(MODEL_BUILDERS["repmlp-light-res50"]())
    assert len(light) == 3 + 5
    for body, c in light:
        in_ch = 512 if c.height == 28 else 1024
        assert c.height in (28, 14) and c.in_channels == c.out_channels == in_ch // 8
        parts = (c.height // 7) ** 2
        assert c.gp_hidden == c.in_channels * parts * parts
        assert c.groups == 8 and c.part_h == c.part_w == 7
        # an 8x 1x1 squeeze and its 1x1 expansion, no 3x3 conv around the block
        convs = [(l.attr("in_ch"), l.attr("out_ch"), l.attr("k")) for l in body
                 if l.kind == "conv"]
        assert convs == [(in_ch, in_ch // 8, 1), (in_ch // 8, in_ch, 1)]
    assert sum(c.height == 28 for _, c in light) == 3


def test_resnet50_rejects_unknown_stages_and_reductions():
    for stages in ({"c6": 4}, {"c1": "light"}, {"c3": 3}, {"c3": 16}, {"c4": 2.0},
                   {"c4": True}, {"c4": "heavy"}, {"c4": None}):
        with pytest.raises(ShapeError):
            build_resnet50(stages)
    assert build_resnet50({"c4": "light"}).name == "resnet50[c4-light-r4g8]"


def test_pure_mlp_structure():
    model = build_pure_mlp_cifar()
    blocks = [l.attr("cfg") for l in model.layers if l.kind == "repmlp_train"]
    assert len(blocks) == 6
    assert [c.height for c in blocks] == [32, 32, 16, 16, 8, 8]
    assert all(c.part_h == 8 and c.groups == 2 for c in blocks)
    assert all(c.branch_kernels == (1, 3, 5, 7) for c in blocks)
    assert not blocks[-1].has_global_path    # tile covers the 8x8 map
    assert blocks[0].gp_hidden == 832
    assert shape_of(model) == ("vec", 10)
    with pytest.raises(ShapeError):
        build_pure_mlp_cifar(input_res=64)


def test_convert_graph_deploy_form():
    model = build_pure_mlp_cifar()
    deploy = convert_graph(model)
    for layer in walk_layers(deploy.layers):
        assert layer.kind != "repmlp_train"
        if layer.kind == "conv":
            assert layer.attr("bn") is False
    # deploy weights come only from the fold: a deploy conv and a deploy
    # block are both refused at init
    rng = np.random.default_rng(0)
    block = convert_graph(Model("block", (4, 8, 8),
                                (repmlp_layer(RepMLPConfig(4, 4, 8, 8, 4, 4)),)))
    for graph in (convert_graph(build_resnet50()), deploy, block):
        with pytest.raises(ShapeError, match="produced by conversion"):
            init_model_weights(graph, rng)


def test_forward_matches_after_graph_conversion():
    model = build_pure_mlp_cifar()
    rng = np.random.default_rng(21)
    weights = init_model_weights(model, rng, np.float64)
    x = rng.uniform(-1, 1, (2, 3, 32, 32))
    y = run_model(model, weights, x)
    assert y.shape == (2, 10)
    deploy = convert_graph(model)
    deploy_weights = convert_model_weights(model, weights)
    y2 = run_model(deploy, deploy_weights, x)
    np.testing.assert_allclose(y2, y, atol=1e-8, rtol=0)
    # an empty batch runs through every layer, flatten included
    assert run_model(model, weights, x[:0]).shape == (0, 10)
    assert run_model(deploy, deploy_weights, x[:0]).shape == (0, 10)


def test_forward_wide_convnet_and_residual_adds():
    model = build_wide_convnet()
    rng = np.random.default_rng(22)
    weights = init_model_weights(model, rng, np.float64)
    x = rng.uniform(-1, 1, (2, 3, 32, 32))
    assert run_model(model, weights, x).shape == (2, 10)
    assert run_model(model, weights, x[:0]).shape == (0, 10)

    # miniature residual tower exercises both shortcut kinds end to end
    from repmlp.models import _original_bottleneck
    layers = tuple(_original_bottleneck(8, 2, 1) + _original_bottleneck(8, 2, 1))
    tiny = Model("tiny", (8, 6, 6), layers)
    tw = init_model_weights(tiny, rng, np.float64)
    xt = rng.uniform(-1, 1, (3, 8, 6, 6))
    yt = run_model(tiny, tw, xt)
    deploy = convert_graph(tiny)
    yd = run_model(deploy, convert_model_weights(tiny, tw), xt)
    np.testing.assert_allclose(yd, yt, atol=1e-10, rtol=0)


def use_cpus(monkeypatch, cpus):
    """Make the library see cpus as the process's affinity set."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_thread_count_does_not_change_model_outputs(monkeypatch, name):
    # one thread runs the batch in line; two and three cut it into ragged
    # slices (3 -> 1+2 and 1+1+1, 5 -> 2+3 and 1+2+2). The RepMLP ResNets
    # take no resolution below 224: their block stages need maps that
    # their 7x7 tiles divide
    model = build_named_model(name, 224 if name.startswith("repmlp") else 32)
    rng = np.random.default_rng(28)
    weights = init_model_weights(model, rng)
    forms = {"train": (model, weights),
             "deploy": (convert_graph(model), convert_model_weights(model, weights))}
    for batch in (3, 5):
        x = rng.uniform(-1, 1, (batch,) + model.input_shape).astype(np.float32)
        for form, (graph, w) in forms.items():
            outputs = []
            for cpus in ({0}, {0, 1}, {0, 1, 2}):
                use_cpus(monkeypatch, cpus)
                outputs.append(run_model(graph, w, x).tobytes())
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0], (batch, form)


@pytest.mark.parametrize("cpus", [{0, 1}, {0, 1, 2}])
def test_error_in_a_worker_slice_keeps_its_type(monkeypatch, cpus):
    from repmlp import models
    model = build_wide_convnet()
    weights = init_model_weights(model, np.random.default_rng(28))
    x = np.zeros((5,) + model.input_shape, np.float32)
    first = 5 // len(cpus)
    real_conv2d = models.conv2d

    def conv2d_failing_off_the_first_slice(x, spec):
        if x.shape[0] != first:
            raise ShapeError("poisoned slice")
        return real_conv2d(x, spec)

    monkeypatch.setattr(models, "conv2d", conv2d_failing_off_the_first_slice)
    use_cpus(monkeypatch, cpus)
    before = threading.active_count()
    with pytest.raises(ShapeError, match="^poisoned slice$"):
        run_model(model, weights, x)
    assert threading.active_count() == before


def test_short_batches_and_non_arrays_run_in_line(monkeypatch):
    pools = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    use_cpus(monkeypatch, {0, 1, 2})
    model = build_wide_convnet()
    weights = init_model_weights(model, np.random.default_rng(28))
    x = np.zeros((2,) + model.input_shape, np.float32)
    before = threading.active_count()
    assert run_model(model, weights, x[:0]).shape == (0, 10)
    assert run_model(model, weights, x[:1]).shape == (1, 10)
    with pytest.raises(ShapeError, match="^input must be a numpy array$"):
        run_model(model, weights, x.tolist())
    assert pools == [] and threading.active_count() == before
    # a batch of two does split, so the counts above are not vacuous
    assert run_model(model, weights, x).shape == (2, 10)
    assert pools == [(1,)]


def test_no_affinity_call_means_one_cpu_and_no_pools(monkeypatch):
    # as on platforms without os.sched_getaffinity (macOS, Windows)
    pools = []

    def counting(base):
        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                pools.append(base.__name__)
                super().__init__(*args, **kwargs)
        return CountingPool

    for name in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
        monkeypatch.setattr(concurrent.futures, name,
                            counting(getattr(concurrent.futures, name)))
    model = build_wide_convnet()
    weights = init_model_weights(model, np.random.default_rng(28))
    x = np.zeros((3,) + model.input_shape, np.float32)
    grid = build_grid("quick")
    # with two CPUs both build a pool, so the count below is not vacuous
    use_cpus(monkeypatch, {0, 1})
    run_model(model, weights, x)
    run_equivalence(grid, 1, "f32")
    assert pools == ["ThreadPoolExecutor", "ProcessPoolExecutor"]
    pools.clear()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cpus() == 1
    assert run_model(model, weights, x).shape == (3, 10)
    report, ok = run_equivalence(grid, 1, "f32")
    assert ok and "configs=64" in report
    assert pools == []


def test_weight_trees_that_miss_the_graph_are_refused(monkeypatch):
    # a walk that stopped at the shorter of layers and weights would skip
    # the layers or add branches past its end and return a wrong output
    model = Model("mini", (2, 4, 4), (add_layer((conv_layer(2, 2, 1), RELU), ()),
                                      pool_layer("max", 2, 2), FLATTEN, fc_layer(8, 3)))
    weights = init_model_weights(model, np.random.default_rng(29))
    (body, shortcut), *rest = weights
    # short, long, a short add branch, an add branch missing
    trees = (weights[:-1], weights + [None], [(body[:-1], shortcut)] + rest, [(body,)] + rest)
    x = np.zeros((2,) + model.input_shape, np.float32)
    for cpus in ({0}, {0, 1}):
        use_cpus(monkeypatch, cpus)
        assert run_model(model, weights, x).shape == (2, 3)
        for tree in trees:
            with pytest.raises(ValueError, match="is (shorter|longer) than"):
                run_model(model, tree, x)
    for tree in trees:
        with pytest.raises(ValueError, match="is (shorter|longer) than"):
            convert_model_weights(model, tree)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_slices_run_under_the_callers_error_settings(monkeypatch, cpus):
    # the add doubles its input, which overflows float32 in the second
    # image only: with two CPUs, only the worker thread's slice overflows
    model = Model("double", (1, 1, 1), (add_layer((), ()),))
    weights = init_model_weights(model, np.random.default_rng(28))
    x = np.array([1.0, 3e38], np.float32).reshape(2, 1, 1, 1)
    use_cpus(monkeypatch, cpus)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
        run_model(model, weights, x)
    calls = []
    with np.errstate(over="call", call=lambda kind, flag: calls.append(kind)):
        y = run_model(model, weights, x)
    assert calls == ["overflow"] and y[0, 0, 0, 0] == 2 and np.isinf(y[1, 0, 0, 0])


def dyadic_model_weights(layers, rng):
    """Train-form weights for every layer of a graph, each array dyadic as
    conftest.dyadic draws it (blocks as dyadic_block_weights)."""
    weights = []
    for layer in layers:
        if layer.kind == "conv":
            i, o, k, p, g = (layer.attr(n) for n in ("in_ch", "out_ch", "k", "pad", "groups"))
            conv = ConvSpec(dyadic(rng, (o, i // g, k, k)), None, (p, p), g, layer.attr("stride"))
            weights.append((conv, dyadic_bn(rng, o)))
        elif layer.kind == "fc":
            d_in, d_out = layer.attr("in_dim"), layer.attr("out_dim")
            weights.append(FcSpec(dyadic(rng, (d_out, d_in)), dyadic(rng, d_out), 1))
        elif layer.kind == "repmlp_train":
            weights.append(dyadic_block_weights(layer.attr("cfg"), rng))
        elif layer.kind == "add":
            weights.append(tuple(dyadic_model_weights(b, rng) for b in layer.children))
        else:
            weights.append(None)
    return weights


def requantize(y):
    """One fixed map of every float onto j/8, j an integer in [-4, 3]; it
    reads ten fraction bits, so small outputs do not all map to one j."""
    return ((y * 1024).astype(np.int64) % 8 - 4) / 8


def lockstep(train, deploy, train_w, deploy_w, x, path, seen):
    """Step both forms of a graph one layer at a time from the same input.

    Each conv and block, the layers conversion rewrites, runs in both forms
    and appends (path, kind, outputs bit-equal) to seen; the other layers
    are one op on one input in both forms. The next layer reads the train
    output requantized, so every conv, FC and block input is dyadic, and a
    block input also gets its tile sums fixed. An add steps each branch
    from its input and sums the branch outputs."""
    for i, (tl, dl, tw, dw) in enumerate(zip(train, deploy, train_w, deploy_w)):
        if tl.kind == "add":
            y = sum(lockstep(tb, db, tbw, dbw, x, f"{path}{i}.{j}.", seen)
                    for j, (tb, db, tbw, dbw) in enumerate(zip(tl.children, dl.children, tw, dw)))
        else:
            if tl.kind == "repmlp_train":
                x = fix_tile_sums(x * 8, tl.attr("cfg"))
            y = _run_layers((tl,), [tw], x)
            if tl.kind in ("conv", "repmlp_train"):
                seen.append((f"{path}{i}", tl.kind,
                             np.array_equal(y, _run_layers((dl,), [dw], x))))
        x = requantize(y)
    return x


@pytest.mark.parametrize("name, res", [("resnet50", 32), ("wide-convnet", 32),
                                       ("pure-mlp-cifar", 32), ("repmlp-res50", 224)])
def test_model_forms_agree_layer_by_layer_exactly(name, res):
    # f64 on dyadic draws: no conv, FC or block of either form rounds (see
    # test_reparam.exact_cell), so the deploy form must give the train
    # form's bits after every conv and every block, strided convs and
    # residual branches too
    model = build_named_model(name, res)
    deploy = convert_graph(model)
    rng = np.random.default_rng(7)
    weights = dyadic_model_weights(model.layers, rng)
    deploy_weights = convert_model_weights(model, weights)
    seen = []
    lockstep(model.layers, deploy.layers, weights, deploy_weights,
             dyadic(rng, (1,) + model.input_shape), "", seen)
    kinds = [layer.kind for layer in walk_layers(model.layers)]
    assert len(seen) == kinds.count("conv") + kinds.count("repmlp_train") > 0
    assert [(p, kind) for p, kind, equal in seen if not equal] == []


def test_max_pool_matches_manual_windows():
    from repmlp.models import _max_pool
    rng = np.random.default_rng(23)
    # the res50 stem pool, the CIFAR pool, an unpadded odd case, stride-1
    # pools, and maps whose last window row or column the stride cuts off
    # (7 rows at k2 s2, 8 columns at k3 s2 p0). Half the maps hold planted
    # +0.0 / -0.0 ties: of equal maxima, the last in (row, column) tap order
    # wins, and comparing bytes pins that
    cases = ((3, 2, 1, 7, 9), (2, 2, 0, 7, 9), (3, 2, 0, 7, 9), (3, 1, 1, 7, 9),
             (1, 1, 0, 7, 9), (2, 2, 0, 7, 8), (3, 2, 0, 6, 8))
    for k, s, pad, h, w in cases:
        for dtype in (np.float32, np.float64):
            for ties in (False, True):
                x = rng.normal(size=(2, 3, h, w)).astype(dtype)
                if ties:
                    x = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0).astype(dtype)
                    x[rng.random(x.shape) < 0.2] = -1.0
                    assert np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()
                got = _max_pool(x, k, s, pad)
                xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                            constant_values=np.finfo(dtype).min)
                ho, wo = (h + 2 * pad - k) // s + 1, (w + 2 * pad - k) // s + 1
                want = np.empty((2, 3, ho, wo), dtype=dtype)
                for i in range(ho):
                    for j in range(wo):
                        win = xp[:, :, s * i:s * i + k, s * j:s * j + k].reshape(2, 3, k * k)
                        is_max = win == win.max(axis=2, keepdims=True)
                        last = k * k - 1 - np.argmax(is_max[:, :, ::-1], axis=2)
                        want[:, :, i, j] = np.take_along_axis(win, last[:, :, None], 2)[:, :, 0]
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (k, s, pad, h, w, dtype, ties)


def test_counting_rejects_mismatched_graphs():
    bad = Model("bad", (3, 8, 8), (conv_layer(4, 4, 1),))
    with pytest.raises(ShapeError):
        count_params(bad)
    bad2 = Model("bad2", (3, 8, 8), (fc_layer(10, 2),))
    with pytest.raises(ShapeError):
        count_flops(bad2)
    # an unknown kind never reaches the graph walks: every record is refused
    # when it is made, dataclasses.replace included
    with pytest.raises(ShapeError, match="unknown layer kind"):
        LayerSpec("bogus")
    with pytest.raises(ShapeError, match="unknown layer kind"):
        dataclasses.replace(RELU, kind="bogus")


def test_build_named_model_registry():
    assert set(MODEL_BUILDERS) == {
        "pure-mlp-cifar", "wide-convnet", "resnet50", "repmlp-res50",
        "repmlp-res50-c4-r4", "repmlp-res50-c4-r8", "repmlp-light-res50"}
    with pytest.raises(ShapeError):
        build_named_model("no-such-model", 224)
    m = build_named_model("resnet50", 320)
    assert m.input_shape == (3, 320, 320)


def test_resnet_alternate_resolution_uses_larger_tiles():
    model = MODEL_BUILDERS["repmlp-res50"](input_res=320)
    cfgs = [l.attr("cfg") for l in walk_layers(model.layers) if l.kind == "repmlp_train"]
    assert all(c.part_h == 10 and c.branch_kernels == (1, 3, 5, 7) for c in cfgs)
    assert {c.height for c in cfgs} == {40, 20}


def test_pool_layer_validation():
    with pytest.raises(ShapeError):
        pool_layer("median", 2, 2)
    for k, stride, pad in ((2, 0, 0), (0, 1, 0), (2.0, 2, 0), (2, 2.0, 0), (2, 2, 0.0),
                           (True, 1, 0), (2, True, 0), (3, 1, -1), (3, 1, 2), (1, 1, 1)):
        with pytest.raises(ShapeError):
            pool_layer("max", k, stride, pad)
    assert pool_layer("max", 3, 1, 1).attr("pad") == 1


def test_conv_and_fc_layer_validation():
    for in_ch, out_ch, k, stride, pad in (
            (3, 3, 3, 0, 0), (0, 3, 3, 1, 0), (3, 0, 3, 1, 0), (3, 3, 0, 1, 0),
            (3, 3, 3, 1, -1), (3, 3.0, 3, 1, 0), (3, 3, 3.0, 1, 0),
            (3, 3, 3, 1, 0.0), (True, 3, 1, 1, 0), (3, 3, 3, True, 0)):
        with pytest.raises(ShapeError):
            conv_layer(in_ch, out_ch, k, stride, pad)
    for in_dim, out_dim in ((0, 2), (2, 0), (2.0, 2), (2, True)):
        with pytest.raises(ShapeError):
            fc_layer(in_dim, out_dim)
    assert conv_layer(4, 6, 3, 2, 1).attr("groups") == 1
    # a 5x5 window fits a 4x4 map only once it is padded
    with pytest.raises(ShapeError):
        count_flops(Model("too-wide", (3, 4, 4), (conv_layer(3, 3, 5),)))
    fits = Model("fits", (3, 4, 4), (conv_layer(3, 3, 5, pad=1),))
    assert shape_of(fits) == ("map", 3, 2, 2)


def test_counting_rejects_bad_pools():
    from repmlp.models import FLATTEN, _max_pool
    on_vector = Model("pool-on-vector", (3, 8, 8), (FLATTEN, pool_layer("max", 2, 2)))
    avg_on_vector = Model("avg-on-vector", (3, 8, 8), (FLATTEN, pool_layer("global_avg")))
    too_wide = Model("too-wide", (3, 4, 4), (pool_layer("max", 5, 1),))
    for bad in (on_vector, avg_on_vector, too_wide):
        with pytest.raises(ShapeError):
            count_flops(bad)
    # a 5x5 window fits a 4x4 map padded by 2, and a 3x3 pad-1 window a 1x1 map
    for k, pad, size in ((5, 2, 4), (3, 1, 1)):
        fits = Model("fits", (3, size, size), (pool_layer("max", k, 1, pad),))
        assert shape_of(fits) == ("map", 3, size, size)
    with pytest.raises(ShapeError):
        _max_pool(np.ones((1, 1, 3, 3), np.float32), 6, 1, 0)
