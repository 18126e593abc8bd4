"""Model graphs: builders, parameter/FLOP accounting, and a small executor.

Graphs are flat sequences of LayerSpec records; residual blocks are an
``add`` layer whose children are branch sequences applied to the same
input (an empty branch is the identity shortcut). Builders emit training
form graphs (each conv record carries its BN: a bias-free conv followed by
that BN; blocks in train form); convert_graph produces the deployed
counterpart (BN folded into conv biases, blocks collapsed to their FC form).

Counting conventions: one multiply-accumulate = one FLOP, counted for conv
and FC kernels only, per image (N = 1); inference BN is counted as fused
(zero FLOPs; a train-form conv counts its BN's two affine vectors, which
in deploy form become the conv bias); pooling, ReLU, and elementwise adds
are free.

The hidden width of the per-tile global-path MLP is a calibration knob:
published totals for this family pin every other dimension but not that
width. Calibrated fixtures live in PURE_MLP_GP_WIDTH (flat width for the
CIFAR MLP) and _repmlp_bottleneck (width C * num_parts^2 for the ImageNet
variants, which reproduces published parameter totals to within 0.2%; the
per-tile MLP then costs num_parts times more FLOPs per parameter than the
published FLOP totals imply, an overshoot of 2.5-3.6% on stages with 16
tiles, reported rather than hidden).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .block import RepMLPConfig, _uniform, forward_train, random_conv_bn, random_train_weights
from .reparam import convert_block, forward_infer, fuse_bn_into_conv
from .tensor import (
    FcSpec,
    ShapeError,
    _is_int,
    avg_pool_global,
    batchnorm_inference,
    conv2d,
    grouped_fc,
)

LAYER_KINDS = ("conv", "fc", "pool", "relu", "flatten", "add",
               "repmlp_train", "repmlp_infer")

PURE_MLP_GP_WIDTH = 832


@dataclass(frozen=True)
class LayerSpec:
    """One graph record. attrs holds the kind-specific hyper-parameters;
    children holds branch sequences (add only)."""

    kind: str
    attrs: tuple = ()
    children: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        object.__setattr__(self, "attrs", tuple(sorted(self.attrs)))

    def attr(self, name):
        for key, value in self.attrs:
            if key == name:
                return value
        raise KeyError(name)


def _layer(kind: str, children: tuple = (), **attrs) -> LayerSpec:
    return LayerSpec(kind=kind, attrs=tuple(attrs.items()), children=children)


def _require_ints(layer: str, minimum: int, **values) -> None:
    for name, value in values.items():
        if not (_is_int(value) and value >= minimum):
            raise ShapeError(f"{layer} {name} must be an int >= {minimum}, got {value!r}")


def conv_layer(in_ch: int, out_ch: int, k: int, stride: int = 1, pad: int = 0,
               groups: int = 1) -> LayerSpec:
    """A train-form conv: a bias-free conv followed by its BN (bn=True in
    the record; convert_graph makes the bn=False deploy record, a conv with
    a bias). in_ch, out_ch, k, stride and groups are ints >= 1, pad an int
    >= 0, and groups divides both channel counts."""
    _require_ints("conv", 1, in_ch=in_ch, out_ch=out_ch, k=k, stride=stride, groups=groups)
    _require_ints("conv", 0, pad=pad)
    if in_ch % groups or out_ch % groups:
        raise ShapeError(f"conv groups {groups} must divide in_ch {in_ch} and out_ch {out_ch}")
    return _layer("conv", in_ch=in_ch, out_ch=out_ch, k=k, stride=stride,
                  pad=pad, groups=groups, bn=True)


def fc_layer(in_dim: int, out_dim: int) -> LayerSpec:
    """A dense FC with a bias; both dims are ints >= 1."""
    _require_ints("fc", 1, in_dim=in_dim, out_dim=out_dim)
    return _layer("fc", in_dim=in_dim, out_dim=out_dim)


def pool_layer(op: str, k: int = 1, stride: int = 1, pad: int = 0) -> LayerSpec:
    """k, stride and pad are ints with k >= 1, stride >= 1 and
    0 <= pad <= k // 2, so that every window holds an input pixel."""
    if op not in ("max", "global_avg"):
        raise ShapeError(f"unknown pool op {op!r}")
    _require_ints("pool", 1, k=k, stride=stride)
    if not (_is_int(pad) and 0 <= pad <= k // 2):
        raise ShapeError(f"pool pad must be an int in [0, k // 2], got {pad!r}")
    return _layer("pool", op=op, k=k, stride=stride, pad=pad)


def repmlp_layer(cfg: RepMLPConfig, form: str = "train") -> LayerSpec:
    kind = {"train": "repmlp_train", "infer": "repmlp_infer"}[form]
    return _layer(kind, cfg=cfg)


def add_layer(*branches: tuple) -> LayerSpec:
    return LayerSpec(kind="add", children=tuple(tuple(b) for b in branches))


RELU = _layer("relu")
FLATTEN = _layer("flatten")


@dataclass(frozen=True)
class Model:
    name: str
    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]


# ---------------------------------------------------------------------------
# accounting


def block_params(cfg: RepMLPConfig, form: str) -> int:
    """Parameter count of one block; BN counts its two affine vectors."""
    c, o, g, d = cfg.in_channels, cfg.out_channels, cfg.groups, cfg.gp_hidden
    q, p = cfg.fc_out_dim, cfg.fc_in_dim
    total = q * (p // g)
    if form == "train":
        total += 2 * q
        for k in cfg.branch_kernels:
            total += o * (c // g) * k * k + 2 * o
        if cfg.has_global_path:
            total += 2 * c
    elif form == "infer":
        total += q
    else:
        raise ShapeError(f"unknown form {form!r}")
    if cfg.has_global_path:
        total += c * d + d + d * c + c
    return total


def block_flops(cfg: RepMLPConfig, form: str) -> int:
    """Per-image MACs of one block at its configured resolution."""
    c, o, g = cfg.in_channels, cfg.out_channels, cfg.groups
    q, p = cfg.fc_out_dim, cfg.fc_in_dim
    per_tile = q * (p // g)
    if form == "train":
        for k in cfg.branch_kernels:
            per_tile += o * (c // g) * k * k * cfg.part_h * cfg.part_w
    elif form != "infer":
        raise ShapeError(f"unknown form {form!r}")
    if cfg.has_global_path:
        per_tile += 2 * c * cfg.gp_hidden
    return cfg.num_parts * per_tile


def _window_out(kind: str, h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    """Output size of k x k windows over an (h, w) map padded by pad."""
    hp, wp = h + 2 * pad, w + 2 * pad
    if k > min(hp, wp):
        raise ShapeError(f"{kind} window {k} larger than padded map ({hp}, {wp})")
    return (hp - k) // stride + 1, (wp - k) // stride + 1


def _analyze(layers, shape) -> tuple[int, int, tuple]:
    params = 0
    flops = 0
    for layer in layers:
        kind = layer.kind
        if kind == "conv":
            if shape[0] != "map":
                raise ShapeError("conv applied to a non-map input")
            _, c, h, w = shape
            in_ch, out_ch = layer.attr("in_ch"), layer.attr("out_ch")
            if c != in_ch:
                raise ShapeError(f"conv expects {in_ch} channels, got {c}")
            k, s, p, g = (layer.attr(n) for n in ("k", "stride", "pad", "groups"))
            ho, wo = _window_out("conv", h, w, k, s, p)
            weights = out_ch * (in_ch // g) * k * k
            params += weights + out_ch * (2 if layer.attr("bn") else 1)
            flops += weights * ho * wo
            shape = ("map", out_ch, ho, wo)
        elif kind == "fc":
            in_dim, out_dim = layer.attr("in_dim"), layer.attr("out_dim")
            if shape != ("vec", in_dim):
                raise ShapeError(f"fc expects flat {in_dim}, got {shape}")
            params += in_dim * out_dim + out_dim
            flops += in_dim * out_dim
            shape = ("vec", out_dim)
        elif kind == "pool":
            if shape[0] != "map":
                raise ShapeError("pool applied to a non-map input")
            _, c, h, w = shape
            if layer.attr("op") == "global_avg":
                shape = ("map", c, 1, 1)
            else:
                k, s, p = (layer.attr(n) for n in ("k", "stride", "pad"))
                shape = ("map", c) + _window_out("pool", h, w, k, s, p)
        elif kind == "relu":
            pass
        elif kind == "flatten":
            if shape[0] != "map":
                raise ShapeError("flatten applied twice")
            shape = ("vec", shape[1] * shape[2] * shape[3])
        elif kind in ("repmlp_train", "repmlp_infer"):
            cfg: RepMLPConfig = layer.attr("cfg")
            if shape != ("map", cfg.in_channels, cfg.height, cfg.width):
                raise ShapeError(f"block expects {cfg.in_channels}x{cfg.height}x{cfg.width}, got {shape}")
            form = "train" if kind == "repmlp_train" else "infer"
            params += block_params(cfg, form)
            flops += block_flops(cfg, form)
            shape = ("map", cfg.out_channels, cfg.height, cfg.width)
        elif kind == "add":
            outs = []
            for branch in layer.children:
                bp, bf, bshape = _analyze(branch, shape)
                params += bp
                flops += bf
                outs.append(bshape)
            if len(set(outs)) != 1:
                raise ShapeError(f"add branches disagree on shape: {outs}")
            shape = outs[0]
        else:
            raise ShapeError(f"unknown layer kind {kind!r}")
    return params, flops, shape


def count_params(model: Model) -> int:
    params, _, _ = _analyze(model.layers, ("map",) + model.input_shape)
    return params


def count_flops(model: Model) -> int:
    _, flops, _ = _analyze(model.layers, ("map",) + model.input_shape)
    return flops


# ---------------------------------------------------------------------------
# deploy-form conversion (structure and weights)


def _convert_layers(layers: tuple) -> tuple:
    out = []
    for layer in layers:
        if layer.kind == "conv":
            out.append(_layer("conv", **dict(layer.attrs, bn=False)))
        elif layer.kind == "repmlp_train":
            out.append(repmlp_layer(layer.attr("cfg"), "infer"))
        elif layer.kind == "add":
            out.append(add_layer(*(_convert_layers(b) for b in layer.children)))
        else:
            out.append(layer)
    return tuple(out)


def convert_graph(model: Model) -> Model:
    """Deploy-form graph: BN folded into conv biases, blocks in FC form."""
    return Model(name=model.name, input_shape=model.input_shape,
                 layers=_convert_layers(model.layers))


def _init_layers(layers, rng, dtype):
    weights = []
    for layer in layers:
        if layer.kind == "conv" and layer.attr("bn"):
            weights.append(random_conv_bn(rng, *(layer.attr(n) for n in (
                "in_ch", "out_ch", "k", "pad", "groups", "stride")), dtype))
        elif layer.kind == "fc":
            d_in, d_out = layer.attr("in_dim"), layer.attr("out_dim")
            bias = _uniform(rng, d_out, -0.5, 0.5, dtype)
            weights.append(FcSpec(_uniform(rng, (d_out, d_in), -0.5, 0.5, dtype), bias, 1))
        elif layer.kind == "repmlp_train":
            weights.append(random_train_weights(layer.attr("cfg"), rng, dtype))
        elif layer.kind in ("conv", "repmlp_infer"):
            raise ShapeError("deploy-form layers are produced by conversion, not initialized")
        elif layer.kind == "add":
            weights.append(tuple(_init_layers(b, rng, dtype) for b in layer.children))
        else:
            weights.append(None)
    return weights


def init_model_weights(model: Model, rng: np.random.Generator, dtype=np.float32) -> list:
    """Random train-form weights aligned one-to-one with model.layers, drawn
    from rng. A deploy-form graph raises ShapeError: its weights come from
    convert_model_weights."""
    return _init_layers(model.layers, rng, np.dtype(dtype).type)


def _convert_weights(layers, weights):
    out = []
    for layer, w in zip(layers, weights):
        if layer.kind == "conv" and layer.attr("bn"):
            out.append(fuse_bn_into_conv(*w))
        elif layer.kind == "repmlp_train":
            out.append(convert_block(layer.attr("cfg"), w))
        elif layer.kind == "add":
            out.append(tuple(_convert_weights(b, bw) for b, bw in zip(layer.children, w)))
        else:
            out.append(w)
    return out


def convert_model_weights(model: Model, weights: list) -> list:
    """Weights for convert_graph(model), folded from train-form weights."""
    return _convert_weights(model.layers, weights)


def _max_pool(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Max over each k x k window at the given stride, padded with the
    dtype's lowest finite value. The result starts as a copy of the first
    tap and takes one np.maximum per further tap, in (row, column) order."""
    ho, wo = _window_out("max pool", x.shape[2], x.shape[3], k, stride, pad)
    if pad:
        fill = np.finfo(x.dtype).min
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=fill)
    taps = [x[:, :, i:i + stride * (ho - 1) + 1:stride, j:j + stride * (wo - 1) + 1:stride]
            for i in range(k) for j in range(k)]
    out = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(out, tap, out=out)
    return out


def _run_layers(layers, weights, x):
    for layer, w in zip(layers, weights):
        kind = layer.kind
        if kind == "conv":
            conv, bn = w if layer.attr("bn") else (w, None)
            x = conv2d(x, conv)
            if bn is not None:
                x = batchnorm_inference(x, bn)
        elif kind == "fc":
            x = grouped_fc(x, w)
        elif kind == "pool":
            if layer.attr("op") == "global_avg":
                x = avg_pool_global(x)
            else:
                x = _max_pool(x, layer.attr("k"), layer.attr("stride"), layer.attr("pad"))
        elif kind == "relu":
            x = np.maximum(x, x.dtype.type(0))
        elif kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        elif kind == "repmlp_train":
            x = forward_train(x, layer.attr("cfg"), w)
        elif kind == "repmlp_infer":
            x = forward_infer(x, layer.attr("cfg"), w)
        elif kind == "add":
            acc = None
            for branch, bw in zip(layer.children, w):
                y = _run_layers(branch, bw, x)
                acc = y if acc is None else acc + y
            x = acc
        else:
            raise ShapeError(f"unknown layer kind {kind!r}")
    return x


def run_model(model: Model, weights: list, x: np.ndarray) -> np.ndarray:
    """Execute a graph of either form on a batch; returns its last layer's output."""
    return _run_layers(model.layers, weights, x)


# ---------------------------------------------------------------------------
# builders


def _conv_bn_relu(in_ch, out_ch, k, stride=1, pad=0, relu=True):
    return [conv_layer(in_ch, out_ch, k, stride, pad)] + ([RELU] if relu else [])


def _cifar_net(name: str, chans: tuple[int, ...], unit, input_res: int) -> Model:
    """The CIFAR skeleton: a 1x1 stem, then per stage unit, a 1x1 conv and
    unit again, with a 1x1 widening and a 2x2 max-pool between stages, and
    a 10-way FC head. unit(c, res) is the stage body at c channels."""
    if input_res != 32:
        raise ShapeError(f"{name} is defined for 32x32 inputs")
    layers = _conv_bn_relu(3, chans[0], 1)
    res = input_res
    for si, c in enumerate(chans):
        body = unit(c, res)
        layers += body + _conv_bn_relu(c, c, 1) + body
        if si + 1 < len(chans):
            layers += _conv_bn_relu(c, chans[si + 1], 1) + [pool_layer("max", 2, 2)]
            res //= 2
    layers += [FLATTEN, fc_layer(chans[-1] * res * res, 10)]
    return Model(name, (3, input_res, input_res), tuple(layers))


def build_pure_mlp_cifar(input_res: int = 32) -> Model:
    """All-FC CIFAR classifier: each stage body is a block (8x8 tiles,
    2 FC groups, branches {1,3,5,7}) and a ReLU."""
    def unit(c, res):
        cfg = RepMLPConfig(c, c, res, res, 8, 8, groups=2, branch_kernels=(1, 3, 5, 7),
                           gp_internal_dim=PURE_MLP_GP_WIDTH)
        return [repmlp_layer(cfg), RELU]
    return _cifar_net("pure-mlp-cifar", (16, 32, 64), unit, input_res)


def build_wide_convnet(input_res: int = 32) -> Model:
    """Conv counterpart of the CIFAR MLP: doubled channels, each block
    replaced by a 3x3 conv."""
    return _cifar_net("wide-convnet", (32, 64, 128),
                      lambda c, res: _conv_bn_relu(c, c, 3, pad=1), input_res)


# stage: (bottlenecks, planes) of the 50-layer residual net
_RESNET50_STAGES = {"c2": (3, 64), "c3": (4, 128), "c4": (6, 256), "c5": (3, 512)}


def _original_bottleneck(in_ch: int, planes: int, stride: int) -> list[LayerSpec]:
    out_ch = 4 * planes
    body = (_conv_bn_relu(in_ch, planes, 1)
            + _conv_bn_relu(planes, planes, 3, stride, 1)
            + _conv_bn_relu(planes, out_ch, 1, relu=False))
    if stride != 1 or in_ch != out_ch:
        shortcut = _conv_bn_relu(in_ch, out_ch, 1, stride, relu=False)
    else:
        shortcut = []
    return [add_layer(body, shortcut), RELU]


def _repmlp_bottleneck(in_ch: int, planes: int, reduction: int | str, res: int, tile: int,
                       branch_kernels: tuple[int, ...]) -> list[LayerSpec]:
    """A stride-1 bottleneck whose middle is a block with 8 FC groups.

    An int reduction r squeezes planes to planes / r with a 3x3 conv on
    either side of the block; "light" squeezes in_ch 8x with 1x1 convs only.
    The global-path width is C * num_parts^2, the calibration fixture."""
    mid = in_ch // 8 if reduction == "light" else planes // reduction
    parts = (res // tile) ** 2
    cfg = RepMLPConfig(mid, mid, res, res, tile, tile, groups=8, branch_kernels=branch_kernels,
                       gp_internal_dim=mid * parts * parts)
    block = [repmlp_layer(cfg), RELU]
    if reduction == "light":
        body = _conv_bn_relu(in_ch, mid, 1) + block + _conv_bn_relu(mid, in_ch, 1, relu=False)
    else:
        body = (_conv_bn_relu(in_ch, planes, 1)
                + _conv_bn_relu(planes, mid, 3, pad=1)
                + block
                + _conv_bn_relu(mid, planes, 3, pad=1)
                + _conv_bn_relu(planes, in_ch, 1, relu=False))
    return [add_layer(body, []), RELU]


def build_resnet50(stages: dict[str, int | str] | None = None,
                   input_res: int = 224) -> Model:
    """50-layer residual net with optional per-stage block replacement.

    stages maps a stage name (c2 to c5) to the reduction r in {2, 4, 8} of
    its RepMLP bottlenecks, or to "light" for the light block. Only
    non-downsampling bottlenecks (stride 1, matching channels) are
    replaced; the first bottleneck of each stage stays original. Tiles are
    7x7 with branch kernels {1,3,5} at 224 input, 10x10 with {1,3,5,7} at
    320.
    """
    stages = stages or {}
    for stage, reduction in stages.items():
        if stage not in _RESNET50_STAGES:
            raise ShapeError(f"unknown stage {stage!r}; stages are c2, c3, c4, c5")
        if reduction != "light" and not (_is_int(reduction) and reduction in (2, 4, 8)):
            raise ShapeError(f"stage {stage} reduction must be 2, 4, 8 or 'light', "
                             f"got {reduction!r}")
    if input_res < 32 or input_res % 32:
        raise ShapeError("input resolution must be a positive multiple of 32")
    tile, branch_kernels = (10, (1, 3, 5, 7)) if input_res >= 320 else (7, (1, 3, 5))
    layers = _conv_bn_relu(3, 64, 7, 2, 3) + [pool_layer("max", 3, 2, 1)]
    res = input_res // 4
    in_ch = 64
    for stage, (blocks, planes) in _RESNET50_STAGES.items():
        stride = 1 if stage == "c2" else 2
        res //= stride
        reduction = stages.get(stage)
        if reduction is not None and res % tile:
            raise ShapeError(f"stage {stage} resolution {res} not divisible by tile {tile}")
        layers += _original_bottleneck(in_ch, planes, stride)
        in_ch = 4 * planes
        for _ in range(blocks - 1):
            if reduction is None:
                layers += _original_bottleneck(in_ch, planes, 1)
            else:
                layers += _repmlp_bottleneck(in_ch, planes, reduction, res, tile, branch_kernels)
    layers += [pool_layer("global_avg"), FLATTEN, fc_layer(in_ch, 1000)]
    # the light tag keeps r4, the reduction its name has always carried
    tags = [f"{stage}-light-r4g8" if stages[stage] == "light"
            else f"{stage}-repmlp-r{stages[stage]}g8"
            for stage in _RESNET50_STAGES if stage in stages]
    name = f"resnet50[{','.join(tags)}]" if tags else "resnet50"
    return Model(name, (3, input_res, input_res), tuple(layers))


MODEL_BUILDERS = {
    "pure-mlp-cifar": build_pure_mlp_cifar,
    "wide-convnet": build_wide_convnet,
    "resnet50": build_resnet50,
    # the main ImageNet variant: blocks in c3 (r = 2) and c4 (r = 4)
    "repmlp-res50": partial(build_resnet50, {"c3": 2, "c4": 4}),
    "repmlp-res50-c4-r4": partial(build_resnet50, {"c4": 4}),
    "repmlp-res50-c4-r8": partial(build_resnet50, {"c4": 8}),
    # light blocks in c3 and c4: an 8x 1x1 squeeze and no 3x3 convs
    "repmlp-light-res50": partial(build_resnet50, {"c3": "light", "c4": "light"}),
}


def build_named_model(name: str, input_res: int) -> Model:
    if name not in MODEL_BUILDERS:
        known = ", ".join(sorted(MODEL_BUILDERS))
        raise ShapeError(f"unknown model {name!r}; known models: {known}")
    return MODEL_BUILDERS[name](input_res=input_res)
