"""Model graphs: builders, parameter/FLOP accounting, and a small executor.

Graphs are flat sequences of LayerSpec records; residual blocks are an
``add`` layer whose children are branch sequences applied to the same
input (an empty branch is the identity shortcut). Builders emit training
form graphs (bias-free convs followed by BN, blocks in train form);
convert_graph produces the deployed counterpart (BN folded into conv
biases, blocks collapsed to their FC form).

Counting conventions: one multiply-accumulate = one FLOP, counted for conv
and FC kernels only, per image (N = 1); inference BN is counted as fused
(zero FLOPs, and in deploy form its parameters become conv biases);
pooling, ReLU, and elementwise adds are free.

The hidden width of the per-tile global-path MLP is a calibration knob:
published totals for this family pin every other dimension but not that
width. Calibrated fixtures live in PURE_MLP_GP_WIDTH (flat width for the
CIFAR MLP) and resnet_gp_width (width C * num_parts^2 for the ImageNet
variants, which reproduces published parameter totals to within 0.2%; the
per-tile MLP then costs num_parts times more FLOPs per parameter than the
published FLOP totals imply, an overshoot of 2.5-3.6% on stages with 16
tiles, reported rather than hidden).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block import (
    RepMLPConfig,
    RepMLPTrainWeights,
    forward_train,
    random_bn,
    random_train_weights,
)
from .reparam import RepMLPInferWeights, convert_block, forward_infer, fuse_bn_into_conv
from .tensor import (
    BnParams,
    ConvSpec,
    FcSpec,
    ShapeError,
    avg_pool_global,
    batchnorm_inference,
    conv2d,
    grouped_fc,
)

LAYER_KINDS = ("conv", "fc", "bn", "pool", "relu", "flatten", "add",
               "repmlp_train", "repmlp_infer")

PURE_MLP_GP_WIDTH = 832


def resnet_gp_width(channels: int, num_parts: int) -> int:
    """Calibrated global-path hidden width for the ImageNet variants."""
    return channels * num_parts * num_parts


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


def conv_layer(in_ch: int, out_ch: int, k: int, stride: int = 1, pad: int = 0,
               groups: int = 1, bias: bool = False) -> LayerSpec:
    return _layer("conv", in_ch=in_ch, out_ch=out_ch, k=k, stride=stride,
                  pad=pad, groups=groups, bias=bias)


def bn_layer(features: int) -> LayerSpec:
    return _layer("bn", features=features)


def fc_layer(in_dim: int, out_dim: int, bias: bool = True) -> LayerSpec:
    return _layer("fc", in_dim=in_dim, out_dim=out_dim, bias=bias)


def pool_layer(op: str, k: int = 1, stride: int = 1, pad: int = 0) -> LayerSpec:
    if op not in ("max", "global_avg"):
        raise ShapeError(f"unknown pool op {op!r}")
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


def _pool_out(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


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
            ho, wo = _pool_out(h, k, s, p), _pool_out(w, k, s, p)
            weights = out_ch * (in_ch // g) * k * k
            params += weights + (out_ch if layer.attr("bias") else 0)
            flops += weights * ho * wo
            shape = ("map", out_ch, ho, wo)
        elif kind == "bn":
            if shape[0] != "map" or shape[1] != layer.attr("features"):
                raise ShapeError("bn feature mismatch")
            params += 2 * layer.attr("features")
        elif kind == "fc":
            in_dim, out_dim = layer.attr("in_dim"), layer.attr("out_dim")
            if shape != ("vec", in_dim):
                raise ShapeError(f"fc expects flat {in_dim}, got {shape}")
            params += in_dim * out_dim + (out_dim if layer.attr("bias") else 0)
            flops += in_dim * out_dim
            shape = ("vec", out_dim)
        elif kind == "pool":
            _, c, h, w = shape
            if layer.attr("op") == "global_avg":
                shape = ("map", c, 1, 1)
            else:
                k, s, p = (layer.attr(n) for n in ("k", "stride", "pad"))
                shape = ("map", c, _pool_out(h, k, s, p), _pool_out(w, k, s, p))
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


def output_shape(model: Model) -> tuple:
    _, _, shape = _analyze(model.layers, ("map",) + model.input_shape)
    return shape


# ---------------------------------------------------------------------------
# deploy-form conversion (structure and weights)


def _convert_layers(layers: tuple) -> tuple:
    out = []
    i = 0
    while i < len(layers):
        layer = layers[i]
        if layer.kind == "conv":
            nxt = layers[i + 1] if i + 1 < len(layers) else None
            if nxt is None or nxt.kind != "bn":
                raise ShapeError("train-form conv must be followed by bn")
            out.append(conv_layer(layer.attr("in_ch"), layer.attr("out_ch"), layer.attr("k"),
                                  layer.attr("stride"), layer.attr("pad"), layer.attr("groups"),
                                  bias=True))
            i += 2
            continue
        if layer.kind == "bn":
            raise ShapeError("bn without a preceding conv cannot be folded")
        if layer.kind == "repmlp_train":
            out.append(repmlp_layer(layer.attr("cfg"), "infer"))
        elif layer.kind == "add":
            out.append(add_layer(*(_convert_layers(b) for b in layer.children)))
        else:
            out.append(layer)
        i += 1
    return tuple(out)


def convert_graph(model: Model) -> Model:
    """Deploy-form graph: BN folded into conv biases, blocks in FC form."""
    return Model(name=model.name, input_shape=model.input_shape,
                 layers=_convert_layers(model.layers))


def _init_layers(layers, rng, dtype):
    weights = []
    for layer in layers:
        if layer.kind == "conv":
            g = layer.attr("groups")
            shape = (layer.attr("out_ch"), layer.attr("in_ch") // g, layer.attr("k"), layer.attr("k"))
            bias = (rng.uniform(-0.5, 0.5, layer.attr("out_ch")).astype(dtype)
                    if layer.attr("bias") else None)
            weights.append(ConvSpec(rng.uniform(-0.5, 0.5, shape).astype(dtype), bias,
                                    (layer.attr("pad"), layer.attr("pad")), g))
        elif layer.kind == "bn":
            weights.append(random_bn(rng, layer.attr("features"), dtype))
        elif layer.kind == "fc":
            d_in, d_out = layer.attr("in_dim"), layer.attr("out_dim")
            bias = rng.uniform(-0.5, 0.5, d_out).astype(dtype) if layer.attr("bias") else None
            weights.append(FcSpec(rng.uniform(-0.5, 0.5, (d_out, d_in)).astype(dtype),
                                  bias, 1, d_in, d_out))
        elif layer.kind == "repmlp_train":
            weights.append(random_train_weights(layer.attr("cfg"), rng, dtype))
        elif layer.kind == "repmlp_infer":
            raise ShapeError("infer-form blocks are produced by conversion, not initialized")
        elif layer.kind == "add":
            weights.append(tuple(_init_layers(b, rng, dtype) for b in layer.children))
        else:
            weights.append(None)
    return weights


def init_model_weights(model: Model, rng: np.random.Generator, dtype=np.float32) -> list:
    """Random weights aligned one-to-one with model.layers (tests only)."""
    return _init_layers(model.layers, rng, np.dtype(dtype).type)


def _convert_weights(layers, weights):
    out = []
    i = 0
    while i < len(layers):
        layer = layers[i]
        if layer.kind == "conv":
            out.append(fuse_bn_into_conv(weights[i], weights[i + 1]))
            i += 2
            continue
        if layer.kind == "repmlp_train":
            out.append(convert_block(layer.attr("cfg"), weights[i]))
        elif layer.kind == "add":
            out.append(tuple(_convert_weights(b, bw)
                             for b, bw in zip(layer.children, weights[i])))
        else:
            out.append(weights[i])
        i += 1
    return out


def convert_model_weights(model: Model, weights: list) -> list:
    """Weights for convert_graph(model), folded from train-form weights."""
    return _convert_weights(model.layers, weights)


def _max_pool(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    n, c, h, w = x.shape
    if pad:
        fill = np.finfo(x.dtype).min
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=fill)
        h, w = h + 2 * pad, w + 2 * pad
    ho, wo = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.empty((n, c, ho, wo), dtype=x.dtype)
    for i in range(ho):
        for j in range(wo):
            win = x[:, :, i * stride:i * stride + k, j * stride:j * stride + k]
            out[:, :, i, j] = win.max(axis=(2, 3))
    return out


def _run_layers(layers, weights, x):
    for layer, w in zip(layers, weights):
        kind = layer.kind
        if kind == "conv":
            y = conv2d(x, w)
            s = layer.attr("stride")
            x = y if s == 1 else y[:, :, ::s, ::s]
        elif kind == "bn":
            x = batchnorm_inference(x, w)
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
                y = x if len(branch) == 0 else _run_layers(branch, bw, x)
                acc = y if acc is None else acc + y
            x = acc
        else:
            raise ShapeError(f"unknown layer kind {kind!r}")
    return x


def run_model(model: Model, weights: list, x: np.ndarray) -> np.ndarray:
    """Execute a graph on a batch. Intended for small smoke-test graphs."""
    return _run_layers(model.layers, weights, x)


def format_graph(model: Model) -> str:
    """Human-readable structured text: one layer per record."""
    lines = [f"model {model.name} input "
             f"{model.input_shape[0]}x{model.input_shape[1]}x{model.input_shape[2]}"]

    def emit(layers, depth):
        ind = "  " * depth
        for layer in layers:
            if layer.kind == "add":
                lines.append(f"{ind}add branches={len(layer.children)}")
                for bi, branch in enumerate(layer.children):
                    label = "identity" if len(branch) == 0 else f"{len(branch)} layers"
                    lines.append(f"{ind}  branch {bi}: {label}")
                    emit(branch, depth + 2)
            elif layer.kind in ("repmlp_train", "repmlp_infer"):
                cfg: RepMLPConfig = layer.attr("cfg")
                ks = ",".join(str(k) for k in cfg.branch_kernels) or "-"
                gp = f" gp_hidden={cfg.gp_hidden}" if cfg.has_global_path else ""
                lines.append(
                    f"{ind}{layer.kind} in={cfg.in_channels} out={cfg.out_channels} "
                    f"image={cfg.height}x{cfg.width} tile={cfg.part_h}x{cfg.part_w} "
                    f"groups={cfg.groups} branches={ks}{gp}")
            else:
                parts = [layer.kind]
                for key, value in layer.attrs:
                    parts.append(f"{key}={value}")
                lines.append(ind + " ".join(parts))

    emit(model.layers, 1)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# builders


def _conv_bn_relu(in_ch, out_ch, k, stride=1, pad=0, relu=True):
    layers = [conv_layer(in_ch, out_ch, k, stride, pad), bn_layer(out_ch)]
    if relu:
        layers.append(RELU)
    return layers


def _cifar_block_cfg(channels: int, res: int, gp_width: int) -> RepMLPConfig:
    return RepMLPConfig(
        in_channels=channels, out_channels=channels, height=res, width=res,
        part_h=8, part_w=8, groups=2, branch_kernels=(1, 3, 5, 7),
        gp_internal_dim=gp_width)


def build_pure_mlp_cifar(input_res: int = 32, num_classes: int = 10,
                         gp_width: int = PURE_MLP_GP_WIDTH) -> Model:
    """All-FC CIFAR classifier: three stages of blocks interleaved with 1x1
    FC projections, max-pool downsampling, 8x8 tiles, 2 FC groups."""
    if input_res != 32:
        raise ShapeError("the CIFAR MLP is defined for 32x32 inputs")
    chans = (16, 32, 64)
    layers: list[LayerSpec] = []
    layers += _conv_bn_relu(3, chans[0], 1)
    res = input_res
    for si, c in enumerate(chans):
        cfg = _cifar_block_cfg(c, res, gp_width)
        layers += [repmlp_layer(cfg), RELU]
        layers += _conv_bn_relu(c, c, 1)
        layers += [repmlp_layer(cfg), RELU]
        if si < 2:
            layers += _conv_bn_relu(c, chans[si + 1], 1)
            layers.append(pool_layer("max", 2, 2))
            res //= 2
    layers.append(FLATTEN)
    layers.append(fc_layer(chans[-1] * res * res, num_classes))
    return Model("pure-mlp-cifar", (3, input_res, input_res), tuple(layers))


def build_wide_convnet(input_res: int = 32, num_classes: int = 10) -> Model:
    """Conv counterpart of the CIFAR MLP: same skeleton, doubled channels,
    each block replaced by a 3x3 conv."""
    if input_res != 32:
        raise ShapeError("the wide convnet is defined for 32x32 inputs")
    chans = (32, 64, 128)
    layers: list[LayerSpec] = []
    layers += _conv_bn_relu(3, chans[0], 1)
    res = input_res
    for si, c in enumerate(chans):
        layers += _conv_bn_relu(c, c, 3, pad=1)
        layers += _conv_bn_relu(c, c, 1)
        layers += _conv_bn_relu(c, c, 3, pad=1)
        if si < 2:
            layers += _conv_bn_relu(c, chans[si + 1], 1)
            layers.append(pool_layer("max", 2, 2))
            res //= 2
    layers.append(FLATTEN)
    layers.append(fc_layer(chans[-1] * res * res, num_classes))
    return Model("wide-convnet", (3, input_res, input_res), tuple(layers))


@dataclass(frozen=True)
class BottleneckConfig:
    """Per-stage replacement recipe for the 50-layer residual net."""

    variant: str = "original"       # original | repmlp_bottleneck | repmlp_light
    reduction: int = 4              # r: extra channel squeeze around the block
    groups: int = 8                 # block FC groups

    def __post_init__(self) -> None:
        if self.variant not in ("original", "repmlp_bottleneck", "repmlp_light"):
            raise ShapeError(f"unknown bottleneck variant {self.variant!r}")
        if self.reduction not in (2, 4, 8):
            raise ShapeError("reduction must be 2, 4, or 8")


_RESNET50_BLOCKS = {"c2": 3, "c3": 4, "c4": 6, "c5": 3}
_RESNET50_PLANES = {"c2": 64, "c3": 128, "c4": 256, "c5": 512}


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


def _block_cfg(channels: int, res: int, tile: int, groups: int,
               branch_kernels: tuple[int, ...]) -> RepMLPConfig:
    parts = (res // tile) * (res // tile)
    return RepMLPConfig(
        in_channels=channels, out_channels=channels, height=res, width=res,
        part_h=tile, part_w=tile, groups=groups, branch_kernels=branch_kernels,
        gp_internal_dim=resnet_gp_width(channels, parts))


def _repmlp_bottleneck(in_ch: int, planes: int, bc: BottleneckConfig, res: int,
                       tile: int, branch_kernels) -> list[LayerSpec]:
    mid = planes // bc.reduction
    if mid < 1 or planes % bc.reduction:
        raise ShapeError(f"reduction {bc.reduction} does not divide planes {planes}")
    cfg = _block_cfg(mid, res, tile, bc.groups, branch_kernels)
    body = (_conv_bn_relu(in_ch, planes, 1)
            + _conv_bn_relu(planes, mid, 3, pad=1)
            + [repmlp_layer(cfg), RELU]
            + _conv_bn_relu(mid, planes, 3, pad=1)
            + _conv_bn_relu(planes, 4 * planes, 1, relu=False))
    return [add_layer(body, []), RELU]


def _light_block(in_ch: int, bc: BottleneckConfig, res: int, tile: int,
                 branch_kernels) -> list[LayerSpec]:
    mid = in_ch // 8
    cfg = _block_cfg(mid, res, tile, bc.groups, branch_kernels)
    body = (_conv_bn_relu(in_ch, mid, 1)
            + [repmlp_layer(cfg), RELU]
            + _conv_bn_relu(mid, in_ch, 1, relu=False))
    return [add_layer(body, []), RELU]


def build_resnet50(stage_variants: dict[str, BottleneckConfig] | None = None,
                   input_res: int = 224, num_classes: int = 1000) -> Model:
    """50-layer residual net with optional per-stage block replacement.

    Only non-downsampling bottlenecks (stride 1, matching channels) are
    replaced; the first bottleneck of each stage stays original. Tiles are
    7x7 with branch kernels {1,3,5} at 224 input, 10x10 with {1,3,5,7} at
    320.
    """
    stage_variants = stage_variants or {}
    if input_res % 32:
        raise ShapeError("input resolution must be a multiple of 32")
    tile, branch_kernels = (10, (1, 3, 5, 7)) if input_res >= 320 else (7, (1, 3, 5))
    layers: list[LayerSpec] = []
    layers += _conv_bn_relu(3, 64, 7, 2, 3)
    layers.append(pool_layer("max", 3, 2, 1))
    res = input_res // 4
    in_ch = 64
    for stage in ("c2", "c3", "c4", "c5"):
        planes = _RESNET50_PLANES[stage]
        stride = 1 if stage == "c2" else 2
        res //= stride
        bc = stage_variants.get(stage, BottleneckConfig())
        if bc.variant != "original" and res % tile:
            raise ShapeError(f"stage {stage} resolution {res} not divisible by tile {tile}")
        layers += _original_bottleneck(in_ch, planes, stride)
        in_ch = 4 * planes
        for _ in range(_RESNET50_BLOCKS[stage] - 1):
            if bc.variant == "original":
                layers += _original_bottleneck(in_ch, planes, 1)
            elif bc.variant == "repmlp_bottleneck":
                layers += _repmlp_bottleneck(in_ch, planes, bc, res, tile, branch_kernels)
            else:
                layers += _light_block(in_ch, bc, res, tile, branch_kernels)
    layers.append(pool_layer("global_avg"))
    layers.append(FLATTEN)
    layers.append(fc_layer(in_ch, num_classes))
    name = "resnet50"
    if stage_variants:
        tags = []
        for stage in ("c2", "c3", "c4", "c5"):
            if stage in stage_variants:
                bc = stage_variants[stage]
                kind = "light" if bc.variant == "repmlp_light" else "repmlp"
                tags.append(f"{stage}-{kind}-r{bc.reduction}g{bc.groups}")
        name += "[" + ",".join(tags) + "]"
    return Model(name, (3, input_res, input_res), tuple(layers))


def build_repmlp_resnet50(input_res: int = 224, num_classes: int = 1000) -> Model:
    """The main ImageNet variant: blocks in stages c3 (r=2) and c4 (r=4), g=8."""
    return build_resnet50({
        "c3": BottleneckConfig("repmlp_bottleneck", reduction=2, groups=8),
        "c4": BottleneckConfig("repmlp_bottleneck", reduction=4, groups=8),
    }, input_res, num_classes)


def build_repmlp_light_resnet50(input_res: int = 224, num_classes: int = 1000) -> Model:
    """Light variant: c3 and c4 blocks with 8x 1x1 squeeze and no 3x3 convs."""
    return build_resnet50({
        "c3": BottleneckConfig("repmlp_light", groups=8),
        "c4": BottleneckConfig("repmlp_light", groups=8),
    }, input_res, num_classes)


MODEL_BUILDERS = {
    "pure-mlp-cifar": build_pure_mlp_cifar,
    "wide-convnet": build_wide_convnet,
    "resnet50": lambda input_res=224: build_resnet50(None, input_res),
    "repmlp-res50": build_repmlp_resnet50,
    "repmlp-res50-c4-r4": lambda input_res=224: build_resnet50(
        {"c4": BottleneckConfig("repmlp_bottleneck", reduction=4, groups=8)}, input_res),
    "repmlp-res50-c4-r8": lambda input_res=224: build_resnet50(
        {"c4": BottleneckConfig("repmlp_bottleneck", reduction=8, groups=8)}, input_res),
    "repmlp-light-res50": build_repmlp_light_resnet50,
}


def build_named_model(name: str, input_res: int) -> Model:
    if name not in MODEL_BUILDERS:
        known = ", ".join(sorted(MODEL_BUILDERS))
        raise ShapeError(f"unknown model {name!r}; known models: {known}")
    return MODEL_BUILDERS[name](input_res=input_res)


def gp_width_sweep(build_fn, widths, params_target: int, flops_target: int) -> list[dict]:
    """Calibration helper: deploy-form param/FLOP deviation per candidate width."""
    rows = []
    for width in widths:
        deploy = convert_graph(build_fn(width))
        p, f = count_params(deploy), count_flops(deploy)
        rows.append({
            "width": width, "params": p, "flops": f,
            "params_dev": (p - params_target) / params_target,
            "flops_dev": (f - flops_target) / flops_target,
        })
    return rows
