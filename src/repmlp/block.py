"""The re-parameterizable MLP block in its training form.

A block maps (N, C, H, W) to (N, O, H, W) by cutting each image into
part_h x part_w tiles and running three parallel paths over the tile batch:

* global path: pool each tile to a vector, push it through BN and a small
  two-layer MLP, and add the result back onto the tile (skipped entirely
  when the tile covers the whole image);
* local path: a set of parallel conv+BN branches with odd square kernels;
* tilewise fully connected path: one big grouped FC over the flattened
  tile followed by a 1-D BN.

The local and FC paths are summed and the tiles are reassembled. The conv
branches and the big FC never carry a bias; their BNs provide the affine
freedom that conversion later folds away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    BnParams,
    ConvSpec,
    FcSpec,
    ShapeError,
    _is_int,
    avg_pool_global,
    batchnorm_inference,
    check_feature_map,
    conv2d,
    grouped_fc,
    inverse_partition,
    partition,
)

GP_NONLINEARITIES = ("relu", "identity")


@dataclass(frozen=True)
class RepMLPConfig:
    """Static block hyper-parameters.

    part_h/part_w are the tile sizes; every branch kernel K must be odd and
    no larger than min(part_h, part_w) so that same-resolution padding
    K // 2 keeps tile dims. branch_kernels is stored in ascending order,
    so every spelling of one kernel set is one config. groups must divide
    both channel counts.
    gp_internal_dim defaults to max(1, in_channels // 4) when left None.
    """

    in_channels: int
    out_channels: int
    height: int
    width: int
    part_h: int
    part_w: int
    groups: int = 1
    branch_kernels: tuple[int, ...] = ()
    gp_internal_dim: int | None = None
    gp_nonlinearity: str = "relu"

    def __post_init__(self) -> None:
        for name in ("in_channels", "out_channels", "height", "width", "part_h", "part_w", "groups"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ShapeError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise ShapeError(f"{name} must be >= 1")
        for k in self.branch_kernels:
            if not _is_int(k):
                raise ShapeError(f"branch kernels must be ints, got {self.branch_kernels!r}")
        object.__setattr__(self, "branch_kernels", tuple(sorted(self.branch_kernels)))
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ShapeError(
                f"groups {self.groups} must divide in_channels {self.in_channels} "
                f"and out_channels {self.out_channels}")
        if self.height % self.part_h or self.width % self.part_w:
            raise ShapeError(
                f"input ({self.height}, {self.width}) not divisible by "
                f"tile ({self.part_h}, {self.part_w})")
        for k in self.branch_kernels:
            if k < 1 or k % 2 == 0:
                raise ShapeError(f"branch kernel {k} must be odd and positive")
            if k > min(self.part_h, self.part_w):
                raise ShapeError(f"branch kernel {k} exceeds tile size "
                                 f"({self.part_h}, {self.part_w})")
        if len(set(self.branch_kernels)) != len(self.branch_kernels):
            raise ShapeError("duplicate branch kernel sizes")
        if self.gp_internal_dim is not None:
            if not _is_int(self.gp_internal_dim):
                raise ShapeError(f"gp_internal_dim must be an int, got {self.gp_internal_dim!r}")
            if self.gp_internal_dim < 1:
                raise ShapeError("gp_internal_dim must be >= 1")
        if self.gp_nonlinearity not in GP_NONLINEARITIES:
            raise ShapeError(f"gp_nonlinearity must be one of {GP_NONLINEARITIES}")

    @property
    def parts_h(self) -> int:
        return self.height // self.part_h

    @property
    def parts_w(self) -> int:
        return self.width // self.part_w

    @property
    def num_parts(self) -> int:
        return self.parts_h * self.parts_w

    @property
    def has_global_path(self) -> bool:
        """The global path exists only when a tile is smaller than the image."""
        return self.num_parts > 1

    @property
    def gp_hidden(self) -> int:
        if self.gp_internal_dim is not None:
            return self.gp_internal_dim
        return max(1, self.in_channels // 4)

    @property
    def fc_in_dim(self) -> int:
        return self.in_channels * self.part_h * self.part_w

    @property
    def fc_out_dim(self) -> int:
        return self.out_channels * self.part_h * self.part_w


@dataclass(frozen=True)
class RepMLPTrainWeights:
    """Training-form weights. gp_* / fc1 / fc2 may be None when the global
    path is inactive; branches are (conv, bn) pairs, one per config kernel,
    in the config's ascending kernel order."""

    fc3: FcSpec
    fc3_bn: BnParams
    branches: tuple[tuple[ConvSpec, BnParams], ...] = ()
    gp_bn: BnParams | None = None
    fc1: FcSpec | None = None
    fc2: FcSpec | None = None


def check_train_weights(cfg: RepMLPConfig, w: RepMLPTrainWeights) -> None:
    """Validate weight shapes against the config, and that every weight has
    one dtype. Raises ShapeError."""
    if w.fc3.bias is not None:
        raise ShapeError("fc3 must not carry a bias; its BN provides the affine part")
    if (w.fc3.in_dim, w.fc3.out_dim, w.fc3.groups) != (cfg.fc_in_dim, cfg.fc_out_dim, cfg.groups):
        raise ShapeError(
            f"fc3 dims ({w.fc3.in_dim} -> {w.fc3.out_dim}, g={w.fc3.groups}) do not match "
            f"config ({cfg.fc_in_dim} -> {cfg.fc_out_dim}, g={cfg.groups})")
    if w.fc3_bn.num_features != cfg.fc_out_dim:
        raise ShapeError("fc3_bn feature count must equal out_channels * part_h * part_w")
    for conv, bn in w.branches:
        kh, kw = conv.kernel_size
        if kh != kw:
            raise ShapeError(f"branch kernels must be square, got ({kh}, {kw})")
        if conv.bias is not None:
            raise ShapeError("branch convs must not carry a bias")
        if conv.groups != cfg.groups:
            raise ShapeError("branch conv groups must equal config groups")
        if conv.in_channels != cfg.in_channels or conv.out_channels != cfg.out_channels:
            raise ShapeError("branch conv channels do not match config")
        if conv.padding != (kh // 2, kw // 2) or conv.stride != 1:
            raise ShapeError("branch conv padding must be K // 2 and stride 1 "
                             "(resolution preserving)")
        if bn.num_features != cfg.out_channels:
            raise ShapeError("branch bn feature count must equal out_channels")
    kernels = tuple(conv.kernel_size[0] for conv, _ in w.branches)
    if kernels != cfg.branch_kernels:
        raise ShapeError(f"branch kernels {kernels} must be the config's "
                         f"{cfg.branch_kernels}, in that order")
    check_global_mlp(cfg, w.fc1, w.fc2)
    if cfg.has_global_path and (w.gp_bn is None or w.gp_bn.num_features != cfg.in_channels):
        raise ShapeError("global path is active; gp_bn over in_channels features is required")
    # conversion adds the branches into the fc3 kernel in place, so a mixed
    # block would be rounded to the fc3 dtype instead of being rejected
    arrays = [w.fc3_bn.mean] + [a for conv, bn in w.branches for a in (conv.kernel, bn.mean)]
    if cfg.has_global_path:
        arrays += [w.gp_bn.mean, w.fc1.kernel, w.fc2.kernel]
    if any(a.dtype != w.fc3.kernel.dtype for a in arrays):
        raise ShapeError(f"block weights must all have the fc3 kernel dtype {w.fc3.kernel.dtype}")


def check_global_mlp(cfg: RepMLPConfig, fc1: FcSpec | None, fc2: FcSpec | None) -> None:
    """Validate the global-path MLP of either weight form: present when the path
    is active, dense, biased, and mapping in_channels -> gp_hidden -> in_channels."""
    if not cfg.has_global_path:
        return
    if fc1 is None or fc2 is None:
        raise ShapeError("global path is active; fc1 and fc2 are required")
    if fc1.groups != 1 or fc2.groups != 1:
        raise ShapeError("fc1 and fc2 must be dense (groups = 1)")
    if fc1.bias is None or fc2.bias is None:
        raise ShapeError("fc1 and fc2 must carry a bias")
    c, d = cfg.in_channels, cfg.gp_hidden
    if (fc1.in_dim, fc1.out_dim, fc2.in_dim, fc2.out_dim) != (c, d, d, c):
        raise ShapeError(f"fc1 and fc2 must map {c} -> {d} -> {c}")


def check_block_input(x: np.ndarray, cfg: RepMLPConfig) -> None:
    check_feature_map(x)
    n, c, h, w = x.shape
    if (c, h, w) != (cfg.in_channels, cfg.height, cfg.width):
        raise ShapeError(
            f"block input {(c, h, w)} does not match config "
            f"{(cfg.in_channels, cfg.height, cfg.width)}")


def global_perceptron(x: np.ndarray, cfg: RepMLPConfig, fc1: FcSpec | None,
                      fc2: FcSpec | None, bn: BnParams | None) -> np.ndarray:
    """Partition the input and add the pooled-MLP correction to every tile.

    Both weight forms run through here: pool each tile, BN (bn=None is the
    converted form, whose FC1 has absorbed it), FC1, nonlinearity, FC2,
    broadcast-add onto the tile map. When the tile covers the whole image
    the path is skipped and the output is just the partition of x; the
    weights are never touched then. The weights are not validated here;
    the forwards do that once.
    """
    check_block_input(x, cfg)
    pmap = partition(x, cfg.part_h, cfg.part_w)
    if not cfg.has_global_path:
        return pmap
    pooled = avg_pool_global(pmap)
    if bn is not None:
        pooled = batchnorm_inference(pooled, bn)
    v = pooled.reshape(pooled.shape[0], cfg.in_channels)
    v = grouped_fc(v, fc1)
    if cfg.gp_nonlinearity == "relu":
        v = np.maximum(v, v.dtype.type(0))
    v = grouped_fc(v, fc2)
    return pmap + v.reshape(-1, cfg.in_channels, 1, 1)


def local_perceptron(pmap: np.ndarray, cfg: RepMLPConfig, w: RepMLPTrainWeights) -> np.ndarray:
    """Sum of all conv+BN branches applied to the tile map.

    An empty branch list contributes an exact zero tensor.
    """
    check_feature_map(pmap)
    b = pmap.shape[0]
    out = np.zeros((b, cfg.out_channels, cfg.part_h, cfg.part_w), dtype=pmap.dtype)
    for conv, bn in w.branches:
        out += batchnorm_inference(conv2d(pmap, conv), bn)
    return out


def partition_perceptron(pmap: np.ndarray, cfg: RepMLPConfig, w: RepMLPTrainWeights) -> np.ndarray:
    """Grouped FC over flattened tiles followed by 1-D BN over all
    out_channels * part_h * part_w output features."""
    check_feature_map(pmap)
    b = pmap.shape[0]
    flat = pmap.reshape(b, cfg.fc_in_dim)
    y = grouped_fc(flat, w.fc3)
    y = batchnorm_inference(y.reshape(b, cfg.fc_out_dim, 1, 1), w.fc3_bn)
    return y.reshape(b, cfg.out_channels, cfg.part_h, cfg.part_w)


def forward_train(x: np.ndarray, cfg: RepMLPConfig, w: RepMLPTrainWeights) -> np.ndarray:
    """Training-form block forward: (N, C, H, W) -> (N, O, H, W)."""
    check_train_weights(cfg, w)
    pmap = global_perceptron(x, cfg, w.fc1, w.fc2, w.gp_bn)
    out = local_perceptron(pmap, cfg, w) + partition_perceptron(pmap, cfg, w)
    return inverse_partition(out, x.shape[0], cfg.height, cfg.width)


# Doubles drawn per rng.uniform call; every draw fills its array in chunks. One
# 8M-entry f32 draw took 64.5 ms in one call, 40.4 ms in chunks of 2^15 (and
# within 1 ms of that at 2^14 and 2^16), 51.7 ms in chunks of 2^12.
DRAW_CHUNK = 2 ** 15


def _uniform(rng: np.random.Generator, shape, lo: float, hi: float, dtype) -> np.ndarray:
    """Uniform [lo, hi) draw of the given shape, rounded to dtype.

    The one home of every seeded weight and input draw. Generator.uniform
    takes one double per element in order, and assigning a double chunk into
    the output rounds exactly as astype does. So a chunked fill equals one
    whole-array draw byte for byte and leaves rng in the same state, but
    never holds a full-size double array.
    """
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, DRAW_CHUNK):
        flat[start:start + DRAW_CHUNK] = rng.uniform(lo, hi, min(DRAW_CHUNK, flat.size - start))
    return out


def random_bn(rng: np.random.Generator, features: int, dtype=np.float32) -> BnParams:
    """BN stats for randomized tests: variance in [0.5, 1.5], mean in
    [-0.1, 0.1], affine params in [-0.5, 0.5]."""
    return BnParams(
        mean=_uniform(rng, features, -0.1, 0.1, dtype),
        var=_uniform(rng, features, 0.5, 1.5, dtype),
        gamma=_uniform(rng, features, -0.5, 0.5, dtype),
        beta=_uniform(rng, features, -0.5, 0.5, dtype),
    )


def random_conv_bn(rng: np.random.Generator, in_ch: int, out_ch: int, k: int, pad: int,
                   groups: int, stride: int, dtype) -> tuple[ConvSpec, BnParams]:
    """A bias-free k x k conv with its kernel uniform on [-0.5, 0.5], then
    its BN from random_bn, drawn in that order. The one train-form conv+BN
    draw: block branches and model conv layers both come from here."""
    kernel = _uniform(rng, (out_ch, in_ch // groups, k, k), -0.5, 0.5, dtype)
    conv = ConvSpec(kernel, None, (pad, pad), groups, stride)
    return conv, random_bn(rng, out_ch, dtype)


def random_train_weights(cfg: RepMLPConfig, rng: np.random.Generator,
                         dtype=np.float32) -> RepMLPTrainWeights:
    """Weights for randomized tests: independent uniform on [-0.5, 0.5]."""
    dtype = np.dtype(dtype).type
    c, o, g = cfg.in_channels, cfg.out_channels, cfg.groups
    branches = tuple(random_conv_bn(rng, c, o, k, k // 2, g, 1, dtype)
                     for k in cfg.branch_kernels)
    fc3 = FcSpec(kernel=_uniform(rng, (cfg.fc_out_dim, cfg.fc_in_dim // g), -0.5, 0.5, dtype),
                 bias=None, groups=g)
    gp_bn = fc1 = fc2 = None
    if cfg.has_global_path:
        gp_bn = random_bn(rng, c, dtype)
        d = cfg.gp_hidden
        fc1 = FcSpec(kernel=_uniform(rng, (d, c), -0.5, 0.5, dtype),
                     bias=_uniform(rng, d, -0.5, 0.5, dtype), groups=1)
        fc2 = FcSpec(kernel=_uniform(rng, (c, d), -0.5, 0.5, dtype),
                     bias=_uniform(rng, c, -0.5, 0.5, dtype), groups=1)
    return RepMLPTrainWeights(
        fc3=fc3,
        fc3_bn=random_bn(rng, cfg.fc_out_dim, dtype),
        branches=branches,
        gp_bn=gp_bn, fc1=fc1, fc2=fc2,
    )
