"""Structural conversion of a trained block into three plain FC layers.

The training-form block is linear in its weights once the BN statistics are
frozen, so every conv+BN branch can be folded, exactly, into the big
tilewise FC kernel:

* BN folds into the preceding conv by scaling each output filter with
  gamma/std and emitting a per-channel bias;
* a resolution-preserving grouped conv equals one grouped FC whose columns
  are the responses to one-hot basis images (an identity matrix reshaped to
  tiles, replicated once per group); one-hot probes make each response value
  a single kernel tap, so the matrix is assembled by direct placement;
* the 1-D BN after the big FC folds into it the same way;
* the BN in front of the global-path MLP is absorbed into FC1, which is a
  composition of two affine maps.

Conversion is a one-shot offline step. All routines are pure index
arithmetic and elementwise scaling, so the constructed kernels are exact
and backend independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block import (
    RepMLPConfig,
    RepMLPTrainWeights,
    check_block_input,
    check_train_weights,
    gp_mlp_add,
)
from .tensor import (
    BnParams,
    ConvSpec,
    FcSpec,
    ShapeError,
    grouped_fc,
    inverse_partition,
    partition,
)


@dataclass(frozen=True)
class RepMLPInferWeights:
    """Converted block: one fused FC kernel plus bias for the tile path and
    the BN-free global-path MLP. No BN statistics, no conv kernels."""

    fc3: FcSpec
    fc1: FcSpec | None = None
    fc2: FcSpec | None = None


def check_infer_weights(cfg: RepMLPConfig, w: RepMLPInferWeights) -> None:
    if w.fc3.bias is None:
        raise ShapeError("converted fc3 must carry a bias")
    if (w.fc3.in_dim, w.fc3.out_dim, w.fc3.groups) != (cfg.fc_in_dim, cfg.fc_out_dim, cfg.groups):
        raise ShapeError("converted fc3 dims do not match config")
    if cfg.has_global_path and (w.fc1 is None or w.fc2 is None):
        raise ShapeError("global path is active; fc1 and fc2 are required")


def fuse_bn_into_conv(conv: ConvSpec, bn: BnParams) -> ConvSpec:
    """Fold a per-channel BN into the preceding bias-free conv.

    Filter i is scaled by gamma_i / std_i; the new bias is
    beta_i - mean_i * gamma_i / std_i.
    """
    if conv.bias is not None:
        raise ShapeError("fuse_bn_into_conv expects a bias-free conv")
    if bn.num_features != conv.out_channels:
        raise ShapeError("bn feature count must equal conv out_channels")
    scale, shift = bn.affine()
    kernel = conv.kernel * scale.reshape(-1, 1, 1, 1)
    return ConvSpec(kernel=kernel, bias=shift, padding=conv.padding, groups=conv.groups)


def fuse_bn1d_into_fc(fc: FcSpec, bn: BnParams) -> FcSpec:
    """Fold a 1-D BN over the output features into the preceding bias-free FC."""
    if fc.bias is not None:
        raise ShapeError("fuse_bn1d_into_fc expects a bias-free fc")
    if bn.num_features != fc.out_dim:
        raise ShapeError("bn feature count must equal fc out_dim")
    scale, shift = bn.affine()
    kernel = fc.kernel * scale.reshape(-1, 1)
    return FcSpec(kernel=kernel, bias=shift, groups=fc.groups,
                  in_dim=fc.in_dim, out_dim=fc.out_dim)


def absorb_bn_into_fc1(bn: BnParams, fc1: FcSpec) -> FcSpec:
    """Absorb a BN that feeds a dense FC into the FC itself.

    BN(x) = scale * x + shift per channel, so W (BN(x)) + b equals
    (W * scale) x + (W shift + b). When the FC input is a per-channel
    vector replicated r times, scale and shift are repeated to match.
    """
    if fc1.groups != 1:
        raise ShapeError("absorb_bn_into_fc1 expects a dense fc (groups = 1)")
    if fc1.in_dim % bn.num_features:
        raise ShapeError("fc in_dim must be a multiple of bn feature count")
    rep = fc1.in_dim // bn.num_features
    scale, shift = (np.repeat(a, rep) for a in bn.affine())
    kernel = fc1.kernel * scale.reshape(1, -1)
    extra = fc1.kernel @ shift
    bias = extra if fc1.bias is None else fc1.bias + extra
    return FcSpec(kernel=kernel, bias=bias, groups=1, in_dim=fc1.in_dim, out_dim=fc1.out_dim)


def conv_to_fc(conv: ConvSpec, in_channels: int, part_h: int, part_w: int) -> FcSpec:
    """Build the FC kernel equivalent to a resolution-preserving grouped conv
    acting on (C, part_h, part_w) tiles flattened row-major.

    Column r of the result is the flattened conv response to a probe image
    whose r-th within-group position is 1 in every group and 0 elsewhere
    (output group j only sees input group j, so one probe serves all groups
    at once; stacking the C*h*w/g probe responses and transposing gives the
    grouped FC kernel of dims (O*h*w, C*h*w/g)). Because each probe is
    one-hot per group, every response value is a single kernel tap, so the
    matrix is assembled by direct placement instead of running the probes:
    entry [(o, a, b), (c, i, j)] is kernel[o, c, i - a + ph, j - b + pw]
    when that offset lands inside the window, else zero. A conv bias,
    constant over tile positions, is replicated part_h*part_w times.
    """
    g = conv.groups
    o = conv.out_channels
    if conv.in_channels != in_channels:
        raise ShapeError(f"conv expects {conv.in_channels} channels, got {in_channels}")
    kh, kw = conv.kernel_size
    ph, pw = kh // 2, kw // 2
    if conv.padding != (ph, pw):
        raise ShapeError("conv_to_fc requires resolution-preserving padding K // 2")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("conv_to_fc requires odd kernel sizes")
    cg = in_channels // g
    grid = np.zeros((o, part_h, part_w, cg, part_h, part_w), dtype=conv.kernel.dtype)
    for ki in range(kh):
        # output row a reads input row a + ki - ph; clamp to the tile
        rows = np.arange(max(0, ph - ki), min(part_h, part_h + ph - ki))
        if rows.size == 0:
            continue
        for kj in range(kw):
            cols = np.arange(max(0, pw - kj), min(part_w, part_w + pw - kj))
            if cols.size == 0:
                continue
            grid[:, rows[:, None], cols[None, :], :,
                 (rows + ki - ph)[:, None],
                 (cols + kj - pw)[None, :]] = conv.kernel[:, :, ki, kj]
    kernel = grid.reshape(o * part_h * part_w, cg * part_h * part_w)
    bias = None if conv.bias is None else np.repeat(conv.bias, part_h * part_w)
    return FcSpec(kernel=kernel, bias=bias, groups=g,
                  in_dim=in_channels * part_h * part_w,
                  out_dim=o * part_h * part_w)


def _add_bias(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def convert_block(cfg: RepMLPConfig, w: RepMLPTrainWeights) -> RepMLPInferWeights:
    """Fold every branch and every BN of a trained block into three FCs.

    Summation order is fixed for determinism: the fused fc3 kernel first,
    then branches in ascending kernel size.
    """
    check_train_weights(cfg, w)
    fused = fuse_bn1d_into_fc(w.fc3, w.fc3_bn)
    kernel = fused.kernel
    bias = fused.bias
    for conv, bn in sorted(w.branches, key=lambda pair: pair[0].kernel_size):
        branch_fc = conv_to_fc(fuse_bn_into_conv(conv, bn),
                               cfg.in_channels, cfg.part_h, cfg.part_w)
        kernel = kernel + branch_fc.kernel
        bias = _add_bias(bias, branch_fc.bias)
    if bias is None:
        bias = np.zeros(cfg.fc_out_dim, dtype=kernel.dtype)
    fc3 = FcSpec(kernel=kernel, bias=bias, groups=cfg.groups,
                 in_dim=cfg.fc_in_dim, out_dim=cfg.fc_out_dim)
    fc1 = fc2 = None
    if cfg.has_global_path:
        fc1 = absorb_bn_into_fc1(w.gp_bn, w.fc1)
        fc2 = w.fc2
    return RepMLPInferWeights(fc3=fc3, fc1=fc1, fc2=fc2)


def forward_infer(x: np.ndarray, cfg: RepMLPConfig, w: RepMLPInferWeights) -> np.ndarray:
    """Converted block forward: global-path MLP (BN-free) plus one grouped FC."""
    check_infer_weights(cfg, w)
    check_block_input(x, cfg)
    pmap = partition(x, cfg.part_h, cfg.part_w)
    if cfg.has_global_path:
        pmap = gp_mlp_add(pmap, cfg, w.fc1, w.fc2, None)
    b = pmap.shape[0]
    y = grouped_fc(pmap.reshape(b, cfg.fc_in_dim), w.fc3)
    y = y.reshape(b, cfg.out_channels, cfg.part_h, cfg.part_w)
    return inverse_partition(y, x.shape[0], cfg.height, cfg.width)


def conv_to_fc_jacobian_check(conv: ConvSpec, in_channels: int, part_h: int, part_w: int,
                              step: float = 1e-3, max_entries: int = 16) -> float:
    """Verify that conv_to_fc is linear in the conv kernel.

    For a sample of kernel basis entries E this checks both superposition,
    conv_to_fc(F + step * E) - conv_to_fc(F) == step * conv_to_fc(E),
    and the central finite difference of the map against its analytic value
    conv_to_fc(E). Returns the max abs deviation over both checks.
    """
    if step <= 0:
        raise ShapeError("step must be positive")
    base = conv_to_fc(conv, in_channels, part_h, part_w).kernel
    flat_size = conv.kernel.size
    n_probe = min(max_entries, flat_size)
    idx = np.linspace(0, flat_size - 1, n_probe).astype(int)
    worst = 0.0
    dtype = conv.kernel.dtype
    for i in np.unique(idx):
        basis = np.zeros(flat_size, dtype=dtype)
        basis[i] = 1
        basis = basis.reshape(conv.kernel.shape)
        unit = conv_to_fc(ConvSpec(basis, None, conv.padding, conv.groups),
                          in_channels, part_h, part_w).kernel
        plus = conv_to_fc(ConvSpec(conv.kernel + dtype.type(step) * basis, None,
                                   conv.padding, conv.groups),
                          in_channels, part_h, part_w).kernel
        minus = conv_to_fc(ConvSpec(conv.kernel - dtype.type(step) * basis, None,
                                    conv.padding, conv.groups),
                           in_channels, part_h, part_w).kernel
        superpos = np.max(np.abs(plus - base - step * unit))
        fd = np.max(np.abs((plus - minus) / (2 * step) - unit))
        worst = max(worst, float(superpos), float(fd))
    return worst
