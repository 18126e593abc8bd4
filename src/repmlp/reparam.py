"""Structural conversion of a trained block into three plain FC layers.

The training-form block is linear in its weights once the BN statistics are
frozen, so every conv+BN branch can be folded, exactly, into the big
tilewise FC kernel:

* a BN folds into the conv in front of it by scaling each output filter
  with gamma/std and emitting a per-channel bias; one routine does this
  for the branch convs and for the big FC, which counts as a 1x1 conv;
* a resolution-preserving grouped conv equals one grouped FC whose columns
  are the responses to one-hot basis images (an identity matrix reshaped to
  tiles, replicated once per group); one-hot probes make each response value
  a single kernel tap, so the matrix is a strided window view of the kernel
  zero-padded to (2h-1, 2w-1), which the fold adds straight into fc3;
* the BN in front of the global-path MLP is absorbed into FC1, which is a
  composition of two affine maps.

Conversion is a one-shot offline step. All routines are pure index
arithmetic and elementwise scaling, so the constructed kernels are exact
and backend independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .block import (RepMLPConfig, RepMLPTrainWeights, check_global_mlp, check_train_weights,
                    global_perceptron)
from .tensor import BnParams, ConvSpec, FcSpec, ShapeError, grouped_fc, inverse_partition


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
    check_global_mlp(cfg, w.fc1, w.fc2)


def fuse_bn_into_conv(spec: ConvSpec | FcSpec, bn: BnParams) -> ConvSpec | FcSpec:
    """Fold a BN over output channels into the bias-free conv in front of it.

    An FC counts as a 1x1 conv here: its kernel rows are its output
    channels. Filter (row) i is scaled by gamma_i / std_i; the new bias is
    beta_i - mean_i * gamma_i / std_i. Every other field is kept.
    """
    if spec.bias is not None:
        raise ShapeError("fuse_bn_into_conv expects a bias-free conv or fc")
    if bn.num_features != spec.kernel.shape[0]:
        raise ShapeError("bn feature count must equal the output channel count")
    scale, shift = bn.affine()
    kernel = spec.kernel * scale.reshape((-1,) + (1,) * (spec.kernel.ndim - 1))
    return replace(spec, kernel=kernel, bias=shift)


def absorb_bn_into_fc1(bn: BnParams, fc1: FcSpec) -> FcSpec:
    """Absorb a BN that feeds a dense FC into the FC itself.

    BN(x) = scale * x + shift per channel, so W (BN(x)) + b equals
    (W * scale) x + (W shift + b). The FC reads one input per BN channel.
    """
    if fc1.groups != 1:
        raise ShapeError("absorb_bn_into_fc1 expects a dense fc (groups = 1)")
    if fc1.in_dim != bn.num_features:
        raise ShapeError("fc in_dim must equal bn feature count")
    scale, shift = bn.affine()
    kernel = fc1.kernel * scale.reshape(1, -1)
    extra = fc1.kernel @ shift
    bias = extra if fc1.bias is None else fc1.bias + extra
    return FcSpec(kernel=kernel, bias=bias, groups=1)


def _window_view(kernel: np.ndarray, part_h: int, part_w: int) -> np.ndarray:
    """The (O, h, w, C/g, h, w) FC-kernel grid of a resolution-preserving conv
    kernel, as a read-only strided view; nothing of grid size is built.

    The kernel is zero-padded into q of dims (O, C/g, 2h-1, 2w-1), centred at
    (h-1, w-1), and the view reads [o, a, b, c, i, j] = q[o, c, h-1-a+i,
    w-1-b+j], which is kernel[o, c, i-a+kh//2, j-b+kw//2] inside the window
    and +0.0 outside it. Taps further than h-1 rows or w-1 columns from the
    centre can never land in a tile, so they are cropped.
    """
    o, cg, kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    dh, dw = min(ph, part_h - 1), min(pw, part_w - 1)
    q = np.zeros((o, cg, 2 * part_h - 1, 2 * part_w - 1), dtype=kernel.dtype)
    q[:, :, part_h - 1 - dh:part_h + dh, part_w - 1 - dw:part_w + dw] = \
        kernel[:, :, ph - dh:ph + dh + 1, pw - dw:pw + dw + 1]
    windows = sliding_window_view(q, (part_h, part_w), axis=(2, 3))
    return windows[:, :, ::-1, ::-1].transpose(0, 2, 3, 1, 4, 5)


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
    when that offset lands inside the window, else zero. The kernel is one
    copy of the strided window view that convert_block adds into fc3. A conv
    bias, constant over tile positions, is replicated part_h*part_w times.
    """
    g = conv.groups
    o = conv.out_channels
    if conv.in_channels != in_channels:
        raise ShapeError(f"conv expects {conv.in_channels} channels, got {in_channels}")
    kh, kw = conv.kernel_size
    if conv.padding != (kh // 2, kw // 2) or conv.stride != 1:
        raise ShapeError("conv_to_fc requires resolution-preserving padding K // 2 and stride 1")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("conv_to_fc requires odd kernel sizes")
    grid = np.ascontiguousarray(_window_view(conv.kernel, part_h, part_w))
    kernel = grid.reshape(o * part_h * part_w, in_channels // g * part_h * part_w)
    bias = None if conv.bias is None else np.repeat(conv.bias, part_h * part_w)
    return FcSpec(kernel=kernel, bias=bias, groups=g)


def convert_block(cfg: RepMLPConfig, w: RepMLPTrainWeights) -> RepMLPInferWeights:
    """Fold every branch and every BN of a trained block into three FCs.

    Summation order is fixed for determinism: the fused fc3 kernel first,
    then the branches in their checked ascending kernel order. Each fused
    branch's window view (see _window_view) is added in place into the
    fused fc3 arrays, which the BN fold has just made, so no input array is
    written or shared and no per-branch grid is built. An fc3 entry outside
    a branch's window gets that branch's +0.0, as a full grid would give it.
    """
    check_train_weights(cfg, w)
    fc3 = fuse_bn_into_conv(w.fc3, w.fc3_bn)
    h, wd = cfg.part_h, cfg.part_w
    grid = fc3.kernel.reshape(cfg.out_channels, h, wd, cfg.in_channels // cfg.groups, h, wd)
    bias = fc3.bias
    for conv, bn in w.branches:
        branch = fuse_bn_into_conv(conv, bn)
        grid += _window_view(branch.kernel, h, wd)
        bias += np.repeat(branch.bias, h * wd)
    fc1 = fc2 = None
    if cfg.has_global_path:
        fc1 = absorb_bn_into_fc1(w.gp_bn, w.fc1)
        fc2 = w.fc2
    return RepMLPInferWeights(fc3=fc3, fc1=fc1, fc2=fc2)


def forward_infer(x: np.ndarray, cfg: RepMLPConfig, w: RepMLPInferWeights) -> np.ndarray:
    """Converted block forward: global-path MLP (BN-free) plus one grouped FC."""
    check_infer_weights(cfg, w)
    pmap = global_perceptron(x, cfg, w.fc1, w.fc2, None)
    b = pmap.shape[0]
    y = grouped_fc(pmap.reshape(b, cfg.fc_in_dim), w.fc3)
    y = y.reshape(b, cfg.out_channels, cfg.part_h, cfg.part_w)
    return inverse_partition(y, x.shape[0], cfg.height, cfg.width)

