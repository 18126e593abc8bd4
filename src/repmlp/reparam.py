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
  zero-padded to (2h-1, 2w-1). The fold lays that padded kernel out as
  window planes, one (2h-1, w) plane per tile column, so that each (i, j)
  block of the view is one contiguous h*w run, and adds the view straight
  into fc3, one slab of output channels at a time;
* the BN in front of the global-path MLP is absorbed into FC1, which is a
  composition of two affine maps.

Conversion is a one-shot offline step. All routines are pure index
arithmetic and elementwise scaling, so the constructed kernels are exact
and backend independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import tensor
from .block import (RepMLPConfig, RepMLPTrainWeights, check_fcs, check_train_weights,
                    global_perceptron, partition_perceptron)
from .tensor import BnParams, ConvSpec, FcSpec, ShapeError, inverse_partition


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
    check_fcs(cfg, w.fc3, w.fc1, w.fc2)


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


def _plane_band(kernel: np.ndarray, part_h: int, part_w: int) -> tuple[slice, np.ndarray]:
    """The plane rows a resolution-preserving conv kernel covers, and their
    values as a strided view of dims (O, C/g, w, rows, w).

    The kernel is zero-padded into q of dims (O, C/g, 2h-1, 2w-1), centred at
    (h-1, w-1); the window planes of q (see _window_view) are
    planes[o, c, b, r, j] = q[o, c, r, w-1-b+j]. Only rows h-1-dh ... h-1+dh
    of q hold taps, so only those rows are built and returned; the caller
    keeps every other plane row at +0.0. Taps further than h-1 rows or w-1
    columns from the centre can never land in a tile, so they are cropped.
    """
    o, cg, kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    dh, dw = min(ph, part_h - 1), min(pw, part_w - 1)
    q = np.zeros((o, cg, 2 * dh + 1, 2 * part_w - 1), dtype=kernel.dtype)
    q[:, :, :, part_w - 1 - dw:part_w + dw] = kernel[:, :, ph - dh:ph + dh + 1, pw - dw:pw + dw + 1]
    s0, s1, s2, s3 = q.strides
    band = as_strided(q[:, :, :, part_w - 1:], (o, cg, part_w, 2 * dh + 1, part_w),
                      (s0, s1, -s3, s2, s3), writeable=False)
    return slice(part_h - 1 - dh, part_h + dh), band


def _window_view(planes: np.ndarray, part_h: int) -> np.ndarray:
    """The (O, h, w, C/g, h, w) FC-kernel grid of a conv kernel, as a
    read-only strided view of its window planes; nothing of grid size is built.

    planes has dims (O, C/g, w, 2h-1, w) and holds q of _plane_band as
    planes[o, c, b, r, j] = q[o, c, r, w-1-b+j]. The view reads
    [o, a, b, c, i, j] = planes[o, c, b, h-1-a+i, j] = q[o, c, h-1-a+i,
    w-1-b+j], which is kernel[o, c, i-a+kh//2, j-b+kw//2] inside the window
    and +0.0 outside it. For each (o, a, b, c) the (i, j) block is rows
    h-1-a ... 2h-2-a of one plane: one contiguous h*w run, as in fc3.
    """
    o, cg, part_w = planes.shape[:3]
    s0, s1, s2, s3, s4 = planes.strides
    return as_strided(planes[:, :, :, part_h - 1:], (o, part_h, part_w, cg, part_h, part_w),
                      (s0, -s3, s2, s1, s3, s4), writeable=False)


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
    copy of the strided window view that convert_block adds into fc3, read
    from window planes of all output channels at once. A conv bias,
    constant over tile positions, is replicated part_h*part_w times.
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
    rows, band = _plane_band(conv.kernel, part_h, part_w)
    planes = np.zeros((o, in_channels // g, part_w, 2 * part_h - 1, part_w), conv.kernel.dtype)
    planes[:, :, :, rows] = band
    grid = np.ascontiguousarray(_window_view(planes, part_h))
    kernel = grid.reshape(o * part_h * part_w, in_channels // g * part_h * part_w)
    bias = None if conv.bias is None else np.repeat(conv.bias, part_h * part_w)
    return FcSpec(kernel=kernel, bias=bias, groups=g)


def convert_block(cfg: RepMLPConfig, w: RepMLPTrainWeights) -> RepMLPInferWeights:
    """Fold every branch and every BN of a trained block into three FCs.

    Summation order is fixed for determinism: the fused fc3 kernel first,
    then the branches in their checked ascending kernel order. Each fused
    branch's window view (see _window_view) is added in place into the
    fused fc3 arrays, which the BN fold has just made, so no input array is
    written or shared and no per-branch grid is built.

    The window planes live in one buffer of at most SLAB_BYTES (at least
    one output channel), so the fold runs over slabs of output channels.
    A slab's buffer is zeroed, then each branch writes the plane rows it
    covers (see _plane_band) and its view is added into that slab of fc3.
    A larger kernel covers every row a smaller one does, so in ascending
    order each branch overwrites all that the one before it wrote, and
    every other plane entry stays +0.0. An fc3 entry thus sees the BN scale,
    then each branch's tap, or +0.0 outside its window, in ascending kernel
    order, as a full per-branch grid would give it: the slabs only split
    the output channels and change no entry's operations or their order.
    """
    check_train_weights(cfg, w)
    fc3 = fuse_bn_into_conv(w.fc3, w.fc3_bn)
    h, wd = cfg.part_h, cfg.part_w
    o, cg = cfg.out_channels, cfg.in_channels // cfg.groups
    grid = fc3.kernel.reshape(o, h, wd, cg, h, wd)
    bias = fc3.bias
    bands = []
    for conv, bn in w.branches:
        branch = fuse_bn_into_conv(conv, bn)
        bands.append(_plane_band(branch.kernel, h, wd))
        bias += np.repeat(branch.bias, h * wd)
    if bands:
        slab = max(1, tensor.SLAB_BYTES // (cg * wd * (2 * h - 1) * wd * grid.itemsize))
        buf = np.empty((min(o, slab), cg, wd, 2 * h - 1, wd), grid.dtype)
        for o0 in range(0, o, slab):
            planes = buf[:min(slab, o - o0)]
            planes.fill(0.0)
            view = _window_view(planes, h)
            for rows, band in bands:
                planes[:, :, :, rows] = band[o0:o0 + slab]
                grid[o0:o0 + slab] += view
    fc1 = fc2 = None
    if cfg.has_global_path:
        fc1 = absorb_bn_into_fc1(w.gp_bn, w.fc1)
        fc2 = w.fc2
    return RepMLPInferWeights(fc3=fc3, fc1=fc1, fc2=fc2)


def forward_infer(x: np.ndarray, cfg: RepMLPConfig, w: RepMLPInferWeights) -> np.ndarray:
    """Converted block forward: global-path MLP (BN-free) plus one grouped FC."""
    check_infer_weights(cfg, w)
    pmap = global_perceptron(x, cfg, w.fc1, w.fc2, None)
    y = partition_perceptron(pmap, cfg, w.fc3, None)
    return inverse_partition(y, x.shape[0], cfg.height, cfg.width)

