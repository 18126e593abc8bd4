"""Tensor kernels: grouped convolution, grouped fully connected, inference
batch norm, global average pooling, and the block partition reshape.

Feature maps are dense 4-D numpy arrays in (N, C, H, W) layout, row-major,
float32 or float64. Every operation is a pure function: inputs are never
mutated and the output dtype always equals the input dtype. Convolution
has zero padding and an integer stride and runs at its output stride: no
output that is later discarded is computed. _window_out, the one
window-size rule, gives its output size and that of the models' pools.

Convolution and the grouped FC run on one BLAS GEMM helper, _gemm, which
takes the group count and multiplies row block j of the kernel by row
block j of its operand. A conv's operand is a patch matrix with one column
per output position and one row per (channel, tap row, tap column); a conv
builds it for one group and one slab of whole images at a time, at most
SLAB_BYTES of it (or one image), and makes one single-group _gemm call per
slab and group into that slab's columns of the output, so the patch memory
is bounded by the slab and not by the batch. An FC and a 1x1 conv need no
patch matrix: their input, one row per input feature, goes to one _gemm
call over all groups. _gemm lays its operand out once for all groups:
C-contiguous, and copied into a zero-padded buffer of whole TILE-column
groups when its column count is not a multiple of TILE. The GEMM's
summation order is fixed: the dot products are cut into KC-long chunks,
each one BLAS call over all the operand's columns, and the chunk sums are
added by a fixed pairwise tree (blocked summation; Blanchard, Higham and
Mary, 2020). Each element errs by at most gamma_n |w|^T |x| with
n = KC + ceil(log2(ceil(K / KC))), where a single BLAS chain would allow
n = K. Results are bitwise identical under any split of the batch
dimension, the conv's slabs included, if BLAS gives a column the same
bytes at every call width that is a multiple of TILE (the tests check it
on each host). models.run_model relies on this: it runs the slices of a
batch in threads and joins their outputs. BLAS picks its kernels by CPU,
so the bytes are those of one host and BLAS build.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
# Columns per GEMM group, to which _gemm zero-pads a ragged operand, and the
# dot-product length of one BLAS call. On a 2-vCPU AVX-512 Xeon with
# OpenBLAS 0.3.31, groups of 16 and 32 keep the bytes of one call per
# 32-column tile and 8 and 4 do not; 16 ran repmlp-res50 at batch 1 about
# 7% faster than 32. KC 32 ran it about 10% slower, and KC 128 failed the
# 1e-4 verify of the real c3 block at every seed from 1 to 10.
TILE = 16
KC = 64
# Patch-matrix bytes a conv builds and multiplies at a time (see conv2d).
# On a 2-vCPU Xeon with 2 MiB of L2 per core and one BLAS thread, the
# pure-mlp-cifar train forward at batch 32 took a median 0.84, 0.63, 0.585,
# 0.586 and 0.60 s with 256 KiB, 512 KiB, 1, 2 and 4 MiB slabs (20
# round-robin runs each), and its tracemalloc peak grew with the slab from
# 16.3 to 20.1 MB; 1 MiB is the smallest of the fastest.
SLAB_BYTES = 1 << 20


class ShapeError(ValueError):
    """Raised when array shapes, dtypes, groups, or sizes do not line up."""


def usable_cpus() -> int:
    """The number of CPUs this process may run on: the size of its affinity
    set where the platform reports one, else 1."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_ints(what: str, minimum: int, **values) -> None:
    """Raise ShapeError unless every value is an int (not a bool) >= minimum."""
    for name, value in values.items():
        if not (_is_int(value) and value >= minimum):
            raise ShapeError(f"{what} {name} must be an int >= {minimum}, got {value!r}")


def _check_float(arr: np.ndarray, name: str) -> None:
    if not isinstance(arr, np.ndarray):
        raise ShapeError(f"{name} must be a numpy array")
    if arr.dtype not in FLOAT_DTYPES:
        raise ShapeError(f"{name} must be float32 or float64, got {arr.dtype}")


def check_feature_map(x: np.ndarray) -> None:
    """Validate the (N, C, H, W) feature map contract."""
    _check_float(x, "input")
    if x.ndim != 4:
        raise ShapeError(f"feature map must be 4-D (N, C, H, W), got shape {x.shape}")


def _same_dtype(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.dtype != b.dtype:
        raise ShapeError(f"{what}: dtype mismatch {a.dtype} vs {b.dtype}")


def _window_out(kind: str, size: tuple[int, int], kernel: tuple[int, int], stride: int,
                pad: tuple[int, int]) -> tuple[int, int]:
    """Output (rows, columns) of kernel windows at stride over a map of the
    given size zero-padded by pad: the one window-size rule. Raises
    ShapeError unless the window fits the padded map."""
    padded = (size[0] + 2 * pad[0], size[1] + 2 * pad[1])
    if kernel[0] > padded[0] or kernel[1] > padded[1]:
        raise ShapeError(f"{kind} window {kernel} larger than padded map {padded}")
    return (padded[0] - kernel[0]) // stride + 1, (padded[1] - kernel[1]) // stride + 1


@dataclass(frozen=True)
class ConvSpec:
    """Grouped 2-D convolution parameters.

    kernel has dims (out_channels, in_channels / groups, K_h, K_w);
    bias, when present, has length out_channels. padding is a tuple of
    two non-negative ints (rows, columns) and groups an int >= 1 that
    divides out_channels. stride is one int step
    for both spatial axes, at least 1. conv2d computes the output only at
    that stride, each element in the fixed order of the module's GEMM: the
    (channel, tap row, tap column) products in KC-long chunks, the chunks
    added pairwise, and the bias last.
    """

    kernel: np.ndarray
    bias: np.ndarray | None
    padding: tuple[int, int]
    groups: int = 1
    stride: int = 1

    def __post_init__(self) -> None:
        _check_float(self.kernel, "conv kernel")
        if self.kernel.ndim != 4:
            raise ShapeError(f"conv kernel must be 4-D, got shape {self.kernel.shape}")
        _require_ints("conv", 1, groups=self.groups, stride=self.stride)
        out_ch = self.kernel.shape[0]
        if out_ch < 1 or out_ch % self.groups:
            raise ShapeError(f"out_channels {out_ch} not divisible by groups {self.groups}")
        pad = self.padding
        if not (isinstance(pad, tuple) and len(pad) == 2 and all(map(_is_int, pad))):
            raise ShapeError(f"conv padding must be a pair of ints, got {pad!r}")
        ph, pw = pad
        if ph < 0 or pw < 0:
            raise ShapeError("padding must be non-negative")
        if self.bias is not None:
            _check_float(self.bias, "conv bias")
            _same_dtype(self.kernel, self.bias, "conv bias")
            if self.bias.shape != (out_ch,):
                raise ShapeError(f"conv bias must have shape ({out_ch},), got {self.bias.shape}")

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1] * self.groups

    @property
    def kernel_size(self) -> tuple[int, int]:
        return (self.kernel.shape[2], self.kernel.shape[3])


@dataclass(frozen=True)
class FcSpec:
    """Grouped fully connected parameters.

    kernel has dims (out_dim, in_dim / groups): row q holds the weights of
    output feature q over its own group's inputs, so the kernel and groups
    fix both dims. bias, when present, has length out_dim. groups is an
    int >= 1 that divides out_dim.
    """

    kernel: np.ndarray
    bias: np.ndarray | None
    groups: int

    def __post_init__(self) -> None:
        _check_float(self.kernel, "fc kernel")
        if self.kernel.ndim != 2:
            raise ShapeError(f"fc kernel must be 2-D, got shape {self.kernel.shape}")
        _require_ints("fc", 1, groups=self.groups)
        if self.out_dim % self.groups:
            raise ShapeError(f"out_dim {self.out_dim} not divisible by groups {self.groups}")
        if self.bias is not None:
            _check_float(self.bias, "fc bias")
            _same_dtype(self.kernel, self.bias, "fc bias")
            if self.bias.shape != (self.out_dim,):
                raise ShapeError(
                    f"fc bias must have shape ({self.out_dim},), got {self.bias.shape}")

    @property
    def out_dim(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_dim(self) -> int:
        return self.kernel.shape[1] * self.groups


@dataclass(frozen=True)
class BnParams:
    """Per-channel batch norm statistics and affine parameters.

    The effective std sqrt(var + eps) must be strictly positive.
    """

    mean: np.ndarray
    var: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    eps: float = 1e-5

    def __post_init__(self) -> None:
        for name in ("mean", "var", "gamma", "beta"):
            arr = getattr(self, name)
            _check_float(arr, f"bn {name}")
            if arr.ndim != 1 or not arr.size:
                raise ShapeError(f"bn {name} must be 1-D and non-empty")
            if arr.shape != self.mean.shape:
                raise ShapeError("bn parameter lengths differ")
            _same_dtype(arr, self.mean, "bn params")
        # written as not (...) so that a NaN eps or variance fails the check
        if not self.eps > 0.0:
            raise ShapeError("bn eps must be positive")
        if not float(np.min(self.var)) + self.eps > 0.0:
            raise ShapeError("bn effective variance must be strictly positive")

    @property
    def num_features(self) -> int:
        return self.mean.shape[0]

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel (scale, shift) with BN(x) = scale * x + shift; scale is
        gamma / sqrt(var + eps), each op rounded in the param dtype."""
        scale = self.gamma / np.sqrt(self.var + self.var.dtype.type(self.eps))
        return scale, self.beta - self.mean * scale


def _gemm(w: np.ndarray, cols: np.ndarray, out: np.ndarray, groups: int) -> None:
    """Write w (P, K/groups) @ cols (K, M) into out (P, M) group by group:
    row block j of w times row block j of cols into row block j of out.

    cols is laid out once for all groups: C-contiguous, and zero-padded to
    whole TILE-column groups when M is not a multiple of TILE; only the
    first M product columns are kept. w also reaches BLAS C-contiguous (a
    no-op for the callers' kernels), because BLAS rounds differently per
    operand layout.
    """
    k, m = cols.shape
    if m % TILE:
        padded = np.zeros((k, m + TILE - m % TILE), dtype=cols.dtype)
        padded[:, :m] = cols
        cols = padded
    cols, w = np.ascontiguousarray(cols), np.ascontiguousarray(w)
    qg, kg = w.shape[0] // groups, k // groups
    for gi in range(groups):
        rows = slice(gi * qg, (gi + 1) * qg)
        out[rows] = _tile_products(w[rows], cols[gi * kg:(gi + 1) * kg])[:, :m]


def _tile_products(w: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """w (P, K) @ cols (K, M): one np.matmul over all M columns per KC
    chunk, the chunk products added by a fixed pairwise tree, streamed in
    binary-counter order so that at most ceil(log2(K / KC)) + 1 partials
    are alive."""
    pending: list[tuple[int, np.ndarray]] = []
    for k0 in range(0, w.shape[1], KC):
        part = np.matmul(w[:, k0:k0 + KC], cols[k0:k0 + KC])
        level = 0
        while pending and pending[-1][0] == level:
            part = np.add(pending.pop()[1], part, out=part)
            level += 1
        pending.append((level, part))
    total = pending.pop()[1]
    while pending:
        total = np.add(pending.pop()[1], total, out=total)
    return total


def conv2d(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Grouped 2-D convolution with zero padding, run at spec.stride.

    Output group j reads only input channel group j. A padded input is
    copied once to channel-major (C, N, H, W) order. The patch matrix of a
    group has one row per (channel, tap row, tap column) and one column per
    output position (image, row, column). It is built one slab of whole
    images at a time, into one buffer of at most SLAB_BYTES (at least one
    image) that every slab and group reuses, in two steps: one copy per tap
    column j fills a second reused buffer with the full-height plane of
    columns j, j+s, ..., and one copy per tap row i then takes rows i, i+s,
    ... of every such plane. That is kh+kw copies, and at stride 1 each
    runs over whole H_out x W_out planes. Each slab and group makes one
    single-group _gemm call into its columns of the result. A 1x1 conv
    needs no patch matrix: every s-th row and column of the channel-major
    input goes to one _gemm call over all groups, as grouped_fc's input does.
    The bias is added last, and the result is transposed back to
    (N, C, H, W) once.
    """
    check_feature_map(x)
    _same_dtype(x, spec.kernel, "conv2d")
    n, c, h, w = x.shape
    g = spec.groups
    out_ch = spec.out_channels
    cg = spec.kernel.shape[1]
    if c != cg * g:
        raise ShapeError(
            f"conv2d: input has {c} channels, kernel expects {cg * g} ({cg} x {g} groups)")
    kh, kw = spec.kernel_size
    ph, pw = spec.padding
    s = spec.stride
    hp, wp = h + 2 * ph, w + 2 * pw
    ho, wo = _window_out("conv2d", (h, w), (kh, kw), s, (ph, pw))

    xc = x.transpose(1, 0, 2, 3)
    if ph or pw:
        xc = np.zeros((c, n, hp, wp), dtype=x.dtype)
        xc[:, :, ph:ph + h, pw:pw + w] = x.transpose(1, 0, 2, 3)
    m = n * ho * wo
    og = out_ch // g
    k = cg * kh * kw
    kernel = spec.kernel.reshape(out_ch, k)
    out = np.empty((out_ch, m), dtype=x.dtype)
    # The patch path gives a 1x1 conv the same bytes, but copies its input
    # first: the 36 model 1x1 convs of repmlp-res50 at batch 1 took a median
    # 0.063 s that way and 0.055 s here, on a 2-vCPU Xeon.
    if kh == kw == 1:
        _gemm(kernel, xc[:, :, ::s, ::s].reshape(c, m), out, g)
    else:
        per_image = k * ho * wo
        per_shifted = cg * kw * hp * wo
        nb = max(1, min(n, SLAB_BYTES // (per_image * x.itemsize)))
        buf = np.empty(nb * per_image, dtype=x.dtype)
        shift_buf = np.empty(nb * per_shifted, dtype=x.dtype)
        for n0 in range(0, n, nb):
            b = min(nb, n - n0)
            cols = buf[:b * per_image].reshape(cg, kh, kw, b, ho, wo)
            shifted = shift_buf[:b * per_shifted].reshape(cg, kw, b, hp, wo)
            # One group's patch per _gemm call. All groups' patches and one
            # grouped call kept the bytes but, on a 2-vCPU Xeon, slowed 8 of 9
            # pure-mlp-cifar branch convs by up to 17% (512 tiles, k=5: 12.13
            # -> 14.25 ms) and res50 c3's 5x5 branch 1.13 -> 1.49 ms: one
            # group's patch fits in L2, all groups' patches do not.
            for gi in range(g):
                xg = xc[gi * cg:(gi + 1) * cg, n0:n0 + b]
                for j in range(kw):
                    shifted[:, j] = xg[:, :, :, j:j + s * (wo - 1) + 1:s]
                for i in range(kh):
                    cols[:, i] = shifted[:, :, :, i:i + s * (ho - 1) + 1:s]
                _gemm(kernel[gi * og:(gi + 1) * og], cols.reshape(k, b * ho * wo),
                      out[gi * og:(gi + 1) * og, n0 * ho * wo:(n0 + b) * ho * wo], 1)
    if spec.bias is not None:
        out += spec.bias.reshape(out_ch, 1)
    return np.ascontiguousarray(out.reshape(out_ch, n, ho, wo).transpose(1, 0, 2, 3))


def grouped_fc(v: np.ndarray, spec: FcSpec) -> np.ndarray:
    """Grouped fully connected layer on (N, P) inputs.

    One _gemm call runs the kernel against the transposed input, group by
    group, and the bias is added last. That is bit for bit a
    grouped 1x1 convolution of the input reshaped to (N, P, 1, 1) with the
    kernel viewed as (Q, P/g, 1, 1). Output feature block j depends only
    on input block j.
    """
    _check_float(v, "fc input")
    if v.ndim != 2:
        raise ShapeError(f"fc input must be 2-D (N, P), got shape {v.shape}")
    _same_dtype(v, spec.kernel, "grouped_fc")
    n, p = v.shape
    if p != spec.in_dim:
        raise ShapeError(f"fc input has {p} features, spec expects {spec.in_dim}")
    out = np.empty((n, spec.out_dim), dtype=v.dtype)
    _gemm(spec.kernel, v.T, out.T, spec.groups)
    if spec.bias is not None:
        out += spec.bias
    return out


def batchnorm_inference(x: np.ndarray, bn: BnParams) -> np.ndarray:
    """Inference-mode batch norm: gamma * (x - mean) / sqrt(var + eps) + beta."""
    check_feature_map(x)
    _same_dtype(x, bn.mean, "batchnorm_inference")
    if x.shape[1] != bn.num_features:
        raise ShapeError(
            f"batchnorm: input has {x.shape[1]} channels, params have {bn.num_features}")
    scale, shift = bn.affine()
    return x * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)


def avg_pool_global(x: np.ndarray) -> np.ndarray:
    """Average over the full spatial extent, keeping dims: (N, C, H, W) -> (N, C, 1, 1)."""
    check_feature_map(x)
    if x.shape[2] < 1 or x.shape[3] < 1:
        raise ShapeError("avg_pool_global: empty spatial extent")
    return x.mean(axis=(2, 3), keepdims=True)


def partition(x: np.ndarray, part_h: int, part_w: int) -> np.ndarray:
    """Cut every image into an (H/part_h) x (W/part_w) grid of tiles.

    Output dims are (N * H/part_h * W/part_w, C, part_h, part_w); the tile
    batch index is ordered (image, tile row, tile column). Non-divisible
    H or W is an error, never silently padded.
    """
    check_feature_map(x)
    n, c, h, w = x.shape
    if part_h < 1 or part_w < 1:
        raise ShapeError("partition size must be >= 1")
    if h % part_h or w % part_w:
        raise ShapeError(f"partition: ({h}, {w}) not divisible by tile ({part_h}, {part_w})")
    nh, nw = h // part_h, w // part_w
    t = x.reshape(n, c, nh, part_h, nw, part_w).transpose(0, 2, 4, 1, 3, 5)
    return t.reshape(n * nh * nw, c, part_h, part_w)


def inverse_partition(pmap: np.ndarray, n: int, height: int, width: int) -> np.ndarray:
    """Reassemble partition tiles back into (n, C, height, width) images.

    Exact inverse of partition for matching arguments.
    """
    check_feature_map(pmap)
    b, c, part_h, part_w = pmap.shape
    if height % part_h or width % part_w:
        raise ShapeError(f"inverse_partition: ({height}, {width}) not divisible by tile "
                         f"({part_h}, {part_w})")
    nh, nw = height // part_h, width // part_w
    if b != n * nh * nw:
        raise ShapeError(
            f"inverse_partition: {b} tiles cannot form {n} images of {nh}x{nw} tiles")
    t = pmap.reshape(n, nh, nw, c, part_h, part_w).transpose(0, 3, 1, 4, 2, 5)
    return t.reshape(n, c, height, width)
