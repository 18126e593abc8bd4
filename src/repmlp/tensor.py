"""Reference tensor kernels: grouped convolution, grouped fully connected,
inference batch norm, global average pooling, and the block partition
reshape.

Feature maps are dense 4-D numpy arrays in (N, C, H, W) layout, row-major,
float32 or float64. Every operation is a pure function: inputs are never
mutated and the output dtype always equals the input dtype. Convolution is
stride 1 with zero padding and is computed as an explicit sliding window
(one einsum per kernel offset, no im2col and no BLAS), which keeps the
arithmetic auditable and makes results bitwise identical under any split of
the batch dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShapeError(ValueError):
    """Raised when array shapes, dtypes, groups, or sizes do not line up."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeError(msg)


def _check_float(arr: np.ndarray, name: str) -> None:
    _require(isinstance(arr, np.ndarray), f"{name} must be a numpy array")
    _require(arr.dtype in FLOAT_DTYPES, f"{name} must be float32 or float64, got {arr.dtype}")


def check_feature_map(x: np.ndarray) -> None:
    """Validate the (N, C, H, W) feature map contract."""
    _check_float(x, "input")
    _require(x.ndim == 4, f"feature map must be 4-D (N, C, H, W), got shape {x.shape}")


def _same_dtype(a: np.ndarray, b: np.ndarray, what: str) -> None:
    _require(a.dtype == b.dtype, f"{what}: dtype mismatch {a.dtype} vs {b.dtype}")


@dataclass(frozen=True)
class ConvSpec:
    """Grouped 2-D convolution parameters.

    kernel has dims (out_channels, in_channels / groups, K_h, K_w);
    bias, when present, has length out_channels. Stride is always 1.
    """

    kernel: np.ndarray
    bias: np.ndarray | None
    padding: tuple[int, int]
    groups: int = 1

    def __post_init__(self) -> None:
        _check_float(self.kernel, "conv kernel")
        _require(self.kernel.ndim == 4, f"conv kernel must be 4-D, got shape {self.kernel.shape}")
        _require(self.groups >= 1, "groups must be >= 1")
        out_ch = self.kernel.shape[0]
        _require(out_ch >= 1 and out_ch % self.groups == 0,
                 f"out_channels {out_ch} not divisible by groups {self.groups}")
        ph, pw = self.padding
        _require(ph >= 0 and pw >= 0, "padding must be non-negative")
        if self.bias is not None:
            _check_float(self.bias, "conv bias")
            _same_dtype(self.kernel, self.bias, "conv bias")
            _require(self.bias.shape == (out_ch,),
                     f"conv bias must have shape ({out_ch},), got {self.bias.shape}")

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
    output feature q over its own group's inputs. bias, when present, has
    length out_dim.
    """

    kernel: np.ndarray
    bias: np.ndarray | None
    groups: int
    in_dim: int
    out_dim: int

    def __post_init__(self) -> None:
        _check_float(self.kernel, "fc kernel")
        _require(self.kernel.ndim == 2, f"fc kernel must be 2-D, got shape {self.kernel.shape}")
        _require(self.groups >= 1, "groups must be >= 1")
        _require(self.in_dim % self.groups == 0,
                 f"in_dim {self.in_dim} not divisible by groups {self.groups}")
        _require(self.out_dim % self.groups == 0,
                 f"out_dim {self.out_dim} not divisible by groups {self.groups}")
        expect = (self.out_dim, self.in_dim // self.groups)
        _require(self.kernel.shape == expect,
                 f"fc kernel shape {self.kernel.shape} does not match "
                 f"(out_dim, in_dim/groups) = {expect}")
        if self.bias is not None:
            _check_float(self.bias, "fc bias")
            _same_dtype(self.kernel, self.bias, "fc bias")
            _require(self.bias.shape == (self.out_dim,),
                     f"fc bias must have shape ({self.out_dim},), got {self.bias.shape}")


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
            _require(arr.ndim == 1, f"bn {name} must be 1-D")
            _require(arr.shape == self.mean.shape, "bn parameter lengths differ")
            _same_dtype(arr, self.mean, "bn params")
        _require(self.eps > 0.0, "bn eps must be positive")
        _require(float(np.min(self.var)) + self.eps > 0.0,
                 "bn effective variance must be strictly positive")

    @property
    def num_features(self) -> int:
        return self.mean.shape[0]

    def std(self) -> np.ndarray:
        """Effective standard deviation sqrt(var + eps) in the param dtype."""
        return np.sqrt(self.var + self.var.dtype.type(self.eps))

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel (scale, shift) with BN(x) = scale * x + shift."""
        scale = self.gamma / self.std()
        return scale, self.beta - self.mean * scale


def conv2d(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Grouped 2-D convolution, stride 1, zero padding.

    Computed as a sliding window: the output accumulates one shifted
    input-window product per kernel tap. Output group j reads only input
    channel group j.
    """
    check_feature_map(x)
    _same_dtype(x, spec.kernel, "conv2d")
    n, c, h, w = x.shape
    g = spec.groups
    out_ch = spec.out_channels
    cg = spec.kernel.shape[1]
    _require(c == cg * g,
             f"conv2d: input has {c} channels, kernel expects {cg * g} ({cg} x {g} groups)")
    kh, kw = spec.kernel_size
    ph, pw = spec.padding
    hp, wp = h + 2 * ph, w + 2 * pw
    _require(kh <= hp and kw <= wp,
             f"conv2d: kernel ({kh}, {kw}) larger than padded input ({hp}, {wp})")
    ho, wo = hp - kh + 1, wp - kw + 1

    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, out_ch, ho, wo), dtype=x.dtype)
    og = out_ch // g
    for gi in range(g):
        xg = xp[:, gi * cg:(gi + 1) * cg]
        kg = spec.kernel[gi * og:(gi + 1) * og]
        acc = out[:, gi * og:(gi + 1) * og]
        for i in range(kh):
            for j in range(kw):
                acc += np.einsum("nchw,oc->nohw", xg[:, :, i:i + ho, j:j + wo], kg[:, :, i, j])
    if spec.bias is not None:
        out += spec.bias.reshape(1, out_ch, 1, 1)
    return out


def grouped_fc(v: np.ndarray, spec: FcSpec) -> np.ndarray:
    """Grouped fully connected layer on (N, P) inputs.

    Equals reshaping the input to (N, P, 1, 1) and running a grouped 1x1
    convolution with the kernel viewed as (Q, P/g, 1, 1). Output feature
    block j depends only on input block j.
    """
    _check_float(v, "fc input")
    _require(v.ndim == 2, f"fc input must be 2-D (N, P), got shape {v.shape}")
    _same_dtype(v, spec.kernel, "grouped_fc")
    n, p = v.shape
    _require(p == spec.in_dim, f"fc input has {p} features, spec expects {spec.in_dim}")
    g = spec.groups
    pg = p // g
    qg = spec.out_dim // g
    out = np.empty((n, spec.out_dim), dtype=v.dtype)
    for gi in range(g):
        out[:, gi * qg:(gi + 1) * qg] = np.einsum(
            "np,qp->nq", v[:, gi * pg:(gi + 1) * pg], spec.kernel[gi * qg:(gi + 1) * qg])
    if spec.bias is not None:
        out += spec.bias
    return out


def batchnorm_inference(x: np.ndarray, bn: BnParams) -> np.ndarray:
    """Inference-mode batch norm: gamma * (x - mean) / sqrt(var + eps) + beta."""
    check_feature_map(x)
    _same_dtype(x, bn.mean, "batchnorm_inference")
    _require(x.shape[1] == bn.num_features,
             f"batchnorm: input has {x.shape[1]} channels, params have {bn.num_features}")
    scale, shift = bn.affine()
    return x * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)


def avg_pool_global(x: np.ndarray) -> np.ndarray:
    """Average over the full spatial extent, keeping dims: (N, C, H, W) -> (N, C, 1, 1)."""
    check_feature_map(x)
    _require(x.shape[2] >= 1 and x.shape[3] >= 1, "avg_pool_global: empty spatial extent")
    return x.mean(axis=(2, 3), keepdims=True)


def partition(x: np.ndarray, part_h: int, part_w: int) -> np.ndarray:
    """Cut every image into an (H/part_h) x (W/part_w) grid of tiles.

    Output dims are (N * H/part_h * W/part_w, C, part_h, part_w); the tile
    batch index is ordered (image, tile row, tile column). Non-divisible
    H or W is an error, never silently padded.
    """
    check_feature_map(x)
    n, c, h, w = x.shape
    _require(part_h >= 1 and part_w >= 1, "partition size must be >= 1")
    _require(h % part_h == 0 and w % part_w == 0,
             f"partition: ({h}, {w}) not divisible by tile ({part_h}, {part_w})")
    nh, nw = h // part_h, w // part_w
    t = x.reshape(n, c, nh, part_h, nw, part_w).transpose(0, 2, 4, 1, 3, 5)
    return t.reshape(n * nh * nw, c, part_h, part_w)


def inverse_partition(pmap: np.ndarray, n: int, height: int, width: int) -> np.ndarray:
    """Reassemble partition tiles back into (n, C, height, width) images.

    Exact inverse of partition for matching arguments.
    """
    check_feature_map(pmap)
    b, c, part_h, part_w = pmap.shape
    _require(height % part_h == 0 and width % part_w == 0,
             f"inverse_partition: ({height}, {width}) not divisible by tile ({part_h}, {part_w})")
    nh, nw = height // part_h, width // part_w
    _require(b == n * nh * nw,
             f"inverse_partition: {b} tiles cannot form {n} images of {nh}x{nw} tiles")
    t = pmap.reshape(n, nh, nw, c, part_h, part_w).transpose(0, 3, 1, 4, 2, 5)
    return t.reshape(n, c, height, width)
