"""Binary block checkpoints.

Layout, all integers little-endian:

    bytes 0..3   magic b"RMLP"
    byte  4      format version (currently 1)
    uint32       config record length, then that many bytes of UTF-8 JSON
    uint32       tensor count
    per tensor:  uint16 name length, name bytes,
                 uint8 rank, rank x uint32 dims,
                 dims-product x 4 bytes of little-endian float32 payload

Tensor names are unique. Payloads are written with '<f4' byte order
explicitly, so a save/load/save cycle is bit-exact on any host. The config
record carries the block hyper-parameters, the weight form ("train" or
"infer") and the BN epsilon; tensor payloads hold only numbers.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .block import RepMLPConfig, RepMLPTrainWeights
from .reparam import RepMLPInferWeights
from .tensor import BnParams, ConvSpec, FcSpec

MAGIC = b"RMLP"
FORMAT_VERSION = 1

FORM_TRAIN = "train"
FORM_INFER = "infer"


class CheckpointError(ValueError):
    """Raised for malformed files, wrong forms, or missing tensors."""


def config_record(cfg: RepMLPConfig, form: str, bn_eps: float = 1e-5) -> dict:
    if form not in (FORM_TRAIN, FORM_INFER):
        raise CheckpointError(f"unknown weight form {form!r}")
    return {
        "record": "repmlp-block",
        "form": form,
        "in_channels": cfg.in_channels,
        "out_channels": cfg.out_channels,
        "height": cfg.height,
        "width": cfg.width,
        "part_h": cfg.part_h,
        "part_w": cfg.part_w,
        "groups": cfg.groups,
        "branch_kernels": list(cfg.branch_kernels),
        "gp_internal_dim": cfg.gp_internal_dim,
        "gp_nonlinearity": cfg.gp_nonlinearity,
        "bn_eps": bn_eps,
    }


_INT_FIELDS = ("in_channels", "out_channels", "height", "width", "part_h", "part_w", "groups")
_RECORD_KEYS = ("form", *_INT_FIELDS, "branch_kernels", "gp_internal_dim", "gp_nonlinearity",
                "bn_eps")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def config_from_record(rec: dict) -> RepMLPConfig:
    """Block config of a record; raises CheckpointError on a bad schema."""
    if not isinstance(rec, dict):
        raise CheckpointError(f"config record must be a JSON object, got {type(rec).__name__}")
    if rec.get("record") != "repmlp-block":
        raise CheckpointError(f"not a block checkpoint: record={rec.get('record')!r}")
    missing = [k for k in _RECORD_KEYS if k not in rec]
    if missing:
        raise CheckpointError(f"config record missing keys: {', '.join(missing)}")
    ks, gp, eps = rec["branch_kernels"], rec["gp_internal_dim"], rec["bn_eps"]
    wrong = [k for k in _INT_FIELDS if not _is_int(rec[k])]
    if not isinstance(ks, list) or not all(_is_int(k) for k in ks):
        wrong.append("branch_kernels")
    if gp is not None and not _is_int(gp):
        wrong.append("gp_internal_dim")
    if not isinstance(rec["gp_nonlinearity"], str):
        wrong.append("gp_nonlinearity")
    if isinstance(eps, bool) or not isinstance(eps, (int, float)):
        wrong.append("bn_eps")
    if wrong:
        raise CheckpointError(f"config record fields of the wrong type: {', '.join(wrong)}")
    return RepMLPConfig(**{k: rec[k] for k in _INT_FIELDS}, branch_kernels=tuple(ks),
                        gp_internal_dim=gp, gp_nonlinearity=rec["gp_nonlinearity"])


def _write_tensor(fh: BinaryIO, name: str, arr: np.ndarray) -> None:
    payload = np.ascontiguousarray(arr, dtype="<f4")
    raw_name = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw_name)))
    fh.write(raw_name)
    fh.write(struct.pack("<B", payload.ndim))
    for d in payload.shape:
        fh.write(struct.pack("<I", d))
    fh.write(payload.tobytes())


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError("truncated checkpoint")
    return buf


def _read_tensor(fh: BinaryIO, file_size: int) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
    name = _read_exact(fh, name_len).decode("utf-8")
    (rank,) = struct.unpack("<B", _read_exact(fh, 1))
    dims = tuple(struct.unpack("<I", _read_exact(fh, 4))[0] for _ in range(rank))
    nbytes, left = 4 * math.prod(dims), file_size - fh.tell()
    if nbytes > left:
        raise CheckpointError(f"truncated checkpoint: tensor {name!r} of dims {dims} "
                              f"needs {nbytes} bytes, {left} left")
    arr = np.frombuffer(_read_exact(fh, nbytes), dtype="<f4").reshape(dims)
    return name, arr.astype(np.float32)


def save_checkpoint(path: str, config: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write a checkpoint. Tensor order follows dict insertion order."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", FORMAT_VERSION))
        raw_cfg = json.dumps(config, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(raw_cfg)))
        fh.write(raw_cfg)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            _write_tensor(fh, name, arr)


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint")
        (version,) = struct.unpack("<B", _read_exact(fh, 1))
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4))
        config = json.loads(_read_exact(fh, cfg_len).decode("utf-8"))
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            name, arr = _read_tensor(fh, file_size)
            if name in tensors:
                raise CheckpointError(f"duplicate tensor name {name!r}")
            tensors[name] = arr
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after tensor table")
    return config, tensors


def _take(tensors: dict[str, np.ndarray], name: str) -> np.ndarray:
    if name not in tensors:
        raise CheckpointError(f"missing tensor {name!r}")
    return tensors[name]


def _bn_tensors(prefix: str, bn: BnParams) -> dict[str, np.ndarray]:
    return {
        f"{prefix}.mean": bn.mean,
        f"{prefix}.var": bn.var,
        f"{prefix}.gamma": bn.gamma,
        f"{prefix}.beta": bn.beta,
    }


def _bn_from(tensors: dict, prefix: str, eps: float) -> BnParams:
    return BnParams(
        mean=_take(tensors, f"{prefix}.mean"),
        var=_take(tensors, f"{prefix}.var"),
        gamma=_take(tensors, f"{prefix}.gamma"),
        beta=_take(tensors, f"{prefix}.beta"),
        eps=eps,
    )


def train_weights_to_tensors(w: RepMLPTrainWeights) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {"fc3.kernel": w.fc3.kernel}
    tensors.update(_bn_tensors("fc3_bn", w.fc3_bn))
    for conv, bn in sorted(w.branches, key=lambda pair: pair[0].kernel_size):
        k = conv.kernel_size[0]
        tensors[f"branch{k}.kernel"] = conv.kernel
        tensors.update(_bn_tensors(f"branch{k}.bn", bn))
    if w.gp_bn is not None:
        tensors.update(_bn_tensors("gp_bn", w.gp_bn))
    tensors.update(_global_fc_tensors(w))
    return tensors


def infer_weights_to_tensors(w: RepMLPInferWeights) -> dict[str, np.ndarray]:
    return {"fc3.kernel": w.fc3.kernel, "fc3.bias": w.fc3.bias, **_global_fc_tensors(w)}


def _global_fc_tensors(w: RepMLPTrainWeights | RepMLPInferWeights) -> dict[str, np.ndarray]:
    """fc1.* then fc2.* of either weight form; empty without a global path."""
    tensors = {}
    for name in ("fc1", "fc2"):
        fc = getattr(w, name)
        if fc is not None:
            tensors[f"{name}.kernel"] = fc.kernel
            tensors[f"{name}.bias"] = fc.bias
    return tensors


def _global_fcs_from(cfg: RepMLPConfig, tensors: dict) -> tuple:
    """(fc1, fc2) of either weight form; (None, None) without a global path."""
    if not cfg.has_global_path:
        return None, None
    c, d = cfg.in_channels, cfg.gp_hidden
    return tuple(FcSpec(kernel=_take(tensors, f"{name}.kernel"),
                        bias=_take(tensors, f"{name}.bias"), groups=1, in_dim=i, out_dim=o)
                 for name, i, o in (("fc1", c, d), ("fc2", d, c)))


def train_weights_from_tensors(cfg: RepMLPConfig, tensors: dict[str, np.ndarray],
                               eps: float = 1e-5) -> RepMLPTrainWeights:
    fc3 = FcSpec(kernel=_take(tensors, "fc3.kernel"), bias=None, groups=cfg.groups,
                 in_dim=cfg.fc_in_dim, out_dim=cfg.fc_out_dim)
    branches = []
    for k in sorted(cfg.branch_kernels):
        conv = ConvSpec(kernel=_take(tensors, f"branch{k}.kernel"), bias=None,
                        padding=(k // 2, k // 2), groups=cfg.groups)
        branches.append((conv, _bn_from(tensors, f"branch{k}.bn", eps)))
    gp_bn = _bn_from(tensors, "gp_bn", eps) if cfg.has_global_path else None
    fc1, fc2 = _global_fcs_from(cfg, tensors)
    return RepMLPTrainWeights(fc3=fc3, fc3_bn=_bn_from(tensors, "fc3_bn", eps),
                              branches=tuple(branches), gp_bn=gp_bn, fc1=fc1, fc2=fc2)


def infer_weights_from_tensors(cfg: RepMLPConfig,
                               tensors: dict[str, np.ndarray]) -> RepMLPInferWeights:
    fc3 = FcSpec(kernel=_take(tensors, "fc3.kernel"), bias=_take(tensors, "fc3.bias"),
                 groups=cfg.groups, in_dim=cfg.fc_in_dim, out_dim=cfg.fc_out_dim)
    fc1, fc2 = _global_fcs_from(cfg, tensors)
    return RepMLPInferWeights(fc3=fc3, fc1=fc1, fc2=fc2)


def save_train_checkpoint(path: str, cfg: RepMLPConfig, w: RepMLPTrainWeights,
                          bn_eps: float = 1e-5) -> None:
    save_checkpoint(path, config_record(cfg, FORM_TRAIN, bn_eps), train_weights_to_tensors(w))


def save_infer_checkpoint(path: str, cfg: RepMLPConfig, w: RepMLPInferWeights) -> None:
    save_checkpoint(path, config_record(cfg, FORM_INFER), infer_weights_to_tensors(w))


def load_block_checkpoint(path: str):
    """Load a block checkpoint.

    Returns (cfg, form, weights) where weights is the train or infer
    structure according to the stored form.
    """
    config, tensors = load_checkpoint(path)
    cfg = config_from_record(config)
    form = config["form"]
    eps = float(config["bn_eps"])
    if form == FORM_TRAIN:
        return cfg, form, train_weights_from_tensors(cfg, tensors, eps)
    if form == FORM_INFER:
        return cfg, form, infer_weights_from_tensors(cfg, tensors)
    raise CheckpointError(f"unknown weight form {form!r}")
