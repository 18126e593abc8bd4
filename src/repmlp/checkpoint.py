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
explicitly, so a save/load/save cycle is bit-exact on any host.

The JSON record holds every RepMLPConfig field under its own name, plus
"record", "form" ("train" or "infer"), "bn_eps", the one eps that all
BNs of a train block share, and "gp_nonlinearity", always "relu". Each
array of a weight dataclass is named <field>.<array field> (fc3.kernel,
fc3_bn.mean, ...) in declaration order, None skipped; branch k's conv and
BN go under branch<k> and branch<k>.bn. So renaming a field changes the
format.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import math
import os
import struct
import sys
from typing import BinaryIO

import numpy as np

from .block import RepMLPConfig, RepMLPTrainWeights, check_train_weights
from .reparam import RepMLPInferWeights, check_infer_weights
from .tensor import BnParams, ConvSpec, FcSpec, ShapeError

MAGIC = b"RMLP"
FORMAT_VERSION = 1

FORM_TRAIN = "train"
FORM_INFER = "infer"


class CheckpointError(ValueError):
    """Raised for malformed files, wrong forms, missing or misshapen tensors."""


def config_record(cfg: RepMLPConfig, form: str, bn_eps: float = 1e-5) -> dict:
    return {"record": "repmlp-block", "form": form, **dataclasses.asdict(cfg), "bn_eps": bn_eps,
            "gp_nonlinearity": "relu"}


def config_from_record(rec: dict) -> RepMLPConfig:
    """Block config of a record; raises CheckpointError on a bad schema.

    Field values are checked by RepMLPConfig itself (a ShapeError), except
    the three it cannot see: branch_kernels must be a JSON list, since a
    string would split into characters, bn_eps a finite number, and
    gp_nonlinearity "relu", the one global-path nonlinearity.
    """
    if not isinstance(rec, dict):
        raise CheckpointError(f"config record must be a JSON object, got {type(rec).__name__}")
    if rec.get("record") != "repmlp-block":
        raise CheckpointError(f"not a block checkpoint: record={rec.get('record')!r}")
    fields = [f.name for f in dataclasses.fields(RepMLPConfig)]
    missing = [k for k in ("form", *fields, "bn_eps", "gp_nonlinearity") if k not in rec]
    if missing:
        raise CheckpointError(f"config record missing keys: {', '.join(missing)}")
    eps = rec["bn_eps"]
    wrong = [] if isinstance(rec["branch_kernels"], list) else ["branch_kernels"]
    # float() overflows on a JSON int past the float range
    if (isinstance(eps, bool) or not isinstance(eps, (int, float))
            or not abs(eps) <= sys.float_info.max):
        wrong.append("bn_eps")
    if wrong:
        raise CheckpointError(f"config record fields of the wrong type: {', '.join(wrong)}")
    if rec["gp_nonlinearity"] != "relu":
        raise CheckpointError(f"config record gp_nonlinearity must be 'relu', "
                              f"got {rec['gp_nonlinearity']!r}")
    return RepMLPConfig(**{k: rec[k] for k in fields})


def _write_tensor(fh: BinaryIO, name: str, arr: np.ndarray) -> None:
    payload = np.ascontiguousarray(arr, dtype="<f4")
    raw_name = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw_name)))
    fh.write(raw_name)
    fh.write(struct.pack("<B", payload.ndim))
    for d in payload.shape:
        fh.write(struct.pack("<I", d))
    # a flat byte view of the array's own buffer: no staging copy, and unlike
    # a memoryview cast it also takes a zero-size array
    fh.write(payload.reshape(-1).view(np.uint8))


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError("truncated checkpoint")
    return buf


def _read_tensor(fh: BinaryIO, file_size: int) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
    raw_name = _read_exact(fh, name_len)
    try:
        name = raw_name.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"tensor name {raw_name!r} is not UTF-8: {exc}") from exc
    (rank,) = struct.unpack("<B", _read_exact(fh, 1))
    dims = tuple(struct.unpack("<I", _read_exact(fh, 4))[0] for _ in range(rank))
    nbytes, left = 4 * math.prod(dims), file_size - fh.tell()
    if nbytes > left:
        raise CheckpointError(f"truncated checkpoint: tensor {name!r} of dims {dims} "
                              f"needs {nbytes} bytes, {left} left")
    try:
        arr = np.empty(dims, dtype="<f4")
    except ValueError as exc:  # a rank past numpy's dimension limit
        raise CheckpointError(f"tensor {name!r}: {exc}") from exc
    # read straight into the returned array; on a little-endian host the
    # float32 view below is the same buffer
    if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
        raise CheckpointError("truncated checkpoint")
    return name, arr.astype(np.float32, copy=False)


def save_checkpoint(path: str, config: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write a checkpoint. Tensor order follows dict insertion order.

    The file is written beside path under a temporary name, flushed to disk
    and renamed over path once complete, so a write that fails partway leaves
    no partial file and any old file at path unchanged. The rename replaces
    a symlink at path rather than writing through it; a path that is, or
    links to, neither a regular file nor a directory raises OSError EINVAL
    and is left as it is. The pid in the temporary name keeps processes
    apart; a name left by a killed process with the same pid is overwritten.
    """
    if os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path)):
        raise OSError(errno.EINVAL, "not a regular file", path)
    tmp = f"{path}.{os.getpid()}.tmp"
    # an error from open or rename names the path given, not the temporary one
    try:
        fh = open(tmp, "wb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<B", FORMAT_VERSION))
            raw_cfg = json.dumps(config, sort_keys=True).encode("utf-8")
            fh.write(struct.pack("<I", len(raw_cfg)))
            fh.write(raw_cfg)
            fh.write(struct.pack("<I", len(tensors)))
            for name, arr in tensors.items():
                _write_tensor(fh, name, arr)
            fh.flush()
            os.fsync(fh.fileno())
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint")
        (version,) = struct.unpack("<B", _read_exact(fh, 1))
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4))
        raw_cfg = _read_exact(fh, cfg_len)
        try:
            config = json.loads(raw_cfg.decode("utf-8"))
        # bad UTF-8 or JSON, an over-long integer, or brackets nested too deep
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(f"{path}: config record is not UTF-8 JSON: {exc}") from exc
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


def weights_to_tensors(w: RepMLPTrainWeights | RepMLPInferWeights) -> dict[str, np.ndarray]:
    """Every array of either weight form, named and ordered as the module
    docstring describes."""
    tensors: dict[str, np.ndarray] = {}

    def add(prefix: str, spec) -> None:
        for f in dataclasses.fields(spec):
            value = getattr(spec, f.name)
            if isinstance(value, np.ndarray):
                tensors[f"{prefix}.{f.name}"] = value

    for f in dataclasses.fields(w):
        value = getattr(w, f.name)
        if f.name == "branches":
            for conv, bn in value:
                k = conv.kernel_size[0]
                add(f"branch{k}", conv)
                add(f"branch{k}.bn", bn)
        elif value is not None:
            add(f.name, value)
    return tensors


def _spec(tensors: dict[str, np.ndarray], prefix: str, cls, **fixed):
    """A cls whose fields not given in fixed are the tensors prefix.<field>."""
    return cls(**fixed, **{f.name: _take(tensors, f"{prefix}.{f.name}")
                           for f in dataclasses.fields(cls) if f.name not in fixed})


def weights_from_tensors(cfg: RepMLPConfig, form: str, tensors: dict[str, np.ndarray],
                         eps: float) -> RepMLPTrainWeights | RepMLPInferWeights:
    """The weights of the given form, their tensors read by name; a train
    block's BNs all take eps."""
    def bn(prefix: str) -> BnParams:
        return _spec(tensors, prefix, BnParams, eps=eps)

    train = form == FORM_TRAIN
    branches = tuple((_spec(tensors, f"branch{k}", ConvSpec, bias=None, padding=(k // 2, k // 2),
                            groups=cfg.groups, stride=1), bn(f"branch{k}.bn"))
                     for k in cfg.branch_kernels) if train else ()
    fc1, fc2 = (_spec(tensors, name, FcSpec, groups=1) if cfg.has_global_path else None
                for name in ("fc1", "fc2"))
    if not train:
        return RepMLPInferWeights(fc3=_spec(tensors, "fc3", FcSpec, groups=cfg.groups),
                                  fc1=fc1, fc2=fc2)
    return RepMLPTrainWeights(fc3=_spec(tensors, "fc3", FcSpec, bias=None, groups=cfg.groups),
                              fc3_bn=bn("fc3_bn"), branches=branches,
                              gp_bn=bn("gp_bn") if cfg.has_global_path else None,
                              fc1=fc1, fc2=fc2)


def save_train_checkpoint(path: str, cfg: RepMLPConfig, w: RepMLPTrainWeights,
                          bn_eps: float | None = None) -> None:
    """Write a train-form block once it passes check_train_weights. The
    record's eps is the one its BNs share; BNs that differ, or a bn_eps
    that differs from theirs, are refused."""
    check_train_weights(cfg, w)
    eps = {bn.eps for bn in (w.fc3_bn, w.gp_bn, *(bn for _, bn in w.branches))
           if bn is not None}
    if bn_eps is not None:
        eps.add(bn_eps)
    if len(eps) > 1:
        raise CheckpointError(f"a v1 checkpoint stores one BN eps; the block's BNs "
                              f"and bn_eps carry {sorted(eps)}")
    (eps,) = eps
    save_checkpoint(path, config_record(cfg, FORM_TRAIN, eps), weights_to_tensors(w))


def save_infer_checkpoint(path: str, cfg: RepMLPConfig, w: RepMLPInferWeights) -> None:
    """Write an infer-form block, once it passes check_infer_weights."""
    check_infer_weights(cfg, w)
    save_checkpoint(path, config_record(cfg, FORM_INFER), weights_to_tensors(w))


def load_block_checkpoint(path: str):
    """Load a block checkpoint.

    Returns (cfg, form, weights) where weights is the train or infer
    structure of the stored form, passed through that form's weight check.
    A tensor the config does not declare is an error, not silently dropped.
    """
    config, tensors = load_checkpoint(path)
    try:
        cfg, form = config_from_record(config), config["form"]
        if form not in (FORM_TRAIN, FORM_INFER):
            raise CheckpointError(f"unknown weight form {form!r}")
        weights = weights_from_tensors(cfg, form, tensors, float(config["bn_eps"]))
        (check_train_weights if form == FORM_TRAIN else check_infer_weights)(cfg, weights)
    except ShapeError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    extra = sorted(tensors.keys() - weights_to_tensors(weights).keys())
    if extra:
        raise CheckpointError(f"tensors not declared by the config: "
                              f"{', '.join(map(repr, extra))}")
    return cfg, form, weights
