"""Checkpoint format: bit-exact round trips and malformed-file handling."""

import dataclasses
import hashlib
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from repmlp import checkpoint
from repmlp.block import RepMLPConfig, forward_train, random_train_weights
from repmlp.checkpoint import (
    CheckpointError,
    config_record,
    load_block_checkpoint,
    load_checkpoint,
    save_checkpoint,
    save_infer_checkpoint,
    save_train_checkpoint,
    weights_to_tensors,
)
from repmlp.cli import main
from repmlp.reparam import convert_block
from repmlp.tensor import ShapeError

CFG = RepMLPConfig(4, 4, 8, 8, 4, 4, groups=2, branch_kernels=(1, 3),
                   gp_internal_dim=4)


def make_weights(seed=0):
    return random_train_weights(CFG, np.random.default_rng(seed), np.float32)


def test_train_round_trip_bit_exact(tmp_path):
    w = make_weights()
    path = tmp_path / "w.rmlp"
    save_train_checkpoint(str(path), CFG, w)
    cfg2, form, w2 = load_block_checkpoint(str(path))
    assert form == "train"
    assert cfg2 == CFG
    assert np.array_equal(w2.fc3.kernel, w.fc3.kernel)
    assert np.array_equal(w2.fc3_bn.var, w.fc3_bn.var)
    assert len(w2.branches) == 2
    for (c1, b1), (c2, b2) in zip(w.branches, w2.branches):
        assert np.array_equal(c1.kernel, c2.kernel)
        assert c2.padding == c1.padding and c2.groups == c1.groups
        assert np.array_equal(b1.gamma, b2.gamma)
    assert np.array_equal(w2.fc1.kernel, w.fc1.kernel)
    assert np.array_equal(w2.fc2.bias, w.fc2.bias)
    # a second save of the loaded weights is byte-identical
    path2 = tmp_path / "w2.rmlp"
    save_train_checkpoint(str(path2), cfg2, w2)
    assert path.read_bytes() == path2.read_bytes()


def test_infer_round_trip_bit_exact(tmp_path):
    infer = convert_block(CFG, make_weights(1))
    path = tmp_path / "i.rmlp"
    save_infer_checkpoint(str(path), CFG, infer)
    cfg2, form, loaded = load_block_checkpoint(str(path))
    assert form == "infer" and cfg2 == CFG
    assert np.array_equal(loaded.fc3.kernel, infer.fc3.kernel)
    assert np.array_equal(loaded.fc3.bias, infer.fc3.bias)
    assert np.array_equal(loaded.fc1.bias, infer.fc1.bias)


def test_no_global_path_checkpoint_omits_mlp(tmp_path):
    cfg = RepMLPConfig(2, 2, 4, 4, 4, 4, branch_kernels=(3,))
    w = random_train_weights(cfg, np.random.default_rng(2), np.float32)
    path = tmp_path / "flat.rmlp"
    save_train_checkpoint(str(path), cfg, w)
    _, tensors = load_checkpoint(str(path))
    assert "fc1.kernel" not in tensors and "gp_bn.mean" not in tensors
    _, _, loaded = load_block_checkpoint(str(path))
    assert loaded.fc1 is None


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.rmlp"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(path))


def test_unsupported_version_rejected(tmp_path):
    good = tmp_path / "good.rmlp"
    save_train_checkpoint(str(good), CFG, make_weights())
    raw = bytearray(good.read_bytes())
    raw[4] = 9
    bad = tmp_path / "ver.rmlp"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(str(bad))


def test_trailing_bytes_rejected(tmp_path):
    good = tmp_path / "good.rmlp"
    save_train_checkpoint(str(good), CFG, make_weights())
    bad = tmp_path / "trail.rmlp"
    bad.write_bytes(good.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(str(bad))


def test_truncated_file_rejected(tmp_path):
    good = tmp_path / "good.rmlp"
    save_train_checkpoint(str(good), CFG, make_weights())
    bad = tmp_path / "cut.rmlp"
    bad.write_bytes(good.read_bytes()[:-7])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(bad))


def test_missing_tensor_named_in_error(tmp_path):
    tensors = weights_to_tensors(make_weights())
    del tensors["branch3.kernel"]
    path = tmp_path / "missing.rmlp"
    save_checkpoint(str(path), config_record(CFG, "train"), tensors)
    with pytest.raises(CheckpointError, match="branch3.kernel"):
        load_block_checkpoint(str(path))


def _hand_built(path, record: bytes, entries) -> None:
    """Write a file from (name, dims, payload) entries, bypassing save_checkpoint."""
    body = b""
    for name, dims, payload in entries:
        body += struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
        body += b"".join(struct.pack("<I", d) for d in dims) + payload
    path.write_bytes(b"RMLP" + struct.pack("<B", 1) + struct.pack("<I", len(record)) + record
                     + struct.pack("<I", len(entries)) + body)


def test_duplicate_tensor_name_rejected(tmp_path):
    payload = np.zeros(2, dtype="<f4").tobytes()
    path = tmp_path / "dup.rmlp"
    _hand_built(path, b"{}", [(b"dup", (2,), payload)] * 2)
    with pytest.raises(CheckpointError, match="duplicate"):
        load_checkpoint(str(path))


def test_zero_dim_tensor_reaches_the_checks(tmp_path):
    # a declared 0 dim reads as an empty array, which the block check refuses
    record = json.dumps(config_record(CFG, "train"), sort_keys=True).encode()
    entries = [(name.encode(), (0, 8) if name == "fc3.kernel" else arr.shape,
                b"" if name == "fc3.kernel" else arr.astype("<f4").tobytes())
               for name, arr in weights_to_tensors(make_weights()).items()]
    path = tmp_path / "zero.rmlp"
    _hand_built(path, record, entries)
    assert load_checkpoint(str(path))[1]["fc3.kernel"].shape == (0, 8)
    with pytest.raises(CheckpointError, match="fc3"):
        load_block_checkpoint(str(path))


def test_rank_past_numpy_limit_rejected(tmp_path):
    path = tmp_path / "rank.rmlp"
    _hand_built(path, b"{}", [(b"deep", (1,) * 65, np.zeros(1, dtype="<f4").tobytes())])
    with pytest.raises(CheckpointError, match="deep"):
        load_checkpoint(str(path))


def test_failed_save_leaves_no_partial_file(tmp_path, monkeypatch):
    real_write = checkpoint._write_tensor
    written = []

    def fail_after_first(fh, name, arr):
        if written:
            raise OSError("disk full")
        written.append(name)
        real_write(fh, name, arr)

    path = tmp_path / "w.rmlp"
    monkeypatch.setattr(checkpoint, "_write_tensor", fail_after_first)
    with pytest.raises(OSError, match="disk full"):
        save_train_checkpoint(str(path), CFG, make_weights())
    assert written and list(tmp_path.iterdir()) == []  # neither the file nor a temporary

    monkeypatch.undo()
    save_train_checkpoint(str(path), CFG, make_weights(1))
    old = path.read_bytes()
    written.clear()
    monkeypatch.setattr(checkpoint, "_write_tensor", fail_after_first)
    with pytest.raises(OSError, match="disk full"):
        save_train_checkpoint(str(path), CFG, make_weights(2))
    assert path.read_bytes() == old and list(tmp_path.iterdir()) == [path]



def test_save_overwrites_a_stale_temporary_file(tmp_path):
    # a save killed before its rename leaves <path>.<pid>.tmp; a later
    # process that gets the same pid must still be able to save
    path = tmp_path / "w.rmlp"
    stale = tmp_path / f"w.rmlp.{os.getpid()}.tmp"
    stale.write_bytes(b"left by a killed save")
    save_train_checkpoint(str(path), CFG, make_weights())
    assert list(tmp_path.iterdir()) == [path]
    assert load_block_checkpoint(str(path))[0] == CFG


# no global path: fc3 is a (4096, 2048) kernel, 32 MiB in float32
BIG_CFG = RepMLPConfig(64, 64, 8, 8, 8, 8, groups=2, branch_kernels=(1, 3, 5, 7),
                       gp_internal_dim=832)


def _traced_peak(fn):
    """(result, peak traced bytes above the start) of one call."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - start


def test_big_block_save_stages_no_tensor_copy(tmp_path):
    # each tensor is written from its own buffer
    w = random_train_weights(BIG_CFG, np.random.default_rng(0), np.float32)
    _, peak = _traced_peak(lambda: save_train_checkpoint(str(tmp_path / "big.rmlp"), BIG_CFG, w))
    assert peak / 2 ** 20 < 1


def test_big_block_load_stages_no_tensor_copy(tmp_path):
    # each tensor is read into the array that is returned
    w = random_train_weights(BIG_CFG, np.random.default_rng(0), np.float32)
    path = tmp_path / "big.rmlp"
    save_train_checkpoint(str(path), BIG_CFG, w)
    del w
    (_, _, loaded), peak = _traced_peak(lambda: load_block_checkpoint(str(path)))
    returned = sum(a.nbytes for a in weights_to_tensors(loaded).values())
    assert (peak - returned) / 2 ** 20 < 1


def test_non_block_record_rejected(tmp_path):
    path = tmp_path / "other.rmlp"
    save_checkpoint(str(path), {"record": "something-else"}, {})
    with pytest.raises(CheckpointError, match="record"):
        load_block_checkpoint(str(path))


def test_retired_global_nonlinearity_rejected(tmp_path, capsys):
    # a record may only say "relu": "identity" is what files of blocks
    # without the global-path ReLU hold, and a record without the key is
    # not a v1 record
    record = config_record(CFG, "train")
    entries = [(name.encode(), arr.shape, arr.astype("<f4").tobytes())
               for name, arr in weights_to_tensors(make_weights()).items()]
    del record["gp_nonlinearity"]
    path, out = tmp_path / "nl.rmlp", tmp_path / "out.rmlp"
    for rec in (dict(record, gp_nonlinearity="identity"), record):
        _hand_built(path, json.dumps(rec, sort_keys=True).encode(), entries)
        with pytest.raises(CheckpointError, match="gp_nonlinearity"):
            load_block_checkpoint(str(path))
        assert main(["convert", str(path), str(out)]) == 2
        assert "gp_nonlinearity" in capsys.readouterr().err
    assert not out.exists()


def _with_eps(w, fc3_eps, other_eps):
    def bn(b, eps):
        return dataclasses.replace(b, eps=eps)
    return dataclasses.replace(
        w, fc3_bn=bn(w.fc3_bn, fc3_eps), gp_bn=bn(w.gp_bn, other_eps),
        branches=tuple((conv, bn(b, other_eps)) for conv, b in w.branches))


def test_bn_eps_travels_with_the_file(tmp_path):
    w = _with_eps(make_weights(), 1e-3, 1e-3)
    path = tmp_path / "eps.rmlp"
    save_train_checkpoint(str(path), CFG, w)   # the eps comes from the BNs
    _, _, loaded = load_block_checkpoint(str(path))
    bns = (loaded.fc3_bn, loaded.gp_bn, *(b for _, b in loaded.branches))
    assert {b.eps for b in bns} == {1e-3}
    x = np.random.default_rng(4).uniform(-1, 1, (2, 4, 8, 8)).astype(np.float32)
    assert np.array_equal(forward_train(x, CFG, loaded), forward_train(x, CFG, w))
    save_train_checkpoint(str(path), CFG, w, bn_eps=1e-3)   # an agreeing bn_eps is accepted


@pytest.mark.parametrize("fc3_eps, other_eps, bn_eps", [(1e-3, 1e-5, None),
                                                        (1e-3, 1e-3, 1e-5)])
def test_save_refuses_eps_one_record_cannot_hold(tmp_path, fc3_eps, other_eps, bn_eps):
    path = tmp_path / "eps.rmlp"
    with pytest.raises(CheckpointError, match="one BN eps"):
        save_train_checkpoint(str(path), CFG, _with_eps(make_weights(), fc3_eps, other_eps),
                              bn_eps=bn_eps)
    assert not path.exists()


def test_save_runs_the_weight_check_first(tmp_path):
    w = make_weights()
    bias_free = dataclasses.replace(w, fc2=dataclasses.replace(w.fc2, bias=None))
    infer = convert_block(CFG, w)
    no_fc3_bias = dataclasses.replace(infer, fc3=dataclasses.replace(infer.fc3, bias=None))
    path = tmp_path / "bad.rmlp"
    with pytest.raises(ShapeError, match="bias"):
        save_train_checkpoint(str(path), CFG, bias_free)
    with pytest.raises(ShapeError, match="bias"):
        save_infer_checkpoint(str(path), CFG, no_fc3_bias)
    assert not path.exists()


# The v1 format. Record keys and tensor names follow the dataclass field
# names, so a renamed field must fail these tests rather than change the format.
FLAT_CFG = RepMLPConfig(2, 2, 4, 4, 4, 4, branch_kernels=(3,))
V1_RECORDS = {
    (CFG, "train"): b'{"bn_eps": 1e-05, "branch_kernels": [1, 3], "form": "train", '
                    b'"gp_internal_dim": 4, "gp_nonlinearity": "relu", "groups": 2, '
                    b'"height": 8, "in_channels": 4, "out_channels": 4, "part_h": 4, '
                    b'"part_w": 4, "record": "repmlp-block", "width": 8}',
    (FLAT_CFG, "infer"): b'{"bn_eps": 1e-05, "branch_kernels": [3], "form": "infer", '
                         b'"gp_internal_dim": null, "gp_nonlinearity": "relu", "groups": 1, '
                         b'"height": 4, "in_channels": 2, "out_channels": 2, "part_h": 4, '
                         b'"part_w": 4, "record": "repmlp-block", "width": 4}',
}
V1_TRAIN_NAMES = ["fc3.kernel", "fc3_bn.mean", "fc3_bn.var", "fc3_bn.gamma", "fc3_bn.beta",
                  "branch1.kernel", "branch1.bn.mean", "branch1.bn.var", "branch1.bn.gamma",
                  "branch1.bn.beta", "branch3.kernel", "branch3.bn.mean", "branch3.bn.var",
                  "branch3.bn.gamma", "branch3.bn.beta", "gp_bn.mean", "gp_bn.var",
                  "gp_bn.gamma", "gp_bn.beta", "fc1.kernel", "fc1.bias", "fc2.kernel",
                  "fc2.bias"]
V1_INFER_NAMES = ["fc3.kernel", "fc3.bias", "fc1.kernel", "fc1.bias", "fc2.kernel", "fc2.bias"]
# sha256 of `repmlp init --config C=4,O=4,H=8,W=8,h=4,w=4,g=2,ks=1-3 --seed 5`: only
# RNG draws cast to float32, no BLAS, so the bytes are the same on every host
V1_INIT_SHA256 = "428a3c7f113cf8e3f6854f1bdf3ed4015e631eeaf4f74bf0291e87037621ff5e"


def _save(path, cfg, form):
    w = random_train_weights(cfg, np.random.default_rng(0), np.float32)
    if form == "train":
        save_train_checkpoint(str(path), cfg, w)
    else:
        save_infer_checkpoint(str(path), cfg, convert_block(cfg, w))


@pytest.mark.parametrize("cfg, form", list(V1_RECORDS))
def test_v1_config_record_bytes_are_frozen(tmp_path, cfg, form):
    path = tmp_path / "r.rmlp"
    _save(path, cfg, form)
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[5:9])
    assert raw[9:9 + n] == V1_RECORDS[cfg, form]


def test_v1_tensor_names_are_frozen(tmp_path):
    path = tmp_path / "n.rmlp"
    for form, names in (("train", V1_TRAIN_NAMES), ("infer", V1_INFER_NAMES)):
        _save(path, CFG, form)
        assert list(load_checkpoint(str(path))[1]) == names


def test_v1_init_file_bytes_are_frozen(tmp_path, capsys):
    path = tmp_path / "init.rmlp"
    assert main(["init", "--config", "C=4,O=4,H=8,W=8,h=4,w=4,g=2,ks=1-3", "--seed", "5",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == V1_INIT_SHA256
