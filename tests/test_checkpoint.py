"""Checkpoint format: bit-exact round trips and malformed-file handling."""

import struct

import numpy as np
import pytest

from repmlp.block import RepMLPConfig, random_train_weights
from repmlp.checkpoint import (
    CheckpointError,
    config_record,
    load_block_checkpoint,
    load_checkpoint,
    save_checkpoint,
    save_infer_checkpoint,
    save_train_checkpoint,
    train_weights_to_tensors,
)
from repmlp.reparam import convert_block

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
    tensors = train_weights_to_tensors(make_weights())
    del tensors["branch3.kernel"]
    path = tmp_path / "missing.rmlp"
    save_checkpoint(str(path), config_record(CFG, "train"), tensors)
    with pytest.raises(CheckpointError, match="branch3.kernel"):
        load_block_checkpoint(str(path))


def test_duplicate_tensor_name_rejected(tmp_path):
    # hand-assemble a file whose table repeats a name
    arr = np.zeros(2, dtype="<f4")
    body = b""
    for _ in range(2):
        name = b"dup"
        body += struct.pack("<H", len(name)) + name
        body += struct.pack("<B", 1) + struct.pack("<I", 2) + arr.tobytes()
    cfg_raw = b"{}"
    blob = (b"RMLP" + struct.pack("<B", 1)
            + struct.pack("<I", len(cfg_raw)) + cfg_raw
            + struct.pack("<I", 2) + body)
    path = tmp_path / "dup.rmlp"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match="duplicate"):
        load_checkpoint(str(path))


def test_non_block_record_rejected(tmp_path):
    path = tmp_path / "other.rmlp"
    save_checkpoint(str(path), {"record": "something-else"}, {})
    with pytest.raises(CheckpointError, match="record"):
        load_block_checkpoint(str(path))


def test_bn_eps_travels_with_the_file(tmp_path):
    w = make_weights()
    path = tmp_path / "eps.rmlp"
    save_train_checkpoint(str(path), CFG, w, bn_eps=1e-3)
    _, _, loaded = load_block_checkpoint(str(path))
    assert loaded.fc3_bn.eps == 1e-3
