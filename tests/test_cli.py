"""Command line: exit codes, output contracts, and end-to-end flows."""

import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repmlp
from repmlp.block import forward_train
from repmlp.checkpoint import (
    CheckpointError,
    config_record,
    load_block_checkpoint,
    save_checkpoint,
    train_weights_to_tensors,
)
from repmlp.cli import main
from repmlp.reparam import forward_infer
from repmlp.verify import parse_config

CFG_TEXT = "C=4,O=4,H=8,W=8,h=4,w=4,g=2,ks=1-3"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_single_config_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--config", CFG_TEXT)
    assert code == 0
    assert "result=PASS failures=0" in out
    assert CFG_TEXT in out and " ok" in out


def test_verify_stdout_is_run_to_run_identical(capsys):
    first = run_cli(capsys, "verify", "--config", CFG_TEXT)
    second = run_cli(capsys, "verify", "--config", CFG_TEXT)
    assert first == second


def test_verify_zero_tolerance_reports_failure(capsys):
    # f32 rounding makes the two forms differ by a nonzero hair
    code, out, _ = run_cli(capsys, "verify", "--config", CFG_TEXT,
                           "--tolerance", "0")
    assert code == 1
    assert "result=FAIL" in out and "FAIL" in out


def test_verify_quick_grid_writes_report_file(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "verify", "--grid", "quick",
                           "--out", str(report))
    assert code == 0
    text = report.read_text()
    assert text.startswith("equivalence precision=f32")
    assert text.rstrip("\n").endswith(out.strip())   # stdout echoes last line


def test_verify_rejects_malformed_config(capsys):
    code, _, err = run_cli(capsys, "verify", "--config", "C=4,O=4")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "verify", "--config", CFG_TEXT + ",zz=1")
    assert code == 2 and "error:" in err


def test_count_emits_frozen_totals(capsys):
    code, out, _ = run_cli(capsys, "count", "pure-mlp-cifar")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "model=pure-mlp-cifar input=3x32x32"
    assert "params=22714906 (22.71M)" in lines[1]
    assert "flops=119595008" in lines[1]
    assert "params=22246778 (22.25M)" in lines[2]
    assert "flops=53534720" in lines[2]


def test_count_resnet_default_resolution(capsys):
    code, out, _ = run_cli(capsys, "count", "resnet50")
    assert code == 0
    assert "input=3x224x224" in out
    assert "params=25530472 (25.53M)" in out   # deploy row


def test_count_rejects_unknown_model(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "no-such-model"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bench_reports_both_forms(capsys):
    code, out, err = run_cli(capsys, "bench", "--config", CFG_TEXT,
                             "--repeats", "3", "--batch", "4")
    assert code == 0
    assert "train_form" in out and "infer_form" in out and "speedup=" in out
    assert err == ""


def test_bench_single_repeat_warns(capsys):
    code, _, err = run_cli(capsys, "bench", "--config", CFG_TEXT,
                           "--repeats", "1", "--batch", "2")
    assert code == 0
    assert "repeats=1" in err


def test_init_convert_forward_flow(tmp_path, capsys):
    train_path = tmp_path / "train.rmlp"
    infer_path = tmp_path / "infer.rmlp"
    code, out, _ = run_cli(capsys, "init", "--config", CFG_TEXT,
                           "--out", str(train_path))
    assert code == 0 and "wrote training checkpoint" in out

    code, out, _ = run_cli(capsys, "convert", str(train_path), str(infer_path))
    assert code == 0 and "converted" in out

    cfg, form_t, train_w = load_block_checkpoint(str(train_path))
    _, form_i, infer_w = load_block_checkpoint(str(infer_path))
    assert form_t == "train" and form_i == "infer"
    rng = np.random.default_rng(99)
    x = rng.uniform(-1, 1, (2, cfg.in_channels, cfg.height, cfg.width)).astype(np.float32)
    diff = np.max(np.abs(forward_train(x, cfg, train_w)
                         - forward_infer(x, cfg, infer_w)))
    assert diff <= 1e-4

    # converting the converted file is a usage error
    code, _, err = run_cli(capsys, "convert", str(infer_path), str(tmp_path / "x.rmlp"))
    assert code == 2 and "already in inference form" in err


def test_convert_missing_input_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "convert", str(tmp_path / "nope.rmlp"),
                           str(tmp_path / "out.rmlp"))
    assert code == 2 and "error:" in err


def _malformed_checkpoint(path, case):
    cfg = parse_config(CFG_TEXT)
    rec = config_record(cfg, "train")
    tensors = train_weights_to_tensors(
        repmlp.random_train_weights(cfg, np.random.default_rng(3), np.float32))
    if case == "huge_dims":
        # one tensor claiming (2**32 - 1)**4 floats, with no payload behind it
        save_checkpoint(str(path), rec, {})
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<I", 1)
        raw += struct.pack("<H", 10) + b"fc3.kernel" + struct.pack("<B", 4)
        raw += struct.pack("<4I", *[2**32 - 1] * 4)
        path.write_bytes(bytes(raw))
        return
    if case == "missing_key":
        del rec["groups"]
    elif case == "string_int":
        rec["groups"] = "2"
    elif case == "bool_int":
        rec["in_channels"] = True
    elif case == "string_kernels":
        rec["branch_kernels"] = "1-3"
    elif case == "string_eps":
        rec["bn_eps"] = "1e-5"
    elif case == "list_record":
        rec = [rec]
    save_checkpoint(str(path), rec, tensors)
    if case == "truncated_payload":
        path.write_bytes(path.read_bytes()[:-9])


@pytest.mark.parametrize("case", ["missing_key", "string_int", "bool_int", "string_kernels",
                                  "string_eps", "list_record", "huge_dims",
                                  "truncated_payload"])
def test_convert_rejects_malformed_checkpoint(tmp_path, capsys, case):
    bad = tmp_path / "bad.rmlp"
    _malformed_checkpoint(bad, case)
    code, out, err = run_cli(capsys, "convert", str(bad), str(tmp_path / "out.rmlp"))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert not (tmp_path / "out.rmlp").exists()
    with pytest.raises(CheckpointError):
        load_block_checkpoint(str(bad))


def test_export_fc3_grid_values(tmp_path, capsys):
    ckpt = tmp_path / "t.rmlp"
    run_cli(capsys, "init", "--config", CFG_TEXT, "--out", str(ckpt))
    code, out, _ = run_cli(capsys, "export-fc3", str(ckpt),
                           "--out-channel", "1", "--pixel", "2", "3",
                           "--in-channel", "0")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")]
    cfg = parse_config(CFG_TEXT)
    assert len(rows) == cfg.part_h and all(len(r) == cfg.part_w for r in rows)
    values = np.array([[float(v) for v in r] for r in rows])
    # log of |kernel| over the global minimum: finite and never negative
    assert np.all(np.isfinite(values)) and np.all(values >= 0)


def test_export_fc3_bounds_checked(tmp_path, capsys):
    ckpt = tmp_path / "t.rmlp"
    run_cli(capsys, "init", "--config", CFG_TEXT, "--out", str(ckpt))
    for argv in (["--out-channel", "9", "--pixel", "0", "0", "--in-channel", "0"],
                 ["--out-channel", "0", "--pixel", "4", "0", "--in-channel", "0"],
                 ["--out-channel", "0", "--pixel", "0", "0", "--in-channel", "2"]):
        code, _, err = run_cli(capsys, "export-fc3", str(ckpt), *argv)
        assert code == 2 and "out of range" in err


def test_public_api_exports_resolve():
    assert len(set(repmlp.__all__)) == len(repmlp.__all__)
    missing = [name for name in repmlp.__all__ if not hasattr(repmlp, name)]
    assert missing == []


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _smoke(command, env=None):
    proc = subprocess.run([*command, "verify", "--config", CFG_TEXT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "result=PASS" in proc.stdout


def test_installed_entry_point_smoke():
    # An installed wrapper, when there is one, runs exactly as installed.
    installed = shutil.which("repmlp")
    if installed:
        _smoke([installed])

    # A source checkout has no wrapper on PATH, so run the declared
    # [project.scripts] target the way pip's generated wrapper does,
    # against the repmlp package this test process imported.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "repmlp" in scripts
    module, _, attr = scripts["repmlp"].partition(":")
    wrapper = ("import sys, importlib; sys.exit(getattr("
               f"importlib.import_module({module!r}), {attr!r})())")
    package_root = str(Path(repmlp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    _smoke([sys.executable, "-c", wrapper], env)
