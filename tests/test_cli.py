"""Command line: exit codes, output contracts, and end-to-end flows."""

import multiprocessing
import os
import shutil
import signal
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repmlp
from repmlp.block import forward_train
from repmlp.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    config_record,
    load_block_checkpoint,
    save_checkpoint,
    weights_to_tensors,
)
from repmlp.cli import build_parser, main
from repmlp.reparam import forward_infer
from repmlp.tensor import ShapeError
from repmlp.verify import build_grid, format_config, parse_config, run_equivalence

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


def test_branch_kernel_spellings_are_one_config(capsys):
    # kernels are stored ascending, so both spellings share one config,
    # one config string and so one seed stream
    reversed_text = CFG_TEXT.replace("ks=1-3", "ks=3-1")
    assert parse_config(reversed_text) == parse_config(CFG_TEXT)
    assert format_config(parse_config(reversed_text)) == CFG_TEXT
    assert (run_cli(capsys, "verify", "--config", reversed_text)
            == run_cli(capsys, "verify", "--config", CFG_TEXT))


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
    cases = (
        ("verify", "--config", "C=4,O=4"),
        ("verify", "--config", CFG_TEXT + ",zz=1"),
        ("count", "resnet50", "0"),
        ("count", "resnet50", "-32"),
        ("verify", "--config", CFG_TEXT, "--tolerance", "nan"),
        ("verify", "--config", CFG_TEXT, "--batch", "0"),
        ("bench", "--config", CFG_TEXT, "--batch", "0", "--repeats", "2"),
        # int() takes these, but they are not plain ASCII decimal integers
        ("verify", "--config", CFG_TEXT.replace("C=4", "C=1_0")),
        ("verify", "--config", CFG_TEXT.replace("C=4", "C=+8")),
        ("verify", "--config", CFG_TEXT.replace("C=4", "C=\u0668")),
        # leading zeros: the report would name C=8, ks=3 and gp=4
        ("verify", "--config", "C=08,O=8,H=14,W=14,h=7,w=7,g=2"),
        ("verify", "--config", "C=8,O=8,H=14,W=14,h=7,w=7,g=2,ks=03"),
        ("verify", "--config", "C=8,O=8,H=14,W=14,h=7,w=7,g=2,gp=0004"),
        ("verify", "--config", CFG_TEXT + ",nl=identity"),
    )
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error:"), (argv, err)
    # the last case: the global-path nonlinearity is no longer a config key
    assert err == "error: unknown config keys: nl\n"


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 95.4 GiB for an array with shape "
                "(100000000, 4, 8, 8) and data type float32"),
    MemoryError(),
])
def test_out_of_memory_is_usage_error(monkeypatch, capsys, exc):
    # a too-large --batch must not end as exit 1, the property-violation code
    def run_equivalence(*args, **kwargs):
        raise exc
    monkeypatch.setattr(repmlp.cli, "run_equivalence", run_equivalence)
    code, out, err = run_cli(capsys, "verify", "--config", CFG_TEXT, "--batch", "100000000")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: out of memory: "), err


# The worker-pool tests patch verify.check_cell before the sweep forks. The
# patched functions live at module level, because the pool pickles the cell
# function by name; they act only in a worker, never in the test process.
TEST_PID = os.getpid()
POISONED_CELL = format_config(build_grid("quick")[37])
real_check_cell = repmlp.verify.check_cell


def check_cell_raising(cfg, *args):
    if format_config(cfg) == POISONED_CELL and os.getpid() != TEST_PID:
        raise ShapeError(f"poisoned cell {POISONED_CELL}")
    return real_check_cell(cfg, *args)


def check_cell_killed(cfg, *args):
    if format_config(cfg) == POISONED_CELL and os.getpid() != TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_check_cell(cfg, *args)


def test_worker_count_does_not_change_the_report(monkeypatch):
    grid = build_grid("default")
    for precision in ("f32", "f64"):
        reports = []
        # three workers, so chunks end ragged, and one, the in-process loop
        for cpus in ({0, 1, 2}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            reports.append(run_equivalence(grid, 1, precision))
        assert reports[0] == reports[1], precision
        assert reports[0][1] and f"configs={len(grid)}" in reports[0][0]
    assert multiprocessing.active_children() == []


def test_worker_exception_keeps_its_type(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(repmlp.verify, "check_cell", check_cell_raising)
    with pytest.raises(ShapeError, match="poisoned cell"):
        run_equivalence(build_grid("quick"), 1, "f32")
    code, out, err = run_cli(capsys, "verify", "--grid", "quick")
    assert code == 2 and out == ""
    assert err == f"error: poisoned cell {POISONED_CELL}\n"
    assert multiprocessing.active_children() == []


def test_killed_worker_is_usage_error(monkeypatch, capfd):
    # capfd, not capsys: it also holds whatever the workers write to fd 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(repmlp.verify, "check_cell", check_cell_killed)
    code = main(["verify", "--grid", "quick"])
    out, err = capfd.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: a verify worker process died"), err
    assert multiprocessing.active_children() == []


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    code, out, _ = run_cli(capsys, "verify", "--config", CFG_TEXT, "--tolerance", "0")
    assert code == 1 and "tol=0.000e+00" in out
    code, out, _ = run_cli(capsys, "verify", "--config", CFG_TEXT)
    assert code == 0 and "tol=1.000e-04" in out


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


def test_failed_save_names_the_given_path(tmp_path, capsys):
    # the save writes a temporary file beside the output and renames it;
    # when the file cannot be made (no such directory) or the rename fails
    # (a directory is in the way), the one-line error names the output path
    # and no temporary file is left. A FIFO, or a symlink to one, is refused
    # before anything is written: the rename would replace it.
    folder = tmp_path / "dir"
    folder.mkdir()
    fifo, link = folder / "fifo", folder / "link"
    os.mkfifo(fifo)
    link.symlink_to(fifo)
    for out, errno in ((tmp_path / "missing" / "t.rmlp", 2), (folder, 21), (fifo, 22),
                       (link, 22)):
        code, stdout, err = run_cli(capsys, "init", "--config", CFG_TEXT, "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: [Errno {errno}] ") and err.endswith(f": {str(out)!r}\n")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [folder]
        assert sorted(folder.iterdir()) == [fifo, link]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and os.readlink(link) == str(fifo)
    # a symlink to a regular file is replaced by the checkpoint, not written through
    kept = folder / "kept"
    kept.write_bytes(b"old")
    link.unlink()
    link.symlink_to(kept)
    assert run_cli(capsys, "init", "--config", CFG_TEXT, "--out", str(link))[0] == 0
    assert not link.is_symlink() and link.read_bytes()[:4] == MAGIC
    assert kept.read_bytes() == b"old"


def _malformed_checkpoint(path, case):
    cfg = parse_config(CFG_TEXT)
    rec = config_record(cfg, "train")
    weights = repmlp.random_train_weights(cfg, np.random.default_rng(3), np.float32)
    tensors = weights_to_tensors(weights)
    if case == "huge_dims":
        # one tensor claiming (2**32 - 1)**4 floats, with no payload behind it
        save_checkpoint(str(path), rec, {})
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<I", 1)
        raw += struct.pack("<H", 10) + b"fc3.kernel" + struct.pack("<B", 4)
        raw += struct.pack("<4I", *[2**32 - 1] * 4)
        path.write_bytes(bytes(raw))
        return
    if case == "deep_json":  # a record nested past the JSON decoder's recursion limit
        raw_cfg = b"[" * 100_000
        path.write_bytes(MAGIC + struct.pack("<BI", FORMAT_VERSION, len(raw_cfg)) + raw_cfg
                         + struct.pack("<I", 0))
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
    elif case == "huge_int_eps":  # a JSON int past the float range
        rec["bn_eps"] = 10**400
    elif case == "list_record":
        rec = [rec]
    elif case == "junk_tensor":
        tensors["junk"] = np.zeros(1, np.float32)
    elif case == "undeclared_branch":  # the file still holds branch3.*
        rec["branch_kernels"] = [1]
    elif case == "half_branch_channels":
        tensors["branch3.kernel"] = tensors["branch3.kernel"][:, :1]
    elif case == "short_fc3_bn":
        for stat in ("mean", "var", "gamma", "beta"):
            tensors[f"fc3_bn.{stat}"] = tensors[f"fc3_bn.{stat}"][:3]
    elif case == "empty_fc3_bn":
        for stat in ("mean", "var", "gamma", "beta"):
            tensors[f"fc3_bn.{stat}"] = tensors[f"fc3_bn.{stat}"][:0]
    elif case == "wide_infer_fc1":  # a consistent 4 -> 5 -> 4 MLP where gp_hidden is 1
        rec = config_record(cfg, "infer")
        tensors = weights_to_tensors(repmlp.convert_block(cfg, weights))
        tensors.update({"fc1.kernel": np.ones((5, 4), np.float32),
                        "fc1.bias": np.ones(5, np.float32),
                        "fc2.kernel": np.ones((4, 5), np.float32)})
    save_checkpoint(str(path), rec, tensors)
    if case == "truncated_payload":
        path.write_bytes(path.read_bytes()[:-9])


@pytest.mark.parametrize("case", ["missing_key", "string_int", "bool_int", "string_kernels",
                                  "string_eps", "huge_int_eps", "list_record", "huge_dims",
                                  "truncated_payload", "junk_tensor", "undeclared_branch",
                                  "half_branch_channels", "short_fc3_bn", "empty_fc3_bn",
                                  "wide_infer_fc1", "deep_json"])
def test_convert_rejects_malformed_checkpoint(tmp_path, capsys, case):
    bad = tmp_path / "bad.rmlp"
    _malformed_checkpoint(bad, case)
    code, out, err = run_cli(capsys, "convert", str(bad), str(tmp_path / "out.rmlp"))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert not (tmp_path / "out.rmlp").exists()
    with pytest.raises(CheckpointError):
        load_block_checkpoint(str(bad))


FUZZ_CFG_TEXT = "C=2,O=2,H=4,W=4,h=2,w=2,g=1,ks=1"


def _checkpoint_mutations(raw: bytes):
    """Every truncation of raw, then one bit flip per byte (bit i % 8 of byte i)."""
    for n in range(len(raw)):
        yield f"truncated to {n} bytes", raw[:n]
    for i in range(len(raw)):
        flipped = bytearray(raw)
        flipped[i] ^= 1 << (i % 8)
        yield f"byte {i} bit {i % 8} flipped", bytes(flipped)


def test_convert_fuzzed_checkpoint_exits_cleanly(tmp_path, capsys):
    good, bad, out = tmp_path / "good.rmlp", tmp_path / "bad.rmlp", tmp_path / "out.rmlp"
    assert main(["init", "--config", FUZZ_CFG_TEXT, "--seed", "3", "--out", str(good)]) == 0
    capsys.readouterr()
    for label, data in _checkpoint_mutations(good.read_bytes()):
        bad.write_bytes(data)
        out.unlink(missing_ok=True)
        try:
            code = main(["convert", str(bad), str(out)])
        except Exception as exc:  # any escape fails; name the mutation that caused it
            raise AssertionError(f"{label}: exception escaped cli.main") from exc
        _, err = capsys.readouterr()
        if code == 0:
            load_block_checkpoint(str(out))
        else:
            assert code == 2, (label, code, err)
            assert len(err.splitlines()) == 1 and err.startswith("error:"), (label, err)
        try:  # the library itself raises only CheckpointError, not just the CLI
            load_block_checkpoint(str(bad))
        except CheckpointError:
            pass
        except Exception as exc:
            raise AssertionError(f"{label}: {type(exc).__name__} escaped "
                                 f"load_block_checkpoint") from exc


def test_init_rejects_precision_and_batch(tmp_path, capsys):
    out = tmp_path / "t.rmlp"
    for option in (["--precision", "f64"], ["--batch", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(["init", "--config", CFG_TEXT, "--out", str(out), *option])
        assert exc.value.code == 2
        assert not out.exists()
    capsys.readouterr()


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
