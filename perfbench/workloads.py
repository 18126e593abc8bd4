"""The four benchmark workloads, and the reference pass_rel divides by.

Each workload builds its inputs from the seed in setup(), runs one timed
pass of public repmlp calls in run_ops(), and checks that pass's outputs in
check(), outside the timed and traced region. Every call goes through a
module attribute (repmlp.models.run_model, repmlp.cli.main, ...) so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time

import numpy as np

import repmlp
import repmlp.checkpoint
import repmlp.cli
import repmlp.models
import repmlp.reparam
import repmlp.verify

from spans import inside

F32_UNIT_ROUNDOFF = 2.0 ** -24
REFERENCE_LOOPS = 300_000
REFERENCE_MATMULS = 2
REFERENCE_MATRIX_N = 1024
REFERENCE_COPIES = 10
REFERENCE_COPY_FLOATS = 8_000_000
# the interpreter Reference's typical time on a 2-vCPU 2.0 GHz Xeon host,
# fixed from earlier ten-run sets of grid-f32 and real-blocks (medians 0.038
# and 0.046 s); perfbench/baseline.json records every run's ref_s and
# setup_raw_s, and in its first seeds 1-10 set, taken in a busier hour, the
# median is 0.051 s on grid-f32 and 0.053 s on real-blocks. setup_s is in
# seconds at this speed
REFERENCE_S = 0.040


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def _cli(argv: list[str]) -> tuple[float, int, str]:
    """Run repmlp.cli.main in-process; returns (seconds, exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        seconds, code = _timed(repmlp.cli.main, argv)
    return seconds, code, out.getvalue()


class Reference:
    """Fixed work that never calls repmlp, in the regime of a workload's hot path.

    On a shared 2-vCPU host the speed of one process swings by up to 1.6x,
    within a run and between runs, as other tenants load the cores: over ten
    runs the raw pass times spread (Q3-Q1 over the median) by 0.13-0.36. The
    reference is timed right before and right after each pass, and pass_rel
    divides the pass by the mean of the two, which cancels most of the swing
    while any change to repmlp still moves the ratio in full. The swing
    differs by regime, so each workload names the one its time is spent in:
    "interpreter", a pure-Python loop, for the per-call-bound workloads; and
    "numpy", float32 matmuls plus copies of a 32 MB array, for the model
    workloads, whose passes mix BLAS calls with im2col and weight-building
    memory traffic. A pure-Python reference left res50-b1's pass_rel
    spreading by 0.26; against matmuls alone the cifar-b32 pass-to-pass
    ratio varied by 0.079 (coefficient of variation) and against this mix
    by 0.064. On a 2.0 GHz Xeon vCPU the loop takes 30-65 ms and the mix,
    on the one BLAS thread run.py sets by default, about 110 ms. The matmuls
    run with numpy's thread settings, so a change that alters them moves
    the reference; ref_s is printed with every run, so that shows. Set-up
    is import and Python-level model building on every workload, so setup_s
    is divided by the interpreter reference and scaled back to seconds by
    REFERENCE_S.
    """

    def __init__(self, regime: str):
        self.regime = regime
        self.matrix = np.random.default_rng(0).standard_normal(
            (REFERENCE_MATRIX_N, REFERENCE_MATRIX_N)).astype(np.float32)
        if regime == "numpy":
            self.source = np.ones(REFERENCE_COPY_FLOATS, np.float32)
            self.target = np.ones_like(self.source)
        self.run()  # untimed: BLAS buffers and threads start on first use

    def run(self) -> float:
        t0 = time.perf_counter()
        if self.regime == "numpy":
            for _ in range(REFERENCE_MATMULS):
                self.matrix @ self.matrix
            for _ in range(REFERENCE_COPIES):
                np.copyto(self.target, self.source)
        else:
            table: dict[int, int] = {}
            for i in range(REFERENCE_LOOPS):
                key = i & 255
                table[key] = table.get(key, 0) + i
        return time.perf_counter() - t0


class PassResult:
    """Timed operations of one pass and the library's own verdicts.

    verdicts names the operations that failed, so that a later pass over
    the same inputs can be checked for the same outcome.
    """

    def __init__(self, times: dict[str, float], attempted: int, verdicts: tuple):
        self.times = times
        self.attempted = attempted
        self.verdicts = verdicts
        self.failed = len(verdicts)


# ---------------------------------------------------------------------------


class GridWorkload:
    """`repmlp verify --grid full` through repmlp.cli.main."""

    name = "grid-f32"
    regime = "interpreter"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.cells = len(repmlp.verify.build_grid("full"))
        self.code = 0
        self.report = ""
        self.hashes: set[str] = set()

    def run_ops(self) -> PassResult:
        seconds, self.code, self.report = _cli(
            ["verify", "--grid", "full", "--seed", str(self.seed)])
        lines = self.report.splitlines()[1:-1]
        return PassResult({"verify": seconds}, len(lines),
                          tuple(i for i, line in enumerate(lines) if line.endswith(" FAIL")))

    def check(self) -> list[str]:
        problems = []
        if self.code != 0:
            problems.append(f"verify exit code {self.code}")
        if len(self.report.splitlines()) != self.cells + 2:
            problems.append("report does not list every grid cell")
        self.hashes.add(hashlib.sha256(self.report.encode()).hexdigest())
        if len(self.hashes) != 1:
            problems.append("report sha256 differs between passes")
        return problems

    def rates(self) -> dict[str, tuple[str, int]]:
        return {"verify_cells_per_s": ("verify", self.cells)}

    def details(self) -> dict:
        return {"report_sha256": sorted(self.hashes), "cells_per_pass": self.cells}


# ---------------------------------------------------------------------------


def _fan_in(layers) -> int:
    """Sum of the dot-product lengths of every conv, FC and block path."""
    total = 0
    for layer in layers:
        if layer.kind == "conv":
            total += layer.attr("in_ch") // layer.attr("groups") * layer.attr("k") ** 2
        elif layer.kind == "fc":
            total += layer.attr("in_dim")
        elif layer.kind in ("repmlp_train", "repmlp_infer"):
            cfg = layer.attr("cfg")
            total += cfg.fc_in_dim // cfg.groups
            if layer.kind == "repmlp_train":
                total += sum(cfg.in_channels // cfg.groups * k * k for k in cfg.branch_kernels)
            if cfg.has_global_path:
                total += cfg.in_channels + cfg.gp_hidden
        elif layer.kind == "add":
            total += sum(_fan_in(branch) for branch in layer.children)
    return total


def _conv_strides(layers) -> list[int]:
    """Strides of the graph's conv layers in run_model's execution order."""
    out = []
    for layer in layers:
        if layer.kind == "conv":
            out.append(layer.attr("stride"))
        elif layer.kind == "add":
            for branch in layer.children:
                out += _conv_strides(branch)
    return out


def _relative_diff(a: np.ndarray, b: np.ndarray) -> float:
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    return float(np.linalg.norm(a64 - b64) / np.linalg.norm(a64))


class ModelWorkload:
    """Train-form run_model, convert_model_weights, deploy-form run_model.

    The train and deploy outputs must agree normwise within
    u * (sum of dot-product lengths over both graphs), u = 2**-24: the
    first-order bound gamma_n = n*u on each f32 dot product, summed over
    every conv, FC and block path the two forms evaluate.
    """

    regime = "numpy"

    def __init__(self, name: str, model: str, res: int, batch: int):
        self.name = name
        self.model_name = model
        self.res = res
        self.batch = batch

    def setup(self, seed: int) -> None:
        m = repmlp.models
        self.model = m.build_named_model(self.model_name, self.res)
        self.deploy = m.convert_graph(self.model)
        rng = np.random.default_rng(seed)
        self.weights = m.init_model_weights(self.model, rng)
        self.x = rng.uniform(-1.0, 1.0, (self.batch,) + self.model.input_shape).astype(np.float32)
        self.bound = F32_UNIT_ROUNDOFF * (_fan_in(self.model.layers) + _fan_in(self.deploy.layers))
        self.worst_rel = 0.0

    def run_model_label(self, args) -> str:
        form = "deploy" if args[0] is self.deploy else "train"
        return f"models.run_model.{form}"

    def run_ops(self) -> PassResult:
        m = repmlp.models
        t_train, self.y_train = _timed(m.run_model, self.model, self.weights, self.x)
        t_convert, deploy_weights = _timed(m.convert_model_weights, self.model, self.weights)
        t_deploy, self.y_deploy = _timed(m.run_model, self.deploy, deploy_weights, self.x)
        return PassResult({"train": t_train, "convert": t_convert, "deploy": t_deploy}, 3, ())

    def check(self) -> list[str]:
        problems = []
        for label, y in (("train", self.y_train), ("deploy", self.y_deploy)):
            if not np.all(np.isfinite(y)):
                problems.append(f"{label} output not finite")
        if not problems:
            rel = _relative_diff(self.y_train, self.y_deploy)
            self.worst_rel = max(self.worst_rel, rel)
            if not rel <= self.bound:
                problems.append(f"train/deploy relative diff {rel:.3e} > bound {self.bound:.3e}")
        return problems

    def reconcile(self, spans) -> dict:
        """count_flops x batch against the conv and FC MACs run_model executed.

        A stride-s conv runs at full resolution and is then subsampled, so
        its executed MACs exceed the accounted ones; that excess is listed
        separately and the books must balance exactly once it is removed.
        """
        out = {}
        for form, model in (("train", self.model), ("deploy", self.deploy)):
            run = next(sp for sp in spans if sp.name == f"models.run_model.{form}")
            inner = [sp for sp in spans if "macs" in sp.attrs and inside(sp, run)]
            executed = sum(sp.attrs["macs"] for sp in inner)
            graph_convs = [sp for sp in inner
                           if sp.name == "tensor.conv2d" and sp.site == "repmlp.models"]
            strides = _conv_strides(model.layers)
            waste = 0
            if len(graph_convs) == len(strides):
                for sp, s in zip(graph_convs, strides):
                    ho, wo = int(sp.attrs["ho"]), int(sp.attrs["wo"])
                    useful = sp.attrs["macs"] // (ho * wo) * -(-ho // s) * -(-wo // s)
                    waste += sp.attrs["macs"] - useful
            accounted = repmlp.models.count_flops(model) * self.batch
            out[form] = {
                "accounted_mac": accounted,
                "executed_mac": executed,
                "mac_ratio": accounted / executed,
                "strided_convs": sum(1 for s in strides if s > 1),
                "strided_excess_mac": waste,
                "balanced": accounted == executed - waste,
            }
        return out

    def rates(self) -> dict[str, tuple[str, int]]:
        return {"train_img_per_s": ("train", self.batch),
                "deploy_img_per_s": ("deploy", self.batch)}

    def details(self) -> dict:
        return {"rel_diff_bound": self.bound, "worst_rel_diff": self.worst_rel,
                "batch": self.batch, "input_res": self.res}


# ---------------------------------------------------------------------------


def bundled_block_configs() -> list[str]:
    """Distinct block configs of every MODEL_BUILDERS model at its default size."""
    found: dict[str, None] = {}

    def walk(layers):
        for layer in layers:
            if layer.kind == "repmlp_train":
                found.setdefault(repmlp.verify.format_config(layer.attr("cfg")))
            elif layer.kind == "add":
                for branch in layer.children:
                    walk(branch)

    for name in repmlp.models.MODEL_BUILDERS:
        res = 32 if name in ("pure-mlp-cifar", "wide-convnet") else 224
        walk(repmlp.models.build_named_model(name, res).layers)
    return list(found)


class RealBlocksWorkload:
    """repmlp init -> convert -> verify --config for every bundled block config.

    The library's verify verdict is recorded as it stands: a FAIL (exit 1)
    counts as a failed operation. The verdicts depend on the seed: c3 FAILs
    at every seed from 0 to 20, light-c4 at 9 of those 21.
    """

    name = "real-blocks"
    regime = "interpreter"

    def __init__(self, workdir: str):
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.configs = bundled_block_configs()
        self.verdicts: dict[str, str] = {}

    def _paths(self, i: int) -> tuple[str, str]:
        return (os.path.join(self.workdir, f"block{i}.train"),
                os.path.join(self.workdir, f"block{i}.infer"))

    def run_ops(self) -> PassResult:
        seed = str(self.seed)
        times = {"init": 0.0, "convert": 0.0, "verify": 0.0}
        self.codes = []
        failed = []
        for i, text in enumerate(self.configs):
            train, infer = self._paths(i)
            t_init, c_init, _ = _cli(["init", "--config", text, "--seed", seed, "--out", train])
            t_conv, c_conv, _ = _cli(["convert", train, infer])
            t_ver, c_ver, report = _cli(["verify", "--config", text, "--seed", seed])
            times["init"] += t_init
            times["convert"] += t_conv
            times["verify"] += t_ver
            self.codes.append((c_init, c_conv, c_ver, report))
            failed += [(i, op) for op, c in zip(("init", "convert", "verify"),
                                                (c_init, c_conv, c_ver)) if c != 0]
        return PassResult(times, 3 * len(self.configs), tuple(failed))

    def check(self) -> list[str]:
        ck = repmlp.checkpoint
        problems = []
        scratch = os.path.join(self.workdir, "check.bin")
        for i, (text, (c_init, c_conv, c_ver, report)) in enumerate(zip(self.configs, self.codes)):
            if c_init or c_conv:
                problems.append(f"{text}: init/convert exit codes {c_init}/{c_conv}")
                continue
            last = report.splitlines()[-1] if report else ""
            if c_ver not in (0, 1) or last.startswith("result=PASS") != (c_ver == 0):
                problems.append(f"{text}: verify exit code {c_ver} disagrees with {last!r}")
            if report:
                self.verdicts[text] = " ".join(report.splitlines()[1].split()[-2:])
            train, infer = self._paths(i)
            cfg, _, weights = ck.load_block_checkpoint(train)
            ck.save_train_checkpoint(scratch, cfg, weights, bn_eps=weights.fc3_bn.eps)
            if not _same_bytes(scratch, train):
                problems.append(f"{text}: save(load(train checkpoint)) differs")
            ck.save_infer_checkpoint(scratch, cfg, repmlp.reparam.convert_block(cfg, weights))
            if not _same_bytes(scratch, infer):
                problems.append(f"{text}: converted checkpoint != convert_block(load(train))")
        if os.path.exists(scratch):
            os.remove(scratch)
        return problems

    def rates(self) -> dict[str, tuple[str, int]]:
        return {"verify_cells_per_s": ("verify", len(self.configs))}

    def details(self) -> dict:
        return {"verify_verdicts": self.verdicts, "blocks": len(self.configs)}


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def make(name: str, workdir: str):
    if name == "grid-f32":
        return GridWorkload()
    if name == "cifar-b32":
        return ModelWorkload(name, "pure-mlp-cifar", 32, 32)
    if name == "res50-b1":
        return ModelWorkload(name, "repmlp-res50", 224, 1)
    if name == "real-blocks":
        return RealBlocksWorkload(workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("grid-f32", "cifar-b32", "res50-b1", "real-blocks")
