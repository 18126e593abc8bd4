"""repmlp benchmark: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repmlp checkout; the library is imported from
./src. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, measured with no wrappers installed:

  setup_s      set-up time, in seconds at the reference speed: a set-up is
               a fresh import of repmlp (numpy already loaded) plus the
               workload's set-up (model build, weight init and input draw;
               the block config list on real-blocks). Each of SETUP_ROUNDS
               set-ups is divided by the mean of the interpreter Reference
               times taken right before and after it, and the median ratio
               is scaled by workloads.REFERENCE_S. The raw seconds
               (setup_raw_s) are on the detail line
  pass_rel     median over passes of the pass time divided by the mean of
               the Reference times taken right before and after it (see
               workloads.Reference; the workload's regime picks the kind).
               A pass is train run_model + convert_model_weights + deploy
               run_model (cifar-b32, res50-b1); init + convert + verify
               --config over the 7 bundled block configs (real-blocks); one
               verify --grid full (grid-f32). The raw pass_s is printed as a
               phase line
  peak_rss_mb  peak resident set size of the process over the set-ups and
               the first, untimed pass; the timed passes repeat that pass

BLAS runs single-threaded unless its thread variables are set (see
BLAS_THREAD_VARS); the environment record shows the settings of each run.

With --trace 1 they are the per-layer ones (spans.PER_LAYER), from spans
recorded around the public functions of every repmlp module; that run
alternates untraced and traced passes and reports the difference as
trace.overhead_s, and the model workloads add models.mac_ratio, the
reconciliation of count_flops with the executed MACs. The lines before the
last give the environment, the raw pass and Reference times and each
workload's own phase metrics (train_img_per_s, deploy_img_per_s, convert_s,
init_s, verify_cells_per_s) with quartiles and sample count, then
fail_share. attempted and failed are those of one pass (see Tally).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_ROUNDS = 11
MIN_PASSES = 3
MAX_PASSES = 500
THREAD_VARS = ("REPMLP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# BLAS runs one thread unless the caller says otherwise. On a shared 2-vCPU
# host a two-thread GEMM stalls whenever another tenant takes either core:
# four 1024x1024 matmuls swung 0.054-0.256 s with two threads and
# 0.090-0.128 s with one in the same minute, and the model passes were no
# faster with two. REPMLP_THREADS stays at the library's default.
BLAS_THREAD_VARS = THREAD_VARS[1:]


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count of one timing series."""
    med = statistics.median(values)
    q1, q3 = med, med
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "p25": q1, "p75": q3, "n": len(values), "samples": values}


def environment() -> dict:
    import numpy
    import repmlp.verify

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": nproc,
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "repmlp_threads_effective": repmlp.verify.thread_count(),
    }


class Tally:
    """Operations attempted and failed, and the problems the checks found.

    attempted and failed count the operations of the first pass, which is
    untimed, and the library's own verdicts on them (a verify FAIL), so both
    follow from the seed alone and not from how many passes fit in the run.
    Every later pass repeats those operations on the same inputs and must
    give the same verdicts; each problem a check finds in any pass, a
    changed verdict among them, counts as one more failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.verdicts = None
        self.problems: list[str] = []

    def add(self, result, problems: list[str]) -> None:
        if self.verdicts is None:
            self.attempted = result.attempted
            self.failed = result.failed
            self.verdicts = result.verdicts
        elif result.verdicts != self.verdicts:
            problems = problems + [f"verdicts {result.verdicts} differ from the "
                                   f"first pass's {self.verdicts}"]
        self.failed += len(problems)
        self.problems += problems


def measure(wl, args, workloads) -> tuple[dict, dict, Tally]:
    """Untraced run: set-up rounds, one warm-up pass, then timed passes."""
    setup_reference = workloads.Reference("interpreter")
    setup_raw: list[float] = []
    setup_ratio: list[float] = []
    for _ in range(SETUP_ROUNDS):
        ref_before = setup_reference.run()
        raw = _reimport_repmlp() + _clock(wl.setup, args.seed)
        ref_after = setup_reference.run()
        setup_raw.append(raw)
        setup_ratio.append(raw / ((ref_before + ref_after) / 2))

    tally = Tally()
    tally.add(wl.run_ops(), wl.check())  # untimed warm-up
    # read before the pass Reference exists: its 64 MB of copy buffers
    # would otherwise set the peak on the model workloads
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = workloads.Reference(wl.regime)
    series: dict[str, list[float]] = {"pass_s": [], "ref_s": [], "pass_rel": []}
    start = time.perf_counter()
    walls: list[float] = []
    while True:
        t0 = time.perf_counter()
        ref_before = reference.run()
        result = wl.run_ops()
        ref_after = reference.run()
        tally.add(result, wl.check())
        walls.append(time.perf_counter() - t0)
        pass_s = sum(result.times.values())
        series["pass_s"].append(pass_s)
        series["ref_s"] += [ref_before, ref_after]
        series["pass_rel"].append(pass_s / ((ref_before + ref_after) / 2))
        for op, seconds in result.times.items():
            series.setdefault(f"{op}_s", []).append(seconds)
        for metric, (op, count) in wl.rates().items():
            series.setdefault(metric, []).append(count / result.times[op])
        elapsed = time.perf_counter() - start
        # stop once another pass would be expected to overrun by over half a pass
        if len(walls) >= MAX_PASSES or (
                len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) / 2 > args.seconds):
            break

    metrics = {
        "setup_s": (workloads.REFERENCE_S * statistics.median(setup_ratio), "s"),
        "pass_rel": (statistics.median(series["pass_rel"]), "ref"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    extra = {"setup_raw_s": spread(setup_raw), "setup_ratio": spread(setup_ratio),
             "phases": {name: spread(values) for name, values in series.items()}}
    return metrics, extra, tally


def trace(wl, args, spans) -> tuple[dict, dict, Tally]:
    """Traced run: per-layer metrics of one set-up plus one pass."""
    import repmlp

    label = getattr(wl, "run_model_label", "models.run_model")
    wl.setup(args.seed)  # untraced, so the traced one below runs warm
    setup_tracer = spans.Tracer()
    spans.install_layers(setup_tracer, repmlp, label)
    try:
        setup_tracer.call("bench.setup", "perfbench", wl.setup, args.seed)
    finally:
        setup_tracer.uninstall()

    tally = Tally()
    tally.add(wl.run_ops(), wl.check())  # warm-up

    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = wl.run_ops()
        plain.append(time.perf_counter() - t0)
        tally.add(result, wl.check())

        spans.install_layers(tracer, repmlp, label)
        try:
            sp, result = tracer.call("bench.pass", "perfbench", wl.run_ops)
        finally:
            tracer.uninstall()
        traced.append(sp.end - sp.start)
        tally.add(result, wl.check())
        elapsed = time.perf_counter() - start
        if len(traced) >= MAX_PASSES or (
                len(traced) >= 2 and elapsed + sum(plain) / len(plain) + sum(traced) / len(traced)
                > args.seconds):
            break

    metrics = spans.layer_metrics([(setup_tracer.spans, 1.0),
                                   (tracer.spans, 1.0 / len(traced))])
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    extra = {}
    if hasattr(wl, "reconcile"):
        extra["reconcile"] = wl.reconcile(tracer.spans)
        for form in ("train", "deploy"):
            metrics[f"models.mac_ratio.{form}"] = extra["reconcile"][form]["mac_ratio"]
    extra["traced_passes"] = len(traced)
    extra["pass_wall_s"] = {"untraced": spread(plain), "traced": spread(traced)}
    units = dict(spans.PER_LAYER)
    return {k: (v, units[k]) for k, v in metrics.items()}, extra, tally


def _reimport_repmlp() -> float:
    """Seconds to import repmlp afresh in this process, numpy already loaded.

    The fresh modules are dropped again and the originals put back, so the
    workload keeps running the modules it was set up with.
    """
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "repmlp" or name.startswith("repmlp.")}
    for name in saved:
        del sys.modules[name]
    try:
        seconds = _clock(importlib.import_module, "repmlp.cli")
    finally:
        for name in [n for n in sys.modules if n == "repmlp" or n.startswith("repmlp.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    return seconds


def _clock(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")  # before numpy loads its BLAS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy  # noqa: F401
        import repmlp
        import repmlp.cli  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import repmlp from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src", "repmlp")
    if os.path.dirname(os.path.abspath(repmlp.__file__)) != src:
        print(f"perfbench: imported repmlp from {repmlp.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        wl = workloads.make(args.workload, workdir)
        if args.trace:
            metrics, extra, tally = trace(wl, args, spans)
        else:
            metrics, extra, tally = measure(wl, args, workloads)
        details = wl.details()
        details["fail_share"] = tally.failed / tally.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, values in extra.get("phases", {}).items():
        unit = "1/s" if name.endswith("_per_s") else "ref" if name == "pass_rel" else "s"
        print(f"phase {name} {values['median']:.6g} {unit} p25={values['p25']:.6g} "
              f"p75={values['p75']:.6g} n={values['n']}")
    print(f"phase fail_share {details['fail_share']:.6g} share "
          f"failed={tally.failed} attempted={tally.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for problem in tally.problems:
        print(f"problem {problem}")
    print("detail " + json.dumps({**extra, **details}, sort_keys=True))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
