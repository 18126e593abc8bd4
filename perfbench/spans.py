"""Span tracing of the repmlp modules, done from outside the library.

A Tracer replaces public functions with timing wrappers in every module
namespace that holds them: `models` and `block` import `conv2d` by name, so
`repmlp.models.conv2d` and `repmlp.block.conv2d` are wrapped as well as
`repmlp.tensor.conv2d`. Spans stay in memory until the run ends. A span's
self time is its duration minus the union of its children's intervals.

MAC and byte counts are computed from argument shapes, not measured.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict


class Span:
    """One call: site is the module namespace the call went through."""

    __slots__ = ("name", "site", "parent", "start", "end", "attrs")

    def __init__(self, name: str, site: str, parent: "Span | None"):
        self.name = name
        self.site = site
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict[str, float] = {}


class Tracer:
    """Records spans around wrapped functions; install/uninstall patch and
    restore the module attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, site: str, fn, *args, **kwargs):
        """Run fn under a new span; returns (span, result)."""
        stack = self._stack()
        sp = Span(name, site, stack[-1] if stack else None)
        self.spans.append(sp)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            sp.end = time.perf_counter()
            stack.pop()
        return sp, result

    def wrap(self, modules, home, attr: str, name, after=None) -> None:
        """Wrap home.attr in home and in every module that imported it by name.

        name is a span name or a callable mapping the call's args to one;
        after(span, args, result) attaches computed counts to the span.
        """
        original = getattr(home, attr)

        def make(site: str):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                label = name(args) if callable(name) else name
                sp, result = self.call(label, site, original, *args, **kwargs)
                if after is not None:
                    after(sp, args, result)
                return result
            return wrapper

        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, make(module.__name__))
                self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Map id(span) to its duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[id(sp.parent)].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        cur_start = cur_end = None
        for s, e in sorted(children.get(id(sp), ())):
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[id(sp)] = (sp.end - sp.start) - covered
    return out


# ---------------------------------------------------------------------------
# computed counts


def _conv_counts(sp: Span, args, result) -> None:
    x, spec = args[0], args[1]
    n, out_ch, ho, wo = result.shape
    cg, kh, kw = spec.kernel.shape[1:]
    sp.attrs["macs"] = n * out_ch * ho * wo * cg * kh * kw
    sp.attrs["ho"], sp.attrs["wo"] = ho, wo
    elems = x.size + spec.kernel.size + result.size
    if spec.bias is not None:
        elems += spec.bias.size
    sp.attrs["bytes"] = elems * x.itemsize


def _fc_counts(sp: Span, args, result) -> None:
    v, spec = args[0], args[1]
    sp.attrs["macs"] = v.shape[0] * spec.kernel.size
    elems = v.size + spec.kernel.size + result.size
    if spec.bias is not None:
        elems += spec.bias.size
    sp.attrs["bytes"] = elems * v.itemsize


def _fc_built(sp: Span, args, result) -> None:
    sp.attrs["bytes"] = result.kernel.nbytes


def _cell_counts(sp: Span, args, result) -> None:
    sp.attrs["failed"] = 0 if result.ok else 1
    sp.attrs["diff"] = result.max_diff


def _file_bytes(sp: Span, args, result) -> None:
    sp.attrs["bytes"] = os.path.getsize(args[0])


def _cli_label(args) -> str:
    argv = args[0] if args else None
    return f"cli.main.{argv[0]}" if argv else "cli.main"


def install_layers(tracer: Tracer, repmlp, run_model_label) -> None:
    """Wrap every public function the per-layer metrics name."""
    t, b, r, m, v, c = (repmlp.tensor, repmlp.block, repmlp.reparam,
                        repmlp.models, repmlp.verify, repmlp.checkpoint)
    mods = _modules(repmlp)
    tracer.wrap(mods, t, "conv2d", "tensor.conv2d", _conv_counts)
    tracer.wrap(mods, t, "grouped_fc", "tensor.grouped_fc", _fc_counts)
    tracer.wrap(mods, m, "run_model", run_model_label)
    for attr in ("batchnorm_inference", "avg_pool_global"):
        tracer.wrap(mods, t, attr, f"tensor.{attr}")
    tracer.wrap(mods, t, "partition", "tensor.partition")
    tracer.wrap(mods, t, "inverse_partition", "tensor.partition")
    tracer.wrap(mods, b, "forward_train", "block.forward_train")
    tracer.wrap(mods, b, "random_train_weights", "block.random_train_weights")
    tracer.wrap(mods, r, "convert_block", "reparam.convert_block")
    tracer.wrap(mods, r, "forward_infer", "reparam.forward_infer")
    tracer.wrap(mods, r, "conv_to_fc", "reparam.conv_to_fc", _fc_built)
    tracer.wrap(mods, r, "fuse_bn_into_conv", "reparam.fuse_bn_into_conv")
    tracer.wrap(mods, m, "convert_model_weights", "models.convert_model_weights")
    tracer.wrap(mods, m, "init_model_weights", "models.init_model_weights")
    tracer.wrap(mods, v, "check_cell", "verify.check_cell", _cell_counts)
    tracer.wrap(mods, c, "save_checkpoint", "checkpoint.save", _file_bytes)
    tracer.wrap(mods, c, "load_checkpoint", "checkpoint.load", _file_bytes)
    tracer.wrap(mods, repmlp.cli, "main", _cli_label)


def _modules(repmlp) -> list:
    return [repmlp, repmlp.tensor, repmlp.block, repmlp.reparam, repmlp.models,
            repmlp.verify, repmlp.checkpoint, repmlp.cli]


# ---------------------------------------------------------------------------
# per-layer metrics

CLI_SUBCOMMANDS = ("verify", "init", "convert")

# (metric name, unit); every traced result carries all of them, and a layer a
# workload never calls reads 0. Units marked "computed" come from shapes.
PER_LAYER = (
    [(f"tensor.{k}.{f}", u) for k in ("conv2d", "grouped_fc")
     for f, u in (("calls", "count"), ("self_s", "s"), ("gmac", "GMAC-computed"),
                  ("gmac_per_s", "GMAC/s-computed"), ("mb_moved", "MB-computed"))]
    + [(f"tensor.{k}.self_s", "s")
       for k in ("batchnorm_inference", "partition", "avg_pool_global")]
    + [("models.mac_ratio.train", "ratio"), ("models.mac_ratio.deploy", "ratio")]
    + [(f"models.run_model.{form}.{f}", "s")
       for form in ("train", "deploy") for f in ("total_s", "self_s")]
    + [("models.convert_model_weights.total_s", "s"),
       ("models.init_model_weights.total_s", "s")]
    + [("block.forward_train.calls", "count"), ("block.forward_train.total_s", "s"),
       ("block.forward_train.self_s", "s"),
       ("block.random_train_weights.calls", "count"),
       ("block.random_train_weights.self_s", "s")]
    + [(f"reparam.{k}.{f}", u) for k in ("convert_block", "forward_infer")
       for f, u in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))]
    + [("reparam.conv_to_fc.calls", "count"), ("reparam.conv_to_fc.self_s", "s"),
       ("reparam.conv_to_fc.mb_built", "MB"), ("reparam.fuse_bn_into_conv.self_s", "s")]
    + [("verify.check_cell.calls", "count"), ("verify.check_cell.self_s", "s"),
       ("verify.cells_failed", "count"), ("verify.worst_diff", "abs")]
    + [(f"checkpoint.{k}.{f}", u) for k in ("save", "load")
       for f, u in (("calls", "count"), ("self_s", "s"), ("mb", "MB"))]
    + [(f"cli.main.{sub}.{f}", "s") for sub in CLI_SUBCOMMANDS
       for f in ("total_s", "self_s")]
    + [("trace.wall_s", "s"), ("trace.layer_self_s", "s"),
       ("trace.accounted_share", "ratio"), ("trace.overhead_s", "s")]
)


def layer_metrics(groups) -> dict[str, float]:
    """Per-layer metrics of one workload cycle.

    groups is a list of (spans, weight): one traced set-up with weight 1 and
    the traced passes with weight 1 / passes, so each value is the cost of
    one set-up plus one pass. Spans whose name starts with "bench." are the
    benchmark's own roots; their self time is the part of the traced wall no
    layer accounts for. mac_ratio is filled in by the model workloads.
    """
    calls: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    worst = 0.0
    for spans, weight in groups:
        selfs = self_times(spans)
        for sp in spans:
            calls[sp.name] += weight
            total[sp.name] += weight * (sp.end - sp.start)
            own[sp.name] += weight * selfs[id(sp)]
            for key, value in sp.attrs.items():
                if key == "diff":
                    worst = max(worst, value)
                else:
                    attrs[f"{sp.name}.{key}"] += weight * value

    out = {name: 0.0 for name, _ in PER_LAYER}
    for name, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls[layer]
        elif field == "self_s":
            out[name] = own[layer]
        elif field == "total_s":
            out[name] = total[layer]
        elif field == "gmac":
            out[name] = attrs[f"{layer}.macs"] / 1e9
        elif field == "gmac_per_s":
            out[name] = attrs[f"{layer}.macs"] / 1e9 / own[layer] if own[layer] else 0.0
        elif field in ("mb_moved", "mb_built", "mb"):
            out[name] = attrs[f"{layer}.bytes"] / 1e6
    out["verify.cells_failed"] = attrs["verify.check_cell.failed"]
    out["verify.worst_diff"] = worst
    roots = [k for k in total if k.startswith("bench.")]
    wall = sum(total[k] for k in roots)
    layer_self = sum(v for k, v in own.items() if k not in roots)
    out["trace.wall_s"] = wall
    out["trace.layer_self_s"] = layer_self
    out["trace.accounted_share"] = layer_self / wall if wall else 0.0
    return out


def inside(sp: Span, ancestor: Span) -> bool:
    p = sp.parent
    while p is not None and p is not ancestor:
        p = p.parent
    return p is ancestor
