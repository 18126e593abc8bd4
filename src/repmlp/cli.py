"""Command-line surface.

Subcommands: verify (equivalence grid), count (model tables), bench
(train vs collapsed forward timings), convert (checkpoint folding),
export-fc3 (kernel heat-map data), init (seeded random checkpoint).

Exit codes: 0 pass, 1 property violation, 2 usage, IO or out-of-memory
error. Every command except bench prints byte-identical output for
identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .block import forward_train
from .checkpoint import (
    FORM_TRAIN,
    CheckpointError,
    load_block_checkpoint,
    save_infer_checkpoint,
    save_train_checkpoint,
)
from .models import (
    MODEL_BUILDERS,
    block_params,
    convert_graph,
    count_flops,
    count_params,
)
from .reparam import convert_block, forward_infer
from .tensor import ShapeError
from .verify import (
    DTYPES,
    build_grid,
    draw_cell,
    format_config,
    parse_config,
    run_equivalence,
)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        print(last)


def _cmd_verify(args) -> int:
    if args.config is not None:
        configs = (parse_config(args.config),)
    else:
        configs = build_grid(args.grid)
    report, ok = run_equivalence(configs, args.seed, args.precision,
                                 args.tolerance, args.batch)
    _emit(report, args.out)
    return 0 if ok else 1


def _human(n: int) -> str:
    return f"{n / 1e6:.2f}M"


def _cmd_count(args) -> int:
    build = MODEL_BUILDERS[args.model]
    model = build() if args.input_res is None else build(input_res=args.input_res)
    deploy = convert_graph(model)
    lines = [f"model={model.name} input={'x'.join(map(str, model.input_shape))}"]
    for label, m in (("train", model), ("deploy", deploy)):
        p, f = count_params(m), count_flops(m)
        lines.append(f"{label:6s} params={p} ({_human(p)}) flops={f} ({_human(f)})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _median_iqr(samples: list[float]) -> tuple[float, float]:
    med = statistics.median(samples)
    if len(samples) < 2:
        return med, 0.0
    q = statistics.quantiles(samples, n=4, method="inclusive")
    return med, q[2] - q[0]


def _cmd_bench(args) -> int:
    cfg = parse_config(args.config)
    if args.repeats < 1:
        raise ShapeError("repeats must be >= 1")
    if args.repeats == 1:
        print("warning: repeats=1 gives no variance estimate", file=sys.stderr)
    weights, x = draw_cell(cfg, args.seed, DTYPES[args.precision], args.batch)
    collapsed = convert_block(cfg, weights)

    def clock(fn) -> list[float]:
        fn()  # warmup
        out = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
        return out

    train_times = clock(lambda: forward_train(x, cfg, weights))
    infer_times = clock(lambda: forward_infer(x, cfg, collapsed))
    tm, ti = _median_iqr(train_times), _median_iqr(infer_times)
    print(f"config {format_config(cfg)} batch={args.batch} repeats={args.repeats} "
          f"precision={args.precision}")
    print(f"train_form  median={tm[0]:.6f}s iqr={tm[1]:.6f}s")
    print(f"infer_form  median={ti[0]:.6f}s iqr={ti[1]:.6f}s")
    if ti[0] > 0:
        print(f"speedup={tm[0] / ti[0]:.2f}x")
    if cfg.branch_kernels and ti[0] > tm[0]:
        print("property violation: collapsed form slower than training form",
              file=sys.stderr)
        return 1
    return 0


def _cmd_convert(args) -> int:
    cfg, form, weights = load_block_checkpoint(args.input)
    if form != FORM_TRAIN:
        raise CheckpointError(f"{args.input} is already in inference form")
    collapsed = convert_block(cfg, weights)
    save_infer_checkpoint(args.output, cfg, collapsed)
    before = block_params(cfg, "train")
    after = block_params(cfg, "infer")
    print(f"converted {args.input} -> {args.output} "
          f"params {before} -> {after}")
    return 0


def _cmd_export_fc3(args) -> int:
    cfg, _, weights = load_block_checkpoint(args.checkpoint)
    o, (i, j), c = args.out_channel, args.pixel, args.in_channel
    h, w = cfg.part_h, cfg.part_w
    per_group_ch = cfg.in_channels // cfg.groups
    if not 0 <= o < cfg.out_channels:
        raise ShapeError(f"out-channel {o} out of range [0, {cfg.out_channels})")
    if not (0 <= i < h and 0 <= j < w):
        raise ShapeError(f"pixel ({i}, {j}) out of range for {h}x{w} tile")
    if not 0 <= c < per_group_ch:
        raise ShapeError(f"in-channel {c} out of range [0, {per_group_ch}) "
                         f"(per-group channels)")
    kernel = np.abs(weights.fc3.kernel)
    tiny = np.finfo(kernel.dtype).tiny
    floor = max(float(kernel.min()), float(tiny))
    grid = np.maximum(kernel.reshape(cfg.out_channels, h, w, per_group_ch, h, w)[o, i, j, c],
                      tiny)
    values = np.log(grid / floor)
    text = "\n".join(",".join(f"{v:.9e}" for v in row) for row in values) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_init(args) -> int:
    cfg = parse_config(args.config)
    weights, _ = draw_cell(cfg, args.seed)
    save_train_checkpoint(args.output, cfg, weights)
    print(f"wrote training checkpoint {args.output} "
          f"params {block_params(cfg, 'train')}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="repmlp",
        description="Locality-injected block-MLP toolkit: equivalence "
                    "verification, parameter/FLOP tables, benchmarks, and "
                    "checkpoint folding.",
        epilog="exit codes: 0 pass, 1 property violation, 2 usage/IO/out-of-memory error")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, batch_default=2):
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--precision", choices=DTYPES, default="f32")
        p.add_argument("--batch", type=int, default=batch_default)

    p = sub.add_parser("verify", help="run the train/infer equivalence grid")
    common(p)
    p.add_argument("--grid", choices=("default", "full", "quick"), default="default")
    p.add_argument("--config", help="single config, e.g. C=4,O=4,H=8,W=8,h=4,w=4,g=2,ks=1-3")
    p.add_argument("--tolerance", type=float, default=None,
                   help="max abs diff (default 1e-4 f32, 1e-9 f64)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="parameter and FLOP table row for a model")
    p.add_argument("model", choices=sorted(MODEL_BUILDERS))
    p.add_argument("input_res", type=int, nargs="?", default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("bench", help="time training-form vs collapsed forwards")
    common(p, batch_default=32)
    p.add_argument("--config", required=True)
    p.add_argument("--repeats", type=int, default=10)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("convert", help="fold a training checkpoint into three FC layers")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("export-fc3", help="per-pixel kernel magnitude map (log scale)")
    p.add_argument("checkpoint")
    p.add_argument("--out-channel", type=int, required=True)
    p.add_argument("--pixel", type=int, nargs=2, required=True, metavar=("I", "J"))
    p.add_argument("--in-channel", type=int, required=True,
                   help="channel index within the FC group")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export_fc3)

    p = sub.add_parser("init", help="write a seeded random training checkpoint")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--config", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.set_defaults(func=_cmd_init)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ShapeError, CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # verify's pool raises BrokenProcessPool when a worker is killed, most
        # often when memory runs out (the module is loaded once a pool ran)
        from concurrent.futures import BrokenExecutor
        if not isinstance(exc, BrokenExecutor):
            raise
        print(f"error: a verify worker process died (killed, or out of memory): {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
