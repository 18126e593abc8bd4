"""Equivalence verification: config grids, per-config seeding, reports.

A grid cell is one block config. For each cell we draw weights and an
input from a seed derived from the base seed and the config string, run
the training-form forward, convert, run the collapsed forward, and record
the max absolute difference. Reports carry no timings and are rendered in
grid order, so a (grid, seed, dtype, tolerance) quadruple always produces
byte-identical text. A cell's draw depends only on its config and the
seed, so the cells are independent: a sweep of more than one cell runs them
in forked worker processes, one per CPU the process may use, and takes the
results back in grid order, so the worker count never changes the report.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .block import (RepMLPConfig, RepMLPTrainWeights, _uniform, forward_train,
                    random_train_weights)
from .reparam import convert_block, forward_infer
from .tensor import ShapeError

DEFAULT_TOLERANCES = {"f32": 1e-4, "f64": 1e-9}
DTYPES = {"f32": np.float32, "f64": np.float64}

# cycled per grid cell; entries are pruned to kernels that fit the tile
_BRANCH_CYCLE = ((), (1,), (3,), (1, 3), (1, 3, 5), (5,), (1, 3, 5, 7),
                 (3, 7), (1, 5), (7,))
_PART_MULTIPLIERS = ((1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (2, 3), (3, 2),
                     (1, 3), (3, 1))
# the integer keys a config string must carry, in the order format_config
# writes them, and the RepMLPConfig field each one sets
_CONFIG_FIELDS = (("C", "in_channels"), ("O", "out_channels"), ("H", "height"),
                  ("W", "width"), ("h", "part_h"), ("w", "part_w"), ("g", "groups"))


def thread_count() -> int:
    """1: each process of a sweep runs its cells in one thread (a sweep of
    more than one cell runs them in worker processes, see run_equivalence),
    and no environment variable changes that. Kept only for benchmark
    environment records that still report it.
    """
    return 1


def format_config(cfg: RepMLPConfig) -> str:
    ks = "-".join(str(k) for k in cfg.branch_kernels) or "none"
    text = ",".join(f"{key}={getattr(cfg, field)}" for key, field in _CONFIG_FIELDS)
    text += f",ks={ks}"
    if cfg.gp_internal_dim is not None:
        text += f",gp={cfg.gp_internal_dim}"
    return text


def parse_config(text: str) -> RepMLPConfig:
    """Inverse of format_config; raises ShapeError on malformed strings."""
    fields: dict[str, str] = {}
    for item in text.split(","):
        if "=" not in item:
            raise ShapeError(f"bad config item {item!r} (expected key=value)")
        key, _, value = item.partition("=")
        if key in fields:
            raise ShapeError(f"duplicate config key {key!r}")
        fields[key] = value
    required = [key for key, _ in _CONFIG_FIELDS]
    missing = [k for k in required if k not in fields]
    if missing:
        raise ShapeError(f"config string missing keys: {', '.join(missing)}")
    unknown = set(fields) - set(required) - {"ks", "gp"}
    if unknown:
        raise ShapeError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def as_int(key, value):
        # only as format_config writes it: int() would also take "1_0", "+8",
        # "08" and non-ASCII digits, and the report would then name a config
        # unlike the text
        if not (value.isascii() and value.isdigit() and str(int(value)) == value):
            raise ShapeError(f"config key {key} must be an integer, got {value!r}")
        return int(value)

    nums = {field: as_int(key, fields[key]) for key, field in _CONFIG_FIELDS}
    ks_text = fields.get("ks", "none")
    if ks_text in ("none", ""):
        kernels: tuple[int, ...] = ()
    else:
        kernels = tuple(as_int("ks", part) for part in ks_text.split("-"))
    gp = as_int("gp", fields["gp"]) if "gp" in fields else None
    return RepMLPConfig(**nums, branch_kernels=kernels, gp_internal_dim=gp)


def full_grid() -> tuple[RepMLPConfig, ...]:
    """Cross of channels x tile sizes x valid groups x partition counts,
    with branch sets cycled deterministically across cells."""
    cells = []
    index = 0
    for c in (2, 4, 8):
        for o in (2, 4, 8):
            for h in (4, 6, 7):
                for w in (4, 6, 7):
                    for g in (1, 2, 4):
                        if c % g or o % g:
                            continue
                        for mh, mw in _PART_MULTIPLIERS:
                            ks = tuple(k for k in _BRANCH_CYCLE[index % len(_BRANCH_CYCLE)]
                                       if k <= min(h, w))
                            cells.append(RepMLPConfig(
                                in_channels=c, out_channels=o,
                                height=h * mh, width=w * mw,
                                part_h=h, part_w=w, groups=g,
                                branch_kernels=ks))
                            index += 1
    return tuple(cells)


def build_grid(name: str) -> tuple[RepMLPConfig, ...]:
    grid = full_grid()
    if name == "full":
        return grid
    if name == "default":
        return grid[::3]
    if name == "quick":
        # a step coprime with the nine partition multipliers, which cycle
        # innermost, so every multiplier and the global path are covered
        return grid[::28]
    raise ShapeError(f"unknown grid {name!r} (choose default, full, or quick)")


@dataclass(frozen=True)
class CellResult:
    config: str
    max_diff: float
    ok: bool


def draw_cell(cfg: RepMLPConfig, base_seed: int, dtype=np.float32,
              batch: int = 2) -> tuple[RepMLPTrainWeights, np.ndarray]:
    """Training weights, then an input batch, from the config's own stream.

    The one home of the (config, seed) draw: verify cells, `init` and
    `bench` all take their weights (and input) from here.
    """
    if batch < 1:
        raise ShapeError("batch must be >= 1")
    # seeded by the config string, so a cell's stream does not depend on
    # where it sits in the grid
    crc = zlib.crc32(format_config(cfg).encode("ascii"))
    rng = np.random.default_rng(np.random.SeedSequence([base_seed, crc]))
    dt = np.dtype(dtype).type
    weights = random_train_weights(cfg, rng, dt)
    x = _uniform(rng, (batch, cfg.in_channels, cfg.height, cfg.width), -1.0, 1.0, dt)
    return weights, x


def check_cell(cfg: RepMLPConfig, base_seed: int, dtype, tolerance: float,
               batch: int = 2) -> CellResult:
    weights, x = draw_cell(cfg, base_seed, dtype, batch)
    reference = forward_train(x, cfg, weights)
    collapsed = convert_block(cfg, weights)
    replayed = forward_infer(x, cfg, collapsed)
    diff = float(np.abs(reference - replayed).max())
    return CellResult(config=format_config(cfg), max_diff=diff, ok=diff <= tolerance)


def run_equivalence(configs, base_seed: int, precision: str, tolerance: float | None = None,
                    batch: int = 2) -> tuple[str, bool]:
    """Run the grid and render the report. Returns (report text, all ok)."""
    if precision not in DTYPES:
        raise ShapeError(f"unknown precision {precision!r} (choose f32 or f64)")
    dtype = DTYPES[precision]
    tol = DEFAULT_TOLERANCES[precision] if tolerance is None else float(tolerance)
    if not tol >= 0:
        raise ShapeError("tolerance must be >= 0")
    configs = tuple(configs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(configs), cpus)
    if workers <= 1:
        results = [check_cell(cfg, base_seed, dtype, tol, batch) for cfg in configs]
    else:
        # imported here: they add about 2 MB to every process, and most never fork
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a spawned worker imports numpy and repmlp afresh,
        # which took most of the default grid's gain, and reruns an unguarded
        # __main__. A dead worker raises BrokenProcessPool (multiprocessing.Pool
        # would hang). The chunk size is Pool's default, four chunks per worker
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(check_cell, configs, repeat(base_seed), repeat(dtype),
                                    repeat(tol), repeat(batch),
                                    chunksize=math.ceil(len(configs) / (4 * workers))))

    lines = [f"equivalence precision={precision} tol={tol:.3e} seed={base_seed} "
             f"batch={batch} configs={len(results)}"]
    for r in results:
        verdict = "ok" if r.ok else "FAIL"
        lines.append(f"  {r.config} diff={r.max_diff:.3e} {verdict}")
    failures = sum(1 for r in results if not r.ok)
    worst = max((r.max_diff for r in results), default=0.0)
    outcome = "PASS" if failures == 0 else "FAIL"
    lines.append(f"result={outcome} failures={failures} worst={worst:.3e}")
    return "\n".join(lines) + "\n", failures == 0
