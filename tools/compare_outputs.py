"""Check that two repmlp source trees produce byte-identical outputs.

usage: python tools/compare_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout root (its library is imported from TREE/src, in a
child process per tree). Compared artefacts, all from fixed seeds:

* `repmlp verify --grid full` reports in f32 and f64;
* train-form and deploy-form `run_model` outputs of pure-mlp-cifar and
  wide-convnet at batch 4, repmlp-res50 at batch 1 and pure-mlp-cifar at
  batch 33 (saved as .npy). At batch 33, with the default SLAB_BYTES,
  every 3x3, 5x5 and 7x7 branch conv runs in several patch slabs with a
  ragged last one, and the global-path and head FCs end in a ragged GEMM
  tile;
* `repmlp init` and `repmlp convert` checkpoints for three block configs
  (one with an identity global-path nonlinearity, one whose single tile
  covers the image, so it has no global path, with four branches), and
  the `repmlp export-fc3` map of each of those six checkpoints;
* `repmlp count` output for every model in MODEL_BUILDERS, at its default
  resolution, and for the five residual models also at 320 (10x10 tiles,
  four branches);
* the fc3 kernel and bias bytes that `convert_block` makes, in f32 and f64,
  from a block whose fc3 and branch kernels hold planted +0.0 and -0.0
  entries (no 1x1 branch, whose +0.0 fill off the diagonal would turn every
  -0.0 sum into +0.0; this block's fc3 kernel holds about a hundred -0.0),
  and from a block with kernels 1-3-5 and positive BN gammas whose fc3
  diagonal (output pixel = input pixel) and branch centre taps are all
  -0.0, so the diagonal stays -0.0 while every other planted -0.0 meets the
  1x1 branch's +0.0.

Prints one line per artefact with both trees' sha256; a differing .npy
array also gets its max relative difference, and a differing text report
the number of its lines that differ. Exits 1 if any artefact differs.
A full run takes about 20 s per tree on a 2-vCPU machine.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

CONFIGS = ("C=8,O=8,H=14,W=14,h=7,w=7,g=2,ks=1-3-5",
           "C=4,O=8,H=16,W=16,h=8,w=8,g=4,ks=1-3-7,gp=3,nl=identity",
           "C=4,O=4,H=8,W=8,h=8,w=8,g=2,ks=1-3-5-7")


def write_artefacts(out: str) -> None:
    """Write every compared artefact of the imported repmlp into out."""
    import contextlib
    import io

    import numpy as np

    from repmlp import block, cli, models, reparam

    with contextlib.redirect_stdout(io.StringIO()):
        for prec in ("f32", "f64"):
            cli.main(["verify", "--grid", "full", "--precision", prec,
                      "--out", os.path.join(out, f"verify_full_{prec}.txt")])
        for i, cfg in enumerate(CONFIGS):
            train = os.path.join(out, f"init{i}.rmlp")
            infer = os.path.join(out, f"convert{i}.rmlp")
            cli.main(["init", "--config", cfg, "--out", train, "--seed", "5"])
            cli.main(["convert", train, infer])
            for ckpt in (train, infer):
                cli.main(["export-fc3", ckpt, "--out-channel", "0", "--pixel", "3", "3",
                          "--in-channel", "0", "--out", f"{ckpt}.fc3.txt"])
        for name in models.MODEL_BUILDERS:
            cli.main(["count", name, "--out", os.path.join(out, f"count_{name}.txt")])
            if name not in ("pure-mlp-cifar", "wide-convnet"):
                cli.main(["count", name, "320",
                          "--out", os.path.join(out, f"count_{name}_320.txt")])
    for name, res, batch, tag in (("pure-mlp-cifar", 32, 4, ""), ("wide-convnet", 32, 4, ""),
                                  ("repmlp-res50", 224, 1, ""),
                                  ("pure-mlp-cifar", 32, 33, "_b33")):
        model = models.MODEL_BUILDERS[name](input_res=res)
        rng = np.random.default_rng(1234)
        weights = models.init_model_weights(model, rng, np.float32)
        x = rng.uniform(-1, 1, (batch,) + model.input_shape).astype(np.float32)
        deploy_weights = models.convert_model_weights(model, weights)
        np.save(os.path.join(out, f"{name}{tag}_train.npy"), models.run_model(model, weights, x))
        np.save(os.path.join(out, f"{name}{tag}_deploy.npy"),
                models.run_model(models.convert_graph(model), deploy_weights, x))
    for tag, kernels in (("", (3, 5)), ("_k1", (1, 3, 5))):
        cfg = block.RepMLPConfig(4, 4, 12, 10, 6, 5, groups=2, branch_kernels=kernels)
        for dtype in (np.float32, np.float64):
            rng = np.random.default_rng(99)
            weights = block.random_train_weights(cfg, rng, dtype)
            for kernel in [weights.fc3.kernel] + [conv.kernel for conv, _ in weights.branches]:
                flat = kernel.reshape(-1)
                flat[rng.random(flat.size) < 0.6] = 0.0
                flat[rng.random(flat.size) < 0.5] = -0.0
            if tag:
                for bn in [weights.fc3_bn] + [bn for _, bn in weights.branches]:
                    np.abs(bn.gamma, out=bn.gamma)
                pixels = np.arange(cfg.part_h * cfg.part_w)
                grid = weights.fc3.kernel.reshape(cfg.out_channels, pixels.size, -1, pixels.size)
                grid[:, pixels, :, pixels] = -0.0
                for conv, _ in weights.branches:
                    k = conv.kernel_size[0]
                    conv.kernel[:, :, k // 2, k // 2] = -0.0
            fc3 = reparam.convert_block(cfg, weights).fc3
            with open(os.path.join(out, f"convert_signed_zero{tag}_{dtype.__name__}.bin"),
                      "wb") as fh:
                fh.write(fc3.kernel.tobytes() + fc3.bias.tobytes())


def write_tree(tree: str, out: str) -> None:
    """Write the artefacts of tree's library into out, in a child process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--write", out],
                   env=env, check=True)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def drift(old: str, new: str) -> str:
    """How far a differing artefact moved: the max relative difference of an
    .npy array (max |new - old| over max |old|), the differing lines of a
    text report; nothing for other binaries."""
    if old.endswith(".npy"):
        import numpy as np

        a, b = np.load(old).astype(np.float64), np.load(new).astype(np.float64)
        if a.shape != b.shape:
            return f" (shape {a.shape} -> {b.shape})"
        return f" (max rel diff {np.max(np.abs(b - a)) / np.max(np.abs(a)):.3e})"
    if old.endswith(".txt"):
        with open(old) as fa, open(new) as fb:
            a, b = fa.read().splitlines(), fb.read().splitlines()
        lines = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
        return f" ({lines} of {len(a)} lines differ)"
    return ""


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--write":
        write_artefacts(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir:
        write_tree(argv[0], old_dir)
        write_tree(argv[1], new_dir)
        names = sorted(set(os.listdir(old_dir)) | set(os.listdir(new_dir)))
        differ = []
        for name in names:
            old, new = os.path.join(old_dir, name), os.path.join(new_dir, name)
            old_sha = sha256(old) if os.path.exists(old) else None
            new_sha = sha256(new) if os.path.exists(new) else None
            if old_sha == new_sha:
                print(f"same   {name} old={old_sha} new={new_sha}")
                continue
            differ.append(name)
            how = drift(old, new) if old_sha and new_sha else ""
            print(f"DIFFER {name} old={old_sha} new={new_sha}{how}")
    if differ:
        print(f"{len(differ)} artefacts differ: {', '.join(differ)}")
        return 1
    print(f"all {len(names)} artefacts identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
