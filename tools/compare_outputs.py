"""Check that two repmlp source trees produce byte-identical outputs.

usage: python tools/compare_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout root (its library is imported from TREE/src, in a
child process per tree). Compared artefacts, all from fixed seeds:

* `repmlp verify --grid full` reports in f32 and f64;
* train-form and deploy-form `run_model` outputs of pure-mlp-cifar at
  batch 4 and repmlp-res50 at batch 1 (saved as .npy);
* `repmlp init` and `repmlp convert` checkpoints for two block configs,
  one of them with an identity global-path nonlinearity.

Prints one sha256 line per artefact and tree; exits 1 if any differ.
A full run takes about 25 s per tree on a 2-vCPU machine.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

CONFIGS = ("C=8,O=8,H=14,W=14,h=7,w=7,g=2,ks=1-3-5",
           "C=4,O=8,H=16,W=16,h=8,w=8,g=4,ks=1-3-7,gp=3,nl=identity")


def write_artefacts(out: str) -> None:
    """Write every compared artefact of the imported repmlp into out."""
    import contextlib
    import io

    import numpy as np

    from repmlp import cli, models

    with contextlib.redirect_stdout(io.StringIO()):
        for prec in ("f32", "f64"):
            cli.main(["verify", "--grid", "full", "--precision", prec,
                      "--out", os.path.join(out, f"verify_full_{prec}.txt")])
        for i, cfg in enumerate(CONFIGS):
            train = os.path.join(out, f"init{i}.rmlp")
            cli.main(["init", "--config", cfg, "--out", train, "--seed", "5"])
            cli.main(["convert", train, os.path.join(out, f"convert{i}.rmlp")])
    for name, res, batch in (("pure-mlp-cifar", 32, 4), ("repmlp-res50", 224, 1)):
        model = models.build_named_model(name, res)
        rng = np.random.default_rng(1234)
        weights = models.init_model_weights(model, rng, np.float32)
        x = rng.uniform(-1, 1, (batch,) + model.input_shape).astype(np.float32)
        deploy_weights = models.convert_model_weights(model, weights)
        np.save(os.path.join(out, f"{name}_train.npy"), models.run_model(model, weights, x))
        np.save(os.path.join(out, f"{name}_deploy.npy"),
                models.run_model(models.convert_graph(model), deploy_weights, x))


def digests(tree: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
        subprocess.run([sys.executable, os.path.abspath(__file__), "--write", out],
                       env=env, check=True)
        result = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                result[name] = hashlib.sha256(fh.read()).hexdigest()
        return result


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--write":
        write_artefacts(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = digests(argv[0]), digests(argv[1])
    differ = sorted(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))
    for name in sorted(old.keys() | new.keys()):
        mark = "DIFFER" if name in differ else "same"
        print(f"{mark:6s} {name} old={old.get(name)} new={new.get(name)}")
    if differ:
        print(f"{len(differ)} artefacts differ: {', '.join(differ)}")
        return 1
    print(f"all {len(old)} artefacts identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
