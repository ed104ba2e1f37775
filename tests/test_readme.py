"""The README's worked example and each of its "useful variations" run.

Every command of README steps 1-7 runs on the README data at small sizes
(200 sweeps, L = 500), then each variation runs as a change to step 2.
Each must exit 0 and write a manifest that lists exactly the files it
wrote: in a fresh ``--out-dir`` those are all the files present.
"""
from __future__ import annotations

import json
from pathlib import Path

from lassodist.cli import main


def _files(out: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}


def readme_runs(root: Path) -> list[tuple[str, tuple]]:
    """(output directory name under ``root``, CLI argv) of every README run, in order."""
    data = root / "data"
    xy = ("--x", data / "X.csv", "--y", data / "y.csv")
    tail = ("--x", data / "X.csv", "--null-beta", "zero", "--sigma2", 1.0)

    def step2(*change, law=("--sigma2", 1.0)):
        return ("sample-joint", *xy, "--lambda-frac", 0.3, "--lambda-grid", 50,
                "--method", "mls", *law, "--iters", 200, "--burnin", 20, "--seed", 12, *change)

    return [
        ("data", ("gen-data", "--n", 100, "--p", 20, "--rho", 0.25, "--sigma2", 1.0,
                  "--signal", 6, "--seed", 11)),
        ("run", step2()),
        ("run", ("diagnose", "--chain", root / "run/chain.csv",
                 "--meta", root / "run/chain_meta.json", "--g", "l1", "--hist-coord", 0)),
        ("cond", ("sample-cond", *xy, "--lambda", 0.25, "--active", "0,1,2", "--sigma2", 1.0,
                  "--iters", 200, "--burnin", 20, "--seed", 13)),
        ("tail", ("pvalue", *tail, "--lambda-star", 0.25, "--stat", "linf", "--t-star", 0.25,
                  "--L", 500, "--replicates", 2, "--workers", 2, "--seed", 14)),
        ("multi", ("pvalue-multi", *tail, "--lambda-stars", "0.25,0.25,0.25,0.25,0.25",
                   "--t-stars", "0.12,0.15,0.18,0.2,0.22", "--stat", "linf", "--L", 500,
                   "--seed", 15)),
        ("post", ("posterior-check", *xy, "--lambda", 0.25, "--sigma2", 1.0, "--L", 500,
                  "--seed", 16)),
        ("direct", step2("--method", "direct")),
        ("studentt", step2("--model", "studentt", "--dof", 40)),
        ("elliptical", step2("--model", "elliptical", "--boot-samples", 400)),
        ("elliptical-direct",
         step2("--model", "elliptical", "--boot-samples", 400, "--method", "direct")),
        ("beta", step2("--beta", data / "beta0.csv")),
        ("b-th", step2("--b-th", 0.3)),
        ("estimate-sigma2", step2(law=("--estimate-sigma2",))),
        ("equilibrium-init", step2("--equilibrium-init")),
    ]


def test_readme_steps_and_variations_run(tmp_path):
    for name, argv in readme_runs(tmp_path):
        out = tmp_path / name
        before = _files(out)
        assert main([str(a) for a in (*argv, "--out-dir", out)]) == 0, name
        after = _files(out)
        manifest = json.loads(after["manifest.json"])
        assert manifest["command"] == argv[0], name
        written = {f for f, data in after.items() if before.get(f) != data}
        assert set(manifest["outputs"]) == written, name
