"""Cold start: the package and its scipy-free paths never import scipy.

The scipy-free paths are exact draws, MH chains, tail estimates, posterior
draws and every step of the README worked example, Student-t noise included.

scipy is imported only inside the functions that call it.  Each check
runs in a fresh interpreter, since this test process has scipy loaded
already (the oracles import it).
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import lassodist

SRC = Path(lassodist.__file__).resolve().parents[1]

SCRIPT = r"""
import json
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {}
import lassodist
import lassodist.cli
loaded["import"] = scipy_modules()

from lassodist import Gaussian, build_problem, chain_diagnostics, direct_sample
from lassodist import summarize_chain, synthetic_dataset
from lassodist.importance import coefficient_statistic

X, y, beta0 = synthetic_dataset(40, 6, seed=5)
spec = build_problem(X, 1.0, 0.3)
chain = direct_sample(spec, beta0, Gaussian(1.0), 200, 9)
loaded["direct_sample"] = scipy_modules()
chain_diagnostics(chain, coefficient_statistic("l1"))
loaded["chain_diagnostics"] = scipy_modules()
summarize_chain(chain)
loaded["summarize_chain"] = scipy_modules()

out = sys.argv[1]
steps = [
    ("gen-data", "--n", "30", "--p", "5", "--seed", "3", "--out-dir", f"{out}/data"),
    ("sample-joint", "--x", f"{out}/data/X.csv", "--y", f"{out}/data/y.csv",
     "--lambda", "0.3", "--sigma2", "1", "--method", "direct", "--iters", "100",
     "--seed", "7", "--out-dir", f"{out}/run"),
    ("diagnose", "--chain", f"{out}/run/chain.csv", "--meta", f"{out}/run/chain_meta.json",
     "--hist-coord", "0", "--out-dir", f"{out}/diag"),
]
for argv in steps:
    code = lassodist.cli.main(list(argv))
    loaded[f"cli {argv[0]}"] = scipy_modules() if code == 0 else f"exit code {code}"

# The README worked example (steps 1-7) and its Student-t variation, at small sizes.
data = ("--x", f"{out}/readme/X.csv", "--y", f"{out}/readme/y.csv")
tail = ("--x", f"{out}/readme/X.csv", "--null-beta", "zero", "--sigma2", "1.0",
        "--stat", "linf", "--L", "500")
chain = ("--sigma2", "1.0", "--iters", "200", "--burnin", "20")
readme_steps = [
    ("gen-data", "--n", "100", "--p", "20", "--rho", "0.25", "--sigma2", "1.0",
     "--signal", "6", "--seed", "11", "--out-dir", f"{out}/readme"),
    ("sample-joint", *data, "--lambda-frac", "0.3", "--lambda-grid", "50", "--method", "mls",
     *chain, "--seed", "12", "--out-dir", f"{out}/readme/run"),
    ("diagnose", "--chain", f"{out}/readme/run/chain.csv",
     "--meta", f"{out}/readme/run/chain_meta.json", "--g", "l1", "--hist-coord", "0",
     "--out-dir", f"{out}/readme/run"),
    ("sample-cond", *data, "--lambda", "0.25", "--active", "0,1,2", *chain, "--seed", "13",
     "--out-dir", f"{out}/readme/cond"),
    ("pvalue", *tail, "--lambda-star", "0.25", "--t-star", "0.25", "--replicates", "2",
     "--workers", "1", "--seed", "14", "--out-dir", f"{out}/readme/tail"),
    ("pvalue-multi", *tail, "--lambda-stars", "0.25,0.25,0.25,0.25,0.25",
     "--t-stars", "0.12,0.15,0.18,0.2,0.22", "--seed", "15", "--out-dir", f"{out}/readme/multi"),
    ("posterior-check", *data, "--lambda", "0.25", "--sigma2", "1.0", "--L", "500",
     "--seed", "16", "--out-dir", f"{out}/readme/post"),
    ("sample-joint", *data, "--lambda-frac", "0.3", "--model", "studentt", "--dof", "40",
     *chain, "--seed", "12", "--out-dir", f"{out}/readme/studentt"),
]
readme = {}
for i, argv in enumerate(readme_steps):
    code = lassodist.cli.main(list(argv))
    readme[f"{i} {argv[0]}"] = scipy_modules() if code == 0 else f"exit code {code}"
print(json.dumps(readme))
print(json.dumps(loaded))
"""


def test_scipy_free_paths_never_import_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(loaded) == [
        "import", "direct_sample", "chain_diagnostics", "summarize_chain",
        "cli gen-data", "cli sample-joint", "cli diagnose",
    ]
    assert loaded == {step: [] for step in loaded}
    readme = json.loads(done.stdout.strip().splitlines()[-2])
    assert list(readme) == [
        "0 gen-data", "1 sample-joint", "2 diagnose", "3 sample-cond", "4 pvalue",
        "5 pvalue-multi", "6 posterior-check", "7 sample-joint",
    ]
    assert readme == {step: [] for step in readme}
