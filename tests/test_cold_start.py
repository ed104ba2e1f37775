"""Cold start: the package runs with scipy blocked and imports no process pool.

scipy is a test dependency only.  Each check runs in a fresh interpreter,
since this test process has scipy loaded already (the oracles import it),
and that interpreter installs an import hook that raises ImportError for
``scipy`` and every ``scipy.*`` module before it imports lassodist.  It
then runs exact draws, chain diagnostics, the p > n row-space density,
the sign-recovery probability, and every command that
``tests/test_readme.py`` runs: README steps 1-7 and each useful
variation, elliptical noise with ``--method mls`` and ``direct`` included.
Neither ``import lassodist`` nor ``import lassodist.cli`` loads
``concurrent.futures.process`` or ``multiprocessing``: only a tail study
with ``workers`` > 1 needs them.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import lassodist

SRC = Path(lassodist.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent

SCRIPT = r"""
import importlib.abc
import json
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())

steps = {}


def run(name, call):
    try:
        result = call()
        steps[name] = "ok"
        return result
    except Exception as exc:
        steps[name] = f"{type(exc).__name__}: {exc}"


def cli(argv):
    code = lassodist.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"exit code {code}")


def no_process_pool():
    loaded = [m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]
    if loaded:
        raise ImportError(f"{', '.join(loaded)} loaded")


run("import lassodist", lambda: __import__("lassodist"))
run("no pool after import lassodist", no_process_pool)
run("import lassodist.cli", lambda: __import__("lassodist.cli"))
run("no pool after import lassodist.cli", no_process_pool)

from pathlib import Path

import numpy as np
import lassodist.cli
from lassodist import Gaussian, build_problem, chain_diagnostics, direct_sample
from lassodist import log_density_rowspace, sign_consistency_prob, spectral_decompose
from lassodist import summarize_chain, synthetic_dataset
from lassodist.importance import coefficient_statistic
from test_readme import readme_runs

X, y, beta0 = synthetic_dataset(40, 6, seed=5)
spec = build_problem(X, 1.0, 0.3)
chain = run("direct_sample", lambda: direct_sample(spec, beta0, Gaussian(1.0), 200, 9))
run("chain_diagnostics", lambda: chain_diagnostics(chain, coefficient_statistic("l1")))
run("summarize_chain", lambda: summarize_chain(chain))
run("sign_consistency_prob", lambda: sign_consistency_prob(spec, beta0, 1.0, 1000, 3))
wide = build_problem(synthetic_dataset(4, 7, seed=29)[0], 1.0, 0.3)
draw = direct_sample(wide, np.zeros(7), Gaussian(1.0), 1, 4)
run("log_density_rowspace", lambda: log_density_rowspace(
    draw.thetas[0], draw.active[0], np.zeros(7), Gaussian(1.0), wide, spectral_decompose(wide)))

out = Path(sys.argv[1])
small = [
    ("gen-data", "--n", 30, "--p", 5, "--seed", 3, "--out-dir", out / "data"),
    ("sample-joint", "--x", out / "data/X.csv", "--y", out / "data/y.csv",
     "--lambda", 0.3, "--sigma2", 1, "--method", "direct", "--iters", 100,
     "--seed", 7, "--out-dir", out / "run"),
    ("diagnose", "--chain", out / "run/chain.csv", "--meta", out / "run/chain_meta.json",
     "--hist-coord", 0, "--out-dir", out / "diag"),
]
for argv in small:
    run(f"cli {argv[0]}", lambda: cli(argv))
# README steps 1-7 and every variation, as tests/test_readme.py runs them.
for name, argv in readme_runs(out / "readme"):
    run(f"readme {name} {argv[0]}", lambda: cli((*argv, "--out-dir", out / "readme" / name)))
print(json.dumps(steps))
"""


def test_scipy_free_paths_never_import_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(steps) == [
        "import lassodist", "no pool after import lassodist", "import lassodist.cli",
        "no pool after import lassodist.cli", "direct_sample", "chain_diagnostics", "summarize_chain",
        "sign_consistency_prob", "log_density_rowspace",
        "cli gen-data", "cli sample-joint", "cli diagnose",
        "readme data gen-data", "readme run sample-joint", "readme run diagnose",
        "readme cond sample-cond", "readme tail pvalue", "readme multi pvalue-multi",
        "readme post posterior-check", "readme direct sample-joint",
        "readme studentt sample-joint", "readme elliptical sample-joint",
        "readme elliptical-direct sample-joint", "readme beta sample-joint",
        "readme b-th sample-joint", "readme estimate-sigma2 sample-joint",
        "readme equilibrium-init sample-joint",
    ]
    assert steps == {step: "ok" for step in steps}
