"""The three benchmark workloads: exact draws, MH chains through the CLI, tails.

Each workload is a fixed bundle of library calls (one "op") on fixed
designs.  The designs are the ones the README and the acceptance
criteria use; they stay fixed because the cost of a draw or a sweep
varies by up to 3x between random designs of the same shape, which would
swamp any run-to-run comparison.  Every noise, sampler and trial seed
comes from the workload seed and the op index, so the same seed gives
the same inputs.

An op returns a dict that ``check`` inspects; ``check`` returns the names
of the checks that failed (empty when the op is correct).  Library
functions are always called through their module attribute, so the spans
and probes of ``tracing.py`` see the calls.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.special import ndtri

import lassodist.cli
import lassodist.density
import lassodist.estimation
import lassodist.importance
import lassodist.problem
import lassodist.samplers
import lassodist.solver

from tracing import Patches, probe


def op_seeds(seed: int, index: int, k: int) -> list[int]:
    """``k`` independent integer seeds for op ``index`` of a run with ``seed``."""
    return [int(x) for x in np.random.SeedSequence([seed, index]).generate_state(k)]


def c04_design() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Criterion-04 design: n=50, p=10, equicorrelated, two borderline signals."""
    gen = np.random.default_rng(404)
    shared = gen.standard_normal((50, 1))
    X = np.sqrt(0.75) * gen.standard_normal((50, 10)) + np.sqrt(0.25) * shared
    beta0 = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 0.18, 0.18])
    y = X @ beta0 + gen.standard_normal(50)
    return X, y, beta0


def readme_design():
    """The README worked example: ``gen-data --n 100 --p 20 --signal 6 --seed 11``."""
    return lassodist.problem.synthetic_dataset(100, 20, rho=0.25, sigma2=1.0, signal=6, seed=11)


def wide_design():
    """p > n design: n=40, p=80, five signals (the solver's p > n regime)."""
    return lassodist.problem.synthetic_dataset(40, 80, rho=0.25, sigma2=1.0, signal=5, seed=8040)


def _valid_states(chain, L: int) -> bool:
    theta, active = chain.thetas, chain.active
    return (
        len(chain) == L
        and bool(np.all(np.isfinite(theta)))
        and bool(np.all(theta[active] != 0.0))
        and bool(np.all(np.abs(theta[~active]) <= 1.0))
    )


class Exact:
    """``direct_sample`` batches on the criterion-04 design and a wide design."""

    name = "exact"
    why = "exact draws: the lasso solver does nearly all the work; no MH, no IS weights"
    unit = "draws"
    draws_c04 = 60
    draws_wide = 60

    def setup(self, workdir: Path) -> None:
        X, _, self.beta_c04 = c04_design()
        self.spec_c04 = lassodist.problem.build_problem(X, 1.0, 0.15)
        self.spec_c04.gram_cholesky  # noqa: B018 - warm the Cholesky cache
        Xw, _, self.beta_wide = wide_design()
        self.spec_wide = lassodist.problem.build_problem(Xw, 1.0, 0.3)
        self.model = lassodist.density.Gaussian(1.0)

    def install_probes(self, patches: Patches) -> None:
        pass

    def op(self, seed: int, index: int) -> dict:
        s1, s2 = op_seeds(seed, index, 2)
        sample = lassodist.samplers.direct_sample
        return {
            "c04": sample(self.spec_c04, self.beta_c04, self.model, self.draws_c04, s1),
            "wide": sample(self.spec_wide, self.beta_wide, self.model, self.draws_wide, s2),
        }

    def check(self, out: dict) -> list[str]:
        tol = getattr(lassodist.solver, "KKT_TOL", 1e-8)
        failed = []
        for key, L in (("c04", self.draws_c04), ("wide", self.draws_wide)):
            chain = out[key]
            if not _valid_states(chain, L):
                failed.append(f"exact.valid_states.{key}")
            if not (chain.max_kkt_residual is not None and chain.max_kkt_residual <= tol):
                failed.append(f"exact.kkt_residual.{key}")
        return failed

    def work(self, out: dict) -> float:
        return float(len(out["c04"]) + len(out["wide"]))

    def ess(self, out: dict) -> float:
        # Same estimator as ``diagnose`` uses for chains; close to the draw
        # count, since exact draws are independent.
        l1 = lassodist.importance.coefficient_statistic("l1")
        diagnose = lassodist.estimation.chain_diagnostics
        return float(sum(diagnose(out[key], l1).ess for key in ("c04", "wide")))


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return lassodist.cli.main(argv)


class Chain:
    """README pipeline through ``cli.main``: ``sample-joint --method mls``, then ``diagnose``.

    Run once on the README dataset (add acceptance about 1%) and once on
    the criterion-04 design from an exact draw (add acceptance about 35%).
    """

    name = "chain"
    why = "MH chains via the CLI: det ratios, candidate log-likelihoods and CSV I/O dominate"
    unit = "sweeps"
    iters = 250
    burnin = 50

    def setup(self, workdir: Path) -> None:
        self.dir = workdir
        data = workdir / "data"
        gen = "gen-data --n 100 --p 20 --rho 0.25 --sigma2 1.0 --signal 6 --seed 11"
        if _run_cli([*gen.split(), "--out-dir", str(data)]):
            raise RuntimeError("gen-data failed")
        X, y, beta0 = c04_design()
        c04 = workdir / "c04"
        c04.mkdir(exist_ok=True)
        for fname, arr in (("X.csv", X), ("y.csv", y), ("beta0.csv", beta0)):
            np.savetxt(c04 / fname, arr, fmt="%.17g", delimiter=",")
        common = ["--method", "mls", "--sigma2", "1.0", "--iters", str(self.iters)]
        self.runs = [
            {
                "label": "readme",
                "sample": ["--x", str(data / "X.csv"), "--y", str(data / "y.csv"),
                           "--lambda-frac", "0.3", "--lambda-grid", "50", *common,
                           "--burnin", str(self.burnin)],
                "kept": self.iters - self.burnin,
                "out": workdir / "run_readme",
            },
            {
                "label": "c04",
                "sample": ["--x", str(c04 / "X.csv"), "--y", str(c04 / "y.csv"),
                           "--lambda", "0.15", "--beta", str(c04 / "beta0.csv"), *common,
                           "--burnin", "0", "--equilibrium-init"],
                "kept": self.iters,
                "out": workdir / "run_c04",
            },
        ]

    def install_probes(self, patches: Patches) -> None:
        self._written: list = []
        self._read: list = []
        probe(patches, "lassodist.cli:write_chain_csv", lambda a, k, r: self._written.append(a[0]))
        probe(patches, "lassodist.cli:read_chain_csv", lambda a, k, r: self._read.append(r))

    def op(self, seed: int, index: int) -> dict:
        seeds = op_seeds(seed, index, len(self.runs))
        self._written.clear()
        self._read.clear()
        out = {"rc": [], "meta": [], "diag": []}
        for run, s in zip(self.runs, seeds):
            rd = run["out"]
            out["rc"].append(
                _run_cli(
                    ["sample-joint", *run["sample"], "--seed", str(s), "--out-dir", str(rd)]
                )
            )
            out["rc"].append(
                _run_cli(
                    ["diagnose", "--chain", str(rd / "chain.csv"), "--meta",
                     str(rd / "chain_meta.json"), "--g", "l1", "--hist-coord", "0",
                     "--out-dir", str(rd)]
                )
            )
        for run in self.runs:
            rd = run["out"]
            with open(rd / "chain_meta.json", encoding="utf-8") as fh:
                out["meta"].append(json.load(fh))
            with open(rd / "diagnostics.json", encoding="utf-8") as fh:
                out["diag"].append(json.load(fh))
        out["written"] = list(self._written)
        out["read"] = list(self._read)
        return out

    def check(self, out: dict) -> list[str]:
        if any(out["rc"]):
            return ["chain.exit_codes"]
        failed = []
        if len(out["written"]) != len(self.runs) or len(out["read"]) != len(self.runs):
            failed.append("chain.csv_round_trip")
        else:
            for w, r in zip(out["written"], out["read"]):
                same = (
                    w.thetas.shape == r.thetas.shape
                    and np.array_equal(w.thetas.view(np.uint64), r.thetas.view(np.uint64))
                    and np.array_equal(w.active, r.active)
                    and np.array_equal(w.iterations, r.iterations)
                )
                if not same:
                    failed.append("chain.csv_round_trip")
                    break
        for run, meta, diag in zip(self.runs, out["meta"], out["diag"]):
            if not self._tallies_ok(meta, run["kept"]):
                failed.append(f"chain.tallies.{run['label']}")
            if not (math.isfinite(diag["ess"]) and diag["ess"] > 0):
                failed.append(f"chain.ess.{run['label']}")
        return failed

    def _tallies_ok(self, meta: dict, kept: int) -> bool:
        """Every sweep proposes one move per coordinate, K of them add/drop."""
        p = meta["p"]
        K = math.ceil(p / 5)
        acc, prop = meta["accept_counts"], meta["proposal_counts"]
        kinds = {"coef_update", "subgrad_update", "drop_coord", "add_coord"}
        return (
            set(prop) <= kinds
            and set(acc) <= set(prop)
            and all(0 <= acc.get(k, 0) <= n for k, n in prop.items())
            and sum(prop.values()) == self.iters * p
            and prop.get("add_coord", 0) + prop.get("drop_coord", 0) == self.iters * K
            and meta["n_states"] == kept
        )

    def work(self, out: dict) -> float:
        return float(self.iters * len(self.runs))

    def ess(self, out: dict) -> float:
        return float(sum(d["ess"] for d in out["diag"]))

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class Tail:
    """Importance-sampled tails: five shared targets, a p > n target, a closed form."""

    name = "tail"
    why = "IS tails: pilot tuning, trial solves at the tuned penalty and weights; row-space path"
    unit = "targets"
    L_multi = 200
    L_wide = 200
    L_1d = 1000
    t_stars = (0.12, 0.15, 0.18, 0.2, 0.22)
    t_wide = 0.35
    lam_wide = 0.3
    q_1d = 1e-6
    # Bound on |log(estimate / q)| in units of the weights' relative
    # standard error; see _closed_form_ok.  The error of self-normalized IS
    # is skewed, so the bound is wider than a normal quantile: over 1500
    # seeds at L=1000 the largest ratio was 3.3.
    z_1d = 8.0

    def setup(self, workdir: Path) -> None:
        problem = lassodist.problem
        X, _, _ = readme_design()
        self.spec_readme = problem.build_problem(X, 1.0, 0.25)
        self.spec_readme.gram_inv  # noqa: B018 - warm the Cholesky caches
        Xw, _, _ = wide_design()
        self.spec_wide = problem.build_problem(Xw, 1.0, self.lam_wide)
        self.basis_wide = problem.spectral_decompose(self.spec_wide)
        # (X X')^-1 X, for the check's own row-space quadratic form.
        self.row_map_wide = np.linalg.solve(Xw @ Xw.T, Xw)
        self.spec_1d = problem.build_problem(np.ones((20, 1)), 1.0, 0.3)
        self.spec_1d.gram_inv  # noqa: B018
        sd = 1.0 / math.sqrt(20.0)
        # |beta_hat| >= t  <=>  |mean(y)| >= t + lam, a two-sided normal tail.
        self.t_1d = -sd * float(ndtri(self.q_1d / 2.0)) - 0.3
        self.stat = lassodist.importance.coefficient_statistic("linf")

    def install_probes(self, patches: Patches) -> None:
        self._trials: list = []
        probe(patches, "lassodist.importance:direct_sample", lambda a, k, r: self._trials.append(r))

    def op(self, seed: int, index: int) -> dict:
        s1, s2, s3 = op_seeds(seed, index, 3)
        imp = lassodist.importance
        multi = imp.multi_pvalue_study(
            self.spec_readme, np.zeros(20), 1.0, np.full(5, 0.25), self.stat,
            np.array(self.t_stars), self.L_multi, s1,
        )
        self._trials.clear()
        wide = imp.pvalue_study(
            self.spec_wide, np.zeros(80), 1.0, self.lam_wide, self.stat, self.t_wide,
            self.L_wide, s2, basis=self.basis_wide,
        )
        wide_trial = self._trials[-1] if self._trials else None
        self._trials.clear()
        oned = imp.pvalue_study(
            self.spec_1d, np.zeros(1), 1.0, 0.3, self.stat, self.t_1d, self.L_1d, s3
        )
        return {
            "multi": multi,
            "wide": wide,
            "wide_trial": wide_trial,
            "oned": oned,
            "oned_trial": self._trials[-1] if self._trials else None,
        }

    def check(self, out: dict) -> list[str]:
        failed = []
        est = np.array([r.estimate for r in out["multi"]])
        if not (np.all(np.isfinite(est)) and est[0] > 0 and np.all(np.diff(est) <= 0)):
            failed.append("tail.multi_monotone")
        if not self._row_space_weights_ok(out["wide"], out["wide_trial"]):
            failed.append("tail.row_space_weights")
        if not self._closed_form_ok(out["oned"], out["oned_trial"]):
            failed.append("tail.closed_form_1d")
        return failed

    def _row_space_weights_ok(self, res, trial_chain) -> bool:
        """The wide log weights match a recomputation that bypasses the spectral basis.

        For p > n the weights compare row-space densities, whose quadratic
        form is u' G^+ u with G = X'X/n.  Here G^+ = n X^+' X^+ comes from
        the design itself: u' G^+ u = n |(X X')^-1 X u|^2.
        """
        if trial_chain is None or len(trial_chain) != self.L_wide:
            return False
        spec, trial, n = self.spec_wide, res.trial, self.spec_wide.n
        base = trial_chain.beta_matrix() @ spec.gram  # beta0 = 0
        scaled_s = trial_chain.subgrad_matrix() * spec.weights

        def qform(lam: float) -> np.ndarray:
            return n * np.sum(((base + lam * scaled_s) @ self.row_map_wide.T) ** 2, axis=1)

        k = trial_chain.active.sum(axis=1)
        expected = (
            0.5 * n * qform(trial.lambda_dagger) / trial.sigma2_dagger
            - 0.5 * n * qform(self.lam_wide)
            + (n - k) * math.log(self.lam_wide / trial.lambda_dagger)
            + 0.5 * n * math.log(trial.sigma2_dagger)
        )
        lw = np.asarray(res.log_weights, dtype=float)
        scale = max(1.0, float(np.max(np.abs(expected))))
        return lw.shape == expected.shape and bool(np.allclose(lw, expected, rtol=0, atol=1e-9 * scale))

    def _closed_form_ok(self, res, trial_chain) -> bool:
        """The 1-D estimate sits within an ESS-derived bound of the exact tail.

        With normalized weights w and hit indicator h, the self-normalized
        estimate p has delta-method relative error
        (1 - p) * sqrt(1/ESS_hit + 1/ESS_miss), where ESS_hit and ESS_miss
        are the effective sample sizes of the weights inside and outside the
        tail event.  The check bounds |log(p / q)| by ``z_1d`` of those.
        """
        if trial_chain is None or not res.estimate > 0:
            return False
        lw = np.asarray(res.log_weights, dtype=float)
        hit = np.abs(trial_chain.beta_matrix()[:, 0]) >= self.t_1d
        if lw.shape != hit.shape or hit.all() or not hit.any():
            return False
        w = np.exp(lw - lw.max())
        ess = [w[m].sum() ** 2 / (w[m] ** 2).sum() for m in (hit, ~hit)]
        rel_se = (1.0 - res.estimate) * math.sqrt(1.0 / ess[0] + 1.0 / ess[1])
        return abs(math.log(res.estimate / self.q_1d)) <= self.z_1d * rel_se

    def work(self, out: dict) -> float:
        return float(len(out["multi"]) + 2)

    def ess(self, out: dict) -> float:
        # One trial sample serves all five shared targets, so count its ESS once.
        return float(out["multi"][0].ess + out["wide"].ess + out["oned"].ess)


WORKLOADS = {w.name: w for w in (Exact, Chain, Tail)}
