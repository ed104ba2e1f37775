"""Per-layer metrics of the traced run.

A layer is a ``lassodist`` module.  ``install`` puts a span around each
public function at the module attribute its callers use, and records
counts at the same boundaries.  ``metrics`` turns the spans of the traced
ops into the per-layer numbers listed in ``PER_LAYER``.

Counts are summed over the first ``COUNT_OPS`` traced ops only, so for a
given seed and program they repeat exactly from run to run; times are
per-op means over every traced op.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import Patches, Tracer

COUNT_OPS = 10
MOVES = ("coef_update", "subgrad_update", "drop_coord", "add_coord")
LAYERS = ("solver", "problem", "density", "samplers", "importance", "estimation", "cli", "bench")

# (name, unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = [
    ("solver.calls", "count", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.us_per_call", "us", "lower"),
    ("solver.max_kkt_residual", "1", "lower"),
    ("problem.det_ratio_calls", "count", "lower"),
    ("problem.us_per_det_ratio", "us", "lower"),
    ("problem.sweep_builds", "count", "lower"),
    ("problem.self_s", "s", "lower"),
    ("density.loglik_calls", "count", "lower"),
    ("density.loglik_self_s", "s", "lower"),
    ("density.noise_draw_s", "s", "lower"),
    ("density.self_s", "s", "lower"),
    ("samplers.direct_draws", "count", "higher"),
    ("samplers.direct_us_per_draw", "us", "lower"),
    ("samplers.mh_sweeps", "count", "higher"),
    ("samplers.mh_us_per_sweep", "us", "lower"),
    *[(f"samplers.accept_rate.{m}", "1", "higher") for m in MOVES],
    *[(f"samplers.proposals.{m}", "count", "higher") for m in MOVES],
    *[(f"samplers.accepts.{m}", "count", "higher") for m in MOVES],
    ("samplers.csv_write_us_per_row", "us", "lower"),
    ("samplers.csv_read_us_per_row", "us", "lower"),
    ("samplers.self_s", "s", "lower"),
    ("samplers.direct_to_mh_cost_ratio", "1", "lower"),
    ("importance.tune_s", "s", "lower"),
    ("importance.trial_sample_s", "s", "lower"),
    ("importance.weights_s", "s", "lower"),
    ("importance.weights", "count", "higher"),
    ("importance.us_per_weight", "us", "lower"),
    ("importance.ess_frac", "1", "higher"),
    ("importance.self_s", "s", "lower"),
    ("importance.trial_sample_share", "%", "lower"),
    ("importance.weights_share", "%", "lower"),
    ("estimation.diagnostics_s", "s", "lower"),
    ("estimation.summarize_s", "s", "lower"),
    ("estimation.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    *[(f"{layer}.share", "%", "lower") for layer in LAYERS],
    ("trace.op_p50_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.spans_per_op", "count", "lower"),
]


class LayerTrace(Tracer):
    """Tracer with the counters the per-layer metrics need."""

    def __init__(self) -> None:
        super().__init__()
        self.fixed: defaultdict[str, float] = defaultdict(float)  # first COUNT_OPS ops
        self.total: defaultdict[str, float] = defaultdict(float)  # every traced op
        self.max_kkt = 0.0
        self.ess_fracs: list[float] = []
        self.missing: list[str] = []

    def count(self, key: str, n: float = 1.0) -> None:
        self.total[key] += n
        if 0 <= self.op_index < COUNT_OPS:
            self.fixed[key] += n

    # -- result hooks -------------------------------------------------
    def _solve(self, args, kwargs, result) -> None:
        self.count("solver.calls")
        self.max_kkt = max(self.max_kkt, float(result[1]))

    def _direct(self, args, kwargs, result) -> None:
        self.count("samplers.direct_draws", len(result))

    def _mh(self, args, kwargs, result) -> None:
        config = kwargs.get("config", args[3] if len(args) > 3 else None)
        self.count("samplers.mh_sweeps", config.iters)
        for m in MOVES:
            self.count(f"samplers.proposals.{m}", result.proposal_counts.get(m, 0))
            self.count(f"samplers.accepts.{m}", result.accept_counts.get(m, 0))

    def _study(self, args, kwargs, result) -> None:
        for res in result if isinstance(result, list) else [result]:
            self.ess_fracs.append(res.ess / len(res.log_weights))

    def install(self, patches: Patches) -> None:
        """Wrap every boundary; ``missing`` lists the targets that no longer exist."""
        c = self.count
        targets = [
            ("lassodist.solver:solve_lasso_gram", "solver.solve_lasso_gram", self._solve),
            ("lassodist.samplers:solve_lasso", "solver.solve_lasso", None),
            ("lassodist.cli:solve_lasso", "solver.solve_lasso", None),
            ("lassodist.importance:lambda_max", "solver.lambda_max", None),
            ("lassodist.cli:lambda_max", "solver.lambda_max", None),
            ("lassodist.cli:lambda_grid", "solver.lambda_grid", None),
            ("lassodist.samplers:sweep_det_ratio", "problem.sweep_det_ratio",
             lambda a, k, r: c("problem.det_ratio_calls")),
            ("lassodist.samplers:build_sweep_state", "problem.build_sweep_state",
             lambda a, k, r: c("problem.sweep_builds")),
            ("lassodist.cli:build_problem", "problem.build_problem", None),
            ("lassodist.importance:spectral_decompose", "problem.spectral_decompose", None),
            ("lassodist.samplers:log_error_density_from_qform", "density.loglik",
             lambda a, k, r: c("density.loglik_calls")),
            ("lassodist.samplers:sample_errors", "density.sample_errors", None),
            ("lassodist.samplers:direct_sample", "samplers.direct_sample", self._direct),
            ("lassodist.importance:direct_sample", "samplers.direct_sample", self._direct),
            ("lassodist.cli:mh_sample", "samplers.mh_sample", self._mh),
            ("lassodist.cli:write_chain_csv", "samplers.write_chain_csv",
             lambda a, k, r: c("samplers.csv_rows_written", len(a[0]))),
            ("lassodist.cli:read_chain_csv", "samplers.read_chain_csv",
             lambda a, k, r: c("samplers.csv_rows_read", len(r))),
            ("lassodist.cli:write_chain_meta", "samplers.write_chain_meta", None),
            ("lassodist.cli:default_sampler_config", "samplers.default_sampler_config", None),
            ("lassodist.importance:multi_pvalue_study", "importance.multi_pvalue_study",
             self._study),
            ("lassodist.importance:pvalue_study", "importance.pvalue_study", self._study),
            ("lassodist.importance:tune_trial", "importance.tune_trial", None),
            ("lassodist.importance:sample_trial", "importance.sample_trial", None),
            ("lassodist.importance:chain_log_weights", "importance.chain_log_weights",
             lambda a, k, r: c("importance.weights", len(r))),
            ("lassodist.importance:log_importance_weight", "importance.log_importance_weight",
             None),
            ("lassodist.importance:estimate_pvalue", "importance.estimate_pvalue", None),
            ("lassodist.importance:multi_test", "importance.multi_test", None),
            ("lassodist.cli:chain_diagnostics", "estimation.chain_diagnostics", None),
            ("lassodist.cli:summarize_chain", "estimation.summarize_chain", None),
            ("lassodist.cli:acceptance_band_report", "estimation.acceptance_band_report", None),
            ("lassodist.cli:coefficient_histogram", "estimation.coefficient_histogram", None),
            ("lassodist.cli:main", "cli.main", None),
        ]
        self.missing = [t for t, name, hook in targets if not self.span(patches, t, name, hook)]

    # -- aggregation --------------------------------------------------
    def metrics(self, untraced_p50_s: float, extra: dict[str, float]) -> dict[str, float]:
        """Per-layer values over the traced ops; ``extra`` fills derived entries."""
        self_t = self.self_times()
        incl: defaultdict[str, float] = defaultdict(float)
        layer_self: defaultdict[str, float] = defaultdict(float)
        op_times = []
        for idx, name in enumerate(self.names):
            incl[name] += self.ends[idx] - self.starts[idx]
            layer_self[name.split(".", 1)[0]] += self_t[idx]
            if name == "bench.op":
                op_times.append(self.ends[idx] - self.starts[idx])
        n_ops = len(op_times)
        op_total = sum(op_times)
        tot, fix = self.total, self.fixed

        def per(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        m = {
            "solver.calls": fix["solver.calls"],
            "solver.self_s": per(layer_self["solver"], n_ops),
            "solver.us_per_call": per(layer_self["solver"], tot["solver.calls"], 1e6),
            "solver.max_kkt_residual": self.max_kkt,
            "problem.det_ratio_calls": fix["problem.det_ratio_calls"],
            "problem.us_per_det_ratio": per(
                incl["problem.sweep_det_ratio"], tot["problem.det_ratio_calls"], 1e6
            ),
            "problem.sweep_builds": fix["problem.sweep_builds"],
            "problem.self_s": per(layer_self["problem"], n_ops),
            "density.loglik_calls": fix["density.loglik_calls"],
            "density.loglik_self_s": per(incl["density.loglik"], n_ops),
            "density.noise_draw_s": per(incl["density.sample_errors"], n_ops),
            "density.self_s": per(layer_self["density"], n_ops),
            "samplers.direct_draws": fix["samplers.direct_draws"],
            "samplers.direct_us_per_draw": per(
                incl["samplers.direct_sample"], tot["samplers.direct_draws"], 1e6
            ),
            "samplers.mh_sweeps": fix["samplers.mh_sweeps"],
            "samplers.mh_us_per_sweep": per(
                incl["samplers.mh_sample"], tot["samplers.mh_sweeps"], 1e6
            ),
            "samplers.csv_write_us_per_row": per(
                incl["samplers.write_chain_csv"], tot["samplers.csv_rows_written"], 1e6
            ),
            "samplers.csv_read_us_per_row": per(
                incl["samplers.read_chain_csv"], tot["samplers.csv_rows_read"], 1e6
            ),
            "samplers.self_s": per(layer_self["samplers"], n_ops),
            "importance.tune_s": per(incl["importance.tune_trial"], n_ops),
            "importance.trial_sample_s": per(incl["importance.sample_trial"], n_ops),
            "importance.weights_s": per(incl["importance.chain_log_weights"], n_ops),
            "importance.weights": fix["importance.weights"],
            "importance.us_per_weight": per(
                incl["importance.chain_log_weights"], tot["importance.weights"], 1e6
            ),
            "importance.ess_frac": statistics.fmean(self.ess_fracs) if self.ess_fracs else 0.0,
            "importance.self_s": per(layer_self["importance"], n_ops),
            "importance.trial_sample_share": per(incl["importance.sample_trial"], op_total, 100),
            "importance.weights_share": per(incl["importance.chain_log_weights"], op_total, 100),
            "estimation.diagnostics_s": per(incl["estimation.chain_diagnostics"], n_ops),
            "estimation.summarize_s": per(incl["estimation.summarize_chain"], n_ops),
            "estimation.self_s": per(layer_self["estimation"], n_ops),
            "cli.self_s": per(layer_self["cli"], n_ops),
            "trace.op_p50_ms": 1e3 * statistics.median(op_times),
            "trace.overhead_ms": 1e3 * (statistics.median(op_times) - untraced_p50_s),
            "trace.spans_per_op": per(len(self.names), n_ops),
        }
        for mv in MOVES:
            prop = fix[f"samplers.proposals.{mv}"]
            m[f"samplers.proposals.{mv}"] = prop
            m[f"samplers.accepts.{mv}"] = fix[f"samplers.accepts.{mv}"]
            m[f"samplers.accept_rate.{mv}"] = per(fix[f"samplers.accepts.{mv}"], prop)
        for layer in LAYERS:
            m[f"{layer}.share"] = per(layer_self[layer], op_total, 100)
        m.update(extra)
        return m
