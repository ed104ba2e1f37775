from __future__ import annotations

import concurrent.futures
import hashlib
import json
import warnings

import numpy as np
import pytest

import lassodist.samplers
from lassodist import cli
from lassodist.cli import main
from lassodist.samplers import read_chain_csv

from conftest import duplicated_column_design, strict_json


def run(*argv):
    return main([str(a) for a in argv])


def gen_dataset(tmp_path, name="data", n=20, p=5, seed=3):
    out = tmp_path / name
    assert run("gen-data", "--n", n, "--p", p, "--seed", seed, "--out-dir", out) == 0
    return out


def test_gen_data_reruns_are_byte_identical(tmp_path):
    out = gen_dataset(tmp_path, "d")
    names = ["X.csv", "y.csv", "beta0.csv", "manifest.json"]
    first = {name: (out / name).read_bytes() for name in names}
    assert run("gen-data", "--n", 20, "--p", 5, "--seed", 3, "--out-dir", out) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name]
    manifest = json.loads(first["manifest.json"])
    assert manifest["command"] == "gen-data"
    assert "manifest.json" in manifest["outputs"]
    X = np.loadtxt(out / "X.csv", delimiter=",")
    assert X.shape == (20, 5)


def test_parse_error_leaves_the_shared_parser_unchanged(tmp_path, capsys):
    """One process parses a failing argv, then a valid one, with one parser."""
    assert cli.build_parser() is cli.build_parser()
    out = gen_dataset(tmp_path, "d")
    names = ["X.csv", "y.csv", "beta0.csv", "manifest.json"]
    first = {name: (out / name).read_bytes() for name in names}
    bad = ("gen-data", "--n", 20, "--p", 5, "--seed", 3, "--rho", 0.9, "--amplitude", 4.0)
    assert run(*bad, "--out-dir", tmp_path / "bad", "--no-such-flag") == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    assert run("gen-data", "--n", 20, "--p", 5, "--seed", 3, "--out-dir", out) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name], name


def test_sample_joint_mls_keeps_post_burnin_states(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "run"
    code = run(
        "sample-joint",
        "--x", data / "X.csv",
        "--y", data / "y.csv",
        "--lambda", 0.3,
        "--sigma2", 1.0,
        "--method", "mls",
        "--iters", 600,
        "--burnin", 100,
        "--seed", 7,
        "--out-dir", out,
    )
    assert code == 0
    chain = read_chain_csv(out / "chain.csv")
    assert len(chain) == 500
    meta = json.loads((out / "chain_meta.json").read_text())
    assert meta["config"]["method"] == "mls"
    assert meta["config"]["burnin"] == 100
    assert meta["n_states"] == 500


def test_sample_joint_direct_and_estimated_sigma2(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "run"
    code = run(
        "sample-joint",
        "--x", data / "X.csv",
        "--y", data / "y.csv",
        "--lambda-frac", 0.4,
        "--estimate-sigma2",
        "--method", "direct",
        "--iters", 80,
        "--seed", 7,
        "--out-dir", out,
    )
    assert code == 0
    chain = read_chain_csv(out / "chain.csv")
    assert len(chain) == 80
    meta = json.loads((out / "chain_meta.json").read_text())
    assert meta["config"]["sigma2"] > 0


def test_sample_joint_lambda_grid_only(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "grid"
    code = run(
        "sample-joint",
        "--x", data / "X.csv",
        "--y", data / "y.csv",
        "--lambda-grid", 12,
        "--seed", 1,
        "--out-dir", out,
    )
    assert code == 0
    grid = np.loadtxt(out / "lambda_grid.csv", delimiter=",")
    assert grid.shape == (12,)
    assert np.all(np.diff(grid) < 0)
    assert not (out / "chain.csv").exists()
    X = np.loadtxt(data / "X.csv", delimiter=",")
    y = np.loadtxt(data / "y.csv", delimiter=",")
    top = np.max(np.abs(X.T @ y)) / len(y)
    np.testing.assert_allclose(grid[[0, -1]], [top, 0.01 * top])

    short = tmp_path / "short"
    assert run("sample-joint", "--x", data / "X.csv", "--y", data / "y.csv", "--lambda-grid", 12,
               "--lambda-min-frac", 0.1, "--seed", 1, "--out-dir", short) == 0
    short_grid = np.loadtxt(short / "lambda_grid.csv", delimiter=",")
    np.testing.assert_allclose(short_grid[[0, -1]], [top, 0.1 * top])


def test_sample_cond_fixes_the_active_set(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "cond"
    code = run(
        "sample-cond",
        "--x", data / "X.csv",
        "--y", data / "y.csv",
        "--lambda", 0.25,
        "--sigma2", 1.0,
        "--active", "0,2",
        "--iters", 120,
        "--burnin", 20,
        "--seed", 5,
        "--out-dir", out,
    )
    assert code == 0
    chain = read_chain_csv(out / "chain.csv")
    expected = np.zeros(5, dtype=bool)
    expected[[0, 2]] = True
    assert np.all(chain.active == expected)


def test_pvalue_writes_estimate_and_trial(tmp_path):
    data = gen_dataset(tmp_path)
    out = tmp_path / "pv"
    code = run(
        "pvalue",
        "--x", data / "X.csv",
        "--sigma2", 1.0,
        "--lambda-star", 0.5,
        "--t-star", 0.4,
        "--L", 300,
        "--l-pilot", 20,
        "--seed", 11,
        "--out-dir", out,
    )
    assert code == 0
    payload = json.loads((out / "pvalue.json").read_text())
    assert 0.0 <= payload["estimate"] <= 1.0
    assert payload["ess"] > 0
    assert payload["trial"]["lambda_dagger"] > 0
    assert payload["statistic"] == "l1"


def test_pvalue_multi_matches_single_runs(tmp_path):
    data = gen_dataset(tmp_path)
    multi_out = tmp_path / "pvm"
    code = run(
        "pvalue-multi",
        "--x", data / "X.csv",
        "--sigma2", 1.0,
        "--lambda-stars", "0.5,0.7",
        "--t-stars", "0.4,0.6",
        "--L", 300,
        "--l-pilot", 20,
        "--seed", 11,
        "--out-dir", multi_out,
    )
    assert code == 0
    targets = json.loads((multi_out / "pvalue_multi.json").read_text())["targets"]
    assert len(targets) == 2

    for lam_star, t_star, target in zip([0.5, 0.7], [0.4, 0.6], targets):
        single_out = tmp_path / f"pv{t_star}"
        assert run(
            "pvalue",
            "--x", data / "X.csv",
            "--sigma2", 1.0,
            "--lambda-star", lam_star,
            "--t-star", t_star,
            "--L", 300,
            "--l-pilot", 20,
            "--seed", 11,
            "--out-dir", single_out,
        ) == 0
        payload = json.loads((single_out / "pvalue.json").read_text())
        assert payload["estimate"] == target["estimate"]
        assert payload["ess"] == target["ess"]


def test_pvalue_parallel_workers_match_sequential(tmp_path):
    data = gen_dataset(tmp_path, n=12, p=3)
    outs = {}
    for label, workers in (("seq", 1), ("par", 2)):
        out = tmp_path / label
        assert run(
            "pvalue",
            "--x", data / "X.csv",
            "--sigma2", 1.0,
            "--lambda-star", 0.5,
            "--t-star", 0.3,
            "--L", 200,
            "--l-pilot", 15,
            "--replicates", 2,
            "--workers", workers,
            "--seed", 9,
            "--out-dir", out,
        ) == 0
        outs[label] = (out / "pvalue.json").read_bytes()
    assert outs["seq"] == outs["par"]
    assert json.loads(outs["par"])["replicates"] == 2


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pvalue_workers_capped_at_replicates(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    data = gen_dataset(tmp_path, n=12, p=3)
    common = ("pvalue", "--x", data / "X.csv", "--sigma2", 1.0, "--lambda-star", 0.5,
              "--t-star", 0.3, "--L", 50, "--l-pilot", 15, "--replicates", 2, "--seed", 9)
    assert run(*common, "--workers", 500, "--out-dir", tmp_path / "many") == 0
    assert _InProcessPool.sizes == [2]
    capsys.readouterr()
    for workers in (0, -3):
        assert run(*common, "--workers", workers, "--out-dir", tmp_path / "none") == 1
        assert "--workers must be at least 1" in capsys.readouterr().err
    assert _InProcessPool.sizes == [2]


@pytest.mark.parametrize(
    "row, fault",
    [
        ("1,zz,0.5,0.1", "bitmask 'zz' is not hexadecimal"),
        ("1,3,0.5,abc", "theta cell is not a number"),
        ("1,7,0.5,0.1", "bitmask '7' sets bits at or above p=2"),
        ("1,1,nan,0.1", "theta cell is not finite"),
        ("1,2,nan,0.1", "theta cell is not finite"),
        ("1,2,0.5,inf", "theta cell is not finite"),
        ("1,1,0.5,inf", "theta cell is not finite"),
        ("1,1,-inf,0.1", "theta cell is not finite"),
        ("1,1,0.5,-inf", "theta cell is not finite"),
    ],
    ids=["bad-mask", "bad-theta", "mask-past-p", "nan-active", "nan-inactive", "inf-active",
         "inf-inactive", "-inf-active", "-inf-inactive"],
)
def test_diagnose_malformed_chain_exits_two(tmp_path, capsys, monkeypatch, row, fault):
    """Before, non-finite theta cells were read: diagnose exited 0 with ess equal to the
    chain length and "psi": NaN, or a bare ValueError with --hist-coord."""
    chain = tmp_path / "chain.csv"
    chain.write_text(f"1,1,0.5,0.1\n\n{row}\n4,2,0.5,0.1\n")
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    # The bad row's line number comes from the lines already read: one open.
    monkeypatch.setattr(lassodist.samplers, "open", counting_open, raising=False)
    assert run("diagnose", "--chain", chain, "--g", "l1", "--out-dir", tmp_path / "d") == 2
    err = capsys.readouterr().err
    assert "chain CSV line 3: " in err and fault in err
    assert opened == [str(chain)]
    assert not (tmp_path / "d").exists()


def test_diagnose_reports_and_histogram(tmp_path):
    data = gen_dataset(tmp_path)
    run_dir = tmp_path / "run"
    assert run(
        "sample-joint",
        "--x", data / "X.csv",
        "--y", data / "y.csv",
        "--lambda", 0.3,
        "--sigma2", 1.0,
        "--iters", 400,
        "--burnin", 100,
        "--seed", 7,
        "--out-dir", run_dir,
    ) == 0
    out = tmp_path / "diag"
    code = run(
        "diagnose",
        "--chain", run_dir / "chain.csv",
        "--meta", run_dir / "chain_meta.json",
        "--hist-coord", 0,
        "--out-dir", out,
    )
    assert code == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["psi"] > 0
    assert 0 < diag["ess"] <= diag["n"] == 300
    assert len(diag["acf_head"]) <= 11
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["select_prob"]) == 5
    assert abs(sum(summary["model_freq"].values()) - 1.0) < 1e-9
    hist = np.loadtxt(out / "histogram.csv", delimiter=",", ndmin=2)
    assert hist.shape[1] == 2
    assert hist[:, 1].sum() == pytest.approx(1.0)


@pytest.mark.parametrize("hist", [("--hist-coord", 9), ("--hist-coord", 0, "--hist-bins", 0)])
def test_bad_histogram_exits_one_before_writing(tmp_path, hist):
    data = gen_dataset(tmp_path)
    run_dir = tmp_path / "run"
    assert run(
        "sample-joint",
        "--x", data / "X.csv",
        "--y", data / "y.csv",
        "--lambda", 0.3,
        "--sigma2", 1.0,
        "--iters", 60,
        "--burnin", 10,
        "--seed", 7,
        "--out-dir", run_dir,
    ) == 0
    out = tmp_path / "diag"
    assert run("diagnose", "--chain", run_dir / "chain.csv", *hist, "--out-dir", out) == 1
    assert not list(out.glob("*.json"))


def test_posterior_check_runs(tmp_path):
    data = gen_dataset(tmp_path, n=30, p=3)
    out = tmp_path / "pc"
    code = run(
        "posterior-check",
        "--x", data / "X.csv",
        "--y", data / "y.csv",
        "--lambda", 0.2,
        "--estimate-sigma2",
        "--L", 150,
        "--seed", 13,
        "--out-dir", out,
    )
    assert code == 0
    chain = read_chain_csv(out / "chain.csv")
    assert len(chain) == 150
    meta = json.loads((out / "chain_meta.json").read_text())
    assert meta["config"]["decision_lambda"] is None


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run("no-such-command") == 1
    assert "error:" in capsys.readouterr().err

    data = gen_dataset(tmp_path)
    assert run(
        "sample-joint",
        "--x", data / "X.csv",
        "--y", data / "y.csv",
        "--sigma2", 1.0,
        "--seed", 1,
        "--out-dir", tmp_path / "z",
    ) == 1

    assert run(
        "pvalue",
        "--x", data / "X.csv",
        "--sigma2", 1.0,
        "--lambda-star", 0.5,
        "--stat", "abs-coord",
        "--t-star", 0.4,
        "--L", 50,
        "--seed", 1,
        "--out-dir", tmp_path / "z2",
    ) == 1


@pytest.mark.parametrize("coord", [9, -1])
def test_abs_coord_outside_the_design_exits_one(tmp_path, capsys, coord):
    data = gen_dataset(tmp_path)
    run_dir = tmp_path / "run"
    assert run(
        "sample-joint",
        "--x", data / "X.csv",
        "--y", data / "y.csv",
        "--lambda", 0.3,
        "--sigma2", 1.0,
        "--iters", 50,
        "--burnin", 10,
        "--seed", 7,
        "--out-dir", run_dir,
    ) == 0
    capsys.readouterr()
    commands = [
        ("diagnose", "--chain", run_dir / "chain.csv", "--g", "abs-coord"),
        ("pvalue", "--x", data / "X.csv", "--sigma2", 1.0, "--lambda-star", 0.5,
         "--t-star", 0.4, "--L", 50, "--stat", "abs-coord", "--seed", 1),
        ("pvalue-multi", "--x", data / "X.csv", "--sigma2", 1.0, "--lambda-stars", "0.5",
         "--t-stars", "0.4", "--L", 50, "--stat", "abs-coord", "--seed", 1),
    ]
    for i, command in enumerate(commands):
        assert run(*command, "--coord", coord, "--out-dir", tmp_path / f"o{i}") == 1
        assert f"coordinate {coord} is outside [0, 5)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, targets, named",
    [
        ("pvalue-multi", ("--lambda-stars", "0.2,-0.3", "--t-stars", "0.1,0.2"), "-0.3"),
        ("pvalue-multi", ("--lambda-stars", "0.2,nan", "--t-stars", "0.1,0.2"), "nan"),
        ("pvalue-multi", ("--lambda-stars", "0.2,0.3", "--t-stars", "0.1,nan"), "nan"),
        ("pvalue", ("--lambda-star", 0.2, "--t-star", "nan"), "nan"),
    ],
)
def test_invalid_tail_target_exits_one_before_writing(tmp_path, capsys, command, targets, named):
    data = gen_dataset(tmp_path)
    out = tmp_path / "pv"
    code = run(
        command, "--x", data / "X.csv", "--sigma2", 1.0, *targets,
        "--L", 50, "--l-pilot", 20, "--seed", 1, "--out-dir", out,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and f"got {named}" in err
    assert not out.exists()


SHORT_CHAIN = ("--iters", 40, "--burnin", 10)


@pytest.mark.parametrize(
    "command, extra, named",
    [
        ("sample-joint", ("--method", "mls", "--sigma2", "nan", *SHORT_CHAIN), "--sigma2"),
        ("sample-joint", ("--method", "mls", "--sigma2", "inf", *SHORT_CHAIN), "--sigma2"),
        ("sample-joint", ("--method", "direct", "--sigma2", "nan", *SHORT_CHAIN), "--sigma2"),
        ("sample-cond", ("--active", "0", "--sigma2", "nan", *SHORT_CHAIN), "--sigma2"),
        ("sample-joint", ("--model", "studentt", "--dof", "nan", "--sigma2", 1.0, *SHORT_CHAIN),
         "dof"),
        ("sample-cond", ("--active", "0", "--model", "studentt", "--dof", "inf",
                         "--sigma2", 1.0, *SHORT_CHAIN), "dof"),
        ("posterior-check", ("--L", 20, "--sigma2", "inf"), "--sigma2"),
    ],
)
def test_nonfinite_noise_parameter_exits_one_before_writing(
    tmp_path, capsys, command, extra, named
):
    data = gen_dataset(tmp_path)
    out = tmp_path / "out"
    code = run(
        command, "--x", data / "X.csv", "--y", data / "y.csv", "--lambda", 0.3, *extra,
        "--seed", 1, "--out-dir", out,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and named in err and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("sigma2", ["nan", "inf", -1.0])
def test_gen_data_and_pvalue_reject_a_bad_noise_variance(tmp_path, capsys, sigma2):
    out = tmp_path / "gen"
    assert run("gen-data", "--n", 20, "--p", 5, "--seed", 3, "--sigma2", sigma2,
               "--out-dir", out) == 1
    assert "sigma2" in capsys.readouterr().err
    assert not out.exists()
    data = gen_dataset(tmp_path)
    pv = tmp_path / "pv"
    assert run("pvalue", "--x", data / "X.csv", "--sigma2", sigma2, "--lambda-star", 0.5,
               "--t-star", 0.4, "--L", 50, "--l-pilot", 20, "--seed", 1, "--out-dir", pv) == 1
    assert "sigma2" in capsys.readouterr().err
    assert not pv.exists()


def test_gen_data_keeps_zero_noise_variance(tmp_path):
    out = tmp_path / "gen"
    assert run("gen-data", "--n", 20, "--p", 5, "--seed", 3, "--sigma2", 0.0,
               "--out-dir", out) == 0
    X = np.loadtxt(out / "X.csv", delimiter=",")
    beta0 = np.loadtxt(out / "beta0.csv", delimiter=",")
    np.testing.assert_allclose(np.loadtxt(out / "y.csv", delimiter=","), X @ beta0, atol=1e-12)


@pytest.mark.parametrize("ratio", ["nan", "inf", -1.0, 0.0])
def test_diagnose_rejects_a_bad_cost_ratio_before_writing(tmp_path, capsys, ratio):
    data = gen_dataset(tmp_path)
    run_dir = tmp_path / "run"
    assert run(
        "sample-joint", "--x", data / "X.csv", "--y", data / "y.csv", "--lambda", 0.3,
        "--sigma2", 1.0, "--method", "direct", "--iters", 60, "--seed", 7,
        "--out-dir", run_dir,
    ) == 0
    capsys.readouterr()
    out = tmp_path / "diag"
    assert run("diagnose", "--chain", run_dir / "chain.csv", "--cost-ratio", ratio,
               "--out-dir", out) == 1
    assert "cost_ratio must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_failing_commands_leave_a_fresh_out_dir_absent(tmp_path, capsys):
    """--out-dir is created after every check, just before the first write."""
    data = gen_dataset(tmp_path)
    run_dir = tmp_path / "run"
    assert run(
        "sample-joint", "--x", data / "X.csv", "--y", data / "y.csv", "--lambda", 0.3,
        "--sigma2", 1.0, "--method", "direct", "--iters", 60, "--seed", 7,
        "--out-dir", run_dir,
    ) == 0
    short = tmp_path / "short.csv"
    np.savetxt(short, np.zeros(3), delimiter=",")
    xy = ("--x", data / "X.csv", "--y", data / "y.csv", "--lambda", 0.3, "--seed", 1)
    tail = ("--x", data / "X.csv", "--sigma2", 1.0, "--lambda-star", 0.5, "--t-star", 0.4,
            "--L", 50, "--l-pilot", 20, "--seed", 1)
    failing = [
        (1, "sample-joint", *xy, "--lambda-grid", 5, "--sigma2", "nan", *SHORT_CHAIN),
        (1, "sample-joint", *xy, "--model", "elliptical", "--boot-samples", 50, "--bins", 0,
         "--sigma2", 1.0, *SHORT_CHAIN),
        (2, "sample-joint", *xy, "--beta", short, "--sigma2", 1.0, *SHORT_CHAIN),
        (1, "sample-cond", *xy, "--active", "0,x", "--sigma2", 1.0, *SHORT_CHAIN),
        (2, "sample-cond", *xy, "--active", "0", "--beta", short, "--sigma2", 1.0,
         *SHORT_CHAIN),
        (1, "pvalue", *tail, "--stat", "abs-coord"),
        (2, "pvalue", *tail, "--null-beta", short),
        (1, "diagnose", "--chain", run_dir / "chain.csv", "--hist-coord", 9),
        (2, "diagnose", "--chain", tmp_path / "missing.csv"),
        # A non-finite amplitude wrote an all-NaN y.csv and beta0.csv.
        (1, "gen-data", "--n", 20, "--p", 5, "--seed", 3, "--amplitude", "nan"),
        (1, "gen-data", "--n", 20, "--p", 5, "--seed", 3, "--amplitude", "inf"),
    ]
    for i, (code, *argv) in enumerate(failing):
        out = tmp_path / f"o{i}"
        assert run(*argv, "--out-dir", out) == code, argv
        assert "error:" in capsys.readouterr().err
        assert not out.exists(), argv


def test_every_json_output_is_strict(tmp_path):
    """Non-finite numbers are written as null: gamma of an anti-correlated chain
    (psi < 0) and the echo of an unused --dof nan were Infinity and NaN."""
    steps = np.arange(200)
    thetas = np.where(steps % 2, 1.0, 2.0)[:, None].repeat(2, axis=1)
    lassodist.samplers.write_chain_csv(
        lassodist.samplers.Chain(thetas, np.ones((200, 2), dtype=bool), steps),
        tmp_path / "alternating.csv",
    )
    diag = tmp_path / "diag"
    assert run("diagnose", "--chain", tmp_path / "alternating.csv", "--out-dir", diag) == 0
    data = gen_dataset(tmp_path)
    joint = tmp_path / "joint"
    assert run("sample-joint", "--x", data / "X.csv", "--y", data / "y.csv", "--lambda", 0.3,
               "--model", "gaussian", "--dof", "nan", "--sigma2", 1.0, *SHORT_CHAIN,
               "--seed", 1, "--out-dir", joint) == 0
    docs = {path: strict_json(path.read_text()) for path in [*diag.glob("*.json"),
                                                              *joint.glob("*.json")]}
    assert len(docs) == 5
    report = docs[diag / "diagnostics.json"]
    assert report["psi"] < 0 and report["gamma"] is None
    assert docs[joint / "manifest.json"]["config"]["dof"] is None


def _digest(directory):
    """sha256 of every file under ``directory``, by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def test_failing_commands_leave_an_out_dir_absent_or_unchanged(tmp_path, capsys):
    """Each failing command creates no new --out-dir and changes no byte of an existing one."""
    data = gen_dataset(tmp_path)
    run_dir, short_dir = tmp_path / "run", tmp_path / "short"
    direct = ("sample-joint", "--x", data / "X.csv", "--y", data / "y.csv", "--lambda", 0.3,
              "--sigma2", 1.0, "--method", "direct", "--seed", 7)
    assert run(*direct, "--iters", 60, "--lambda-grid", 5, "--out-dir", run_dir) == 0
    assert run(*direct, "--iters", 8, "--out-dir", short_dir) == 0
    xy = ("--x", data / "X.csv", "--y", data / "y.csv", "--lambda", 0.3, "--sigma2", 1.0)
    tail = ("--x", data / "X.csv", "--sigma2", 1.0, "--lambda-star", 0.5, "--t-star", 0.4,
            "--L", 50, "--l-pilot", 20)
    chain = ("diagnose", "--chain", run_dir / "chain.csv")
    nan = tmp_path / "nan.csv"
    np.savetxt(nan, [0.5, np.nan, 0.0, 0.0, 0.0], delimiter=",")
    failing = [
        (1, "sample-joint", *xy, "--method", "mls", "--K", 0, *SHORT_CHAIN, "--seed", 1),
        (1, "sample-joint", *xy, "--method", "direct", "--lambda-grid", 0, "--iters", 20,
         "--seed", 1),
        (1, "sample-joint", "--x", data / "X.csv", "--y", data / "y.csv", "--lambda", 0.3,
         "--sigma2", 0, "--method", "mls", *SHORT_CHAIN, "--seed", 1),
        (1, "sample-cond", *xy, "--active", "7", *SHORT_CHAIN, "--seed", 1),
        (1, "pvalue", *tail, "--replicates", 2, "--workers", 0, "--seed", 1),
        (1, *chain, "--hist-coord", 0, "--hist-bins", 0),
        (1, *chain, "--cost-ratio", 0),
        (2, "diagnose", "--chain", short_dir / "chain.csv"),
        (1, "sample-joint", *xy, "--method", "mls", *SHORT_CHAIN, "--seed", -1),
        # A NaN centre file is named by its flag (it was exit 1 with mls, and
        # "response contains non-finite entries" with direct and in pvalue).
        (2, "sample-joint", *xy, "--method", "mls", "--beta", nan, *SHORT_CHAIN, "--seed", 1),
        (2, "sample-joint", *xy, "--method", "direct", "--beta", nan, "--iters", 20,
         "--seed", 1),
        (2, "pvalue", *tail, "--null-beta", nan, "--seed", 1),
        # Duplicate indices reach the library's check (they ran on {0, 1}).
        (1, "sample-cond", *xy, "--active", "0,0,1", *SHORT_CHAIN, "--seed", 1),
    ]
    existing = _digest(run_dir)
    for i, (code, *argv) in enumerate(failing):
        error = f"error: {argv[argv.index(nan) - 1]} " if nan in argv else "error:"
        out = tmp_path / f"o{i}"
        assert run(*argv, "--out-dir", out) == code, argv
        assert capsys.readouterr().err.startswith(error), argv
        assert not out.exists(), argv
        assert run(*argv, "--out-dir", run_dir) == code, argv
        assert capsys.readouterr().err.startswith(error), argv
        assert _digest(run_dir) == existing, argv


SEEDED = {
    "gen-data": ("gen-data", "--n", 20, "--p", 5),
    "sample-joint-mls": ("sample-joint", "--method", "mls", *SHORT_CHAIN),
    "sample-joint-direct": ("sample-joint", "--method", "direct", "--iters", 20),
    "sample-cond": ("sample-cond", "--active", "0", *SHORT_CHAIN),
    "pvalue": ("pvalue", "--lambda-star", 0.5, "--t-star", 0.4, "--L", 50, "--l-pilot", 20),
    "pvalue-multi": ("pvalue-multi", "--lambda-stars", "0.5,0.5", "--t-stars", "0.3,0.4",
                     "--L", 50, "--l-pilot", 20),
    "posterior-check": ("posterior-check", "--L", 20),
}


@pytest.mark.parametrize("command", list(SEEDED))
def test_negative_seed_exits_one_before_writing(tmp_path, capsys, command):
    """numpy rejects a negative seed with a bare ValueError, which used to escape ``main``."""
    data = gen_dataset(tmp_path)
    argv = SEEDED[command]
    if argv[0] in ("sample-joint", "sample-cond", "posterior-check"):
        argv = (*argv, "--x", data / "X.csv", "--y", data / "y.csv", "--lambda", 0.3)
    if argv[0] != "gen-data":
        argv = (*argv, "--sigma2", 1.0)
    if argv[0].startswith("pvalue"):
        argv = (*argv, "--x", data / "X.csv")
    out = tmp_path / "out"
    assert run(*argv, "--seed", -1, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be a non-negative integer, got -1")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed", [9, 11, 13])
def test_rank_deficient_design_exits_three_for_chains_and_runs_direct(tmp_path, capsys, seed):
    """A chain needs C^-1, so it fails before any output; exact draws do not."""
    X, y = duplicated_column_design(seed)
    np.savetxt(tmp_path / "X.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y, delimiter=",")
    xy = ("--x", tmp_path / "X.csv", "--y", tmp_path / "y.csv", "--lambda", 0.3,
          "--sigma2", 1.0, "--iters", 40, "--burnin", 10, "--seed", 7)
    for command in (("sample-joint", "--method", "mls"), ("sample-cond", "--active", "0,4")):
        out = tmp_path / command[0]
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            assert run(*command, *xy, "--out-dir", out) == 3
        assert "rank-deficient design" in capsys.readouterr().err
        assert not out.exists()
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        assert run("sample-joint", "--method", "direct", *xy, "--out-dir", tmp_path / "d") == 0
    assert len(read_chain_csv(tmp_path / "d" / "chain.csv")) == 40


PENALIZED = {
    "sample-joint": ("sample-joint", "--sigma2", 1.0, *SHORT_CHAIN),
    "sample-cond": ("sample-cond", "--active", "0", "--sigma2", 1.0, *SHORT_CHAIN),
    "posterior-check": ("posterior-check", "--L", 20, "--sigma2", 1.0),
}


@pytest.mark.parametrize("value", [0.0, -1.0, "nan", "inf"])
@pytest.mark.parametrize("flag", ["--lambda", "--lambda-frac"])
@pytest.mark.parametrize("command", list(PENALIZED))
def test_bad_penalty_exits_one_before_writing(tmp_path, capsys, command, flag, value):
    data = gen_dataset(tmp_path)
    out = tmp_path / "out"
    argv = (*PENALIZED[command], "--x", data / "X.csv", "--y", data / "y.csv", flag, value)
    assert run(*argv, "--seed", 1, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be finite and positive, got ")
    assert not out.exists()


@pytest.mark.parametrize("fault", ["short", "nan"])
@pytest.mark.parametrize("command", list(PENALIZED))
def test_bad_response_exits_two_before_writing(tmp_path, capsys, command, fault):
    """Before, --lambda-frac and posterior-check let a bare numpy ValueError escape ``main``
    on a short response, and --lambda-frac called a NaN one a bad penalty."""
    data = gen_dataset(tmp_path)
    y = np.loadtxt(data / "y.csv", delimiter=",")
    if fault == "short":
        y, message = y[:7], "response must hold 20 values, got shape (7,)"
    else:
        y[3], message = np.nan, "response contains non-finite entries"
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, y, delimiter=",")
    runs = [("--lambda", 0.3), ("--lambda-frac", 0.3)]
    if command == "sample-joint":
        runs.append(("--lambda-grid", 4))
    for i, extra in enumerate(runs):
        out = tmp_path / f"o{i}"
        argv = (*PENALIZED[command], "--x", data / "X.csv", "--y", bad, *extra)
        assert run(*argv, "--seed", 1, "--out-dir", out) == 2, extra
        assert capsys.readouterr().err.startswith(f"error: {message}"), extra
        assert not out.exists(), extra


@pytest.mark.parametrize(
    "command, extra",
    [
        ("sample-joint", ("--lambda-frac", 0.3, "--lambda-grid", 5, "--method", "direct")),
        ("sample-joint", ("--lambda", 0.3, "--lambda-grid", 5, "--method", "direct")),
        ("sample-joint", ("--lambda-grid", 5)),
        ("sample-cond", ("--lambda-frac", 0.3)),
        ("posterior-check", ("--lambda-frac", 0.3)),
    ],
)
def test_each_command_builds_its_problem_once(tmp_path, monkeypatch, command, extra):
    data = gen_dataset(tmp_path)
    build_problem, calls = cli.build_problem, []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_problem(*args, **kwargs)

    monkeypatch.setattr(cli, "build_problem", counted)
    argv = (*PENALIZED[command], "--x", data / "X.csv", "--y", data / "y.csv", *extra)
    assert run(*argv, "--seed", 1, "--out-dir", tmp_path / "out") == 0
    assert len(calls) == 1


def test_rank_deficient_design_warns_once_per_command(tmp_path):
    X, y = duplicated_column_design(9)
    np.savetxt(tmp_path / "X.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y, delimiter=",")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(
            "sample-joint", "--x", tmp_path / "X.csv", "--y", tmp_path / "y.csv",
            "--method", "direct", "--lambda-frac", 0.3, "--lambda-grid", 10, "--sigma2", 1.0,
            "--iters", 20, "--seed", 7, "--out-dir", tmp_path / "out",
        ) == 0
    assert sum("rank-deficient" in str(w.message) for w in caught) == 1


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_diagnose_unreadable_chain_path_exits_two(tmp_path, capsys, kind):
    chain = tmp_path / "missing.csv"
    if kind == "directory":
        chain = tmp_path / "somedir"
        chain.mkdir()
    assert run("diagnose", "--chain", chain, "--g", "l1", "--out-dir", tmp_path / "d") == 2
    err = capsys.readouterr().err
    assert f"cannot read chain CSV {chain}" in err


def test_missing_file_exits_two(tmp_path, capsys):
    code = run(
        "sample-joint",
        "--x", tmp_path / "absent.csv",
        "--y", tmp_path / "absent2.csv",
        "--lambda", 0.3,
        "--sigma2", 1.0,
        "--seed", 1,
        "--out-dir", tmp_path / "z",
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
