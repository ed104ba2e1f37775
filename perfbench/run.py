"""lassodist benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 40 --trace 0

Run from the repository root.  The loop issues the next op only after the
previous one has finished and been checked.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs every other op with spans on every
library boundary, and prints the per-layer metrics (``layers.py``) plus
the tracing overhead.
Human-readable lines come first; the last line of stdout is the JSON
result.  ``--write-spec`` rewrites ``BENCHMARK.json`` from the tables
below and exits.

BLAS is pinned to one thread: every matrix is tiny and the machine the
numbers are read on may have only two cores.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported anywhere

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RUN_SECONDS = 40
# Set-ups per untraced run: one before the loop and the rest at evenly
# spaced moments inside it.  ``setup_s`` adds the second slowest import to
# the second slowest in-process set-up; see ``setup_once``.
SETUP_REPEATS = 10
# On a shared two-core host the same op runs in a fast or a 2x slower state
# for seconds at a time.  The median op time and the throughputs depend on
# how much of a run falls in the slow state (run-to-run spread up to 0.31
# and 0.28 over five runs), so they are printed but not gated.  The tail
# percentile sits in the slow state and spreads by about 0.1 at most; the
# ESS per op does not depend on speed at all and stays within a few percent.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("ess_per_op", "1", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
UNITS = {name: unit for name, unit, _, _ in END_TO_END}


def write_spec() -> None:
    from layers import PER_LAYER
    from workloads import WORKLOADS

    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


def import_seconds() -> float:
    """Time to import numpy, scipy and lassodist in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import lassodist; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(done.stdout.strip())


def machine_info() -> dict:
    import numpy as np
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in threads},
    }


def tail_value(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def run_loop(workload, seed: int, seconds: float, tracer=None, min_ops: int = 1,
             pause=None, pauses: int = 0):
    """Closed loop: op, check, repeat until ``seconds`` have passed.

    With a ``tracer``, every other op runs with its spans installed, so
    traced and untraced ops see the same host state: ``times`` holds the
    untraced ops and ``traced_times`` the traced ones.  ``pause`` is called
    ``pauses`` times at evenly spaced moments of the run, between ops.
    """
    from tracing import Patches

    times, traced_times, work, ess, failures = [], [], 0.0, 0.0, []
    attempted = paused = 0
    start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - start < seconds:
        while paused < pauses and time.perf_counter() - start >= seconds * (paused + 1) / (pauses + 1):
            pause()
            paused += 1
        idx = attempted
        attempted += 1
        traced = tracer is not None and idx % 2 == 1
        if traced:
            patches = Patches()
            tracer.install(patches)
            tracer.op_index = idx // 2
            span = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            out = workload.op(seed, idx)
            err = None
        except Exception as exc:  # an op that raises counts as failed; keep going
            out, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.close(span)
            tracer.op_index = -1
            patches.restore()
        if err is None:
            try:
                bad = workload.check(out)
            except Exception as exc:  # a malformed output fails its op
                bad = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            bad = [f"raised {err}"]
        (traced_times if traced else times).append(elapsed)
        if bad:
            failures.append((idx, bad))
            continue
        work += workload.work(out)
        ess += workload.ess(out)
    return {
        "times": times, "traced_times": traced_times, "work": work, "ess": ess,
        "attempted": attempted, "failures": failures,
    }


def setup_once(workload, workdir: Path, seed: int) -> tuple[float, float]:
    """One set-up: (imports in a fresh interpreter, in-process set-up).

    The in-process part is data, problem build, caches and one warm-up op;
    every set-up of a run makes the same warm-up op.  The host the numbers
    are read on runs in a fast or a 2x slower state for seconds to minutes
    at a time.  How fast the fast state is depends on what else the host
    runs, so the fastest set-up of a run spread by 0.16-0.26 between runs;
    the slow state is steadier.  The caller spreads the set-ups over the run
    and takes the second slowest of each part, which reads the slow state
    like ``op_tail_ms`` does and ignores one stray stall.
    """
    imports = import_seconds()
    t0 = time.perf_counter()
    workload.setup(workdir)
    out = workload.op(seed, 10**9)
    elapsed = time.perf_counter() - t0
    bad = workload.check(out)
    if bad:
        raise RuntimeError(f"warm-up op failed checks: {bad}")
    return imports, elapsed


def direct_to_mh_ratio(seed: int) -> float:
    """Cost of one exact draw over one MH sweep on the README problem (information only)."""
    import lassodist as ld
    from workloads import op_seeds, readme_design

    X, y, _ = readme_design()
    probe = ld.build_problem(X, 1.0, 1.0)
    spec = ld.build_problem(X, 1.0, 0.3 * ld.lambda_max(probe, y))
    center = ld.solve_lasso(spec, y).beta_hat
    model = ld.Gaussian(1.0)
    s1, s2 = op_seeds(seed, 2 * 10**9, 2)
    t0 = time.perf_counter()
    ld.direct_sample(spec, center, model, 200, s1)
    direct = (time.perf_counter() - t0) / 200
    config = ld.default_sampler_config(spec, s2, iters=1000, burn_in=0, beta_ref=center)
    t0 = time.perf_counter()
    ld.mh_sample(spec, center, model, config)
    sweep = (time.perf_counter() - t0) / 1000
    return direct / sweep


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    args = parser.parse_args(argv)
    if not (SRC / "lassodist" / "__init__.py").is_file():
        print(f"error: no lassodist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.write_spec:
        write_spec()
        return 0
    from tracing import Patches
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probes = Patches()
    try:
        workload.install_probes(probes)
        setups = [setup_once(workload, workdir, args.seed)]
        info = machine_info()
        print(f"# machine {json.dumps(info, sort_keys=True)}")
        if args.trace:
            result = traced_run(workload, args)
        else:
            result = run_loop(
                workload, args.seed, args.seconds,
                pause=lambda: setups.append(setup_once(workload, workdir, args.seed)),
                pauses=SETUP_REPEATS - 1,
            )
            result["metrics"] = end_to_end(result, setups, workload.unit)
    finally:
        probes.restore()
        if hasattr(workload, "cleanup"):
            workload.cleanup()
        try:
            workdir.rmdir()
        except OSError:
            pass

    attempted, failures = result["attempted"], result["failures"]
    for idx, bad in failures[:20]:
        print(f"# op {idx} failed: {', '.join(bad)}")
    print(f"# {workload.name}: failed_frac {len(failures) / attempted:.4g} ({len(failures)} of {attempted} ops)")
    for name, entry in result["metrics"].items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    for line in result.get("notes", []):
        print(f"# {line}")
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "failed_ops": [{"op": i, "checks": b} for i, b in failures],
        "op_seconds": result["times"],
        **{k: v for k, v in result.items() if k in ("metrics", "notes", "tail", "setups")},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": result["metrics"],
            }
        )
    )
    return 0


def end_to_end(result: dict, setups: list[tuple[float, float]], unit: str) -> dict:
    times = result["times"]
    imports, in_process = (sorted(part) for part in zip(*setups))
    busy = sum(times)
    tail, pct, n = tail_value(times)
    result["tail"] = {"percentile": pct, "samples": n}
    result["setups"] = [{"import_s": i, "in_process_s": p} for i, p in setups]
    ok = result["attempted"] - len(result["failures"])
    result["notes"] = [
        f"setup_s is the second slowest of {len(setups)} imports ({imports[-2]:.4g} s) plus "
        f"the second slowest of {len(setups)} in-process set-ups ({in_process[-2]:.4g} s)",
        f"op_tail_ms is p{pct:.1f} of {n} ops (10 ops beyond it)",
        f"op_p50_ms = {1e3 * statistics.median(times):.6g} ms (not gated)",
        f"{unit}_per_s = {result['work'] / busy:.6g} (not gated)",
        f"ess_per_s = {result['ess'] / busy:.6g} (not gated)",
    ]
    values = {
        "setup_s": imports[-2] + in_process[-2],
        "op_tail_ms": 1e3 * tail,
        "ess_per_op": result["ess"] / ok if ok else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def traced_run(workload, args) -> dict:
    from layers import COUNT_OPS, PER_LAYER, LayerTrace

    tracer = LayerTrace()
    run = run_loop(workload, args.seed, args.seconds, tracer=tracer, min_ops=2 * COUNT_OPS)
    extra = {"samplers.direct_to_mh_cost_ratio": 0.0}
    if workload.name == "chain":
        extra["samplers.direct_to_mh_cost_ratio"] = direct_to_mh_ratio(args.seed)
    values = tracer.metrics(statistics.median(run["times"]), extra)
    units = {n: u for n, u, _ in PER_LAYER}
    notes = [f"boundary not found (layer renamed?): {t}" for t in tracer.missing]
    notes.append(
        f"traced {len(run['traced_times'])} of {run['attempted']} ops (every other one); "
        f"counts cover the first {COUNT_OPS} traced ops"
    )
    return {
        "times": run["traced_times"],
        "attempted": run["attempted"],
        "failures": run["failures"],
        "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n, _, _ in PER_LAYER},
        "notes": notes,
    }


if __name__ == "__main__":
    sys.exit(main())
