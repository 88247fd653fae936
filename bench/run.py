"""Benchmark of the lowdepth_ae experiment pipeline.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's JSON config is generated from the seed and handed to the
public CLI entry ``lowdepth_ae.cli.main`` in a fresh child process per
repetition (``bench/child.py``).  Repetitions run one at a time, with BLAS
and OpenMP pinned to one thread, until S seconds have passed.  Every
repetition's output files are checked and hashed; repetitions of one
config must produce identical digests.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over repetitions; times are scaled to a reference host speed
measured during each repetition, see ``child.HostSpeedProbe``).  With ``--trace 1`` untraced and traced
repetitions alternate and the last line reports the per-layer split from
``bench/tracer.py`` plus the tracing overhead.  The line before it holds
the context: seed, config, environment, digests, accuracy and sample
counts.  A record of each invocation is kept under ``.bench_work/``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from child import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Every repetition ends by this many seconds after the start, so a hung
# program fails the run well inside the 180 s a run may take.
DEADLINE_S = 150
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

MAX_DEPTH = 7
LINEAR_RAMP = [0.035 + 0.045 * d for d in range(MAX_DEPTH + 1)]
ALL_ALGORITHMS = ["direct", "mle", "crt", "hybrid", "powerlaw"]


def _config(seed: int, **fields) -> dict:
    base = {"seed": seed, "n_shots": 500, "max_depth": MAX_DEPTH,
            "vector_mode": "uniform-theta",
            "noise": {"gamma_by_depth": LINEAR_RAMP, "correlation": None}}
    return {**base, **fields}


# Why each workload exists, and which layer it isolates, is recorded in
# BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "fine-grid": ("run", lambda seed: _config(
        seed, n_trials=50, epsilon=1e-4, algorithms=ALL_ALGORITHMS)),
    "burst-hybrid": ("run", lambda seed: _config(
        seed, n_trials=300, epsilon=1e-3, algorithms=["mle", "crt", "hybrid"],
        tune_beta=True, calib_trials=200,
        noise={"gamma_by_depth": LINEAR_RAMP,
               "correlation": {"p_switch": 0.05, "burst_scale": 4.0}})),
    "many-trials": ("run", lambda seed: _config(
        seed, n_trials=400, epsilon=1e-2, algorithms=ALL_ALGORITHMS)),
    "fit-noise": ("fit-noise", lambda seed: _config(
        seed, n_trials=4000, epsilon=1e-3, algorithms=[])),
}

HOT_FUNCTIONS = ("estimators.bayesian_update", "estimators.mle_estimate",
                 "estimators.crt_reconstruct", "estimators.crt_solve",
                 "noise.sample_noisy_shots", "simulator.run_statevector",
                 "circuits.build_iterated_circuit", "schedules.optimize_exponent",
                 "schedules.fisher_noisy")
INCLUSIVE_FUNCTIONS = ("harness.calibrate_hybrid", "harness.aggregate_and_emit",
                       "harness.fit_depolarizing")
RUN_FILES = ("trials.csv", "aggregate.csv", "crt_error_histogram.csv", "manifest.json")


def rows_per_trial(algorithm: str, max_depth: int) -> int:
    """Rows one successful trial writes to trials.csv for ``algorithm``."""
    return {"direct": 1, "mle": max_depth + 1, "crt": max_depth - 1,
            "hybrid": max_depth - 1, "powerlaw": 1}[algorithm]


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def attempted_operations(command: str, config: dict) -> int:
    """Operations in one repetition.

    A ``run`` attempts one estimate per trial and algorithm, the depolarizing
    fit and the run itself; ``fit-noise`` attempts its fit.
    """
    if command == "fit-noise":
        return 1
    return config["n_trials"] * len(config["algorithms"]) + 2


def check_run(out_dir: Path, config: dict):
    """Check a ``run`` output directory.

    Returns ``(problems, failed, accuracy)``.  Failed operations are the
    estimator errors in the manifest, a fit error, and the run itself when
    any problem is found.
    """
    algorithms, depth, n_shots = config["algorithms"], config["max_depth"], config["n_shots"]
    missing = [name for name in RUN_FILES if not (out_dir / name).is_file()]
    if missing:
        return [f"missing output files {missing}"], attempted_operations("run", config), {}
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    errors = [alg for errs in manifest["trial_errors"].values() for alg in errs]
    failed = len(errors) + (manifest["gamma_fit_error"] is not None)

    problems = []
    expected_rows = (config["n_trials"] * sum(rows_per_trial(a, depth) for a in algorithms)
                     - sum(rows_per_trial(a, depth) for a in errors))
    with open(out_dir / "trials.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected_rows:
        problems.append(f"trials.csv has {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        p_hat = float(row["p_hat"])
        if not 0.0 <= p_hat <= 1.0:
            problems.append(f"p_hat {p_hat} outside [0, 1] ({row['algorithm']})")
            break
        if row["algorithm"] == "mle":
            d = int(row["depth"])
            if int(row["oracle_calls"]) != n_shots * (d + 1) ** 2:
                problems.append(f"mle oracle_calls {row['oracle_calls']} at depth {d} "
                                f"differ from the schedule sum {n_shots * (d + 1) ** 2}")
                break

    with open(out_dir / "aggregate.csv", encoding="utf-8", newline="") as fh:
        errs = {(r["algorithm"], r["depth"]): float(r["mean_abs_err_p"])
                for r in csv.DictReader(fh)}
    accuracy = {}
    if ("mle", str(depth)) in errs:
        accuracy["err_p.mle"] = errs[("mle", str(depth))]
    for alg in ("crt", "hybrid"):
        values = [v for (a, _), v in errs.items() if a == alg]
        if values:
            accuracy[f"err_p.{alg}_best"] = min(values)
    values = [v for (a, _), v in errs.items() if a == "powerlaw"]
    if values:
        accuracy["err_p.powerlaw"] = values[0]
    if manifest["gamma_fit"] is not None:
        accuracy["gamma_fit_err"] = gamma_fit_err(manifest["gamma_fit"], config)
    return problems, failed + bool(problems), accuracy


def check_fit_noise(out_dir: Path, config: dict):
    """Check a ``fit-noise`` output directory; the fit is the one operation."""
    path = out_dir / "gamma_fit.json"
    if not path.is_file():
        return ["missing output file gamma_fit.json"], 1, {}
    gammas = json.loads(path.read_text(encoding="utf-8"))["gamma_by_depth"]
    if len(gammas) != config["max_depth"] + 1 or not all(
            math.isfinite(g) and g >= 0 for g in gammas):
        return [f"gamma_fit.json holds {gammas!r}"], 1, {}
    return [], 0, {"gamma_fit_err": gamma_fit_err(gammas, config)}


def gamma_fit_err(fitted, config: dict) -> float:
    return max(abs(f - g) for f, g in zip(fitted, config["noise"]["gamma_by_depth"]))


def one_repetition(command: str, config: dict, config_path: Path, rep_dir: Path,
                   traced: bool, timeout: float) -> dict:
    """Run the child once, check its outputs, and delete them."""
    out_dir, result_path = rep_dir / "out", rep_dir / "result.json"
    rep_dir.mkdir(parents=True)
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, str(BENCH_DIR / "child.py"), command, str(config_path),
            str(out_dir), str(result_path), "1" if traced else "0"]
    attempted = attempted_operations(command, config)
    rep = {"traced": traced, "attempted": attempted}
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc = None
    check = check_fit_noise if command == "fit-noise" else check_run
    if proc is None or proc.returncode != 0 or not result_path.is_file():
        reason = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        rep.update(problems=[f"child failed ({reason})"], failed=attempted)
    else:
        rep.update(scaled(json.loads(result_path.read_text(encoding="utf-8"))))
        problems, failed, accuracy = check(out_dir, config)
        if rep["rc"] != 0:
            problems.append(f"command exited {rep['rc']}")
            failed = attempted
        rep.update(problems=problems, failed=failed, accuracy=accuracy,
                   digest=digest(out_dir),
                   emit_bytes=sum(p.stat().st_size for p in out_dir.iterdir()))
    shutil.rmtree(rep_dir)
    return rep


def scaled(child: dict) -> dict:
    """The child's measurements, with times scaled to the reference speed.

    ``run_s``, ``cpu_s`` and ``setup_s`` are multiplied by the speed factor
    the child's host-speed probe measured during the call (see
    ``HostSpeedProbe``); the raw values stay under ``raw_*``.
    """
    f = child["speed_factor"]
    return {**child, "raw_setup_s": child["setup_s"], "raw_cpu_s": child["cpu_s"],
            "setup_s": child["setup_s"] * f, "cpu_s": child["cpu_s"] * f,
            "run_s": (child["wall_s"] - child["probe_s"]) * f}


def spread(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values)}


def end_to_end_metrics(reps) -> dict:
    return {
        "setup_s": {"value": median([r["setup_s"] for r in reps]), "unit": "s"},
        "run_s": {"value": median([r["run_s"] for r in reps]), "unit": "s"},
        "cpu_s": {"value": median([r["cpu_s"] for r in reps]), "unit": "s"},
        "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in reps]), "unit": "MB"},
    }


def per_layer_metrics(untraced, traced) -> dict:
    """Per-layer split: times are medians over traced repetitions; counts,
    which repeat exactly (checked in ``main``), come from the first."""
    metrics = {}
    first = traced[0]

    def time_s(name, values):
        metrics[name] = {"value": median(values), "unit": "s"}

    def count(name, value, unit="count"):
        metrics[name] = {"value": value, "unit": unit}

    def fn(rep, key):
        return rep["trace"]["functions"].get(key, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})

    def ratio(num, den):
        return num / den if den else 0.0

    for layer in LAYERS:
        time_s(f"{layer}.self_s", [r["trace"]["layers"][layer]["self_s"] for r in traced])
        count(f"{layer}.calls", first["trace"]["layers"][layer]["calls"])
    for key in HOT_FUNCTIONS:
        time_s(f"{key}.self_s", [fn(r, key)["self_s"] for r in traced])
        count(f"{key}.calls", fn(first, key)["calls"])
    for key in INCLUSIVE_FUNCTIONS:
        time_s(f"{key}.incl_s", [fn(r, key)["incl_s"] for r in traced])

    calls = {key: fn(first, key)["calls"] for key in HOT_FUNCTIONS}
    count("estimators.updates_per_pool", ratio(calls["estimators.bayesian_update"],
                                               calls["noise.sample_noisy_shots"]), "ratio")
    count("estimators.crt_solves_per_reconstruct", ratio(calls["estimators.crt_solve"],
                                                         calls["estimators.crt_reconstruct"]),
          "ratio")
    count("schedules.exponent_solves", calls["schedules.optimize_exponent"])
    shots = first["trace"]["counters"].get("noise.shots", 0)
    count("noise.shots", shots)
    metrics["noise.shots_per_s"] = {
        "value": median([ratio(shots, r["trace"]["layers"]["noise"]["self_s"]) for r in traced]),
        "unit": "1/s"}
    count("harness.emit_bytes", first["emit_bytes"], "B")
    metrics["trace.coverage"] = {
        "value": median([sum(v["self_s"] for v in r["trace"]["layers"].values()) / r["wall_s"]
                         for r in traced]),
        "unit": "ratio"}
    metrics["trace.overhead"] = {
        "value": median([r["run_s"] for r in traced]) / median([r["run_s"] for r in untraced]),
        "unit": "ratio"}
    return metrics


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "thread_env": THREAD_ENV}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lowdepth_ae" / "cli.py").is_file():
        print(f"error: {SRC / 'lowdepth_ae'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    command, make_config = WORKLOADS[args.workload]
    config = make_config(args.seed)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    # Untraced and traced repetitions alternate in a traced invocation; at
    # least two of each kind give a median, a digest and a count to compare.
    min_reps = 4 if args.trace else 3
    reps = []
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    while time.perf_counter() < deadline and (
            len(reps) < min_reps or time.perf_counter() - start < args.seconds):
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(one_repetition(command, config, config_path, run_dir / f"rep{len(reps)}",
                                   traced, timeout=deadline - time.perf_counter()))

    ok = [r for r in reps if "run_s" in r and r["rc"] == 0]
    problems = sorted({p for r in reps for p in r["problems"]})
    digests = sorted({r["digest"] for r in ok})
    if len(digests) > 1:
        problems.append(f"outputs differ between repetitions of one config: {digests}")
        majority = max(digests, key=lambda d: sum(r["digest"] == d for r in ok))
        for r in ok:
            if r["digest"] != majority:
                r["failed"] += 1
    accuracies = [json.dumps(r["accuracy"], sort_keys=True) for r in ok]
    if len(set(accuracies)) > 1:
        problems.append("accuracy differs between repetitions of one config")

    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no repetition completed: " + "; ".join(problems), file=sys.stderr)
        return 1
    if args.trace:
        counts = {json.dumps([r["trace"]["functions"][k]["calls"] for k in
                              sorted(r["trace"]["functions"])] + [r["trace"]["counters"]],
                             sort_keys=True) for r in traced}
        if len(counts) > 1:
            problems.append("call counts differ between traced repetitions")
        metrics = per_layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(untraced)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "command": command, "config": config, "environment": environment(),
        "digest": digests[0] if len(digests) == 1 else digests,
        "accuracy": ok[0]["accuracy"], "problems": problems,
        "samples": {key: spread([r[key] for r in untraced])
                    for key in ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "speed_factor",
                                "raw_setup_s", "wall_s", "raw_cpu_s")},
        "traced_run_s": spread([r["run_s"] for r in traced]) if traced else None,
        "repetitions": [{k: r.get(k) for k in ("traced", "run_s", "wall_s", "speed_factor")}
                        for r in reps],
        "missing_functions": sorted(
            {k for k in HOT_FUNCTIONS + INCLUSIVE_FUNCTIONS for r in traced
             if k not in r["trace"]["wrapped"]}
            | {layer for r in traced for layer in r["trace"]["missing_layers"]}),
    }
    result = {"correct": not problems, "attempted": sum(r["attempted"] for r in reps),
              "failed": sum(r["failed"] for r in reps), "metrics": metrics}
    (run_dir / "record.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
