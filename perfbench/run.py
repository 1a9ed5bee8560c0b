"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding src/gl2borel and BENCHMARK.json.
Each repetition of the workload runs in a fresh interpreter
(perfbench/worker.py), one at a time, until the next one would overrun S
seconds; at least one always runs.  The first untraced repetition checks
its outputs, outside its timed intervals, and every repetition must
reproduce the same output digest, so the later ones are checked by it.
Interpreters that only import the package run before and after the
repetitions, for the set-up time.  With --trace 0 the last stdout line
reports the end-to-end metrics (medians over the untraced repetitions);
with --trace 1 it reports the per-layer metrics from traced repetitions,
alternated with plain ones so that the tracing overhead is measured in the
same run.  Metric names and units come from BENCHMARK.json.  A record with
the environment goes to perfbench/results/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cind-quotient", "pseries-tables", "hom-solve", "fresh-words")
SETUP_SAMPLES = 10  # import-only interpreters before and after the repetitions
DEADLINE_S = 170.0  # every run must end well inside 180 s


class RunError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    # one thread per interpreter: numpy's BLAS pool would otherwise start
    # a thread per core at import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode, workload, seed, started):
    """Run one worker to completion and return its JSON result."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise RunError("time budget exhausted")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload,
            str(seed), repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RunError(f"{mode} repetition exceeded the time budget") from exc
    if proc.returncode != 0:
        raise RunError(f"{mode} repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_specs() -> dict:
    """BENCHMARK.json's metric lists, by kind: name -> unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def environment() -> dict:
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "python": platform.python_version(),
            "numpy": version("numpy"), "sympy": version("sympy"),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def run(workload, seed, seconds, trace):
    specs = metric_specs()
    started = time.monotonic()

    def setup_samples():
        return [spawn("setup", workload, seed, started)["setup_s"]
                for _ in range(SETUP_SAMPLES)]

    setups = setup_samples()
    t_measure = time.monotonic()
    plain, traced = [], []
    while True:
        t_round = time.monotonic()
        plain.append(spawn("plain" if plain else "checked", workload, seed, started))
        if trace:
            traced.append(spawn("traced", workload, seed, started))
        spent = time.monotonic() - t_measure
        if spent + (time.monotonic() - t_round) > seconds:
            break
    setups += setup_samples()
    passes = plain + traced
    setups += [r["setup_s"] for r in passes]
    errors = list(dict.fromkeys(e for r in plain for e in r["check_errors"]))
    if len({r["digest"] for r in passes}) != 1:
        errors.append("repetitions produced different outputs")
    failed = sum(r["failed"] for r in passes)
    summary = {
        "correct": not errors and failed == 0,
        "attempted": sum(r["attempted"] for r in passes),
        "failed": failed,
    }
    if trace:
        layers = {}
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced)
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        values, units = layers, specs["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = specs["end_to_end"]
    if set(values) != set(units):
        raise RunError(f"measured metrics {sorted(set(values) ^ set(units))} "
                       "do not match BENCHMARK.json")
    summary["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "summary": summary, "errors": errors,
              "checks_run": plain[0]["checks_run"],
              "failures": [f for r in passes for f in r["failures"]],
              "setup_samples": setups,
              "passes": [{k: r[k] for k in ("wall_s", "peak_rss_mb", "inputs_rss_mb",
                                            "check_s", "op_s")} for r in plain],
              "traced_passes": [{k: r[k] for k in ("wall_s", "op_s")} for r in traced]}
    return summary, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gl2borel", "__init__.py")):
        print(f"error: {ROOT} holds no src/gl2borel to benchmark", file=sys.stderr)
        return 2
    try:
        summary, record = run(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"run-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
