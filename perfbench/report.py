"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/report.py [--seeds 1 2 ... 10] [--seconds S]

For every workload: one untraced run per seed, then two traced runs on the
first seed (their counts must agree exactly).  S defaults to BENCHMARK.json's
run_seconds.  Prints Markdown tables: untraced medians with the spread of
each end-to-end metric (interquartile range over its median, from
statistics.quantiles(n=4)), repetitions per run, the memory held once the
inputs are built, the checking time of the checked repetition, time per
operation group, every per-layer metric, and the tracing overhead.  All run records go to perfbench/results/reference.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, WORKLOADS, environment, metric_specs  # noqa: E402

END_TO_END = tuple(metric_specs()["end_to_end"])


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed: {proc.stderr.strip()}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "results", f"run-{workload}-s{seed}-t{trace}.json")
    with open(path) as fh:
        record = json.load(fh)
    print(f"  {workload} seed {seed} trace {trace}: correct={summary['correct']} "
          f"attempted={summary['attempted']} failed={summary['failed']}", file=sys.stderr)
    return summary, record


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    ap.add_argument("--seconds", type=float, default=run_seconds)
    args = ap.parse_args()

    data = {"environment": environment(), "seeds": args.seeds, "seconds": args.seconds,
            "workloads": {}}
    for wl in WORKLOADS:
        plain = [run_once(wl, s, args.seconds, 0) for s in args.seeds]
        traced = [run_once(wl, args.seeds[0], args.seconds, 1) for _ in range(2)]
        data["workloads"][wl] = {"plain": plain, "traced": traced}
    with open(os.path.join(HERE, "results", "reference.json"), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)

    env = data["environment"]
    print(f"Commit {env['commit']}, Python {env['python']}, numpy {env['numpy']}, "
          f"sympy {env['sympy']}, nproc {env['nproc']}; seeds {args.seeds}, "
          f"--seconds {args.seconds:g}.\n")
    print("| workload | " + " | ".join(f"{m} median | {m} spread" for m in END_TO_END)
          + " | passes/run | inputs_rss_mb | check_s | attempted/run | failed | correct |")
    print("|---" * (2 * len(END_TO_END) + 7) + "|")
    for wl, d in data["workloads"].items():
        cells = []
        for m in END_TO_END:
            vals = [s["metrics"][m]["value"] for s, _ in d["plain"]]
            cells += [f"{statistics.median(vals):.4g}", f"{spread(vals):.1%}"]
        passes = [p for _, r in d["plain"] for p in r["passes"]]
        reps = statistics.median(len(r["passes"]) for _, r in d["plain"])
        inputs = statistics.median(p["inputs_rss_mb"] for p in passes)
        check_s = statistics.median(r["passes"][0]["check_s"] for _, r in d["plain"])
        att = statistics.median(s["attempted"] for s, _ in d["plain"])
        fail = sum(s["failed"] for s, _ in d["plain"])
        ok = all(s["correct"] for s, _ in d["plain"] + d["traced"])
        print(f"| {wl} | " + " | ".join(cells) + f" | {reps:g} | {inputs:.4g} | {check_s:.2f} "
              f"| {att:g} | {fail} | {ok} |")

    print("\nSeconds per operation group (mean over the untraced passes):\n")
    for wl, d in data["workloads"].items():
        passes = [p for _, r in d["plain"] for p in r["passes"]]
        groups = {}
        for p in passes:
            for k, v in p["op_s"].items():
                groups.setdefault(k, []).append(v)
        print(f"- `{wl}`: " + ", ".join(f"{k} {statistics.mean(v):.2f}"
                                         for k, v in groups.items()))

    print(f"\nPer-layer metrics from the traced run on seed {args.seeds[0]} "
          "(median over its traced passes):\n")
    names = list(data["workloads"])
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    first = data["workloads"][names[0]]["traced"][0][0]["metrics"]
    for key in first:
        row = []
        for wl in names:
            v = data["workloads"][wl]["traced"][0][0]["metrics"][key]["value"]
            row.append(f"{v:.4g}" if isinstance(v, float) else str(v))
        print(f"| `{key}` | {first[key]['unit']} | " + " | ".join(row) + " |")

    print()
    for wl in names:
        (s1, _), (s2, _) = data["workloads"][wl]["traced"]
        counts_equal = all(s1["metrics"][k]["value"] == s2["metrics"][k]["value"]
                           for k in s1["metrics"] if s1["metrics"][k]["unit"] != "s")
        print(f"- `{wl}`: tracing overhead {s1['metrics']['trace.overhead_s']['value']:+.2f} s "
              f"and {s2['metrics']['trace.overhead_s']['value']:+.2f} s in the two traced runs; "
              f"non-time metrics identical between them: {counts_equal}")


if __name__ == "__main__":
    main()
