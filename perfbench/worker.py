"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED SPAWN_TS

MODE is `setup` (import only), `checked`, `plain` or `traced`.  SPAWN_TS is
the parent's time.monotonic() just before it started this process (the
clock is system-wide, so the difference is the interpreter's start-up plus
import time).  A pass times each operation on its own; between operations
it feeds the output into a digest and, in a checked pass, runs the checks
that read it, then drops it unless a check after the pass still needs it.
Plain and traced passes run no checks but keep and drop the same outputs,
so the peak memory at the end of the pass is the program's and the
inputs', not the harness's, and the same in every mode.  Traced passes
write their spans to perfbench/results/.  Prints one JSON object on stdout.
"""

import hashlib
import os
import re
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv):
    mode, workload, seed, spawn_ts = argv
    if not os.path.isfile(os.path.join(SRC, "gl2borel", "__init__.py")):
        print(f"error: no gl2borel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gl2borel
    from gl2borel import borellab, clireport  # noqa: F401  (the CLI's import set)
    setup_s = time.monotonic() - float(spawn_ts)
    if not os.path.abspath(gl2borel.__file__).startswith(SRC + os.sep):
        print(f"error: gl2borel imported from {gl2borel.__file__}", file=sys.stderr)
        return 2

    import json

    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    wl = workloads.build(workload, int(seed))
    checking = mode == "checked"
    inline, after, keep_until = schedule(wl)
    inputs_rss_mb = rss_mb()
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results = {}
    failures = []
    failed_ops = set()
    check_errors = []
    op_s = {}
    report_bytes = 0
    wall_s = check_s = 0.0
    h = hashlib.sha256()
    clock = time.perf_counter
    for i, (name, fn) in enumerate(wl.ops):
        t0 = clock()
        try:
            out = fn()
            elapsed = clock() - t0
        except Exception as exc:  # an operation that raises counts as failed
            elapsed = clock() - t0
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            failed_ops.add(name)
            out = None
        wall_s += elapsed
        group = re.sub(r"-\d+$", "", name)  # ps-act-0, ps-act-1 -> ps-act
        op_s[group] = op_s.get(group, 0.0) + elapsed
        h.update(name.encode())
        _feed(h, out)
        if isinstance(out, dict) and "stdout" in out:
            report_bytes += len(out["stdout"])
        if name in keep_until and name not in failed_ops:
            results[name] = out
        del out
        if i in inline:
            t_check = clock()
            if checking:
                check_errors += run_checks(inline[i], results, failed_ops)
            for _, reads, _ in inline[i]:
                for r in reads:
                    if keep_until[r] == i:
                        results.pop(r, None)
            check_s += clock() - t_check
    peak_rss_mb = rss_mb()

    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "inputs_rss_mb": inputs_rss_mb, "attempted": len(wl.ops),
           "failed": len(failures), "failures": failures, "digest": h.hexdigest(),
           "op_s": op_s}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["clireport.report_bytes"] = report_bytes
        out["layers"] = layers
        results_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
        os.makedirs(results_dir, exist_ok=True)
        tracer.save(os.path.join(results_dir, f"spans-{workload}-s{seed}.npz"))

    t_check = clock()
    if checking:
        check_errors += run_checks(after, results, failed_ops)
    out["check_s"] = check_s + clock() - t_check
    out["checks_run"] = (len(after) + sum(len(c) for c in inline.values())) if checking else 0
    out["check_errors"] = check_errors
    print(json.dumps(out))
    return 0


def schedule(wl):
    """Place each check: right after the last operation it reads, or after
    the pass if it is marked so or reads nothing.  Returns the inline checks
    by operation index, the checks after the pass, and for every output a
    check reads the index after which it can be dropped (len(ops) for
    outputs kept until after the pass)."""
    inline, after, keep_until = {}, [], {}
    index = {name: i for i, (name, _) in enumerate(wl.ops)}
    end = len(wl.ops)
    for label, reads, fn, is_after in wl.checks:
        if is_after or not reads:
            at = end
            after.append((label, reads, fn))
        else:
            at = max(index[r] for r in reads)
            inline.setdefault(at, []).append((label, reads, fn))
        for r in reads:
            keep_until[r] = max(keep_until.get(r, -1), at)
    return inline, after, keep_until


def rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_checks(checks, results, failed_ops) -> list:
    """Run every check on the outputs by operation name and return all
    error strings.  A check that reads a failed operation's output reports
    that it could not run; one that reads a key the output lacks, or that
    raises, reports that too: a check never passes by not running."""
    errors = []
    for label, _, fn in checks:
        try:
            errors += fn(results)
        except KeyError as exc:
            key = exc.args[0] if exc.args else None
            if key in failed_ops:
                errors.append(f"{label}: not checked, operation {key} failed")
            else:
                errors.append(f"{label}: check could not read output: KeyError {key!r}")
        except Exception as exc:
            errors.append(f"{label}: check raised {type(exc).__name__}: {exc}")
    return errors


def _feed(h, x):
    if isinstance(x, dict):
        h.update(b"{")
        for k in sorted(x, key=str):
            _feed(h, k)
            _feed(h, x[k])
        h.update(b"}")
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for y in x:
            _feed(h, y)
        h.update(b"]")
    elif isinstance(x, np.ndarray):
        h.update(str(x.shape).encode() + np.ascontiguousarray(x, dtype=np.int64).tobytes())
    elif isinstance(x, bytes):
        h.update(x)
    elif hasattr(x, "serialize"):
        _feed(h, x.serialize())
    elif hasattr(x, "table"):  # principal-series vectors
        _feed(h, (x.level, x.table))
    else:
        h.update(repr(x).encode())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
