"""End-to-end benchmark of the tangletree CLI.

    python3 benchmark/run.py --workload graph-ladder --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports the package from its `src`.
One process, one thread.  Set-up (import, seeded input generation, file
writing) is repeated and timed; an untimed warm-up pass follows; then the
workload runs as a closed loop of whole rounds, each round one in-process
call of `tangletree.cli.main(argv)` per operation, until the next round
would end after --seconds.  Outputs are checked after the timed region.

--trace 0 reports the end-to-end metrics; --trace 1 instead alternates
untraced rounds with rounds run under the wrappers of spans.py, which
record a span around each call into a layer, and reports per-layer times
and work counters.
--repeat N runs the workload N times with seeds seed..seed+N-1 in child
processes and prints each metric's median and quartiles.  The last line
of stdout is one JSON object; a summary goes to stderr.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import types
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Set-up is repeated at least 3 and at most 15 times, stopping after 3
# once the repeats have taken 1.5 s; setup_s is their median.
SETUP_REPEATS = (3, 15, 1.5)

sys.path.insert(0, HERE)
import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

MODULES = ("cli", "io", "core", "orient", "duality", "canonical", "refine", "trees", "graphsep", "config", "errors")


def fresh_import():
    """Import the package from src/, dropping any copy imported before,
    so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "tangletree" or m.startswith("tangletree.")]:
        del sys.modules[name]
    import importlib

    tt = types.SimpleNamespace(**{m: importlib.import_module(f"tangletree.{m}") for m in MODULES})
    if not os.path.abspath(tt.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"tangletree imported from {tt.cli.__file__}, not from {SRC}")
    return tt


def setup(workload, seed, workdir):
    t0 = perf_counter()
    tt = fresh_import()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = inputs.BUILDERS[workload](seed, workdir)
    return perf_counter() - t0, tt, ops


def run_op(tt, argv, tracer=None, label=None):
    """One CLI call: (exit code or exception text, stdout, seconds).  With
    a tracer the call is the root span of the operation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        try:
            if tracer is None:
                rc = tt.cli.main(argv)
            else:
                rc = tracer.call(f"op {label}", tt.cli.main, (argv,))
        except (Exception, SystemExit) as e:
            rc = f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
    out = buf.getvalue()
    if tracer is not None:
        tracer.counts["io.out_bytes"] += len(out.encode("utf-8"))
    return rc, out, dt


def run_round(tt, ops, tracer=None):
    t0 = perf_counter()
    results = [run_op(tt, op.argv, tracer, op.label) for op in ops]
    return perf_counter() - t0, results


def count_failed(results, reference):
    return sum(1 for (rc, out, _), ref in zip(results, reference) if rc != 0 or out != ref)


def end_to_end(workload, seed, seconds, workdir):
    least, most, enough_s = SETUP_REPEATS
    setups = []
    while len(setups) < least or (len(setups) < most and sum(setups) < enough_s):
        dt, tt, ops = setup(workload, seed, workdir)
        setups.append(dt)
    warm_s, warm = run_round(tt, ops)
    reference = [out for _, out, _ in warm]

    rounds = []
    start = perf_counter()
    while True:
        rounds.append(run_round(tt, ops))
        est = statistics.median(r[0] for r in rounds)
        if perf_counter() - start + est > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    per_round = [[dt for _, _, dt in results] for _, results in rounds]
    latencies = sorted(dt for lat in per_round for dt in lat)
    attempted = len(latencies)
    failed = sum(count_failed(results, reference) for _, results in rounds)
    problems = [f"warm-up {op.label}: exit {rc}" for op, (rc, _, _) in zip(ops, warm) if rc != 0]
    problems += run_checks(workload, seed, tt, ops, reference)

    p90 = statistics.quantiles(latencies, n=10)[-1] if attempted >= 2 else latencies[0]
    beyond = sum(1 for x in latencies if x > p90)
    print(
        f"{workload} seed {seed}: {len(rounds)} rounds of {len(ops)} ops, warm-up {warm_s:.3f}s, "
        f"set-ups {', '.join(f'{s:.3f}' for s in setups)}s; op p90 {p90:.4f}s "
        f"({beyond} of {attempted} samples beyond it)",
        file=sys.stderr,
    )
    metrics = {
        "wall_s": (statistics.median(r[0] for r in rounds), "s"),
        # the median of the rounds' medians: on cut-profiles the pooled median
        # falls between the cheap and the costly input, where it is set by
        # the slowest cheap and the fastest costly sample
        "op_s.p50": (statistics.median(statistics.median(lat) for lat in per_round), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return problems, attempted, failed, metrics


def traced(workload, seed, seconds, workdir):
    _, tt, ops = setup(workload, seed, workdir)
    _, warm = run_round(tt, ops)
    reference = [out for _, out, _ in warm]
    problems = [f"warm-up {op.label}: exit {rc}" for op, (rc, _, _) in zip(ops, warm) if rc != 0]

    tracer = spans.Tracer()
    untraced, traced_rounds, layer_rounds, counts = [], [], [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        t, results = run_round(tt, ops)
        untraced.append(t)
        failed += count_failed(results, reference)
        first = len(tracer.spans)
        tracer.counts = dict.fromkeys(spans.COUNTERS, 0)
        with spans.installed(tt, tracer):
            t, results = run_round(tt, ops, tracer)
        traced_rounds.append(t)
        failed += count_failed(results, reference)
        layer_rounds.append(spans.self_times(tracer.spans, first))
        counts.append(tracer.counts)
        attempted += 2 * len(ops)
        est = statistics.median(traced_rounds) + statistics.median(untraced)
        if perf_counter() - start + est > seconds:
            break
    if any(c != counts[0] for c in counts):
        problems.append("work counters differ between rounds")
    problems += run_checks(workload, seed, tt, ops, reference, counts[0])
    write_spans(workload, seed, tracer.spans)

    metrics = {}
    for name in spans.LAYER_TIMES:
        metrics[f"{name}_s"] = (statistics.median(r.get(name, 0.0) for r in layer_rounds), "s")
    for name in spans.COUNTERS:
        metrics[name] = (counts[0][name], "count")
    metrics["trace.traced_s"] = (statistics.median(traced_rounds), "s")
    metrics["trace.untraced_s"] = (statistics.median(untraced), "s")
    metrics["trace.overhead_s"] = (metrics["trace.traced_s"][0] - metrics["trace.untraced_s"][0], "s")
    print(
        f"{workload} seed {seed}: {len(traced_rounds)} traced rounds of {len(ops)} ops, "
        f"{len(tracer.spans)} spans",
        file=sys.stderr,
    )
    return problems, attempted, failed, metrics


def run_checks(workload, seed, tt, ops, outputs, counters=None):
    kwargs = {}
    if workload == "cut-profiles":
        kwargs = {"rerun": lambda op, path: run_op(tt, [op.argv[0], path] + op.argv[2:])[1], "seed": seed}
    try:
        return checks.CHECKS[workload](ops, outputs, tt, counters, **kwargs)
    except Exception as e:  # noqa: BLE001 - a malformed output fails the run
        return [f"check raised {type(e).__name__}: {e}"]


def write_spans(workload, seed, recorded):
    t0 = recorded[0][1] if recorded else 0.0
    path = os.path.join(OUT, f"trace-{workload}-s{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[n, round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in recorded],
            },
            fh,
        )
        fh.write("\n")


def repeat(args):
    """Run the workload in child processes with consecutive seeds and
    report each metric's median and quartiles across the runs."""
    values = {}
    runs = []
    for seed in range(args.seed, args.seed + args.repeat):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({k: result[k] for k in ("correct", "attempted", "failed")})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                         "values": vals}
    print(json.dumps({"workload": args.workload, "runs": runs, "metrics": summary}))
    return 0 if all(r["correct"] and not r["failed"] for r in runs) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(inputs.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1, help="runs with consecutive seeds (steadiness mode)")
    args = ap.parse_args(argv)
    if args.repeat > 1:
        return repeat(args)
    if not os.path.isdir(os.path.join(SRC, "tangletree")):
        print(f"no tangletree package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"inputs-{args.workload}-s{args.seed}")
    try:
        run = traced if args.trace else end_to_end
        problems, attempted, failed, metrics = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
