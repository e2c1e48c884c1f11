"""In-process A/B of two checkouts, operation by operation.

    python3 scripts/ab_ops.py --a ../parent --workload duality-files --reps 15
    python3 scripts/ab_ops.py --a ../parent --b . --workload graph-ladder --seed 3
    python3 scripts/ab_ops.py --a ../parent --workload graph-ladder --memory

Copies the `src/tangletree` of each checkout into a temporary directory
under its own package name (`tangletree_a`, `tangletree_b`), so both
import side by side in one process.  The workload's inputs are built
once, by `benchmark/inputs.BUILDERS` of --b imported without writing
bytecode (its generators import `tangletree` from --b's `src`), and both
sides run the same files.  Each operation is first run once on each
side, and the script stops unless both print the same stdout and stderr
and return the same exit code.  Then every operation runs --reps times
on each side, the sides alternating per operation and swapping which
goes first on every repetition; each call is timed in CPU time of this
process.  Prints one line per operation (the median of each side and the
change), then the round sum: the sum of the per-operation medians.

With --memory, after the timed repetitions, every operation runs once
more on each side under `tracemalloc`, untimed, and a second table
gives each side's traced peak in MB and the change.  The peak counts
the Python allocations of that one warm call, the captured output
included; it is not the process's resident memory.

Both sides share one process, its heap and its load, so this sizes a
change with less run-to-run spread than two separate processes.  It
measures CPU time and, with --memory, traced peaks, not wall time or
resident memory, and does not replace the parent/change pairs of
`benchmark/run.py`.
"""

import argparse
import contextlib
import io
import os
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from importlib import import_module

HERE = os.path.dirname(os.path.abspath(__file__))


def load_side(root, name, tmp):
    """The cli module of root's package, copied to tmp as package name."""
    shutil.copytree(
        os.path.join(root, "src", "tangletree"),
        os.path.join(tmp, name),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return import_module(f"{name}.cli")


def call(cli, argv):
    """(CPU seconds, exit code or exception text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.process_time()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # noqa: BLE001 - compared between the sides
            rc = f"{type(e).__name__}: {e}"
        spent = time.process_time() - start
    return spent, str(rc), out.getvalue(), err.getvalue()


def traced_peak(cli, argv):
    """The traced peak, in bytes, of one call, kept apart from any timing."""
    tracemalloc.start()
    try:
        call(cli, argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def table(labels, a, b, unit, scale):
    """One line per operation: each side's value and the change."""
    width = max(map(len, labels))
    print(f"{'operation':<{width}}  {'A ' + unit:>9}  {'B ' + unit:>9}  change")
    for label, x, y in zip(labels, a, b):
        change = f"{100 * (y - x) / x:+.1f} %" if x else "-"
        print(f"{label:<{width}}  {scale * x:9.2f}  {scale * y:9.2f}  {change}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", required=True, help="checkout of side A (the baseline)")
    ap.add_argument("--b", default=os.path.dirname(HERE),
                    help="checkout of side B (default: this one); its benchmark/ builds the inputs")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=11)
    ap.add_argument("--memory", action="store_true",
                    help="also one untimed call per side under tracemalloc: traced peaks")
    args = ap.parse_args()

    roots = {"a": os.path.abspath(args.a), "b": os.path.abspath(args.b)}
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        pkgs = os.path.join(tmp, "pkgs")
        os.mkdir(pkgs)
        sys.path[:0] = [pkgs, os.path.join(roots["b"], "src"),
                        os.path.join(roots["b"], "benchmark")]
        sides = {k: load_side(root, f"tangletree_{k}", pkgs) for k, root in roots.items()}
        inputs = import_module("inputs")
        ops = inputs.BUILDERS[args.workload](args.seed, tmp)

        for op in ops:
            a, b = (call(sides[k], op.argv)[1:] for k in "ab")
            if a != b:
                sys.exit(f"{op.label}: the two sides print different output")

        times = {k: [[] for _ in ops] for k in "ab"}
        for rep in range(args.reps):
            order = "ab" if rep % 2 == 0 else "ba"
            for i, op in enumerate(ops):
                for k in order:
                    times[k][i].append(call(sides[k], op.argv)[0])

        if args.memory:
            peaks = {k: [traced_peak(sides[k], op.argv) for op in ops] for k in "ab"}

    labels = [op.label for op in ops]
    med = {k: [statistics.median(t) for t in times[k]] for k in "ab"}
    table(labels, med["a"], med["b"], "ms", 1e3)
    a, b = sum(med["a"]), sum(med["b"])
    print(f"round sum: A {1e3 * a:.1f} ms, B {1e3 * b:.1f} ms, "
          f"{100 * (b - a) / a:+.1f} % ({len(ops)} operations, {args.reps} reps)")
    if args.memory:
        print()
        table(labels, peaks["a"], peaks["b"], "MB", 1e-6)


if __name__ == "__main__":
    main()
