"""One digest of what every benchmark operation prints and returns.

    python3 scripts/same_outputs.py --seeds 1 5
    python3 scripts/same_outputs.py --seeds 1 5 --root ../other-checkout
    python3 scripts/same_outputs.py --seeds 1 2 3 4 5 6 7 8 --expect DIGEST

For each seed and each workload of `benchmark/inputs.BUILDERS`, builds the
inputs in a fresh temporary directory and calls `tangletree.cli.main(argv)`
once per operation, in process, capturing stdout, stderr and the exit code
(an exception counts by its type and message).  The temporary directory is
replaced by a fixed token wherever it appears, so the digest depends only
on the program's behaviour.  Prints one line per workload and seed (its
operation count and digest), then one line with the digest of them all:
two checkouts with equal digests behave alike on every operation.
--seeds takes a list, not a range: `--seeds 1 8` runs seeds 1 and 8.
With --expect, a final digest other than the one given exits 1 after
printing both.

The package and `benchmark/inputs.py` are imported from --root (default:
the checkout holding this script); no bytecode is written there.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("graph-ladder", "duality-files", "cut-profiles")
TOKEN = "<tmp>"


def run_op(cli, argv):
    """(exit code or exception text, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # noqa: BLE001 - the digest records it
            rc = f"{type(e).__name__}: {e}"
    return str(rc), out.getvalue(), err.getvalue()


def workload_digest(cli, build, seed, verbose):
    """(operation count, hex digest) of one workload at one seed."""
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        ops = build(seed, tmp)
        for op in ops:
            argv = [a.replace(tmp, TOKEN) for a in op.argv]
            rc, out, err = run_op(cli, op.argv)
            one = hashlib.sha256()
            for part in (op.label, " ".join(argv), rc, out, err):
                one.update(part.replace(tmp, TOKEN).encode())
                one.update(b"\0")
            total.update(one.digest())
            if verbose:
                print(f"  {op.label}: rc {rc}, {one.hexdigest()[:16]}")
    return len(ops), total.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 5])
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="checkout whose src/ and benchmark/ are used")
    ap.add_argument("--verbose", action="store_true", help="one line per operation")
    ap.add_argument("--expect", metavar="DIGEST", help="exit 1 unless the final digest is this")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmark")]
    import inputs
    from tangletree import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src") + os.sep):
        sys.exit(f"tangletree imported from {cli.__file__}, not from {root}")
    everything = hashlib.sha256()
    for seed in args.seeds:
        for workload in WORKLOADS:
            count, digest = workload_digest(
                cli, inputs.BUILDERS[workload], seed, args.verbose
            )
            everything.update(digest.encode())
            print(f"{workload} seed {seed}: {count} operations, {digest}")
    print(f"all: {everything.hexdigest()}")
    if args.expect is not None and everything.hexdigest() != args.expect:
        print(f"expected {args.expect}, got {everything.hexdigest()}")
        sys.exit(1)


if __name__ == "__main__":
    main()
