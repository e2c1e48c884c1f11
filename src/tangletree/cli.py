"""Command-line interface.

Four subcommands: check (validate an input artifact and report its
properties), tangles (enumerate tangles or profiles), tree-of-tangles
(canonical nested set, optionally refined or via good separations), and
duality (decide tangle versus tree).  Exit codes: 0 success, 1 property
violation, 2 input error, 3 resource cap.
"""

import argparse
import dataclasses
import sys

from . import canonical, duality, graphsep, io, orient, trees
from .config import Caps
from .core import order_filtered_system
from .errors import (
    InputError,
    IntegrityError,
    ResourceCapError,
    UnsupportedOperationError,
)


# check scans order submodularity over every oriented member up to this
# many, and over a seeded sample of this many above it
ORDER_SCAN_MEMBERS = 120


def _caps(args):
    n = args.max_seps
    if n is None:
        return Caps()
    if n <= 0:
        raise InputError(f"--max-seps must be positive, got {n}")
    return dataclasses.replace(Caps(), max_unoriented=n)


def _load(args, caps):
    """Input artifact -> (system, family or None, graph or None)."""
    obj = io.load_path(args.input)
    k, G = args.k, None
    if obj.get("type") == "graph":
        G = io.load_graph(obj)
        if k is None:
            raise InputError("graph inputs need --k")
        S = graphsep.graph_separation_system(G, k, caps)
    else:
        U = io.load_universe(obj)
        S = io.load_system(obj, U)
        if k is not None:
            S = order_filtered_system(U, k, within=S)
    if len(S) > caps.max_unoriented:
        raise ResourceCapError(
            f"{len(S)} separations exceed the cap {caps.max_unoriented}; "
            "raise --max-seps"
        )
    spec = args.family or ("profiles" if G is None else "tk-star")
    return S, _family(spec, S, G, k, caps), G


def _family(spec, S, G, k, caps):
    if spec == "tk-star":
        if G is None:
            raise InputError("tk-star families need a graph input")
        return graphsep.tk_star_family(G, k, S, caps)
    if spec == "profiles":
        return orient.profile_star_family(S)
    if spec.startswith("file:"):
        return io.load_family(io.load_path(spec[5:]), S)
    raise InputError(f"unknown family {spec!r}")


# -- check --


def cmd_check(args):
    caps = _caps(args)
    S, fam, G = _load(args, caps)
    U = S.universe
    checks = []  # (name, False or what fails)

    if G is not None:
        checks.append(("graph-connected", not G.is_connected() and "disconnected"))
    checks.append(("system-involution-closed", False))  # enforced at load time
    w = S.submodular_witness
    checks.append(("system-submodular", w is not None and f"crossing pair {w}"))
    if U.has_order:
        from .core import order_submodularity_violation

        name, sample = "order-submodular", S.oriented
        if len(sample) > ORDER_SCAN_MEMBERS:
            # too many pairs for the exhaustive scan; seeded sample, said so
            import random

            seed = args.seed
            sample = random.Random(seed).sample(sample, ORDER_SCAN_MEMBERS)
            name += (f" (sampled {ORDER_SCAN_MEMBERS} of {len(S.oriented)}"
                     f" members, seed {seed})")
        w = order_submodularity_violation(U, sample)
        checks.append((name, w is not None and "order fails submodularity"))
    if fam is not None:
        # a builtin family may be empty; one read from a file should not be
        if (args.family or "").startswith("file:"):
            checks.append(("family-nonempty", len(fam) == 0 and "empty family"))
        w = fam.missing_trivial_singleton
        checks.append(("family-standard", w is not None and "missing singleton"))
        checks.append(
            ("family-stars-only", not fam.stars_only and "contains a non-star")
        )
        # a line only where the exhaustive check ran, none when trusted
        verdict = duality.shift_verdict(S, fam, caps) if fam.stars_only else None
        if verdict in ("verified", "violated"):
            checks.append((
                "family-shift-closed",
                verdict == "violated" and "not closed under shifting",
            ))

    bad = 0
    for name, fails in checks:
        if fails:
            bad += 1
            print(f"violation: {name}: {fails}")
        else:
            print(f"ok: {name}")
    print(f"system: {len(S)} separations, {len(S.oriented)} oriented")
    if fam is not None:
        print(f"family: {len(fam)} members")
    return 1 if bad else 0


# -- tangles --


def cmd_tangles(args):
    caps = _caps(args)
    S, fam, G = _load(args, caps)
    tangles = orient.enumerate_tangles(S, fam, caps)
    # free the family before the output is built: on a 12-point cut
    # universe its tuple of 35k profile triples, kept to here, lifts the
    # call's traced peak from 2.66 to 3.43 MB (tree-of-tangles, which
    # still needs the family for --refine, peaks at 2.67 MB elsewhere)
    del fam
    if args.format == "json":
        print(io.dump_json({
            "count": len(tangles),
            "tangles": [io.orientation_to_json(S, O) for O in tangles],
        }))
    else:
        U = S.universe
        print(f"{len(tangles)} tangles")
        for i, O in enumerate(tangles):
            mem = ", ".join(U.format_element(x) for x in sorted(O))
            print(f"  [{i}] {mem}")
    return 0


# -- duality --


def cmd_duality(args):
    caps = _caps(args)
    S, fam, G = _load(args, caps)
    res = duality.duality_decide(S, fam, caps)
    if args.format == "json":
        out = {"kind": res.kind}
        if res.kind == "tangle":
            out["tangle"] = io.orientation_to_json(S, res.tangle)
        else:
            out["tree"] = io.stree_to_json(res.tree)
        print(io.dump_json(out))
    elif args.format == "dot":
        if res.kind != "tree":
            raise InputError(f"the answer is a {res.kind}; no dot output")
        print(io.stree_to_dot(res.tree))
    else:
        U = S.universe
        print(f"kind: {res.kind}")
        if res.kind == "tangle":
            mem = ", ".join(U.format_element(x) for x in sorted(res.tangle))
            print(f"tangle: {mem}")
        else:
            for u, v in sorted(res.tree.edges):
                print(f"edge {u}-{v}: {U.format_element(res.tree.alpha[(u, v)])}")
    return 0


# -- tree of tangles --


def cmd_tree_of_tangles(args):
    if args.trace and args.format == "dot":
        raise InputError("the trace has no dot output")
    caps = _caps(args)
    S, fam, G = _load(args, caps)
    U = S.universe
    tangles = orient.enumerate_tangles(S, fam, caps)
    if not tangles:
        raise InputError("no tangles; nothing to arrange")

    trace = {}
    if args.good:
        res = canonical.good_nested_set(S, tangles)
        nested = res.nested
        trace["rounds"] = list(res.rounds)
    elif args.refine:
        res = canonical.refined_tree_of_tangles(S, fam, tangles=tangles, caps=caps)
        nested = res.refinement.refined
        trace["rounds"] = list(res.canonical.rounds)
        trace["inessential"] = len(res.refinement.inessential)
    else:
        res = canonical.canonical_nested_set(S, tangles)
        nested = res.nested
        trace["rounds"] = list(res.rounds)

    payload = {
        "tangles": len(tangles),
        "nested": io.nested_to_json(S, nested.members),
    }
    tree = dec = None
    if nested.is_treeset():
        tree = trees.treeset_to_stree(nested, caps)
        payload["tree"] = io.stree_to_json(tree)
        if G is not None:
            dec = graphsep.decomposition_export(tree)
            payload["decomposition"] = dec.to_json()
    if args.trace:
        payload["trace"] = trace

    if args.format == "json":
        print(io.dump_json(payload))
    elif args.format == "dot":
        if tree is None:
            raise InputError("nested set is not a tree set; no dot output")
        if dec is not None:
            print(io.decomposition_to_dot(dec))
        else:
            print(io.stree_to_dot(tree))
    else:
        print(f"tangles: {len(tangles)}")
        print("nested set:")
        for s in sorted(nested.members):
            print(f"  {U.format_pair(s)}")
        if tree is not None:
            for u, v in sorted(tree.edges):
                print(f"edge {u}-{v}: {U.format_element(tree.alpha[(u, v)])}")
        if args.trace:
            print(f"trace: {trace}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="tangletree",
        description="trees of tangles in abstract separation systems",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, fmt=None):
        """A subcommand with the flags every command reads, and --format
        with the choices fmt where the command reads it."""
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(fn=fn)
        sp.add_argument("input", help="graph edge list or JSON artifact")
        sp.add_argument("--k", type=int, default=None, help="order threshold")
        sp.add_argument(
            "--family",
            default=None,
            help="tk-star | profiles | file:<path>",
        )
        if fmt:
            sp.add_argument("--format", choices=fmt, default="text")
        sp.add_argument("--max-seps", type=int, default=None)
        sp.add_argument(
            "--jobs", type=int, default=1,
            help="accepted; changes neither the output nor the work done",
        )
        return sp

    sp = command("check", cmd_check, "validate input and report properties")
    sp.add_argument("--seed", type=int, default=0, help="seed of a sampled check")
    command("tangles", cmd_tangles, "enumerate tangles", ("json", "text"))
    command("duality", cmd_duality, "tangle or tree over the family",
            ("json", "dot", "text"))
    sp = command("tree-of-tangles", cmd_tree_of_tangles, "canonical nested set",
                 ("json", "dot", "text"))
    sp.add_argument("--trace", action="store_true", help="add the per-round trace")
    how = sp.add_mutually_exclusive_group()
    how.add_argument("--refine", action="store_true", help="refine inessential nodes")
    how.add_argument("--good", action="store_true", help="use good separations")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, UnsupportedOperationError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except ResourceCapError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 3
    except IntegrityError as e:
        print(f"integrity violation: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
