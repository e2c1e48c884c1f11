"""Glued-clique experiment: census, canonical tree, refinement.

Builds b cliques of size c sharing one hub vertex, enumerates the
tangles at the requested order, then prints the canonical nested set,
the refined tree and the induced decomposition.  The defaults give the
three-K5 instance whose census is exactly one tangle per clique.
"""

import argparse
import time

from tangletree import canonical, graphsep, io, orient, trees
from tangletree.config import Caps


def glued_cliques(blobs=3, clique=5):
    """b cliques of size c, all sharing the single vertex "v"."""
    edges = []
    for b in range(blobs):
        names = ["v"] + [f"b{b}x{i}" for i in range(1, clique)]
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                edges.append((names[i], names[j]))
    return graphsep.Graph.from_edges(edges)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--blobs", type=int, default=3)
    ap.add_argument("--clique", type=int, default=5)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--max-seps", type=int, default=500)
    args = ap.parse_args()

    caps = Caps(max_unoriented=args.max_seps)
    G = glued_cliques(args.blobs, args.clique)
    print(f"graph: {G.n} vertices, {len(G.edges)} edges")

    t0 = time.monotonic()
    S, fam, tangles = graphsep.graph_tangles(G, args.k, caps=caps)
    print(
        f"order < {args.k}: {len(S)} separations, {len(fam)} covering stars, "
        f"{len(tangles)} tangles  ({time.monotonic() - t0:.2f}s)"
    )
    if len(tangles) < 2:
        print("nothing to arrange")
        return

    res = canonical.refined_tree_of_tangles(S, fam, tangles=tangles, caps=caps)
    nested = res.refinement.refined
    U = S.universe
    print(f"canonical nested set ({len(res.canonical.nested.members)}):")
    for s in sorted(res.canonical.nested.members, key=U.sort_key):
        print(f"  {U.format_pair(s)}")
    print(
        f"refined: {len(nested.members)} members, "
        f"{len(res.refinement.inessential)} inessential node(s) split"
    )
    for node, kind in res.refinement.node_kinds:
        print(f"  node of {len(node)}: {kind}")

    dec = graphsep.decomposition_export(trees.treeset_to_stree(nested, caps))
    print(f"decomposition: width {dec.width()}, parts:")
    for part in dec.parts:
        print(f"  {{{','.join(part)}}}")
    print(io.decomposition_to_dot(dec))


if __name__ == "__main__":
    main()
