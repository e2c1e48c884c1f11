"""Canonicity orbit checks on automorphism-rich instances.

An instance is a separation system with a known automorphism phi and a
set of profiles; the construction is canonical when applying phi to the
output equals running the construction on the phi-image of the inputs,
compared byte-for-byte on the serialized nested sets.  Instances come in
two flavours: mirrored graphs (two copies of a random core glued at a
hub) and cut universes built invariant under swapping two point halves.
"""

import argparse
import random
import time

from tangletree import canonical, graphsep, orient, randomgen
from tangletree.config import Caps
from tangletree.core import order_filtered_system

CAPS = Caps(max_unoriented=64)


def mirrored_instance(seed):
    rng = random.Random(seed)
    core = randomgen.random_connected_graph(
        rng, rng.randint(2, 4), extra=rng.randint(0, 1)
    )
    edges = []
    for side in ("L", "R"):
        for u, v in core.edges:
            edges.append((side + u, side + v))
        edges.append(("h", side + core.vertices[0]))
    G = graphsep.Graph.from_edges(edges)
    S, fam, tangles = graphsep.graph_tangles(G, 2, caps=CAPS)
    if len(tangles) < 2:
        return None
    perm = {"h": "h"}
    for v in core.vertices:
        perm["L" + v] = "R" + v
        perm["R" + v] = "L" + v
    return S, graphsep.vertex_isomorphism(S, S, perm), tangles


def swap_cut_instance(seed):
    rng = random.Random(seed)
    U, pm = randomgen.swap_invariant_cut_universe(rng, 2)
    orders = sorted({U.order(m) for m in U.elements()})
    S = None
    for k in orders[1:]:
        cand = order_filtered_system(U, k)
        if len(cand) > 10:
            break
        S = cand
    if S is None or not S.is_submodular():
        return None
    mapping = {m: pm(m) for m in S.oriented}
    if set(mapping.values()) != set(S.oriented):
        return None
    fam = orient.profile_star_family(S)
    profs = orient.enumerate_tangles(S, fam, CAPS)
    if len(profs) < 2:
        return None
    return S, canonical.Isomorphism(S, S, mapping), profs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=20)
    ap.add_argument("--start-seed", type=int, default=0)
    args = ap.parse_args()

    t0 = time.monotonic()
    done = 0
    seed = args.start_seed
    while done < args.instances:
        flavour, make = (
            ("mirror", mirrored_instance)
            if done % 2 == 0
            else ("swap-cut", swap_cut_instance)
        )
        inst = make(seed)
        seed += 1
        if inst is None:
            continue
        S, iso, profs = inst
        ok_can = canonical.check_canonicity(canonical.canonical_nested_set, iso, profs)
        lattice = iso.lattice_violation() is None
        ok_good = (
            canonical.check_canonicity(
                canonical.good_nested_set, iso, profs, require_lattice=True
            )
            if lattice
            else None
        )
        done += 1
        good_str = {True: "good ok", False: "good MISMATCH", None: "good n/a"}[
            ok_good
        ]
        print(
            f"  seed {seed - 1:4d} [{flavour:8s}] |S|={len(S):3d} "
            f"profiles={len(profs)}: "
            f"{'canonical ok' if ok_can else 'canonical MISMATCH'}, {good_str}"
        )
        assert ok_can and ok_good is not False

    print(f"{done} orbits byte-exact in {time.monotonic() - t0:.2f}s")


if __name__ == "__main__":
    main()
