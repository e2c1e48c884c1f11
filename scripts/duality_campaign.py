"""Seeded duality sweep over random submodular systems.

Every instance is a small cut-ordered bipartition system plus a random
shift-closed standard star family; the decision procedure must either
hand back a tangle or a tree over the family.  With --oracle each
verdict is checked against the literal try-every-orientation loop.
"""

import argparse
import time
from collections import Counter

from tangletree import duality, orient, randomgen
from tangletree.config import Caps

CAPS = Caps(max_unoriented=64)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--start-seed", type=int, default=0)
    ap.add_argument("--points", default="pqrs", help="ground set letters")
    ap.add_argument("--oracle", action="store_true",
                    help="cross-check against literal enumeration")
    args = ap.parse_args()

    t0 = time.monotonic()
    kinds = Counter()
    sizes = Counter()
    used = 0
    seed = args.start_seed
    while used < args.instances:
        inst = randomgen.random_duality_instance(seed, points=tuple(args.points))
        seed += 1
        if inst is None:
            kinds["skipped"] += 1
            continue
        S, fam = inst
        used += 1
        sizes[len(S)] += 1
        res = duality.duality_decide(S, fam, CAPS)
        kinds[res.kind] += 1
        if args.oracle:
            lit = [O for O in orient.all_orientations(S, CAPS)
                   if orient.f_tangle_violation(S, O, fam) is None]
            if res.kind == "tangle":
                assert res.tangle in lit, f"seed {seed - 1}: tangle not real"
            else:
                assert not lit, f"seed {seed - 1}: missed a tangle"
                assert res.tree.validate(family=fam).all_good()

    dt = time.monotonic() - t0
    print(f"{used} instances in {dt:.2f}s (seeds {args.start_seed}..{seed - 1})")
    for kind in ("tangle", "tree", "skipped"):
        print(f"  {kind}: {kinds[kind]}")
    print("  |S| distribution:", dict(sorted(sizes.items())))
    if args.oracle:
        print("  every verdict matched the literal oracle")


if __name__ == "__main__":
    main()
