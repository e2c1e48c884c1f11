"""Seeded inputs for the three workloads, written to files.

Each builder takes the workload seed and an output directory, writes the
input files there and returns the operations to run: one CLI argv per
operation plus the input description the correctness checks need.  The
program itself only ever sees the written files.
"""

import bisect
import json
import os
import random
from dataclasses import dataclass

# Enough head-room for every graph system below (the largest has about
# 1,100 separations); the default cap of 24 is meant for interactive use.
GRAPH_MAX_SEPS = "2000"
CUT_MAX_SEPS = "400"


@dataclass
class Op:
    """One CLI invocation of a workload."""

    label: str
    argv: list
    case: dict


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


# -- graph-ladder --


def _glued_blocks(blobs, clique):
    """b cliques of size c sharing one hub vertex."""
    return [["hub"] + [f"b{b}x{i}" for i in range(1, clique)] for b in range(blobs)]


def _chain_blocks(length):
    """K4s in a row, consecutive ones sharing a single vertex."""
    return [[f"h{b}", f"c{b}a", f"c{b}b", f"h{b + 1}"] for b in range(length)]


# (label, blocks, subcommand): the tree-of-tangles rungs have one
# 3-tangle per block; the glued triangles have no 3-tangle at all.
GRAPH_LADDER = (
    ("3xK5", _glued_blocks(3, 5), "tree-of-tangles"),
    ("4xK4", _glued_blocks(4, 4), "tree-of-tangles"),
    ("4xK5", _glued_blocks(4, 5), "tree-of-tangles"),
    ("chain4xK4", _chain_blocks(4), "tree-of-tangles"),
    ("5xK3", _glued_blocks(5, 3), "duality"),
    ("6xK3", _glued_blocks(6, 3), "duality"),
)


def graph_ladder(seed, outdir):
    """Fixed graph shapes; the seed renames the vertices and shuffles and
    flips the edge list, so vertex indices and edge order change."""
    rng = random.Random(seed)
    ops = []
    for label, blocks, command in GRAPH_LADDER:
        vertices = sorted({v for block in blocks for v in block})
        rename = dict(zip(vertices, (f"v{i}" for i in rng.sample(range(1000), len(vertices)))))
        blocks = [sorted(rename[v] for v in block) for block in blocks]
        edges = []
        for block in blocks:
            for i, u in enumerate(block):
                for v in block[i + 1:]:
                    edges.append((u, v) if rng.random() < 0.5 else (v, u))
        rng.shuffle(edges)
        path = os.path.join(outdir, f"{label}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {label}, seed {seed}\n")
            fh.writelines(f"{u} {v}\n" for u, v in edges)
        argv = [command, path, "--k", "3", "--max-seps", GRAPH_MAX_SEPS, "--format", "json"]
        if command == "tree-of-tangles":
            argv.insert(2, "--refine")
        ops.append(Op(f"{label} {command}", argv, {"edges": edges, "blocks": blocks, "k": 3}))
    return ops


# -- duality-files --

# Instances per separation count (6 stands for "at most 6"), close to
# the generator's own mix.  They are drawn from the fixed generator seed
# DUALITY_GEN_SEED, so every run generates and runs the same instances:
# the work of a round and of set-up both grow steeply with |S|, and the
# number of draws the generator rejects varies from seed to seed.
DUALITY_MIX = {6: 20, 7: 60, 8: 12, 9: 24, 10: 34}
DUALITY_GEN_SEED = 3


def _cut_weights(U):
    """Pair weights of a cut order, read back from the order itself:
    cut({a}) + cut({b}) - cut({a, b}) = 2 w(a, b)."""
    names = U.ground
    out = {}
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            twice = U.order(1 << a) + U.order(1 << b) - U.order((1 << a) | (1 << b))
            out[(names[a], names[b])] = int(twice / 2)
    return out


def duality_files(seed, outdir):
    """Cut-ordered bipartition systems (4-5 points, at most 10 separations,
    in the mix DUALITY_MIX) with standard, shift-closed star families,
    written as a system file and a family file each; every instance is run
    as `check` and then `duality`.  The instances come from
    DUALITY_GEN_SEED; the run seed renames the points, permutes the ground
    set, the separations, the stars and the order of the instances."""
    from tangletree import randomgen

    gen = random.Random(DUALITY_GEN_SEED)
    rng = random.Random(seed)
    quota = dict(DUALITY_MIX)
    drawn = []
    while any(quota.values()):
        points = tuple("pqrst"[: gen.choice((4, 5))])
        S = randomgen.random_order_system(gen, points)
        size = max(len(S), 6)
        if not quota.get(size):
            continue
        fam = randomgen.random_shift_closed_family(
            gen, S, upsets=gen.randint(0, 2), stars=gen.randint(0, 2)
        )
        if fam is None:
            continue
        quota[size] -= 1
        drawn.append((S, fam))
    rng.shuffle(drawn)

    ops = []
    for i, (S, fam) in enumerate(drawn):
        U = S.universe
        rename = dict(zip(U.ground, (f"p{j}" for j in rng.sample(range(100), len(U.ground)))))

        def names(x):
            return [rename[v] for v in U.names_of(x)]

        separations = [names(x) for x in S.separations]
        rng.shuffle(separations)
        stars = [[names(x) for x in sorted(sigma)] for sigma in fam.stars_sorted]
        rng.shuffle(stars)
        system = {
            "type": "bipartition",
            "ground_set": rng.sample(list(rename.values()), len(rename)),
            "order_weights": {f"{rename[a]},{rename[b]}": w for (a, b), w in _cut_weights(U).items()},
            "separations": separations,
        }
        # io.load_path insists on a "type" tag even for family files
        family = {"type": "family", "stars": stars}
        sys_path = os.path.join(outdir, f"sys{i:03d}.json")
        fam_path = os.path.join(outdir, f"fam{i:03d}.json")
        _write_json(sys_path, system)
        _write_json(fam_path, family)
        case = {"system": system, "family": family}
        for command in ("check", "duality"):
            argv = [command, sys_path, "--family", f"file:{fam_path}"]
            if command == "duality":
                argv += ["--format", "json"]
            ops.append(Op(f"sys{i:03d} {command}", argv, case))
    return ops


# -- cut-profiles --

CUT_POINTS = 12
# (seed of the planted weights, target separation count), one input each.
# The weights are fixed so that every run does the same work; the run's
# seed renames the points and permutes their order in the ground set.
# Shape 9 at 91 separations is the one candidate seen (of about 100 in
# the 85-165 window) where both constructions take two rounds.
CUT_LADDER = ((9, 91), (6, 142))


def planted_weights(rng, n):
    """Pair weights of n points in planted clusters: heavy inside a
    cluster (each cluster has its own level), light across."""
    sizes = rng.choice(([5, 4, 3], [4, 4, 4], [6, 3, 3], [3, 3, 3, 3], [5, 5, 2]))
    points = list(range(n))
    rng.shuffle(points)
    cluster = {}
    for c in range(len(sizes)):
        for p in points[sum(sizes[:c]): sum(sizes[:c + 1])]:
            cluster[p] = c
    level = {c: rng.randint(2, 6) for c in range(len(sizes))}
    return {
        (a, b): rng.randint(level[cluster[a]] - 2, level[cluster[a]])
        if cluster[a] == cluster[b]
        else rng.randint(0, 1)
        for a in range(n)
        for b in range(a + 1, n)
    }


def cut_orders(weights, n):
    """cut(mask) for every mask of n points."""
    cut = [0] * (1 << n)
    for mask in range(1 << n):
        total = 0
        for (a, b), w in weights.items():
            if (mask >> a & 1) != (mask >> b & 1):
                total += w
        cut[mask] = total
    return cut


def threshold_for(cut, target):
    """The threshold k whose system {mask : cut < k} has the separation
    count closest to the target (ties to the smaller system)."""
    ordered = sorted(cut)
    best = None
    for k in sorted(set(cut))[1:]:
        seps = bisect.bisect_left(ordered, k) // 2
        score = (abs(seps - target), seps)
        if best is None or score < best[0]:
            best = (score, k)
    return best[1]


def cut_profiles(seed, outdir):
    """The planted-cluster cut universes of CUT_LADDER on 12 points; each
    runs `tangles`, `tree-of-tangles` and `tree-of-tangles --good` over
    its profiles."""
    rng = random.Random(seed)
    ops = []
    for t, (shape, target) in enumerate(CUT_LADDER):
        weights = planted_weights(random.Random(shape), CUT_POINTS)
        k = threshold_for(cut_orders(weights, CUT_POINTS), target)
        names = [f"x{i}" for i in rng.sample(range(100), CUT_POINTS)]
        obj = {
            "type": "bipartition",
            "ground_set": rng.sample(names, CUT_POINTS),
            "order_weights": {f"{names[a]},{names[b]}": w for (a, b), w in sorted(weights.items())},
            "separations": "all",
        }
        path = os.path.join(outdir, f"cut{t}.json")
        _write_json(path, obj)
        case = {"input": obj, "k": k}
        common = ["--k", str(k), "--family", "profiles", "--max-seps", CUT_MAX_SEPS, "--format", "json"]
        ops.append(Op(f"cut{t} tangles", ["tangles", path] + common, case))
        ops.append(Op(f"cut{t} tree-of-tangles", ["tree-of-tangles", path] + common, case))
        ops.append(Op(f"cut{t} tree-of-tangles --good", ["tree-of-tangles", path, "--good"] + common, case))
    return ops


BUILDERS = {
    "graph-ladder": graph_ladder,
    "duality-files": duality_files,
    "cut-profiles": cut_profiles,
}
