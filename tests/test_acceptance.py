"""Acceptance suite.

One test per acceptance criterion; each prints a single [PASS]/[FAIL]
verdict line (run pytest with -s to see them).  Oracles here are
independent of the code under test: literal enumeration loops, direct
definition checks, and byte comparison of serialized artifacts.
"""

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import permutations

import tangletree
from tangletree import (
    canonical,
    duality,
    graphsep,
    io,
    orient,
    randomgen,
    refine,
    trees,
)
from tangletree.core import BipartitionUniverse, SeparationSystem, order_filtered_system

import oracles
from conftest import BIG_CAPS, tripod_edges, triangle_tripod_edges

CAPS = BIG_CAPS


@contextmanager
def verdict(label_fn):
    """Print one pass/fail line; label_fn may read results collected
    in the with-block through a mutable dict."""
    info = {}
    try:
        yield info
    except BaseException:
        print(f"[FAIL] {label_fn(info)}", flush=True)
        raise
    print(f"[PASS] {label_fn(info)}", flush=True)


# -- shared corpus --


def graph_instance(edges, k):
    G = graphsep.Graph.from_edges(edges)
    S, fam, tangles = graphsep.graph_tangles(G, k, caps=CAPS)
    return S, fam, tangles


def u4_instance():
    U = BipartitionUniverse(["a", "b", "c", "d"])
    S = SeparationSystem(U, list(U.elements()))
    fam = orient.profile_star_family(S)
    return S, fam, orient.enumerate_tangles(S, fam, CAPS)


NAMED_BUILDERS = (
    ("u4-profiles", u4_instance),
    ("p3", lambda: graph_instance([("a", "b"), ("b", "c")], 2)),
    ("p4", lambda: graph_instance([("a", "b"), ("b", "c"), ("c", "d")], 2)),
    ("triangle-tripod", lambda: graph_instance(triangle_tripod_edges(), 2)),
    ("tripod", lambda: graph_instance(tripod_edges(), 3)),
)


def cut_profile_instances(count=25):
    """Seeded submodular cut systems whose profiles we can arrange."""
    out = []
    seed = 0
    while len(out) < count and seed < 500:
        rng = random.Random(seed)
        seed += 1
        S = randomgen.random_order_system(rng, ("p", "q", "r", "s"))
        if len(S) > 10 or not S.is_submodular():
            continue
        fam = orient.profile_star_family(S)
        profs = orient.enumerate_tangles(S, fam, CAPS)
        if len(profs) < 2:
            continue
        out.append((f"cut-{seed - 1}", S, profs))
    return out


def corpus():
    """Everything criterion 4 and 7 run over: named fixtures with at
    least two tangles, plus 25 seeded cut systems."""
    for name, build in NAMED_BUILDERS:
        S, fam, tangles = build()
        if len(tangles) >= 2:
            yield name, S, tangles
    yield from cut_profile_instances()


# -- criterion 1 --


def test_criterion_1_tripod_census_and_classification():
    def label(info):
        return (
            "criterion 1: tripod census 3/3, construction distinguishes, "
            f"refined nodes classified ({info.get('elapsed', '?')}s)"
        )

    with verdict(label) as info:
        t0 = time.monotonic()
        S, fam, tangles = graph_instance(tripod_edges(), 3)
        assert len(S) == 131
        assert len(tangles) == 3
        assert len(set(tangles)) == 3

        # definition-level revalidation, independent of the enumerator:
        # each result orients every separation exactly once, is
        # consistent, and includes no covering star
        U = S.universe
        for O in tangles:
            assert len(O) == len(S.separations)
            for rep in S.separations:
                assert (rep in O) != (U.invert(rep) in O)
            assert orient.consistency_violation(S, O) is None
            for sigma in fam:
                assert not sigma <= O

        # the literal 2^|S| oracle is infeasible at |S| = 131; run it at
        # the scales where it is feasible and check exact agreement there
        for edges, k, expected in (
            ([("a", "b"), ("b", "c")], 2, 2),
            (triangle_tripod_edges(), 2, 3),
        ):
            St, ft, enum = graph_instance(edges, k)
            lit = oracles.literal_tangles(St, ft, CAPS)
            assert set(lit) == set(enum)
            assert len(lit) == expected

        res = canonical.canonical_nested_set(S, tangles)
        assert orient.undistinguished_pair(S, res.nested.members, tangles) is None
        assert len(res.nested.members) == 3

        rt = canonical.refined_tree_of_tangles(S, fam, tangles=tangles, caps=CAPS)
        refined = rt.refinement.refined
        homes = {trees.lives_at(S, O, refined) for O in tangles}
        nodes = trees.nodes_of(refined, CAPS)
        for node in nodes:
            assert node in homes or node in fam.stars
        assert len(nodes) == 4

        info["elapsed"] = round(time.monotonic() - t0, 2)
        assert info["elapsed"] < 60


# -- criterion 2 --


def test_criterion_2_duality_dichotomy_against_literal_oracle():
    def label(info):
        return (
            "criterion 2: duality branch matches the literal oracle on "
            f"{info.get('n', 0)} instances "
            f"({info.get('tangle', 0)} tangle / {info.get('tree', 0)} tree, "
            f"{info.get('elapsed', '?')}s)"
        )

    with verdict(label) as info:
        t0 = time.monotonic()
        used = tangle_kind = tree_kind = 0
        seed = 0
        while used < 200 and seed < 3000:
            inst = randomgen.random_duality_instance(seed)
            seed += 1
            if inst is None:
                continue
            S, fam = inst
            used += 1
            lit = oracles.literal_tangles(S, fam, CAPS)
            res = duality.duality_decide(S, fam, CAPS)
            if res.kind == "tangle":
                tangle_kind += 1
                assert lit, f"seed {seed - 1}: no tangle exists"
                assert res.tangle in lit, f"seed {seed - 1}"
            else:
                tree_kind += 1
                assert not lit, f"seed {seed - 1}: a tangle exists"
                v = res.tree.validate(family=fam)
                assert v.all_good(), f"seed {seed - 1}: {v}"
        assert used >= 200
        assert tangle_kind and tree_kind
        info.update(n=used, tangle=tangle_kind, tree=tree_kind)
        info["elapsed"] = round(time.monotonic() - t0, 2)
        assert info["elapsed"] < 120


# -- criterion 3 --


def _corner_nestedness_suite():
    """Any t nested with two crossing separations is nested with their
    corners; exhaustive on the 4-point bipartition universe and on
    random graph universes with at most 6 vertices."""
    checked = 0
    universes = []
    U4 = BipartitionUniverse(["a", "b", "c", "d"])
    universes.append((U4, U4.elements()))
    for seed in range(10):
        rng = random.Random(seed)
        G = randomgen.random_connected_graph(
            rng, rng.randint(4, 6), extra=rng.randint(0, 2)
        )
        GU = graphsep.GraphUniverse(G)
        universes.append((GU, GU.elements()))
    for U, els in universes:
        canon = sorted({U.canon(x) for x in els})
        for i, r in enumerate(canon):
            for s in canon[i + 1:]:
                if U.nested(r, s):
                    continue
                corners = oracles.corner_separations(U, r, s)
                for t in canon:
                    if U.nested(t, r) and U.nested(t, s):
                        for c in corners:
                            assert U.nested(t, c)
                            checked += 1
    return checked


def _maximal_closeness_suite():
    """Every maximal member of every profile is closely related to it."""
    checks = 0
    for seed in range(120):
        rng = random.Random(seed)
        S = randomgen.random_order_system(rng, ("p", "q", "r", "s"))
        if len(S) > 10 or not S.is_submodular():
            continue
        fam = orient.profile_star_family(S)
        for P in orient.enumerate_tangles(S, fam, CAPS):
            for m in orient.maximal_members(S, P):
                assert refine.closely_related(S, m, P)
                checks += 1
    return checks


def _inheritance_suite():
    """r below a closely related s, with meets below s available, is
    itself closely related."""
    trials = 0
    for seed in range(120):
        rng = random.Random(seed)
        S = randomgen.random_order_system(rng, ("p", "q", "r", "s"))
        if len(S) > 10 or not S.is_submodular():
            continue
        U = S.universe
        fam = orient.profile_star_family(S)
        for P in orient.enumerate_tangles(S, fam, CAPS):
            for s in orient.maximal_members(S, P):
                for r in P:
                    if not U.leq(r, s):
                        continue
                    if all(
                        U.meet(r, u) in S.members
                        for u in S.oriented
                        if U.leq(u, s)
                    ):
                        assert refine.closely_related(S, r, P)
                        trials += 1
    return trials


def _guarded_inf_suite():
    """Folding guarded infima over a profile's maxima stays inside the
    system and closely related."""
    trials = 0
    for seed in range(120):
        rng = random.Random(seed)
        S = randomgen.random_order_system(rng, ("p", "q", "r", "s"))
        if len(S) > 10 or not S.is_submodular():
            continue
        fam = orient.profile_star_family(S)
        for P in orient.enumerate_tangles(S, fam, CAPS):
            maxima = orient.maximal_members(S, P)
            if not maxima:
                continue
            ws = [refine.CloseWitness(x, P) for x in maxima[1:]]
            got = refine.guarded_inf(S, maxima[0], ws)
            assert got in S.members
            assert refine.closely_related(S, got, P)
            trials += 1
    return trials


def _nested_restriction_maxima_suite():
    """Grow a random nested Y inside P whose inverses are closely
    related somewhere; maxima of the part of P nested with Y stay
    closely related to P."""
    trials = 0
    for seed in range(200):
        rng = random.Random(1000 + seed)
        S = randomgen.random_order_system(rng, ("p", "q", "r", "s"))
        if len(S) > 10 or not S.is_submodular():
            continue
        U = S.universe
        fam = orient.profile_star_family(S)
        profs = orient.enumerate_tangles(S, fam, CAPS)
        for P in profs:
            cands = [
                y
                for y in P
                if any(
                    refine.closely_related(S, U.invert(y), Q) for Q in profs
                )
            ]
            rng.shuffle(cands)
            Y = []
            for y in cands:
                if all(
                    S.nestedness_violation([U.canon(y), U.canon(z)]) is None
                    for z in Y
                ):
                    Y.append(y)
                if len(Y) >= 3:
                    break
            if not Y:
                continue
            PY = [
                x
                for x in P
                if all(
                    S.nestedness_violation([U.canon(x), U.canon(y)]) is None
                    for y in Y
                )
            ]
            if not PY:
                continue
            for m in (x for x in PY if not any(U.lt(x, z) for z in PY)):
                assert refine.closely_related(S, m, P)
                trials += 1
    return trials


def _efficient_distinguisher_suite():
    """On graph systems, minimum-order distinguishers of a profile pair
    are closely related to both profiles; >= 50 seeded graphs, <= 7
    vertices, k <= 3."""
    graphs = 0
    checks = 0
    seed = 0
    while graphs < 50 and seed < 300:
        rng = random.Random(seed)
        seed += 1
        G = randomgen.random_connected_graph(
            rng, rng.randint(3, 7), extra=rng.randint(0, 3)
        )
        for k in (2, 3):
            if k > G.n:
                continue
            S = graphsep.graph_separation_system(G, k, CAPS)
            if len(S) > 40:
                continue
            fam = orient.profile_star_family(S)
            profs = orient.enumerate_tangles(S, fam, CAPS)
            U = S.universe
            for i in range(len(profs)):
                for j in range(i + 1, len(profs)):
                    P, Q = profs[i], profs[j]
                    dist = [
                        x for x in S.oriented if x in P and U.invert(x) in Q
                    ]
                    if not dist:
                        continue
                    best = min(U.order(x) for x in dist)
                    for x in dist:
                        if U.order(x) == best:
                            assert refine.closely_related(S, x, P)
                            assert refine.closely_related(S, U.invert(x), Q)
                            checks += 1
        graphs += 1
    return graphs, checks


def _separability_suite():
    systems = 0
    for seed in range(60):
        rng = random.Random(seed)
        S = randomgen.random_order_system(rng, ("p", "q", "r", "s"))
        if not S.is_submodular():
            continue
        assert oracles.check_separable(S)
        systems += 1
    return systems


def _good_live_assert_suite():
    """The good-separation construction asserts its own invariants
    (unique maximal choice, nestedness, per-round progress) and raises
    on violation; run it across instances and count clean runs."""
    runs = 0
    for name, S, profs in corpus():
        res = canonical.good_nested_set(S, profs)
        assert res.nested.members is not None
        runs += 1
    return runs


def test_criterion_3_structural_property_suites():
    def label(info):
        return (
            "criterion 3: property suites clean "
            f"(corners {info.get('corners', 0)}, maximal {info.get('maximal', 0)}, "
            f"randomized {info.get('randomized', 0)} trials, "
            f"graphs {info.get('graphs', 0)}/{info.get('dist', 0)} checks, "
            f"separable {info.get('separable', 0)}, good runs {info.get('good', 0)}, "
            f"{info.get('elapsed', '?')}s)"
        )

    with verdict(label) as info:
        t0 = time.monotonic()
        info["corners"] = _corner_nestedness_suite()
        info["maximal"] = _maximal_closeness_suite()
        randomized = (
            _inheritance_suite()
            + _guarded_inf_suite()
            + _nested_restriction_maxima_suite()
        )
        assert randomized >= 500
        info["randomized"] = randomized
        graphs, checks = _efficient_distinguisher_suite()
        assert graphs >= 50
        info["graphs"], info["dist"] = graphs, checks
        info["separable"] = _separability_suite()
        assert info["separable"] >= 50
        info["good"] = _good_live_assert_suite()
        info["elapsed"] = round(time.monotonic() - t0, 2)


# -- criterion 4 --


def test_criterion_4_construction_post_checks():
    def label(info):
        return (
            "criterion 4: construction post-checks hold on "
            f"{info.get('n', 0)} corpus instances ({info.get('elapsed', '?')}s)"
        )

    with verdict(label) as info:
        t0 = time.monotonic()
        n = 0
        for name, S, profs in corpus():
            res = canonical.canonical_nested_set(S, profs)
            for rec in res.records:
                # distinguisher chosen for P stays closely related to P
                assert refine.closely_related(S, rec.chosen, rec.profile), name
                # and P lives at the node carrying it
                node = trees.lives_at(S, rec.profile, res.nested)
                assert rec.chosen in node, name
            assert (
                oracles.inessential_closeness_violation(
                    S, res.nested, profs, CAPS
                )
                is None
            ), name
            g = canonical.good_nested_set(S, profs)
            assert (
                orient.undistinguished_pair(S, g.nested.members, profs)
                is None
            ), name
            for s in g.nested.members:
                assert refine.good(S, s, profs), name
            n += 1
        info["n"] = n
        info["elapsed"] = round(time.monotonic() - t0, 2)


# -- criterion 5 --


def test_criterion_5_canonicity_orbits():
    def label(info):
        return (
            "criterion 5: byte-exact canonicity on "
            f"{info.get('tripod', 0)} tripod orbits and "
            f"{info.get('random', 0)} random instances "
            f"({info.get('elapsed', '?')}s)"
        )

    with verdict(label) as info:
        t0 = time.monotonic()
        can = lambda S_, ps: canonical.canonical_nested_set(S_, ps)
        good = lambda S_, ps: canonical.good_nested_set(S_, ps)

        # the tripod's clique-permuting automorphisms
        S, fam, tangles = graph_instance(tripod_edges(), 3)
        tripod_orbits = 0
        for pa, pb, pc in permutations("abc"):
            perm = {"v": "v"}
            for old, new in zip("abc", (pa, pb, pc)):
                for i in range(1, 5):
                    perm[f"{old}{i}"] = f"{new}{i}"
            iso = graphsep.vertex_isomorphism(S, S, perm)
            assert canonical.check_canonicity(can, iso, tangles)
            assert canonical.check_canonicity(
                good, iso, tangles, require_lattice=True
            )
            tripod_orbits += 1
        info["tripod"] = tripod_orbits

        done = 0
        # mirrored graphs: two copies of a random core glued at a hub,
        # swapped by construction
        seed = 0
        while done < 12 and seed < 100:
            rng = random.Random(seed)
            seed += 1
            core = randomgen.random_connected_graph(
                rng, rng.randint(2, 4), extra=rng.randint(0, 1)
            )
            edges = []
            for side in ("L", "R"):
                for u, v in core.edges:
                    edges.append((side + u, side + v))
                edges.append(("h", side + core.vertices[0]))
            Sm, fm, tg = graph_instance(edges, 2)
            if len(tg) < 2:
                continue
            perm = {"h": "h"}
            for v in core.vertices:
                perm["L" + v] = "R" + v
                perm["R" + v] = "L" + v
            iso = graphsep.vertex_isomorphism(Sm, Sm, perm)
            assert canonical.check_canonicity(can, iso, tg), seed - 1
            assert canonical.check_canonicity(
                good, iso, tg, require_lattice=True
            ), seed - 1
            done += 1

        # cut universes built to be invariant under swapping two halves
        seed = 0
        swaps = 0
        while swaps < 10 and seed < 200:
            rng = random.Random(seed)
            seed += 1
            U, pm = randomgen.swap_invariant_cut_universe(rng, 2)
            orders = sorted({U.order(m) for m in U.elements()})
            S2 = None
            for k in orders[1:]:
                cand = order_filtered_system(U, k)
                if len(cand) > 10:
                    break
                S2 = cand
            if S2 is None or not S2.is_submodular():
                continue
            mapping = {m: pm(m) for m in S2.oriented}
            if set(mapping.values()) != set(S2.oriented):
                continue
            iso = canonical.Isomorphism(S2, S2, mapping)
            fam2 = orient.profile_star_family(S2)
            profs = orient.enumerate_tangles(S2, fam2, CAPS)
            if len(profs) < 2:
                continue
            assert canonical.check_canonicity(can, iso, profs), seed - 1
            if iso.lattice_violation() is None:
                assert canonical.check_canonicity(
                    good, iso, profs, require_lattice=True
                ), seed - 1
            swaps += 1

        info["random"] = done + swaps
        assert info["random"] >= 20
        info["elapsed"] = round(time.monotonic() - t0, 2)


# -- criterion 6 --


def refinement_instances():
    for name, edges, k in (
        ("p3", [("a", "b"), ("b", "c")], 2),
        ("p4", [("a", "b"), ("b", "c"), ("c", "d")], 2),
        ("triangle-tripod", triangle_tripod_edges(), 2),
        ("tripod", tripod_edges(), 3),
    ):
        S, fam, tg = graph_instance(edges, k)
        if tg:
            yield name, S, fam, tg
    # shift-closed random families whose tangles are all profiles; the
    # first four seeds are pinned because they make the refinement grow
    for seed in (248, 421, 1204, 1235, 0, 5, 9, 13, 14, 18, 21, 32):
        inst = randomgen.random_duality_instance(seed)
        if inst is None:
            continue
        S, fam = inst
        tg = orient.enumerate_tangles(S, fam, CAPS)
        if not tg:
            continue
        if any(orient.profile_violation(S, O) is not None for O in tg):
            continue
        yield f"cut-{seed}", S, fam, tg


def test_criterion_6_refinement_end_to_end():
    def label(info):
        return (
            "criterion 6: refinement verified on "
            f"{info.get('n', 0)} instances, {info.get('grew', 0)} grew, "
            f"single-inessential observation held on all "
            f"({info.get('elapsed', '?')}s)"
        )

    with verdict(label) as info:
        t0 = time.monotonic()
        n = grew = 0
        for name, S, fam, tangles in refinement_instances():
            base = canonical.canonical_nested_set(S, tangles).nested
            out = refine.refine_treeset(S, base, fam, tangles=tangles, caps=CAPS)
            assert out.refined.members >= base.members, name
            if out.refined.members > base.members:
                grew += 1
            # independent revalidation: recompute homes and node stars
            homes = {trees.lives_at(S, O, out.refined) for O in tangles}
            for node in trees.nodes_of(out.refined, CAPS):
                assert node in homes or node in fam.stars, name
            print(
                f"    {name}: base {len(base.members)} -> refined "
                f"{len(out.refined.members)}, inessential "
                f"{len(out.inessential)}",
                flush=True,
            )
            assert out.at_most_one_inessential, name
            n += 1
        assert grew >= 1
        info.update(n=n, grew=grew)
        info["elapsed"] = round(time.monotonic() - t0, 2)


# -- criterion 7 --


def build_artifacts(builder):
    """Construct an instance from scratch and serialize everything we
    ship: nested set, tree, tangles."""
    S, fam, tangles = builder()
    res = canonical.canonical_nested_set(S, tangles)
    parts = [canonical.serialize_nested(S, res.nested.members)]
    if res.nested.is_treeset():
        T = trees.treeset_to_stree(res.nested, CAPS)
        parts.append(io.dump_json(io.stree_to_json(T)))
    parts.append(
        io.dump_json([io.orientation_to_json(S, O) for O in tangles])
    )
    return "\n".join(parts)


# the directory holding the tangletree package this process imported, so
# CLI children run the code under test from a checkout or an install alike
PACKAGE_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(tangletree.__file__))
)


def python_stdout(argv, hashseed):
    """Run a child interpreter whose environment holds only the hash seed
    and the import path, nothing inherited from the parent."""
    env = {
        "PYTHONHASHSEED": str(hashseed),
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": PACKAGE_ROOT,
    }
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def cli_bytes(args, hashseed):
    return python_stdout(["-m", "tangletree.cli", *args], hashseed)


def test_criterion_7_determinism(tmp_path):
    def label(info):
        return (
            "criterion 7: byte-identical artifacts on "
            f"{info.get('n', 0)} rebuilt instances and CLI runs across "
            f"hash seeds and job counts ({info.get('elapsed', '?')}s)"
        )

    with verdict(label) as info:
        t0 = time.monotonic()
        n = 0
        for name, build in NAMED_BUILDERS:
            S, fam, tangles = build()
            if len(tangles) < 2:
                continue
            first = build_artifacts(build)
            second = build_artifacts(build)
            assert first == second, name
            n += 1
        for name, S, profs in cut_profile_instances(10):
            a = canonical.serialize_nested(
                S, canonical.canonical_nested_set(S, profs).nested.members
            )
            b = canonical.serialize_nested(
                S, canonical.canonical_nested_set(S, profs).nested.members
            )
            assert a == b, name
            n += 1
        info["n"] = n

        tripod_file = tmp_path / "tripod.txt"
        tripod_file.write_text(
            "".join(f"{u} {v}\n" for u, v in tripod_edges())
        )
        path4 = tmp_path / "path4.txt"
        path4.write_text("a b\nb c\nc d\n")

        # a stale installed copy must not stand in for the tested code
        child = python_stdout(
            ["-c", "import tangletree; print(tangletree.__file__)"], 0
        ).decode().strip()
        assert os.path.realpath(child) == os.path.realpath(
            tangletree.__file__
        ), child

        # distinct interpreter hash seeds, identical bytes
        args = [
            "tree-of-tangles", str(tripod_file), "--k", "3",
            "--max-seps", "200", "--format", "json", "--trace",
        ]
        assert cli_bytes(args, 0) == cli_bytes(args, 1)
        args = ["tangles", str(path4), "--k", "2", "--format", "json"]
        assert cli_bytes(args, 0) == cli_bytes(args, 2)

        # worker count must not change output
        check = ["check", str(path4), "--k", "2"]
        assert cli_bytes(check + ["--jobs", "1"], 0) == cli_bytes(
            check + ["--jobs", "4"], 0
        )
        info["elapsed"] = round(time.monotonic() - t0, 2)
