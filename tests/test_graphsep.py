"""Graph separations: systems, covering stars, tangles, decompositions."""

import random
from dataclasses import replace
from itertools import combinations

import pytest

from tangletree import canonical, duality, graphsep, orient, trees
from tangletree.errors import InputError, ResourceCapError

import oracles
from conftest import BIG_CAPS, tripod_edges
from oracles import verify_universe_laws


@pytest.fixture(scope="module")
def p3_graph():
    return graphsep.Graph.from_edges([("a", "b"), ("b", "c")])


@pytest.fixture(scope="module")
def p4_graph():
    return graphsep.Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])


# -- Graph basics --


def test_graph_construction_dedups_and_sorts():
    g = graphsep.Graph(["b", "a", "c"], [("a", "b"), ("b", "a"), ("b", "c")])
    assert g.vertices == ("a", "b", "c")
    assert g.edges == (("a", "b"), ("b", "c"))
    assert g.n == 3


def test_graph_rejects_loops_and_stray_endpoints():
    with pytest.raises(InputError):
        graphsep.Graph(["a"], [("a", "a")])
    with pytest.raises(InputError):
        graphsep.Graph(["a", "b"], [("a", "z")])


def test_from_edges_with_isolated_vertex():
    g = graphsep.Graph.from_edges([("a", "b")], isolated=("z",))
    assert g.vertices == ("a", "b", "z")
    assert not g.is_connected()


def test_mask_round_trip(p3_graph):
    g = p3_graph
    m = g.mask_of(["a", "c"])
    assert g.names_of(m) == ("a", "c")
    assert g.mask_of(g.names_of(g.full_mask)) == g.full_mask
    with pytest.raises(InputError):
        g.mask_of(["q"])


def test_components(p3_graph):
    g = p3_graph
    assert g.components(g.full_mask) == [g.full_mask]
    # drop the middle vertex: two singleton components
    rest = g.mask_of(["a", "c"])
    assert sorted(g.components(rest)) == sorted(
        [g.mask_of(["a"]), g.mask_of(["c"])]
    )
    assert g.is_connected()


def test_crossing_edge(p3_graph):
    g = p3_graph
    assert g.crossing_edge(g.mask_of("a"), g.mask_of("bc")) == ("a", "b")
    assert g.crossing_edge(g.mask_of("ab"), g.mask_of("bc")) is None


# -- GraphUniverse --


def test_graph_universe_laws(p3_graph):
    U = graphsep.GraphUniverse(p3_graph)
    els = U.elements()
    assert len(els) == 17
    assert all(U.is_element(x) for x in els)
    verify_universe_laws(U, els)


def test_graph_universe_rejects_crossing_pairs(p3_graph):
    g = p3_graph
    U = graphsep.GraphUniverse(g)
    # ({a},{b,c}) leaves edge ab uncovered on both sides
    assert not U.is_element((g.mask_of("a"), g.mask_of("bc")))
    assert U.is_element((g.mask_of("ab"), g.mask_of("bc")))


def test_graph_universe_order_is_separator_size(p3_graph):
    g = p3_graph
    U = graphsep.GraphUniverse(g)
    assert U.order((g.mask_of("ab"), g.mask_of("bc"))) == 1
    assert U.order((g.full_mask, g.full_mask)) == 3
    assert U.order((0, g.full_mask)) == 0


def test_graph_universe_enumeration_capped():
    big = graphsep.Graph.from_edges(
        [(i, i + 1) for i in range(13)]
    )
    with pytest.raises(ResourceCapError):
        graphsep.GraphUniverse(big).elements()


# -- separation systems --


def test_system_sizes_frozen(p3_graph, p4_graph, triangle_tripod, tripod):
    assert len(graphsep.graph_separation_system(p3_graph, 2, BIG_CAPS)) == 5
    assert len(graphsep.graph_separation_system(p4_graph, 2, BIG_CAPS)) == 7
    _, S_tt, _ = triangle_tripod
    assert len(S_tt) == 11
    _, S_tri, _ = tripod
    assert len(S_tri) == 131


def test_system_is_submodular(p4_graph):
    S = graphsep.graph_separation_system(p4_graph, 2, BIG_CAPS)
    assert S.is_submodular()
    U = S.universe
    assert all(U.invert(x) in S.members for x in S.oriented)


def test_graph_separation_system_rejects_bad_k(p3_graph):
    with pytest.raises(InputError):
        graphsep.graph_separation_system(p3_graph, 0, BIG_CAPS)
    with pytest.raises(InputError):
        graphsep.graph_separation_system(p3_graph, "2", BIG_CAPS)


# -- covering star families --


def test_tk_star_family_is_stars_only(p3_graph):
    S = graphsep.graph_separation_system(p3_graph, 2, BIG_CAPS)
    fam = graphsep.tk_star_family(p3_graph, 2, S, BIG_CAPS)
    assert fam.stars_only
    assert len(fam) == 17
    assert fam.closed_under_shifting is True


def test_tk_star_closure_flag_holds_on_small_instances(p3_graph, p4_graph):
    # the flag is set by theorem; spot-check it exhaustively while cheap
    for g in (p3_graph, p4_graph):
        S = graphsep.graph_separation_system(g, 2, BIG_CAPS)
        fam = graphsep.tk_star_family(g, 2, S, BIG_CAPS)
        assert duality.check_closed_under_shifting(S, fam)


def test_tk_star_family_rejects_large_k(p3_graph):
    with pytest.raises(InputError):
        graphsep.tk_star_family(p3_graph, 4, caps=BIG_CAPS)


def test_tk_star_family_is_standard(p3_graph):
    S = graphsep.graph_separation_system(p3_graph, 2, BIG_CAPS)
    fam = graphsep.tk_star_family(p3_graph, 2, S, BIG_CAPS)
    report = orient.check_star_family(fam)
    assert report.standard


def _literal_covering_stars(G, S):
    """Every subset of S.oriented of size at most three that passes
    star_violation and whose A sides cover all vertices and edges."""
    U = S.universe
    ends = [G.mask_of(e) for e in G.edges]
    out = set()
    for size in (1, 2, 3):
        for sigma in combinations(S.oriented, size):
            a = 0
            for x in sigma:
                a |= x[0]
            if a != G.full_mask:
                continue
            if not all(any(x[0] & m == m for x in sigma) for m in ends):
                continue
            if oracles.star_violation(U, sigma) is None:
                out.add(frozenset(sigma))
    return out


def test_tk_star_family_matches_literal_oracle():
    # seeded graphs on up to 7 vertices, isolated vertices and disconnected
    # graphs included; systems above 40 oriented members are skipped, as
    # the oracle scans every triple
    rng = random.Random(2024)
    tested = {1: 0, 2: 0, 3: 0}
    isolated = disconnected = 0
    for _ in range(60):
        n = rng.randint(1, 7)
        p = rng.choice((0.2, 0.4, 0.6, 0.9))
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        G = graphsep.Graph(range(n), edges)
        for k in range(1, min(3, n) + 1):
            S = graphsep.graph_separation_system(G, k, BIG_CAPS)
            if len(S.oriented) > 40:
                continue
            fam = graphsep.tk_star_family(G, k, S, BIG_CAPS)
            assert fam.stars == _literal_covering_stars(G, S), (n, edges, k)
            tested[k] += 1
            isolated += 0 in G.adj
            disconnected += not G.is_connected()
    assert min(tested.values()) >= 10
    assert isolated >= 10 and disconnected >= 10


def test_tk_star_family_cap_is_exact(tripod):
    G, S, fam = tripod
    at_cap = replace(BIG_CAPS, max_results=len(fam))
    assert graphsep.tk_star_family(G, 3, S, at_cap).stars == fam.stars
    with pytest.raises(ResourceCapError):
        graphsep.tk_star_family(
            G, 3, S, replace(BIG_CAPS, max_results=len(fam) - 1)
        )


# -- tangles --


def test_block_counts_as_tangles(p3_graph, p4_graph):
    # order-2 tangles of a forest-of-blocks line up with its blocks
    _, _, t3 = graphsep.graph_tangles(p3_graph, 2, caps=BIG_CAPS)
    assert len(t3) == 2
    _, _, t4 = graphsep.graph_tangles(p4_graph, 2, caps=BIG_CAPS)
    assert len(t4) == 3
    k3 = graphsep.Graph.from_edges([("x", "y"), ("y", "z"), ("x", "z")])
    _, _, t1 = graphsep.graph_tangles(k3, 2, caps=BIG_CAPS)
    assert len(t1) == 1


def test_tripod_has_three_tangles(tripod):
    G, S, fam = tripod
    tangles = orient.enumerate_tangles(S, fam, BIG_CAPS)
    assert len(tangles) == 3
    for T in tangles:
        assert oracles.is_f_tangle(S, T, fam)


def test_triangle_tripod_matches_literal_oracle(triangle_tripod):
    # |S| = 11 here, so the 2^|S| loop is an honest independent oracle
    G, S, fam = triangle_tripod
    tangles = orient.enumerate_tangles(S, fam, BIG_CAPS)
    literal = oracles.literal_tangles(S, fam, BIG_CAPS)
    assert set(literal) == set(tangles)
    assert len(literal) == 3


def test_tangles_avoid_every_star(p4_graph):
    S, fam, tangles = graphsep.graph_tangles(p4_graph, 2, caps=BIG_CAPS)
    for T in tangles:
        for sigma in fam:
            assert not sigma <= T


# -- decompositions --


def test_p4_decomposition(p4_graph):
    S, fam, tangles = graphsep.graph_tangles(p4_graph, 2, caps=BIG_CAPS)
    res = canonical.canonical_nested_set(S, tangles, BIG_CAPS)
    dec = graphsep.decomposition_export(trees.treeset_to_stree(res.nested, BIG_CAPS))
    assert sorted(dec.parts) == [("a", "b"), ("b", "c"), ("c", "d")]
    assert dec.width() == 1
    assert dec.tree.n == 3
    js = dec.to_json()
    assert js["width"] == 1
    assert len(js["edges"]) == 2


def test_empty_nested_set_gives_one_part(p4_graph):
    S = graphsep.graph_separation_system(p4_graph, 2, BIG_CAPS)
    dec = graphsep.decomposition_export(
        trees.treeset_to_stree(trees.NestedSet(S, []), BIG_CAPS))
    assert dec.parts == (("a", "b", "c", "d"),)
    assert dec.width() == 3


def test_decomposition_needs_graph_system(s4):
    with pytest.raises(InputError):
        graphsep.decomposition_export(
            trees.treeset_to_stree(trees.NestedSet(s4, []), BIG_CAPS))


def test_tripod_decomposition_parts(tripod):
    G, S, fam = tripod
    tangles = orient.enumerate_tangles(S, fam, BIG_CAPS)
    res = canonical.canonical_nested_set(S, tangles, BIG_CAPS)
    dec = graphsep.decomposition_export(trees.treeset_to_stree(res.nested, BIG_CAPS))
    parts = sorted(dec.parts)
    # hub part {v} plus one five-vertex part per blob
    assert ("v",) in dec.parts
    blobs = [p for p in parts if len(p) == 5]
    assert len(blobs) == 3
    assert all("v" in p for p in blobs)
    assert dec.width() == 4


# -- isomorphism lifting --


def test_vertex_isomorphism_reversal(p3_graph):
    S = graphsep.graph_separation_system(p3_graph, 2, BIG_CAPS)
    iso = graphsep.vertex_isomorphism(S, S, {"a": "c", "b": "b", "c": "a"})
    assert iso.lattice_violation() is None
    fam = graphsep.tk_star_family(p3_graph, 2, S, BIG_CAPS)
    profs = orient.enumerate_tangles(S, fam, BIG_CAPS)
    builder = lambda S_, ps: canonical.canonical_nested_set(S_, ps, BIG_CAPS)
    assert canonical.check_canonicity(builder, iso, profs)


def test_vertex_isomorphism_rejects_non_automorphism(p3_graph):
    S = graphsep.graph_separation_system(p3_graph, 2, BIG_CAPS)
    # swapping an end with the middle does not preserve the edge set
    with pytest.raises(InputError):
        graphsep.vertex_isomorphism(S, S, {"a": "b", "b": "a", "c": "c"})


def test_tripod_blob_rotation_is_automorphism(tripod):
    G, S, fam = tripod
    perm = {}
    for v in G.vertices:
        if v == "v":
            perm[v] = v
        else:
            blob, idx = v[0], v[1:]
            nxt = {"a": "b", "b": "c", "c": "a"}[blob]
            perm[v] = nxt + idx
    iso = graphsep.vertex_isomorphism(S, S, perm)
    tangles = orient.enumerate_tangles(S, fam, BIG_CAPS)
    mapped = {frozenset(iso.mapping[x] for x in T) for T in tangles}
    assert mapped == set(tangles)
