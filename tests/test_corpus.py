"""Answers known from outside the code's own definitions.

Branchwidth: by Robertson and Seymour (Graph Minors X) the largest order
of a tangle of a graph is its branchwidth, so `duality` at k = bw finds a
tangle and at k = bw + 1 a tree over the tk-star family.  The tree is
revalidated here from the JSON alone, and the tangle is checked against
the definition: one orientation per separation, and no three small sides
that cover the graph.

Separation counts: a networkx recount of the separations of order below
k, by the formula of `benchmark/checks.py` (`separation_count`).
"""

import json
from itertools import combinations, combinations_with_replacement

import pytest

from tangletree import graphsep
from tangletree.cli import main

from conftest import BIG_CAPS, BRANCHWIDTH

nx = pytest.importorskip("networkx")


def separation_count(G, k):
    """Unoriented separations of order below k, and oriented ones, of the
    networkx graph G.  A separator X colours each component of G - X with
    a side, so X gives 2^c oriented separations, where c counts those
    components; only (V, V) is its own inverse."""
    vertices = sorted(G.nodes)
    oriented = degenerate = 0
    for size in range(min(k, len(vertices) + 1)):
        for X in combinations(vertices, size):
            rest = G.subgraph(set(vertices) - set(X))
            oriented += 2 ** nx.number_connected_components(rest)
            degenerate += rest.number_of_nodes() == 0
    return (oriented + degenerate) // 2, oriented


def _duality(capsys, tmp_path, edges, k):
    f = tmp_path / "graph.txt"
    f.write_text("".join(f"{u} {v}\n" for u, v in edges))
    argv = ["duality", str(f), "--k", str(k), "--max-seps", "2000", "--format", "json"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out)


class _Sides:
    """Vertex and edge masks of the small sides of separations (A, B)."""

    def __init__(self, edges, k):
        self.k = k
        self.vertices = sorted({v for e in edges for v in e})
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.edges = [(self.index[u], self.index[v]) for u, v in edges]
        self.full_v = (1 << len(self.vertices)) - 1
        self.full_e = (1 << len(self.edges)) - 1

    def separation(self, label):
        """(A mask, B mask, mask of the edges inside A), after checking
        that the label is a separation of order below k."""
        a, b = (sum(1 << self.index[v] for v in side) for side in label)
        assert a | b == self.full_v, label
        assert bin(a & b).count("1") < self.k, label
        left, right = a & ~b, b & ~a
        inside = 0
        for i, (u, v) in enumerate(self.edges):
            ends = 1 << u | 1 << v
            assert not (left & ends and right & ends), label
            if a & ends == ends:
                inside |= 1 << i
        return a, b, inside

    def cover(self, seps):
        """True iff the small sides of seps cover every vertex and edge."""
        v = e = 0
        for a, _, inside in seps:
            v |= a
            e |= inside
        return v == self.full_v and e == self.full_e


def _tree_problems(sides, tree):
    """The tree's JSON as a certificate: a tree whose edges carry inverse
    labels, every label a separation of order below k, and the labels
    into each node a star of at most three members whose small sides
    cover the graph."""
    n = tree["vertices"]
    labels = {(e["from"], e["to"]): tuple(map(tuple, e["label"])) for e in tree["edges"]}
    graph = nx.Graph(list(labels))
    graph.add_nodes_from(range(n))
    problems = []
    if not nx.is_tree(graph):
        problems.append("not a tree")
    into = {v: [] for v in range(n)}
    for (u, v), label in labels.items():
        if labels.get((v, u)) != label[::-1]:
            problems.append(f"edge {u}-{v} lacks the inverse label")
        into[v].append(sides.separation(label))
    for v, star in into.items():
        if len(star) > 3 or not sides.cover(star):
            problems.append(f"node {v} has no covering star")
        for (a, b, _), (c, d, _) in combinations(star, 2):
            if a & ~d or c & ~b:
                problems.append(f"the labels into node {v} are not a star")
    return problems


@pytest.mark.parametrize("name", sorted(BRANCHWIDTH))
def test_duality_finds_a_tangle_exactly_up_to_the_branchwidth(capsys, tmp_path, name):
    edges, bw = BRANCHWIDTH[name]
    sides = _Sides(edges, bw)
    got = _duality(capsys, tmp_path, edges, bw)
    assert got["kind"] == "tangle"
    tangle = [sides.separation(label) for label in got["tangle"]]
    assert len(tangle) == separation_count(nx.Graph(edges), bw)[0]
    assert not any(sides.cover(t) for t in combinations_with_replacement(tangle, 3))

    sides = _Sides(edges, bw + 1)
    got = _duality(capsys, tmp_path, edges, bw + 1)
    assert got["kind"] == "tree"
    assert _tree_problems(sides, got["tree"]) == []


def test_separation_counts_match_a_networkx_recount():
    checked = 0
    for seed in range(24):
        G = nx.gnp_random_graph(1 + seed % 9, 0.2 + seed % 4 * 0.15, seed=seed)
        ours = graphsep.Graph(list(G.nodes), list(G.edges))
        for k in (1, 2, 3):
            S = graphsep.graph_separation_system(ours, k, BIG_CAPS)
            assert (len(S), len(S.oriented)) == separation_count(G, k), (seed, k)
            checked += len(S) > 1
    assert checked >= 40
