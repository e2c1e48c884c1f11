"""The duality decision asks for the cover fixpoint's tree before any
tangle search.  An F-tangle orients every edge of an S-tree over F, and
the node those orientations lead to has its star in the tangle, so a
tree rules every tangle out: the verdict, the tangle and the tree are
those of the search-first order (oracles.search_first_decide), and
neither a tree verdict nor refinement runs a tangle search over a
family.  test_duality.py compares cover_tree with that order on a family
that is not closed under shifting."""

from dataclasses import replace
from itertools import combinations

import pytest

from tangletree import canonical, duality, graphsep, orient, randomgen, refine

import oracles
from conftest import BIG_CAPS, BRANCHWIDTH

CAPS = replace(BIG_CAPS, max_unoriented=2000)


@pytest.fixture()
def searches(monkeypatch):
    """The families given to orient.enumerate_tangles, one per call."""
    seen = []
    search = orient.enumerate_tangles

    def counted(S, family, *args, **kwargs):
        if family is not None:
            seen.append(family)
        return search(S, family, *args, **kwargs)

    monkeypatch.setattr(orient, "enumerate_tangles", counted)
    return seen


def _clique_edges(blocks):
    return [e for block in blocks for e in combinations(block, 2)]


def _glued(blobs, clique):
    """blobs cliques of the given size sharing one hub vertex."""
    return _clique_edges(
        [["hub"] + [f"b{b}x{i}" for i in range(1, clique)] for b in range(blobs)]
    )


def _chain(length):
    """K4s in a row, consecutive ones sharing a single vertex."""
    return _clique_edges(
        [[f"h{b}", f"c{b}a", f"c{b}b", f"h{b + 1}"] for b in range(length)]
    )


# the shapes of the benchmark's graph ladder, all taken at k = 3
LADDER = {
    "3xK5": _glued(3, 5),
    "4xK4": _glued(4, 4),
    "4xK5": _glued(4, 5),
    "chain4xK4": _chain(4),
    "5xK3": _glued(5, 3),
    "6xK3": _glued(6, 3),
}


def _graph_case(edges, k):
    G = graphsep.Graph.from_edges(edges)
    S = graphsep.graph_separation_system(G, k, CAPS)
    return S, graphsep.tk_star_family(G, k, S, CAPS)


def _decide_alike(searches, S, fam):
    """Assert that both orders give the same answer; return its kind."""
    before = len(searches)
    got = duality.duality_decide(S, fam, CAPS)
    ran = len(searches) - before
    want = oracles.search_first_decide(S, fam, CAPS)
    assert got.kind == want.kind
    if got.kind == "tangle":
        assert ran == 1 and got.tangle == want.tangle
    else:
        assert ran == 0
        assert (got.tree.n, got.tree.alpha) == (want.tree.n, want.tree.alpha)
    return got.kind


@pytest.mark.parametrize("name", sorted(BRANCHWIDTH))
def test_corpus_graphs_decide_alike_at_and_above_the_branchwidth(searches, name):
    edges, bw = BRANCHWIDTH[name]
    assert _decide_alike(searches, *_graph_case(edges, bw)) == "tangle"
    assert _decide_alike(searches, *_graph_case(edges, bw + 1)) == "tree"


def test_random_instances_decide_alike(searches):
    kinds = {"tangle": 0, "tree": 0}
    for points in ("pqrs", "pqrst"):
        for seed in range(200):
            inst = randomgen.random_duality_instance(seed, tuple(points))
            if inst is not None:
                kinds[_decide_alike(searches, *inst)] += 1
    assert kinds["tangle"] and kinds["tree"]


def test_the_graph_ladder_decides_alike(searches):
    kinds = [_decide_alike(searches, *_graph_case(LADDER[name], 3)) for name in LADDER]
    assert kinds == ["tangle"] * 4 + ["tree"] * 2


def test_refinement_runs_no_tangle_search(searches, monkeypatch):
    star = refine.refine_star
    inside = []

    def counted(*args, **kwargs):
        before = len(searches)
        out = star(*args, **kwargs)
        inside.append(len(searches) - before)
        return out

    monkeypatch.setattr(refine, "refine_star", counted)
    for name in ("3xK5", "4xK4", "4xK5", "chain4xK4"):
        S, fam = _graph_case(LADDER[name], 3)
        tangles = orient.enumerate_tangles(S, fam, CAPS)
        res = canonical.canonical_nested_set(S, tangles, CAPS)
        refine.refine_treeset(S, res.nested, fam, tangles=tangles, caps=CAPS)
    assert inside and inside == [0] * len(inside)
