"""Nested sets, splitting stars, and S-trees."""

import pytest

from tangletree import trees
from tangletree.config import Caps
from tangletree.core import SeparationSystem, TablePoset
from tangletree.errors import InputError, ResourceCapError

import oracles
from conftest import away_from


@pytest.fixture()
def n2(u4, s4):
    """The two-separation tree set {a}|{b,c,d}, {b}|{a,c,d}."""
    return trees.NestedSet(s4, [u4.mask_of(["a"]), u4.mask_of(["b"])])


def test_nested_set_rejects_crossing(u4, s4):
    with pytest.raises(InputError):
        trees.NestedSet(s4, [u4.mask_of(["a", "b"]), u4.mask_of(["b", "c"])])


def test_nested_set_canonicalizes(u4, s4):
    a = u4.mask_of(["a"])
    N1 = trees.NestedSet(s4, [a])
    N2 = trees.NestedSet(s4, [u4.invert(a)])
    assert N1 == N2 and a in N1


def test_three_nodes_of_two_leaf_separations(u4, s4, n2):
    a, b = u4.mask_of(["a"]), u4.mask_of(["b"])
    nodes = trees.nodes_of(n2)
    assert set(nodes) == {
        frozenset((a, b)),
        frozenset((u4.invert(a),)),
        frozenset((u4.invert(b),)),
    }


def test_lives_at_frozen(u4, s4, n2):
    a, b = u4.mask_of(["a"]), u4.mask_of(["b"])
    # the two point-profiles behind a and b go to their leaves,
    # the other two share the middle node
    assert trees.lives_at(s4, away_from(u4, "a"), n2) == frozenset((u4.invert(a),))
    assert trees.lives_at(s4, away_from(u4, "b"), n2) == frozenset((u4.invert(b),))
    for x in "cd":
        assert trees.lives_at(s4, away_from(u4, x), n2) == frozenset((a, b))


def test_essential_split(u4, s4, n2):
    profs = [away_from(u4, x) for x in "abcd"]
    split = trees.essential_nodes(s4, n2, profs)
    assert len(split.essential) == 3 and not split.inessential
    # dropping the middle dwellers leaves the middle node inessential
    split = trees.essential_nodes(s4, n2, profs[:2])
    assert len(split.inessential) == 1
    assert split.inessential[0] == frozenset(
        (u4.mask_of(["a"]), u4.mask_of(["b"]))
    )


def test_treeset_flags(u4, s4, n2):
    assert n2.is_treeset()
    withtrivial = n2.union([0])  # the empty side is trivial here
    assert withtrivial.treeset_violation() is not None
    assert not withtrivial.is_treeset()
    # nodes still enumerable: trivial members are tolerated, never surface
    nodes = trees.nodes_of(withtrivial)
    assert all(0 not in node for node in nodes)


def test_nodes_reject_degenerate():
    U = TablePoset(3, [2, 1, 0], [(0, 1), (1, 2)])
    S = SeparationSystem(U, [0, 1, 2])
    N = trees.NestedSet(S, [1])
    with pytest.raises(InputError):
        trees.nodes_of(N)


def test_stree_roundtrip(u4, s4, n2):
    T = trees.treeset_to_stree(n2)
    assert T.n == 3
    assert len(T.edges) == 2
    assert {u4.canon(x) for x in T.alpha.values()} == set(n2.members)
    assert T.validate().all_good()
    back = oracles.stree_to_treeset(T)
    assert back.members == n2.members


def test_stree_leaves_and_stars(u4, s4, n2):
    T = trees.treeset_to_stree(n2)
    assert len(T.leaves()) == 2
    assert len(T.leaf_separations()) == 2
    for v in range(T.n):
        assert oracles.is_star(u4, T.star_at(v))


def test_stree_canonical_encoding_stable(u4, s4, n2):
    T1 = trees.treeset_to_stree(n2)
    T2 = trees.treeset_to_stree(trees.NestedSet(s4, list(reversed(list(n2)))))
    assert oracles.canonical_encoding(T1) == oracles.canonical_encoding(T2)
    assert oracles.stree_isomorphic(T1, T2)


def test_stree_edge_order(u4, s4, n2):
    T = trees.treeset_to_stree(n2)
    for u, v in T.directed_edges():
        x = T.alpha[(u, v)]
        assert T.alpha[(v, u)] == u4.invert(x)


def test_tree_cap(u4, s4, n2):
    tight = Caps(
        max_unoriented=300,
        max_states=10_000,
        max_tree_nodes=1,
        max_results=10_000,
        full_shift_check_limit=4,
    )
    with pytest.raises(ResourceCapError):
        trees.treeset_to_stree(n2, tight)


def test_irredundant_reduction_no_op(u4, s4, n2):
    T = trees.treeset_to_stree(n2)
    R = trees.irredundant_reduction(T, keep=tuple(T.leaf_separations()))
    assert oracles.canonical_encoding(R) == oracles.canonical_encoding(T)
