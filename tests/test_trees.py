"""Nested sets, splitting stars, and S-trees."""

import pytest

from tangletree import trees
from tangletree.config import Caps
from tangletree.core import SeparationSystem, TablePoset
from tangletree.errors import DomainError, InputError, ResourceCapError

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


# -- hand-built S-trees: the structural refusals and every reduction move --
# Labels are masks of the first side over a, b, c, d: 1 = {a}, 2 = {b},
# 3 = {a,b}; the inverse of m is 15 ^ m.


def _edges(labels):
    """alpha from one label per edge, pointing from u to v, and its inverse."""
    alpha = dict(labels)
    alpha.update({(v, u): 15 ^ lab for (u, v), lab in labels.items()})
    return alpha


@pytest.mark.parametrize(
    "n, alpha, message",
    [
        (0, {}, "an S-tree needs at least one vertex"),
        (2, {(0, 2): 1, (2, 0): 14}, "bad edge (0,2)"),
        (2, {(1, 1): 1}, "bad edge (1,1)"),
        (2, {(0, 1): "x", (1, 0): 14}, "'x' is not in the system"),
        (2, {(0, 1): 1}, "edge 0-1 labelled in one direction only"),
        (2, {(0, 1): 1, (1, 0): 1}, "labels of edge 0-1 are not inverse"),
        (3, _edges({(0, 1): 1}), "edge count does not match a tree"),
        (4, _edges({(0, 1): 1, (1, 2): 3, (2, 0): 2}), "tree is not connected"),
    ],
)
def test_stree_structural_refusals(s4, n, alpha, message):
    with pytest.raises(InputError) as exc:
        trees.STree(s4, n, alpha)
    assert str(exc.value) == message


def test_reduction_move_a_drops_a_duplicate_branch(s4):
    # the leaves 1 and 2 both hang from 0 by {a}: the later one goes
    T = trees.STree(s4, 4, _edges({(1, 0): 1, (2, 0): 1, (3, 0): 2}))
    R = trees.irredundant_reduction(T)
    assert R.n == 3 and R.alpha == _edges({(1, 0): 1, (2, 0): 2})
    # a kept label in the later branch: the earlier one (vertices 1, 4) goes
    T = trees.STree(s4, 5, _edges({(1, 0): 1, (2, 0): 1, (3, 0): 2, (4, 1): 0}))
    R = trees.irredundant_reduction(T, keep=[1])
    assert R.n == 3 and R.alpha == _edges({(1, 0): 1, (2, 0): 2})
    with pytest.raises(DomainError) as exc:
        trees.irredundant_reduction(
            trees.STree(s4, 4, _edges({(1, 0): 1, (2, 0): 1, (3, 0): 2})), keep=[1]
        )
    assert str(exc.value) == (
        "cannot reduce: duplicate branches both hold keep separations"
    )


def test_reduction_move_b_keeps_a_kept_leaf(s4):
    # 0 holds {a} and its inverse: splicing 1-2 through 0 drops leaf 3
    T = trees.STree(s4, 4, _edges({(1, 0): 1, (0, 2): 1, (3, 0): 2}))
    assert len(trees.irredundant_reduction(T).edges) == 1
    with pytest.raises(DomainError) as exc:
        trees.irredundant_reduction(T, keep=[2])
    assert str(exc.value) == "cannot reduce: splice would drop a keep separation"


def test_reduction_move_c_moves_a_kept_label_to_a_leaf(s4, u4):
    # the path 0-1-2-3 with {a} on the leaf edge 0-1 and the inner edge 2-3
    path = {(0, 1): 1, (1, 2): 3, (2, 3): 1}
    R = trees.irredundant_reduction(trees.STree(s4, 4, _edges(path)), keep=[1])
    assert R.n == 2 and R.alpha == _edges({(1, 0): 1})
    # a second kept leaf, 4 at 1, on the side that would be dropped
    far = trees.STree(s4, 5, _edges({**path, (4, 1): 2}))
    with pytest.raises(DomainError) as exc:
        trees.irredundant_reduction(far, keep=[1, 2])
    assert str(exc.value) == (
        "cannot reduce: keep separations on the far side of a duplicated keep label"
    )
    # {a} on two leaf edges, 1-0 and 3-2, with nothing inner to move
    two = trees.STree(s4, 4, _edges({(1, 0): 1, (0, 2): 3, (3, 2): 1}))
    with pytest.raises(DomainError) as exc:
        trees.irredundant_reduction(two, keep=[1])
    assert str(exc.value) == (
        f"cannot reduce: keep {u4.format_element(1)} labels two leaf edges"
    )


def test_reduction_refuses_a_keep_that_is_no_leaf_separation(s4, u4):
    T = trees.STree(s4, 3, _edges({(1, 0): 1, (2, 0): 2}))
    with pytest.raises(InputError) as exc:
        trees.irredundant_reduction(T, keep=[14])
    assert str(exc.value) == (
        f"keep separation {u4.format_element(14)} is not a leaf separation"
    )
