"""Emulation, shifting, and the tangle-or-tree decision."""

import pytest

from tangletree import duality, orient, randomgen, trees
from tangletree.config import Caps
from tangletree.errors import InputError
from tangletree.core import SeparationSystem

import oracles
from conftest import BIG_CAPS


def emulated(S, s, r):
    """The position-level emulation verdict, checked against the oracle."""
    verdict = duality._emulates(S, S.pos[s], S.pos[r])
    assert verdict == oracles.emulates(S, s, r)
    return verdict


def shifted(S, r, s, x):
    """The image of x under the position-level shift from r onto s, or
    None outside the shift domain."""
    code = duality._shift_code(S, S.pos[r])[S.pos[x]]
    if code is None:
        return None
    img = duality._shift_image(duality._shift_bits(S, S.pos[s]), (code,))
    return S.oriented[img.bit_length() - 1]


def test_emulation_in_full_universe(u4, s4):
    # joins never leave a full universe, so everything above r emulates r
    r = u4.mask_of(["a"])
    for s in (r, u4.mask_of(["a", "b"]), u4.mask_of(["a", "b", "c"])):
        assert emulated(s4, s, r)


def test_emulation_rejects_trivial_base(u4, s4):
    with pytest.raises(InputError):
        oracles.emulation_violation(s4, 0, 0)
    # the empty separation is trivial: shift_stree refuses it as a base
    full = u4.invert(0)
    T = trees.STree(s4, 2, {(0, 1): 0, (1, 0): full})
    with pytest.raises(InputError):
        duality.shift_stree(T, 0, u4.mask_of(["a"]), None)


def test_emulation_witness_shape(u4, s4):
    r = u4.mask_of(["a"])
    w = oracles.emulation_violation(s4, u4.mask_of(["b"]), r)
    assert w is not None and w[0] == "not-geq"
    assert not emulated(s4, u4.mask_of(["b"]), r)


def test_shift_map_apply(u4, s4):
    r = u4.mask_of(["a"])
    s = u4.mask_of(["a", "b"])
    f = oracles.ShiftMap(s4, r, s)
    # above r: join with s
    assert f.apply(u4.mask_of(["a", "c"])) == u4.mask_of(["a", "b", "c"])
    # below invert(r): dual rule
    assert f.apply(0) == u4.invert(u4.join(u4.invert(0), s))
    # the base inverse itself maps to the target inverse
    assert f.apply(u4.invert(r)) == u4.invert(s)
    for x in s4.oriented:
        assert shifted(s4, r, s, x) == f.apply(x)


def test_shift_map_domain_gap(u4, s4):
    r = u4.mask_of(["a", "b"])
    f = oracles.ShiftMap(s4, r, r)
    out = u4.mask_of(["b", "c"])  # neither above r nor below its inverse
    assert not f.domain_contains(out)
    with pytest.raises(InputError):
        f.apply(out)
    assert shifted(s4, r, r, out) is None


def test_shift_map_validates(u4, s4):
    sub = SeparationSystem.from_unoriented(
        u4, [u4.mask_of(["a"]), u4.mask_of(["a", "b"]), u4.mask_of(["a", "c"])]
    )
    # join of {a,c} with {a,b} leaves this subsystem
    with pytest.raises(InputError):
        oracles.ShiftMap(sub, u4.mask_of(["a", "b"]), u4.mask_of(["a"]))
    assert not emulated(sub, u4.mask_of(["a"]), u4.mask_of(["a", "b"]))


def test_shift_stree_two_vertices(u4, s4):
    r = u4.mask_of(["a"])
    s = u4.mask_of(["a", "b"])
    fam = orient.StarFamily(
        s4,
        [
            frozenset((r,)),
            frozenset((u4.invert(r),)),
            frozenset((s,)),
            frozenset((u4.invert(s),)),
        ],
    )
    T = trees.STree(s4, 2, {(0, 1): r, (1, 0): u4.invert(r)})
    shifted = duality.shift_stree(T, r, s, fam)
    assert set(shifted.alpha.values()) == {s, u4.invert(s)}


def test_shift_stree_needs_family_closure(u4, s4):
    r = u4.mask_of(["a"])
    s = u4.mask_of(["a", "b"])
    fam = orient.StarFamily(s4, [frozenset((r,)), frozenset((u4.invert(r),))])
    T = trees.STree(s4, 2, {(0, 1): r, (1, 0): u4.invert(r)})
    with pytest.raises(InputError):
        duality.shift_stree(T, r, s, fam)


def test_decide_tangle_branch(p3):
    G, S, fam = p3
    res = duality.duality_decide(S, fam, BIG_CAPS)
    assert res.kind == "tangle"
    assert oracles.is_f_tangle(S, res.tangle, fam)


def test_decide_tree_branch(p3):
    G, S, fam = p3
    U = S.universe
    # forbid both orientations of one separation: no orientation avoids
    # both, so no tangle exists and a tree must come back.  The ad-hoc
    # extension is not shift-closed, which the fixpoint does not need.
    x = max(S.oriented)
    killed = fam.extended([frozenset((x,)), frozenset((U.invert(x),))],
                          name="no-tangles")
    assert not duality.check_closed_under_shifting(S, killed)
    tree = duality.cover_tree(S, killed, BIG_CAPS)
    assert tree.validate(killed).all_good()
    # the tree the search-first decision builds without the gate
    want = oracles.search_first_decide(S, killed, BIG_CAPS, verify=False)
    assert (tree.n, tree.alpha) == (want.tree.n, want.tree.alpha)


def test_decide_matches_enumeration_on_seeds():
    hits = {"tangle": 0, "tree": 0}
    for seed in range(40):
        inst = randomgen.random_duality_instance(seed)
        if inst is None:
            continue
        S, fam = inst
        res = duality.duality_decide(S, fam, BIG_CAPS)
        tangles = orient.enumerate_tangles(S, fam, BIG_CAPS)
        assert (res.kind == "tangle") == bool(tangles)
        if res.kind == "tree":
            assert res.tree.validate(fam).all_good()
        hits[res.kind] += 1
    assert hits["tangle"] and hits["tree"]


def test_decide_deterministic():
    inst = randomgen.random_duality_instance(11)
    assert inst is not None
    S, fam = inst
    r1 = duality.duality_decide(S, fam, BIG_CAPS)
    r2 = duality.duality_decide(S, fam, BIG_CAPS)
    assert r1.kind == r2.kind
    if r1.kind == "tree":
        assert oracles.canonical_encoding(r1.tree) == oracles.canonical_encoding(r2.tree)
    else:
        assert r1.tangle == r2.tangle


def test_submodular_systems_are_separable():
    import random

    for seed in range(25):
        S = randomgen.random_order_system(random.Random(seed), ["p", "q", "r", "s"])
        if S.is_submodular():
            assert oracles.check_separable(S)
