"""The canonical tree-of-tangles constructions and their canonicity."""

import random

import pytest

from tangletree import canonical, graphsep, orient, randomgen, refine, trees
from tangletree.errors import InputError, IntegrityError

import oracles
from conftest import BIG_CAPS, away_from


@pytest.fixture()
def profiles4(u4):
    return [away_from(u4, x) for x in "abcd"]


def point_separations(u4):
    return {u4.canon(u4.mask_of([x])) for x in "abcd"}


def test_exclusive_members(u4, s4, profiles4):
    # a three-point side lies in exactly the profile of the missing point
    assert canonical.exclusive(s4, u4.mask_of(["b", "c", "d"]), profiles4)
    assert not canonical.exclusive(s4, u4.mask_of(["c", "d"]), profiles4)


def test_maximal_exclusive_frozen(u4, s4, profiles4):
    M = canonical.maximal_exclusive(s4, profiles4[0], profiles4)
    assert set(M) == {u4.mask_of(["b", "c", "d"])}


def test_canonical_four_profiles(u4, s4, profiles4):
    res = canonical.canonical_nested_set(s4, profiles4, BIG_CAPS)
    assert res.nested.members == frozenset(point_separations(u4))
    assert len(res.rounds) == 1
    assert res.rounds[0]["retired"] == 4
    assert len(res.records) == 4
    for rec in res.records:
        assert rec.round == 1
        assert rec.s_p in rec.profile
        assert refine.closely_related(s4, rec.s_p, rec.profile)
    # every profile pair is distinguished
    assert (
        orient.undistinguished_pair(s4, res.nested.sorted_members, profiles4)
        is None
    )


def test_canonical_two_profiles_frozen(u4, s4, profiles4):
    res = canonical.canonical_nested_set(s4, profiles4[:2], BIG_CAPS)
    assert res.nested.members == {
        u4.canon(u4.mask_of(["a"])),
        u4.canon(u4.mask_of(["b"])),
    }


def test_canonical_single_profile(u4, s4, profiles4):
    # one profile, no pairs to distinguish: the empty set already does it
    res = canonical.canonical_nested_set(s4, profiles4[:1], BIG_CAPS)
    assert res.nested.members == frozenset()
    assert res.rounds == ()


def test_canonical_rejects_non_profiles(u4, s4):
    O = set(away_from(u4, "a"))
    s = u4.mask_of(["b", "c", "d"])
    O.discard(s)
    O.add(u4.invert(s))  # consistent but not a profile
    with pytest.raises(InputError):
        canonical.canonical_nested_set(s4, [frozenset(O)], BIG_CAPS)
    with pytest.raises(InputError):
        canonical.canonical_nested_set(s4, [], BIG_CAPS)


def test_canonical_rejects_duplicate_profiles(s4, profiles4):
    with pytest.raises(InputError):
        canonical.canonical_nested_set(s4, [profiles4[0], profiles4[0]], BIG_CAPS)


def test_profiles_live_at_their_separations(u4, s4, profiles4):
    res = canonical.canonical_nested_set(s4, profiles4, BIG_CAPS)
    for rec in res.records:
        node = trees.lives_at(s4, rec.profile, res.nested)
        assert rec.s_p in node


def test_good_nested_set_matches(u4, s4, profiles4):
    res = canonical.good_nested_set(s4, profiles4, BIG_CAPS)
    assert res.nested.members == frozenset(point_separations(u4))
    for rec in res.records:
        assert refine.good(s4, rec.r_p, profiles4)


def test_find_well_distinguisher(u4, s4, profiles4):
    Pa, Pb = profiles4[0], profiles4[1]
    s = oracles.find_well_distinguisher(s4, Pa, Pb, [])
    assert u4.canon(s) == u4.canon(u4.mask_of(["a"]))
    with pytest.raises(InputError):
        oracles.find_well_distinguisher(s4, Pa, Pa, [])


def test_inessential_closeness_on_tripod(tripod):
    G, S, fam = tripod
    tangles = orient.enumerate_tangles(S, fam, BIG_CAPS)
    res = canonical.canonical_nested_set(S, tangles, BIG_CAPS)
    assert oracles.inessential_closeness_violation(
        S, res.nested, tangles, BIG_CAPS
    ) is None


# -- canonicity under isomorphisms --


def swap_iso(u4, s4):
    """The a <-> b relabeling as a system isomorphism."""
    a_bit = 1 << u4.ground.index("a")
    b_bit = 1 << u4.ground.index("b")

    def move(m):
        rest = m & ~(a_bit | b_bit)
        out = rest
        if m & a_bit:
            out |= b_bit
        if m & b_bit:
            out |= a_bit
        return out

    return canonical.Isomorphism(s4, s4, {m: move(m) for m in s4.oriented})


def test_isomorphism_validation(u4, s4):
    iso = swap_iso(u4, s4)
    assert iso.apply(u4.mask_of(["a"])) == u4.mask_of(["b"])
    assert iso.lattice_compatible()
    with pytest.raises(InputError):
        canonical.Isomorphism(s4, s4, {m: m for m in list(s4.oriented)[:3]})


def test_canonical_commutes_with_swap(u4, s4, profiles4):
    iso = swap_iso(u4, s4)
    builder = lambda S, ps: canonical.canonical_nested_set(S, ps, BIG_CAPS)
    assert canonical.check_canonicity(builder, iso, profiles4[:2])
    assert canonical.check_canonicity(builder, iso, profiles4)


def test_good_commutes_with_lattice_swap(u4, s4, profiles4):
    iso = swap_iso(u4, s4)
    builder = lambda S, ps: canonical.good_nested_set(S, ps, BIG_CAPS)
    assert canonical.check_canonicity(builder, iso, profiles4, require_lattice=True)


def test_canonicity_on_random_cut_swap():
    hits = 0
    for seed in range(40):
        rng = random.Random(seed)
        U, perm = randomgen.swap_invariant_cut_universe(rng, 2)
        from tangletree.core import order_filtered_system

        orders = sorted({U.order(m) for m in U.elements()})
        S = None
        for k in orders[1:]:
            cand = order_filtered_system(U, k)
            if len(cand) > 10:
                break
            S = cand
        if S is None or not S.is_submodular():
            continue
        mapping = {m: perm(m) for m in S.oriented}
        if set(mapping.values()) != set(S.oriented):
            continue
        iso = canonical.Isomorphism(S, S, mapping)
        fam = orient.profile_star_family(S)
        profs = orient.enumerate_tangles(S, fam, BIG_CAPS)
        if len(profs) < 2:
            continue
        builder = lambda S_, ps: canonical.canonical_nested_set(S_, ps, BIG_CAPS)
        assert canonical.check_canonicity(builder, iso, profs)
        hits += 1
    assert hits >= 5


# -- full pipeline --


def test_refined_tree_of_tangles_tripod(tripod):
    G, S, fam = tripod
    res = canonical.refined_tree_of_tangles(S, fam, caps=BIG_CAPS)
    assert len(res.canonical.profiles) == 3
    assert len(res.canonical.rounds) == 1
    assert len(res.refinement.refined.members) == 3
    assert res.refinement.at_most_one_inessential
