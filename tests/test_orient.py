"""Orientations, profiles, stars and tangles on the four-point fixture.

Counts asserted here were computed once by the brute-force loops at the
bottom of this file and are frozen: 256 orientations, 12 consistent,
4 profiles (one per ground point, all regular).
"""

import copy
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from tangletree import graphsep, orient, randomgen
from tangletree.config import Caps
from tangletree.core import SeparationSystem
from tangletree.errors import InputError, ResourceCapError

import oracles
from conftest import BIG_CAPS, away_from


def test_orientation_counts(s4):
    assert len(orient.all_orientations(s4)) == 256
    assert len(orient.consistent_orientations(s4)) == 12


def test_profiles_are_the_point_orientations(u4, s4):
    profs = [
        O
        for O in orient.consistent_orientations(s4)
        if oracles.is_profile(s4, O)
    ]
    assert len(profs) == 4
    assert set(profs) == {away_from(u4, x) for x in "abcd"}
    assert all(oracles.is_regular(s4, O) for O in profs)


def test_orientation_shape_enforced(u4, s4):
    full = away_from(u4, "a")
    assert oracles.orientation_violation(s4, full) is None
    # missing one separation
    partial = frozenset(list(full)[:-1])
    assert oracles.orientation_violation(s4, partial) is not None
    # both orientations of one separation
    both = full | {u4.invert(next(iter(full)))}
    assert oracles.orientation_violation(s4, both) is not None


def test_consistency_witness(u4, s4):
    # choosing {c,d} and {a,b,c} together is inconsistent: the inverse
    # of the first lies strictly below the second
    O = set(away_from(u4, "d"))
    ab = u4.mask_of(["a", "b"])
    O.discard(ab)
    O.add(u4.invert(ab))
    w = orient.consistency_violation(s4, frozenset(O))
    assert w == (u4.mask_of(["a", "b", "c"]), u4.mask_of(["c", "d"]))
    # flipping one pair of a profile keeps it consistent (but kills
    # the profile property): these are the eight non-profile members
    O2 = set(away_from(u4, "a"))
    s = u4.mask_of(["b", "c", "d"])
    O2.discard(s)
    O2.add(u4.invert(s))
    assert oracles.is_consistent(s4, frozenset(O2))
    assert not oracles.is_profile(s4, frozenset(O2))


def test_enumerator_matches_naive_filter(s4):
    naive = [
        O
        for O in orient.all_orientations(s4)
        if oracles.is_consistent(s4, O)
    ]
    assert set(naive) == set(orient.consistent_orientations(s4))


def test_star_recognition(u4):
    a = u4.mask_of(["a"])
    b = u4.mask_of(["b"])
    assert oracles.is_star(u4, frozenset((a, b)))  # {a} <= inv {b}
    assert oracles.is_star(u4, frozenset((a, u4.invert(a))))
    assert not oracles.is_star(u4, frozenset((a, u4.invert(b))))
    assert oracles.is_star(u4, frozenset())


def test_star_rejects_degenerate():
    from tangletree.core import TablePoset

    U = TablePoset(3, [2, 1, 0], [(0, 1), (1, 2)])
    assert oracles.star_violation(U, frozenset((1,))) is not None


def test_profile_family_tangles_are_profiles(s4):
    fam = orient.profile_star_family(s4)
    tangles = orient.enumerate_tangles(s4, fam)
    profs = [
        O
        for O in orient.consistent_orientations(s4)
        if oracles.is_profile(s4, O)
    ]
    assert set(tangles) == set(profs)


def test_f_tangle_violation_reports_member(u4, s4):
    fam = orient.StarFamily(
        s4, [frozenset((u4.mask_of(["a", "b"]),))], require_stars=True
    )
    P = away_from(u4, "c")
    w = orient.f_tangle_violation(s4, P, fam)
    assert w == ("excluded", frozenset((u4.mask_of(["a", "b"]),)))
    assert orient.f_tangle_violation(s4, away_from(u4, "a"), fam) is None


def test_family_extension_keeps_sorting(u4, s4):
    fam = orient.StarFamily(s4, [frozenset((0,))])
    extra = frozenset((u4.mask_of(["a"]),))
    bigger = fam.extended([extra])
    assert extra in bigger.stars
    assert len(bigger.stars) >= len(fam.stars)
    assert bigger.stars_sorted == tuple(
        sorted(bigger.stars_sorted, key=lambda t: oracles.star_key(bigger, t))
    )


def test_distinguishing(u4, s4):
    Pa, Pb = away_from(u4, "a"), away_from(u4, "b")
    s = u4.mask_of(["a"])  # a | bcd separates the two
    assert oracles.distinguishes(s4, s, Pa, Pb)
    assert not oracles.distinguishes(s4, 0, Pa, Pb)
    assert orient.orientation_of(s4, s, Pa) == u4.invert(s)


def test_undistinguished_pair(u4, s4):
    Pa, Pb, Pc = (away_from(u4, x) for x in "abc")
    N = [u4.mask_of(["a"])]
    assert orient.undistinguished_pair(s4, N, [Pa, Pb]) is None
    bad = orient.undistinguished_pair(s4, N, [Pa, Pb, Pc])
    assert bad is not None and set(bad) == {Pb, Pc}


def test_maximal_members(u4, s4):
    Pa = away_from(u4, "a")
    maxes = orient.maximal_members(s4, Pa)
    # the inclusion-largest side avoiding a is {b,c,d} itself
    assert set(maxes) == {u4.mask_of(["b", "c", "d"])}


def test_enumeration_cap():
    rng = random.Random(3)
    S = randomgen.random_order_system(rng, ["p", "q", "r", "s", "t"])
    tight = Caps(
        max_unoriented=300,
        max_states=3,
        max_tree_nodes=10,
        max_results=10,
        full_shift_check_limit=4,
    )
    from tangletree.errors import ResourceCapError

    with pytest.raises(ResourceCapError):
        orient.all_orientations(S, tight)


@given(st.integers(min_value=0, max_value=5_000))
def test_profiles_closed_under_corner_orientation(seed):
    # every profile orients each in-system corner toward the profile side
    rng = random.Random(seed)
    S = randomgen.random_order_system(rng, ["p", "q", "r"])
    U = S.universe
    fam = orient.profile_star_family(S)
    for P in orient.enumerate_tangles(S, fam):
        for r, s in itertools.combinations(sorted(P), 2):
            j = U.join(r, s)
            if j in S.members:
                assert U.invert(j) not in P


def _pairwise_consistency_violation(S, O):
    """The literal scan: first pair (a, b) of O, in sort order, on distinct
    separations with invert(a) < b."""
    U = S.universe
    for a, b in itertools.combinations(sorted(O), 2):
        if b == U.invert(a):
            continue
        if U.lt(U.invert(a), b):
            return (a, b)
        if U.lt(U.invert(b), a):
            return (b, a)
    return None


def _differential_systems():
    rng = random.Random(11)
    for n in (4, 5, 5, 6, 6, 7):
        G = randomgen.random_connected_graph(rng, n, extra=rng.randint(0, 4))
        for k in (1, 2, 3):
            yield graphsep.graph_separation_system(G, k)
    for _ in range(12):
        yield randomgen.random_order_system(rng, "pqrst", max_unoriented=14)


def test_consistency_matches_pairwise_scan():
    rng = random.Random(5)
    checked = {True: 0, False: 0}
    for S in _differential_systems():
        U = S.universe
        consistent = orient.consistent_orientations(S, BIG_CAPS)
        cases = rng.sample(consistent, min(6, len(consistent)))
        cases += [
            frozenset(rng.choice((s, U.invert(s))) for s in S.separations)
            for _ in range(8)
        ]
        for O in list(cases):
            members = sorted(O)
            cases.append(frozenset(rng.sample(members, rng.randint(0, len(members)))))
        # as many members as an orientation, one separation taken both ways
        for O in cases[:3]:
            if len(O) > 1:
                x, y = rng.sample(sorted(O), 2)
                cases.append(O - {y} | {U.invert(x)})
        for O in cases:
            want = _pairwise_consistency_violation(S, O)
            assert orient.consistency_violation(S, O) == want
            checked[want is None] += 1
    assert checked[True] > 100 and checked[False] > 100


def test_consistency_of_a_small_subset_matches_the_pairwise_scan(tripod):
    _, S, _ = tripod
    fresh = SeparationSystem(S.universe, S.members)
    few = frozenset(fresh.oriented[:5])
    want = _pairwise_consistency_violation(fresh, few)
    assert orient.consistency_violation(fresh, few) == want


def _visited_states(S, family, caps):
    """The least max_states at which the search completes."""
    lo, hi = 1, caps.max_states
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            orient.enumerate_tangles(S, family, replace(caps, max_states=mid))
            hi = mid
        except ResourceCapError:
            lo = mid + 1
    return lo


def test_tangle_search_ignores_star_order(tripod):
    S5 = randomgen.random_order_system(random.Random(2), "pqrstu", max_unoriented=16)
    rng = random.Random(8)
    for S, fam in ((tripod[1], tripod[2]), (S5, orient.profile_star_family(S5))):
        # enumerate_tangles reads the masks in the order the family keeps
        shuffled = copy.copy(fam)
        shuffled._masks = tuple(rng.sample(fam._masks, len(fam)))
        want = orient.enumerate_tangles(S, fam, BIG_CAPS)
        states = _visited_states(S, fam, BIG_CAPS)
        exact = replace(BIG_CAPS, max_states=states)
        assert want and orient.enumerate_tangles(S, shuffled, exact) == want
        tight = replace(BIG_CAPS, max_states=states - 1)
        with pytest.raises(ResourceCapError, match=f"exceeded {states - 1} search"):
            orient.enumerate_tangles(S, shuffled, tight)
        tight = replace(BIG_CAPS, max_results=len(want) - 1)
        with pytest.raises(ResourceCapError, match=f"more than {len(want) - 1} results"):
            orient.enumerate_tangles(S, shuffled, tight)
