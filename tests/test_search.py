"""The tangle search against the countdown search it replaced.

`countdown_search` is the depth-first search that `enumerate_tangles`
ran before each star was listed at its last member: it counts every star
down at each of its members and back up on backtracking.  Both searches
must agree on the tangles, on the number of states they visit (the least
`max_states` at which the search completes) and on the least
`max_results` at which it completes.
"""

from dataclasses import replace

import pytest

from tangletree import graphsep, orient
from tangletree.core import SeparationSystem
from tangletree.errors import InputError, ResourceCapError

from conftest import BIG_CAPS
from test_profiles import SYSTEMS
from test_stars import ladder_graphs


def countdown_search(S, family=None, caps=BIG_CAPS):
    """(tangles, states visited) by per-star countdown pruning."""
    if len(S) > caps.max_unoriented:
        raise ResourceCapError(
            f"{len(S)} separations exceed the enumeration cap "
            f"{caps.max_unoriented}"
        )
    pos = S.pos
    conflict = S.conflict_bits
    trial = orient._sep_trial_order(S)

    star_masks = []
    if family is not None:
        if family.system is not S and family.system.members != S.members:
            raise InputError("family is over a different system")
        # Countdown pruning does not depend on the order of the stars.
        star_masks = list(family._masks)
        if any(m == 0 for m in star_masks):
            return (), 0  # empty star excludes everything
    stars_at = [[] for _ in range(len(S.oriented))]
    for si, m in enumerate(star_masks):
        mm = m
        while mm:
            b = mm & -mm
            stars_at[b.bit_length() - 1].append(si)
            mm ^= b
    remaining = [m.bit_count() for m in star_masks]

    # Iterative DFS: stack[d] = [index of the next option to try at depth
    # d, (position, saved forbidden mask) of the choice being explored].
    results = []
    visited = 0
    chosen = forbidden = 0
    stack = []
    descend = True
    while True:
        if descend:
            visited += 1
            if visited > caps.max_states:
                raise ResourceCapError(
                    f"enumeration exceeded {caps.max_states} search states"
                )
            if len(stack) == len(trial):
                results.append(chosen)
                if len(results) > caps.max_results:
                    raise ResourceCapError(
                        f"more than {caps.max_results} results"
                    )
                if not stack:
                    break
            else:
                stack.append([0, None])
        frame = stack[-1]
        if frame[1] is not None:  # the subtree below this choice is done
            p, forbidden = frame[1]
            chosen ^= 1 << p
            for si in stars_at[p]:
                remaining[si] += 1
            frame[1] = None
        descend = False
        options = trial[len(stack) - 1]
        while frame[0] < len(options):
            p = pos[options[frame[0]]]
            frame[0] += 1
            if forbidden >> p & 1:
                continue
            dead = False
            for si in stars_at[p]:
                remaining[si] -= 1
                if remaining[si] == 0:
                    dead = True
            if dead:
                for si in stars_at[p]:
                    remaining[si] += 1
                continue
            frame[1] = (p, forbidden)
            chosen |= 1 << p
            forbidden |= conflict[p]
            descend = True
            break
        if not descend:
            stack.pop()
            if not stack:
                break
    return orient._canonical_sorted(S, results), visited


def _trips(S, family, caps, field, at):
    """The tangles, once the search has completed with the cap field at
    `at` and raised with it one below."""
    done = orient.enumerate_tangles(S, family, replace(caps, **{field: at}))
    with pytest.raises(ResourceCapError):
        orient.enumerate_tangles(S, family, replace(caps, **{field: at - 1}))
    return done


def assert_same_search(S, family, caps=BIG_CAPS):
    want, visited = countdown_search(S, family, caps)
    assert orient.enumerate_tangles(S, family, caps) == want
    if visited:
        assert _trips(S, family, caps, "max_states", visited) == want
    if want:
        assert _trips(S, family, caps, "max_results", len(want)) == want
    return want


def _mask(S, members):
    return S.member_mask(members)


# the largest ladder system has 1,086 separations
LADDER_CAPS = replace(BIG_CAPS, max_unoriented=2000)


def test_profile_families_search_alike():
    found = 0
    for S in SYSTEMS:
        found += bool(assert_same_search(S, orient.profile_star_family(S)))
        assert_same_search(S, None)
    assert found >= 20


def test_tk_star_families_of_the_ladder_search_alike():
    counts = []
    for _, G in ladder_graphs(3):
        S = graphsep.graph_separation_system(G, 3, LADDER_CAPS)
        fam = graphsep.tk_star_family(G, 3, S, LADDER_CAPS)
        counts.append(len(assert_same_search(S, fam, LADDER_CAPS)))
    # one 3-tangle per block of four or more vertices, none for triangles
    assert counts == [3, 4, 4, 4, 0, 0]


def test_odd_families_search_alike():
    S = SYSTEMS[0]
    U = S.universe
    fam = orient.profile_star_family(S)
    masks = list(fam.masks_sorted)
    x = next(x for x in S.oriented if x != U.invert(x))
    both = _mask(S, (x, U.invert(x)))
    # a member holding both orientations of one separation is never
    # inside an orientation, with or without other members
    for extra in (both, both | masks[0], both | _mask(S, S.oriented)):
        odd = orient.StarFamily.from_masks(S, masks + [extra], require_stars=False)
        assert assert_same_search(S, odd) == orient.enumerate_tangles(S, fam, BIG_CAPS)
    empty = orient.StarFamily.from_masks(S, masks + [0], require_stars=False)
    assert countdown_search(S, empty) == ((), 0)
    assert orient.enumerate_tangles(S, empty, BIG_CAPS) == ()
    # a singleton of every member excludes everything
    singles = orient.StarFamily.from_masks(
        S, [1 << i for i in range(len(S.oriented))], require_stars=False
    )
    assert assert_same_search(S, singles) == ()


def test_a_family_over_the_same_members_searches_alike():
    found = 0
    for S in SYSTEMS[::4]:
        # another system object with the same members, in the same order
        other = SeparationSystem(S.universe, list(reversed(S.oriented)))
        assert other is not S and other.oriented == S.oriented
        for fam in (
            orient.profile_star_family(other),
            orient.StarFamily(other, orient.profile_star_family(S).stars, require_stars=False),
        ):
            want = assert_same_search(S, fam)
            assert want == orient.enumerate_tangles(S, orient.profile_star_family(S), BIG_CAPS)
            found += bool(want)
    assert found >= 6
