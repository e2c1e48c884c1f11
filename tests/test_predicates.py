"""The certificate predicates over positions against the literal pair
loops they replaced (tests/oracles.py), witnesses included: stars,
consistency, close relationship and good separations, where an
orientation lives, nestedness, distinguishing, and the tight and order
scans of STree.validate.

Each runs over the 43 systems of test_profiles (table posets included)
and the systems of randomgen.random_duality_instance at seeds 0-99, on
arbitrary sets of members as well as on orientations and valid trees.
A mutant of the closeness body, reading s where it should read s*, must
be caught by the same comparison.
"""

import inspect
import random

import pytest

from tangletree import duality, orient, randomgen, refine, trees
from tangletree.errors import InputError
from tangletree.trees import NestedSet, STree

import oracles
from conftest import BIG_CAPS
from test_profiles import SYSTEMS


@pytest.fixture(scope="module")
def instances():
    """(system, family or None) pairs: the test_profiles systems, then
    the random duality instances."""
    out = [(S, None) for S in SYSTEMS]
    for seed in range(100):
        inst = randomgen.random_duality_instance(seed)
        if inst is not None:
            out.append(inst)
    assert len(out) > 100
    return out


def _outcome(fn, *args):
    """fn's result, or the type and text of the InputError it raised."""
    try:
        return fn(*args)
    except InputError as e:
        return ("InputError", str(e))


def _subsets(S, rng, count=12):
    """Arbitrary sets of members, of every density, the empty and the
    full set among them, and a few consistent orientations."""
    elems = S.oriented
    out = [frozenset(), frozenset(elems)]
    for _ in range(count):
        p = rng.random()
        out.append(frozenset(x for x in elems if rng.random() < p))
    out += orient.consistent_orientations(S, BIG_CAPS)[:4]
    return out


def _orientation(S, rng):
    """One orientation of S chosen at random, consistent or not."""
    U = S.universe
    return frozenset(rng.choice((s, U.invert(s))) for s in S.separations)


def _nested_set(S, rng):
    """A random nested set of S, grown one separation at a time."""
    kept = []
    for s in rng.sample(S.separations, len(S.separations)):
        if oracles.nestedness_violation(S, kept + [s]) is None:
            kept.append(s)
    return NestedSet(S, kept[: rng.randint(0, len(kept))])


def test_star_witness_matches_the_loop(instances):
    seen = {"star": 0, "degenerate": 0, "not-star": 0}
    for S, _ in instances:
        rng, U = random.Random(len(S.oriented)), S.universe
        few = frozenset(rng.sample(S.oriented, min(3, len(S.oriented))))
        for sigma in _subsets(S, rng) + [few]:
            want = oracles.star_violation(U, sigma)
            assert orient.star_mask_violation(S, S.member_mask(sigma)) == want
            seen["star" if want is None else want[0]] += 1
    assert min(seen.values()) >= 10, seen


def test_consistency_witness_matches_the_loop(instances):
    seen = {True: 0, False: 0}
    for S, _ in instances:
        rng = random.Random(len(S.oriented))
        for O in _subsets(S, rng) + [_orientation(S, rng) for _ in range(4)]:
            want = oracles.consistency_violation(S, O)
            assert orient.consistency_violation(S, O) == want
            seen[want is None] += 1
    assert min(seen.values()) >= 50, seen


def _closeness_mismatches(instances, violation):
    """Cases where violation and the literal loop disagree, and the
    witnesses the loop gave, by kind."""
    bad, seen = 0, {"close": 0, "not-member": 0, "meet-escapes": 0}
    for S, _ in instances:
        rng = random.Random(len(S.oriented))
        sets = _subsets(S, rng, 6)
        for P in sets:
            for s in rng.sample(S.oriented, min(4, len(S.oriented))):
                want = oracles.closely_related_violation(S, s, P)
                bad += violation(S, s, P) != want
                seen["close" if want is None else want[0]] += 1
    return bad, seen


def test_closeness_witness_matches_the_loop(instances):
    bad, seen = _closeness_mismatches(instances, refine.closely_related_violation)
    assert bad == 0
    assert min(seen.values()) >= 50, seen


def test_closeness_comparison_catches_a_mutant(instances):
    """The body with s* replaced by s: it asks whether s v r* lies in S,
    not s ^ r."""
    src = inspect.getsource(refine.closely_related_violation)
    assert "S.joinable(inv[pos[s]])" in src
    namespace = dict(vars(refine))
    exec(src.replace("S.joinable(inv[pos[s]])", "S.joinable(pos[s])"), namespace)
    bad, _ = _closeness_mismatches(instances, namespace["closely_related_violation"])
    assert bad > 0


def test_good_matches_the_loop(instances):
    seen = {True: 0, False: 0}
    for S, _ in instances:
        rng = random.Random(len(S.oriented))
        profiles = orient.consistent_orientations(S, BIG_CAPS)
        for _ in range(4):
            plist = rng.sample(profiles, min(len(profiles), rng.randint(1, 4)))
            plist += rng.sample(_subsets(S, rng, 4), 2)
            for s in rng.sample(S.oriented, min(4, len(S.oriented))):
                want = oracles.good(S, s, plist)
                assert refine.good(S, s, plist) == want
                seen[want] += 1
    assert min(seen.values()) >= 50, seen


def test_nestedness_witness_matches_the_loop(instances):
    seen = {True: 0, False: 0}
    for S, _ in instances:
        rng = random.Random(len(S.oriented))
        for X in _subsets(S, rng):
            want = oracles.nestedness_violation(S, X)
            assert S.nestedness_violation(X) == want
            seen[want is None] += 1
    assert min(seen.values()) >= 50, seen


def test_lives_at_matches_the_loop(instances):
    seen = {"home": 0, "undecided": 0, "inconsistent": 0}
    for S, _ in instances:
        rng = random.Random(len(S.oriented))
        for _ in range(3):
            N = _nested_set(S, rng)
            for O in _subsets(S, rng, 6) + [_orientation(S, rng) for _ in range(4)]:
                want = _outcome(oracles.lives_at, S, O, N)
                assert _outcome(trees.lives_at, S, O, N) == want
                if isinstance(want, frozenset):
                    seen["home"] += 1
                else:
                    seen["undecided" if "decide" in want[1] else "inconsistent"] += 1
    assert min(seen.values()) >= 50, seen


def test_undistinguished_pair_matches_the_loop(instances):
    seen = {True: 0, False: 0}
    for S, _ in instances:
        rng = random.Random(len(S.oriented))
        ors = [_orientation(S, rng) for _ in range(3)]
        ors += orient.consistent_orientations(S, BIG_CAPS)[:3]
        for N in _subsets(S, rng, 8):
            chosen = rng.sample(ors, rng.randint(0, len(ors)))
            chosen += rng.sample(chosen, min(1, len(chosen)))  # a repeat
            want = oracles.undistinguished_pair(S, N, chosen)
            assert orient.undistinguished_pair(S, N, chosen) == want
            seen[want is None] += 1
    assert min(seen.values()) >= 50, seen


def test_undistinguished_pair_refuses_an_undecided_orientation(s4):
    O = frozenset(s4.oriented[:1])
    with pytest.raises(InputError, match="undecided"):
        orient.undistinguished_pair(s4, s4.separations, [O, O])


def _trees(S, family, rng):
    """Random trees labelled with arbitrary members, then the duality
    tree of the family and the tree of a nested set where they exist."""
    for _ in range(6):
        n = rng.randint(1, 6)
        alpha = {}
        for v in range(1, n):
            u, x = rng.randrange(v), rng.choice(S.oriented)
            alpha[(u, v)], alpha[(v, u)] = x, S.universe.invert(x)
        yield STree(S, n, alpha)
    if family is not None:
        res = duality.duality_decide(S, family, BIG_CAPS)
        if res.kind == "tree":
            yield res.tree
    N = _nested_set(S, rng)
    if N.is_treeset():
        yield trees.treeset_to_stree(N, BIG_CAPS)


def test_validate_scans_match_the_loop(instances):
    seen = {"tight": 0, "untight": 0, "order": 0, "disorder": 0}
    for S, family in instances:
        rng = random.Random(len(S.oriented))
        for T in _trees(S, family, rng):
            for fam in (None, family):
                rep = T.validate(fam)
                assert rep == oracles.validate(T, fam)
            seen["tight" if rep.tight else "untight"] += 1
            seen["order" if rep.order_preserving else "disorder"] += 1
    assert min(seen.values()) >= 50, seen
