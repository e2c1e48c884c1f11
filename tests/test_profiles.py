"""The profile layer over the index space: profile_violation, the profile
triples, submodular_violation, classify and the star test on masks, each
against the literal universe-oracle loop it replaced, witnesses included;
star families built from masks against the same families built from
frozensets; the laws of the universes' lattice codes; and the tables the
layer must not keep."""

import copy
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from tangletree import canonical, graphsep, orient, randomgen
from tangletree.core import (
    BipartitionUniverse,
    SepFlags,
    SeparationSystem,
    TablePoset,
    order_filtered_system,
)
from tangletree.errors import InputError, ResourceCapError

import oracles
from conftest import BIG_CAPS, triangle_tripod_edges
from test_gate import CASES, _loaded

# -- the literal loops --


def literal_profile_violation(S, O):
    """Consistency first, then every pair (r, s), r at or before s in
    value order, whose co-join (r v s)* lies in O."""
    bad = orient.consistency_violation(S, O)
    if bad is not None:
        return bad
    U = S.universe
    elems = sorted(O)
    for i, r in enumerate(elems):
        for s in elems[i:]:
            if U.invert(U.join(r, s)) in O:
                return (r, s)
    return None


def literal_full_profile_triples(S):
    """Every triple {r, s, (r v s)*} with its co-join in S, r at or before
    s, the ones that hold both orientations of a separation included."""
    U = S.universe
    triples = set()
    elems = S.oriented
    for i, r in enumerate(elems):
        for s in elems[i:]:
            c = U.invert(U.join(r, s))
            if c in S.members:
                triples.add(frozenset((r, s, c)))
    return triples


def literal_profile_triples(S):
    """The triples of literal_full_profile_triples less those holding a
    member and its inverse, when the two differ: no orientation holds
    both, so dropping them excludes nothing."""
    U = S.universe
    return {
        t for t in literal_full_profile_triples(S)
        if not any(U.invert(x) in t - {x} for x in t)
    }


def literal_submodular_violation(S):
    U = S.universe
    elems = S.oriented
    for i, r in enumerate(elems):
        for s in elems[i:]:
            if U.join(r, s) not in S.members and U.meet(r, s) not in S.members:
                return (r, s)
    return None


def literal_classify(S, x):
    U = S.universe
    xbar = U.invert(x)
    for y in S.oriented:
        if U.lt(x, y) and U.lt(x, U.invert(y)):
            return SepFlags(x == xbar, U.leq(x, xbar), U.leq(xbar, x), True, U.canon(y))
    return SepFlags(x == xbar, U.leq(x, xbar), U.leq(xbar, x), False, None)


def _mask(S, sigma):
    return sum(1 << S.pos[x] for x in set(sigma))


def _star_of(S, m):
    return frozenset(x for i, x in enumerate(S.oriented) if m >> i & 1)


# -- seeded systems of three kinds --


def _chain_product(lengths):
    """Product of chains, ordered coordinatewise, each coordinate reversed
    by the involution; the middle element is degenerate when every chain
    has odd length."""
    elems = list(itertools.product(*(range(n) for n in lengths)))
    index = {e: i for i, e in enumerate(elems)}
    inv = [index[tuple(n - 1 - c for n, c in zip(lengths, e))] for e in elems]
    covers = []
    for e in elems:
        for d, n in enumerate(lengths):
            if e[d] + 1 < n:
                f = e[:d] + (e[d] + 1,) + e[d + 1:]
                covers.append((index[e], index[f]))
    return TablePoset(len(elems), inv, covers)


def cut_systems():
    for seed in range(12):
        rng = random.Random(seed)
        yield randomgen.random_order_system(rng, "pqrst"[: 4 + seed % 2], 12)
    U = randomgen.cut_universe(random.Random(40), "pqrstu")
    for k in (2, 4, 6):
        yield order_filtered_system(U, k)


def graph_systems():
    for seed in range(6):
        rng = random.Random(seed)
        G = randomgen.random_connected_graph(rng, 4 + seed % 3, extra=seed % 3)
        yield graphsep.graph_separation_system(G, 2 + seed % 2, BIG_CAPS)
    # k above |V| lets the degenerate separation (V, V) in
    P3 = graphsep.Graph.from_edges([("a", "b"), ("b", "c")])
    yield graphsep.graph_separation_system(P3, 4, BIG_CAPS)
    G = graphsep.Graph.from_edges(triangle_tripod_edges())
    yield graphsep.graph_separation_system(G, 2, BIG_CAPS)


def table_systems():
    for lengths in ((3, 3), (2, 3), (3, 2, 2), (5,)):
        U = _chain_product(lengths)
        yield SeparationSystem(U, U.elements())
        rng = random.Random(sum(lengths))
        for _ in range(3):
            picked = rng.sample(U.elements(), len(U.elements()) // 2)
            yield SeparationSystem.from_unoriented(U, picked)


def _m3():
    """The diamond M3, 0 < a, b, c < 1, a lattice that is not
    distributive; the involution swaps 0 and 1 and a and b, and fixes c."""
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    return TablePoset(5, [4, 2, 1, 3, 0], covers, names=["0", "a", "b", "c", "1"])


def _without_corners(S, pairs=2):
    """S less both corners r v s and r ^ s, and their inverses, of its
    first crossing pairs whose corners lie in S and spare every pair kept
    so far: each kept pair, and its inverse pair, then violates."""
    U = S.universe
    gone, kept = set(), set()
    for r, s in itertools.combinations(S.oriented, 2):
        if U.nested(r, s):
            continue
        corners = {U.join(r, s), U.meet(r, s)}
        corners |= {U.invert(c) for c in corners}
        ends = {r, s, U.invert(r), U.invert(s)}
        if not corners <= S.members or corners & (kept | ends) or ends & gone:
            continue
        gone |= corners
        kept |= ends
        pairs -= 1
        if not pairs:
            break
    return SeparationSystem(U, S.members - gone)


def non_submodular_systems():
    for case in CASES:
        S, _ = _loaded(case)
        if S.submodular_witness is not None:
            yield S
    C4 = graphsep.Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    yield _without_corners(graphsep.graph_separation_system(C4, 3, BIG_CAPS))
    for U in (_chain_product((3, 2, 2)), _m3()):
        yield _without_corners(SeparationSystem(U, U.elements()))


def all_systems():
    yield from cut_systems()
    yield from graph_systems()
    yield from table_systems()
    yield from non_submodular_systems()


SYSTEMS = list(all_systems())


def test_the_systems_cover_every_case():
    assert any(x == S.universe.invert(x) for S in SYSTEMS for x in S.oriented)
    assert any(literal_submodular_violation(S) is not None for S in SYSTEMS)
    assert any(not isinstance(S.universe, BipartitionUniverse) for S in SYSTEMS)
    kinds = {type(S.universe).__name__ for S in SYSTEMS}
    assert kinds == {"BipartitionUniverse", "GraphUniverse", "TablePoset"}


# -- each predicate against its loop --


def _orientations(S):
    """Every consistent orientation, each with one member flipped, and
    with a degenerate member where S has one."""
    U = S.universe
    for O in orient.consistent_orientations(S, BIG_CAPS):
        yield O
        for x in sorted(O)[:: max(1, len(O) // 3)]:
            yield O - {x} | {U.invert(x)}
    for x in S.oriented:
        if x == U.invert(x):
            yield frozenset(y for y in S.oriented if U.leq(y, x))
            yield frozenset((x,))


def test_profile_violation_matches_the_loop():
    seen = {"profile": 0, "co-join": 0, "inconsistent": 0}
    for S in SYSTEMS:
        for O in _orientations(S):
            want = literal_profile_violation(S, O)
            assert orient.profile_violation(S, O) == want
            if want is None:
                seen["profile"] += 1
            elif orient.consistency_violation(S, O) is None:
                seen["co-join"] += 1
            else:
                seen["inconsistent"] += 1
    assert min(seen.values()) >= 20, seen


def test_profile_violation_names_a_degenerate_member():
    U = _chain_product((3,))
    S = SeparationSystem(U, U.elements())
    assert orient.profile_violation(S, {1}) == literal_profile_violation(S, {1}) == (1, 1)


def test_profile_violation_takes_lists_and_rejects_foreign_members(u4):
    S = SeparationSystem.from_unoriented(u4, [u4.mask_of(["a"])])
    O = [u4.mask_of(["a"])]
    assert orient.profile_violation(S, O) == literal_profile_violation(S, O)
    with pytest.raises(InputError):
        orient.profile_violation(S, [u4.mask_of(["b"])])


def test_profile_triples_match_the_loop():
    for S in SYSTEMS:
        fam = orient.profile_star_family(S)
        want = literal_profile_triples(S)
        assert fam.stars == want
        assert len(fam) == len(want)
        assert fam.stars_only == all(oracles.is_star(S.universe, t) for t in want)


def _literal_profiles(S):
    return [O for O in orient.all_orientations(S, BIG_CAPS)
            if literal_profile_violation(S, O) is None]


def _small_profile_systems(draw):
    """A cut system of at most nine separations, or a table poset: a
    product of chains, whole or a random half of its separations."""
    rng = random.Random(draw(st.integers(0, 10_000), label="seed"))
    if draw(st.booleans(), label="cut"):
        points = "pqrst"[: draw(st.integers(3, 5), label="points")]
        return randomgen.random_order_system(
            rng, points, draw(st.integers(2, 9), label="max seps")
        )
    lengths = draw(st.sampled_from(((3, 3), (2, 3), (3, 2, 2), (5,), (2, 2, 2), (4, 3))))
    U = _chain_product(lengths)
    if draw(st.booleans(), label="whole"):
        return SeparationSystem(U, U.elements())
    return SeparationSystem.from_unoriented(
        U, rng.sample(U.elements(), len(U.elements()) // 2)
    )


@given(st.data())
def test_dropping_the_dead_triples_keeps_the_profiles(data):
    """Tangles over the profile family, over every triple the literal
    loop finds (dead ones included) and the literal 2^|S| profile loop
    agree on random cut systems and table posets."""
    S = _small_profile_systems(data.draw)
    full = orient.StarFamily(S, literal_full_profile_triples(S), require_stars=False)
    tangles = orient.enumerate_tangles(S, orient.profile_star_family(S), BIG_CAPS)
    assert tangles == orient.enumerate_tangles(S, full, BIG_CAPS)
    assert sorted(tangles, key=sorted) == sorted(_literal_profiles(S), key=sorted)


def _violating_pairs(S):
    U = S.universe
    return sum(
        U.join(r, s) not in S.members and U.meet(r, s) not in S.members
        for r, s in itertools.combinations_with_replacement(S.oriented, 2)
    )


def test_submodular_violation_matches_the_loop():
    witnesses = 0
    for S in SYSTEMS:
        want = literal_submodular_violation(S)
        assert S.submodular_violation() == want
        witnesses += want is not None
    assert witnesses >= 5
    kinds = {type(S.universe).__name__ for S in non_submodular_systems()}
    assert kinds == {"BipartitionUniverse", "GraphUniverse", "TablePoset"}
    several = [S for S in non_submodular_systems() if _violating_pairs(S) >= 3]
    assert {type(S.universe).__name__ for S in several} >= {"GraphUniverse", "TablePoset"}


# -- lattice codes --


def _check_code_laws(U, elems):
    """Both codes injective on elems, jcode(x v y) = jcode(x) | jcode(y)
    and mcode(x ^ y) = mcode(x) & mcode(y) for every pair of elems."""
    elems = list(elems)
    jc, mc = U.lattice_codes(elems)
    assert len(set(jc)) == len(set(mc)) == len(set(elems))
    pairs = list(itertools.product(range(len(elems)), repeat=2))
    joins, _ = U.lattice_codes([U.join(elems[i], elems[j]) for i, j in pairs])
    _, meets = U.lattice_codes([U.meet(elems[i], elems[j]) for i, j in pairs])
    for (i, j), jj, mm in zip(pairs, joins, meets):
        assert jj == jc[i] | jc[j], (elems[i], elems[j])
        assert mm == mc[i] & mc[j], (elems[i], elems[j])


def _whole_universes():
    yield BipartitionUniverse("pqr")
    P3 = graphsep.Graph.from_edges([("a", "b"), ("b", "c")])
    C4 = graphsep.Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    yield graphsep.GraphUniverse(P3)
    yield graphsep.GraphUniverse(C4)
    for lengths in ((3, 3), (2, 3), (3, 2, 2), (5,)):
        yield _chain_product(lengths)
    yield _m3()


def test_lattice_codes_obey_the_laws_on_every_system():
    for S in SYSTEMS:
        _check_code_laws(S.universe, S.oriented)
        assert S.lattice_codes == S.universe.lattice_codes(S.oriented)


def test_lattice_codes_obey_the_laws_on_whole_universes():
    for U in _whole_universes():
        _check_code_laws(U, U.elements())


def test_m3_is_a_lattice_that_is_not_distributive():
    U = _m3()
    a, b, c = U.id_of("a"), U.id_of("b"), U.id_of("c")
    assert U.meet(a, U.join(b, c)) != U.join(U.meet(a, b), U.meet(a, c))


def test_classify_matches_the_loop():
    trivial = 0
    for S in SYSTEMS:
        for x in S.oriented:
            want = literal_classify(S, x)
            assert S.classify(x) == want
            trivial += want.trivial
        assert S.trivial_members() == tuple(
            x for x in S.oriented if literal_classify(S, x).trivial
        )
    assert trivial >= 20


def test_star_masks_match_star_violation():
    for S in SYSTEMS:
        U = S.universe
        n = len(S.oriented)
        rng = random.Random(n)
        masks = {1 << i for i in range(n)}
        masks |= {rng.getrandbits(n) & rng.getrandbits(n) for _ in range(60)}
        masks |= {_mask(S, t) for t in literal_full_profile_triples(S)}
        for m in masks:
            assert orient.star_mask_violation(S, m) == (
                oracles.star_violation(U, _star_of(S, m))
            )


def test_a_non_star_mask_raises_with_the_witness_of_star_violation():
    found = 0
    for S in SYSTEMS:
        U = S.universe
        for t in sorted(literal_full_profile_triples(S), key=sorted)[:8]:
            bad = oracles.star_violation(U, t)
            if bad is None:
                continue
            found += 1
            with pytest.raises(InputError) as err:
                orient.StarFamily.from_masks(S, [_mask(S, t)])
            assert str(err.value) == f"family member is not a star: {bad}"
            with pytest.raises(InputError) as old:
                orient.StarFamily(S, [t])
            assert str(old.value) == str(err.value)
    assert found >= 20
    U = _chain_product((3,))
    S = SeparationSystem(U, U.elements())
    with pytest.raises(InputError, match=r"\('degenerate', 1\)"):
        orient.StarFamily.from_masks(S, [_mask(S, [1])])


# -- one family from masks, one from the same frozensets --


def _twins(S, stars, require_stars):
    stars = list(stars)
    by_masks = orient.StarFamily.from_masks(
        S, [_mask(S, t) for t in stars], require_stars=require_stars
    )
    return by_masks, orient.StarFamily(S, stars, require_stars=require_stars)


def _trip_point(S, fam, field, top):
    """The least cap value for field at which the search completes."""
    lo, hi = 0, top
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            orient.enumerate_tangles(S, fam, replace(BIG_CAPS, **{field: mid}))
            hi = mid
        except ResourceCapError:
            lo = mid + 1
    return lo


def _family_cases():
    for S in SYSTEMS[::3]:
        yield S, literal_full_profile_triples(S), False
        yield S, randomgen.standard_star_base(S), True
    G = graphsep.Graph.from_edges(triangle_tripod_edges())
    S = graphsep.graph_separation_system(G, 2, BIG_CAPS)
    yield S, graphsep.tk_star_family(G, 2, S, BIG_CAPS).stars, True


def test_mask_and_frozenset_families_agree():
    searched = refused = 0
    for S, stars, require_stars in _family_cases():
        try:
            a, b = _twins(S, stars, require_stars)
        except InputError as err:
            # a degenerate member's regularity singleton is no star
            with pytest.raises(InputError) as old:
                orient.StarFamily(S, stars, require_stars=require_stars)
            assert str(old.value) == str(err)
            refused += 1
            continue
        assert a.stars == b.stars
        assert a.stars_sorted == b.stars_sorted
        assert len(a) == len(b)
        assert a.stars_only == b.stars_only
        assert a.missing_trivial_singleton == b.missing_trivial_singleton
        assert a.missing_small_singleton == b.missing_small_singleton
        for t in itertools.islice(b.stars_sorted, 5):
            assert t in a and t in b
        outside = frozenset(S.oriented)
        assert (outside in a) == (outside in b)
        assert ("no such member",) not in a
        if a.stars_only:
            extra = [frozenset((x,)) for x in S.oriented[:3]]
            assert a.extended(extra).stars == b.extended(extra).stars
        else:
            for fam in (a, b):
                with pytest.raises(InputError):
                    fam.extended([])
        tangles = orient.enumerate_tangles(S, b, BIG_CAPS)
        assert orient.enumerate_tangles(S, a, BIG_CAPS) == tangles
        states = _trip_point(S, b, "max_states", BIG_CAPS.max_states)
        assert _trip_point(S, a, "max_states", states + 1) == states
        if tangles:
            searched += 1
            assert _trip_point(S, a, "max_results", len(tangles)) == len(tangles)
            assert _trip_point(S, b, "max_results", len(tangles)) == len(tangles)
    assert searched >= 5 and refused >= 1


def _small_stars(S):
    """The star masks of S of at most two members."""
    n = len(S.oriented)
    ones = [1 << i for i in range(n)]
    pairs = [a | b for a, b in itertools.combinations(ones, 2)]
    return [m for m in [0] + ones + pairs if orient.star_mask_violation(S, m) is None]


# systems, each with an element of its universe outside it, or None
AGREE_CASES = [
    (S, next((x for x in S.universe.elements() if x not in S.members), None))
    for S in SYSTEMS[::3]
]


@given(st.data())
def test_the_constructor_and_from_masks_agree(data):
    """Lists of member sets with repeats, the empty set and non-stars,
    given to the constructor as sets and to from_masks as masks: the
    families agree, or each names its documented witness, the first
    non-star in the order given or in the kept order; a member outside
    the system raises InputError from both."""
    S, outside = data.draw(st.sampled_from(AGREE_CASES), label="system")
    U, n = S.universe, len(S.oriented)
    any_mask = st.sets(st.integers(0, n - 1), max_size=3).map(
        lambda ps: sum(1 << p for p in ps)
    )
    pool = data.draw(st.lists(st.sampled_from(_small_stars(S)) | any_mask,
                              min_size=1, max_size=6), label="pool")
    masks = data.draw(st.lists(st.sampled_from(pool), max_size=10), label="masks")
    require_stars = data.draw(st.booleans(), label="require_stars")
    sets = [_star_of(S, m) for m in masks]

    if outside is not None and data.draw(st.booleans(), label="non-member"):
        at = data.draw(st.integers(0, len(sets)), label="at")
        with pytest.raises(InputError, match="is not in the system"):
            orient.StarFamily(S, sets[:at] + [{outside}] + sets[at:],
                              require_stars=require_stars)
        with pytest.raises(InputError, match="outside the system"):
            orient.StarFamily.from_masks(S, masks[:at] + [1 << n] + masks[at:],
                                         require_stars=require_stars)
        return

    bad = [s for s in sets if oracles.star_violation(U, s) is not None]
    if require_stars and bad:
        kept = masks if orient._in_star_order(masks) else sorted(set(masks))
        first_kept = next(_star_of(S, m) for m in kept
                          if oracles.star_violation(U, _star_of(S, m)) is not None)
        for build, first in (
            (lambda: orient.StarFamily(S, sets), bad[0]),
            (lambda: orient.StarFamily.from_masks(S, masks), first_kept),
        ):
            with pytest.raises(InputError) as err:
                build()
            assert str(err.value) == (
                f"family member is not a star: {oracles.star_violation(U, first)}"
            )
        return

    a = orient.StarFamily(S, sets, require_stars=require_stars)
    b = orient.StarFamily.from_masks(S, masks, require_stars=require_stars)
    assert a.masks_sorted == b.masks_sorted
    assert a.stars_sorted == b.stars_sorted
    assert len(a) == len(b) == len(set(masks))
    assert a.stars_only == b.stars_only == (require_stars or not bad)
    for sigma in sets + [frozenset(S.oriented), {outside}]:
        assert (sigma in a) == (sigma in b) == (sigma in sets)
    assert a.missing_trivial_singleton == b.missing_trivial_singleton
    assert a.missing_small_singleton == b.missing_small_singleton


def test_each_path_names_its_own_first_non_star(s4):
    """Two non-stars out of star order: the constructor names the first
    as given, from_masks the first of the masks it keeps sorted."""
    U = s4.universe
    given = [frozenset((2, 6)), frozenset((1, 3))]
    masks = [_mask(s4, sigma) for sigma in given]
    assert masks[0] > masks[1] and not orient._in_star_order(masks)
    for build, first in (
        (lambda: orient.StarFamily(s4, given), given[0]),
        (lambda: orient.StarFamily.from_masks(s4, masks), given[1]),
    ):
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == (
            f"family member is not a star: {oracles.star_violation(U, first)}"
        )


def test_a_shuffled_copy_of_a_profile_family_searches_alike():
    searched = 0
    for S in SYSTEMS[::2]:
        fam = orient.profile_star_family(S)
        shuffled = copy.copy(fam)
        masks = list(fam._masks)
        random.Random(len(masks)).shuffle(masks)
        shuffled._masks = tuple(masks)
        tangles = orient.enumerate_tangles(S, fam, BIG_CAPS)
        assert orient.enumerate_tangles(S, shuffled, BIG_CAPS) == tangles
        states = _trip_point(S, fam, "max_states", BIG_CAPS.max_states)
        assert _trip_point(S, shuffled, "max_states", states + 1) == states
        searched += len(tangles) > 1
    assert searched >= 5


def test_missing_singletons_match_the_loop():
    missing = 0
    for S in SYSTEMS:
        U = S.universe
        base = randomgen.standard_star_base(S)
        trivial = [x for x in S.oriented if literal_classify(S, x).trivial]
        small = [x for x in S.oriented if U.leq(x, U.invert(x))]
        for drop in trivial[:1] + small[-1:]:
            stars = base - {frozenset((U.invert(drop),))}
            want = (
                next((x for x in trivial if frozenset((U.invert(x),)) not in stars), None),
                next((x for x in small if frozenset((U.invert(x),)) not in stars), None),
            )
            for fam in _twins(S, stars, False):
                assert (fam.missing_trivial_singleton, fam.missing_small_singleton) == want
            missing += want != (None, None)
    assert missing >= 20


def test_singleton_scans_match_a_literal_scan():
    """Both singleton properties against the scan over S.oriented with
    classify and leq: on the profile families of SYSTEMS, read without
    sorting the family, and on frozenset-built families holding each
    singleton at random and a few of the profile triples."""
    rng = random.Random(14)
    missing = 0
    for S in SYSTEMS:
        U = S.universe
        profiles = orient.profile_star_family(S)
        singles = [frozenset((x,)) for x in S.oriented]
        triples = sorted(profiles.stars, key=sorted)[:5]
        families = [profiles] + [
            orient.StarFamily(
                S, [t for t in singles if rng.random() < keep] + triples,
                require_stars=False,
            )
            for keep in (0.5, 0.9, 1.0)
        ]
        for fam in families:
            got = (fam.missing_trivial_singleton, fam.missing_small_singleton)
            assert "masks_sorted" not in vars(fam)
            stars = fam.stars

            def lacking(x):
                return frozenset((U.invert(x),)) not in stars

            want = (
                next((x for x in S.oriented
                      if lacking(x) and literal_classify(S, x).trivial), None),
                next((x for x in S.oriented
                      if lacking(x) and U.leq(x, U.invert(x))), None),
            )
            assert got == want
            missing += want != (None, None)
    assert missing >= 40


# -- what the profile layer keeps --


def test_the_profile_pipeline_keeps_no_frozensets_and_no_join_rows():
    # every triple of this system holds both orientations of a separation
    U = randomgen.cut_universe(random.Random(5), "pqrstu")
    S = order_filtered_system(U, 5)
    fam = orient.profile_star_family(S)
    full = orient.StarFamily(S, literal_full_profile_triples(S), require_stars=False)
    tangles = orient.enumerate_tangles(S, fam, BIG_CAPS)
    assert len(fam) == 0 and len(full) > 0
    assert len(tangles) >= 2 and tangles == orient.enumerate_tangles(S, full, BIG_CAPS)

    U = randomgen.cut_universe(random.Random(7), "pqrstu")
    S = order_filtered_system(U, 13)
    fam = orient.profile_star_family(S)
    tangles = orient.enumerate_tangles(S, fam, BIG_CAPS)
    assert len(tangles) >= 2 and len(fam) > 0
    canonical.canonical_nested_set(S, tangles, BIG_CAPS)
    canonical.good_nested_set(S, tangles, BIG_CAPS)
    assert "stars" not in vars(fam)
    assert "_join_rows" not in vars(S)


def test_a_frozenset_family_keeps_the_masks_of_from_masks(triangle_tripod):
    _, S, tk = triangle_tripod
    fam = orient.StarFamily(S, tk.stars)
    by_masks = orient.StarFamily.from_masks(S, [_mask(S, t) for t in tk.stars])
    orient.enumerate_tangles(S, fam, BIG_CAPS)
    assert fam._masks == by_masks._masks
    assert fam.masks_sorted == by_masks.masks_sorted == tk.masks_sorted
    assert "stars" not in vars(fam)
