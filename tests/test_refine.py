"""Close relation, guarded infima, and star refinement."""

import random
from dataclasses import replace

import pytest

from tangletree import graphsep, orient, randomgen, refine, trees
from tangletree.core import BipartitionUniverse, SeparationSystem
from tangletree.errors import DomainError, InputError, IntegrityError

from conftest import BIG_CAPS, away_from


@pytest.fixture()
def escape_system():
    """Small system where a meet of two members leaves the system."""
    U = BipartitionUniverse(["1", "2", "3", "4"])
    sides = [
        0,
        U.mask_of(["2"]),
        U.mask_of(["1", "2"]),
        U.mask_of(["1", "3"]),
        U.mask_of(["1", "2", "3"]),
    ]
    S = SeparationSystem.from_unoriented(U, sides)
    P = frozenset(sides)  # orient everything away from point 4
    return U, S, P


def test_closely_related_counterexample(escape_system):
    U, S, P = escape_system
    s = U.mask_of(["1", "2"])
    w = refine.closely_related_violation(S, s, P)
    # meet with {1,3} is {1}, which is not in the system
    assert w == ("meet-escapes", U.mask_of(["1", "3"]))
    assert not refine.closely_related(S, s, P)
    # a member whose meets all stay inside is closely related
    assert refine.closely_related(S, U.mask_of(["2"]), P)
    # non-members are flagged as such
    assert refine.closely_related_violation(S, U.invert(s), P) == ("not-member",)


def test_full_universe_everything_close(u4, s4):
    P = away_from(u4, "a")
    for s in P:
        assert refine.closely_related(s4, s, P)


def test_profile_maxima_are_closely_related():
    # seeded sample; the acceptance suite runs this at scale
    for seed in range(30):
        S = randomgen.random_order_system(random.Random(seed), ["p", "q", "r", "s"])
        if not S.is_submodular():
            continue
        fam = orient.profile_star_family(S)
        for P in orient.enumerate_tangles(S, fam, BIG_CAPS):
            for m in orient.maximal_members(S, P):
                assert refine.closely_related(S, m, P)


def test_distinguishes_well(u4, s4):
    Pa, Pb = away_from(u4, "a"), away_from(u4, "b")
    assert refine.distinguishes_well(s4, u4.mask_of(["a"]), Pa, Pb)
    assert refine.good(s4, u4.mask_of(["a"]), [Pa, Pb])
    with pytest.raises(InputError):
        refine.distinguishes_well(s4, u4.mask_of(["a"]), Pa, Pa)


def test_guarded_inf_validates_witnesses(u4, s4):
    Pa, Pb = away_from(u4, "a"), away_from(u4, "b")
    s = u4.mask_of(["c", "d"])  # in both profiles
    w = refine.CloseWitness(u4.mask_of(["b", "d"]), Pa)
    assert refine.guarded_inf(s4, s, [w]) == u4.mask_of(["d"])
    with pytest.raises(InputError):
        # witness profile does not contain the base
        refine.guarded_inf(s4, u4.mask_of(["a"]), [w])
    with pytest.raises(InputError):
        refine.guarded_inf(s4, s, [refine.CloseWitness(u4.mask_of(["a"]), Pa)])


def test_guarded_inf_escape_is_integrity_error(escape_system):
    U, S, P = escape_system
    # {1,2} is not closely related to P, so a witness built from it is
    # rejected as input; but two individually fine witnesses whose meet
    # escapes would be an internal bug
    s = U.mask_of(["1", "2", "3"])
    w1 = refine.CloseWitness(U.mask_of(["1", "2"]), P)
    with pytest.raises(InputError):
        refine.guarded_inf(S, s, [w1])


def test_witnesses_for_star(u4, s4):
    tangles = [away_from(u4, x) for x in "abcd"]
    a, b = u4.mask_of(["a"]), u4.mask_of(["b"])
    sigma = frozenset((a, b))
    ws = refine.witnesses_for_star(s4, sigma, tangles)
    assert len(ws) == 2
    assert u4.invert(a) in ws[0] and u4.invert(b) in ws[1]
    with pytest.raises(DomainError):
        refine.witnesses_for_star(s4, sigma, [tangles[2]])


# -- refine_star --


def tripod_inessential(tripod):
    from tangletree import canonical

    G, S, fam = tripod
    tangles = orient.enumerate_tangles(S, fam, BIG_CAPS)
    res = canonical.canonical_nested_set(S, tangles, BIG_CAPS)
    split = trees.essential_nodes(S, res.nested, tangles, BIG_CAPS)
    return S, fam, tangles, res.nested, split


def test_refine_star_on_tripod_hub(tripod):
    S, fam, tangles, nested, split = tripod_inessential(tripod)
    assert len(split.inessential) == 1
    sigma = split.inessential[0]
    T = refine.refine_star(S, sigma, fam, tangles=tangles, caps=BIG_CAPS)
    assert T.n == 4
    U = S.universe
    inverses = {U.canon(U.invert(x)) for x in sigma}
    leaf = {U.canon(x) for x in T.leaf_separations()}
    assert inverses <= leaf
    fprime = fam.extended(
        [frozenset((U.invert(x),)) for x in sigma], name="refined"
    )
    assert T.validate(fprime).all_good()


def test_refine_star_rejects_essential(tripod):
    S, fam, tangles, nested, split = tripod_inessential(tripod)
    sigma = split.essential[0]
    with pytest.raises(DomainError):
        refine.refine_star(S, sigma, fam, tangles=tangles, caps=BIG_CAPS)


def test_refine_star_securing_shift():
    # frozen seed: the duality tree needs one shift before its leaves
    # match the star, exercising the securing loop
    S, fam = randomgen.random_duality_instance(2016)
    U = S.universe
    tangles = orient.enumerate_tangles(S, fam, BIG_CAPS)
    assert len(tangles) == 3
    sigma = frozenset((U.mask_of(["p", "q"]), U.mask_of(["r"])))
    tr = []
    T = refine.refine_star(S, sigma, fam, tangles=tangles, caps=BIG_CAPS, trace=tr)
    assert [
        (U.format_element(st["target"]), U.format_element(st["base"]))
        for st in tr
    ] == [("{p,q}", "{q}")]
    assert T.n == 4
    fprime = fam.extended(
        [frozenset((U.invert(x),)) for x in sigma], name="refined"
    )
    assert T.validate(fprime).all_good()


def test_refine_star_rejects_repeated_members(tripod):
    S, fam, tangles, nested, split = tripod_inessential(tripod)
    U = S.universe
    x = next(iter(split.inessential[0]))
    with pytest.raises(InputError):
        refine.refine_star(
            S, frozenset((x, U.invert(x))), fam, tangles=tangles, caps=BIG_CAPS
        )


# -- refine_treeset --


def test_refine_treeset_tripod(tripod):
    S, fam, tangles, nested, split = tripod_inessential(tripod)
    out = refine.refine_treeset(S, nested, fam, tangles=tangles, caps=BIG_CAPS)
    assert out.base == nested
    # the hub star is itself a family member, so no separations get added
    assert out.refined.members == nested.members
    assert len(out.inessential) == 1
    assert out.at_most_one_inessential
    kinds = dict(out.node_kinds)
    assert sorted(kinds.values()) == [
        "family-star",
        "tangle-home",
        "tangle-home",
        "tangle-home",
    ]
    # revalidate independently: every node is a family star or a home
    homes = {trees.lives_at(S, P, out.refined) for P in tangles}
    for node in trees.nodes_of(out.refined, BIG_CAPS):
        assert node in homes or node in fam
    assert (
        orient.undistinguished_pair(S, out.refined.sorted_members, tangles)
        is None
    )


def test_refine_treeset_strict_growth():
    # frozen seed: refining the one inessential node adds separations
    from tangletree import canonical

    S, fam = randomgen.random_duality_instance(248)
    tangles = orient.enumerate_tangles(S, fam, BIG_CAPS)
    res = canonical.canonical_nested_set(S, tangles, BIG_CAPS)
    out = refine.refine_treeset(S, res.nested, fam, tangles=tangles, caps=BIG_CAPS)
    assert len(res.nested.members) == 3
    assert len(out.refined.members) == 5
    assert out.refined.members > res.nested.members
    assert len(out.inessential) == 1
    homes = {trees.lives_at(S, P, out.refined) for P in tangles}
    for node in trees.nodes_of(out.refined, BIG_CAPS):
        assert node in homes or node in fam


def test_a_refined_set_and_its_tree_search_for_the_nodes_once(monkeypatch):
    """refine_treeset and treeset_to_stree on the refined nested set
    share one node search per caps; other caps search again."""
    from tangletree import canonical

    searched = []
    search = trees._search_nodes

    def counting(N, caps):
        searched.append((N, caps))
        return search(N, caps)

    monkeypatch.setattr(trees, "_search_nodes", counting)
    S, fam = randomgen.random_duality_instance(248)
    out = canonical.refined_tree_of_tangles(S, fam, caps=BIG_CAPS).refinement
    tree = trees.treeset_to_stree(out.refined, BIG_CAPS)
    refined, nodes = out.refined, trees.nodes_of(out.refined, BIG_CAPS)
    assert [caps for N, caps in searched if N is refined] == [BIG_CAPS]
    assert [node for node, _ in out.node_kinds] == list(nodes)
    assert tree.n == len(nodes) == len(out.node_kinds)
    other = replace(BIG_CAPS, max_states=BIG_CAPS.max_states - 1)
    assert trees.nodes_of(refined, other) == nodes == search(refined, BIG_CAPS)
    assert [caps for N, caps in searched if N is refined] == [BIG_CAPS, other]


def test_refine_treeset_all_essential_is_identity(p3):
    G, S, fam = p3
    from tangletree import canonical

    tangles = orient.enumerate_tangles(S, fam, BIG_CAPS)
    res = canonical.canonical_nested_set(S, tangles, BIG_CAPS)
    out = refine.refine_treeset(S, res.nested, fam, tangles=tangles, caps=BIG_CAPS)
    assert out.refined.members == res.nested.members
    assert not out.inessential
