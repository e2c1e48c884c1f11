"""Closure under shifting: the index-space verifier and its position-level
helpers against the literal loop over the oracles' emulates, ShiftMap and
star_in_shift_scope, the tables it keeps on the system, and the instances
the repair loop draws with it."""

import pytest

from tangletree import duality, graphsep, orient, randomgen, trees
from tangletree.config import Caps
from tangletree.core import SeparationSystem
from tangletree.errors import IntegrityError

import oracles
from conftest import BIG_CAPS, triangle_tripod_edges

FOUR = ("p", "q", "r", "s")
FIVE = ("p", "q", "r", "s", "t")


def literal_shifting_closure_violation(S, family):
    """The universe-oracle loop: every non-trivial base r, every s >= r
    that emulates it, every star of the family in the shift scope."""
    U = S.universe
    for r in S.oriented:
        flags = S.classify(r)
        if flags.degenerate or flags.trivial:
            continue
        for s in S.oriented:
            if not U.leq(r, s) or not oracles.emulates(S, s, r):
                continue
            sigma = oracles.emulation_for_family_violation(S, s, r, family)
            if sigma is not None:
                return (s, r, sigma)
    return None


def _tk_star(edges, k):
    G = graphsep.Graph.from_edges(edges)
    S = graphsep.graph_separation_system(G, k, BIG_CAPS)
    return S, graphsep.tk_star_family(G, k, S, BIG_CAPS)


def _k5():
    names = "abcde"
    return [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]


def _grid(n):
    edges = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                edges.append((f"g{i}{j}", f"g{i + 1}{j}"))
            if j + 1 < n:
                edges.append((f"g{i}{j}", f"g{i}{j + 1}"))
    return edges


TK_STAR = {
    "P3": ([("a", "b"), ("b", "c")], 2),
    "P4": ([("a", "b"), ("b", "c"), ("c", "d")], 2),
    "triangle-tripod": (triangle_tripod_edges(), 2),
    "K5-k4": (_k5(), 4),
}


def test_bit_tables_match_the_universe(tripod):
    _, S, _ = tripod
    U, elems = S.universe, S.oriented
    for j, y in enumerate(elems):
        assert S.down_bits[j] == sum(
            1 << i for i, x in enumerate(elems) if U.leq(x, y)
        )
        assert S.strict_down_bits[j] == S.down_bits[j] & ~(1 << j)
    for i in (0, len(elems) // 2, len(elems) - 1):
        row, joinable = S.join_row(i)
        for j, x in enumerate(elems):
            z = U.join(elems[i], x)
            assert row[j] == (S.pos[z] if z in S.members else -1)
            assert (joinable >> j & 1) == (z in S.members)
        assert S.join_row(i) is S.join_row(i)  # built once, then kept


def test_bit_tables_mark_joins_that_leave_the_system(u4):
    sub = SeparationSystem.from_unoriented(
        u4, [u4.mask_of(["a"]), u4.mask_of(["a", "b"]), u4.mask_of(["a", "c"])]
    )
    i = sub.pos[u4.mask_of(["a", "b"])]
    row, joinable = sub.join_row(i)
    j = sub.pos[u4.mask_of(["a", "c"])]
    assert row[j] == -1 and not joinable >> j & 1


@pytest.mark.parametrize("points", [FOUR, FIVE], ids=["4-points", "5-points"])
def test_verifier_matches_the_literal_loop_on_every_repair_state(monkeypatch, points):
    verifier = duality.shifting_closure_violation
    states = []

    def both(S, family):
        expected = literal_shifting_closure_violation(S, family)
        assert verifier(S, family) == expected
        states.append(expected is None)
        return expected

    monkeypatch.setattr(duality, "shifting_closure_violation", both)
    for seed in range(100):
        randomgen.random_duality_instance(seed, points)
    assert states.count(False) >= 100  # repair steps, each with a witness
    assert states.count(True) >= 50  # closed families


@pytest.mark.parametrize("points", [FOUR, FIVE], ids=["4-points", "5-points"])
def test_helpers_match_the_oracles_on_random_instances(points):
    pairs = images = relabelled = 0
    for seed in range(100):
        inst = randomgen.random_duality_instance(seed, points)
        if inst is None:
            continue
        S, fam = inst
        pos, masks = S.pos, fam.masks_over(S)
        tree = duality.duality_decide(S, fam, BIG_CAPS).tree
        for r in S.oriented:
            flags = S.classify(r)
            if flags.degenerate or flags.trivial:
                continue
            ri = pos[r]
            scope = dict(duality._shift_scope(S, ri, masks))
            assert set(scope) == {
                k for k, sigma in enumerate(fam.stars_sorted)
                if oracles.star_in_shift_scope(S, sigma, r)
            }
            for s in S.oriented:
                verdict = duality._emulates(S, pos[s], ri)
                assert verdict == oracles.emulates(S, s, r)
                if not verdict:
                    continue
                pairs += 1
                f = oracles.ShiftMap(S, r, s)
                bits = duality._shift_bits(S, pos[s])
                for k, code in scope.items():
                    img = duality._shift_image(bits, code)
                    want = f.apply_star(fam.stars_sorted[k])
                    assert img == sum(1 << pos[x] for x in want)
                    images += 1
                if tree is None or r not in tree.leaf_separations():
                    continue
                want = {e: f.apply(lab) for e, lab in tree.alpha.items()}
                try:
                    out = duality.shift_stree(tree, r, s, fam)
                except IntegrityError:  # no unique leaf {s*}: check that
                    sbar = frozenset((S.universe.invert(s),))
                    T = trees.STree(S, tree.n, want)
                    assert [T.star_at(v) for v in range(T.n)].count(sbar) != 1
                    continue
                assert out.alpha == want
                relabelled += 1
    assert pairs >= 4000 and images >= 10000 and relabelled >= 50


def _outcome(f, *args):
    try:
        return f(*args)
    except IntegrityError:
        return IntegrityError


def test_helpers_match_the_oracles_on_every_kind_of_system():
    from test_profiles import SYSTEMS

    small = pairs = 0
    for S in SYSTEMS:
        U, pos = S.universe, S.pos
        for r in S.oriented:
            flags = S.classify(r)
            if flags.degenerate or flags.trivial:
                continue
            small += U.leq(r, U.invert(r))
            code = duality._shift_code(S, pos[r])
            for s in S.oriented:
                verdict = duality._emulates(S, pos[s], pos[r])
                assert verdict == oracles.emulates(S, s, r)
                if not verdict:
                    continue
                pairs += 1
                f, bits = oracles.ShiftMap(S, r, s), duality._shift_bits(S, pos[s])
                for x in S.oriented:
                    c = code[pos[x]]
                    assert (c is not None) == f.domain_contains(x)
                    if c is not None:
                        img = _outcome(duality._shift_image, bits, (c,))
                        if img is not IntegrityError:
                            img = S.oriented[img.bit_length() - 1]
                        assert img == _outcome(f.apply, x)
    assert small and pairs >= 1000


@pytest.mark.parametrize("name", sorted(TK_STAR))
def test_verifier_matches_the_literal_loop_on_tk_star_families(name):
    S, fam = _tk_star(*TK_STAR[name])
    assert duality.shifting_closure_violation(S, fam) is None
    assert literal_shifting_closure_violation(S, fam) is None
    # without its first non-singleton star the family is no longer closed
    sigma = next(s for s in fam.stars_sorted if len(s) > 1)
    cut = orient.StarFamily(S, fam.stars - {sigma})
    witness = duality.shifting_closure_violation(S, cut)
    assert witness is not None
    assert witness == literal_shifting_closure_violation(S, cut)


def test_generator_draws_the_same_instances_with_either_verifier(monkeypatch):
    def draw():
        out = []
        for points in (FOUR, FIVE):
            for seed in range(200):
                inst = randomgen.random_duality_instance(seed, points)
                out.append(inst and (inst[0].members, inst[1].stars))
        return out

    drawn = draw()
    assert sum(x is not None for x in drawn) >= 300
    monkeypatch.setattr(
        duality, "shifting_closure_violation", literal_shifting_closure_violation
    )
    assert draw() == drawn


@pytest.mark.parametrize(
    "edges,k,seps", [(_k5(), 4, 26), (_grid(3), 3, 50)], ids=["K5-k4", "grid3-k3"]
)
def test_mid_size_tk_star_families_are_verified(edges, k, seps):
    S, fam = _tk_star(edges, k)
    assert len(S) == seps
    caps = Caps(full_shift_check_limit=64)
    assert duality.shift_verdict(S, fam, caps) == "verified"
