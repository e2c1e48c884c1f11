"""tk-star families kept as position masks and the duality cover fixpoint
over positions, each against the frozenset code it replaced: the
generator that built one frozenset per star, and the fixpoint and tree
rebuild that keyed their tables by member.  Also the bulk star check of
StarFamily.from_masks against the per-mask scan and the literal star
oracle (a mutant of it must be caught), the text that names a non-star,
and what a mask family keeps after duality and refinement."""

import functools
import inspect
import itertools
import json
import random
from types import SimpleNamespace

import pytest

from tangletree import canonical, cli, duality, graphsep, orient, randomgen
from tangletree.core import (
    BipartitionUniverse,
    SeparationSystem,
    bit_column,
    bit_positions,
)
from tangletree.errors import InputError, IntegrityError, ResourceCapError
from tangletree.trees import STree

import oracles
from conftest import BIG_CAPS, triangle_tripod_edges
from test_profiles import SYSTEMS

# -- the literal code --


def literal_tk_star_family(G, k, S, caps=BIG_CAPS):
    """tk_star_family as it was when it built a frozenset per star."""
    elems = S.oriented
    n = len(elems)
    full = G.full_mask
    adj = G.adj
    everyone = (1 << n) - 1
    a_sides = [x[0] for x in elems]
    b_sides = [x[1] for x in elems]
    has_a = [bit_column(a_sides, v) for v in range(G.n)]
    not_a = [everyone ^ m for m in has_a]
    in_b = [bit_column(b_sides, v) for v in range(G.n)]
    live = everyone
    for i, (a, b) in enumerate(elems):
        if a == b:
            live ^= 1 << i

    partners_above = []
    for i, (a, b) in enumerate(elems):
        m = live if live >> i & 1 else 0
        for v in bit_positions(a):
            m &= in_b[v]
        for v in bit_positions(full & ~b):
            m &= not_a[v]
        partners_above.append(m >> (i + 1) << (i + 1))

    stars = [
        frozenset((elems[i],)) for i in bit_positions(live) if a_sides[i] == full
    ]
    reach = {}
    holding = {}
    for i, (x, pi) in enumerate(zip(elems, partners_above)):
        ax, bx = x
        leaving = [
            (1 << u, adj[u] & ~ax)
            for u in bit_positions(ax & bx)
            if adj[u] & ~ax
        ]
        m = pi
        while m:
            jbit = m & -m
            m ^= jbit
            j = jbit.bit_length() - 1
            y = elems[j]
            ay = y[0]
            need = reach.get(ax | ay)
            if need is None:
                need = full & ~(ax | ay)
                for v in bit_positions(need):
                    need |= adj[v]
                reach[ax | ay] = need
            for ubit, out in leaving:
                if out & ay and not ubit & ay:
                    need |= ubit | out & ay
            if not need:
                stars.append(frozenset((x, y)))
            third = holding.get(need)
            if third is None:
                third = everyone
                for v in bit_positions(need):
                    third &= has_a[v]
                holding[need] = third
            third &= pi & partners_above[j]
            while third:
                lbit = third & -third
                third ^= lbit
                stars.append(frozenset((x, y, elems[lbit.bit_length() - 1])))
            if len(stars) > caps.max_results:
                raise ResourceCapError("covering-star family too large")
    return orient.StarFamily(
        S, stars, name=f"tk-star(k={k})", closed_under_shifting=True
    )


def literal_cover_fixpoint(S, family):
    """The cover fixpoint keyed by members: (stars, covered, roots)."""
    U = S.universe
    stars = family.stars_sorted
    by_member = {}
    for si, sigma in enumerate(stars):
        for x in sigma:
            by_member.setdefault(x, []).append(si)
    need = [len(sigma) for sigma in stars]
    covered = {}
    queue = []
    roots = set()
    clock = [0]

    def fire(x, si):
        if x in covered:
            return
        covered[x] = (si, clock[0])
        clock[0] += 1
        queue.append(x)

    def examine(si):
        sigma = stars[si]
        if need[si] == 0:
            roots.add(si)
            for x in sigma:
                fire(x, si)
        elif need[si] == 1:
            for x in sigma:
                if U.invert(x) not in covered:
                    fire(x, si)
                    break

    for si in range(len(stars)):
        examine(si)
    head = 0
    while head < len(queue):
        y = queue[head]
        head += 1
        for si in by_member.get(U.invert(y), ()):
            need[si] -= 1
            examine(si)
    return stars, covered, roots


def literal_tree_from_cover(S, stars, covered, roots, caps=BIG_CAPS):
    root_si = min(roots)
    U = S.universe
    alpha = {}
    counter = [0]

    def new_vertex():
        v = counter[0]
        counter[0] += 1
        return v

    def build(x, parent):
        si, t = covered[x]
        v = new_vertex()
        alpha[(parent, v)] = x
        alpha[(v, parent)] = U.invert(x)
        for w in sorted(stars[si] - {x}):
            wbar = U.invert(w)
            if covered[wbar][1] >= t:
                raise IntegrityError("cover certificates are not stratified")
            build(wbar, v)
        return v

    root = new_vertex()
    for w in sorted(stars[root_si]):
        build(U.invert(w), root)
    return STree(S, counter[0], alpha)


def literal_from_masks_error(S, masks):
    """The text from_masks raised when it scanned every mask in turn, or
    None when all are stars."""
    masks = frozenset(masks)
    bad = next((m for m in masks if orient.star_mask_violation(S, m)), None)
    if bad is None:
        return None
    star = frozenset(S.oriented[i] for i in bit_positions(bad))
    return f"family member is not a star: {oracles.star_violation(S.universe, star)}"


# -- the graphs --


def _glued(blobs, clique):
    return [["hub"] + [f"b{b}x{i}" for i in range(1, clique)] for b in range(blobs)]


def _chain(length):
    return [[f"h{b}", f"c{b}a", f"c{b}b", f"h{b + 1}"] for b in range(length)]


LADDER = (
    ("3xK5", _glued(3, 5)),
    ("4xK4", _glued(4, 4)),
    ("4xK5", _glued(4, 5)),
    ("chain4xK4", _chain(4)),
    ("5xK3", _glued(5, 3)),
    ("6xK3", _glued(6, 3)),
)


def ladder_graphs(seed):
    """The six ladder shapes, their vertices renamed as a seeded run of
    the graph-ladder benchmark renames them (seed None keeps the names).
    The names fix the vertex order, hence the positions of the members."""
    rng = random.Random(seed)
    for label, blocks in LADDER:
        vertices = sorted({v for block in blocks for v in block})
        if seed is not None:
            names = (f"v{i}" for i in rng.sample(range(1000), len(vertices)))
            rename = dict(zip(vertices, names))
            blocks = [sorted(rename[v] for v in block) for block in blocks]
        edges = [(u, v) for block in blocks
                 for i, u in enumerate(block) for v in block[i + 1:]]
        if seed is not None:  # the flips and the shuffle of the edge list
            for _ in edges:
                rng.random()
            rng.shuffle(edges)
        yield f"{label} seed {seed}", graphsep.Graph.from_edges(edges)


def random_graphs():
    for seed in range(8):
        rng = random.Random(seed)
        G = randomgen.random_connected_graph(rng, 5 + seed % 4, extra=1 + seed % 3)
        yield f"random seed {seed}", G, 2 + seed % 2


def _pairs():
    """(label, literal family, mask family) over one system each."""
    cases = [(label, G, 3) for seed in (1, 5) for label, G in ladder_graphs(seed)]
    for label, G, k in cases + list(random_graphs()):
        S = graphsep.graph_separation_system(G, k, BIG_CAPS)
        yield label, literal_tk_star_family(G, k, S), graphsep.tk_star_family(G, k, S, BIG_CAPS)


PAIRS = list(_pairs())


def _extension(fam):
    """fam extended by the inverse singletons of every seventh member, as
    refinement extends a family by the singletons of up-closures."""
    S = fam.system
    U = S.universe
    return fam.extended(
        [frozenset((U.invert(x),)) for x in S.oriented[::7] if x != U.invert(x)]
    )


# -- the families --


def test_tk_star_masks_match_the_frozenset_family():
    sizes = set()
    for label, old, new in PAIRS:
        S = new.system
        assert new._masks is not None and old._masks is not None, label
        assert sorted(new._masks) == list(old._masks), label
        assert new.closed_under_shifting and new.stars_only
        assert new.name == old.name
        assert "masks_sorted" in vars(new), label  # kept as generated
        assert len(new) == len(old)
        assert tuple(new) == old.stars_sorted
        assert new.stars == old.stars
        assert new.missing_trivial_singleton == old.missing_trivial_singleton
        assert new.missing_small_singleton == old.missing_small_singleton
        for sigma in old.stars_sorted[:: max(1, len(old) // 20)]:
            assert sigma in new
        U = S.universe
        for x in S.oriented:
            assert ((U.invert(x),) in new) == (frozenset((U.invert(x),)) in old.stars)
        sizes |= {len(s) for s in old.stars}
    assert sizes == {1, 2, 3}


@functools.cache
def extended_pairs():
    return [(label, _extension(old), _extension(new)) for label, old, new in PAIRS]


def test_extensions_match_the_frozenset_family():
    for label, old, new in extended_pairs():
        assert new._masks is not None and old._masks is not None, label
        assert sorted(new._masks) == sorted(old._masks), label
        assert tuple(new) == old.stars_sorted
        assert len(new) == len(old) and not new.closed_under_shifting
    label, old, new = PAIRS[0]
    small = new.extended([frozenset((x,)) for x in new.system.oriented[:9]])
    assert small.masks_sorted == tuple(
        sorted(small._masks, key=orient.mask_order(small.system))
    )


def test_a_list_out_of_star_order_is_sorted():
    label, old, new = PAIRS[0]
    S = new.system
    masks = list(new.masks_sorted)
    for shuffled in (masks[::-1], masks[1::2] + masks[::2], masks + masks[:1]):
        fam = orient.StarFamily.from_masks(S, shuffled)
        assert "masks_sorted" not in vars(fam)
        assert fam.masks_sorted == new.masks_sorted
        assert fam.stars_sorted == old.stars_sorted


# -- the fixpoint and the tree --


def _compare_fixpoints(S, old_fam, new_fam):
    stars, want, want_roots = literal_cover_fixpoint(S, old_fam)
    masks, covered, roots = duality._cover_fixpoint(S, new_fam)
    got = {S.oriented[p]: c for p, c in enumerate(covered) if c is not None}
    assert got == want
    assert {si for si, flag in enumerate(roots) if flag} == want_roots
    if not want_roots:
        return False
    want_tree = literal_tree_from_cover(S, stars, want, want_roots)
    tree = duality._tree_from_cover(S, masks, covered, roots, BIG_CAPS)
    assert (tree.n, tree.alpha) == (want_tree.n, want_tree.alpha)
    return True


def test_cover_fixpoint_matches_the_member_keyed_loop():
    trees = 0
    for (label, old, new), (_, old_ext, new_ext) in zip(PAIRS, extended_pairs()):
        S = new.system
        trees += _compare_fixpoints(S, old, new)
        trees += _compare_fixpoints(S, old_ext, new_ext)
        # a family built from frozensets fires in its own frozensets' order
        trees += _compare_fixpoints(S, old, old)
    assert trees >= 30


def test_firing_in_position_order_is_caught(monkeypatch):
    """Firing the members of a star in position order, not in the order
    its frozenset iterates them, gives covered maps that differ from the
    loop's."""
    star = orient.StarFamily.star

    def in_position_order(fam, i):
        return tuple(sorted(star(fam, i), key=fam.system.pos.__getitem__))

    monkeypatch.setattr(orient.StarFamily, "star", in_position_order)
    caught = 0
    for label, old, new in extended_pairs():
        try:
            _compare_fixpoints(new.system, old, new)
        except AssertionError:
            caught += 1
    assert caught >= 10


def test_a_star_given_out_of_position_order_fires_in_position_order():
    """A star fires its members in the order in which the frozenset built
    by inserting them in position order iterates them, whatever order it
    was given in.  On 6 points the members are the masks themselves, and
    pairwise disjoint masks that collide in a 3-member set's table (equal
    mod 8) are multiples of 8; there, insertion order decides the
    iteration order, and so the times in the covered map."""
    S = SeparationSystem(BipartitionUniverse("pqrstu"), range(64))
    mask_key = orient.mask_order(S)

    def key(t):
        return mask_key(S.member_mask(t))

    colliding = [
        t for t in itertools.combinations(range(64), 3)
        if oracles.is_star(S.universe, t) and len({x % 8 for x in t}) < 3
    ]
    reordered = trees = 0
    for seed in range(16):
        rng = random.Random(seed)
        given = [t[::-1] for t in rng.sample(colliding, 12)]
        given += [(x,) for x in range(64) if rng.random() < 0.5]
        rng.shuffle(given)
        fam = orient.StarFamily(S, map(frozenset, given))
        by_position = sorted({frozenset(t): t[::-1] for t in given}.values(), key=key)
        literal = SimpleNamespace(stars_sorted=tuple(map(frozenset, by_position)))
        as_given = SimpleNamespace(stars_sorted=tuple(
            frozenset(t[::-1]) for t in by_position
        ))
        for i, sigma in enumerate(literal.stars_sorted):
            assert list(fam.star(i)) == list(sigma)
        trees += _compare_fixpoints(S, literal, fam)
        # the loop over the stars as given fires some of them otherwise
        reordered += (literal_cover_fixpoint(S, as_given)[1]
                      != literal_cover_fixpoint(S, literal)[1])
    assert trees >= 10 and reordered >= 2


# -- what a mask family keeps --


def test_duality_and_refinement_build_no_frozensets():
    triangle = [("a", "b"), ("b", "c"), ("a", "c")]
    verified = 0
    for edges, k, kind in (
        (triangle_tripod_edges(), 2, "tangle"),
        (triangle_tripod_edges(), 3, "tree"),
        (triangle, 3, "tree"),
    ):
        G = graphsep.Graph.from_edges(edges)
        S = graphsep.graph_separation_system(G, k, BIG_CAPS)
        fam = graphsep.tk_star_family(G, k, S, BIG_CAPS)
        assert duality.duality_decide(S, fam, BIG_CAPS).kind == kind
        assert "stars" not in vars(fam) and "stars_sorted" not in vars(fam)
        verified += duality.shift_verdict(S, fam, BIG_CAPS) == "verified"
    assert verified == 2  # the exhaustive shift check read the masks too
    label, G = next(ladder_graphs(1))
    S = graphsep.graph_separation_system(G, 3, BIG_CAPS)
    fam = graphsep.tk_star_family(G, 3, S, BIG_CAPS)
    out = canonical.refined_tree_of_tangles(S, fam, caps=BIG_CAPS)
    assert out.refinement.inessential
    assert "stars" not in vars(fam) and "stars_sorted" not in vars(fam)


# -- the star check --


def test_the_bulk_star_check_matches_the_per_mask_scan():
    raised = passed = 0
    for S in SYSTEMS:
        n = len(S.oriented)
        rng = random.Random(n)
        stars = [m for m in (rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                             for _ in range(200)) if orient.star_mask_violation(S, m) is None]
        stars += [1 << i for i in range(n) if S.inv_pos[i] != i]
        for trial in range(6):
            masks = rng.sample(stars, min(len(stars), 1 + trial * 5))
            if trial % 2:
                masks.append(rng.getrandbits(n))
            want = literal_from_masks_error(S, masks)
            assert orient._all_star_masks(S, masks) == (want is None)
            if want is None:
                fam = orient.StarFamily.from_masks(S, masks)
                assert fam.stars_only
                passed += 1
                continue
            with pytest.raises(InputError) as err:
                orient.StarFamily.from_masks(S, masks)
            assert str(err.value) == want
            fam = orient.StarFamily.from_masks(S, masks, require_stars=False)
            assert not fam.stars_only
            raised += 1
    assert raised >= 20 and passed >= 20


def _star_check_cases(S, rng):
    """Masks of 0-6 members: half grown one member at a time while they
    stay stars, half drawn at random; a degenerate member comes in at
    random in both halves."""
    n = len(S.oriented)
    out = []
    for _ in range(60):
        size = rng.randint(0, min(6, n))
        m = 0
        for i in rng.sample(range(n), n):
            if m.bit_count() == size:
                break
            if orient.star_mask_violation(S, m | 1 << i) is None or rng.random() < 0.05:
                m |= 1 << i
        out.append(m)
        out.append(sum(1 << i for i in rng.sample(range(n), size)))
    return out


def _star_check_mismatches(check):
    """(mismatches, counts) of check against the per-mask scan and the
    literal star oracle, one mask at a time and in groups; counts has
    the stars, the non-stars and the masks holding a degenerate member."""
    bad, seen = 0, {"star": 0, "not-star": 0, "degenerate": 0}
    for S in SYSTEMS:
        U = S.universe
        rng = random.Random(len(S.oriented))
        masks = _star_check_cases(S, rng)
        for m in masks:
            want = orient.star_mask_violation(S, m) is None
            assert want == oracles.is_star(U, frozenset(_star_of(S, m)))
            bad += check(S, [m]) != want
            seen["star" if want else "not-star"] += 1
            seen["degenerate"] += any(S.inv_pos[i] == i for i in bit_positions(m))
        for _ in range(20):
            group = rng.sample(masks, rng.randint(0, 6))
            want = all(orient.star_mask_violation(S, m) is None for m in group)
            bad += check(S, group) != want
    return bad, seen


def _star_of(S, m):
    return (S.oriented[i] for i in bit_positions(m))


def test_the_bulk_star_check_matches_the_oracles():
    bad, seen = _star_check_mismatches(orient._all_star_masks)
    assert bad == 0
    assert min(seen.values()) >= 100, seen


def test_the_star_check_comparison_catches_a_mutant():
    """The bulk check without the union at a mask's lowest position
    misses the pair of its two lower members."""
    src = inspect.getsource(orient._all_star_masks)
    line = "            union[(m & -m).bit_length() - 1] |= m\n"
    assert line in src
    namespace = dict(vars(orient))
    exec(src.replace(line, ""), namespace)
    bad, _ = _star_check_mismatches(namespace["_all_star_masks"])
    assert bad > 0


def test_a_non_star_is_named_as_before(capsys, tmp_path):
    """A family built from sets names the first non-star in the order
    given, with the literal oracle's witness; a file family holding a
    non-star is refused by duality with the same text as before."""
    named = 0
    for S in SYSTEMS:
        U = S.universe
        rng = random.Random(len(S.oriented))
        sets = [frozenset(_star_of(S, m)) for m in _star_check_cases(S, rng)]
        first = next((s for s in sets if not oracles.is_star(U, s)), None)
        if first is None:
            orient.StarFamily(S, sets)
            continue
        with pytest.raises(InputError) as err:
            orient.StarFamily(S, sets)
        assert str(err.value) == (
            f"family member is not a star: {oracles.star_violation(U, first)}"
        )
        named += 1
    assert named >= 30
    sys_obj = {"type": "bipartition", "ground_set": ["a", "b", "c"], "separations": "all"}
    fam_obj = {"type": "family", "stars": [[["a"], ["a", "b"]]]}  # {a} is not below {c}
    sys_path, fam_path = tmp_path / "sys.json", tmp_path / "fam.json"
    sys_path.write_text(json.dumps(sys_obj))
    fam_path.write_text(json.dumps(fam_obj))
    assert cli.main(["duality", str(sys_path), "--family", f"file:{fam_path}"]) == 2
    assert capsys.readouterr().err == "input error: the family must be made of stars\n"
