"""The order tables from join codes and the predicates read from them:
containment_rows and its per-byte AND tables (and_columns) at widths
each side of the byte boundaries; up_bits, down_bits and their strict
forms, which every system reads from the containment of its members'
join codes, on graph, bipartition and table systems, restricted ones
and empty ones; the DFS's trial order; maximal_members, restrict_nested,
and the position-keyed star order of stars_sorted, star_key and
trees.nodes_of, each against the literal loop it replaced."""

import itertools
import random

from tangletree import graphsep, orient, randomgen, trees
from tangletree.core import (
    BipartitionUniverse,
    SeparationSystem,
    TablePoset,
    and_columns,
    bit_column,
    containment_rows,
)

import oracles
from conftest import BIG_CAPS, triangle_tripod_edges
from test_profiles import _chain_product

# -- the literal loops --


def literal_up(S):
    """up[i] has bit j set iff oriented[i] <= oriented[j], by leq."""
    U, elems = S.universe, S.oriented
    return tuple(
        sum(1 << j for j, y in enumerate(elems) if U.leq(x, y)) for x in elems
    )


def literal_down(S):
    U, elems = S.universe, S.oriented
    return tuple(
        sum(1 << i for i, x in enumerate(elems) if U.leq(x, y)) for y in elems
    )


def literal_maximal_members(S, subset):
    U = S.universe
    elems = sorted(subset)
    return tuple(x for x in elems if not any(U.lt(x, y) for y in elems))


def literal_restrict_nested(S, M):
    U = S.universe
    return tuple(x for x in S.oriented if all(U.nested(x, m) for m in M))


def literal_containment_rows(masks):
    """(sup, sub) by testing every pair of masks for a subset."""
    sup = [sum(1 << j for j, b in enumerate(masks) if a & ~b == 0) for a in masks]
    sub = [sum(1 << i for i, a in enumerate(masks) if a & ~b == 0) for b in masks]
    return sup, sub


def literal_and(cols, everyone, m):
    out = everyone
    for b, c in enumerate(cols):
        if m >> b & 1:
            out &= c
    return out


def literal_star_key(sigma):
    return (len(sigma), tuple(sorted(sigma)))


# -- seeded systems --


def graph_systems():
    for seed in range(6):
        rng = random.Random(seed)
        G = randomgen.random_connected_graph(rng, 4 + seed % 3, extra=seed % 3)
        yield graphsep.graph_separation_system(G, 2 + seed % 2, BIG_CAPS)
    # isolated vertices: the empty separator splits them off freely
    G = graphsep.Graph.from_edges([("a", "b"), ("b", "c")], isolated=("x", "y"))
    yield graphsep.graph_separation_system(G, 2, BIG_CAPS)
    # two components, a triangle and a path
    G = graphsep.Graph.from_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f")]
    )
    yield graphsep.graph_separation_system(G, 2, BIG_CAPS)
    # no edges at all
    yield graphsep.graph_separation_system(graphsep.Graph("pqr", []), 2, BIG_CAPS)
    # k above |V| lets the degenerate separation (V, V) in
    P3 = graphsep.Graph.from_edges([("a", "b"), ("b", "c")])
    yield graphsep.graph_separation_system(P3, 4, BIG_CAPS)
    G = graphsep.Graph.from_edges(triangle_tripod_edges())
    yield graphsep.graph_separation_system(G, 2, BIG_CAPS)


def bipartition_systems():
    for seed in range(6):
        rng = random.Random(seed)
        yield randomgen.random_order_system(rng, "pqrst"[: 4 + seed % 2], 12)
    for ground in ("a", "ab", "abc"):
        U = BipartitionUniverse(ground)
        yield SeparationSystem(U, U.elements())


def table_system():
    U = _chain_product((3, 2, 2))
    return SeparationSystem(U, U.elements())


def _restricted(S, seed):
    """The subsystem restrict_nested gives for one or two seeded members of
    S, built by the literal loop so that a faulty table cannot break it."""
    rng = random.Random(seed)
    M = rng.sample(S.oriented, min(2, len(S.oriented)))
    return SeparationSystem(S.universe, literal_restrict_nested(S, M))


BASE = [*graph_systems(), *bipartition_systems(), table_system()]
SYSTEMS = BASE + [_restricted(S, seed) for seed, S in enumerate(BASE)]


def test_the_systems_cover_every_case():
    kinds = {type(S.universe).__name__ for S in SYSTEMS}
    assert kinds == {"BipartitionUniverse", "GraphUniverse", "TablePoset"}
    assert any(x == S.universe.invert(x) for S in SYSTEMS for x in S.oriented)
    assert any(len(S.universe.ground) == 1 for S in SYSTEMS
               if isinstance(S.universe, BipartitionUniverse))
    assert any(0 < len(S) < len(T) for S, T in zip(SYSTEMS[len(BASE):], BASE))


def test_bit_column():
    rows = [0b101, 0b011, 0b110, 0]
    assert [bit_column(rows, b) for b in range(4)] == [0b0011, 0b0110, 0b0101, 0]
    assert bit_column([], 3) == 0


WIDTHS = (0, 1, 7, 8, 9, 16, 17, 24)  # each side of the byte boundaries


def test_and_columns_matches_the_bit_loop():
    rng = random.Random(3)
    for width in WIDTHS:
        for rows in (0, 1, 5, 70):
            everyone = (1 << rows) - 1
            cols = [rng.getrandbits(rows) for _ in range(width)]
            if width:
                cols[-1] = everyone & ~1  # the top column, one bit short
            and_of = and_columns(cols, everyone)
            full = (1 << width) - 1
            masks = [0, full, full >> 1, 1 << width >> 1]
            masks += [rng.getrandbits(width) for _ in range(40)]
            for m in masks:
                assert and_of(m) == literal_and(cols, everyone, m), (width, rows, m)
    # no columns: the AND over the empty mask is everyone
    assert and_columns([], 0b1011)(0) == 0b1011


def test_containment_rows_match_the_subset_loop():
    rng = random.Random(4)
    for width in WIDTHS:
        full = (1 << width) - 1
        top = 1 << width >> 1  # the top bit; 0 at width 0
        cases = [[], [0], [full], [0, full, 0]]
        for n in (1, 2, 9, 40):
            masks = [rng.getrandbits(width) for _ in range(n)]
            cases.append(masks)
            cases.append([m | top for m in masks] + [top, full])
            # nested chains: many containments, and repeats
            cases.append([full >> rng.randrange(width + 1) for _ in range(n)])
        for masks in cases:
            assert containment_rows(masks, width) == literal_containment_rows(
                masks
            ), (width, masks)


# -- each table and predicate against its loop --


def _empty_systems():
    """One system with no members in each backend: width-0 tables."""
    yield SeparationSystem(BipartitionUniverse("ab"), ())
    yield SeparationSystem(graphsep.GraphUniverse(graphsep.Graph("pq", [])), ())
    yield SeparationSystem(table_system().universe, ())


def test_order_tables_match_the_leq_loop():
    for S in [*SYSTEMS, *_empty_systems()]:
        up, down = literal_up(S), literal_down(S)
        assert S.up_bits == up
        assert S.down_bits == down
        assert S.strict_up_bits == tuple(m & ~(1 << i) for i, m in enumerate(up))
        assert S.strict_down_bits == tuple(m & ~(1 << i) for i, m in enumerate(down))


def test_sep_trial_order_matches_the_leq_loop():
    # the trial order fixes the DFS's path, so where max_states trips; a
    # chain numbered top down puts each inverse below its canonical member
    chain = TablePoset(4, [3, 2, 1, 0], [(3, 2), (2, 1), (1, 0)])
    top_down = SeparationSystem(chain, range(4))
    assert oracles.sep_trial_order(top_down) == [(3, 0), (2, 1)]
    for S in [*SYSTEMS, *_empty_systems(), top_down]:
        assert orient._sep_trial_order(S) == oracles.sep_trial_order(S)


def _subsets(S, rng):
    U = S.universe
    yield ()
    yield S.oriented
    for O in itertools.islice(orient.consistent_orientations(S, BIG_CAPS), 20):
        yield O
    for _ in range(20):
        yield rng.sample(S.oriented, rng.randint(1, len(S.oriented)))
    for x in S.oriented[:: max(1, len(S.oriented) // 5)]:
        # a chain below x and x's inverse: several comparable members
        yield [y for y in S.oriented if U.leq(y, x)] + [U.invert(x)]


def test_maximal_members_match_the_loop():
    rng = random.Random(5)
    for S in SYSTEMS:
        for subset in _subsets(S, rng):
            assert orient.maximal_members(S, subset) == literal_maximal_members(
                S, subset
            )


def test_restrict_nested_matches_the_loop():
    rng = random.Random(6)
    crossing = 0
    for S in SYSTEMS:
        cases = [()] + [(x,) for x in S.oriented[:: max(1, len(S.oriented) // 6)]]
        cases += [rng.sample(S.oriented, min(3, len(S.oriented))) for _ in range(5)]
        for M in cases:
            got = S.restrict_nested(M)
            assert got.universe is S.universe
            assert got.oriented == literal_restrict_nested(S, M)
            crossing += len(got) < len(S)
    assert crossing > 20


def _families():
    for S in graph_systems():
        G, k = S.universe.graph, max(S.universe.order(x) for x in S.oriented) + 1
        if k <= G.n:
            yield graphsep.tk_star_family(G, k, S, BIG_CAPS)
    for S in bipartition_systems():
        yield orient.profile_star_family(S)
        yield randomgen.random_shift_closed_family(random.Random(len(S)), S)
    S = table_system()
    yield orient.StarFamily(S, randomgen.standard_star_base(S))


def test_stars_sorted_matches_the_tuple_order():
    sizes = set()
    for fam in _families():
        want = tuple(sorted(fam.stars, key=literal_star_key))
        assert fam.stars_sorted == want
        keys = [oracles.star_key(fam, s) for s in want]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        sizes |= {len(s) for s in want}
    assert sizes >= {1, 2, 3}


def _nested_subset(S, rng):
    """A seeded set of pairwise nested separations of S."""
    U = S.universe
    picked = []
    for s in rng.sample(S.separations, len(S.separations)):
        if s != U.invert(s) and all(U.nested(s, t) for t in picked):
            picked.append(s)
    return picked


def test_nodes_of_sorts_by_the_tuple_order():
    rng = random.Random(7)
    many = 0
    for S in SYSTEMS:
        N = trees.NestedSet(S, _nested_subset(S, rng))
        nodes = trees.nodes_of(N, BIG_CAPS)
        assert nodes == tuple(sorted(nodes, key=literal_star_key))
        many += len({len(s) for s in nodes}) > 1
    assert many > 5
