"""The order tables from side masks and the predicates read from them:
up_bits, down_bits and their strict forms, maximal_members,
restrict_nested, and the position-keyed star order of stars_sorted,
star_key and trees.nodes_of, each against the literal universe-oracle
loop it replaced."""

import itertools
import random

from tangletree import graphsep, orient, randomgen, trees
from tangletree.core import (
    BipartitionUniverse,
    SeparationSystem,
    TablePoset,
    Universe,
    bit_column,
)

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
    elems = sorted(subset, key=U.sort_key)
    return tuple(x for x in elems if not any(U.lt(x, y) for y in elems))


def literal_restrict_nested(S, M):
    U = S.universe
    return tuple(x for x in S.oriented if all(U.nested(x, m) for m in M))


def literal_star_key(U, sigma):
    return (len(sigma), tuple(sorted(U.sort_key(x) for x in sigma)))


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
    # TablePoset runs the default leq loop; the other two AND columns
    assert TablePoset.order_tables is Universe.order_tables
    assert graphsep.GraphUniverse.order_tables is not Universe.order_tables
    assert BipartitionUniverse.order_tables is not Universe.order_tables
    assert any(x == S.universe.invert(x) for S in SYSTEMS for x in S.oriented)
    assert any(len(S.universe.ground) == 1 for S in SYSTEMS
               if isinstance(S.universe, BipartitionUniverse))
    assert any(0 < len(S) < len(T) for S, T in zip(SYSTEMS[len(BASE):], BASE))


def test_bit_column():
    rows = [0b101, 0b011, 0b110, 0]
    assert [bit_column(rows, b) for b in range(4)] == [0b0011, 0b0110, 0b0101, 0]
    assert bit_column([], 3) == 0


# -- each table and predicate against its loop --


def test_order_tables_match_the_leq_loop():
    for S in SYSTEMS:
        up, down = literal_up(S), literal_down(S)
        assert S.up_bits == up
        assert S.down_bits == down
        assert S.strict_up_bits == tuple(m & ~(1 << i) for i, m in enumerate(up))
        assert S.strict_down_bits == tuple(m & ~(1 << i) for i, m in enumerate(down))


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
        U = fam.system.universe
        want = tuple(sorted(fam.stars, key=lambda s: literal_star_key(U, s)))
        assert fam.stars_sorted == want
        keys = [fam.star_key(s) for s in want]
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
        U = S.universe
        nodes = trees.nodes_of(N, BIG_CAPS)
        assert nodes == tuple(sorted(nodes, key=lambda s: literal_star_key(U, s)))
        many += len({len(s) for s in nodes}) > 1
    assert many > 5
