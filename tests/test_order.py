"""order_submodularity_violation against the pairwise universe-oracle loop
it replaced, witnesses included, on bipartition universes with exact
rational orders, table universes and graph universes, whole and sampled."""

import random
from fractions import Fraction

import pytest

from tangletree import graphsep, randomgen
from tangletree.core import (
    BipartitionUniverse,
    SeparationSystem,
    TablePoset,
    bit_positions,
    order_submodularity_violation,
    weighted_cut,
)
from tangletree.errors import InputError, UnsupportedOperationError

import oracles
from conftest import BIG_CAPS, tripod_edges
from test_profiles import SYSTEMS as PROFILE_SYSTEMS, _chain_product, _m3


def literal_order_submodularity_violation(universe, elems=None):
    """First pair violating |r v s| + |r ^ s| <= |r| + |s|, else None:
    four oracle calls per pair, sums as Fractions."""
    if not universe.has_order:
        raise UnsupportedOperationError(
            "order submodularity needs an order function"
        )
    if elems is None:
        elems = universe.elements()
    elems = sorted(elems)
    for i, r in enumerate(elems):
        for s in elems[i:]:
            lhs = universe.order(universe.join(r, s)) + universe.order(
                universe.meet(r, s)
            )
            if lhs > universe.order(r) + universe.order(s):
                return (r, s)
    return None


def _same(U, elems=None):
    want = literal_order_submodularity_violation(U, elems)
    assert order_submodularity_violation(U, elems) == want
    return want


def _symmetric(rng, points, values):
    """A random order on the masks of points, the same on a mask and its
    complement, drawn from values."""
    full = (1 << len(points)) - 1
    table = {}
    for m in range(full + 1):
        table[m] = table.get(full ^ m) if full ^ m in table else rng.choice(values)
    return table.__getitem__


def _samples(rng, elems):
    """Random subsets of elems, in random order, two of them small."""
    elems = list(elems)
    for size in (len(elems) // 2, 5, 2):
        yield rng.sample(elems, min(size, len(elems)))


# bipartition universes: cuts scaled by halves and thirds are submodular;
# random symmetric orders, and cuts nudged by a half or a third at one
# mask, are mostly not
HALVES_AND_THIRDS = [Fraction(k, d) for k in range(7) for d in (2, 3)]


def _bipartition_universes():
    for seed in range(16):
        rng = random.Random(seed)
        points = "pqrst"[: 3 + seed % 3]
        half = weighted_cut({(i, j): rng.randint(0, 3) for i in range(len(points))
                             for j in range(i + 1, len(points))})
        third = weighted_cut({(i, j): rng.randint(0, 2) for i in range(len(points))
                              for j in range(i + 1, len(points))})
        full = (1 << len(points)) - 1
        yield BipartitionUniverse(
            points, lambda m: Fraction(half(m), 2) + Fraction(third(m), 3)
        )
        yield BipartitionUniverse(points, _symmetric(rng, points, HALVES_AND_THIRDS))
        bump = rng.randrange(1, full)
        step = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(-1, 3)))

        def nudged(m, bump=bump, step=step, half=half, full=full):
            on = m in (bump, full ^ bump)
            return Fraction(half(m), 2) + (step if on and half(m) else 0)

        yield BipartitionUniverse(points, nudged)


def test_bipartition_orders_match_the_loop():
    hits = clean = 0
    for n, U in enumerate(_bipartition_universes()):
        want = _same(U)
        hits += want is not None
        clean += want is None
        for elems in _samples(random.Random(n), U.elements()):
            _same(U, elems)
    assert hits >= 12 and clean >= 16


def test_cut_orders_have_no_violation_and_equal_pairs():
    for seed in range(4):
        U = randomgen.cut_universe(random.Random(seed), "pqrs")
        assert _same(U) is None
        # a nested pair meets the bound with equality
        assert U.order(1) + U.order(3) == U.order(1 | 3) + U.order(1 & 3)


def test_a_violation_that_the_numerators_alone_hide():
    # orders 1/2 on {} and {p, q}, 1/3 on {p} and {q}: for p and q the
    # sums are 1 against 2/3, but their numerators both read 1 + 1
    values = {0: Fraction(1, 2), 3: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(1, 3)}
    U = BipartitionUniverse("pq", values.__getitem__)
    assert _same(U) == (1, 2)
    assert order_submodularity_violation(U, [2, 1]) == (1, 2)


# table universes: random orders that are the same on x and x*


def _with_order(U, order):
    pairs = [(i, j) for j in range(U.n) for i in bit_positions(U._down[j])]
    return TablePoset(U.n, U._inv, pairs, order=order, close=False)


def _table_universes():
    shapes = [_chain_product(lengths) for lengths in ((2, 2), (3, 3), (2, 3), (3, 2, 2), (5,))]
    shapes.append(_m3())
    for k, U in enumerate(shapes):
        rng = random.Random(k)
        for _ in range(4):
            order = [None] * U.n
            for i in range(U.n):
                if order[i] is None:
                    order[i] = order[U._inv[i]] = rng.choice(HALVES_AND_THIRDS)
            yield _with_order(U, order)
        yield _with_order(U, [0] * U.n)


def test_table_orders_match_the_loop():
    hits = 0
    for n, U in enumerate(_table_universes()):
        hits += _same(U) is not None
        for elems in _samples(random.Random(n), U.elements()):
            _same(U, elems)
    assert hits >= 10


def test_table_order_may_be_given_as_strings():
    U = _chain_product((2, 2))
    strings = _with_order(U, ["1/2", "1/3", "1/3", "1/2"])
    assert _same(strings) == (1, 2)
    assert strings.order(0) == Fraction(1, 2)


def test_table_tables_codes_and_orders_match_the_leq_loops():
    systems = [S for S in PROFILE_SYSTEMS if isinstance(S.universe, TablePoset)]
    systems += [SeparationSystem(U, U.elements()) for U in _table_universes()]
    assert {S.universe.has_order for S in systems} == {False, True}
    for S in systems:
        U, elems = S.universe, S.oriented
        assert U.order_tables(elems) == oracles.order_tables(U, elems)
        codes = U.lattice_codes(elems)
        assert codes == oracles.lattice_codes(U, elems)
        if U.has_order:
            assert U.code_orders(*codes) == oracles.code_orders(U, *codes)
        else:
            with pytest.raises(UnsupportedOperationError):
                U.code_orders(*codes)


# graph universes: |A n B| is submodular, so every scan comes back clean


def test_graph_orders_match_the_loop_whole_and_sampled():
    graphs = [
        graphsep.Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")]),
        graphsep.Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]),
    ]
    for G in graphs:
        U = graphsep.GraphUniverse(G)
        assert _same(U) is None
    G = graphsep.Graph.from_edges(tripod_edges())
    S = graphsep.graph_separation_system(G, 3, BIG_CAPS)
    rng = random.Random(3)
    for _ in range(3):
        assert _same(S.universe, rng.sample(S.oriented, 40)) is None


def test_unknown_elements_and_missing_orders_are_refused():
    U = BipartitionUniverse("pq", lambda m: 1)
    with pytest.raises(InputError):
        order_submodularity_violation(U, [1, 7])
    with pytest.raises(UnsupportedOperationError):
        order_submodularity_violation(BipartitionUniverse("pq"))
    assert order_submodularity_violation(U, []) is None
