"""Universe and separation-system basics on the four-point fixture."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tangletree import orient, randomgen
from tangletree.core import (
    BipartitionUniverse,
    SeparationSystem,
    TablePoset,
    order_filtered_system,
    order_submodularity_violation,
    weighted_cut,
)
from tangletree.errors import InputError, UnsupportedOperationError

import oracles
from oracles import verify_universe_laws


def test_u4_counts(u4, s4):
    assert len(s4.oriented) == 16
    assert len(s4) == 8


def test_u4_laws_exhaustive(u4):
    verify_universe_laws(u4)


def test_bipartition_leq_is_inclusion(u4):
    a, ab = u4.mask_of(["a"]), u4.mask_of(["a", "b"])
    assert u4.leq(a, ab) and not u4.leq(ab, a)
    assert u4.invert(a) == u4.mask_of(["b", "c", "d"])
    assert u4.meet(ab, u4.mask_of(["b", "c"])) == u4.mask_of(["b"])
    assert u4.join(a, u4.mask_of(["b"])) == ab


def test_de_morgan_everywhere(u4):
    for x in u4.elements():
        for y in u4.elements():
            assert u4.invert(u4.join(x, y)) == u4.meet(u4.invert(x), u4.invert(y))


def test_corner_separations_frozen(u4):
    a, b = u4.mask_of(["a"]), u4.mask_of(["b"])
    assert oracles.corner_separations(u4, a, b) == (0, 1, 2, 3)
    # invariant under swapping and reorienting the inputs
    assert oracles.corner_separations(u4, b, a) == oracles.corner_separations(u4, a, b)
    assert oracles.corner_separations(u4, u4.invert(a), b) == oracles.corner_separations(u4, a, b)


def test_corner_nestedness_exhaustive(u4):
    # t nested with two crossing separations is nested with all four corners
    elems = list(u4.elements())
    for r in elems:
        for s in elems:
            if u4.nested(r, s):
                continue
            corners = oracles.corner_separations(u4, r, s)
            for t in elems:
                if u4.nested(t, r) and u4.nested(t, s):
                    assert all(u4.nested(t, c) for c in corners)


def test_order_values_must_be_exact():
    with pytest.raises(InputError):
        BipartitionUniverse(["a", "b"], order_fn=lambda m: 0.5)


def test_order_must_be_complement_invariant():
    with pytest.raises(InputError):
        BipartitionUniverse(["a", "b"], order_fn=lambda m: bin(m).count("1"))


def test_order_function_called_once_per_mask():
    calls = []

    def order(mask):
        calls.append(mask)
        return mask.bit_count() * (5 - mask.bit_count())

    U = BipartitionUniverse("abcde", order_fn=order)
    assert sorted(calls) == list(range(32))
    values = [U.order(x) for x in U.elements()]
    assert len(order_filtered_system(U, 5)) == 6
    assert len(calls) == 32
    assert values == [m.bit_count() * (5 - m.bit_count()) for m in range(32)]


@pytest.mark.parametrize(
    "values, message",
    [
        # the mask 0 and its complement come first, so the float at the
        # full mask is reported, not the one at mask 1
        ({1: 0.5, 7: 2.5}, "order values must be int or Fraction, got float 2.5"),
        ({6: -1, 2: -2}, "order values must be non-negative, got -1"),
        ({3: "x", 1: "y"}, "order values must be int or Fraction, got 'y'"),
        ({2: 1, 6: 2, 1: 3}, "order not invariant under complement at mask 0x1"),
    ],
)
def test_bad_order_reported_at_first_mask(values, message):
    with pytest.raises(InputError) as err:
        BipartitionUniverse("abc", order_fn=lambda m: values.get(m, 0))
    assert str(err.value) == message


def literal_cut(weights):
    """The weighted cut as a sum over the weighted pairs, per mask."""
    terms = [((1 << i) | (1 << j), w) for (i, j), w in weights.items() if w != 0]

    def cut(mask):
        return sum(w for pair, w in terms if 0 != mask & pair != pair)

    return cut


def _random_weights(rng, points):
    """Seeded weights on some pairs of the points, zero and negative
    ones, both orders of a pair and a pair of a point with itself
    included."""
    weights = {}
    for _ in range(rng.randint(0, 2 * points)):
        pair = (rng.randrange(points), rng.randrange(points))
        weights[pair] = rng.choice((0, -7, 1, 3, 10**20, rng.randint(-40, 40)))
    return weights


def test_weighted_cut_matches_the_pair_sum():
    rng = random.Random(12)
    wider = 0
    for points in [1, 2] * 10 + [3, 5, 8] * 20:
        weights = _random_weights(rng, points)
        # the ground may be wider than the largest weighted index
        ground = points + rng.randint(0, 2)
        wider += ground > points
        cut, want = weighted_cut(weights), literal_cut(weights)
        assert [cut(m) for m in range(1 << ground)] == [
            want(m) for m in range(1 << ground)
        ], weights
    assert wider >= 20
    assert weighted_cut({})(5) == 0 and weighted_cut({(0, 3): 0})(1) == 0


def test_weighted_cut_is_tabulated_at_the_first_call_without_self_pairs():
    # making the order function does no work, so a universe can refuse a
    # ground set over its cap first; a self-pair separates nothing and
    # does not widen the table (2^39 entries for index 40)
    weighted_cut({(0, 45): 1})
    cut = weighted_cut({(40, 40): 5, (0, 1): 2, (1, 0): 1})
    assert [cut(m) for m in range(4)] == [0, 3, 3, 0]
    assert cut(1 << 40) == 0 and cut(1 | 1 << 40) == 3


def test_cut_universe_answers_every_mask_from_half_a_table():
    # both tables keep only the masks without their last point
    rng = random.Random(3)
    for points in (1, 2, 3, 6):
        weights = {
            (i, j): rng.randint(0, 9)
            for i in range(points)
            for j in range(i + 1, points)
        }
        want = literal_cut(weights)
        for ground in (points, points + 2):
            U = BipartitionUniverse(range(ground), order_fn=weighted_cut(weights))
            assert [U.order(m) for m in U.elements()] == [
                want(m) for m in U.elements()
            ]


def _visiting_order(points):
    full = (1 << points) - 1
    for a in range(1 << (points - 1)):
        yield a
        yield full ^ a


def test_negative_cut_reported_at_the_first_mask_visited():
    rng = random.Random(5)
    raised = 0
    for _ in range(40):
        points = rng.randint(1, 6)
        weights = _random_weights(rng, points)
        want = literal_cut(weights)
        first = next((m for m in _visiting_order(points) if want(m) < 0), None)
        if first is None:
            BipartitionUniverse(range(points), order_fn=weighted_cut(weights))
            continue
        with pytest.raises(InputError) as err:
            BipartitionUniverse(range(points), order_fn=weighted_cut(weights))
        assert str(err.value) == (
            f"order values must be non-negative, got {want(first)}"
        )
        raised += 1
    assert raised >= 10


def test_equal_order_values_share_one_object():
    def order(mask):
        return Fraction(6, 2) if mask & 1 else 3

    U = BipartitionUniverse("abc", order_fn=order)
    assert len({id(U.order(x)) for x in U.elements()}) == 1
    assert U.order(1) == 3 and type(U.order(1)) is Fraction
    # one object per distinct value, in the cut's table and the universe's
    weights = {(0, 1): 10**20, (1, 2): 10**20, (0, 2): 2 * 10**20}
    cut = weighted_cut(weights)
    assert cut(1) is cut(6) and cut(2) is cut(5)
    U = BipartitionUniverse("abcd", order_fn=cut)
    assert U.order(1) is U.order(6) is U.order(1 | 8)


def test_a_float_equal_to_an_earlier_int_is_refused():
    values = {0: 3, 7: 3, 1: 3.0}
    with pytest.raises(InputError) as err:
        BipartitionUniverse("abc", order_fn=lambda m: values.get(m, 0))
    assert str(err.value) == "order values must be int or Fraction, got float 3.0"


def test_cut_universe_order_is_submodular():
    rng = random.Random(7)
    for _ in range(20):
        U = randomgen.cut_universe(rng, ["p", "q", "r", "s"])
        assert order_submodularity_violation(U) is None


def test_order_filter_threshold():
    U = randomgen.cut_universe(random.Random(1), ["p", "q", "r"])
    S = order_filtered_system(U, 3)
    assert all(U.order(x) < 3 for x in S.oriented)
    S2 = order_filtered_system(U, 2, within=S)
    assert set(S2.oriented) <= set(S.oriented)
    with pytest.raises(InputError):
        order_filtered_system(U, 0)


def test_order_filter_needs_order(u4):
    with pytest.raises(UnsupportedOperationError):
        order_filtered_system(u4, 2)


def test_system_requires_involution_closure(u4):
    with pytest.raises(InputError):
        SeparationSystem(u4, [u4.mask_of(["a"])])
    S = SeparationSystem.from_unoriented(u4, [u4.mask_of(["a"])])
    assert len(S) == 1 and len(S.oriented) == 2


def test_classify_small_and_trivial(s4, u4):
    empty = 0
    flags = s4.classify(empty)
    assert flags.small and flags.trivial and not flags.degenerate
    full = u4.invert(empty)
    flags = s4.classify(full)
    assert flags.cosmall and not flags.small
    # sides are disjoint here, so the empty side is the only small one
    a = u4.mask_of(["a"])
    assert not s4.classify(a).small
    assert not s4.classify(a).trivial


def test_full_bipartition_system_is_submodular(s4):
    assert s4.is_submodular()


# -- table universes --

CHAIN4 = dict(
    n=4,
    involution=[3, 2, 1, 0],
    leq_pairs=[(0, 1), (1, 2), (2, 3)],
)


def test_table_chain_accepted():
    U = TablePoset(**CHAIN4)
    verify_universe_laws(U)
    assert U.meet(1, 2) == 1 and U.join(1, 2) == 2
    assert U.invert(0) == 3


def test_table_rejects_bad_involution():
    with pytest.raises(InputError):
        TablePoset(4, [3, 2, 1, 1], CHAIN4["leq_pairs"])
    with pytest.raises(InputError):
        # order-reversal fails: involution fixes a strictly ordered pair
        TablePoset(4, [1, 0, 3, 2], [(0, 1), (1, 2), (2, 3)])


def test_table_rejects_non_lattice():
    # two incomparable tops: {0,1} below both 2 and 3, no join of 2,3
    with pytest.raises(InputError):
        TablePoset(4, [3, 2, 1, 0], [(0, 2), (0, 3), (1, 2), (1, 3)])


def test_table_rejects_float_order():
    with pytest.raises(InputError):
        TablePoset(order=[0.0, 1.0, 1.0, 0.0], **CHAIN4)


def test_table_fraction_order_kept_exact():
    U = TablePoset(order=[0, Fraction(1, 3), Fraction(1, 3), 0], **CHAIN4)
    assert U.order(1) == Fraction(1, 3)


def test_table_degenerate_element_classified():
    # middle element fixed by the involution
    U = TablePoset(3, [2, 1, 0], [(0, 1), (1, 2)])
    S = SeparationSystem(U, [0, 1, 2])
    assert S.classify(1).degenerate


def test_table_name_lookup():
    U = TablePoset(names=["bot", "lo", "hi", "top"], **CHAIN4)
    assert U.id_of("lo") == 1
    assert U.name_of(2) == "hi"
    with pytest.raises(InputError):
        U.id_of("nope")


# -- nested restriction --


@given(st.integers(min_value=0, max_value=10_000))
def test_restrict_nested_preserves_submodularity(seed):
    rng = random.Random(seed)
    S = randomgen.random_order_system(rng, ["p", "q", "r", "s"])
    U = S.universe
    if not S.is_submodular():
        return
    pool = list(S.oriented)
    if not pool:
        return
    m = rng.choice(pool)
    nested = [x for x in pool if U.nested(x, m)]
    sub = S.restrict_nested([m])
    assert set(sub.oriented) == set(nested)
    assert sub.is_submodular()


def test_restrict_nested_checks_membership(s4, u4):
    with pytest.raises(InputError):
        s4.restrict_nested([999])


# -- membership of a foreign value --


def _named_chain_system():
    U = TablePoset(names=["bot", "lo", "hi", "top"], **CHAIN4)
    return SeparationSystem(U, [0, 1, 2, 3])


@pytest.mark.parametrize("value", [("x", 1), 5, "lo", 99, [1], {"a": 1}, None])
def test_check_member_refuses_a_foreign_value_with_input_error(s4, triangle_tripod, value):
    """A value of another type, or an unhashable one, is no member of a
    bipartition, a graph or a table system: InputError, shown by repr
    where the universe cannot format it."""
    _, graph_system, _ = triangle_tripod
    for S in (s4, graph_system, _named_chain_system()):
        if value == 5 and S is s4:
            continue  # a bipartition mask of s4
        with pytest.raises(InputError, match="is not in the system"):
            S.check_member(value)
    with pytest.raises(InputError, match=r"\('x', 1\) is not in the system"):
        s4.check_member(("x", 1))
    with pytest.raises(InputError, match=r"^\[1\] is not in the system"):
        s4.check_member([1])


def test_a_family_with_a_foreign_value_raises_input_error(s4, triangle_tripod):
    _, graph_system, _ = triangle_tripod
    for S in (s4, graph_system, _named_chain_system()):
        with pytest.raises(InputError, match="is not in the system"):
            orient.StarFamily(S, [{("x", 1)}])
