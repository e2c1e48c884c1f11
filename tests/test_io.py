"""Input parsing and serialisation round trips."""

import json

import pytest

from tangletree import io, graphsep, orient, trees
from tangletree.core import BipartitionUniverse, TablePoset
from tangletree.errors import InputError

from conftest import BIG_CAPS


# -- parse_input --


def test_parse_edge_list_with_comments():
    text = "# path\na b\nb c  # inner comment\n\n  \n"
    obj = io.parse_input(text)
    assert obj == {"type": "graph", "edges": [("a", "b"), ("b", "c")]}


def test_parse_json_passthrough():
    obj = io.parse_input('{"type": "graph", "edges": [["a", "b"]]}')
    assert obj["type"] == "graph"


def test_parse_rejects_junk():
    with pytest.raises(InputError):
        io.parse_input("")
    with pytest.raises(InputError):
        io.parse_input("a b c")
    with pytest.raises(InputError):
        io.parse_input("{not json")
    with pytest.raises(InputError):
        io.parse_input('{"no": "type"}')


def test_parse_family_without_type_tag(u4, s4):
    obj = io.parse_input('{"stars": [[["a"], ["b"]]]}')
    assert obj["type"] == "family"
    assert len(io.load_family(obj, s4)) == 1


def test_load_path_missing_file():
    with pytest.raises(InputError):
        io.load_path("/nonexistent/file.txt")


# -- universes --


def test_load_graph_with_isolated_vertices():
    g = io.load_graph(
        {"type": "graph", "edges": [["a", "b"]], "vertices": ["z"]}
    )
    assert g.vertices == ("a", "b", "z")


def test_graph_names_may_mix_ints_and_strings_that_print_apart():
    g = io.load_graph({"type": "graph", "edges": [[2, "b"], ["a", 1], [1, 2]]})
    assert g.vertices == (1, 2, "a", "b")
    assert g.edges == ((1, 2), (1, "a"), (2, "b"))
    with pytest.raises(InputError, match="print alike"):
        io.load_graph({"type": "graph", "edges": [[1, "b"], ["1", "c"]]})


def test_bipartition_points_may_be_ints_that_print_apart():
    U = io.load_universe({"type": "bipartition", "ground_set": [1, "b"]})
    assert U.format_element(U.mask_of([1, "b"])) == "{1,b}"
    with pytest.raises(InputError, match="print alike"):
        io.load_universe({"type": "bipartition", "ground_set": [1, "1"]})


def test_load_bipartition_universe():
    U = io.load_universe({"type": "bipartition", "ground_set": ["a", "b"]})
    assert isinstance(U, BipartitionUniverse)
    assert len(U.elements()) == 4


def test_load_bipartition_with_weights():
    U = io.load_universe(
        {
            "type": "bipartition",
            "ground_set": ["a", "b", "c"],
            "order_weights": {"a,b": 2, "b,c": 1, "a,c": 0},
        }
    )
    # cut {a} | {b,c} crosses ab (2) and ac (0)
    assert U.order(U.mask_of(["a"])) == 2
    assert U.order(U.mask_of(["b"])) == 3


def test_weighted_ground_over_the_cap_is_refused_before_any_cut_is_made():
    # a weight on the last of 40 points: the cap is checked before the
    # cut is tabulated, which would take 2^39 entries
    ground = [f"p{i}" for i in range(40)]
    with pytest.raises(InputError) as err:
        io.load_universe(
            {
                "type": "bipartition",
                "ground_set": ground,
                "order_weights": {"p0,p39": 1, "p3,p38": 2},
            }
        )
    assert str(err.value) == "ground set larger than the 24-point cap"


def test_load_table_universe():
    U = io.load_universe(
        {
            "type": "table",
            "elements": ["bot", "mid", "top"],
            "involution": [2, 1, 0],
            "leq_pairs": [[0, 1], [1, 2]],
        }
    )
    assert isinstance(U, TablePoset)
    assert U.leq(U.id_of("bot"), U.id_of("top"))


def test_load_universe_unknown_type():
    with pytest.raises(InputError):
        io.load_universe({"type": "wavelet"})


# -- element encodings, all three backends --


def test_element_round_trip_table():
    U = io.load_universe(
        {
            "type": "table",
            "elements": ["x", "m", "y"],
            "involution": [2, 1, 0],
            "leq_pairs": [[0, 1], [1, 2]],
        }
    )
    for x in U.elements():
        assert io.element_from_json(U, io.element_to_json(U, x)) == x


def test_element_round_trip_bipartition(u4):
    for x in u4.elements():
        assert io.element_from_json(u4, io.element_to_json(u4, x)) == x


def test_element_round_trip_graph():
    g = graphsep.Graph.from_edges([("a", "b"), ("b", "c")])
    U = graphsep.GraphUniverse(g)
    for x in U.elements():
        assert io.element_from_json(U, io.element_to_json(U, x)) == x


# -- systems and families --


def test_load_system_all_and_explicit(u4):
    obj = {"separations": "all"}
    S = io.load_system(obj, u4)
    assert len(S.oriented) == 16
    S2 = io.load_system({"separations": [["a"]]}, u4)
    # closure under involution is implicit
    assert len(S2.oriented) == 2
    assert u4.invert(u4.mask_of(["a"])) in S2.members


def test_load_family(u4, s4):
    obj = {"stars": [[["a"], ["b"]], [[]]]}
    fam = io.load_family(obj, s4)
    assert len(fam) == 2
    assert fam.stars_only
    with pytest.raises(InputError):
        io.load_family({}, s4)


# -- serialisers --


def test_orientation_to_json_sorted(u4, s4):
    O = frozenset(m for m in u4.elements() if not m & u4.mask_of(["a"]))
    js = io.orientation_to_json(s4, O)
    # sorted by the universe's sort_key (mask order), hence deterministic
    assert js == io.orientation_to_json(s4, set(O))
    assert js[0] == []
    assert len(js) == 8


def test_nested_to_json(u4, s4):
    members = {u4.mask_of(["a"]), u4.mask_of(["b"])}
    js = io.nested_to_json(s4, members)
    assert js == [["a"], ["b"]]


def test_stree_json_and_dot(u4, s4):
    N = trees.NestedSet(s4, [u4.mask_of(["a"]), u4.mask_of(["b"])])
    T = trees.treeset_to_stree(N, BIG_CAPS)
    js = io.stree_to_json(T)
    assert js["vertices"] == T.n
    assert len(js["edges"]) == 2 * len(T.edges)
    labels = {tuple(sorted((e["from"], e["to"]))) for e in js["edges"]}
    assert labels == set(T.edges)
    dot = io.stree_to_dot(T)
    assert dot.startswith("graph stree {")
    assert dot.endswith("}")
    assert dot.count(" -- ") == len(T.edges)


def test_decomposition_dot():
    g = graphsep.Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    S, fam, tangles = graphsep.graph_tangles(g, 2, caps=BIG_CAPS)
    from tangletree import canonical

    res = canonical.canonical_nested_set(S, tangles, BIG_CAPS)
    dec = graphsep.decomposition_export(trees.treeset_to_stree(res.nested, BIG_CAPS))
    dot = io.decomposition_to_dot(dec)
    assert dot.count(" -- ") == 2
    assert "{a,b}" in dot


def test_dump_json_deterministic():
    a = io.dump_json({"b": 1, "a": [2, 1]})
    b = io.dump_json({"a": [2, 1], "b": 1})
    assert a == b
    assert json.loads(a) == {"a": [2, 1], "b": 1}
