"""Fuzzed loaders: JSON-like objects under each type tag (and plain text)
either load or raise InputError, and the CLI on fuzzed files exits with
one of its documented codes, never with a traceback."""

import contextlib
import io as stdio
import json
import os
import tempfile

from hypothesis import example, given, strategies as st

from tangletree import cli, graphsep, io
from tangletree.core import BipartitionUniverse, SeparationSystem, TablePoset
from tangletree.errors import InputError

from conftest import triangle_tripod_edges

# -- the objects --

SMALL = st.integers(-2, 7)
ANY = st.recursive(
    st.none() | st.booleans() | SMALL | st.floats(-2, 7, allow_nan=False)
    | st.text("ab,/1", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2),
    max_leaves=6,
)
# vertex and point names: strings, and now and then an int, which may
# print like one of the strings
NAMES = st.sampled_from("abcdef") | st.sampled_from([1, 2, "1"])


@st.composite
def spoiled(draw, valid):
    """A well-formed object whose fields are each kept, dropped or
    replaced by any JSON value."""
    obj = draw(valid)
    for name in sorted(obj):
        how = draw(st.sampled_from(("keep",) * 5 + ("drop", "any")))
        if how == "drop":
            del obj[name]
        elif how == "any":
            obj[name] = draw(ANY)
    return obj


@st.composite
def bipartitions(draw):
    ground = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    obj = {"type": "bipartition", "ground_set": ground}
    if draw(st.booleans()):
        pairs = st.tuples(st.sampled_from(ground), st.sampled_from(ground))
        obj["order_weights"] = {
            f"{a},{b}": w
            for (a, b), w in draw(st.dictionaries(pairs, SMALL, max_size=4)).items()
        }
    side = st.lists(st.sampled_from(ground), max_size=3)
    obj["separations"] = draw(st.just("all") | st.lists(side, max_size=3))
    return obj


@st.composite
def tables(draw):
    """A chain of n elements reversed by the involution, every field
    well-formed but for the odd leq pair or order value."""
    n = draw(st.integers(1, 5))
    names = ["e" + str(i) for i in range(n)]
    orders = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    obj = {
        "type": "table",
        "elements": draw(st.just(n) | st.just(names)),
        "involution": list(range(n))[::-1],
        "leq_pairs": [[i, i + 1] for i in range(n - 1)] + draw(st.lists(
            st.lists(SMALL, min_size=2, max_size=2), max_size=1)),
        "order": [max(a, b) for a, b in zip(orders, orders[::-1])],
    }
    element = st.integers(-1, n) | st.sampled_from(names + ["x"])
    obj["separations"] = draw(st.just("all") | st.lists(element, max_size=3))
    return obj


@st.composite
def graphs(draw):
    vertices = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    path = [[a, b] for a, b in zip(vertices, vertices[1:])]
    extra = draw(st.lists(st.lists(st.sampled_from(vertices), min_size=2, max_size=2), max_size=3))
    obj = {"type": "graph", "edges": draw(st.permutations(path + extra))}
    if draw(st.booleans()):
        obj["vertices"] = draw(st.lists(NAMES, max_size=2))
    return obj


SIDE = st.lists(st.sampled_from("abcd") | st.sampled_from(["v", "a1", 3]), max_size=3)
ELEMENT = SIDE | st.lists(SIDE, min_size=2, max_size=2) | st.integers(-1, 4) | st.sampled_from(["a", "e1"])
FAMILY = st.fixed_dictionaries(
    {"stars": st.lists(st.lists(ELEMENT, max_size=3), max_size=4)},
    optional={"type": st.just("family")},
)
OBJECTS = st.one_of(
    spoiled(bipartitions()), spoiled(tables()), spoiled(graphs()), spoiled(FAMILY),
    st.dictionaries(st.sampled_from(["type", "stars", "edges"]), ANY, max_size=2),
)


def _systems():
    """One small system of each universe, for the family loader."""
    u4 = BipartitionUniverse(["a", "b", "c", "d"])
    chain = TablePoset(4, [3, 2, 1, 0], [(0, 1), (1, 2), (2, 3)], names=["a", "b", "c", "d"])
    G = graphsep.Graph.from_edges(triangle_tripod_edges())
    return (
        SeparationSystem(u4, u4.elements()),
        SeparationSystem(chain, chain.elements()),
        graphsep.graph_separation_system(G, 2),
    )


SYSTEMS = _systems()


def _loads_or_refuses(load, *args):
    try:
        return load(*args)
    except InputError:
        return None


# -- the loaders --


@given(OBJECTS)
@example({"type": "graph", "edges": [[1, "b"], ["1", "c"]]})
@example({"type": "bipartition", "ground_set": ["a", 1], "separations": [[[1]]]})
def test_every_loader_loads_or_raises_input_error(obj):
    parsed = _loads_or_refuses(io.parse_input, json.dumps(obj))
    for o in (obj, parsed):
        if o is None:
            continue
        _loads_or_refuses(io.load_graph, o)
        U = _loads_or_refuses(io.load_universe, o)
        if U is not None:
            _loads_or_refuses(io.load_system, o, U)
        for S in SYSTEMS:
            _loads_or_refuses(io.load_family, o, S)


@given(st.text("ab #\n{}\"1", max_size=12))
def test_parse_input_takes_any_text(text):
    _loads_or_refuses(io.parse_input, text)


# -- the CLI on fuzzed files --


def _main(argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


COMMANDS = st.sampled_from(["check", "tangles", "duality", "tree-of-tangles"])


@given(OBJECTS, COMMANDS, st.none() | st.integers(0, 3))
@example({"type": "graph", "edges": [[1, "b"], ["1", "c"]]}, "tangles", 2)
@example({"type": "bipartition", "ground_set": [1], "order_weights": {}}, "tangles", 1)
@example({"type": "bipartition", "ground_set": [1, "1"]}, "check", 1)
def test_the_cli_exits_with_a_code_on_a_fuzzed_input(obj, command, k):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        order = [] if k is None else ["--k", str(k)]
        code, err = _main([command, path, "--max-seps", "40"] + order)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@given(FAMILY, COMMANDS)
def test_the_cli_exits_with_a_code_on_a_fuzzed_family_file(family, command):
    system = {"type": "bipartition", "ground_set": ["a", "b", "c", "d"], "separations": "all"}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("system.json", "family.json")]
        for path, obj in zip(paths, (system, family)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        code, err = _main([command, paths[0], "--family", f"file:{paths[1]}"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
