"""Reading input artifacts and serialising results.

JSON inputs carry a "type" tag: "table" for explicit-table universes,
"bipartition" for set bipartitions, "graph" for graphs (which may also
arrive as plain edge-list text, one "u v" per line).  A family file is
an object with a "stars" list; its tag "family" may be left out.  A
malformed input raises InputError.  All serialisers sort their output
so equal objects produce equal bytes.
"""

import json

from .core import BipartitionUniverse, SeparationSystem, TablePoset, weighted_cut
from .errors import InputError
from .graphsep import Graph, GraphUniverse
from .orient import StarFamily


def parse_input(text):
    """Parse an input artifact: JSON object or edge-list text."""
    stripped = text.strip()
    if not stripped:
        raise InputError("empty input")
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as e:
            raise InputError(f"bad JSON: {e}")
        if not isinstance(obj, dict):
            raise InputError("JSON input must be an object")
        if "type" not in obj:
            if "stars" not in obj:
                raise InputError('JSON input needs a "type" field')
            obj["type"] = "family"
        return obj
    edges = []
    for ln, line in enumerate(stripped.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {ln}: expected 'u v'")
        edges.append((parts[0], parts[1]))
    return {"type": "graph", "edges": edges}


def load_path(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_input(fh.read())
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")


_REQUIRED = object()


def _field(obj, name, kinds, default=_REQUIRED):
    """obj[name], checked to be of one of the given JSON types."""
    if name not in obj:
        if default is _REQUIRED:
            raise InputError(f'{obj.get("type")} input needs a "{name}" field')
        return default
    return _checked(obj[name], kinds, f'"{name}"')


def _checked(value, kinds, what):
    """value, checked to be of one of the given JSON types."""
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise InputError(f"bad {what}: {value!r}")
    return value


def _pairs(values, kinds, what):
    """The list values as 2-tuples of items of the given types."""
    out = []
    for p in values:
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise InputError(f"bad {what}: {p!r}")
        out.append(tuple(_checked(v, kinds, what) for v in p))
    return out


def load_graph(obj) -> Graph:
    if obj.get("type") != "graph":
        raise InputError("not a graph input")
    edges = _pairs(_field(obj, "edges", list, []), (str, int), "edge")
    vertices = [
        _checked(v, (str, int), "vertex")
        for v in _field(obj, "vertices", list, [])
    ]
    return Graph.from_edges(edges, isolated=vertices)


def load_universe(obj):
    kind = obj.get("type")
    if kind == "table":
        names = _field(obj, "elements", (int, list))
        if isinstance(names, int):
            n, names = names, None
        else:
            for v in names:
                _checked(v, str, "element name")
            n = len(names)
        involution = [
            _checked(i, int, "involution entry")
            for i in _field(obj, "involution", list)
        ]
        return TablePoset(
            n,
            involution,
            _pairs(_field(obj, "leq_pairs", list), int, "leq pair"),
            order=_field(obj, "order", list, None),
            names=names,
        )
    if kind == "bipartition":
        ground = tuple(
            _checked(v, (str, int), "ground point")
            for v in _field(obj, "ground_set", list)
        )
        weights = _field(obj, "order_weights", dict, None)
        if weights is None:
            return BipartitionUniverse(ground)
        # the keys name points as they print; where two print alike,
        # BipartitionUniverse(ground) raises its own error
        idx = {str(name): i for i, name in enumerate(ground)}
        if len(idx) != len(ground):
            return BipartitionUniverse(ground)
        w, keys = {}, {}
        for key, val in weights.items():
            names = key.split(",")
            ends = {idx.get(name.strip()) for name in names}
            if len(names) != 2 or len(ends) != 2 or None in ends:
                raise InputError(f"order weight {key!r} does not name two points")
            pair = tuple(sorted(ends))
            first = keys.setdefault(pair, key)
            if first != key:
                raise InputError(
                    f"order weights {first!r} and {key!r} name the same pair"
                )
            w[pair] = _checked(val, int, f"order weight of {key!r}")
        return BipartitionUniverse(ground, order_fn=weighted_cut(w))
    raise InputError(f"unknown universe type {kind!r}")


def element_from_json(U, item):
    """Decode one oriented separation in the universe's file encoding."""
    if isinstance(U, TablePoset):
        if isinstance(_checked(item, (str, int), "element"), str):
            return U.id_of(item)
        return item
    if isinstance(U, BipartitionUniverse):
        return U.mask_of(_checked(item, list, "separation side"))
    if isinstance(U, GraphUniverse):
        a, b = _pairs([item], list, "separation")[0]
        return (U.graph.mask_of(a), U.graph.mask_of(b))
    raise InputError("universe has no file encoding")


def element_to_json(U, x):
    if isinstance(U, TablePoset):
        return U.name_of(x)
    if isinstance(U, BipartitionUniverse):
        return list(U.names_of(x))
    if isinstance(U, GraphUniverse):
        return [list(U.graph.names_of(x[0])), list(U.graph.names_of(x[1]))]
    raise InputError("universe has no file encoding")


def load_system(obj, U) -> SeparationSystem:
    spec = _field(obj, "separations", (str, list), "all")
    if spec == "all":
        return SeparationSystem(U, frozenset(U.elements()))
    if isinstance(spec, str):
        raise InputError(f'"separations" must be "all" or a list, not {spec!r}')
    members = set()
    for item in spec:
        x = element_from_json(U, item)
        U.check_element(x)
        members.add(x)
        members.add(U.invert(x))
    return SeparationSystem(U, frozenset(members))


def load_family(obj, S) -> StarFamily:
    if "stars" not in obj:
        raise InputError('family file needs a "stars" list')
    stars = []
    for raw in _field(obj, "stars", list):
        _checked(raw, list, "star")
        stars.append([element_from_json(S.universe, it) for it in raw])
    return StarFamily(S, stars, require_stars=False, name="file")


# -- serialisers --


def orientation_to_json(S, O):
    return [element_to_json(S.universe, x) for x in sorted(O)]


def nested_to_json(S, members):
    return [element_to_json(S.universe, s) for s in sorted(members)]


def stree_to_json(T):
    U = T.system.universe
    return {
        "vertices": T.n,
        "edges": [
            {
                "from": u,
                "to": v,
                "label": element_to_json(U, T.alpha[(u, v)]),
            }
            for u, v in sorted(T.directed_edges())
        ],
    }


def stree_to_dot(T):
    U = T.system.universe
    lines = ["graph stree {"]
    for v in range(T.n):
        lines.append(f'  n{v} [label="{v}"];')
    for u, v in sorted(T.edges):
        lab = U.format_element(T.alpha[(u, v)])
        lines.append(f'  n{u} -- n{v} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines)


def decomposition_to_dot(dec):
    lines = ["graph decomposition {"]
    for v, part in enumerate(dec.parts):
        label = "{" + ",".join(map(str, part)) + "}"
        lines.append(f'  n{v} [label="{label}"];')
    for u, v in sorted(dec.tree.edges):
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
