"""Correctness checks on the CLI outputs of one run.

They run after the timed region.  Each is computed apart from the program
(networkx, literal enumeration, the definitions written out again on
bitmasks here) or is a property the method must have (tree-decomposition
axioms, canonicity under relabelling).  Every check returns a list of
problems; an empty list means the outputs are correct.
"""

import json
import random
from itertools import combinations

import inputs


def _mask(index, names):
    m = 0
    for name in names:
        m |= 1 << index[name]
    return m


def _is_tree(n, pairs):
    """True iff the undirected pairs form a tree on vertices 0..n-1."""
    edges = {frozenset(p) for p in pairs}
    if len(edges) != n - 1 or any(len(e) != 2 for e in edges):
        return False
    adj = {v: set() for v in range(n)}
    for e in edges:
        u, v = tuple(e)
        if u not in adj or v not in adj:
            return False
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def _directed_tree(tree, key, inverse):
    """Problems with an S-tree's JSON: not a tree, or an edge whose two
    directions do not carry inverse labels.  Labels are compared as
    key(label); returns (problems, stars) where stars[v] holds the keys of
    the labels on the edges into v."""
    n = tree["vertices"]
    labels = {(e["from"], e["to"]): key(e["label"]) for e in tree["edges"]}
    problems = []
    if not _is_tree(n, labels):
        problems.append("returned tree is not a tree")
    for (u, v), lab in labels.items():
        if labels.get((v, u)) != inverse(lab):
            problems.append(f"edge {u}-{v} lacks the inverse label")
    stars = [set() for _ in range(n)]
    for (u, v), lab in labels.items():
        if 0 <= v < n:
            stars[v].add(lab)
    return problems, stars


# -- graph-ladder --


def separation_count(edges, k):
    """Unoriented separations of order below k, recounted with networkx.

    A separation (A, B) with separator X = A & B colours each component of
    G - X with a side, so X contributes 2^c oriented separations, where c
    counts those components; only (V, V) is its own inverse.
    """
    import networkx as nx

    G = nx.Graph(edges)
    vertices = sorted(G.nodes)
    oriented = 0
    degenerate = 0
    for size in range(min(k, len(vertices) + 1)):
        for X in combinations(vertices, size):
            rest = G.subgraph(set(vertices) - set(X))
            oriented += 2 ** nx.number_connected_components(rest)
            degenerate += rest.number_of_nodes() == 0
    return (oriented + degenerate) // 2


def _graph_separation_problem(edges, vertices, k, label):
    a, b = set(label[0]), set(label[1])
    if a | b != vertices:
        return "sides do not cover the graph"
    if len(a & b) >= k:
        return f"order {len(a & b)} is not below {k}"
    for u, v in edges:
        if (u in a - b and v in b - a) or (v in a - b and u in b - a):
            return f"edge {u}-{v} crosses the separator"
    return None


def _decomposition_problems(edges, blocks, dec):
    parts = [set(p) for p in dec["parts"]]
    pairs = [(e["from"], e["to"]) for e in dec["edges"]]
    problems = []
    if not _is_tree(len(parts), pairs):
        return ["decomposition tree is not a tree"]
    vertices = {v for e in edges for v in e}
    if set().union(*parts) != vertices:
        problems.append("parts do not cover every vertex")
    for u, v in edges:
        if not any(u in p and v in p for p in parts):
            problems.append(f"edge {u}-{v} lies in no part")
    adj = {i: set() for i in range(len(parts))}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    for x in vertices:
        holding = {i for i, p in enumerate(parts) if x in p}
        start = min(holding)
        seen, stack = {start}, [start]
        while stack:
            for w in (adj[stack.pop()] & holding) - seen:
                seen.add(w)
                stack.append(w)
        if seen != holding:
            problems.append(f"parts holding {x} are not connected in the tree")
    homes = []
    for block in blocks:
        inside = [i for i, p in enumerate(parts) if set(block) <= p]
        if not inside:
            problems.append(f"clique {sorted(block)} lies in no part")
        homes.append(set(inside))
    for h1, h2 in combinations(homes, 2):
        if h1 & h2:
            problems.append("two cliques share a part")
    return problems


def graph_ladder(ops, outputs, tt, counters):
    problems = []
    total_seps = 0
    for op, out in zip(ops, outputs):
        edges, blocks, k = op.case["edges"], op.case["blocks"], op.case["k"]
        data = json.loads(out)
        expected = separation_count(edges, k)
        total_seps += expected
        G = tt.io.load_graph(tt.io.load_path(op.argv[1]))
        got = len(tt.graphsep.graph_separation_system(G, k))
        if got != expected:
            problems.append(f"{op.label}: program builds {got} separations, networkx counts {expected}")
        if op.argv[0] == "tree-of-tangles":
            if data["tangles"] != len(blocks):
                problems.append(f"{op.label}: {data['tangles']} tangles, expected {len(blocks)}")
            problems += [f"{op.label}: {p}" for p in _decomposition_problems(edges, blocks, data["decomposition"])]
        else:
            if data["kind"] != "tree":
                problems.append(f"{op.label}: verdict {data['kind']}, expected a tree")
                continue
            vertices = {v for e in edges for v in e}
            found, stars = _directed_tree(
                data["tree"], lambda lab: (frozenset(lab[0]), frozenset(lab[1])), lambda x: (x[1], x[0])
            )
            problems += [f"{op.label}: {p}" for p in found]
            for e in data["tree"]["edges"]:
                bad = _graph_separation_problem(edges, vertices, k, e["label"])
                if bad:
                    problems.append(f"{op.label}: edge label {e['label']}: {bad}")
            for v, star in enumerate(stars):
                small = [a for a, _ in star]
                if set().union(*small) != vertices or not all(
                    any(u in a and w in a for a in small) for u, w in edges
                ):
                    problems.append(f"{op.label}: small sides at node {v} do not cover the graph")
    if counters is not None and counters.get("graphsep.seps") != total_seps:
        problems.append(f"graphsep.seps {counters.get('graphsep.seps')} != networkx total {total_seps}")
    return problems


# -- duality-files --


def _inconsistent(a, b, full):
    """Oriented bipartitions a, b on distinct separations are
    inconsistent when the inverse of one lies strictly below the other."""
    if b in (a, full ^ a):
        return False
    abar, bbar = full ^ a, full ^ b
    return (abar & ~b == 0 and abar != b) or (bbar & ~a == 0 and bbar != a)


def literal_tangles(reps, stars, full):
    """Every orientation of the separations, kept when consistent and
    free of family stars: the literal 2^|S| enumeration."""
    found = []
    for bits in range(1 << len(reps)):
        O = [full ^ r if bits >> i & 1 else r for i, r in enumerate(reps)]
        if any(_inconsistent(a, b, full) for a, b in combinations(O, 2)):
            continue
        chosen = set(O)
        if any(star <= chosen for star in stars):
            continue
        found.append(frozenset(O))
    return found


def duality_files(ops, outputs, tt, counters):
    problems = []
    for i in range(0, len(ops), 2):
        check_op, dual_op = ops[i], ops[i + 1]
        system, family = check_op.case["system"], check_op.case["family"]
        index = {name: j for j, name in enumerate(system["ground_set"])}
        full = (1 << len(index)) - 1
        reps = [_mask(index, names) for names in system["separations"]]
        stars = [frozenset(_mask(index, el) for el in star) for star in family["stars"]]

        lines = outputs[i].splitlines()
        verdicts = [ln for ln in lines if ln.startswith(("ok:", "violation:"))]
        if any(not ln.startswith("ok:") for ln in verdicts) or "ok: family-shift-closed" not in verdicts:
            problems.append(f"{check_op.label}: check does not pass every test: {verdicts}")
        if f"system: {len(reps)} separations, {2 * len(reps)} oriented" not in lines:
            problems.append(f"{check_op.label}: wrong system size in {lines[-2:]}")

        data = json.loads(outputs[i + 1])
        literal = literal_tangles(reps, stars, full)
        if literal:
            if data["kind"] != "tangle":
                problems.append(f"{dual_op.label}: tree verdict, but {len(literal)} tangles exist")
            elif frozenset(_mask(index, el) for el in data["tangle"]) not in literal:
                problems.append(f"{dual_op.label}: returned tangle is not a tangle")
            continue
        if data["kind"] != "tree":
            problems.append(f"{dual_op.label}: tangle verdict, but none exists")
            continue
        found, node_stars = _directed_tree(data["tree"], lambda lab: _mask(index, lab), lambda x: full ^ x)
        problems += [f"{dual_op.label}: {p}" for p in found]
        star_set = set(stars)
        for v, star in enumerate(node_stars):
            if frozenset(star) not in star_set:
                problems.append(f"{dual_op.label}: star at node {v} is not in the family")
    return problems


# -- cut-profiles --


def _cut_system(obj, k):
    names = obj["ground_set"]
    index = {name: j for j, name in enumerate(names)}
    weights = {}
    for key, w in obj["order_weights"].items():
        a, b = key.split(",")
        weights[(index[a], index[b])] = w
    cut = inputs.cut_orders(weights, len(names))
    members = {mask for mask, order in enumerate(cut) if order < k}
    return index, (1 << len(names)) - 1, members


def profile_problem(P, members, full):
    """None if P is a profile of the system: one orientation of every
    separation, consistent, and closed under joins that stay in it."""
    if not P <= members:
        return "orients a separation outside the system"
    if any((m in P) == (full ^ m in P) for m in members):
        return "does not orient every separation exactly once"
    for a, b in combinations(P, 2):
        if _inconsistent(a, b, full):
            return "inconsistent"
    for r in P:
        for s in P:
            if full ^ (r | s) in P:
                return "holds the inverse of a join of its members"
    return None


def enumerate_profiles(members, full):
    """Profiles by a depth-first search written apart from the program:
    orient the separations one at a time, keeping the partial orientation
    consistent and requiring every in-system join of chosen members."""
    reps = sorted({min(m, full ^ m) for m in members})
    chosen = []
    chosen_set = set()
    required = {}
    found = []

    def choose(x):
        if full ^ x in required or full ^ x in chosen_set:
            return None
        added = []
        for r in chosen:
            if _inconsistent(x, r, full):
                return None
        for r in chosen + [x]:
            j = r | x
            if j in members:
                if full ^ j in chosen_set or full ^ j == x:
                    return None
                added.append(j)
        return added

    def dfs(d):
        if d == len(reps):
            found.append(frozenset(chosen))
            return
        for x in (reps[d], full ^ reps[d]):
            added = choose(x)
            if added is None:
                continue
            chosen.append(x)
            chosen_set.add(x)
            for j in added:
                required[j] = required.get(j, 0) + 1
            dfs(d + 1)
            for j in added:
                required[j] -= 1
                if not required[j]:
                    del required[j]
            chosen_set.discard(x)
            chosen.pop()

    dfs(0)
    return found


def _normalise(data, ground):
    """An output as sets of point names, free of the ground set's order.
    Nested sets and tree edges hold one orientation of each separation,
    whichever sorts first, so they are compared as unordered pairs."""

    def separation(names):
        return sorted([sorted(names), sorted(set(ground) - set(names))])

    if "count" in data:
        out = {"count": data["count"], "tangles": sorted(sorted(sorted(el) for el in O) for O in data["tangles"])}
    else:
        out = {"tangles": data["tangles"], "nested": sorted(separation(el) for el in data["nested"])}
        if "tree" in data:
            out["tree_vertices"] = data["tree"]["vertices"]
            out["tree_edges"] = sorted(separation(e["label"]) for e in data["tree"]["edges"] if e["from"] < e["to"])
    return json.dumps(out, sort_keys=True)


def cut_profiles(ops, outputs, tt, counters, rerun, seed):
    """rerun(op, path) runs the op's command on another input file and
    returns its stdout; the relabelling check needs it."""
    problems = []
    rng = random.Random(seed)
    for i in range(0, len(ops), 3):
        obj, k = ops[i].case["input"], ops[i].case["k"]
        index, full, members = _cut_system(obj, k)
        tangles = json.loads(outputs[i])
        profiles = [frozenset(_mask(index, el) for el in O) for O in tangles["tangles"]]
        if tangles["count"] != len(profiles) or len(set(profiles)) != len(profiles):
            problems.append(f"{ops[i].label}: count and list disagree")
        for P in profiles:
            bad = profile_problem(P, members, full)
            if bad:
                problems.append(f"{ops[i].label}: listed profile {bad}")
        if set(enumerate_profiles(members, full)) != set(profiles):
            problems.append(f"{ops[i].label}: independent enumeration finds other profiles")

        for j in (i + 1, i + 2):
            data = json.loads(outputs[j])
            if data["tangles"] != len(profiles):
                problems.append(f"{ops[j].label}: arranges {data['tangles']} of {len(profiles)} profiles")
            nested = [_mask(index, el) for el in data["nested"]]
            for a, b in combinations(nested, 2):
                if all(c for c in (a & b, a & ~b & full, ~a & b & full, ~a & ~b & full)):
                    problems.append(f"{ops[j].label}: nested set has crossing members")
                    break
            for P, Q in combinations(profiles, 2):
                if not any((s in P) != (s in Q) for s in nested):
                    problems.append(f"{ops[j].label}: two profiles are not distinguished")
                    break

        names = obj["ground_set"]
        path = ops[i].argv[1].replace(".json", "-relabelled.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(obj, ground_set=rng.sample(names, len(names))), fh, sort_keys=True)
        for j in (i, i + 1, i + 2):
            before = _normalise(json.loads(outputs[j]), names)
            after = _normalise(json.loads(rerun(ops[j], path)), names)
            if before != after:
                problems.append(f"{ops[j].label}: output changes when the ground set is relabelled")
    return problems


CHECKS = {
    "graph-ladder": graph_ladder,
    "duality-files": duality_files,
    "cut-profiles": cut_profiles,
}
