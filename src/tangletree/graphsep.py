"""Vertex separations of finite graphs and the covering-star family.

A separation of a graph G is a pair (A, B) of vertex sets with
A + B = V(G) and no edge between A-B and B-A; its order is |A and B|.
Oriented elements are (A_mask, B_mask) pairs over the sorted vertex
list, so lattice operations are two bitwise ops each.
"""

from dataclasses import dataclass
from itertools import combinations

from .config import DEFAULT_CAPS
from .errors import InputError, ResourceCapError
from . import canonical, orient, trees
from .core import (
    SeparationSystem,
    Universe,
    bit_column,
    bit_positions,
    containment_rows,
)
from .orient import StarFamily


class Graph:
    """Finite simple graph with named vertices, bitmask adjacency."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(set(vertices), key=str))
        self.n = len(self.vertices)
        if self.n > 63:
            raise InputError("graphs this large are not supported")
        if len(set(map(str, self.vertices))) < self.n:
            raise InputError("two vertex names print alike, as 1 and '1' do")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        es = set()
        for u, v in edges:
            if u == v:
                raise InputError(f"loop at {u!r}")
            if u not in self._index or v not in self._index:
                raise InputError(f"edge endpoint outside the vertex set: {u, v}")
            es.add(frozenset((u, v)))
        # names may mix ints and strings: ints first, each kind in its order
        self.edges = tuple(sorted(
            (tuple(sorted(e, key=str)) for e in es),
            key=lambda e: [(isinstance(v, str), v) for v in e],
        ))
        self.adj = [0] * self.n
        for u, v in self.edges:
            iu, iv = self._index[u], self._index[v]
            self.adj[iu] |= 1 << iv
            self.adj[iv] |= 1 << iu

    @classmethod
    def from_edges(cls, edges, isolated=()):
        vs = set(isolated)
        for u, v in edges:
            vs.add(u)
            vs.add(v)
        return cls(vs, edges)

    def index(self, v):
        try:
            return self._index[v]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise InputError(f"unknown vertex {v!r}") from None

    def mask_of(self, vs):
        m = 0
        for v in vs:
            m |= 1 << self.index(v)
        return m

    def names_of(self, mask):
        return tuple(v for i, v in enumerate(self.vertices) if mask >> i & 1)

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def components(self, mask):
        """Connected components of the subgraph induced on mask."""
        out = []
        todo = mask
        while todo:
            seed = todo & -todo
            comp = seed
            frontier = seed
            while frontier:
                i = frontier & -frontier
                frontier &= frontier - 1
                grow = self.adj[i.bit_length() - 1] & mask & ~comp
                comp |= grow
                frontier |= grow
            out.append(comp)
            todo &= ~comp
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components(self.full_mask)) == 1

    def crossing_edge(self, amask, bmask):
        """Any edge between A-B and B-A, or None."""
        left = amask & ~bmask
        right = bmask & ~amask
        m = left
        while m:
            i = m & -m
            m &= m - 1
            if self.adj[i.bit_length() - 1] & right:
                j = (self.adj[i.bit_length() - 1] & right)
                j &= -j
                return (
                    self.vertices[i.bit_length() - 1],
                    self.vertices[j.bit_length() - 1],
                )
        return None


class GraphUniverse(Universe):
    """All separations of a graph, ordered by side containment."""

    has_order = True

    def __init__(self, graph: Graph):
        self.graph = graph

    def is_element(self, x) -> bool:
        if not (isinstance(x, tuple) and len(x) == 2):
            return False
        a, b = x
        full = self.graph.full_mask
        if not (isinstance(a, int) and isinstance(b, int)):
            return False
        if a < 0 or b < 0 or a | b != full or (a | full) != full:
            return False
        return self.graph.crossing_edge(a, b) is None

    def invert(self, x):
        return (x[1], x[0])

    def leq(self, x, y) -> bool:
        return x[0] & ~y[0] == 0 and y[1] & ~x[1] == 0

    def meet(self, x, y):
        return (x[0] & y[0], x[1] | y[1])

    def join(self, x, y):
        return (x[0] | y[0], x[1] & y[1])

    def lattice_codes(self, elems):
        # A << n | (V - B): join ORs the A sides and ANDs the B sides, so
        # it ORs both halves; meet does the opposite and ANDs both halves
        n, full = self.graph.n, self.graph.full_mask
        codes = [a << n | full ^ b for a, b in elems]
        return codes, codes

    def order_tables(self, elems):
        n = self.graph.n
        a_sup, a_sub = containment_rows([x[0] for x in elems], n)
        b_sup, b_sub = containment_rows([x[1] for x in elems], n)
        # x <= y iff A_x lies in A_y and B_y lies in B_x
        up = tuple(map(int.__and__, a_sup, b_sub))
        down = tuple(map(int.__and__, a_sub, b_sup))
        return up, down

    def order(self, x):
        return bin(x[0] & x[1]).count("1")

    def code_orders(self, jcodes, mcodes):
        # a code is A << n | (V - B): A & B is its high half AND the
        # complement of its low half
        n, full = self.graph.n, self.graph.full_mask
        orders = {c: (c >> n & ~c & full).bit_count() for c in {*jcodes, *mcodes}}
        return orders, orders

    def sort_key(self, x):
        return x

    def format_element(self, x) -> str:
        g = self.graph
        a = ",".join(map(str, g.names_of(x[0])))
        b = ",".join(map(str, g.names_of(x[1])))
        return f"({{{a}}},{{{b}}})"

    def format_pair(self, x) -> str:
        return self.format_element(self.canon(x))

    def elements(self):
        """Every separation; exponential, meant for small test graphs."""
        g = self.graph
        if g.n > 12:
            raise ResourceCapError("full enumeration only for tiny graphs")
        out = set()
        for bits in range(1 << g.n):
            for comps in _assignments(g, bits):
                out.add(comps)
        return tuple(sorted(out))


def _assignments(g, xmask):
    """All separations with separator exactly contained in xmask's rest.

    Yields (A, B) for every two-colouring of the components of G - X,
    where X = xmask.
    """
    rest = g.full_mask & ~xmask
    comps = g.components(rest)
    for pick in range(1 << len(comps)):
        amask = xmask
        bmask = xmask
        for i, c in enumerate(comps):
            if pick >> i & 1:
                amask |= c
            else:
                bmask |= c
        yield (amask, bmask)


def graph_separation_system(G: Graph, k, caps=DEFAULT_CAPS) -> SeparationSystem:
    """All separations of order below k, as one separation system."""
    if not isinstance(k, int) or k < 1:
        raise InputError("k must be a positive integer")
    U = GraphUniverse(G)
    members = set()
    for size in range(min(k, G.n + 1)):
        for X in combinations(range(G.n), size):
            xmask = 0
            for i in X:
                xmask |= 1 << i
            for sep in _assignments(G, xmask):
                members.add(sep)
                if len(members) > caps.max_results:
                    raise ResourceCapError(
                        f"more than {caps.max_results} separations"
                    )
    return SeparationSystem(U, frozenset(members))


def tk_star_family(G: Graph, k, S=None, caps=DEFAULT_CAPS) -> StarFamily:
    """Stars of up to three separations of order below k whose left
    sides together cover all vertices and edges of G.

    Built from bitsets over the positions of S.oriented.  The partners of
    a member x, those y with x <= y*, are a row of S's order table.
    has_a[v] holds the members whose A side contains vertex v, so
    holding(X), the AND of has_a over a vertex set X, holds the members
    whose A side holds all of X.  The partners y of x with A_y holding
    the vertices outside A_x and their neighbours form a covering pair.
    Any other pair leaves uncovered the vertices outside A_x + A_y and
    the edges that lie in neither side; a third member must be a partner
    of both and hold all of these vertices and the ends of these edges.
    So every bit that survives is a covering star.
    """
    if S is None:
        S = graph_separation_system(G, k, caps)
    if k > G.n:
        raise InputError("covering stars need k at most the vertex count")
    elems = S.oriented
    full = G.full_mask
    adj = G.adj
    everyone = (1 << len(elems)) - 1
    a_sides = [x[0] for x in elems]
    has_a = [bit_column(a_sides, v) for v in range(G.n)]
    live = everyone
    for i, (a, b) in enumerate(elems):
        if a == b:
            live ^= 1 << i

    # partners_above[i]: the non-degenerate j > i with x_i <= x_j*, that
    # is x_j <= x_i*
    down, inv = S.down_bits, S.inv_pos
    partners_above = [
        (down[inv[i]] & live) >> (i + 1) << (i + 1) if live >> i & 1 else 0
        for i in range(len(elems))
    ]

    reach = {}  # a vertex set -> the vertices outside it and their neighbours
    holding = {}  # vertex set -> the members whose A side holds all of it

    def reach_of(a):
        out = reach.get(a)
        if out is None:
            out = full & ~a
            for v in bit_positions(out):
                out |= adj[v]
            reach[a] = out
        return out

    def holding_of(need):
        out = holding.get(need)
        if out is None:
            out = everyone
            for v in bit_positions(need):
                out &= has_a[v]
            holding[need] = out
        return out

    # each size in star order: i, then j, then l ascending
    singles = [1 << i for i in bit_positions(live) if a_sides[i] == full]
    pairs, triples = [], []
    for i, (x, pi) in enumerate(zip(elems, partners_above)):
        ax, bx = x
        ibit = 1 << i
        m = pi & holding_of(reach_of(ax))
        while m:
            jbit = m & -m
            m ^= jbit
            pairs.append(ibit | jbit)
        # An edge that lies in neither side of a pair joins A_x - A_y to
        # A_y - A_x.  Its end u in A_x has a neighbour outside A_x, so u
        # is in the separator; list each such u with those neighbours.
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
            third = pi & partners_above[j]
            if not third:
                continue
            ay = elems[j][0]
            need = reach_of(ax | ay)
            for ubit, out in leaving:
                if out & ay and not ubit & ay:
                    need |= ubit | out & ay
            third &= holding_of(need)
            while third:
                lbit = third & -third
                third ^= lbit
                triples.append(ibit | jbit | lbit)
        if len(singles) + len(pairs) + len(triples) > caps.max_results:
            raise ResourceCapError("covering-star family too large")

    # drop the caches and join the lists in place, so that neither lies
    # under the family's own build
    del reach, holding
    singles += pairs
    singles += triples
    del pairs, triples
    # closure under shifting is a theorem for this family (Diestel & Oum);
    # the duality gate still verifies it where the system is small enough
    return StarFamily.from_masks(
        S, singles, name=f"tk-star(k={k})", closed_under_shifting=True,
    )


def graph_tangles(G: Graph, k, family=None, caps=DEFAULT_CAPS):
    """The tangles of order k: orientations avoiding all covering stars."""
    if family is None:
        S = graph_separation_system(G, k, caps)
        family = tk_star_family(G, k, S, caps)
    return family.system, family, orient.enumerate_tangles(
        family.system, family, caps
    )


# -- tree-decomposition export --


@dataclass
class GraphDecomposition:
    """Parts indexed by the tree's vertices; edges carry separations."""

    tree: object  # STree over the graph system
    parts: tuple  # parts[v] = tuple of vertex names

    def width(self):
        return max(len(p) for p in self.parts) - 1

    def to_json(self):
        g = self.tree.system.universe.graph
        edges = []
        for u, v in self.tree.edges:
            a, b = self.tree.alpha[(u, v)]
            edges.append(
                {
                    "from": u,
                    "to": v,
                    "separation": [list(g.names_of(a)), list(g.names_of(b))],
                }
            )
        return {
            "parts": [list(p) for p in self.parts],
            "edges": edges,
            "width": self.width(),
        }


def decomposition_export(T: trees.STree) -> GraphDecomposition:
    """Turn an S-tree of graph separations into parts and a tree.

    The part at a vertex is the intersection of the right-hand sides of
    its star; a tree of one vertex yields the single part V.
    """
    U = T.system.universe
    if not isinstance(U, GraphUniverse):
        raise InputError("decomposition export needs graph separations")
    g = U.graph
    parts = []
    for v in range(T.n):
        bmask = g.full_mask
        for x in T.star_at(v):
            bmask &= x[1]
        parts.append(g.names_of(bmask))
    return GraphDecomposition(tree=T, parts=tuple(parts))


def vertex_isomorphism(S1, S2, perm) -> canonical.Isomorphism:
    """Lift a vertex bijection to an isomorphism of separation systems."""
    g1 = S1.universe.graph
    g2 = S2.universe.graph

    def move(mask):
        out = 0
        for i in range(g1.n):
            if mask >> i & 1:
                out |= 1 << g2.index(perm[g1.vertices[i]])
        return out

    mapping = {x: (move(x[0]), move(x[1])) for x in S1.oriented}
    return canonical.Isomorphism(S1, S2, mapping)
