"""Nested sets, tree sets, their nodes, and S-trees.

A nested set stores unoriented separations (canonical orientations) of one
system.  Its nodes are the maximal-element sets of its consistent
orientations; for tree sets these are genuine stars and become the
vertices of an S-tree whose edges are the separations themselves.
"""

from dataclasses import dataclass
from functools import cached_property

from .config import DEFAULT_CAPS
from .errors import DomainError, InputError, IntegrityError, ResourceCapError
from .core import SeparationSystem
from . import orient


class NestedSet:
    """Pairwise nested unoriented separations inside one system."""

    def __init__(self, system, seps):
        U = system.universe
        mem = set()
        for s in seps:
            system.check_member(s)
            mem.add(U.canon(s))
        bad = system.nestedness_violation(mem)
        if bad is not None:
            raise InputError(
                f"not nested: {U.format_pair(bad[0])} crosses "
                f"{U.format_pair(bad[1])}"
            )
        self.system = system
        self.members = frozenset(mem)

    @cached_property
    def sorted_members(self):
        return tuple(sorted(self.members))

    def __iter__(self):
        return iter(self.sorted_members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, s):
        return self.system.universe.canon(s) in self.members

    def __eq__(self, other):
        return (
            isinstance(other, NestedSet)
            and self.system == other.system
            and self.members == other.members
        )

    def __hash__(self):
        return hash(self.members)

    def union(self, seps):
        return NestedSet(self.system, list(self.members) + list(seps))

    @cached_property
    def subsystem(self) -> SeparationSystem:
        """The members and their inverses as a system of their own."""
        return SeparationSystem.from_unoriented(self.system.universe, self.members)

    def treeset_violation(self):
        """First degenerate or trivial member (relative to the set itself)."""
        U = self.system.universe
        sub = self.subsystem
        for s in self.sorted_members:
            if s == U.invert(s):
                return ("degenerate", s)
        for x in sub.oriented:
            if sub.classify(x).trivial:
                return ("trivial", U.canon(x))
        return None

    def is_treeset(self) -> bool:
        return self.treeset_violation() is None


def nodes_of(N: NestedSet, caps=DEFAULT_CAPS):
    """The splitting stars of a nested set, in star order (see
    orient.mask_order).

    One node per consistent orientation of N: its set of maximal
    elements.  Maximality plus consistency plus nestedness force the
    star property, so no separate check is needed (asserted anyway).

    Degenerate members are rejected.  Trivial members are tolerated:
    consistency forces their trivial orientation, which a witness then
    dominates, so they never surface in a node and both the orientation
    count and the nodes agree with those of the pruned set.

    The nodes are kept on N, one tuple per caps, so that refinement and
    the S-tree built from its nested set search for them once.
    """
    kept = vars(N).setdefault("_nodes", {})  # on N, never at module level
    if caps not in kept:
        kept[caps] = _search_nodes(N, caps)
    return kept[caps]


def _search_nodes(N, caps):
    bad = N.treeset_violation()
    if bad is not None and bad[0] == "degenerate":
        raise InputError(f"not a tree set: {bad}")
    sub = N.subsystem
    masks = set()
    for O in orient.enumerate_tangles(sub, None, caps):
        m = sub.member_mask(orient.maximal_members(sub, O))
        bad = orient.star_mask_violation(sub, m)
        if bad is not None:
            raise IntegrityError(f"node is not a star: {bad}")
        masks.add(m)
    return orient._canonical_sorted(sub, masks)


def lives_at(S, O, N: NestedSet):
    """The node of N at whose region the consistent orientation O sits.

    Computed directly, on positions in N.subsystem: restrict O to N (s
    where O holds s, else s*) and take maximal elements.  For regular tree
    sets this is the unique node contained in O.
    """
    U, sub = S.universe, N.subsystem
    pos, inv, elems = sub.pos, sub.inv_pos, sub.oriented
    restricted = []
    for s in N.sorted_members:
        x = s if s in O else elems[inv[pos[s]]]
        if x not in O:
            raise InputError(f"orientation does not decide {U.format_pair(s)}")
        restricted.append(x)
    bad = orient.consistency_violation(sub, restricted)
    if bad is not None:
        raise InputError(f"orientation inconsistent on the nested set: {bad}")
    return frozenset(orient.maximal_members(sub, restricted))


@dataclass(frozen=True)
class NodeSplit:
    essential: tuple
    inessential: tuple


def essential_nodes(S, N: NestedSet, orientations, caps=DEFAULT_CAPS) -> NodeSplit:
    """Partition nodes by whether some given orientation lives there."""
    all_nodes = nodes_of(N, caps)
    lived = {lives_at(S, O, N) for O in orientations}
    ess = tuple(n for n in all_nodes if n in lived)
    iness = tuple(n for n in all_nodes if n not in lived)
    return NodeSplit(ess, iness)


# -- S-trees --


@dataclass
class StreeReport:
    over_f: object  # bool, or None when no family was supplied
    irredundant: bool
    tight: bool
    order_preserving: bool
    witness: object = None

    def all_good(self):
        """Irredundant, tight, order-preserving and, where a family was
        supplied, over it."""
        return (self.over_f is not False and self.irredundant and self.tight
                and self.order_preserving)


class STree:
    """A finite tree with an S-arrow labelling of its oriented edges.

    alpha maps each directed vertex pair (u, v) of an edge to an oriented
    member of the system, with alpha[(v, u)] the inverse.  Vertices are
    0..n-1; structure is validated at construction.
    """

    def __init__(self, system, n_vertices, alpha):
        if n_vertices <= 0:
            raise InputError("an S-tree needs at least one vertex")
        U = system.universe
        adj = {v: set() for v in range(n_vertices)}
        edges = set()
        for (u, v), lab in alpha.items():
            if not (0 <= u < n_vertices and 0 <= v < n_vertices) or u == v:
                raise InputError(f"bad edge ({u},{v})")
            system.check_member(lab)
            edges.add(frozenset((u, v)))
            adj[u].add(v)
            adj[v].add(u)
        for e in edges:
            u, v = tuple(e)
            if (u, v) not in alpha or (v, u) not in alpha:
                raise InputError(f"edge {u}-{v} labelled in one direction only")
            if alpha[(u, v)] != U.invert(alpha[(v, u)]):
                raise InputError(f"labels of edge {u}-{v} are not inverse")
        if len(edges) != n_vertices - 1:
            raise InputError("edge count does not match a tree")
        # connectivity
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != n_vertices:
            raise InputError("tree is not connected")
        self.system = system
        self.n = n_vertices
        self.alpha = dict(alpha)
        self.adj = {v: frozenset(ns) for v, ns in adj.items()}

    @cached_property
    def edges(self):
        return tuple(
            sorted(tuple(sorted(e)) for e in {frozenset(k) for k in self.alpha})
        )

    def star_at(self, v):
        return frozenset(self.alpha[(u, v)] for u in self.adj[v])

    @cached_property
    def stars(self):
        return tuple(self.star_at(v) for v in range(self.n))

    def leaves(self):
        if self.n == 1:
            return ()
        return tuple(v for v in range(self.n) if len(self.adj[v]) == 1)

    def leaf_separations(self):
        """Labels pointing from each leaf into the tree, sorted, deduped."""
        out = {self.alpha[(x, next(iter(self.adj[x])))] for x in self.leaves()}
        return tuple(sorted(out))

    def directed_edges(self):
        return tuple(sorted(self.alpha))

    def validate(self, family=None) -> StreeReport:
        over = None
        witness = None
        if family is not None:
            over = True
            for v in range(self.n):
                if self.star_at(v) not in family:
                    over = False
                    witness = ("star-not-in-family", v, self.star_at(v))
                    break
        irred = True
        for t in range(self.n):
            outward = [self.alpha[(t, u)] for u in sorted(self.adj[t])]
            if len(outward) != len(set(outward)):
                irred = False
                witness = witness or ("redundant-at", t)
                break
        # on positions in S.oriented: a star is untight where it holds
        # the inverse of a non-degenerate member
        S = self.system
        pos, inv, up = S.pos, S.inv_pos, S.up_bits
        tight = True
        for t in range(self.n):
            sig = self.star_at(t)
            m = S.member_mask(sig)
            x = next((x for x in sig
                      if inv[pos[x]] != pos[x] and m >> inv[pos[x]] & 1), None)
            if x is not None:
                tight = False
                witness = witness or ("untight-at", t, x)
                break
        # adjacent-step check suffices: the edge order is generated by
        # steps (x,t) <= (t,y) and U's order is transitive
        order_ok = True
        for t in range(self.n):
            nbrs = sorted(self.adj[t])
            outs = [pos[self.alpha[(t, y)]] for y in nbrs]
            for x in nbrs:
                above = up[pos[self.alpha[(x, t)]]]
                y = next((y for y, q in zip(nbrs, outs)
                          if y != x and not above >> q & 1), None)
                if y is not None:
                    order_ok = False
                    witness = witness or ("order-violation", (x, t), (t, y))
                    break
            if not order_ok:
                break
        return StreeReport(over, irred, tight, order_ok, witness)


def treeset_to_stree(N: NestedSet, caps=DEFAULT_CAPS) -> STree:
    """The S-tree whose vertices are N's nodes and edges its separations."""
    bad = N.treeset_violation()
    if bad is not None:
        raise InputError(f"not a tree set: {bad}")
    U = N.system.universe
    nodes = nodes_of(N, caps)
    if len(nodes) > caps.max_tree_nodes:
        raise ResourceCapError(
            f"{len(nodes)} tree nodes exceed the cap {caps.max_tree_nodes}"
        )
    index = {sigma: i for i, sigma in enumerate(nodes)}
    alpha = {}
    for s in N.sorted_members:
        t = U.invert(s)
        homes_s = [sigma for sigma in nodes if s in sigma]
        homes_t = [sigma for sigma in nodes if t in sigma]
        if len(homes_s) != 1 or len(homes_t) != 1:
            raise IntegrityError(
                f"separation {U.format_pair(s)} is not on exactly two nodes"
            )
        u, v = index[homes_t[0]], index[homes_s[0]]
        # s points into the node that contains it
        alpha[(u, v)] = s
        alpha[(v, u)] = t
    tree = STree(N.system, len(nodes), alpha)
    if tree.stars != nodes:
        # vertex i was built from node i, so this cannot fire
        raise IntegrityError("tree stars do not match the nodes")
    return tree


# -- irredundant / tight reduction --


def _subtree(adj, a, b):
    """Vertices reachable from a without crossing edge a-b."""
    seen = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if x == a and y == b:
                continue
            if y not in seen and y != b:
                seen.add(y)
                stack.append(y)
    return seen


def _branch_keeps(adj, alpha, branch, keep):
    """Keep labels realized by leaves lying inside the given vertex set."""
    out = set()
    for v in branch:
        if len(adj[v]) == 1:
            (nb,) = tuple(adj[v])
            if alpha[(v, nb)] in keep:
                out.add(alpha[(v, nb)])
    return out


def _delete_vertices(adj, alpha, dead):
    for v in dead:
        adj.pop(v, None)
    for w in adj:
        adj[w] -= dead
    for (u, v) in list(alpha):
        if u in dead or v in dead:
            del alpha[(u, v)]


def irredundant_reduction(T: STree, keep=(), family=None) -> STree:
    """Prune an S-tree to an irredundant, tight one over the same family.

    Every oriented separation in keep must be a leaf separation of T; in
    the result it stays one and labels no other edge.  Each move strictly
    shrinks the tree, so the loop terminates.
    """
    U = T.system.universe
    keep = frozenset(keep)
    leaf_seps = set(T.leaf_separations())
    for k in keep:
        if k not in leaf_seps:
            raise InputError(
                f"keep separation {U.format_element(k)} is not a leaf separation"
            )
    adj = {v: set(ns) for v, ns in T.adj.items()}
    alpha = dict(T.alpha)

    def one_move():
        # Move A: two outward-equal labels at one vertex -> drop a branch
        for t in sorted(adj):
            seen_lab = {}
            for nb in sorted(adj[t]):
                lab = alpha[(t, nb)]
                if lab in seen_lab:
                    b0, b1 = seen_lab[lab], nb
                    br0 = _subtree(adj, b0, t)
                    br1 = _subtree(adj, b1, t)
                    if not _branch_keeps(adj, alpha, br1, keep):
                        _delete_vertices(adj, alpha, br1)
                    elif not _branch_keeps(adj, alpha, br0, keep):
                        _delete_vertices(adj, alpha, br0)
                    else:
                        raise DomainError(
                            "cannot reduce: duplicate branches both hold "
                            "keep separations"
                        )
                    return True
                seen_lab[lab] = nb
        # Move B: a star containing s and its inverse -> splice through
        for t in sorted(adj):
            into = {}
            for nb in sorted(adj[t]):
                into[alpha[(nb, t)]] = nb
            for lab, x in sorted(into.items()):
                other = U.invert(lab)
                if other == lab or other not in into:
                    continue
                y = into[other]
                dying = set()
                for nb in adj[t]:
                    if nb not in (x, y):
                        dying |= _subtree(adj, nb, t)
                dying.add(t)
                if _branch_keeps(adj, alpha, dying, keep):
                    raise DomainError(
                        "cannot reduce: splice would drop a keep separation"
                    )
                zx = alpha[(x, t)]
                _delete_vertices(adj, alpha, dying)
                adj[x].add(y)
                adj[y].add(x)
                alpha[(x, y)] = zx
                alpha[(y, x)] = U.invert(zx)
                return True
        # Move C: a keep label also appearing on a non-leaf edge
        for k in sorted(keep):
            occurrences = sorted(
                (u, v) for (u, v), lab in alpha.items() if lab == k
            )
            if len(occurrences) <= 1:
                continue
            inner = [(u, v) for (u, v) in occurrences if len(adj[u]) > 1]
            if not inner:
                raise DomainError(
                    f"cannot reduce: keep {U.format_element(k)} labels "
                    f"two leaf edges"
                )
            u, v = inner[0]
            side_u = _subtree(adj, u, v)
            if _branch_keeps(adj, alpha, side_u, keep) - {k}:
                raise DomainError(
                    "cannot reduce: keep separations on the far side of a "
                    "duplicated keep label"
                )
            fresh = max(adj) + 1
            _delete_vertices(adj, alpha, side_u)
            adj[fresh] = {v}
            adj[v].add(fresh)
            alpha[(fresh, v)] = k
            alpha[(v, fresh)] = U.invert(k)
            return True
        return False

    while one_move():
        pass

    # renumber 0..n-1 in sorted old-id order
    old = sorted(adj)
    ren = {o: i for i, o in enumerate(old)}
    new_alpha = {(ren[u], ren[v]): lab for (u, v), lab in alpha.items()}
    out = STree(T.system, len(old), new_alpha)
    rep = out.validate(family)
    if not rep.irredundant or not rep.tight:
        raise IntegrityError(f"reduction left a non-reduced tree: {rep.witness}")
    if rep.over_f is False:
        raise IntegrityError(f"reduction left the family: {rep.witness}")
    out_leaves = set(out.leaf_separations())
    for k in keep:
        if k not in out_leaves:
            raise IntegrityError(
                f"keep separation {U.format_element(k)} lost its leaf"
            )
        uses = [e for e, lab in out.alpha.items() if lab == k]
        if len(uses) != 1:
            raise IntegrityError(
                f"keep separation {U.format_element(k)} labels several edges"
            )
    return out
