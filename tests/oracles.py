"""Literal element-level oracles for the position-level code in src.

Emulation, the shift map and its scope, closure of a family under one
shift, separability, and the shape and regularity of an orientation,
each written pair by pair against the universe (U.leq, U.join,
U.invert).  `tangletree.duality` decides the same facts on positions in
S.oriented; the tests compare the two.

Below them, the certificate predicates the same way: stars,
consistency, close relationship, where an orientation lives,
nestedness, distinguishing, the tight and order scans of an S-tree, and
the order and lattice checks of a canonical.Isomorphism, each the pair
loop that src replaced by a body over positions, and the F-tangles by
the 2^|S| loop over every orientation.  Then the duality
decision in its search-first order, and the order tables, lattice codes
and code orders that TablePoset once took from the Universe base, by leq
over every pair.  Last, helpers that only tests call: the universe laws,
corner separations, the S-tree encoding, and a few thin wrappers.
"""

from dataclasses import dataclass
from itertools import combinations

from tangletree import duality, orient, refine, trees
from tangletree.canonical import standing_hypothesis_violation
from tangletree.config import DEFAULT_CAPS
from tangletree.core import bit_positions
from tangletree.errors import DomainError, InputError, IntegrityError
from tangletree.orient import mask_order, orientation_of, profile_violation
from tangletree.trees import NestedSet, STree, StreeReport


def emulation_violation(S, s, r):
    """None if s emulates r in S; otherwise the first witness.

    Witness shapes: ("not-geq", r) when s is not above r, else
    ("join-escapes", x) for the first x >= r (x != invert(r)) whose join
    with s leaves the system.
    """
    U = S.universe
    S.check_member(s)
    S.check_member(r)
    flags = S.classify(r)
    if flags.degenerate or flags.trivial:
        raise InputError("emulation base must be neither trivial nor degenerate")
    if not U.leq(r, s):
        return ("not-geq", r)
    rbar = U.invert(r)
    for x in S.oriented:
        if x == rbar or not U.leq(r, x):
            continue
        if U.join(s, x) not in S.members:
            return ("join-escapes", x)
    return None


def emulates(S, s, r) -> bool:
    return emulation_violation(S, s, r) is None


@dataclass(frozen=True)
class ShiftMap:
    """f-down for a base r and target s with s >= r emulating r."""

    system: object
    base: object
    target: object

    def __post_init__(self):
        bad = emulation_violation(self.system, self.target, self.base)
        if bad is not None:
            raise InputError(f"target does not emulate base: {bad}")

    def domain_contains(self, x) -> bool:
        U = self.system.universe
        return U.leq(self.base, x) or U.leq(self.base, U.invert(x))

    def apply(self, x):
        U = self.system.universe
        r, s = self.base, self.target
        rbar = U.invert(r)
        if x != rbar and U.leq(r, x):
            img = U.join(x, s)
        elif U.leq(r, U.invert(x)):
            img = U.invert(U.join(U.invert(x), s))
        else:
            raise InputError(
                f"{U.format_element(x)} is outside the shift domain"
            )
        if img not in self.system.members:
            raise IntegrityError(
                "shift image escaped the system despite emulation"
            )
        return img

    def apply_star(self, sigma):
        return frozenset(self.apply(x) for x in sigma)


def star_in_shift_scope(S, sigma, r):
    """True iff sigma lies in S_(>=r) minus invert(r) and touches above r."""
    U = S.universe
    rbar = U.invert(r)
    touches = False
    for x in sigma:
        if x == rbar:
            return False
        above = U.leq(r, x)
        if not above and not U.leq(r, U.invert(x)):
            return False
        if above:
            touches = True
    return touches


def emulation_for_family_violation(S, s, r, family):
    """None if s emulates r in S for the family; else the offending star."""
    bad = emulation_violation(S, s, r)
    if bad is not None:
        raise InputError(f"emulation precondition fails: {bad}")
    shift = ShiftMap(S, r, s)
    for sigma in family:
        if not star_in_shift_scope(S, sigma, r):
            continue
        if shift.apply_star(sigma) not in family:
            return sigma
    return None


def separability_violation(S):
    """First comparable pair (s, r) with no t between them such that t
    emulates s and invert(t) emulates invert(r)."""
    U = S.universe
    elems = S.oriented
    for s in elems:
        fs = S.classify(s)
        if fs.degenerate or fs.trivial:
            continue
        for r in elems:
            if not U.leq(s, r):
                continue
            fr = S.classify(U.invert(r))
            if fr.degenerate or fr.trivial:
                continue
            ok = False
            for t in elems:
                if not (U.leq(s, t) and U.leq(t, r)):
                    continue
                if emulates(S, t, s) and emulates(S, U.invert(t), U.invert(r)):
                    ok = True
                    break
            if not ok:
                return (s, r)
    return None


def check_separable(S) -> bool:
    return separability_violation(S) is None


def orientation_violation(S, O):
    """None if O picks exactly one orientation per separation of S."""
    U = S.universe
    O = frozenset(O)
    for x in O:
        if x not in S.members:
            return ("foreign", x)
    for s in S.separations:
        t = U.invert(s)
        has_s, has_t = s in O, t in O
        if s == t:
            if not has_s:
                return ("missing-degenerate", s)
        elif has_s and has_t:
            return ("both", s)
        elif not has_s and not has_t:
            return ("unoriented", s)
    if len(O) != len(S.separations):
        return ("size", len(O))
    return None


def is_regular(S, O) -> bool:
    """True iff O contains no co-small separation."""
    U = S.universe
    return not any(U.leq(U.invert(x), x) for x in O)


# -- the certificate predicates, pair by pair --


def star_violation(U, sigma):
    """None if sigma is a star: no degenerate member, r <= invert(s)."""
    elems = sorted(sigma)
    for x in elems:
        if x == U.invert(x):
            return ("degenerate", x)
    for x, y in combinations(elems, 2):
        if not U.leq(x, U.invert(y)):
            return ("not-star", (x, y))
    return None


def is_star(U, sigma) -> bool:
    return star_violation(U, sigma) is None


def consistency_violation(S, O):
    """First pair (a, b) in O with invert(a) < b, else None.

    Such a pair means O orients some r strictly below b away from b.
    Only pairs on distinct separations count; a single co-small element
    is fine.
    """
    U = S.universe
    elems = sorted(O)
    for x in elems:
        S.check_member(x)
    for a, b in combinations(elems, 2):
        if b == U.invert(a):
            continue
        if U.lt(U.invert(a), b):
            return (a, b)
        if U.lt(U.invert(b), a):
            return (b, a)
    return None


def is_consistent(S, O) -> bool:
    return consistency_violation(S, O) is None


def is_profile(S, O) -> bool:
    return profile_violation(S, O) is None


def is_f_tangle(S, O, family) -> bool:
    return orient.f_tangle_violation(S, O, family) is None


def literal_tangles(S, family, caps=DEFAULT_CAPS):
    """The F-tangles by the unpruned 2^|S| loop: every orientation of
    orient.all_orientations, in its order, that is an F-tangle."""
    return [O for O in orient.all_orientations(S, caps)
            if is_f_tangle(S, O, family)]


def closely_related_violation(S, s, P):
    """None if s is closely related to P, else a witness.

    ("not-member",) when s is not in P; otherwise ("meet-escapes", r)
    for the first member r of P whose meet with s leaves the system.
    """
    U = S.universe
    S.check_member(s)
    Pset = frozenset(P)
    if s not in Pset:
        return ("not-member",)
    for r in sorted(Pset):
        if U.meet(s, r) not in S.members:
            return ("meet-escapes", r)
    return None


def closely_related(S, s, P) -> bool:
    return closely_related_violation(S, s, P) is None


def good(S, s, profiles) -> bool:
    """True iff the orientations of s are closely related to two
    distinct profiles from the collection."""
    U = S.universe
    S.check_member(s)
    x, y = s, U.invert(s)
    plist = list(profiles)
    for i, P in enumerate(plist):
        for j, Q in enumerate(plist):
            if i == j:
                continue
            if closely_related(S, x, P) and closely_related(S, y, Q):
                return True
    return False


def lives_at(S, O, N: NestedSet):
    """The node of N at whose region the consistent orientation O sits.

    Computed directly: restrict O to N and take maximal elements.  For
    regular tree sets this is the unique node contained in O.
    """
    U = S.universe
    restricted = []
    for s in N.sorted_members:
        t = U.invert(s)
        if s in O:
            restricted.append(s)
        elif t in O:
            restricted.append(t)
        else:
            raise InputError(f"orientation does not decide {U.format_pair(s)}")
    bad = consistency_violation(S, restricted)
    if bad is not None:
        raise InputError(f"orientation inconsistent on the nested set: {bad}")
    sub = N.subsystem
    return frozenset(orient.maximal_members(sub, restricted))


def nestedness_violation(S, seps):
    """First crossing pair among the given unoriented separations."""
    U = S.universe
    for r, s in combinations(sorted(seps), 2):
        if not U.nested(r, s):
            return (r, s)
    return None


def distinguishes(S, s, O1, O2) -> bool:
    U = S.universe
    S.check_member(s)
    if s == U.invert(s):
        raise InputError("a degenerate separation distinguishes nothing")
    return orientation_of(S, s, O1) != orientation_of(S, s, O2)


def undistinguished_pair(S, N, orientations):
    """First pair of distinct orientations no separation in N splits."""
    ors = list(orientations)
    U = S.universe
    nset = [s for s in N if s != U.invert(s)]
    for O1, O2 in combinations(ors, 2):
        if O1 == O2:
            continue
        if not any(distinguishes(S, s, O1, O2) for s in nset):
            return (O1, O2)
    return None


def validate(self, family=None) -> StreeReport:
    """STree.validate with its tight and order scans pair by pair."""
    U = self.system.universe
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
    tight = True
    for t in range(self.n):
        sig = self.star_at(t)
        for x in sig:
            if x != U.invert(x) and U.invert(x) in sig:
                tight = False
                witness = witness or ("untight-at", t, x)
                break
        if not tight:
            break
    # adjacent-step check suffices: the edge order is generated by
    # steps (x,t) <= (t,y) and U's order is transitive
    order_ok = True
    for t in range(self.n):
        for x in sorted(self.adj[t]):
            for y in sorted(self.adj[t]):
                if x == y:
                    continue
                if not U.leq(self.alpha[(x, t)], self.alpha[(t, y)]):
                    order_ok = False
                    witness = witness or ("order-violation", (x, t), (t, y))
                    break
            if not order_ok:
                break
        if not order_ok:
            break
    return StreeReport(True, over, irred, tight, order_ok, witness)


def isomorphism_respects_order(source, target, mapping):
    """Isomorphism's order check pair by pair: x <= y in source iff
    mapping[x] <= mapping[y] in target."""
    U1, U2 = source.universe, target.universe
    for x in source.oriented:
        for y in source.oriented:
            if U1.leq(x, y) != U2.leq(mapping[x], mapping[y]):
                return False
    return True


def lattice_violation(self):
    """Isomorphism.lattice_violation pair by pair against the universes'
    joins."""
    U1, U2 = self.source.universe, self.target.universe
    mem1, mem2 = self.source.members, self.target.members
    for x in self.source.oriented:
        for y in self.source.oriented:
            j = U1.join(x, y)
            j2 = U2.join(self.mapping[x], self.mapping[y])
            if (j in mem1) != (j2 in mem2):
                return (x, y)
            if j in mem1 and self.mapping[j] != j2:
                return (x, y)
    return None


# -- the duality decision, search first --


def search_first_decide(S, family, caps=DEFAULT_CAPS, verify=True):
    """duality_decide with the whole tangle search before the cover
    fixpoint: the gate (with verify=False only the stars check), then a
    tangle if there is one, else the fixpoint's tree, reduced and
    validated over the family."""
    if verify:
        duality.preconditions(S, family, caps)
    elif not family.stars_only:
        raise InputError("the family must be made of stars")
    tangles = orient.enumerate_tangles(S, family, caps)
    if tangles:
        return duality.DualityResult("tangle", tangle=tangles[0])
    masks, covered, roots = duality._cover_fixpoint(S, family)
    if 1 not in roots:
        raise IntegrityError("neither a tangle nor an S-tree exists")
    tree = duality._tree_from_cover(S, masks, covered, roots, caps)
    tree = trees.irredundant_reduction(tree, keep=(), family=family)
    rep = tree.validate(family)
    if rep.over_f is not True:
        raise IntegrityError(f"constructed tree is not over the family: {rep}")
    return duality.DualityResult("tree", tree=tree)


# -- the table fallbacks that TablePoset now answers from its bit tables --


def order_tables(U, elems):
    """(up, down) over elems, asking U.leq for every pair."""
    up = []
    for x in elems:
        m = 0
        for j, y in enumerate(elems):
            if U.leq(x, y):
                m |= 1 << j
        up.append(m)
    down = [0] * len(elems)
    for i, m in enumerate(up):
        for j in bit_positions(m):
            down[j] |= 1 << i
    return tuple(up), tuple(down)


def lattice_codes(U, elems):
    """(jcode, mcode) of elems: the complement of each element's up-set
    and its down-set, as bitsets over U.elements()."""
    every = U.elements()
    up, down = order_tables(U, every)
    at = {x: i for i, x in enumerate(every)}
    full = (1 << len(every)) - 1
    rows = [at[x] for x in elems]
    return [full ^ up[i] for i in rows], [down[i] for i in rows]


def code_orders(U, jcodes, mcodes):
    """(jorder, morder) from every element's codes and order."""
    every = U.elements()
    jc, mc = lattice_codes(U, every)
    orders = list(map(U.order, every))
    jo, mo = dict(zip(jc, orders)), dict(zip(mc, orders))
    return {c: jo[c] for c in jcodes}, {c: mo[c] for c in mcodes}


# -- helpers only tests call --


def verify_universe_laws(universe, elems=None):
    """Exhaustively assert poset, involution, lattice and De Morgan laws.

    Intended for tests and for validating rule-based backends at small
    scale; TablePoset runs the same checks at load time.
    """
    U = universe
    if elems is None:
        elems = U.elements()
    elems = list(elems)
    for x in elems:
        assert U.leq(x, x), "leq not reflexive"
        assert U.invert(U.invert(x)) == x, "involution not self-inverse"
    for x in elems:
        for y in elems:
            if U.leq(x, y) and U.leq(y, x):
                assert x == y, "leq not antisymmetric"
            if U.leq(x, y):
                assert U.leq(U.invert(y), U.invert(x)), "involution not order-reversing"
            m, j = U.meet(x, y), U.join(x, y)
            assert U.leq(m, x) and U.leq(m, y), "meet not a lower bound"
            assert U.leq(x, j) and U.leq(y, j), "join not an upper bound"
            assert U.invert(j) == U.meet(U.invert(x), U.invert(y)), "De Morgan fails"
            if U.has_order:
                assert U.order(x) == U.order(U.invert(x)), "order not symmetric"
    for x in elems:
        for y in elems:
            for z in elems:
                if U.leq(x, y) and U.leq(y, z):
                    assert U.leq(x, z), "leq not transitive"
                if U.leq(z, x) and U.leq(z, y):
                    assert U.leq(z, U.meet(x, y)), "meet not greatest"
                if U.leq(x, z) and U.leq(y, z):
                    assert U.leq(U.join(x, y), z), "join not least"


def corner_separations(self, r, s):
    """The up-to-four corner separations of r and s, unoriented.

    Returned as a sorted tuple of canonical orientations; invariant
    under swapping r and s and under reorienting either input.
    """
    self.check_element(r)
    self.check_element(s)
    rbar = self.invert(r)
    corners = {
        self.canon(self.join(r, s)),
        self.canon(self.meet(r, s)),
        self.canon(self.join(rbar, s)),
        self.canon(self.meet(rbar, s)),
    }
    return tuple(sorted(corners))


def star_key(self, sigma):
    """The star order's key (orient.mask_order) of a set of members of
    the family self's system."""
    S = self.system
    return mask_order(S)(S.member_mask(sigma))


def _enc(self, v, parent):
    items = []
    for w in self.adj[v]:
        if w == parent:
            continue
        items.append((self.alpha[(w, v)], _enc(self, w, v)))
    return tuple(sorted(items))


def canonical_encoding(self):
    """Label-aware AHU encoding; equal iff trees are isomorphic."""
    if self.n == 1:
        return ("single",)
    # peel to the 1- or 2-vertex centre
    deg = {v: len(self.adj[v]) for v in range(self.n)}
    alive = set(range(self.n))
    layer = [v for v in alive if deg[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
        for v in layer:
            for w in self.adj[v]:
                if w in alive:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    if len(alive) == 1:
        (c,) = alive
        return ("centered", _enc(self, c, None))
    u, v = sorted(alive)
    halves = sorted(
        [
            (self.alpha[(u, v)], _enc(self, u, v)),
            (self.alpha[(v, u)], _enc(self, v, u)),
        ]
    )
    return ("bicentered", tuple(halves))


def stree_isomorphic(T1: STree, T2: STree) -> bool:
    return canonical_encoding(T1) == canonical_encoding(T2)


def stree_to_treeset(T: STree) -> NestedSet:
    U = T.system.universe
    seps = set()
    for (u, v), lab in T.alpha.items():
        if lab == U.invert(lab):
            raise DomainError(f"edge ({u},{v}) carries a degenerate label")
        seps.add(U.canon(lab))
    try:
        N = NestedSet(T.system, seps)
    except InputError as e:
        raise DomainError(f"alpha image is not nested: {e}") from None
    bad = N.treeset_violation()
    if bad is not None:
        raise DomainError(f"alpha image is not a tree set: {bad}")
    return N


def inessential_closeness_violation(S, nested, profiles, caps=DEFAULT_CAPS):
    """First (node, member) of an inessential node whose member's inverse
    is closely related to no profile; None when refinement can proceed."""
    U = S.universe
    split = trees.essential_nodes(S, nested, profiles, caps)
    for sigma in split.inessential:
        for s in sorted(sigma):
            sbar = U.invert(s)
            if not any(
                sbar in P and refine.closely_related(S, sbar, P)
                for P in profiles
            ):
                return (sigma, s)
    return None


def find_well_distinguisher(S, P1, P2, M):
    """First separation nested with M distinguishing P1 from P2 well."""
    U = S.universe
    if frozenset(P1) == frozenset(P2):
        raise InputError("needs two distinct profiles")
    bad = standing_hypothesis_violation(S, M, [P1, P2])
    if bad is not None:
        raise InputError(f"profiles disagree on the nested set: {bad}")
    S_M = S.restrict_nested(M)
    differ = False
    for s in S_M.separations:
        if s == U.invert(s):
            continue
        if distinguishes(S_M, s, P1, P2):
            differ = True
            if refine.distinguishes_well(S, s, P1, P2):
                return s
    if not differ:
        raise DomainError("the profiles agree on everything nested with M")
    raise IntegrityError("distinguishable profiles admit no well-distinguisher")
