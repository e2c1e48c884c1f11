"""Emulation, the shift map, closure under shifting, separability, the
precondition gate, and the tangle-vs-tree duality decision.

The duality search is a least-fixpoint computation: cover(x) holds when
some family star containing x has all of its other members' inverses
covered, and an S-tree over F exists iff some star has every member's
inverse covered.  This is sound and complete for tree existence on any
finite family of stars, so the dichotomy theorem itself is only needed
to promise that one of the two branches must materialise.
"""

from dataclasses import dataclass

from .config import DEFAULT_CAPS
from .errors import (
    InputError,
    IntegrityError,
    ResourceCapError,
)
from . import orient
from .orient import StarFamily
from .trees import STree, irredundant_reduction


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
    for sigma in family.stars_sorted:
        if not star_in_shift_scope(S, sigma, r):
            continue
        if shift.apply_star(sigma) not in family.stars:
            return sigma
    return None


def shifting_closure_violation(S, family):
    """First (s, r, star) with s emulating r but not for the family."""
    U = S.universe
    for r in S.oriented:
        flags = S.classify(r)
        if flags.degenerate or flags.trivial:
            continue
        for s in S.oriented:
            if not U.leq(r, s) or not emulates(S, s, r):
                continue
            sigma = emulation_for_family_violation(S, s, r, family)
            if sigma is not None:
                return (s, r, sigma)
    return None


def check_closed_under_shifting(S, family) -> bool:
    return shifting_closure_violation(S, family) is None


# -- the precondition gate --


def shift_verdict(S, family, caps=DEFAULT_CAPS):
    """How closure under shifting is known: "verified" or "violated" by
    the exhaustive check, which runs when |S| <= caps.full_shift_check_limit
    and at most once per family; above the limit "trusted" when the
    family's builder declared closure, else "unknown"."""
    if len(S) > caps.full_shift_check_limit:
        return "trusted" if family.closed_under_shifting else "unknown"
    facts = vars(family)  # kept on the family, never at module level
    if "_shift_closed" not in facts:
        facts["_shift_closed"] = check_closed_under_shifting(S, family)
    return "verified" if facts["_shift_closed"] else "violated"


def _require_stars(family):
    if not family.stars_only:
        raise InputError("the family must be made of stars")


def preconditions(S, family=None, caps=DEFAULT_CAPS, regular=False):
    """The one gate of duality, refinement and the canonical constructions.

    Raises InputError naming the first failure among: the family is made
    of stars, the system is submodular, every trivial member's inverse
    singleton is in the family, with regular=True the same for every
    small member (refinement needs these), and closure under shifting is
    verified or trusted (see shift_verdict).  With no family only
    submodularity is checked.  Each fact is computed on first use and
    kept on the system or family it describes.
    """
    if family is not None:
        if family.system is not S and family.system.members != S.members:
            raise InputError("family is over a different system")
        _require_stars(family)
    U = S.universe
    pair = S.submodular_witness
    if pair is not None:
        raise InputError(
            f"system is not submodular: {U.format_element(pair[0])}, "
            f"{U.format_element(pair[1])}"
        )
    if family is None:
        return
    x = family.missing_trivial_singleton
    if x is not None:
        raise InputError(
            "family is not standard: no singleton for "
            f"{U.format_element(U.invert(x))}"
        )
    x = family.missing_small_singleton if regular else None
    if x is not None:
        raise InputError(
            "family lacks the regularity singleton for "
            f"{U.format_element(U.invert(x))}"
        )
    verdict = shift_verdict(S, family, caps)
    if verdict == "violated":
        raise InputError("family is not closed under shifting")
    if verdict == "unknown":
        raise InputError(
            f"closure under shifting is unknown: {len(S)} separations exceed "
            f"full_shift_check_limit {caps.full_shift_check_limit} and the "
            "family's builder did not declare it closed"
        )


def shift_stree(T: STree, r, s, family) -> STree:
    """Relabel a tight irredundant S-tree through the shift onto s.

    r must be a leaf separation of T labelling no other edge, and s must
    emulate r in S for the family; the result is an S-tree over
    family + {{invert(s)}} with that singleton at a unique leaf.
    """
    S = T.system
    U = S.universe
    rep = T.validate(family)
    if not rep.all_good(need_family=family is not None):
        raise InputError(f"tree is not tight/irredundant over the family: {rep}")
    if r not in T.leaf_separations():
        raise InputError("shift base is not a leaf separation")
    uses = [e for e, lab in T.alpha.items() if lab == r]
    if len(uses) != 1:
        raise InputError("shift base labels more than one edge")
    shift = ShiftMap(S, r, s)
    if family is not None:
        bad = emulation_for_family_violation(S, s, r, family)
        if bad is not None:
            raise InputError(f"target does not emulate base for the family: {bad}")
    alpha2 = {e: shift.apply(lab) for e, lab in T.alpha.items()}
    out = STree(S, T.n, alpha2)
    sbar = frozenset((U.invert(s),))
    hits = [v for v in range(out.n) if out.star_at(v) == sbar]
    if len(hits) != 1 or len(out.adj[hits[0]]) != 1:
        raise IntegrityError(
            "shifted tree does not show the new singleton at a unique leaf"
        )
    return out


# -- the duality decision --


@dataclass
class DualityResult:
    kind: str  # "tangle" | "tree"
    tangle: object = None
    tree: object = None


def _cover_fixpoint(S, family):
    """Least fixpoint of the cover relation; returns (covered info, roots).

    covered maps an oriented id to (witness star, time); roots is the set
    of stars whose members' inverses are all covered.
    """
    U = S.universe
    stars = family.stars_sorted
    by_member = {}
    for si, sigma in enumerate(stars):
        for x in sigma:
            by_member.setdefault(x, []).append(si)
    need = [len(sigma) for sigma in stars]
    covered = {}
    queue = []
    roots = set()
    clock = [0]

    def fire(x, si):
        if x in covered:
            return
        covered[x] = (si, clock[0])
        clock[0] += 1
        queue.append(x)

    def examine(si):
        sigma = stars[si]
        if need[si] == 0:
            roots.add(si)
            for x in sigma:
                fire(x, si)
        elif need[si] == 1:
            for x in sigma:
                if U.invert(x) not in covered:
                    fire(x, si)
                    break

    for si in range(len(stars)):
        examine(si)
    head = 0
    while head < len(queue):
        y = queue[head]
        head += 1
        for si in by_member.get(U.invert(y), ()):
            need[si] -= 1
            examine(si)
    return stars, covered, roots


def _tree_from_cover(S, family, stars, covered, roots, caps):
    """Rebuild an S-tree over the family from cover certificates."""
    root_si = min(roots, key=lambda si: family.star_key(stars[si]))
    U = S.universe
    alpha = {}
    counter = [0]

    def new_vertex():
        v = counter[0]
        counter[0] += 1
        if v >= caps.max_tree_nodes:
            raise ResourceCapError(
                f"reconstructed tree exceeds {caps.max_tree_nodes} nodes"
            )
        return v

    def build(x, parent):
        """Vertex for cover(x), whose star receives x from the parent."""
        si, t = covered[x]
        v = new_vertex()
        alpha[(parent, v)] = x
        alpha[(v, parent)] = U.invert(x)
        for w in sorted(stars[si] - {x}, key=U.sort_key):
            wbar = U.invert(w)
            if covered[wbar][1] >= t:
                raise IntegrityError("cover certificates are not stratified")
            build(wbar, v)
        return v

    root = new_vertex()
    for w in sorted(stars[root_si], key=U.sort_key):
        build(U.invert(w), root)
    return STree(S, counter[0], alpha)


def duality_decide(S, family: StarFamily, caps=DEFAULT_CAPS, verify=True) -> DualityResult:
    """Produce an F-tangle or an S-tree over F, never both claims.

    With verify=True the preconditions of the duality theorem pass
    through the gate first (see preconditions).
    """
    if verify:
        preconditions(S, family, caps)
    else:
        _require_stars(family)

    tangles = orient.enumerate_tangles(S, family, caps)
    if tangles:
        return DualityResult("tangle", tangle=tangles[0])

    stars, covered, roots = _cover_fixpoint(S, family)
    if not roots:
        raise IntegrityError(
            "neither a tangle nor an S-tree exists; duality preconditions "
            "must have been violated"
        )
    tree = _tree_from_cover(S, family, stars, covered, roots, caps)
    tree = irredundant_reduction(tree, keep=(), family=family)
    rep = tree.validate(family)
    if rep.over_f is not True:
        raise IntegrityError(f"constructed tree is not over the family: {rep}")
    return DualityResult("tree", tree=tree)


# -- separability --


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
