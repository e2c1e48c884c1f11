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
from .core import bit_positions
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
    for sigma in family:
        if not star_in_shift_scope(S, sigma, r):
            continue
        if shift.apply_star(sigma) not in family:
            return sigma
    return None


def _shift_bits(S, si):
    """Image bits of the shift onto oriented[si], indexed as the scan
    indexes a star member at position x: x when the member lies above
    the base (its join with the target), len(S.oriented) + x when it lies
    below the base's inverse (the inverse of the target's join with the
    member's inverse).  -1 marks a join that leaves the system; OR-ed into
    an image it keeps the image negative, so it is never read as a bit.
    """
    row, _ = S.join_row(si)
    inv = S.inv_pos
    above = [1 << p if p >= 0 else -1 for p in row]
    below = [1 << inv[row[ix]] if row[ix] >= 0 else -1 for ix in inv]
    return above + below


def shifting_closure_violation(S, family):
    """First (s, r, sigma) with s emulating r in S but the shift of sigma
    from r onto s not in the family; None when the family is closed
    under shifting.

    Witness order, that of the literal loop over emulates, ShiftMap and
    star_in_shift_scope: bases r in S.oriented order, degenerate and
    trivial ones skipped; for each r its emulators s in S.oriented order
    (s = r is the identity shift, which cannot fail); for each (r, s) the
    stars of the family, in star order, that lie in the shift scope of r.  A
    join that leaves the system inside the shift domain raises
    IntegrityError, as ShiftMap.apply does.

    The scan works on positions in S.oriented.  r is trivial iff
    strict_up[r] meets strict_down[r*]; s >= r emulates r iff every
    member of up[r] other than r* joins s inside S (the system's join
    rows); a star, as a mask, is in scope iff it avoids r*, lies in
    up[r] | down[r*] and meets up[r].  The shift onto s is a table of
    image bits (_shift_bits) and membership a lookup in the set of star
    masks.  Each target's image table is built once per call, at its
    first use, and serves every base the target emulates.
    """
    n = len(S.oriented)
    inv = S.inv_pos
    up, down = S.up_bits, S.down_bits
    strict_up, strict_down = S.strict_up_bits, S.strict_down_bits
    masks = family.masks_over(S)
    members = [list(bit_positions(m)) for m in masks]
    in_family = set(masks)
    images = {}  # by target position, built on first use
    for ri in range(n):
        rbar = inv[ri]
        if rbar == ri or strict_up[ri] & strict_down[rbar]:
            continue
        upr = up[ri]
        outside = ~(upr | down[rbar]) | 1 << rbar
        # Each in-scope star as its member indexes into _shift_bits.
        scope = [
            (k, [p if upr >> p & 1 else n + p for p in ps])
            for k, (m, ps) in enumerate(zip(masks, members))
            if not m & outside and m & upr
        ]
        if not scope:
            continue
        need = upr & ~(1 << rbar)
        cand = upr & ~(1 << ri)
        while cand:
            b = cand & -cand
            cand ^= b
            si = b.bit_length() - 1
            if need & ~S.join_row(si)[1]:
                continue
            if si not in images:
                images[si] = _shift_bits(S, si)
            bits = images[si]
            for k, code in scope:
                img = 0
                for x in code:
                    img |= bits[x]
                if img not in in_family:
                    if img < 0:
                        raise IntegrityError(
                            "shift image escaped the system despite emulation"
                        )
                    star = frozenset(S.oriented[p] for p in members[k])
                    return (S.oriented[si], S.oriented[ri], star)
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
    """Least fixpoint of the cover relation over positions in S.oriented.

    Returns (masks, covered, roots): masks is the family in star order as
    masks of positions in S.oriented; covered[p] is (index of the witness
    star, time) once the member at position p is covered, else None;
    roots holds one byte per star, 1 where all of the star's members'
    inverses are covered, else 0.  A star whose inverses are all covered
    covers its own uncovered members in the order in which family.star
    iterates them.
    """
    masks = family.masks_over(S)
    pos, inv = S.pos, S.inv_pos
    at = [[] for _ in S.oriented]  # at[p]: the stars holding position p
    for si, m in enumerate(masks):
        while m:
            b = m & -m
            at[b.bit_length() - 1].append(si)
            m ^= b
    # need[si]: the members of star si whose inverse is not yet popped
    need = [m.bit_count() for m in masks]
    covered = [None] * len(S.oriented)
    queue = []
    roots = bytearray(len(masks))
    # the positions not yet covered, and those whose stars have not yet
    # counted them down, as bits
    uncovered = unpopped = (1 << len(S.oriented)) - 1

    def cover(si, left):
        """Cover the positions in left from star si, two or more in the
        order in which family.star(si) iterates them."""
        nonlocal uncovered
        uncovered ^= left
        if left & (left - 1):
            order = [p for p in map(pos.__getitem__, family.star(si))
                     if left >> p & 1]
        else:
            order = (left.bit_length() - 1,)
        for p in order:
            covered[p] = (si, len(queue))
            queue.append(p)

    # masks come by size: the empty star and the singletons first
    for si, m in enumerate(masks):
        if m & (m - 1):
            break
        if not m:
            roots[si] = 1
        elif m & uncovered and covered[inv[m.bit_length() - 1]] is None:
            cover(si, m)
    head = 0
    while head < len(queue):
        q = inv[queue[head]]
        head += 1
        unpopped ^= 1 << q
        for si in at[q]:
            k = need[si] - 1
            need[si] = k
            if k > 1:
                continue
            if k:  # one member left: covered once its inverse is
                left = masks[si] & unpopped
                if left & uncovered and covered[inv[left.bit_length() - 1]] is None:
                    cover(si, left)
            else:
                roots[si] = 1
                left = masks[si] & uncovered
                if left:
                    cover(si, left)
    return masks, covered, roots


def _tree_from_cover(S, masks, covered, roots, caps):
    """Rebuild an S-tree over the family from cover certificates; masks
    are in star order, so the first root in star order is the least
    index, and members in position order are in sort_key order."""
    root_si = roots.find(1)
    elems, inv = S.oriented, S.inv_pos
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

    def build(p, parent):
        """Vertex for cover(elems[p]), whose star receives it from the
        parent."""
        si, t = covered[p]
        v = new_vertex()
        alpha[(parent, v)] = elems[p]
        alpha[(v, parent)] = elems[inv[p]]
        for w in bit_positions(masks[si] & ~(1 << p)):
            if covered[inv[w]][1] >= t:
                raise IntegrityError("cover certificates are not stratified")
            build(inv[w], v)
        return v

    root = new_vertex()
    for w in bit_positions(masks[root_si]):
        build(inv[w], root)
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

    masks, covered, roots = _cover_fixpoint(S, family)
    if 1 not in roots:
        raise IntegrityError(
            "neither a tangle nor an S-tree exists; duality preconditions "
            "must have been violated"
        )
    tree = _tree_from_cover(S, masks, covered, roots, caps)
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
