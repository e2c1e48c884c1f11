"""Emulation, shifting and closure under it, the precondition gate, and
the tangle-vs-tree duality decision.

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


def _emulates(S, si, ri):
    """True iff oriented[si] emulates oriented[ri]: it lies above it, and
    its join with every member above it other than its inverse stays in
    S (the system's joinable masks)."""
    up = S.up_bits[ri]
    return bool(up >> si & 1) and not up & ~(1 << S.inv_pos[ri]) & ~S.joinable(si)


def _shift_bits(S, si):
    """Image bits of the shift onto oriented[si], indexed as _shift_code
    indexes a member at position x: x when the member lies above the
    base (its join with the target), len(S.oriented) + x when it lies
    below the base's inverse (the inverse of the target's join with the
    member's inverse).  -1 marks a join that leaves the system; OR-ed into
    an image it keeps the image negative, so it is never read as a bit.
    """
    row, inv = S.join_row(si), S.inv_pos
    above = [1 << p if p >= 0 else -1 for p in row]
    below = [1 << inv[row[ix]] if row[ix] >= 0 else -1 for ix in inv]
    return above + below


def _shift_code(S, ri):
    """Per position p, the index into a _shift_bits table at which the
    shift from base oriented[ri] reads the member at p: p when it lies
    above the base and is not its inverse, len(S.oriented) + p when it
    lies below the base's inverse, None outside the shift domain."""
    n, up, rbar = len(S.oriented), S.up_bits[ri], S.inv_pos[ri]
    down = S.down_bits[rbar]
    return [p if p != rbar and up >> p & 1 else n + p if down >> p & 1 else None
            for p in range(n)]


def _shift_image(bits, code):
    """The image mask of a code through a _shift_bits table; a join that
    leaves the system raises IntegrityError, as emulation rules it out."""
    img = 0
    for x in code:
        img |= bits[x]
    if img < 0:
        raise IntegrityError("shift image escaped the system despite emulation")
    return img


def _shift_scope(S, ri, masks):
    """(k, code) for each masks[k] in the shift scope of base oriented[ri]
    (it avoids the base's inverse, lies in the shift domain and meets
    up[ri]), code holding the _shift_code index of each of its members;
    yielded one at a time, so that a large family is never copied."""
    up, rbar = S.up_bits[ri], S.inv_pos[ri]
    outside = ~(up | S.down_bits[rbar]) | 1 << rbar
    code = _shift_code(S, ri)
    for k, m in enumerate(masks):
        if m & up and not m & outside:
            yield k, [code[p] for p in bit_positions(m)]


def _unshifted(scope, bits, in_family):
    """The first k of scope whose star's image through bits is not in
    in_family, else None."""
    for k, code in scope:
        if _shift_image(bits, code) not in in_family:
            return k
    return None


def shifting_closure_violation(S, family):
    """First (s, r, sigma) with s emulating r in S but the shift of sigma
    from r onto s not in the family; None when the family is closed
    under shifting.

    Witness order: bases r in S.oriented order, degenerate and trivial
    ones skipped; for each r its emulators s in S.oriented order (s = r is
    the identity shift, which cannot fail); for each (r, s) the stars of
    the family, in star order, that lie in the shift scope of r.  A join
    that leaves the system inside the shift domain raises IntegrityError.

    The scan works on positions in S.oriented: r is trivial iff some
    member lies strictly above both r and r*, emulation is _emulates, the
    stars in scope and their codes come from _shift_scope once per base,
    and the first star whose shift is not in the family from _unshifted.
    Each target's image table (_shift_bits) is built once per call, at its
    first use, and serves every base the target emulates.
    """
    masks = family.masks_over(S)
    in_family = set(masks)
    images = {}  # by target position, built on first use
    for ri in range(len(S.oriented)):
        if S.inv_pos[ri] == ri or S._trivial_witnesses(ri):
            continue
        scope = list(_shift_scope(S, ri, masks))
        if not scope:
            continue
        for si in bit_positions(S.up_bits[ri] & ~(1 << ri)):
            if not _emulates(S, si, ri):
                continue
            if si not in images:
                images[si] = _shift_bits(S, si)
            k = _unshifted(scope, images[si], in_family)
            if k is not None:
                return (S.oriented[si], S.oriented[ri], family.star(k))
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
    S.check_member(s)
    ri, si = S.pos[r], S.pos[s]
    if S.inv_pos[ri] == ri or S._trivial_witnesses(ri) or not _emulates(S, si, ri):
        raise InputError("target does not emulate base")
    bits = _shift_bits(S, si)
    if family is not None:
        masks = family.masks_over(S)
        # the scan asks once per star in scope: keep the family's own set
        # of masks, built at its first shift, for every later one
        in_family = family._mask_set if masks is family.masks_sorted else set(masks)
        k = _unshifted(_shift_scope(S, ri, masks), bits, in_family)
        if k is not None:
            raise InputError(
                f"target does not emulate base for the family: {family.star(k)}"
            )
    code, alpha2 = _shift_code(S, ri), {}
    for e, lab in T.alpha.items():
        x = code[S.pos[lab]]
        if x is None:
            raise InputError(f"{U.format_element(lab)} is outside the shift domain")
        alpha2[e] = S.oriented[_shift_image(bits, (x,)).bit_length() - 1]
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
    # imported here, not with the module, so that the runs that never
    # reach the fixpoint (tangles, the canonical trees) load nothing more
    from array import array

    masks = family.masks_over(S)
    pos, inv = S.pos, S.inv_pos
    # at[p]: the stars holding position p, in ascending index order
    at = [array("i") for _ in S.oriented]
    for si, m in enumerate(masks):
        while m:
            hi = m.bit_length() - 1
            at[hi].append(si)
            m ^= 1 << hi
    # need[si]: the members of star si whose inverse is not yet popped
    need = array("i", map(int.bit_count, masks))
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


def cover_tree(S, family: StarFamily, caps=DEFAULT_CAPS):
    """The irredundant S-tree over the family that the cover fixpoint
    builds, or None when no star has every member's inverse covered.
    The family must be made of stars; nothing else is checked, so a
    family that is not closed under shifting is fine here."""
    _require_stars(family)
    masks, covered, roots = _cover_fixpoint(S, family)
    if 1 not in roots:
        return None
    tree = _tree_from_cover(S, masks, covered, roots, caps)
    return irredundant_reduction(tree, keep=(), family=family)


def duality_decide(S, family: StarFamily, caps=DEFAULT_CAPS) -> DualityResult:
    """Produce an F-tangle or an S-tree over F, never both claims.

    The preconditions of the duality theorem pass through the gate first
    (see preconditions).  The cover tree comes next: an F-tangle orients
    every edge of an S-tree over F, and the node those orientations lead
    to has its star in the tangle, so a tree rules every tangle out.
    Only without a tree does the tangle search run.
    """
    preconditions(S, family, caps)
    tree = cover_tree(S, family, caps)
    if tree is not None:
        return DualityResult("tree", tree=tree)
    tangles = orient.enumerate_tangles(S, family, caps)
    if not tangles:
        raise IntegrityError(
            "neither a tangle nor an S-tree exists; duality preconditions "
            "must have been violated"
        )
    return DualityResult("tangle", tangle=tangles[0])
