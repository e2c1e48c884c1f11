"""Refining a tree of tangles so that inessential locations split.

The key relation is close relationship: s is closely related to a
profile P when s lies in P and its meet with every member of P stays in
the system.  Close relationship buys emulation, emulation buys shifts,
and shifts turn the tree that the duality cover fixpoint builds into one
whose leaves realise exactly the members of the star being refined.
"""

from dataclasses import dataclass
from operator import attrgetter

from .config import DEFAULT_CAPS
from .errors import DomainError, InputError, IntegrityError
from . import duality, orient, trees
from .trees import NestedSet, STree


def closely_related_violation(S, s, P):
    """None if s is closely related to P, else a witness.

    ("not-member",) when s is not in P; otherwise ("meet-escapes", r)
    for the first member r of P, in oriented (value) order, whose meet
    with s leaves the system.  On positions: s ^ r = (s* v r*)* and S is
    closed under inversion, so the meet stays in S iff r* is joinable
    with s*.
    """
    S.check_member(s)
    Pset = frozenset(P)
    if s not in Pset:
        return ("not-member",)
    for x in Pset - S.members:
        S.check_member(x)  # raises: x is not a member
    pos, inv = S.pos, S.inv_pos
    ps = list(map(pos.__getitem__, Pset))
    # the bits of the inverses of P's members: distinct, so their sum is their OR
    duals = sum(map((1).__lshift__, map(inv.__getitem__, ps)))
    escaped = duals & ~S.joinable(inv[pos[s]])
    if not escaped:
        return None
    return ("meet-escapes", S.oriented[min(p for p in ps if escaped >> inv[p] & 1)])


def closely_related(S, s, P) -> bool:
    return closely_related_violation(S, s, P) is None


def good(S, s, profiles) -> bool:
    """True iff the orientations of s are closely related to two
    distinct profiles from the collection.  Closeness is asked once per
    profile for s, and for s* until a profile other than the only one
    close to s (if there is only one) is found."""
    U = S.universe
    S.check_member(s)
    x, y = s, U.invert(s)
    plist = list(profiles)
    near_x = [i for i, P in enumerate(plist) if closely_related(S, x, P)]
    return any(closely_related(S, y, Q) for j, Q in enumerate(plist)
               if near_x and near_x != [j])


def distinguishes_well(S, s, P1, P2) -> bool:
    """One orientation closely related to P1, the other to P2."""
    U = S.universe
    S.check_member(s)
    if frozenset(P1) == frozenset(P2):
        raise InputError("needs two distinct profiles")
    x, y = s, U.invert(s)
    if closely_related(S, x, P1) and closely_related(S, y, P2):
        return True
    return closely_related(S, y, P1) and closely_related(S, x, P2)


@dataclass(frozen=True)
class CloseWitness:
    """A separation together with a profile it is closely related to."""

    separation: object
    profile: frozenset


def guarded_inf(S, s, witnesses):
    """The infimum of s with the witness separations, kept honest.

    Every witness profile must contain s and be closely related to its
    separation; then the infimum is guaranteed to lie in the system, so
    an escape is a bug upstream, not bad input.
    """
    U = S.universe
    S.check_member(s)
    ws = sorted(witnesses, key=attrgetter("separation"))
    for w in ws:
        if s not in w.profile:
            raise InputError("witness profile does not contain the base")
        bad = closely_related_violation(S, w.separation, w.profile)
        if bad is not None:
            raise InputError(f"witness is not closely related: {bad}")
    inf = s
    for w in ws:
        inf = U.meet(inf, w.separation)
    if inf not in S.members:
        raise IntegrityError(
            "guarded infimum escaped the system; a precondition upstream "
            "was not what it claimed"
        )
    return inf


# -- star refinement --


def witnesses_for_star(S, sigma, tangles):
    """For each member of sigma (sorted), a tangle that contains and is
    closely related to its inverse.  DomainError when a member has none:
    such a star cannot be refined."""
    U = S.universe
    out = []
    for s in sorted(sigma):
        sbar = U.invert(s)
        found = None
        for O in tangles:
            if sbar in O and closely_related(S, sbar, O):
                found = O
                break
        if found is None:
            raise DomainError(
                f"no tangle is closely related to {U.format_element(sbar)}"
            )
        out.append(found)
    return out


def _home_vertex(T: STree, O):
    """The first vertex all of whose incoming labels lie in O."""
    for v in range(T.n):
        if all(T.alpha[(u, v)] in O for u in T.adj[v]):
            return v
    raise IntegrityError("consistent orientation admits no sink in the tree")


def refine_star(S, sigma, family, tangles=None, caps=DEFAULT_CAPS, trace=None) -> STree:
    """An S-tree over family + inverse singletons of sigma, with every
    member of sigma among its leaf separations.

    sigma must be a star orienting distinct separations that no tangle
    of the family contains, and each member's inverse must be closely
    related to some tangle.
    """
    U = S.universe
    sigma = frozenset(sigma)
    if not sigma:
        raise InputError("cannot refine an empty star")
    bad = orient.star_mask_violation(S, S.member_mask(sigma))
    if bad is not None:
        raise InputError(f"not a star: {bad}")
    members = sorted(sigma)
    if len({U.canon(x) for x in members}) != len(members):
        raise InputError("star members must orient distinct separations")
    duality.preconditions(S, family, caps, regular=True)

    if tangles is None:
        tangles = orient.enumerate_tangles(S, family, caps)
    if not tangles:
        raise DomainError("the family has no tangles; nothing to refine")
    for O in tangles:
        if sigma <= frozenset(O):
            raise DomainError("star is essential: a tangle contains it")

    witnesses = witnesses_for_star(S, sigma, tangles)

    # extend by the up-closures of the member inverses, as singletons
    inverses = [U.invert(s) for s in members]
    up = 0
    for i in inverses:
        up |= S.up_bits[S.pos[i]]
    extra = [frozenset((x,)) for p, x in enumerate(S.oriented) if up >> p & 1]
    fbar = family.extended(extra, name="refine-extension")

    T = duality.cover_tree(S, fbar, caps)
    if T is None:
        raise IntegrityError(
            "a tangle survived the extension despite the star being "
            "inessential"
        )

    for _ in range(len(members) + 1):
        leafseps = frozenset(T.leaf_separations())
        pending = [s for s in members if s not in leafseps]
        if not pending:
            break
        target = pending[0]
        P = witnesses[members.index(target)]
        if T.n == 1:
            raise IntegrityError("degenerate tree while members are pending")
        home = _home_vertex(T, P)
        star = T.star_at(home)
        if len(star) != 1:
            raise IntegrityError("tangle sits at a non-singleton star")
        (w,) = star
        if not S.up_bits[S.pos[U.invert(target)]] >> S.pos[w] & 1:
            raise IntegrityError("sink singleton is not above the right inverse")
        wbar = U.invert(w)
        flags = S.classify(wbar)
        if flags.degenerate or flags.trivial:
            raise IntegrityError("shift base collapsed to a trivial separation")
        if not duality._emulates(S, S.pos[target], S.pos[wbar]):
            raise IntegrityError("close relationship failed to buy emulation")
        keep = sorted({s for s in members if s in leafseps} | {wbar})
        try:
            T = trees.irredundant_reduction(T, keep=keep, family=fbar)
            T = duality.shift_stree(T, wbar, target, fbar)
        except (InputError, DomainError) as e:
            raise IntegrityError(f"securing {U.format_element(target)}: {e}")
        if trace is not None:
            trace.append({"target": target, "base": wbar})
        now = frozenset(T.leaf_separations())
        if target not in now or not all(s in now for s in leafseps & set(members)):
            raise IntegrityError("shift lost a secured leaf")
    else:
        raise IntegrityError("leaf securing failed to converge")

    try:
        T = trees.irredundant_reduction(T, keep=members, family=fbar)
    except (InputError, DomainError) as e:
        raise IntegrityError(f"final reduction: {e}")

    fprime = family.extended(
        [frozenset((i,)) for i in inverses], name="refined"
    )
    rep = T.validate(fprime)
    if not rep.all_good():
        raise IntegrityError(f"refined tree fails validation: {rep}")
    leafseps = frozenset(T.leaf_separations())
    missing = [s for s in members if s not in leafseps]
    if missing:
        raise IntegrityError("a member ended up off the leaves")
    return T


# -- whole-tree refinement --


@dataclass
class RefineOutcome:
    refined: NestedSet
    base: NestedSet
    tangles: tuple
    essential: tuple
    inessential: tuple
    node_kinds: tuple  # (node, "tangle-home" | "family-star")
    at_most_one_inessential: bool


def refine_treeset(S, nested: NestedSet, family, tangles=None, caps=DEFAULT_CAPS) -> RefineOutcome:
    """Grow a nested set distinguishing all tangles until every node is
    a family star or home to a tangle."""
    U = S.universe
    if tangles is None:
        tangles = orient.enumerate_tangles(S, family, caps)
    if not tangles:
        raise DomainError("the family has no tangles to arrange")
    pair = orient.undistinguished_pair(S, nested.members, tangles)
    if pair is not None:
        raise DomainError("nested set does not distinguish all tangles")

    split = trees.essential_nodes(S, nested, tangles, caps)
    members = set(nested.members)
    for sig in split.inessential:
        T = refine_star(S, sig, family, tangles=tangles, caps=caps)
        members.update(U.canon(lab) for lab in T.alpha.values())

    try:
        refined = NestedSet(S, members)
    except InputError as e:
        raise IntegrityError(f"refinement produced crossing separations: {e}")

    homes = {trees.lives_at(S, O, refined) for O in tangles}
    kinds = []
    for node in trees.nodes_of(refined, caps):
        if node in homes:
            kinds.append((node, "tangle-home"))
        elif node in family:
            kinds.append((node, "family-star"))
        else:
            raise IntegrityError(
                "refined node is neither a family star nor home to a tangle"
            )
    return RefineOutcome(
        refined=refined,
        base=nested,
        tangles=tuple(tangles),
        essential=split.essential,
        inessential=split.inessential,
        node_kinds=tuple(kinds),
        at_most_one_inessential=len(split.inessential) <= 1,
    )
