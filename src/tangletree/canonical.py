"""Canonical trees of tangles: the exclusive-maxima construction, its
good-separations variant, and canonicity checking under isomorphisms.

Both constructions consume a set of profiles and emit a nested set that
distinguishes them, built from data that any order-and-involution
isomorphism must preserve; canonicity is then a byte-level comparison of
the transported output against the output on the transported input.
"""

from dataclasses import dataclass

from .config import DEFAULT_CAPS
from .errors import DomainError, InputError, IntegrityError
from . import duality, orient, refine, trees
from .trees import NestedSet


def exclusive(S, x, profiles) -> bool:
    """True iff exactly one of the profiles contains x."""
    S.check_member(x)
    return sum(1 for P in profiles if x in P) == 1


def maximal_exclusive(S_i, P, profiles):
    """Members of P inside S_i that are maximal there and exclusive."""
    inside = [x for x in S_i.oriented if x in P]
    mx = orient.maximal_members(S_i, inside)
    return tuple(x for x in mx if exclusive(S_i, x, profiles))


def _checked_profiles(S, profiles):
    plist = [frozenset(P) for P in profiles]
    if not plist:
        raise InputError("need at least one profile")
    if len(set(plist)) != len(plist):
        raise InputError("profiles must be pairwise distinct")
    for P in plist:
        bad = orient.profile_violation(S, P)
        if bad is not None:
            raise InputError(f"not a profile: {bad}")
    return sorted(plist, key=sorted)


@dataclass(frozen=True)
class Record:
    """One retired profile: the candidates it owned in its round and the
    separation chosen from them (the infimum of its exclusive maxima, or
    the unique maximum of its exclusive well-distinguishers)."""

    profile: frozenset
    candidates: tuple
    chosen: object
    round: int


@dataclass
class CanonicalResult:
    """What either construction returns."""

    nested: NestedSet
    records: tuple
    rounds: tuple  # JSON-ready per-round summaries
    profiles: tuple


def standing_hypothesis_violation(S, M, profiles):
    """First (separation, P, Q) where two profiles disagree on a member
    of M; the constructions need all profiles to agree there."""
    plist = list(profiles)
    for m in sorted(M):
        seen = None
        for P in plist:
            o = orient.orientation_of(S, m, P)
            if seen is None:
                seen = (o, P)
            elif o != seen[0]:
                return (m, seen[1], P)
    return None


def _distinguish(S, profiles, pick) -> CanonicalResult:
    """The round loop of both constructions.  Each round works in S_i,
    the subsystem nested with what was already built, where pick(S_i, P,
    remaining) returns P's candidates and the separation chosen from
    them, or None if P survives the round."""
    U = S.universe
    plist = _checked_profiles(S, profiles)
    duality.preconditions(S)

    accumulated = set()
    records = []
    rounds = []
    remaining = list(plist)
    S_i = S
    rnd = 0
    while len(remaining) > 1:
        rnd += 1
        if rnd > len(plist):
            raise IntegrityError("construction exceeded its round bound")
        bad = standing_hypothesis_violation(S, accumulated, remaining)
        if bad is not None:
            raise IntegrityError(f"standing hypothesis broke: {bad}")
        retired, survivors = [], []
        for P in remaining:
            picked = pick(S_i, P, remaining)
            if picked is None:
                survivors.append(P)
            else:
                retired.append(Record(P, *picked, rnd))
        if not retired:
            raise IntegrityError("no profile retires this round")
        new_seps = {U.canon(rec.chosen) for rec in retired}
        bad = S.nestedness_violation(accumulated | new_seps)
        if bad is not None:
            raise IntegrityError(f"new separations cross: {bad}")
        rounds.append(
            {
                "round": rnd,
                "system_size": len(S_i),
                "retired": len(retired),
                "added": sorted(U.format_pair(s) for s in new_seps),
            }
        )
        records += retired
        accumulated |= new_seps
        remaining = survivors
        S_i = S_i.restrict_nested(new_seps)
        if S_i.submodular_violation() is not None:
            raise IntegrityError("restriction destroyed submodularity")

    try:
        nested = NestedSet(S, accumulated)
    except InputError as e:
        raise IntegrityError(f"construction produced crossing separations: {e}")
    if orient.undistinguished_pair(S, nested.members, plist) is not None:
        raise IntegrityError("output fails to distinguish the profiles")
    return CanonicalResult(
        nested=nested,
        records=tuple(records),
        rounds=tuple(rounds),
        profiles=tuple(plist),
    )


def canonical_nested_set(S, profiles) -> CanonicalResult:
    """Distinguish the profiles by infima of exclusive maxima.

    Each round retires every profile that owns an exclusive maximal
    member, at the guarded infimum of those maxima.  The data consulted
    (membership, order relation, guarded infima) is isomorphism-invariant,
    which is what makes the output canonical.
    """

    def pick(S_i, P, remaining):
        m = maximal_exclusive(S_i, P, remaining)
        if not m:
            return None
        restricted = frozenset(x for x in S_i.oriented if x in P)
        witnesses = [refine.CloseWitness(x, restricted) for x in m[1:]]
        try:
            s_p = refine.guarded_inf(S_i, m[0], witnesses)
        except InputError as e:
            raise IntegrityError(f"infimum preconditions broke: {e}")
        if not exclusive(S_i, s_p, remaining):
            raise IntegrityError("infimum lost exclusivity")
        bad = refine.closely_related_violation(S, s_p, P)
        if bad is not None:
            raise IntegrityError(
                f"infimum is not closely related to its profile: {bad}"
            )
        return m, s_p

    res = _distinguish(S, profiles, pick)
    for rec in res.records:
        home = trees.lives_at(S, rec.profile, res.nested)
        if rec.chosen not in home:
            raise IntegrityError(
                "a profile does not live at the node of its separation"
            )
    return res


@dataclass
class RefinedTreeResult:
    canonical: CanonicalResult
    refinement: refine.RefineOutcome


def refined_tree_of_tangles(S, family, tangles=None, caps=DEFAULT_CAPS) -> RefinedTreeResult:
    """The whole pipeline: canonical nested set over the family's
    tangles, then refinement of its inessential nodes."""
    if tangles is None:
        tangles = orient.enumerate_tangles(S, family, caps)
    if not tangles:
        raise DomainError("the family has no tangles")
    base = canonical_nested_set(S, tangles)
    out = refine.refine_treeset(S, base.nested, family, tangles=tangles, caps=caps)
    return RefinedTreeResult(canonical=base, refinement=out)


# -- good separations --


def e_set(S, P, profiles, S_M):
    """Members of P in S_M that are exclusive and distinguish P well
    from another profile, in S_M.oriented (value) order."""
    out = []
    others = [Q for Q in profiles if frozenset(Q) != frozenset(P)]
    for x in S_M.oriented:
        if x not in P:
            continue
        if not exclusive(S_M, x, profiles):
            continue
        if any(refine.distinguishes_well(S, x, P, Q) for Q in others):
            out.append(x)
    return tuple(out)


def good_nested_set(S, profiles) -> CanonicalResult:
    """Distinguish the profiles by good separations only: each round
    retires every profile that owns exclusive well-distinguishing
    members, at the unique maximal one."""

    def pick(S_i, P, remaining):
        ep = e_set(S, P, remaining, S_i)
        if not ep:
            return None
        mx = orient.maximal_members(S_i, ep)
        if len(mx) != 1:
            raise IntegrityError(
                "exclusive well-distinguishers admit no unique maximum"
            )
        return ep, mx[0]

    res = _distinguish(S, profiles, pick)
    for s in res.nested.sorted_members:
        if not refine.good(S, s, res.profiles):
            raise IntegrityError("output contains a separation that is not good")
    return res


# -- canonicity --


class Isomorphism:
    """A bijection between two systems respecting order and involution.

    Lattice compatibility (joins land inside the image system exactly
    when they do at home) is what the good-separations construction
    additionally needs; it is checked on demand, not assumed.  Both
    checks read the systems' position tables through _perm, the target
    position of the image of each member of source.oriented.
    """

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        U1, U2 = source.universe, target.universe
        if set(self.mapping) != set(source.oriented):
            raise InputError("mapping must cover exactly the source members")
        img = set(self.mapping.values())
        if len(img) != len(self.mapping) or img != set(target.oriented):
            raise InputError("mapping must be a bijection onto the target")
        for x in source.oriented:
            if self.mapping[U1.invert(x)] != U2.invert(self.mapping[x]):
                raise InputError("mapping does not commute with the involution")
        pos = target.pos
        self._perm = perm = [pos[self.mapping[x]] for x in source.oriented]
        # x <= y at home iff their images compare: the up row of each
        # member, moved through perm, is the up row of its image
        up = target.up_bits
        for i, row in enumerate(source.up_bits):
            img = 0
            while row:
                b = row & -row
                img |= 1 << perm[b.bit_length() - 1]
                row ^= b
            if img != up[perm[i]]:
                raise InputError("mapping does not respect the order")

    def apply(self, x):
        try:
            return self.mapping[x]
        except KeyError:
            raise InputError("element outside the source system")

    def apply_profile(self, O):
        return frozenset(self.apply(x) for x in O)

    def apply_separation(self, s):
        return self.target.universe.canon(self.apply(s))

    def apply_nested(self, members):
        return frozenset(self.apply_separation(s) for s in members)

    def lattice_violation(self):
        """First pair (x, y) of source members, in oriented (value) order,
        whose join-membership the mapping fails to mirror: the join lies
        in one system only, or in both but not at the image.  Each row of
        the source's join table, moved through perm (-1 stays -1), must
        equal its image's row read at the images."""
        source, target, perm = self.source, self.target, self._perm
        moved = perm + [-1]
        for i, x in enumerate(source.oriented):
            got = list(map(moved.__getitem__, source.join_row(i)))
            want = list(map(target.join_row(perm[i]).__getitem__, perm))
            if got != want:
                j = next(j for j, (a, b) in enumerate(zip(got, want)) if a != b)
                return (x, source.oriented[j])
        return None

    def lattice_compatible(self) -> bool:
        return self.lattice_violation() is None


def serialize_nested(S, members) -> str:
    U = S.universe
    return "\n".join(sorted(U.format_pair(s) for s in members))


def check_canonicity(builder, iso: Isomorphism, profiles, require_lattice=False) -> bool:
    """Byte-compare builder(target, mapped profiles) against the mapped
    builder(source, profiles)."""
    if require_lattice and not iso.lattice_compatible():
        raise InputError("isomorphism is not lattice-compatible")
    out1 = builder(iso.source, profiles)
    n1 = getattr(out1, "nested", out1)
    out2 = builder(iso.target, [iso.apply_profile(P) for P in profiles])
    n2 = getattr(out2, "nested", out2)
    moved = iso.apply_nested(n1.members)
    return serialize_nested(iso.target, moved) == serialize_nested(
        iso.target, n2.members
    )
