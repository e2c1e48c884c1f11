"""Orientations, consistency, profiles, F-tangles and their enumeration.

An orientation is a frozenset of oriented ids containing exactly one
orientation of every separation of the system (degenerate ones included).
Star families are the exclusion sets of tangle theory; they may carry
non-star members for plain tangle checking, but tree machinery insists
on genuine stars.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .config import DEFAULT_CAPS
from .errors import InputError, ResourceCapError


def consistency_violation(S, O):
    """First pair (a, b) in O with invert(a) < b, else None.

    Such a pair means O orients some r strictly below b away from b.
    Only pairs on distinct separations count; a single co-small element
    is fine.
    """
    U = S.universe
    elems = sorted(O, key=U.sort_key)
    for x in elems:
        S.check_member(x)
    if len(elems) == len(S):
        # As large as an orientation: test every member against the
        # system's conflict table, worth its O(n^2) build at this size, and
        # scan pairs below only to name the first witness.
        pos, conflict = S.pos, S.conflict_bits
        omask = 0
        for x in elems:
            omask |= 1 << pos[x]
        if not any(conflict[pos[x]] & omask for x in elems):
            return None
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


def validate_orientation(S, O):
    v = orientation_violation(S, O)
    if v is not None:
        raise InputError(f"not an orientation of the system: {v}")


def profile_violation(S, O):
    """None if O is a profile; else the offending pair.

    Returns either an inconsistent pair or a pair (r, s) of members whose
    co-join (r v s)* lies in O.  The r = s case matters only for
    degenerate members, which can never sit in a profile.
    """
    bad = consistency_violation(S, O)
    if bad is not None:
        return bad
    U = S.universe
    elems = sorted(O, key=U.sort_key)
    for i, r in enumerate(elems):
        for s in elems[i:]:
            if U.invert(U.join(r, s)) in O:
                return (r, s)
    return None


def is_profile(S, O) -> bool:
    return profile_violation(S, O) is None


def is_regular(S, O) -> bool:
    """True iff O contains no co-small separation."""
    U = S.universe
    return not any(U.leq(U.invert(x), x) for x in O)


def star_violation(U, sigma):
    """None if sigma is a star: no degenerate member, r <= invert(s)."""
    elems = sorted(sigma, key=U.sort_key)
    for x in elems:
        if x == U.invert(x):
            return ("degenerate", x)
    for x, y in combinations(elems, 2):
        if not U.leq(x, U.invert(y)):
            return ("not-star", (x, y))
    return None


def is_star(U, sigma) -> bool:
    return star_violation(U, sigma) is None


class StarFamily:
    """A finite family of subsets of S-arrow, usually stars.

    require_stars=False admits non-star members (the profile-triple
    builtin needs this); stars_only records what we actually got.
    Check flags start unknown (None) and are filled by check routines.
    """

    def __init__(self, system, stars, require_stars=True, name=None):
        self.system = system
        self.name = name
        U = system.universe
        fam = set()
        for sigma in stars:
            sigma = frozenset(sigma)
            for x in sigma:
                system.check_member(x)
            if require_stars:
                bad = star_violation(U, sigma)
                if bad is not None:
                    raise InputError(f"family member is not a star: {bad}")
            fam.add(sigma)
        self.stars = frozenset(fam)
        # with require_stars every member has just passed star_violation
        self.stars_only = require_stars or all(is_star(U, s) for s in self.stars)
        self.standard = None
        self.has_small_singletons = None
        self.profile_respecting = None
        self.closed_under_shifting = None

    def __iter__(self):
        return iter(self.stars_sorted)

    def __len__(self):
        return len(self.stars)

    def __contains__(self, sigma):
        return frozenset(sigma) in self.stars

    @cached_property
    def stars_sorted(self):
        key = self.system.universe.sort_key
        return tuple(
            sorted(
                self.stars,
                key=lambda s: (len(s), tuple(sorted(key(x) for x in s))),
            )
        )

    def star_key(self, sigma):
        key = self.system.universe.sort_key
        return (len(sigma), tuple(sorted(key(x) for x in sigma)))

    def extended(self, extra, require_stars=True, name=None):
        """New family with the given subsets added."""
        return StarFamily(
            self.system,
            list(self.stars) + [frozenset(s) for s in extra],
            require_stars=require_stars,
            name=name,
        )


def f_tangle_violation(S, O, family):
    """Consistency violation or the first family member contained in O."""
    bad = consistency_violation(S, O)
    if bad is not None:
        return ("inconsistent", bad)
    Oset = frozenset(O)
    for sigma in family.stars_sorted:
        if sigma <= Oset:
            return ("excluded", sigma)
    return None


def is_f_tangle(S, O, family) -> bool:
    return f_tangle_violation(S, O, family) is None


def profile_star_family(S) -> StarFamily:
    """All in-system triples {r, s, (r v s)*}; its tangles are the profiles.

    Triples whose co-join leaves the system are dropped: they can never be
    contained in an orientation of S, so exclusion is unaffected.
    """
    U = S.universe
    triples = set()
    elems = S.oriented
    for i, r in enumerate(elems):
        for s in elems[i:]:
            c = U.invert(U.join(r, s))
            if c in S.members:
                triples.add(frozenset((r, s, c)))
    return StarFamily(S, triples, require_stars=False, name="profiles")


# -- enumeration --


def _sep_trial_order(S):
    """Per separation, the tuple of candidate orientations, tried in order.

    Separations sorted by (order, sort_key); within one separation the
    leq-smaller orientation goes first, falling back to sort_key.
    """
    U = S.universe
    seps = list(S.separations)
    if U.has_order:
        seps.sort(key=lambda s: (U.order(s), U.sort_key(s)))
    out = []
    for s in seps:
        t = U.invert(s)
        if s == t:
            out.append((s,))
        elif U.leq(s, t):
            out.append((s, t))
        elif U.leq(t, s):
            out.append((t, s))
        else:
            out.append((s, t))  # s is canonical, keys already ordered
    return out


def _canonical_sorted(S, masks):
    U = S.universe
    elems = S.oriented
    sets = []
    for m in masks:
        chosen = []
        mm = m
        while mm:
            b = mm & -mm
            chosen.append(elems[b.bit_length() - 1])
            mm ^= b
        sets.append(frozenset(chosen))
    sets.sort(key=lambda fs: tuple(sorted(U.sort_key(x) for x in fs)))
    return tuple(sets)


def enumerate_tangles(S, family=None, caps=DEFAULT_CAPS):
    """All F-tangles of S (all consistent orientations when family is None).

    Depth-first over separations in canonical order with incremental
    consistency masks and per-star countdown pruning; results come out in
    canonical order regardless of search internals.
    """
    if len(S) > caps.max_unoriented:
        raise ResourceCapError(
            f"{len(S)} separations exceed the enumeration cap "
            f"{caps.max_unoriented}"
        )
    pos = S.pos
    conflict = S.conflict_bits
    trial = _sep_trial_order(S)

    star_masks = []
    if family is not None:
        if family.system is not S and family.system.members != S.members:
            raise InputError("family is over a different system")
        # Countdown pruning does not depend on the order of the stars.
        for sigma in family.stars:
            m = 0
            for x in sigma:
                m |= 1 << pos[x]
            star_masks.append(m)
        if any(m == 0 for m in star_masks):
            return ()  # empty star excludes everything
    stars_at = [[] for _ in range(len(S.oriented))]
    for si, m in enumerate(star_masks):
        mm = m
        while mm:
            b = mm & -mm
            stars_at[b.bit_length() - 1].append(si)
            mm ^= b
    remaining = [m.bit_count() for m in star_masks]

    # Iterative DFS: stack[d] = [index of the next option to try at depth
    # d, (position, saved forbidden mask) of the choice being explored].
    results = []
    visited = 0
    chosen = forbidden = 0
    stack = []
    descend = True
    while True:
        if descend:
            visited += 1
            if visited > caps.max_states:
                raise ResourceCapError(
                    f"enumeration exceeded {caps.max_states} search states"
                )
            if len(stack) == len(trial):
                results.append(chosen)
                if len(results) > caps.max_results:
                    raise ResourceCapError(
                        f"more than {caps.max_results} results"
                    )
                if not stack:
                    break
            else:
                stack.append([0, None])
        frame = stack[-1]
        if frame[1] is not None:  # the subtree below this choice is done
            p, forbidden = frame[1]
            chosen ^= 1 << p
            for si in stars_at[p]:
                remaining[si] += 1
            frame[1] = None
        descend = False
        options = trial[len(stack) - 1]
        while frame[0] < len(options):
            p = pos[options[frame[0]]]
            frame[0] += 1
            if forbidden >> p & 1:
                continue
            dead = False
            for si in stars_at[p]:
                remaining[si] -= 1
                if remaining[si] == 0:
                    dead = True
            if dead:
                for si in stars_at[p]:
                    remaining[si] += 1
                continue
            frame[1] = (p, forbidden)
            chosen |= 1 << p
            forbidden |= conflict[p]
            descend = True
            break
        if not descend:
            stack.pop()
            if not stack:
                break
    return _canonical_sorted(S, results)


def consistent_orientations(S, caps=DEFAULT_CAPS):
    return enumerate_tangles(S, None, caps)


def all_orientations(S, caps=DEFAULT_CAPS):
    """Unpruned product over all separations; the brute-force oracle."""
    trial = _sep_trial_order(S)
    total = 1
    for t in trial:
        total *= len(t)
        if total > caps.max_states:
            raise ResourceCapError(
                f"2^|S| oracle would visit {total}+ orientations "
                f"(cap {caps.max_states})"
            )
    out = [frozenset(choice) for choice in product(*trial)]
    key = S.universe.sort_key
    out.sort(key=lambda fs: tuple(sorted(key(x) for x in fs)))
    return tuple(out)


# -- distinguishing --


def orientation_of(S, s, O):
    """The orientation of separation s chosen by O."""
    U = S.universe
    if s in O:
        return s
    t = U.invert(s)
    if t in O:
        return t
    raise InputError(f"orientation undecided on {U.format_pair(s)}")


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


def distinguishes_set(S, N, orientations) -> bool:
    return undistinguished_pair(S, N, orientations) is None


def maximal_members(S, subset):
    """The leq-maximal elements of a subset of the system, sorted."""
    U = S.universe
    elems = sorted(subset, key=U.sort_key)
    out = []
    for x in elems:
        if not any(U.lt(x, y) for y in elems):
            out.append(x)
    return tuple(out)


# -- family-level report --


@dataclass
class FamilyReport:
    standard: bool
    has_small_singletons: bool
    profile_respecting: bool
    closed_under_shifting: object = None  # bool when known


def check_star_family(
    family, S=None, closed_under_shifting=None, caps=DEFAULT_CAPS
) -> FamilyReport:
    """Standardness, regularity singletons, profile-respecting, friendly.

    Closure under shifting is the duality module's job; pass its verdict
    in (or leave None for an unknown-friendliness report).
    """
    if S is None:
        S = family.system
    U = S.universe
    standard = True
    for x in S.trivial_members():
        if frozenset((U.invert(x),)) not in family.stars:
            standard = False
            break
    small_ok = True
    for x in S.small_members():
        if frozenset((U.invert(x),)) not in family.stars:
            small_ok = False
            break
    tangles = enumerate_tangles(S, family, caps)
    respecting = all(is_profile(S, O) for O in tangles)
    report = FamilyReport(standard, small_ok, respecting, closed_under_shifting)
    family.standard = standard
    family.has_small_singletons = small_ok
    family.profile_respecting = respecting
    if closed_under_shifting is not None:
        family.closed_under_shifting = closed_under_shifting
    return report
