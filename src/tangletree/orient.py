"""Orientations, consistency, profiles, F-tangles and their enumeration.

An orientation is a frozenset of oriented ids containing exactly one
orientation of every separation of the system (degenerate ones included).
Star families are the exclusion sets of tangle theory; they may carry
non-star members for plain tangle checking, but tree machinery insists
on genuine stars.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations, compress, groupby, product, repeat
from operator import itemgetter, or_

from .config import DEFAULT_CAPS
from .core import bit_positions, first_pair
from .errors import InputError, ResourceCapError


def consistency_violation(S, O):
    """First pair (a, b) in O, in oriented (value) order, with invert(a) < b,
    else None.

    Such a pair means O orients some r strictly below b away from b.
    Only pairs on distinct separations count; a single co-small element
    is fine.  The relation is symmetric, as the involution reverses the
    order, so the pair is read from the system's conflict table.
    """
    return first_pair(S.oriented, S.member_mask(O), S.conflict_bits.__getitem__)


def profile_violation(S, O):
    """None if O is a profile; else the offending pair.

    Returns either an inconsistent pair or a pair (r, s) of members whose
    co-join (r v s)* lies in O.  The r = s case matters only for
    degenerate members, which can never sit in a profile.  Pairs are
    scanned with r at or before s in S.oriented order, each row r as one
    OR of its join code with the codes of its tail.
    """
    bad = consistency_violation(S, O)
    if bad is not None:
        return bad
    jc, pos, inv = S.lattice_codes[0], S.pos, S.inv_pos
    chosen = sorted(set(O), key=pos.__getitem__)
    codes = [jc[pos[x]] for x in chosen]
    # (r v s)* lies in O iff the join is the inverse of a member of O
    co = frozenset(jc[inv[pos[x]]] for x in chosen)
    for i, r in enumerate(chosen):
        c = codes[i]
        if not co.isdisjoint(map(or_, repeat(c), codes[i:])):
            return next(
                (r, s) for s, d in zip(chosen[i:], codes[i:]) if c | d in co
            )
    return None


def star_mask_violation(S, m):
    """None if the members at the positions in mask m form a star, else
    the first witness in oriented order: ("degenerate", x) for a member
    that is its own inverse, else ("not-star", (x, y)) for the first pair
    with x not below invert(y), a relation the involution makes
    symmetric."""
    elems, down, inv = S.oriented, S.down_bits, S.inv_pos
    for i in bit_positions(m):
        if inv[i] == i:
            return ("degenerate", elems[i])
    pair = first_pair(elems, m, lambda i: ~down[inv[i]])
    return None if pair is None else ("not-star", pair)


def _all_star_masks(S, masks):
    """star_mask_violation for every mask at once: no position of any
    mask is degenerate, and per position i, the union of the masks
    united at i, less i, lies below the inverse of i.

    The relation x <= y* is symmetric, so a pair of members is tested
    at either end.  A mask of at most three members is united at its
    lowest and its highest position only, which between them meet every
    pair; a larger mask is united at each of its positions."""
    down, inv = S.down_bits, S.inv_pos
    union = [0] * len(S.oriented)
    every = 0
    for m in masks:
        every |= m
        if m.bit_count() <= 3:  # the empty mask ORs 0 into union[-1]
            union[(m & -m).bit_length() - 1] |= m
            union[m.bit_length() - 1] |= m
            continue
        rest = m
        while rest:
            b = rest & -rest
            union[b.bit_length() - 1] |= m
            rest ^= b
    if any(inv[i] == i for i in bit_positions(every)):
        return False
    return not any(
        u & ~(1 << i) & ~down[inv[i]] for i, u in enumerate(union) if u
    )


def _in_star_order(masks):
    """True iff a sequence of masks is in star order (see mask_order):
    by size, and of two masks of one size the earlier holds the lowest
    position where they differ."""
    sizes = [m.bit_count() for m in masks]
    return all(
        s < t or s == t and (a ^ b) & -(a ^ b) & a
        for a, b, s, t in zip(masks, masks[1:], sizes, sizes[1:])
    )


def mask_order(S):
    """Sort key for masks of positions in S.oriented, the star order: the
    size, then the positions ascending, packed into one int.  S.oriented
    is sorted by value, so this orders sets of members by their size and
    then their members in value order."""
    width = len(S.oriented).bit_length()

    def key(m):
        k = m.bit_count()
        for p in bit_positions(m):
            k = k << width | p
        return k

    return key


class StarFamily:
    """A finite family of subsets of S-arrow, usually stars.

    require_stars=False admits non-star members (the profile-triple
    builtin needs this); stars_only records what we actually got.
    closed_under_shifting is a builder's declaration, fixed at
    construction, that the family is closed under shifting; the duality
    gate trusts it only where the exhaustive check is out of reach.

    Every family keeps its members as masks of positions in
    system.oriented.  The constructor takes sets of members: it checks
    every element with system.check_member, maps each set to its mask,
    and keeps the masks as from_masks keeps a tuple of them.  With
    require_stars, the first set in the order given that is not a star
    raises InputError with star_mask_violation's witness, once every
    element has passed check_member.  Membership, length and iteration are
    answered from the masks; the frozensets of `stars` are built only on
    first use.
    """

    def __init__(self, system, stars, require_stars=True, name=None,
                 closed_under_shifting=False):
        masks = list(map(system.member_mask, stars))
        self._keep(system, tuple(masks), masks, require_stars, name,
                   closed_under_shifting)

    @classmethod
    def from_masks(cls, system, masks, require_stars=True, name=None,
                   closed_under_shifting=False):
        """The family whose members are the given masks of positions in
        system.oriented, repeats dropped.  A mask with a position past
        the end of system.oriented raises InputError.  When require_stars
        is set, the first kept mask that is not a star raises InputError
        with star_mask_violation's witness.

        The masks are kept as a tuple.  A list already in star order
        (tk_star_family emits one) holds no repeats and is kept in that
        order, as masks_sorted too; any other input is sorted by value,
        which drops the repeats, and into star order on first use.
        Membership is a binary search of masks_sorted.  A set of the
        masks, whose table alone is about as large as the masks and the
        tuple together, is built only for duality.shift_stree, which
        asks once per star in the shift's scope."""
        self = cls.__new__(cls)
        self._keep(system, masks, None, require_stars, name,
                   closed_under_shifting)
        return self

    def _keep(self, system, masks, given, require_stars, name,
              closed_under_shifting):
        """Keep the masks as from_masks describes.  A non-star is named
        in the order of given, or of the kept masks when given is None."""
        self.system = system
        self.name = name
        self._closed_under_shifting = bool(closed_under_shifting)
        if isinstance(masks, list) and _in_star_order(masks):
            self._masks = self.masks_sorted = tuple(masks)
        else:
            self._masks = tuple(map(itemgetter(0), groupby(sorted(masks))))
        if max(self._masks, default=0) >> len(system.oriented):
            raise InputError("family mask holds a position outside the system")
        if require_stars and not _all_star_masks(system, self._masks):
            bad = map(star_mask_violation, repeat(system), given or self._masks)
            raise InputError(
                f"family member is not a star: {next(filter(None, bad))}"
            )
        self.stars_only = require_stars or not any(
            map(star_mask_violation, repeat(system), self._masks)
        )

    def require_system(self, S):
        """InputError unless S has the family's members.  Both systems
        then sort them alike, so the family's masks are positions in
        S.oriented."""
        if self.system is not S and self.system.members != S.members:
            raise InputError("family is over a different system")

    @cached_property
    def _mask_set(self):
        return frozenset(self._masks)

    def _star_of(self, m):
        elems = self.system.oriented
        return frozenset(elems[i] for i in bit_positions(m))

    @cached_property
    def stars(self):
        return frozenset(map(self._star_of, self._masks))

    @property
    def closed_under_shifting(self) -> bool:
        return self._closed_under_shifting

    @cached_property
    def _singleton_bits(self):
        """The positions in system.oriented whose singleton is a member,
        as bits, collected without sorting the family."""
        masks = self._masks
        ones = compress(masks, map((1).__eq__, map(int.bit_count, masks)))
        return reduce(or_, ones, 0)

    def _first_lacking(self, test):
        """First member x in S.oriented, at a position i with test(i) true,
        whose inverse singleton {x*} the family lacks, else None."""
        S = self.system
        single, inv = self._singleton_bits, S.inv_pos
        return next(
            (x for i, x in enumerate(S.oriented)
             if not single >> inv[i] & 1 and test(i)),
            None,
        )

    @cached_property
    def missing_trivial_singleton(self):
        """First trivial member whose inverse singleton the family lacks
        (a standard family has none), else None."""
        return self._first_lacking(self.system._trivial_witnesses)

    @cached_property
    def missing_small_singleton(self):
        """First small member (x <= x*) whose inverse singleton the family
        lacks, else None."""
        S = self.system
        up, inv = S.up_bits, S.inv_pos
        return self._first_lacking(lambda i: up[i] >> inv[i] & 1)

    def __iter__(self):
        """The members as frozensets, in star order."""
        return map(self._star_of, self.masks_sorted)

    def __len__(self):
        return len(self._masks)

    def __contains__(self, sigma):
        """True iff sigma is a member: a binary search of masks_sorted by
        mask_order, whose key tells masks apart.  A set holding a value
        that is not a member, hashable or not, is not one."""
        try:
            m = self.system.member_mask(sigma)
        except InputError:
            return False
        masks, key = self.masks_sorted, mask_order(self.system)
        i = bisect_left(masks, key(m), key=key)
        return i < len(masks) and masks[i] == m

    @cached_property
    def stars_sorted(self):
        return tuple(self)

    @cached_property
    def masks_sorted(self):
        """The members as masks of positions in system.oriented, in star
        order."""
        return tuple(sorted(self._masks, key=mask_order(self.system)))

    def star(self, i):
        """The i-th member in star order, as a frozenset built by inserting
        its members in position order, which fixes the order in which it
        iterates."""
        return self._star_of(self.masks_sorted[i])

    def extended(self, extra, name=None):
        """New family with the given stars added; only those are checked.

        The base must be made of stars, and the result declares no
        closure under shifting.  Its star order is merged from the base's.
        """
        if not self.stars_only:
            raise InputError("only a family of stars can be extended")
        S = self.system
        out = StarFamily(S, (s for s in extra if s not in self), name=name)
        key = mask_order(S)
        added = sorted(out._masks, key=key)
        out._masks = self._masks + tuple(added)
        base, merged, lo = self.masks_sorted, [], 0
        for m in added:
            i = bisect_left(base, key(m), lo, key=key)
            merged += base[lo:i]
            merged.append(m)
            lo = i
        out.masks_sorted = tuple(merged) + base[lo:]
        return out


def f_tangle_violation(S, O, family):
    """Consistency violation or the first family member contained in O."""
    bad = consistency_violation(S, O)
    if bad is not None:
        return ("inconsistent", bad)
    Oset = frozenset(O)
    for sigma in family:
        if sigma <= Oset:
            return ("excluded", sigma)
    return None


def profile_star_family(S) -> StarFamily:
    """The in-system triples {r, s, (r v s)*} that some orientation can
    hold; its tangles are the profiles.

    Two kinds of triple are dropped, as no orientation of S contains them,
    so exclusion is unaffected: those whose co-join leaves the system, and
    those holding both orientations x != x* of one separation.  For the
    pair r = oriented[i], s = oriented[j], j >= i, with join at p, the
    latter are s = r* (j == inv[i]), s <= r (p == i, which takes in
    r = s) and r <= s (p == j), unless the member met twice is degenerate:
    {r} for a degenerate r stays, and excludes every orientation.  Each
    triple is a mask of positions in S.oriented, handed to from_masks as
    it is made, which drops the repeats (a triple can come from up to
    three pairs) by sorting, with no set of the triples.
    """
    jc, join_pos, inv = S.lattice_codes[0], S.join_pos, S.inv_pos

    def triples():
        for i, c in enumerate(jc):
            bit = 1 << i
            # -1 matches no position: a degenerate r drops nothing itself
            ii, same = (inv[i], i) if inv[i] != i else (-1, -1)
            for j, p in enumerate(map(join_pos.get, map(or_, repeat(c), jc[i:])), i):
                if p is None or p == same or j == ii or p == j != inv[j]:
                    continue
                yield bit | 1 << j | 1 << inv[p]

    return StarFamily.from_masks(S, triples(), require_stars=False, name="profiles")


# -- enumeration --


def _sep_trial_order(S):
    """Per separation, the tuple of candidate orientations, tried in order.

    Separations sorted by (order, value); within one separation the
    leq-smaller orientation goes first, falling back to value order.
    """
    U = S.universe
    seps = list(S.separations)
    if U.has_order:
        seps.sort(key=lambda s: (U.order(s), s))
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
    """The sets of members at the given masks, in star order (mask_order).
    Full orientations all have one member per separation, so they are
    sorted by their members in value order alone."""
    elems = S.oriented
    return tuple(
        frozenset(elems[i] for i in bit_positions(m))
        for m in sorted(masks, key=mask_order(S))
    )


def enumerate_tangles(S, family=None, caps=DEFAULT_CAPS):
    """All F-tangles of S (all consistent orientations when family is None).

    Depth-first over separations in canonical order with incremental
    consistency masks.  Each star is listed once, at its member whose
    separation is tried last, and tested only when that member is chosen:
    the star is complete iff its other members are chosen already, and
    before that member is chosen it cannot be.  Results come out in
    canonical order regardless of search internals.
    """
    if len(S) > caps.max_unoriented:
        raise ResourceCapError(
            f"{len(S)} separations exceed the enumeration cap "
            f"{caps.max_unoriented}"
        )
    pos = S.pos
    conflict = S.conflict_bits
    trial = [tuple(map(pos.__getitem__, options)) for options in _sep_trial_order(S)]

    stars_at = [[] for _ in range(len(S.oriented))]
    if family is not None:
        family.require_system(S)
        star_masks = family._masks
        if 0 in star_masks:
            return ()  # empty star excludes everything
        # later[p]: the positions whose separations are tried after p's.
        # A star goes to its member tried last: from any member p, keep
        # the members tried after p until none is left.
        later = [0] * len(S.oriented)
        after = 0
        for options in reversed(trial):
            for p in options:
                later[p] = after
            for p in options:
                after |= 1 << p
        for m in star_masks:
            p = m.bit_length() - 1
            rest = m & later[p]
            while rest:
                p = rest.bit_length() - 1
                rest &= later[p]
            stars_at[p].append(m)

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
            frame[1] = None
        descend = False
        options = trial[len(stack) - 1]
        while frame[0] < len(options):
            p = options[frame[0]]
            frame[0] += 1
            if forbidden >> p & 1:
                continue
            # a star listed at p is complete iff it lies inside chosen + p
            if not all(map((~(chosen | 1 << p)).__and__, stars_at[p])):
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
    out.sort(key=sorted)
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


def undistinguished_pair(S, N, orientations):
    """First pair of distinct orientations no separation in N splits.

    Each orientation is read on the non-degenerate members of N as a mask
    of positions in S.oriented (see orientation_of), so two are split iff
    the XOR of their masks is not 0.  A separation of N that is not a
    member, or that some orientation leaves undecided, raises InputError.
    """
    inv, elems = S.inv_pos, S.oriented
    nset = [elems[i] for i in bit_positions(S.member_mask(N)) if inv[i] != i]
    ors = list(orientations)
    masks = [S.member_mask(orientation_of(S, s, O) for s in nset) for O in ors]
    for (O1, m1), (O2, m2) in combinations(zip(ors, masks), 2):
        if not m1 ^ m2 and O1 != O2:
            return (O1, O2)
    return None


def maximal_members(S, subset):
    """The leq-maximal elements of a subset of the system, sorted: those
    with no other member of the subset strictly above them."""
    strict_up, mask = S.strict_up_bits, S.member_mask(subset)
    return tuple(
        S.oriented[i] for i in bit_positions(mask) if not strict_up[i] & mask
    )


# -- family-level report --


@dataclass
class FamilyReport:
    standard: bool
    has_small_singletons: bool
    closed_under_shifting: object = None  # a shift verdict when known


def check_star_family(family, closed_under_shifting=None) -> FamilyReport:
    """Standardness and the regularity singletons, from the facts the
    family keeps (see StarFamily.missing_trivial_singleton).

    Closure under shifting is the duality gate's job; pass its verdict in
    (or leave None for an unknown one).
    """
    return FamilyReport(
        standard=family.missing_trivial_singleton is None,
        has_small_singletons=family.missing_small_singleton is None,
        closed_under_shifting=closed_under_shifting,
    )
