"""Literal element-level oracles for the position-level code in src.

Emulation, the shift map and its scope, closure of a family under one
shift, separability, and the shape and regularity of an orientation,
each written pair by pair against the universe (U.leq, U.join,
U.invert).  `tangletree.duality` decides the same facts on positions in
S.oriented; the tests compare the two.
"""

from dataclasses import dataclass

from tangletree.errors import InputError, IntegrityError


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
