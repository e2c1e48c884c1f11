"""Universes of separations and the systems living inside them.

A universe is a finite lattice with an order-reversing involution and an
optional exact order function; a separation system is an involution-closed
subset of one.  Everything downstream (orientations, tangles, trees of
tangles) treats the universe as an oracle for order and lattice queries,
so backends are free to compute by rule (bitmask bipartitions, graph
separations) or from explicit tables.

Oriented separations are plain hashable ids: ints for table universes,
int bitmasks of the first side for bipartition universes, (A, B) mask
pairs for the graph backend.  An unoriented separation is represented by
its canonical orientation, the smaller one of the pair by value.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from operator import add, and_, gt, or_

from .errors import InputError, UnsupportedOperationError


class Universe:
    """Finite lattice with order-reversing involution.  Subclass API."""

    has_order = False

    def invert(self, x):
        raise NotImplementedError

    def leq(self, x, y) -> bool:
        raise NotImplementedError

    def meet(self, x, y):
        raise NotImplementedError

    def join(self, x, y):
        raise NotImplementedError

    def lattice_codes(self, elems):
        """(jcode, mcode): one int per element of elems for each lattice
        operation, both injective, with jcode(x v y) = jcode(x) | jcode(y)
        and mcode(x ^ y) = mcode(x) & mcode(y).  So a join or meet lies in
        a set of elements iff the OR or AND of codes is one of their codes.

        TablePoset needs no distributivity: the join code is the
        complement of x's up-set and the meet code x's down-set, both as
        bitsets over elements().  Bipartitions and graph separations use
        their side masks instead.  Elements are not checked."""
        raise NotImplementedError

    def order_tables(self, elems):
        """(up, down) over the sorted members elems of a system: up[i] has
        bit j set iff elems[i] <= elems[j], and down[j] has bit i set iff
        the same holds.  Backends build the rows from containment_rows."""
        raise NotImplementedError

    def order(self, x):
        raise UnsupportedOperationError("universe has no order function")

    def code_orders(self, jcodes, mcodes):
        """(jorder, morder): dicts from the given join codes and meet
        codes (see lattice_codes) to the orders of their elements.
        TablePoset reads every element's codes and order; bipartitions
        and graph separations compute the order from the code instead."""
        raise NotImplementedError

    def elements(self):
        """All oriented elements, canonically sorted.  Finite backends only."""
        raise UnsupportedOperationError("universe is not enumerable")

    def is_element(self, x) -> bool:
        raise NotImplementedError

    def format_element(self, x) -> str:
        return repr(x)

    # -- derived helpers, shared by all backends --

    def check_element(self, x):
        if not self.is_element(x):
            raise InputError(f"unknown element {x!r}")

    def lt(self, x, y) -> bool:
        return x != y and self.leq(x, y)

    def canon(self, x):
        """Canonical orientation of x's separation (the smaller by value)."""
        return min(x, self.invert(x))

    def comparable(self, x, y) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def nested(self, r, s) -> bool:
        """True iff some orientations of r and s are comparable."""
        self.check_element(r)
        self.check_element(s)
        return self.comparable(r, s) or self.comparable(r, self.invert(s))

    def format_pair(self, x) -> str:
        return f"{self.format_element(x)} | {self.format_element(self.invert(x))}"


def _as_order(v):
    # exact rationals only; floats would reintroduce tolerance questions
    if isinstance(v, float):
        raise InputError(f"order values must be int or Fraction, got float {v!r}")
    try:
        f = Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InputError(f"order values must be int or Fraction, got {v!r}") from None
    if f < 0:
        raise InputError(f"order values must be non-negative, got {v!r}")
    return f


class TablePoset(Universe):
    """Universe given by explicit tables; validates all laws at load time.

    leq_pairs may be any relation whose reflexive-transitive closure is the
    intended partial order (closed by default).  Meets and joins are
    computed as glb/lub; a pair without one makes the input not a lattice
    and is rejected.
    """

    def __init__(self, n, involution, leq_pairs, order=None, names=None, close=True):
        if n <= 0:
            raise InputError("table universe needs at least one element")
        self.n = n
        self._names = list(names) if names is not None else None
        if self._names is not None and len(self._names) != n:
            raise InputError("names list does not match element count")

        inv = tuple(involution)
        if sorted(inv) != list(range(n)):
            raise InputError("involution is not a permutation of the elements")
        if any(inv[inv[i]] != i for i in range(n)):
            raise InputError("involution is not self-inverse")
        self._inv = inv

        down = [1 << i for i in range(n)]  # down[i] = bitmask of j with j <= i
        for i, j in leq_pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"leq pair ({i},{j}) out of range")
            down[j] |= 1 << i
        if close:
            changed = True
            while changed:
                changed = False
                for j in range(n):
                    acc = down[j]
                    m = acc
                    while m:
                        b = m & -m
                        acc |= down[b.bit_length() - 1]
                        m ^= b
                    if acc != down[j]:
                        down[j] = acc
                        changed = True
        self._down = down
        self._validate_poset()

        self._meet = [[self._glb(i, j) for j in range(n)] for i in range(n)]
        self._up = [0] * n
        for j in range(n):
            m = down[j]
            while m:
                b = m & -m
                self._up[b.bit_length() - 1] |= 1 << j
                m ^= b
        self._join = [[self._lub(i, j) for j in range(n)] for i in range(n)]

        if order is not None:
            self._order = tuple(_as_order(v) for v in order)
            if len(self._order) != n:
                raise InputError("order table does not match element count")
            for i in range(n):
                if self._order[i] != self._order[inv[i]]:
                    raise InputError(
                        f"order not invariant under involution at element {i}"
                    )
            self.has_order = True
        else:
            self._order = None

        self._validate_involution_and_demorgan()

    # -- load-time law checks --

    def _validate_poset(self):
        n, down = self.n, self._down
        for i in range(n):
            if not down[i] >> i & 1:
                raise InputError("leq not reflexive")  # unreachable when closed
        for i in range(n):
            for j in range(n):
                if i != j and down[i] >> j & 1 and down[j] >> i & 1:
                    raise InputError(f"leq not antisymmetric on ({i},{j})")
        for j in range(n):
            acc = 0
            m = down[j]
            while m:
                b = m & -m
                acc |= down[b.bit_length() - 1]
                m ^= b
            if acc != down[j]:
                raise InputError(f"leq not transitive below element {j}")

    def _glb(self, i, j):
        lower = self._down[i] & self._down[j]
        m = lower
        while m:
            b = m & -m
            g = b.bit_length() - 1
            if lower & ~self._down[g] == 0:
                return g
            m ^= b
        raise InputError(f"elements {i} and {j} have no meet: not a lattice")

    def _lub(self, i, j):
        upper = self._up[i] & self._up[j]
        m = upper
        while m:
            b = m & -m
            g = b.bit_length() - 1
            if upper & ~self._up[g] == 0:
                return g
            m ^= b
        raise InputError(f"elements {i} and {j} have no join: not a lattice")

    def _validate_involution_and_demorgan(self):
        inv = self._inv
        for i in range(self.n):
            for j in range(self.n):
                if self.leq(i, j) and not self.leq(inv[j], inv[i]):
                    raise InputError(
                        f"involution not order-reversing on ({i},{j})"
                    )
        for i in range(self.n):
            for j in range(self.n):
                if inv[self._join[i][j]] != self._meet[inv[i]][inv[j]]:
                    raise InputError(f"De Morgan identity fails on ({i},{j})")

    # -- Universe API --

    def invert(self, x):
        self.check_element(x)
        return self._inv[x]

    def leq(self, x, y):
        return self._down[y] >> x & 1 == 1

    def meet(self, x, y):
        self.check_element(x)
        self.check_element(y)
        return self._meet[x][y]

    def join(self, x, y):
        self.check_element(x)
        self.check_element(y)
        return self._join[x][y]

    def order(self, x):
        if self._order is None:
            raise UnsupportedOperationError("table universe has no order function")
        self.check_element(x)
        return self._order[x]

    def lattice_codes(self, elems):
        full = (1 << self.n) - 1
        return [full ^ self._up[x] for x in elems], [self._down[x] for x in elems]

    def order_tables(self, elems):
        # x <= y iff the down-set of x lies in that of y
        up, down = containment_rows([self._down[x] for x in elems], self.n)
        return tuple(up), tuple(down)

    def code_orders(self, jcodes, mcodes):
        if self._order is None:
            raise UnsupportedOperationError("table universe has no order function")
        full = (1 << self.n) - 1
        jo = {full ^ u: v for u, v in zip(self._up, self._order)}
        mo = dict(zip(self._down, self._order))
        return {c: jo[c] for c in jcodes}, {c: mo[c] for c in mcodes}

    def elements(self):
        return tuple(range(self.n))

    def is_element(self, x):
        return isinstance(x, int) and 0 <= x < self.n

    def format_element(self, x):
        return self._names[x] if self._names else f"e{x}"

    def name_of(self, x):
        self.check_element(x)
        return self.format_element(x)

    def id_of(self, name):
        if self._names is not None and name in self._names:
            return self._names.index(name)
        if isinstance(name, str) and name.startswith("e"):
            try:
                return int(name[1:])
            except ValueError:
                pass
        raise InputError(f"unknown element name {name!r}")


class BipartitionUniverse(Universe):
    """All bipartitions of a named ground set, as first-side bitmasks.

    (A ->) <= (B ->) iff A is a subset of B; the involution complements.
    Meet and join are intersection and union, so every lattice law holds
    by construction.  An optional order function maps masks to exact
    non-negative rationals and must be symmetric under complement.

    The order function is called once per mask, at construction, and its
    values are kept in a table that order() reads.  A mask and its
    complement have the same order, so the table holds the 2^(n-1)
    masks without the last of the n ground points, and its memory
    doubles with every point up to the 24-point cap.
    """

    def __init__(self, ground, order_fn=None):
        ground = tuple(ground)
        if not ground:
            raise InputError("ground set must be nonempty")
        if len(set(ground)) != len(ground):
            raise InputError("ground set has repeated names")
        if len(set(map(str, ground))) != len(ground):
            raise InputError("two ground points print alike, as 1 and '1' do")
        if len(ground) > 24:
            raise InputError("ground set larger than the 24-point cap")
        self.ground = ground
        self.full = (1 << len(ground)) - 1
        self.has_order = order_fn is not None
        self._order = None
        if self.has_order:
            # Masks are visited as a, then its complement, for a ascending:
            # the same first bad value and first asymmetric mask as checking
            # every mask against its complement.  Each distinct value is
            # converted once and shared by every mask that has it, so the
            # table costs about a pointer per mask it holds, and a mask and
            # its complement agree iff they hold the same object.  A float
            # never reaches the int lookup.
            values = {}  # each value seen, int or Fraction -> its Fraction

            def value(m):
                v = order_fn(m)
                f = values.get(v) if type(v) is int else None
                if f is None:
                    f = _as_order(v)
                    f = values.setdefault(f, f)
                return f

            table = [None] * ((self.full + 1) >> 1)
            for a in range(len(table)):
                table[a] = value(a)
                if value(self.full ^ a) is not table[a]:
                    raise InputError(
                        f"order not invariant under complement at mask {a:#x}"
                    )
            self._order = table

    def invert(self, x):
        self.check_element(x)
        return self.full ^ x

    def leq(self, x, y):
        return x & ~y == 0

    def meet(self, x, y):
        self.check_element(x)
        self.check_element(y)
        return x & y

    def join(self, x, y):
        self.check_element(x)
        self.check_element(y)
        return x | y

    def lattice_codes(self, elems):
        return elems, elems

    def order_tables(self, elems):
        up, down = containment_rows(elems, len(self.ground))
        return tuple(up), tuple(down)

    def order(self, x):
        if self._order is None:
            raise UnsupportedOperationError("bipartition universe has no order")
        self.check_element(x)
        return self._order[min(x, self.full ^ x)]

    def code_orders(self, jcodes, mcodes):
        # both codes are the mask itself
        if self._order is None:
            raise UnsupportedOperationError("bipartition universe has no order")
        table, full = self._order, self.full
        orders = {c: table[min(c, full ^ c)] for c in {*jcodes, *mcodes}}
        return orders, orders

    def elements(self):
        return tuple(range(self.full + 1))

    def is_element(self, x):
        return isinstance(x, int) and 0 <= x <= self.full

    def mask_of(self, names):
        m = 0
        for nm in names:
            try:
                m |= 1 << self.ground.index(nm)
            except ValueError:
                raise InputError(f"unknown ground point {nm!r}") from None
        return m

    def names_of(self, mask):
        return tuple(g for i, g in enumerate(self.ground) if mask >> i & 1)

    def format_element(self, x):
        return "{" + ",".join(map(str, self.names_of(x))) + "}"


def weighted_cut(weights):
    """Order function of a weighted cut on ground-point indices.

    weights maps index pairs (i, j) to ints; the order of a mask is the
    total weight of the pairs it separates.  The values are tabulated at
    the first call, not before, so a universe can refuse its ground set
    before any of this work is done.  With n one more than the largest
    index of a nonzero weight on two distinct points, a mask and its
    complement in the n points have the same cut, so the table holds
    only the 2^(n-1) masks without point n - 1.  It is filled by
    doubling: for a mask m of points below i, cut(m + i) = cut(m) +
    deg(i) - 2 w(i, m), so cut({i}) = deg(i), and adding a point j < i
    to m adds cut(m + j) - cut(m) - 2 w(i, j).  Equal values share one
    int, so the table costs a pointer per mask.
    """
    w = {(i, j): x for (i, j), x in weights.items() if x and i != j}
    n = 1 + max(map(max, w), default=-1)
    low = (1 << n) - 1
    table = None

    def cut(mask):
        nonlocal table
        if table is None:
            table = _cut_table(n, w)
        m = mask & low
        return table[min(m, low ^ m)]

    return cut


def _cut_table(n, weights):
    """The cuts of the masks of points 0 .. n - 2 among n points."""
    w = [[0] * n for _ in range(n)]
    for (i, j), x in weights.items():
        w[i][j] += x
        w[j][i] += x
    table, shared = [0] * max(1, 1 << n >> 1), {}
    for i, row in enumerate(w[: n - 1]):
        # the masks m + i for m below i, written in place
        base, v = 1 << i, sum(row)
        table[base] = shared.setdefault(v, v)
        for j in range(i):
            lo, twice = 1 << j, 2 * row[j]
            for m in range(lo):
                v = table[base + m] + table[lo + m] - table[m] - twice
                table[base + lo + m] = shared.setdefault(v, v)
    return table


def bit_positions(m):
    """Indices of the set bits of m, lowest first."""
    while m:
        b = m & -m
        yield b.bit_length() - 1
        m ^= b


def first_pair(elems, m, row):
    """(elems[i], elems[j]) for the first positions i < j in mask m with
    bit j set in row(i), lowest i first and then lowest j; None if there
    is none."""
    for i in bit_positions(m):
        hit = m & row(i) & -(2 << i)  # the positions above i
        if hit:
            return elems[i], elems[(hit & -hit).bit_length() - 1]
    return None


def bit_column(rows, bit):
    """The bitset of the positions i at which rows[i] has the given bit."""
    return int(
        "".join(["1" if r >> bit & 1 else "0" for r in reversed(rows)]) or "0", 2
    )


def containment_rows(masks, width):
    """(sup, sub) for a list of masks of width bits: sup[i] has bit j set
    iff masks[i] is a subset of masks[j], and sub[j] has bit i set iff the
    same holds.  sup[i] ANDs the columns of the bits in masks[i], sub[j]
    the complements of the columns of the bits outside masks[j]: at most
    width big-int ANDs per mask."""
    everyone = (1 << len(masks)) - 1
    full = (1 << width) - 1
    col = [bit_column(masks, b) for b in range(width)]
    not_col = [everyone ^ c for c in col]
    sup, sub = [], []
    for m in masks:
        u = d = everyone
        for b in bit_positions(m):
            u &= col[b]
        for b in bit_positions(full & ~m):
            d &= not_col[b]
        sup.append(u)
        sub.append(d)
    return sup, sub


@dataclass(frozen=True)
class SepFlags:
    """Classification of one oriented separation within a system."""

    degenerate: bool
    small: bool
    cosmall: bool
    trivial: bool
    trivial_witness: object = None  # canonical id of a witnessing separation


class SeparationSystem:
    """Involution-closed set of oriented elements of one universe.

    len() counts unoriented separations.  All derived listings are sorted
    by value so downstream output is deterministic.
    """

    def __init__(self, universe, members):
        mem = frozenset(members)
        for x in mem:
            universe.check_element(x)
            if universe.invert(x) not in mem:
                raise InputError(
                    f"members not closed under involution: missing inverse of "
                    f"{universe.format_element(x)}"
                )
        self.universe = universe
        self.members = mem

    @classmethod
    def from_unoriented(cls, universe, seps):
        mem = set()
        for s in seps:
            mem.add(s)
            mem.add(universe.invert(s))
        return cls(universe, mem)

    def __contains__(self, x):
        return x in self.members

    def __len__(self):
        return len(self.separations)

    def __eq__(self, other):
        return (
            isinstance(other, SeparationSystem)
            and self.universe is other.universe
            and self.members == other.members
        )

    def __hash__(self):
        return hash((id(self.universe), self.members))

    @cached_property
    def oriented(self):
        return tuple(sorted(self.members))

    @cached_property
    def separations(self):
        """Canonical orientations, one per unoriented separation."""
        return tuple(sorted({self.universe.canon(x) for x in self.members}))

    def check_member(self, x):
        """InputError unless x is a member; a value of another type, or
        an unhashable one, is not, and is shown by repr where the
        universe cannot format it."""
        try:
            if x in self.members:
                return
        except TypeError:  # unhashable
            pass
        try:
            shown = self.universe.format_element(x)
        except (TypeError, ValueError, LookupError, AttributeError):
            shown = repr(x)
        raise InputError(f"{shown} is not in the system")

    def member_mask(self, xs):
        """The positions in oriented of the members xs, as bits; a value
        that is not a member raises InputError (see check_member)."""
        pos, m = self.pos, 0
        for x in xs:
            try:
                m |= 1 << pos[x]
            except (KeyError, TypeError):
                self.check_member(x)  # raises: x is not a member
        return m

    # -- positional index and bit tables (built on demand) --

    @cached_property
    def pos(self):
        return {x: i for i, x in enumerate(self.oriented)}

    @cached_property
    def inv_pos(self):
        U = self.universe
        return tuple(self.pos[U.invert(x)] for x in self.oriented)

    @cached_property
    def _order_tables(self):
        return self.universe.order_tables(self.oriented)

    @cached_property
    def up_bits(self):
        """up_bits[i] has bit j set iff oriented[i] <= oriented[j]."""
        return self._order_tables[0]

    @cached_property
    def strict_up_bits(self):
        return tuple(m & ~(1 << i) for i, m in enumerate(self.up_bits))

    @cached_property
    def down_bits(self):
        """down_bits[j] has bit i set iff oriented[i] <= oriented[j]."""
        return self._order_tables[1]

    @cached_property
    def strict_down_bits(self):
        return tuple(m & ~(1 << i) for i, m in enumerate(self.down_bits))

    @cached_property
    def lattice_codes(self):
        """(jcode, mcode) of oriented: see Universe.lattice_codes."""
        return self.universe.lattice_codes(self.oriented)

    @cached_property
    def join_pos(self):
        """The position in oriented of the member with each join code."""
        return {c: i for i, c in enumerate(self.lattice_codes[0])}

    @cached_property
    def _join_rows(self):
        return [None] * len(self.oriented)

    @cached_property
    def _joinable(self):
        return [None] * len(self.oriented)

    def join_row(self, i):
        """row[j] is the position of join(oriented[i], oriented[j]), or -1
        when that join leaves the system; built on first use and kept."""
        row = self._join_rows[i]
        if row is None:
            jc, join_pos = self.lattice_codes[0], self.join_pos
            row = tuple(map(join_pos.get, map(or_, repeat(jc[i]), jc), repeat(-1)))
            self._join_rows[i] = row
        return row

    def joinable(self, i):
        """The positions j whose join with oriented[i] stays in the system,
        as bits; built on first use, without the row, and kept."""
        m = self._joinable[i]
        if m is None:
            jc, join_pos = self.lattice_codes[0], self.join_pos
            bits = ["1" if jc[i] | c in join_pos else "0" for c in reversed(jc)]
            m = self._joinable[i] = int("".join(bits), 2)
        return m

    @cached_property
    def conflict_bits(self):
        """conflict_bits[i]: positions j whose joint choice is inconsistent.

        Choosing a and b from distinct separations is inconsistent exactly
        when invert(a) < b; the relation is symmetric because the
        involution is order-reversing.
        """
        out = []
        for i in range(len(self.oriented)):
            m = self.strict_up_bits[self.inv_pos[i]]
            m &= ~(1 << i)  # same separation is never a consistency conflict
            out.append(m)
        return tuple(out)

    # -- predicates --

    def _trivial_witnesses(self, i):
        """Positions of the y with oriented[i] < y and oriented[i] < y*:
        y lies strictly above x and strictly below x*."""
        return self.strict_up_bits[i] & self.strict_down_bits[self.inv_pos[i]]

    def classify(self, x) -> SepFlags:
        """Flags of x; the trivial witness is the first y in oriented
        order with x < y and x < y*, canonically oriented."""
        self.check_member(x)
        U = self.universe
        xbar = U.invert(x)
        above = self._trivial_witnesses(self.pos[x])
        witness = None
        if above:
            witness = U.canon(self.oriented[(above & -above).bit_length() - 1])
        return SepFlags(
            x == xbar, U.leq(x, xbar), U.leq(xbar, x), bool(above), witness
        )

    def trivial_members(self):
        """Oriented members that are trivial in the system, sorted."""
        return tuple(
            x for i, x in enumerate(self.oriented) if self._trivial_witnesses(i)
        )

    def small_members(self):
        U = self.universe
        return tuple(x for x in self.oriented if U.leq(x, U.invert(x)))

    def submodular_violation(self):
        """First pair (r, s), r at or before s in oriented order, with
        neither r v s nor r ^ s in the system; None if S is submodular.

        Tested on lattice codes: r v s lies in S iff jcode(r) | jcode(s)
        is a member's join code, and r ^ s iff mcode(r) & mcode(s) is a
        member's meet code.  The involution reverses the order, so
        r* v s* = (r ^ s)* and r* ^ s* = (r v s)*; S is closed under *,
        so (r, s) violates iff (r*, s*) does.  The scan takes one pair
        per such orbit: the rows are the canonical orientations, and each
        row's tail holds the members of its separation and of every later
        one.  Only on a hit does it scan again, in oriented order, so the
        witness is the first violating pair in that order.
        """
        jc, mc = self.lattice_codes
        M = frozenset(mc)
        # outside.get(c, True): whether the join with code c leaves S
        outside = dict.fromkeys(jc, False)

        def clean(i, tail_j, tail_m):
            # the meets of the pairs whose join leaves S all lie in S
            joins = map(or_, repeat(jc[i]), tail_j)
            escaped = compress(tail_m, map(outside.get, joins, repeat(True)))
            return M.issuperset(map(and_, repeat(mc[i]), escaped))

        pos, inv = self.pos, self.inv_pos
        rows, order = [], []
        for x in self.separations:
            i = pos[x]
            rows.append((i, len(order)))
            order += (i,) if inv[i] == i else (i, inv[i])
        tj = [jc[p] for p in order]
        tm = [mc[p] for p in order]
        if all(clean(i, tj[k:], tm[k:]) for i, k in rows):
            return None
        elems = self.oriented
        for i, r in enumerate(elems):
            if not clean(i, jc[i:], mc[i:]):
                return next(
                    (r, elems[j])
                    for j in range(i, len(elems))
                    if jc[i] | jc[j] not in outside and mc[i] & mc[j] not in M
                )

    @cached_property
    def submodular_witness(self):
        """submodular_violation(), run once per system."""
        return self.submodular_violation()

    def is_submodular(self) -> bool:
        return self.submodular_witness is None

    def _nested_bits(self, i):
        """The positions of the members nested with oriented[i]: those
        comparable with it or with its inverse."""
        up, down, j = self.up_bits, self.down_bits, self.inv_pos[i]
        return up[i] | down[i] | up[j] | down[j]

    def nestedness_violation(self, seps):
        """First crossing pair among the given separations, members of the
        system, in oriented (value) order."""
        m = self.member_mask(seps)
        return first_pair(self.oriented, m, lambda i: ~self._nested_bits(i))

    def restrict_nested(self, M):
        """Subsystem of members nested with every separation in M."""
        keep = (1 << len(self.oriented)) - 1
        for i in bit_positions(self.member_mask(M)):
            keep &= self._nested_bits(i)
        return SeparationSystem(
            self.universe, [self.oriented[i] for i in bit_positions(keep)]
        )


def order_filtered_system(universe, k, within=None) -> SeparationSystem:
    """The system of all universe elements of order strictly below k.

    Pass within to filter an existing system instead of the full universe.
    """
    if not universe.has_order:
        raise UnsupportedOperationError("order filter needs an order function")
    if k <= 0:
        raise InputError("order threshold must be positive")
    pool = universe.elements() if within is None else within.oriented
    return SeparationSystem(
        universe, [x for x in pool if universe.order(x) < k]
    )


def order_submodularity_violation(universe, elems=None):
    """First pair (r, s), r at or before s in value order, violating
    |r v s| + |r ^ s| <= |r| + |s|, else None.

    Each row r is tested against its tail at once: the joins and meets
    as OR/AND of lattice codes, their orders read from one call of
    Universe.code_orders, and the sums compared as ints, every order
    scaled by one common denominator.  Rows and tails run in value
    order, so the first row with a hit, at its first hit, gives the
    first violating pair.
    """
    from math import lcm  # on use, so that the package's import does no more

    U = universe
    if not U.has_order:
        raise UnsupportedOperationError(
            "order submodularity needs an order function"
        )
    if elems is None:
        elems = U.elements()
    elems = sorted(elems)
    for x in elems:
        U.check_element(x)
    jc, mc = U.lattice_codes(elems)
    rows = range(len(elems))

    def joins(i):
        return map(or_, repeat(jc[i]), jc[i:])

    def meets(i):
        return map(and_, repeat(mc[i]), mc[i:])

    jo, mo = U.code_orders(
        set().union(*map(joins, rows)), set().union(*map(meets, rows))
    )
    den = lcm(*(v.denominator for v in (*jo.values(), *mo.values())))
    jo = {c: v.numerator * (den // v.denominator) for c, v in jo.items()}
    mo = {c: v.numerator * (den // v.denominator) for c, v in mo.items()}
    own = list(map(jo.__getitem__, jc))  # each element is its own join
    for i in rows:
        lhs = map(add, map(jo.__getitem__, joins(i)), map(mo.__getitem__, meets(i)))
        rhs = map(add, repeat(own[i]), own[i:])
        j = next(compress(range(i, len(elems)), map(gt, lhs, rhs)), None)
        if j is not None:
            return elems[i], elems[j]
    return None

