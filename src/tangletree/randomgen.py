"""Seeded generators for test corpora.

Everything is driven by a caller-supplied random.Random, so corpora are
reproducible from a seed.  Cut universes (bipartitions ordered by a
weighted cut function) are submodular by construction, which makes them
the workhorse for duality and construction instances; graphs cover the
concrete backend.
"""

import random

from .core import (
    BipartitionUniverse,
    bit_positions,
    order_filtered_system,
    weighted_cut,
)
from .errors import InputError
from .orient import StarFamily, star_mask_violation
from . import duality
from .graphsep import Graph


def random_connected_graph(rng: random.Random, n, extra=2):
    """Random tree plus a few extra edges; vertices are v0..v(n-1)."""
    names = [f"v{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((names[j], names[i]))
    pool = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if (names[i], names[j]) not in edges
    ]
    rng.shuffle(pool)
    for e in pool[: max(0, extra)]:
        edges.add(e)
    return Graph(names, sorted(edges))


def cut_universe(rng: random.Random, points, max_weight=4):
    """Bipartitions of a point set ordered by a random weighted cut."""
    pts = tuple(points)
    n = len(pts)
    w = {}
    for i in range(n):
        for j in range(i + 1, n):
            w[(i, j)] = rng.randint(0, max_weight)
    return BipartitionUniverse(pts, order_fn=weighted_cut(w))


def random_order_system(rng: random.Random, points, max_unoriented=10):
    """An order-filtered system of a random cut universe, kept small.

    Picks the largest threshold whose system still fits; always contains
    at least the zero-cut separations.
    """
    U = cut_universe(rng, points)
    n = len(points)
    orders = sorted({U.order(m) for m in range(1 << n)})
    best = None
    for k in orders[1:]:
        S = order_filtered_system(U, k)
        if len(S) <= max_unoriented:
            best = S
        else:
            break
    if best is None:
        best = order_filtered_system(U, orders[1] if len(orders) > 1 else 1)
    return best


def standard_star_base(S):
    """Trivial and regularity singletons: the least any family needs."""
    U = S.universe
    stars = set()
    for x in S.trivial_members():
        stars.add(frozenset((U.invert(x),)))
    for x in S.small_members():
        stars.add(frozenset((U.invert(x),)))
    return stars


def random_shift_closed_family(rng: random.Random, S, upsets=1, stars=1):
    """A standard star family closed under shifting, or None.

    Starts from the mandatory singletons, sprinkles random up-closed
    singleton batches and random small stars, then repairs closure by
    adding shift images until they stabilise.  Non-star images mean the
    attempt cannot work; the caller should retry.
    """
    U = S.universe
    fam_stars = standard_star_base(S)
    elems = list(S.oriented)
    for _ in range(upsets):
        x = rng.choice(elems)
        if x == U.invert(x):
            continue
        for p in bit_positions(S.up_bits[S.pos[x]]):
            fam_stars.add(frozenset((elems[p],)))
    for _ in range(stars):
        size = rng.choice((1, 2, 2, 3))
        pick = frozenset(rng.sample(elems, min(size, len(elems))))
        if star_mask_violation(S, S.member_mask(pick)) is None:
            fam_stars.add(pick)
    try:
        fam = StarFamily(S, fam_stars)
    except InputError:
        return None
    for _ in range(400):  # repair rounds before giving up
        bad = duality.shifting_closure_violation(S, fam)
        if bad is None:
            return StarFamily.from_masks(
                S, list(fam.masks_sorted), closed_under_shifting=True
            )
        s, r, sigma = bad
        pos, code = S.pos, duality._shift_code(S, S.pos[r])
        bits = duality._shift_bits(S, pos[s])
        img = duality._shift_image(bits, [code[pos[x]] for x in sigma])
        try:
            fam = fam.extended([frozenset(S.oriented[p] for p in bit_positions(img))])
        except InputError:
            return None
    return None


def random_duality_instance(seed, points=("p", "q", "r", "s")):
    """A (system, family) pair fit for the duality decision, or None."""
    rng = random.Random(seed)
    S = random_order_system(rng, points)
    if len(S) > 10:
        return None
    fam = random_shift_closed_family(
        rng, S, upsets=rng.randint(0, 2), stars=rng.randint(0, 2)
    )
    if fam is None:
        return None
    return S, fam


def swap_invariant_cut_universe(rng: random.Random, half, max_weight=3):
    """A cut universe on 2*half points whose weights are invariant under
    swapping the two halves; returns (universe, mask permutation)."""
    n = 2 * half
    pts = tuple(f"x{i}" for i in range(n))

    def mate(i):
        return (i + half) % n

    w = {}
    for i in range(n):
        for j in range(i + 1, n):
            a, b = sorted((mate(i), mate(j)))
            if (a, b) in w:
                w[(i, j)] = w[(a, b)]
            else:
                w[(i, j)] = rng.randint(0, max_weight)

    def perm(mask):
        out = 0
        for i in range(n):
            if mask >> i & 1:
                out |= 1 << mate(i)
        return out

    return BipartitionUniverse(pts, order_fn=weighted_cut(w)), perm
