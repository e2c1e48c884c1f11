from itertools import combinations

import pytest
from hypothesis import HealthCheck, settings

from tangletree import graphsep
from tangletree.config import Caps
from tangletree.core import BipartitionUniverse, SeparationSystem

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# roomy caps for the mid-size fixtures; unit tests that exercise the caps
# themselves build their own tight Caps
BIG_CAPS = Caps(
    max_unoriented=300,
    max_states=20_000_000,
    max_tree_nodes=200_000,
    max_results=2_000_000,
    full_shift_check_limit=12,
)


def _complete(n):
    return list(combinations([f"k{i}" for i in range(n)], 2))


def _cycle(n):
    return [(f"c{i}", f"c{(i + 1) % n}") for i in range(n)]


def _grid(n):
    name = "g{}{}".format
    return [
        (name(i, j), name(i + di, j + dj))
        for i in range(n)
        for j in range(n)
        for di, dj in ((0, 1), (1, 0))
        if i + di < n and j + dj < n
    ]


# K_n has branchwidth ceil(2n/3) for n >= 3, the n x n grid n, cycles 2
BRANCHWIDTH = {
    "K4": (_complete(4), 3),
    "K5": (_complete(5), 4),
    "K6": (_complete(6), 4),
    "C6": (_cycle(6), 2),
    "3x3 grid": (_grid(3), 3),
}


def tripod_edges():
    """Three K5 blobs sharing a single hub vertex."""
    edges = []
    for b in range(3):
        blob = ["v"] + [f"{'abc'[b]}{i}" for i in range(1, 5)]
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((blob[i], blob[j]))
    return edges


def triangle_tripod_edges():
    """Same shape with K3 blobs; small enough for 2^|S| loops."""
    edges = []
    for b in range(3):
        blob = ["v", f"{'abc'[b]}1", f"{'abc'[b]}2"]
        edges += [(blob[0], blob[1]), (blob[0], blob[2]), (blob[1], blob[2])]
    return edges


@pytest.fixture(scope="session")
def u4():
    return BipartitionUniverse(["a", "b", "c", "d"])


@pytest.fixture(scope="session")
def s4(u4):
    return SeparationSystem(u4, list(u4.elements()))


@pytest.fixture(scope="session")
def p3():
    """Path a-b-c with the order-below-2 separations."""
    G = graphsep.Graph.from_edges([("a", "b"), ("b", "c")])
    S = graphsep.graph_separation_system(G, 2, BIG_CAPS)
    fam = graphsep.tk_star_family(G, 2, S, BIG_CAPS)
    return G, S, fam


@pytest.fixture(scope="session")
def tripod():
    G = graphsep.Graph.from_edges(tripod_edges())
    S = graphsep.graph_separation_system(G, 3, BIG_CAPS)
    fam = graphsep.tk_star_family(G, 3, S, BIG_CAPS)
    return G, S, fam


@pytest.fixture(scope="session")
def triangle_tripod():
    G = graphsep.Graph.from_edges(triangle_tripod_edges())
    S = graphsep.graph_separation_system(G, 2, BIG_CAPS)
    fam = graphsep.tk_star_family(G, 2, S, BIG_CAPS)
    return G, S, fam

def away_from(u4, x):
    """The orientation choosing, at every bipartition, the side without x."""
    bit = 1 << u4.ground.index(x)
    return frozenset(m for m in u4.elements() if not m & bit)
