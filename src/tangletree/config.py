"""Resource caps.

All enumeration routines take an optional Caps; the defaults are sized so
that interactive use on small systems never trips them, while genuinely
exponential blowups fail fast with ResourceCapError instead of hanging.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    """Limits for enumeration and search.

    max_unoriented: hard limit on the number of unoriented separations an
        exhaustive orientation enumeration will accept.  2^n orientations
        is the worst case, so the default keeps the worst case around 16M.
    max_states: limit on DFS states visited during pruned enumeration.
    max_tree_nodes: limit on nodes materialised when reconstructing a
        tree from a duality fixpoint.
    max_results: limit on collected results (tangles, orientations).
    full_shift_check_limit: largest |S| (unoriented) for which the
        closed-under-shifting verification is run exhaustively; above it
        the check is skipped and reported as such.
    """

    max_unoriented: int = 24
    max_states: int = 5_000_000
    max_tree_nodes: int = 200_000
    max_results: int = 1_000_000
    full_shift_check_limit: int = 12


DEFAULT_CAPS = Caps()

