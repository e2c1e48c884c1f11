"""The traced run's instruments: spans and counters around the program's
own calls.

While `installed(tt, tracer)` is active, every function in WRAPPED is
replaced, on the freshly imported modules, by a wrapper that records a
span around each call and adds the call's work to the counters.  The
run then calls `tangletree.cli.main(argv)` exactly as an untraced round
does, so the traced round does the program's own work and prints the
program's own output.  The wrappers are removed again when the block
ends, so untraced rounds run the unwrapped code.

A span is [name, start, end, parent index]; each operation has one root
span and the calls inside it nest by the call stack, so the tangle
search inside `duality_decide` or `check_star_family` is a child span of
its own.  A layer's time is the self time of its spans: duration minus
the part covered by child spans.  The root's self time is `cli.glue`,
what the subcommand does itself.
"""

import contextlib
from collections import defaultdict
from time import perf_counter

LAYER_TIMES = (
    "cli.parse",
    "cli.glue",
    "io.load",
    "io.dump",
    "core.universe",
    "core.system",
    "core.check",
    "graphsep.system",
    "graphsep.family",
    "graphsep.export",
    "orient.family",
    "orient.search",
    "orient.check",
    "duality.gate",
    "duality.decide",
    "canonical.canonical",
    "canonical.good",
    "refine.refine",
    "trees.stree",
)

COUNTERS = (
    "io.out_bytes",  # added by the run: bytes the operation wrote to stdout
    "core.seps",
    "graphsep.seps",
    "graphsep.stars",
    "orient.triples",
    "orient.tangles",
    "duality.tangle_verdicts",
    "duality.tree_verdicts",
    "duality.tree_nodes",
    "canonical.rounds",
    "canonical.nested",
    "refine.inessential",
    "refine.members",
    "trees.nodes",
)


def _size(counter):
    def count(counts, result):
        counts[counter] += len(result)

    return count


def _verdict(counts, res):
    counts[f"duality.{res.kind}_verdicts"] += 1
    if res.kind == "tree":
        counts["duality.tree_nodes"] += res.tree.n


def _nested(counts, res):
    counts["canonical.rounds"] += len(res.rounds)
    counts["canonical.nested"] += len(res.nested.members)


def _refined(counts, res):
    counts["refine.inessential"] += len(res.inessential)
    counts["refine.members"] += len(res.refined.members)


def _stree(counts, tree):
    counts["trees.nodes"] += tree.n


# (span name, module, attribute, counter or None).  The attribute is
# replaced where the program looks it up: `cli` calls the io, graphsep,
# orient, duality, canonical and trees functions through their modules,
# but holds its own binding of `order_filtered_system`; methods are
# replaced on their class.
WRAPPED = (
    ("io.load", "io", "load_path", None),
    ("io.load", "io", "load_graph", None),
    ("io.load", "io", "load_family", None),
    ("io.dump", "io", "orientation_to_json", None),
    ("io.dump", "io", "nested_to_json", None),
    ("io.dump", "io", "stree_to_json", None),
    ("io.dump", "io", "dump_json", None),
    ("core.universe", "io", "load_universe", None),
    ("core.system", "io", "load_system", _size("core.seps")),
    ("core.system", "cli", "order_filtered_system", _size("core.seps")),
    ("core.check", "core", "SeparationSystem.submodular_violation", None),
    ("core.check", "core", "order_submodularity_violation", None),
    ("graphsep.system", "graphsep", "graph_separation_system", _size("graphsep.seps")),
    ("graphsep.family", "graphsep", "tk_star_family", _size("graphsep.stars")),
    ("graphsep.export", "graphsep", "decomposition_export", None),
    ("graphsep.export", "graphsep", "GraphDecomposition.to_json", None),
    ("orient.family", "orient", "profile_star_family", _size("orient.triples")),
    ("orient.search", "orient", "enumerate_tangles", _size("orient.tangles")),
    ("orient.check", "orient", "check_star_family", None),
    ("duality.gate", "duality", "check_closed_under_shifting", None),
    ("duality.decide", "duality", "duality_decide", _verdict),
    ("canonical.canonical", "canonical", "canonical_nested_set", _nested),
    ("canonical.good", "canonical", "good_nested_set", _nested),
    ("refine.refine", "refine", "refine_treeset", _refined),
    ("trees.stree", "trees", "NestedSet.is_treeset", None),
    ("trees.stree", "trees", "treeset_to_stree", _stree),
)


class Tracer:
    """Spans kept in memory, and the counters of the current round."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    def call(self, name, fn, args=(), kwargs=None, count=None):
        i = len(self.spans)
        span = [name, None, None, self.stack[-1] if self.stack else None]
        self.spans.append(span)
        self.stack.append(i)
        span[1] = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[2] = perf_counter()
            self.stack.pop()
        if count is not None:
            count(self.counts, result)
        return result

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced


def _parser(tracer, build):
    """cli.build_parser, with both the build and parse_args in cli.parse."""

    def build_parser():
        p = tracer.call("cli.parse", build)
        p.parse_args = tracer.wrap("cli.parse", p.parse_args)
        return p

    return build_parser


@contextlib.contextmanager
def installed(tt, tracer):
    """Wrap every WRAPPED function, and cli.build_parser, on the modules in
    tt for the duration of the block."""
    saved = [(tt.cli, "build_parser", tt.cli.build_parser)]
    tt.cli.build_parser = _parser(tracer, tt.cli.build_parser)
    try:
        for name, module, attr, count in WRAPPED:
            owner = getattr(tt, module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, count))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(spans, first=0):
    """Per span name, the summed self time of spans[first:], in seconds;
    root spans count as cli.glue.  Parents are indices into the whole list."""
    child = defaultdict(float)
    for name, start, end, parent in spans[first:]:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for i in range(first, len(spans)):
        name, start, end, parent = spans[i]
        out["cli.glue" if parent is None else name] += end - start - child[i]
    return out
