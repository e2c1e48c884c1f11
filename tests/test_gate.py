"""The precondition gate of duality, refinement and the canonical
constructions: each refusal through every entry point and the CLI, the
shift policy, the facts the gate keeps, and the traced benchmark's hold
on the functions it wraps."""

import importlib
import inspect
import json
import sys
import types
from pathlib import Path

import pytest

from tangletree import canonical, core, duality, graphsep, io, orient, refine
from tangletree.cli import main
from tangletree.config import Caps
from tangletree.errors import InputError

import oracles
from conftest import BIG_CAPS, triangle_tripod_edges

REPO = Path(__file__).resolve().parent.parent

# name -> (ground set, separations, family stars, refusal message)
CASES = {
    "not-submodular": (
        ["a", "b", "c", "d"], [["a", "b"], ["a", "c"]], [],
        "system is not submodular",
    ),
    "missing-trivial-singleton": (
        ["a", "b", "c"], "all", [],
        "family is not standard",
    ),
    "not-shift-closed": (
        ["a", "b", "c", "d"],
        [[], ["a"], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]],
        [[["a"]], [["a", "b", "c", "d"]]],
        "family is not closed under shifting",
    ),
    "unknown-closure-above-limit": (
        ["a", "b", "c", "d", "e"], "all", [[["a", "b", "c", "d", "e"]]],
        "closure under shifting is unknown: 16 separations exceed "
        "full_shift_check_limit 12",
    ),
}


def _objects(case):
    points, seps, stars, _ = CASES[case]
    sys_obj = {"type": "bipartition", "ground_set": points, "separations": seps}
    return sys_obj, {"type": "family", "stars": stars}


def _loaded(case):
    sys_obj, fam_obj = _objects(case)
    U = io.load_universe(sys_obj)
    S = io.load_system(sys_obj, U)
    return S, io.load_family(fam_obj, S)


def _files(tmp_path, case):
    sys_obj, fam_obj = _objects(case)
    sys_path, fam_path = tmp_path / "sys.json", tmp_path / "fam.json"
    sys_path.write_text(json.dumps(sys_obj))
    fam_path.write_text(json.dumps(fam_obj))
    return str(sys_path), f"file:{fam_path}"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _tripod():
    """A fresh triangle tripod at k=2: 11 separations, one inessential node."""
    G = graphsep.Graph.from_edges(triangle_tripod_edges())
    S = graphsep.graph_separation_system(G, 2, BIG_CAPS)
    return G, S, graphsep.tk_star_family(G, 2, S, BIG_CAPS)


# -- each refusal, through every entry point --


@pytest.mark.parametrize("case", CASES)
def test_duality_decide_refuses(case):
    S, fam = _loaded(case)
    with pytest.raises(InputError, match=CASES[case][3]):
        duality.duality_decide(S, fam)


@pytest.mark.parametrize("case", CASES)
def test_refine_star_refuses(case):
    S, fam = _loaded(case)
    sigma = frozenset((S.separations[-1],))
    with pytest.raises(InputError, match=CASES[case][3]):
        refine.refine_star(S, sigma, fam)


@pytest.mark.parametrize("case", CASES)
def test_cli_duality_refuses_with_exit_2(capsys, tmp_path, case):
    sys_path, famspec = _files(tmp_path, case)
    code, out, err = _run(capsys, "duality", sys_path, "--family", famspec)
    assert code == 2
    assert out == ""
    assert CASES[case][3] in err


def test_each_position_scan_refuses_a_family_over_another_system():
    """The scans read a family's masks as positions in S.oriented, which
    they are only when S has the family's members.  The triangle's
    tk-star family at k=2, over its system at k=3, is refused by each."""
    G = graphsep.Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    S, small = (graphsep.graph_separation_system(G, k, BIG_CAPS) for k in (3, 2))
    fam = graphsep.tk_star_family(G, 3, S, BIG_CAPS)
    other = graphsep.tk_star_family(G, 2, small, BIG_CAPS)
    tree = duality.cover_tree(S, fam, BIG_CAPS)
    r = tree.leaf_separations()[0]
    assert small.members < S.members and len(other) > 0
    for scan in (
        lambda: orient.enumerate_tangles(S, other, BIG_CAPS),
        lambda: duality.preconditions(S, other, BIG_CAPS),
        lambda: duality.shifting_closure_violation(S, other),
        lambda: duality.cover_tree(S, other, BIG_CAPS),
        lambda: duality.shift_stree(tree, r, r, other),
    ):
        with pytest.raises(InputError, match="family is over a different system"):
            scan()


def test_constructions_refuse_a_non_submodular_system():
    S, fam = _loaded("not-submodular")
    profiles = [
        O for O in orient.consistent_orientations(S) if oracles.is_profile(S, O)
    ]
    assert len(profiles) >= 2
    for build in (canonical.canonical_nested_set, canonical.good_nested_set):
        with pytest.raises(InputError, match="system is not submodular"):
            build(S, profiles)


@pytest.mark.parametrize("extra", [[], ["--good"], ["--refine"]])
def test_cli_tree_of_tangles_refuses_a_non_submodular_system(
    capsys, tmp_path, extra
):
    sys_path, famspec = _files(tmp_path, "not-submodular")
    code, out, err = _run(
        capsys, "tree-of-tangles", sys_path, "--family", famspec, *extra
    )
    assert code == 2
    assert out == ""
    assert "system is not submodular" in err


def _without_regularity_singleton(S, fam):
    """The family less the inverse singleton of the first small member
    that is not trivial, and that member."""
    U = S.universe
    x = next(
        x for x in S.small_members()
        if x != U.invert(x) and not S.classify(x).trivial
    )
    stars = fam.stars - {frozenset((U.invert(x),))}
    return orient.StarFamily(S, stars), x


def test_refine_star_refuses_a_missing_regularity_singleton():
    _, S, fam = _tripod()
    thin, x = _without_regularity_singleton(S, fam)
    assert thin.missing_trivial_singleton is None
    assert thin.missing_small_singleton == x
    U = S.universe
    sigma = frozenset((U.invert(x),))
    with pytest.raises(InputError, match="lacks the regularity singleton"):
        refine.refine_star(S, sigma, thin, caps=BIG_CAPS)
    # duality does not need regularity; its gate lets the family through
    duality.preconditions(S, thin, BIG_CAPS)


def test_cli_refine_refuses_a_missing_regularity_singleton(capsys, tmp_path):
    G, S, fam = _tripod()
    thin, _ = _without_regularity_singleton(S, fam)
    U = S.universe
    graph_path = tmp_path / "tripod.txt"
    graph_path.write_text("".join(f"{u} {v}\n" for u, v in triangle_tripod_edges()))
    fam_path = tmp_path / "thin.json"
    fam_path.write_text(json.dumps({"stars": [
        [io.element_to_json(U, x) for x in sigma] for sigma in thin.stars_sorted
    ]}))
    code, out, err = _run(
        capsys, "tree-of-tangles", str(graph_path), "--k", "2", "--refine",
        "--family", f"file:{fam_path}",
    )
    assert code == 2
    assert out == ""
    assert "lacks the regularity singleton" in err


# -- the shift policy and what check reports --


def test_small_tk_star_family_is_verified_not_trusted(monkeypatch):
    _, S, fam = _tripod()
    assert len(S) <= BIG_CAPS.full_shift_check_limit
    assert fam.closed_under_shifting is True
    runs = []
    check = duality.check_closed_under_shifting

    def counting(S, family):
        runs.append(family)
        return check(S, family)

    monkeypatch.setattr(duality, "check_closed_under_shifting", counting)
    assert duality.shift_verdict(S, fam, BIG_CAPS) == "verified"
    assert duality.shift_verdict(S, fam, BIG_CAPS) == "verified"
    assert runs == [fam]  # checked once, then kept on the family
    below = Caps(full_shift_check_limit=len(S) - 1)
    assert duality.shift_verdict(S, fam, below) == "trusted"
    assert duality.shift_verdict(S, orient.StarFamily(S, fam.stars), below) == "unknown"


def test_check_reports_the_shift_verdict(capsys, tmp_path):
    sys_path, famspec = _files(tmp_path, "not-shift-closed")
    code, out, err = _run(capsys, "check", sys_path, "--family", famspec)
    assert code == 1
    assert "violation: family-shift-closed: not closed under shifting" in out
    assert err == ""

    sys_path, famspec = _files(tmp_path, "unknown-closure-above-limit")
    code, out, err = _run(capsys, "check", sys_path, "--family", famspec)
    assert code == 0
    assert "family-shift-closed" not in out


def test_check_output_does_not_depend_on_jobs(capsys, tmp_path):
    sys_path, famspec = _files(tmp_path, "not-shift-closed")
    graph_path = tmp_path / "triangles.txt"  # four triangles at one vertex
    graph_path.write_text("".join(
        f"v {b}1\nv {b}2\n{b}1 {b}2\n" for b in "abcd"
    ))
    for argv in (
        ["check", sys_path, "--family", famspec],
        ["check", str(graph_path), "--k", "2"],
    ):
        one = _run(capsys, *argv, "--jobs", "1")
        four = _run(capsys, *argv, "--jobs", "4")
        assert one == four


# -- facts kept, not recomputed --


def test_refined_tree_runs_full_submodularity_once(monkeypatch):
    _, S, fam = _tripod()
    runs = []
    violation = core.SeparationSystem.submodular_violation

    def counting(self):
        if self is S:
            runs.append(self)
        return violation(self)

    monkeypatch.setattr(core.SeparationSystem, "submodular_violation", counting)
    res = canonical.refined_tree_of_tangles(S, fam, caps=BIG_CAPS)
    assert len(res.refinement.inessential) >= 1  # refinement passed the gate
    assert len(runs) == 1


def test_the_gate_builds_no_set_of_the_family():
    # the singleton questions read one bitset; the member set of a mask
    # family is built only when membership is asked
    for k, edges in ((2, triangle_tripod_edges()), (3, _glued_triangles(6))):
        G = graphsep.Graph.from_edges(edges)
        S = graphsep.graph_separation_system(G, k, BIG_CAPS)
        fam = graphsep.tk_star_family(G, k, S, BIG_CAPS)
        duality.preconditions(S, fam, BIG_CAPS, regular=True)
        assert fam.missing_trivial_singleton is None
        assert fam.missing_small_singleton is None
        assert "_mask_set" not in vars(fam)


def _glued_triangles(count):
    return [
        edge for b in range(count)
        for edge in (("hub", f"t{b}a"), ("hub", f"t{b}b"), (f"t{b}a", f"t{b}b"))
    ]


def test_closure_declaration_is_fixed_at_construction():
    _, S, fam = _tripod()
    with pytest.raises(AttributeError):
        fam.closed_under_shifting = False
    assert orient.StarFamily(S, fam.stars).closed_under_shifting is False
    assert fam.extended([]).closed_under_shifting is False


def test_extended_checks_only_the_added_stars(monkeypatch, u4, s4):
    fam = orient.StarFamily(s4, [frozenset((0,)), frozenset((u4.mask_of(["a"]),))])
    calls = []
    all_star_masks = orient._all_star_masks

    def counting(S, masks):
        calls.append(tuple(masks))
        return all_star_masks(S, masks)

    monkeypatch.setattr(orient, "_all_star_masks", counting)
    new = frozenset((u4.mask_of(["b"]),))
    bigger = fam.extended([new, frozenset((0,))])
    assert calls == [(s4.member_mask(new),)]
    assert bigger.stars == fam.stars | {new}
    with pytest.raises(InputError):
        fam.extended([frozenset((u4.mask_of(["a", "b"]), u4.mask_of(["a", "c"])))])


def test_extended_refuses_a_base_with_non_stars(s4):
    profiles = orient.profile_star_family(s4)
    assert not profiles.stars_only
    with pytest.raises(InputError):
        profiles.extended([frozenset((0,))])


# -- the traced benchmark wraps these names --


def test_benchmark_spans_wrap_plain_functions(capsys, tmp_path):
    path = REPO / "benchmark" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)

    def ours():
        return [m for m in sys.modules if m == "tangletree" or m.startswith("tangletree.")]

    saved = {m: sys.modules.pop(m) for m in ours()}
    try:
        modules = {module for _, module, _, _ in spans.WRAPPED} | {"cli"}
        tt = types.SimpleNamespace(**{
            m: importlib.import_module(f"tangletree.{m}") for m in modules
        })
        assert tt.cli is not saved["tangletree.cli"]
        targets = []
        wrapped = [(module, attr) for _, module, attr, _ in spans.WRAPPED]
        for module, attr in wrapped + [("cli", "build_parser")]:
            owner = getattr(tt, module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            fn = vars(owner).get(attr)
            assert inspect.isfunction(fn), f"{module}.{attr} is not a plain function"
            targets.append((owner, attr, fn))
        graph_path = tmp_path / "path.txt"
        graph_path.write_text("a b\nb c\nc d\n")
        tracer = spans.Tracer()
        with spans.installed(tt, tracer):
            assert all(vars(owner)[attr] is not fn for owner, attr, fn in targets)
            assert tt.cli.main(["check", str(graph_path), "--k", "2"]) == 0
        assert "ok: family-shift-closed" in capsys.readouterr().out
        assert {"core.check", "duality.gate"} <= {s[0] for s in tracer.spans}
        assert all(vars(owner)[attr] is fn for owner, attr, fn in targets)
    finally:
        for m in ours():
            del sys.modules[m]
        sys.modules.update(saved)
