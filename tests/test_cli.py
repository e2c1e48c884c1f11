"""End-to-end command-line runs, in process."""

import ast
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from tangletree.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src" / "tangletree"


@pytest.fixture
def path4(tmp_path):
    f = tmp_path / "path4.txt"
    f.write_text("a b\nb c\nc d\n")
    return str(f)


@pytest.fixture
def p3_file(tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text("# tiny path\na b\nb c\n")
    return str(f)


@pytest.fixture
def bip_file(tmp_path):
    f = tmp_path / "bip.json"
    f.write_text(
        json.dumps(
            {
                "type": "bipartition",
                "ground_set": ["a", "b", "c", "d"],
                "separations": "all",
            }
        )
    )
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes --


def test_check_ok(capsys, path4):
    code, out, _ = run(capsys, "check", path4, "--k", "2")
    assert code == 0
    assert "ok: graph-connected" in out
    assert "ok: system-submodular" in out
    assert "ok: family-shift-closed" in out
    assert "system: 7 separations" in out


def test_check_reports_violation(capsys, tmp_path):
    f = tmp_path / "disc.json"
    f.write_text(
        json.dumps(
            {"type": "graph", "edges": [["a", "b"]], "vertices": ["z"]}
        )
    )
    code, out, _ = run(capsys, "check", str(f), "--k", "2")
    assert code == 1
    assert "violation: graph-connected" in out


def test_check_reports_a_non_submodular_order(capsys, tmp_path):
    # the square bot < a, b < top, with top and bot of order 1/2 and a
    # and b of 1/3: a v b and a ^ b sum to 1, a and b to 2/3
    f = tmp_path / "square.json"
    f.write_text(json.dumps({
        "type": "table",
        "elements": ["bot", "a", "b", "top"],
        "involution": [3, 2, 1, 0],
        "leq_pairs": [[0, 1], [0, 2], [1, 3], [2, 3]],
        "order": ["1/2", "1/3", "1/3", "1/2"],
    }))
    code, out, _ = run(capsys, "check", str(f))
    assert code == 1
    lines = out.splitlines()
    assert "violation: order-submodular: order fails submodularity" in lines
    assert "ok: system-submodular" in lines
    assert "system: 2 separations, 4 oriented" in lines


def test_check_samples_the_order_scan_by_seed(capsys, tmp_path, monkeypatch):
    # the path on seven vertices has 128 oriented separations of order
    # below 3, more than the 120 that check scans exhaustively
    f = tmp_path / "p7.txt"
    f.write_text("".join(f"v{i} v{i + 1}\n" for i in range(6)))
    from tangletree import core

    scanned = []
    scan = core.order_submodularity_violation

    def recording(U, elems):
        scanned.append(list(elems))
        return scan(U, elems)

    monkeypatch.setattr(core, "order_submodularity_violation", recording)
    outs = [
        run(capsys, "check", str(f), "--k", "3", "--max-seps", "200", "--seed", seed)
        for seed in ("4", "4", "5")
    ]
    assert outs[0] == outs[1]
    lines = outs[0][1].splitlines()
    assert outs[0][0] == 0
    assert "ok: order-submodular (sampled 120 of 128 members, seed 4)" in lines
    assert "ok: order-submodular (sampled 120 of 128 members, seed 5)" in outs[2][1]
    assert "system: 64 separations, 128 oriented" in lines
    assert [len(s) for s in scanned] == [120, 120, 120]
    assert scanned[0] == scanned[1] != scanned[2]
    assert len(set(scanned[0])) == 120

    # a violation found in the sample is marked the same way
    monkeypatch.setattr(core, "order_submodularity_violation", lambda U, elems: (0, 0))
    code, out, _ = run(capsys, "check", str(f), "--k", "3", "--max-seps", "200", "--seed", "4")
    assert code == 1
    assert ("violation: order-submodular (sampled 120 of 128 members, seed 4): "
            "order fails submodularity") in out.splitlines()


def test_check_says_nothing_of_sampling_when_it_scans_every_member(capsys, path4):
    code, out, _ = run(capsys, "check", path4, "--k", "2")
    assert code == 0 and "ok: order-submodular" in out.splitlines()
    assert "sampled" not in out


def test_check_accepts_an_empty_builtin_family_as_duality_does(capsys, tmp_path):
    # pair weights drawn as randomgen.cut_universe draws them; at k 1 the
    # system is {empty, full} and every profile triple of it is dead
    pts = ["a", "b", "c", "d"]
    rng = random.Random(0)
    weights = {f"{a},{b}": rng.randint(0, 4) for a, b in combinations(pts, 2)}
    f = tmp_path / "cut.json"
    f.write_text(json.dumps({"type": "bipartition", "ground_set": pts,
                             "separations": "all", "order_weights": weights}))
    code, out, _ = run(capsys, "check", str(f), "--k", "1")
    assert code == 0 and "family: 0 members" in out.splitlines()
    assert "family-nonempty" not in out
    code, out, _ = run(capsys, "duality", str(f), "--k", "1")
    assert code == 0 and "kind: tangle" in out.splitlines()
    # an empty family from a file is still reported
    fam = tmp_path / "empty.json"
    fam.write_text(json.dumps({"stars": []}))
    code, out, _ = run(capsys, "check", str(f), "--k", "1", "--family", f"file:{fam}")
    assert code == 1
    assert "violation: family-nonempty: empty family" in out.splitlines()


def test_missing_k_is_input_error(capsys, path4):
    code, _, err = run(capsys, "tangles", path4)
    assert code == 2
    assert "input error" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "check", "/no/such/file", "--k", "2")
    assert code == 2
    assert "input error" in err


def test_tiny_cap_is_resource_error(capsys, path4):
    code, _, err = run(capsys, "tangles", path4, "--k", "2", "--max-seps", "2")
    assert code == 3
    assert "resource cap" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_non_positive_cap_is_input_error(capsys, path4, cap):
    # 0 once ran with the default cap, and -3 ended as a resource cap
    code, out, err = run(capsys, "tangles", path4, "--k", "2", "--max-seps", cap)
    assert code == 2 and out == ""
    assert err == f"input error: --max-seps must be positive, got {cap}\n"


def test_unknown_family_is_input_error(capsys, path4):
    code, _, err = run(
        capsys, "tangles", path4, "--k", "2", "--family", "wavelets"
    )
    assert code == 2


# -- tangles --


def test_tangles_json(capsys, p3_file):
    code, out, _ = run(capsys, "tangles", p3_file, "--k", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert len(payload["tangles"]) == 2


def test_tangles_text(capsys, path4):
    code, out, _ = run(capsys, "tangles", path4, "--k", "2")
    assert code == 0
    assert out.startswith("3 tangles")


# -- duality --


def test_duality_tangle_branch(capsys, p3_file):
    code, out, _ = run(capsys, "duality", p3_file, "--k", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "tangle"
    assert payload["tangle"]


def test_duality_tree_branch(capsys, p3_file):
    # k = 3 exceeds the path's tangle order, so the family wins
    code, out, _ = run(capsys, "duality", p3_file, "--k", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "tree"
    assert payload["tree"]["vertices"] == 4


def test_duality_dot(capsys, p3_file):
    code, out, _ = run(capsys, "duality", p3_file, "--k", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("graph stree {")


def test_duality_dot_refuses_a_tangle(capsys, p3_file):
    # a tangle has no DOT form; stdout must not carry text a DOT reader chokes on
    code, out, err = run(capsys, "duality", p3_file, "--k", "2", "--format", "dot")
    assert code == 2
    assert out == ""
    assert err == "input error: the answer is a tangle; no dot output\n"


# -- tree of tangles --


def test_tree_of_tangles_json(capsys, path4):
    code, out, _ = run(
        capsys, "tree-of-tangles", path4, "--k", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tangles"] == 3
    assert len(payload["nested"]) == 2
    assert payload["tree"]["vertices"] == 3
    dec = payload["decomposition"]
    assert dec["width"] == 1
    assert sorted(map(tuple, dec["parts"])) == [
        ("a", "b"),
        ("b", "c"),
        ("c", "d"),
    ]


def test_tree_of_tangles_trace(capsys, path4):
    code, out, _ = run(
        capsys,
        "tree-of-tangles",
        path4,
        "--k",
        "2",
        "--format",
        "json",
        "--trace",
    )
    payload = json.loads(out)
    assert payload["trace"]["rounds"]


def test_tree_of_tangles_refine_flag(capsys, path4):
    code, out, _ = run(
        capsys,
        "tree-of-tangles",
        path4,
        "--k",
        "2",
        "--refine",
        "--format",
        "json",
        "--trace",
    )
    assert code == 0
    payload = json.loads(out)
    assert "inessential" in payload["trace"]


def test_tree_of_tangles_good_flag(capsys, path4):
    code, out, _ = run(
        capsys, "tree-of-tangles", path4, "--k", "2", "--good", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nested"]) >= 2


def test_tree_of_tangles_refine_and_good_exclude_each_other(capsys, path4):
    with pytest.raises(SystemExit) as exc:
        main(["tree-of-tangles", path4, "--k", "2", "--good", "--refine"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_tree_of_tangles_dot(capsys, path4):
    code, out, _ = run(
        capsys, "tree-of-tangles", path4, "--k", "2", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("graph decomposition {")
    assert "{a,b}" in out


def test_bipartition_profiles(capsys, bip_file):
    code, out, _ = run(
        capsys,
        "tree-of-tangles",
        bip_file,
        "--family",
        "profiles",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tangles"] == 4
    # canonical orientations: {d}|{a,b,c} serialises by its smaller mask
    assert sorted(payload["nested"]) == [["a"], ["a", "b", "c"], ["b"], ["c"]]


# -- determinism --


def test_repeated_runs_identical(capsys, path4):
    _, out1, _ = run(
        capsys, "tree-of-tangles", path4, "--k", "2", "--format", "json", "--trace"
    )
    _, out2, _ = run(
        capsys, "tree-of-tangles", path4, "--k", "2", "--format", "json", "--trace"
    )
    assert out1 == out2


def test_jobs_do_not_change_output(capsys, path4):
    _, out1, _ = run(capsys, "check", path4, "--k", "2", "--jobs", "1")
    _, out2, _ = run(capsys, "check", path4, "--k", "2", "--jobs", "4")
    assert out1 == out2


# -- the option surface: each command accepts only the flags it reads --

KEPT = {
    "check": {"--seed": "4"},
    "tangles": {"--format": "json"},
    "duality": {"--format": "dot"},
    "tree-of-tangles": {"--format": "dot", "--trace": None, "--refine": None},
}
REMOVED = [
    ("check", "--format", "json"),
    ("check", "--trace", None),
    ("tangles", "--seed", "1"),
    ("tangles", "--trace", None),
    ("duality", "--seed", "1"),
    ("duality", "--trace", None),
    ("tree-of-tangles", "--seed", "1"),
]


def _argv(command, flags):
    argv = [command, "in.txt"]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.mark.parametrize("command", sorted(KEPT))
def test_each_command_parses_exactly_its_own_flags(command):
    flags = {"--k": "2", "--family": "profiles", "--max-seps": "9", "--jobs": "2"}
    flags.update(KEPT[command])
    args = build_parser().parse_args(_argv(command, flags))
    dests = {f[2:].replace("-", "_") for f in flags}
    if command == "tree-of-tangles":
        dests.add("good")
    assert set(vars(args)) == dests | {"command", "fn", "input"}
    assert (args.k, args.family, args.max_seps, args.jobs) == (2, "profiles", 9, 2)
    for flag, value in KEPT[command].items():
        got = getattr(args, flag[2:])
        assert got == (True if value is None else type(got)(value))


@pytest.mark.parametrize("command, flag, value", REMOVED)
def test_a_flag_the_command_does_not_read_is_refused(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(_argv(command, {flag: value}))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_every_parameter_under_src_is_read():
    """A function parameter its body never reads is an option nothing
    takes.  Exempt are self and cls, and interface stubs whose body,
    after the docstring, is a single raise."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(fn, ast.Lambda):
                body = [fn.body]
            else:
                body = fn.body[ast.get_docstring(fn) is not None:]
            if len(body) == 1 and isinstance(body[0], ast.Raise):
                continue
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            a = fn.args
            for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if p and p.arg not in read and p.arg not in ("self", "cls"):
                    unread.append(f"{path.name}:{fn.lineno} {p.arg}")
    assert unread == []


# -- malformed inputs end as input errors --


@pytest.mark.parametrize(
    "obj",
    [
        {
            "type": "bipartition",
            "ground_set": ["a", "b"],
            "order_weights": {"a,z": 1},
        },
        {"type": "table", "elements": ["x", "y"], "involution": [1, 0]},
        {"type": "graph", "edges": [["a", "b"]], "vertices": [["a", "b"]]},
    ],
    ids=["unknown-weight-point", "table-without-leq-pairs", "list-vertex"],
)
def test_malformed_input_is_input_error(capsys, tmp_path, obj):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    code, _, err = run(capsys, "tangles", str(f), "--k", "1")
    assert code == 2
    assert err.startswith("input error:")


def test_family_file_without_type_tag(capsys, tmp_path):
    sysfile = tmp_path / "sys.json"
    sysfile.write_text(
        json.dumps(
            {"type": "bipartition", "ground_set": ["a", "b", "c"], "separations": "all"}
        )
    )
    stars = [[["a", "b", "c"]], [["a"], ["b"], ["c"]]]
    untagged = tmp_path / "family.json"
    untagged.write_text(json.dumps({"stars": stars}))
    tagged = tmp_path / "tagged.json"
    tagged.write_text(json.dumps({"type": "family", "stars": stars}))
    outs = []
    for fam in (untagged, tagged):
        code, out, err = run(
            capsys, "tangles", str(sysfile), "--family", f"file:{fam}",
            "--format", "json",
        )
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    # {a}, {b}, {c} cover the ground set, so no orientation holding all
    # three of them is a tangle; the point orientations remain
    assert json.loads(outs[0])["count"] == 3


# -- large systems --


def test_duality_on_more_than_a_thousand_separations(capsys, tmp_path):
    # seven triangles sharing one vertex: 1,066 separations of order < 3,
    # more than the interpreter's default recursion limit, and no 3-tangle
    f = tmp_path / "7xK3.txt"
    f.write_text(
        "".join(f"hub t{b}a\nhub t{b}b\nt{b}a t{b}b\n" for b in range(7))
    )
    code, out, err = run(
        capsys, "duality", str(f), "--k", "3", "--max-seps", "2000",
        "--format", "json",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["kind"] == "tree"
    assert payload["tree"]["edges"]


def test_tree_of_tangles_past_twenty_vertices(capsys, tmp_path):
    # five K5 sharing one vertex: 21 vertices, 547 separations of order
    # < 3, and one 3-tangle per K5
    blocks = [["hub"] + [f"k{b}v{i}" for i in range(4)] for b in range(5)]
    f = tmp_path / "5xK5.txt"
    f.write_text(
        "".join(f"{u} {v}\n" for blk in blocks for u, v in combinations(blk, 2))
    )
    code, out, err = run(
        capsys, "tree-of-tangles", str(f), "--k", "3", "--max-seps", "2000",
        "--refine", "--format", "json",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["tangles"] == 5
    parts = payload["decomposition"]["parts"]
    assert all(blk in parts for blk in blocks)
