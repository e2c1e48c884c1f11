"""Family membership, a binary search of masks_sorted, against the
materialised set of the family's members (its frozensets): on tk-star
families of the corpus and ladder graphs, on profile families, on
families read from files, and on the extensions that refinement builds.
Also what the searches leave on a family: no set of its masks after a
duality run, and no star order that a run did not compute before."""

import json
import random
from dataclasses import replace

import pytest

from tangletree import canonical, cli, duality, graphsep, io, orient, randomgen
from tangletree.core import bit_positions, order_filtered_system

from conftest import BIG_CAPS
from test_corpus import BRANCHWIDTH
from test_profiles import SYSTEMS
from test_stars import ladder_graphs

FOREIGN = ("not", "a member")


def _queries(fam, rng):
    """(sigma, expected) pairs, expected read from fam.stars: every
    member, each member with one position flipped, random sets of 0-4
    members, and members with a value outside the system added, as a
    set or, with an unhashable value, as a list."""
    S = fam.system
    elems = S.oriented
    n = len(elems)
    assert FOREIGN not in S.members
    stars = fam.stars

    def star(m):
        return frozenset(elems[i] for i in bit_positions(m))

    masks = list(fam._masks)
    out = [(star(m), True) for m in masks]
    flipped = [star(m ^ 1 << rng.randrange(n)) for m in masks]
    drawn = [frozenset(rng.sample(elems, rng.randint(0, min(4, n)))) for _ in range(200)]
    out += [(sigma, sigma in stars) for sigma in flipped + drawn]
    some = masks[:: max(1, len(masks) // 50)]
    out += [(star(m) | {FOREIGN}, False) for m in some]
    out += [([*star(m), list(FOREIGN)], False) for m in some]
    return out


def _check(fam, seed=0):
    """The number of queries whose answer is True; asserts each answer."""
    hits = 0
    for sigma, want in _queries(fam, random.Random(seed)):
        assert (sigma in fam) is want, (fam.name, sorted(map(repr, sigma)))
        hits += want
    return hits


def test_an_unhashable_value_is_not_a_member():
    """[[1]] answers False, as every other foreign value does, on the
    tk-star family of a path on 4 vertices; so do values that are not
    collections at all."""
    G = graphsep.Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    S = graphsep.graph_separation_system(G, 2, BIG_CAPS)
    fam = graphsep.tk_star_family(G, 2, S, BIG_CAPS)
    assert len(fam) > 0
    for sigma in ([[1]], [{}], [FOREIGN], [1], ["a"], 1, None, 1.5, object()):
        assert sigma not in fam


def test_tk_star_membership_matches_the_member_set():
    graphs = [(name, graphsep.Graph.from_edges(edges), k)
              for name, (edges, bw) in BRANCHWIDTH.items() for k in (bw, bw + 1)]
    graphs += [(label, G, k) for label, G in ladder_graphs(3) for k in (2, 3)]
    hits = 0
    for label, G, k in graphs:
        S = graphsep.graph_separation_system(G, k, BIG_CAPS)
        fam = graphsep.tk_star_family(G, k, S, BIG_CAPS)
        hits += _check(fam, len(S.oriented))
        assert "_mask_set" not in vars(fam), label
    assert hits > 40_000


def test_profile_and_file_family_membership_matches_the_member_set():
    checked = 0
    U = randomgen.cut_universe(random.Random(40), "pqrstuvw")
    cut = [order_filtered_system(U, k) for k in (3, 5, 7)]
    for S in SYSTEMS + cut:
        fam = orient.profile_star_family(S)
        _check(fam, len(S.oriented))
        # a file of random sets of members, repeats and non-stars included
        rng = random.Random(len(S.oriented))
        sets = [rng.sample(S.oriented, rng.randint(0, min(3, len(S.oriented))))
                for _ in range(30)]
        obj = {"type": "family", "stars": [
            [io.element_to_json(S.universe, x) for x in sigma] for sigma in sets
        ]}
        loaded = io.load_family(json.loads(json.dumps(obj)), S)
        _check(loaded, len(S.oriented))
        checked += 1
    assert checked == len(SYSTEMS) + 3


def test_refinement_extensions_match_the_member_set(monkeypatch):
    """The refine-extension and refined families that refinement builds
    on a ladder graph, captured as StarFamily.extended returns them."""
    made = []
    extended = orient.StarFamily.extended

    def recording(self, extra, name=None):
        out = extended(self, extra, name)
        made.append(out)
        return out

    monkeypatch.setattr(orient.StarFamily, "extended", recording)
    for label, G in ladder_graphs(3):
        if label.startswith(("3xK5", "chain4xK4")):
            S = graphsep.graph_separation_system(G, 3, BIG_CAPS)
            fam = graphsep.tk_star_family(G, 3, S, BIG_CAPS)
            canonical.refined_tree_of_tangles(S, fam, caps=BIG_CAPS)
    names = {fam.name for fam in made}
    assert names == {"refine-extension", "refined"}
    for i, fam in enumerate(made):
        _check(fam, i)


def test_duality_on_6xk3_builds_no_mask_set():
    label, G = [pair for pair in ladder_graphs(3) if pair[0].startswith("6xK3")][0]
    S = graphsep.graph_separation_system(G, 3, BIG_CAPS)
    fam = graphsep.tk_star_family(G, 3, S, BIG_CAPS)
    res = duality.duality_decide(S, fam, replace(BIG_CAPS, max_unoriented=500))
    assert res.kind == "tree" and len(fam) > 30_000
    assert "_mask_set" not in vars(fam)


def _captured_families(monkeypatch):
    """The families cli._family returns, in call order."""
    made = []
    family = cli._family

    def recording(*args):
        fam = family(*args)
        made.append(fam)
        return fam

    monkeypatch.setattr(cli, "_family", recording)
    return made


@pytest.mark.parametrize("command", [["tangles"], ["tree-of-tangles"],
                                     ["tree-of-tangles", "--good"]])
def test_runs_without_refine_put_no_family_in_star_order(monkeypatch, capsys,
                                                         tmp_path, command):
    """A profile family and a file family are kept as built: neither a
    tangles run nor a tree-of-tangles run without --refine sorts them.
    The file holds the profile triples, so both runs find the same
    tangles."""
    rng = random.Random(2)  # 8 separations at k = 11, 23 triples, 6 tangles
    points = list("pqrstu")
    obj = {
        "type": "bipartition", "ground_set": points, "separations": "all",
        "order_weights": {f"{a},{b}": rng.randint(0, 4)
                          for i, a in enumerate(points) for b in points[i + 1:]},
    }
    sys_path = tmp_path / "cut.json"
    sys_path.write_text(json.dumps(obj))
    U = io.load_universe(obj)
    S = order_filtered_system(U, 11, within=io.load_system(obj, U))
    stars = [[io.element_to_json(U, x) for x in sigma]
             for sigma in orient.profile_star_family(S).stars]
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps({"type": "family", "stars": stars}))
    made = _captured_families(monkeypatch)
    outputs = []
    for extra in ([], ["--family", f"file:{fam_path}"]):
        argv = command[:1] + [str(sys_path)] + command[1:] + ["--k", "11"] + extra
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert [fam.name for fam in made] == ["profiles", "file"]
    for fam in made:
        assert len(fam) > 0
        assert "masks_sorted" not in vars(fam), fam.name
