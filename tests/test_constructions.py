import os
import pathlib
import subprocess
import sys

import pytest

from signforge import catalog
from signforge.constructions import ghat, ghat_decomposition_cycles, ghat_planar, h_join
from signforge.core import build_graph, cut, switching_isomorphic
from signforge.criticality import METHODS, certify, is_critical
from signforge.cycles import has_two_edge_disjoint_negative_cycles, packing_number
from signforge.errors import PreconditionError
from signforge.frustration import frustration_index
from signforge.planar import faces, verify_planar_critical
from signforge.structure import is_decomposable, is_irreducible

from strategies import k4_all_negative


@pytest.mark.parametrize("t", range(5))
def test_ladder_family_invariants(t):
    g = ghat(t)
    assert g.n == 4 + 2 * t and g.m == 4 * t + 8
    assert len(g.negative_edge_ids) == 3
    assert frustration_index(g).index == 3
    assert is_irreducible(g)


@pytest.mark.parametrize("t", range(3))
def test_ladder_family_is_critical_and_decomposable(t):
    g = ghat(t)
    assert is_critical(g, 3)
    assert is_decomposable(g, 3)
    assert packing_number(g) == 3


def _resolve_walks(g, walks):
    """Assign distinct edge ids to the closed walks, if possible."""
    steps = []
    for wi, walk in enumerate(walks):
        for u, v in zip(walk, walk[1:]):
            cands = [e.eid for e in g.edges if {e.u, e.v} == {u, v}]
            steps.append((wi, cands))

    def assign(i, used):
        if i == len(steps):
            return []
        wi, cands = steps[i]
        for eid in cands:
            if eid in used:
                continue
            rest = assign(i + 1, used | {eid})
            if rest is not None:
                return [(wi, eid)] + rest
        return None

    return assign(0, set())


def test_ladder_decomposition_cycles_partition_into_negative_cycles():
    for t in range(4):
        g = ghat(t)
        walks = ghat_decomposition_cycles(t)
        assert len(walks) == 3
        chosen = _resolve_walks(g, walks)
        assert chosen is not None
        assert len(chosen) == g.m  # the three cycles use every edge once
        for wi in range(3):
            eids = [eid for w, eid in chosen if w == wi]
            signs = [g.edges[eid].sign for eid in eids]
            assert signs.count(-1) % 2 == 1  # each resolved cycle is negative


def test_planarized_ladder_cuts_and_faces():
    for t in (1, 2):
        g, rot, cuts = ghat_planar(t)
        assert frustration_index(g).index == 3
        for side in cuts:
            assert cut(g, side).equilibrated
        rep = verify_planar_critical(g, rot, 3)
        assert rep.face_count == 2 * t + 7
        assert rep.negative_bound_ok and not rep.all_faces_negative
    for t in range(1, 7):
        g, rot, _ = ghat_planar(t)
        fs = faces(g, rot)
        assert len(fs) == 2 * t + 7 == g.m - g.n + 2
        if t <= 3:  # the shipped rotations of the catalog entries
            assert fs == faces(g, catalog.get(f"ladder-planar-{t}").rotation)


def test_package_imports_without_networkx():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, signforge, signforge.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('networkx')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_planarized_ladder_requires_t_at_least_1():
    with pytest.raises(PreconditionError):
        ghat_planar(0)


def test_join_of_two_k4_blocks():
    a, b = k4_all_negative(), k4_all_negative()
    j = h_join(a, 0, b, 0)
    assert j.n == 8 and j.m == 12
    assert frustration_index(j).index == 3
    for method in METHODS:
        assert certify(j, 3, method=method).critical
    assert is_irreducible(j)
    assert not is_decomposable(j, 3)
    # non-decomposable, yet each block keeps a negative triangle: the join
    # has two edge-disjoint negative cycles, so it misses the star class
    assert has_two_edge_disjoint_negative_cycles(j)


def test_join_rejects_positive_designated_edge():
    a = k4_all_negative()
    b = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")])
    with pytest.raises(PreconditionError):
        h_join(a, 0, b, 0)


def test_join_rejects_loop_designated_edge():
    a = k4_all_negative()
    b = build_graph([(0, 0, "-"), (0, 1, "-"), (0, 1, "-")])
    with pytest.raises(PreconditionError):
        h_join(a, 0, b, 0)


def test_ladder_0_matches_catalog_entry():
    assert switching_isomorphic(ghat(0), catalog.get("ladder-0").graph) is not None
