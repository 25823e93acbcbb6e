from itertools import combinations

import pytest

from signforge import catalog
from signforge.core import parse_sg, serialize_sg, switching_isomorphic
from signforge.catalog import CatalogMismatch


def test_verify_all_passes():
    records = catalog.verify_all()  # raises CatalogMismatch on any difference
    assert set(records) == set(catalog.names())


def test_only_non_decomposable_entries_search_for_a_packing(monkeypatch):
    searched = []
    packing = catalog.has_two_edge_disjoint_negative_cycles
    monkeypatch.setattr(catalog, "has_two_edge_disjoint_negative_cycles",
                        lambda g: searched.append(g) or packing(g))
    records = catalog.verify_all()
    assert len(searched) == sum(
        rec["critical"] and rec["irreducible"] and not rec["decomposable"]
        for rec in records.values())
    assert len(searched) < sum(
        rec["critical"] and rec["irreducible"] for rec in records.values())


def test_tag_census():
    assert catalog.entries_with_tag("L1") == ("c-minus-1",)
    assert set(catalog.entries_with_tag("L2")) == {
        "2c-minus-1", "c-minus-1-pair", "k4-minus-all"}
    assert catalog.entries_with_tag("L2*") == ("k4-minus-all",)
    assert len(catalog.entries_with_tag("P3*")) == 10
    assert set(catalog.entries_with_tag("S3*")) == {"s3-projective", "s3-petersen"}


def test_planar_family_is_pairwise_non_equivalent():
    entries = [catalog.get(n) for n in catalog.entries_with_tag("P3*")]
    for a, b in combinations(entries, 2):
        assert switching_isomorphic(a.graph, b.graph) is None, (a.name, b.name)


def test_alternate_presentation_is_switching_equivalent():
    a = catalog.get("s3-projective").graph
    b = catalog.get("s3-projective-alt").graph
    w = switching_isomorphic(a, b)
    assert w is not None


def test_star_members_are_not_equivalent_to_each_other():
    a = catalog.get("s3-projective").graph
    b = catalog.get("s3-petersen").graph
    assert a.n != b.n  # different orders: trivially inequivalent
    assert switching_isomorphic(a, b) is None


def test_shipped_files_round_trip():
    for name in catalog.names():
        entry = catalog.get(name)
        assert parse_sg(serialize_sg(entry.graph)) == entry.graph


def test_unknown_name_raises():
    with pytest.raises(Exception):
        catalog.get("no-such-graph")


def test_expected_records_have_core_keys():
    for name in catalog.names():
        exp = catalog.get(name).expected
        for key in ("ell", "critical", "irreducible",
                    "decomposable", "in_s_star"):
            assert key in exp, (name, key)


def test_get_hands_out_no_shared_records():
    name = "g7"
    first = catalog.get(name)
    first.expected["ell"] = -1
    first.expected["planar_face_profile"]["faces"] = -1
    second = catalog.get(name)
    assert second.expected["ell"] == 3
    assert second.expected["planar_face_profile"]["faces"] == 6
    assert second.graph is not first.graph


def _build_script():
    import importlib.util
    import pathlib
    pytest.importorskip("networkx")  # the script's planarity test
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / \
        "build_catalog_data.py"
    spec = importlib.util.spec_from_file_location("build_catalog_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_script_verifies_before_it_writes(monkeypatch, tmp_path):
    build = _build_script()
    picked = [e for e in build.ENTRIES if e[0] in ("c-minus-1", "k4-minus-all")]
    monkeypatch.setattr(build, "DATA", tmp_path)
    # a wrong record on the last entry: nothing may be written at all
    name, desc, payload, want_rot, expected, tags = picked[-1]
    wrong = (name, desc, payload, want_rot, {**expected, "ell": 3}, tags)
    monkeypatch.setattr(build, "ENTRIES", picked[:-1] + [wrong])
    with pytest.raises(CatalogMismatch):
        build.main()
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(build, "ENTRIES", picked)
    build.main()
    for name in ("c-minus-1.sg", "k4-minus-all.sg", "k4-minus-all.rot"):
        assert (tmp_path / name).read_text() == \
            (catalog._data_root() / name).read_text()
