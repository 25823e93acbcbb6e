import json

import pytest

from signforge.cli import run


def invoke(argv):
    """run(), with argparse usage failures mapped to their exit code."""
    try:
        return run(argv)
    except SystemExit as e:
        return e.code


K4_SG = "".join(f"{u} {v} -\n" for u in range(4) for v in range(u))
TRIANGLE_SG = "0 1 +\n1 2 +\n2 0 -\n"


@pytest.fixture
def k4_path(tmp_path):
    p = tmp_path / "k4.sg"
    p.write_text(K4_SG)
    return str(p)


def test_frustration_human_output(k4_path, capsys):
    assert run(["frustration", k4_path]) == 0
    out = capsys.readouterr().out
    assert "ell=2" in out


def test_frustration_json_output(k4_path, capsys):
    assert run(["--json", "frustration", k4_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["frustration_index"] == 2
    assert len(doc["negative_edges"]) == 2


def test_json_output_is_deterministic(k4_path, capsys):
    run(["--json", "frustration", k4_path])
    first = capsys.readouterr().out
    run(["--json", "frustration", k4_path])
    assert capsys.readouterr().out == first


def test_certify_exit_codes(tmp_path, k4_path):
    assert run(["certify", k4_path]) == 0
    bad = tmp_path / "bad.sg"
    bad.write_text(TRIANGLE_SG + "2 3 +\n")  # pendant edge: not critical
    assert run(["certify", str(bad)]) == 2


def test_certify_all_methods(k4_path):
    for method in ("deletion", "signatures", "cuts"):
        assert run(["certify", k4_path, "--method", method]) == 0


def test_usage_errors_exit_64(tmp_path):
    assert invoke(["frustration"]) == 64
    assert invoke(["frustration", str(tmp_path / "missing.sg")]) == 64
    assert invoke(["no-such-command"]) == 64


def test_guard_refusal_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SIGNFORGE_GUARD_OVERRIDE", raising=False)
    out = tmp_path / "enum"
    code = invoke(["enumerate", "--k", "1", "--max-n", "9",
                   "--max-edges", "10", "--out", str(out)])
    assert code == 3
    assert "guard" in capsys.readouterr().err


def test_catalog_list_show_verify(capsys):
    assert run(["catalog", "list"]) == 0
    assert "k4-minus-all" in capsys.readouterr().out
    assert run(["catalog", "show", "k4-minus-all"]) == 0
    capsys.readouterr()
    assert run(["catalog", "verify", "k4-minus-all"]) == 0


def test_construct_ladder_round_trip(tmp_path, capsys):
    out = tmp_path / "g1"
    assert run(["construct", "ladder", "1", "-o", str(out)]) == 0
    capsys.readouterr()
    assert run(["frustration", str(out) + ".sg"]) == 0
    assert "ell=3" in capsys.readouterr().out


def test_construct_planar_ladder_and_faces(tmp_path, capsys):
    out = tmp_path / "lp1"
    assert run(["construct", "ladder", "1", "--planar", "-o", str(out)]) == 0
    capsys.readouterr()
    assert run(["faces", str(out) + ".sg", str(out) + ".rot",
                "--k", "3"]) == 0
    report = capsys.readouterr().out
    assert "'faces': 9" in report and "'negative_bound_ok': True" in report


def test_decompose_and_structure(tmp_path, capsys):
    g = tmp_path / "two.sg"
    g.write_text("0 0 -\n1 1 -\n")
    assert run(["decompose", str(g)]) == 0
    assert "'kind': [1, 1]" in capsys.readouterr().out
    assert run(["structure", str(g)]) == 0


def test_enumerate_writes_manifest(tmp_path):
    out = tmp_path / "enum"
    assert run(["enumerate", "--k", "1", "--max-n", "3",
                "--max-edges", "6", "--irreducible",
                "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["classes"]) == 1
    assert (out / manifest["classes"][0]["file"]).exists()


def test_reproduce_single_criterion(capsys):
    assert run(["reproduce", "--only", "1"]) == 0
    assert "pass" in capsys.readouterr().out.lower()


def test_reproduce_json_output(capsys):
    assert run(["--json", "reproduce", "--only", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1 and doc["command"] == "reproduce"
    assert doc["all_passed"] is True
    (row,) = doc["criteria"]
    assert set(row) == {"number", "name", "passed", "seconds", "detail"}
    assert row["number"] == 1 and row["passed"] is True


@pytest.mark.parametrize("argv", [
    ["construct", "ladder", "abc"],
    ["construct", "hjoin", "{k4}", "x", "{k4}", "0"],
    ["construct", "hjoin", "{k4}", "0"],
    ["construct", "ladder", "1", "2"],
    ["frustration", "{dir}"],
    ["frustration", "{binary}"],
    ["reproduce", "--only", "99"],
])
def test_bad_arguments_and_unreadable_files_exit_64(argv, tmp_path, k4_path,
                                                    capsys):
    binary = tmp_path / "binary.sg"
    binary.write_bytes(b"0 1 \xff\n")
    argv = [a.format(k4=k4_path, dir=tmp_path, binary=binary) for a in argv]
    assert invoke(argv) == 64
    err = capsys.readouterr().err
    assert "error:" in err.strip().splitlines()[-1]


def test_hjoin_edge_id_out_of_range_exits_2(tmp_path, k4_path, capsys):
    out = tmp_path / "j.sg"
    for eid in ("6", "-1"):
        assert run(["construct", "hjoin", k4_path, "0", k4_path, eid,
                    "-o", str(out)]) == 2
        assert "designated edge" in capsys.readouterr().err
    assert not out.exists()
