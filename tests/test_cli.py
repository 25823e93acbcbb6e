import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from signforge import catalog, guards
from signforge.cli import run
from signforge.constructions import ghat_planar
from signforge.core import build_graph, parse_sg, serialize_sg
from signforge.criticality import METHODS
from signforge.errors import SignforgeError
from signforge.planar import RotationSystem, serialize_rot


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


@pytest.mark.parametrize("argv, sg", [
    # 1200 components of two vertices: one decomposition part per level
    (["decompose"], "".join(f"{2 * i} {2 * i + 1} -\n{2 * i} {2 * i + 1} +\n"
                            for i in range(1200))),
    # one 1500-vertex cycle: one cycle-walk level per path step
    (["decompose", "--k", "2"], "".join(f"{i} {(i + 1) % 1500} -\n"
                                        for i in range(1500))),
], ids=["digons", "long-cycle"])
def test_recursion_past_the_limit_exits_3(tmp_path, capsys, monkeypatch,
                                          argv, sg):
    monkeypatch.setenv("SIGNFORGE_GUARD_OVERRIDE", "1")  # it cannot help
    p = tmp_path / "deep.sg"
    p.write_text(sg)
    assert invoke(argv + [str(p)]) == 3
    err = capsys.readouterr().err
    assert "recursion limit" in err and "cannot lift" in err


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


@pytest.mark.parametrize("name", ["lp1", "lp1.sg"])
def test_construct_planar_ladder_and_faces(tmp_path, capsys, name):
    out = tmp_path / "lp1"
    assert run(["construct", "ladder", "1", "--planar", "-o",
                str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lp1.rot", "lp1.sg"]
    assert run(["faces", str(out) + ".sg", str(out) + ".rot",
                "--k", "3"]) == 0
    report = capsys.readouterr().out
    assert "'faces': 9, 'negative_faces': 2" in report
    assert "negative_bound_ok" not in report


G7_FACES = [[0, 1, 10, 5], [0, 6, 8], [1, 8, 7, 2], [2, 3, 4, 10],
            [3, 7, 9], [4, 9, 6, 5]]
G7_REPORT = {"k": 3, "faces": 6, "negative_faces": 6,
             "all_faces_negative": True, "face_count_is_2k": True,
             "one_negative_edge_per_face": True}


def faces_input(case):
    """(graph, rotation, k) of a faces --k case."""
    if case == "g7":
        entry = catalog.get("g7")
        return entry.graph, entry.rotation, 3
    if case == "pendant":  # a negative triangle and a pendant edge: k = 1
        g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-"), (2, 3, "+")])
        return g, RotationSystem({0: ((0, 0), (2, 1)), 1: ((0, 1), (1, 0)),
                                  2: ((1, 1), (2, 0), (3, 0)),
                                  3: ((3, 1),)}), 1
    g, rot, _ = ghat_planar(12)  # n = 29, past the switching guard
    return g, rot, 3


@pytest.mark.parametrize("case, code, err", [
    ("g7", 0, ""),
    ("pendant", 2, "error: graph is not critically 1-frustrated\n"),
    ("ghat-planar-12", 3, "guard refusal: switching search: 29 exceeds "
     f"guard {guards.SWITCH_SEARCH_MAX_VERTICES} "
     "(set SIGNFORGE_GUARD_OVERRIDE=1 to force)\n"),
], ids=["g7", "pendant", "ghat-planar-12"])
def test_faces_k_certifies_before_the_report(tmp_path, capsys, monkeypatch,
                                             case, code, err):
    monkeypatch.delenv("SIGNFORGE_GUARD_OVERRIDE", raising=False)
    g, rot, k = faces_input(case)
    sg, rotation = tmp_path / "x.sg", tmp_path / "x.rot"
    sg.write_text(serialize_sg(g))
    rotation.write_text(serialize_rot(g, rot))
    human = "".join(f"face {i}: edges={edges} sign=-\n"
                    for i, edges in enumerate(G7_FACES)) + f"{G7_REPORT}\n"
    for flags in ([], ["--json"]):
        assert run(flags + ["faces", str(sg), str(rotation),
                            "--k", str(k)]) == code
        out, got = capsys.readouterr()
        assert got == err
        if code:
            assert out == ""
        elif flags:
            assert json.loads(out) == {
                "schema": 1, "command": "faces", "report": G7_REPORT,
                "faces": [{"edges": e, "sign": -1} for e in G7_FACES]}
        else:
            assert out == human


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


def test_cycle_cap_refusal_exits_3(k4_path, capsys, monkeypatch):
    monkeypatch.delenv("SIGNFORGE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(guards, "CYCLE_CAP", 3)
    for command in ("structure", "decompose"):
        assert run([command, k4_path]) == 3
        assert capsys.readouterr().err.startswith("guard refusal")


def test_negative_enumeration_bound_exits_2(tmp_path, capsys):
    out = tmp_path / "enum"
    assert run(["enumerate", "--k", "2", "--max-n", "-1", "--max-edges", "4",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: bounds must be")
    assert not out.exists()


def test_negative_enumeration_k_exits_2(tmp_path, capsys):
    out = tmp_path / "enum"
    assert run(["enumerate", "--k", "-1", "--max-n", "3", "--max-edges", "4",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: k must be")
    assert not out.exists()


def assert_known_exit(argv) -> int:
    """Run argv with its output captured: it must exit 0, 2, 3 or 64, and
    its --json output must parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = invoke(argv)
    assert code in (0, 2, 3, 64), (argv, err.getvalue())
    if "--json" in argv and out.getvalue():
        json.loads(out.getvalue())
    return code


SG_JUNK = ["x", "0 1", "0 1 + 2", "0 1 ?", "0 1 +2", "vertex", "vertex 0 1",
           "# a comment", "0 1 - # trailing", "a b \u2212", "\t0  1\t-",
           "0: e0.a"]
ROT_JUNK = ["0 e0.a", "0: e0.c", "0: e99.a", ": e0.a", "0: e0.a e0.a",
            "x: e1.b", "0 1 +"]


@st.composite
def sg_texts(draw):
    """Small .sg files, loops and parallel edges included, now and then
    with an isolated vertex or a malformed line."""
    n = draw(st.integers(1, 6))
    lines = [f"{draw(st.integers(0, n - 1))} {draw(st.integers(0, n - 1))} "
             f"{draw(st.sampled_from('+-'))}"
             for _ in range(draw(st.integers(0, 9)))]
    if draw(st.booleans()):
        lines.append(f"vertex {n}")
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(SG_JUNK)))
    return "\n".join(lines) + "\n"


def rot_text(draw, sg: str) -> str:
    """A .rot file for sg: each vertex's darts in random order, so some
    are embeddings and most are not, now and then with a malformed or
    missing line."""
    try:
        g = parse_sg(sg)
    except SignforgeError:
        return draw(st.sampled_from(ROT_JUNK)) + "\n"
    ends = {v: [] for v in g.vertices}
    for e in g.edges:
        ends[e.u].append(f"e{e.eid}.a")
        ends[e.v].append(f"e{e.eid}.b")
    lines = [f"{v}: " + " ".join(draw(st.permutations(darts)))
             for v, darts in ends.items()]
    if lines and draw(st.integers(0, 4)) == 0:
        lines.pop(draw(st.integers(0, len(lines) - 1)))
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(ROT_JUNK)))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_fuzz_exits_with_a_known_code(tmp_path, data):
    sg, rot = tmp_path / "g.sg", tmp_path / "g.rot"
    sg.write_text(data.draw(sg_texts()))
    rot.write_text(rot_text(data.draw, sg.read_text()))
    k = str(data.draw(st.integers(-1, 5)))
    argvs = [["frustration", str(sg)], ["certify", str(sg)],
             *(["certify", str(sg), "--method", method, "--k", k]
               for method in METHODS),
             ["decompose", str(sg)], ["decompose", str(sg), "--k", k],
             ["reduce", str(sg)], ["structure", str(sg)],
             ["faces", str(sg), str(rot)],
             ["faces", str(sg), str(rot), "--k", k]]
    for argv in argvs:
        for flags in ([], ["--json"]):
            assert_known_exit(flags + argv)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_enumerate_fuzz_exits_with_a_known_code(tmp_path, monkeypatch, data):
    # each bound is -1, accepted but small (n <= 4, m <= 6, so every run
    # ends quickly) or, for the top two draws, past its guard or huge
    monkeypatch.delenv("SIGNFORGE_GUARD_OVERRIDE", raising=False)

    def bound(small, past):
        value = data.draw(st.integers(-1, small + 2))
        return str(past if value > small else value)

    argv = ["enumerate", "--k", str(data.draw(st.integers(-1, 4))),
            "--max-n", bound(4, guards.ENUM_MAX_VERTICES + 1),
            "--max-edges", bound(6, guards.ENUM_MAX_EDGES + 1),
            "--max-mult", bound(3, 10**9), "--max-loops", bound(2, 10**9),
            "--out", str(tmp_path / "enum")]
    argv += [flag for flag in ("--connected", "--irreducible",
                               "--non-decomposable")
             if data.draw(st.booleans())]
    flags = ["--json"] if data.draw(st.booleans()) else []
    assert_known_exit(flags + argv)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_construct_fuzz_exits_with_a_known_code(tmp_path, monkeypatch, data):
    # t stays small: construct has no size guard, and ghat(t) has 4 + 2t
    # vertices for any t
    monkeypatch.chdir(tmp_path)  # where the default output names land
    flags = ["--json"] if data.draw(st.booleans()) else []
    argv = ["construct", "ladder", str(data.draw(st.integers(-2, 6)))]
    argv += ["--planar"] if data.draw(st.booleans()) else []
    argv += (["-o", data.draw(st.sampled_from(["out", "out.sg"]))]
             if data.draw(st.booleans()) else [])
    assert_known_exit(flags + argv)
    paths = []
    for name in ("a.sg", "b.sg"):
        (tmp_path / name).write_text(data.draw(sg_texts()))
        paths += [name, str(data.draw(st.integers(-1, 10)))]
    argv = ["construct", "hjoin", *paths]
    argv += ["-o", "j.sg"] if data.draw(st.booleans()) else []
    assert_known_exit(flags + argv)


@pytest.mark.parametrize("action", ["list", "show", "verify"])
def test_catalog_commands_exit_with_a_known_code(action):
    names = [*catalog.names(), "no-such-entry"]
    for name in ([None] + names if action != "list" else [None]):
        for flags in ([], ["--json"]):
            code = assert_known_exit(
                flags + ["catalog", action] + ([name] if name else []))
            assert (code == 0) == (action == "list"
                                   or name in catalog.names())
    assert assert_known_exit(["--json", "catalog", "verify", "--all"]) == 0


@pytest.mark.parametrize("number, code", [(1, 0), (5, 0), (6, 0), (11, 0),
                                          (0, 64), (13, 64)])
def test_reproduce_only_exits_with_a_known_code(number, code):
    for flags in ([], ["--json"]):
        assert assert_known_exit(
            flags + ["reproduce", "--only", str(number)]) == code
