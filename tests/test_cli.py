import copy
import gc
import json
import random
import weakref
from pathlib import Path

import pytest
from importlib import resources

from hhengine import cli
from hhengine.errors import InvariantViolation, SchemaError


from conftest import load_workspace_doc as load_ws


def ws_path(name):
    return str(resources.files("hhengine.workspaces").joinpath(f"{name}.json"))


def payloads(report):
    return {t["id"]: (t["status"], t["payload"]) for t in report["tasks"]}


def test_pt_workspace(golden_reports):
    report, ok = golden_reports["pt"]
    assert ok
    p = payloads(report)
    assert p["hh-pt"][1] == {"hh": {"0": 1}}
    assert p["mukai-one"][1] == {"value": "1/1"}


def test_bz2_workspace_values(golden_reports):
    report, ok = golden_reports["bz2"]
    assert ok
    p = payloads(report)
    assert p["hh-bz2"][1] == {"hh": {"0": 2}}
    assert p["chern-sgn"][1]["class_function"] == ["1/1", "-1/1"]
    assert p["semi-hrr-bz2"][1]["pairing_matrix"] == [["1/1", "0/1"], ["0/1", "1/1"]]
    assert p["euler-ts"][1] == {"euler": "0/1"}
    # the diagram pushforward lands on the same class as chern-of sgn
    assert p["push-diagram"][1]["coords"] == p["cardy-diagram"][1]["coords"]


def test_a2_workspace_values(golden_reports):
    report, ok = golden_reports["a2"]
    assert ok
    p = payloads(report)
    assert p["euler-s1-s2"][1] == {"euler": "-1/1"}
    assert p["hh-a2"][1] == {"hh": {"0": 2}}
    assert p["hcoh-a2"][1] == {"hcoh": {"0": 1}}
    assert p["pairing-a2"][1]["rank"] == 2
    assert p["mukai-diagram-a2"][1] == {"value": "-1/1"}


def test_a3_m2_workspaces(golden_reports):
    report, ok = golden_reports["a3"]
    assert ok
    p = payloads(report)
    assert p["hh-a3"][1] == {"hh": {"0": 3}}
    assert p["pairing-a3"][1]["rank"] == 3
    report, ok = golden_reports["m2"]
    assert ok
    p = payloads(report)
    assert p["isometry-col"][1]["pairing_matrix"] == [["1/1"]]


def test_bs3_workspace_values(golden_reports):
    report, ok = golden_reports["bs3"]
    assert ok
    p = payloads(report)
    assert p["semi-hrr-bs3"][1]["pairing_matrix"] == [
        ["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"], ["0/1", "0/1", "1/1"]]
    assert p["char-std"][1]["class_function"] == ["2/1", "0/1", "-1/1"]
    assert p["char-sgn"][1]["class_function"] == ["1/1", "-1/1", "1/1"]
    assert p["adjointness"][1]["matrix"] == p["push-ind"][1]["matrix"]
    assert p["push-ind"][1]["matrix"] == p["pull-res"][1]["matrix"]


def test_golden_reports_match_snapshot(golden_reports):
    # tests/golden_reports.json holds the seed-0 reports of the six goldens
    # without their `seconds`; every engine change must reproduce it byte for
    # byte
    snapshot = Path(__file__).with_name("golden_reports.json").read_text()
    got = {name: {"ok": ok, "report": {**report, "tasks": [
        {k: v for k, v in t.items() if k != "seconds"} for t in report["tasks"]]}}
        for name, (report, ok) in golden_reports.items()}
    assert json.dumps(got, indent=1, sort_keys=True) + "\n" == snapshot


def test_report_determinism():
    r1, _ = cli.run_workspace(load_ws("a2"), "a2.json", seed=5)
    r2, _ = cli.run_workspace(load_ws("a2"), "a2.json", seed=5)
    strip = lambda r: json.dumps(
        [{k: v for k, v in t.items() if k != "seconds"} for t in r["tasks"]],
        sort_keys=True)
    assert strip(r1) == strip(r2)
    assert r1["seed"] == 5


def test_task_filter_and_unknown_task():
    report, ok = cli.run_workspace(load_ws("pt"), "pt.json", only_task="hh-pt")
    assert ok and len(report["tasks"]) == 1
    with pytest.raises(SchemaError):
        cli.run_workspace(load_ws("pt"), "pt.json", only_task="nope")


def test_schema_error_on_bad_document():
    with pytest.raises(SchemaError):
        cli.Workspace({"schema": "wrong"}, "x")
    bad = load_ws("pt")
    bad["spaces"]["pt"] = {"type": "mystery"}
    with pytest.raises(SchemaError):
        cli.Workspace(bad, "x")
    bad = load_ws("pt")
    bad["tasks"].append("hh-pt")
    with pytest.raises(SchemaError, match="not an object"):
        cli.Workspace(bad, "x")
    bad = load_ws("pt")
    bad["kernels"] = []
    with pytest.raises(SchemaError, match="must be objects"):
        cli.Workspace(bad, "x")
    # engine errors raised while building are schema errors too
    bad = load_ws("bz2")
    bad["spaces"]["BZ2"]["table"] = [[0, 0], [1, 1]]
    with pytest.raises(SchemaError, match="NotAGroup"):
        cli.Workspace(bad, "x")
    bad = load_ws("bz2")
    bad["spaces"]["Q"] = {"type": "path_quiver", "vertices": 2,
                          "arrows": [[0, 1], [1, 0]]}
    with pytest.raises(SchemaError, match="CyclicQuiver"):
        cli.Workspace(bad, "x")
    bad = load_ws("bz2")
    bad["tasks"].append({"id": "t", "space": "BZ2"})
    with pytest.raises(SchemaError, match="no op"):
        cli.Workspace(bad, "x")
    bad = load_ws("bs3")
    bad["maps"]["incl"]["basis_images"][1] = 99
    with pytest.raises(SchemaError, match="out of range"):
        cli.Workspace(bad, "x")
    # a scalar with a zero denominator, and a JSON boolean, are not scalars
    for entry, match in (("1/0", "zero denominator"), (True, "not an exact scalar")):
        bad = load_ws("bz2")
        bad["kernels"]["reg"]["action"][1][0][1] = entry
        with pytest.raises(SchemaError, match=match):
            cli.Workspace(bad, "x")
    # an action matrix that is not square of the module's size
    bad = load_ws("bz2")
    bad["kernels"]["sgn"]["action"][0][0].append("1/1")
    with pytest.raises(SchemaError, match="matrices of size 1x1"):
        cli.Workspace(bad, "x")
    # a Cardy or partial-trace count below 1 would verify nothing
    for tid, count in (("cardy-bz2", -3), ("cardy-bz2", 0), ("ptrace-bz2", True),
                       ("ptrace-bz2", "2")):
        bad = load_ws("bz2")
        next(t for t in bad["tasks"] if t["id"] == tid)["count"] = count
        with pytest.raises(SchemaError, match="count must be a positive integer"):
            cli.Workspace(bad, "x")


def test_failing_task_sets_exit_status(tmp_path, capsys):
    doc = load_ws("pt")
    doc["tasks"] = [{"id": "boom", "op": "eval-diagram",
                     "term": "eps(ker(missing))"}]
    report, ok = cli.run_workspace(doc, "pt.json")
    assert not ok
    assert report["tasks"][0]["status"] == "error"
    # explain prints the error instead of a traceback
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["explain", str(p), "boom"]) == 1
    assert "UnknownPrimitive" in capsys.readouterr().err


@pytest.mark.parametrize("task, error", [
    ({"id": "bad-degree", "op": "pairing-matrix", "space": "BZ2",
      "degree": "abc"}, "ValueError: "),
    ({"id": "no-kernels", "op": "verify", "check": "cardy", "kernels": []},
     "ZeroDivisionError: "),
], ids=["bad-degree", "no-kernels"])
def test_a_task_that_breaks_stays_in_the_report(tmp_path, capsys, task, error):
    doc = load_ws("bz2")
    doc["tasks"] = [{"id": "hh-bz2", "op": "hh", "space": "BZ2"}, task]
    report, ok = cli.run_workspace(doc, "bz2.json")
    assert not ok
    p = payloads(report)
    assert p["hh-bz2"] == ("ok", {"hh": {"0": 2}})
    status, payload = p[task["id"]]
    assert status == "error" and payload["error"].startswith(error)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["tasks"][1]["status"] == "error"


def test_a_broken_invariant_while_building_is_no_schema_error(monkeypatch,
                                                              capsys):
    # the workspace file is valid: a check the engine fails while building
    # it is an engine fault, reported as an error with exit code 1
    def broken(k, v):
        raise InvariantViolation("unit lift failed")
    monkeypatch.setattr(cli.hh, "chern", broken)     # a2's chern-of classes
    with pytest.raises(InvariantViolation):
        cli.Workspace(load_ws("a2"), "a2.json")
    assert cli.main(["run", ws_path("a2")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: InvariantViolation: unit lift failed\n"


def test_a_task_without_id_goes_by_its_op(tmp_path, capsys):
    doc = load_ws("bz2")
    doc["tasks"] = [{"op": "hh", "space": "BZ2"},
                    {"id": "euler-ts", "op": "euler", "kernels": ["triv", "sgn"]}]
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["run", str(p), "--task", "hh"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [(t["id"], t["payload"]) for t in report["tasks"]] == [
        ("hh", {"hh": {"0": 2}})]
    assert cli.main(["explain", str(p), "hh"]) == 0
    assert "task hh: hh" in capsys.readouterr().out


def test_main_entry_and_exit_codes(tmp_path, capsys):
    assert cli.main(["run", ws_path("pt")]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["schema"] == cli.REPORT_SCHEMA
    # schema error path: exit 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert cli.main(["run", str(bad)]) == 2
    notjson = tmp_path / "b.json"
    notjson.write_text("{")
    assert cli.main(["run", str(notjson)]) == 2
    # text mode
    assert cli.main(["run", ws_path("pt"), "--text", "--task", "hh-pt"]) == 0
    out = capsys.readouterr().out
    assert "hh-pt" in out


def test_explain(capsys):
    assert cli.main(["explain", ws_path("pt"), "mukai-one"]) == 0
    out = capsys.readouterr().out
    assert "tr(" in out and "1/1" in out and "memoised on X" in out
    assert cli.main(["explain", ws_path("pt"), "missing"]) == 1


def test_explain_cardy_and_oracle(capsys):
    assert cli.main(["explain", ws_path("a2"), "cardy-a2"]) == 0
    out = capsys.readouterr().out
    assert "iota" in out
    assert cli.main(["explain", ws_path("a2"), "oracle-a2"]) == 0
    out = capsys.readouterr().out
    assert "tor" in out


def test_product_space_constructor():
    doc = {
        "schema": cli.SCHEMA,
        "spaces": {
            "pt": {"type": "point"},
            "Z2": {"type": "group_cayley", "table": [[0, 1], [1, 0]]},
            "Z2xZ2": {"type": "product", "factors": ["Z2", "Z2"]},
        },
        "tasks": [{"id": "h", "op": "hh", "space": "Z2xZ2"}],
    }
    report, ok = cli.run_workspace(doc, "prod")
    assert ok
    assert payloads(report)["h"][1] == {"hh": {"0": 4}}


def paths_between(arrows, s, t):
    """Number of paths from s to t in an acyclic quiver, the trivial path
    included."""
    return (s == t) + sum(paths_between(arrows, b, t) for a, b in arrows if a == s)


@pytest.mark.parametrize("vertices, arrows", [
    (2, [[0, 1], [0, 1]]),
    (3, [[0, 1], [1, 2], [0, 2]])], ids=["kronecker", "triangle"])
def test_non_tree_quivers(vertices, arrows):
    # Happel: HH^0 = 1 and HH^1 = 1 - n + sum over arrows a of the number of
    # paths from s(a) to t(a), nothing higher; HH_0 has one class per vertex
    doc = {
        "schema": cli.SCHEMA,
        "spaces": {"pt": {"type": "point"},
                   "Q": {"type": "path_quiver", "vertices": vertices,
                         "arrows": arrows}},
        "tasks": [{"id": "hh", "op": "hh", "space": "Q"},
                  {"id": "hcoh", "op": "hcoh", "space": "Q"},
                  {"id": "oracle", "op": "verify", "check": "hh-oracle",
                   "space": "Q"},
                  {"id": "pairing", "op": "pairing-matrix", "space": "Q"}],
    }
    report, ok = cli.run_workspace(doc, "quiver")
    assert ok
    p = payloads(report)
    assert p["hh"] == ("ok", {"hh": {"0": vertices}})
    hh1 = 1 - vertices + sum(paths_between(arrows, s, t) for s, t in arrows)
    assert hh1 > 0
    assert p["hcoh"] == ("ok", {"hcoh": {"0": 1, "1": hh1}})
    assert p["oracle"][1]["tor"] == {"0": vertices}
    pairing = p["pairing"][1]
    assert pairing["rank"] == vertices
    assert len(pairing["matrix"]) == vertices
    assert all(len(row) == vertices for row in pairing["matrix"])


def test_explain_pushforward_with_class(tmp_path, capsys):
    doc = load_ws("bz2")
    doc["tasks"].append({"id": "push-one", "op": "pushforward",
                         "kernel": "sgn", "class": "one"})
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["explain", str(p), "push-one"]) == 0
    out = capsys.readouterr().out
    assert "gamma'" in out and "eps(" in out and "value" in out
    assert "memoised on ker(Phi)" in out


def test_partial_trace_over_a_zero_convolution_fails_per_task():
    # the dual of triv convolved with sgn is the zero complex over BZ2, so
    # there is no 2-morphism to trace
    doc = load_ws("bz2")
    doc["kernels"]["trivd"] = {"type": "dual-of", "kernel": "triv"}
    doc["tasks"] = [{"id": "pt-zero", "op": "verify", "check": "partial-trace",
                     "phi": "trivd", "psi": "sgn", "count": 1}]
    report, ok = cli.run_workspace(doc, "bz2.json")
    assert not ok
    assert payloads(report)["pt-zero"] == (
        "fail", {"error": "no 2-morphisms available for partial-trace"})


@pytest.mark.parametrize("n", [2, 3], ids=["a2", "a3"])
def test_identity_is_its_own_adjoint_and_pulls_back_to_the_identity(n):
    # the path algebra of A_n is not symmetric, so its Serre kernel is not
    # the identity and the pullback has to carry the Serre factor of the
    # left adjoint
    name = f"a{n}"
    doc = load_ws(name)
    doc["kernels"]["idA"] = {"type": "identity", "space": f"A{n}"}
    doc["kernels"]["SA"] = {"type": "serre", "space": f"A{n}"}
    doc["tasks"] = [
        {"id": "adj", "op": "verify", "check": "adjointness",
         "left": "idA", "right": "idA"},
        {"id": "fun", "op": "verify", "check": "functoriality",
         "outer": "SA", "inner": "idA"},
        {"id": "pull", "op": "pullback", "kernel": "idA"},
    ]
    report, ok = cli.run_workspace(doc, f"{name}.json")
    p = payloads(report)
    ident = [["1/1" if i == j else "0/1" for j in range(n)] for i in range(n)]
    assert p["adj"] == ("ok", {"matrix": ident})
    assert p["fun"][0] == "ok"
    assert p["pull"] == ("ok", {"matrix": ident})
    assert ok


@pytest.mark.parametrize("where, bad", [
    ("task", {"id": "t", "op": "chern", "kernel": "nope"}),
    ("task", {"id": "t", "op": "euler", "kernels": ["sgn", "nope"]}),
    ("task", {"id": "t", "op": "verify", "check": "partial-trace",
              "phi": "sgn", "psi": "nope"}),
    ("task", {"id": "t", "op": "verify", "check": "functoriality",
              "outer": "nope", "inner": "sgn"}),
    ("task", {"id": "t", "op": "verify", "check": "adjointness",
              "left": "sgn", "right": "nope"}),
    ("task", {"id": "t", "op": "pushforward", "kernel": "sgn",
              "class": "nope"}),
    ("kernel", {"type": "dual-of", "kernel": "nope"}),
    ("kernel", {"type": "convolution-of", "kernels": ["sgn", "nope"]}),
    ("class", {"type": "chern-of", "kernel": "nope"}),
    ("task", {"id": "t", "op": "hh", "space": "nope"}),
])
def test_unknown_references_are_schema_errors(tmp_path, capsys, where, bad):
    doc = load_ws("bz2")
    if where == "task":
        doc["tasks"].append(bad)
    elif where == "kernel":
        doc["kernels"]["broken"] = bad
    else:
        doc["classes"]["broken"] = bad
    with pytest.raises(SchemaError, match="nope"):
        cli.Workspace(doc, "bz2.json")
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["run", str(p)]) == 2
    assert "nope" in capsys.readouterr().err


def test_dropped_workspace_leaves_no_spaces_or_kernels_alive():
    # bs3's functoriality and adjointness tasks memoise matrices on kernels
    # that no workspace entry names, such as the composite of two kernels;
    # the workspace's point algebra, where every module kernel starts, goes too
    for name in ("bz2", "bs3"):
        doc = load_ws(name)
        ws = cli.Workspace(doc, f"{name}.json")
        rng = random.Random(0)
        for task in doc["tasks"]:
            cli.run_task(ws, task, rng)
        refs = [weakref.ref(x) for x in [*ws.spaces.values(),
                                         *ws.kernels.values(), ws.point_space(),
                                         ws.point]]
        del ws
        gc.collect()
        assert [r() for r in refs if r() is not None] == [], name


def test_no_state_outlives_its_workspace():
    # every memo entry, content-keyed tensor and hom cores included, lives
    # on an object of its workspace, so a second pass rebuilds everything
    # and reports the same
    def strip(r):
        return [{k: v for k, v in t.items() if k != "seconds"} for t in r["tasks"]]

    passes = [[strip(cli.run_workspace(load_ws(name), f"{name}.json", seed=1)[0])
               for name in ("bz2", "a2")] for _ in range(2)]
    assert passes[0] == passes[1]


@pytest.mark.parametrize("name, spec", [
    ("M1", {"type": "matrix_ring", "size": 1}),
    ("G1", {"type": "group_cayley", "table": [[0]]})])
def test_one_dimensional_space_beside_the_point(name, spec):
    # a space whose algebra is one-dimensional, sorted before pt, is not the
    # point: module kernels still start at the workspace's point
    def run(extra):
        doc = load_ws("a2")
        doc["spaces"].update(extra)
        doc["tasks"] = [t for t in doc["tasks"]
                        if t["op"] in ("euler", "chern", "mukai")
                        or t.get("check") == "semi-hrr"]
        report, ok = cli.run_workspace(doc, "a2.json")
        return ok, payloads(report)

    ok, plain = run({})
    assert ok and len(plain) == 4
    assert run({name: spec}) == (True, plain)
