"""Tests of the benchmark itself: checks, tracing, generators, smallest units.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import gen     # noqa: E402
import run     # noqa: E402
from child import SESSION_PASSES  # noqa: E402

GOLDENS = os.path.join(ROOT, "src", "hhengine", "workspaces")


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _golden(name):
    with open(os.path.join(GOLDENS, f"{name}.json")) as f:
        return json.load(f)


def _generated(workload, name, seed=0):
    return dict(gen.GENERATORS[workload](seed))[name]


def _gram(doc, kernels):
    return [[checks.chi(doc, a, b) for b in kernels] for a in kernels]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


# -- the checks agree with textbook values ------------------------------------


def test_s3_characters_and_orthogonality():
    doc = _golden("bs3")
    table = doc["spaces"]["BS3"]["table"]
    assert [len(c) for c in checks.conjugacy_classes(table)] == [1, 3, 2]
    reps = [min(c) for c in checks.conjugacy_classes(table)]
    std = checks.characters(doc["kernels"]["std"]["action"])
    assert [std[g] for g in reps] == [2, 0, -1]
    assert _gram(doc, ["triv", "sgn", "std"]) == _identity(3)
    assert checks.hochschild_dims(doc["spaces"]["BS3"]) == ({0: 3}, {0: 3})


def test_d8_and_v4_characters_and_orthogonality():
    d8 = _generated("group-session", "D8")
    classes = checks.conjugacy_classes(d8["spaces"]["D8"]["table"])
    assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]
    irreps = ["chi0", "chi1", "chi2", "chi3", "rho"]
    assert _gram(d8, irreps) == _identity(5)
    dims = [checks.characters(d8["kernels"][k]["action"])[0] for k in irreps]
    assert sum(d * d for d in dims) == 8
    # the reducible sum is rho + chi3
    assert [checks.chi(d8, k, "sum") for k in irreps] == [0, 0, 0, 1, 1]
    v4 = _generated("group-session", "V4")
    assert len(checks.conjugacy_classes(v4["spaces"]["V4"]["table"])) == 4
    assert _gram(v4, ["chi0", "chi1", "chi2", "chi3"]) == _identity(4)


def test_a3_euler_form():
    doc = _golden("a3")
    # T1, T2, T3 are the simples at the vertices of 0 -> 1 -> 2
    assert _gram(doc, ["T1", "T2", "T3"]) == [[1, -1, 0], [0, 1, -1], [0, 0, 1]]
    assert checks.hochschild_dims(doc["spaces"]["A3"]) == ({0: 3}, {0: 1})


def test_ladder_euler_form_along_arrows():
    for name, doc in gen.quiver_ladder(5):
        spec = doc["spaces"][name]
        for s, t in spec["arrows"]:
            assert checks.chi(doc, f"S{s}", f"S{t}") == -1
            assert checks.chi(doc, f"S{t}", f"S{s}") == 0
        assert checks.hochschild_dims(spec) == ({0: spec["vertices"]}, {0: 1})


def test_checks_reject_wrong_payloads():
    doc = _golden("bs3")
    task = next(t for t in doc["tasks"] if t["id"] == "semi-hrr-bs3")
    good = {"id": task["id"], "status": "ok", "payload": {"pairing_matrix": [
        ["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"], ["0/1", "0/1", "1/1"]]}}
    assert checks.check_task(doc, task, good, {}) is None
    bad = json.loads(json.dumps(good))
    bad["payload"]["pairing_matrix"][1][2] = "1/1"
    assert checks.check_task(doc, task, bad, {}) is not None
    failed = dict(good, status="fail")
    assert checks.check_task(doc, task, failed, {}) is not None
    char = next(t for t in doc["tasks"] if t["id"] == "char-std")
    wrong = {"id": "char-std", "status": "ok",
             "payload": {"class_function": ["2/1", "0/1", "1/1"],
                         "coords": ["0/1", "0/1", "0/1"]}}
    assert "class function" in checks.check_task(doc, char, wrong, {})


# -- generators ---------------------------------------------------------------


def test_generators_are_seeded():
    for make in gen.GENERATORS.values():
        assert make(3) == make(3)
        a, b = make(3), make(4)
        assert [n for n, _ in a] == [n for n, _ in b]
        assert a != b
        for (_, da), (_, db) in zip(a, b):
            assert len(da["tasks"]) == len(db["tasks"])
            assert sorted(da["kernels"]) == sorted(db["kernels"])


# -- tracing ------------------------------------------------------------------


def _child(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "child.py")]
                          + list(args), capture_output=True, text=True,
                          cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stderr.splitlines()[-1][len("PERFBENCH "):])
    return proc.stdout, stats


def _without_seconds(text):
    return re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', text)


def test_tracing_leaves_reports_byte_identical():
    path = os.path.join(GOLDENS, "bz2.json")
    plain, _ = _child("fresh", path, "--seed", "3")
    traced, stats = _child("fresh", path, "--seed", "3", "--trace")
    assert _without_seconds(plain) == _without_seconds(traced)
    assert stats["layers"]["cli.tasks"] == len(_golden("bz2")["tasks"])


def test_layer_counts_repeat_exactly():
    path = os.path.join(GOLDENS, "a2.json")
    _, one = _child("fresh", path, "--seed", "1", "--trace")
    _, two = _child("fresh", path, "--seed", "1", "--trace")
    counts = [{k: v for k, v in s["layers"].items() if not k.endswith("self_s")}
              for s in (one, two)]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.matrices"] > 0 and counts[0]["kernels.conv_kernels"] > 0
    for name in run.PER_LAYER:
        assert (name + ".hits" if name.endswith(".hit_share") else name) in one["layers"]


def test_layer_counts_that_move_between_rounds_stop_the_run():
    rounds = [{"layers": {"cli.tasks": 3, "cli.self_s": 0.1}},
              {"layers": {"cli.tasks": 4, "cli.self_s": 0.1}}]
    with pytest.raises(run.BenchError, match="cli.tasks"):
        run.layer_metrics(rounds)


# -- the smallest unit of each workload runs ------------------------------------


@pytest.mark.parametrize("workload,unit", [("goldens", "pt.json"),
                                           ("quiver-ladder", "A2.json"),
                                           ("group-session", "bz2.json")])
def test_smallest_unit_runs(workload, unit):
    paths = [p for p in run.workload_inputs(workload, 2)
             if os.path.basename(p) == unit]
    docs = {}
    for p in paths:
        with open(p) as f:
            docs[p] = json.load(f)
    r = run.run_round(workload, paths, docs, 2, False, time.perf_counter() + 120)
    per_pass = len(docs[paths[0]]["tasks"])
    assert r["attempted"] == per_pass * (SESSION_PASSES if workload == "group-session" else 1)
    assert r["failed"] == 0, r["problems"]
    assert r["setup_s"] > 0 and r["task_s"] > 0 and r["wall_s"] > r["task_s"]
    assert r["peak_rss_mb"] > 0
