"""Fuzz `engine run` with mutated golden workspaces.

Each example takes the `pt` or `bz2` document and applies one to three
mutations anywhere in it: a value replaced by a bad or borrowed scalar,
name, list or object (scalar strings, task fields, references), or a list
element or object field deleted or duplicated (list shapes, missing fields).
Whatever the document holds, `cli.main(["run", ...])` returns exit code 0, 1
or 2 without raising, and when it is not a schema error (2) the report holds
exactly one entry per task.  Examples are derandomized, so every run tries
the same documents.
"""

import contextlib
import copy
import gc
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hhengine import cli

from conftest import load_workspace_doc as load_ws

# replacement values: bad and good scalar strings, names defined in the
# documents and one that is not, small counts and degrees, and wrong types
POOL = ["1/0", "1/2", "-1/1", "0/1", "x", "", "2/", "sgn", "triv", "reg",
        "BZ2", "pt", "one", "nope", "hh", "verify", "cardy", 0, 1, 2, -3,
        True, False, None, 1.5, [], {}, [[0]], ["1/1"], [["1/1"]]]

ACTIONS = ["replace", "borrow", "delete", "duplicate"]


def nodes(doc, path=()):
    """(path, value) of every node below the root, depth first."""
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


@st.composite
def mutated(draw, name):
    doc = load_ws(name)
    for _ in range(draw(st.integers(1, 3))):
        found = list(nodes(doc))
        if not found:
            break
        path, value = draw(st.sampled_from(found))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(ACTIONS))
        if action == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(POOL)))
        elif action == "borrow":
            parent[key] = copy.deepcopy(draw(st.sampled_from(found))[1])
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(value))
        else:
            parent[f"{key}2"] = copy.deepcopy(value)
    return doc


@pytest.fixture(scope="module")
def ws_file(tmp_path_factory):
    # run_workspace runs a full garbage collection before each build; keeping
    # the objects the test session already holds out of those collections
    # keeps an example's cost at the engine's own work
    gc.freeze()
    yield tmp_path_factory.mktemp("fuzz") / "ws.json"
    gc.unfreeze()


def check_run(doc, ws_file):
    ws_file.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(ws_file)])
    assert code in (0, 1, 2), err.getvalue()
    if code != 2:
        report = json.loads(out.getvalue())
        tasks = doc.get("tasks", [])
        assert [t["id"] for t in report["tasks"]] == [cli.task_id(t) for t in tasks]


FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=60)
@given(doc=mutated("pt"))
def test_mutated_pt_runs_cleanly(doc, ws_file):
    check_run(doc, ws_file)


@settings(FUZZ, max_examples=100)
@given(doc=mutated("bz2"))
def test_mutated_bz2_runs_cleanly(doc, ws_file):
    check_run(doc, ws_file)
