"""Compare the engine's reports between two source trees.

    python tools/compare_reports.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the `src` directories of two checkouts.  From
each one, in one child process per tree, this runs `engine run WORKSPACE
--seed S` (cli.main) over the six shipped golden workspaces and every
workspace perfbench/gen.py generates for seeds 1 and 5, each at --seed 1
and 5.  The golden workspaces are read from HEAD_SRC and the generated
ones from this checkout's perfbench, so both trees run the same inputs.
The `seconds` of every task entry are dropped and the rest of each report,
with the exit code, must be equal: the script prints every difference and
exits 1 if there is one, else 0.  Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = ["pt", "bz2", "bs3", "a2", "a3", "m2"]
SEEDS = [1, 5]

# runs in the child, with the tree under test first on sys.path
CHILD = """
import contextlib, io, json, sys
from hhengine import cli
out = []
for path, seed in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["run", path, "--seed", str(seed)])
    text = buf.getvalue()
    out.append({"code": code, "report": json.loads(text) if text else None})
print(json.dumps(out))
"""


def workspaces(head_src, tmp):
    """The workspace paths to run: the goldens, then the generated ones
    written under tmp."""
    paths = [os.path.join(head_src, "hhengine", "workspaces", f"{g}.json")
             for g in GOLDENS]
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen
    for seed in SEEDS:
        for workload, generate in sorted(gen.GENERATORS.items()):
            for name, doc in generate(seed):
                p = os.path.join(tmp, f"seed{seed}-{workload}-{name}.json")
                with open(p, "w") as f:
                    json.dump(doc, f, indent=1, sort_keys=True)
                paths.append(p)
    return paths


def start(src, runs):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.Popen([sys.executable, "-c", CHILD, json.dumps(runs)],
                            env=env, stdout=subprocess.PIPE, text=True)


def tasks(result):
    return (result["report"] or {}).get("tasks", [])


def without_seconds(result):
    for task in tasks(result):
        task.pop("seconds", None)
    return result


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/compare_reports.py BASE_SRC HEAD_SRC",
              file=sys.stderr)
        return 2
    base_src, head_src = argv
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(p, s) for p in workspaces(head_src, tmp) for s in SEEDS]
        children = [start(src, runs) for src in (base_src, head_src)]
        outputs = [child.communicate()[0] for child in children]
        if any(child.returncode for child in children):
            print("a child process failed", file=sys.stderr)
            return 1
    base, head = ([without_seconds(r) for r in json.loads(out)]
                  for out in outputs)
    differ = 0
    for (path, seed), b, h in zip(runs, base, head):
        if b != h:
            differ += 1
            ids = [x["id"] for x, y in zip(tasks(b), tasks(h)) if x != y]
            print(f"differs: {os.path.basename(path)} --seed {seed}, exit "
                  f"codes {b['code']} / {h['code']}, tasks {ids}")
    print(f"{len(runs)} reports compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
