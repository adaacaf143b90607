"""One benchmark process: run workspaces through hhengine's public entry points.

    python3 perfbench/child.py fresh <workspace.json> --seed N [--trace]
    python3 perfbench/child.py session <ws.json>... --seed N [--trace]
    python3 perfbench/child.py build <workspace.json>

`fresh` is `engine run <workspace.json> --seed N`: cli.main loads the JSON,
runs every task and prints the report to standard output.  `session` runs
each workspace through cli.run_workspace, the whole list SESSION_PASSES
times in this one interpreter, and prints the list of reports.  `build`
only builds the workspace, once, and prints an empty list of reports.

Both time the public calls from outside: cli.Workspace (the build: spaces,
maps, kernels with their resolutions, classes) and cli.run_task, with
time.perf_counter.  The last line on standard error is
`PERFBENCH {json}` with those sums, the peak RSS and, with --trace, the
per-layer counts and self times of layertrace.py.  The engine is imported from
./src of the current directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

MARK = "PERFBENCH "
SESSION_PASSES = 2


def _import_engine():
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "hhengine", "cli.py")):
        raise SystemExit(f"no hhengine sources under {src}")
    sys.path.insert(0, src)
    from hhengine import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"hhengine imported from {cli.__file__}, not {src}")
    return cli


def _time_public_calls(cli, stats):
    """Replace cli.Workspace and cli.run_task with timed pass-throughs."""
    build, run_task = cli.Workspace, cli.run_task
    clock = time.perf_counter

    def timed_build(*args, **kwargs):
        t0 = clock()
        try:
            return build(*args, **kwargs)
        finally:
            stats["setup_s"] += clock() - t0
            stats["builds"] += 1

    def timed_task(*args, **kwargs):
        t0 = clock()
        try:
            return run_task(*args, **kwargs)
        finally:
            stats["task_s"] += clock() - t0
            stats["tasks"] += 1

    cli.Workspace = timed_build
    cli.run_task = timed_task


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["fresh", "session", "build"])
    ap.add_argument("workspaces", nargs="+")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    cli = _import_engine()
    tracer = None
    if args.trace:
        import layertrace       # beside this script, first on sys.path
        tracer = layertrace.install()
    stats = {"setup_s": 0.0, "task_s": 0.0, "builds": 0, "tasks": 0}
    _time_public_calls(cli, stats)

    if args.mode != "session" and len(args.workspaces) != 1:
        ap.error(f"{args.mode} takes exactly one workspace")
    if args.mode == "fresh":
        code = cli.main(["run", args.workspaces[0], "--seed", str(args.seed)])
    elif args.mode == "build":
        path = args.workspaces[0]
        with open(path) as f:
            cli.Workspace(json.load(f), path)
        print("[]")
        code = 0
    else:
        docs = []
        for path in args.workspaces:
            with open(path) as f:
                docs.append((path, json.load(f)))
        reports = []
        for _ in range(SESSION_PASSES):
            for path, doc in docs:
                report, _ok = cli.run_workspace(doc, path, seed=args.seed)
                reports.append(report)
        print(json.dumps(reports, indent=2, sort_keys=True))
        code = 0
    sys.stdout.flush()
    stats["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        stats["layers"] = tracer.metrics()
    sys.stderr.write(MARK + json.dumps(stats, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
