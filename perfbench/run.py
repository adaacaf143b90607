"""hhengine benchmark: three workloads, end-to-end metrics, a traced per-layer split.

    python3 perfbench/run.py --workload goldens --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the engine is imported from ./src.
Each run repeats whole rounds of its workload, one child process at a
time, for about `--seconds` (at least one round; it stops when ending now
is nearer to `--seconds` than ending after one more round), checks
every report entry against the independent computations of checks.py and
prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (medians over the
rounds); with `--trace 1` the children wrap every engine layer
(layertrace.py) and the metrics are the per-layer ones: counts of one
round, which repeat exactly, and per-layer self time as the median over
rounds.  One operation is one task of one workspace; it fails when its
status is not `ok` or its payload disagrees with the checks, and
`correct` is true when no operation failed.  Per-layer counts that differ
between rounds, like a crashed child, end the run with exit code 1.

Workloads:
  goldens        the six shipped workspaces, each in a fresh `engine run`
                 followed by two build-only processes that add setup samples
  quiver-ladder  generated tree quivers A2, A3, A4 (alternating), D4, A4,
                 each in a fresh process; dominated by workspace builds
  group-session  bz2, bs3 and generated (Z/2)^2 and D8 workspaces, the
                 whole set twice in one interpreter via cli.run_workspace
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen     # noqa: E402
from child import SESSION_PASSES  # noqa: E402

GOLDENS_DIR = os.path.join("src", "hhengine", "workspaces")
GOLDENS = ["pt", "bz2", "bs3", "a2", "a3", "m2"]
SESSION_GOLDENS = ["bz2", "bs3"]
CHILD_TIMEOUT_S = 170.0

# workload -> (how its workspaces run, build-only processes per workspace and
# untraced round).  The goldens build in about 1 s of a 13 s round, so their
# setup_s takes the median of three builds per workspace.
WORKLOADS = {"goldens": ("fresh", 2), "quiver-ladder": ("fresh", 0),
             "group-session": ("session", 0)}

END_TO_END = {"wall_s": "s", "setup_s": "s", "task_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; every name is a key of layertrace.Tracer.metrics()
# or a hit share derived from its `.hits` count
PER_LAYER = {
    "linalg.self_s": "s", "linalg.calls": "count", "linalg.matrices": "count",
    "linalg.matrix_entries": "count", "linalg.matrix_nonzeros": "count",
    "linalg.echelon_inserts": "count", "linalg.solves": "count",
    "algebras.self_s": "s", "algebras.calls": "count",
    "algebras.resolutions": "count", "algebras.bimodule_tensors": "count",
    "algebras.hom_bases": "count", "algebras.hom_bases.hit_share": "share",
    "complexes.self_s": "s", "complexes.calls": "count",
    "complexes.tensor_complexes": "count",
    "complexes.tensor_complexes.hit_share": "share",
    "complexes.hom_complexes": "count", "complexes.nullhomotopy_solves": "count",
    "complexes.lifts": "count",
    "kernels.self_s": "s", "kernels.calls": "count",
    "kernels.conv_kernels": "count", "kernels.conv_kernels.hit_share": "share",
    "kernels.serre_traces": "count", "kernels.two_morphism_spaces": "count",
    "hochschild.self_s": "s", "hochschild.calls": "count",
    "hochschild.mukai_pairings": "count", "hochschild.cherns": "count",
    "diagrams.self_s": "s", "diagrams.calls": "count",
    "diagrams.evaluations": "count",
    "cli.self_s": "s", "cli.tasks": "count", "cli.builds": "count",
}


class BenchError(Exception):
    """The benchmark could not produce a checked result."""


def workload_inputs(workload, seed):
    """Workspace paths of one workload and seed; generated workspaces are
    written by gen.py under perfbench/out/inputs/."""
    if workload == "goldens":
        return [os.path.join(GOLDENS_DIR, f"{n}.json") for n in GOLDENS]
    paths = gen.write_workload(workload, seed)
    if workload == "quiver-ladder":
        return paths
    return [os.path.join(GOLDENS_DIR, f"{n}.json")
            for n in SESSION_GOLDENS] + paths


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline):
    """(wall seconds, reports, stats) of one child process."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + args
    timeout = max(1.0, deadline - time.perf_counter())
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, env=_child_env())
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out after {timeout:.0f} s: {args}")
    wall = time.perf_counter() - t0
    marks = [ln for ln in proc.stderr.splitlines() if ln.startswith("PERFBENCH ")]
    if proc.returncode not in (0, 1) or not marks:
        raise BenchError(f"child exited {proc.returncode}: {args}\n"
                         f"{proc.stderr[-2000:]}")
    try:
        reports = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        raise BenchError(f"unreadable report from {args}: {e}")
    return wall, reports, json.loads(marks[-1][len("PERFBENCH "):])


def run_round(workload, paths, docs, seed, trace, deadline):
    """One pass of the workload: metrics, operation counts, layer counts."""
    mode, probes = WORKLOADS[workload]
    flags = ["--seed", str(seed)] + (["--trace"] if trace else [])
    procs = []     # (wall, [(path, report)], stats)
    if mode == "fresh":
        for p in paths:
            wall, report, stats = run_child(["fresh", p] + flags, deadline)
            stats["setup_s"] = statistics.median([stats["setup_s"]] + [
                run_child(["build", p], deadline)[2]["setup_s"]
                for _ in range(0 if trace else probes)])
            procs.append((wall, [(p, report)], stats))
    else:
        wall, reports, stats = run_child(["session"] + paths + flags, deadline)
        expected = paths * SESSION_PASSES
        if not isinstance(reports, list) or len(reports) != len(expected):
            raise BenchError("session returned the wrong number of reports")
        procs.append((wall, list(zip(expected, reports)), stats))
    attempted = failed = 0
    problems = []
    for _wall, pairs, _stats in procs:
        for p, report in pairs:
            verdicts, err = checks.check_report(docs[p], report)
            if err:
                raise BenchError(f"{p}: {err}")
            attempted += len(verdicts)
            for task, v in zip(docs[p]["tasks"], verdicts):
                if v is not None:
                    failed += 1
                    problems.append(f"{os.path.basename(p)}:{task.get('id')}: {v}")
    layers = {}
    for _wall, _pairs, stats in procs:
        for k, v in stats.get("layers", {}).items():
            layers[k] = layers.get(k, 0) + v
    return {"wall_s": sum(w for w, _, _ in procs),
            "setup_s": sum(s["setup_s"] for _, _, s in procs),
            "task_s": sum(s["task_s"] for _, _, s in procs),
            "peak_rss_mb": max(s["rss_mb"] for _, _, s in procs),
            "attempted": attempted, "failed": failed, "problems": problems,
            "layers": layers}


def layer_metrics(rounds):
    """Per-layer metrics: counts of the first round, self time medians.

    The counts must repeat exactly in every round."""
    first = rounds[0]["layers"]
    for r in rounds[1:]:
        moved = [k for k, v in r["layers"].items()
                 if not k.endswith("self_s") and v != first.get(k)]
        if moved:
            raise BenchError(f"layer counts differ between rounds: {moved}")
    out = {}
    for name, unit in PER_LAYER.items():
        if name.endswith(".hit_share"):
            base = name[:-len(".hit_share")]
            calls = first.get(base, 0)
            value = first.get(base + ".hit_share.hits", 0) / calls if calls else 0.0
        elif name.endswith(".self_s"):
            value = statistics.median(r["layers"][name] for r in rounds)
        else:
            value = first[name]
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="hhengine benchmark")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "hhengine", "cli.py")):
        print("run from the root of an hhengine checkout: ./src/hhengine is missing",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + CHILD_TIMEOUT_S
    paths = workload_inputs(args.workload, args.seed)
    docs = {}
    for p in paths:
        with open(p) as f:
            docs[p] = json.load(f)

    rounds = []
    try:
        while True:
            t0 = time.perf_counter()
            rounds.append(run_round(args.workload, paths, docs, args.seed,
                                    bool(args.trace), deadline))
            rounds[-1]["round_s"] = time.perf_counter() - t0
            # stop when ending now is nearer to --seconds than ending after
            # one more typical round
            typical = statistics.median(r["round_s"] for r in rounds)
            if time.perf_counter() - start + typical / 2 > args.seconds:
                break
        metrics = (layer_metrics(rounds) if args.trace else
                   {name: {"value": statistics.median(r[name] for r in rounds),
                           "unit": unit}
                    for name, unit in END_TO_END.items()})
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1

    for r in rounds:
        for line in r["problems"]:
            print(f"failed: {line}", file=sys.stderr)
    failed = sum(r["failed"] for r in rounds)
    print(f"# {args.workload} seed {args.seed}, trace {args.trace}: "
          f"{len(rounds)} rounds in {time.perf_counter() - start:.1f} s, median "
          f"round wall {statistics.median(r['wall_s'] for r in rounds):.2f} s")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
