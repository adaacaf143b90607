"""Seeded input generators for the `quiver-ladder` and `group-session` workloads.

Every generated workspace uses only space constructors the engine already
has: `path_quiver` for tree quivers and `group_cayley` for Cayley tables,
which are closed here from integer matrix generators.  The seed relabels
the quiver vertices and the non-identity group elements, so each seed
gives different but equally sized inputs.  Nothing here imports hhengine.

Regenerate every generated input of a seed, as the benchmark writes them
(perfbench/out/inputs/seed<N>/<workload>/<name>.json):

    python3 perfbench/gen.py --seed 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random

from checks import conjugacy_classes

SCHEMA = "hhengine/workspace/1"

# name, vertex count, arrows (source, target), whether pairing-matrix runs
QUIVERS = [
    ("A2", 2, [(0, 1)], True),
    ("A3", 3, [(0, 1), (1, 2)], False),
    ("A4alt", 4, [(0, 1), (2, 1), (2, 3)], False),
    ("D4", 4, [(1, 0), (2, 0), (3, 0)], False),
    ("A4", 4, [(0, 1), (1, 2), (2, 3)], False),
]

# name, integer matrix generators (the second one generates the Z/2 used
# for induction and restriction), whether functoriality and adjointness
# run along Z/2 inside the group
GROUPS = [
    ("V4", [((-1, 0), (0, 1)), ((1, 0), (0, -1))], True),
    ("D8", [((0, -1), (1, 0)), ((1, 0), (0, -1))], False),
]

# random draws per cardy / partial-trace task of the group workspaces
DRAWS = 8


def _q(x):
    return f"{x}/1"


def _qmat(m):
    return [[_q(x) for x in row] for row in m]


# -- quivers ------------------------------------------------------------------


def path_count(vertices, arrows):
    """Number of paths (trivial ones included) of an acyclic quiver."""
    out = {v: 0 for v in range(vertices)}   # paths starting at v, length >= 1
    # relaxation: a path has at most `vertices` - 1 arrows
    for _ in range(vertices):
        for v in range(vertices):
            out[v] = sum(1 + out[t] for s, t in arrows if s == v)
    return vertices + sum(out.values())


def quiver_workspace(name, vertices, arrows, pairing, rng):
    """One rung: a tree quiver relabelled by `rng`, its simples, Serre and
    anti-Serre kernels, and hh / hcoh / hh-oracle / euler tasks."""
    perm = list(range(vertices))
    rng.shuffle(perm)
    arrows = [(perm[s], perm[t]) for s, t in arrows]
    dim = path_count(vertices, arrows)
    # the engine orders the path basis with the trivial path at v at index v
    kernels = {f"S{v}": {"type": "module", "space": name,
                         "action": [[[_q(1 if b == v else 0)]] for b in range(dim)]}
               for v in range(vertices)}
    kernels["serre"] = {"type": "serre", "space": name}
    kernels["aserre"] = {"type": "anti-serre", "space": name}
    tasks = [{"id": f"hh-{name}", "op": "hh", "space": name},
             {"id": f"hcoh-{name}", "op": "hcoh", "space": name},
             {"id": f"oracle-{name}", "op": "verify", "check": "hh-oracle",
              "space": name}]
    for s, t in arrows:
        tasks.append({"id": f"euler-S{s}-S{t}", "op": "euler",
                      "kernels": [f"S{s}", f"S{t}"]})
    if pairing:
        tasks.append({"id": f"pairing-{name}", "op": "pairing-matrix",
                      "space": name})
    return {"schema": SCHEMA,
            "spaces": {name: {"type": "path_quiver", "vertices": vertices,
                              "arrows": [list(a) for a in arrows]},
                       "pt": {"type": "point"}},
            "kernels": kernels,
            "classes": {},
            "tasks": tasks}


def quiver_ladder(seed):
    """[(name, workspace document)] for the rungs, smallest first."""
    rng = random.Random(seed)
    return [(name, quiver_workspace(name, n, arrows, pairing, rng))
            for name, n, arrows, pairing in QUIVERS]


# -- groups -------------------------------------------------------------------


def _mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def close_group(gens):
    """Elements of the matrix group generated by `gens`, identity first, in
    breadth-first order, each with its word in the generators."""
    n = len(gens[0])
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    elems = [ident]
    words = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for gi, s in enumerate(gens):
                h = _mul(g, s)
                if h not in words:
                    words[h] = words[g] + (gi,)
                    elems.append(h)
                    nxt.append(h)
        frontier = nxt
    return elems, words


def one_dim_characters(gens, words):
    """All sign characters: every choice of +-1 per generator that is a
    homomorphism on the closed group (checked on all products)."""
    chars = []
    for bits in range(2 ** len(gens)):
        vals = [(-1) ** ((bits >> i) & 1) for i in range(len(gens))]
        chi = {g: math.prod(vals[i] for i in w) for g, w in words.items()}
        if all(chi[_mul(g, h)] == chi[g] * chi[h] for g in chi for h in chi):
            chars.append(chi)
    return chars


def group_workspace(name, gens, along_subgroup, rng):
    """Group algebra of the closed matrix group, one module kernel per
    irreducible representation (all rational), one reducible sum of them,
    and the kernel-calculus tasks: snake, reflexivity, Cardy, partial trace, Semi-HRR, characters,
    diagram evaluations and, `along_subgroup`, functoriality and adjointness
    along Z/2 inside the group."""
    elems, words = close_group(gens)
    rest = elems[1:]
    rng.shuffle(rest)
    elems = [elems[0]] + rest
    index = {g: i for i, g in enumerate(elems)}
    table = [[index[_mul(g, h)] for h in elems] for g in elems]

    reps = {}
    for ci, chi in enumerate(one_dim_characters(gens, words)):
        reps[f"chi{ci}"] = [[[chi[g]]] for g in elems]
    if not _abelian(elems):
        # a nonabelian image cannot split into sign characters
        reps["rho"] = [[list(row) for row in g] for g in elems]
    irreps = sorted(reps)
    # a reducible module: the defining representation plus chi3, so the
    # Semi-HRR matrix is not the identity
    reps["sum"] = [_block_diag(g, c) for g, c in zip(elems, reps["chi3"])]

    kernels = {k: {"type": "module", "space": name,
                   "action": [_qmat(m) for m in acts]}
               for k, acts in reps.items()}
    nontriv = irreps[1]
    kernels["dual"] = {"type": "dual-of", "kernel": nontriv}
    classes = {f"ch_{k}": {"type": "chern-of", "kernel": k} for k in irreps}
    classes["one"] = {"type": "canonical-one", "space": "pt"}

    reps_idx = [c[0] for c in conjugacy_classes(table)]
    tasks = [{"id": f"hh-{name}", "op": "hh", "space": name},
             {"id": f"oracle-{name}", "op": "verify", "check": "hh-oracle",
              "space": name}]
    for k in irreps:
        tasks.append({"id": f"char-{k}", "op": "chern", "kernel": k,
                      "class_function": reps_idx})
    tasks += [
        {"id": f"semi-hrr-{name}", "op": "verify", "check": "semi-hrr",
         "kernels": irreps + ["sum"]},
        {"id": f"pairing-{name}", "op": "pairing-matrix", "space": name},
        {"id": f"snake-{nontriv}", "op": "verify", "check": "snake",
         "kernel": nontriv},
        {"id": f"reflex-{nontriv}", "op": "verify", "check": "reflexivity",
         "kernel": nontriv},
        {"id": f"cardy-{name}", "op": "verify", "check": "cardy",
         "kernels": irreps[:3], "count": DRAWS},
        {"id": f"ptrace-{name}", "op": "verify", "check": "partial-trace",
         "phi": "dual", "psi": nontriv, "count": DRAWS},
        {"id": f"mukai-diagram-{name}", "op": "eval-diagram",
         "term": mukai_term(name, f"ch_{irreps[0]}", f"ch_{nontriv}")},
        {"id": f"mukai-diagram-self-{name}", "op": "eval-diagram",
         "term": mukai_term(name, f"ch_{nontriv}", f"ch_{nontriv}")},
        {"id": f"push-diagram-{nontriv}", "op": "eval-diagram",
         "class_of": True, "term": push_term(nontriv)},
    ]
    doc = {"schema": SCHEMA,
           "spaces": {name: {"type": "group_cayley", "table": table},
                      "pt": {"type": "point"}},
           "kernels": kernels,
           "classes": classes,
           "tasks": tasks}
    if along_subgroup:
        # Z/2 generated by the second generator, a reflection
        s = index[tuple(tuple(r) for r in gens[1])]
        doc["spaces"]["BZ2"] = {"type": "group_cayley", "table": [[0, 1], [1, 0]]}
        doc["maps"] = {"incl": {"source": "BZ2", "target": name,
                                "basis_images": [0, s]}}
        kernels["sgnz"] = {"type": "module", "space": "BZ2",
                           "action": [[["1/1"]], [["-1/1"]]]}
        kernels["Ind"] = {"type": "induction", "map": "incl"}
        kernels["Res"] = {"type": "restriction", "map": "incl"}
        tasks += [
            {"id": f"functoriality-{name}", "op": "verify",
             "check": "functoriality", "outer": "Ind", "inner": "sgnz"},
            {"id": f"adjointness-{name}", "op": "verify", "check": "adjointness",
             "left": "Ind", "right": "Res"}]
    return doc


def _block_diag(a, b):
    n, m = len(a), len(b)
    return ([list(row) + [0] * m for row in a]
            + [[0] * n + list(row) for row in b])


def _abelian(elems):
    return all(_mul(g, h) == _mul(h, g) for g in elems for h in elems)


def mukai_term(space, v, w):
    """The diagram whose trace is the Mukai pairing <v, w> on `space`."""
    return (f"tr( id2(id1({space})) ; id2(serre({space})) | hhclass({v}) ; "
            f"id2(serre({space})) | hhclass({w}) | id2(serre({space})) )")


def push_term(kernel):
    """The diagram for the pushforward of 1 along a module kernel pt -> X."""
    return (f"gamma'(ker({kernel})) ; id2(ker({kernel})) | hhclass(one) | "
            f"id2(serre(pt) ∘ dual(ker({kernel}))) ; eps(ker({kernel}))")


def group_session(seed):
    """[(name, workspace document)] for the generated group workspaces."""
    rng = random.Random(seed)
    return [(name, group_workspace(name, gens, along, rng))
            for name, gens, along in GROUPS]


GENERATORS = {"quiver-ladder": quiver_ladder, "group-session": group_session}


def write_workload(workload, seed):
    """Write the generated workspaces of `workload` for `seed` as
    perfbench/out/inputs/seed<seed>/<workload>/<name>.json; return their
    paths."""
    d = os.path.join("perfbench", "out", "inputs", f"seed{seed}", workload)
    os.makedirs(d, exist_ok=True)
    paths = []
    for name, doc in GENERATORS[workload](seed):
        p = os.path.join(d, f"{name}.json")
        with open(p, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
        paths.append(p)
    return paths


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    for workload in GENERATORS:
        for p in write_workload(workload, args.seed):
            print(p)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
