"""Batch front-end: load a declarative workspace, run tasks, emit reports.

Workspace files are JSON with a versioned "schema" field; all scalars are
exact fraction strings "p/q" (or plain integers), so fixtures diff cleanly.
Reports are deterministic byte-for-byte apart from the timing fields.

  engine run <workspace.json> [--task ID] [--json|--text] [--seed N]
  engine explain <workspace.json> <task-id>

Exit codes: 0 all tasks ok, 1 a task failed or errored, or an internal
invariant broke while the workspace was built, 2 schema error (including
any other engine error raised while the workspace is built).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from .errors import (EngineError, InvariantViolation, SchemaError, TaskError,
                     UnknownTask)
from .linalg import Matrix, Q1, format_scalar, rank, scalar
from . import algebras as alg
from .algebras import _memo
from . import kernels as kn
from . import hochschild as hh
from . import diagrams as dg

SCHEMA = "hhengine/workspace/1"
REPORT_SCHEMA = "hhengine/report/1"

# fields of kernel specs, class specs and tasks that name one kernel
KERNEL_FIELDS = ("kernel", "phi", "psi", "outer", "inner", "left", "right")


def _fr(x):
    return format_scalar(scalar(x))


def _matrix_payload(m: Matrix):
    return [[_fr(x) for x in m.row(i)] for i in range(m.rows)]


def _parse_matrix(rows):
    return Matrix.from_rows([[scalar(x) for x in row] for row in rows])


def task_id(task):
    """The id a task is reported, filtered and explained under."""
    return task.get("id", task["op"])


def _error_text(e):
    return f"{type(e).__name__}: {e}"


class Workspace:
    """Resolved spaces, maps, kernels and classes of one workspace file."""

    def __init__(self, doc, path="<workspace>"):
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
            raise SchemaError(f"{path}: missing or wrong schema (want {SCHEMA})")
        self.doc = doc
        self.spaces = {}
        self.maps = {}
        self.kernels = {}
        self.classes = {}
        self.point = alg.point_algebra()
        try:
            self._check_references()
            self._build()
        except (SchemaError, InvariantViolation):
            raise                       # a broken invariant is no bad input
        except EngineError as e:
            raise SchemaError(f"{path}: {_error_text(e)}") from e
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"{path}: {e}") from e

    # -- constructors -----------------------------------------------------

    def point_space(self):
        """The space over this workspace's point algebra: the first `point`
        space by name, or one of its own if none is declared."""
        def build():
            for sp in self.spaces.values():
                if sp.algebra is self.point:
                    return sp
            return kn.Space(self.point, "pt")
        return _memo(self, "pt", build)

    def _check_references(self):
        """Every task has an op and at most a positive integer `count`, and
        every space, kernel and class that a spec or a task names is
        defined."""
        spaces = self.doc.get("spaces", {})
        kernels = self.doc.get("kernels", {})
        classes = self.doc.get("classes", {})
        tasks = self.doc.get("tasks", [])
        if not (isinstance(kernels, dict) and isinstance(classes, dict)
                and isinstance(tasks, list)):
            raise SchemaError("kernels and classes must be objects, tasks a list")
        owners = ([(f"kernel {n!r}", s) for n, s in sorted(kernels.items())]
                  + [(f"class {n!r}", s) for n, s in sorted(classes.items())]
                  + [(f"task {t.get('id', k)!r}" if isinstance(t, dict)
                      else f"task {k}", t)
                     for k, t in enumerate(tasks)])
        defined = {"space": spaces, "kernel": kernels, "class": classes}
        for owner, spec in owners:
            if not isinstance(spec, dict):
                raise SchemaError(f"{owner} is not an object")
            if owner.startswith("task"):
                if "op" not in spec:
                    raise SchemaError(f"{owner} has no op")
                count = spec.get("count", 1)
                if type(count) is not int or count < 1:
                    raise SchemaError(f"{owner} count must be a positive integer")
            refs = [("space", spec["space"])] if "space" in spec else []
            refs += [("kernel", spec[f]) for f in KERNEL_FIELDS if f in spec]
            refs += [("kernel", n) for n in spec.get("kernels", [])]
            refs += [("class", n) for n in ([spec["class"]] if "class" in spec
                                            else spec.get("classes", []))]
            for kind, name in refs:
                if name not in defined[kind]:
                    raise SchemaError(f"{owner} names an undefined {kind} {name!r}")

    def _build(self):
        for name in sorted(self.doc.get("spaces", {})):
            spec = self.doc["spaces"][name]
            t = spec["type"]
            if t == "point":
                a = self.point
            elif t == "group_cayley":
                a = alg.group_algebra(spec["table"], name)
            elif t == "path_quiver":
                a = alg.path_algebra(spec["vertices"],
                                     [tuple(x) for x in spec["arrows"]], name)
            elif t == "matrix_ring":
                a = alg.matrix_algebra(spec["size"], name)
            elif t == "product":
                f1 = self.spaces[spec["factors"][0]].algebra
                f2 = self.spaces[spec["factors"][1]].algebra
                a = alg.tensor_product(f1, f2)
            else:
                raise SchemaError(f"unknown space type {t!r}")
            self.spaces[name] = kn.Space(a, name)
        for name in sorted(self.doc.get("maps", {})):
            spec = self.doc["maps"][name]
            src = self.spaces[spec["source"]].algebra
            tgt = self.spaces[spec["target"]].algebra
            images = [int(i) for i in spec["basis_images"]]
            if len(images) != src.dim:
                raise SchemaError(f"map {name}: wrong number of images")
            if any(not 0 <= img < tgt.dim for img in images):
                raise SchemaError(f"map {name}: basis image out of range")
            m = Matrix.from_column_maps([{img: Q1} for img in images], tgt.dim)
            _check_algebra_map(src, tgt, m, name)
            self.maps[name] = (src, tgt, m, spec["source"], spec["target"])
        for name in sorted(self.doc.get("kernels", {})):
            self._resolve_kernel(name, [])
        for name in sorted(self.doc.get("classes", {})):
            self.classes[name] = self._class(self.doc["classes"][name])

    def _resolve_kernel(self, name, stack):
        if name in self.kernels:
            return self.kernels[name]
        if name in stack:
            raise SchemaError(f"kernel cycle through {name!r}")
        spec = self.doc["kernels"][name]
        for dep in ([spec["kernel"]] if spec["type"] == "dual-of" else
                    spec.get("kernels", [])):
            self._resolve_kernel(dep, stack + [name])
        self.kernels[name] = self._kernel(name, spec)
        return self.kernels[name]

    def _kernel(self, name, spec):
        t = spec["type"]
        if t == "identity":
            return self.spaces[spec["space"]].identity_kernel()
        if t == "serre":
            return self.spaces[spec["space"]].serre_kernel()
        if t == "anti-serre":
            return self.spaces[spec["space"]].anti_serre_kernel()
        if t == "module":
            sp = self.spaces[spec["space"]]
            a = sp.algebra
            action = [_parse_matrix(m) for m in spec["action"]]
            if len(action) != a.dim:
                raise SchemaError(f"kernel {name}: one matrix per basis element")
            mod = alg.module_as_bimodule(a, self.point, action, name)
            return hh.module_kernel(sp, self.point_space(), mod, name)
        if t == "induction":
            src, tgt, m, sname, tname = self.maps[spec["map"]]
            right = [tgt.right_mult_matrix(dict(m.col_items(j)))
                     for j in range(src.dim)]
            bim = alg.Bimodule(tgt, src, tgt.dim, list(tgt.left_mult), right,
                               name, check=True)
            res, _ = alg.projective_resolution(bim)
            at = kn.AtomicKernel(self.spaces[sname], self.spaces[tname], res, name)
            return kn.conv_kernel((at,))
        if t == "restriction":
            src, tgt, m, sname, tname = self.maps[spec["map"]]
            left = [tgt.left_mult_matrix(dict(m.col_items(j)))
                    for j in range(src.dim)]
            bim = alg.Bimodule(src, tgt, tgt.dim, left, list(tgt.right_mult),
                               name, check=True)
            res, _ = alg.projective_resolution(bim)
            at = kn.AtomicKernel(self.spaces[tname], self.spaces[sname], res, name)
            return kn.conv_kernel((at,))
        if t == "dual-of":
            return kn.dual_kernel(self.kernels[spec["kernel"]])
        if t == "convolution-of":
            ks = [self.kernels[n] for n in spec["kernels"]]
            out = ks[-1]
            for k in reversed(ks[:-1]):
                out = kn.convolve(k, out)
            return out
        raise SchemaError(f"unknown kernel type {t!r}")

    def _class(self, spec):
        t = spec["type"]
        if t == "canonical-one":
            return hh.one_point_class(self.spaces[spec["space"]])
        if t == "chern-of":
            k = self.kernels[spec["kernel"]]
            return hh.chern(k, hh.one_point_class(self.point_space()))
        if t == "coordinates":
            return hh.hh_class(self.spaces[spec["space"]],
                               int(spec.get("degree", 0)),
                               [scalar(c) for c in spec["coords"]])
        raise SchemaError(f"unknown class type {t!r}")

    def environment(self):
        return dg.Environment(spaces=self.spaces, kernels=self.kernels,
                              classes=self.classes)


def _check_algebra_map(src, tgt, m, name):
    if m.apply_map(src.unit) != tgt.unit:
        raise SchemaError(f"map {name} is not unital")
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = m.apply_map(dict(src.left_mult[i].col_items(j)))
            rhs = tgt.multiply(dict(m.col_items(i)), dict(m.col_items(j)))
            if lhs != rhs:
                raise SchemaError(f"map {name} is not multiplicative")


# -- tasks ---------------------------------------------------------------------


def run_task(ws: Workspace, task, rng):
    op = task["op"]
    if op == "hh":
        sp = ws.spaces[task["space"]]
        return {"hh": {str(k): v for k, v in sorted(hh.hh(sp).items())}}
    if op == "hcoh":
        sp = ws.spaces[task["space"]]
        return {"hcoh": {str(k): v for k, v in sorted(hh.hcoh(sp).items())}}
    if op == "pairing-matrix":
        sp = ws.spaces[task["space"]]
        m = hh.pairing_matrix(sp, int(task.get("degree", 0)))
        return {"matrix": _matrix_payload(m), "rank": rank(m)}
    if op == "chern":
        k = ws.kernels[task["kernel"]]
        c = hh.chern(k, hh.one_point_class(ws.point_space()))
        out = {"coords": [_fr(x) for x in c.coords]}
        if "class_function" in task:
            reps = [int(r) for r in task["class_function"]]
            vals = hh.class_function(k.target, ws.point_space(), c, reps)
            out["class_function"] = [_fr(v) for v in vals]
        return out
    if op == "euler":
        ka = ws.kernels[task["kernels"][0]]
        kb = ws.kernels[task["kernels"][1]]
        return {"euler": _fr(hh.euler(ka, kb))}
    if op == "pushforward":
        k = ws.kernels[task["kernel"]]
        if "class" in task:
            v = ws.classes[task["class"]]
            out = hh.pushforward(k, v)
            return {"coords": [_fr(x) for x in out.coords]}
        m = hh.pushforward_matrix(k, int(task.get("degree", 0)))
        return {"matrix": _matrix_payload(m)}
    if op == "pullback":
        k = ws.kernels[task["kernel"]]
        if "class" in task:
            v = ws.classes[task["class"]]
            out = hh.pullback(k, v)
            return {"coords": [_fr(x) for x in out.coords]}
        m = hh.pullback_matrix(k, int(task.get("degree", 0)))
        return {"matrix": _matrix_payload(m)}
    if op == "mukai":
        v = ws.classes[task["classes"][0]]
        w = ws.classes[task["classes"][1]]
        return {"value": _fr(hh.mukai_pairing(v, w))}
    if op == "eval-diagram":
        term = dg.parse(task["term"])
        val = dg.evaluate(term, ws.environment())
        if isinstance(val, kn.TwoMorphism):
            bot, top = dg.boundary_of(val, ws.environment())
            out = {"boundary": {"bottom": bot, "top": top},
                   "degree": val.degree}
            if "class_of" in task and task["class_of"]:
                cls = hh.two_morphism_to_class(val.target.source, val, "homology")
                out["coords"] = [_fr(x) for x in cls.coords]
            return out
        return {"value": _fr(val)}
    if op == "verify":
        return run_verify(ws, task, rng)
    raise UnknownTask(op)


def _random_endo(k, rng):
    t = kn.random_two_morphism(k, k, 0, rng)
    if t is None:
        t = kn.TwoMorphism.identity(k)
    return t


def run_verify(ws: Workspace, task, rng):
    check = task["check"]
    if check == "hh-oracle":
        sp = ws.spaces[task["space"]]
        a = hh.hh(sp)
        b = hh.hh_via_tor(sp)
        ok = a == b
        tq_proj, _ = alg.trace_quotient(sp.algebra)
        z = alg.center(sp.algebra)
        ok = ok and a.get(0, 0) == tq_proj.rows
        ok = ok and hh.hcoh(sp).get(0, 0) == z.cols
        if not ok:
            raise TaskError(f"hh-oracle failed on {sp.label}: {a} vs {b}")
        return {"hh": {str(k): v for k, v in sorted(a.items())},
                "tor": {str(k): v for k, v in sorted(b.items())},
                "trace_quotient_dim": tq_proj.rows, "center_dim": z.cols}
    if check == "semi-hrr":
        names = task["kernels"]
        mat = []
        one = hh.one_point_class(ws.point_space())
        for na in names:
            row = []
            for nb in names:
                ka, kb = ws.kernels[na], ws.kernels[nb]
                m = hh.mukai_pairing(hh.chern(ka, one), hh.chern(kb, one))
                e = hh.euler(ka, kb)
                if m != e:
                    raise TaskError(f"semi-hrr failed at ({na}, {nb}): {m} != {e}")
                row.append(_fr(m))
            mat.append(row)
        return {"pairing_matrix": mat}
    if check == "functoriality":
        outer = ws.kernels[task["outer"]]
        inner = ws.kernels[task["inner"]]
        comp = kn.convolve(outer, inner)
        m1 = hh.pushforward_matrix(comp)
        m2 = hh.pushforward_matrix(outer) * hh.pushforward_matrix(inner)
        if m1 != m2:
            raise TaskError("pushforward functoriality failed")
        p1 = hh.pullback_matrix(comp)
        p2 = hh.pullback_matrix(inner) * hh.pullback_matrix(outer)
        if p1 != p2:
            raise TaskError("pullback functoriality failed")
        return {"pushforward": _matrix_payload(m1), "pullback": _matrix_payload(p1)}
    if check == "adjointness":
        left = ws.kernels[task["left"]]     # left adjoint (e.g. induction)
        right = ws.kernels[task["right"]]
        mi = hh.pushforward_matrix(left)
        mr = hh.pullback_matrix(right)
        if mi != mr:
            raise TaskError("adjoint push/pull matrices differ")
        for a, v in enumerate(hh.hh_basis(left.source)):
            for b, w in enumerate(hh.hh_basis(left.target)):
                l = hh.mukai_pairing(hh.pushforward(left, v), w)
                r = hh.mukai_pairing(v, hh.pushforward(right, w))
                if l != r:
                    raise TaskError(f"mukai adjointness failed at ({a},{b})")
        return {"matrix": _matrix_payload(mi)}
    if check == "isometry":
        k = ws.kernels[task["kernel"]]
        vs = hh.hh_basis(k.source)
        before = [[_fr(hh.mukai_pairing(v, w)) for w in vs] for v in vs]
        pushed = [hh.pushforward(k, v) for v in vs]
        after = [[_fr(hh.mukai_pairing(v, w)) for w in pushed] for v in pushed]
        if before != after:
            raise TaskError("isometry failed")
        return {"pairing_matrix": before}
    if check == "cardy":
        names = task["kernels"]
        count = task.get("count", 4)
        vals = []
        for i in range(count):
            ne = names[i % len(names)]
            nf = names[(i + 1) % len(names)]
            e, f = ws.kernels[ne], ws.kernels[nf]
            s = _random_endo(e, rng)
            t = _random_endo(f, rng)
            lhs, rhs = hh.cardy_check(e, f, s, t)
            if lhs != rhs:
                raise TaskError(f"cardy failed on ({ne}, {nf}): {lhs} != {rhs}")
            vals.append(_fr(lhs))
        # identity case reduces to the euler pairing
        for na in names:
            for nb in names:
                e, f = ws.kernels[na], ws.kernels[nb]
                lhs, rhs = hh.cardy_check(e, f, kn.TwoMorphism.identity(e),
                                          kn.TwoMorphism.identity(f))
                if not (lhs == rhs == hh.euler(e, f)):
                    raise TaskError(f"cardy identity case failed ({na},{nb})")
        return {"values": vals}
    if check == "snake":
        k = ws.kernels[task["kernel"]]
        for kk in (k, kn.dual_kernel(k)):
            if not _snakes_hold(kk):
                raise TaskError(f"snake identities failed for {kk!r}")
        return {"kernel": task["kernel"], "including_dual": True}
    if check == "reflexivity":
        k = ws.kernels[task["kernel"]]
        mg = kn.mirrored_gamma(k)
        gd = kn.gamma(kn.dual_kernel(k))
        fix = kn.hcompose([kn.kernel_double_dual_inverse(k),
                           kn.TwoMorphism.identity(kn.dual_kernel(k))])
        if not mg.equals(fix.compose(gd)):
            raise TaskError(f"reflexive politeness failed for {k!r}")
        return {"kernel": task["kernel"]}
    if check == "partial-trace":
        phi = ws.kernels[task["phi"]]
        psi = ws.kernels[task["psi"]]
        count = task.get("count", 4)
        x, y = phi.source, phi.target
        z = psi.source
        sky = y.serre_kernel()
        skz = z.serre_kernel()
        big = kn.convolve(phi, psi)
        tgt = kn.conv_kernel(sky.factors + phi.factors + psi.factors
                             + skz.factors)
        vals = []
        for i in range(count):
            a = kn.random_two_morphism(big, tgt, 0, rng)
            if a is None:
                raise TaskError("no 2-morphisms available for partial-trace")
            full = kn.serre_trace(big, a)
            # close the left strand (phi), leaving a trace shape on psi
            ptr = kn.partial_trace_left(a, phi, psi, kn.convolve(psi, skz))
            part = kn.serre_trace(psi, ptr)
            if full != part:
                raise TaskError(f"partial trace left failed: {full} != {part}")
            # close the right strand (psi), leaving a trace shape on phi
            ptr_r = kn.partial_trace_right(a, psi, phi, kn.convolve(sky, phi))
            part_r = kn.serre_trace(phi, ptr_r)
            if full != part_r:
                raise TaskError(f"partial trace right failed: {full} != {part_r}")
            vals.append(_fr(full))
        return {"values": vals}
    raise UnknownTask(check)


def _snakes_hold(phi):
    e = kn.counit_eps(phi)
    eta2 = kn.unit_eta2(phi)
    em = kn.counit_eps_mirror(phi)
    eta1 = kn.unit_eta1(phi)
    tr = kn.tau_r(phi)
    tl = kn.tau_l(phi)
    s1 = kn.whisker(None, e, phi).compose(kn.whisker(phi, eta2))
    if not s1.equals(kn.TwoMorphism.identity(phi)):
        return False
    s2 = kn.whisker(tr, e).compose(kn.whisker(None, eta2, tr))
    if not s2.equals(kn.TwoMorphism.identity(tr)):
        return False
    s3 = kn.whisker(None, em, tl).compose(kn.whisker(tl, eta1))
    if not s3.equals(kn.TwoMorphism.identity(tl)):
        return False
    s4 = kn.whisker(phi, em).compose(kn.whisker(None, eta1, phi))
    if not s4.equals(kn.TwoMorphism.identity(phi)):
        return False
    return True


# -- report assembly --------------------------------------------------------------


def run_workspace(doc, path, only_task=None, seed=0):
    # Memo entries and their owners form reference cycles, which only the
    # cyclic collector frees, and it runs late; collect workspaces the caller
    # has dropped before building this one, so a process running workspaces
    # in turn peaks at its largest one rather than at an accumulation.
    gc.collect()
    ws = Workspace(doc, path)
    rng = random.Random(seed)
    tasks = doc.get("tasks", [])
    if only_task is not None:
        tasks = [t for t in tasks if task_id(t) == only_task]
        if not tasks:
            raise SchemaError(f"no task with id {only_task!r}")
    entries = []
    all_ok = True
    for task in tasks:
        t0 = time.perf_counter()
        try:
            payload = run_task(ws, task, rng)
            status = "ok"
        except TaskError as e:
            payload = {"error": str(e)}
            status = "fail"
            all_ok = False
        except Exception as e:
            # whatever breaks inside one task stays in that task's entry
            payload = {"error": _error_text(e)}
            status = "error"
            all_ok = False
        entries.append({"id": task_id(task), "status": status, "payload": payload,
                        "seconds": round(time.perf_counter() - t0, 3)})
    report = {"schema": REPORT_SCHEMA, "seed": seed, "tasks": entries}
    return report, all_ok


def format_text(report):
    lines = [f"# report (seed {report['seed']})"]
    for t in report["tasks"]:
        lines.append(f"[{t['status']:5}] {t['id']}  ({t['seconds']}s)")
        lines.append(f"        {json.dumps(t['payload'], sort_keys=True)}")
    return "\n".join(lines)


# -- explain -----------------------------------------------------------------------


def explain_task(doc, path, tid):
    ws = Workspace(doc, path)
    rng = random.Random(0)
    tasks = [t for t in doc.get("tasks", []) if task_id(t) == tid]
    if not tasks:
        raise UnknownTask(tid)
    task = tasks[0]
    op = task["op"]
    out = [f"task {tid}: {op}"]
    if op == "mukai":
        v = ws.classes[task["classes"][0]]
        x = v.space
        out.append("composite: tr( id2(id1(X)) ; id2(serre(X)) | hhclass(v)"
                   " ; id2(serre(X)) | hhclass(w) | id2(serre(X)) )"
                   f"   with X = {x.label}")
        sk = x.serre_kernel()
        pair = kn.convolve(sk, sk)
        dims = {n: pair.complex.dim(n) for n in pair.complex.degrees()}
        out.append(f"intermediate serre.serre dimensions: {dims}")
        w = ws.classes[task["classes"][1]]
        out.append(f"value: {_fr(hh.mukai_pairing(v, w))}")
        out.append(f"value read through the pairing block P on HH_{v.degree} x"
                   f" HH_{-v.degree}: <v, w> = sum v_a P_ab w_b, P holding the"
                   " composite on basis classes, memoised on X")
    elif op == "pushforward" and "class" in task:
        k = ws.kernels[task["kernel"]]
        out.append("composite: gamma'(ker(Phi)) ; id2(ker(Phi)) | hhclass(v) |"
                   " id2(serre(X) ∘ dual(ker(Phi))) ; eps(ker(Phi))")
        dk = kn.dual_kernel(k)
        mid = kn.conv_kernel(k.factors + k.source.serre_kernel().factors
                             + dk.factors)
        out.append("intermediate phi.serre.phi^v dimensions: "
                   f"{ {n: mid.complex.dim(n) for n in mid.complex.degrees()} }")
        v = ws.classes[task["class"]]
        res = hh.pushforward(k, v)
        out.append(f"value: {[_fr(x) for x in res.coords]}")
        out.append(f"value read through the matrix of Phi_* on HH_{v.degree},"
                   " its columns the composite on basis classes, memoised on"
                   " ker(Phi)")
    elif op == "verify" and task.get("check") == "cardy":
        payload = run_verify(ws, task, rng)
        out.append("identity: supertrace of (s, t)-conjugation on Ext^*(E, F)"
                   " = <iota^E(s), iota^F(t)>")
        out.append(f"both sides per instance: {payload['values']}")
    elif op == "verify" and task.get("check") == "hh-oracle":
        payload = run_verify(ws, task, rng)
        out.append(f"hom-complex definition: {payload['hh']}")
        out.append(f"tor oracle:             {payload['tor']}")
    else:
        payload = run_task(ws, task, rng)
        out.append(f"payload: {json.dumps(payload, sort_keys=True)}")
    return "\n".join(out)


# -- entry point --------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(prog="engine")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a workspace")
    runp.add_argument("workspace")
    runp.add_argument("--task", default=None)
    runp.add_argument("--json", action="store_true", default=True, dest="as_json")
    runp.add_argument("--text", action="store_false", dest="as_json")
    runp.add_argument("--seed", type=int, default=0)
    exp = sub.add_parser("explain", help="explain one task")
    exp.add_argument("workspace")
    exp.add_argument("task_id")
    args = parser.parse_args(argv)

    try:
        with open(args.workspace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2

    if args.command == "run":
        try:
            report, ok = run_workspace(doc, args.workspace,
                                       only_task=args.task, seed=args.seed)
        except SchemaError as e:
            print(f"schema error: {e}", file=sys.stderr)
            return 2
        except InvariantViolation as e:
            print(f"error: {_error_text(e)}", file=sys.stderr)
            return 1
        if args.as_json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(format_text(report))
        return 0 if ok else 1
    try:
        print(explain_task(doc, args.workspace, args.task_id))
    except UnknownTask as e:
        print(f"unknown task: {e}", file=sys.stderr)
        return 1
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {_error_text(e)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
