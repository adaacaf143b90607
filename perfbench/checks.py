"""Independent checks of hhengine reports, computed from the workspace JSON.

Nothing here imports hhengine.  Every expected value comes from the input
document itself by textbook formulas:

* group algebras Q[G] from a Cayley table: conjugacy classes counted from
  the table; HH_0 = HH^0 = number of classes, nothing in higher degrees;
  characters are traces of the given representation matrices and
  chi(E, F) = dim Hom_G(E, F) = (1/|G|) sum_g chi_E(g^-1) chi_F(g);
* path algebras of connected tree quivers: HH_0 = number of vertices,
  HH^0 = 1, nothing higher; the Euler form from dimension vectors,
  chi(E, F) = sum_v d_v(E) d_v(F) - sum_{s->t} d_s(E) d_t(F), so
  chi(S_s, S_t) = -1 along each arrow s -> t;
* M_n(Q) (Morita equivalent to Q): HH_0 = HH^0 = 1 and
  chi(E, F) = dim E dim F / n^2; the point is M_1.

`check_report(doc, report)` returns one verdict per report entry: None when
the task is `ok` and its payload agrees with every check that applies, else
a reason.  Entries whose tasks have no independent value here still must
report `ok`, and the shapes of their payloads are checked.
"""

from __future__ import annotations

import re
from fractions import Fraction

# -- spaces -------------------------------------------------------------------


def _inverses(table):
    n = len(table)
    ident = next(e for e in range(n) if all(table[e][x] == x for x in range(n)))
    return [next(j for j in range(n) if table[i][j] == ident) for i in range(n)]


def conjugacy_classes(table):
    """Conjugacy classes of a Cayley table, as sorted lists of indices."""
    n = len(table)
    inv = _inverses(table)
    seen, classes = set(), []
    for g in range(n):
        if g not in seen:
            cls = sorted({table[table[h][g]][inv[h]] for h in range(n)})
            seen.update(cls)
            classes.append(cls)
    return classes


def is_connected_tree(vertices, arrows):
    if len(arrows) != vertices - 1:
        return False
    reach, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for s, t in arrows:
            for a, b in ((s, t), (t, s)):
                if a == v and b not in reach:
                    reach.add(b)
                    todo.append(b)
    return len(reach) == vertices


def hochschild_dims(spec):
    """(HH_., HH^.) as {degree: dim} for the spaces with a known answer."""
    t = spec["type"]
    if t == "point":
        return {0: 1}, {0: 1}
    if t == "matrix_ring":
        return {0: 1}, {0: 1}
    if t == "group_cayley":
        k = len(conjugacy_classes(spec["table"]))
        return {0: k}, {0: k}
    if t == "path_quiver":
        n = spec["vertices"]
        if is_connected_tree(n, [tuple(a) for a in spec["arrows"]]):
            return {0: n}, {0: 1}
    return None


# -- modules ------------------------------------------------------------------


def _mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def trace(m):
    return sum((m[i][i] for i in range(len(m))), Fraction(0))


def characters(action):
    """Trace of each action matrix (one per algebra basis element)."""
    return [trace(_mat(m)) for m in action]


def dimension_vector(action, vertices):
    """d_v = trace of the action of the trivial path at v (basis index v)."""
    return [trace(_mat(action[v])) for v in range(vertices)]


def euler_form(spec, action_e, action_f):
    """chi(E, F) for modules over the space `spec`, or None if unknown."""
    t = spec["type"]
    if t == "group_cayley":
        table = spec["table"]
        inv = _inverses(table)
        ce, cf = characters(action_e), characters(action_f)
        return sum((ce[inv[g]] * cf[g] for g in range(len(table))),
                   Fraction(0)) / len(table)
    if t == "path_quiver":
        n = spec["vertices"]
        de, df = dimension_vector(action_e, n), dimension_vector(action_f, n)
        return (sum((de[v] * df[v] for v in range(n)), Fraction(0))
                - sum((de[s] * df[u] for s, u in spec["arrows"]), Fraction(0)))
    if t in ("matrix_ring", "point"):
        n = spec.get("size", 1)
        return Fraction(len(action_e[0]) * len(action_f[0]), n * n)
    return None


# -- kernels ------------------------------------------------------------------


def kernel_ends(doc, name):
    """(source, target) space names of a kernel; module kernels go pt -> X."""
    spec = doc["kernels"][name]
    t = spec["type"]
    if t in ("identity", "serre", "anti-serre"):
        return spec["space"], spec["space"]
    if t == "module":
        pts = [n for n, s in doc["spaces"].items() if s["type"] == "point"]
        return (pts[0] if pts else None), spec["space"]
    if t == "induction":
        m = doc["maps"][spec["map"]]
        return m["source"], m["target"]
    if t == "restriction":
        m = doc["maps"][spec["map"]]
        return m["target"], m["source"]
    if t == "dual-of":
        s, u = kernel_ends(doc, spec["kernel"])
        return u, s
    if t == "convolution-of":
        ends = [kernel_ends(doc, k) for k in spec["kernels"]]
        return ends[-1][0], ends[0][1]
    return None, None


def _module(doc, kernel):
    spec = doc["kernels"].get(kernel)
    if spec and spec["type"] == "module":
        return spec
    return None


def chi(doc, e, f):
    """chi(E, F) for two module kernels on one space, or None."""
    me, mf = _module(doc, e), _module(doc, f)
    if me is None or mf is None or me["space"] != mf["space"]:
        return None
    return euler_form(doc["spaces"][me["space"]], me["action"], mf["action"])


def _chern_kernel(doc, cls):
    spec = doc.get("classes", {}).get(cls)
    if spec and spec["type"] == "chern-of":
        return spec["kernel"]
    return None


def _hh0(doc, space):
    dims = hochschild_dims(doc["spaces"][space]) if space else None
    return dims[0].get(0) if dims else None


# -- per task -----------------------------------------------------------------


MUKAI_TERM = re.compile(
    r"^tr\(\s*id2\(id1\((\w+)\)\)\s*;\s*id2\(serre\(\1\)\)\s*\|\s*hhclass\((\w+)\)"
    r"\s*;\s*id2\(serre\(\1\)\)\s*\|\s*hhclass\((\w+)\)\s*\|\s*id2\(serre\(\1\)\)\s*\)$")
PUSH_TERM = re.compile(r"^gamma'\(ker\((\w+)\)\)\s*;\s*id2\(ker\(\1\)\)\s*\|"
                       r"\s*hhclass\((\w+)\)\s*\|")


def _degrees(d):
    return {int(k): v for k, v in d.items()}


def _shape(m):
    return (len(m), len(m[0]) if m else 0)


def check_task(doc, task, entry, chern_coords):
    """None if the entry passes, else the reason it fails."""
    if entry.get("status") != "ok":
        return f"status {entry.get('status')}: {entry.get('payload')}"
    p = entry["payload"]
    op = task["op"]
    if op in ("hh", "hcoh"):
        dims = hochschild_dims(doc["spaces"][task["space"]])
        want = dims[0 if op == "hh" else 1] if dims else None
        if want is not None and _degrees(p[op]) != want:
            return f"{op} {p[op]} != {want}"
    elif op == "pairing-matrix":
        n = _hh0(doc, task["space"]) if task.get("degree", 0) == 0 else None
        if n is not None and (_shape(p["matrix"]) != (n, n) or p["rank"] != n):
            return f"Mukai pairing not a nondegenerate {n}x{n} matrix: {p}"
    elif op == "chern":
        if "class_function" in task:
            chars = characters(_module(doc, task["kernel"])["action"])
            want = [chars[int(g)] for g in task["class_function"]]
            if [Fraction(v) for v in p["class_function"]] != want:
                return f"class function {p['class_function']} != {want}"
        n = _hh0(doc, kernel_ends(doc, task["kernel"])[1])
        if n is not None and len(p["coords"]) != n:
            return f"chern has {len(p['coords'])} coordinates, HH_0 has {n}"
    elif op == "euler":
        want = chi(doc, *task["kernels"])
        if want is not None and Fraction(p["euler"]) != want:
            return f"euler {p['euler']} != {want}"
    elif op == "mukai":
        ka, kb = (_chern_kernel(doc, c) for c in task["classes"])
        want = chi(doc, ka, kb) if ka and kb else None
        ones = [doc["classes"][c] for c in task["classes"]]
        if want is None and all(c["type"] == "canonical-one" and
                                doc["spaces"][c["space"]]["type"] == "point"
                                for c in ones):
            want = Fraction(1)
        if want is not None and Fraction(p["value"]) != want:
            return f"mukai {p['value']} != {want}"
    elif op in ("pushforward", "pullback"):
        src, tgt = kernel_ends(doc, task["kernel"])
        if op == "pullback":
            src, tgt = tgt, src
        ns, nt = _hh0(doc, src), _hh0(doc, tgt)
        if "class" in task:
            if nt is not None and len(p["coords"]) != nt:
                return f"{op} has {len(p['coords'])} coordinates, want {nt}"
        elif None not in (ns, nt) and _shape(p["matrix"]) != (nt, ns):
            return f"{op} matrix shape {_shape(p['matrix'])} != {(nt, ns)}"
    elif op == "eval-diagram":
        m = MUKAI_TERM.match(task["term"])
        if m:
            want = chi(doc, _chern_kernel(doc, m.group(2)),
                       _chern_kernel(doc, m.group(3)))
            if want is not None and Fraction(p["value"]) != want:
                return f"Mukai diagram {p['value']} != {want}"
        m = PUSH_TERM.match(task["term"])
        if m and task.get("class_of") and m.group(1) in chern_coords:
            ends = kernel_ends(doc, m.group(1))
            one = doc.get("classes", {}).get(m.group(2), {})
            if (one.get("type") == "canonical-one" and one.get("space") == ends[0]
                    and p["coords"] != chern_coords[m.group(1)]):
                return (f"pushforward diagram {p['coords']} != "
                        f"ch({m.group(1)}) {chern_coords[m.group(1)]}")
    elif op == "verify":
        return _check_verify(doc, task, p)
    return None


def _check_verify(doc, task, p):
    check = task["check"]
    if check == "hh-oracle":
        dims = hochschild_dims(doc["spaces"][task["space"]])
        if dims is not None:
            hh, hc = dims
            if (_degrees(p["hh"]) != hh or _degrees(p["tor"]) != hh
                    or p["trace_quotient_dim"] != hh[0]
                    or p["center_dim"] != hc[0]):
                return f"hh-oracle {p} disagrees with HH_0 {hh}, HH^0 {hc}"
    elif check == "semi-hrr":
        names = task["kernels"]
        want = [[chi(doc, a, b) for b in names] for a in names]
        got = [[Fraction(x) for x in row] for row in p["pairing_matrix"]]
        if all(x is not None for row in want for x in row) and got != want:
            return f"Semi-HRR matrix {p['pairing_matrix']} != chi {want}"
    elif check in ("cardy", "partial-trace"):
        if len(p["values"]) != int(task.get("count", 4)):
            return f"{check} returned {len(p['values'])} values"
    elif check in ("functoriality", "adjointness"):
        if check == "functoriality":
            src = kernel_ends(doc, task["inner"])[0]
            tgt = kernel_ends(doc, task["outer"])[1]
        else:
            src, tgt = kernel_ends(doc, task["left"])
        ns, nt = _hh0(doc, src), _hh0(doc, tgt)
        mats = [p["pushforward"], p["pullback"]] if check == "functoriality" \
            else [p["matrix"]]
        shapes = [(nt, ns), (ns, nt)][:len(mats)]
        if None not in (ns, nt) and [_shape(m) for m in mats] != shapes:
            return f"{check} matrix shapes {[_shape(m) for m in mats]} != {shapes}"
    elif check == "isometry":
        n = _hh0(doc, kernel_ends(doc, task["kernel"])[0])
        if n is not None and _shape(p["pairing_matrix"]) != (n, n):
            return f"isometry pairing matrix is not {n}x{n}"
    elif check in ("snake", "reflexivity"):
        if p.get("kernel") != task["kernel"]:
            return f"{check} answered for {p.get('kernel')}"
    return None


def check_report(doc, report):
    """(verdicts, structural_error): one verdict per task, in order."""
    tasks = doc.get("tasks", [])
    entries = report.get("tasks", [])
    if len(entries) != len(tasks) or any(
            e.get("id") != t.get("id", t["op"]) for e, t in zip(entries, tasks)):
        return [], "report entries do not match the workspace tasks"
    chern_coords = {t["kernel"]: e["payload"].get("coords")
                    for t, e in zip(tasks, entries)
                    if t["op"] == "chern" and e.get("status") == "ok"}
    verdicts = []
    for t, e in zip(tasks, entries):
        try:
            verdicts.append(check_task(doc, t, e, chern_coords))
        except (KeyError, TypeError, ValueError, IndexError,
                ZeroDivisionError) as err:
            verdicts.append(f"malformed payload: {type(err).__name__}: {err}")
    return verdicts, None
