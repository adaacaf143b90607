"""Textual string-diagram terms: parse, print, evaluate.

Grammar (UTF-8, whitespace-insensitive):

  term2 := atom2 | term2 ";" term2 | term2 "|" term2 | "(" term2 ")"
  atom2 := "id2(" term1 ")" | "gamma(" term1 ")" | "gamma'(" term1 ")"
         | "eps(" term1 ")" | "eps'(" term1 ")" | "hhclass(" name ")"
         | "tr(" term2 ")" | "ptr_l(" term2 ")" | "ptr_r(" term2 ")"
  term1 := "id1(" name ")" | "ker(" name ")" | "serre(" name ")"
         | "antiserre(" name ")" | "dual(" term1 ")" | term1 "∘" term1

";" binds loosest, then "|", then "∘".  "a ; b" composes vertically with a
at the bottom (diagrams read bottom to top); "a | b" composes horizontally
with a on the left.  Vertical composition matches boundaries up to the
eager normalization of the kernel layer: identity factors vanish, and
adjacent serre/anti-serre pairs are inserted or cancelled through the
canonical 2-morphisms.
"""

from __future__ import annotations

from .errors import BoundaryMismatch, DiagramSyntaxError, UnknownPrimitive
from .algebras import _memoised
from . import kernels as kn
from . import hochschild as hh


# -- AST -----------------------------------------------------------------------


class Node:
    __slots__ = ("kind", "args", "span")

    def __init__(self, kind, args, span):
        self.kind = kind
        self.args = args
        self.span = span

    def __repr__(self):
        return f"Node({self.kind}, {self.args})"

    def __eq__(self, other):
        return (isinstance(other, Node) and self.kind == other.kind
                and list(self.args) == list(other.args))


ATOMS1 = ("id1", "ker", "serre", "antiserre", "dual")
ATOMS2 = ("id2", "gamma", "gamma'", "eps", "eps'", "hhclass",
          "tr", "ptr_l", "ptr_r")


def print_term(node: Node) -> str:
    k = node.kind
    if k == "seq":
        return " ; ".join(_wrap(a, ("seq",)) for a in node.args)
    if k == "beside":
        return " | ".join(_wrap(a, ("seq", "beside")) for a in node.args)
    if k == "compose1":
        return " ∘ ".join(_wrap(a, ("compose1",)) for a in node.args)
    if k == "name":
        return node.args[0]
    if k in ATOMS1 or k in ATOMS2:
        inner = ", ".join(print_term(a) for a in node.args)
        return f"{k}({inner})"
    raise UnknownPrimitive(k)


def _wrap(node, looser):
    s = print_term(node)
    return f"({s})" if node.kind in looser else s


# -- parser ----------------------------------------------------------------------


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def loc(self, pos=None):
        p = self.pos if pos is None else pos
        line = self.text.count("\n", 0, p) + 1
        col = p - (self.text.rfind("\n", 0, p) + 1) + 1
        return line, col

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            line, col = self.loc()
            raise DiagramSyntaxError(f"expected {ch!r}", line, col)
        self.pos += len(ch)

    def word(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] in "_'"):
            self.pos += 1
        if self.pos == start:
            line, col = self.loc()
            raise DiagramSyntaxError("expected a name", line, col)
        return self.text[start:self.pos], start

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)


def parse(text: str) -> Node:
    sc = _Scanner(text)
    node = _parse_seq(sc)
    if not sc.at_end():
        line, col = sc.loc()
        raise DiagramSyntaxError("trailing input", line, col)
    return node


def _parse_seq(sc):
    parts = [_parse_beside(sc)]
    while sc.peek() == ";":
        sc.expect(";")
        parts.append(_parse_beside(sc))
    if len(parts) == 1:
        return parts[0]
    return Node("seq", parts, parts[0].span)


def _parse_beside(sc):
    parts = [_parse_atom2(sc)]
    while sc.peek() == "|":
        sc.expect("|")
        parts.append(_parse_atom2(sc))
    if len(parts) == 1:
        return parts[0]
    return Node("beside", parts, parts[0].span)


def _parse_atom2(sc):
    sc.skip_ws()
    start = sc.pos
    if sc.peek() == "(":
        sc.expect("(")
        inner = _parse_seq(sc)
        sc.expect(")")
        return inner
    w, wstart = sc.word()
    if w not in ATOMS2:
        line, col = sc.loc(wstart)
        if w in ATOMS1:
            raise DiagramSyntaxError(f"{w} is a 1-morphism primitive", line, col)
        raise UnknownPrimitive(f"{w} at line {line}, column {col}")
    sc.expect("(")
    if w == "hhclass":
        name, _ = sc.word()
        sc.expect(")")
        return Node("hhclass", [Node("name", [name], start)], start)
    if w in ("tr", "ptr_l", "ptr_r"):
        inner = _parse_seq(sc)
        sc.expect(")")
        return Node(w, [inner], start)
    inner = _parse_term1(sc)
    sc.expect(")")
    return Node(w, [inner], start)


def _parse_term1(sc):
    parts = [_parse_atom1(sc)]
    while True:
        sc.skip_ws()
        if sc.text.startswith("∘", sc.pos):
            sc.expect("∘")
            parts.append(_parse_atom1(sc))
        else:
            break
    if len(parts) == 1:
        return parts[0]
    return Node("compose1", parts, parts[0].span)


def _parse_atom1(sc):
    sc.skip_ws()
    start = sc.pos
    if sc.peek() == "(":
        sc.expect("(")
        inner = _parse_term1(sc)
        sc.expect(")")
        return inner
    w, wstart = sc.word()
    if w not in ATOMS1:
        line, col = sc.loc(wstart)
        raise UnknownPrimitive(f"{w} at line {line}, column {col}")
    sc.expect("(")
    if w == "dual":
        inner = _parse_term1(sc)
        sc.expect(")")
        return Node("dual", [inner], start)
    name, _ = sc.word()
    sc.expect(")")
    return Node(w, [Node("name", [name], start)], start)


# -- environment and realization ---------------------------------------------------


class Environment:
    """Named spaces, kernels and homology classes for evaluation."""

    def __init__(self, spaces=None, kernels=None, classes=None):
        self.spaces = dict(spaces or {})
        self.kernels = dict(kernels or {})
        self.classes = dict(classes or {})

    def space(self, name):
        if name not in self.spaces:
            raise UnknownPrimitive(f"unknown space {name!r}")
        return self.spaces[name]

    def kernel(self, name):
        if name not in self.kernels:
            raise UnknownPrimitive(f"unknown kernel {name!r}")
        return self.kernels[name]

    def hhclass(self, name):
        if name not in self.classes:
            raise UnknownPrimitive(f"unknown class {name!r}")
        return self.classes[name]


def realize_kernel(node: Node, env: Environment) -> kn.Kernel:
    k = node.kind
    if k == "id1":
        return env.space(node.args[0].args[0]).identity_kernel()
    if k == "ker":
        return env.kernel(node.args[0].args[0])
    if k == "serre":
        return env.space(node.args[0].args[0]).serre_kernel()
    if k == "antiserre":
        return env.space(node.args[0].args[0]).anti_serre_kernel()
    if k == "dual":
        return kn.dual_kernel(realize_kernel(node.args[0], env))
    if k == "compose1":
        ks = [realize_kernel(a, env) for a in node.args]
        out = ks[-1]
        for x in reversed(ks[:-1]):
            out = kn.convolve(x, out)
        return out
    raise UnknownPrimitive(k)


# -- boundaries and reconciliation --------------------------------------------------


def _factor_descriptor(space_map, f):
    for name, sp in space_map.items():
        if sp.serre_kernel().factors and \
                f is sp.serre_kernel().factors[0]:
            return f"serre({name})"
        if sp.anti_serre_kernel().factors and \
                f is sp.anti_serre_kernel().factors[0]:
            return f"antiserre({name})"
    return f.label


def boundary_of(t: kn.TwoMorphism, env: Environment):
    """(bottom, top) as printable factor lists."""
    names = {}
    for n, k in env.kernels.items():
        for f in k.factors:
            names[id(f)] = f"ker({n})"
        dual = _memoised(k, "dual")    # None: no factor of the dual exists
        if dual is not None:
            for f in dual.factors:
                names[id(f)] = f"dual(ker({n}))"
    def describe(kernel):
        if kernel.is_identity:
            return [f"id1({kernel.source.label})"]
        out = []
        for f in kernel.factors:
            out.append(names.get(id(f), _factor_descriptor(env.spaces, f)))
        return out
    return describe(t.source), describe(t.target)


def reconcile(src: kn.Kernel, tgt: kn.Kernel):
    """A canonical 2-morphism src => tgt built from Serre pair insertions
    and cancelations; None when the factor lists cannot be aligned."""
    if src is tgt:
        return kn.TwoMorphism.identity(src)
    out = None
    cur = list(src.factors)
    goal = list(tgt.factors)
    for _ in range(60):
        if cur == goal:
            out = out or kn.TwoMorphism.identity(src)
            return out if out.target is tgt else None
        # first position where they disagree
        k = 0
        while k < min(len(cur), len(goal)) and cur[k] is goal[k]:
            k += 1
        can = _serre_step(cur, goal, k)
        if can is None:
            return None
        # splice can in place of the factors k .. k + width of cur
        width = len(can.source.factors)
        left, right = cur[:k], cur[k + width:]
        step = kn.whisker(kn.conv_kernel(left) if left else None, can,
                          kn.conv_kernel(right) if right else None)
        out = step if out is None else step.compose(out)
        cur = left + list(can.target.factors) + right
    return None


def _serre_step(cur, goal, k):
    """The canonical 2-morphism that aligns cur with goal at position k:
    cancel a Serre pair of cur, insert one of goal, insert or drop a point's
    trivial Serre factor; None when none applies."""
    if k + 1 < len(cur):
        pair = _pair_kind(cur[k], cur[k + 1])
        if pair is not None:
            return pair[1]()
    if k + 1 < len(goal):
        pair = _pair_kind(goal[k], goal[k + 1])
        if pair is not None:
            return pair[0]()
    sp = _point_serre_space(goal[k]) if k < len(goal) else None
    if sp is not None:
        return kn.point_serre_insert(sp)
    sp = _point_serre_space(cur[k]) if k < len(cur) else None
    if sp is not None:
        return kn.point_serre_drop(sp)
    return None


def _pair_kind(a, b):
    """(insert, cancel) of the Serre pair a . b: the bound can2 / can6 or
    can4 / can5 of its space; None when a . b is no such pair."""
    for sp in (a.source, a.target):
        sk = sp.serre_kernel().factors[0]
        anti = sp.anti_serre_kernel().factors[0]
        if a is anti and b is sk:
            return sp.can2, sp.can6
        if a is sk and b is anti:
            return sp.can4, sp.can5
    return None


def _point_serre_space(f):
    """The space whose trivial Serre factor f is, or None."""
    for sp in (f.source, f.target):
        if sp.algebra.dim == 1 and \
                sp.serre_kernel().factors and \
                f is sp.serre_kernel().factors[0]:
            return sp
    return None


# -- evaluation ----------------------------------------------------------------------


def evaluate(node: Node, env: Environment):
    """A TwoMorphism, or an exact scalar for tr(...) terms."""
    k = node.kind
    if k == "id2":
        return kn.TwoMorphism.identity(realize_kernel(node.args[0], env))
    if k == "gamma":
        return kn.gamma(realize_kernel(node.args[0], env))
    if k == "gamma'":
        return kn.mirrored_gamma(realize_kernel(node.args[0], env))
    if k == "eps":
        return kn.counit_eps(realize_kernel(node.args[0], env))
    if k == "eps'":
        return kn.counit_eps_mirror(realize_kernel(node.args[0], env))
    if k == "hhclass":
        v = env.hhclass(node.args[0].args[0])
        return hh.class_to_two_morphism(v)
    if k == "beside":
        parts = [evaluate(a, env) for a in node.args]
        for p in parts:
            if not isinstance(p, kn.TwoMorphism):
                raise BoundaryMismatch("scalar inside a horizontal composite")
        return kn.hcompose(parts)
    if k == "seq":
        parts = [evaluate(a, env) for a in node.args]
        out = parts[0]
        for p in parts[1:]:
            if not isinstance(p, kn.TwoMorphism):
                raise BoundaryMismatch("scalar inside a vertical composite")
            med = reconcile(out.target, p.source)
            if med is None:
                bot, top = boundary_of(p, env)
                bot0, top0 = boundary_of(out, env)
                raise BoundaryMismatch(
                    f"cannot compose: top {top0} does not match bottom {bot}")
            out = p.compose(med.compose(out))
        return out
    if k == "tr":
        inner = evaluate(node.args[0], env)
        phi = inner.source
        x, y = phi.source, phi.target
        expected = kn.conv_kernel(y.serre_kernel().factors
                                  + phi.factors
                                  + x.serre_kernel().factors)
        med = reconcile(inner.target, expected)
        if med is None:
            raise BoundaryMismatch("tr() boundary is not serre . phi . serre")
        return kn.serre_trace(phi, med.compose(inner))
    if k == "ptr_l":
        inner = evaluate(node.args[0], env)
        src = inner.source
        if src.is_identity or not src.factors:
            raise BoundaryMismatch("ptr_l needs a non-identity source")
        strand = kn.conv_kernel((src.factors[0],))
        theta = kn.conv_kernel(tuple(src.factors[1:])) if src.factors[1:] \
            else src.source.identity_kernel()
        y = strand.target
        tgt = inner.target
        sky_f = y.serre_kernel().factors
        if tgt.factors[:len(sky_f)] != sky_f or \
                tgt.factors[len(sky_f):len(sky_f) + 1] != strand.factors:
            raise BoundaryMismatch("ptr_l target is not serre . phi . psi")
        psi = kn.conv_kernel(tuple(tgt.factors[len(sky_f) + 1:])) \
            if tgt.factors[len(sky_f) + 1:] else strand.source.identity_kernel()
        return kn.partial_trace_left(inner, strand, theta, psi)
    if k == "ptr_r":
        inner = evaluate(node.args[0], env)
        src = inner.source
        if src.is_identity or not src.factors:
            raise BoundaryMismatch("ptr_r needs a non-identity source")
        strand = kn.conv_kernel((src.factors[-1],))
        theta = kn.conv_kernel(tuple(src.factors[:-1])) if src.factors[:-1] \
            else src.target.identity_kernel()
        x = strand.source
        tgt = inner.target
        skx_f = x.serre_kernel().factors
        if tgt.factors[-len(skx_f):] != skx_f or \
                tgt.factors[-len(skx_f) - 1:-len(skx_f)] != strand.factors:
            raise BoundaryMismatch("ptr_r target is not psi . phi . serre")
        psi = kn.conv_kernel(tuple(tgt.factors[:-len(skx_f) - 1])) \
            if tgt.factors[:-len(skx_f) - 1] else strand.target.identity_kernel()
        return kn.partial_trace_right(inner, strand, theta, psi)
    raise UnknownPrimitive(k)
