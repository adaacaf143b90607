import random

import pytest

from hhengine.errors import BoundaryMismatch, DiagramSyntaxError, UnknownPrimitive
from hhengine.linalg import Matrix
import hhengine.algebras as alg
import hhengine.kernels as kn
import hhengine.hochschild as hh
import hhengine.diagrams as dg

import builders


def env_bz2(pt, bz2, z2_modules, one):
    sgn = z2_modules["sgn"]
    ch = hh.chern(sgn, one)
    cht = hh.chern(z2_modules["triv"], one)
    return dg.Environment(
        spaces={"pt": pt, "X": bz2},
        kernels={"Phi": sgn, "Triv": z2_modules["triv"]},
        classes={"one": one, "chs": ch, "cht": cht}), ch, cht


def test_parse_atoms_and_structure():
    t = dg.parse("id2(ker(Phi))")
    assert t.kind == "id2" and t.args[0].kind == "ker"
    t2 = dg.parse("eps(ker(Phi)) ; (id2(ker(Phi)) | gamma(ker(Phi)))")
    assert t2.kind == "seq"
    assert t2.args[1].kind == "beside"


def test_parse_precedence():
    # ';' binds looser than '|'
    t = dg.parse("id2(ker(A)) | id2(ker(B)) ; id2(ker(C))")
    assert t.kind == "seq"
    assert t.args[0].kind == "beside"
    # nesting with tr and compose
    t2 = dg.parse("tr( hhclass(v) ; id2(serre(X) ∘ ker(P)) )")
    assert t2.kind == "tr"
    inner = t2.args[0]
    assert inner.kind == "seq"
    assert inner.args[1].args[0].kind == "compose1"


def test_parse_errors_have_positions():
    with pytest.raises(DiagramSyntaxError) as e:
        dg.parse("id2(ker(Phi)")
    assert e.value.line == 1
    with pytest.raises(UnknownPrimitive):
        dg.parse("frobnicate(ker(Phi))")
    with pytest.raises(DiagramSyntaxError):
        dg.parse("ker(Phi)")  # a 1-morphism is not a 2-term


def _random_term1(rng, depth=0):
    kinds = ["id1", "ker", "serre", "antiserre"] + (["dual", "compose1"] if depth < 2 else [])
    k = rng.choice(kinds)
    if k == "dual":
        return dg.Node("dual", [_random_term1(rng, depth + 1)], 0)
    if k == "compose1":
        return dg.Node("compose1",
                       [_random_term1(rng, depth + 1), _random_term1(rng, depth + 1)], 0)
    return dg.Node(k, [dg.Node("name", [rng.choice("ABCX")], 0)], 0)


def _random_term2(rng, depth=0):
    kinds = ["id2", "gamma", "gamma'", "eps", "eps'", "hhclass"]
    if depth < 2:
        kinds += ["seq", "beside", "tr", "ptr_l", "ptr_r"]
    k = rng.choice(kinds)
    if k in ("seq", "beside"):
        return dg.Node(k, [_random_term2(rng, depth + 1),
                           _random_term2(rng, depth + 1)], 0)
    if k in ("tr", "ptr_l", "ptr_r"):
        return dg.Node(k, [_random_term2(rng, depth + 1)], 0)
    if k == "hhclass":
        return dg.Node("hhclass", [dg.Node("name", [rng.choice("vw")], 0)], 0)
    return dg.Node(k, [_random_term1(rng, depth + 1)], 0)


def test_print_parse_roundtrip():
    rng = random.Random(77)
    for _ in range(60):
        t = _random_term2(rng)
        assert dg.parse(dg.print_term(t)) == t


def test_typecheck_boundaries(pt, bz2, z2_modules, one):
    env, ch, cht = env_bz2(pt, bz2, z2_modules, one)
    bot, top = builders.typecheck(dg.parse("gamma(ker(Phi))"), env)
    assert bot == ["antiserre(pt)"]
    assert top == ["dual(ker(Phi))", "ker(Phi)"]
    assert builders.typecheck(dg.parse(
        "tr( id2(id1(X)) ; id2(serre(X)) | hhclass(chs)"
        " ; id2(serre(X)) | hhclass(chs) | id2(serre(X)) )"), env) == ("scalar",)


def test_typecheck_mismatch(pt, bz2, z2_modules, one):
    env, ch, cht = env_bz2(pt, bz2, z2_modules, one)
    with pytest.raises(BoundaryMismatch):
        builders.typecheck(dg.parse("eps(ker(Phi)) ; eps(ker(Phi))"), env)


def test_snake_diagram_evaluates_to_identity(pt, bz2, z2_modules, one):
    env, ch, cht = env_bz2(pt, bz2, z2_modules, one)
    term = dg.parse(
        "id2(ker(Phi)) ; id2(ker(Phi)) | id2(serre(pt)) | gamma(ker(Phi))"
        " ; eps(ker(Phi)) | id2(ker(Phi))")
    val = dg.evaluate(term, env)
    assert val.equals(kn.TwoMorphism.identity(z2_modules["sgn"]))


def test_pushforward_diagram_matches_module_operation(pt, bz2, z2_modules, one):
    env, ch, cht = env_bz2(pt, bz2, z2_modules, one)
    term = dg.parse(
        "gamma'(ker(Phi)) ; id2(ker(Phi)) | hhclass(one) |"
        " id2(serre(pt) ∘ dual(ker(Phi))) ; eps(ker(Phi))")
    val = dg.evaluate(term, env)
    cl = hh.two_morphism_to_class(bz2, val, "homology")
    assert cl == ch


def test_mukai_diagram_matches_module_operation(pt, bz2, z2_modules, one):
    env, ch, cht = env_bz2(pt, bz2, z2_modules, one)
    term = dg.parse(
        "tr( id2(id1(X)) ; id2(serre(X)) | hhclass(cht)"
        " ; id2(serre(X)) | hhclass(chs) | id2(serre(X)) )")
    assert dg.evaluate(term, env) == hh.mukai_pairing(cht, ch)
    term2 = dg.parse(
        "tr( id2(id1(X)) ; id2(serre(X)) | hhclass(chs)"
        " ; id2(serre(X)) | hhclass(chs) | id2(serre(X)) )")
    assert dg.evaluate(term2, env) == hh.mukai_pairing(ch, ch)


def test_partial_trace_diagram(pt, bz2, z2_modules, one):
    env, ch, cht = env_bz2(pt, bz2, z2_modules, one)
    # iota_E(chs): Phi => serre(X) . Phi, then close the Phi strand; the
    # remaining trace equals <chs, ch(Phi)> by trace invariance + the lemma
    term = dg.parse(
        "tr( ptr_l( id2(ker(Phi)) ;"
        " id2(serre(X)) | hhclass(chs) | id2(ker(Phi)) ) )")
    val = dg.evaluate(term, env)
    assert val == hh.mukai_pairing(ch, ch) == 1


def test_evaluate_reassociation_invariance(pt, bz2, z2_modules, one):
    env, ch, cht = env_bz2(pt, bz2, z2_modules, one)
    a = "id2(ker(Phi))"
    b = "id2(dual(ker(Phi)))"
    c = "id2(ker(Triv))"
    t1 = dg.parse(f"({a} | {b}) | {c}")
    t2 = dg.parse(f"{a} | ({b} | {c})")
    v1 = dg.evaluate(t1, env)
    v2 = dg.evaluate(t2, env)
    assert v1.source is v2.source and v1.target is v2.target
    assert v1.equals(v2)


def test_golden_terms_from_workspaces_all_evaluate(pt, bz2, z2_modules, one):
    import json
    from importlib import resources
    env, ch, cht = env_bz2(pt, bz2, z2_modules, one)
    doc = json.loads(resources.files("hhengine.workspaces")
                     .joinpath("bz2.json").read_text())
    for task in doc["tasks"]:
        if task["op"] == "eval-diagram":
            node = dg.parse(task["term"])
            assert dg.print_term(node)


def test_eps_gamma_of_different_kernels_mismatch(pt, bz2, z2_modules, one):
    env, ch, cht = env_bz2(pt, bz2, z2_modules, one)
    term = dg.parse("id2(ker(Triv)) | id2(serre(pt)) | gamma(ker(Triv)) ;"
                    " eps(ker(Phi)) | id2(ker(Triv))")
    with pytest.raises(BoundaryMismatch):
        dg.evaluate(term, env)
