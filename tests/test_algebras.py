import ast
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from hhengine.errors import CyclicQuiver, InvariantViolation, NotAGroup, NotPerfect
from hhengine.linalg import Matrix, SpanSolver, linear_combination, rank
import hhengine.algebras as alg
import hhengine.complexes as cx

import builders
from conftest import load_workspace_doc, s3_cayley_table


def m(rows):
    return Matrix.from_rows(rows)


def test_group_algebra_trivial_and_z2():
    q = alg.group_algebra([[0]])
    assert q.dim == 1
    z2 = alg.group_algebra([[0, 1], [1, 0]])
    assert z2.dim == 2
    s = {1: Fraction(1)}
    assert z2.multiply(s, s) == {0: Fraction(1)}


def test_group_algebra_rejects_non_groups():
    with pytest.raises(NotAGroup):
        alg.group_algebra([[0, 1], [0, 1]])  # no inverses/identity
    with pytest.raises(NotAGroup):
        alg.group_algebra([[1, 0], [1, 0]])


def test_s3_center_and_trace_quotient():
    s3 = alg.group_algebra(s3_cayley_table(), "S3")
    assert alg.center(s3).cols == 3
    p, s = alg.trace_quotient(s3)
    assert p.rows == 3


def test_path_algebra_point_a2_a3():
    assert alg.path_algebra(1, []).dim == 1
    a2 = alg.path_algebra(2, [(0, 1)])
    assert a2.dim == 3
    a3 = alg.path_algebra(3, [(0, 1), (1, 2)])
    assert a3.dim == 6
    with pytest.raises(CyclicQuiver):
        alg.path_algebra(2, [(0, 1), (1, 0)])
    with pytest.raises(CyclicQuiver):
        alg.path_algebra(1, [(0, 0)])


def test_a2_center_and_trace_quotient():
    a2 = alg.path_algebra(2, [(0, 1)])
    assert alg.center(a2).cols == 1
    p, _ = alg.trace_quotient(a2)
    assert p.rows == 2
    # the arrow is a commutator: [e1, a] = a... check its class vanishes
    arrow_class = p.apply_map({2: Fraction(1)})
    assert arrow_class == {}


def test_opposite_group_algebra_inversion_iso():
    z2 = alg.group_algebra([[0, 1], [1, 0]])
    op = alg.opposite(z2)
    # g -> g^{-1} = identity permutation here; check products transpose
    for i in range(2):
        for j in range(2):
            assert (dict(op.left_mult[i].col_items(j))
                    == dict(z2.left_mult[j].col_items(i)))


def test_tensor_and_enveloping_dims():
    a2 = alg.path_algebra(2, [(0, 1)])
    assert builders.enveloping(alg.point_algebra()).dim == 1
    assert builders.enveloping(a2).dim == 9
    assert len(builders.enveloping(a2).idempotents) == 4


def test_dual_bimodule_examples():
    ptd = alg.dual_bimodule(alg.point_algebra())
    assert ptd.dim == 1
    z2 = alg.group_algebra([[0, 1], [1, 0]])
    dz = alg.dual_bimodule(z2)
    # symmetric algebra: D(A) = A as bimodules; an invertible hom exists
    basis = alg.hom_basis(alg.regular_bimodule(z2), dz)
    assert any(rank(b) == 2 for b in basis)
    a2 = alg.path_algebra(2, [(0, 1)])
    da = alg.dual_bimodule(a2)
    assert da.dim == 3
    basis = alg.hom_basis(alg.regular_bimodule(a2), da)
    # no bimodule map A -> D(A) is invertible (A2 is not self-injective);
    # the determinant is a polynomial, so a small grid decides it
    for x in range(-3, 4):
        for y in range(-3, 4):
            f = None
            for c, b in zip((x, y), basis):
                f = b.scale(c) if f is None else f + b.scale(c)
            if f is not None and len(basis) >= 2:
                assert rank(f) < 3


def test_regular_bimodule_of_group_algebra_is_projective():
    z2 = alg.group_algebra([[0, 1], [1, 0]])
    assert alg.is_projective(alg.regular_bimodule(z2))
    s3 = alg.group_algebra(s3_cayley_table())
    assert alg.is_projective(alg.regular_bimodule(s3))


def test_a2_regular_bimodule_resolution_is_the_quiver_resolution():
    a2 = alg.path_algebra(2, [(0, 1)])
    reg = alg.regular_bimodule(a2)
    assert not alg.is_projective(reg)
    c, aug = alg.projective_resolution(reg)
    assert c.degrees() == [-1, 0]
    assert c.dim(0) == 4 and c.dim(-1) == 1
    # exactness by rank count: ker(aug) = im(d), aug onto
    assert rank(aug) == 3
    assert rank(c.differential(-1)) == 1
    for n in c.degrees():
        assert alg.is_projective(c.term(n))


def test_module_resolutions_over_a2():
    a2, pt = alg.path_algebra(2, [(0, 1)]), alg.point_algebra()
    s2 = alg.module_as_bimodule(a2, pt, [m([[0]]), Matrix.identity(1), m([[0]])], "S2")
    c, _ = alg.projective_resolution(s2)
    assert len(c.degrees()) <= 2
    s1 = alg.module_as_bimodule(a2, pt, [Matrix.identity(1), m([[0]]), m([[0]])], "S1")
    c1, _ = alg.projective_resolution(s1)
    assert c1.degrees() == [-1, 0]


def test_averaging_makes_modules_projective_in_char_zero():
    z2 = alg.group_algebra([[0, 1], [1, 0]])
    pt = alg.point_algebra()
    triv = alg.module_as_bimodule(z2, pt, [Matrix.identity(1)] * 2, "triv")
    assert alg.is_projective(triv)


def test_s2_bimodule_through_e2_not_projective():
    a2 = alg.path_algebra(2, [(0, 1)])
    e2l = [m([[0]]), Matrix.identity(1), m([[0]])]
    s2bim = alg.Bimodule(a2, a2, 1, e2l, e2l, "S2bim", check=True)
    assert not alg.is_projective(s2bim)


def test_tensor_witness_and_coordinates():
    z2 = alg.group_algebra([[0, 1], [1, 0]])
    reg = alg.regular_bimodule(z2)
    t, proj, sect = alg.bimodule_tensor(reg, reg)
    assert t.dim == 2  # A (x)_A A = A
    pd = alg.proj_data(t)
    assert pd is not None
    # m = sum phi_p(m) . x_p
    for col in range(t.dim):
        target = {col: Fraction(1)}
        acc = {}
        for gen, phi in pd.coordinates():
            e = dict(phi.col_items(col))
            v = t.act_env(e).apply_map(gen)
            for i, x in v.items():
                acc[i] = acc.get(i, Fraction(0)) + x
        assert {i: x for i, x in acc.items() if x} == target


@pytest.mark.parametrize("make", [
    lambda: alg.regular_bimodule(alg.group_algebra(s3_cayley_table(), "S3")),
    lambda: builders.free_bimodule(*[alg.path_algebra(2, [(0, 1)], "A2")] * 2)],
    ids=["kS3-regular", "A2-free"])
def test_content_equal_pairs_share_one_tensor_and_hom_core(make):
    r1 = make()
    # the same actions in newly built matrices: only the content is shared
    r2 = alg.Bimodule(r1.left, r1.right, r1.dim,
                      [Matrix(x.rows, x.cols, x.data) for x in r1.left_action],
                      [Matrix(x.rows, x.cols, x.data) for x in r1.right_action],
                      check=False)
    assert r2.left_action[0] is not r1.left_action[0]
    t1, p1, s1 = alg.bimodule_tensor(r1, r1)
    t2, p2, s2 = alg.bimodule_tensor(r2, r2)
    assert t1 is not t2 and p1 is p2 and s1 is s2
    assert t1.left_action == t2.left_action
    assert t1.right_action == t2.right_action
    for t in (t1, t2):
        pd = alg.proj_data(t)
        assert pd.cover.module is t
        assert pd.cover.ev * pd.section == Matrix.identity(t.dim)
    key = ("tensor core", r1.dim, r1.dim, r1.left_action, r1.right_action,
           r1.left_action, r1.right_action)
    assert alg._memoised(r1.left, key) == alg._tensor_core(r2, r2)
    assert alg.hom_basis(r1, r1) is alg.hom_basis(r2, r2)
    assert isinstance(alg.hom_basis(r1, r1), tuple)


@pytest.mark.parametrize("make", [
    lambda: alg.path_algebra(2, [(0, 1)], "A2"),
    lambda: alg.group_algebra(s3_cayley_table(), "S3")], ids=["A2", "kS3"])
def test_hom_coordinates_round_trip_and_reject_non_module_maps(make):
    r = alg.regular_bimodule(make())
    basis = alg.hom_basis(r, r)
    rng = random.Random(7)
    for _ in range(10):
        coeffs = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                  for k in range(len(basis))}
        mat = linear_combination(((c, basis[k]) for k, c in coeffs.items()),
                                 r.dim, r.dim)
        assert alg.hom_coordinates(r, r, mat) == {k: c for k, c in coeffs.items() if c}
    # a matrix unit fails the commutation with some action, so it is no
    # bimodule map, and it has no coordinates
    unit = Matrix.sparse(r.dim, r.dim, {1: 1})
    acts = list(zip(r.left_action, r.left_action)) + \
        list(zip(r.right_action, r.right_action))
    assert any(unit * x != y * unit for x, y in acts)
    assert alg.hom_coordinates(r, r, unit) is None


def _witnessed_terms(a):
    """Every term of the resolutions of A's regular and dual bimodules (self-
    covers and the projective kernels that end them), with their duals."""
    out = []
    for bim in (alg.regular_bimodule(a), alg.dual_bimodule(a)):
        p, _ = alg.projective_resolution(bim)
        for n in p.degrees():
            out += [p.term(n), alg.bimodule_dual(p.term(n))[0]]
    return out


def _both_routes(m, n):
    """(witness route, commutator route) of Hom(m, n), called directly."""
    pd = alg._witness_in_hand(m)
    gm, gn = m.env_generator_actions(), n.env_generator_actions()
    return (alg._hom_from_witness(pd, n),
            alg._hom_core(gm, gn, m.dim, n.dim))


def _refuse(monkeypatch, name):
    def refused(*args):
        raise AssertionError(f"{name} on the wrong route")
    monkeypatch.setattr(alg, name, refused)


@pytest.mark.parametrize("quiver", [
    (3, [(0, 1), (1, 2)]), (4, [(1, 0), (2, 0), (3, 0)]), (2, [(0, 1), (0, 1)])],
    ids=["A3", "D4", "Kronecker"])
def test_hom_from_witness_equals_the_commutator_system(quiver, monkeypatch):
    # the dual-basis span, reduced on the reversed flat index, gives the
    # commutator system's basis and free columns exactly; quiver witnesses
    # are sparse, so _hom_system takes that route
    terms = _witnessed_terms(alg.path_algebra(*quiver))
    expected = {(i, j): _both_routes(m, n) for i, m in enumerate(terms)
                for j, n in enumerate(terms)}
    _refuse(monkeypatch, "_hom_core")
    for (i, j), (witness, core) in expected.items():
        assert witness == core
        assert alg._hom_system(terms[i], terms[j]) == core


def test_dense_group_witness_keeps_the_commutator_route(monkeypatch):
    # kS3's single env idempotent makes every coordinate functional dense
    reg = alg.regular_bimodule(alg.group_algebra(s3_cayley_table(), "S3"))
    terms = (reg, alg.bimodule_dual(reg)[0])
    expected = {(i, j): _both_routes(m, n) for i, m in enumerate(terms)
                for j, n in enumerate(terms)}
    _refuse(monkeypatch, "_hom_from_witness")
    for (i, j), (witness, core) in expected.items():
        assert witness == core
        assert alg._hom_system(terms[i], terms[j]) == core


def test_a_quiver_euler_task_solves_no_commutator_system(monkeypatch):
    # the Ext complexes between A3's module resolutions (four hom systems
    # that the build leaves unsolved) are all read off witnesses
    from hhengine import cli
    doc = load_workspace_doc("a3")
    ws = cli.Workspace(doc, "a3.json")
    _refuse(monkeypatch, "_hom_core")
    task, = [t for t in doc["tasks"] if t["id"] == "euler-t1-t2"]
    assert cli.run_task(ws, task, random.Random(0)) == {"euler": "-1/1"}


def test_projective_resolution_covers_each_module_once(monkeypatch):
    covered = []
    real = alg.build_cover

    def counted(m):
        covered.append(m)
        return real(m)
    monkeypatch.setattr(alg, "build_cover", counted)
    a2 = alg.path_algebra(2, [(0, 1)], "A2")
    for m in (alg.regular_bimodule(a2), alg.dual_bimodule(a2)):
        covered.clear()
        c, _ = alg.projective_resolution(m)
        assert len(c.degrees()) == 2
        assert covered[0] is m
        assert len({id(x) for x in covered}) == len(covered)


def test_dual_data_spans_and_double_dual():
    a2 = alg.path_algebra(2, [(0, 1)])
    reg = alg.regular_bimodule(a2)
    c, _ = alg.projective_resolution(reg)
    p0 = c.term(0)
    d0, dd = alg.bimodule_dual(p0)
    assert d0.dim == 4
    ddual, _ = alg.bimodule_dual(d0)
    cmpm = alg.double_dual_comparison(p0, d0, ddual)
    assert cmpm == Matrix.identity(p0.dim)


def _dual_oracle_modules():
    """Projective bimodules whose duals are checked against the product
    route: regular bimodules of separable algebras (kZ/2 also split by its
    idempotents (1 +- g)/2, so piece coordinates are not all 1), a free
    bimodule of rank 2, and both terms of the A2 and A3 bimodule
    resolutions (term 0 is the non-final one)."""
    z2 = alg.group_algebra([[0, 1], [1, 0]])
    half = Fraction(1, 2)
    z2split = alg.Algebra(z2.left_mult, z2.unit, label="kZ2split",
                          idempotents=[{0: half, 1: half}, {0: half, 1: -half}])
    out = [alg.regular_bimodule(z2), alg.regular_bimodule(z2split),
           alg.regular_bimodule(alg.group_algebra(s3_cayley_table())),
           alg.regular_bimodule(alg.matrix_algebra(2)),
           builders.free_bimodule(z2, z2, rank=2)]
    for a in (alg.path_algebra(2, [(0, 1)]), alg.path_algebra(3, [(0, 1), (1, 2)])):
        c, _ = alg.projective_resolution(alg.regular_bimodule(a))
        assert len(c.degrees()) == 2
        out.extend(c.term(n) for n in c.degrees())
    return out


def test_dual_actions_and_cover_match_the_product_route():
    # the dual's actions and cover evaluation are read off m's witness;
    # rebuild them by multiplying each functional and expressing the product
    dependent = 0
    for mod in _dual_oracle_modules():
        md, dd = alg.bimodule_dual(mod)
        env = mod.env
        dl, dr = mod.left.dim, mod.right.dim

        def product_route(z, fs):
            rm = env.right_mult_matrix(z)
            return Matrix.from_column_maps([dd.express(rm * f) for f in fs], md.dim)

        for r in range(dr):
            z = alg._kron_vec(mod.left.unit, {r: 1}, dr)
            assert md.left_action[r] == product_route(z, dd.functionals)
        for l in range(dl):
            z = alg._kron_vec({l: 1}, mod.right.unit, dr)
            assert md.right_action[l] == product_route(z, dd.functionals)
        md._check()
        pieces = alg.proj_data(mod).coordinates()
        cover = alg.proj_data(md).cover
        ev = []
        for (_, _, basis_d, _), (_, phi) in zip(cover.pieces, pieces):
            ev.extend(dd.express(env.right_mult_matrix(alg.swap_env_coords(
                dict(basis_d.col_items(c)), dr, dl)) * phi)
                for c in range(basis_d.cols))
        assert cover.ev == Matrix.from_column_maps(ev, md.dim)
        candidates = sum(env.piece("right", p[0])[0].cols
                         for p in alg.proj_data(mod).cover.pieces)
        dependent += candidates - md.dim
    assert dependent > 0


def _d8_cayley_table():
    """kD8's table on r^i s^j at index i + 4 j, with s r = r^-1 s."""
    def mul(x, y):
        a, b, c, d = x % 4, x // 4, y % 4, y // 4
        return (a + (-c if b else c)) % 4 + 4 * ((b + d) % 2)
    return [[mul(x, y) for y in range(8)] for x in range(8)]


def _full_width_dual_basis(m, s_blocks):
    """The product route's candidate loop: every candidate is multiplied
    out and tested against the full basis functionals."""
    env = m.env
    basis_f, origin, cand = [], [], []
    solver = SpanSolver(env.dim * m.dim)
    for uidx, _, s_p in s_blocks:
        rbasis, _ = env.piece("right", uidx)
        coords_p = []
        for c in range(rbasis.cols):
            r_c = dict(rbasis.col_items(c))
            fmat = env.right_mult_matrix(r_c) * s_p
            coords = solver.express(fmat.flat_items())
            if coords is None:
                coords = {len(basis_f): 1}
                basis_f.append(fmat)
                origin.append((uidx, coords_p, r_c))
                solver.add(fmat.flat_items())
            coords_p.append(coords)
        cand.append(coords_p)
    return basis_f, solver, origin, cand


def test_dual_chosen_at_the_cover_generators_matches_the_full_width_route(monkeypatch):
    # the dual basis is chosen by the candidates' values on the cover
    # generators; the full-width loop must give the same functionals,
    # actions and witness, and only the basis functionals are multiplied out
    mods = _dual_oracle_modules()
    for quiver in ((4, [(1, 0), (2, 0), (3, 0)]), (2, [(0, 1), (0, 1)])):
        c, _ = alg.projective_resolution(alg.regular_bimodule(alg.path_algebra(*quiver)))
        mods.extend(c.term(n) for n in c.degrees())
    mods.append(alg.regular_bimodule(alg.group_algebra(_d8_cayley_table(), "D8")))
    p = alg.projective_resolution(
        alg.regular_bimodule(alg.path_algebra(2, [(0, 1)])))[0].term(0)
    mods.append(cx._sum_bimodule(p, p))
    idems = [piece[0] for piece in alg.proj_data(mods[-1]).cover.pieces]
    assert len(set(idems)) < len(idems)
    real_mul = Matrix.__mul__
    dependent = 0
    for mod in mods:
        phis = [phi for _, phi in alg.proj_data(mod).coordinates()]
        products = []

        def counted(a, b):
            if any(b is phi for phi in phis):
                products.append(b)
            return real_mul(a, b)
        monkeypatch.setattr(Matrix, "__mul__", counted)
        md, dd = alg.bimodule_dual(mod)
        monkeypatch.undo()
        assert len(products) == md.dim
        monkeypatch.setattr(alg, "_dual_basis", _full_width_dual_basis)
        ref, ref_dd = alg.bimodule_dual(mod)
        monkeypatch.undo()
        assert dd.functionals == ref_dd.functionals
        assert md.left_action == ref.left_action
        assert md.right_action == ref.right_action
        pd, ref_pd = alg.proj_data(md), alg.proj_data(ref)
        assert pd.cover.ev == ref_pd.cover.ev
        assert pd.section == ref_pd.section
        dependent += sum(mod.env.piece("right", uidx)[0].cols
                         for uidx, _, _, _ in alg.proj_data(mod).cover.pieces) - md.dim
    assert dependent > 0


def test_dual_express_refuses_a_map_that_agrees_on_the_cover_generators():
    # DualData.express tests the full functional: f + E, with E nonzero but
    # zero on the one cover generator of kS3's regular bimodule, is no
    # env-linear map, so it has no coordinates
    reg = alg.regular_bimodule(alg.group_algebra(s3_cayley_table(), "S3"))
    md, dd = alg.bimodule_dual(reg)
    (gen, _), = alg.proj_data(reg).coordinates()
    assert reg.dim == 6
    a = min(gen)
    b = (a + 1) % reg.dim
    e = Matrix.sparse(reg.env.dim, reg.dim,
                      {k: x for k, x in ((b, gen[a]), (a, -gen.get(b, 0))) if x})
    assert not e.is_zero() and e.apply_map(gen) == {}
    f = dd.functionals[0]
    assert dd.express(f) == {0: 1}
    assert (f + e).apply_map(gen) == f.apply_map(gen)
    assert dd.express(f + e) is None


def test_witness_checks_fire_under_python_O():
    # a dual built from a doctored source witness must still be caught with
    # asserts stripped
    code = textwrap.dedent("""
        import hhengine.algebras as alg
        from hhengine.errors import InvariantViolation
        z2 = alg.group_algebra([[0, 1], [1, 0]])
        reg = alg.regular_bimodule(z2)
        pd = alg.proj_data(reg)
        pd.section = pd.section.scale(2)
        md, _ = alg.bimodule_dual(reg)
        try:
            alg.proj_data(md)
        except InvariantViolation as e:
            print("debug", __debug__, "raised", e)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(alg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("debug False raised")
    assert "dual witness failed" in out.stdout


def test_dual_piece_checks_fire_under_python_O():
    # an element outside the piece u_p.env has no coordinates there: both
    # the action combination and the cover evaluation of a dual refuse it
    code = textwrap.dedent("""
        import hhengine.algebras as alg
        from hhengine.errors import InvariantViolation
        a2 = alg.path_algebra(2, [(0, 1)])
        c, _ = alg.projective_resolution(alg.regular_bimodule(a2))
        p0 = c.term(0)
        env = p0.env
        try:
            alg._piece_functional(env, 0, [], env.idempotents[1], "dual action")
        except InvariantViolation as e:
            print("debug", __debug__, "raised", e)
        md, _ = alg.bimodule_dual(p0)
        real, n = env.piece, len(env.idempotents)
        env.piece = lambda side, u: real(side, (u + 1) % n if side == "right" else u)
        try:
            alg.proj_data(md)
        except InvariantViolation as e:
            print("debug", __debug__, "raised", e)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(alg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "debug False raised dual action escaped the dual basis",
        "debug False raised dual cover image escaped the dual basis"]


def test_derived_witness_builder_is_dropped_once_built():
    z2 = alg.group_algebra([[0, 1], [1, 0]])
    d, _ = alg.bimodule_dual(builders.free_bimodule(z2, z2))
    assert alg._memoised(d, "proj_builder") is not None
    pd = alg.proj_data(d)
    assert alg._memoised(d, "proj_builder") is None
    assert alg.is_projective(d) and alg.proj_data(d) is pd


def test_is_projective_does_not_build_a_derived_witness(monkeypatch):
    calls = []
    for name in ("_solved_witness", "_dual_proj_data"):
        def counted(*args, _name=name, _real=getattr(alg, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(alg, name, counted)
    z2 = alg.group_algebra([[0, 1], [1, 0]])
    f = builders.free_bimodule(z2, z2)
    t, _, _ = alg.bimodule_tensor(f, f)
    d, _ = alg.bimodule_dual(f)
    assert alg.is_projective(t) and alg.is_projective(d)
    assert calls == []
    for x in (t, d):
        assert alg.proj_data(x) is alg.proj_data(x) is not None
    assert calls == ["_solved_witness", "_dual_proj_data"]


@pytest.mark.parametrize("make", [
    lambda: alg.regular_bimodule(alg.group_algebra(s3_cayley_table(), "S3")),
    lambda: alg.projective_resolution(
        alg.regular_bimodule(alg.path_algebra(2, [(0, 1)], "A2")))[0].term(0)],
    ids=["kS3-regular", "A2-cover"])
def test_tensor_and_sum_witnesses_are_solved_from_their_own_cover(make, monkeypatch):
    p = make()
    t, _, _ = alg.bimodule_tensor(p, p)
    for x in (t, cx._sum_bimodule(p, t)):
        assert alg.is_projective(x)
        pd = alg.proj_data(x)
        assert pd.cover is alg.module_cover(x)
        assert pd.cover.ev * pd.section == Matrix.identity(x.dim)
    # a module projective by construction whose solve finds no section
    # breaks an invariant; it is not reported as non-projective
    s = cx._sum_bimodule(p, p)
    monkeypatch.setattr(alg, "solve_section", lambda m, cover: None)
    with pytest.raises(InvariantViolation):
        alg.proj_data(s)


def test_tensor_with_a_non_projective_factor_is_not_perfect():
    a2 = alg.path_algebra(2, [(0, 1)], "A2")
    reg = alg.regular_bimodule(a2)
    p = alg.projective_resolution(reg)[0].term(0)
    for m, n in ((reg, p), (p, reg)):
        t, _, _ = alg.bimodule_tensor(m, n)
        with pytest.raises(NotPerfect):
            alg.proj_data(t)


def _engine_sources():
    """(file name, parsed module) of every engine source file."""
    pkg = os.path.dirname(os.path.abspath(alg.__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as f:
                yield name, ast.parse(f.read(), name)


def test_engine_sources_hold_no_assert_statements():
    # invariant checks raise InvariantViolation, which python -O keeps
    found = [f"{name}:{n.lineno}" for name, tree in _engine_sources()
             for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_engine_sources_hold_no_global_statements():
    # no process-wide state: every value lives on an object a workspace owns
    found = [f"{name}:{n.lineno}" for name, tree in _engine_sources()
             for n in ast.walk(tree) if isinstance(n, ast.Global)]
    assert found == []


def test_only_complexes_reads_the_tensor_block_layout():
    # where a pure tensor sits in a TensorComplex is read and written only
    # through complexes' split / join and its raw-tuple reader
    layout = {"term_tensor", "_find_block", "_accumulate", "blocks"}
    found = [f"{name}:{n.lineno}" for name, tree in _engine_sources()
             if name != "complexes.py" for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr in layout
             or isinstance(n, ast.Name) and n.id in layout - {"blocks"}]
    assert found == []


def test_values_built_once_are_memo_entries():
    # no hand-written `if self._x is None: self._x = ...` cache: a value
    # built once is an algebras._memo entry.  Matrix keeps its transpose in
    # a slot, because Matrix has __slots__ and linalg sits below algebras.
    allowed = {"linalg.py:transpose"}
    found = []
    for name, tree in _engine_sources():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
                continue
            compared, assigned = set(), set()
            for n in ast.walk(fn):
                if isinstance(n, ast.Compare):
                    sides = [n.left, *n.comparators]
                    if any(isinstance(x, ast.Constant) and x.value is None
                           for x in sides):
                        compared |= {x.attr for x in sides
                                     if isinstance(x, ast.Attribute)
                                     and x.attr.startswith("_")}
                elif (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                      and n.attr.startswith("_")):
                    assigned.add(n.attr)
            if compared & assigned and f"{name}:{fn.name}" not in allowed:
                found.append(f"{name}:{fn.lineno} {fn.name}")
    assert found == []


def test_every_engine_function_has_an_engine_caller():
    # a top-level function, or a method of a top-level class other than a
    # dunder, is named (as a name or an attribute) somewhere in the package
    # outside its own body; docstring mentions do not count, and a property
    # counts because it is read as an attribute.  The names below are
    # called only from the tests, each for a reason.
    test_only = {
        "complexes.py:shift": "the S1 sign convention, checked by "
                              "test_shift_and_cone, test_tensor_shift_compatibility "
                              "and the Serre-trace shift test",
        "hochschild.py:hcoh_product": "the HH^* ring the module action respects",
        "hochschild.py:module_action": "HH^* acting on HH_*, checked bilinear",
        "hochschild.py:hcoh_unit": "unit of HH^*, checked to act as the identity",
        "hochschild.py:chern_via_iota": "the reference path tests compare chern with",
        "kernels.py:kernels_equivalent": "quasi-isomorphism oracle for kernel identities",
    }
    sources = list(_engine_sources())
    uses = {}
    for _, tree in sources:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                uses.setdefault(n.id, []).append(n)
            elif isinstance(n, ast.Attribute):
                uses.setdefault(n.attr, []).append(n)
    found = []
    for name, tree in sources:
        defs = [(fn, fn.name) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        defs += [(fn, f"{cls.name}.{fn.name}") for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for fn in cls.body
                 if isinstance(fn, ast.FunctionDef)
                 and not (fn.name.startswith("__") and fn.name.endswith("__"))]
        for fn, qualname in defs:
            own = set(map(id, ast.walk(fn)))
            if all(id(n) in own for n in uses.get(fn.name, ())):
                found.append(f"{name}:{qualname}")
    assert sorted(found) == sorted(test_only)
