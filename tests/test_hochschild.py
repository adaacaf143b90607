import itertools
import random
from fractions import Fraction

import pytest

from hhengine.errors import InvariantViolation, SpaceMismatch
from hhengine.linalg import Matrix, Q0, Q1, rank
import hhengine.algebras as alg
import hhengine.complexes as cx
import hhengine.kernels as kn
import hhengine.hochschild as hh

import builders


def m(rows):
    return Matrix.from_rows(rows)


def basis_classes(space, degree=0):
    d = hh.hh_data(space).dim(-degree)
    return [hh.hh_class(space, degree, [Q1 if t == j else Q0 for t in range(d)])
            for j in range(d)]


def test_hh_dimensions_and_oracles(pt, bz2, bs3, a2, a3, m2):
    expected = {
        "pt": (pt, 1, 1), "BZ2": (bz2, 2, 2), "BS3": (bs3, 3, 3),
        "A2": (a2, 2, 1), "A3": (a3, 3, 1), "M2": (m2, 1, 1),
    }
    for label, (sp, h0, hc0) in expected.items():
        dims = hh.hh(sp)
        assert dims.get(0) == h0, label
        assert all(d == 0 for i, d in dims.items() if i != 0), label
        cdims = hh.hcoh(sp)
        assert cdims.get(0) == hc0, label
        assert hh.hh_via_tor(sp) == {k: v for k, v in dims.items() if v}
        p, _ = alg.trace_quotient(sp.algebra)
        assert p.rows == h0
        assert alg.center(sp.algebra).cols == hc0


def test_hcoh_unit_acts_as_identity(bz2):
    u = hh.hcoh_unit(bz2)
    for v in basis_classes(bz2):
        assert hh.module_action(u, v) == v


def test_hcoh_ring_of_bz2_is_split(bz2):
    # HH^0(BZ2) = Z(Q[Z2]) contains the averaging idempotent; its action
    # projects HH_0 onto a one-dimensional summand
    u = hh.hcoh_unit(bz2)
    basis = [hh.HochschildClass(bz2, "cohomology", 0, c)
             for c in ([Q1, Q0], [Q0, Q1])]
    grid = [Fraction(n, 2) for n in range(-3, 4)]
    found = None
    for a, b in itertools.product(grid, repeat=2):
        cand = basis[0].scale(a).add(basis[1].scale(b))
        sq = hh.hcoh_product(bz2, cand, cand)
        if sq == cand and not cand.is_zero() and cand != u:
            found = cand
            break
    assert found is not None
    cols = [hh.module_action(found, v).coords for v in basis_classes(bz2)]
    mat = Matrix.from_column_maps([dict(enumerate(c)) for c in cols], 2)
    assert rank(mat) == 1


def test_module_action_is_bilinear(a2):
    rng = random.Random(31)
    fs = [hh.HochschildClass(a2, "cohomology", 0, [Fraction(rng.randrange(-3, 4))])
          for _ in range(2)]
    vs = basis_classes(a2)
    lhs = hh.module_action(fs[0].add(fs[1]), vs[0].add(vs[1]))
    rhs = (hh.module_action(fs[0], vs[0]).add(hh.module_action(fs[0], vs[1]))
           .add(hh.module_action(fs[1], vs[0])).add(hh.module_action(fs[1], vs[1])))
    assert lhs == rhs


def test_classes_of_different_variance_do_not_add(a2):
    v = basis_classes(a2)[0]
    f = hh.hcoh_unit(a2)
    with pytest.raises(InvariantViolation):
        f.add(v)
    with pytest.raises(InvariantViolation):
        v.add(f)


def test_classes_of_different_lengths_do_not_add(bz2):
    # a coordinate outside HH_0(BZ2) must not be dropped by the sum
    long, short = hh.hh_class(bz2, 0, [1, 0, 1]), hh.hh_class(bz2, 0, [1, 0])
    with pytest.raises(InvariantViolation):
        long.add(short)
    with pytest.raises(InvariantViolation):
        short.add(long)


def test_pushforward_along_identity(bz2):
    idk = bz2.identity_kernel()
    for v in basis_classes(bz2):
        assert hh.pushforward(idk, v) == v
        assert hh.pullback(idk, v) == v


def test_pushforward_functoriality_chain(pt, bz2, bs3, one, z2_modules, ind_res):
    ind, res = ind_res
    phi = z2_modules["sgn"]
    comp = kn.convolve(ind, phi)
    assert hh.pushforward(comp, one) == hh.pushforward(ind, hh.pushforward(phi, one))
    m1 = hh.pushforward_matrix(comp)
    m2 = hh.pushforward_matrix(ind) * hh.pushforward_matrix(phi)
    assert m1 == m2
    p1 = hh.pullback_matrix(comp)
    p2 = hh.pullback_matrix(phi) * hh.pullback_matrix(ind)
    assert p1 == p2


def test_adjoint_pair_identity(ind_res):
    ind, res = ind_res
    assert hh.pushforward_matrix(ind) == hh.pullback_matrix(res)
    assert hh.pushforward_matrix(res) == hh.pullback_matrix(ind)


def test_mukai_adjointness(bz2, bs3, ind_res):
    ind, res = ind_res
    for v in basis_classes(bz2):
        for w in basis_classes(bs3):
            assert (hh.mukai_pairing(hh.pushforward(ind, v), w)
                    == hh.mukai_pairing(v, hh.pushforward(res, w)))


def a2_kernels(a2_modules):
    s1 = a2_modules["S1"]
    return [s1, a2_modules["S2"], a2_modules["P1"], kn.dual_kernel(s1)]


def test_push_is_mukai_adjoint_to_push_along_the_right_adjoint(a2_modules):
    # <phi_* v, w>_Y = <v, tau_R(phi)_* w>_X, with tau_R(phi) = serre_X . phi^v
    for phi in a2_kernels(a2_modules):
        right = kn.tau_r(phi)
        for v in basis_classes(phi.source):
            for w in basis_classes(phi.target):
                assert (hh.mukai_pairing(hh.pushforward(phi, v), w)
                        == hh.mukai_pairing(v, hh.pushforward(right, w)))


def test_pull_is_mukai_adjoint_to_push(a2_modules):
    # <phi^* a, b>_X = <a, phi_* b>_Y: off symmetric algebras this needs the
    # Serre factor of the left adjoint phi^v . serre_Y
    for phi in a2_kernels(a2_modules):
        for a in basis_classes(phi.target):
            for b in basis_classes(phi.source):
                assert (hh.mukai_pairing(hh.pullback(phi, a), b)
                        == hh.mukai_pairing(a, hh.pushforward(phi, b)))


def test_isometry_of_morita_kernel(pt, m2, one):
    col = alg.module_as_bimodule(
        m2.algebra, pt.algebra,
        [m([[1, 0], [0, 0]]), m([[0, 1], [0, 0]]),
         m([[0, 0], [1, 0]]), m([[0, 0], [0, 1]])], "col")
    k = hh.module_kernel(m2, pt, col)
    v = hh.pushforward(k, one)
    assert hh.mukai_pairing(v, v) == hh.mukai_pairing(one, one) == 1


def random_class(space, rng):
    d = hh.hh_data(space).dim(0)
    return hh.hh_class(space, 0, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                                  for _ in range(d)])


def _push(phi, v):
    return hh._push_composite(phi, v, hh._push_bend(phi))


def test_linear_maps_match_the_composites_off_the_basis(
        pt, bz2, bs3, a2, one, z2_modules, s3_modules, a2_modules, ind_res):
    # the memoised matrices run the categorical composites on basis classes
    # only; here the composites run on random rational and Chern classes, and
    # the pullback, a product of two pushforward matrices, meets the composite
    # along the left adjoint kernel tau_L(phi) = phi^v . serre_Y itself
    rng = random.Random(5)
    for sp, mods in ((bz2, z2_modules), (bs3, s3_modules), (a2, a2_modules)):
        vs = [random_class(sp, rng) for _ in range(2)]
        vs += [hh.chern(k, one) for k in list(mods.values())[:2]]
        sk = sp.serre_kernel()
        for v in vs:
            for w in vs:
                assert hh.mukai_pairing(v, w) == hh._mukai_composite(
                    hh.tau_r_class(v), kn.whisker(sk, hh.tau_l_class(w)))
        idk = sp.identity_kernel()
        for v in vs:
            assert hh.pushforward(idk, v) == _push(idk, v) == v
            assert hh.pullback(idk, v) == _push(kn.tau_l(idk), v) == v
    ind, res = ind_res
    for phi in (z2_modules["sgn"], ind, res):
        for _ in range(2):
            v = random_class(phi.source, rng)
            w = random_class(phi.target, rng)
            assert hh.pushforward(phi, v) == _push(phi, v)
            assert hh.pullback(phi, w) == _push(kn.tau_l(phi), w)


def test_direct_push_along_the_left_adjoint_is_the_pullback_on_a3(a3):
    # the tau_L oracle: pushing along tau_L(Id) = Id^v . serre as one
    # convolution bends through tensor complexes of its two factors, and
    # must agree with the product-form pullback, the identity on A3's HH_0
    idk = a3.identity_kernel()
    direct = hh.pushforward_matrix(kn.tau_l(idk))
    assert direct == hh.pullback_matrix(idk) == Matrix.identity(3)


def test_linear_maps_are_built_once(monkeypatch):
    # fresh spaces, so that the first calls show the counters at work
    pt = kn.Space(alg.point_algebra(), "pt")
    bz2 = kn.Space(alg.group_algebra([[0, 1], [1, 0]], "Z2"), "BZ2")
    sgn = alg.module_as_bimodule(bz2.algebra, pt.algebra,
                                 [Matrix.identity(1), m([[-1]])], "sgn")
    k = hh.module_kernel(bz2, pt, sgn)
    one = hh.one_point_class(pt)
    assert hh.one_point_class(pt) is one
    calls = []
    for name in ("serre_trace", "hcompose"):
        def counted(*args, _real=getattr(kn, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(kn, name, counted)
    ch = hh.chern(k, one)
    assert hh.mukai_pairing(ch, ch) == 1
    assert {"serre_trace", "hcompose"} <= set(calls)
    calls.clear()
    assert hh.chern(k, one) == ch
    assert hh.mukai_pairing(ch, ch) == 1
    assert calls == []


def test_a_class_outside_its_hh_group_is_rejected(bz2, z2_modules):
    v = hh.hh_class(bz2, 0, [1, 0, 1])
    with pytest.raises(InvariantViolation):
        hh.pullback(z2_modules["sgn"], v)
    with pytest.raises(InvariantViolation):
        hh.mukai_pairing(v, basis_classes(bz2)[0])
    # trailing zero coordinates name the same class
    e = basis_classes(bz2)[0]
    w = hh.hh_class(bz2, 0, [1, 0, 0])
    assert hh.mukai_pairing(w, w) == hh.mukai_pairing(e, e)


def test_mukai_nondegenerate_everywhere(pt, bz2, bs3, a2, a3, m2):
    for sp in (pt, bz2, bs3, a2, a3, m2):
        mat = hh.pairing_matrix(sp, 0)
        assert rank(mat) == mat.rows


def test_mukai_degree_mismatch_is_zero(a2):
    v = basis_classes(a2)[0]
    w = hh.hh_class(a2, 1, [])
    assert hh.mukai_pairing(v, w) == 0


def test_space_mismatch_raises(bz2, a2):
    v = basis_classes(bz2)[0]
    w = basis_classes(a2)[0]
    with pytest.raises(SpaceMismatch):
        hh.mukai_pairing(v, w)


def test_chern_of_regular_point_module(pt, one):
    mod = alg.module_as_bimodule(pt.algebra, pt.algebra, [Matrix.identity(1)], "Q")
    k = hh.module_kernel(pt, pt, mod)
    assert hh.chern(k, one) == one


def test_chern_equals_iota_of_identity(z2_modules, one):
    for k in z2_modules.values():
        assert hh.chern_via_iota(k) == hh.chern(k, one)


def test_semi_hrr_bz2_and_characters(pt, bz2, one, z2_modules):
    names = ["triv", "sgn"]
    for a, b in itertools.product(names, repeat=2):
        ka, kb = z2_modules[a], z2_modules[b]
        assert (hh.mukai_pairing(hh.chern(ka, one), hh.chern(kb, one))
                == hh.euler(ka, kb))
    ch_sgn = hh.chern(z2_modules["sgn"], one)
    assert hh.class_function(bz2, pt, ch_sgn, [0, 1]) == [Fraction(1), Fraction(-1)]


def test_s3_character_table(pt, bs3, one, s3_modules):
    expected = {
        "triv": [1, 1, 1],
        "sgn": [1, -1, 1],
        "std": [2, 0, -1],
    }
    for name, k in s3_modules.items():
        ch = hh.chern(k, one)
        vals = hh.class_function(bs3, pt, ch, [0, 1, 4])
        assert vals == [Fraction(x) for x in expected[name]]


def test_semi_hrr_s3_orthogonality(pt, bs3, one, s3_modules):
    names = list(s3_modules)
    for a, b in itertools.product(names, repeat=2):
        ka, kb = s3_modules[a], s3_modules[b]
        p = hh.mukai_pairing(hh.chern(ka, one), hh.chern(kb, one))
        assert p == hh.euler(ka, kb)
        assert p == (Q1 if a == b else Q0)


def test_euler_quiver_form(a2, a2_modules):
    assert hh.euler(a2_modules["S1"], a2_modules["S2"]) == -1
    assert hh.euler(a2_modules["S2"], a2_modules["S1"]) == 0
    assert hh.euler(a2_modules["S1"], a2_modules["S1"]) == 1


def test_semi_hrr_a2_all_pairs(pt, a2, one, a2_modules):
    for a, b in itertools.product(a2_modules, repeat=2):
        ka, kb = a2_modules[a], a2_modules[b]
        assert (hh.mukai_pairing(hh.chern(ka, one), hh.chern(kb, one))
                == hh.euler(ka, kb))


def test_k0_descent_nonsplit_triangle(a2, one, a2_modules):
    ch1 = hh.chern(a2_modules["S1"], one)
    ch2 = hh.chern(a2_modules["S2"], one)
    chp = hh.chern(a2_modules["P1"], one)
    assert ch1.add(ch2).add(chp.scale(-1)).is_zero()


def test_chern_additive_on_split_triangles(pt, bz2, one, z2_modules):
    # direct sum of triv and sgn is the regular module
    ch_r = hh.chern(z2_modules["reg"], one)
    ch_t = hh.chern(z2_modules["triv"], one)
    ch_s = hh.chern(z2_modules["sgn"], one)
    assert ch_r == ch_t.add(ch_s)


def test_chern_invariant_under_quasi_isomorphism(pt, a2, one, a2_modules):
    s2c = a2_modules["S2"].complex
    p1c = a2_modules["P1"].complex
    f = cx.ChainMap(s2c, p1c, 0, {0: m([[0], [1]])}, check=True)
    cone = builders.cone(f)
    kcone = kn.conv_kernel((kn.AtomicKernel(pt, a2, cone, "cone"),))
    assert kn.kernels_equivalent(kcone, a2_modules["S1"])
    assert hh.pushforward(kcone, one) == hh.chern(a2_modules["S1"], one)


def test_iota_lemma_and_adjointness(pt, bz2, one, z2_modules):
    # <v, ch(E)> = Tr(iota_E(v)) and <v, iota^E(t)> = Tr(iota_E(v) . t)
    e = z2_modules["sgn"]
    rng = random.Random(13)
    for _ in range(3):
        coords = [Fraction(rng.randrange(-3, 4)) for _ in range(2)]
        v = hh.hh_class(bz2, 0, coords)
        lhs = hh.mukai_pairing(v, hh.chern(e, one))
        rhs = hh.serre_trace_on_module(e, hh.iota_lower(e, v))
        assert lhs == rhs
        t = kn.random_two_morphism(e, e, 0, rng)
        lhs2 = hh.mukai_pairing(v, hh.iota_upper(e, t))
        rhs2 = hh.serre_trace_on_module(e, hh.iota_lower(e, v).compose(t))
        assert lhs2 == rhs2


def test_cardy_identity_case_reduces_to_euler(bz2, z2_modules):
    e, f = z2_modules["reg"], z2_modules["sgn"]
    lhs, rhs = hh.cardy_check(e, f, kn.TwoMorphism.identity(e),
                              kn.TwoMorphism.identity(f))
    assert lhs == rhs == hh.euler(e, f)


def test_cardy_sigma_cases(pt, bz2, z2_modules):
    reg = z2_modules["reg"]
    a = bz2.algebra
    msig = cx.ChainMap(reg.complex, reg.complex, 0, {0: a.right_mult[1]}, check=True)
    tsig = kn.TwoMorphism(reg, reg, msig)
    lhs, rhs = hh.cardy_check(reg, reg, tsig, tsig)
    assert lhs == rhs == 2  # conjugation by sigma fixes a 2-dim subspace
    lhs, rhs = hh.cardy_check(reg, reg, tsig, kn.TwoMorphism.identity(reg))
    assert lhs == rhs == 0  # left multiplication by sigma is trace 0


def test_cardy_random_instances(bz2, a2, z2_modules, a2_modules):
    rng = random.Random(42)
    cases = [(bz2, z2_modules["reg"], z2_modules["sgn"]),
             (bz2, z2_modules["triv"], z2_modules["reg"]),
             (a2, a2_modules["P1"], a2_modules["S2"]),
             (a2, a2_modules["S1"], a2_modules["P1"]),
             (a2, a2_modules["P1"], a2_modules["P1"])]
    done = 0
    for i in range(20):
        x, e, f = cases[i % len(cases)]
        s = kn.random_two_morphism(e, e, 0, rng)
        t = kn.random_two_morphism(f, f, 0, rng)
        lhs, rhs = hh.cardy_check(e, f, s, t)
        assert lhs == rhs
        done += 1
    assert done == 20


def test_hh_class_coordinate_stability(a2):
    d1 = hh.hh_data(a2)
    # recomputing from scratch in a fresh graded-data object is bit-identical
    anti = a2.anti_serre_kernel()
    idk = a2.identity_kernel()
    d2 = hh.GradedData(kn.two_morphism_space(anti, idk))
    for n, (dim, sect, proj) in d1.data.items():
        assert d2.data[n][1] == sect
        assert d2.data[n][2] == proj


def test_hcoh_ring_of_s3_central_idempotents(bs3):
    # the three central idempotents of Q[S3] give an orthogonal idempotent
    # basis of HH^0; their product table is diagonal
    a = bs3.algebra
    sgn_of = [1, -1, -1, -1, 1, 1]  # identity, transpositions, 3-cycles
    e_triv = tuple(Fraction(1, 6) for _ in range(6))
    e_sgn = tuple(Fraction(s, 6) for s in sgn_of)
    e_std = tuple(Fraction(1) - x - y if i == 0 else -x - y
                  for i, (x, y) in enumerate(zip(e_triv, e_sgn)))
    idk = bs3.identity_kernel()
    classes = []
    for z in (e_triv, e_sgn, e_std):
        z = {i: x for i, x in enumerate(z) if x}
        assert a.multiply(z, z) == z
        comps = {n: idk.complex.term(n).act_left(z) for n in idk.complex.degrees()}
        f = cx.ChainMap(idk.complex, idk.complex, 0, comps, check=True)
        classes.append(hh.two_morphism_to_class(bs3, kn.TwoMorphism(idk, idk, f),
                                                "cohomology"))
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            prod = hh.hcoh_product(bs3, ci, cj)
            assert prod == (ci if i == j else ci.scale(0))


def test_hcoh_product_is_associative_and_unital(bs3):
    rng = random.Random(8)
    u = hh.hcoh_unit(bs3)
    d = hh.hcoh(bs3)[0]
    cls = [hh.HochschildClass(bs3, "cohomology", 0,
                              [Fraction(rng.randrange(-2, 3)) for _ in range(d)])
           for _ in range(3)]
    a, b, c = cls
    assert hh.hcoh_product(bs3, u, a) == a == hh.hcoh_product(bs3, a, u)
    lhs = hh.hcoh_product(bs3, hh.hcoh_product(bs3, a, b), c)
    rhs = hh.hcoh_product(bs3, a, hh.hcoh_product(bs3, b, c))
    assert lhs == rhs


def test_graded_cohomology_of_kronecker_quiver():
    # two parallel arrows: first cohomology is three-dimensional, homology
    # still sits in degree 0 and matches the trace quotient
    kr_alg = alg.path_algebra(2, [(0, 1), (0, 1)], "Kr")
    kr = kn.Space(kr_alg, "Kr")
    assert hh.hcoh(kr) == {0: 1, 1: 3}
    dims = hh.hh(kr)
    assert dims.get(0) == 2 and all(d == 0 for i, d in dims.items() if i != 0)
    assert hh.hh_via_tor(kr) == {0: 2}
    assert alg.trace_quotient(kr_alg)[0].rows == 2
