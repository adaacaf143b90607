import random
from fractions import Fraction

import pytest

from hhengine.errors import AlgebraMismatch, InvariantViolation, ShapeMismatch
from hhengine.linalg import Matrix, rank
import hhengine.algebras as alg
import hhengine.complexes as cx
import hhengine.kernels as kn
import hhengine.hochschild as hh

import builders


def m(rows):
    return Matrix.from_rows(rows)


def all_snakes_hold(phi):
    e = kn.counit_eps(phi)
    eta2 = kn.unit_eta2(phi)
    em = kn.counit_eps_mirror(phi)
    eta1 = kn.unit_eta1(phi)
    tr = kn.tau_r(phi)
    tl = kn.tau_l(phi)
    checks = [
        kn.whisker(None, e, phi).compose(kn.whisker(phi, eta2)).equals(
            kn.TwoMorphism.identity(phi)),
        kn.whisker(tr, e).compose(kn.whisker(None, eta2, tr)).equals(
            kn.TwoMorphism.identity(tr)),
        kn.whisker(None, em, tl).compose(kn.whisker(tl, eta1)).equals(
            kn.TwoMorphism.identity(tl)),
        kn.whisker(phi, em).compose(kn.whisker(None, eta1, phi)).equals(
            kn.TwoMorphism.identity(phi)),
    ]
    return all(checks)


def reflexively_polite(phi):
    mg = kn.mirrored_gamma(phi)
    gd = kn.gamma(kn.dual_kernel(phi))
    fix = kn.hcompose([kn.kernel_double_dual_inverse(phi),
                       kn.TwoMorphism.identity(kn.dual_kernel(phi))])
    return mg.equals(fix.compose(gd))


def test_empty_convolution_is_an_invariant_violation():
    # no factor names a space, so there is no identity kernel to return
    with pytest.raises(InvariantViolation):
        kn.conv_kernel(())


def test_identity_kernel_point_and_separable(pt, bz2, a2):
    assert pt.identity_kernel().complex.degrees() == [0]
    assert bz2.identity_kernel().complex.degrees() == [0]
    assert bz2.identity_kernel().complex.dim(0) == 2
    assert a2.identity_kernel().complex.degrees() == [-1, 0]


def test_serre_against_identity(pt, bz2, bs3, a2):
    assert kn.kernels_equivalent(bz2.serre_kernel(), bz2.identity_kernel())
    assert kn.kernels_equivalent(bs3.serre_kernel(), bs3.identity_kernel())
    assert not kn.kernels_equivalent(a2.serre_kernel(), a2.identity_kernel())


def test_serre_anti_serre_cancel(pt, a2):
    for sp in (pt, a2):
        sk, anti = sp.serre_kernel(), sp.anti_serre_kernel()
        both = kn.convolve(sk, anti)
        dims = {n: d for n, d in cx.homology_dims(both.complex).items() if d}
        idims = {n: d for n, d in
                 cx.homology_dims(sp.identity_kernel().complex).items() if d}
        assert dims == idims
        assert kn.kernels_equivalent(both, sp.identity_kernel())


def test_convolution_unit_law(bz2, z2_modules):
    phi = z2_modules["sgn"]
    assert kn.convolve(bz2.identity_kernel(), phi) is phi
    assert kn.convolve(phi, phi.source.identity_kernel()) is phi


def test_convolution_mismatch_raises(bz2, a2):
    with pytest.raises(AlgebraMismatch):
        kn.convolve(bz2.serre_kernel(), a2.serre_kernel())


def test_res_ind_composites(ind_res):
    ind, res = ind_res
    res_ind = kn.convolve(res, ind)
    assert sum(cx.homology_dims(res_ind.complex).values()) == 6
    ind_res_k = kn.convolve(ind, res)
    assert sum(cx.homology_dims(ind_res_k.complex).values()) == 18


def test_serre_cancelations_invert(pt, bz2, a2, a3):
    # can5 and can6 are homotopy inverses of the insertions can4 and can2
    for sp in (pt, bz2, a2, a3):
        one = kn.TwoMorphism.identity(sp.identity_kernel())
        assert sp.can5().compose(sp.can4()).equals(one)
        assert sp.can6().compose(sp.can2()).equals(one)


def test_dual_of_point_module():
    ptsp = kn.Space(alg.point_algebra(), "ptx")
    ptsp.can5()
    ptsp.can6()
    q2 = alg.module_as_bimodule(ptsp.algebra, ptsp.algebra, [Matrix.identity(2)], "Q2")
    c = cx.single_term_complex(q2)
    k = kn.conv_kernel((kn.AtomicKernel(ptsp, ptsp, c, "Q2"),))
    dk = kn.dual_kernel(k)
    assert dk.complex.degrees() == [0] and dk.complex.dim(0) == 2
    # double dual comparison is the literal identity on the free term
    dd = kn.kernel_double_dual(k)
    assert dd.chain.component(0) == Matrix.identity(2)


def test_double_dual_identity_on_identity_kernel(a2):
    dd = kn.kernel_double_dual(a2.identity_kernel())
    assert dd.chain.component(0) == Matrix.identity(a2.identity_kernel().complex.dim(0))


def test_gamma_eps_at_point(pt):
    idk = pt.identity_kernel()
    assert kn.gamma(idk).chain.component(0) == Matrix.identity(1)
    assert kn.counit_eps(idk).chain.component(0) == Matrix.identity(1)
    assert kn.mirrored_gamma(idk).chain.component(0) == Matrix.identity(1)


def test_gamma_of_restriction_kernel_nonzero(pt, bz2, z2_modules):
    phi = z2_modules["reg"]  # Q[Z2] as a (Z2, pt)-kernel: the restriction shape
    g = kn.gamma(phi)
    assert not g.is_nullhomotopic()


def test_snakes_shipped_kernels(pt, bz2, a2, z2_modules, a2_modules, ind_res):
    for k in [z2_modules["sgn"], a2_modules["S1"]]:
        assert all_snakes_hold(k)
        assert all_snakes_hold(kn.dual_kernel(k))
    ind, res = ind_res
    assert all_snakes_hold(res)
    # the mirror counit of the identity goes through the double dual like
    # any other kernel; s3 and s4 pair it with the independently built eta1
    for sp in (pt, bz2, a2):
        assert all_snakes_hold(sp.identity_kernel())


def test_reflexive_politeness(z2_modules, a2_modules):
    assert reflexively_polite(z2_modules["sgn"])
    assert reflexively_polite(a2_modules["S1"])
    assert reflexively_polite(a2_modules["P1"])


def test_tau_r_of_identity(a2):
    # the dual of the identity kernel is the anti-Serre kernel, so the right
    # adjoint of the identity is serre . anti_serre, equivalent to the identity
    t = kn.tau_r(a2.identity_kernel())
    assert kn.kernels_equivalent(t, a2.identity_kernel())


def test_tau_r_of_composite(ind_res):
    ind, res = ind_res
    comp = kn.convolve(res, ind)
    t1 = kn.tau_r(comp)
    t2 = kn.convolve(kn.tau_r(ind), kn.tau_r(res))
    assert kn.kernels_equivalent(t1, t2)


def _point_trace_kernel(ptsp, n):
    p = ptsp.algebra
    mod = alg.module_as_bimodule(p, p, [Matrix.identity(n)], f"Q{n}")
    c = cx.single_term_complex(mod)
    return kn.conv_kernel((kn.AtomicKernel(ptsp, ptsp, c, f"Q{n}"),))


def test_serre_trace_is_matrix_trace(pt):
    phi = _point_trace_kernel(pt, 3)
    ins = kn.point_serre_insert(pt)
    mat = m([[1, 2, 0], [0, 3, 5], [7, 0, 2]])
    t = kn.TwoMorphism(phi, phi,
                       cx.ChainMap(phi.complex, phi.complex, 0, {0: mat}, check=False))
    alpha = kn.hcompose([ins, t, ins])
    assert kn.serre_trace(phi, alpha) == Fraction(6)
    # dimension as categorical trace
    alpha_id = kn.hcompose([ins, kn.TwoMorphism.identity(phi), ins])
    assert kn.serre_trace(phi, alpha_id) == Fraction(3)


def test_serre_trace_parity(pt):
    p = pt.algebra
    mod0 = alg.module_as_bimodule(p, p, [Matrix.identity(1)], "a")
    mod1 = alg.module_as_bimodule(p, p, [Matrix.identity(1)], "b")
    c = cx.Complex({0: mod0, 1: mod1}, {0: Matrix.zero(1, 1)}, p, p)
    phi = kn.conv_kernel((kn.AtomicKernel(pt, pt, c, "Q01"),))
    ins = kn.point_serre_insert(pt)
    alpha = kn.hcompose([ins, kn.TwoMorphism.identity(phi), ins])
    assert kn.serre_trace(phi, alpha) == Fraction(0)


def test_serre_trace_additive_and_shift(pt):
    # additive under direct sum, multiplies by -1 under shift by 1
    mod = alg.module_as_bimodule(pt.algebra, pt.algebra, [Matrix.identity(2)], "Q2")
    c = cx.single_term_complex(mod)
    phi = kn.conv_kernel((kn.AtomicKernel(pt, pt, c, "q2"),))
    shifted = kn.conv_kernel((kn.AtomicKernel(pt, pt, cx.shift(c, 1), "q2s"),))
    ins = kn.point_serre_insert(pt)
    a1 = kn.hcompose([ins, kn.TwoMorphism.identity(phi), ins])
    a2_ = kn.hcompose([ins, kn.TwoMorphism.identity(shifted), ins])
    assert kn.serre_trace(phi, a1) == Fraction(2)
    assert kn.serre_trace(shifted, a2_) == Fraction(-2)


def test_trace_commutativity(pt, bz2, z2_modules):
    # Tr(beta . alpha) = Tr(S(alpha) . beta) on the restriction-shaped kernel
    phi = z2_modules["reg"]
    rng = random.Random(7)
    sky = phi.target.serre_kernel()
    a = kn.random_two_morphism(phi, phi, 0, rng)
    shaped = kn.conv_kernel(sky.factors + phi.factors + pt.serre_kernel().factors)
    b = kn.random_two_morphism(phi, shaped, 0, rng)
    lhs = kn.serre_trace(phi, b.compose(a))
    # S(alpha) = serre_Y * alpha * serre_pt whiskered
    s_alpha = kn.hcompose([kn.TwoMorphism.identity(sky), a,
                           kn.TwoMorphism.identity(pt.serre_kernel())])
    rhs = kn.serre_trace(phi, s_alpha.compose(b))
    assert lhs == rhs


def test_partial_trace_identity_strand(pt, bz2, z2_modules):
    # phi = identity kernel: the partial trace is alpha itself up to units
    psi = z2_modules["sgn"]
    idk = bz2.identity_kernel()
    sky = bz2.serre_kernel()
    skz = pt.serre_kernel()
    big = kn.convolve(idk, psi)
    assert big is psi
    tgt = kn.conv_kernel(sky.factors + psi.factors + skz.factors)
    rng = random.Random(3)
    a = kn.random_two_morphism(big, tgt, 0, rng)
    ptr = kn.partial_trace_left(a, idk, psi, kn.convolve(psi, skz))
    assert kn.serre_trace(psi, ptr) == kn.serre_trace(big, a)


def test_partial_trace_invariance_seeded(pt, bz2, a2, z2_modules, a2_modules):
    rng = random.Random(19)
    chains = []
    sgn = z2_modules["sgn"]
    chains.append((kn.dual_kernel(sgn), sgn))        # (BZ2, pt, pt)
    s1 = a2_modules["S1"]
    chains.append((kn.dual_kernel(s1), s1))          # (A2, pt, pt)
    count = 0
    for phi, psi in chains:
        y, z = phi.target, psi.source
        sky, skz = y.serre_kernel(), z.serre_kernel()
        big = kn.convolve(phi, psi)
        tgt = kn.conv_kernel(sky.factors + phi.factors + psi.factors + skz.factors)
        for i in range(10):
            a = kn.random_two_morphism(big, tgt, 0, rng)
            full = kn.serre_trace(big, a)
            left = kn.serre_trace(
                psi, kn.partial_trace_left(a, phi, psi, kn.convolve(psi, skz)))
            right = kn.serre_trace(
                phi, kn.partial_trace_right(a, psi, phi, kn.convolve(sky, phi)))
            assert full == left == right
            count += 1
    assert count == 20


def test_full_trace_via_two_partial_traces(pt):
    phi = _point_trace_kernel(pt, 2)
    psi = _point_trace_kernel(pt, 3)
    spt = pt.serre_kernel()
    big = kn.convolve(phi, psi)
    tgt = kn.conv_kernel(spt.factors + phi.factors + psi.factors + spt.factors)
    rng = random.Random(23)
    a = kn.random_two_morphism(big, tgt, 0, rng)
    full = kn.serre_trace(big, a)
    step1 = kn.partial_trace_left(a, phi, psi, kn.convolve(psi, spt))
    after1 = kn.serre_trace(psi, step1)
    assert after1 == full
    # reduce again: step1 has the trace shape for psi; close its strand too
    step2 = kn.partial_trace_left(step1, psi, pt.identity_kernel(),
                                  kn.convolve(pt.identity_kernel(), spt))
    assert kn.serre_trace(pt.identity_kernel(), step2) == full


def test_interchange_law(a2_modules):
    k = a2_modules["S1"]
    dk = kn.dual_kernel(k)
    rng = random.Random(5)
    a = kn.random_two_morphism(k, k, 0, rng)
    ap = kn.random_two_morphism(k, k, 0, rng)
    b = kn.random_two_morphism(dk, dk, 0, rng)
    bp = kn.random_two_morphism(dk, dk, 0, rng)
    lhs = kn.hcompose_pair(bp.compose(b), ap.compose(a))
    rhs = kn.hcompose_pair(bp, ap).compose(kn.hcompose_pair(b, a))
    assert lhs.equals(rhs)


def test_two_morphism_equality_is_modulo_homotopy(a2):
    # the identity of an exact kernel complex is homotopic to zero
    a = a2.algebra
    mod = builders.free_bimodule(a, a, rank=1)
    c = cx.Complex({0: mod, 1: mod}, {0: Matrix.identity(mod.dim)}, a, a)
    k = kn.conv_kernel((kn.AtomicKernel(a2, a2, c, "exact"),))
    idm = kn.TwoMorphism.identity(k)
    zero = idm.scale(0)
    assert idm.equals(zero)


def test_strict_perfection_enforced(a2):
    a = a2.algebra
    s2l = [m([[0]]), Matrix.identity(1), m([[0]])]
    bad = alg.Bimodule(a, a, 1, s2l, s2l, "S2bim", check=False)
    c = cx.single_term_complex(bad)
    with pytest.raises(Exception):
        kn.AtomicKernel(a2, a2, c, "bad", check=True)


def test_serre_trace_additive_under_direct_sum(pt):
    p = pt.algebra
    mod2 = alg.module_as_bimodule(p, p, [Matrix.identity(2)], "x2")
    mod3 = alg.module_as_bimodule(p, p, [Matrix.identity(3)], "x3")
    c2 = cx.single_term_complex(mod2)
    c3 = cx.single_term_complex(mod3)
    csum = builders.direct_sum(c2, c3)
    ins = kn.point_serre_insert(pt)
    traces = []
    for c in (c2, c3, csum):
        k = kn.conv_kernel((kn.AtomicKernel(pt, pt, c, "s"),))
        a = kn.hcompose([ins, kn.TwoMorphism.identity(k), ins])
        traces.append(kn.serre_trace(k, a))
    assert traces[2] == traces[0] + traces[1]


def _split3(outer, inner, n, vec, right):
    # a degree-n vector of TC(X, TC(Y, Z)) (right) or TC(TC(X, Y), Z) as
    # {(i, j, k): {(a, b, c): x}}, read through the pair split only
    out = {}
    for (p, q), raw in outer.split(n, vec).items():
        groups = {}
        width = outer.d.dim(q)
        for idx, x in raw.items():
            u, v = divmod(idx, width)
            w, rest = (u, v) if right else (v, u)
            groups.setdefault(w, {})[rest] = x
        for w, sub in groups.items():
            for (s, t), raw2 in inner.split(q if right else p, sub).items():
                tri = out.setdefault((p, s, t) if right else (s, t, q), {})
                dt = inner.d.dim(t)
                for idx2, y in raw2.items():
                    b, c = divmod(idx2, dt)
                    tri[(w, b, c) if right else (b, c, w)] = y
    return out


def _join3(outer, inner, n, parts, right):
    # the inverse reading of _split3, written through the pair join only
    pairs = {}
    for (i, j, k), tri in parts.items():
        p, q, s, t = (i, j + k, j, k) if right else (i + j, k, i, j)
        groups = {}
        dt = inner.d.dim(t)
        for (a, b, c), x in tri.items():
            w, u, v = (a, b, c) if right else (c, a, b)
            groups.setdefault(w, {})[u * dt + v] = x
        raw = pairs.setdefault((p, q), {})
        width = outer.d.dim(q)
        for w, sub in groups.items():
            vec = inner.join(s + t, {(s, t): sub})
            alg._add_into(raw, {w * width + r if right else r * width + w: y
                                for r, y in vec.items()})
    return outer.join(n, pairs)


def _mediated_route():
    """hcompose_pair through regrouping mediators, independent of the
    raw-tuple reader: both convolutions are regrouped to TC(A, B) by a
    recursive join of three-factor associators read with _split3 /
    _join3, and alpha (x) beta is the tensor map there."""
    memo = {}

    def assoc(x, y, z):
        if (x, y, z) not in memo:
            inner_r, inner_l = cx.tc_of(y, z), cx.tc_of(x, y)
            outer_r = cx.tc_of(x, inner_r.complex)
            outer_l = cx.tc_of(inner_l.complex, z)

            def regroup(src, src_inner, tgt, tgt_inner, right):
                def image(n, vec):
                    triples = _split3(src, src_inner, n, vec, right)
                    return _join3(tgt, tgt_inner, n, triples, not right)
                return kn._chain_map(src.complex, tgt.complex, image,
                                     src.complex.degrees())
            memo[x, y, z] = outer_l, kn.Mediator(
                regroup(outer_r, inner_r, outer_l, inner_l, True),
                regroup(outer_l, inner_l, outer_r, inner_r, False))
        return memo[x, y, z]

    def join(ka, kb):
        if ka.is_identity:
            return kn._insert_identity(kb, "left")
        if kb.is_identity:
            return kn._insert_identity(ka, "right")
        a1, rest = ka.factors[0], ka.factors[1:]
        whole = cx.tc_of(a1.complex,
                         kn.conv_kernel(rest + kb.factors).complex)
        if not rest:
            return whole, kn.Mediator.identity(whole.complex)
        ka_rest = kn.conv_kernel(rest)
        sub_tc, sub_med = join(ka_rest, kb)
        upper = cx.tc_of(a1.complex, sub_tc.complex)
        idc = cx.ChainMap.identity(a1.complex)
        lift_fwd = cx.tensor_map(whole, upper, idc, sub_med.fwd)
        lift_inv = cx.tensor_map(upper, whole, idc, sub_med.inv)
        outer_l, med = assoc(a1.complex, ka_rest.complex, kb.complex)
        return outer_l, kn.Mediator(med.fwd.compose(lift_fwd),
                                    lift_inv.compose(med.inv))

    def hcompose_pair(alpha, beta):
        tc_s, med_s = join(alpha.source, beta.source)
        tc_t, med_t = join(alpha.target, beta.target)
        mid = cx.tensor_map(tc_s, tc_t, alpha.chain, beta.chain)
        return med_t.inv.compose(mid.compose(med_s.fwd))
    return hcompose_pair


def _entrywise_equal(f, g):
    return (f.source is g.source and f.target is g.target
            and f.degree == g.degree
            and all(f.component(n) == g.component(n)
                    for n in set(f.components) | set(g.components)))


def test_horizontal_composites_equal_the_mediated_route(a2, a3, bz2,
                                                        monkeypatch):
    # random 2-morphisms of degrees -2..2 between Id, S, S^-1 and S.S^-1,
    # composed in both orders: every branch of hcompose_pair (identity
    # kernels inserted or contracted, whiskers on either side, odd degrees
    # that carry the (T2) sign) against the mediated route, entry for entry
    rng = random.Random(11)
    pairs = []
    for sp in (a2, a3, bz2):
        ks = [sp.identity_kernel(), sp.serre_kernel(), sp.anti_serre_kernel(),
              kn.convolve(sp.serre_kernel(), sp.anti_serre_kernel())]
        draws = [kn.TwoMorphism.identity(ks[3])]
        ends = [(src, tgt) for src in ks for tgt in ks]
        for degree in range(-2, 3):
            rng.shuffle(ends)
            found = (kn.random_two_morphism(src, tgt, degree, rng)
                     for src, tgt in ends)
            draws += [t for t in found if t is not None][:2]
        pairs += [(s, t) for s in draws for t in draws]
    # no kernel here has cycles of negative degree
    assert {s.degree for s, _ in pairs} == {0, 1, 2}
    # the whiskers inside A3's canonical 2-morphisms, on a space of its own
    # so that none of them is memoised yet
    seen = []
    plain = kn.hcompose_pair

    def record(alpha, beta):
        seen.append((alpha, beta))
        return plain(alpha, beta)
    monkeypatch.setattr(kn, "hcompose_pair", record)
    fresh = kn.Space(alg.path_algebra(3, [(0, 1), (1, 2)], "A3"), "A3")
    idk = fresh.identity_kernel()
    for build in (fresh.can2, fresh.can4, lambda: kn.gamma(idk),
                  lambda: kn.mirrored_gamma(idk)):
        build()
    monkeypatch.undo()
    assert len(seen) >= 6
    mediated = _mediated_route()
    for alpha, beta in pairs + seen:
        got = kn.hcompose_pair(alpha, beta)
        want = mediated(alpha, beta)
        assert _entrywise_equal(got.chain, want)
