"""Acceptance suite: one test per criterion, exact rational equality
throughout (no tolerances).  Run with `pytest tests/test_acceptance.py -v -s`
to see one PASS line per criterion.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hhengine.linalg import Matrix, Q0, Q1, rank
import hhengine.algebras as alg
import hhengine.complexes as cx
import hhengine.kernels as kn
import hhengine.hochschild as hh


def m(rows):
    return Matrix.from_rows(rows)


def basis_classes(space, degree=0):
    d = hh.hh_data(space).dim(-degree)
    return [hh.hh_class(space, degree, [Q1 if t == j else Q0 for t in range(d)])
            for j in range(d)]


def test_criterion_01_hochschild_dimensions(pt, bz2, bs3, a2, a3):
    expected = [(pt, 1, 1), (bz2, 2, 2), (bs3, 3, 3), (a2, 2, 1), (a3, 3, 1)]
    for sp, h0, hc0 in expected:
        dims = hh.hh(sp)
        assert dims.get(0) == h0, sp.label
        assert all(d == 0 for i, d in dims.items() if i > 0), sp.label
        assert hh.hcoh(sp).get(0) == hc0, sp.label
        # independent oracles
        assert hh.hh_via_tor(sp) == {i: d for i, d in dims.items() if d}
        assert alg.trace_quotient(sp.algebra)[0].rows == h0
        assert alg.center(sp.algebra).cols == hc0
    print("PASS criterion 1: Hochschild dimensions with tor/center/trace oracles")


def test_criterion_02_semi_hrr(pt, bz2, bs3, a2, one,
                               z2_modules, s3_modules, a2_modules):
    for a, b in itertools.product(["triv", "sgn"], repeat=2):
        ka, kb = z2_modules[a], z2_modules[b]
        assert (hh.mukai_pairing(hh.chern(ka, one), hh.chern(kb, one))
                == hh.euler(ka, kb))
    names = ["triv", "sgn", "std"]
    for a, b in itertools.product(names, repeat=2):
        ka, kb = s3_modules[a], s3_modules[b]
        p = hh.mukai_pairing(hh.chern(ka, one), hh.chern(kb, one))
        assert p == hh.euler(ka, kb) == (Q1 if a == b else Q0)
    # A2 against the quiver Euler form <d, e> = sum d_i e_i - sum_{a:i->j} d_i e_j
    dimvec = {"S1": (1, 0), "S2": (0, 1), "P1": (1, 1)}
    for a, b in itertools.product(a2_modules, repeat=2):
        ka, kb = a2_modules[a], a2_modules[b]
        d, e = dimvec[a], dimvec[b]
        quiver_form = d[0] * e[0] + d[1] * e[1] - d[0] * e[1]
        p = hh.mukai_pairing(hh.chern(ka, one), hh.chern(kb, one))
        assert p == hh.euler(ka, kb) == quiver_form
    assert hh.euler(a2_modules["S1"], a2_modules["S2"]) == -1
    print("PASS criterion 2: Semi-HRR on BZ2, BS3 (identity matrix), A2 (quiver form)")


def test_criterion_03_functoriality(pt, bz2, bs3, one, z2_modules, ind_res):
    ind, res = ind_res
    phi = z2_modules["sgn"]            # pt -> BZ2
    comp = kn.convolve(ind, phi)       # pt -> BS3
    assert (hh.pushforward_matrix(comp)
            == hh.pushforward_matrix(ind) * hh.pushforward_matrix(phi))
    assert (hh.pullback_matrix(comp)
            == hh.pullback_matrix(phi) * hh.pullback_matrix(ind))
    print("PASS criterion 3: functoriality along pt -> BZ2 -> BS3 and its mirror")


def test_criterion_04_adjointness(bz2, bs3, ind_res):
    ind, res = ind_res
    assert hh.pushforward_matrix(ind) == hh.pullback_matrix(res)
    for v in basis_classes(bz2):
        for w in basis_classes(bs3):
            assert (hh.mukai_pairing(hh.pushforward(ind, v), w)
                    == hh.mukai_pairing(v, hh.pushforward(res, w)))
    print("PASS criterion 4: Ind_* = Res^* and Mukai adjointness on bases")


def test_criterion_05_isometry(pt, m2, one):
    col = alg.module_as_bimodule(
        m2.algebra, pt.algebra, [m([[1, 0], [0, 0]]), m([[0, 1], [0, 0]]),
                     m([[0, 0], [1, 0]]), m([[0, 0], [0, 1]])], "col")
    k = hh.module_kernel(m2, pt, col)
    v = hh.pushforward(k, one)
    assert hh.mukai_pairing(v, v) == hh.mukai_pairing(one, one) == 1
    print("PASS criterion 5: Morita kernel pt ~ M2(Q) preserves the pairing")


def test_criterion_06_nondegeneracy(pt, bz2, bs3, a2, a3):
    for sp in (pt, bz2, bs3, a2, a3):
        mat = hh.pairing_matrix(sp, 0)
        assert rank(mat) == mat.rows == hh.hh_data(sp).dim(0), sp.label
    print("PASS criterion 6: Mukai pairing matrices full rank on all five spaces")


def test_criterion_07_partial_trace_invariance(pt, bz2, a2, z2_modules,
                                               a2_modules):
    rng = random.Random(2026)
    chains = []
    sgn = z2_modules["sgn"]
    chains.append((kn.dual_kernel(sgn), sgn))      # spaces (BZ2, pt, pt)
    s1 = a2_modules["S1"]
    chains.append((kn.dual_kernel(s1), s1))        # spaces (A2, pt, pt)
    checked = 0
    for phi, psi in chains:
        y, z = phi.target, psi.source
        sky, skz = y.serre_kernel(), z.serre_kernel()
        big = kn.convolve(phi, psi)
        tgt = kn.conv_kernel(sky.factors + phi.factors + psi.factors + skz.factors)
        for _ in range(10):
            a = kn.random_two_morphism(big, tgt, 0, rng)
            full = kn.serre_trace(big, a)
            left = kn.serre_trace(
                psi, kn.partial_trace_left(a, phi, psi, kn.convolve(psi, skz)))
            right = kn.serre_trace(
                phi, kn.partial_trace_right(a, psi, phi, kn.convolve(sky, phi)))
            assert full == left == right
            checked += 1
    assert checked >= 20
    print(f"PASS criterion 7: Tr(ptr(alpha)) = Tr(alpha) on {checked} seeded instances")


def test_criterion_08_snakes_and_reflexivity(pt, bz2, a2, m2, z2_modules,
                                             a2_modules, a3_modules,
                                             s3_modules, ind_res):
    from test_kernels import all_snakes_hold, reflexively_polite
    ind, res = ind_res
    col = alg.module_as_bimodule(
        m2.algebra, pt.algebra, [m([[1, 0], [0, 0]]), m([[0, 1], [0, 0]]),
                     m([[0, 0], [1, 0]]), m([[0, 0], [0, 1]])], "col8")
    kcol = hh.module_kernel(m2, pt, col)
    shipped = [z2_modules["triv"], z2_modules["sgn"], z2_modules["reg"],
               a2_modules["S1"], a2_modules["S2"], a2_modules["P1"],
               a3_modules["T2"], s3_modules["std"], kcol, res, ind]
    for k in shipped:
        assert all_snakes_hold(k), repr(k)
        assert all_snakes_hold(kn.dual_kernel(k)), f"dual of {k!r}"
        assert reflexively_polite(k), repr(k)
    print(f"PASS criterion 8: snake identities and reflexive politeness on "
          f"{len(shipped)} kernels and their duals")


def test_criterion_09_k0_descent(pt, bz2, a2, one, z2_modules, a2_modules):
    ch1 = hh.chern(a2_modules["S1"], one)
    ch2 = hh.chern(a2_modules["S2"], one)
    chp = hh.chern(a2_modules["P1"], one)
    assert ch1.add(ch2).add(chp.scale(-1)).is_zero()   # non-split triangle
    # split triangles: direct sums across the shipped module sets
    reg = hh.chern(z2_modules["reg"], one)
    assert reg == hh.chern(z2_modules["triv"], one).add(
        hh.chern(z2_modules["sgn"], one))
    summod = alg.module_as_bimodule(
        a2.algebra, pt.algebra,
        [m([[1, 0], [0, 0]]), m([[0, 0], [0, 1]]), m([[0, 0], [0, 0]])], "S1+S2")
    ksum = hh.module_kernel(a2, pt, summod)
    assert hh.chern(ksum, one) == ch1.add(ch2)
    print("PASS criterion 9: ch additive on the non-split A2 triangle and split sums")


def test_criterion_10_baggy_cardy(bz2, a2, z2_modules, a2_modules):
    rng = random.Random(777)
    cases = [(bz2, z2_modules["reg"], z2_modules["sgn"]),
             (bz2, z2_modules["triv"], z2_modules["reg"]),
             (bz2, z2_modules["reg"], z2_modules["reg"]),
             (a2, a2_modules["P1"], a2_modules["S2"]),
             (a2, a2_modules["S1"], a2_modules["P1"]),
             (a2, a2_modules["P1"], a2_modules["P1"])]
    checked = 0
    for i in range(20):
        x, e, f = cases[i % len(cases)]
        s = kn.random_two_morphism(e, e, 0, rng)
        t = kn.random_two_morphism(f, f, 0, rng)
        lhs, rhs = hh.cardy_check(e, f, s, t)
        assert lhs == rhs
        checked += 1
    # identity case reduces to criterion 2
    for x, e, f in cases:
        lhs, rhs = hh.cardy_check(e, f, kn.TwoMorphism.identity(e),
                                  kn.TwoMorphism.identity(f))
        assert lhs == rhs == hh.euler(e, f)
    print(f"PASS criterion 10: Cardy lhs = rhs on {checked} seeded instances "
          f"plus identity reductions")


def test_criterion_11_characters(pt, bz2, bs3, one, z2_modules, s3_modules):
    ch_sgn = hh.chern(z2_modules["sgn"], one)
    assert hh.class_function(bz2, pt, ch_sgn, [0, 1]) == [Q1, -Q1]
    table = {"triv": [1, 1, 1], "sgn": [1, -1, 1], "std": [2, 0, -1]}
    for name, k in s3_modules.items():
        vals = hh.class_function(bs3, pt, hh.chern(k, one), [0, 1, 4])
        assert vals == [Fraction(x) for x in table[name]]
    print("PASS criterion 11: ch(sgn) = (1, -1) and the full S3 character table")


def test_criterion_12_dsl_cross_validation(golden_reports):
    diagram_pairs = {
        "bz2": [("mukai-diagram", "mukai-ts-direct", "value"),
                ("push-diagram", "chern-sgn", "coords"),
                ("cardy-diagram", "chern-sgn", "coords")],
        "a2": [("mukai-diagram-a2", "mukai-s1s2-direct", "value"),
               ("push-diagram-a2", "chern-s2-direct", "coords")],
        "bs3": [("mukai-diagram-bs3", "mukai-ts", "value"),
                ("push-diagram-bs3", "chern-sgn-direct", "coords")],
    }
    for ws, pairs in diagram_pairs.items():
        report, ok = golden_reports[ws]
        assert ok, ws
        by_id = {t["id"]: t for t in report["tasks"]}
        for diag, direct, field in pairs:
            assert by_id[diag]["status"] == "ok"
            if direct is None:
                continue
            dval = by_id[diag]["payload"][field if field == "value" else "coords"]
            direct_payload = by_id[direct]["payload"]
            want = direct_payload.get(field) or direct_payload.get("coords")
            assert dval == want, (ws, diag, direct)
    print("PASS criterion 12: shipped diagram terms match the direct operations")
