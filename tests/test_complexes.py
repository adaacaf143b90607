import random
from fractions import Fraction

import pytest

from hhengine.linalg import Matrix, nullspace_basis, rank
import hhengine.algebras as alg
import hhengine.complexes as cx

import builders
from test_linalg import d_nullspace, d_residual, d_rref

# one point algebra for every vector-space complex here, so they combine
PT = alg.point_algebra()


def m(rows):
    return Matrix.from_rows(rows)


def vect_complex(dims, diffs):
    """Complex of plain vector spaces from dimension and matrix dicts."""
    terms = {n: alg.point_bimodule(PT, d) for n, d in dims.items() if d}
    return cx.Complex(terms, diffs, PT, PT)


def test_homology_examples():
    c = vect_complex({0: 1}, {})
    assert cx.homology(c, 0)[0] == 1
    exact = vect_complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    assert all(cx.homology(exact, n)[0] == 0 for n in (0, 1))
    c2 = vect_complex({0: 2, 1: 1}, {0: m([[1, 1]])})
    assert cx.homology(c2, 0)[0] == 1
    assert cx.homology(c2, 1)[0] == 0


def test_constructor_rejects_nonsquaring_differential():
    with pytest.raises(ValueError):
        vect_complex({0: 1, 1: 1, 2: 1},
                     {0: Matrix.identity(1), 1: Matrix.identity(1)})


def test_euler_characteristic_matches_homology():
    rng = random.Random(9)
    for _ in range(10):
        d0 = Matrix(2, 2, [Fraction(rng.randrange(-2, 3)) for _ in range(4)])
        # build a 3-term complex 0 -> Q^2 -> Q^2 -> coker-ish by taking d1 = 0
        c = vect_complex({0: 2, 1: 2}, {0: d0})
        euler_terms = c.dim(0) - c.dim(1)
        euler_h = cx.homology(c, 0)[0] - cx.homology(c, 1)[0]
        assert euler_terms == euler_h


def _d_homology(dn, dprev, dim):
    """Dense reference homology at a degree through an explicit complement:
    the cycles, the greedy unit-vector complement of them, a solve in that
    basis for each vector's cycle coordinates, and the quotient by the
    boundaries."""
    zs = d_nullspace(d_rref([dn.row(i) for i in range(dn.rows)], dim), dim)
    basis = list(zs)
    for i in range(dim):
        e = [int(j == i) for j in range(dim)]
        if len(d_rref(basis + [e], dim)) > len(basis):
            basis.append(e)

    def cycle_coords(v):
        sol = d_rref([[b[r] for b in basis] + [v[r]] for r in range(dim)], dim + 1)
        assert sorted(sol) == list(range(dim))
        return [sol[k][dim] for k in range(len(zs))]

    bcoords = [cycle_coords([dprev[i, j] for i in range(dim)])
               for j in range(dprev.cols)]
    qred = d_rref(bcoords, len(zs))
    qfree = [f for f in range(len(zs)) if f not in qred]
    proj_cols = [d_residual(cycle_coords([int(j == i) for j in range(dim)]), qred)
                 for i in range(dim)]
    section = Matrix(dim, len(qfree), [zs[f][i] for i in range(dim) for f in qfree])
    projector = Matrix(len(qfree), dim,
                       [proj_cols[i][f] for f in qfree for i in range(dim)])
    return len(qfree), section, projector


def _rand_matrix(rng, rows, cols, lo=-2, hi=2):
    return Matrix(rows, cols, [rng.randint(lo, hi) for _ in range(rows * cols)])


def test_homology_projector_section_contract():
    c = vect_complex({0: 2, 1: 1}, {0: m([[1, 1]])})
    dim, section, projector = cx.homology(c, 0)
    assert (projector * section) == Matrix.identity(dim)
    # projector kills boundaries (none here) and complement directions map to 0
    assert projector.cols == 2 and projector.rows == 1
    rng = random.Random(20)
    for _ in range(40):
        a, b, d = (rng.randint(0, 4) for _ in range(3))
        # d0 of rank at most min(b, d) - 1 and d_{-1} landing in ker d0, with
        # a Fraction now and then
        r = rng.randint(0, max(min(b, d) - 1, 0))
        d0 = _rand_matrix(rng, d, r) * _rand_matrix(rng, r, b)
        if rng.random() < 0.3 and not d0.is_zero():
            d0 = d0.scale(Fraction(1, 3))
        z = nullspace_basis(d0)
        dm1 = z * _rand_matrix(rng, z.cols, a, -1, 1)
        c = vect_complex({-1: a, 0: b, 1: d}, {-1: dm1, 0: d0})
        for n in (-1, 0, 1):
            got = cx.homology(c, n)
            assert got == _d_homology(c.differential(n), c.differential(n - 1),
                                      c.dim(n))
            hdim, section, projector = got
            assert projector * section == Matrix.identity(hdim)
            assert (projector * c.differential(n - 1)).is_zero()
            assert (c.differential(n) * section).is_zero()
    # a complex whose check was skipped still may not square to nonzero
    terms = {n: alg.point_bimodule(PT, 1) for n in (0, 1, 2)}
    bad = cx.Complex(terms, {0: Matrix.identity(1), 1: Matrix.identity(1)},
                     PT, PT, check=False)
    with pytest.raises(ValueError):
        cx.homology(bad, 1)


def test_shift_and_cone():
    c = vect_complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    s = cx.shift(c, 1)
    assert s.degrees() == [-1, 0]
    assert cx.shift(s, -1).degrees() == c.degrees()
    assert s.differential(-1) == Matrix.identity(1).scale(-1)
    idm = cx.ChainMap.identity(vect_complex({0: 1}, {}))
    cone = builders.cone(idm)
    assert all(cx.homology(cone, n)[0] == 0 for n in cone.degrees())


def test_direct_sum_homology_additive():
    a = vect_complex({0: 1}, {})
    b = vect_complex({0: 2, 1: 1}, {0: m([[1, 0]])})
    s = builders.direct_sum(a, b)
    for n in s.degrees():
        ha = cx.homology(a, n)[0] if a.dim(n) or a.dim(n - 1) or a.dim(n + 1) else 0
        hb = cx.homology(b, n)[0] if b.dim(n) or b.dim(n - 1) or b.dim(n + 1) else 0
        assert cx.homology(s, n)[0] == ha + hb


def test_hom_complex_point_and_shift():
    q = vect_complex({0: 1}, {})
    h = cx.HomComplex(q, q)
    assert h.complex.degrees() == [0] and h.complex.dim(0) == 1
    q2 = vect_complex({1: 1}, {})
    h2 = cx.HomComplex(q, q2)
    assert h2.complex.degrees() == [1]


def test_hom_complex_with_a_zero_side_is_zero():
    q = vect_complex({0: 1}, {})
    zero = vect_complex({}, {})
    assert cx.HomComplex(zero, q).complex.degrees() == []
    assert cx.HomComplex(q, zero).complex.degrees() == []


def test_hom_complex_of_a2_identity_resolution():
    a2 = alg.path_algebra(2, [(0, 1)])
    c, _ = alg.projective_resolution(alg.regular_bimodule(a2))
    h = cx.HomComplex(c, c)
    dims = {n: cx.homology(h.complex, n)[0] for n in h.complex.degrees()}
    assert dims.get(0, 0) == alg.center(a2).cols == 1
    assert all(d == 0 for n, d in dims.items() if n != 0)


def test_tensor_unit_law_and_rank_count():
    z2 = alg.group_algebra([[0, 1], [1, 0]])
    reg = cx.single_term_complex(alg.regular_bimodule(z2))
    t = cx.TensorComplex(reg, reg).complex
    assert t.degrees() == [0] and t.dim(0) == 2
    # one-term frees of ranks r, s over B of dim b: rank r.b.s over the pair
    f2 = cx.single_term_complex(builders.free_bimodule(z2, z2, rank=1))
    f3 = cx.single_term_complex(builders.free_bimodule(z2, z2, rank=2))
    tt = cx.TensorComplex(f2, f3).complex
    assert tt.dim(0) == 1 * 2 * 2 * 2 * 2  # (2x2 env) x b x rank... dims multiply
    assert tt.dim(0) == f2.dim(0) * f3.dim(0) // z2.dim


def test_tensor_shift_compatibility():
    z2 = alg.group_algebra([[0, 1], [1, 0]])
    reg = cx.single_term_complex(alg.regular_bimodule(z2))
    two = cx.Complex({0: alg.regular_bimodule(z2), 1: alg.regular_bimodule(z2)},
                     {0: Matrix.zero(2, 2)}, z2, z2)
    t = cx.TensorComplex(cx.shift(two, 1), reg).complex
    t2 = cx.shift(cx.TensorComplex(two, reg).complex, 1)
    assert {n: t.dim(n) for n in t.degrees()} == {n: t2.dim(n) for n in t2.degrees()}
    for n in t.degrees():
        assert t.differential(n) == t2.differential(n)


def test_is_nullhomotopic_examples():
    q = vect_complex({0: 1}, {})
    zero = cx.ChainMap(q, q, 0, {}, check=False)
    assert cx.is_nullhomotopic(zero)
    assert not cx.is_nullhomotopic(cx.ChainMap.identity(q))
    exact = vect_complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    assert cx.is_nullhomotopic(cx.ChainMap.identity(exact))


def test_nullhomotopic_sum_property():
    exact = vect_complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    f = cx.ChainMap.identity(exact)
    g = f.scale(3)
    assert cx.is_nullhomotopic(f) and cx.is_nullhomotopic(g)
    assert cx.is_nullhomotopic(f.add(g))


def test_chain_map_validation_rejects_non_commuting():
    c = vect_complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    # component only in degree 1 cannot commute with the differential
    with pytest.raises(ValueError):
        cx.ChainMap(c, c, 0, {1: Matrix.identity(1)}, check=True)
    # degree-1 cycles obey d f = -f d (H2): on c (x) c the identity-shaped
    # degree-1 map out of degree 0 picks up the Koszul sign
    hc = cx.HomComplex(c, c)
    d = hc.complex.differential
    for n in hc.complex.degrees():
        if (n + 1) in hc.complex.degrees() and (n + 2) in hc.complex.degrees():
            assert (d(n + 1) * d(n)).is_zero()


def test_lift_through_augmentation():
    a2 = alg.path_algebra(2, [(0, 1)])
    reg = alg.regular_bimodule(a2)
    c, aug = alg.projective_resolution(reg)
    regc = cx.single_term_complex(reg)
    augmap = cx.ChainMap(c, regc, 0, {0: aug}, check=False)
    lifted = cx.lift_through(augmap, augmap)
    assert lifted is not None
    # q . f ~ q means f is homotopic to the identity on homology
    assert cx.is_nullhomotopic(augmap.compose(lifted).add(augmap.scale(-1)))


def test_colift_through():
    a2 = alg.path_algebra(2, [(0, 1)])
    reg = alg.regular_bimodule(a2)
    c, aug = alg.projective_resolution(reg)
    regc = cx.single_term_complex(reg)
    augmap = cx.ChainMap(c, regc, 0, {0: aug}, check=False)
    # colift f: regc -> regc with f . aug ~ aug
    f = cx.colift_through(augmap, augmap)
    assert f is not None
    assert cx.is_nullhomotopic(f.compose(augmap).add(augmap.scale(-1)))



def random_matrix(rng, rows, cols):
    return Matrix(rows, cols, [rng.randrange(-2, 3) for _ in range(rows * cols)])


def random_vect_complex(rng, dims):
    """Vector-space complex in degrees 0..len(dims)-1 with random
    differentials, each d_n killing the image of d_{n-1}."""
    diffs = {}
    for n in range(len(dims) - 1):
        d = random_matrix(rng, dims[n + 1], dims[n])
        if n - 1 in diffs:
            # rows spanning the maps that vanish on the image of d_{n-1}
            left = nullspace_basis(diffs[n - 1].transpose()).transpose()
            d = random_matrix(rng, dims[n + 1], left.rows) * left
        diffs[n] = d
    return vect_complex(dict(enumerate(dims)), diffs)


def test_nullhomotopy_satisfies_h3_in_every_degree():
    rng = random.Random(11)
    for k in (-1, 0, 1):
        sgn = 1 if k % 2 == 0 else -1
        for _ in range(4):
            c = random_vect_complex(rng, [rng.randrange(1, 4) for _ in range(3)])
            d = random_vect_complex(rng, [rng.randrange(1, 4) for _ in range(3)])
            h = cx.ChainMap(c, d, k - 1, {
                n: random_matrix(rng, d.dim(n + k - 1), c.dim(n))
                for n in c.degrees() if d.dim(n + k - 1)}, check=False)
            # f = d h + (-1)^k h d is a degree-k chain map (H2, H3)
            f = cx.ChainMap(c, d, k, {
                n: d.differential(n + k - 1) * h.component(n)
                + (h.component(n + 1) * c.differential(n)).scale(sgn)
                for n in c.degrees()}, check=True)
            found = cx.nullhomotopy(f)
            assert found is not None
            h2 = cx.ChainMap(c, d, k - 1, found, check=False)
            for n in c.degrees():
                assert f.component(n) == (
                    d.differential(n + k - 1) * h2.component(n)
                    + (h2.component(n + 1) * c.differential(n)).scale(sgn))


def test_lift_and_colift_of_odd_degree_cycles_are_chain_maps():
    # over a non-semisimple algebra the chain condition's sign (H2) matters:
    # a lift or colift with d f = f d in odd degree need not exist
    a3 = alg.path_algebra(3, [(0, 1), (1, 2)])
    rng = random.Random(5)
    for bimodule in (alg.regular_bimodule(a3), alg.dual_bimodule(a3)):
        p, _ = alg.projective_resolution(bimodule)
        for s in range(-2, 3):
            t = cx.shift(p, s)
            hc = cx.HomComplex(p, t)
            for k in hc.complex.degrees():
                z = nullspace_basis(hc.complex.differential(k))
                if k % 2 == 0 or not z.cols:
                    continue
                for _ in range(4):
                    vec = {}
                    for j in range(z.cols):
                        c = rng.randrange(-3, 4)
                        for i, x in z.col_items(j):
                            vec[i] = vec.get(i, 0) + c * x
                    g = hc.chain_map_from({i: x for i, x in vec.items() if x}, k)
                    for f in (cx.lift_through(g, cx.ChainMap.identity(t)),
                              cx.colift_through(g, cx.ChainMap.identity(p))):
                        assert f is not None
                        f = cx.ChainMap(p, t, k, f.components, check=True)
                        assert cx.chain_maps_equal(f, g)

def _associator(x, y, z):
    """The flat regroup each way between TC(x, TC(y, z)) and
    TC(TC(x, y), z)."""
    right = cx.tc_of(x, cx.tc_of(y, z).complex).complex
    left = cx.tc_of(cx.tc_of(x, y).complex, z).complex
    return (cx.regroup(right, (1, (1, 1)), left, ((1, 1), 1)),
            cx.regroup(left, ((1, 1), 1), right, (1, (1, 1))))


def test_tensor_associator_literal_identity_on_free_triples():
    z2 = alg.group_algebra([[0, 1], [1, 0]])
    f = cx.single_term_complex(builders.free_bimodule(z2, z2, rank=1))
    fwd, inv = _associator(f, f, f)
    for n, mat in fwd.components.items():
        assert mat == Matrix.identity(mat.rows)
    for n, mat in inv.components.items():
        assert mat == Matrix.identity(mat.rows)


def test_associator_is_an_inverse_pair_of_chain_maps(a2, a3):
    # R the identity resolution, S the Serre resolution; R (x) R (x) R nests
    # one complex on both sides, and most of these regroupings are not
    # identity matrices
    plain = []
    for sp in (a2, a3):
        r, s = sp.id_resolution()[0], sp.serre_resolution()[0]
        for triple in ((r, r, r), (r, s, r), (s, r, s)):
            fwd, inv = _associator(*triple)
            for f, g in ((fwd, inv), (inv, fwd)):
                cx.ChainMap(f.source, f.target, 0, f.components, check=True)
                both = g.compose(f)
                for n in f.source.degrees():
                    assert both.component(n) == Matrix.identity(f.source.dim(n))
                plain.append(all(mat == Matrix.identity(mat.rows)
                                 for mat in f.components.values()))
    assert plain.count(False) >= 3


def test_resolution_too_long():
    from hhengine.errors import ResolutionTooLong
    a2 = alg.path_algebra(2, [(0, 1)])
    reg = alg.regular_bimodule(a2)
    with pytest.raises(ResolutionTooLong):
        alg.projective_resolution(reg, max_length=0)


def test_hom_complex_rejects_non_perfect_source():
    from hhengine.errors import NotPerfect
    a2 = alg.path_algebra(2, [(0, 1)])
    reg = cx.single_term_complex(alg.regular_bimodule(a2))
    with pytest.raises(NotPerfect):
        cx.HomComplex(reg, reg)
