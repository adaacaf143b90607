import random
from fractions import Fraction

import pytest

from hhengine.linalg import (Echelon, Inconsistent, Matrix, linear_combination,
                             nullspace_basis, quotient_basis, rank, solve,
                             SpanSolver)


def m(rows):
    return Matrix.from_rows(rows)


def as_map(vec):
    """A dense reference vector as the engine's zero-free {index: value}."""
    return {i: x for i, x in enumerate(vec) if x}


def columns(mat):
    """The columns of a Matrix as zero-free {row: value} maps."""
    return [dict(mat.col_items(j)) for j in range(mat.cols)]


def test_rank_examples():
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zero(2, 2)) == 0
    assert rank(m([[1, 2], [2, 4]])) == 1


def test_nullspace_examples():
    assert nullspace_basis(Matrix.identity(3)).cols == 0
    z = nullspace_basis(Matrix.zero(2, 2))
    assert z.cols == 2 and rank(z) == 2
    n = nullspace_basis(m([[1, 2], [2, 4]]))
    assert n.cols == 1
    v = dict(n.col_items(0))
    # proportional to (2, -1)
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)


def test_solve_examples():
    assert solve(Matrix.identity(2), as_map([3, 5])) == as_map(
        [Fraction(3), Fraction(5)])
    x = solve(m([[1, 2], [2, 4]]), as_map([1, 2]))
    assert x.get(0, 0) + 2 * x.get(1, 0) == 1
    with pytest.raises(Inconsistent):
        solve(m([[1, 2], [2, 4]]), as_map([1, 1]))


def test_quotient_examples():
    p, s = quotient_basis(2, [as_map((Fraction(1), 0))])
    assert p.rows == 1 and (p * s) == Matrix.identity(1)
    p, s = quotient_basis(3, [])
    assert p.rows == 3 and p == Matrix.identity(3)
    p, s = quotient_basis(2, [as_map((Fraction(1), Fraction(1)))])
    assert p.rows == 1
    assert p.apply_map(as_map((1, 0))) == {
        i: -x for i, x in p.apply_map(as_map((0, 1))).items()}


def test_rank_nullity_and_solve_roundtrip():
    rng = random.Random(3)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = Matrix(rows, cols, [Fraction(rng.randrange(-3, 4)) for _ in range(rows * cols)])
        assert rank(a) + nullspace_basis(a).cols == cols
        n = nullspace_basis(a)
        for j in range(n.cols):
            assert a.apply_map(dict(n.col_items(j))) == {}
        x0 = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(cols))
        b = a.apply_map(as_map(x0))
        x = solve(a, b)
        assert a.apply_map(x) == b


def test_quotient_rank_invariant():
    rng = random.Random(4)
    for _ in range(15):
        amb = rng.randrange(1, 5)
        k = rng.randrange(0, amb + 1)
        sub = Matrix(amb, k, [Fraction(rng.randrange(-2, 3)) for _ in range(amb * k)])
        p, s = quotient_basis(amb, columns(sub))
        assert p.rows == amb - rank(sub)
        assert (p * s) == Matrix.identity(p.rows)
        assert (p * sub).is_zero()


def test_span_solver():
    sv = SpanSolver(3)
    sv.add({0: Fraction(1), 1: Fraction(1)})
    sv.add({1: Fraction(1)})
    assert sv.express({0: Fraction(2), 1: Fraction(3)}) == as_map(
        [Fraction(2), Fraction(1)])
    assert sv.express({2: Fraction(1)}) is None


def test_echelon_insert_reduces_fully():
    e = Echelon(3)
    e.insert({0: Fraction(1), 1: Fraction(2)})
    e.insert({1: Fraction(1), 2: Fraction(1)})
    # first pivot row must have been back-substituted
    assert e.pivot_row[0].get(1) is None


def test_explicit_zeros_never_reach_a_row():
    e = Echelon(2)
    assert e.insert({0: 0, 1: 1}) == 1
    assert e.pivot_row == {1: {1: 1}}
    assert e.reduce({0: 0, 1: 5}) == {}
    assert e.reduce({0: 2, 1: 0}) == {0: 2}
    assert e.insert({0: 0, 1: 0}) is None and e.rank == 1


# -- randomized comparison with a dense list-of-lists reference ----------------

# mixed inputs: integral Fractions and proper fractions; integer inputs: ints
VALUES = [Fraction(v) for v in (1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(-3, 4)]
INTS = [1, -1, 2, -2, 3, 5]


def rand_dense(rng, rows, cols, values, density=None):
    density = rng.choice((0.0, 0.2, 0.5, 1.0)) if density is None else density
    return [[rng.choice(values) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]


def exact_values(values, integral):
    """No float and no bool; with `integral`, every value is an int."""
    kinds = (int,) if integral else (int, Fraction)
    return all(type(x) in kinds for x in values)


def canonical_values(values):
    """Every value is an int, or a Fraction that is not an integer."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for x in values)


def shape(rng):
    return rng.randrange(0, 5), rng.randrange(0, 5)


def dense(mat):
    """The reference's view of a Matrix, through the entry accessor only."""
    return [[mat[i, j] for j in range(mat.cols)] for i in range(mat.rows)]


def d_mul(a, b, inner):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def d_transpose(a, rows, cols):
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


def d_rref(rows, ncols):
    """Reduced row echelon form; rows in order, pivot = first nonzero."""
    out = []                        # (pivot column, row)
    for r in rows:
        r = [Fraction(x) for x in r]
        for p, pr in out:
            c = r[p]
            if c:
                r = [x - c * y for x, y in zip(r, pr)]
        piv = next((j for j in range(ncols) if r[j]), None)
        if piv is None:
            continue
        r = [x / r[piv] for x in r]
        out = [(p, [x - pr[piv] * y for x, y in zip(pr, r)]) for p, pr in out]
        out.append((piv, r))
    return dict(out)


def d_residual(vec, piv):
    """vec minus its components along the rows of a reduced echelon."""
    vec = [Fraction(x) for x in vec]
    for p, row in piv.items():
        c = vec[p]
        if c:
            vec = [x - c * y for x, y in zip(vec, row)]
    return vec


def d_nullspace(piv, ncols):
    """One kernel vector per free column of a reduced echelon, in order."""
    out = []
    for f in range(ncols):
        if f not in piv:
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            for p, row in piv.items():
                vec[p] = -row[f]
            out.append(vec)
    return out


def test_matrix_operations_match_dense_reference():
    for values, seed in ((VALUES, 11), (INTS, 13)):
        integral = values is INTS
        rng = random.Random(seed)
        for _ in range(150):
            r, c = shape(rng)
            a = rand_dense(rng, r, c, values)
            ma = Matrix.from_rows(a) if r else Matrix(0, c, [])
            assert (ma.rows, ma.cols) == (r, c)
            assert dense(ma) == a
            assert exact_values(ma.data, integral)
            assert ma.data == tuple(x for row in a for x in row)
            assert all(ma.row(i) == tuple(a[i]) for i in range(r))
            assert all(dict(ma.col_items(j)) == as_map([a[i][j] for i in range(r)])
                       for j in range(c))
            assert ma == Matrix(r, c, ma.data)
            assert ma == Matrix.from_column_maps([dict(ma.col_items(j)) for j in range(c)], r)
            assert ma.is_zero() == all(not x for row in a for x in row)
            mt = ma.transpose()
            assert (mt.rows, mt.cols) == (c, r) and dense(mt) == d_transpose(a, r, c)
            assert mt.transpose() == ma
            assert exact_values(mt.data, integral)
            # +, -, scale, == and hash
            b = rand_dense(rng, r, c, values)
            mb = Matrix(r, c, [x for row in b for x in row])
            s = [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)]
            assert dense(ma + mb) == s
            assert dense(ma - mb) == [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)]
            assert exact_values((ma + mb).data + (ma - mb).data, integral)
            assert ma + mb == mb + ma and hash(ma + mb) == hash(mb + ma)
            assert (ma - ma).is_zero() and ma - ma == Matrix.zero(r, c)
            k = rng.choice(values + [0])
            assert dense(ma.scale(k)) == [[k * x for x in row] for row in a]
            assert dense(-ma) == [[-x for x in row] for row in a]
            assert exact_values(ma.scale(k).data + (-ma).data, integral)
            assert canonical_values(ma.scale(k).data)
            lc = linear_combination([(k, ma), (k, mb)], r, c)
            assert dense(lc) == [[k * x for x in row] for row in s]
            assert canonical_values(lc.data)
            assert (ma == mb) == (a == b)
            # apply
            v = tuple(rng.choice(values + [0] * 3) for _ in range(c))
            assert ma.apply_map(as_map(v)) == as_map(
                sum((a[i][j] * v[j] for j in range(c)), Fraction(0)) for i in range(r))
            assert exact_values(ma.apply_map(as_map(v)).values(), integral)
            # product with a random right factor, including empty inner sizes
            p = rng.randrange(0, 5)
            e = rand_dense(rng, c, p, values)
            me = Matrix(c, p, [x for row in e for x in row])
            prod = ma * me
            assert (prod.rows, prod.cols) == (r, p)
            assert dense(prod) == [[sum((a[i][t] * e[t][j] for t in range(c)), Fraction(0))
                                    for j in range(p)] for i in range(r)]
            assert exact_values(prod.data, integral) and canonical_values(prod.data)
            # kronecker
            r2, c2 = shape(rng)
            g = rand_dense(rng, r2, c2, values)
            mg = Matrix(r2, c2, [x for row in g for x in row])
            kr = ma.kronecker(mg)
            assert (kr.rows, kr.cols) == (r * r2, c * c2)
            assert dense(kr) == [[a[i][j] * g[k][l] for j in range(c) for l in range(c2)]
                                 for i in range(r) for k in range(r2)]
            assert exact_values(kr.data, integral)


def test_empty_shapes():
    for r, c in ((0, 0), (0, 3), (3, 0)):
        z = Matrix.zero(r, c)
        assert z.data == () and z.is_zero() and z == Matrix(r, c, [])
        assert z.transpose() == Matrix.zero(c, r)
        assert z.apply_map(as_map((Fraction(1),) * c)) == as_map((Fraction(0),) * r)
        assert (z * Matrix.zero(c, 2)) == Matrix.zero(r, 2)
        assert nullspace_basis(z) == Matrix.identity(c)
    assert Matrix.from_rows([]) == Matrix.zero(0, 0)
    assert Matrix.from_column_maps([], 3) == Matrix.zero(3, 0)


def test_eliminations_match_dense_reference_bit_for_bit():
    # on integer inputs every integral value comes out as an int; on mixed
    # inputs no value is a float or a bool
    for values, seed in ((VALUES, 12), (INTS, 14)):
        exact = canonical_values if values is INTS else (
            lambda vals: exact_values(vals, False))
        rng = random.Random(seed)
        for _ in range(150):
            r, c = shape(rng)
            a = rand_dense(rng, r, c, values)
            ma = Matrix(r, c, [x for row in a for x in row])
            # nullspace: one vector per free column of rref(a), in column order
            piv = d_rref(a, c)
            want = d_nullspace(piv, c)
            ns = nullspace_basis(ma)
            assert (ns.rows, ns.cols) == (c, len(want))
            assert [dict(ns.col_items(j)) for j in range(ns.cols)] == [
                as_map(w) for w in want]
            assert exact(ns.data)
            assert rank(ma) == len(piv)
            # the echelon of the rows, inserted as they are: rref(a) itself
            ech = Echelon(c)
            for row in a:
                ech.insert(as_map(row))
            assert ech.pivot_row == {p: as_map(row) for p, row in piv.items()}
            assert all(exact(row.values()) for row in ech.pivot_row.values())
            # solve: the particular solution with every free unknown zero
            b = [rng.choice(values + [0]) for _ in range(r)]
            aug = d_rref([a[i] + [b[i]] for i in range(r)], c + 1)
            if c in aug:
                with pytest.raises(Inconsistent):
                    solve(ma, as_map(b))
            else:
                x = [Fraction(0)] * c
                for p, row in aug.items():
                    x[p] = row[c]
                assert solve(ma, as_map(b)) == as_map(x)
                assert exact(solve(ma, as_map(b)).values())
            # quotient of Q^r by the column span of a
            if r:
                sub = d_rref(d_transpose(a, r, c), r)
                qfree = [i for i in range(r) if i not in sub]
                proj = [[Fraction(0)] * r for _ in qfree]
                for k, f in enumerate(qfree):
                    proj[k][f] = Fraction(1)
                    for p, row in sub.items():
                        proj[k][p] = -row[f]
                sect = [[Fraction(1) if i == f else Fraction(0) for f in qfree]
                        for i in range(r)]
                pm, sm = quotient_basis(r, columns(ma))
                assert (pm.rows, pm.cols, sm.rows, sm.cols) == (len(qfree), r, r, len(qfree))
                assert dense(pm) == proj and dense(sm) == sect
                assert exact(pm.data + sm.data)


def test_lazy_echelon_matches_dense_reference_after_every_read():
    # inserts interleaved with every kind of read: each read sees the reduced
    # echelon of the rows inserted so far, whether or not a read came between
    # them; inputs sometimes carry explicit zeros
    for values, seed in ((VALUES, 21), (INTS, 22)):
        rng = random.Random(seed)
        for _ in range(60):
            c = rng.randrange(1, 7)
            ech, solver = Echelon(c), SpanSolver(c)
            rows, spans = [], []

            def vector():
                vec = rand_dense(rng, 1, c, values, density=0.5)[0]
                return vec, (dict(enumerate(vec)) if rng.random() < 0.3
                             else as_map(vec))

            for _ in range(rng.randrange(1, 30)):
                op = rng.choice(("insert", "insert", "insert", "pivot_row",
                                 "reduce", "nullspace", "add", "express"))
                vec, given = vector()
                piv = d_rref(rows, c)
                if op == "insert":
                    new = set(d_rref(rows + [vec], c)) - set(piv)
                    assert ech.insert(given) == (new.pop() if new else None)
                    rows.append(vec)
                elif op == "pivot_row":
                    assert ech.pivot_row == {p: as_map(r) for p, r in piv.items()}
                    assert ech.rank == len(piv)
                elif op == "reduce":
                    res = ech.reduce(given)
                    assert res == as_map(d_residual(vec, piv))
                    assert all(res.values())
                elif op == "nullspace":
                    assert ech.nullspace_maps() == [
                        as_map(w) for w in d_nullspace(piv, c)]
                elif op == "add":
                    solver.add(given)
                    spans.append(vec)
                else:
                    # tagged reference: span k carries a 1 in column c + k
                    if spans and rng.random() < 0.5:
                        coeffs = [rng.choice(values) for _ in spans]
                        vec = [sum((x * s[j] for x, s in zip(coeffs, spans)),
                                   Fraction(0)) for j in range(c)]
                    n = len(spans)
                    tagged = d_rref([s + [1 if t == k else 0 for t in range(n)]
                                     for k, s in enumerate(spans)], c + n)
                    res = d_residual(vec + [0] * n, tagged)
                    got = solver.express(as_map(vec))
                    if any(res[:c]):
                        assert got is None
                    else:
                        assert got == {k: -x for k, x in enumerate(res[c:]) if x}
                        assert all(got.values())
