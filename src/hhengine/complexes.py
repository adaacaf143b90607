"""Bounded complexes of bimodules, with the engine's single sign table.

SIGN TABLE (all other modules cite this, none re-derives signs):

  T1  differential on a tensor:    d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy
  T2  tensor of maps:              (f (x) g)(x (x) y) = (-1)^(|g| |x|) f(x) (x) g(y)
  H1  hom differential:            (D f) = d_target . f - (-1)^|f| f . d_source
  H2  degree-k chain map:          d . f = (-1)^k f . d   (cycles of H1)
  H3  nullhomotopy of such f:      f = d . h + (-1)^k h . d  for degree-(k-1) h
  C1  cone(f: C -> D)_n = C_{n+1} (+) D_n,  d(c, e) = (-d c, f(c) + d e)
  S1  shift: (C[k])_n = C_{n+k},  d_{C[k]} = (-1)^k d_C
  E1  evaluation against the dual pairs degree i with degree -i and
      carries the parity sign (-1)^i.

Cohomological indexing throughout; homological degree i is read from
cohomological degree -i.

This module is the one reader of the tensor-complex block layout: where
a pure tensor sits in a TensorComplex (block offsets, the term tensor's
section and projection, raw index a * dim D_j + b).  Every other module
reads and writes tensor vectors as raw pairs (TensorComplex.split / join)
or as raw tuples of a nested tensor, one index per factor: a
TensorComplex records itself on the complex it builds (Complex.tc), so a
shape (nested(k) for a right-nested convolution of k factors) names how
far to descend.  Term tensor sections are unit vectors, so each basis
vector of a nested tensor is the class of exactly one raw tuple
(basis_tuples, memoised); join_leaves writes a tuple of leaf vectors back,
and regroup reads one nesting as another.

Every 2-morphism equality and every lift or colift through a
quasi-isomorphism is one homotopy equation, post . f . pre + d h + (-1)^k h d
= g (H3 with an unknown chain map f in front), posed by one solver and
handed to the one augmented solve of linalg.
"""

from __future__ import annotations

from .errors import AlgebraMismatch, InvariantViolation, NotPerfect
from .linalg import (Matrix, Q0, Q1, _solve_rows, block_diag, free_coordinates,
                     linear_combination, quotient_basis, row_echelon)
from . import algebras as alg
from .algebras import _memo


class Complex:
    """Bounded complex of bimodules over a fixed algebra pair."""

    def __init__(self, terms, differentials, left, right, check=True):
        self.terms = dict(terms)                  # degree -> Bimodule
        self.diff = {n: d for n, d in differentials.items()
                     if n in self.terms and (n + 1) in self.terms}
        self.left = left
        self.right = right
        self.tc = None                  # the TensorComplex that built it
        for n, t in self.terms.items():
            if t.left is not left or t.right is not right:
                raise AlgebraMismatch("complex term over wrong algebra pair")
        if check:
            self._check()

    def _check(self):
        for n, d in self.diff.items():
            if d.cols != self.terms[n].dim or d.rows != self.terms[n + 1].dim:
                raise ValueError(f"differential shape wrong at degree {n}")
            # module-linearity against generator actions
            src, tgt = self.terms[n], self.terms[n + 1]
            for gs, gt in zip(src.env_generator_actions(), tgt.env_generator_actions()):
                if d * gs != gt * d:
                    raise ValueError(f"differential at degree {n} is not a module map")
        for n in self.diff:
            if (n + 1) in self.diff:
                if not (self.diff[n + 1] * self.diff[n]).is_zero():
                    raise ValueError(f"d.d != 0 at degree {n}")

    def degrees(self):
        return sorted(self.terms)

    def dim(self, n):
        t = self.terms.get(n)
        return t.dim if t else 0

    def term(self, n):
        return self.terms.get(n)

    def differential(self, n):
        d = self.diff.get(n)
        if d is not None:
            return d
        return Matrix.zero(self.dim(n + 1), self.dim(n))

    def __repr__(self):
        parts = ", ".join(f"{n}:{t.dim}" for n, t in sorted(self.terms.items()))
        return f"Complex({{{parts}}})"


def single_term_complex(m, degree=0, check=False):
    return Complex({degree: m}, {}, m.left, m.right, check=check)


class ChainMap:
    """Degree-k map of complexes; components[n]: source_n -> target_{n+k}."""

    def __init__(self, source, target, degree, components, check=True):
        self.source = source
        self.target = target
        self.degree = degree
        self.components = {n: m for n, m in components.items()
                           if m.rows and m.cols}
        if check:
            self._check()

    def component(self, n):
        c = self.components.get(n)
        if c is not None:
            return c
        return Matrix.zero(self.target.dim(n + self.degree), self.source.dim(n))

    def _check(self):
        k = self.degree
        sgn = Q1 if k % 2 == 0 else -Q1
        for n in self.source.degrees():
            lhs = self.target.differential(n + k) * self.component(n)
            rhs = (self.component(n + 1) * self.source.differential(n)).scale(sgn)
            if lhs != rhs:
                raise ValueError(f"not a chain map at degree {n}")
        for n, c in self.components.items():
            src = self.source.term(n)
            tgt = self.target.term(n + k)
            if src is None or tgt is None:
                raise ValueError("component outside both complexes")
            for gs, gt in zip(src.env_generator_actions(), tgt.env_generator_actions()):
                if c * gs != gt * c:
                    raise ValueError(f"component at degree {n} is not a module map")

    def is_zero(self):
        return all(c.is_zero() for c in self.components.values())

    def compose(self, other):
        """self . other (other applied first)."""
        if other.target is not self.source:
            raise AlgebraMismatch("chain maps not composable")
        comps = {}
        for n in other.source.degrees():
            m = self.component(n + other.degree) * other.component(n)
            if not m.is_zero():
                comps[n] = m
        return ChainMap(other.source, self.target, self.degree + other.degree,
                        comps, check=False)

    def add(self, other):
        if (other.source is not self.source or other.target is not self.target
                or other.degree != self.degree):
            raise AlgebraMismatch("chain map addition shape mismatch")
        comps = {}
        for n in set(self.components) | set(other.components):
            comps[n] = self.component(n) + other.component(n)
        return ChainMap(self.source, self.target, self.degree, comps, check=False)

    def scale(self, c):
        return ChainMap(self.source, self.target, self.degree,
                        {n: m.scale(c) for n, m in self.components.items()},
                        check=False)

    @staticmethod
    def identity(c):
        return ChainMap(c, c, 0, {n: Matrix.identity(c.dim(n)) for n in c.degrees()},
                        check=False)


# -- homology -----------------------------------------------------------------


def homology(c: Complex, n: int):
    """(dimension, cycle_section, class_projector) at degree n.

    cycle_section: H -> C_n lands in cycles; class_projector: C_n -> H kills
    boundaries and the pivot unit vectors of d_n, which complement the
    cycles; projector . section = id.  One elimination of d_n fixes the
    cycle basis, and a cycle's coordinates in it are its free-column
    entries (linalg.free_coordinates), so the projector is the quotient's
    projector applied to that restriction.
    """
    dn = c.differential(n)
    dprev = c.differential(n - 1)
    if not (dn * dprev).is_zero():
        raise ValueError("boundary not a cycle; complex is corrupt")
    dim = c.dim(n)
    ech = row_echelon(dn)
    free = ech.free_columns()
    z = Matrix.from_column_maps(ech.nullspace_maps(), dim)
    bcols = [free_coordinates(free, dict(dprev.col_items(j)))
             for j in range(dprev.cols)]
    proj_q, sect_q = quotient_basis(len(free), bcols)
    projector = Matrix.sparse(proj_q.rows, dim, {i * dim + free[k]: x
                                                 for i, k, x in proj_q.items()})
    return proj_q.rows, z * sect_q, projector


def homology_dims(c: Complex):
    return {n: homology(c, n)[0] for n in c.degrees()}


# -- shift, sum of terms ------------------------------------------------------


def shift(c: Complex, k: int):
    sgn = Q1 if k % 2 == 0 else -Q1
    terms = {n - k: t for n, t in c.terms.items()}
    diffs = {n - k: d.scale(sgn) for n, d in c.diff.items()}
    return Complex(terms, diffs, c.left, c.right, check=False)


def _sum_bimodule(a, b):
    if a is None:
        return b
    if b is None:
        return a
    la = [block_diag([x, y]) for x, y in zip(a.left_action, b.left_action)]
    ra = [block_diag([x, y]) for x, y in zip(a.right_action, b.right_action)]
    ab = alg.Bimodule(a.left, a.right, a.dim + b.dim, la, ra,
                      label=f"{a.label}(+){b.label}", check=False)
    alg._derive_proj(ab, lambda: alg._solved_witness(ab, (a, b)))
    return ab


# -- tensor of complexes ---------------------------------------------------------


def term_tensor(m, n):
    """(m (x)_B n, projection, section), built once per pair of terms."""
    return _memo(m, ("tensor", n), lambda: alg.bimodule_tensor(m, n))


def tc_of(c, d):
    """Memoised TensorComplex; object identity matters to every consumer."""
    return _memo(c, ("tc", d), lambda: TensorComplex(c, d))


class TensorComplex:
    """Total complex of C (x)_B D, and the one reader of its block layout.

    Degree n is the sum of the blocks (i, j), i + j = n, by increasing i:
    block (i, j) is the term tensor C_i (x)_B D_j, the quotient of the raw
    pairs C_i (x) D_j (raw index a * dim D_j + b) by term_tensor's
    projection.  blocks[n] lists (i, j, offset, size); a block whose term
    tensor is zero is left out.  Other modules read and write vectors only
    through split / join (pairs) and, for a nested tensor, the tuple reader
    (basis_tuples / join_leaves), which finds each level's TensorComplex as
    self.complex.tc.  Signs follow (T1).
    """

    def __init__(self, c: Complex, d: Complex):
        if c.right is not d.left:
            raise AlgebraMismatch("tensor of complexes over mismatched middle")
        self.c = c
        self.d = d
        self.blocks = {}
        terms = {}
        if not c.terms or not d.terms:
            self.complex = Complex({}, {}, c.left, d.right, check=False)
            self.complex.tc = self
            return
        for n in range(min(c.degrees()) + min(d.degrees()),
                       max(c.degrees()) + max(d.degrees()) + 1):
            blocklist = []
            off = 0
            summand = None
            for i in c.degrees():
                j = n - i
                if d.dim(j) == 0 or c.dim(i) == 0:
                    continue
                t, _, _ = term_tensor(c.term(i), d.term(j))
                if t.dim == 0:
                    continue
                blocklist.append((i, j, off, t.dim))
                off += t.dim
                summand = t if summand is None else _sum_bimodule(summand, t)
            if blocklist:
                self.blocks[n] = blocklist
                terms[n] = summand

        def parts(i, j):
            # d_C into block (i+1, j), d_D into block (i, j+1) with (-1)^i
            dc, dd, dj = c.differential(i), d.differential(j), d.dim(j)
            return [((i + 1, j), lambda v: alg._apply_left_factor(dc, v, dj), Q1),
                    ((i, j + 1), lambda v: alg._apply_right_factor(dd, v, dj),
                     Q1 if i % 2 == 0 else -Q1)]
        diffs = {}
        for n in self.blocks:
            if (n + 1) in self.blocks:
                diffs[n] = _blockwise(self, self, n, 1, parts)
        self.complex = Complex(terms, diffs, c.left, d.right, check=False)
        self.complex.tc = self

    def _dim(self, n):
        blocks = self.blocks.get(n)
        return blocks[-1][2] + blocks[-1][3] if blocks else 0

    def _find_block(self, n, i, j):
        for (bi, bj, off, size) in self.blocks.get(n, []):
            if bi == i and bj == j:
                return off
        return None

    def split(self, n, vec):
        """{(i, j): raw pair vector} of a degree-n vector: the coordinates
        of each block carried into C_i (x) D_j by its section."""
        parts = {}
        for i, j, off, size in self.blocks.get(n, ()):
            local = {r - off: x for r, x in vec.items() if off <= r < off + size}
            if local:
                _, _, sect = term_tensor(self.c.term(i), self.d.term(j))
                parts[(i, j)] = sect.apply_map(local)
        return parts

    def join(self, n, parts):
        """The degree-n vector whose blocks are the projections of the raw
        pair vectors {(i, j): raw}, summed; zero-free.  A part on a block
        absent from degree n lies in a zero term tensor and projects to 0."""
        out = {}
        for (i, j), raw in parts.items():
            if i + j != n:
                raise InvariantViolation(f"block ({i}, {j}) is not in degree {n}")
            off = self._find_block(n, i, j)
            if off is None:
                continue
            _, proj, _ = term_tensor(self.c.term(i), self.d.term(j))
            alg._add_into(out, {off + r: x for r, x in proj.apply_map(raw).items()})
        return alg._nonzero(out)


# -- raw tuples of nested tensor complexes ------------------------------------


def nested(k):
    """The shape of the right-nested tensor X_1 (x) (X_2 (x) (... (x) X_k))
    of k factors: 1 for one factor, else (1, nested(k - 1))."""
    return 1 if k == 1 else (1, nested(k - 1))


def _width(shape):
    """The number of leaves of a shape."""
    return 1 if shape == 1 else _width(shape[0]) + _width(shape[1])


def basis_tuples(c, shape, n):
    """[(degrees, indices)]: basis vector r of c in degree n as a raw tuple,
    one (degree, index) per leaf of shape.

    A shape is 1, c read as one factor, or a pair (s, t): c is the complex
    a TensorComplex built (c.tc), whose factors are read with s and t.
    Term tensor sections are unit vectors, so each basis vector is the
    class of exactly one raw tuple.  Memoised on c."""
    def build():
        tc, (s, t) = c.tc, shape
        out = []
        for i, j, _, size in tc.blocks.get(n, ()):
            _, _, sect = term_tensor(tc.c.term(i), tc.d.term(j))
            width = tc.d.dim(j)
            for col in range(size):
                (raw, x), = sect.col_items(col)
                if x != Q1:
                    raise InvariantViolation(
                        "tensor section is not a unit vector")
                a, b = divmod(raw, width)
                ld, li = basis_tuple(tc.c, s, i, a)
                rd, ri = basis_tuple(tc.d, t, j, b)
                out.append((ld + rd, li + ri))
        return out
    return _memo(c, ("tuples", shape, n), build)


def basis_tuple(c, shape, n, r):
    """basis_tuples(c, shape, n)[r], with no list built for a leaf."""
    if shape == 1:
        return (n,), (r,)
    return basis_tuples(c, shape, n)[r]


def join_leaves(c, shape, leaves):
    """The class in c of the tensor of leaf vectors, zero-free: leaves holds
    one (degree, {index: x}) per leaf of shape, in order.  With unit leaf
    vectors this writes the raw tuple basis_tuples reads; a leaf's own
    vector is returned when shape is 1."""
    if shape == 1:
        return leaves[0][1]
    tc, (s, t) = c.tc, shape
    k = _width(s)
    u = join_leaves(tc.c, s, leaves[:k])
    v = join_leaves(tc.d, t, leaves[k:])
    if not u or not v:
        return {}
    i = sum(d for d, _ in leaves[:k])
    j = sum(d for d, _ in leaves[k:])
    return tc.join(i + j, {(i, j): alg._kron_vec(u, v, tc.d.dim(j))})


def regroup(src, src_shape, tgt, tgt_shape):
    """The degree-0 chain map src -> tgt writing each basis vector's raw
    tuple in src (basis_tuples) as the same tuple of tgt: an associator
    when the two shapes nest the same leaves differently."""
    comps = {}
    for n in src.degrees():
        comps[n] = Matrix.from_column_maps(
            [join_leaves(tgt, tgt_shape, [(d, {r: Q1}) for d, r in zip(*tup)])
             for tup in basis_tuples(src, src_shape, n)], tgt.dim(n))
    return ChainMap(src, tgt, 0, comps, check=False)


def _blockwise(src, tgt, n, k, maps):
    """The degree-n -> n + k matrix between tensor complexes that sends
    each block (i, j) of src through maps(i, j), a list of
    ((i', j'), f, sign) with f a map of raw pair vectors into block (i', j')
    of tgt.  Each block's section, projection and offset is looked up once,
    outside its column loop."""
    cols = src._dim(n)
    entries = {}
    for i, j, off, size in src.blocks.get(n, ()):
        _, _, sect = term_tensor(src.c.term(i), src.d.term(j))
        for (ti, tj), f, sign in maps(i, j):
            tgt_off = tgt._find_block(n + k, ti, tj)
            if tgt_off is None:
                continue
            _, proj, _ = term_tensor(tgt.c.term(ti), tgt.d.term(tj))
            for col in range(size):
                w = proj.apply_map(f(dict(sect.col_items(col))))
                for r, x in w.items():
                    key = (tgt_off + r) * cols + off + col
                    entries[key] = entries[key] + sign * x if key in entries \
                        else sign * x
    return Matrix.sparse(tgt._dim(n + k), cols, entries)


def tensor_map(tc_src: TensorComplex, tc_tgt: TensorComplex, f: ChainMap, g: ChainMap):
    """(f (x) g) between tensor complexes, with the (T2) sign.

    f: tc_src.c -> tc_tgt.c and g: tc_src.d -> tc_tgt.d.
    """
    kf, kg = f.degree, g.degree

    def parts(i, j):
        fi, gj = f.component(i), g.component(j)
        if fi.rows == 0 or gj.rows == 0:
            return []
        dj = tc_src.d.dim(j)
        return [((i + kf, j + kg), lambda v: alg._apply_right_factor(
                    gj, alg._apply_left_factor(fi, v, dj), dj),
                 Q1 if (kg * i) % 2 == 0 else -Q1)]
    comps = {}
    for n in tc_src.blocks:
        m = _blockwise(tc_src, tc_tgt, n, kf + kg, parts)
        if not m.is_zero():
            comps[n] = m
    return ChainMap(tc_src.complex, tc_tgt.complex, kf + kg, comps, check=False)


# -- hom complexes --------------------------------------------------------------


class HomComplex:
    """Hom-complex between bimodule complexes over their shared context.

    Degree-n piece has a basis of blocks (i, basis element of Hom(C_i, D_{i+n})),
    the unknowns of _HomVars(source, target, n, 0); realized as a Complex
    of plain vector spaces over a point algebra of its own (it is read only
    for homology), with converters between coordinate vectors and
    ChainMap-shaped component dicts.  The source's terms must be projective,
    so degreewise hom computes derived hom.
    """

    def __init__(self, source: Complex, target: Complex):
        if source.left is not target.left or source.right is not target.right:
            raise AlgebraMismatch("hom complex over different algebra pairs")
        for n in source.degrees():
            if not alg.is_projective(source.term(n)):
                raise NotPerfect(
                    f"hom source term in degree {n} is not projective")
        self.source = source
        self.target = target
        self._vars = {}                # n -> _HomVars of the degree-n piece
        for n in self._nrange():
            hv = _HomVars(source, target, n, 0)
            if hv.end:
                self._vars[n] = hv
        pt = alg.point_algebra()
        terms = {n: alg.point_bimodule(pt, hv.end, label=f"hom^{n}")
                 for n, hv in self._vars.items()}
        diffs = {}
        for n, hv in self._vars.items():
            if (n + 1) in self._vars:
                cols = [self.coordinates(self._differential_of({i: b}, n), n + 1)
                        for i, (_, basis) in hv.blocks.items() for b in basis]
                diffs[n] = Matrix.from_column_maps(cols, self._vars[n + 1].end)
        self.complex = Complex(terms, diffs, pt, pt, check=False)

    def _nrange(self):
        """Hom degrees that can be nonzero; none when either side is zero."""
        s, t = self.source.degrees(), self.target.degrees()
        if not s or not t:
            return range(0)
        return range(min(t) - max(s), max(t) - min(s) + 1)

    def _differential_of(self, comps, n):
        """(H1): D(f) = d_target . f - (-1)^n f . d_source, as components.

        The degree-i output block is d . f_i - sgn f_{i+1} . d.
        """
        sgn = Q1 if n % 2 == 0 else -Q1
        out = {}
        for i in set(comps) | {d - 1 for d in comps}:
            total = None
            if i in comps:
                m = self.target.differential(i + n) * comps[i]
                if not m.is_zero():
                    total = m
            if (i + 1) in comps:
                m2 = (comps[i + 1] * self.source.differential(i)).scale(sgn)
                if not m2.is_zero():
                    total = m2.scale(-1) if total is None else total - m2
            if total is not None and not total.is_zero():
                out[i] = total
        return out

    def coordinates(self, comps, n):
        """Coordinate map of a block-map dict at hom-degree n."""
        blocks = self._vars[n].blocks if n in self._vars else {}
        vec = {}
        for i, m in comps.items():
            if m.is_zero():
                continue
            if i not in blocks:
                raise ValueError("map has a component outside the hom complex")
            coeffs = alg.hom_coordinates(self.source.term(i),
                                         self.target.term(i + n), m)
            if coeffs is None:
                raise ValueError("component is not a module map")
            off = blocks[i][0]
            for k, x in coeffs.items():
                vec[off + k] = x
        return vec

    def chain_map_from(self, vec, n):
        comps = self._vars[n].extract(vec) if n in self._vars else {}
        return ChainMap(self.source, self.target, n, comps, check=False)


# -- homotopy equations: nullhomotopies, lifts, colifts --------------------------


def is_nullhomotopic(f: ChainMap):
    """Decide f = d h + (-1)^k h d for module-linear h of degree k-1 (H3)."""
    return nullhomotopy(f) is not None


def nullhomotopy(f: ChainMap):
    """Return components of one homotopy h with f = d h + (-1)^k h d, or
    None."""
    sol = _solve_homotopy(f)
    if sol is None:
        return None
    _, hvars, coeffs = sol
    return hvars.extract(coeffs)


def chain_maps_equal(f: ChainMap, g: ChainMap):
    """Equality modulo homotopy: the contract for all 2-morphism equality."""
    return is_nullhomotopic(f.add(g.scale(-1)))


def lift_through(g: ChainMap, q: ChainMap):
    """f: g.source -> q.source with q . f ~ g (homotopic); None if impossible.

    q must be a degree-0 quasi-isomorphism onto g.target and g.source must
    have projective terms; then the lift exists and its homotopy class is
    unique.
    """
    if g.target is not q.target or q.degree != 0:
        raise AlgebraMismatch("lift shape mismatch")
    sol = _solve_homotopy(g, g.source, q.source, post=q)
    if sol is None:
        return None
    fvars, _, coeffs = sol
    return ChainMap(g.source, q.source, g.degree, fvars.extract(coeffs),
                    check=False)


def colift_through(g: ChainMap, s: ChainMap):
    """f: s.target -> g.target with f . s ~ g; None if impossible.

    Dual to lift_through: s must be a degree-0 quasi-isomorphism out of
    g.source, with everything perfect.
    """
    if g.source is not s.source or s.degree != 0:
        raise AlgebraMismatch("colift shape mismatch")
    sol = _solve_homotopy(g, s.target, g.target, pre=s)
    if sol is None:
        return None
    fvars, _, coeffs = sol
    return ChainMap(s.target, g.target, g.degree, fvars.extract(coeffs),
                    check=False)


def _solve_homotopy(g: ChainMap, f_src=None, f_tgt=None, post=None, pre=None):
    """Solve post . f . pre + d h + (-1)^k h d = g, k = g.degree (H3).

    h: g.source -> g.target has degree k-1.  Given f_src, f: f_src -> f_tgt
    is an unknown degree-k chain map and post / pre (degree-0 chain maps,
    None for the identity) compose it into Hom(g.source, g.target);
    without f_src the equation says h is a nullhomotopy of g.  Every unknown
    is a coordinate over hom bases, so f and h are module-linear.

    The rows are f's chain condition (H2), then one per entry of each g_n;
    the columns are f's unknowns, then h's, then the right-hand side.
    Returns (fvars, hvars, coeffs), fvars None without f, or None when no
    solution exists.
    """
    src, tgt, k = g.source, g.target, g.degree
    sgn = Q1 if k % 2 == 0 else -Q1
    fvars = None if f_src is None else _HomVars(f_src, f_tgt, k, 0)
    hvars = _HomVars(src, tgt, k - 1, 0 if fvars is None else fvars.end)
    aug = hvars.end
    rows = []
    if fvars is not None:
        # (H2): d f_n - (-1)^k f_{n+1} d = 0, entrywise
        for n in f_src.degrees():
            tdim = f_tgt.dim(n + k + 1)
            if tdim:
                _entry_rows(rows, tdim, f_src.dim(n), [
                    (fvars.products(n, post=f_tgt.differential(n + k)), Q1),
                    (fvars.products(n + 1, pre=f_src.differential(n)), -sgn)])
    for n in src.degrees():
        tdim = tgt.dim(n + k)
        if not tdim:
            continue
        gn = g.component(n)
        terms = []
        if fvars is not None:
            terms.append((fvars.products(
                n, post=None if post is None else post.component(n + k),
                pre=None if pre is None else pre.component(n)), Q1))
        terms += [(hvars.products(n, post=tgt.differential(n + k - 1)), Q1),
                  (hvars.products(n + 1, pre=src.differential(n)), sgn)]
        _entry_rows(rows, tdim, src.dim(n), terms, gn, aug)
    coeffs = _solve_rows(rows, aug)
    if coeffs is None:
        return None
    return fvars, hvars, coeffs


class _HomVars:
    """Unknown chain-map components as coordinates over hom bases."""

    def __init__(self, src: Complex, tgt: Complex, degree, start):
        self.blocks = {}
        off = start
        for n in src.degrees():
            if src.dim(n) == 0 or tgt.dim(n + degree) == 0:
                continue
            basis = alg.hom_basis(src.term(n), tgt.term(n + degree))
            if basis:
                self.blocks[n] = (off, basis)
                off += len(basis)
        self.end = off
        self.src = src
        self.tgt = tgt
        self.degree = degree

    def products(self, n, post=None, pre=None):
        """Nonzero entries of post . f_n . pre as linear forms in the
        unknowns: {(a, b): [(unknown index, coefficient)]}."""
        out = {}
        if n not in self.blocks:
            return out
        off, basis = self.blocks[n]
        for t, bm in enumerate(basis):
            if post is not None:
                bm = post * bm
            if pre is not None:
                bm = bm * pre
            for a, b, v in bm.items():
                out.setdefault((a, b), []).append((off + t, v))
        return out

    def extract(self, coeffs):
        comps = {}
        for n, (off, basis) in self.blocks.items():
            m = linear_combination(
                ((coeffs.get(off + t), bm) for t, bm in enumerate(basis)),
                self.tgt.dim(n + self.degree), self.src.dim(n))
            if not m.is_zero():
                comps[n] = m
        return comps


def _entry_rows(rows, tdim, sdim, terms, rhs=None, aug=None):
    """Append one row per entry (a, b) of a tdim x sdim block: the sum of
    sign times the linear form products[(a, b)] over (products, sign) in
    terms, with rhs[a, b] in column aug; rows with no term are left out."""
    for a in range(tdim):
        for b in range(sdim):
            row = {}
            for products, sign in terms:
                for u, v in products.get((a, b), ()):
                    row[u] = row.get(u, Q0) + sign * v
            x = Q0 if rhs is None else rhs[a, b]
            if x:
                row[aug] = x
            if row:
                rows.append(row)
