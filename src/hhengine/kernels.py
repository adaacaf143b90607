"""Spaces, integral kernels, convolution, duals, Serre structure, units,
counits, traces and partial traces.

A kernel X -> Y is a strictly perfect complex of (Y-algebra, X-algebra)-
bimodules.  Composite kernels are normalized to right-nested convolutions
of their atomic factors and memoised, so equal factor lists yield the *same*
Kernel object, and identity kernels (no factors) are contracted eagerly.
A map out of a convolution conv(A + B) reads it through raw factor tuples
(_source_tuples), A's leaves then B's: each basis vector is the class of
one raw tuple, and an identity side is first inserted by a solved lift.
A horizontal composite maps the tuples into the target convolution, an
identity target being contracted by an explicit map; the counit evaluates
them, both units map them into their lift targets and the Serre trace
pairs them, the Serre augmentation applied to the Serre leaves, so none of
them builds a regrouping, a tensor map or a contracted tensor complex to
evaluate on, and an identity phi takes no branch of its own.  Tensors
are read only as raw pairs (split / join) and raw tuples (basis_tuples /
join_leaves) through complexes, never through its block layout.  Equality
of 2-morphisms is always modulo homotopy.

The canonical units and counits come from explicit formulas on witnessed
projective coordinates:

  counit (M-shaped)   (m, xi, f)    |->  (id (x) xi)(f(m))
  unit   (Y-shaped)   1  |->  sum_i (-1)^i sum_p sum_l
                                     xi^l (x) phi_p^i (x) x_p^i . r_l

with (x_p, phi_p) the cover coordinates of the degree-i term and xi^l the
dual basis of the algebra; counits are lifted through the augmentation of
the identity resolution, units through the augmentation of the Serre
resolution.  Exactness of every such lift is solved for, and the homotopy
class is unique, which is what pins the calculus down.  The mirror counit
phi^v . serre . phi => Id has no formula of its own: it is the counit of
phi^v after the double-dual comparison phi => phi^vv.
"""

from __future__ import annotations

import random
from itertools import product

from .errors import (AlgebraMismatch, InvariantViolation, NotPerfect,
                     SerreInverseFailed, ShapeMismatch)
from .linalg import Matrix, Q0, Q1, nullspace_basis, rank, solve
from . import algebras as alg
from .algebras import _memo
from . import complexes as cx


# ---------------------------------------------------------------------------
# kernels and 2-morphisms
# ---------------------------------------------------------------------------


class AtomicKernel:
    """One indivisible convolution factor: a strictly perfect complex."""

    def __init__(self, source, target, complex_, label, check=True):
        self.source = source
        self.target = target
        self.complex = complex_
        self.label = label
        if check:
            for n in complex_.degrees():
                if not alg.is_projective(complex_.term(n)):
                    raise NotPerfect(
                        f"{label}: term in degree {n} is not projective")

    def __repr__(self):
        return f"AtomicKernel({self.label})"


class Kernel:
    """A 1-morphism: memoised right-nested convolution of atomic factors."""

    def __init__(self, source, target, factors, complex_):
        self.source = source
        self.target = target
        self.factors = tuple(factors)
        self.complex = complex_

    @property
    def is_identity(self):
        return not self.factors

    def __repr__(self):
        if self.is_identity:
            return f"Id_{self.source.label}"
        return ".".join(f.label for f in self.factors)


def conv_kernel(factors):
    """The memoised right-nested convolution of a non-empty atomic factor
    list; the empty convolution is a space's `identity_kernel()`."""
    factors = tuple(factors)
    if not factors:
        raise InvariantViolation("convolution of no factors has no space")

    def build():
        for a, b in zip(factors, factors[1:]):
            if a.source is not b.target:
                raise AlgebraMismatch(
                    f"factors not composable: {a.label} after {b.label}")
        if len(factors) == 1:
            return Kernel(factors[0].source, factors[0].target, factors,
                          factors[0].complex)
        rest = conv_kernel(factors[1:])
        tc = cx.tc_of(factors[0].complex, rest.complex)
        return Kernel(rest.source, factors[0].target, factors, tc.complex)
    return _memo(factors[0], ("conv", factors), build)


def convolve(psi: Kernel, phi: Kernel):
    """psi . phi (phi applied first)."""
    if phi.target is not psi.source:
        raise AlgebraMismatch(
            f"convolution mismatch: {phi.target.label} vs {psi.source.label}")
    if psi.is_identity:
        return phi
    if phi.is_identity:
        return psi
    return conv_kernel(psi.factors + phi.factors)


class TwoMorphism:
    """A 2-morphism between kernels; equality is modulo homotopy."""

    def __init__(self, source: Kernel, target: Kernel, chain: cx.ChainMap):
        if chain.source is not source.complex or chain.target is not target.complex:
            raise ShapeMismatch("chain map does not match kernel realizations")
        self.source = source
        self.target = target
        self.chain = chain

    @property
    def degree(self):
        return self.chain.degree

    def compose(self, other):
        """Vertical composition: self after other."""
        if other.target is not self.source:
            raise ShapeMismatch("vertical composition boundary mismatch")
        return TwoMorphism(other.source, self.target,
                           self.chain.compose(other.chain))

    def add(self, other):
        return TwoMorphism(self.source, self.target, self.chain.add(other.chain))

    def scale(self, c):
        return TwoMorphism(self.source, self.target, self.chain.scale(c))

    def equals(self, other):
        if self.source is not other.source or self.target is not other.target:
            return False
        if self.degree != other.degree:
            return self.chain.is_zero() and other.chain.is_zero()
        return cx.chain_maps_equal(self.chain, other.chain)

    def is_nullhomotopic(self):
        return cx.is_nullhomotopic(self.chain)

    @staticmethod
    def identity(k: Kernel):
        return TwoMorphism(k, k, cx.ChainMap.identity(k.complex))

    def __repr__(self):
        return f"({self.source!r} => {self.target!r})[{self.degree}]"


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------


class Space:
    """A smooth finite-dimensional algebra with memoised resolutions, structure
    kernels and canonical Serre cancelation 2-morphisms; can5() and can6()
    are the checks that the Serre kernel cancels against the anti-Serre."""

    def __init__(self, algebra, label=None):
        self.algebra = algebra
        self.label = label or algebra.label
        self.regular = alg.regular_bimodule(algebra)
        self.dual = alg.dual_bimodule(algebra)

    def __repr__(self):
        return f"Space({self.label})"

    def id_resolution(self):
        return self._resolution(self.regular)

    def serre_resolution(self):
        return self._resolution(self.dual)

    def _resolution(self, m):
        """(resolution of m, augmentation onto m as a one-term complex)."""
        def build():
            c, aug = alg.projective_resolution(m)
            one = cx.single_term_complex(m)
            return c, cx.ChainMap(c, one, 0, {0: aug}, check=False)
        return _memo(self, ("resolution", m), build)

    def identity_kernel(self):
        return _memo(self, "identity",
                     lambda: Kernel(self, self, (), self.id_resolution()[0]))

    def serre_kernel(self):
        def build():
            c, _ = self.serre_resolution()
            return conv_kernel((AtomicKernel(self, self, c, f"S({self.label})",
                                             check=False),))
        return _memo(self, "serre", build)

    def anti_serre_kernel(self):
        return dual_kernel(self.identity_kernel())

    # canonical cancelation 2-morphisms --------------------------------------

    def can2(self):
        """Id => anti_serre . serre."""
        def build():
            anti = self.anti_serre_kernel()
            eta = unit_eta1(anti)  # Id => anti . anti^v . serre
            fix = hcompose([TwoMorphism.identity(anti),
                            kernel_double_dual_inverse(self.identity_kernel()),
                            TwoMorphism.identity(self.serre_kernel())])
            return fix.compose(eta)
        return _memo(self, "can2", build)

    def can4(self):
        """Id => serre . anti_serre."""
        def build():
            anti = self.anti_serre_kernel()
            eta = unit_eta2(anti)  # Id => serre . anti^v . anti
            fix = hcompose([TwoMorphism.identity(self.serre_kernel()),
                            kernel_double_dual_inverse(self.identity_kernel()),
                            TwoMorphism.identity(anti)])
            return fix.compose(eta)
        return _memo(self, "can4", build)

    def can5(self):
        """serre . anti_serre => Id (homotopy inverse of can4)."""
        return _memo(self, "can5", lambda: self._homotopy_inverse(self.can4()))

    def can6(self):
        """anti_serre . serre => Id (homotopy inverse of can2)."""
        return _memo(self, "can6", lambda: self._homotopy_inverse(self.can2()))

    def _homotopy_inverse(self, can):
        """can.target => Id, the colift of the identity through can: Id."""
        idk = self.identity_kernel()
        f = cx.colift_through(cx.ChainMap.identity(idk.complex), can.chain)
        if f is None:
            raise SerreInverseFailed(self.label)
        return TwoMorphism(can.target, idk, f)


def _invert(m: Matrix):
    return Matrix.from_column_maps([solve(m, {j: Q1}) for j in range(m.rows)],
                                   m.rows)


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


def dual_complex(c: cx.Complex):
    """Termwise Hom into the free rank-1 bimodule, degrees negated.

    Sign: d^v(f) = -(-1)^{|f|} f . d, the hom differential (H1)."""
    terms = {}
    duals = {}
    for n in c.degrees():
        md, dd = alg.bimodule_dual(c.term(n))
        terms[-n] = md
        duals[n] = (md, dd)
    diffs = {}
    for n in c.degrees():
        if (n + 1) not in c.terms:
            continue
        mdn1, ddn1 = duals[n + 1]
        mdn, ddn = duals[n]
        sgn = -Q1 if (n + 1) % 2 == 0 else Q1
        cols = []
        for f in ddn1.functionals:
            coords = ddn.express((f * c.differential(n)).scale(sgn))
            if coords is None:
                raise InvariantViolation("dual differential escaped the dual basis")
            cols.append(coords)
        diffs[-n - 1] = Matrix.from_column_maps(cols, mdn.dim)
    return cx.Complex(terms, diffs, c.right, c.left, check=True)


def dual_kernel(phi: Kernel):
    """The dual kernel Y -> X: one fresh atomic factor, memoised on phi."""
    def build():
        a = AtomicKernel(phi.target, phi.source, dual_complex(phi.complex),
                         f"({phi!r})^v", check=False)
        return conv_kernel((a,))
    return _memo(phi, "dual", build)


# ---------------------------------------------------------------------------
# identity insertion, raw tuples and horizontal composition
# ---------------------------------------------------------------------------


def _chain_map(src: cx.Complex, tgt: cx.Complex, columns, degrees):
    """Degree-0 map src -> tgt whose degree-n columns are columns(n);
    components that come out zero are left out."""
    comps = {}
    for n in degrees:
        if tgt.dim(n) and src.dim(n):
            m = Matrix.from_column_maps(columns(n), tgt.dim(n))
            if not m.is_zero():
                comps[n] = m
    return cx.ChainMap(src, tgt, 0, comps, check=False)


def _contract(k: Kernel, side):
    """(tc, explicit contraction TC(R, k) -> k resp. TC(k, R) -> k), R the
    identity resolution of k's target resp. source: the pairs (a, m) of
    R_0 (x) k_n resp. (m, a) of k_n (x) R_0 map to the action of aug(a) on
    m.  Memoised on k."""
    def build():
        left = side == "left"
        rc, aug = (k.target if left else k.source).id_resolution()
        tc = cx.tc_of(rc, k.complex) if left else cx.tc_of(k.complex, rc)
        augm = aug.component(0)
        acts = {}

        def contract(n, c):
            term = k.complex.term(n)
            out = {}
            for idx, x in tc.split(n, {c: Q1}).get((0, n) if left else (n, 0),
                                                   {}).items():
                if left:
                    a, m = divmod(idx, term.dim)
                else:
                    m, a = divmod(idx, rc.dim(0))
                if (n, a) not in acts:
                    act = term.act_left if left else term.act_right
                    acts[(n, a)] = act(dict(augm.col_items(a)))
                alg._add_into(out, dict(acts[(n, a)].col_items(m)), x)
            return out
        return tc, _chain_map(tc.complex, k.complex, lambda n: [
            contract(n, c) for c in range(tc.complex.dim(n))],
            tc.complex.degrees())
    return _memo(k, ("contract", side), build)


def _insert_identity(k: Kernel, side):
    """(tc, u): u: k -> TC(R, k) resp. TC(k, R), the section of _contract's
    contraction, a solved lift of the identity through it."""
    def build():
        tc, c = _contract(k, side)
        u = cx.lift_through(cx.ChainMap.identity(k.complex), c)
        if u is None:
            raise InvariantViolation("identity reinsertion lift failed")
        return tc, u
    return _memo(k, ("ins", side), build)


def _leaves(k: Kernel):
    """The leaves k's complex is read as: its factors, or R for an identity."""
    return len(k.factors) or 1


def _is_identity(t: TwoMorphism):
    """Whether t is the identity 2-morphism of its kernel."""
    c = t.chain
    return (t.source is t.target and c.degree == 0
            and all(c.component(n) == Matrix.identity(c.source.dim(n))
                    for n in c.source.degrees()))


def _source_tuples(ka: Kernel, kb: Kernel, n, width=1):
    """[[(raw tuple, x)]]: each basis vector of convolve(ka, kb) in degree n
    as a sum of raw tuples, ka's leaves then kb's complex read as width
    right-nested leaves.  A basis vector of a convolution is the class of
    one raw tuple; an identity side is first inserted by the solved lift of
    _insert_identity, whose image is read the same way from TC(R, kb) /
    TC(ka, R), R being the identity's one leaf."""
    p = _leaves(ka)
    if ka.is_identity or kb.is_identity:
        tc, u = _insert_identity(kb, "left") if ka.is_identity \
            else _insert_identity(ka, "right")
        tuples = cx.basis_tuples(tc.complex, (cx.nested(p), cx.nested(width)),
                                 n)
        lift = u.component(n)
        return [[(tuples[e], x) for e, x in lift.col_items(r)]
                for r in range(lift.cols)]
    return [[(t, Q1)] for t in cx.basis_tuples(convolve(ka, kb).complex,
                                                cx.nested(p + width), n)]


def _leaf_class(k: Kernel, degs, idxs):
    """The class in k's complex of a raw tuple of its leaves."""
    return cx.join_leaves(k.complex, cx.nested(len(degs)),
                          [(d, {i: Q1}) for d, i in zip(degs, idxs)])


def _tuple_map(ka: Kernel, kb: Kernel, width, tgt: cx.Complex, image,
               degrees):
    """Degree-0 map convolve(ka, kb) -> tgt sending each basis vector to
    the sum of image(degrees, indices) over its raw tuples (_source_tuples,
    kb read as width leaves)."""
    def columns(n):
        cols = []
        for tuples in _source_tuples(ka, kb, n, width):
            out = {}
            for (degs, idxs), x in tuples:
                alg._add_into(out, image(degs, idxs), x)
            cols.append(alg._nonzero(out))
        return cols
    return _chain_map(convolve(ka, kb).complex, tgt, columns, degrees)


def hcompose_pair(alpha: TwoMorphism, beta: TwoMorphism):
    """alpha * beta horizontally; alpha lives over the left factor list.

    The composite maps the source convolution straight into the target's,
    column by column through the raw tuples (A's leaves, B's complex) of
    _source_tuples, with no regrouping.  alpha maps the class of the A
    leaves and beta the B vector, an identity passing its part through; the
    images' tuples are joined into the target convolution with the (T2)
    sign (-1)^(|beta| |A part|), or into TC(R, B) / TC(A, R) and contracted
    when a target kernel is an identity."""
    asrc, atgt = alpha.source, alpha.target
    bsrc, btgt = beta.source, beta.target
    if asrc.source is not bsrc.target or atgt.source is not btgt.target:
        raise ShapeMismatch("horizontal composition space mismatch")
    a_id, b_id = _is_identity(alpha), _is_identity(beta)
    k = alpha.degree + beta.degree
    p, q = _leaves(asrc), _leaves(atgt)
    whole_s, whole_t = convolve(asrc, bsrc), convolve(atgt, btgt)
    src = whole_s.complex
    if atgt.is_identity or btgt.is_identity:
        tc_t, contract = _contract(btgt, "left") if atgt.is_identity \
            else _contract(atgt, "right")
        write, w_shape = tc_t.complex, (cx.nested(q), 1)
    else:
        write, w_shape = whole_t.complex, cx.nested(q + 1)
        contract = None
    images = {}                             # A part -> [(image tuple, x)]
    comps = {}
    for n in src.degrees():
        cols = []
        for tuples in _source_tuples(asrc, bsrc, n):
            out = {}
            for (degs, idxs), x in tuples:
                a_part, j, b = (degs[:p], idxs[:p]), degs[p], idxs[p]
                if a_part not in images:
                    images[a_part] = _image_tuples(alpha, a_id, a_part)
                bvec = {b: Q1} if b_id else \
                    dict(beta.chain.component(j).col_items(b))
                if (beta.degree * sum(a_part[0])) % 2:
                    x = -x
                for (tdegs, tidxs), y in images[a_part]:
                    leaves = [(d, {i: Q1}) for d, i in zip(tdegs, tidxs)]
                    leaves.append((j + beta.degree, bvec))
                    alg._add_into(out, cx.join_leaves(write, w_shape, leaves),
                                  x * y)
            cols.append(alg._nonzero(out))
        m = Matrix.from_column_maps(cols, write.dim(n + k))
        if not m.is_zero():
            comps[n] = m
    chain = cx.ChainMap(src, write, k, comps, check=False)
    return TwoMorphism(whole_s, whole_t,
                       chain if contract is None else contract.compose(chain))


def _image_tuples(alpha: TwoMorphism, a_id, a_part):
    """[(raw tuple, x)]: alpha applied to the class of the raw tuple a_part
    of its source, read as raw tuples of its target; an identity passes
    a_part through."""
    if a_id:
        return [(a_part, Q1)]
    degs, idxs = a_part
    vec = _leaf_class(alpha.source, degs, idxs)
    n = sum(degs)
    tgt, shape = alpha.target.complex, cx.nested(_leaves(alpha.target))
    return [(cx.basis_tuple(tgt, shape, n + alpha.degree, r), x)
            for r, x in alpha.chain.component(n).apply_map(vec).items()]


def hcompose(morphs):
    """Horizontal composite of a list, leftmost factor first."""
    out = morphs[-1]
    for m in reversed(morphs[:-1]):
        out = hcompose_pair(m, out)
    return out


def whisker(left, alpha: TwoMorphism, right=None):
    parts = []
    if left is not None:
        parts.append(TwoMorphism.identity(left))
    parts.append(alpha)
    if right is not None:
        parts.append(TwoMorphism.identity(right))
    return hcompose(parts)


# ---------------------------------------------------------------------------
# units and counits
# ---------------------------------------------------------------------------


def _bimodule_map_from_element(reg, term, w):
    """Matrix of a |-> a . w; checks w is central so this is a bimodule map."""
    cols = [term.act_left({i: Q1}).apply_map(w) for i in range(reg.dim)]
    for i in range(reg.dim):
        if term.act_right({i: Q1}).apply_map(w) != cols[i]:
            raise InvariantViolation("unit element is not central")
    return Matrix.from_column_maps(cols, term.dim)


def counit_eps(phi: Kernel):
    """eps_m(phi): phi . serre(src) . phi^v => Id_target, the (E1)
    evaluation of the source's raw tuples (phi leaves | s, f), m the class
    of the phi leaves and xi the Serre augmentation of s."""
    def build():
        x, y = phi.source, phi.target
        dk = dual_kernel(phi)
        inner = conv_kernel(x.serre_kernel().factors + dk.factors)
        aug_x = x.serre_resolution()[1].component(0)
        _, aug_y = y.id_resolution()
        p, a_dim = _leaves(phi), x.algebra.dim

        def evaluate(degs, idxs):
            out = {}
            if degs[p]:                         # aug_x lives in degree 0
                return out
            xi = dict(aug_x.col_items(idxs[p]))
            f = dk.complex.term(degs[p + 1])._dual_data.functionals[idxs[p + 1]]
            sgn = Q1 if degs[p + 1] % 2 == 0 else -Q1
            for mi, mx in _leaf_class(phi, degs[:p], idxs[:p]).items():
                for e, val in f.col_items(mi):
                    r, aa = divmod(e, a_dim)
                    if aa in xi:
                        alg._add_into(out, {r: val}, sgn * mx * xi[aa])
            return out
        g = _tuple_map(phi, inner, 2, aug_y.target, evaluate, [0])
        f = cx.lift_through(g, aug_y)
        if f is None:
            raise InvariantViolation("counit lift failed")
        return TwoMorphism(convolve(phi, inner), y.identity_kernel(), f)
    return _memo(phi, "eps_m", build)


def counit_eps_mirror(phi: Kernel):
    """eps_m(phi^v) read through delta: phi^v . serre(tgt) . phi => Id_source."""
    def build():
        dk = dual_kernel(phi)
        lead = conv_kernel(dk.factors + phi.target.serre_kernel().factors)
        return counit_eps(dk).compose(whisker(lead, kernel_double_dual(phi)))
    return _memo(phi, "eps_mirror", build)


def unit_eta2(phi: Kernel):
    """eta2(phi): Id_src => serre(src) . phi^v . phi, lifted through q:
    the Serre augmentation on the first leaf of the target's raw tuples."""
    def build():
        x = phi.source
        dk = dual_kernel(phi)
        head = conv_kernel(x.serre_kernel().factors + dk.factors)
        tgt = convolve(head, phi)
        _, aug = x.serre_resolution()
        n_out = cx.tc_of(aug.target, cx.tc_of(dk.complex, phi.complex).complex)
        w = _unit_element(phi, dk, n_out, mirror=False)
        augment = _augmenting(aug, n_out.complex, cx.nested(2 + _leaves(phi)),
                              0)
        q = _tuple_map(head, phi, _leaves(phi), n_out.complex, augment,
                       tgt.complex.degrees())
        return _unit_lift(x, w, q, tgt)
    return _memo(phi, "eta2", build)


def unit_eta1(phi: Kernel):
    """eta1(phi): Id_tgt => phi . phi^v . serre(tgt), lifted through q:
    the Serre augmentation on the last leaf of the target's raw tuples."""
    def build():
        y = phi.target
        dk = dual_kernel(phi)
        tail = conv_kernel(dk.factors + y.serre_kernel().factors)
        tgt = convolve(phi, tail)
        _, aug = y.serre_resolution()
        n_out = cx.tc_of(phi.complex, cx.tc_of(dk.complex, aug.target).complex)
        w = _unit_element(phi, dk, n_out, mirror=True)
        augment = _augmenting(aug, n_out.complex,
                              (cx.nested(_leaves(phi)), cx.nested(2)), -1)
        q = _tuple_map(phi, tail, 2, n_out.complex, augment,
                       tgt.complex.degrees())
        return _unit_lift(y, w, q, tgt)
    return _memo(phi, "eta1", build)


def _augmenting(aug: cx.ChainMap, tgt: cx.Complex, shape, at):
    """The image of a raw tuple for _tuple_map: the tuple written into tgt,
    read with shape, with the Serre augmentation aug applied to its leaf at
    (aug lives in degree 0, so a tuple whose leaf at is not is sent to 0)."""
    augm = aug.component(0)

    def image(degs, idxs):
        if degs[at]:
            return {}
        leaves = [(d, {i: Q1}) for d, i in zip(degs, idxs)]
        leaves[at] = (0, dict(augm.col_items(idxs[at])))
        return cx.join_leaves(tgt, shape, leaves)
    return image


def _unit_lift(space: Space, w, q: cx.ChainMap, tgt: Kernel):
    """Id_space => tgt: the unit element w, a degree-0 cycle of q's target,
    as the central bimodule map a |-> a . w, lifted through q: tgt -> its
    target over the augmentation of space's identity resolution."""
    n_out = q.target
    comp = _bimodule_map_from_element(space.regular, n_out.term(0), w)
    if not (n_out.differential(0) * comp).is_zero():
        raise InvariantViolation("unit element is not a cycle")
    _, aug = space.id_resolution()
    wmap = cx.ChainMap(aug.target, n_out, 0, {0: comp}, check=False)
    f = cx.lift_through(wmap.compose(aug), q)
    if f is None:
        raise InvariantViolation("unit lift failed")
    return TwoMorphism(space.identity_kernel(), tgt, f)


def _unit_element(phi: Kernel, dk: Kernel, n_out, mirror):
    """The Y-shaped coevaluation cycle in degree 0 of the contracted target,
    a sum of raw triples.

    Straight (eta2):  sum_i (-1)^i sum_p sum_l xi^l (x) (phi_p (x) x_p . r_l)
    living in D(A) (x) Q(phi^v (x) phi).
    Mirror  (eta1):   sum_i (-1)^i sum_p sum_k (c_k . x_p) (x) (phi_p (x) zeta^k)
    living in Q(phi (x) Q(phi^v (x) D(B))).
    """
    x, y = phi.source, phi.target
    dual_dim = y.algebra.dim if mirror else x.algebra.dim
    out = {}
    for i in phi.complex.degrees():
        mterm = phi.complex.term(i)
        dterm = dk.complex.term(-i)
        if mterm is None or dterm is None or mterm.dim == 0:
            continue
        dd = dterm._dual_data
        sgn = Q1 if (mirror or i % 2 == 0) else -Q1
        pd = alg.proj_data(mterm)
        if pd is None:
            raise NotPerfect(f"{mterm.label}: no witness for unit element")
        act = mterm.act_left if mirror else mterm.act_right
        for gen, phi_mat in pd.coordinates():
            fcoords = dd.express(phi_mat)
            if fcoords is None:
                raise InvariantViolation("coordinate functional escaped the dual basis")
            fvec = {f: sgn * fc for f, fc in fcoords.items()}
            for l in range(dual_dim):
                # c_l . x_p (mirror) or x_p . r_l, against phi_p and the l-th
                # dual basis vector of the algebra
                xvec = act({l: Q1}).apply_map(gen)
                leaves = [(i, xvec), (-i, fvec), (0, {l: Q1})] if mirror \
                    else [(0, {l: Q1}), (-i, fvec), (i, xvec)]
                alg._add_into(out, cx.join_leaves(n_out.complex, cx.nested(3),
                                                  leaves))
    return alg._nonzero(out)


# ---------------------------------------------------------------------------
# gamma, mirrored gamma, tau, partial traces
# ---------------------------------------------------------------------------


def point_serre_insert(space: Space):
    """Id => Serre on a one-dimensional algebra (both are Q in degree 0)."""
    if space.algebra.dim != 1:
        raise InvariantViolation(f"{space.label} is not a point")
    sk = space.serre_kernel()
    idk = space.identity_kernel()
    chain = cx.ChainMap(idk.complex, sk.complex, 0, {0: Matrix.identity(1)},
                        check=False)
    return TwoMorphism(idk, sk, chain)


def point_serre_drop(space: Space):
    if space.algebra.dim != 1:
        raise InvariantViolation(f"{space.label} is not a point")
    sk = space.serre_kernel()
    idk = space.identity_kernel()
    chain = cx.ChainMap(sk.complex, idk.complex, 0, {0: Matrix.identity(1)},
                        check=False)
    return TwoMorphism(sk, idk, chain)


def kernel_double_dual(phi: Kernel):
    """delta: phi => dual(dual(phi)), the graded double-dual comparison.

    Degreewise the plain evaluation (the identity matrix on cover-shaped
    terms), with the graded twist (-1)^n that makes it a chain map under
    the (H1) dual differentials."""
    def build():
        ddk = dual_kernel(dual_kernel(phi))
        comps = {}
        for n in phi.complex.degrees():
            m = alg.double_dual_comparison(
                phi.complex.term(n), dual_kernel(phi).complex.term(-n),
                ddk.complex.term(n))
            comps[n] = m if n % 2 == 0 else m.scale(-1)
        chain = cx.ChainMap(phi.complex, ddk.complex, 0, comps, check=True)
        return TwoMorphism(phi, ddk, chain)
    return _memo(phi, "ddual", build)


def kernel_double_dual_inverse(phi: Kernel):
    def build():
        dd = kernel_double_dual(phi)
        comps = {n: _invert(m) for n, m in dd.chain.components.items()}
        chain = cx.ChainMap(dd.target.complex, dd.source.complex, 0, comps,
                            check=False)
        return TwoMorphism(dd.target, dd.source, chain)
    return _memo(phi, "ddual_inv", build)


def gamma(phi: Kernel):
    """gamma(phi): anti_serre(src) => phi^v . phi."""
    def build():
        x = phi.source
        anti = x.anti_serre_kernel()
        dk = dual_kernel(phi)
        eta = unit_eta2(phi)                       # Id => serre . phi^v . phi
        step1 = whisker(anti, eta)                 # anti => anti.serre.phi^v.phi
        rest = conv_kernel(dk.factors + phi.factors)
        step2 = whisker(None, x.can6(), rest)      # anti.serre.(rest) => rest
        return step2.compose(step1)
    return _memo(phi, "gamma", build)


def mirrored_gamma(phi: Kernel):
    """gamma(phi^v)-shaped: anti_serre(target) => phi . phi^v."""
    def build():
        y = phi.target
        anti = y.anti_serre_kernel()
        dk = dual_kernel(phi)
        eta = unit_eta1(phi)                       # Id_Y => phi . phi^v . serre_Y
        step1 = whisker(None, eta, anti)           # anti => phi.phi^v.serre.anti
        pair = conv_kernel(phi.factors + dk.factors)
        step2 = whisker(pair, y.can5())            # phi.phi^v.serre.anti => phi.phi^v
        return step2.compose(step1)
    return _memo(phi, "mgamma", build)


def tau_r(phi: Kernel):
    """Right adjoint kernel serre(src) . phi^v."""
    x = phi.source
    return convolve(x.serre_kernel(), dual_kernel(phi))


def tau_l(phi: Kernel):
    """Left adjoint kernel phi^v . serre(tgt)."""
    y = phi.target
    return convolve(dual_kernel(phi), y.serre_kernel())


def partial_trace_left(alpha: TwoMorphism, phi: Kernel, theta: Kernel,
                       psi: Kernel):
    """Left partial trace of alpha: phi.theta => serre(Y).phi.psi."""
    x, y = phi.source, phi.target
    exp_src = convolve(phi, theta)
    exp_tgt = convolve(convolve(y.serre_kernel(), phi), psi)
    if alpha.source is not exp_src or alpha.target is not exp_tgt:
        raise ShapeMismatch("partial_trace_left boundary mismatch")
    step1 = whisker(None, unit_eta2(phi), theta)
    pre = conv_kernel(x.serre_kernel().factors
                      + dual_kernel(phi).factors)
    step2 = whisker(pre, alpha)
    step3 = whisker(x.serre_kernel(), counit_eps_mirror(phi), psi)
    return step3.compose(step2.compose(step1))


def partial_trace_right(alpha: TwoMorphism, phi: Kernel, theta: Kernel,
                        psi: Kernel):
    """Right partial trace of alpha: theta.phi => psi.phi.serre(X)."""
    x, y = phi.source, phi.target
    exp_src = convolve(theta, phi)
    exp_tgt = convolve(convolve(psi, phi), x.serre_kernel())
    if alpha.source is not exp_src or alpha.target is not exp_tgt:
        raise ShapeMismatch("partial_trace_right boundary mismatch")
    step1 = whisker(theta, unit_eta1(phi))
    post = conv_kernel(dual_kernel(phi).factors
                       + y.serre_kernel().factors)
    step2 = whisker(None, alpha, post)
    step3 = whisker(psi, counit_eps(phi), y.serre_kernel())
    return step3.compose(step2.compose(step1))


# ---------------------------------------------------------------------------
# Serre trace
# ---------------------------------------------------------------------------


def serre_trace(phi: Kernel, alpha: TwoMorphism):
    """Tr(alpha) for alpha: phi => serre(Y) . phi . serre(X), degree 0.

    Per term of phi with cover coordinates (x_p, phi_p):
    Tr = sum_i (-1)^i sum_p <phi_p, alpha(x_p)> with the pairing
    (zeta, m, xi) |-> zeta(phi_p(m)_B) xi(phi_p(m)_A) on the raw tuples
    (zeta, phi leaves, xi) of the target, m the class of the phi leaves.
    """
    x, y = phi.source, phi.target
    skx = x.serre_kernel()
    tail = convolve(phi, skx)
    expected = convolve(y.serre_kernel(), tail)
    if alpha.source is not phi or alpha.target is not expected or alpha.degree != 0:
        raise ShapeMismatch("serre_trace boundary mismatch")
    aug_y = y.serre_resolution()[1].component(0)
    aug_x = x.serre_resolution()[1].component(0)
    p, a_dim = _leaves(phi), x.algebra.dim

    def entries(heads, tails, t):
        """(row, column, x): the weights target vector t's pairing puts on
        the entries of any phi_p; both augmentations live in degree 0."""
        (dz, _), (z, s) = heads[t]
        for (degs, idxs), c in [] if dz else tails[s]:
            if degs[p] == 0:
                m = _leaf_class(phi, degs[:p], idxs[:p])
                for (zz, zx), (xx, xv), (mi, mx) in product(
                        aug_y.col_items(z), aug_x.col_items(idxs[p]),
                        m.items()):
                    yield zz * a_dim + xx, mi, c * zx * xv * mx

    total = Q0
    for i in phi.complex.degrees():
        mterm = phi.complex.term(i)
        if mterm is None or mterm.dim == 0:
            continue
        pd = alg.proj_data(mterm)
        if pd is None:
            raise NotPerfect(f"{mterm.label}: no witness for trace")
        comp = alpha.chain.component(i)
        if comp.rows == 0:
            continue
        sgn = Q1 if i % 2 == 0 else -Q1
        heads = cx.basis_tuples(expected.complex, (1, 1), i)
        tails = _source_tuples(phi, skx, i)
        reads = {}
        for gen, phi_mat in pd.coordinates():
            for t, c in comp.apply_map(gen).items():
                if t not in reads:
                    reads[t] = list(entries(heads, tails, t))
                for row, col, v in reads[t]:
                    val = phi_mat[row, col]
                    if val:
                        total += sgn * c * v * val
    return total


# ---------------------------------------------------------------------------
# utilities: random 2-morphisms, kernel equivalence
# ---------------------------------------------------------------------------


def two_morphism_space(src: Kernel, tgt: Kernel):
    """HomComplex between realizations (memoised on the source kernel)."""
    return _memo(src, ("homs", tgt),
                 lambda: cx.HomComplex(src.complex, tgt.complex))


def cycle_basis(src: Kernel, tgt: Kernel, degree):
    """Chain maps src => tgt of the given degree (a basis of cycles)."""
    hc = two_morphism_space(src, tgt)
    d = hc.complex.differential(degree)
    z = nullspace_basis(d)
    out = []
    for j in range(z.cols):
        out.append(TwoMorphism(src, tgt,
                               hc.chain_map_from(dict(z.col_items(j)), degree)))
    return out


def random_two_morphism(src: Kernel, tgt: Kernel, degree, rng):
    basis = cycle_basis(src, tgt, degree)
    if not basis:
        return None
    out = None
    for b in basis:
        c = rng.randrange(-3, 4)
        if c:
            out = b.scale(c) if out is None else out.add(b.scale(c))
    if out is None:
        out = basis[0]
    return out


def kernels_equivalent(k1: Kernel, k2: Kernel, rng=None):
    """Quasi-isomorphism test: equal homology dims and an invertible class,
    searched among seeded combinations of degree-0 chain maps."""
    h1 = cx.homology_dims(k1.complex)
    h2 = cx.homology_dims(k2.complex)
    if {n: d for n, d in h1.items() if d} != {n: d for n, d in h2.items() if d}:
        return False
    basis = cycle_basis(k1, k2, 0)
    for b in basis:
        if _is_quasi_iso(b.chain):
            return True
    rng = rng or random.Random(7)
    for _ in range(24):
        f = None
        for b in basis:
            c = rng.randrange(-2, 3)
            if c:
                f = b.chain.scale(c) if f is None else f.add(b.chain.scale(c))
        if f is not None and _is_quasi_iso(f):
            return True
    return False


def _is_quasi_iso(f: cx.ChainMap):
    if f.degree != 0:
        return False
    for n in set(f.source.degrees()) | set(f.target.degrees()):
        dim_s, sect_s, proj_s = cx.homology(f.source, n)
        dim_t, sect_t, proj_t = cx.homology(f.target, n)
        if dim_s != dim_t:
            return False
        if dim_s == 0:
            continue
        induced = proj_t * f.component(n) * sect_s
        if rank(induced) != dim_s:
            return False
    return True
