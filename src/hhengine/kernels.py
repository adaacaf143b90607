"""Spaces, integral kernels, convolution, duals, Serre structure, units,
counits, traces and partial traces.

A kernel X -> Y is a strictly perfect complex of (Y-algebra, X-algebra)-
bimodules.  Composite kernels are normalized to right-nested convolutions
of their atomic factors and memoised, so equal factor lists yield the *same*
Kernel object, and identity kernels (no factors) are contracted eagerly.
A horizontal composite maps the source convolution straight into the
target's, building no regrouping: it is read column by column through raw
factor tuples, each basis vector of a convolution being the class of one
raw tuple.  An identity kernel is inserted by a solved lift
and contracted by an explicit map, both memoised on the other kernel.
Where a counit, unit or trace needs conv(A + B) as TC(A, B), _join
regroups it flat, tuple for tuple.  Regroupings, contractions,
evaluations, coevaluations and the Serre trace read tensors only as raw
pairs (split / join) and raw tuples (basis_tuples / join_leaves) through
complexes, never through its block layout.  Equality of 2-morphisms is
always modulo homotopy.

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
# identity insertion, regrouping and horizontal composition
# ---------------------------------------------------------------------------


class Mediator:
    def __init__(self, fwd: cx.ChainMap, inv: cx.ChainMap):
        self.fwd = fwd
        self.inv = inv

    @staticmethod
    def identity(c):
        i = cx.ChainMap.identity(c)
        return Mediator(i, i)


def _idc(c):
    return cx.ChainMap.identity(c)


def _chain_map(src: cx.Complex, tgt: cx.Complex, image, degrees):
    """Degree-0 map src -> tgt whose degree-n column c is image(n, {c: 1});
    components that come out zero are left out."""
    comps = {}
    for n in degrees:
        rows, cols = tgt.dim(n), src.dim(n)
        if rows and cols:
            m = Matrix.from_column_maps([image(n, {c: Q1}) for c in range(cols)],
                                        rows)
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

        def contract(n, vec):
            term = k.complex.term(n)
            out = {}
            for idx, x in tc.split(n, vec).get((0, n) if left else (n, 0),
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
        return tc, _chain_map(tc.complex, k.complex, contract,
                              tc.complex.degrees())
    return _memo(k, ("contract", side), build)


def _insert_identity(k: Kernel, side):
    """(tc, Mediator k <-> TC(R,k) / TC(k,R)); the section is a solved lift."""
    def build():
        tc, c = _contract(k, side)
        u = cx.lift_through(_idc(k.complex), c)
        if u is None:
            raise InvariantViolation("identity reinsertion lift failed")
        return tc, Mediator(u, c)
    return _memo(k, ("ins", side), build)


def _join(ka, kb):
    """(tc, Mediator): conv(ka.factors + kb.factors) <-> TC(ka, kb), one
    flat regroup of raw tuples each way; memoised on ka."""
    def build():
        if ka.is_identity:
            return _insert_identity(kb, "left")
        if kb.is_identity:
            return _insert_identity(ka, "right")
        whole = conv_kernel(ka.factors + kb.factors)
        if len(ka.factors) == 1:
            return whole.complex.tc, Mediator.identity(whole.complex)
        tc = cx.tc_of(ka.complex, kb.complex)
        flat = cx.nested(len(ka.factors) + 1)
        pair = (cx.nested(len(ka.factors)), 1)
        return tc, Mediator(cx.regroup(whole.complex, flat, tc.complex, pair),
                            cx.regroup(tc.complex, pair, whole.complex, flat))
    return _memo(ka, ("join", kb), build)


def _leaves(k: Kernel):
    """The leaves k's complex is read as: its factors, or R for an identity."""
    return len(k.factors) or 1


def _is_identity(t: TwoMorphism):
    """Whether t is the identity 2-morphism of its kernel."""
    c = t.chain
    return (t.source is t.target and c.degree == 0
            and all(c.component(n) == Matrix.identity(c.source.dim(n))
                    for n in c.source.degrees()))


def hcompose_pair(alpha: TwoMorphism, beta: TwoMorphism):
    """alpha * beta horizontally; alpha lives over the left factor list.

    The composite maps the source convolution straight into the target's,
    column by column through raw tuples, with no regrouping.  A source
    basis vector of conv(A + B) is one raw tuple (A's leaves, B's
    complex); an identity source kernel is first inserted by the solved
    lift of _insert_identity, whose image is read the same way from
    TC(A, B).  alpha maps the class of the A leaves and beta the B vector,
    an identity passing its part through; the images' tuples are joined
    into the target convolution with the (T2) sign (-1)^(|beta| |A part|),
    or into TC(R, B) / TC(A, R) and contracted when a target kernel is an
    identity."""
    asrc, atgt = alpha.source, alpha.target
    bsrc, btgt = beta.source, beta.target
    if asrc.source is not bsrc.target or atgt.source is not btgt.target:
        raise ShapeMismatch("horizontal composition space mismatch")
    a_id, b_id = _is_identity(alpha), _is_identity(beta)
    k = alpha.degree + beta.degree
    p, q = _leaves(asrc), _leaves(atgt)
    whole_s, whole_t = convolve(asrc, bsrc), convolve(atgt, btgt)
    src = whole_s.complex
    if asrc.is_identity or bsrc.is_identity:
        tc_s, ins = _insert_identity(bsrc, "left") if asrc.is_identity \
            else _insert_identity(asrc, "right")
        read, r_shape, lift = tc_s.complex, (cx.nested(p), 1), ins.fwd
    else:
        read, r_shape, lift = src, cx.nested(p + 1), None
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
        tuples = cx.basis_tuples(read, r_shape, n)
        cols = []
        for r in range(src.dim(n)):
            vec = [(r, Q1)] if lift is None else lift.component(n).col_items(r)
            out = {}
            for e, x in vec:
                degs, idxs = tuples[e]
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
    vec = cx.join_leaves(alpha.source.complex, cx.nested(len(degs)),
                         [(d, {i: Q1}) for d, i in zip(degs, idxs)])
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
    """eps_m(phi): phi . serre(src) . phi^v => Id_target."""
    def build():
        x, y = phi.source, phi.target
        sk = x.serre_kernel()
        dk = dual_kernel(phi)
        src = conv_kernel(phi.factors + sk.factors + dk.factors)
        inner = conv_kernel(sk.factors + dk.factors)          # TC(serre, dual)
        _, aug = x.serre_resolution()
        n_in = cx.tc_of(aug.target, dk.complex)
        q_in = cx.tensor_map(inner.complex.tc, n_in, aug, _idc(dk.complex))
        tc_nice, med = _join(phi, inner)
        n_out = cx.tc_of(tc_nice.c, n_in.complex)
        q_out = cx.tensor_map(tc_nice, n_out, _idc(tc_nice.c), q_in)
        _, aug_y = y.id_resolution()
        ev = _eval_chain(phi, dk, n_out, reg_complex=aug_y.target)
        g = ev.compose(q_out.compose(med.fwd))
        f = cx.lift_through(g, aug_y)
        if f is None:
            raise InvariantViolation("counit lift failed")
        return TwoMorphism(src, y.identity_kernel(), f)
    return _memo(phi, "eps_m", build)


def counit_eps_mirror(phi: Kernel):
    """eps_m(phi^v) read through delta: phi^v . serre(tgt) . phi => Id_source."""
    def build():
        dk = dual_kernel(phi)
        lead = conv_kernel(dk.factors + phi.target.serre_kernel().factors)
        return counit_eps(dk).compose(whisker(lead, kernel_double_dual(phi)))
    return _memo(phi, "eps_mirror", build)


def _eval_chain(phi: Kernel, dk: Kernel, n_out, reg_complex):
    """(E1) evaluation out of the contracted triple tensor
    phi (x) (D(A) (x) phi^v): its degree-0 triples (m, xi, f) of degrees
    (i, 0, -i) map by (m, xi, f) |-> (-1)^i (id (x) xi)(f(m)) into B_reg.
    """
    a_dim = phi.source.algebra.dim

    def evaluate(n, vec):
        tuples = cx.basis_tuples(n_out.complex, cx.nested(3), n)
        out = {}
        for t, c in vec.items():
            (i, _, k), (m, xi, f) = tuples[t]
            sgn = Q1 if i % 2 == 0 else -Q1
            functional = dk.complex.term(k)._dual_data.functionals[f]
            for e, val in functional.col_items(m):
                r, aa = divmod(e, a_dim)
                if aa == xi:
                    p = sgn * c * val
                    out[r] = out[r] + p if r in out else p
        return out
    return _chain_map(n_out.complex, reg_complex, evaluate, [0])


def unit_eta2(phi: Kernel):
    """eta2(phi): Id_src => serre(src) . phi^v . phi."""
    def build():
        x = phi.source
        sk = x.serre_kernel()
        dk = dual_kernel(phi)
        tgt = conv_kernel(sk.factors + dk.factors + phi.factors)
        inner_tc = cx.tc_of(dk.complex, phi.complex)
        _, aug = x.serre_resolution()
        n_out = cx.tc_of(aug.target, inner_tc.complex)
        unc = cx.tc_of(sk.complex, inner_tc.complex)
        q = cx.tensor_map(unc, n_out, aug, _idc(inner_tc.complex))
        w = _unit_element(phi, dk, n_out, mirror=False)
        comp = _bimodule_map_from_element(x.regular, n_out.complex.term(0), w)
        if not (n_out.complex.differential(0) * comp).is_zero():
            raise InvariantViolation("unit element is not a cycle")
        _, aug_x = x.id_resolution()
        wmap = cx.ChainMap(aug_x.target, n_out.complex, 0, {0: comp}, check=False)
        f = cx.lift_through(wmap.compose(aug_x), q)
        if f is None:
            raise InvariantViolation("unit lift failed")
        if phi.is_identity:
            # contract the identity factor: unc -> conv([serre, dual]).complex
            _, med = _insert_identity(dk, "right")
            lowered = cx.tensor_map(unc, tgt.complex.tc, _idc(sk.complex),
                                    med.inv)
            f = lowered.compose(f)
        elif tgt.complex is not unc.complex:
            raise InvariantViolation("unit target is not unc")
        return TwoMorphism(x.identity_kernel(), tgt, f)
    return _memo(phi, "eta2", build)


def unit_eta1(phi: Kernel):
    """eta1(phi): Id_tgt => phi . phi^v . serre(tgt)."""
    def build():
        y = phi.target
        sk = y.serre_kernel()
        dk = dual_kernel(phi)
        tgt = conv_kernel(phi.factors + dk.factors + sk.factors)
        tail = conv_kernel(dk.factors + sk.factors)            # TC(dual, serre)
        _, aug = y.serre_resolution()
        n_mid = cx.tc_of(dk.complex, aug.target)
        q_mid = cx.tensor_map(tail.complex.tc, n_mid, _idc(dk.complex), aug)
        unc = cx.tc_of(phi.complex, tail.complex)
        n_out = cx.tc_of(phi.complex, n_mid.complex)
        q_out = cx.tensor_map(unc, n_out, _idc(phi.complex), q_mid)
        w = _unit_element(phi, dk, n_out, mirror=True)
        comp = _bimodule_map_from_element(y.regular, n_out.complex.term(0), w)
        if not (n_out.complex.differential(0) * comp).is_zero():
            raise InvariantViolation("unit element is not a cycle")
        _, aug_y = y.id_resolution()
        wmap = cx.ChainMap(aug_y.target, n_out.complex, 0, {0: comp}, check=False)
        if phi.is_identity:
            _, med = _insert_identity(tail, "left")
            q_total = q_out.compose(med.fwd)
        else:
            tc_nice, med = _join(phi, tail)
            if tc_nice.complex is not unc.complex:
                raise InvariantViolation("regrouped unit target is not unc")
            q_total = q_out.compose(med.fwd)
        f = cx.lift_through(wmap.compose(aug_y), q_total)
        if f is None:
            raise InvariantViolation("unit lift failed")
        return TwoMorphism(y.identity_kernel(), tgt, f)
    return _memo(phi, "eta1", build)


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
    Tr = sum_i (-1)^i sum_p <phi_p, contracted alpha(x_p)> with the pairing
    (zeta, m, xi) |-> zeta(phi_p(m)_B) xi(phi_p(m)_A).
    """
    x, y = phi.source, phi.target
    sky, skx = y.serre_kernel(), x.serre_kernel()
    expected = conv_kernel(sky.factors + phi.factors + skx.factors)
    if alpha.source is not phi or alpha.target is not expected or alpha.degree != 0:
        raise ShapeMismatch("serre_trace boundary mismatch")
    # regroup target to TC(serre_Y, TC(conv(phi), serre_X)) and contract augs
    tailk = conv_kernel(phi.factors + skx.factors)
    tc_tail, med_tail = _join(phi, skx)
    _, aug_x = x.serre_resolution()
    _, aug_y = y.serre_resolution()
    n_tail = cx.tc_of(tc_tail.c, aug_x.target)
    q_tail = cx.tensor_map(tc_tail, n_tail, _idc(tc_tail.c), aug_x)
    lifted_tail = q_tail.compose(med_tail.fwd)     # conv(phi+skx) -> phi (x) D(A)
    outer = cx.tc_of(sky.complex, tailk.complex)
    n_out = cx.tc_of(aug_y.target, n_tail.complex)
    q_out = cx.tensor_map(outer, n_out, aug_y, lifted_tail)
    beta = q_out.compose(alpha.chain)              # phi.complex -> n_out
    total = Q0
    a_dim = x.algebra.dim
    for i in phi.complex.degrees():
        mterm = phi.complex.term(i)
        if mterm is None or mterm.dim == 0:
            continue
        pd = alg.proj_data(mterm)
        if pd is None:
            raise NotPerfect(f"{mterm.label}: no witness for trace")
        comp = beta.component(i)
        if comp.rows == 0:
            continue
        sgn = Q1 if i % 2 == 0 else -Q1
        # read n_out degree i as triples (zeta, m, xi) of D(B), phi_i, D(A)
        tuples = cx.basis_tuples(n_out.complex, cx.nested(3), i)
        for gen, phi_mat in pd.coordinates():
            for t, c in comp.apply_map(gen).items():
                zeta, m, xi = tuples[t][1]
                val = phi_mat[zeta * a_dim + xi, m]
                if val:
                    total += sgn * c * val
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
