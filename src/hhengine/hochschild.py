"""Hochschild homology and cohomology, the Mukai pairing, Chern characters,
Euler pairings and the Cardy identities.

HH_i(X) is read from degree -i of the hom complex from the anti-Serre
kernel to the identity kernel; HH^i(X) from degree i of the hom complex of
the identity kernel with itself.  All class coordinates refer to the bases
produced by the deterministic homology solver, so they are stable across
runs.  A class keeps its coordinates as a dense tuple, the form reports
print; everything below it passes {index: value} maps.

Pushforward phi_*, the Chern character ch(E) = E_*(1) and the Mukai pairing
are linear (the pairing bilinear), so each is computed categorically only on
basis classes: the bent composite fills the columns of `pushforward_matrix`,
memoised on the kernel under ("push", degree), and the Serre-trace
composite the entries of `pairing_matrix`, memoised on the space.  The
pullback is the pushforward along the left adjoint,
phi^* = (tau_L phi)_* = (phi^v)_* . (serre_Y)_*, a product of two memoised
pushforward matrices with no memo or composite of its own.  A class is then
mapped or paired through those matrices, in exact arithmetic.
"""

from __future__ import annotations

from .errors import InvariantViolation, SpaceMismatch
from .linalg import Matrix, Q0, Q1, quotient_basis, scalar
from . import algebras as alg
from .algebras import _memo
from . import complexes as cx
from . import kernels as kn


class HochschildClass:
    """An element of HH_degree(space) (homology) or HH^degree (cohomology)."""

    def __init__(self, space, variance, degree, coords):
        self.space = space
        self.variance = variance
        self.degree = degree
        self.coords = tuple(scalar(c) for c in coords)

    def __repr__(self):
        g = "HH_" if self.variance == "homology" else "HH^"
        return f"{g}{self.degree}({self.space.label}){list(self.coords)}"

    def __eq__(self, other):
        return (isinstance(other, HochschildClass)
                and self.space is other.space
                and self.variance == other.variance
                and self.degree == other.degree
                and self.coords == other.coords)

    def add(self, other):
        if (self.space is not other.space or self.variance != other.variance
                or self.degree != other.degree
                or len(self.coords) != len(other.coords)):
            raise InvariantViolation(f"cannot add {other!r} to {self!r}")
        return HochschildClass(self.space, self.variance, self.degree,
                               [a + b for a, b in zip(self.coords, other.coords)])

    def scale(self, c):
        c = scalar(c)
        return HochschildClass(self.space, self.variance, self.degree,
                               [c * a for a in self.coords])

    def is_zero(self):
        return all(c == 0 for c in self.coords)


class GradedData:
    """Homology of a hom complex with per-degree section/projector."""

    def __init__(self, homcomplex):
        self.hc = homcomplex
        self.data = {}
        for n in homcomplex.complex.degrees():
            dim, section, projector = cx.homology(homcomplex.complex, n)
            if dim:
                self.data[n] = (dim, section, projector)

    def dim(self, n):
        return self.data.get(n, (0, None, None))[0]

    def dims(self):
        return {n: d for n, (d, _, _) in self.data.items()}

    def chain_map(self, n, coords):
        """The chain map of a homology class given by a coordinate map."""
        dim, section, _ = self.data[n]
        return self.hc.chain_map_from(section.apply_map(coords), n)

    def coords_of_chain(self, f: cx.ChainMap, n):
        """Dense class coordinates of a cycle."""
        vec = self.hc.coordinates(f.components, n)
        dim, _, projector = self.data.get(n, (0, None, None))
        if dim == 0:
            return ()
        w = projector.apply_map(vec)
        return tuple(w.get(k, Q0) for k in range(dim))


def hh_data(space) -> GradedData:
    """Hochschild homology data: Hom(anti_serre, Id), HH_i at degree -i."""
    def build():
        anti = space.anti_serre_kernel()
        idk = space.identity_kernel()
        return GradedData(kn.two_morphism_space(anti, idk))
    return _memo(space, "hh", build)


def hcoh_data(space) -> GradedData:
    """Hochschild cohomology data: Hom(Id, Id), HH^i at degree +i."""
    def build():
        idk = space.identity_kernel()
        return GradedData(kn.two_morphism_space(idk, idk))
    return _memo(space, "hcoh", build)


def hh(space):
    """Graded dimensions of HH_bullet(space)."""
    data = hh_data(space)
    return {-n: d for n, d in data.dims().items()}


def hcoh(space):
    """Graded dimensions of HH^bullet(space)."""
    data = hcoh_data(space)
    return {n: d for n, d in data.dims().items()}


def hh_class(space, degree, coords):
    return HochschildClass(space, "homology", degree, coords)


def hh_basis(space, degree=0):
    """The basis classes of HH_degree(space), in the solver's order."""
    d = hh_data(space).dim(-degree)
    return [hh_class(space, degree, [Q1 if t == a else Q0 for t in range(d)])
            for a in range(d)]


def class_to_two_morphism(v: HochschildClass) -> kn.TwoMorphism:
    space = v.space
    coords = dict(enumerate(v.coords))
    if v.variance == "homology":
        data = hh_data(space)
        f = data.chain_map(-v.degree, coords)
        return kn.TwoMorphism(space.anti_serre_kernel(),
                              space.identity_kernel(), f)
    data = hcoh_data(space)
    f = data.chain_map(v.degree, coords)
    idk = space.identity_kernel()
    return kn.TwoMorphism(idk, idk, f)


def two_morphism_to_class(space, t: kn.TwoMorphism, variance="homology"):
    if variance == "homology":
        data = hh_data(space)
        n = t.degree
        coords = data.coords_of_chain(t.chain, n)
        return HochschildClass(space, "homology", -n, coords)
    data = hcoh_data(space)
    coords = data.coords_of_chain(t.chain, t.degree)
    return HochschildClass(space, "cohomology", t.degree, coords)


def hh_via_tor(space):
    """Independent oracle: homology of id_res (x)_{env} regular bimodule.

    The cyclic tensor (M (x) A) / (a m a' (x) n - m (x) a' n a) is taken
    termwise; dimensions must agree with hh() in every degree.
    """
    res, _ = space.id_resolution()
    a = space.algebra
    pieces = {}
    for n in res.degrees():
        m = res.term(n)
        raw = m.dim * a.dim
        cols = []
        for gi in a.generators():
            gvec = {gi: Q1}
            lm = m.act_left(gvec)
            rm = m.act_right(gvec)
            la = a.left_mult_matrix(gvec)
            ra = a.right_mult_matrix(gvec)
            for i in range(m.dim):
                for j in range(a.dim):
                    # (g . m) (x) n - m (x) (n . g), then
                    # (m . g) (x) n - m (x) (g . n)
                    for mg, gn in ((lm, ra), (rm, la)):
                        col = alg._balance_relation(mg.col_items(i),
                                                    gn.col_items(j), i, j, a.dim)
                        if col:
                            cols.append(col)
        proj, sect = quotient_basis(raw, cols)
        pieces[n] = (proj, sect)
    pt = alg.point_algebra()
    terms = {n: alg.point_bimodule(pt, p.rows, label=f"tor^{n}")
             for n, (p, s) in pieces.items()}
    diffs = {}
    for n in res.degrees():
        if (n + 1) not in pieces:
            continue
        projn1, _ = pieces[n + 1]
        projn, sectn = pieces[n]
        d = res.differential(n)
        cols = [projn1.apply_map(alg._apply_left_factor(
                    d, dict(sectn.col_items(c)), a.dim))
                for c in range(projn.rows)]
        diffs[n] = Matrix.from_column_maps(cols, projn1.rows)
    c = cx.Complex({n: t for n, t in terms.items() if t.dim},
                  {n: d for n, d in diffs.items()}, pt, pt, check=False)
    out = {}
    for n in c.degrees():
        dim, _, _ = cx.homology(c, n)
        if dim:
            out[-n] = dim
    return out


# -- module action and ring structure ----------------------------------------


def hcoh_product(space, f: HochschildClass, g: HochschildClass):
    """Product on HH^bullet: composition of representatives, projected."""
    tf = class_to_two_morphism(f)
    tg = class_to_two_morphism(g)
    comp = tf.chain.compose(tg.chain)
    return two_morphism_to_class(
        space, kn.TwoMorphism(tg.source, tf.target, comp), "cohomology")


def module_action(f: HochschildClass, v: HochschildClass):
    """HH^bullet acting on HH_bullet by vertical composition."""
    if f.space is not v.space:
        raise SpaceMismatch("module action across spaces")
    tf = class_to_two_morphism(f)
    tv = class_to_two_morphism(v)
    comp = tf.chain.compose(tv.chain)
    return two_morphism_to_class(
        f.space, kn.TwoMorphism(tv.source, tf.target, comp), "homology")


def hcoh_unit(space):
    data = hcoh_data(space)
    idm = cx.ChainMap.identity(space.identity_kernel().complex)
    coords = data.coords_of_chain(idm, 0)
    return HochschildClass(space, "cohomology", 0, coords)


# -- pushforward / pullback ----------------------------------------------------


def one_point_class(pt_space):
    """The distinguished generator 1 in HH_0(pt), built once per point space."""
    def build():
        # anti_serre(pt) and Id(pt) are both Q in degree 0; the canonical map
        # is the identity matrix between them
        f = cx.ChainMap(pt_space.anti_serre_kernel().complex,
                        pt_space.identity_kernel().complex, 0,
                        {0: Matrix.identity(1)}, check=False)
        coords = hh_data(pt_space).coords_of_chain(f, 0)
        return HochschildClass(pt_space, "homology", 0, coords)
    return _memo(pt_space, "one", build)


def _coord_map(v: HochschildClass, dim):
    """The nonzero coordinates of a homology class as {index: value}; a
    nonzero coordinate at or past dim is not a class of its HH group."""
    vec = {a: x for a, x in enumerate(v.coords) if x}
    if v.variance != "homology" or any(a >= dim for a in vec):
        raise InvariantViolation(f"{v!r} is not a class of "
                                 f"HH_{v.degree}({v.space.label})")
    return vec


def _apply(m: Matrix, v: HochschildClass, space):
    """The class m . v in HH_{v.degree}(space)."""
    out = m.apply_map(_coord_map(v, m.cols))
    return HochschildClass(space, "homology", v.degree,
                           [out.get(i, Q0) for i in range(m.rows)])


def _push_bend(phi: kn.Kernel):
    """The class-free first two steps of the push composite,
    (phi * can2 * phi^v) . mirrored_gamma(phi):
    anti_Y => phi . anti . serre . phi^v."""
    ins = kn.hcompose([kn.TwoMorphism.identity(phi), phi.source.can2(),
                       kn.TwoMorphism.identity(kn.dual_kernel(phi))])
    return ins.compose(kn.mirrored_gamma(phi))


def _push_composite(phi: kn.Kernel, v: HochschildClass, bent: kn.TwoMorphism):
    """phi_*(v) through the four-step bent composite, its class-free first
    two steps `bent` (_push_bend) built once per kernel by the caller."""
    tail = kn.conv_kernel(phi.source.serre_kernel().factors
                          + kn.dual_kernel(phi).factors)
    act = kn.hcompose([kn.TwoMorphism.identity(phi), class_to_two_morphism(v),
                       kn.TwoMorphism.identity(tail)])
    eps = kn.counit_eps(phi)                    # phi . serre_X . phi^v => Id_Y
    total = eps.compose(act.compose(bent))
    return two_morphism_to_class(phi.target, total, "homology")


def pushforward_matrix(phi: kn.Kernel, degree=0):
    """Matrix of phi_* on HH_degree in the solver bases, its columns the
    composite on the basis classes, built once per kernel."""
    def build():
        bent = _push_bend(phi)
        cols = [dict(enumerate(_push_composite(phi, v, bent).coords))
                for v in hh_basis(phi.source, degree)]
        return Matrix.from_column_maps(cols, hh_data(phi.target).dim(-degree))
    return _memo(phi, ("push", degree), build)


def pullback_matrix(phi: kn.Kernel, degree=0):
    """Matrix of phi^* = tau_L(phi)_* = (phi^v)_* . (serre_Y)_* on HH_degree,
    the pushforward along the left adjoint phi^v . serre_Y, taken factor by
    factor: pushing along the convolution itself bends through tensor
    complexes of a two-factor kernel with its dual, which is far dearer."""
    return (pushforward_matrix(kn.dual_kernel(phi), degree)
            * pushforward_matrix(phi.target.serre_kernel(), degree))


def pushforward(phi: kn.Kernel, v: HochschildClass):
    """phi_*: HH(source) -> HH(target), read through pushforward_matrix."""
    if v.space is not phi.source:
        raise SpaceMismatch("pushforward class lives on the wrong space")
    return _apply(pushforward_matrix(phi, v.degree), v, phi.target)


def pullback(phi: kn.Kernel, w: HochschildClass):
    """phi^*: HH(target) -> HH(source), read through pullback_matrix."""
    if w.space is not phi.target:
        raise SpaceMismatch("pullback class lives on the wrong space")
    return _apply(pullback_matrix(phi, w.degree), w, phi.source)


# -- Mukai pairing ---------------------------------------------------------------


def tau_r_class(v: HochschildClass) -> kn.TwoMorphism:
    """Id => serre, the right bending of a homology class."""
    x = v.space
    tv = class_to_two_morphism(v)
    can4 = x.can4()
    sk = x.serre_kernel()
    step = kn.whisker(sk, tv)       # serre . anti => serre
    return step.compose(can4)


def tau_l_class(v: HochschildClass) -> kn.TwoMorphism:
    """Id => serre, the left bending."""
    x = v.space
    tv = class_to_two_morphism(v)
    can2 = x.can2()
    sk = x.serre_kernel()
    step = kn.whisker(None, tv, sk)  # anti . serre => serre
    return step.compose(can2)


def _mukai_composite(tr_v: kn.TwoMorphism, bent_w: kn.TwoMorphism):
    """Tr(tau_R(v) . tau_L(w)) through the categorical composite, from
    tr_v = tau_R(v): Id => serre and bent_w = serre * tau_L(w):
    serre => serre . serre."""
    total = bent_w.compose(tr_v)      # Id => serre . serre
    return kn.serre_trace(tr_v.source, total)


def pairing_matrix(space, i=0):
    """The pairing block HH_i x HH_{-i} -> Q in the solver bases, its entries
    the Mukai composite on the basis classes, built once per space; each
    class is bent once."""
    def build():
        vs, ws = hh_basis(space, i), hh_basis(space, -i)
        trs = [tau_r_class(v) for v in vs]
        bents = [kn.whisker(space.serre_kernel(), tau_l_class(w)) for w in ws]
        return Matrix.sparse(len(vs), len(ws), {
            a * len(ws) + b: _mukai_composite(tr, bent)
            for a, tr in enumerate(trs) for b, bent in enumerate(bents)})
    return _memo(space, ("pairing", i), build)


def mukai_pairing(v: HochschildClass, w: HochschildClass):
    """<v, w> = Tr(tau_R(v) . tau_L(w)) = sum v_a P_ab w_b over the pairing
    block P, 0 when degrees do not cancel."""
    if v.space is not w.space:
        raise SpaceMismatch("mukai pairing across spaces")
    if v.degree + w.degree != 0:
        return Q0
    p = pairing_matrix(v.space, v.degree)
    pw = p.apply_map(_coord_map(w, p.cols))
    return scalar(sum((x * pw[a] for a, x in _coord_map(v, p.rows).items()
                       if a in pw), Q0))


# -- modules as kernels, Chern character, Euler pairing --------------------------


def module_kernel(space, pt_space, module: alg.Bimodule, label=None):
    """A left module over space.algebra as a strictly perfect kernel pt -> X."""
    def build():
        res, _ = alg.projective_resolution(module)
        a = kn.AtomicKernel(pt_space, space, res, label or module.label,
                            check=False)
        return kn.conv_kernel((a,))
    return _memo(module, ("kernel", space), build)


def chern(e: kn.Kernel, one: HochschildClass):
    """ch(E) = E_*(1) in HH_0, a column of E's one-column pushforward
    matrix."""
    return pushforward(e, one)


def chern_via_iota(e: kn.Kernel):
    """ch(E) = iota^E(Id_E); cross-check path."""
    return iota_upper(e, kn.TwoMorphism.identity(e))


def ext_data(e: kn.Kernel, f: kn.Kernel) -> GradedData:
    """Ext^bullet(E, F) as homology of the hom complex of resolutions."""
    return GradedData(kn.two_morphism_space(e, f))


def euler(e: kn.Kernel, f: kn.Kernel):
    """chi(E, F) = sum (-1)^i dim Ext^i(E, F)."""
    data = ext_data(e, f)
    total = 0
    for n, d in data.dims().items():
        total += d if n % 2 == 0 else -d
    return total


def iota_lower(e: kn.Kernel, v: HochschildClass) -> kn.TwoMorphism:
    """iota_E(v): E => serre(X) . E."""
    x = e.target
    if v.space is not x:
        raise SpaceMismatch("iota_lower class on the wrong space")
    tv = class_to_two_morphism(v)
    step1 = kn.whisker(None, x.can4(), e)      # E => serre.anti.E
    sk = x.serre_kernel()
    step2 = kn.hcompose([kn.TwoMorphism.identity(sk), tv,
                         kn.TwoMorphism.identity(e)])
    return step2.compose(step1)


def iota_upper(e: kn.Kernel, t: kn.TwoMorphism) -> HochschildClass:
    """iota^E(t) in HH_bullet(X) for t: E => E."""
    x = e.target
    pt_space = e.source
    mg = kn.mirrored_gamma(e)                  # anti_X => E . E^v
    dk = kn.dual_kernel(e)
    ins = kn.point_serre_insert(pt_space)
    mid = kn.hcompose([t, ins, kn.TwoMorphism.identity(dk)])
    eps = kn.counit_eps(e)                     # E . serre_pt . E^v => Id_X
    total = eps.compose(mid.compose(mg))
    return two_morphism_to_class(x, total, "homology")


def serre_trace_on_module(e: kn.Kernel, t: kn.TwoMorphism):
    """Tr of t: E => serre(X).E through the trace shape with Serre(pt)."""
    x = e.target
    sk = x.serre_kernel()
    ins = kn.point_serre_insert(e.source)
    pre = kn.conv_kernel(sk.factors + e.factors)
    shaped = kn.whisker(pre, ins).compose(t)
    return kn.serre_trace(e, shaped)


def cardy_check(e: kn.Kernel, f: kn.Kernel, s: kn.TwoMorphism,
                t: kn.TwoMorphism):
    """(lhs, rhs) of the two-boundary trace identity.

    lhs: supertrace of (post-compose t, pre-compose s) on Ext^bullet(e, f),
    computed on homology of the hom complex.
    rhs: <iota^E(s), iota^F(t)> under the Mukai pairing.
    """
    data = ext_data(e, f)
    total = Q0
    for n, (dim, section, projector) in data.data.items():
        mat_cols = []
        for jv in range(dim):
            cmap = data.chain_map(n, {jv: Q1})
            conj = t.chain.compose(cmap.compose(s.chain))
            vec = data.hc.coordinates(conj.components, n)
            mat_cols.append(projector.apply_map(vec))
        m = Matrix.from_column_maps(mat_cols, dim)
        tr = sum((m[i, i] for i in range(dim)), Q0)
        total += tr if n % 2 == 0 else -tr
    lhs = total
    rhs = mukai_pairing(iota_upper(e, s), iota_upper(f, t))
    return lhs, rhs


# -- class functions on group-algebra spaces -------------------------------------


def _regular_module_kernel(space, pt_space):
    def build():
        a = space.algebra
        regmod = alg.module_as_bimodule(a, pt_space.algebra, list(a.left_mult),
                                        f"reg({a.label})")
        return module_kernel(space, pt_space, regmod)
    return _memo(space, "regular module kernel", build)


def class_function(space, pt_space, v: HochschildClass, reps):
    """Values of a degree-0 class at group elements, via Tr(iota_R(v) . m_g).

    reps: list of basis indices of group elements; the regular module is
    used as the probe, so for v = ch(V) this returns the character of V.
    """
    a = space.algebra
    rk = _regular_module_kernel(space, pt_space)
    il = iota_lower(rk, v)
    out = []
    for g in reps:
        # right multiplication by g is a left-module endomorphism
        mg = cx.ChainMap(rk.complex, rk.complex, 0,
                         {0: a.right_mult_matrix({g: Q1})}, check=False)
        tmg = kn.TwoMorphism(rk, rk, mg)
        comp = il.compose(tmg)
        out.append(serre_trace_on_module(rk, comp))
    return out
