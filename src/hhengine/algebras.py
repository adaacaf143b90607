"""Finite-dimensional associative algebras over Q and their bimodules.

Conventions used everywhere downstream:

  * every vector (an algebra element, a module element, a coordinate list)
    is a zero-free {index: value} map of exact scalars (see linalg);
  * an Algebra stores one left-multiplication matrix per basis element;
    column j of L_i is b_i * b_j;
  * a tensor product A (x) B orders its basis left-factor major:
    (i, j) |-> i * dim B + j;
  * the opposite algebra keeps the same basis with reversed products;
  * a (B, A)-bimodule is a left module over the enveloping algebra
    env = B (x) A^op, acting by (b (x) a) . m  =  b . m . a;
  * the linear dual D(A) carries the actions
    (a . xi)(x) = xi(x a)  and  (xi . a)(x) = xi(a x).

Projectivity is witnessed, not just decided: every projective module the
engine touches carries a cover by cyclic summands R.u (u running over a
complete orthogonal idempotent family of R) together with a module-linear
section of the covering map.  A tensor product or direct sum of projective
modules is projective by construction: it says so without solving, and its
witness, when asked for, comes from the same cover-and-section solve as any
other module's; with a factor that is not projective it is an ordinary
module, decided by that solve.  Only two witnesses are derived rather than
solved: a resolution's self-cover (the identity section), and a dual, whose
actions and cover evaluation are read off the witness it was built from
(the dual-basis lemma): each is a combination, solved inside one cover
piece, of the coordinates of the functionals the witness spans.  Those
functionals are told apart by their values on the cover generators,
which determine an env-linear map, so only the dual basis itself is
multiplied out to full width.  The same lemma
gives a hom space out of a module whose witness is in hand and sparse,
without the commutator system (see _hom_system).

The numeric core of a tensor product m (x)_B n (its projector, section and
actions) and of a hom system is a function of the action matrices alone,
so it is built once per distinct content: its memo key holds those
matrices, and the entry is owned by m's left algebra.  The bimodule T is
still built per pair of factors, and its witness per T.

There is no process-wide algebra: each point algebra is a new object, so
every entry, like the algebras it lives on, goes with its workspace.
"""

from __future__ import annotations

from .errors import (AlgebraMismatch, CyclicQuiver, InvariantViolation,
                     NotAGroup, NotPerfect, ResolutionTooLong)
from .linalg import (Echelon, Matrix, Q1, SpanSolver, _clear_denominators,
                     _exact, _solve_rows, block_diag, free_coordinates,
                     linear_combination, nullspace_basis, quotient_basis,
                     row_echelon)


def _memo(owner, key, build):
    """build(), stored on owner under key and returned on every later call.

    The one place above linalg where a value built once is kept.  An entry
    lives exactly as long as its owner.  A key holds the other objects it
    depends on, never their id(): the engine's objects hash by identity,
    and holding them keeps an id from being reused by a different object
    while the entry lives.  A key may instead hold the action matrices a
    value is a function of (Matrix hashes by content), so content-equal
    inputs over the same owner share one entry.
    """
    memo = owner.__dict__.setdefault("_memo", {})
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _memoised(owner, key):
    """The entry _memo keeps on owner under key, or None if none was built."""
    return owner.__dict__.get("_memo", {}).get(key)


def _forget(owner, key):
    """Drop the entry _memo keeps on owner under key, if there is one."""
    owner.__dict__.get("_memo", {}).pop(key, None)


def _kron_vec(u, v, n):
    """u (x) v for v indexed below n, at (i, j) |-> i * n + j."""
    return {i * n + j: x * y for i, x in u.items() for j, y in v.items()}


def _add_into(acc, vec, c=Q1):
    """acc += c * vec, in place; entries may cancel to zero."""
    for k, x in vec.items():
        acc[k] = acc[k] + c * x if k in acc else c * x
    return acc


def _nonzero(vec):
    return {k: x for k, x in vec.items() if x}


def _combination(vec, mats, dim):
    """sum_i vec[i] * mats[i], all mats dim x dim."""
    return linear_combination(((c, mats[i]) for i, c in vec.items()), dim, dim)


class Algebra:
    """Finite-dimensional unital associative algebra by structure constants."""

    def __init__(self, left_mult, unit, label="A", idempotents=None, check=True):
        self.left_mult = tuple(left_mult)          # L_i, column j = b_i b_j
        self.dim = len(self.left_mult)
        self.unit = unit
        self.label = label
        # complete orthogonal idempotent family used to split covers
        self.idempotents = tuple(idempotents or [unit])
        if check:
            self._check()

    # -- basic arithmetic ---------------------------------------------------

    def multiply(self, u, v):
        out = {}
        for i, ui in u.items():
            _add_into(out, self.left_mult[i].apply_map(v), ui)
        return _nonzero(out)

    def left_mult_matrix(self, vec):
        return _combination(vec, self.left_mult, self.dim)

    @property
    def right_mult(self):
        """R_j with column i = b_i b_j."""
        def build():
            n = self.dim
            entries = [{} for _ in range(n)]
            for i, lm in enumerate(self.left_mult):
                for r, j, x in lm.items():
                    entries[j][r * n + i] = x
            return tuple(Matrix.sparse(n, n, e) for e in entries)
        return _memo(self, "right_mult", build)

    def right_mult_matrix(self, vec):
        return _combination(vec, self.right_mult, self.dim)

    def _check(self):
        iu = self.left_mult_matrix(self.unit)
        if iu != Matrix.identity(self.dim):
            raise ValueError(f"{self.label}: unit is not a left unit")
        if self.right_mult_matrix(self.unit) != Matrix.identity(self.dim):
            raise ValueError(f"{self.label}: unit is not a right unit")
        for i in range(self.dim):
            for j in range(self.dim):
                bibj = dict(self.left_mult[i].col_items(j))
                if self.left_mult_matrix(bibj) != self.left_mult[i] * self.left_mult[j]:
                    raise ValueError(f"{self.label}: associativity fails at ({i},{j})")
        s = {}
        for u in self.idempotents:
            if self.multiply(u, u) != u:
                raise ValueError(f"{self.label}: declared idempotent is not idempotent")
            _add_into(s, u)
        if _nonzero(s) != self.unit:
            raise ValueError(f"{self.label}: idempotent family does not sum to 1")

    def __repr__(self):
        return f"Algebra({self.label}, dim={self.dim})"

    # -- generators ------------------------------------------------------------

    def generators(self):
        """A small generating list of basis-element indices (greedy, pruned)."""
        def build():
            span = Echelon(self.dim)
            span.insert(self.unit)
            vecs = [self.unit]
            gens = []

            def close(new):
                work = [new]
                while work:
                    w = work.pop()
                    for v in list(vecs):
                        for prod in (self.multiply(w, v), self.multiply(v, w)):
                            if span.insert(_clear_denominators(prod)) is not None:
                                vecs.append(prod)
                                work.append(prod)

            for i in range(self.dim):
                if span.rank == self.dim:
                    break
                e = {i: Q1}
                if span.insert(e) is not None:
                    vecs.append(e)
                    gens.append(i)
                    close(e)
            return tuple(gens)
        return _memo(self, "generators", build)

    # -- cyclic pieces R.u and u.R --------------------------------------------

    def piece(self, side, uidx):
        """(basis matrix, coordinate solver) for A.u (side "left") or u.A
        (side "right"), u = idempotents[uidx]."""
        def build():
            u = self.idempotents[uidx]
            cols, solver = [], SpanSolver(self.dim)
            for i in range(self.dim):
                e = {i: Q1}
                v = self.multiply(e, u) if side == "left" else self.multiply(u, e)
                if solver.express(v) is None:
                    cols.append(v)
                    solver.add(v)
            return Matrix.from_column_maps(cols, self.dim), solver
        return _memo(self, (side, uidx), build)


# -- constructors -----------------------------------------------------------


def point_algebra():
    """A new copy of Q, the algebra of the point; each call is a new object."""
    return Algebra([Matrix.identity(1)], {0: Q1}, label="pt", check=False)


def group_algebra(cayley_table, label=None):
    """Group algebra from an n x n index table: table[i][j] = index of g_i g_j."""
    n = len(cayley_table)
    for row in cayley_table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise NotAGroup("table is not square over valid indices")
    t = cayley_table
    identity = None
    for e in range(n):
        if all(t[e][x] == x and t[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if t[t[i][j]][k] != t[i][t[j][k]]:
                    raise NotAGroup(("associativity fails", i, j, k))
    for i in range(n):
        if not any(t[i][j] == identity and t[j][i] == identity for j in range(n)):
            raise NotAGroup(("no inverse", i))
    lm = [Matrix.from_column_maps([{t[i][j]: Q1} for j in range(n)], n)
          for i in range(n)]
    return Algebra(lm, {identity: Q1},
                   label=label or f"kG({n})", check=False)


def path_algebra(vertices, arrows, label=None):
    """Path algebra of an acyclic quiver.

    Vertices are 0-based; arrows are (source, target) pairs.  Basis = all
    paths (trivial paths first), ordered by length then discovery; the
    product x * y is `x after y`: concatenation when target(y) = source(x),
    else 0.
    """
    arrow_list = [(int(s), int(t)) for s, t in arrows]
    for s, t in arrow_list:
        if not (0 <= s < vertices and 0 <= t < vertices):
            raise ValueError("arrow endpoint out of range")
    # cycle check: repeatedly remove sinks
    remaining = set(range(vertices))
    live = list(arrow_list)
    while remaining:
        sinks = {v for v in remaining if all(s != v for s, t in live)}
        if not sinks:
            raise CyclicQuiver("quiver has a cycle; path basis is infinite")
        remaining -= sinks
        live = [(s, t) for s, t in live if t not in sinks]
    # enumerate paths: (arrow index tuple, source, target)
    all_paths = [((), v, v) for v in range(vertices)]
    cur = list(all_paths)
    while cur:
        nxt = []
        for p, s, t in cur:
            for ai, (a_s, a_t) in enumerate(arrow_list):
                if a_s == t:
                    nxt.append((p + (ai,), s, a_t))
        all_paths.extend(nxt)
        cur = nxt
    index = {(p, s): i for i, (p, s, _) in enumerate(all_paths)}
    n = len(all_paths)
    lm = []
    for pi, si, ti in all_paths:
        cols = [{index[pj + pi, sj]: Q1} if si == tj else {}
                for pj, sj, tj in all_paths]
        lm.append(Matrix.from_column_maps(cols, n))
    trivial = [i for i, (p, _, _) in enumerate(all_paths) if p == ()]
    unit = dict.fromkeys(trivial, Q1)
    idems = [{i: Q1} for i in trivial]
    return Algebra(lm, unit, label=label or f"Path({vertices})",
                   idempotents=idems, check=False)


def matrix_algebra(n, label=None):
    """Full matrix algebra M_n(Q), basis e_{ij} ordered row-major."""
    dim = n * n
    def idx(i, j):
        return i * n + j
    lm = []
    for i in range(n):
        for j in range(n):
            cols = [{idx(i, l): Q1} if j == k else {}
                    for k in range(n) for l in range(n)]
            lm.append(Matrix.from_column_maps(cols, dim))
    unit = {idx(i, i): Q1 for i in range(n)}
    idems = [{idx(i, i): Q1} for i in range(n)]
    return Algebra(lm, unit, label=label or f"M{n}(Q)", idempotents=idems, check=False)


def opposite(a: Algebra):
    lm = [a.right_mult[i] for i in range(a.dim)]
    return Algebra(lm, a.unit, label=f"{a.label}^op",
                   idempotents=a.idempotents, check=False)


def tensor_product(a: Algebra, b: Algebra):
    """A (x) B with basis (i, j) |-> i * dim B + j."""
    lm = []
    for i in range(a.dim):
        for j in range(b.dim):
            lm.append(a.left_mult[i].kronecker(b.left_mult[j]))
    unit = _kron_vec(a.unit, b.unit, b.dim)
    idems = [_kron_vec(u, v, b.dim) for u in a.idempotents for v in b.idempotents]
    return Algebra(lm, unit, label=f"{a.label}(x){b.label}",
                   idempotents=idems, check=False)


# -- bimodules ---------------------------------------------------------------


class Bimodule:
    """A (left_algebra, right_algebra)-bimodule with explicit action matrices."""

    def __init__(self, left, right, dim, left_action, right_action,
                 label="M", check=True):
        self.left = left
        self.right = right
        self.dim = dim
        self.left_action = tuple(left_action)
        self.right_action = tuple(right_action)
        self.label = label
        if check:
            self._check()

    def _check(self):
        for side, algebra, acts in (("left", self.left, self.left_action),
                                    ("right", self.right, self.right_action)):
            if len(acts) != algebra.dim or any(
                    (x.rows, x.cols) != (self.dim, self.dim) for x in acts):
                raise ValueError(f"{self.label}: {side} action is not {algebra.dim}"
                                 f" matrices of size {self.dim}x{self.dim}")
        idm = Matrix.identity(self.dim)
        if self.act_left(self.left.unit) != idm:
            raise ValueError(f"{self.label}: left action not unital")
        if self.act_right(self.right.unit) != idm:
            raise ValueError(f"{self.label}: right action not unital")
        for i in range(self.left.dim):
            for j in range(self.left.dim):
                prod = dict(self.left.left_mult[i].col_items(j))
                if self.left_action[i] * self.left_action[j] != self.act_left(prod):
                    raise ValueError(f"{self.label}: left action not an action at ({i},{j})")
        for i in range(self.right.dim):
            for j in range(self.right.dim):
                prod = dict(self.right.left_mult[i].col_items(j))
                if self.right_action[j] * self.right_action[i] != self.act_right(prod):
                    raise ValueError(f"{self.label}: right action not an anti-action at ({i},{j})")
        for i in range(self.left.dim):
            for j in range(self.right.dim):
                if self.left_action[i] * self.right_action[j] != \
                        self.right_action[j] * self.left_action[i]:
                    raise ValueError(f"{self.label}: actions do not commute at ({i},{j})")

    def __repr__(self):
        return f"Bimodule({self.label}, {self.left.label}|{self.right.label}, dim={self.dim})"

    def act_left(self, vec):
        return _combination(vec, self.left_action, self.dim)

    def act_right(self, vec):
        return _combination(vec, self.right_action, self.dim)

    @property
    def env(self):
        return enveloping_of(self.left, self.right)

    def act_env(self, vec):
        """Action of an element of env = left (x) right^op."""
        nb = self.right.dim
        la, ra = self.left_action, self.right_action
        terms = ((c, la[idx // nb] * ra[idx % nb]) for idx, c in vec.items())
        return linear_combination(terms, self.dim, self.dim)

    def env_generator_actions(self):
        return _memo(self, "env_generator_actions", lambda: tuple(
            [self.left_action[i] for i in self.left.generators()]
            + [self.right_action[j] for j in self.right.generators()]))


def enveloping_of(left: Algebra, right: Algebra):
    """left (x) right^op, stored on left."""
    return _memo(left, ("env", left, right),
                 lambda: tensor_product(left, opposite(right)))


def point_bimodule(pt: Algebra, dim, label="V"):
    """A plain vector space as a (pt, pt)-bimodule over the point algebra pt."""
    idm = Matrix.identity(dim)
    return Bimodule(pt, pt, dim, [idm], [idm], label=label, check=False)


def regular_bimodule(a: Algebra):
    return Bimodule(a, a, a.dim, a.left_mult, a.right_mult,
                    label=f"{a.label}-reg", check=False)


def dual_bimodule(a: Algebra):
    """D(A) = linear dual with (a.xi)(x) = xi(x a), (xi.a)(x) = xi(a x)."""
    la = [a.right_mult[i].transpose() for i in range(a.dim)]
    ra = [a.left_mult[j].transpose() for j in range(a.dim)]
    return Bimodule(a, a, a.dim, la, ra, label=f"D({a.label})", check=False)


def module_as_bimodule(a: Algebra, pt: Algebra, action, label="E"):
    """Left A-module (list of action matrices per basis element) as an
    (A, pt)-bimodule over the point algebra pt."""
    dim = action[0].rows if action else 0
    return Bimodule(a, pt, dim, list(action), [Matrix.identity(dim)],
                    label=label, check=True)


# -- module spans, generators, covers, sections ------------------------------


def span_closure(gen_acts, ech, seeds):
    """`ech`, whose row space is a submodule, extended to the module span of
    it and `seeds` under the generator actions."""
    work = [v for v in seeds if ech.insert(_clear_denominators(v)) is not None]
    while work:
        w = work.pop()
        for g in gen_acts:
            gv = g.apply_map(w)
            if gv and ech.insert(_clear_denominators(gv)) is not None:
                work.append(gv)
    return ech


def module_generators(m: Bimodule):
    """Greedy, pruned generating vectors of m as a left env-module."""
    acts = m.env_generator_actions()
    gens = []
    ech = Echelon(m.dim)
    for i in range(m.dim):
        if ech.rank == m.dim:
            break
        if ech.reduce({i: Q1}):
            gens.append({i: Q1})
            span_closure(acts, ech, [{i: Q1}])
    # prune shadowed generators, earliest first
    k = 0
    while k < len(gens):
        rest = gens[:k] + gens[k + 1:]
        if span_closure(acts, Echelon(m.dim), rest).rank == m.dim:
            gens = rest
        else:
            k += 1
    return gens


class Cover:
    """A covering map  F = (+)_p env.u_p  ->>  M  with per-piece bookkeeping.

    pieces[p] = (uidx, gen_vector, piece_basis, piece_solver); ev maps the
    concatenated piece coordinates onto M.
    """

    def __init__(self, module: Bimodule, pieces, ev):
        self.module = module
        self.pieces = pieces
        self.ev = ev
        self.dim = ev.cols

    def piece_ranges(self):
        out = []
        off = 0
        for uidx, gen, basis, _ in self.pieces:
            out.append((off, off + basis.cols))
            off += basis.cols
        return out

    def as_bimodule(self):
        """F as an honest (left, right)-bimodule, block per piece."""
        def build():
            m = self.module
            la, ra = [], []
            nr = m.right.dim
            for i in range(m.left.dim):
                la.append(self._piece_block(_kron_vec({i: Q1}, m.right.unit, nr)))
            for j in range(nr):
                ra.append(self._piece_block(_kron_vec(m.left.unit, {j: Q1}, nr)))
            return Bimodule(m.left, m.right, self.dim, la, ra,
                            label=f"cover({m.label})", check=False)
        return _memo(self, "bimodule", build)

    def _piece_block(self, env_vec):
        lmat = self.module.env.left_mult_matrix(env_vec)
        blocks = []
        for uidx, gen, basis, solver in self.pieces:
            cols = [solver.express(lmat.apply_map(dict(basis.col_items(c))))
                    for c in range(basis.cols)]
            blocks.append(Matrix.from_column_maps(cols, basis.cols))
        return block_diag(blocks)


def build_cover(m: Bimodule):
    """Cover m by cyclic summands env.u, splitting generators over the
    declared idempotent family of the enveloping algebra."""
    env = m.env
    pieces = []
    ev_cols = []
    for g in module_generators(m):
        for uidx, u in enumerate(env.idempotents):
            ug = m.act_env(u).apply_map(g)
            if not ug:
                continue
            basis, solver = env.piece("left", uidx)
            pieces.append((uidx, ug, basis, solver))
            for c in range(basis.cols):
                ev_cols.append(m.act_env(dict(basis.col_items(c))).apply_map(ug))
    return Cover(m, pieces, Matrix.from_column_maps(ev_cols, m.dim))


def module_cover(m: Bimodule):
    """m's cover, built once: the section solve and the resolution share it."""
    return _memo(m, "cover", lambda: build_cover(m))


def solve_section(m: Bimodule, cover: Cover):
    """Module-linear s with ev . s = id, or None if m is not projective."""
    f = cover.as_bimodule()
    gen_acts_m = m.env_generator_actions()
    gen_acts_f = f.env_generator_actions()
    nm, nf = m.dim, f.dim
    aug = nf * nm  # unknown s[k, j] at k * nm + j; the rhs column after them

    def rows():
        for gm, gf in zip(gen_acts_m, gen_acts_f):
            # s . gm - gf . s = 0, entry (i, j)
            yield from _commutator_rows(gm, gf, nm, nf)
        for i in range(nm):
            erow = list(cover.ev.row_items(i))
            for j in range(nm):
                # (ev . s)[i, j] = identity[i, j]
                row = {k * nm + j: v for k, v in erow}
                if i == j:
                    row[aug] = Q1
                yield row
    coeffs = _solve_rows(rows(), aug)
    if coeffs is None:
        return None
    s = Matrix.sparse(nf, nm, coeffs)
    if cover.ev * s != Matrix.identity(nm):
        raise InvariantViolation(f"{m.label}: cover section witness failed")
    return s


def _commutator_rows(am, an, nm, nn):
    """Rows, over the unknowns f[i, k] at index i * nm + k, of the entries
    (i, j) of f . am - an . f, in row-major (i, j) order, zero-free;
    entries with no term, or whose terms cancel, are left out."""
    am_cols = [list(am.col_items(j)) for j in range(nm)]
    out = []
    for i in range(nn):
        arow = list(an.row_items(i))
        base = i * nm
        for j in range(nm):
            row = {base + k: v for k, v in am_cols[j]}
            for k, v in arow:
                key = k * nm + j
                if key not in row:
                    row[key] = -v
                elif row[key] == v:
                    del row[key]
                else:
                    row[key] -= v
            if row:
                out.append(row)
    return out


class ProjData:
    """Projectivity witness: cover + section, and dual-basis coordinates."""

    def __init__(self, cover: Cover, section: Matrix):
        self.cover = cover
        self.section = section

    def coordinates(self):
        """Pairs (x_p, phi_p): m = sum_p phi_p(m) . x_p with phi_p env-valued.

        x_p is the covered generator of piece p; phi_p(m) is the piece
        component of the section, written in enveloping-algebra coordinates
        (a dim-env x dim-m matrix).  Built once.
        """
        return _memo(self, "coordinates", lambda: tuple(
            (gen, basis * self.section.row_block(lo, hi))
            for (_, gen, basis, _), (lo, hi)
            in zip(self.cover.pieces, self.cover.piece_ranges())))


def _derive_proj(m: Bimodule, build, factors=()):
    """Make build() m's witness builder: m is projective by construction
    when its factors are, and then is_projective(m) does not build it."""
    _memo(m, "proj_builder", lambda: (build, factors))


def _constructed(m: Bimodule):
    """m's witness builder if m is projective by construction, else None;
    the factors are asked only when m's projectivity is."""
    derived = _memoised(m, "proj_builder")
    if derived is not None and all(is_projective(f) for f in derived[1]):
        return derived[0]
    return None


def _cover_and_section(m: Bimodule):
    """m's witness from the one cover-and-section solve, or None."""
    cover = module_cover(m)
    section = solve_section(m, cover)
    return ProjData(cover, section) if section is not None else None


def _solved_witness(m: Bimodule):
    """Builder of the witness of m, a tensor product or direct sum of
    projective factors: the cover-and-section solve on m itself.  m is
    projective by construction, so a solve that finds no section is a
    broken invariant."""
    pd = _cover_and_section(m)
    if pd is None:
        raise InvariantViolation(f"{m.label}: no section of a projective's cover")
    return pd


def proj_data(m: Bimodule):
    """m's projectivity witness, or None if m is not projective.

    One memo entry, built on first use by the builder of a module
    projective by construction, or else by solving a section of m's cover.
    """
    def build():
        derived = _constructed(m)
        pd = _cover_and_section(m) if derived is None else derived()
        _forget(m, "proj_builder")   # its closure pins the inputs
        return pd
    return _memo(m, "proj", build)


def is_projective(m: Bimodule):
    """Whether m has a projectivity witness.  A module projective by
    construction answers True without building its witness."""
    return _constructed(m) is not None or proj_data(m) is not None


# -- submodules and resolutions -------------------------------------------------


def kernel_submodule(f: Matrix, m: Bimodule, label="K"):
    """(K, inclusion) for ker(f) with f a module map out of m; a kernel
    vector's coordinates are its free-column entries."""
    ech = row_echelon(f)
    free = ech.free_columns()
    zcols = ech.nullspace_maps()
    z = Matrix.from_column_maps(zcols, f.cols)

    def restrict(act):
        cols = []
        for col in zcols:
            v = act.apply_map(col)
            if f.apply_map(v):
                raise InvariantViolation("kernel not closed under the action")
            cols.append(free_coordinates(free, v))
        return Matrix.from_column_maps(cols, z.cols)

    la = [restrict(act) for act in m.left_action]
    ra = [restrict(act) for act in m.right_action]
    k = Bimodule(m.left, m.right, z.cols, la, ra, label=label, check=False)
    return k, z


def attach_self_cover(f: Bimodule, cover_pieces):
    """Store the witness of a module that IS a sum of cover pieces
    (ev = section = id) as its proj entry: it is already built."""
    pieces = []
    off = 0
    for uidx, basis, solver in cover_pieces:
        coords = solver.express(f.env.idempotents[uidx])
        if coords is None:
            raise InvariantViolation("idempotent fell outside its cover piece")
        gen = {off + r: x for r, x in coords.items()}
        pieces.append((uidx, gen, basis, solver))
        off += basis.cols
    cover = Cover(f, pieces, Matrix.identity(f.dim))
    _memo(f, "proj", lambda: ProjData(cover, Matrix.identity(f.dim)))
    return f


def projective_resolution(m: Bimodule, max_length=None):
    """(Complex, augmentation) resolving m by projectives in degrees -len..0.

    Built from covers split along the idempotent family; halts when the
    kernel is projective, so the final term is that kernel itself.
    """
    from .complexes import Complex
    if max_length is None:
        max_length = m.env.dim ** 2 + 2
    if is_projective(m):
        c = Complex({0: m}, {}, m.left, m.right, check=False)
        return c, Matrix.identity(m.dim)
    cover = module_cover(m)
    f0 = cover.as_bimodule()
    attach_self_cover(f0, [(uidx, basis, solver)
                           for uidx, gen, basis, solver in cover.pieces])
    terms = {0: f0}
    diffs = {}
    aug = cover.ev
    prev_map = cover.ev      # map from current cover module onto covered thing
    prev_mod = f0
    deg = 0
    while True:
        k, incl = kernel_submodule(prev_map, prev_mod, label=f"syz{-deg+1}")
        if k.dim == 0:
            break
        deg -= 1
        if -deg > max_length:
            raise ResolutionTooLong(
                f"{m.label}: kernel still non-projective at length {max_length}")
        if is_projective(k):
            terms[deg] = k
            diffs[deg] = incl
            break
        kcover = module_cover(k)
        fk = kcover.as_bimodule()
        attach_self_cover(fk, [(uidx, basis, solver)
                               for uidx, gen, basis, solver in kcover.pieces])
        terms[deg] = fk
        diffs[deg] = incl * kcover.ev
        prev_map = kcover.ev
        prev_mod = fk
    c = Complex(terms, diffs, m.left, m.right, check=False)
    return c, aug


# -- hom spaces ---------------------------------------------------------------


def _hom_system(m: Bimodule, n: Bimodule):
    """(basis tuple, free columns) of the bimodule maps m -> n, shared by
    every pair with the same generator actions.

    Read off m's witness when one is in hand and sparse (the dual-basis
    lemma), else solved from the commutator system; both routes give the
    same pair, so they share one entry.  A witness is sparse when its
    coordinate functionals phi_p hold at most (number of env generator
    actions) x dim m nonzeros in all.  Quiver and matrix-algebra witnesses
    hold half of that or less.  Over a group algebra the single env
    idempotent makes phi_p dense, most witnesses hold more, and there the
    commutator system is the cheaper route.
    """
    def build():
        if m.left is not n.left or m.right is not n.right:
            raise AlgebraMismatch("hom between bimodules over different pairs")
        gm = m.env_generator_actions()
        gn = n.env_generator_actions()

        def core():
            pd = _witness_in_hand(m)
            if pd is not None and sum(
                    phi.nnz for _, phi in pd.coordinates()) <= len(gm) * m.dim:
                return _hom_from_witness(pd, n)
            return _hom_core(gm, gn, m.dim, n.dim)
        return _memo(m.left, ("hom core", m.dim, n.dim, gm, gn), core)
    return _memo(m, ("hom", n), build)


def _witness_in_hand(m: Bimodule):
    """m's witness if it is built or m is a dual (whose witness is read off
    its source's), else None: no tensor or direct-sum witness is built just
    for a hom."""
    pd = _memoised(m, "proj")
    if pd is None and "_dual_data" in vars(m):
        pd = proj_data(m)
    return pd


def _hom_from_witness(pd: ProjData, n: Bimodule):
    """_hom_core's (basis, free columns) for Hom(m, n), m the module pd
    witnesses, from the span of the maps x |-> phi_p(x) . y, y in u_p . n.

    Those maps, flattened like _hom_core's unknowns, go into one echelon
    with the flat index reversed.  Its pivots are then the trailing
    nonzeros of Hom(m, n), which are exactly the free columns of the
    commutator system (the complement of its row space's leading pivots),
    and its reduced rows are exactly _hom_core's basis.
    """
    m = pd.cover.module
    nm, nn = m.dim, n.dim
    last = nn * nm - 1
    nb = n.right.dim
    la, ra = n.left_action, n.right_action
    images = {}      # uidx -> a basis of u . n
    ech = Echelon(nn * nm)
    for (uidx, _, _, _), (_, phi) in zip(pd.cover.pieces, pd.coordinates()):
        if uidx not in images:
            u = n.act_env(m.env.idempotents[uidx])
            images[uidx] = list(row_echelon(u.transpose()).pivot_row.values())
        by_env = {}  # env basis element e -> its (column, value) in phi
        for e, b, c in phi.items():
            by_env.setdefault(e, []).append((b, c))
        for y in images[uidx]:
            # f[a, b] = sum_e (e . y)[a] phi[e, b], at reversed flat index
            f = {}
            for e, items in by_env.items():
                for a, x in la[e // nb].apply_map(ra[e % nb].apply_map(y)).items():
                    base = last - a * nm
                    for b, c in items:
                        k = base - b
                        f[k] = f[k] + x * c if k in f else x * c
            ech.insert(_clear_denominators(_nonzero(f)))
    rows = ech.pivot_row
    order = sorted(rows, reverse=True)
    basis = tuple(Matrix.sparse(nn, nm, {last - k: x for k, x in rows[p].items()})
                  for p in order)
    return basis, tuple(last - p for p in order)


def _hom_core(gm, gn, nm, nn):
    """(basis, free columns) of the nn x nm matrices f with f . am = an . f
    for every pair of generator actions (am, an); basis[k] is 1 on flat
    entry free[k] and 0 on every other free column."""
    ech = Echelon(nn * nm)
    for am, an in zip(gm, gn):
        for row in _commutator_rows(am, an, nm, nn):
            ech.insert(row)
    basis = tuple(Matrix.sparse(nn, nm, v) for v in ech.nullspace_maps())
    return basis, tuple(ech.free_columns())


def hom_basis(m: Bimodule, n: Bimodule):
    """Basis matrices of bimodule maps m -> n (same algebra pair required)."""
    return _hom_system(m, n)[0]


def hom_coordinates(m: Bimodule, n: Bimodule, mat: Matrix):
    """Coordinates of a map in the hom_basis, or None if not a module map:
    the free entries, kept when their combination of the basis rebuilds
    the map."""
    basis = hom_basis(m, n)
    coords = free_coordinates(_hom_system(m, n)[1], mat.flat_items())
    rebuilt = linear_combination(((c, basis[k]) for k, c in coords.items()),
                                 n.dim, m.dim)
    return coords if rebuilt == mat else None


# -- tensor over the middle algebra --------------------------------------------


def _apply_left_factor(a: Matrix, vec, n):
    """(A (x) I_n) applied to a {index: value} vector indexed (i, j) -> i*n + j."""
    out = {}
    for idx, x in vec.items():
        i, j = divmod(idx, n)
        for k, c in a.col_items(i):
            key = k * n + j
            out[key] = out[key] + c * x if key in out else c * x
    return out


def _apply_right_factor(b: Matrix, vec, n):
    """(I (x) B) applied to a {index: value} vector indexed (i, j) -> i*n + j,
    n = b.cols."""
    out = {}
    for idx, x in vec.items():
        i, j = divmod(idx, n)
        for k, c in b.col_items(j):
            key = i * b.rows + k
            out[key] = out[key] + c * x if key in out else c * x
    return out


def _piece_factor_indices(m: Bimodule, uidx):
    return divmod(uidx, len(m.right.idempotents))


def _balance_relation(xi, yj, i, j, n):
    """(X e_i) (x) e_j - e_i (x) (Y e_j) in raw coordinates (k, l) -> k*n + l,
    from the nonzeros xi of column i of X and yj of column j of Y: with X
    the right action of b on m and Y its left action on n, the relation
    m.b (x) n = m (x) b.n on the pure tensor e_i (x) e_j, zero-free."""
    col = {k * n + j: x for k, x in xi}
    for l, y in yj:
        key = i * n + l
        if key not in col:
            col[key] = -y
        elif col[key] == y:
            del col[key]
        else:
            col[key] -= y
    return col


def bimodule_tensor(m: Bimodule, n: Bimodule, label=None):
    """(T, proj, sect) realizing T = m (x)_B n as a quotient of m (x) n.

    Raw index (i, j) -> i * dim n + j.  With projective factors T is
    projective by construction, and its witness is solved on first use
    (_solved_witness).  proj, sect and T's actions are shared by every pair
    with the same action matrices.
    """
    if m.right is not n.left:
        raise AlgebraMismatch(
            f"tensor middle mismatch: {m.right.label} vs {n.left.label}")
    key = ("tensor core", m.dim, n.dim, m.left_action, m.right_action,
           n.left_action, n.right_action)
    proj, sect, la, ra = _memo(m.left, key, lambda: _tensor_core(m, n))
    t = Bimodule(m.left, n.right, proj.rows, la, ra,
                 label=label or f"{m.label}(x){n.label}", check=False)
    _derive_proj(t, lambda: _solved_witness(t), (m, n))
    return t, proj, sect


def _tensor_core(m: Bimodule, n: Bimodule):
    """(proj, sect, la, ra) of m (x)_B n: the quotient of m (x) n by the
    balance relations and the actions on it, a function of the action
    matrices alone (the relations of B's generators span those of B)."""
    b = m.right
    raw = m.dim * n.dim
    nd = n.dim
    cols = []
    for gi in b.generators():
        rm = m.right_action[gi]
        ln = n.left_action[gi]
        ln_cols = [list(ln.col_items(j)) for j in range(nd)]
        for i in range(m.dim):
            mi = list(rm.col_items(i))
            for j in range(nd):
                col = _balance_relation(mi, ln_cols[j], i, j, nd)
                if col:
                    cols.append(col)
    proj, sect = quotient_basis(raw, cols)
    t_dim = proj.rows
    sect_cols = [dict(sect.col_items(c)) for c in range(t_dim)]
    la = tuple(Matrix.from_column_maps(
        [proj.apply_map(_apply_left_factor(act, v, nd)) for v in sect_cols], t_dim)
        for act in m.left_action)
    ra = tuple(Matrix.from_column_maps(
        [proj.apply_map(_apply_right_factor(act, v, nd)) for v in sect_cols], t_dim)
        for act in n.right_action)
    return proj, sect, la, ra


# -- duals ---------------------------------------------------------------------


def swap_env_coords(vec, dl, dr):
    """Reindex L (x) R^op coordinates (i, j) to R (x) L^op coordinates (j, i)."""
    out = {}
    for idx, x in vec.items():
        i, j = divmod(idx, dr)
        out[j * dl + i] = x
    return out


class DualData:
    """Basis functionals of Hom_env(M, env) and converters."""

    def __init__(self, functionals, solver, source):
        self.functionals = functionals  # list of Matrix (dim env x dim m)
        self.solver = solver
        self.source = source

    def express(self, fmat: Matrix):
        return self.solver.express(fmat.flat_items())


def bimodule_dual(m: Bimodule, label=None):
    """(m_dual, dual_data): Hom_env(m, env) as a (right, left)-bimodule.

    Read off m's witness (the dual-basis lemma): Hom_env(m, env) is spanned
    by the functionals f_{p,c} = x |-> phi_p(x) . r_c, with r_c running over
    the basis of the right piece u_p.env.  The first independent ones form
    the dual basis, chosen by their values on the cover generators (see
    _dual_basis); every candidate's coordinates in it are kept, and the
    actions, f_{p,c} . z = sum_c' a_c' f_{p,c'} where r_c z = sum a_c' r_c',
    are combinations of them.
    """
    pd = proj_data(m)
    if pd is None:
        raise NotPerfect(f"{m.label} has no projectivity witness")
    env = m.env
    dl, dr = m.left.dim, m.right.dim
    s_blocks = [(uidx, gen, phi) for (uidx, _, _, _), (gen, phi)
                in zip(pd.cover.pieces, pd.coordinates())]
    basis_f, solver, origin, cand = _dual_basis(m, s_blocks)
    dim_d = len(basis_f)
    dd = DualData(basis_f, solver, m)

    # actions: (r . f . l)(x) = f(x) . (l (x) r)
    def act(z):
        rm = env.right_mult_matrix(z)
        return Matrix.from_column_maps(
            [_piece_functional(env, uidx, coords_p, rm.apply_map(r_c), "dual action")
             for uidx, coords_p, r_c in origin], dim_d)
    la = [act(_kron_vec(m.left.unit, {ridx: Q1}, dr)) for ridx in range(dr)]
    ra = [act(_kron_vec({lidx: Q1}, m.right.unit, dr)) for lidx in range(dl)]
    md = Bimodule(m.right, m.left, dim_d, la, ra,
                  label=label or f"{m.label}^v", check=False)
    md._dual_data = dd
    _derive_proj(md, lambda: _dual_proj_data(md, m, dd, s_blocks, cand))
    return md, dd


def _dual_basis(m: Bimodule, s_blocks):
    """(basis functionals, their full-width solver, origin, cand) of m's dual.

    A candidate f_{p,c} is tested, and its coordinates found, by its values
    (f(x_q))_q = (phi_p(x_q) . r_c)_q on the cover generators x_q, a row of
    width env.dim x #pieces.  f |-> (f(x_q))_q is injective on
    Hom_env(m, env), since f(x) = sum_q phi_q(x) . f(x_q), so the first
    independent candidates and every candidate's coordinates are those of
    the full functionals.  Only the basis functionals are multiplied out,
    into the solver DualData.express uses.  origin holds (uidx, coords_p,
    r_c) of each basis functional; cand[p][c] the coordinates of f_{p,c}.
    """
    env = m.env
    n, rmul = env.dim, env.right_mult
    gens = [gen for _, gen, _ in s_blocks]
    basis_f, origin, cand = [], [], []
    at_gens = SpanSolver(n * len(gens))
    solver = SpanSolver(n * m.dim)
    for uidx, _, s_p in s_blocks:
        # (offset of block q, phi_p(x_q)) for each nonzero phi_p(x_q)
        phi_at = [(q * n, v) for q, v in
                  enumerate(s_p.apply_map(gen) for gen in gens) if v]
        rbasis, _ = env.piece("right", uidx)
        coords_p = []
        for c in range(rbasis.cols):
            r_c = dict(rbasis.col_items(c))
            row = {}
            for j, x in r_c.items():
                for off, v in phi_at:
                    _add_into(row, {off + k: y for k, y
                                    in rmul[j].apply_map(v).items()}, x)
            coords = at_gens.express(row)
            if coords is None:
                coords = {len(basis_f): Q1}
                fmat = env.right_mult_matrix(r_c) * s_p
                basis_f.append(fmat)
                origin.append((uidx, coords_p, r_c))
                at_gens.add(row)
                solver.add(fmat.flat_items())
            coords_p.append(coords)
        cand.append(coords_p)
    return basis_f, solver, origin, cand


def _piece_functional(env, uidx, coords, w, what):
    """Dual-basis coordinates of x |-> phi_p(x) . w, for w in the right
    piece u.env of p's idempotent u = env.idempotents[uidx]: the sum of
    a_c * coords[c] over w = sum_c a_c r_c, coords[c] those of f_{p,c}."""
    a = env.piece("right", uidx)[1].express(w)
    if a is None:
        raise InvariantViolation(f"{what} escaped the dual basis")
    out = {}
    for c, x in a.items():
        _add_into(out, coords[c], x)
    return {k: _exact(x) for k, x in out.items() if x}


def _dual_proj_data(md, m, dd, s_blocks, cand):
    envd = md.env
    dl, dr = m.left.dim, m.right.dim
    n_left_fam = len(m.left.idempotents)
    pieces = []
    for uidx, gen, s_p in s_blocks:
        il, ir = _piece_factor_indices(m, uidx)
        itd = ir * n_left_fam + il
        basis_d, solver_d = envd.piece("left", itd)
        f0 = dd.express(s_p)
        if f0 is None:
            raise InvariantViolation("dual generator escaped the dual basis")
        pieces.append((itd, f0, basis_d, solver_d))
    ev_cols = []
    for (itd, f0, basis_d, _), (uidx, _, _), coords_p in zip(
            pieces, s_blocks, cand):
        for c in range(basis_d.cols):
            # back to L (x) R^op coords, where the column lies in u_p.env
            z = swap_env_coords(dict(basis_d.col_items(c)), dr, dl)
            ev_cols.append(_piece_functional(m.env, uidx, coords_p, z,
                                             "dual cover image"))
    ev = Matrix.from_column_maps(ev_cols, md.dim)
    cover = Cover(md, pieces, ev)
    ranges = cover.piece_ranges()
    s_cols = []
    for fidx in range(md.dim):
        f = dd.functionals[fidx]
        col = {}
        for (itd, f0, basis_d, solver_d), (uidx, gen, s_p), (lo, hi) in zip(
                pieces, s_blocks, ranges):
            coords = solver_d.express(swap_env_coords(f.apply_map(gen), dl, dr))
            if coords is None:
                raise InvariantViolation("dual section fell outside the piece")
            for r, x in coords.items():
                col[lo + r] = x
        s_cols.append(col)
    section = Matrix.from_column_maps(s_cols, ev.cols)
    if ev * section != Matrix.identity(md.dim):
        raise InvariantViolation("dual witness failed")
    return ProjData(cover, section)


def double_dual_comparison(m: Bimodule, md: Bimodule, mdd: Bimodule):
    """Matrix of the canonical map m -> m^vv: x |-> (f |-> swap(f(x)))."""
    dd = md._dual_data
    ddd = mdd._dual_data
    dl, dr = m.left.dim, m.right.dim
    cols = []
    for i in range(m.dim):
        fmat = Matrix.from_column_maps(
            [swap_env_coords(dict(f.col_items(i)), dl, dr) for f in dd.functionals],
            md.env.dim)
        coords = ddd.express(fmat)
        if coords is None:
            raise InvariantViolation("double dual comparison escaped the basis")
        cols.append(coords)
    return Matrix.from_column_maps(cols, mdd.dim)


# -- center and trace quotient ------------------------------------------------


def center(a: Algebra):
    """Basis columns of Z(A) = {x : xy = yx for all y}."""
    n = a.dim
    # row i * n + r of the stack is row r of L_i - R_i
    stacked = {}
    for i in range(n):
        for r, c, x in (a.left_mult[i] - a.right_mult[i]).items():
            stacked[(i * n + r) * n + c] = x
    return nullspace_basis(Matrix.sparse(n * n, n, stacked))


def trace_quotient(a: Algebra):
    """(projector, section) for A / [A, A]."""
    cols = []
    for i in range(a.dim):
        for j in range(a.dim):
            xy = a.multiply({i: Q1}, {j: Q1})
            yx = a.multiply({j: Q1}, {i: Q1})
            cols.append(_nonzero(_add_into(xy, yx, -Q1)))
    return quotient_basis(a.dim, cols)
