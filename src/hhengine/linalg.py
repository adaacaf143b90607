"""Exact rational linear algebra.

Everything in the engine reduces to sparse matrices over Q in
compressed-sparse-row form plus one elimination kernel.  An exact scalar is a
Python `int` when it is integral and a `fractions.Fraction` only when its
denominator is greater than 1, so the mostly integral arithmetic of the engine
runs on plain ints, far cheaper than Fractions; the layers above need not care
which of the two a value is.  A vector is a zero-free {index: value} map everywhere: matrices act
on maps, echelon rows are maps, solutions and coordinates come back as maps.
The elimination is Gauss-Jordan over Q: many callers scale a row to
coprime integers before it goes in (`_clear_denominators`), and
`Echelon.insert` normalises each stored row to pivot 1, through a `Fraction`
inverse when the pivot is not 1 or -1.  The pivot rule is fixed and deterministic: the pivot of each
row is its first nonzero entry in column order, and rows are processed in the
order given.  `Echelon` stores each row only semi-reduced, against the pivots
that existed when it came in, and back-substitutes once, when the rows are
read; the pivots and the fully reduced rows are unique for the row space, so
every basis produced downstream (nullspaces, quotients, homology bases,
Hochschild bases) is a function of the pivot rule only, and repeated runs
agree bit for bit.

A subspace given as a nullspace is eliminated once.  Its basis vector k
from `nullspace_maps` is 1 on free column k and 0 on every other free
column, so a vector of the nullspace has its own free-column entries as
coordinates (`free_coordinates`); no second solver re-derives them.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

Q0 = 0
Q1 = 1


class LinalgError(Exception):
    pass


class Inconsistent(LinalgError):
    """Right-hand side outside the column space."""


def _exact(x):
    """x as an int when it is integral, else x itself (a Fraction)."""
    return x.numerator if x.denominator == 1 else x


def scalar(x):
    """Coerce ints, strings like '2/3', and Fractions to an exact scalar: an
    int when integral, else a Fraction.  A bool is not a scalar (TypeError),
    nor is a string with a zero denominator (ValueError)."""
    if isinstance(x, bool):
        raise TypeError(f"not an exact scalar: {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            x = Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {x!r}") from None
    if isinstance(x, Fraction):
        return _exact(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def format_scalar(x) -> str:
    return f"{x.numerator}/{x.denominator}"


class Matrix:
    """Immutable sparse matrix over Q in compressed-sparse-row form.

    Three flat tuples hold the nonzero entries: `_ptr` (rows + 1 offsets),
    `_idx` (column indices, increasing within each row) and `_val` (the
    nonzero values, each an int or a non-integral Fraction as `scalar`
    returns them).  No zero is ever stored, so two matrices are equal exactly
    when their shapes and tuples are.

    `sparse` and `from_column_maps` build a matrix from its nonzeros;
    `Matrix(rows, cols, data)` and `from_rows` take dense entries, for
    matrices read from JSON.  `apply_map` multiplies a zero-free
    {index: value} vector, and `row_items`, `col_items` and `items` walk the
    nonzeros.  `data` and `row` are dense views computed on access, for
    report output.  The transpose is built once, on first use by
    `transpose`, `col_items` or `apply_map`.
    """

    __slots__ = ("rows", "cols", "_ptr", "_idx", "_val", "_t")

    def __init__(self, rows, cols, data):
        data = [scalar(x) for x in data]
        if len(data) != rows * cols:
            raise ValueError(f"matrix data length {len(data)} != {rows}x{cols}")
        ptr, idx, val = [0], [], []
        for i in range(rows):
            for j, x in enumerate(data[i * cols:(i + 1) * cols]):
                if x:
                    idx.append(j)
                    val.append(x)
            ptr.append(len(idx))
        self._fill(rows, cols, ptr, idx, val)

    def _fill(self, rows, cols, ptr, idx, val):
        put = object.__setattr__
        put(self, "rows", rows)
        put(self, "cols", cols)
        put(self, "_ptr", tuple(ptr))
        put(self, "_idx", tuple(idx))
        put(self, "_val", tuple(val))
        put(self, "_t", None)

    @classmethod
    def _csr(cls, rows, cols, ptr, idx, val):
        """Trusted constructor: sorted indices, nonzero exact values."""
        m = object.__new__(cls)
        m._fill(rows, cols, ptr, idx, val)
        return m

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_rows(rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        flat = []
        for r in rows_list:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return Matrix(rows, cols, flat)

    @staticmethod
    def from_column_maps(col_maps, rows):
        """Matrix whose column j holds col_maps[j] ({row: value}); zeros are
        dropped."""
        cols = len(col_maps)
        return Matrix.sparse(rows, cols, {i * cols + j: x
                                          for j, col in enumerate(col_maps)
                                          for i, x in col.items()})

    @staticmethod
    def sparse(rows, cols, entries):
        """Matrix from {i * cols + j: value} (row-major flat indices); zeros
        are dropped."""
        ptr, idx, val = [0] * (rows + 1), [], []
        for k in sorted(entries):
            x = entries[k]
            if x:
                i, j = divmod(k, cols)
                ptr[i + 1] += 1
                idx.append(j)
                val.append(x)
        for i in range(rows):
            ptr[i + 1] += ptr[i]
        return Matrix._csr(rows, cols, ptr, idx, val)

    @staticmethod
    def zero(rows, cols):
        return Matrix._csr(rows, cols, (0,) * (rows + 1), (), ())

    @staticmethod
    def identity(n):
        return Matrix._csr(n, n, range(n + 1), range(n), (Q1,) * n)

    # -- entries ----------------------------------------------------------------

    @property
    def data(self):
        """Dense row-major tuple of all rows * cols entries."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def __getitem__(self, ij):
        i, j = ij
        lo, hi = self._ptr[i], self._ptr[i + 1]
        k = bisect_left(self._idx, j, lo, hi)
        if k < hi and self._idx[k] == j:
            return self._val[k]
        return Q0

    def row_items(self, i):
        """(column, value) pairs of the nonzeros of row i, by column."""
        lo, hi = self._ptr[i], self._ptr[i + 1]
        return zip(self._idx[lo:hi], self._val[lo:hi])

    def col_items(self, j):
        """(row, value) pairs of the nonzeros of column j, by row."""
        return self.transpose().row_items(j)

    def items(self):
        """(row, column, value) of every nonzero, row-major."""
        ptr, idx, val = self._ptr, self._idx, self._val
        for i in range(self.rows):
            for k in range(ptr[i], ptr[i + 1]):
                yield i, idx[k], val[k]

    def flat_items(self):
        """{i * cols + j: value} of every nonzero (row-major flat indices)."""
        ptr, idx, cols = self._ptr, self._idx, self.cols
        keys = [i * cols + idx[k] for i in range(self.rows)
                for k in range(ptr[i], ptr[i + 1])]
        return dict(zip(keys, self._val))

    def row(self, i):
        """Dense tuple of the entries of row i."""
        entries = dict(self.row_items(i))
        return tuple(entries.get(j, Q0) for j in range(self.cols))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._ptr == other._ptr
                and self._idx == other._idx and self._val == other._val)

    def __hash__(self):
        return hash((self.rows, self.cols, self._ptr, self._idx, self._val))

    def __repr__(self):
        rs = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {rs})"

    def is_zero(self):
        return not self._val

    @property
    def nnz(self):
        """The number of nonzero entries."""
        return len(self._val)

    # -- arithmetic -------------------------------------------------------------

    def _merge(self, other, sign):
        ptr, idx, val = [0], [], []
        for i in range(self.rows):
            acc = dict(self.row_items(i))
            for j, x in other.row_items(i):
                if sign < 0:
                    x = -x
                acc[j] = acc[j] + x if j in acc else x
            for j in sorted(acc):
                x = acc[j]
                if x:
                    idx.append(j)
                    val.append(x)
            ptr.append(len(idx))
        return Matrix._csr(self.rows, self.cols, ptr, idx, val)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        return self._merge(other, 1)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in -")
        return self._merge(other, -1)

    def __neg__(self):
        return Matrix._csr(self.rows, self.cols, self._ptr, self._idx,
                           [-a for a in self._val])

    def scale(self, c):
        c = scalar(c)
        if not c:
            return Matrix.zero(self.rows, self.cols)
        return Matrix._csr(self.rows, self.cols, self._ptr, self._idx,
                           [_exact(c * a) for a in self._val])

    def __mul__(self, other):
        """Matrix product over the nonzeros of both factors."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in *: {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        aptr, aidx, aval = self._ptr, self._idx, self._val
        bptr, bidx, bval = other._ptr, other._idx, other._val
        ptr, idx, val = [0], [], []
        for i in range(self.rows):
            acc = {}
            for ka in range(aptr[i], aptr[i + 1]):
                k, a = aidx[ka], aval[ka]
                for kb in range(bptr[k], bptr[k + 1]):
                    j = bidx[kb]
                    p = a * bval[kb]
                    acc[j] = acc[j] + p if j in acc else p
            for j in sorted(acc):
                x = acc[j]
                if x:
                    idx.append(j)
                    val.append(_exact(x))
            ptr.append(len(idx))
        return Matrix._csr(self.rows, other.cols, ptr, idx, val)

    def apply_map(self, vec):
        """Matrix times a {index: value} vector, as a zero-free
        {row: value}."""
        out = {}
        t = self.transpose()
        tptr, tidx, tval = t._ptr, t._idx, t._val
        for j, v in vec.items():
            if v:
                for k in range(tptr[j], tptr[j + 1]):
                    i = tidx[k]
                    p = tval[k] * v
                    if i in out:
                        p += out[i]
                        if not p:
                            del out[i]
                            continue
                    out[i] = p
        return out

    def row_block(self, lo, hi):
        """The rows lo..hi-1 as a (hi - lo) x cols matrix."""
        a, b = self._ptr[lo], self._ptr[hi]
        return Matrix._csr(hi - lo, self.cols,
                           [p - a for p in self._ptr[lo:hi + 1]],
                           self._idx[a:b], self._val[a:b])

    def transpose(self):
        if self._t is None:
            counts = [0] * (self.cols + 1)
            for j in self._idx:
                counts[j + 1] += 1
            for j in range(self.cols):
                counts[j + 1] += counts[j]
            nxt = counts[:-1]
            idx = [0] * len(self._idx)
            val = [None] * len(self._val)
            ptr, cidx, cval = self._ptr, self._idx, self._val
            for i in range(self.rows):
                for k in range(ptr[i], ptr[i + 1]):
                    j = cidx[k]
                    pos = nxt[j]
                    nxt[j] = pos + 1
                    idx[pos] = i
                    val[pos] = cval[k]
            object.__setattr__(self, "_t", Matrix._csr(self.cols, self.rows,
                                                        counts, idx, val))
        return self._t

    def kronecker(self, other):
        """Kronecker product, left factor major (index (i,k) |-> i*other.rows+k)."""
        ptr, idx, val = [0], [], []
        oc = other.cols
        for i in range(self.rows):
            arow = list(self.row_items(i))
            for k in range(other.rows):
                brow = list(other.row_items(k))
                for j, a in arow:
                    base = j * oc
                    for l, b in brow:
                        idx.append(base + l)
                        val.append(a * b)
                ptr.append(len(idx))
        return Matrix._csr(self.rows * other.rows, self.cols * oc, ptr, idx, val)


def linear_combination(terms, rows, cols):
    """sum c * m over (c, m) in terms, all m of shape rows x cols."""
    acc = {}
    for c, m in terms:
        if c:
            for k, x in m.flat_items().items():
                acc[k] = acc[k] + c * x if k in acc else c * x
    return Matrix.sparse(rows, cols, {k: _exact(x) for k, x in acc.items()})


def block_diag(blocks):
    ptr, idx, val = [0], [], []
    c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j, x in b.row_items(i):
                idx.append(c0 + j)
                val.append(x)
            ptr.append(len(idx))
        c0 += b.cols
    return Matrix._csr(sum(b.rows for b in blocks), c0, ptr, idx, val)


# ---------------------------------------------------------------------------
# Sparse row echelon.  Rows are dicts {col: value}.  The echelon keeps, for
# each pivot column, one row normalized to pivot 1.  A row is stored
# semi-reduced: zero left of its pivot and zero on every pivot that existed
# when it was inserted, so an insert costs one reduction and nothing more.
# Reading `pivot_row` back-substitutes once, over all rows, into the unique
# fully reduced form.  An insert thus never walks the stored rows, which
# would make a run of inserts quadratic in the rank; this is what makes the
# big structured solves (module-hom systems) affordable.
# ---------------------------------------------------------------------------


def _clear_denominators(row):
    """Scale a dict row to coprime integers, keeping its entries small."""
    if not row:
        return row
    l = 1
    for v in row.values():
        l = l * v.denominator // gcd(l, v.denominator)
    g = 0
    for v in row.values():
        g = gcd(g, abs(v.numerator * (l // v.denominator)))
    if g == 0:
        return {}
    return {j: v.numerator * (l // v.denominator) // g for j, v in row.items()}


class Echelon:
    """Incremental row echelon over Q with first-nonzero pivoting, fully
    reduced on read."""

    def __init__(self, ncols):
        self.ncols = ncols
        self._rows = {}       # pivot column -> semi-reduced row (pivot entry 1)
        self._reduced = True  # every stored row is zero on every other pivot

    def reduce(self, row):
        """The residual of a dict row modulo the row space, zero-free
        (copy-safe): the unique vector in row + span(rows) that is zero on
        every pivot column.

        Clearing pivot p touches only columns right of p, so clearing the
        pivots present in the row in increasing column order, including
        those the clearing itself brings in, reduces it completely in one
        pass.
        """
        rows = self._rows
        row = {j: v for j, v in row.items() if v}
        heap = [j for j in row if j in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            c = row.pop(p, None)
            if c is None:
                continue
            for k, v in rows[p].items():
                if k in row:
                    w = row[k] - c * v
                    if w:
                        row[k] = _exact(w)
                    else:
                        del row[k]
                elif k != p:
                    row[k] = _exact(-c * v)
                    if k in rows:
                        heappush(heap, k)
        return row

    def insert(self, row):
        """Reduce and insert; returns the new pivot column or None if dependent."""
        row = self.reduce(row)
        if not row:
            return None
        p = min(row)
        pv = row[p]
        if pv == -1:
            row = {j: -v for j, v in row.items()}
        elif pv != 1:
            inv = Fraction(pv.denominator, pv.numerator)
            row = {j: _exact(v * inv) for j, v in row.items()}
        self._rows[p] = row
        self._reduced = False
        return p

    @property
    def pivot_row(self):
        """{pivot column: row} in insertion order, each row normalized to
        pivot 1 and zero on every other pivot column (the reduced row
        echelon form, unique for the row space)."""
        rows = self._rows
        if not self._reduced:
            # decreasing pivots: the rows right of p are reduced already, and
            # the part of row p right of p reduces against them alone
            for p in sorted(rows, reverse=True):
                row = rows[p]
                if any(k != p and k in rows for k in row):
                    rows[p] = {p: row[p], **self.reduce(
                        {k: v for k, v in row.items() if k != p})}
            self._reduced = True
        return rows

    @property
    def rank(self):
        return len(self._rows)

    def free_columns(self):
        piv = self._rows
        return [j for j in range(self.ncols) if j not in piv]

    def nullspace_maps(self):
        """Kernel basis of the row space seen as a map Q^ncols -> rows, one
        {coordinate: value} per free column, in free-column order."""
        free = {f: {f: Q1} for f in self.free_columns()}
        for p, row in self.pivot_row.items():
            for f, c in row.items():
                if f != p:
                    free[f][p] = -c
        return list(free.values())


class SpanSolver:
    """Express vectors in a fixed spanning list (tagged-echelon bookkeeping)."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.count = 0
        self.ech = Echelon(ncols)  # widened lazily with tag columns

    def add(self, row):
        """Insert a spanning vector (dict row); dependent vectors are fine."""
        tagged = dict(row)
        tagged[self.ncols + self.count] = Q1
        self.count += 1
        self.ech.ncols = self.ncols + self.count
        self.ech.insert(tagged)

    def express(self, row):
        """Zero-free {added-vector index: coefficient} reproducing `row`, or
        None."""
        res = self.ech.reduce(row)
        if any(j < self.ncols and v for j, v in res.items()):
            return None
        return {j - self.ncols: -v for j, v in res.items() if v}


def row_echelon(m: Matrix):
    """The echelon of m's rows."""
    ech = Echelon(m.cols)
    for i in range(m.rows):
        ech.insert(_clear_denominators(dict(m.row_items(i))))
    return ech


def rank(m: Matrix) -> int:
    return row_echelon(m).rank


def nullspace_basis(m: Matrix) -> Matrix:
    """Columns form the canonical basis of {v : m v = 0}."""
    return Matrix.from_column_maps(row_echelon(m).nullspace_maps(), m.cols)


def free_coordinates(free, vec):
    """Coordinates, zero-free, of a vector `vec` of a nullspace in the basis
    `nullspace_maps` gives: basis vector k is 1 on free[k] and 0 on every
    other free column, so coordinate k is vec's entry on free[k].  Whether
    vec lies in the nullspace at all is the caller's check."""
    return {k: vec[f] for k, f in enumerate(free) if vec.get(f)}


def _solve_rows(rows, total):
    """The one augmented solve: {unknown: value} satisfying every row, a
    {column: value} map over the unknowns 0..total-1 whose column `total`
    holds the right-hand side; every free unknown is zero.  None if the
    rows are inconsistent."""
    ech = Echelon(total + 1)
    for row in rows:
        ech.insert(row)
    if total in ech.pivot_row:
        return None
    return {p: row[total] for p, row in ech.pivot_row.items() if total in row}


def solve(m: Matrix, b) -> dict:
    """Some x with m x = b, both {index: value} maps, or raise Inconsistent;
    every free unknown of x is zero."""
    if any(not 0 <= i < m.rows for i in b):
        raise ValueError("rhs index out of range")
    aug = m.cols
    rows = [dict(m.row_items(i)) for i in range(m.rows)]
    for i, v in b.items():
        if v:
            rows[i][aug] = v
    x = _solve_rows(rows, aug)
    if x is None:
        raise Inconsistent("rhs outside the column space")
    return x


def quotient_basis(ambient_dim: int, columns):
    """Projector/section pair for Q^ambient / span(columns), the columns
    given as zero-free {row: value} maps.

    projector: ambient -> quotient, section: quotient -> ambient,
    projector . section = identity, projector kills exactly the subspace.
    """
    ech = Echelon(ambient_dim)
    for col in columns:
        ech.insert(_clear_denominators(col))
    free = ech.free_columns()
    qdim = len(free)
    slot = {f: k for k, f in enumerate(free)}
    # section: unit vectors on the non-pivot coordinates
    section = Matrix.from_column_maps([{f: Q1} for f in free], ambient_dim)
    # projector row k reads off the free-coordinate k of the reduction:
    # the residual of e_p has free part -row[f]
    proj = {k * ambient_dim + f: Q1 for k, f in enumerate(free)}
    for p, row in ech.pivot_row.items():
        for f, c in row.items():
            k = slot.get(f)
            if k is not None:
                proj[k * ambient_dim + p] = -c
    return Matrix.sparse(qdim, ambient_dim, proj), section
