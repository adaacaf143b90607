"""Builders that only the tests use: free bimodules, the enveloping algebra
of one algebra, direct sums and mapping cones of complexes, and the
boundary of a diagram term.

The engine never builds these itself; they make test inputs (projective
bimodules, acyclic complexes, cones quasi-isomorphic to a module) whose
expected invariants are known.
"""

from hhengine.errors import AlgebraMismatch
from hhengine.linalg import Matrix, Q1, block_diag
import hhengine.algebras as alg
import hhengine.complexes as cx
import hhengine.diagrams as dg
import hhengine.kernels as kn


def enveloping(a):
    """A (x) A^op."""
    return alg.tensor_product(a, alg.opposite(a))


def free_bimodule(left, right, rank=1, label=None):
    """(left (x) right^op)^rank as a (left, right)-bimodule."""
    env = alg.enveloping_of(left, right)
    dim = env.dim * rank
    la, ra = [], []
    for i in range(left.dim):
        m = env.left_mult_matrix(alg._kron_vec({i: Q1}, right.unit, right.dim))
        la.append(block_diag([m] * rank))
    for j in range(right.dim):
        m = env.left_mult_matrix(alg._kron_vec(left.unit, {j: Q1}, right.dim))
        ra.append(block_diag([m] * rank))
    return alg.Bimodule(left, right, dim, la, ra,
                        label=label or f"free({left.label}|{right.label})^{rank}",
                        check=False)


def direct_sum(c, d):
    if c.left is not d.left or c.right is not d.right:
        raise AlgebraMismatch("direct sum over different algebra pairs")
    terms = {}
    for n in set(c.terms) | set(d.terms):
        terms[n] = cx._sum_bimodule(c.term(n), d.term(n))
    diffs = {}
    for n in terms:
        if (n + 1) in terms:
            diffs[n] = block_diag([c.differential(n), d.differential(n)])
    return cx.Complex(terms, diffs, c.left, c.right, check=False)


def cone(f):
    """cone(f)_n = C_{n+1} (+) D_n with d(c, e) = (-dc, f(c) + de)
    (sign-table row C1 of hhengine.complexes)."""
    if f.degree != 0:
        raise ValueError("cone needs a degree-0 chain map")
    c, d = f.source, f.target
    terms = {}
    lo = min(c.degrees() + d.degrees())
    hi = max(c.degrees() + d.degrees())
    for n in range(lo - 1, hi + 1):
        t = cx._sum_bimodule(c.term(n + 1), d.term(n))
        if t is not None and t.dim:
            terms[n] = t
    diffs = {}
    for n in terms:
        if (n + 1) not in terms:
            continue
        c1, d0 = c.dim(n + 1), d.dim(n)
        c2, d1 = c.dim(n + 2), d.dim(n + 1)
        rows = c2 + d1
        cols = c1 + d0
        m = {}
        for i, j, x in c.differential(n + 1).items():
            m[i * cols + j] = -x
        for i, j, x in f.component(n + 1).items():
            m[(c2 + i) * cols + j] = x
        for i, j, x in d.differential(n).items():
            m[(c2 + i) * cols + c1 + j] = x
        diffs[n] = Matrix.sparse(rows, cols, m)
    return cx.Complex(terms, diffs, c.left, c.right, check=False)


def typecheck(node, env):
    """Boundary of a diagram term; raises BoundaryMismatch on bad composites.

    Checking is semantic: the term is evaluated (the kernel layer's
    composition enforces exactly the published composability rules) and
    the boundary of the result is reported.  tr() terms report ('scalar',)."""
    out = dg.evaluate(node, env)
    if isinstance(out, kn.TwoMorphism):
        return dg.boundary_of(out, env)
    return ("scalar",)
