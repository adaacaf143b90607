import json
from fractions import Fraction

import pytest
from importlib import resources

from hhengine.linalg import Matrix
import hhengine.algebras as alg
import hhengine.kernels as kn
import hhengine.hochschild as hh


GOLDEN = ("pt", "bz2", "bs3", "a2", "a3", "m2")


def load_workspace_doc(name):
    return json.loads(resources.files("hhengine.workspaces")
                      .joinpath(f"{name}.json").read_text())


@pytest.fixture(scope="session")
def golden_reports():
    from hhengine import cli
    out = {}
    for name in GOLDEN:
        out[name] = cli.run_workspace(load_workspace_doc(name), f"{name}.json",
                                      seed=0)
    return out


def s3_cayley_table():
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]

    def comp(p, q):
        return tuple(p[q[x]] for x in range(3))

    return [[perms.index(comp(p, q)) for q in perms] for p in perms]


def rep_from_generators(table, gens, dim):
    mats = {0: Matrix.identity(dim)}
    work = [0]
    while work:
        i = work.pop()
        for g, mg in gens.items():
            j = table[g][i]
            if j not in mats:
                mats[j] = mg * mats[i]
                work.append(j)
    return [mats[i] for i in range(len(table))]


def m(rows):
    return Matrix.from_rows(rows)


@pytest.fixture(scope="session")
def pt():
    sp = kn.Space(alg.point_algebra(), "pt")
    sp.can5()
    sp.can6()
    return sp


@pytest.fixture(scope="session")
def bz2():
    sp = kn.Space(alg.group_algebra([[0, 1], [1, 0]], "Z2"), "BZ2")
    sp.can5()
    sp.can6()
    return sp


@pytest.fixture(scope="session")
def bs3():
    sp = kn.Space(alg.group_algebra(s3_cayley_table(), "S3"), "BS3")
    sp.can5()
    sp.can6()
    return sp


@pytest.fixture(scope="session")
def a2():
    sp = kn.Space(alg.path_algebra(2, [(0, 1)], "A2"), "A2")
    sp.can5()
    sp.can6()
    return sp


@pytest.fixture(scope="session")
def a3():
    sp = kn.Space(alg.path_algebra(3, [(0, 1), (1, 2)], "A3"), "A3")
    sp.can5()
    sp.can6()
    return sp


@pytest.fixture(scope="session")
def m2():
    sp = kn.Space(alg.matrix_algebra(2), "M2")
    sp.can5()
    sp.can6()
    return sp


@pytest.fixture(scope="session")
def one(pt):
    return hh.one_point_class(pt)


@pytest.fixture(scope="session")
def z2_modules(pt, bz2):
    a = bz2.algebra
    p = pt.algebra
    triv = alg.module_as_bimodule(a, p, [Matrix.identity(1)] * 2, "triv")
    sgn = alg.module_as_bimodule(a, p, [Matrix.identity(1), m([[-1]])], "sgn")
    reg = alg.module_as_bimodule(a, p, list(a.left_mult), "regZ2")
    return {
        "triv": hh.module_kernel(bz2, pt, triv),
        "sgn": hh.module_kernel(bz2, pt, sgn),
        "reg": hh.module_kernel(bz2, pt, reg),
    }


@pytest.fixture(scope="session")
def s3_modules(pt, bs3):
    table = s3_cayley_table()
    a = bs3.algebra
    p = pt.algebra
    triv = alg.module_as_bimodule(
        a, p, rep_from_generators(table, {1: Matrix.identity(1), 4: Matrix.identity(1)}, 1), "triv3")
    sgn = alg.module_as_bimodule(
        a, p, rep_from_generators(table, {1: m([[-1]]), 4: Matrix.identity(1)}, 1), "sgn3")
    std = alg.module_as_bimodule(
        a, p, rep_from_generators(table, {1: m([[-1, 1], [0, 1]]),
                                       4: m([[0, -1], [1, -1]])}, 2), "std3")
    return {
        "triv": hh.module_kernel(bs3, pt, triv),
        "sgn": hh.module_kernel(bs3, pt, sgn),
        "std": hh.module_kernel(bs3, pt, std),
    }


@pytest.fixture(scope="session")
def a2_modules(pt, a2):
    a = a2.algebra
    p = pt.algebra
    s1 = alg.module_as_bimodule(a, p, [Matrix.identity(1), m([[0]]), m([[0]])], "S1")
    s2 = alg.module_as_bimodule(a, p, [m([[0]]), Matrix.identity(1), m([[0]])], "S2")
    p1 = alg.module_as_bimodule(
        a, p, [m([[1, 0], [0, 0]]), m([[0, 0], [0, 1]]), m([[0, 0], [1, 0]])], "P1")
    return {
        "S1": hh.module_kernel(a2, pt, s1),
        "S2": hh.module_kernel(a2, pt, s2),
        "P1": hh.module_kernel(a2, pt, p1),
    }


@pytest.fixture(scope="session")
def a3_modules(pt, a3):
    a = a3.algebra
    p = pt.algebra
    out = {}
    for v in range(3):
        act = [Matrix.identity(1) if i == v else m([[0]]) for i in range(6)]
        mod = alg.module_as_bimodule(a, p, act, f"T{v + 1}")
        out[f"T{v + 1}"] = hh.module_kernel(a3, pt, mod)
    return out


@pytest.fixture(scope="session")
def ind_res(pt, bz2, bs3):
    """Induction and restriction kernels along Z/2 <= S3 (sigma -> (01))."""
    z = bz2.algebra
    s = bs3.algebra
    images = [0, 1]
    cols = [{img: Fraction(1)} for img in images]
    right = [s.right_mult_matrix(c) for c in cols]
    left = [s.left_mult_matrix(c) for c in cols]
    ind = alg.Bimodule(s, z, s.dim, list(s.left_mult), right, "Ind", check=True)
    res = alg.Bimodule(z, s, s.dim, left, list(s.right_mult), "Res", check=True)
    rind, _ = alg.projective_resolution(ind)
    rres, _ = alg.projective_resolution(res)
    kind = kn.conv_kernel((kn.AtomicKernel(bz2, bs3, rind, "Ind"),))
    kres = kn.conv_kernel((kn.AtomicKernel(bs3, bz2, rres, "Res"),))
    return kind, kres
