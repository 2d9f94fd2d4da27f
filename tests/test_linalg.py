"""Dense F_p linear algebra against brute-force oracles."""

import itertools
import random
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import prevprime

from eiscomp.bernoulli import irregular_indices
from eiscomp.hecke import EisLocalPiece, generator_primes, hecke_matrix
from eiscomp.linalg import (
    EchelonSpace,
    MatFp,
    _matmul,
    algebra_closure,
    generalized_eigenspace,
    inverse,
    kernel,
    rank,
    restrict_operator,
    rref,
    solve,
    stable_idempotent,
)
from eiscomp.qexp import miller_basis, sturm
from eiscomp.scan import primes_in

from oracles import eisenstein_eigenvalue


# --- oracles ---------------------------------------------------------------

def det_oracle(rows, p):
    """Determinant by permutation expansion (tiny sizes only)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # parity by counting inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i, j in enumerate(perm):
            prod = prod * rows[i][j] % p
        total += sign * prod
    return total % p


def minor_rank_oracle(mat, p, max_size):
    """Largest r with a nonsingular r x r minor, up to max_size."""
    m, n = len(mat), len(mat[0])
    best = 0
    for r in range(1, max_size + 1):
        found = False
        for rows in itertools.combinations(range(m), r):
            for cols in itertools.combinations(range(n), r):
                sub = [[mat[i][j] for j in cols] for i in rows]
                if det_oracle(sub, p) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = r
        else:
            break
    return best


def matmul_oracle(a, b):
    """Product of two MatFp by the schoolbook triple loop on Python ints."""
    p = a.p
    x, y = a.a.tolist(), b.a.tolist()
    return [
        [sum(x[i][t] * y[t][j] for t in range(a.ncols)) % p for j in range(b.ncols)]
        for i in range(a.nrows)
    ]


def rref_oracle(rows, p, ncols):
    """Reduced row-echelon form, pivots and rank on row lists of Python ints."""
    rows = [[e % p for e in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [e * inv % p for e in rows[r]]
        lead = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [(e - f * l) % p for e, l in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots, len(pivots)


def echelon_reduce_oracle(vec, rows, pivots, p):
    """Forward reduction of vec against unit-pivot rows, one row at a time."""
    v = [e % p for e in vec]
    for piv, row in zip(pivots, rows):
        c = v[piv]
        if c:
            v = [(a - c * b) % p for a, b in zip(v, row)]
    return v


def closure_oracle(gens, p, dim):
    """The one-product-at-a-time closure: each b * g reduced and inserted alone, on row lists."""
    if dim == 0:
        return []
    rows, pivots, basis = [], [], []

    def push(m):
        res = echelon_reduce_oracle(m.a.ravel().tolist(), rows, pivots, p)
        piv = next((i for i, e in enumerate(res) if e), None)
        if piv is not None:
            rows.append([e * pow(res[piv], -1, p) % p for e in res])
            pivots.append(piv)
            basis.append(MatFp(p, [rows[-1][i * dim : (i + 1) * dim] for i in range(dim)]))

    push(MatFp.identity(p, dim))
    i = 0
    while i < len(basis):
        b = basis[i]
        i += 1
        for g in gens:
            push(b * g)
    return [entries(b) for b in basis]


def mat(p, rows, ncols):
    """The matrix of these row lists, nrows x ncols also when there are no rows."""
    return MatFp(p, np.array(rows, dtype=object).reshape(len(rows), ncols))


def random_mat(rng, p, nrows, ncols):
    return mat(p, [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)], ncols)


def zeros(p, nrows, ncols):
    return MatFp(p, np.zeros((nrows, ncols), dtype=np.int64))


def column(p, vec):
    return MatFp(p, [vec]).transpose()


def entries(m):
    return m.a.tolist()


# --- rref / rank -------------------------------------------------------------

def test_rref_identity_and_zero():
    p = 7
    eye = MatFp.identity(p, 4)
    r, piv, rk = rref(eye)
    assert r == eye and piv == [0, 1, 2, 3] and rk == 4
    z = zeros(p, 3, 5)
    r, piv, rk = rref(z)
    assert r == z and piv == [] and rk == 0


def test_rref_idempotent():
    rng = random.Random(97)
    for _ in range(10):
        a = MatFp(11, [[rng.randrange(11) for _ in range(6)] for _ in range(4)])
        r1, _, _ = rref(a)
        r2, _, _ = rref(r1)
        assert r1 == r2


def test_rank_matches_minor_oracle_on_seeded_matrix():
    # seeded 8x8 over F_37 of rank 4: product of random 8x4 and 4x8
    p = 37
    rng = random.Random(20240)
    a = [[rng.randrange(p) for _ in range(4)] for _ in range(8)]
    b = [[rng.randrange(p) for _ in range(8)] for _ in range(4)]
    prod = [[sum(a[i][t] * b[t][j] for t in range(4)) % p for j in range(8)] for i in range(8)]
    want = minor_rank_oracle(prod, p, 5)
    assert want == 4  # the factorization caps it at 4; oracle confirms 4x4 minors
    assert rank(MatFp(p, prod)) == want


# --- kernel ------------------------------------------------------------------

def test_kernel_of_zero_map_is_everything():
    k = kernel(zeros(5, 3, 3))
    assert k.nrows == 3 and rank(k) == 3


def test_kernel_of_full_rank_square_is_empty():
    k = kernel(MatFp(5, [[1, 1], [0, 1]]))
    assert k.nrows == 0


def test_kernel_exhaustive_over_f5():
    p = 5
    a = MatFp(p, [[1, 2, 3], [0, 1, 4]])  # rank 2, kernel dim 1
    k = kernel(a)
    assert k.nrows == 1
    solutions = {
        v for v in itertools.product(range(p), repeat=3)
        if (a * column(p, list(v))).is_zero()
    }
    assert len(solutions) == p  # the kernel line
    spanned = {tuple(c * x % p for x in entries(k)[0]) for c in range(p)}
    assert spanned == solutions


# --- solve -------------------------------------------------------------------

def test_solve_zero_rhs():
    a = MatFp(7, [[1, 2], [3, 4]])
    assert solve(a, zeros(7, 2, 1)) == zeros(7, 2, 1)


def test_solve_invertible_and_resubstitute():
    rng = random.Random(5)
    p = 13
    while True:
        a = MatFp(p, [[rng.randrange(p) for _ in range(3)] for _ in range(3)])
        if rank(a) == 3:
            break
    b = random_mat(rng, p, 3, 4)
    x = solve(a, b)
    assert a * x == b


def test_solve_overdetermined_consistent():
    p = 11
    a = MatFp(p, [[1, 0], [0, 1], [1, 1], [2, 3]])
    b = a * MatFp(p, [[4, 0, 1], [9, 0, 2]])
    x = solve(a, b)
    assert a * x == b


def test_solve_reports_inconsistency():
    a = MatFp(5, [[1, 0], [1, 0]])
    assert solve(a, column(5, [1, 2])) is None
    # one unreachable column makes the whole system inconsistent
    assert solve(a, MatFp(5, [[1, 1], [1, 2]])) is None


# --- products ------------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 293, 4001])
def test_matmul_matches_triple_loop_oracle(p):
    rng = random.Random(p)
    shapes = [(0, 3, 4), (1, 1, 1), (3, 0, 2), (2, 4, 0), (1, 5, 1), (5, 1, 5)]
    shapes += [tuple(rng.randrange(1, 9) for _ in range(3)) for _ in range(20)]
    for n, m, k in shapes:
        a, b = random_mat(rng, p, n, m), random_mat(rng, p, m, k)
        prod = a * b
        assert (prod.nrows, prod.ncols) == (n, k)
        assert entries(prod) == matmul_oracle(a, b), (n, m, k)


@pytest.mark.parametrize("p", [101, 3037000507])
def test_power_takes_floor_log2_plus_popcount_minus_one_products(p, monkeypatch):
    # squaring starts at the lowest set bit of e: no product by the identity
    from eiscomp import linalg

    rng = np.random.default_rng(p % 1000)
    a = MatFp(p, rng.integers(0, 2**62, (4, 4)).astype(object))
    assert a**0 == MatFp.identity(p, 4)
    for e in (1, 2, 3, 14):
        calls = []
        real = linalg._matmul
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_matmul", lambda x, y, m: calls.append(1) or real(x, y, m))
            got = a**e
        assert len(calls) == (e.bit_length() - 1) + bin(e).count("1") - 1, e
        want = a
        for _ in range(e - 1):
            want = want * a
        assert got == want and got.a.dtype == want.a.dtype, e


def test_public_constructors_reduce_what_they_are_given():
    p = 7
    assert MatFp(p, [[-1, 8], [14, -15]]).a.tolist() == [[6, 1], [0, 6]]
    assert MatFp(p, np.array([[-1, 8]])).a.tolist() == [[6, 1]]


def test_an_empty_matrix_is_a_two_dimensional_array():
    # a (0, n) array keeps its column count; an empty nested list has none
    empty = MatFp(7, np.zeros((0, 3), dtype=np.int64))
    assert (empty.nrows, empty.ncols) == (0, 3)
    assert (empty * MatFp.identity(7, 3)) == empty
    for rows in ([], [1, 2], [[[1]]]):
        with pytest.raises(ValueError, match="entries do not form a matrix"):
            MatFp(7, rows)


def test_matmul_exact_at_the_int64_edge():
    # the largest prime with (p-1)^2 < 2^63: one product fits in int64, two do not
    p = 3037000493
    assert (p - 1) ** 2 < 2**63 <= 2 * (p - 1) ** 2
    rng = random.Random(7)
    for n in (1, 2):
        top = MatFp(p, [[p - 1] * n for _ in range(3)])
        assert entries(top * top.transpose()) == matmul_oracle(top, top.transpose())
        a, b = random_mat(rng, p, 3, n), random_mat(rng, p, n, 4)
        assert entries(a * b) == matmul_oracle(a, b)


# n inner terms of (p-1)^2 stay below 2^53 at this prime, n + 1 do not
FLOAT64_EDGE_N = 64
FLOAT64_EDGE_P = prevprime(isqrt((2**53 - 1) // FLOAT64_EDGE_N) + 2)


def object_product(a, b, p):
    """a @ b on Python integers, reduced mod p, as lists."""
    return (np.asarray(a).astype(object) @ np.asarray(b).astype(object) % p).tolist()


def test_matmul_exact_at_the_float64_edge():
    # the float64 tier takes inner size n, int64 takes n + 1; both must be exact
    n, p = FLOAT64_EDGE_N, FLOAT64_EDGE_P
    assert n * (p - 1) ** 2 < 2**53 <= (n + 1) * (p - 1) ** 2
    rng = random.Random(11)
    for w in (n, n + 1):
        top = MatFp(p, [[p - 1] * w for _ in range(3)])
        assert entries(top * top.transpose()) == matmul_oracle(top, top.transpose())
        # one p - 2 in each operand makes entry (0, 0) odd, so at n + 1 terms,
        # where it exceeds 2^53, no double holds it
        odd = top.a.copy()
        odd[0, 0] = p - 2
        a, b = MatFp(p, odd), MatFp(p, odd.T)
        assert entries(a * b) == matmul_oracle(a, b)
        # entries in (-p, 0): the sums reach -w (p-1)^2
        neg = np.full((3, w), 1 - p, dtype=np.int64)
        assert _matmul(neg, top.a.T, p).tolist() == object_product(neg, top.a.T, p)
        mixed = np.array([[-rng.randrange(1, p) for _ in range(w)] for _ in range(3)], dtype=np.int64)
        right = random_mat(rng, p, w, 4).a
        assert _matmul(mixed, right, p).tolist() == object_product(mixed, right, p)


# --- generalized eigenspace ---------------------------------------------------

def generalized_kernel_oracle(ops, dim, *, p=None):
    """The former routine: every pair checked for commutation on the whole
    space, then kernel(vstack(op^dim))."""
    mats = list(ops)
    if not mats:
        return MatFp.identity(p, dim)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i] * mats[j] != mats[j] * mats[i]:
                raise ValueError("generalized eigenspace needs commuting operators")
    return kernel(MatFp.vstack([m**dim for m in mats]))


def restriction_oracle(op, basis):
    """The former per-op restriction: one solve of B^T x = op B^T for one op."""
    bt = basis.transpose()
    x = solve(bt, op * bt)
    if x is None:
        raise ValueError("subspace is not stable under the operator")
    return x


def hecke_etas(space):
    """The generators T(l) - sigma_(k-1)(l), l in generator_primes(k), on a whole space."""
    eye = MatFp.identity(space.p, space.dim)
    return [
        hecke_matrix(space, ell) - eye.scaled(eisenstein_eigenvalue(space.p, space.k, ell))
        for ell in generator_primes(space.k)
    ]


def test_gen_eigenspace_matches_the_oracle_on_hecke_generators():
    # the hecke workload's five items at its precision, and both mirror
    # weights of every irregular pair p < 400 at the localization's; the
    # cuspidal sub-piece's etas against the whole-space etas restricted to it
    spaces = [
        miller_basis(p, k, max(sturm(k) ** 2, p * sturm(k)))
        for p, k in [(7, 300), (11, 240), (13, 180), (37, 180), (101, 96)]
    ]
    for p in primes_in(5, 399):
        for k in irregular_indices(p):
            spaces += [miller_basis(p, w, sturm(w) ** 2) for w in (k, p + 1 - k)]
    assert len(spaces) == 5 + 2 * 23
    for s in spaces:
        etas = hecke_etas(s)
        got, subs = generalized_eigenspace(etas, s.dim, p=s.p)
        assert got == generalized_kernel_oracle(etas, s.dim, p=s.p), (s.p, s.k)
        assert subs == [restriction_oracle(eta, got) for eta in etas], (s.p, s.k)
        cusp = EisLocalPiece(s.p, s.k, _matmul(got.a, s.coeffs, s.p), subs).cuspidal_subpiece()
        cusp_basis = MatFp(s.p, cusp.forms[:, : s.dim])
        assert cusp.etas == [restriction_oracle(eta, cusp_basis) for eta in etas], (s.p, s.k)


def test_gen_eigenspace_zero_op_gives_whole_space():
    z = zeros(7, 3, 3)
    assert generalized_eigenspace([z], 3, p=7)[0].nrows == 3


def test_gen_eigenspace_identity_gives_zero():
    eye = MatFp.identity(7, 3)
    assert generalized_eigenspace([eye], 3, p=7)[0].nrows == 0


def test_gen_eigenspace_jordan_block():
    j = MatFp(7, [[0, 1], [1 * 0, 0]])  # J^2 = 0
    space, _ = generalized_eigenspace([j], 2, p=7)
    assert space.nrows == 2  # whole space, while ker(J) is 1-dim
    assert kernel(j).nrows == 1


def test_gen_eigenspace_rejects_non_commuting():
    a = MatFp(5, [[0, 1], [0, 0]])
    b = MatFp(5, [[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        generalized_eigenspace([a, b], 2, p=5)


def test_gen_eigenspace_rejects_a_non_commuting_later_pair():
    # the first operator commutes with both others; only the second and third clash,
    # and on the whole space, which is the first operator's generalized kernel
    first = zeros(5, 2, 2)
    second = MatFp(5, [[0, 1], [0, 0]])
    third = MatFp(5, [[0, 0], [1, 0]])
    assert first * second == second * first and first * third == third * first
    with pytest.raises(ValueError):
        generalized_eigenspace([first, second, third], 2, p=5)


def test_gen_eigenspace_ignores_a_clash_off_the_piece():
    # 3I has generalized kernel {0}, so the common one is the zero space; the
    # clash of the other two lies off it, where only the whole-space check saw it
    ops = [MatFp.identity(5, 2).scaled(3), MatFp(5, [[0, 1], [0, 0]]), MatFp(5, [[0, 0], [1, 0]])]
    got, _ = generalized_eigenspace(ops, 2, p=5)
    assert got.nrows == 0 and got == generalized_kernel_oracle(ops[:1], 2)
    with pytest.raises(ValueError):
        generalized_kernel_oracle(ops, 2)


def test_gen_eigenspace_rejects_an_operator_that_leaves_the_first_kernel():
    # ker(a^2) is the line of e0, and b maps e0 to e1
    a = MatFp(5, [[0, 0], [0, 1]])
    b = MatFp(5, [[0, 0], [1, 0]])
    with pytest.raises(ValueError, match="not stable"):
        generalized_eigenspace([a, b], 2, p=5)


def test_gen_eigenspace_rejects_an_operator_that_leaves_a_later_kernel():
    # every op keeps the first kernel, the whole space; the second cuts it to
    # the plane of e0 and e1, which the third leaves by mapping e0 to e2
    ops = [zeros(5, 3, 3), MatFp(5, [[0, 0, 0], [0, 0, 0], [0, 0, 1]]), MatFp(5, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])]
    with pytest.raises(ValueError, match="not stable"):
        generalized_eigenspace(ops, 3, p=5)


def test_gen_eigenspace_rejects_a_clash_of_the_first_and_last_of_five():
    # every pair commutes but the first and the last, which the one product must still see
    a = MatFp(5, [[0, 1], [0, 0]])
    b = MatFp(5, [[0, 0], [1, 0]])
    z = zeros(5, 2, 2)
    ops = [a, z, z, z, b]
    clashes = [(i, j) for i in range(5) for j in range(i + 1, 5) if ops[i] * ops[j] != ops[j] * ops[i]]
    assert clashes == [(0, 4)]
    with pytest.raises(ValueError, match="commuting"):
        generalized_eigenspace(ops, 2, p=5)
    assert generalized_eigenspace([a, z, z, z, a], 2, p=5)[1] == [a, z, z, z, a]


def test_block_restriction_matches_one_solve_per_op():
    # a 2-dim span kept by every op: the block of three equals three single restrictions
    rng = random.Random(3)
    p, dim = 101, 5
    change = random_mat(rng, p, dim, dim)
    while rank(change) < dim:
        change = random_mat(rng, p, dim, dim)
    ops = []
    for _ in range(3):
        block = np.zeros((dim, dim), dtype=np.int64)
        block[:2, :2] = random_mat(rng, p, 2, 2).a
        block[2:, 2:] = random_mat(rng, p, 3, 3).a
        ops.append(change * MatFp(p, block) * inverse(change))
    # the kept span: the first two columns of change
    basis = MatFp(p, change.a.T[:2])
    assert restrict_operator(ops, basis) == [restriction_oracle(op, basis) for op in ops]
    assert restrict_operator(ops, MatFp.identity(p, dim)) == ops


def test_block_restriction_rejects_one_op_that_leaves_the_span():
    # the line of e0 is kept by 0 and 2I but not by b, which maps e0 to e1
    basis = MatFp(5, [[1, 0]])
    b = MatFp(5, [[0, 0], [1, 0]])
    keep = [zeros(5, 2, 2), MatFp.identity(5, 2).scaled(2)]
    assert restrict_operator(keep, basis) == [MatFp(5, [[0]]), MatFp(5, [[2]])]
    with pytest.raises(ValueError, match="not stable"):
        restrict_operator(keep + [b], basis)
    with pytest.raises(ValueError, match="not stable"):
        restrict_operator([b] + keep, basis)


def test_block_restriction_of_no_ops_is_empty():
    assert restrict_operator([], MatFp(5, [[1, 0]])) == []


# --- stable idempotent ---------------------------------------------------------

def test_idempotent_invertible_gives_identity():
    u = MatFp(7, [[1, 2], [3, 4]])
    assert rank(u) == 2
    assert stable_idempotent(u) == MatFp.identity(7, 2)


def test_idempotent_nilpotent_gives_zero():
    u = MatFp(7, [[0, 1], [0, 0]])
    assert stable_idempotent(u).is_zero()


def test_idempotent_block_diagonal():
    # invertible 1x1 block (+) nilpotent 2x2 block
    u = MatFp(5, [[2, 0, 0], [0, 0, 1], [0, 0, 0]])
    e = stable_idempotent(u)
    assert e == MatFp(5, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_idempotent_commutes_and_fixes_image():
    rng = random.Random(33)
    p = 11
    for _ in range(6):
        u = MatFp(p, [[rng.randrange(p) for _ in range(4)] for _ in range(4)])
        e = stable_idempotent(u)
        assert e * e == e
        assert e * u == u * e
        v = u**4
        # e acts as identity on columns of u^dim
        assert e * v == v


# --- algebra closure ------------------------------------------------------------

def test_closure_of_nothing_is_scalars():
    basis = algebra_closure([], p=7, dim=3)
    assert len(basis) == 1 and basis[0] == MatFp.identity(7, 3)


def test_closure_rejects_a_generator_off_the_given_space():
    # the wrong size, the wrong field, or a non-square matrix
    for gen in (MatFp.identity(7, 2), MatFp.identity(5, 3), MatFp(7, [[1, 0, 0]])):
        with pytest.raises(ValueError, match="does not act on the given space"):
            algebra_closure([MatFp.identity(7, 3), gen], p=7, dim=3)
    with pytest.raises(ValueError, match="does not act on the given space"):
        generalized_eigenspace([zeros(7, 3, 3), MatFp.identity(5, 3)], 3, p=7)


def test_closure_of_identity_is_scalars():
    basis = algebra_closure([MatFp.identity(7, 2)], p=7, dim=2)
    assert len(basis) == 1


def test_closure_matches_krylov_minimal_polynomial():
    # companion matrix of x^3 - x - 1 over F_7: minimal polynomial degree 3
    a = MatFp(7, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    basis = algebra_closure([a], p=7, dim=3)
    # Krylov oracle: echelon dimension of {I, A, A^2, ...} flattened
    ech = EchelonSpace(7, 9)
    power = MatFp.identity(7, 3)
    dims = 0
    for _ in range(4):
        dims += len(ech.insert(power.a.ravel()))
        power = power * a
    assert dims == ech.dim == 3
    assert len(basis) == 3


def test_closure_reduces_each_block_once(monkeypatch):
    # the identity, then one block of products per basis element: one reduce each
    calls = []
    reduce = EchelonSpace.reduce
    monkeypatch.setattr(EchelonSpace, "reduce", lambda self, v: calls.append(len(v)) or reduce(self, v))
    a = MatFp(7, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    basis = algebra_closure([a, a * a, a], p=7, dim=3)
    assert calls == [9] + [3] * len(basis)


def test_closure_is_multiplicatively_closed():
    rng = random.Random(12)
    p = 5
    d = MatFp(p, [[rng.randrange(p) if i == j else 0 for j in range(3)] for i in range(3)])
    gens = [d * d, d.scaled(3)]  # commuting pair
    basis = algebra_closure(gens, p=p, dim=3)
    ech = EchelonSpace(p, 9)
    for b in basis:
        ech.insert(b.a.ravel())
    for b in basis:
        for g in gens:
            assert not ech.reduce((b * g).a.ravel()).any()


def test_inverse_roundtrip():
    a = MatFp(13, [[2, 1, 0], [1, 1, 1], [0, 3, 5]])
    assert a * inverse(a) == MatFp.identity(13, 3)


# --- array storage against the list oracles ------------------------------------------

# int64 storage up to the largest prime with (p-1)^2 < 2^63, object storage above it
ORACLE_PRIMES = [5, 293, 4001, 3037000493, 3037000507]
EDGE_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1)]
PROPERTY = settings(max_examples=20, deadline=None, database=None, derandomize=True)


@st.composite
def row_lists(draw, p, nrows=None, ncols=None):
    """Row lists of residues, often of low rank, with edge entries 0, 1, p-1."""
    nrows = draw(st.integers(0, 6)) if nrows is None else nrows
    ncols = draw(st.integers(0, 6)) if ncols is None else ncols
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))

    def rows(n, m):
        return st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)

    if draw(st.booleans()):
        # a product of nrows x r and r x ncols factors has rank at most r
        r = draw(st.integers(0, max(nrows, ncols)))
        left, right = draw(rows(nrows, r)), draw(rows(r, ncols))
        return [[sum(x * y[j] for x, y in zip(row, right)) % p for j in range(ncols)] for row in left]
    return draw(rows(nrows, ncols))


def check_rref(p, rows, ncols):
    red, piv, rk = rref(mat(p, rows, ncols))
    want_rows, want_piv, want_rk = rref_oracle(rows, p, ncols)
    assert (entries(red), piv, rk) == (want_rows, want_piv, want_rk)


def check_arithmetic(p, a_rows, b_rows, c_rows, n, m, k, scale):
    a, b, c = mat(p, a_rows, m), mat(p, b_rows, k), mat(p, c_rows, m)
    want_dtype = np.int64 if (p - 1) ** 2 < 2**63 else object
    assert a.a.dtype == want_dtype
    assert entries(a * b) == matmul_oracle(a, b)
    assert entries(a.transpose()) == [[a_rows[i][j] for i in range(n)] for j in range(m)]
    assert entries(a - c) == [[(x - y) % p for x, y in zip(r, s)] for r, s in zip(a_rows, c_rows)]
    assert entries(a.scaled(scale)) == [[x * scale % p for x in r] for r in a_rows]


def check_echelon(p, vecs, probe, width, cuts, flat):
    """Insert vecs in blocks split at `cuts` against one-at-a-time forward reduction.

    Repeated or end cuts give empty blocks; with `flat`, one-row blocks go
    in as a single 1-D vector.
    """
    ech = EchelonSpace(p, width)
    rows, pivots = [], []
    ends = [0, *sorted(cuts), len(vecs)]
    for lo, hi in zip(ends, ends[1:]):
        block = np.array(vecs[lo:hi], dtype=object).reshape(hi - lo, width)
        got = ech.insert(block[0] if flat and hi - lo == 1 else block)
        new = []
        for v in vecs[lo:hi]:
            res = echelon_reduce_oracle(v, rows, pivots, p)
            piv = next((i for i, e in enumerate(res) if e), None)
            if piv is not None:
                rows.append([e * pow(res[piv], -1, p) % p for e in res])
                pivots.append(piv)
                new.append(rows[-1])
        assert got.shape == (len(new), width)
        assert got.tolist() == new
    assert (ech.rows.tolist(), ech.pivots) == (rows, pivots)
    assert ech.reduce(probe).tolist() == echelon_reduce_oracle(probe, rows, pivots, p)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("n, m", EDGE_SHAPES)
def test_edge_shapes_match_the_oracles(p, n, m):
    rng = random.Random(n * 7 + m)
    a_rows = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
    check_rref(p, a_rows, m)
    for k in (0, 1, 2):
        b_rows = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
        c_rows = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
        check_arithmetic(p, a_rows, b_rows, c_rows, n, m, k, rng.randrange(p))
    probe = [rng.randrange(p) for _ in range(m)]
    for cuts in ([], [0, n], [0, min(1, n), min(1, n)]):
        for flat in (False, True):
            check_echelon(p, a_rows, probe, m, cuts, flat)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@PROPERTY
@given(data=st.data())
def test_rref_matches_the_list_oracle(p, data):
    rows = data.draw(row_lists(p))
    ncols = len(rows[0]) if rows else data.draw(st.integers(0, 6))
    check_rref(p, rows, ncols)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@PROPERTY
@given(data=st.data())
def test_arithmetic_matches_the_list_oracles(p, data):
    n, m, k = (data.draw(st.integers(0, 5)) for _ in range(3))
    a_rows = data.draw(row_lists(p, n, m))
    b_rows = data.draw(row_lists(p, m, k))
    c_rows = data.draw(row_lists(p, n, m))
    check_arithmetic(p, a_rows, b_rows, c_rows, n, m, k, data.draw(st.integers(0, p - 1)))


@pytest.mark.parametrize("p", [5, 293, 4001, FLOAT64_EDGE_P, 3037000493])
@PROPERTY
@given(data=st.data())
def test_matmul_matches_the_object_product(p, data):
    # every tier of _matmul, entries in (-p, p), inner sizes on both sides of
    # the float64 bound at FLOAT64_EDGE_P
    n, k = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    inner = data.draw(st.one_of(st.integers(0, 8), st.sampled_from([FLOAT64_EDGE_N, FLOAT64_EDGE_N + 1])))
    entry = st.one_of(st.sampled_from([0, 1, p - 1, 1 - p]), st.integers(1 - p, p - 1))

    def matrix(rows, cols):
        cells = data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        return np.array(cells, dtype=np.int64).reshape(rows, cols)

    a, b = matrix(n, inner), matrix(inner, k)
    got = _matmul(a, b, p)
    assert got.dtype == np.int64 and got.shape == (n, k)
    assert got.tolist() == object_product(a, b, p)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@PROPERTY
@given(data=st.data())
def test_echelon_space_matches_forward_reduction(p, data):
    width = data.draw(st.integers(0, 6))
    vecs = data.draw(row_lists(p, None, width))
    probe = data.draw(row_lists(p, 1, width))[0]
    cuts = data.draw(st.lists(st.integers(0, len(vecs)), max_size=4))
    check_echelon(p, vecs, probe, width, cuts, data.draw(st.booleans()))


@st.composite
def commuting_gens(draw, p):
    """(dim, generators): none, polynomials in one matrix, or two diagonals; maybe one repeated."""
    dim = draw(st.integers(0, 4))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    kind = draw(st.sampled_from(["none", "poly", "diag"]))
    if kind == "none":
        return dim, []
    if kind == "poly":
        a = mat(p, draw(row_lists(p, dim, dim)), dim)
        powers = [MatFp.identity(p, dim), a, a * a, a * a * a]
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            coeffs = draw(st.lists(entry, min_size=len(powers), max_size=len(powers)))
            total = sum(m.a.astype(object) * c for m, c in zip(powers, coeffs))
            gens.append(MatFp(p, total))
    else:
        gens = []
        for _ in range(2):
            diag = draw(st.lists(entry, min_size=dim, max_size=dim))
            gens.append(mat(p, [[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)], dim))
    if draw(st.booleans()):
        gens.append(gens[0])
    return dim, gens


@st.composite
def commuting_family(draw, p):
    """(dim, ops): polynomials in one matrix, often singular, with constant
    term often 0; or block sums of upper-triangular Toeplitz blocks (a scalar
    plus a polynomial in the nilpotent shift), the scalar 0 on every op in
    the blocks drawn inside the kernel, in a random basis when one is drawn
    invertible."""
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 5))
        a = mat(p, draw(row_lists(p, dim, dim)), dim)
        powers = [MatFp.identity(p, dim), a, a * a]
        ops = []
        for _ in range(draw(st.integers(1, 3))):
            coeffs = [draw(st.one_of(st.just(0), entry))] + draw(st.lists(entry, min_size=2, max_size=2))
            ops.append(MatFp(p, sum(m.a.astype(object) * c for m, c in zip(powers, coeffs))))
        return dim, ops
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    inside = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    dim = sum(sizes)
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        op = np.zeros((dim, dim), dtype=object)
        at = 0
        for size, zero in zip(sizes, inside):
            c = [0 if zero else draw(entry)] + draw(st.lists(entry, min_size=size - 1, max_size=size - 1))
            for i in range(size):
                op[at + i, at + i : at + size] = c[: size - i]
            at += size
        ops.append(MatFp(p, op))
    change = mat(p, draw(row_lists(p, dim, dim)), dim)
    if rank(change) == dim:
        ops = [inverse(change) * op * change for op in ops]
    return dim, ops


@pytest.mark.parametrize("p", [5, 7, 491, 3037000493])
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_gen_eigenspace_matches_the_oracle_on_commuting_families(p, data):
    dim, ops = data.draw(commuting_family(p))
    assert generalized_eigenspace(ops, dim, p=p)[0] == generalized_kernel_oracle(ops, dim)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@PROPERTY
@given(data=st.data())
def test_block_closure_matches_the_one_product_oracle(p, data):
    dim, gens = data.draw(commuting_gens(p))
    got = algebra_closure(gens, p=p, dim=dim)
    assert [entries(b) for b in got] == closure_oracle(gens, p, dim)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_block_closure_edge_cases_match_the_oracle(p):
    a = MatFp(p, [[0, 1, 0], [0, 0, 1], [1, p - 1, 0]])
    cases = [
        (3, []),  # no generators: the scalars
        (0, []),  # dim 0: the empty identity inserts no row
        (0, [zeros(p, 0, 0)]),
        (1, [MatFp(p, [[p - 1]]), MatFp(p, [[2]])]),  # dim 1
        (3, [a, a * a, a, MatFp.identity(p, 3)]),  # repeated generators
    ]
    for dim, gens in cases:
        got = algebra_closure(gens, p=p, dim=dim)
        assert [entries(b) for b in got] == closure_oracle(gens, p, dim), (dim, len(gens))


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@PROPERTY
@given(data=st.data())
def test_block_reduce_matches_reducing_each_row(p, data):
    width = data.draw(st.integers(1, 6))
    vecs = data.draw(row_lists(p, None, width))
    block = data.draw(row_lists(p, None, width))
    ech = EchelonSpace(p, width)
    for v in vecs:
        ech.insert(v)
    rows, pivots = ech.rows.tolist(), ech.pivots
    got = ech.reduce(np.array(block, dtype=object).reshape(len(block), width))
    assert got.shape == (len(block), width)
    assert got.tolist() == [ech.reduce(v).tolist() for v in block]
    assert got.tolist() == [echelon_reduce_oracle(v, rows, pivots, p) for v in block]
