"""Dense F_p linear algebra against brute-force oracles."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiscomp.linalg import (
    EchelonSpace,
    MatFp,
    algebra_closure,
    generalized_eigenspace,
    inverse,
    kernel,
    rank,
    rref,
    solve,
    stable_idempotent,
)


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


def random_mat(rng, p, nrows, ncols):
    return MatFp(p, [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)], ncols)


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


def test_matmul_exact_at_the_int64_edge():
    # the largest prime with (p-1)^2 < 2^63: one product fits in int64, two do not
    p = 3037000493
    assert (p - 1) ** 2 < 2**63 <= 2 * (p - 1) ** 2
    rng = random.Random(7)
    for n in (1, 2):
        top = MatFp(p, [[p - 1] * n for _ in range(3)], n)
        assert entries(top * top.transpose()) == matmul_oracle(top, top.transpose())
        a, b = random_mat(rng, p, 3, n), random_mat(rng, p, n, 4)
        assert entries(a * b) == matmul_oracle(a, b)


# --- generalized eigenspace ---------------------------------------------------

def test_gen_eigenspace_zero_op_gives_whole_space():
    z = zeros(7, 3, 3)
    assert generalized_eigenspace([z], 3).nrows == 3


def test_gen_eigenspace_identity_gives_zero():
    eye = MatFp.identity(7, 3)
    assert generalized_eigenspace([eye], 3).nrows == 0


def test_gen_eigenspace_jordan_block():
    j = MatFp(7, [[0, 1], [1 * 0, 0]])  # J^2 = 0
    space = generalized_eigenspace([j], 2)
    assert space.nrows == 2  # whole space, while ker(J) is 1-dim
    assert kernel(j).nrows == 1


def test_gen_eigenspace_rejects_non_commuting():
    a = MatFp(5, [[0, 1], [0, 0]])
    b = MatFp(5, [[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        generalized_eigenspace([a, b], 2)


def test_gen_eigenspace_rejects_a_non_commuting_later_pair():
    # the first operator commutes with both others; only the second and third clash
    first = MatFp.identity(5, 2).scaled(3)
    second = MatFp(5, [[0, 1], [0, 0]])
    third = MatFp(5, [[0, 0], [1, 0]])
    assert first.commutes_with(second) and first.commutes_with(third)
    with pytest.raises(ValueError):
        generalized_eigenspace([first, second, third], 2)


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


def test_closure_of_identity_is_scalars():
    basis = algebra_closure([MatFp.identity(7, 2)])
    assert len(basis) == 1


def test_closure_matches_krylov_minimal_polynomial():
    # companion matrix of x^3 - x - 1 over F_7: minimal polynomial degree 3
    a = MatFp(7, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    basis = algebra_closure([a])
    # Krylov oracle: echelon dimension of {I, A, A^2, ...} flattened
    ech = EchelonSpace(7, 9)
    power = MatFp.identity(7, 3)
    dims = 0
    for _ in range(4):
        if ech.insert(power.a.ravel()) is not None:
            dims += 1
        power = power * a
    assert dims == 3
    assert len(basis) == 3


def test_closure_is_multiplicatively_closed():
    rng = random.Random(12)
    p = 5
    d = MatFp(p, [[rng.randrange(p) if i == j else 0 for j in range(3)] for i in range(3)])
    gens = [d * d, d.scaled(3)]  # commuting pair
    basis = algebra_closure(gens)
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
    red, piv, rk = rref(MatFp(p, rows, ncols))
    want_rows, want_piv, want_rk = rref_oracle(rows, p, ncols)
    assert (entries(red), piv, rk) == (want_rows, want_piv, want_rk)


def check_arithmetic(p, a_rows, b_rows, c_rows, n, m, k, scale):
    a, b, c = MatFp(p, a_rows, m), MatFp(p, b_rows, k), MatFp(p, c_rows, m)
    want_dtype = np.int64 if (p - 1) ** 2 < 2**63 else object
    assert a.a.dtype == want_dtype
    assert entries(a * b) == matmul_oracle(a, b)
    assert entries(a.transpose()) == [[a_rows[i][j] for i in range(n)] for j in range(m)]
    assert entries(a - c) == [[(x - y) % p for x, y in zip(r, s)] for r, s in zip(a_rows, c_rows)]
    assert entries(a.scaled(scale)) == [[x * scale % p for x in r] for r in a_rows]


def check_echelon(p, vecs, probe, width):
    ech = EchelonSpace(p, width)
    rows, pivots = [], []
    for v in vecs:
        got = ech.insert(v)
        res = echelon_reduce_oracle(v, rows, pivots, p)
        piv = next((i for i, e in enumerate(res) if e), None)
        if piv is None:
            assert got is None
            continue
        rows.append([e * pow(res[piv], -1, p) % p for e in res])
        pivots.append(piv)
        assert got.tolist() == rows[-1]
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
    check_echelon(p, a_rows, probe, m)


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


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@PROPERTY
@given(data=st.data())
def test_echelon_space_matches_forward_reduction(p, data):
    width = data.draw(st.integers(1, 6))
    vecs = data.draw(row_lists(p, None, width))
    probe = data.draw(row_lists(p, 1, width))[0]
    check_echelon(p, vecs, probe, width)
