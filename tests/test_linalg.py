"""Dense F_p linear algebra against brute-force oracles."""

import itertools
import random

import pytest

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
    return [
        [sum(a.rows[i][t] * b.rows[t][j] for t in range(a.ncols)) % p for j in range(b.ncols)]
        for i in range(a.nrows)
    ]


def random_mat(rng, p, nrows, ncols):
    return MatFp(p, [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)], ncols)


# --- rref / rank -------------------------------------------------------------

def test_rref_identity_and_zero():
    p = 7
    eye = MatFp.identity(p, 4)
    r, piv, rk = rref(eye)
    assert r == eye and piv == [0, 1, 2, 3] and rk == 4
    z = MatFp.zeros(p, 3, 5)
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
    k = kernel(MatFp.zeros(5, 3, 3))
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
        if all(x == 0 for x in a.apply(list(v)))
    }
    assert len(solutions) == p  # the kernel line
    spanned = {tuple(c * x % p for x in k.rows[0]) for c in range(p)}
    assert spanned == solutions


# --- solve -------------------------------------------------------------------

def test_solve_zero_rhs():
    a = MatFp(7, [[1, 2], [3, 4]])
    assert solve(a, [0, 0]) == [0, 0]


def test_solve_invertible_and_resubstitute():
    rng = random.Random(5)
    p = 13
    while True:
        a = MatFp(p, [[rng.randrange(p) for _ in range(3)] for _ in range(3)])
        if rank(a) == 3:
            break
    b = [rng.randrange(p) for _ in range(3)]
    x = solve(a, b)
    assert a.apply(x) == b


def test_solve_overdetermined_consistent():
    p = 11
    a = MatFp(p, [[1, 0], [0, 1], [1, 1], [2, 3]])
    x0 = [4, 9]
    b = a.apply(x0)
    x = solve(a, b)
    assert a.apply(x) == b


def test_solve_reports_inconsistency():
    a = MatFp(5, [[1, 0], [1, 0]])
    assert solve(a, [1, 2]) is None


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
        assert prod.rows == matmul_oracle(a, b), (n, m, k)


def test_matmul_exact_at_the_int64_edge():
    # the largest prime with (p-1)^2 < 2^63: one product fits in int64, two do not
    p = 3037000493
    assert (p - 1) ** 2 < 2**63 <= 2 * (p - 1) ** 2
    rng = random.Random(7)
    for n in (1, 2):
        top = MatFp(p, [[p - 1] * n for _ in range(3)], n)
        assert (top * top.transpose()).rows == matmul_oracle(top, top.transpose())
        a, b = random_mat(rng, p, 3, n), random_mat(rng, p, n, 4)
        assert (a * b).rows == matmul_oracle(a, b)


# --- generalized eigenspace ---------------------------------------------------

def test_gen_eigenspace_zero_op_gives_whole_space():
    z = MatFp.zeros(7, 3, 3)
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
        if ech.insert(power.flat()) is not None:
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
        ech.insert(b.flat())
    for b in basis:
        for g in gens:
            assert ech.contains((b * g).flat())


def test_inverse_roundtrip():
    a = MatFp(13, [[2, 1, 0], [1, 1, 1], [0, 3, 5]])
    assert a * inverse(a) == MatFp.identity(13, 3)
