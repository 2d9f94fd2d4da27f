"""Hecke operators, duality, T(p)'s stable idempotent, Eisenstein localization."""

import random
from math import gcd

import numpy as np
import pytest

from eiscomp import hecke, linalg
from eiscomp.errors import PrecisionError
from eiscomp.hecke import (
    duality_pairing_matrix,
    eisenstein_localize,
    full_hecke_algebra,
    generator_primes,
    hecke_action,
    hecke_matrix,
    hecke_report,
    t_p_redundancy_check,
)
from eiscomp.linalg import MatFp, _residues, algebra_closure, generalized_eigenspace, rank, rref, solve, stable_idempotent
from eiscomp.qexp import (
    delta_q,
    membership,
    miller_basis,
    sturm,
)

from oracles import eisenstein_eigenvalue, eisenstein_q, generators, localize, ordinary_dim


def working_space(p, k, *, with_tp=False):
    prec = max(sturm(k) ** 2, 2)
    if with_tp:
        prec = max(prec, p * sturm(k))
    return miller_basis(p, k, prec)


def algebra(s, k, p):
    """full_hecke_algebra of the weight-k generators on the basis s."""
    return full_hecke_algebra(generators(s, k, p), p, len(s))


# --- coefficient action -------------------------------------------------------

def test_t1_is_identity():
    d = delta_q(11, 20)
    assert np.array_equal(hecke_action(d, 1, 12, 11), d)


def test_eisenstein_is_simultaneous_eigenform():
    e = eisenstein_q(13, 16, 60)
    for n in (2, 3, 4, 5, 6, 12):
        img = hecke_action(e, n, 16, 13)
        lam = eisenstein_eigenvalue(13, 16, n)
        assert img.tolist() == [lam * c % 13 for c in e[: len(img)]]


def test_delta_t2_eigenvalue_is_tau2():
    # tau(2) = -24, from the integer expansion of the discriminant
    for p in (11, 101):
        d = delta_q(p, 40)
        img = hecke_action(d, 2, 12, p)
        assert img.tolist() == [(-24) * c % p for c in d[: len(img)]]


def test_action_precision_contract():
    img = hecke_action(np.arange(10), 3, 12, 7)
    assert len(img) == 4  # (10-1)//3 + 1
    with pytest.raises(ValueError, match="index must be positive"):
        hecke_action(np.arange(10), 0, 12, 7)


def hecke_action_oracle(f, n, k, m):
    """The former per-coefficient divisor sum a(i; f|T(n)) = sum d^(k-1) a(in/d^2), f a list mod m."""
    out = []
    for i in range((len(f) - 1) // n + 1 if f else 0):
        g = gcd(i, n) if i else n
        out.append(sum(pow(d, k - 1, m) * f[i * n // (d * d)] for d in range(1, g + 1) if g % d == 0) % m)
    return out


# digits 1 at three primes, and both sides of the int64 storage bound: the
# largest prime p with (p-1)^2 < 2^63, the next prime, 5^13 and 5^14
@pytest.mark.parametrize(
    "p,digits", [(5, 1), (11, 1), (293, 1), (3037000493, 1), (3037000507, 1), (5, 13), (5, 14)]
)
def test_action_matches_the_per_coefficient_oracle(p, digits):
    rng = random.Random(p + digits)
    m = p**digits
    for prec in (0, 1, 2, 17, 40):
        coeffs = [m - 1] * prec if prec == 40 else [rng.randrange(m) for _ in range(prec)]
        k = rng.randrange(4, 400, 2)
        for n in range(1, 13):
            assert hecke_action(_residues(m, coeffs), n, k, m).tolist() == hecke_action_oracle(coeffs, n, k, m), (prec, n)


@pytest.mark.parametrize("p,k", [(5, 60), (11, 48), (293, 36)])
def test_matrix_matches_the_oracle_images(p, k):
    s = working_space(p, k)
    for n in generator_primes(k):
        cols = []
        for row in s.tolist():
            cols.append(membership(_residues(p, hecke_action_oracle(row, n, k, p)), s, k, p))
        assert hecke_matrix(s, n, k, p) == MatFp(p, cols).transpose()


def test_matrix_rejects_an_image_outside_the_space():
    s = working_space(11, 48)
    bad = s.copy()
    bad[1, len(s)] = (bad[1, len(s)] + 1) % 11  # row 1 is no longer a form
    with pytest.raises(AssertionError, match="left M_48"):
        hecke_matrix(bad, 2, 48, 11)


# --- matrices -------------------------------------------------------------------

def test_matrix_t1_identity():
    s = working_space(11, 24)
    assert hecke_matrix(s, 1, 24, 11) == MatFp.identity(11, len(s))


def test_weight12_matrix_eigenvalues():
    # characteristic polynomial oracle: eigenvalues sigma_11(2) and tau(2)
    p = 13
    s = working_space(p, 12)
    m = hecke_matrix(s, 2, 12, p)
    (a, b), (c, d) = m.a.tolist()
    trace = (a + d) % p
    det = (a * d - b * c) % p
    lam1 = eisenstein_eigenvalue(p, 12, 2)
    lam2 = (-24) % p
    assert trace == (lam1 + lam2) % p
    assert det == lam1 * lam2 % p


def test_weight4_matrix_is_scalar_sigma():
    s = working_space(7, 4)
    for n in (2, 3):
        prec_needed = n * sturm(4)
        sp = miller_basis(7, 4, prec_needed)
        m = hecke_matrix(sp, n, 4, 7)
        assert m.a.tolist() == [[eisenstein_eigenvalue(7, 4, n)]]


def test_matrix_needs_precision():
    s = miller_basis(11, 36, sturm(36))
    with pytest.raises(PrecisionError):
        hecke_matrix(s, 2, 36, 11)


def test_commutativity_and_multiplicativity():
    rng = random.Random(2)
    for (p, k) in ((11, 24), (13, 36), (37, 32)):
        prec = 6 * sturm(k)
        s = miller_basis(p, k, prec)
        t = {n: hecke_matrix(s, n, k, p) for n in (2, 3, 4, 6)}
        assert t[2] * t[3] == t[3] * t[2]
        assert t[6] == t[2] * t[3]  # gcd(2,3) = 1
        # prime-power recursion: T(4) = T(2)^2 - 2^(k-1) T(1)
        eye = MatFp.identity(p, len(s))
        assert t[4] == t[2] * t[2] - eye.scaled(pow(2, k - 1, p))


def test_generator_primes():
    assert generator_primes(4) == []  # sturm(4) = 1
    assert generator_primes(12) == [2]
    assert generator_primes(300) == [2, 3, 5, 7, 11, 13, 17, 19, 23]


def row_space(mats):
    """Reduced echelon rows of the span of equally sized matrices, flattened."""
    red, _, rk = rref(MatFp(mats[0].p, [m.a.ravel() for m in mats]))
    return red.a[:rk].tolist()


PRIME_GENERATION_CASES = [(7, 300), (37, 180), (37, 32), (59, 44), (11, 120), (13, 156)]


@pytest.mark.parametrize("p, k", PRIME_GENERATION_CASES)
def test_prime_generators_span_the_full_algebra(p, k):
    s = working_space(p, k)
    every_n = [hecke_matrix(s, n, k, p) for n in range(2, sturm(k) + 1)]
    from_all = algebra_closure(every_n, p=p, dim=len(s))
    assert row_space(algebra(s, k, p)) == row_space(from_all)


@pytest.mark.parametrize("p, k", PRIME_GENERATION_CASES)
def test_prime_generators_cut_out_the_same_eisenstein_piece(p, k):
    s = working_space(p, k)
    eye = MatFp.identity(p, len(s))
    etas = [
        hecke_matrix(s, n, k, p) - eye.scaled(eisenstein_eigenvalue(p, k, n))
        for n in range(2, sturm(k) + 1)
    ]
    from_all, _ = generalized_eigenspace(etas, len(s), p=p)
    piece = localize(s, k, p)
    assert len(piece.etas) == len(generator_primes(k))
    assert row_space([MatFp(p, piece.forms[:, : len(s)])]) == row_space([from_all])


# --- duality ----------------------------------------------------------------------

def test_duality_dim1_nonzero():
    s = working_space(7, 4)
    alg = algebra(s, 4, 7)
    mat, rk = duality_pairing_matrix(s, alg, 7)
    assert rk == 1


def test_duality_weight12_rank2():
    s = working_space(11, 12)
    alg = algebra(s, 12, 11)
    _, rk = duality_pairing_matrix(s, alg, 11)
    assert rk == 2 == len(s) == len(alg)


@pytest.mark.parametrize("p, k", [(11, 36), (5, 48)])
def test_duality_matrix_stacks_one_product_per_algebra_element(p, k):
    s = working_space(p, k)
    alg = algebra(s, k, p)
    a1 = MatFp(p, s[:, 1:2].T)
    mat, rk = duality_pairing_matrix(s, alg, p)
    assert mat == MatFp.vstack([a1 * t for t in alg])
    assert rk == rank(mat)


def test_duality_excluded_weight_reported_not_asserted():
    # k = 0 mod p-1: the pairing may degenerate; rank is only reported
    s = working_space(5, 8)
    alg = algebra(s, 8, 5)
    _, rk = duality_pairing_matrix(s, alg, 5)
    assert 0 <= rk <= len(s)


# --- ordinary projector --------------------------------------------------------------

def test_ordinary_projector_fixes_eisenstein():
    p, k = 11, 16
    s = working_space(p, k, with_tp=True)
    e = eisenstein_q(p, k, s.shape[1])
    coords = membership(e, s, k, p)
    proj = stable_idempotent(hecke_matrix(s, p, k, p))
    col = MatFp(p, [coords]).transpose()
    assert proj * col == col  # unit T(p)-eigenvalue 1 + p^(k-1)


def test_ordinary_projector_commutes_with_hecke():
    p, k = 13, 24
    s = working_space(p, k, with_tp=True)
    proj = stable_idempotent(hecke_matrix(s, p, k, p))
    for n in (2, 3):
        assert proj * hecke_matrix(s, n, k, p) == hecke_matrix(s, n, k, p) * proj


def test_ordinary_dims_weight_stability_sample():
    for p in (11, 13):
        for k in (4, 8, 12, 16):
            assert ordinary_dim(p, k) == ordinary_dim(p, k + p - 1)
            # the report's rank of T(p)^dim against the oracle's stable idempotent
            assert hecke_report(p, k)["ordinary_dim"] == ordinary_dim(p, k), (p, k)


# --- localization ----------------------------------------------------------------------

def test_regular_piece_is_eisenstein_line():
    s = working_space(37, 4)
    piece = localize(s, 4, 37)
    assert piece.dim == 1
    e = eisenstein_q(37, 4, s.shape[1])
    assert solve(MatFp(37, piece.forms).transpose(), MatFp(37, [e]).transpose()) is not None


def test_irregular_piece_is_bigger():
    s = working_space(37, 32)
    piece = localize(s, 32, 37)
    assert piece.dim == 2
    e = eisenstein_q(37, 32, s.shape[1])
    assert solve(MatFp(37, piece.forms).transpose(), MatFp(37, [e]).transpose()) is not None
    # eta(2) restricted is nilpotent nonzero: a genuine non-semisimple block
    eta = piece.etas[0]  # generator_primes(32) == [2, 3]
    assert not eta.is_zero()
    assert (eta * eta).is_zero()


def test_piece_has_no_pure_constant():
    # no element of the piece has a(n) = 0 for all n >= 1 but a(0) != 0:
    # solve for all piece elements vanishing past a(0) and inspect them
    from eiscomp.linalg import kernel

    for (p, k) in ((37, 32), (59, 44), (131, 22)):
        s = working_space(p, k)
        piece = localize(s, k, p)
        flat = kernel(MatFp(p, piece.forms[:, 1:]).transpose())
        assert not (flat * MatFp(p, piece.forms)).a[:, 0].any()


def test_localization_raises_one_full_matrix_to_a_power(monkeypatch):
    # only the first generator is powered on the whole space; the other
    # generalized kernels and the nilpotency checks run on restrictions
    s = miller_basis(491, 292, sturm(292) ** 2)
    assert (len(s), len(generator_primes(292))) == (25, 9)
    gens = generators(s, 292, 491)
    sizes = []
    power = MatFp.__pow__
    monkeypatch.setattr(MatFp, "__pow__", lambda self, e: sizes.append(self.nrows) or power(self, e))
    piece = eisenstein_localize(s, gens, 292, 491)
    assert sizes[0] == len(s) and sizes.count(len(s)) == 1
    assert max(sizes[1:]) < len(s) and piece.dim == 2


def test_localization_and_cuspidal_subpiece_make_one_solve_each(monkeypatch):
    # at (491,292) the first generator's kernel is already the piece: one block
    # restriction of all nine etas, and one of the piece's etas to the cuspidal part
    s = miller_basis(491, 292, sturm(292) ** 2)
    gens = generators(s, 292, 491)
    calls = []
    real = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda a, b: calls.append(b.ncols) or real(a, b))
    piece = eisenstein_localize(s, gens, 292, 491)
    cusp = piece.cuspidal_subpiece()
    assert (piece.dim, cusp.dim, len(piece.etas)) == (2, 1, 9)
    assert calls == [9 * 2, 9 * 1]


def test_cuspidal_subpiece_dims():
    s = working_space(37, 32)
    piece = localize(s, 32, 37)
    cusp = piece.cuspidal_subpiece()
    assert cusp.dim == 1
    assert piece.dim - 1 == cusp.dim
    assert not cusp.forms[:, 0].any()


def test_localized_eigensystem_multiplicativity():
    def lam(n):
        return eisenstein_eigenvalue(11, 16, n)

    assert lam(6) == lam(2) * lam(3) % 11
    assert lam(5) == (1 + pow(5, 15, 11)) % 11


# --- prime-to-p generation --------------------------------------------------------------

def test_tp_redundancy_dim1():
    s = working_space(11, 4, with_tp=True)
    r = tp_check(s, 4, 11)
    assert r.checked and r.redundant


def test_tp_redundancy_weight12_p11():
    # k = 12 exceeds p - 2 = 9 for p = 11: out of the lemma's range
    s = working_space(11, 12, with_tp=True)
    r = tp_check(s, 12, 11)
    assert not r.checked and r.redundant is None


def tp_check(s, k, p):
    """t_p_redundancy_check on the weight-k algebra and T(p), both read on the basis s."""
    return t_p_redundancy_check(algebra(s, k, p), hecke.hecke_matrix(s, p, k, p), k, p)


def tp_redundancy_oracle(s, k, p):
    """The former check: the closure of the prime-to-p T(l) against the same plus T(p)."""
    prime_to_p = [hecke.hecke_matrix(s, ell, k, p) for ell in generator_primes(k) if ell != p]
    without = algebra_closure(prime_to_p, p=p, dim=len(s))
    with_tp = algebra_closure(prime_to_p + [hecke.hecke_matrix(s, p, k, p)], p=p, dim=len(s))
    return len(without) == len(with_tp)


def test_tp_redundancy_matches_the_two_closure_oracle():
    # the pairs of acceptance criterion 6
    for p in (11, 13, 37):
        for k in range(4, p - 1, 2):
            s = working_space(p, k, with_tp=True)
            r = tp_check(s, k, p)
            assert r.checked and r.redundant == tp_redundancy_oracle(s, k, p), (p, k)


def test_tp_redundancy_sees_an_operator_outside_the_algebra(monkeypatch):
    p = 37
    s = working_space(p, 32, with_tp=True)
    outside = MatFp(p, np.arange(len(s) ** 2).reshape(len(s), len(s)))
    real = hecke.hecke_matrix
    monkeypatch.setattr(hecke, "hecke_matrix", lambda s, n, k, p: outside if n == p else real(s, n, k, p))
    assert tp_redundancy_oracle(s, 32, p) is False
    r = tp_check(s, 32, p)
    assert r.checked and r.redundant is False


def test_tp_redundancy_in_range_sample():
    for (p, k) in ((13, 10), (37, 12), (37, 32)):
        s = working_space(p, k, with_tp=True)
        r = tp_check(s, k, p)
        assert r.checked and r.redundant, (p, k)


# --- report ---------------------------------------------------------------------------

def test_hecke_report_shape():
    rep = hecke_report(37, 32)
    assert rep["dim"] == 3
    assert rep["eis_local_dim"] == 2
    assert rep["duality_rank"] == 3
    assert rep["tp_redundant"] is True
    assert set(rep) >= {"dim", "eis_local_dim", "ordinary_dim", "duality_rank", "tp_redundant"}


def spy_on_hecke_action(monkeypatch):
    """List that collects (n, k, columns) for every hecke.hecke_action call."""
    images = []
    real = hecke.hecke_action

    def spy(a, n, k, modulus):
        images.append((n, k, a.shape[-1]))
        return real(a, n, k, modulus)

    monkeypatch.setattr(hecke, "hecke_action", spy)
    return images


def test_hecke_matrix_built_once_per_space(monkeypatch):
    # hecke_report builds T(2), T(3) and T(37) once each, on its whole basis, and
    # passes them to the closure, the localization, the redundancy check and the
    # ordinary rank; at p <= sturm(k) T(p) is one of the generators and is not
    # built again
    images = spy_on_hecke_action(monkeypatch)
    rep = hecke_report(37, 32)
    assert [n for n, _, _ in images] == generator_primes(32) + [37]
    assert {cols for _, _, cols in images} == {rep["precision"]}
    images.clear()
    hecke_report(5, 60)  # T(5) is a generator, and serves as T(p) too
    assert [n for n, _, _ in images] == generator_primes(60) == [2, 3, 5]
    # the precision check runs before any image is made
    s = working_space(13, 36)
    images.clear()
    with pytest.raises(PrecisionError):
        hecke_matrix(s, 4 * s.shape[1], 36, 13)
    assert images == []


def test_a_shorter_view_shares_the_hecke_matrices_of_the_kept_build(monkeypatch):
    # T(5) at weight 32 needs 5 * sturm(32) = 15 coefficients: a column view of 14
    # of the build of 40 raises, and a view of 15 reads the matrix of the whole
    # build and of a cold build of 15
    p, k, n = 37, 32, 5
    full = miller_basis(p, k, 40)
    t5 = hecke_matrix(full, n, k, p)
    with pytest.raises(PrecisionError):
        hecke_matrix(full[:, : n * sturm(k) - 1], n, k, p)
    assert np.array_equal(hecke_matrix(full[:, : n * sturm(k)], n, k, p).a, t5.a)
    assert np.array_equal(hecke_matrix(miller_basis(p, k, n * sturm(k)), n, k, p).a, t5.a)
    # a pair reads T(2), T(3) on the sturm(32)^2 = 9 columns they need of its 24
    # (weight 6 has no generator), and the localization takes the generators the
    # algebra was closed from, so it builds none again
    from eiscomp.companions import localized_pieces

    images = spy_on_hecke_action(monkeypatch)
    localized_pieces(p, k)
    assert images == [(ell, k, sturm(k) ** 2) for ell in generator_primes(k)]
    images.clear()
    gens = [hecke_matrix(full, ell, k, p) for ell in generator_primes(k)]
    full_hecke_algebra(gens, p, len(full))
    piece = eisenstein_localize(full, gens, k, p)
    assert [n for n, _, _ in images] == generator_primes(k) == [2, 3]
    assert piece.forms.shape == (piece.dim, full.shape[1])
