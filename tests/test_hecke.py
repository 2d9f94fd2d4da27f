"""Hecke operators, duality, T(p)'s stable idempotent, Eisenstein localization."""

import random
from dataclasses import replace
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
    FormSpace,
    delta_q,
    membership,
    miller_basis,
    sturm,
)

from oracles import eisenstein_eigenvalue, eisenstein_q, ordinary_dim


def working_space(p, k, *, with_tp=False):
    prec = max(sturm(k) ** 2, 2)
    if with_tp:
        prec = max(prec, p * sturm(k))
    return miller_basis(p, k, prec)


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
        for row in s.coeffs.tolist():
            cols.append(membership(_residues(p, hecke_action_oracle(row, n, k, p)), s))
        assert hecke_matrix(s, n) == MatFp(p, cols).transpose()


def test_matrix_rejects_an_image_outside_the_space():
    s = working_space(11, 48)
    coeffs = s.coeffs.copy()
    coeffs[1, s.dim] = (coeffs[1, s.dim] + 1) % 11  # row 1 is no longer a form
    bad = FormSpace(p=11, digits=1, k=48, coeffs=coeffs)
    with pytest.raises(AssertionError, match="left M_48"):
        hecke_matrix(bad, 2)


# --- matrices -------------------------------------------------------------------

def test_matrix_t1_identity():
    s = working_space(11, 24)
    assert hecke_matrix(s, 1) == MatFp.identity(11, s.dim)


def test_weight12_matrix_eigenvalues():
    # characteristic polynomial oracle: eigenvalues sigma_11(2) and tau(2)
    p = 13
    s = working_space(p, 12)
    m = hecke_matrix(s, 2)
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
        m = hecke_matrix(sp, n)
        assert m.a.tolist() == [[eisenstein_eigenvalue(7, 4, n)]]


def test_matrix_needs_precision():
    s = miller_basis(11, 36, sturm(36))
    with pytest.raises(PrecisionError):
        hecke_matrix(s, 2)


def test_commutativity_and_multiplicativity():
    rng = random.Random(2)
    for (p, k) in ((11, 24), (13, 36), (37, 32)):
        prec = 6 * sturm(k)
        s = miller_basis(p, k, prec)
        t = {n: hecke_matrix(s, n) for n in (2, 3, 4, 6)}
        assert t[2] * t[3] == t[3] * t[2]
        assert t[6] == t[2] * t[3]  # gcd(2,3) = 1
        # prime-power recursion: T(4) = T(2)^2 - 2^(k-1) T(1)
        eye = MatFp.identity(p, s.dim)
        assert t[4] == t[2] * t[2] - eye.scaled(pow(2, k - 1, p))


def test_generator_primes():
    assert generator_primes(4) == []  # sturm(4) = 1
    assert generator_primes(12) == [2]
    assert generator_primes(300) == [2, 3, 5, 7, 11, 13, 17, 19, 23]


def test_hecke_matrix_built_once_per_space():
    s = working_space(13, 36)
    assert hecke_matrix(s, 3) is hecke_matrix(s, 3)
    # the precision check runs before the lookup: a planted entry cannot bypass it
    n = 4 * s.prec
    s.hecke_matrices[n] = MatFp.identity(13, s.dim)
    try:
        with pytest.raises(PrecisionError):
            hecke_matrix(s, n)
    finally:
        del s.hecke_matrices[n]


def row_space(mats):
    """Reduced echelon rows of the span of equally sized matrices, flattened."""
    red, _, rk = rref(MatFp(mats[0].p, [m.a.ravel() for m in mats]))
    return red.a[:rk].tolist()


PRIME_GENERATION_CASES = [(7, 300), (37, 180), (37, 32), (59, 44), (11, 120), (13, 156)]


@pytest.mark.parametrize("p, k", PRIME_GENERATION_CASES)
def test_prime_generators_span_the_full_algebra(p, k):
    s = working_space(p, k)
    every_n = [hecke_matrix(s, n) for n in range(2, sturm(k) + 1)]
    from_all = algebra_closure(every_n, p=p, dim=s.dim)
    assert row_space(full_hecke_algebra(s)) == row_space(from_all)


@pytest.mark.parametrize("p, k", PRIME_GENERATION_CASES)
def test_prime_generators_cut_out_the_same_eisenstein_piece(p, k):
    s = working_space(p, k)
    eye = MatFp.identity(p, s.dim)
    etas = [
        hecke_matrix(s, n) - eye.scaled(eisenstein_eigenvalue(p, k, n))
        for n in range(2, sturm(k) + 1)
    ]
    from_all, _ = generalized_eigenspace(etas, s.dim, p=p)
    piece = eisenstein_localize(s)
    assert len(piece.etas) == len(generator_primes(k))
    assert row_space([MatFp(p, piece.forms[:, : s.dim])]) == row_space([from_all])


# --- duality ----------------------------------------------------------------------

def test_duality_dim1_nonzero():
    s = working_space(7, 4)
    alg = full_hecke_algebra(s)
    mat, rk = duality_pairing_matrix(s, alg)
    assert rk == 1


def test_duality_weight12_rank2():
    s = working_space(11, 12)
    alg = full_hecke_algebra(s)
    _, rk = duality_pairing_matrix(s, alg)
    assert rk == 2 == s.dim == len(alg)


@pytest.mark.parametrize("p, k", [(11, 36), (5, 48)])
def test_duality_matrix_stacks_one_product_per_algebra_element(p, k):
    s = working_space(p, k)
    alg = full_hecke_algebra(s)
    a1 = MatFp(p, s.coeffs[:, 1:2].T)
    mat, rk = duality_pairing_matrix(s, alg)
    assert mat == MatFp.vstack([a1 * t for t in alg])
    assert rk == rank(mat)


def test_duality_excluded_weight_reported_not_asserted():
    # k = 0 mod p-1: the pairing may degenerate; rank is only reported
    s = working_space(5, 8)
    alg = full_hecke_algebra(s)
    _, rk = duality_pairing_matrix(s, alg)
    assert 0 <= rk <= s.dim


# --- ordinary projector --------------------------------------------------------------

def test_ordinary_projector_fixes_eisenstein():
    p, k = 11, 16
    s = working_space(p, k, with_tp=True)
    e = eisenstein_q(p, k, s.prec)
    coords = membership(e, s)
    proj = stable_idempotent(hecke_matrix(s, p))
    col = MatFp(p, [coords]).transpose()
    assert proj * col == col  # unit T(p)-eigenvalue 1 + p^(k-1)


def test_ordinary_projector_commutes_with_hecke():
    p, k = 13, 24
    s = working_space(p, k, with_tp=True)
    proj = stable_idempotent(hecke_matrix(s, p))
    for n in (2, 3):
        assert proj * hecke_matrix(s, n) == hecke_matrix(s, n) * proj


def test_ordinary_dims_weight_stability_sample():
    for p in (11, 13):
        for k in (4, 8, 12, 16):
            assert ordinary_dim(p, k) == ordinary_dim(p, k + p - 1)
            # the report's rank of T(p)^dim against the oracle's stable idempotent
            assert hecke_report(p, k)["ordinary_dim"] == ordinary_dim(p, k), (p, k)


# --- localization ----------------------------------------------------------------------

def test_regular_piece_is_eisenstein_line():
    s = working_space(37, 4)
    piece = eisenstein_localize(s)
    assert piece.dim == 1
    e = eisenstein_q(37, 4, s.prec)
    assert solve(MatFp(37, piece.forms).transpose(), MatFp(37, [e]).transpose()) is not None


def test_irregular_piece_is_bigger():
    s = working_space(37, 32)
    piece = eisenstein_localize(s)
    assert piece.dim == 2
    e = eisenstein_q(37, 32, s.prec)
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
        piece = eisenstein_localize(s)
        flat = kernel(MatFp(p, piece.forms[:, 1:]).transpose())
        assert not (flat * MatFp(p, piece.forms)).a[:, 0].any()


def test_localization_raises_one_full_matrix_to_a_power(monkeypatch):
    # only the first generator is powered on the whole space; the other
    # generalized kernels and the nilpotency checks run on restrictions
    s = miller_basis(491, 292, sturm(292) ** 2)
    assert (s.dim, len(generator_primes(292))) == (25, 9)
    sizes = []
    power = MatFp.__pow__
    monkeypatch.setattr(MatFp, "__pow__", lambda self, e: sizes.append(self.nrows) or power(self, e))
    piece = eisenstein_localize(s)
    assert sizes[0] == s.dim and sizes.count(s.dim) == 1
    assert max(sizes[1:]) < s.dim and piece.dim == 2


def test_localization_and_cuspidal_subpiece_make_one_solve_each(monkeypatch):
    # at (491,292) the first generator's kernel is already the piece: one block
    # restriction of all nine etas, and one of the piece's etas to the cuspidal part
    s = miller_basis(491, 292, sturm(292) ** 2)
    calls = []
    real = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda a, b: calls.append(b.ncols) or real(a, b))
    piece = eisenstein_localize(s)
    cusp = piece.cuspidal_subpiece()
    assert (piece.dim, cusp.dim, len(piece.etas)) == (2, 1, 9)
    assert calls == [9 * 2, 9 * 1]


def test_cuspidal_subpiece_dims():
    s = working_space(37, 32)
    piece = eisenstein_localize(s)
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
    r = t_p_redundancy_check(s, full_hecke_algebra(s))
    assert r.checked and r.redundant


def test_tp_redundancy_weight12_p11():
    # k = 12 exceeds p - 2 = 9 for p = 11: out of the lemma's range
    s = working_space(11, 12, with_tp=True)
    r = t_p_redundancy_check(s, full_hecke_algebra(s))
    assert not r.checked and r.redundant is None


def tp_redundancy_oracle(space):
    """The former check: the closure of the prime-to-p T(l) against the same plus T(p)."""
    p = space.p
    prime_to_p = [hecke.hecke_matrix(space, ell) for ell in generator_primes(space.k) if ell != p]
    without = algebra_closure(prime_to_p, p=p, dim=space.dim)
    with_tp = algebra_closure(prime_to_p + [hecke.hecke_matrix(space, p)], p=p, dim=space.dim)
    return len(without) == len(with_tp)


def test_tp_redundancy_matches_the_two_closure_oracle():
    # the pairs of acceptance criterion 6
    for p in (11, 13, 37):
        for k in range(4, p - 1, 2):
            s = working_space(p, k, with_tp=True)
            r = t_p_redundancy_check(s, full_hecke_algebra(s))
            assert r.checked and r.redundant == tp_redundancy_oracle(s), (p, k)


def test_tp_redundancy_sees_an_operator_outside_the_algebra(monkeypatch):
    p = 37
    s = working_space(p, 32, with_tp=True)
    outside = MatFp(p, np.arange(s.dim**2).reshape(s.dim, s.dim))
    real = hecke.hecke_matrix
    monkeypatch.setattr(hecke, "hecke_matrix", lambda space, n: outside if n == p else real(space, n))
    assert tp_redundancy_oracle(s) is False
    r = t_p_redundancy_check(s, full_hecke_algebra(s))
    assert r.checked and r.redundant is False


def test_tp_redundancy_in_range_sample():
    for (p, k) in ((13, 10), (37, 12), (37, 32)):
        s = working_space(p, k, with_tp=True)
        r = t_p_redundancy_check(s, full_hecke_algebra(s))
        assert r.checked and r.redundant, (p, k)


# --- report ---------------------------------------------------------------------------

def test_hecke_report_shape():
    rep = hecke_report(37, 32)
    assert rep["dim"] == 3
    assert rep["eis_local_dim"] == 2
    assert rep["duality_rank"] == 3
    assert rep["tp_redundant"] is True
    assert set(rep) >= {"dim", "eis_local_dim", "ordinary_dim", "duality_rank", "tp_redundant"}


def test_a_shorter_view_shares_the_hecke_matrices_of_the_kept_build(monkeypatch):
    # T(5) at weight 32 needs 5 * sturm(32) = 15 coefficients: a column view of 14
    # still raises while the build of 40 holds T(5), and a view of 15 reads its matrix
    p, k, n = 37, 32, 5
    full = miller_basis(p, k, 40)
    t5 = hecke_matrix(full, n)
    short = replace(full, coeffs=full.coeffs[:, : n * sturm(k) - 1])
    assert short.hecke_matrices is full.hecke_matrices and n in short.hecke_matrices
    with pytest.raises(PrecisionError):
        hecke_matrix(short, n)
    assert hecke_matrix(replace(full, coeffs=full.coeffs[:, : n * sturm(k)]), n) is t5
    cold = miller_basis(p, k, n * sturm(k))
    assert cold.hecke_matrices == {}
    assert np.array_equal(hecke_matrix(cold, n).a, t5.a)
    # the localization reads such a view, so it reuses the generators the algebra built
    images = []
    real = hecke.hecke_action
    monkeypatch.setattr(hecke, "hecke_action", lambda *args: images.append(args[1]) or real(*args))
    full_hecke_algebra(full)
    assert images == generator_primes(k) == [2, 3]
    piece = eisenstein_localize(full)
    assert images == [2, 3] and piece.forms.shape == (piece.dim, full.prec)
