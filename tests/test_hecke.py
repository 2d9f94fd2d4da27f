"""Hecke operators, duality, ordinary projector, Eisenstein localization."""

import random
from math import gcd

import numpy as np
import pytest

from eiscomp.errors import PrecisionError
from eiscomp.hecke import (
    duality_pairing_matrix,
    eisenstein_localize,
    full_hecke_algebra,
    generator_primes,
    hecke_action,
    hecke_matrix,
    hecke_report,
    ordinary_dim,
    ordinary_projector,
    sigma_eigenvalue,
    t_p_redundancy_check,
)
from eiscomp.linalg import MatFp, algebra_closure, generalized_eigenspace, rank, rref
from eiscomp.qexp import (
    FormSpace,
    QSeries,
    delta_q,
    eisenstein_q,
    membership,
    miller_basis,
    space_dim,
    sturm,
)


def working_space(p, k, *, with_tp=False):
    prec = max(sturm(k) ** 2, 2)
    if with_tp:
        prec = max(prec, p * sturm(k))
    return miller_basis(p, k, prec)


# --- coefficient action -------------------------------------------------------

def test_t1_is_identity():
    d = delta_q(11, 20)
    assert np.array_equal(hecke_action(d, 1).coeffs, d.coeffs)


def test_eisenstein_is_simultaneous_eigenform():
    e = eisenstein_q(13, 16, 60)
    for n in (2, 3, 4, 5, 6, 12):
        img = hecke_action(e, n)
        lam = sigma_eigenvalue(13, 16, n)
        assert img.coeffs.tolist() == [lam * c % 13 for c in e.coeffs[: img.prec]]


def test_delta_t2_eigenvalue_is_tau2():
    # tau(2) = -24, from the integer expansion of the discriminant
    for p in (11, 101):
        d = delta_q(p, 40)
        img = hecke_action(d, 2)
        assert img.coeffs.tolist() == [(-24) * c % p for c in d.coeffs[: img.prec]]


def test_action_precision_contract():
    f = QSeries(7, list(range(10)), 12)
    img = hecke_action(f, 3)
    assert img.prec == 4  # (10-1)//3 + 1


def hecke_action_oracle(f, n):
    """The former per-coefficient divisor sum a(i; f|T(n)) = sum d^(k-1) a(in/d^2)."""
    k, m = f.weight, f.modulus
    out = []
    for i in range((f.prec - 1) // n + 1 if f.prec else 0):
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
        f = QSeries(p, coeffs, rng.randrange(4, 400, 2), digits)
        for n in range(1, 13):
            assert hecke_action(f, n).coeffs.tolist() == hecke_action_oracle(f, n), (prec, n)


@pytest.mark.parametrize("p,k", [(5, 60), (11, 48), (293, 36)])
def test_matrix_matches_the_oracle_images(p, k):
    s = working_space(p, k)
    for n in generator_primes(k):
        cols = []
        for row in s.coeffs.tolist():
            image = QSeries(p, hecke_action_oracle(QSeries(p, row, k), n), k)
            cols.append(membership(image, s))
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
    lam1 = sigma_eigenvalue(p, 12, 2)
    lam2 = (-24) % p
    assert trace == (lam1 + lam2) % p
    assert det == lam1 * lam2 % p


def test_weight4_matrix_is_scalar_sigma():
    s = working_space(7, 4)
    for n in (2, 3):
        prec_needed = n * sturm(4)
        sp = miller_basis(7, 4, prec_needed)
        m = hecke_matrix(sp, n)
        assert m.a.tolist() == [[sigma_eigenvalue(7, 4, n)]]


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
        hecke_matrix(s, n) - eye.scaled(sigma_eigenvalue(p, k, n))
        for n in range(2, sturm(k) + 1)
    ]
    from_all = generalized_eigenspace(etas, s.dim)
    piece = eisenstein_localize(s)
    assert sorted(piece.restricted) == generator_primes(k)
    assert row_space([piece.basis]) == row_space([from_all])


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
    proj = ordinary_projector(s)
    col = MatFp(p, [coords]).transpose()
    assert proj * col == col  # unit T(p)-eigenvalue 1 + p^(k-1)


def test_ordinary_projector_commutes_with_hecke():
    p, k = 13, 24
    s = working_space(p, k, with_tp=True)
    proj = ordinary_projector(s)
    for n in (2, 3):
        assert proj * hecke_matrix(s, n) == hecke_matrix(s, n) * proj


def test_ordinary_dims_weight_stability_sample():
    for p in (11, 13):
        for k in (4, 8, 12, 16):
            assert ordinary_dim(p, k) == ordinary_dim(p, k + p - 1)


# --- localization ----------------------------------------------------------------------

def test_regular_piece_is_eisenstein_line():
    s = working_space(37, 4)
    piece = eisenstein_localize(s)
    assert piece.dim == 1
    e = eisenstein_q(37, 4, s.prec)
    assert piece.contains_ambient(membership(e, s))


def test_irregular_piece_is_bigger():
    s = working_space(37, 32)
    piece = eisenstein_localize(s)
    assert piece.dim == 2
    e = eisenstein_q(37, 32, s.prec)
    assert piece.contains_ambient(membership(e, s))
    # eta(2) restricted is nilpotent nonzero: a genuine non-semisimple block
    eta = piece.eta_restricted(2)
    assert not eta.is_zero()
    assert (eta * eta).is_zero()


def test_piece_has_no_pure_constant():
    # no element of the piece has a(n) = 0 for all n >= 1 but a(0) != 0:
    # solve for all piece elements vanishing past a(0) and inspect them
    from eiscomp.linalg import kernel

    for (p, k) in ((37, 32), (59, 44), (131, 22)):
        s = working_space(p, k)
        piece = eisenstein_localize(s)
        tails = [
            s.coords_to_series(vec).coeffs[1:] for vec in piece.basis.a.tolist()
        ]
        flat = kernel(MatFp(p, tails, s.prec - 1).transpose())
        for amb in (flat * piece.basis).a.tolist():
            assert s.coords_to_series(amb).coeffs[0] == 0


def test_cuspidal_subpiece_dims():
    s = working_space(37, 32)
    piece = eisenstein_localize(s)
    cusp = piece.cuspidal_subpiece()
    assert cusp.dim == 1
    assert piece.dim - 1 == cusp.dim
    for vec in cusp.basis.a.tolist():
        assert s.coords_to_series(vec).coeffs[0] == 0


def test_localized_eigensystem_multiplicativity():
    def lam(n):
        return sigma_eigenvalue(11, 16, n)

    assert lam(6) == lam(2) * lam(3) % 11
    assert lam(5) == (1 + pow(5, 15, 11)) % 11


# --- prime-to-p generation --------------------------------------------------------------

def test_tp_redundancy_dim1():
    s = working_space(11, 4, with_tp=True)
    r = t_p_redundancy_check(s)
    assert r.checked and r.redundant


def test_tp_redundancy_weight12_p11():
    # k = 12 exceeds p - 2 = 9 for p = 11: out of the lemma's range
    s = working_space(11, 12, with_tp=True)
    r = t_p_redundancy_check(s)
    assert not r.checked and r.redundant is None


def test_tp_redundancy_in_range_sample():
    for (p, k) in ((13, 10), (37, 12), (37, 32)):
        s = working_space(p, k, with_tp=True)
        r = t_p_redundancy_check(s)
        assert r.checked and r.redundant, (p, k)


# --- report ---------------------------------------------------------------------------

def test_hecke_report_shape():
    rep = hecke_report(37, 32)
    assert rep["dim"] == 3
    assert rep["eis_local_dim"] == 2
    assert rep["duality_rank"] == 3
    assert rep["tp_redundant"] is True
    assert set(rep) >= {"dim", "eis_local_dim", "ordinary_dim", "duality_rank", "tp_redundant"}
