"""Theta operator, filtration, companion detection and dimensions."""

import random

import pytest

from eiscomp.companions import (
    companion_dimension,
    companion_report,
    companion_space,
    filtration,
    has_companion,
    localized_pieces,
    mirror_check,
    theta_series,
    witness_csv,
)
from eiscomp.hecke import eisenstein_localize, hecke_action
from eiscomp.linalg import EchelonSpace
from eiscomp.qexp import (
    QSeries,
    delta_q,
    eisenstein_q,
    miller_basis,
    plan_companion,
    sturm,
)

IRREGULAR_PAIRS = [(37, 32), (59, 44), (67, 58), (101, 68), (103, 24), (131, 22)]


# --- theta -----------------------------------------------------------------

def test_theta_kills_constants():
    c = QSeries(7, [3, 0, 0, 0], 0)
    assert theta_series(c).is_zero()


def test_theta_zero_iterates_is_identity():
    f = delta_q(11, 10)
    out = theta_series(f, 0)
    assert out.coeffs == f.coeffs and out.weight == f.weight


def test_theta_weight_shift():
    f = delta_q(11, 10)
    out = theta_series(f, 3)
    assert out.weight == 12 + 3 * 12


def test_theta_commutation_with_hecke():
    # T(n) theta = n theta T(n), sampled coefficientwise
    samples = [eisenstein_q(11, 16, 200), eisenstein_q(13, 26, 200),
               delta_q(11, 200), delta_q(13, 200)]
    for f in samples:
        for n in range(2, 11):
            lhs = hecke_action(theta_series(f), n)
            rhs = theta_series(hecke_action(f, n)).scale(n)
            m = min(lhs.prec, rhs.prec)
            assert lhs.coeffs[:m] == rhs.coeffs[:m], (f.p, f.weight, n)


def test_theta_kernel_trivial_in_low_weights():
    # on M_k' with 2 <= k' <= p-2 the theta operator is injective
    p = 13
    for kp in (4, 6, 8, 10):
        bound = (kp + p + 1) // 12 + 1
        space = miller_basis(p, kp, bound)
        ech = EchelonSpace(p, bound)
        for row in space.rows:
            assert ech.insert(theta_series(row).coeffs) is not None


# --- filtration --------------------------------------------------------------

def test_filtration_weight_p_minus_1_constant_is_zero():
    for p in (11, 13):
        s = miller_basis(p, p - 1, sturm(p - 1) + 4)
        assert filtration(s.rows[0]) == 0  # the row reducing to 1


def test_filtration_delta_is_twelve():
    for p in (17, 19, 23):
        d = delta_q(p, 16)
        assert filtration(d) == 12


def test_filtration_eisenstein_drop():
    # E_16 over F_11: a(n) = sigma_15(n) = sigma_5(n) mod 11, so filtration 6
    e = eisenstein_q(11, 16, 4)
    assert filtration(e) == 6


def test_theta_raises_filtration_by_at_most_p_plus_1():
    for p, k in ((13, 16), (17, 12)):
        f = delta_q(p, 40).with_weight(12)
        tf = theta_series(f)
        assert filtration(tf, tf.weight) <= 12 + p + 1


def test_filtration_rejects_zero():
    with pytest.raises(ValueError):
        filtration(QSeries.zero(7, 5, 12))


# --- companions -----------------------------------------------------------------

def test_eisenstein_pair_are_companions():
    for p, k in ((13, 6), (37, 8)):
        kp = p + 1 - k
        bound = plan_companion(p, k).bound
        f = eisenstein_q(p, k, bound)
        ok, g_coords = has_companion(f)
        assert ok
        g = miller_basis(p, kp, bound).coords_to_series(g_coords)
        e_kp = eisenstein_q(p, kp, bound)
        # the companion is unique here and must be the mirror Eisenstein series:
        # both sides scale so that a(1) agree
        assert g.coeffs[1:] == e_kp.coeffs[1:]


def test_zero_has_companion_zero():
    p, k = 13, 6
    bound = plan_companion(p, k).bound
    z = QSeries.zero(p, bound, k)
    ok, coords = has_companion(z)
    assert ok and all(c == 0 for c in coords)


def test_companion_relation_is_symmetric():
    p, k = 37, 32
    kp = p + 1 - k
    bound = plan_companion(p, k).bound
    f = eisenstein_q(p, k, bound)
    _, g_coords = has_companion(f)
    g = miller_basis(p, kp, bound).coords_to_series(g_coords)
    assert theta_series(g, k).coeffs[:bound] == theta_series(f).coeffs[:bound]


def test_companion_out_of_range_rejected():
    f = delta_q(7, 40)  # weight 12 > p - 1 = 6
    with pytest.raises(ValueError):
        has_companion(f)


# --- companion dimensions ----------------------------------------------------------

def test_regular_dimension_is_one():
    piece, piece_prime = localized_pieces(37, 4)
    assert companion_dimension(piece) == 1
    assert companion_dimension(piece_prime) == 1


def test_37_32_mirror_dimension():
    # B_6 = 1/42 is a unit mod 37, so the weight-6 local piece is the
    # Eisenstein line and its companion subspace is everything
    piece, piece_prime = localized_pieces(37, 32)
    assert piece_prime.dim == 1
    assert companion_dimension(piece_prime) == 1
    assert companion_dimension(piece) == 1  # equality away from weight p-1


def test_companion_space_gives_witnesses():
    piece, _ = localized_pieces(59, 44)
    vecs = companion_space(piece)
    assert len(vecs) == 1
    bound = plan_companion(59, 44).bound
    f = piece.vector_series(vecs[0], bound)
    ok, _ = has_companion(f)
    assert ok


def test_reports_on_irregular_pairs():
    for p, k in IRREGULAR_PAIRS:
        rep = companion_report(p, k)
        assert rep.c_m == rep.c_m_prime == 1, (p, k)
        assert rep.dim_piece == 2 and rep.dim_piece_prime == 1
        assert rep.plan.bound == (k + (p + 1 - k) * (p + 1)) // 12 + 1


def test_mirror_check_eisenstein_pair():
    p, k = 37, 32
    bound = plan_companion(p, k).bound
    f = eisenstein_q(p, k, bound)
    _, gc = has_companion(f)
    g = miller_basis(p, p + 1 - k, bound).coords_to_series(gc)
    assert mirror_check(f, g)


def test_mirror_check_on_discovered_pairs():
    for p, k in IRREGULAR_PAIRS:
        rep = companion_report(p, k)
        bound = rep.plan.bound
        piece, _ = localized_pieces(p, k)
        for f_coords, g_coords in rep.witnesses:
            f = piece.vector_series(f_coords, bound)
            g = miller_basis(p, rep.k_prime, bound).coords_to_series(g_coords)
            assert mirror_check(f, g), (p, k)


def test_dimension_stable_under_precision_increase():
    # the companion count is about forms, not the chosen cutoff
    p, k = 37, 32
    piece, _ = localized_pieces(p, k)
    base = companion_dimension(piece)
    bound = plan_companion(p, k).bound + 20
    kp = p + 1 - k
    target = EchelonSpace(p, bound)
    for row in miller_basis(p, kp, bound).rows:
        target.insert(theta_series(row).coeffs)
    residues = [
        target.reduce(theta_series(s, kp).coeffs)
        for s in piece.basis_series(bound)
    ]
    from eiscomp.linalg import MatFp, kernel

    again = kernel(MatFp(p, residues, bound).transpose()).nrows
    assert again == base


def test_companion_dimension_against_exhaustive_count():
    # enumerate the entire (37, 32) local piece: the companion-admitting
    # subset must be a subspace of exactly p^c elements
    p, k = 37, 32
    piece, _ = localized_pieces(p, k)
    assert piece.dim == 2
    bound = plan_companion(p, k).bound
    basis = piece.basis_series(bound)
    count = 0
    for a in range(p):
        for b in range(p):
            f = basis[0].scale(a) + basis[1].scale(b)
            ok, _ = has_companion(f)
            count += ok
    c = companion_dimension(piece)
    assert count == p**c == 37


def test_witness_csv_shape():
    rep = companion_report(37, 32)
    text = witness_csv(rep, prec=12)
    lines = text.strip().split("\n")
    assert lines[0].startswith("pair,side,weight,a0")
    assert len(lines) == 1 + 2 * len(rep.witnesses)
