"""Local-algebra structure: socles, Gorenstein tests, ideal generators."""

import itertools

import pytest

from eiscomp.companions import localized_pieces
from eiscomp.errors import NotLocalError
from eiscomp.hecke import EisLocalPiece, eisenstein_localize
from eiscomp.linalg import MatFp
from eiscomp.localstruct import (
    LocalAlgebra,
    check_equivalences,
    dim_identity_holds,
    eis_ideal_min_gens,
    gorenstein,
    module_cyclic_dim,
    restrict_algebra,
    socle_dim,
    structure_report,
)
from eiscomp.qexp import miller_basis, sturm

IRREGULAR_PAIRS = [(37, 32), (59, 44), (67, 58), (101, 68), (103, 24), (131, 22)]


# --- test doubles: left-regular representations ----------------------------------

def unit(n, i, j, p=5):
    """The n x n matrix unit E_ij (1-based), the image of e_j under e_i."""
    return MatFp(p, [[int((r, c) == (i - 1, j - 1)) for c in range(n)] for r in range(n)])


def field_algebra(p=5):
    return LocalAlgebra(basis=[MatFp.identity(p, 1)], maxideal_gens=[])


def dual_numbers(p=5):
    # F_p[x]/(x^2), basis {1, x}
    x = unit(2, 2, 1, p)
    return LocalAlgebra(basis=[MatFp.identity(p, 2), x], maxideal_gens=[x])


def fat_point(p=5):
    # F_p[x, y]/(x, y)^2, basis {1, x, y}: the classical non-Gorenstein cube
    x, y = unit(3, 2, 1, p), unit(3, 3, 1, p)
    return LocalAlgebra(basis=[MatFp.identity(p, 3), x, y], maxideal_gens=[x, y])


def jet_algebra(p=5):
    # F_p[x]/(x^3), basis {1, x, x^2}: Gorenstein with a non-principal test ideal
    x = MatFp(p, unit(3, 2, 1, p).a + unit(3, 3, 2, p).a)
    return LocalAlgebra(basis=[MatFp.identity(p, 3), x, x * x], maxideal_gens=[x])


def socle_brute_force(alg):
    """Count annihilators of the maximal ideal by full enumeration."""
    count = 0
    for vec in itertools.product(range(alg.p), repeat=alg.dim):
        v = MatFp(alg.p, sum(c * b.a for c, b in zip(vec, alg.basis)))
        if all((v * g).is_zero() for g in alg.maxideal_gens):
            count += 1
    # count = p^socle_dim
    e = 0
    while alg.p**e < count:
        e += 1
    assert alg.p**e == count
    return e


# --- socle / gorenstein --------------------------------------------------------

def test_socle_of_field_is_one():
    assert socle_dim(field_algebra()) == 1


def test_socle_of_dual_numbers_is_one():
    alg = dual_numbers()
    assert socle_dim(alg) == 1
    assert gorenstein(alg)


def test_socle_of_fat_point_is_two():
    alg = fat_point()
    assert socle_dim(alg) == 2
    assert not gorenstein(alg)


def test_socle_matches_brute_force_enumeration():
    for alg in (field_algebra(), dual_numbers(), fat_point(), jet_algebra()):
        assert socle_dim(alg) == socle_brute_force(alg)


def test_non_local_rejected():
    # split algebra F_5 x F_5 presented with a non-nilpotent "generator" e = e^2
    e = MatFp(5, unit(2, 2, 1).a + unit(2, 2, 2).a)
    with pytest.raises(NotLocalError):
        LocalAlgebra(basis=[MatFp.identity(5, 2), e], maxideal_gens=[e])


# --- ideal generator counts -------------------------------------------------------

def test_principal_ideal_in_jet_algebra():
    alg = jet_algebra()
    assert eis_ideal_min_gens(alg, alg) == 1  # (x) in F_5[x]/(x^3)


def test_two_generator_ideal_in_fat_point():
    alg = fat_point()
    assert eis_ideal_min_gens(alg, alg) == 2


def test_zero_cuspidal_short_circuit():
    full = dual_numbers()
    assert eis_ideal_min_gens(None, full) == 0


# --- equivalence machinery is not vacuous --------------------------------------------

def test_injected_inconsistency_is_flagged():
    # a socle-2 algebra falsely reported as carrying a cyclic module must trip
    fake = fat_point()
    gor = gorenstein(fake)
    assert gor is False
    failures = check_equivalences(gor, True, eis_ideal_min_gens(fake, fake) == 1)
    assert failures


def test_consistent_conditions_pass():
    assert check_equivalences(True, True, True) == []
    assert check_equivalences(False, False, False) == []


# --- restriction from localized pieces ------------------------------------------------

def test_restrict_regular_piece_is_the_field():
    piece, _ = localized_pieces(37, 4)
    alg = restrict_algebra(piece)
    assert alg.dim == 1
    assert socle_dim(alg) == 1


def test_restrict_37_32_full_piece():
    piece, _ = localized_pieces(37, 32)
    alg = restrict_algebra(piece)
    assert alg.dim == 2  # F_37[x]/(x^2) shape
    assert gorenstein(alg)
    assert eis_ideal_min_gens(alg, alg) == 1


def test_restrict_rejects_semisimple_double():
    space = miller_basis(5, 12, sturm(12) ** 2)
    fake_ops = {
        1: MatFp.identity(5, 2),
        2: MatFp(5, [[1, 0], [0, 2]]),
    }
    fake = EisLocalPiece(
        space=space,
        basis=MatFp.identity(5, 2),
        restricted=fake_ops,
    )
    with pytest.raises(NotLocalError):
        restrict_algebra(fake)


def test_restrict_zero_piece_rejected():
    # a regular pair has no congruent cusp form: its cuspidal subpiece is empty
    piece, _ = localized_pieces(37, 4)
    cusp = piece.cuspidal_subpiece()
    assert cusp.dim == 0
    with pytest.raises(ValueError):
        restrict_algebra(cusp)


def test_cuspidal_module_cyclic_at_37_32():
    piece, _ = localized_pieces(37, 32)
    cusp = piece.cuspidal_subpiece()
    assert module_cyclic_dim(cusp) == 1


# --- full reports -----------------------------------------------------------------------

def test_structure_report_regular():
    rep = structure_report(37, 4)
    assert rep.zero_cuspidal
    assert rep.gorenstein_full
    assert rep.min_gens == 0
    assert rep.dim_identity_ok  # 1 - 1 = 0
    assert rep.all_asserted_hold
    assert rep.complete_intersection == "not evaluated"


def test_structure_report_irregular_pairs():
    for p, k in IRREGULAR_PAIRS:
        rep = structure_report(p, k)
        assert rep.c_m_prime == 1
        assert rep.gorenstein_full, (p, k)
        assert rep.gorenstein_cusp, (p, k)
        assert rep.min_gens == 1, (p, k)
        assert rep.cyclic_cusp, (p, k)
        assert rep.dim_identity_ok, (p, k)
        assert rep.equivalence_failures == []
        assert rep.all_asserted_hold


def test_dim_identity_from_pieces():
    for p, k in ((37, 32), (131, 22)):
        space = miller_basis(p, k, sturm(k) ** 2)
        piece = eisenstein_localize(space)
        assert dim_identity_holds(piece, piece.cuspidal_subpiece())


def test_ideal_image_inside_maximal_ideal_and_nonzero_iff_cuspidal():
    # regular: zero ideal image; irregular: nonzero, inside the maximal ideal
    piece_reg, _ = localized_pieces(37, 4)
    alg_reg = restrict_algebra(piece_reg)
    assert alg_reg.maxideal == []
    piece_irr, _ = localized_pieces(37, 32)
    alg_irr = restrict_algebra(piece_irr)
    assert alg_irr.maxideal, "irregular pair must produce a nonzero ideal image"


def test_csv_row_shape():
    rep = structure_report(37, 32)
    row = rep.csv_row()
    assert row.startswith("37,32,2,1,1,true,true,1")
