"""Local-algebra structure: socles, Gorenstein tests, ideal generators."""

import dataclasses
import itertools
import json

import pytest
import sympy

from eiscomp.bernoulli import irregular_indices
from eiscomp.companions import localized_pieces
from eiscomp.errors import NotLocalError
from eiscomp.hecke import EisLocalPiece
from eiscomp.linalg import EchelonSpace, MatFp, _products
from eiscomp.localstruct import (
    LocalAlgebra,
    check_equivalences,
    dim_identity_holds,
    eis_ideal_min_gens,
    module_cyclic_dim,
    restrict_algebra,
    socle_dim,
    structure_report,
)
from eiscomp.qexp import miller_basis, sturm

from oracles import localize

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


def test_socle_of_fat_point_is_two():
    alg = fat_point()
    assert socle_dim(alg) == 2


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
    gor = socle_dim(fake) == 1
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
    assert socle_dim(alg) == 1
    assert eis_ideal_min_gens(alg, alg) == 1


def test_restrict_rejects_semisimple_double():
    space = miller_basis(5, 12, sturm(12) ** 2)
    fake = EisLocalPiece(p=5, k=12, forms=space, etas=[MatFp(5, [[1, 0], [0, 2]])])
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
        piece = localize(space, k, p)
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


def test_structure_report_cross_checks_c_m_against_c_m_prime(monkeypatch, capsys):
    # c(m) is the witness count the report keeps and c(m') the count the kernel
    # gives; a disagreement raises, which the CLI turns into exit code 1
    import eiscomp.companions as companions
    from eiscomp.cli import main

    real = companions.companion_space

    def without_the_weight_32_witness(pc, mirror):
        wit, gs, c_prime = real(pc, mirror)
        return (wit[1:], gs[1:], c_prime) if pc.k == 32 else (wit, gs, c_prime)

    monkeypatch.setattr(companions, "companion_space", without_the_weight_32_witness)
    with pytest.raises(AssertionError, match="c\\(m\\) = c\\(m'\\)"):
        structure_report(37, 32)
    assert main(["structure", "--p", "37", "--k", "32"]) == 1
    assert "c(m) = c(m')" in capsys.readouterr().err


def test_structure_report_skips_the_equivalences_off_c_m_prime_one(monkeypatch, capsys):
    # every real pair has c(m') = 1, so c(m') = 2 is injected at (37,32): the
    # equivalences are not checked, the JSON carries the count, and exit is 0
    import eiscomp.localstruct as localstruct
    from eiscomp.cli import main

    real = localstruct.companion_report
    checked = []
    monkeypatch.setattr(localstruct, "companion_report", lambda p, k: dataclasses.replace(real(p, k), c_m_prime=2))
    monkeypatch.setattr(localstruct, "check_equivalences", lambda *args: checked.append(args) or ["checked"])
    rep = structure_report(37, 32)
    assert (rep.c_m_prime, rep.equivalence_failures, checked) == (2, [], [])
    assert main(["structure", "--p", "37", "--k", "32"]) == 0
    assert json.loads(capsys.readouterr().out)["c_m_prime"] == 2
    # gorenstein_full is asserted only under c(m') = 1
    assert dataclasses.replace(rep, gorenstein_full=False).all_asserted_hold
    assert not dataclasses.replace(rep, c_m_prime=1, gorenstein_full=False).all_asserted_hold
    assert dataclasses.replace(rep, c_m_prime=1).all_asserted_hold


def spy_builds(monkeypatch):
    """Every basis that `miller_basis` returns to the companion and Hecke code, and its weight, in order."""
    from eiscomp import companions, hecke

    built, weights = [], []
    real = companions.miller_basis

    def spy(p, k, *args, **kwargs):
        built.append(real(p, k, *args, **kwargs))
        weights.append(k)
        return built[-1]

    for module in (companions, hecke):
        monkeypatch.setattr(module, "miller_basis", spy)
    return built, weights


@pytest.mark.parametrize("k", [36, 31, 2])
def test_structure_report_checks_the_weight_before_any_work(monkeypatch, k):
    # k = p-1 would need M_2 on the mirror side, 31 is odd and 2 is below 4: each is
    # rejected before a basis is built
    built, _ = spy_builds(monkeypatch)
    with pytest.raises(ValueError):
        structure_report(37, k)
    assert built == []


def test_cold_structure_report_builds_one_basis_per_weight_and_one_ratio(monkeypatch):
    # (293, 156): both weights are read at the shared companion bound 3395, above
    # sturm(w)^2, so each is built once there, and the pair makes the one ratio
    # both ladders read, whatever ran before it in the process
    from eiscomp import qexp

    structure_report(293, 156)
    built, weights = spy_builds(monkeypatch)
    inverses = []
    real_inv = qexp.inverse_mod
    monkeypatch.setattr(qexp, "inverse_mod", lambda f, m: inverses.append(len(f)) or real_inv(f, m))
    rep = structure_report(293, 156)
    assert [(k, s.shape[1]) for k, s in zip(weights, built)] == [(156, 3395), (138, 3395)] and inverses == [3395]
    assert rep.c_m_prime == 1 and rep.plan.bound == 3395


def test_piece_series_after_its_prime_was_evicted(monkeypatch):
    # a piece keeps its forms to the pair's precision: at the companion bound they
    # are, after another prime's pair as before it, byte for byte the same, and
    # reading them builds nothing; they cannot be written
    from eiscomp.companions import _companion_bound

    p, k = 37, 32
    piece, _ = localized_pieces(p, k)
    bound = _companion_bound(p, k)
    before = piece.forms[:, :bound].tobytes()
    structure_report(59, 44)
    built, _ = spy_builds(monkeypatch)
    after = piece.forms[:, :bound]
    assert built == []
    assert after.shape == (piece.dim, bound) and after.tobytes() == before
    with pytest.raises(ValueError):
        piece.forms[0, 0] = 1


def test_a_pair_owns_its_bases(monkeypatch):
    # each pair builds its two weights once on the one ladder ratio it makes, and
    # once its report is dropped neither a basis it built nor its ratio is left;
    # nothing is kept between pairs, so (157, 110) makes its own ratio
    import gc
    import weakref

    from eiscomp import companions, qexp

    # each piece keeps its forms alone: the first weight's basis is gone before the
    # second is built, and once localized_pieces returns neither basis is alive
    spaces = []
    real_build = companions.miller_basis

    def build(*args, **kwargs):
        assert [ref() for ref in spaces] == [None] * len(spaces)
        space = real_build(*args, **kwargs)
        spaces.append(weakref.ref(space))
        return space

    with monkeypatch.context() as mp:
        mp.setattr(companions, "miller_basis", build)
        pieces = localized_pieces(157, 62)
    assert len(spaces) == 2 and [ref() for ref in spaces] == [None, None]
    assert [pc.dim for pc in pieces] == [2, 1]

    (built, weights), ratios = spy_builds(monkeypatch), []
    real_ratio = companions.ladder_ratio
    monkeypatch.setattr(companions, "ladder_ratio", lambda *args: ratios.append(real_ratio(*args)) or ratios[-1])
    inverses = []
    real_inv = qexp.inverse_mod
    monkeypatch.setattr(qexp, "inverse_mod", lambda f, m: inverses.append(len(f)) or real_inv(f, m))
    kept = []
    for n, (p, k) in enumerate([(157, 62), (157, 110)], start=1):
        structure_report(p, k)
        assert weights == [k, p + 1 - k] and [len(r) for r in ratios] == [built[0].shape[1]]
        kept += [weakref.ref(x) for x in built + ratios]
        built.clear()
        weights.clear()
        ratios.clear()
        gc.collect()
        assert [ref() for ref in kept] == [None] * 3 * n
    assert inverses == [825, 642]


# --- Hida control as an oracle ----------------------------------------------------

def hilbert_function(alg):
    """dim m^i / m^(i+1) for i >= 0, m the maximal ideal, from its powers.

    m^i is an ideal, so m^(i+1) is spanned by its basis times the generators.
    """
    n = alg.basis[0].nrows
    dims, power = [1], alg.maxideal
    while power:
        rows = EchelonSpace(alg.p, n * n).insert(_products(power, alg.maxideal_gens))
        dims.append(len(power) - len(rows))
        power = [MatFp(alg.p, row.reshape(n, n)) for row in rows]
    return dims


def local_invariants(p, w):
    piece = localize(miller_basis(p, w, sturm(w) ** 2), w, p)
    alg = restrict_algebra(piece)
    return piece.dim, piece.cuspidal_subpiece().dim, socle_dim(alg), hilbert_function(alg)


def test_hida_control_on_every_irregular_pair_below_600():
    # T(p) acts as 1 + p^(k-1), which is 1 mod p, on the Eisenstein-local
    # piece, so the piece is ordinary, and by Hida's control theorem (Ann. Sci.
    # ENS 19, 1986; Ohta, Ann. Sci. ENS 36, 2003, for the Eisenstein part) its
    # algebra mod p depends on k only mod p-1.  Weight k + p - 1 runs another
    # basis, other Hecke matrices and a larger localization, so agreement
    # checks the whole path.
    pairs = [(p, k) for p in sympy.primerange(5, 600) for k in irregular_indices(p)]
    assert len(pairs) == 43
    found = {}
    for p, k in pairs:
        found[p, k] = local_invariants(p, k)
        assert local_invariants(p, k + p - 1) == found[p, k], (p, k)
    assert found[547, 486] == (3, 2, 1, [1, 1, 1])  # F_p[x]/(x^3), the one piece of dimension 3
