"""Theta operator, companion detection and dimensions."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
import sympy

from eiscomp.bernoulli import irregular_indices
from eiscomp.companions import (
    companion_report,
    companion_space,
    localized_pieces,
    witness_csv,
)
from eiscomp.errors import PrecisionError
from eiscomp.hecke import hecke_action
from eiscomp.linalg import EchelonSpace, MatFp, _matmul, _residues, kernel, solve
from eiscomp.qexp import (
    delta_q,
    miller_basis,
    plan_companion,
    space_dim,
    sturm,
)

from oracles import eisenstein_q, form_of, localize, theta_series

IRREGULAR_PAIRS = [(37, 32), (59, 44), (67, 58), (101, 68), (103, 24), (131, 22)]


# --- oracles -----------------------------------------------------------------

def companion_oracle(f, p, k):
    """Decide whether f, residues mod p of weight k, 4 <= k <= p-1, has a companion: (ok, g coordinates).

    A companion g of weight k' = p+1-k must satisfy n^(k') a(n; f) =
    n a(n; g) for every n up to the graded comparison bound.  For n prime
    to p that forces a(n; g) = n^(k'-1) a(n; f); the remaining
    coefficients of g are free and are solved for by membership in the
    weight-k' basis.  At k = p-1 that space M_2 is zero, so g = 0 is the
    only candidate and the coordinate list is empty.
    """
    if not (4 <= k <= p - 1) or k % 2 == 1:
        raise ValueError(f"weight {k} outside the companion range for p={p}")
    bound = plan_companion(p, k).bound
    if len(f) < bound:
        raise PrecisionError(f"need {bound} coefficients, have {len(f)}")
    kp = p + 1 - k
    forced = np.flatnonzero(np.arange(bound) % p)  # 0 < n < bound, n prime to p
    rhs = MatFp(p, theta_series(f, p, kp - 1)[forced, None])
    if space_dim(kp) == 0:
        return (True, []) if rhs.is_zero() else (False, None)
    target = miller_basis(p, kp, bound)
    # linear system: coords c of g must hit the forced coefficients
    solution = solve(MatFp(p, target[:, forced].T), rhs)
    if solution is None:
        return False, None
    coords = solution.a[:, 0].tolist()
    g = form_of(target, coords, p)
    if not np.array_equal(theta_series(f, p, kp)[:bound], theta_series(g, p)[:bound]):
        raise AssertionError("solved companion fails theta^(k') f = theta g")
    return True, coords


def echelon_residues(fs, p, kp, bound, a, b):
    """theta^a of each series mod p reduced against an EchelonSpace built from theta^b(M_k'), row by row."""
    target = EchelonSpace(p, bound)
    for row in miller_basis(p, kp, bound):
        target.insert(theta_series(row, p, b))
    return target.reduce(np.stack([theta_series(f, p, a)[:bound] for f in fs]))


def piece_series(pc, coords, prec):
    """The series to prec coefficients of each row of coords, vectors in the piece's coordinates.

    Read off the piece's forms, or beyond their precision off its forms'
    echelon coordinates times the weight's basis built at prec.
    """
    forms = pc.forms
    if prec > forms.shape[1]:
        forms = _matmul(forms[:, : space_dim(pc.k)], miller_basis(pc.p, pc.k, prec), pc.p)
    return _matmul(_residues(pc.p, coords), forms[:, :prec], pc.p)


def json_witnesses(rep):
    """(f piece coordinates, g weight-k' echelon coordinates) of each witness, as the JSON gives them."""
    return [(w["f_coords"], w["g_coords"]) for w in rep.to_json()["witnesses"]]


def smaller_direction(p, k):
    """(a, b, bound): theta^a f = theta^b g at the smaller graded weight of (k, p+1-k)."""
    kp = p + 1 - k
    w_first, w_second = k + kp * (p + 1), kp + k * (p + 1)  # theta^(k') f = theta g, theta f = theta^k g
    if w_first <= w_second:
        return kp, 1, w_first // 12 + 1
    return 1, k, w_second // 12 + 1


def oracle_pairs():
    """Every irregular pair p < 400, and even k on both sides of (p+1)/2 at four primes."""
    pairs = [(p, k) for p in sympy.primerange(11, 400) for k in irregular_indices(p)]
    for p in (101, 103, 127, 131):
        half = (p + 1) // 2
        pairs += [(p, half - 2 + half % 2), (p, half + 2 - half % 2)]
    return pairs


# --- theta -----------------------------------------------------------------

def test_theta_kills_constants():
    assert not theta_series(np.array([3, 0, 0, 0]), 7).any()


def test_theta_zero_iterates_is_identity():
    f = delta_q(11, 10)
    assert np.array_equal(theta_series(f, 11, 0), f)


@pytest.mark.parametrize("p,digits", [(11, 1), (3037000493, 1), (3037000507, 1), (5, 13), (5, 14)])
def test_theta_keeps_a0_only_at_zero_iterates(p, digits):
    # int64 storage at 11, 3037000493 and 5^13; Python integers at 3037000507 and 5^14
    m = p**digits
    f = _residues(m, [m - 1, 3, m - 2, 7, m - 1, 1])
    for j in (0, 1, 2, 5, p + 1):
        out = theta_series(f, m, j)
        assert out[0] == (m - 1 if j == 0 else 0)
        assert out.tolist() == [pow(n, j, m) * c % m for n, c in enumerate(f.tolist())]


def test_theta_commutation_with_hecke():
    # T(n) theta = n theta T(n), sampled coefficientwise
    samples = [(11, 16, eisenstein_q(11, 16, 200)), (13, 26, eisenstein_q(13, 26, 200)),
               (11, 12, delta_q(11, 200)), (13, 12, delta_q(13, 200))]
    for p, k, f in samples:
        for n in range(2, 11):
            lhs = hecke_action(theta_series(f, p), n, k + p + 1, p)
            rhs = theta_series(hecke_action(f, n, k, p), p) * n % p
            assert np.array_equal(lhs, rhs), (p, k, n)


def test_theta_kernel_trivial_in_low_weights():
    # on M_k' with 2 <= k' <= p-2 the theta operator is injective
    p = 13
    for kp in (4, 6, 8, 10):
        bound = (kp + p + 1) // 12 + 1
        space = miller_basis(p, kp, bound)
        ech = EchelonSpace(p, bound)
        for row in space:
            assert len(ech.insert(theta_series(row, p))) == 1
        assert ech.dim == len(space)


# --- companions -----------------------------------------------------------------

def test_eisenstein_pair_are_companions():
    for p, k in ((13, 6), (37, 8)):
        kp = p + 1 - k
        bound = plan_companion(p, k).bound
        f = eisenstein_q(p, k, bound)
        ok, g_coords = companion_oracle(f, p, k)
        assert ok
        g = form_of(miller_basis(p, kp, bound), g_coords, p)
        e_kp = eisenstein_q(p, kp, bound)
        # the companion is unique here and must be the mirror Eisenstein series:
        # both sides scale so that a(1) agree
        assert np.array_equal(g[1:], e_kp[1:])


def test_companion_relation_is_symmetric():
    p, k = 37, 32
    kp = p + 1 - k
    bound = plan_companion(p, k).bound
    f = eisenstein_q(p, k, bound)
    _, g_coords = companion_oracle(f, p, k)
    g = form_of(miller_basis(p, kp, bound), g_coords, p)
    assert np.array_equal(theta_series(g, p, k)[:bound], theta_series(f, p)[:bound])


def test_weight_p_minus_1_companion_lives_in_the_zero_space():
    # k = p-1 puts the companion in M_2 = 0, so only g = 0 can serve
    p, k = 13, 12
    bound = plan_companion(p, k).bound
    one = miller_basis(p, k, max(bound, sturm(k)))[0, :bound]
    assert one.tolist() == [1] + [0] * (bound - 1)  # E_(p-1) = 1 mod p
    assert companion_oracle(one, p, k) == (True, [])
    delta = delta_q(p, bound)
    assert companion_oracle(delta, p, k) == (False, None)


def test_companion_out_of_range_rejected():
    # the report takes k in [4, p-3], even, so that both mirror weights carry a basis
    for p, k in ((7, 12), (37, 36), (37, 31), (37, 2)):
        with pytest.raises(ValueError):
            companion_report(p, k)


# --- companion dimensions ----------------------------------------------------------

def test_regular_dimension_is_one():
    piece, piece_prime = localized_pieces(37, 4)
    assert len(companion_space(piece, piece_prime)[0]) == 1
    assert len(companion_space(piece_prime, piece)[0]) == 1


def test_37_32_mirror_dimension():
    # B_6 = 1/42 is a unit mod 37, so the weight-6 local piece is the
    # Eisenstein line and its companion subspace is everything
    piece, piece_prime = localized_pieces(37, 32)
    assert piece_prime.dim == 1
    assert len(companion_space(piece_prime, piece)[0]) == 1
    assert len(companion_space(piece, piece_prime)[0]) == 1  # equality away from weight p-1


def test_companion_space_gives_witnesses():
    piece, piece_prime = localized_pieces(59, 44)
    vecs, _, _ = companion_space(piece, piece_prime)
    assert len(vecs) == 1
    bound = plan_companion(59, 44).bound
    f = piece_series(piece, vecs[:1], bound)[0]
    ok, _ = companion_oracle(f, 59, 44)
    assert ok


def test_reports_on_irregular_pairs():
    for p, k in IRREGULAR_PAIRS:
        rep = companion_report(p, k)
        assert rep.c_m == rep.c_m_prime == 1, (p, k)
        assert rep.dim_piece == 2 and rep.dim_piece_prime == 1
        assert rep.plan.bound == (k + (p + 1 - k) * (p + 1)) // 12 + 1


def _in_piece(series, piece):
    """Whether series lies in piece: on every coefficient both hold, it is a combination of the piece's forms."""
    n = min(len(series), piece.forms.shape[1])
    return solve(MatFp(piece.p, piece.forms[:, :n]).transpose(), MatFp(piece.p, [series[:n]]).transpose()) is not None


def test_mirror_check_eisenstein_pair():
    # f local at m implies its companion g local at m'
    p, k = 37, 32
    piece, piece_prime = localized_pieces(p, k)
    bound = plan_companion(p, k).bound
    f = eisenstein_q(p, k, bound)
    ok, gc = companion_oracle(f, p, k)
    g = form_of(miller_basis(p, p + 1 - k, bound), gc, p)
    assert ok and _in_piece(f, piece) and _in_piece(g, piece_prime)


def test_mirror_check_on_discovered_pairs():
    for p, k in IRREGULAR_PAIRS:
        rep = companion_report(p, k)
        bound = rep.plan.bound
        for f_coords, g_coords in json_witnesses(rep):
            f = piece_series(rep.piece, [f_coords], bound)[0]
            ok, oracle_g = companion_oracle(f, p, k)
            assert ok and oracle_g == g_coords, (p, k)
            g = form_of(miller_basis(p, rep.k_prime, bound), oracle_g, p)
            assert _in_piece(f, rep.piece) and _in_piece(g, rep.piece_prime), (p, k)


def test_dimension_stable_under_precision_increase():
    # the companion count is about forms, not the chosen cutoff
    p, k = 37, 32
    piece, piece_prime = localized_pieces(p, k)
    base = len(companion_space(piece, piece_prime)[0])
    bound = plan_companion(p, k).bound + 20
    fs = piece_series(piece, MatFp.identity(p, piece.dim).a, bound)
    again = kernel(MatFp(p, echelon_residues(fs, p, p + 1 - k, bound, p + 1 - k, 1)).transpose()).nrows
    assert again == base


def test_companion_dimension_against_exhaustive_count():
    # enumerate the entire (37, 32) local piece: the companion-admitting
    # subset must be a subspace of exactly p^c elements
    p, k = 37, 32
    piece, piece_prime = localized_pieces(p, k)
    assert piece.dim == 2
    bound = plan_companion(p, k).bound
    basis = piece.forms[:, :bound]
    count = 0
    for a in range(p):
        for b in range(p):
            f = (a * basis[0] + b * basis[1]) % p
            ok, _ = companion_oracle(f, p, k)
            count += ok
    c = len(companion_space(piece, piece_prime)[0])
    assert count == p**c == 37


def test_relation_kernel_matches_both_oracles():
    # the one kernel, in both directions, against the EchelonSpace reduction on the
    # whole theta^b(M_k') of the direction it reads and on the whole theta(M_k') at
    # the larger bound W = k + k'(p+1) (f), and against the forced-coefficient
    # solve (g, which lies in the mirror piece); c(m') is the dimension of the
    # mirror-piece forms that the whole other weight's space leaves no residue
    for p, k in oracle_pairs():
        rep = companion_report(p, k)
        for pc, mirror in ((rep.piece, rep.piece_prime), (rep.piece_prime, rep.piece)):
            kp = p + 1 - pc.k
            a, b, bound = smaller_direction(p, pc.k)
            old = plan_companion(p, pc.k).bound
            assert bound == min(old, plan_companion(p, kp).bound)
            f_coords, g_piece_coords, c_mirror = companion_space(pc, mirror)
            if pc is rep.piece:
                assert rep.witnesses == list(zip(f_coords, g_piece_coords)) and rep.c_m_prime == c_mirror
            # g's weight-k' echelon coordinates are the first dim M_k' coefficients of its form
            g_coords = piece_series(mirror, g_piece_coords, space_dim(kp)).tolist()
            fs = piece_series(pc, MatFp.identity(p, pc.dim).a, old)
            for resid in (echelon_residues(fs, p, kp, bound, a, b), echelon_residues(fs, p, kp, old, kp, 1)):
                assert f_coords == kernel(MatFp(p, resid).transpose()).a.tolist(), (p, pc.k)
            for fc, gc in zip(f_coords, g_coords):
                assert companion_oracle(piece_series(pc, [fc], old)[0], p, pc.k) == (True, gc), (p, pc.k)
                assert _in_piece(form_of(miller_basis(p, kp, old), gc, p), mirror), (p, pc.k)
            ma, mb, _ = smaller_direction(p, kp)
            gs = mirror.forms[:, :bound]
            assert c_mirror == kernel(MatFp(p, echelon_residues(gs, p, pc.k, bound, ma, mb)).transpose()).nrows


def test_relation_kernel_rejects_a_repeated_basis_row():
    # a repeated basis row puts a relation with f = 0 (mirror piece) or g = 0
    # (weight-k piece) in the kernel, as theta^b or theta^a failing to be
    # injective on a piece would: the counts disagree and none is returned
    piece, piece_prime = localized_pieces(37, 32)

    def twice(pc):
        return dataclasses.replace(pc, forms=np.vstack([pc.forms, pc.forms[:1]]))

    for pc, mirror in ((piece, twice(piece_prime)), (twice(piece), piece_prime)):
        with pytest.raises(AssertionError, match="c\\(m\\) = c\\(m'\\)"):
            companion_space(pc, mirror)


def test_witness_g_by_linearity_matches_the_oracle():
    # companion_space reads each witness's g as w . coords, the coordinates that the
    # one reduction of the piece's basis forms returned: it is the g the oracle solves
    # for, and theta^a f = theta^b g holds to the bound both weights share
    for p, k in [(p, k) for p, k in oracle_pairs() if p < 300] + [(37, 4)]:
        rep = companion_report(p, k)
        bound = plan_companion(p, k).bound
        a, b, shared = smaller_direction(p, k)
        target = miller_basis(p, rep.k_prime, bound)
        for f_coords, g_coords in json_witnesses(rep):
            f = piece_series(rep.piece, [f_coords], bound)[0]
            assert companion_oracle(f, p, k) == (True, g_coords), (p, k)
            g = form_of(target, g_coords, p)
            assert theta_series(f, p, a)[:shared].tolist() == theta_series(g, p, b)[:shared].tolist()


def test_companion_report_reduces_each_piece_once(monkeypatch):
    import eiscomp.companions as companions
    from eiscomp.localstruct import structure_report

    seen = []
    real = companions.companion_space
    monkeypatch.setattr(companions, "companion_space", lambda pc, mirror: seen.append((pc.k, mirror.k)) or real(pc, mirror))
    companion_report(37, 32)
    assert seen == [(32, 6)]
    structure_report(37, 32)
    assert seen == [(32, 6), (32, 6)]


def test_witness_csv_builds_no_third_basis(monkeypatch):
    # each pair builds its two weights once, at 24 coefficients at (37,32), whose
    # companion bound is 22, and at 84 at (59,44); the CSV reads its 24 columns
    # off the two pieces, with no basis, ladder ratio or inverse made.  Each f
    # and g is the start of a series on which the companion relation holds at
    # 100 and at 400 coefficients, by the test-side oracles
    import eiscomp.companions as companions
    import eiscomp.hecke as hecke
    from eiscomp import qexp

    real, real_ratio, real_inv = companions.miller_basis, companions.ladder_ratio, qexp.inverse_mod
    for p, k, prec in [(37, 32, 24), (59, 44, 84)]:
        calls, made = [], []

        def spy(p, k, prec, *rest, **kwargs):
            calls.append((p, k, prec))
            return real(p, k, prec, *rest, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(companions, "miller_basis", spy)
            mp.setattr(hecke, "miller_basis", spy)
            mp.setattr(companions, "ladder_ratio", lambda *args: made.append("ratio") or real_ratio(*args))
            mp.setattr(qexp, "inverse_mod", lambda f, m: made.append("inverse") or real_inv(f, m))
            rep = companion_report(p, k)
            assert calls == [(p, k, prec), (p, p + 1 - k, prec)] and made == ["ratio", "inverse"]
            rows = [line.split(",") for line in witness_csv(rep).splitlines()[1:]]
            assert calls == [(p, k, prec), (p, p + 1 - k, prec)] and made == ["ratio", "inverse"]
        assert len(rows) == 2 * rep.c_m == 2
        a, b, _ = smaller_direction(p, k)
        for n in (100, 400):
            for idx, (f_coords, g_coords) in enumerate(json_witnesses(rep)):
                f = piece_series(rep.piece, [f_coords], n)[0]
                g = form_of(miller_basis(p, rep.k_prime, n), g_coords, p)
                assert theta_series(f, p, a).tolist() == theta_series(g, p, b).tolist(), (p, k, n)
                assert rows[2 * idx][3:] == [str(c) for c in f[:24].tolist()]
                assert rows[2 * idx + 1][3:] == [str(c) for c in g[:24].tolist()]


def test_witness_csv_reads_the_report_pieces(capsys, monkeypatch, tmp_path):
    # the command localizes each mirror weight once: witness_csv reads report.piece
    import eiscomp.companions as companions
    import eiscomp.hecke as hecke
    from eiscomp.cli import main

    calls = []
    real = hecke.eisenstein_localize

    def counted(basis, gens, k, p):
        calls.append(k)
        return real(basis, gens, k, p)

    monkeypatch.setattr(hecke, "eisenstein_localize", counted)
    monkeypatch.setattr(companions, "eisenstein_localize", counted)
    path = tmp_path / "wit.csv"
    p, k, kp, prec = 37, 32, 6, 24
    assert main(["companion", "--p", str(p), "--k", str(k), "--witness-csv", str(path)]) == 0
    assert calls == [k, kp]
    witnesses = json.loads(capsys.readouterr().out)["witnesses"]
    piece = localize(miller_basis(p, k, prec), k, p)
    target = miller_basis(p, kp, prec)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 2 * len(witnesses) > 0
    for idx, w in enumerate(witnesses):
        f = piece_series(piece, [w["f_coords"]], prec)[0]
        g = form_of(target, w["g_coords"], p)
        assert rows[2 * idx] == [str(idx), "f", str(k)] + [str(c) for c in f.tolist()]
        assert rows[2 * idx + 1] == [str(idx), "g", str(kp)] + [str(c) for c in g.tolist()]


def test_witness_csv_shape():
    rep = companion_report(37, 32)
    text = witness_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "pair,side,weight," + ",".join(f"a{n}" for n in range(24))
    assert len(lines) == 1 + 2 * len(rep.witnesses)
    assert all(len(line.split(",")) == 3 + 24 for line in lines)


@pytest.mark.parametrize(
    "p,k,digest",
    [
        (37, 32, "78bfa292069f94fc"),
        (59, 44, "d5ef92368aa21af9"),
        (103, 24, "18ed8cf0736d12ae"),
        (157, 62, "7ca482e8c8b6cabe"),
        (293, 156, "f9dc28af31b0325c"),
    ],
)
def test_witness_csv_digest_is_pinned(p, k, digest):
    # the SHA-256 prefix of the default witness CSV, as the echelon-basis route wrote it
    assert hashlib.sha256(witness_csv(companion_report(p, k)).encode()).hexdigest()[:16] == digest


# --- the pieces' forms ----------------------------------------------------------

def assert_forms_match_the_basis(piece, cols):
    """The piece's forms to cols coefficients are their echelon coordinates times miller_basis at cols."""
    p, k = piece.p, piece.k
    want = _matmul(piece.forms[:, : space_dim(k)], miller_basis(p, k, cols), p)
    got = piece.forms[:, :cols]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (p, k)
    assert not piece.forms.flags.writeable, (p, k)
    with pytest.raises(ValueError):
        piece.forms[0, 0] = 1


def test_piece_forms_are_coordinates_times_the_basis():
    # both weights of every irregular pair below 600, (547,486) with its piece of dimension 3 among them
    dims = {}
    for p in sympy.primerange(11, 600):
        for k in irregular_indices(p):
            for piece in localized_pieces(p, k):
                assert_forms_match_the_basis(piece, piece.forms.shape[1])
                dims[(p, piece.k)] = piece.dim
    assert dims[(547, 486)] == 3 and len(dims) > 80


def test_piece_forms_at_1847_954_match_the_basis_on_20000_columns():
    for piece in localized_pieces(1847, 954):
        assert piece.forms.shape[1] == 137756
        assert_forms_match_the_basis(piece, 20000)
