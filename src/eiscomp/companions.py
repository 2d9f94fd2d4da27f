"""The theta operator, filtration, and companion-form detection.

theta = q d/dq multiplies a(n) by n and raises the graded weight by p+1.
A weight-k form f and a weight-k' form g (k' = p+1-k) are companions when
theta^(k') f = theta g, equivalently theta^k g = theta f.  Both sides of
that relation live in the graded ring at weight W = k + k'(p+1), so
comparing coefficients up to floor(W/12) decides it; no basis at weight W
is ever materialized, only coefficient vectors of that length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError
from .hecke import EisLocalPiece, eisenstein_localize
from .linalg import EchelonSpace, MatFp, kernel, solve
from .qexp import (
    PrecisionPlan,
    QSeries,
    _powers,
    membership,
    miller_basis,
    plan_companion,
    space_dim,
    sturm,
)


def theta_series(f: QSeries, iterates: int = 1) -> QSeries:
    """Apply theta^j: a(n) -> n^j a(n), weight tag + j(p+1)."""
    if iterates < 0:
        raise ValueError("negative theta iterate")
    # 0^0 = 1 keeps a(0) at zero iterates; any iterate kills it
    powers = _powers(iterates, f.prec, f.modulus)
    return QSeries(f.p, powers * f.coeffs, f.weight + iterates * (f.p + 1), f.digits)


def filtration(f: QSeries, k: int | None = None) -> int:
    """Least weight k0 = k mod p-1 in which f occurs as a true form.

    Tests membership in the weight-k0 echelon bases at the weight-k
    coefficient bound, from the bottom up.  Weight 0 means f is constant;
    weight 2 is empty at level one and is skipped.
    """
    if f.is_zero():
        raise ValueError("the zero series has no filtration")
    if f.digits != 1:
        raise ValueError("filtration is a mod-p notion")
    p = f.p
    if k is None:
        k = f.weight
    need = sturm(k)
    if f.prec < need:
        raise PrecisionError(f"need {need} coefficients to settle weight {k}")
    candidates = [k0 for k0 in range(k % (p - 1), k + 1, p - 1)]
    for k0 in candidates:
        if k0 == 0:
            if not f.coeffs[1:need].any():
                return 0
            continue
        if k0 % 2 == 1 or space_dim(k0) == 0:
            continue
        if membership(f.truncate(need), miller_basis(p, k0, need)) is not None:
            return k0
    raise AssertionError(f"form of weight {k} missing from its own weight")


def has_companion(f: QSeries) -> tuple[bool, list[int] | None]:
    """Decide whether f (weight k, 4 <= k <= p-1) has a companion.

    A companion g of weight k' = p+1-k must satisfy n^(k') a(n; f) =
    n a(n; g) for every n up to the graded comparison bound.  For n prime
    to p that forces a(n; g) = n^(k'-1) a(n; f); the remaining
    coefficients of g are free and are solved for by membership in the
    weight-k' basis.  At k = p-1 that space M_2 is zero, so g = 0 is the
    only candidate and the coordinate list is empty.
    """
    p, k = f.p, f.weight
    if f.digits != 1:
        raise ValueError("companions are a mod-p notion")
    if not (4 <= k <= p - 1) or k % 2 == 1:
        raise ValueError(f"weight {k} outside the companion range for p={p}")
    plan = plan_companion(p, k)
    bound = plan.bound
    if f.prec < bound:
        raise PrecisionError(f"need {bound} coefficients, have {f.prec}")
    kp = p + 1 - k
    forced = np.flatnonzero(np.arange(bound) % p)  # 0 < n < bound, n prime to p
    rhs = MatFp(p, theta_series(f, kp - 1).coeffs[forced, None])
    if space_dim(kp) == 0:
        return (True, []) if rhs.is_zero() else (False, None)
    target = miller_basis(p, kp, bound)
    # linear system: coords c of g must hit the forced coefficients
    solution = solve(MatFp(p, target.coeffs[:, forced].T), rhs)
    if solution is None:
        return False, None
    coords = solution.a[:, 0].tolist()
    g = target.coords_to_series(coords)
    if not np.array_equal(theta_series(f, kp).coeffs[:bound], theta_series(g).coeffs[:bound]):
        raise AssertionError("solved companion fails theta^(k') f = theta g")
    return True, coords


def companion_space(piece: EisLocalPiece) -> list[list[int]]:
    """Basis (piece coordinates) of the companion-admitting subspace.

    An element f of the weight-k piece has a companion exactly when
    theta^(k') f falls in theta(M_k'), both spanned to the graded bound;
    the subspace is the kernel of the induced quotient map.
    """
    p, k = piece.p, piece.k
    plan = plan_companion(p, k)
    bound = plan.bound
    kp = p + 1 - k
    target = EchelonSpace(p, bound)
    for row in miller_basis(p, kp, bound).coeffs:
        target.insert(theta_series(QSeries(p, row, kp)).coeffs)
    basis = piece.series(MatFp.identity(p, piece.dim).a, bound)
    resid = MatFp(p, target.reduce(np.stack([theta_series(s, kp).coeffs for s in basis])))
    return kernel(resid.transpose()).a.tolist()


def companion_dimension(piece: EisLocalPiece) -> int:
    """dim of the companion-admitting subspace of an Eisenstein-local piece."""
    return len(companion_space(piece))


def mirror_check(f: QSeries, g: QSeries) -> bool:
    """For a companion pair (f, g): f local at m implies g local at m'.

    Verifies the companion relation first, then tests membership of f in
    the weight-k Eisenstein piece and of g in the weight-k' one; returns
    the truth of the implication.
    """
    p, k = f.p, f.weight
    kp = p + 1 - k
    if g.weight != kp:
        raise ValueError("weights are not mirror partners")
    plan = plan_companion(p, k)
    bound = plan.bound
    if min(f.prec, g.prec) < bound:
        raise PrecisionError("pair is below the comparison bound")
    if not np.array_equal(theta_series(f, kp).coeffs[:bound], theta_series(g).coeffs[:bound]):
        raise ValueError("not a companion pair")
    if f.is_zero():
        return True
    f_in = _in_local_piece(f)
    g_in = _in_local_piece(g)
    return (not f_in) or g_in


def _in_local_piece(f: QSeries) -> bool:
    space = miller_basis(f.p, f.weight, max(sturm(f.weight) ** 2, f.prec))
    coords = membership(f.truncate(space.prec), space)
    if coords is None:
        return False
    piece = eisenstein_localize(space)
    return piece.contains_ambient(coords)


@dataclass
class CompanionReport:
    """Companion dimensions for the mirror pair of Eisenstein pieces."""

    p: int
    k: int
    k_prime: int
    c_m: int
    c_m_prime: int
    dim_piece: int
    dim_piece_prime: int
    witnesses: list[tuple[list[int], list[int]]]
    plan: PrecisionPlan

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "k_prime": self.k_prime,
            "c_m": self.c_m,
            "c_m_prime": self.c_m_prime,
            "dim_piece": self.dim_piece,
            "dim_piece_prime": self.dim_piece_prime,
            "witnesses": [
                {"f_coords": list(fc), "g_coords": list(gc)} for fc, gc in self.witnesses
            ],
            "plan": self.plan.to_json(),
        }


def witness_csv(report: "CompanionReport", prec: int = 24) -> str:
    """Witness q-expansions, one row per side of each companion pair."""
    p, k, kp = report.p, report.k, report.k_prime
    piece, _ = localized_pieces(p, k)
    target = miller_basis(p, kp, max(prec, sturm(kp)))
    lines = ["pair,side,weight," + ",".join(f"a{n}" for n in range(prec))]
    fs = piece.series([fc for fc, _ in report.witnesses], prec)
    for idx, ((_, gc), f) in enumerate(zip(report.witnesses, fs)):
        g = target.coords_to_series(gc).truncate(prec)
        lines.append(f"{idx},f,{k}," + ",".join(str(c) for c in f.coeffs.tolist()))
        lines.append(f"{idx},g,{kp}," + ",".join(str(c) for c in g.coeffs.tolist()))
    return "\n".join(lines) + "\n"


def localized_pieces(p: int, k: int) -> tuple[EisLocalPiece, EisLocalPiece]:
    """The weight-k and weight-(p+1-k) Eisenstein-local pieces."""
    kp = p + 1 - k
    piece = eisenstein_localize(miller_basis(p, k, sturm(k) ** 2))
    piece_prime = eisenstein_localize(miller_basis(p, kp, sturm(kp) ** 2))
    return piece, piece_prime


def companion_report(p: int, k: int) -> CompanionReport:
    """Compute c(m), c(m') and witness pairs for the mirror weights (k, k').

    c(m) <= c(m') always, with equality away from k = p-1; both are at
    least one because the two Eisenstein series are companions of each
    other.
    """
    if not (4 <= k <= p - 3) or k % 2 == 1:
        raise ValueError(f"weight {k} outside [4, p-3] for p={p}")
    kp = p + 1 - k
    plan = plan_companion(p, k)
    piece, piece_prime = localized_pieces(p, k)
    wit_coords = companion_space(piece)
    c_m = len(wit_coords)
    c_m_prime = companion_dimension(piece_prime)
    if not (1 <= c_m <= c_m_prime):
        raise AssertionError("companion dimensions violate the mirror inequality")
    if k != p - 1 and c_m != c_m_prime:
        raise AssertionError("mirror equality fails away from weight p-1")
    witnesses = []
    for c, f in zip(wit_coords, piece.series(wit_coords, plan.bound)):
        ok, g_coords = has_companion(f)
        if not ok:
            raise AssertionError("kernel vector lost its companion on recheck")
        witnesses.append((c, g_coords))
    return CompanionReport(
        p=p,
        k=k,
        k_prime=kp,
        c_m=c_m,
        c_m_prime=c_m_prime,
        dim_piece=piece.dim,
        dim_piece_prime=piece_prime.dim,
        witnesses=witnesses,
        plan=plan,
    )
