"""The theta operator and companion-form detection.

theta = q d/dq multiplies a(n) by n and raises the graded weight by p+1.
A weight-k form f and a weight-k' form g (k' = p+1-k) are companions when
theta^(k') f = theta g.  On q-expansions mod p, n^p = n makes theta^p =
theta (Katz, LNM 601, 1977), so applying theta^(k-1) shows the relation
is equivalent to theta f = theta^k g.  The first form lives in the graded
ring at weight W = k + k'(p+1), the second at W' = k' + k(p+1), and
comparing coefficients up to floor(min(W, W')/12) decides either one; no
basis at that weight is ever materialized, only coefficient vectors of
that length.  The bound, plan_companion(p, max(k, k')).bound, is the same
for both weights of a pair, so c(m) and c(m') share it.

One routine, `_theta_reduce`, decides the relation: it reduces theta^(k')
f against theta(M_k') when k' <= k, and theta f against theta^k(M_k')
otherwise, and returns the residue with the coordinates of g, which are
the same in both directions.  The reduction is linear in f, so
`companion_space` reduces the piece's basis forms once, takes the kernel of
their residues, and reads each kernel vector's g off the same coordinates.
`companion_report` is the one pass per mirror pair: it checks the weight's
scope, localizes both weights, and checks c(m) = c(m').  Gross (Duke Math.
J. 61, 1990) gives the companion theory.

The pair owns its bases: `localized_pieces` builds each weight once, at
one precision that covers the companion bound and both localizations,
each piece keeps its basis as its space, and `companion_space` reads the
forms off it and reduces them against the mirror piece's space.  Between
builds only the ladder ratio Delta/E4^3 is held (`qexp._ladder_ratio`),
so the second weight's build reads the one the first made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hecke import EisLocalPiece, eisenstein_localize
from .linalg import MatFp, _matmul, _residues, kernel
from .qexp import (
    FormSpace,
    PrecisionPlan,
    QSeries,
    _powers,
    miller_basis,
    plan_companion,
    sturm,
)


def theta_series(f: QSeries, iterates: int = 1) -> QSeries:
    """Apply theta^j: a(n) -> n^j a(n), weight tag + j(p+1)."""
    if iterates < 0:
        raise ValueError("negative theta iterate")
    # 0^0 = 1 keeps a(0) at zero iterates; any iterate kills it
    powers = _powers(iterates, f.prec, f.modulus)
    return QSeries(f.p, powers * f.coeffs, f.weight + iterates * (f.p + 1), f.digits)


def _companion_bound(p: int, k: int) -> int:
    """Coefficients that decide the companion relation at either weight of (k, p+1-k)."""
    return plan_companion(p, max(k, p + 1 - k)).bound


def _theta_reduce(p: int, k: int, fs: np.ndarray, mirror: FormSpace) -> tuple[np.ndarray, np.ndarray]:
    """Residues theta^a f - theta^b g and the weight-k' coordinates of g.

    The direction is the one at the smaller graded weight: (a, b) = (k', 1)
    when k' <= k, else (1, k), and the comparison bound is
    `_companion_bound(p, k)`, which fs, weight-k series one per row, and
    `mirror`, the echelon basis of M_k', must reach; longer rows are cut
    to it.  f has a companion exactly when its residue is zero, and g is
    then one, the same g in both directions.
    Row j >= 1 of the echelon basis of M_k' is q^j + O(q^dim), so theta^b
    of it is the unit j^b at q^j and zero at the other q^i, i < dim < p:
    its coordinate is v[j]/j^b.  Theta^b of row 0 vanishes below q^dim and
    is cleared at its first nonzero coefficient n0, or skipped if it has
    none to the bound.  The residue vanishes at those pivots, so it is the
    forward-reduced residue against any echelon basis of theta^b(M_k')
    with them.  Theta^b is diagonal, so it is applied to what the residue
    reads of the basis, row 0, column n0 and the combination coords * basis,
    not to every row of the basis.
    """
    kp = p + 1 - k
    a, b = (kp, 1) if kp <= k else (1, k)
    bound = _companion_bound(p, k)
    basis = mirror.coeffs[:, :bound]
    d = len(basis)
    theta_b = _powers(b, bound, p)
    v = fs[:, :bound] * _powers(a, bound, p) % p
    coords = np.zeros((len(v), d), dtype=v.dtype)
    coords[:, 1:] = v[:, 1:d] * _residues(p, [pow(j, -b, p) for j in range(1, d)]) % p
    lead = np.flatnonzero(basis[0] * theta_b % p)
    if lead.size:
        n0 = int(lead[0])
        column = basis[:, n0] * theta_b[n0] % p  # column n0 of theta^b(basis)
        rest = v[:, n0] - _matmul(coords[:, 1:], column[1:], p)
        coords[:, 0] = rest * pow(int(column[0]), -1, p) % p
    return (v - _matmul(coords, basis, p) * theta_b) % p, coords


def companion_space(piece: EisLocalPiece, mirror: EisLocalPiece) -> tuple[list[list[int]], list[list[int]]]:
    """Basis (piece coordinates) of the companion-admitting subspace, and each one's g.

    An element f of the weight-k piece has a companion exactly when
    `_theta_reduce` leaves it no residue, against the space of the
    weight-k' piece `mirror`, to the bound both weights of the pair share;
    the subspace is the kernel of the map to the residues.
    The reduction is linear in f, so the weight-k' coordinates of the
    companion g of a kernel vector w are w times the coordinates it returns
    for the piece's basis forms: the second list holds them, row for row.
    """
    p, k = piece.p, piece.k
    basis = piece.series(MatFp.identity(p, piece.dim).a, _companion_bound(p, k))
    resid, coords = _theta_reduce(p, k, np.stack([s.coeffs for s in basis]), mirror.space)
    ker = kernel(MatFp._wrap(p, resid).transpose()).a
    return ker.tolist(), _matmul(ker, coords, p).tolist()


@dataclass
class CompanionReport:
    """Companion dimensions for the mirror pair of Eisenstein pieces.

    `witnesses` pairs each basis vector of the weight-k companion space
    (piece coordinates) with its companion's weight-k' coordinates;
    `piece` and `piece_prime` are the two pieces the counts were read on.
    """

    p: int
    k: int
    c_m_prime: int
    witnesses: list[tuple[list[int], list[int]]]
    plan: PrecisionPlan
    piece: EisLocalPiece = field(repr=False, compare=False)
    piece_prime: EisLocalPiece = field(repr=False, compare=False)

    @property
    def k_prime(self) -> int:
        return self.p + 1 - self.k

    @property
    def c_m(self) -> int:
        return len(self.witnesses)

    @property
    def dim_piece(self) -> int:
        return self.piece.dim

    @property
    def dim_piece_prime(self) -> int:
        return self.piece_prime.dim

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
    target = miller_basis(p, kp, max(prec, sturm(kp)))
    lines = ["pair,side,weight," + ",".join(f"a{n}" for n in range(prec))]
    fs = report.piece.series([fc for fc, _ in report.witnesses], prec)
    for idx, ((_, gc), f) in enumerate(zip(report.witnesses, fs)):
        g = target.coords_to_series(gc).truncate(prec)
        lines.append(f"{idx},f,{k}," + ",".join(str(c) for c in f.coeffs.tolist()))
        lines.append(f"{idx},g,{kp}," + ",".join(str(c) for c in g.coeffs.tolist()))
    return "\n".join(lines) + "\n"


def localized_pieces(p: int, k: int) -> tuple[EisLocalPiece, EisLocalPiece]:
    """The weight-k and weight-(p+1-k) Eisenstein-local pieces.

    Each weight's basis is built once, at the one precision that covers
    all the pair reads: the companion bound and both localizations'
    sturm(w)^2.  At one precision the second build reads the ladder ratio
    the first one made.  Each piece keeps its basis as its space.
    """
    kp = p + 1 - k
    prec = max(_companion_bound(p, k), sturm(k) ** 2, sturm(kp) ** 2)
    piece = eisenstein_localize(miller_basis(p, k, prec))
    piece_prime = eisenstein_localize(miller_basis(p, kp, prec))
    return piece, piece_prime


def companion_report(p: int, k: int) -> CompanionReport:
    """Compute c(m), c(m') and witness pairs for the mirror weights (k, k').

    The one pass per mirror pair.  k must be even in [4, p-3], so that both
    mirror weights carry a basis; any other k is a ValueError before any
    work.  Both counts are at least one, because the two Eisenstein series
    are companions of each other, and they must be equal, else
    AssertionError.
    """
    if not (4 <= k <= p - 3) or k % 2 == 1:
        raise ValueError(f"weight {k} outside [4, p-3] for p={p}")
    piece, piece_prime = localized_pieces(p, k)
    wit_coords, g_coords = companion_space(piece, piece_prime)
    c_m_prime = len(companion_space(piece_prime, piece)[0])
    # the two pieces reduce in opposite directions, so each checks the other
    if not (1 <= len(wit_coords) == c_m_prime):
        raise AssertionError(f"mirror equality c(m) = c(m') fails: {len(wit_coords)} against {c_m_prime}")
    return CompanionReport(
        p=p,
        k=k,
        c_m_prime=c_m_prime,
        witnesses=list(zip(wit_coords, g_coords)),
        plan=plan_companion(p, k),
        piece=piece,
        piece_prime=piece_prime,
    )
