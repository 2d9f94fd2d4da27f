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

One kernel decides the relation on the two Eisenstein-local pieces.  It
reads theta^a of the weight-k piece's forms and theta^b of the weight-k'
piece's forms, (a, b) = (k', 1) when k' <= k, else (1, k), and takes the
kernel of the one matrix they make: each kernel vector pairs an f with
its companion g.  g lies in the mirror piece, for theta T(l) = l T(l)
theta on q-expansions, so the relation splits along the local components
of M_k', and a component of g outside the mirror piece would satisfy
theta^b g_o = 0; theta is injective on M_w for 4 <= w <= p-3, since a
nonzero form mod p killed by theta has filtration divisible by p (Katz,
LNM 601, 1977; Jochnowitz, Trans. AMS 270, 1982).  The same holds with
the roles of the pieces swapped, so c(m) and c(m') are the ranks of the
two projections of the one kernel.  `companion_report` is the one pass
per mirror pair: it checks the weight's scope, localizes both weights,
and reads the counts and witnesses off that kernel.  Gross (Duke Math.
J. 61, 1990) gives the companion theory.

The pair keeps no basis: `localized_pieces` builds each weight once, at
one precision that covers the companion bound, both localizations and
the witness CSV, and cuts its piece from it; each piece keeps its forms,
off which `companion_space` and `witness_csv` read, and the basis is
freed before the other weight is built.  The pair makes the ladder ratio
Delta/E4^3 once at that precision (`qexp.ladder_ratio`) and passes it to
both builds; nothing outlives the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hecke import EisLocalPiece, eisenstein_localize
from .linalg import MatFp, _matmul, _residues, kernel, rank
from .qexp import (
    PrecisionPlan,
    _powers,
    ladder_ratio,
    miller_basis,
    plan_companion,
    space_dim,
    sturm,
)

# coefficients of each witness series in the witness CSV
WITNESS_PREC = 24


def _companion_bound(p: int, k: int) -> int:
    """Coefficients that decide the companion relation at either weight of (k, p+1-k)."""
    return plan_companion(p, max(k, p + 1 - k)).bound


def companion_space(piece: EisLocalPiece, mirror: EisLocalPiece) -> tuple[list[list[int]], list[list[int]], int]:
    """Basis (piece coordinates) of the companion-admitting subspace, each one's g, and c(m').

    The relation theta^a f = theta^b g, (a, b) = (k', 1) when k' <= k else
    (1, k), is read on the forms of the weight-k piece and of the
    weight-k' piece `mirror`, to the bound both weights of the pair share,
    which both pieces' forms must reach (`localized_pieces` builds them
    so).  Its solutions are the kernel of the matrix whose columns are
    -theta^b of the mirror's forms, then theta^a of the piece's forms.
    The x part of a kernel vector is the piece coordinates of f, and its y
    part the mirror-piece coordinates of g, so the second list holds one g
    per basis vector of the first.  c(m) and c(m') are the ranks of the x
    and the y parts.  Both must equal the kernel's dimension and be at
    least one, else AssertionError: that checks that theta^a and theta^b
    stay injective on the two pieces, which they are for weights in
    [4, p-3], and that the two Eisenstein series are companions.
    """
    p, k = piece.p, piece.k
    kp = p + 1 - k
    a, b = (kp, 1) if kp <= k else (1, k)
    bound = _companion_bound(p, k)

    def theta_forms(pc: EisLocalPiece, j: int) -> np.ndarray:
        return pc.forms[:, :bound] * _powers(j, bound, p) % p

    # mirror columns first: each is a pivot, so the kernel's free columns are the piece's
    ker = kernel(MatFp._wrap(p, np.vstack([-theta_forms(mirror, b) % p, theta_forms(piece, a)]).T)).a
    ys, xs = ker[:, : mirror.dim], ker[:, mirror.dim :]
    c_m, c_m_prime = rank(MatFp._wrap(p, xs)), rank(MatFp._wrap(p, ys))
    if not (1 <= c_m == c_m_prime == len(ker)):
        raise AssertionError(f"mirror equality c(m) = c(m') fails: {c_m} against {c_m_prime}")
    return xs.tolist(), ys.tolist(), c_m_prime


@dataclass
class CompanionReport:
    """Companion dimensions for the mirror pair of Eisenstein pieces.

    `witnesses` pairs each basis vector of the weight-k companion space
    (piece coordinates) with its companion's mirror-piece coordinates;
    `piece` and `piece_prime` are the two pieces the counts were read on.
    The JSON gives each g by its weight-k' echelon coordinates, the first
    dim M_k' coefficients of its form.
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

    def witness_series(self, prec: int) -> tuple[np.ndarray, np.ndarray]:
        """The f and the g of every witness to prec coefficients, read off the two pieces' forms.

        One array per side, a row per witness.
        """
        fs, gs = zip(*self.witnesses)
        return (
            _matmul(_residues(self.p, fs), self.piece.forms[:, :prec], self.p),
            _matmul(_residues(self.p, gs), self.piece_prime.forms[:, :prec], self.p),
        )

    def to_json(self) -> dict:
        _, g_coords = self.witness_series(space_dim(self.k_prime))
        return {
            "p": self.p,
            "k": self.k,
            "k_prime": self.k_prime,
            "c_m": self.c_m,
            "c_m_prime": self.c_m_prime,
            "dim_piece": self.dim_piece,
            "dim_piece_prime": self.dim_piece_prime,
            "witnesses": [
                {"f_coords": list(fc), "g_coords": gc} for (fc, _), gc in zip(self.witnesses, g_coords.tolist())
            ],
            "plan": self.plan.to_json(),
        }


def witness_csv(report: "CompanionReport") -> str:
    """Witness q-expansions, one row per side of each companion pair.

    f and g are read off the pair's two pieces, WITNESS_PREC coefficients
    each; `localized_pieces` builds the pieces' forms that far.
    """
    lines = ["pair,side,weight," + ",".join(f"a{n}" for n in range(WITNESS_PREC))]
    fs, gs = report.witness_series(WITNESS_PREC)
    for idx, (f, g) in enumerate(zip(fs.tolist(), gs.tolist())):
        lines.append(f"{idx},f,{report.k}," + ",".join(map(str, f)))
        lines.append(f"{idx},g,{report.k_prime}," + ",".join(map(str, g)))
    return "\n".join(lines) + "\n"


def localized_pieces(p: int, k: int) -> tuple[EisLocalPiece, EisLocalPiece]:
    """The weight-k and weight-(p+1-k) Eisenstein-local pieces.

    Each weight's basis is built once, at the one precision that covers
    all the pair reads: the companion bound, both localizations'
    sturm(w)^2 and the witness CSV's WITNESS_PREC.  The ladder ratio is
    made once at that precision and given to both builds.  Each piece
    keeps its forms, so a weight's basis is freed once its piece is cut.
    """
    kp = p + 1 - k
    prec = max(_companion_bound(p, k), sturm(k) ** 2, sturm(kp) ** 2, WITNESS_PREC)
    ratio = ladder_ratio(p, prec)
    piece = eisenstein_localize(miller_basis(p, k, prec, ratio=ratio))
    piece_prime = eisenstein_localize(miller_basis(p, kp, prec, ratio=ratio))
    return piece, piece_prime


def companion_report(p: int, k: int) -> CompanionReport:
    """Compute c(m), c(m') and witness pairs for the mirror weights (k, k').

    The one pass per mirror pair.  k must be even in [4, p-3], so that both
    mirror weights carry a basis; any other k is a ValueError before any
    work.  One `companion_space` call gives the witnesses and c(m').  Both
    counts are at least one, because the two Eisenstein series are
    companions of each other, and they must be equal, else AssertionError:
    `companion_space` checks the kernel's ranks, and the report the counts
    it keeps.
    """
    if not (4 <= k <= p - 3) or k % 2 == 1:
        raise ValueError(f"weight {k} outside [4, p-3] for p={p}")
    piece, piece_prime = localized_pieces(p, k)
    wit_coords, g_coords, c_m_prime = companion_space(piece, piece_prime)
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
