"""Structure theory of the Eisenstein-local Hecke algebras.

An Eisenstein-local piece carries a finite commutative F_p-algebra: the
closure of the restricted T(l), l prime.  It is local, with maximal ideal
generated by the restricted T(l) - sigma_(k-1)(l) (all nilpotent), and the
image of the Eisenstein ideal in it coincides with that maximal ideal.  This
module computes socle dimensions (Gorenstein = socle dimension one), minimal
generator counts of the ideal image, cyclicity of the cuspidal piece as a
module, and cross-checks the equivalences these are expected to satisfy
when the mirror companion dimension is one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .companions import companion_dimension, localized_pieces
from .errors import NotLocalError
from .hecke import EisLocalPiece, generator_primes
from .linalg import EchelonSpace, MatFp, algebra_closure, rank
from .qexp import PrecisionPlan, plan_companion


def _span(mats: list[MatFp]) -> list[MatFp]:
    """Echelon basis of the linear span of equally sized square matrices."""
    if not mats:
        return []
    p, n = mats[0].p, mats[0].nrows
    ech = EchelonSpace(p, n * n)
    for m in mats:
        ech.insert(m.a.ravel())
    return [MatFp(p, row.reshape(n, n)) for row in ech.rows]


@dataclass
class LocalAlgebra:
    """A finite-dimensional commutative local F_p-algebra of square matrices.

    `basis` spans the algebra with the identity first, as `algebra_closure`
    returns it; `maxideal_gens` generate the maximal ideal.  Construction
    checks locality: every generator is nilpotent and the ideal they
    generate, `maxideal`, has codimension one.
    """

    basis: list[MatFp]
    maxideal_gens: list[MatFp]
    maxideal: list[MatFp] = field(init=False)

    def __post_init__(self):
        for g in self.maxideal_gens:
            if not (g**g.nrows).is_zero():
                raise NotLocalError("a maximal-ideal generator is not nilpotent")
        # each A*g is already an ideal, so the products b*g span the maximal ideal
        self.maxideal = _span([b * g for b in self.basis for g in self.maxideal_gens])
        if len(self.maxideal) != self.dim - 1:
            raise NotLocalError(
                f"ideal of generators has dimension {len(self.maxideal)}, "
                f"expected {self.dim - 1}"
            )

    @property
    def p(self) -> int:
        return self.basis[0].p

    @property
    def dim(self) -> int:
        return len(self.basis)


def restrict_algebra(piece: EisLocalPiece) -> LocalAlgebra:
    """The local Hecke algebra acting on an Eisenstein-local piece.

    Basis from the closure of the restricted T(l), l prime up to the
    coefficient bound; maximal ideal generated by the restricted
    T(l) - sigma_(k-1)(l).  A non-local outcome (which a semisimple,
    non-localized input would produce) is rejected.
    """
    if piece.dim == 0:
        raise ValueError("zero piece carries the zero ring")
    primes = generator_primes(piece.k)
    return LocalAlgebra(
        basis=algebra_closure([piece.restricted[ell] for ell in primes], p=piece.p, dim=piece.dim),
        maxideal_gens=[piece.eta_restricted(ell) for ell in primes],
    )


def socle_dim(alg: LocalAlgebra) -> int:
    """Dimension of the annihilator of the maximal ideal.

    x kills the whole ideal as soon as it kills the generators, so the
    socle is the kernel of x -> (x*g) over the generators g.  The unit
    algebra (zero maximal ideal) has socle dimension equal to its own
    dimension, which is 1 in the local case.
    """
    if not alg.maxideal_gens or alg.dim == 1:
        return alg.dim
    # row i holds the products basis[i]*g side by side; the socle is its left kernel
    rows = [np.concatenate([(b * g).a.ravel() for g in alg.maxideal_gens]) for b in alg.basis]
    return alg.dim - rank(MatFp(alg.p, np.array(rows)))


def gorenstein(alg: LocalAlgebra) -> bool:
    """Gorenstein for an Artinian local algebra: one-dimensional socle."""
    return socle_dim(alg) == 1


def eis_ideal_min_gens(cusp_alg: LocalAlgebra | None, full_alg: LocalAlgebra) -> int:
    """Minimal generator count of the Eisenstein-ideal image.

    In the mod-p local algebra the image of the Eisenstein ideal is the
    ideal generated by the T(n) - sigma_(k-1)(n), which is the whole
    maximal ideal m; graded Nakayama counts its minimal generators as
    dim m / m^2, where m^2 is spanned by products of a basis of m with the
    generators.  A zero cuspidal piece short-circuits to 0: the ideal
    image is zero exactly when no congruent cusp form exists.
    """
    if cusp_alg is None or not full_alg.maxideal:
        return 0
    m2 = _span([x * g for x in full_alg.maxideal for g in full_alg.maxideal_gens])
    return len(full_alg.maxideal) - len(m2)


def module_cyclic_dim(piece_cusp: EisLocalPiece) -> int:
    """dim of (cuspidal piece) / (maximal ideal * cuspidal piece).

    One means the piece is cyclic over its local Hecke algebra, by
    Nakayama.  Computed from the nilpotent generators acting on the piece:
    the rows of the stacked transposes span the images of all of them.
    """
    if piece_cusp.dim == 0:
        return 0
    images = MatFp.vstack(
        [piece_cusp.eta_restricted(ell).transpose() for ell in generator_primes(piece_cusp.k)]
    )
    return piece_cusp.dim - rank(images)


def check_equivalences(gor_h: bool, cyclic: bool, min_gens_one: bool) -> list[str]:
    """Pairwise-equivalence failures among the three structure conditions."""
    failures = []
    if gor_h != cyclic:
        failures.append("gorenstein(h) and cyclicity of the cuspidal piece disagree")
    if gor_h != min_gens_one:
        failures.append("gorenstein(h) and principality of the ideal image disagree")
    if cyclic != min_gens_one:
        failures.append("cyclicity and principality disagree")
    return failures


@dataclass
class StructureReport:
    """Structure verdicts for one (p, k) with cross-checked equivalences."""

    p: int
    k: int
    dim_m_local: int
    dim_s_local: int
    c_m_prime: int
    gorenstein_full: bool
    gorenstein_cusp: bool | None
    socle_full: int
    socle_cusp: int | None
    min_gens: int
    cyclic_cusp: bool | None
    dim_identity_ok: bool
    zero_cuspidal: bool
    equivalence_failures: list[str] = field(default_factory=list)
    complete_intersection: str = "not evaluated"
    plan: PrecisionPlan | None = None

    @property
    def all_asserted_hold(self) -> bool:
        ok = not self.equivalence_failures and self.dim_identity_ok
        if self.c_m_prime == 1:
            ok = ok and self.gorenstein_full
        return ok

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "dim_m_local": self.dim_m_local,
            "dim_s_local": self.dim_s_local,
            "c_m_prime": self.c_m_prime,
            "gorenstein_full": self.gorenstein_full,
            "gorenstein_cusp": self.gorenstein_cusp,
            "socle_full": self.socle_full,
            "socle_cusp": self.socle_cusp,
            "eis_ideal_min_gens": self.min_gens,
            "cyclic_cuspidal": self.cyclic_cusp,
            "dim_identity_ok": self.dim_identity_ok,
            "zero_cuspidal": self.zero_cuspidal,
            "equivalence_failures": self.equivalence_failures,
            "complete_intersection": self.complete_intersection,
            "all_asserted_hold": self.all_asserted_hold,
            "plan": self.plan.to_json() if self.plan else None,
        }

    def csv_row(self) -> str:
        gh = "" if self.gorenstein_cusp is None else str(self.gorenstein_cusp).lower()
        return (
            f"{self.p},{self.k},{self.dim_m_local},{self.dim_s_local},"
            f"{self.c_m_prime},{str(self.gorenstein_full).lower()},{gh},{self.min_gens}"
        )


CSV_HEADER = "p,k,dimM_m,dimS_m,c_m_prime,gor_H,gor_h,min_gens"


def dim_identity_holds(piece: EisLocalPiece, piece_cusp: EisLocalPiece) -> bool:
    """dim(M-local) - 1 = dim(S-local): the Eisenstein line survives."""
    return piece.dim - 1 == piece_cusp.dim


def structure_report(p: int, k: int) -> StructureReport:
    """Full structure suite for one (p, k): the finite-weight equivalences.

    Under c(m') = 1 the localized full algebra is asserted Gorenstein, the
    cuspidal-side conditions (Gorenstein, cyclic piece, principal ideal
    image) are asserted pairwise equivalent, and the dimension identity
    dim(M-local) = dim(S-local) + 1 is asserted.  Complete-intersection
    status is reported as not evaluated.
    """
    piece, piece_prime = localized_pieces(p, k)
    cusp = piece.cuspidal_subpiece()
    c_m_prime = companion_dimension(piece_prime)
    full_alg = restrict_algebra(piece)
    zero_cusp = cusp.dim == 0
    if zero_cusp:
        cusp_alg = None
        gor_h: bool | None = None
        socle_h: int | None = None
        cyclic: bool | None = None
    else:
        cusp_alg = restrict_algebra(cusp)
        socle_h = socle_dim(cusp_alg)
        gor_h = socle_h == 1
        cyclic = module_cyclic_dim(cusp) == 1
    min_gens = eis_ideal_min_gens(cusp_alg, full_alg)
    failures: list[str] = []
    if c_m_prime == 1 and not zero_cusp:
        failures = check_equivalences(bool(gor_h), bool(cyclic), min_gens == 1)
    report = StructureReport(
        p=p,
        k=k,
        dim_m_local=piece.dim,
        dim_s_local=cusp.dim,
        c_m_prime=c_m_prime,
        gorenstein_full=gorenstein(full_alg),
        gorenstein_cusp=gor_h,
        socle_full=socle_dim(full_alg),
        socle_cusp=socle_h,
        min_gens=min_gens,
        cyclic_cusp=cyclic,
        dim_identity_ok=dim_identity_holds(piece, cusp),
        zero_cuspidal=zero_cusp,
        equivalence_failures=failures,
        plan=plan_companion(p, k),
    )
    return report
