"""Hecke operators on level-one q-expansions and Eisenstein localization.

Operators act on coefficients through the divisor-sum rule
a(m; f|T(n)) = sum over d | gcd(m, n) of d^(k-1) a(mn/d^2; f); at level one
the diamond action is trivial and T(m, m) is the scalar m^(k-2).  Matrices
are taken in the echelon basis of a FormSpace, whose first dim
coefficients are coordinates, once per space and index.

The Hecke algebra is the linear closure of T(l) for the primes l up to the
weight's coefficient bound sturm(k).  That suffices: the algebra is spanned
by T(n) for n <= sturm(k), and each such T(n) is a polynomial in the T(l)
with l | n, since T(mn) = T(m) T(n) for coprime m, n and
T(l^(r+1)) = T(l) T(l^r) - l^(k-1) T(l^(r-1)).  For the same reason the
Eisenstein maximal ideal is generated by the T(l) - sigma_(k-1)(l), and the
localization at it is their common generalized kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import PrecisionError
from .linalg import (
    MatFp,
    _matmul,
    algebra_closure,
    generalized_eigenspace,
    kernel,
    rank,
    solve,
    stable_idempotent,
)
from .qexp import FormSpace, QSeries, divisor_power_sums, miller_basis, sturm


def generator_primes(k: int) -> list[int]:
    """The primes l <= sturm(k), whose T(l) generate the weight-k Hecke algebra."""
    return [
        n for n in range(2, sturm(k) + 1)
        if all(n % d for d in range(2, isqrt(n) + 1))
    ]


def sigma_eigenvalue(p: int, k: int, n: int, digits: int = 1) -> int:
    """sigma_(k-1)(n) mod p^digits: the Eisenstein eigenvalue of T(n)."""
    return int(divisor_power_sums(k - 1, n + 1, p**digits)[n])


def _hecke_image(a: np.ndarray, n: int, k: int, modulus: int) -> np.ndarray:
    """T(n) on each row of a, an array of weight-k residues, as in hecke_action.

    a(i; f|T(n)) sums d^(k-1) a(in/d^2) over d | gcd(i, n), so each divisor
    d of n adds d^(k-1) a(jn/d) at i = dj: one strided slice per divisor.
    """
    out = np.zeros_like(a[..., ::n])  # floor((prec-1)/n) + 1 coefficients
    for d in range(1, n + 1):
        if n % d == 0:
            hits = out[..., ::d]
            terms = a[..., :: n // d][..., : hits.shape[-1]]
            # (m-1) + (m-1)^2 < 2^63 wherever residues mod m are stored as int64
            hits[...] = (hits + pow(d, k - 1, modulus) * terms) % modulus
    return out


def hecke_action(f: QSeries, n: int) -> QSeries:
    """f | T(n) on q-expansions, using f's weight tag.

    The output keeps floor((prec-1)/n) + 1 coefficients: coefficient m of
    the image needs coefficient m*n of the input.
    """
    if n < 1:
        raise ValueError("operator index must be positive")
    return QSeries(f.p, _hecke_image(f.coeffs, n, f.weight, f.modulus), f.weight, f.digits)


def hecke_matrix(space: FormSpace, n: int) -> MatFp:
    """Matrix of T(n): column j holds the coordinates of T(n) row_j.

    Requires space.prec >= n * sturm(k) so the images keep enough
    coefficients for sound membership solving.  Non-membership of an image
    would mean the basis is not Hecke-stable, i.e. an internal bug, and is
    surfaced loudly.  Each matrix is built once per space and shared
    afterwards, so callers must not modify it in place.
    """
    if space.digits != 1:
        raise ValueError("operator matrices are computed over F_p")
    if space.prec < n * sturm(space.k):
        raise PrecisionError(
            f"T({n}) at weight {space.k} needs precision {n * sturm(space.k)}, "
            f"space has {space.prec}"
        )
    cached = space.hecke_matrices.get(n)
    if cached is not None:
        return cached
    images = _hecke_image(space.coeffs, n, space.k, space.p)
    # as in membership: the first dim coefficients are the coordinates
    coords = images[:, : space.dim]
    if not np.array_equal(_matmul(coords, space.coeffs[:, : images.shape[1]], space.p), images):
        raise AssertionError(
            f"T({n}) image of a basis row left M_{space.k}; basis corrupt"
        )
    mat = MatFp(space.p, coords.T)
    space.hecke_matrices[n] = mat
    return mat


def full_hecke_algebra(space: FormSpace) -> list[MatFp]:
    """Linear basis, identity first, of the closure of {T(l) : l prime, l <= sturm(k)}.

    The closure contains every T(n) with n <= sturm(k).  By duality the
    functionals f -> a(1; f|t) realize a(n; f) for these n, which pin forms
    down, so it spans the algebra's dual.
    """
    gens = [hecke_matrix(space, ell) for ell in generator_primes(space.k)]
    return algebra_closure(gens, p=space.p, dim=space.dim)


def duality_pairing_matrix(space: FormSpace, algebra: list[MatFp]) -> tuple[MatFp, int]:
    """The pairing matrix [a(1; f_j | t_i)] over an algebra basis t_i, and its rank.

    Full rank is the perfect-duality statement, valid for 2 <= k not
    divisible by p-1; outside that range the rank is reported, not
    asserted.
    """
    if space.prec < 2:
        raise PrecisionError("pairing against a(1) needs at least two coefficients")
    a1 = MatFp(space.p, space.coeffs[:, 1:2].T)  # a(1) of each basis row
    mat = MatFp.vstack([a1 * t for t in algebra])
    return mat, rank(mat)


def ordinary_projector(space: FormSpace) -> MatFp:
    """The idempotent attached to T(p): projector onto its invertible part."""
    return stable_idempotent(hecke_matrix(space, space.p))


def ordinary_dim(p: int, k: int) -> int:
    """Rank of the ordinary projector on M_k(F_p); 0 for empty weights."""
    from .qexp import space_dim

    if space_dim(k) == 0:
        return 0
    space = miller_basis(p, k, p * sturm(k))
    return rank(ordinary_projector(space))


@dataclass
class EisLocalPiece:
    """The generalized eigenspace at the Eisenstein maximal ideal.

    `basis` rows are vectors in the ambient FormSpace's coordinates;
    `restricted` maps each prime l <= sturm(k) to the matrix of T(l) on
    the piece; these generate the local algebra.  Every restricted
    T(l) - sigma_(k-1)(l) is nilpotent here.
    """

    space: FormSpace
    basis: MatFp  # rows = piece basis vectors, in space coordinates
    restricted: dict[int, MatFp]

    @property
    def p(self) -> int:
        return self.space.p

    @property
    def k(self) -> int:
        return self.space.k

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def eta_restricted(self, n: int) -> MatFp:
        """(T(n) - sigma_(k-1)(n)) on the piece."""
        lam = sigma_eigenvalue(self.p, self.k, n)
        return self.restricted[n] - MatFp.identity(self.p, self.dim).scaled(lam)

    def series(self, coords: np.ndarray | list[list[int]], prec: int) -> list[QSeries]:
        """The q-series, to any precision, of each row of coords, vectors in piece coordinates."""
        ambient = MatFp(self.p, coords, self.dim) * self.basis
        high = miller_basis(self.p, self.k, max(prec, self.space.prec))
        rows = _matmul(ambient.a, high.coeffs[:, :prec], self.p)
        return [QSeries(self.p, row, self.k) for row in rows]

    def contains_ambient(self, vec: list[int]) -> bool:
        return solve(self.basis.transpose(), MatFp(self.p, [vec]).transpose()) is not None

    def cuspidal_subpiece(self) -> "EisLocalPiece":
        """The intersection with the cuspidal subspace (constant term zero).

        In echelon coordinates the constant term of a vector is its
        pivot-0 entry, so one linear condition cuts the subspace out.
        """
        condition = MatFp(self.p, self.basis.a[:, :1].T)  # wants c . B[:,0] = 0
        ker = kernel(condition)  # rows = piece-coordinates of cuspidal vectors
        return EisLocalPiece(
            space=self.space,
            basis=ker * self.basis,  # back to ambient coordinates
            restricted={n: _restrict_operator(op, ker) for n, op in self.restricted.items()},
        )


def _restrict_operator(op: MatFp, basis_rows: MatFp) -> MatFp:
    """Matrix of op on the span of basis_rows (which must be op-stable).

    Column j holds the coordinates of op applied to basis row j.
    """
    bt = basis_rows.transpose()
    mat = solve(bt, op * bt)
    if mat is None:
        raise AssertionError("subspace is not stable under the operator")
    return mat


def eisenstein_localize(space: FormSpace) -> EisLocalPiece:
    """Localize M_k at the Eisenstein maximal ideal.

    The piece is the common generalized kernel of the generators
    T(l) - sigma_(k-1)(l), l prime up to the coefficient bound, with the
    ambient dimension as the nilpotency exponent.  The Eisenstein series
    itself always lies inside; the piece exceeds its span exactly when a
    congruent cusp form exists.
    """
    p, k = space.p, space.k
    primes = generator_primes(k)
    ops = {ell: hecke_matrix(space, ell) for ell in primes}
    eye = MatFp.identity(p, space.dim)
    etas = [ops[ell] - eye.scaled(sigma_eigenvalue(p, k, ell)) for ell in primes]
    basis = generalized_eigenspace(etas, space.dim, p=p)
    restricted = {ell: _restrict_operator(ops[ell], basis) for ell in primes}
    piece = EisLocalPiece(space=space, basis=basis, restricted=restricted)
    for ell in primes:
        if not (piece.eta_restricted(ell) ** piece.dim).is_zero():
            raise AssertionError("localization generator fails to be nilpotent")
    return piece


@dataclass(frozen=True)
class TpRedundancy:
    """Outcome of the prime-to-p generation check."""

    checked: bool
    redundant: bool | None
    reason: str


def t_p_redundancy_check(space: FormSpace) -> TpRedundancy:
    """Does dropping T(p) lose anything from the Hecke algebra?

    Compares the closure of {T(l) : l prime, l <= bound, l != p} with
    the closure of the same set plus T(p); the prime-to-p operators are
    expected to generate everything when 2 <= k <= p-2.  Weights outside
    that window are reported as skipped.
    """
    p, k = space.p, space.k
    if not (2 <= k <= p - 2):
        return TpRedundancy(checked=False, redundant=None, reason=f"weight {k} outside [2, {p - 2}]")
    if space.dim == 0:
        return TpRedundancy(checked=True, redundant=True, reason="zero space")
    prime_to_p = [hecke_matrix(space, ell) for ell in generator_primes(k) if ell != p]
    without = algebra_closure(prime_to_p, p=p, dim=space.dim)
    with_tp = algebra_closure(
        prime_to_p + [hecke_matrix(space, p)], p=p, dim=space.dim
    )
    return TpRedundancy(
        checked=True,
        redundant=len(without) == len(with_tp),
        reason="compared closures with and without T(p)",
    )


def hecke_report(p: int, k: int) -> dict:
    """Summary of the weight-k picture at p, as a plain dict."""
    prec = max(sturm(k) ** 2, p * sturm(k))
    space = miller_basis(p, k, prec)
    algebra = full_hecke_algebra(space)
    _, dual_rank = duality_pairing_matrix(space, algebra)
    piece = eisenstein_localize(space)
    tp = t_p_redundancy_check(space)
    return {
        "p": p,
        "k": k,
        "dim": space.dim,
        "eis_local_dim": piece.dim,
        "ordinary_dim": rank(ordinary_projector(space)),
        "duality_rank": dual_rank,
        "algebra_dim": len(algebra),
        "tp_redundant": tp.redundant,
        "tp_checked": tp.checked,
        "precision": prec,
    }
