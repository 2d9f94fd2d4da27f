"""Hecke operators on level-one q-expansions and Eisenstein localization.

Operators act on coefficients through the divisor-sum rule
a(m; f|T(n)) = sum over d | gcd(m, n) of d^(k-1) a(mn/d^2; f); at level one
the diamond action is trivial and T(m, m) is the scalar m^(k-2).  Matrices
are taken in the echelon basis that `qexp.miller_basis` returns, a d x N
array whose first d coefficients are coordinates.  The caller builds each
T(n) once and passes it to every routine that reads it.

The Hecke algebra is the linear closure of T(l) for the primes l up to the
weight's coefficient bound sturm(k).  That suffices: the algebra is spanned
by T(n) for n <= sturm(k), and each such T(n) is a polynomial in the T(l)
with l | n, since T(mn) = T(m) T(n) for coprime m, n and
T(l^(r+1)) = T(l) T(l^r) - l^(k-1) T(l^(r-1)).  For the same reason the
Eisenstein maximal ideal is generated by the T(l) - sigma_(k-1)(l), and the
localization at it is their common generalized kernel.  T(l) reads
l * sturm(k) <= sturm(k)^2 coefficients, and `companions.localized_pieces`
builds the generators on that many columns.  A localized piece keeps its
forms, the q-series of its basis, and no basis of M_k: what reads a piece
afterwards reads those r <= dim rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import PrecisionError
from .linalg import (
    EchelonSpace,
    MatFp,
    _matmul,
    algebra_closure,
    generalized_eigenspace,
    kernel,
    rank,
    restrict_operator,
)
from .qexp import divisor_power_sums, membership, miller_basis, sturm


def generator_primes(k: int) -> list[int]:
    """The primes l <= sturm(k), whose T(l) generate the weight-k Hecke algebra."""
    return [
        n for n in range(2, sturm(k) + 1)
        if all(n % d for d in range(2, isqrt(n) + 1))
    ]


def hecke_action(a: np.ndarray, n: int, k: int, modulus: int) -> np.ndarray:
    """f | T(n) for each row f of a, an array of weight-k residues mod `modulus`.

    a(i; f|T(n)) sums d^(k-1) a(in/d^2) over d | gcd(i, n), so each divisor
    d of n adds d^(k-1) a(jn/d) at i = dj: one strided slice per divisor.
    The image keeps floor((prec-1)/n) + 1 coefficients: coefficient i of
    the image needs coefficient i*n of the input.
    """
    if n < 1:
        raise ValueError("operator index must be positive")
    out = np.zeros_like(a[..., ::n])
    for d in range(1, n + 1):
        if n % d == 0:
            hits = out[..., ::d]
            terms = a[..., :: n // d][..., : hits.shape[-1]]
            # (m-1) + (m-1)^2 < 2^63 wherever residues mod m are stored as int64
            hits[...] = (hits + pow(d, k - 1, modulus) * terms) % modulus
    return out


def hecke_matrix(basis: np.ndarray, n: int, k: int, p: int) -> MatFp:
    """Matrix of T(n) on the weight-k echelon basis over F_p: column j holds the coordinates of T(n) row_j.

    Requires a basis precision of at least n * sturm(k), so the images keep
    enough coefficients for sound membership solving.  Non-membership of an
    image would mean the basis is not Hecke-stable, i.e. an internal bug,
    and is surfaced loudly.
    """
    dim, prec = basis.shape
    if prec < n * sturm(k):
        raise PrecisionError(f"T({n}) at weight {k} needs precision {n * sturm(k)}, basis has {prec}")
    images = hecke_action(basis, n, k, p)
    if membership(images, basis, k, p) is None:
        raise AssertionError(f"T({n}) image of a basis row left M_{k}; basis corrupt")
    # the coordinates membership found: the first dim coefficients of each image
    return MatFp._wrap(p, images[:, :dim].T.copy())  # a copy, not a view pinning the images


def full_hecke_algebra(gens: list[MatFp], p: int, dim: int) -> list[MatFp]:
    """Linear basis, identity first, of the closure of gens, the T(l) for l in generator_primes(k).

    The closure contains every T(n) with n <= sturm(k).  By duality the
    functionals f -> a(1; f|t) realize a(n; f) for these n, which pin forms
    down, so it spans the algebra's dual.
    """
    return algebra_closure(gens, p=p, dim=dim)


def duality_pairing_matrix(basis: np.ndarray, algebra: list[MatFp], p: int) -> tuple[MatFp, int]:
    """The pairing matrix [a(1; f_j | t_i)] over an algebra basis t_i, and its rank.

    f_j are the rows of the echelon basis over F_p.  Full rank is the
    perfect-duality statement, valid for 2 <= k not divisible by p-1;
    outside that range the rank is reported, not asserted.
    """
    if basis.shape[1] < 2:
        raise PrecisionError("pairing against a(1) needs at least two coefficients")
    a1 = basis[:, 1:2].T  # a(1) of each basis row
    # columns i*dim .. (i+1)*dim - 1 of the one product hold a1 * algebra[i]
    pairs = _matmul(a1, np.hstack([t.a for t in algebra]), p)
    mat = MatFp._wrap(p, pairs.reshape(len(algebra), len(basis)))
    return mat, rank(mat)


@dataclass
class EisLocalPiece:
    """The generalized eigenspace at the Eisenstein maximal ideal.

    `forms` is one read-only r x N array of residues mod p, the piece's
    basis as q-series to the precision N of the basis it was cut from; the
    piece keeps its forms and no basis of M_k.  A form's first dim M_k
    coefficients are its echelon coordinates, and column 0 is its constant
    term.  `etas` holds the matrix on the piece, in its basis, of each
    T(l) - sigma_(k-1)(l), l prime up to sturm(k), in generator_primes(k)
    order.  Every one is nilpotent; they generate the maximal ideal of the
    local algebra, and with the identity the algebra itself.
    """

    p: int
    k: int
    forms: np.ndarray
    etas: list[MatFp]

    @property
    def dim(self) -> int:
        return self.forms.shape[0]

    def cuspidal_subpiece(self) -> "EisLocalPiece":
        """The intersection with the cuspidal subspace (constant term zero).

        The constant term of a form is its column 0, so one linear condition
        cuts the subspace out, and its forms are the kernel vectors times
        the piece's.  The etas are restricted to it in one
        `restrict_operator` call, one `solve` for all of them.
        """
        condition = MatFp._wrap(self.p, self.forms[:, :1].T)  # wants c . f(0) = 0
        ker = kernel(condition)  # rows = piece-coordinates of cuspidal forms
        forms = _matmul(ker.a, self.forms, self.p)
        forms.flags.writeable = False
        return EisLocalPiece(self.p, self.k, forms, restrict_operator(self.etas, ker))


def eisenstein_localize(basis: np.ndarray, gens: list[MatFp], k: int, p: int) -> EisLocalPiece:
    """Localize M_k, given by its echelon basis over F_p, at the Eisenstein maximal ideal.

    `gens` are the matrices T(l) on the basis, l in generator_primes(k) and
    in that order.  The piece is the common generalized kernel of the
    generators T(l) - sigma_(k-1)(l), with the ambient dimension as the
    nilpotency exponent.  The Eisenstein series itself always lies inside;
    the piece exceeds its span exactly when a congruent cusp form exists.

    The piece's forms are one product of its basis rows, in the echelon
    coordinates, with the whole basis; the piece keeps no reference to the
    basis.  The eigenvalues sigma_(k-1)(l) are read off one table of
    divisor power sums up to sturm(k).
    """
    dim = len(basis)
    eye = MatFp.identity(p, dim)
    sigma = divisor_power_sums(k - 1, sturm(k) + 1, p)
    etas = [t - eye.scaled(int(sigma[ell])) for t, ell in zip(gens, generator_primes(k), strict=True)]
    coords, etas = generalized_eigenspace(etas, dim, p=p)
    forms = _matmul(coords.a, basis, p)
    forms.flags.writeable = False
    piece = EisLocalPiece(p, k, forms, etas)
    for eta in piece.etas:
        if not (eta**piece.dim).is_zero():
            raise AssertionError("localization generator fails to be nilpotent")
    return piece


@dataclass(frozen=True)
class TpRedundancy:
    """Outcome of the prime-to-p generation check."""

    checked: bool
    redundant: bool | None


def t_p_redundancy_check(algebra: list[MatFp], t_p: MatFp, k: int, p: int) -> TpRedundancy:
    """Does dropping T(p) lose anything from the Hecke algebra?

    `algebra` is `full_hecke_algebra` at weight k, and `t_p` the matrix of
    T(p).  The check runs only when 2 <= k <= p-2; weights outside that
    window are reported as skipped.  There sturm(k) < p, so the generators
    of that algebra are exactly the prime-to-p T(l), and T(p) is redundant
    when it reduces to zero against the algebra's span.  The prime-to-p
    operators are expected to generate everything.
    """
    if not (2 <= k <= p - 2):
        return TpRedundancy(checked=False, redundant=None)
    span = EchelonSpace(p, t_p.nrows**2)
    span.insert(np.array([t.a.ravel() for t in algebra]))
    return TpRedundancy(checked=True, redundant=not span.reduce(t_p.a.ravel()).any())


def hecke_report(p: int, k: int) -> dict:
    """Summary of the weight-k picture at p, as a plain dict.

    Each T(n) is built once, on the whole basis, and passed to every step that reads it.
    """
    prec = max(sturm(k) ** 2, p * sturm(k))
    basis = miller_basis(p, k, prec)
    dim = len(basis)
    primes = generator_primes(k)
    gens = [hecke_matrix(basis, ell, k, p) for ell in primes]
    t_p = gens[primes.index(p)] if p in primes else hecke_matrix(basis, p, k, p)
    algebra = full_hecke_algebra(gens, p, dim)
    _, dual_rank = duality_pairing_matrix(basis, algebra, p)
    piece = eisenstein_localize(basis, gens, k, p)
    tp = t_p_redundancy_check(algebra, t_p, k, p)
    return {
        "p": p,
        "k": k,
        "dim": dim,
        "eis_local_dim": piece.dim,
        # the rank of T(p)'s Fitting idempotent: the rank of T(p)^dim
        "ordinary_dim": rank(t_p**dim),
        "duality_rank": dual_rank,
        "algebra_dim": len(algebra),
        "tp_redundant": tp.redundant,
        "tp_checked": tp.checked,
        "precision": prec,
    }
