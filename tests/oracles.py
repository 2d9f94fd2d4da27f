"""Reference series and counts that only the tests read.

Two normalizations coexist deliberately: `eisenstein_q` carries the
arithmetic constant term -B_k/(2k), while the echelon basis in
`eiscomp.qexp` uses the unit-constant-term series 1 + 240*sum(...) and
friends.  Conversions are explicit; nothing rescales silently.
"""

from fractions import Fraction
from functools import cache
from math import comb, gcd

import numpy as np

from eiscomp.errors import NonInvertibleError
from eiscomp.hecke import eisenstein_localize, generator_primes, hecke_matrix
from eiscomp.linalg import _matmul, _residues, rank, stable_idempotent
from eiscomp.padic import require_admissible_prime
from eiscomp.qexp import (
    _powers,
    divisor_power_sums,
    miller_basis,
    space_dim,
    sturm,
)


def form_of(basis, coords, m) -> np.ndarray:
    """The form with these echelon coordinates: coords times the basis mod m, one row of residues."""
    if len(coords) != len(basis):
        raise ValueError("coordinate length disagrees with dimension")
    return _matmul(_residues(m, [coords]), basis, m)[0]


def generators(basis, k, p) -> list:
    """T(l) on the weight-k basis over F_p, l in generator_primes(k), read on all of its columns."""
    return [hecke_matrix(basis, ell, k, p) for ell in generator_primes(k)]


def localize(basis, k, p):
    """The Eisenstein-local piece of the weight-k basis over F_p, on `generators` of it."""
    return eisenstein_localize(basis, generators(basis, k, p), k, p)


def theta_series(f: np.ndarray, m: int, iterates: int = 1) -> np.ndarray:
    """Apply theta^j to residues mod m: a(n) -> n^j a(n); the weight grows by j(p+1)."""
    if iterates < 0:
        raise ValueError("negative theta iterate")
    # 0^0 = 1 keeps a(0) at zero iterates; any iterate kills it
    return _powers(iterates, len(f), m) * f % m


@cache
def bernoulli_fraction(n: int) -> Fraction:
    """B_n as an exact rational, via sum_j binom(n+1, j) B_j = 0.

    Each B_j, j < n, is cached before B_n asks for it, so the recursion is
    never deeper than two calls.
    """
    if n < 0:
        raise ValueError("negative index")
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, j) * bernoulli_fraction(j) for j in range(n)) / (n + 1)


def reduce_fraction(x: Fraction, modulus: int) -> int:
    """x mod `modulus`; explicit error when the denominator is not a unit."""
    if gcd(x.denominator, modulus) != 1:
        raise NonInvertibleError(
            f"denominator {x.denominator} is not invertible mod {modulus}"
        )
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def eisenstein_q(p: int, k: int, prec: int, digits: int = 1) -> np.ndarray:
    """The weight-k Eisenstein series with constant term -B_k/(2k).

    a(n) = sigma_(k-1)(n) for n >= 1.  The constant term is carried as a
    modular inverse; a non-invertible denominator (k divisible by p-1)
    raises rather than silently degrading.
    """
    require_admissible_prime(p)
    if k < 4 or k % 2 == 1:
        raise ValueError("classical Eisenstein series need even weight >= 4")
    m = p**digits
    coeffs = divisor_power_sums(k - 1, prec, m)
    if prec > 0:
        coeffs[0] = reduce_fraction(-bernoulli_fraction(k) / (2 * k), m)
    return coeffs


def p_deprived_eisenstein_q(p: int, k: int, prec: int, digits: int = 1) -> np.ndarray:
    """The p-stabilized Eisenstein series: divisor sums over t prime to p.

    a(0) = -(1 - p^(k-1)) B_k/(2k); a(n) = sum of t^(k-1) over t | n with
    p not dividing t.  Weight 2 is allowed here: the stabilized series
    exists there even though the classical one does not.  For k divisible
    by p-1 the constant term is not p-integral and the call raises; the
    positive coefficients alone are `divisor_power_sums(k - 1, prec, p**digits,
    skip_divisible_by=p)`.
    """
    require_admissible_prime(p)
    if k < 2 or k % 2 == 1:
        raise ValueError("need even weight >= 2")
    m = p**digits
    coeffs = divisor_power_sums(k - 1, prec, m, skip_divisible_by=p)
    if prec > 0:
        euler = Fraction(1 - p ** (k - 1))
        coeffs[0] = reduce_fraction(-euler * bernoulli_fraction(k) / (2 * k), m)
    return coeffs


def eisenstein_eigenvalue(p: int, k: int, n: int) -> int:
    """sigma_(k-1)(n) mod p, the eigenvalue of T(n) on weight-k Eisenstein series.

    Read off `divisor_power_sums`, as `hecke.eisenstein_localize` reads it.
    """
    return int(divisor_power_sums(k - 1, n + 1, p)[n])


def horner(coeffs, x: int, q: int) -> int:
    """sum c_j x^j mod q: one element of Z_p[[T]], truncated, evaluated at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def ordinary_dim(p: int, k: int) -> int:
    """Rank of T(p)'s stable idempotent on M_k(F_p); 0 for empty weights."""
    if space_dim(k) == 0:
        return 0
    basis = miller_basis(p, k, p * sturm(k))
    return rank(stable_idempotent(hecke_matrix(basis, p, k, p)))
