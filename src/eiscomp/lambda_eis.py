"""Eisenstein coefficients over the truncated Iwasawa algebra, level one.

The n-th coefficient of the family attached to the character omega^d is
sum over divisors t of n prime to p of omega^d(t) * A_t(T), an element of
Z_p[[T]] handled modulo (p^M, T^D).  The whole family is one array of
residues mod p^M: row n holds the D coefficients of a(n) in T.
Specializing T -> gamma^d - 1 evaluates every row at once and must
reproduce the p-deprived Eisenstein series of weight d+2 coefficient by
coefficient.  That series' constant term, the interpolation value
-(1 - p^(d+2-1)) B_(d+2) / (2(d+2)), is checked mod p, where the Euler
factor is 1: B_k mod p, k = d+2, is read from one power sum by Faulhaber's
congruence

    sum_(a=1..p-1) a^k = p B_k  (mod p^2),   k even in [2, p-3]

(Ireland-Rosen, GTM 84, ch. 15), and compared with B_k from the Voronoi
table of the bernoulli module.  The two routes share no code.

The pair with d = p-3 (character omega^(-2)) is the excluded one: its
constant-term value is not p-integral, so only positive coefficients are
compared there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernoulli import bernoulli_table_mod
from .linalg import _residues, _storage
from .padic import _require_digits, a_t_poly, teichmuller
from .qexp import _powers, divisor_power_sums


@dataclass
class LambdaEisenstein:
    """One Eisenstein family, truncated modulo (p^digits, T^D, q^N).

    d is the even character exponent (theta = omega^d).  coeffs is a
    read-only N x D array of residues mod p^digits, stored as linalg's
    `_storage` gives; row n holds the T-coefficients of a(n) for
    1 <= n < N; the array's shape is the truncation.  Row 0 stays zero:
    the constant term is not stored, only its interpolation values are
    ever used.
    """

    p: int
    d: int
    digits: int
    coeffs: np.ndarray


def build_lambda_eisenstein(p: int, d: int, q_prec: int, t_trunc: int, digits: int) -> LambdaEisenstein:
    """The family's coefficients for 1 <= n < q_prec, by a divisor sieve.

    The n-th coefficient is the sum of omega^d(t) A_t over t | n prime to p,
    with A_t(T) = t (1+T)^(s(t)); the Teichmuller factor makes the
    specialization at T = gamma^d - 1 collapse to t^(d+1).  Each term
    omega^d(t) A_t is formed once and added into every multiple of t by one
    strided add.  q_prec must be at least 2: the specialization compares
    a(1) onwards, so a shorter family would compare no coefficient.
    """
    _require_digits(p, digits)
    if d < 0 or d % 2 == 1 or d > p - 3:
        raise ValueError(f"character exponent {d} outside the even range [0, {p - 3}]")
    if t_trunc < 1:
        raise ValueError("need at least the constant coefficient")
    if q_prec < 2:
        raise ValueError(f"need at least two q-coefficients, so that a(1) is compared, got {q_prec}")
    q = p**digits
    coeffs = np.zeros((q_prec, t_trunc), dtype=_storage(q))
    for t in range(1, q_prec):
        if t % p == 0:
            continue
        omega_d = pow(teichmuller(t, p, digits), d, q)
        term = _residues(q, [omega_d * c for c in a_t_poly(t, p, t_trunc, digits)])
        # two residues below q < 2^32 (int64 storage) add without overflow
        coeffs[t::t] = (coeffs[t::t] + term) % q
    coeffs.flags.writeable = False
    return LambdaEisenstein(p=p, d=d, digits=digits, coeffs=coeffs)


@dataclass
class SpecializationReport:
    """Outcome of comparing a specialized family with its classical target."""

    p: int
    d: int
    weight: int
    digits_checked: int
    q_prec: int
    coefficients_match: bool
    mismatches: list[int]
    constant_term_checked: bool
    constant_term_match: bool | None

    @property
    def ok(self) -> bool:
        if not self.coefficients_match:
            return False
        return self.constant_term_match is not False

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "weight": self.weight,
            "digits_checked": self.digits_checked,
            "q_prec": self.q_prec,
            "coefficients_match": self.coefficients_match,
            "mismatches": self.mismatches,
            "constant_term_checked": self.constant_term_checked,
            "constant_term_match": self.constant_term_match,
            "ok": self.ok,
        }


def _bernoulli_mod_p(p: int, k: int) -> int:
    """B_k mod p for even k in [2, p-3], as (sum_(a<p) a^k mod p^2) // p."""
    m = p * p
    # _powers stores residues mod p^2 as int64 up to p = 55103, where the p - 1
    # nonzero terms sum below p^3 < 2^48 < 2^63, and as Python ints from 55109 on
    return int(_powers(k, p, m).sum()) % m // p


def specialize_and_compare(family: LambdaEisenstein) -> SpecializationReport:
    """Specialize at T = gamma^d - 1 and compare with the weight-(d+2) series.

    Every stored coefficient is evaluated and compared modulo
    p^min(digits, D), D the T-truncation.  The constant term is checked mod
    p only: the target's a(0), -B_k/(2k) with B_k from the power sum,
    against the same value from the Voronoi table, whenever d < p-3 (the
    excluded character pair sits at d = p-3, where that value is not
    p-integral).
    """
    p, d = family.p, family.d
    q_prec, t_trunc = family.coeffs.shape
    k = d + 2
    q = p**family.digits
    checked = min(family.digits, t_trunc)
    qc = p**checked
    x = pow(1 + p, d, q) - 1  # divisible by p: dropped terms c_j x^j have j >= t_trunc
    const_checked = d < p - 3  # d = p-3 is the excluded pair: value not p-integral
    # Horner's rule over the T-coefficients, every row at once; values * x is
    # a product of two residues, exact under the storage rule
    values = np.zeros(q_prec, dtype=family.coeffs.dtype)
    for column in family.coeffs.T[::-1]:
        values = (values * x % q + column) % q
    target = divisor_power_sums(k - 1, q_prec, q, skip_divisible_by=p)
    mismatches = (np.flatnonzero(values[1:] % qc != target[1:] % qc) + 1).tolist()
    const_match: bool | None = None
    if const_checked:
        # a(0) = -(1 - p^(k-1)) B_k/(2k) = -B_k/(2k) mod p, with B_k from the
        # power sum, against B_k from the Voronoi table: the table runs on
        # middle_product_mod, the power sum does not
        inverse = pow(2 * k, -1, p)
        voronoi = -int(bernoulli_table_mod(p)[k]) * inverse % p
        const_match = -_bernoulli_mod_p(p, k) * inverse % p == voronoi
    return SpecializationReport(
        p=p,
        d=d,
        weight=k,
        digits_checked=checked,
        q_prec=q_prec,
        coefficients_match=not mismatches,
        mismatches=mismatches,
        constant_term_checked=const_checked,
        constant_term_match=const_match,
    )
