"""Eisenstein coefficients over the truncated Iwasawa algebra, level one.

The n-th coefficient of the family attached to the character omega^d is
sum over divisors t of n prime to p of omega^d(t) * A_t(T), an element of
Z_p[[T]] handled modulo (p^M, T^D).  Specializing T -> gamma^d - 1 must
reproduce the p-deprived Eisenstein series of weight d+2 coefficient by
coefficient.  That series' constant term, the interpolation value
-(1 - p^(d+2-1)) B_(d+2) / (2(d+2)), is checked mod p against B_(d+2) from
the Voronoi table of the bernoulli module.

The pair with d = p-3 (character omega^(-2)) is the excluded one: its
constant-term value is not p-integral, so only positive coefficients are
compared there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bernoulli import bernoulli_table_mod
from .padic import (
    LambdaPoly,
    PadicInt,
    a_t_poly,
    eval_lambda,
    require_admissible_prime,
    teichmuller,
)
from .qexp import divisor_power_sums, p_deprived_eisenstein_q


@dataclass
class LambdaEisenstein:
    """Coefficients n -> LambdaPoly of one Eisenstein family, truncated.

    d is the even character exponent (theta = omega^d); q-coefficients are
    stored for 1 <= n < q_prec.  The constant term is not stored: only its
    interpolation values are ever used.
    """

    p: int
    d: int
    q_prec: int
    t_trunc: int
    digits: int
    coeffs: dict[int, LambdaPoly]


def build_lambda_eisenstein(p: int, d: int, q_prec: int, t_trunc: int, digits: int) -> LambdaEisenstein:
    """The family's coefficients for 1 <= n < q_prec, by a divisor sieve.

    The n-th coefficient is the sum of omega^d(t) A_t over t | n prime to p,
    with A_t(T) = t (1+T)^(s(t)); the Teichmuller factor makes the
    specialization at T = gamma^d - 1 collapse to t^(d+1).  Each term
    omega^d(t) A_t is formed once and added into every multiple of t.
    """
    require_admissible_prime(p)
    if d < 0 or d % 2 == 1 or d > p - 3:
        raise ValueError(f"character exponent {d} outside the even range [0, {p - 3}]")
    q = p**digits
    coeffs = {n: LambdaPoly.constant(0, p, t_trunc, digits) for n in range(1, q_prec)}
    for t in range(1, q_prec):
        if t % p == 0:
            continue
        omega_d = pow(teichmuller(t, p, digits).value, d, q)
        term = a_t_poly(t, p, t_trunc, digits).scale(omega_d)
        for n in range(t, q_prec, t):
            coeffs[n] = coeffs[n] + term
    return LambdaEisenstein(
        p=p, d=d, q_prec=q_prec, t_trunc=t_trunc, digits=digits, coeffs=coeffs
    )


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


def specialize_and_compare(family: LambdaEisenstein) -> SpecializationReport:
    """Specialize at T = gamma^d - 1 and compare with the weight-(d+2) series.

    Every stored coefficient is evaluated and compared modulo
    p^min(digits, t_trunc).  The constant term is checked mod p only: the
    target's a(0) against -B_k/(2k) from the Voronoi table, whenever
    d < p-3 (the excluded character pair sits at d = p-3, where that value
    is not p-integral).
    """
    p, d = family.p, family.d
    k = d + 2
    digits = family.digits
    checked = min(digits, family.t_trunc)
    qc = p**checked
    x = PadicInt(pow(1 + p, d, p**digits) - 1, p, digits)
    const_checked = d < p - 3  # d = p-3 is the excluded pair: value not p-integral
    target = divisor_power_sums(k - 1, family.q_prec, p**digits, skip_divisible_by=p)
    mismatches = []
    for n in range(1, family.q_prec):
        lhs = eval_lambda(family.coeffs[n], x)
        if lhs.value % qc != target[n] % qc:
            mismatches.append(n)
    const_match: bool | None = None
    if const_checked:
        # a(0) = -(1 - p^(k-1)) B_k/(2k) = -B_k/(2k) mod p, with B_k from the
        # Voronoi table, which shares no code with the exact-rational B_k
        voronoi = -int(bernoulli_table_mod(p)[k]) * pow(2 * k, -1, p) % p
        const_match = p_deprived_eisenstein_q(p, k, 1)[0] == voronoi
    return SpecializationReport(
        p=p,
        d=d,
        weight=k,
        digits_checked=checked,
        q_prec=family.q_prec,
        coefficients_match=not mismatches,
        mismatches=mismatches,
        constant_term_checked=const_checked,
        constant_term_match=const_match,
    )
