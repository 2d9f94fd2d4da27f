"""Eisenstein coefficients over the truncated Iwasawa algebra, level one.

The n-th coefficient of the family attached to the character omega^d is
sum over divisors t of n prime to p of omega^d(t) * A_t(T), an element of
Z_p[[T]] handled modulo (p^M, T^D).  Specializing T -> gamma^d - 1 must
reproduce the p-deprived Eisenstein series of weight d+2 coefficient by
coefficient; the constant term is matched against the classical
interpolation value -(1 - p^(d+2-1)) B_(d+2) / (2(d+2)) rather than any
power-series construction.

The pair with d = p-3 (character omega^(-2)) is the excluded one: its
constant-term value is not p-integral, so only positive coefficients are
compared there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .padic import (
    LambdaPoly,
    PadicInt,
    a_t_poly,
    eval_lambda,
    gamma_generator,
    require_admissible_prime,
    teichmuller,
)
from .qexp import (
    bernoulli_fraction,
    divisor_power_sums,
    p_deprived_eisenstein_q,
    reduce_fraction,
)


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

    def coefficient(self, n: int) -> LambdaPoly:
        return self.coeffs[n]


def lambda_eis_coeff(
    p: int,
    d: int,
    n: int,
    t_trunc: int,
    digits: int,
    _atp_cache: dict | None = None,
) -> LambdaPoly:
    """The n-th family coefficient: sum of omega^d(t) A_t over t | n, p - t.

    A_t(T) = t (1+T)^(s(t)); the Teichmuller factor makes the
    specialization at T = gamma^d - 1 collapse to t^(d+1).
    """
    require_admissible_prime(p)
    if n < 1:
        raise ValueError("q-coefficients start at n = 1")
    if d < 0 or d % 2 == 1 or d > p - 3:
        raise ValueError(f"character exponent {d} outside the even range [0, {p - 3}]")
    q = p**digits
    acc = LambdaPoly.constant(0, p, t_trunc, digits)
    for t in range(1, n + 1):
        if n % t or t % p == 0:
            continue
        if _atp_cache is not None and t in _atp_cache:
            at = _atp_cache[t]
        else:
            at = a_t_poly(t, p, t_trunc, digits)
            if _atp_cache is not None:
                _atp_cache[t] = at
        omega_d = pow(teichmuller(t, p, digits).value, d, q)
        acc = acc + at.scale(omega_d)
    return acc


def build_lambda_eisenstein(p: int, d: int, q_prec: int, t_trunc: int, digits: int) -> LambdaEisenstein:
    cache: dict[int, LambdaPoly] = {}
    coeffs = {
        n: lambda_eis_coeff(p, d, n, t_trunc, digits, _atp_cache=cache)
        for n in range(1, q_prec)
    }
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
    p^min(digits, t_trunc).  The constant term is compared against the
    interpolation value whenever d < p-3 (the excluded character pair sits
    at d = p-3, where that value is not p-integral).
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
        lhs = eval_lambda(family.coefficient(n), x)
        if lhs.value % qc != target[n] % qc:
            mismatches.append(n)
    const_match: bool | None = None
    if const_checked:
        euler = 1 - p ** (k - 1)
        interp = reduce_fraction(-euler * bernoulli_fraction(k) / (2 * k), p**digits)
        const_match = interp == p_deprived_eisenstein_q(p, k, 1, digits)[0]
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


def family_json(family: LambdaEisenstein) -> dict:
    """Truncated coefficient dump for external inspection."""
    return {
        "p": family.p,
        "d": family.d,
        "digits": family.digits,
        "t_trunc": family.t_trunc,
        "q_prec": family.q_prec,
        "coefficients": {
            str(n): list(poly.coeffs) for n, poly in sorted(family.coeffs.items())
        },
    }
