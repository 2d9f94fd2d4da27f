"""Exact arithmetic in Z/p^M on Python integers.

Teichmuller lifts, the exponent s(t) defined by t*omega(t)^-1 = gamma^(s(t))
for the generator gamma = 1 + p, read off as a discrete log in 1 + pZ_p one
p-adic digit at a time, and the coefficients of t*(1+T)^(s(t)) in Z_p[[T]]
modulo (p^M, T^D).

A value mod p^M is a Python int in [0, p^M); an element of Z_p[[T]] modulo
(p^M, T^D) is the list of its D coefficients.  Each function takes p and
the precision M beside its arguments and returns exactly that many
digits.  No floating point.  Only primes p >= 5 and M >= 1 are accepted.

The choice gamma = 1 + p is a normalization: exponents s(t) depend on it,
while specialized values like A_t(gamma^d - 1) = t^(d+1) * omega(t)^(-d)
do not.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import PrecisionError


@lru_cache(maxsize=1024)
def is_admissible_prime(p: int) -> bool:
    """True for primes p >= 5, the only moduli accepted anywhere here.

    Memoized: every matrix, echelon space and series construction asks,
    and trial division takes milliseconds near p = 3 * 10^9.
    """
    if p < 5 or p % 2 == 0 or p % 3 == 0:
        return False
    d = 5
    while d * d <= p:
        if p % d == 0 or p % (d + 2) == 0:
            return False
        d += 6
    return True


def require_admissible_prime(p: int) -> None:
    if not is_admissible_prime(p):
        raise ValueError(f"modulus base must be a prime >= 5, got {p}")


def _require_digits(p: int, prec: int) -> None:
    """Reject a prime below 5 and a precision below one digit."""
    require_admissible_prime(p)
    if prec < 1:
        raise PrecisionError("precision must be at least one digit")


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def teichmuller(t: int, p: int, prec: int) -> int:
    """The Teichmuller lift omega(t) mod p^prec.

    omega(t) is the unique (p-1)-th root of unity congruent to t mod p,
    obtained as the limit of t, t^p, t^(p^2), ...  The iteration gains one
    digit per step, so it stabilizes within `prec` rounds.
    """
    _require_digits(p, prec)
    if t % p == 0:
        raise ValueError(f"{t} is divisible by {p}; no Teichmuller lift")
    q = p**prec
    x = t % q
    while True:
        y = pow(x, p, q)
        if y == x:
            return x
        x = y


def s_exponent(t: int, p: int, prec: int) -> int:
    """The exponent s(t) with gamma^(s(t)) = t * omega(t)^(-1), mod p^prec.

    A discrete log in 1 + pZ_p, one digit s_i of s(t) = sum s_i p^i at a
    time.  x starts at <t> = t * omega(t)^(-1) mod p^(prec+1), which is 1
    mod p, and gamma^(p^i) = 1 + p^(i+1) u with u = 1 mod p.  So while x = 1
    mod p^(i+1), the digit s_i = ((x - 1)/p^(i+1)) mod p makes
    x * gamma^(-s_i p^i) = 1 mod p^(i+2).  After prec digits x must be 1,
    and that is checked; gamma^s mod p^(prec+1) depends on s mod p^prec
    alone, so the digits need no guard precision.
    """
    _require_digits(p, prec)
    if t % p == 0:
        raise ValueError(f"{t} is divisible by {p}")
    q = p ** (prec + 1)
    x = t * pow(teichmuller(t, p, prec + 1), -1, q) % q
    step = 1 + p  # gamma^(p^i)
    s = 0
    for i in range(prec):
        digit = (x - 1) // p ** (i + 1) % p
        x = x * pow(step, -digit, q) % q
        s += digit * p**i
        step = pow(step, p, q)
    if x != 1:
        raise AssertionError(f"discrete log of <{t}> left {x} mod {p}^{prec + 1}, not 1")
    return s


def a_t_poly(t: int, p: int, trunc: int, prec: int) -> list[int]:
    """The coefficients of t*(1+T)^(s(t)) modulo (p^prec, T^trunc).

    Coefficient of T^j is t*binom(s(t), j).  Binomials divide by j!, which
    costs v_p(j!) digits, so s(t) is fetched at precision inflated by
    v_p((trunc-1)!); every reported coefficient is then exact mod p^prec.
    """
    _require_digits(p, prec)
    if trunc < 1:
        raise ValueError("need at least the constant coefficient")
    vmax = _factorial_valuation(trunc - 1, p)
    work = prec + vmax
    q = p**work
    s = s_exponent(t, p, work)
    qout = p**prec
    out = [t % qout] + [0] * (trunc - 1)
    prod = 1  # running s(s-1)...(s-j+1) mod q
    fact_v, fact_unit = 0, 1  # j! = p^fact_v * fact_unit
    for j in range(1, trunc):
        prod = prod * ((s - (j - 1)) % q) % q
        v = vp(j, p)
        fact_v += v
        fact_unit = fact_unit * (j // p**v) % q
        if prod % p**fact_v != 0:
            raise PrecisionError("binomial numerator lost required divisibility")
        binom = (prod // p**fact_v) * pow(fact_unit, -1, q) % q
        out[j] = t * binom % qout
    return out


def _factorial_valuation(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v
