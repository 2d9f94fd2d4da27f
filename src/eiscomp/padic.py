"""Exact arithmetic in Z/p^M on Python integers.

Teichmuller lifts, the p-adic logarithm with explicit working-precision
inflation, the exponent s(t) defined by t*omega(t)^-1 = gamma^(s(t)) for the
generator gamma = 1 + p, and the coefficients of t*(1+T)^(s(t)) in Z_p[[T]]
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


def plog(x: int, p: int, prec: int) -> int:
    """p-adic logarithm of x = 1 mod p, correct modulo p^prec.

    Sums the alternating series in u = x - 1 up to the index past which
    every term has valuation >= prec.  Divisions by series indices lose
    floor(log_p(n_max)) digits, so the summation runs at an inflated
    working precision; the returned digits are all trustworthy.
    """
    _require_digits(p, prec)
    if x % p != 1:
        raise ValueError("plog requires x = 1 mod p")
    # smallest bound past which n - v_p(n) >= prec for every later index
    nmax = prec
    while nmax - _ilog(nmax, p) < prec:
        nmax += 1
    loss = _ilog(nmax, p)
    q = p ** (prec + loss)
    u = (x - 1) % q
    upow = 1
    acc = 0
    for n in range(1, nmax + 1):
        upow = upow * u % q
        if upow == 0:
            break
        v = vp(n, p)
        # u^n mod q is divisible by p^v because v <= n <= v_p(u^n)
        term = (upow // p**v) * pow(n // p**v, -1, q) % q
        acc = (acc - term if n % 2 == 0 else acc + term) % q
    return acc % p**prec


def s_exponent(t: int, p: int, prec: int) -> int:
    """The exponent s(t) with gamma^(s(t)) = t * omega(t)^(-1), mod p^prec.

    Computed as plog(t * omega(t)^(-1)) / plog(gamma).  Both logarithms lie
    in pZ_p and the denominator has valuation exactly one, so the quotient
    is integral; one guard digit absorbs the division by p.
    """
    _require_digits(p, prec)
    if t % p == 0:
        raise ValueError(f"{t} is divisible by {p}")
    work = prec + 1
    q = p**work
    unit = t * pow(teichmuller(t, p, work), -1, q) % q
    num = plog(unit, p, work)
    den = plog(1 + p, p, work)
    if num % p != 0 or den % p != 0:
        raise PrecisionError("logarithm landed outside pZ_p")
    den_unit = den // p
    if den_unit % p == 0:
        raise PrecisionError("log(gamma) should have valuation exactly 1")
    return (num // p) * pow(den_unit, -1, p**prec) % p**prec


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


def _ilog(n: int, p: int) -> int:
    """floor(log_p(n)) for n >= 1."""
    e = 0
    while p**(e + 1) <= n:
        e += 1
    return e


def _factorial_valuation(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v
