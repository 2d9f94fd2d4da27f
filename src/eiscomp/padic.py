"""Exact arithmetic in F_p and Z/p^M.

Teichmuller lifts, the p-adic logarithm with explicit working-precision
inflation, the exponent s(t) defined by t*omega(t)^-1 = gamma^(s(t)) for the
generator gamma = 1 + p, and truncated polynomials in T = gamma - 1 used to
represent elements of Z_p[[T]] modulo (p^M, T^D).

Everything is plain big-integer arithmetic; no floating point.  All values
are immutable after construction.  Only primes p >= 5 are accepted.

The choice gamma = 1 + p is a normalization: exponents s(t) depend on it,
while specialized values like A_t(gamma^d - 1) = t^(d+1) * omega(t)^(-d)
do not.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class FpElem:
    """An element of F_p, kept reduced."""

    residue: int
    p: int

    def __post_init__(self):
        require_admissible_prime(self.p)
        object.__setattr__(self, "residue", self.residue % self.p)

    def __add__(self, other: "FpElem") -> "FpElem":
        self._check(other)
        return FpElem(self.residue + other.residue, self.p)

    def __sub__(self, other: "FpElem") -> "FpElem":
        self._check(other)
        return FpElem(self.residue - other.residue, self.p)

    def __mul__(self, other: "FpElem") -> "FpElem":
        self._check(other)
        return FpElem(self.residue * other.residue, self.p)

    def inverse(self) -> "FpElem":
        if self.residue == 0:
            raise ZeroDivisionError("0 has no inverse in F_p")
        return FpElem(pow(self.residue, -1, self.p), self.p)

    def _check(self, other: "FpElem") -> None:
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    def __int__(self) -> int:
        return self.residue

    def __bool__(self) -> bool:
        return self.residue != 0


@dataclass(frozen=True)
class PadicInt:
    """An integer known modulo p^prec.

    Arithmetic carries the minimum of the operand precisions, so a result
    never pretends to more digits than its inputs support.
    """

    value: int
    p: int
    prec: int

    def __post_init__(self):
        require_admissible_prime(self.p)
        if self.prec < 1:
            raise PrecisionError("precision must be at least one digit")
        object.__setattr__(self, "value", self.value % self.p**self.prec)

    @property
    def modulus(self) -> int:
        return self.p**self.prec

    def reduce(self, prec: int) -> "PadicInt":
        if prec > self.prec:
            raise PrecisionError(
                f"cannot raise precision from {self.prec} to {prec} digits"
            )
        return PadicInt(self.value, self.p, prec)

    def _join(self, other: "PadicInt") -> int:
        if self.p != other.p:
            raise ValueError("mixed primes")
        return min(self.prec, other.prec)

    def __add__(self, other: "PadicInt") -> "PadicInt":
        m = self._join(other)
        return PadicInt(self.value + other.value, self.p, m)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        m = self._join(other)
        return PadicInt(self.value - other.value, self.p, m)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        m = self._join(other)
        return PadicInt(self.value * other.value, self.p, m)

    def is_unit(self) -> bool:
        return self.value % self.p != 0

    def unit_inverse(self) -> "PadicInt":
        if not self.is_unit():
            raise ZeroDivisionError("not a unit in Z/p^M")
        return PadicInt(pow(self.value, -1, self.modulus), self.p, self.prec)


def teichmuller(t: int, p: int, prec: int) -> PadicInt:
    """The Teichmuller lift omega(t) mod p^prec.

    omega(t) is the unique (p-1)-th root of unity congruent to t mod p,
    obtained as the limit of t, t^p, t^(p^2), ...  The iteration gains one
    digit per step, so it stabilizes within `prec` rounds.
    """
    require_admissible_prime(p)
    if t % p == 0:
        raise ValueError(f"{t} is divisible by {p}; no Teichmuller lift")
    q = p**prec
    x = t % q
    while True:
        y = pow(x, p, q)
        if y == x:
            return PadicInt(x, p, prec)
        x = y


def gamma_generator(p: int, prec: int) -> PadicInt:
    """The fixed topological generator 1 + p of 1 + pZ_p."""
    return PadicInt(1 + p, p, prec)


def plog(x: PadicInt) -> PadicInt:
    """p-adic logarithm of x = 1 mod p, correct modulo p^(x.prec).

    Sums the alternating series in u = x - 1 up to the index past which
    every term has valuation >= prec.  Divisions by series indices lose
    floor(log_p(n_max)) digits, so the summation runs at an inflated
    working precision; the returned digits are all trustworthy.
    """
    p, target = x.p, x.prec
    if x.value % p != 1:
        raise ValueError("plog requires x = 1 mod p")
    # smallest bound past which n - v_p(n) >= target for every later index
    nmax = target
    while nmax - _ilog(nmax, p) < target:
        nmax += 1
    loss = _ilog(nmax, p)
    work = target + loss
    q = p**work
    u = (x.value - 1) % q
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
    return PadicInt(acc, p, target)


def s_exponent(t: int, p: int, prec: int) -> PadicInt:
    """The exponent s(t) with gamma^(s(t)) = t * omega(t)^(-1), mod p^prec.

    Computed as plog(t * omega(t)^(-1)) / plog(gamma).  Both logarithms lie
    in pZ_p and the denominator has valuation exactly one, so the quotient
    is integral; one guard digit absorbs the division by p.
    """
    require_admissible_prime(p)
    if t % p == 0:
        raise ValueError(f"{t} is divisible by {p}")
    work = prec + 1
    q = p**work
    om_inv = teichmuller(t, p, work).unit_inverse().value
    unit = t * om_inv % q
    num = plog(PadicInt(unit, p, work)).value
    den = plog(gamma_generator(p, work)).value
    if num % p != 0 or den % p != 0:
        raise PrecisionError("logarithm landed outside pZ_p")
    den_unit = den // p
    if den_unit % p == 0:
        raise PrecisionError("log(gamma) should have valuation exactly 1")
    s = (num // p) * pow(den_unit, -1, p**prec) % p**prec
    return PadicInt(s, p, prec)


@dataclass(frozen=True)
class LambdaPoly:
    """An element of Z_p[[T]] truncated modulo (p^prec, T^trunc).

    coeffs[j] is the coefficient of T^j, reduced modulo p^prec.
    """

    coeffs: tuple[int, ...]
    p: int
    prec: int

    def __post_init__(self):
        require_admissible_prime(self.p)
        q = self.p**self.prec
        object.__setattr__(self, "coeffs", tuple(c % q for c in self.coeffs))

    @property
    def trunc(self) -> int:
        return len(self.coeffs)

    @classmethod
    def constant(cls, c: int, p: int, trunc: int, prec: int) -> "LambdaPoly":
        return cls((c,) + (0,) * (trunc - 1), p, prec)

    def _join(self, other: "LambdaPoly") -> tuple[int, int]:
        if self.p != other.p:
            raise ValueError("mixed primes")
        return min(self.trunc, other.trunc), min(self.prec, other.prec)

    def __add__(self, other: "LambdaPoly") -> "LambdaPoly":
        d, m = self._join(other)
        return LambdaPoly(
            tuple(a + b for a, b in zip(self.coeffs[:d], other.coeffs[:d])),
            self.p,
            m,
        )

    def scale(self, c: int) -> "LambdaPoly":
        return LambdaPoly(tuple(c * a for a in self.coeffs), self.p, self.prec)

    def __mul__(self, other: "LambdaPoly") -> "LambdaPoly":
        d, m = self._join(other)
        q = self.p**m
        out = [0] * d
        for i, a in enumerate(self.coeffs[:d]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: d - i]):
                out[i + j] = (out[i + j] + a * b) % q
        return LambdaPoly(tuple(out), self.p, m)


def a_t_poly(t: int, p: int, trunc: int, prec: int) -> LambdaPoly:
    """The polynomial t*(1+T)^(s(t)) modulo (p^prec, T^trunc).

    Coefficient of T^j is t*binom(s(t), j).  Binomials divide by j!, which
    costs v_p(j!) digits, so s(t) is fetched at precision inflated by
    v_p((trunc-1)!); every reported coefficient is then exact mod p^prec.
    """
    if trunc < 1:
        raise ValueError("need at least the constant coefficient")
    vmax = _factorial_valuation(trunc - 1, p)
    work = prec + vmax
    q = p**work
    s = s_exponent(t, p, work).value
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
    return LambdaPoly(tuple(out), p, prec)


def eval_lambda(f: LambdaPoly, x: PadicInt) -> PadicInt:
    """Evaluate f at a point x = 0 mod p by Horner's rule.

    Dropped terms c_j x^j with j >= trunc have valuation >= trunc, so the
    result carries min(prec, trunc) digits.
    """
    if f.p != x.p:
        raise ValueError("mixed primes")
    if x.value % f.p != 0:
        raise ValueError("evaluation point must be divisible by p")
    work = min(f.prec, x.prec)
    q = f.p**work
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * x.value + c) % q
    return PadicInt(acc, f.p, min(work, f.trunc))


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
