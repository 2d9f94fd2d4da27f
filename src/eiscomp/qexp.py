"""q-expansions of level-one modular forms over F_p and Z/p^M.

Provides truncated q-series with explicit precision and weight tags,
classical and p-deprived Eisenstein series, the discriminant series, the
echelonized monomial basis of M_k (built from weight-4/6 unit-normalized
Eisenstein series and the discriminant), and membership solving against
such a basis.

Two normalizations coexist deliberately: `eisenstein_q` carries the
arithmetic constant term -B_k/(2k), while the echelon basis uses the
unit-constant-term series 1 + 240*sum(...) and friends.  Conversions are
explicit; nothing rescales silently.

Series multiplication packs coefficients into big integers (one fixed-width
slot per coefficient) and performs a single big multiplication, which keeps
the high-precision products needed by the companion computations cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .errors import NonInvertibleError, PrecisionError
from .padic import require_admissible_prime


def sturm(k: int) -> int:
    """Coefficient count that pins down a level-one form of weight k.

    Two forms of weight k agreeing on a(0..floor(k/12)) coincide, so
    floor(k/12) + 1 leading coefficients are always enough.
    """
    if k < 0:
        raise ValueError("negative weight")
    return k // 12 + 1


def space_dim(k: int) -> int:
    """dim M_k at level one: 0 for odd or negative k, else the classical count."""
    if k < 0 or k % 2 == 1:
        return 0
    if k == 0:
        return 1
    if k == 2:
        return 0
    return k // 12 if k % 12 == 2 else k // 12 + 1


# ---------------------------------------------------------------------------
# exact Bernoulli numbers

_BERNOULLI: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli_fraction(n: int) -> Fraction:
    """B_n as an exact rational, via sum_j binom(m+1, j) B_j = 0."""
    if n < 0:
        raise ValueError("negative index")
    with _BERNOULLI_LOCK:
        while len(_BERNOULLI) <= n:
            m = len(_BERNOULLI)
            s = sum(Fraction(comb(m + 1, j)) * _BERNOULLI[j] for j in range(m))
            _BERNOULLI.append(-s / (m + 1))
        return _BERNOULLI[n]


def reduce_fraction(x: Fraction, modulus: int) -> int:
    """x mod `modulus`; explicit error when the denominator is not a unit."""
    from math import gcd

    if gcd(x.denominator, modulus) != 1:
        raise NonInvertibleError(
            f"denominator {x.denominator} is not invertible mod {modulus}"
        )
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


# ---------------------------------------------------------------------------
# series kernel

def convolve_mod(a: list[int], b: list[int], modulus: int, out_len: int | None = None) -> list[int]:
    """Truncated product of coefficient lists, exactly, modulo `modulus`.

    Both operands are packed into a big integer with one coefficient per
    fixed-width slot, multiplied once, and unpacked.  The slot width is
    chosen from min(len)*(modulus-1)^2 so no convolution sum can cross a
    slot boundary.
    """
    if out_len is None:
        out_len = min(len(a), len(b))
    if out_len <= 0:
        return []
    la, lb = min(len(a), out_len), min(len(b), out_len)
    if la == 0 or lb == 0:
        return [0] * out_len
    bound = min(la, lb) * (modulus - 1) ** 2
    slot = max(1, (bound.bit_length() + 7) // 8)
    pa = bytearray(slot * la)
    for i in range(la):
        c = a[i] % modulus
        pa[i * slot : i * slot + slot] = c.to_bytes(slot, "little")
    pb = bytearray(slot * lb)
    for i in range(lb):
        c = b[i] % modulus
        pb[i * slot : i * slot + slot] = c.to_bytes(slot, "little")
    prod = int.from_bytes(bytes(pa), "little") * int.from_bytes(bytes(pb), "little")
    raw = prod.to_bytes(slot * (la + lb), "little")
    out = [0] * out_len
    for i in range(min(out_len, la + lb - 1)):
        out[i] = int.from_bytes(raw[i * slot : (i + 1) * slot], "little") % modulus
    return out


class QSeries:
    """A q-expansion truncated to `prec` coefficients over Z/p^digits.

    `weight` is a graded-ring tag: products add it, and mod p the tag may
    be shifted by multiples of p-1 without changing coefficients (that is
    multiplication by the weight-(p-1) Eisenstein series, which reduces
    to 1).  Arithmetic requires matching p and digits.
    """

    __slots__ = ("p", "digits", "weight", "coeffs")

    def __init__(self, p: int, coeffs: list[int], weight: int, digits: int = 1):
        require_admissible_prime(p)
        if digits < 1:
            raise ValueError("digits must be positive")
        if weight < 0:
            raise ValueError("negative weight tag")
        self.p = p
        self.digits = digits
        self.weight = weight
        m = p**digits
        self.coeffs = [c % m for c in coeffs]

    @classmethod
    def zero(cls, p: int, prec: int, weight: int, digits: int = 1) -> "QSeries":
        return cls(p, [0] * prec, weight, digits)

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    @property
    def modulus(self) -> int:
        return self.p**self.digits

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise PrecisionError(f"only {self.prec} coefficients known, need {prec}")
        return QSeries(self.p, self.coeffs[:prec], self.weight, self.digits)

    def with_weight(self, weight: int) -> "QSeries":
        """Re-tag the graded weight (an explicit E_(p-1)-multiple move mod p)."""
        if self.digits == 1:
            if (weight - self.weight) % (self.p - 1) != 0:
                raise ValueError("weight shift must be a multiple of p-1")
        elif weight != self.weight:
            raise ValueError("weight tags are rigid over Z/p^M")
        return QSeries(self.p, self.coeffs, weight, self.digits)

    def _compat(self, other: "QSeries") -> None:
        if self.p != other.p or self.digits != other.digits:
            raise ValueError("mixed moduli")

    def __add__(self, other: "QSeries") -> "QSeries":
        self._compat(other)
        if self.weight != other.weight:
            raise ValueError("adding forms of different weights")
        n = min(self.prec, other.prec)
        return QSeries(
            self.p,
            [a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])],
            self.weight,
            self.digits,
        )

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + other.scale(-1)

    def scale(self, c: int) -> "QSeries":
        return QSeries(self.p, [c * a for a in self.coeffs], self.weight, self.digits)

    def __mul__(self, other: "QSeries") -> "QSeries":
        self._compat(other)
        out = convolve_mod(self.coeffs, other.coeffs, self.modulus)
        return QSeries(self.p, out, self.weight + other.weight, self.digits)

    def pow(self, e: int) -> "QSeries":
        if e < 0:
            raise ValueError("negative series power")
        acc = QSeries(self.p, [1] + [0] * (self.prec - 1), 0, self.digits)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            if e > 1:
                base = base * base
            e >>= 1
        return acc

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return (
            f"QSeries(p={self.p}^{self.digits}, wt={self.weight}, "
            f"prec={self.prec}, [{head}, ...])"
        )


# ---------------------------------------------------------------------------
# classical series

def divisor_power_sums(power: int, prec: int, modulus: int, *, skip_divisible_by: int | None = None) -> list[int]:
    """out[n] = sum of t^power over divisors t of n (optionally p-deprived)."""
    out = [0] * prec
    for t in range(1, prec):
        if skip_divisible_by is not None and t % skip_divisible_by == 0:
            continue
        tp = pow(t, power, modulus)
        for n in range(t, prec, t):
            out[n] = (out[n] + tp) % modulus
    return out


def eisenstein_q(p: int, k: int, prec: int, digits: int = 1) -> QSeries:
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
    return QSeries(p, coeffs, k, digits)


def p_deprived_eisenstein_q(
    p: int, k: int, prec: int, digits: int = 1, *, with_constant: bool = True
) -> QSeries:
    """The p-stabilized Eisenstein series: divisor sums over t prime to p.

    a(0) = -(1 - p^(k-1)) B_k/(2k); a(n) = sum of t^(k-1) over t | n with
    p not dividing t.  Weight 2 is allowed here: the stabilized series
    exists there even though the classical one does not.  For k divisible
    by p-1 the constant term is not p-integral; requesting it raises,
    while with_constant=False returns the positive coefficients with a
    zero in place of a(0).
    """
    require_admissible_prime(p)
    if k < 2 or k % 2 == 1:
        raise ValueError("need even weight >= 2")
    m = p**digits
    coeffs = divisor_power_sums(k - 1, prec, m, skip_divisible_by=p)
    if prec > 0 and with_constant:
        euler = Fraction(1 - p ** (k - 1))
        coeffs[0] = reduce_fraction(-euler * bernoulli_fraction(k) / (2 * k), m)
    return QSeries(p, coeffs, k, digits)


def _unit_eisenstein(p: int, k: int, prec: int, digits: int) -> QSeries:
    # weight 4 and 6 series normalized to constant term 1; exact over Z
    scale = {4: 240, 6: -504}[k]
    m = p**digits
    sig = divisor_power_sums(k - 1, prec, m)
    coeffs = [(scale * s) % m for s in sig]
    if prec > 0:
        coeffs[0] = 1 % m
    return QSeries(p, coeffs, k, digits)


def delta_q(p: int, prec: int, digits: int = 1) -> QSeries:
    """The discriminant series, a(1) = 1, via (E4^3 - E6^2)/1728.

    The defining identity holds over Z, so computing it modulo p^digits
    gives the reduction of the integral series.
    """
    require_admissible_prime(p)
    if prec < 1:
        raise ValueError("need at least one coefficient")
    m = p**digits
    e4 = _unit_eisenstein(p, 4, prec, digits)
    e6 = _unit_eisenstein(p, 6, prec, digits)
    diff = e4.pow(3) - e6.pow(2)
    inv1728 = pow(1728, -1, m)
    return QSeries(p, [c * inv1728 % m for c in diff.coeffs], 12, digits)


# ---------------------------------------------------------------------------
# echelon bases

@dataclass
class FormSpace:
    """Echelonized q-expansion basis of M_k at level one, fixed precision.

    Rows are in reduced echelon form with pivots 0..dim-1; the pivot-0 row
    is the only one with a nonzero constant term, so rows[1:] span the
    cuspidal subspace.  `hecke_matrices` holds the matrix of each T(n)
    once `hecke.hecke_matrix` has built it.
    """

    p: int
    digits: int
    k: int
    prec: int
    dim: int
    rows: list[QSeries]
    pivots: list[int]
    hecke_matrices: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def modulus(self) -> int:
        return self.p**self.digits

    def coords_to_series(self, coords: list[int]) -> QSeries:
        if len(coords) != self.dim:
            raise ValueError("coordinate length disagrees with dimension")
        m = self.modulus
        out = [0] * self.prec
        for c, row in zip(coords, self.rows):
            if c % m == 0:
                continue
            for n in range(self.prec):
                out[n] = (out[n] + c * row.coeffs[n]) % m
        return QSeries(self.p, out, self.k, self.digits)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "digits": self.digits,
            "k": self.k,
            "precision": self.prec,
            "dim": self.dim,
            "rows": [list(r.coeffs) for r in self.rows],
        }


_BASIS_CACHE: dict[tuple[int, int, int, int], FormSpace] = {}
_BASIS_LOCK = threading.Lock()


def miller_basis(p: int, k: int, prec: int | None = None, digits: int = 1) -> FormSpace:
    """Reduced echelon basis of M_k(level 1) over Z/p^digits.

    Built from the monomials E4^a E6^b Delta^j of weight k (j < dim, b in
    {0,1}); the j-th monomial starts q^j + ..., so the echelonization only
    clears entries above unit pivots and works over Z/p^M unchanged.
    Results are cached per (p, k, prec, digits); recomputing at higher
    precision reproduces the same rows truncated.
    """
    require_admissible_prime(p)
    if k < 4 or k % 2 == 1:
        raise ValueError(f"no echelon basis for weight {k}")
    if prec is None:
        prec = sturm(k)
    if prec < sturm(k):
        raise PrecisionError(f"precision {prec} below the weight-{k} bound {sturm(k)}")
    key = (p, k, prec, digits)
    with _BASIS_LOCK:
        hit = _BASIS_CACHE.get(key)
    if hit is not None:
        return hit

    d = space_dim(k)
    m = p**digits
    e4 = _unit_eisenstein(p, 4, prec, digits)
    e6 = _unit_eisenstein(p, 6, prec, digits)
    delta = delta_q(p, prec, digits)

    e4_pows: dict[int, QSeries] = {0: QSeries(p, [1] + [0] * (prec - 1), 0, digits)}
    one = e4_pows[0]

    def e4_power(a: int) -> QSeries:
        while a not in e4_pows:
            top = max(e4_pows)
            e4_pows[top + 1] = e4_pows[top] * e4
        return e4_pows[a]

    rows: list[list[int]] = []
    dpow = one
    for j in range(d):
        r = k - 12 * j
        b = 0 if r % 4 == 0 else 1
        a = (r - 6 * b) // 4
        mono = e4_power(a)
        if b:
            mono = mono * e6
        mono = mono * dpow
        if mono.coeffs[j] % m != 1 or any(mono.coeffs[i] for i in range(j)):
            raise AssertionError(f"basis monomial {j} lacks a unit pivot at q^{j}")
        rows.append(list(mono.coeffs))
        if j + 1 < d:
            dpow = dpow * delta

    # clear above the unit pivots
    for j in range(1, d):
        lead = rows[j]
        for i in range(j):
            c = rows[i][j]
            if c:
                rows[i] = [(x - c * y) % m for x, y in zip(rows[i], lead)]

    space = FormSpace(
        p=p,
        digits=digits,
        k=k,
        prec=prec,
        dim=d,
        rows=[QSeries(p, r, k, digits) for r in rows],
        pivots=list(range(d)),
    )
    with _BASIS_LOCK:
        _BASIS_CACHE.setdefault(key, space)
    return space


def membership(f: QSeries, space: FormSpace, *, min_prec: int | None = None) -> list[int] | None:
    """Coordinates of f in the space's basis, or None if f lies outside.

    Every coefficient available to both sides must agree exactly; too few
    shared coefficients is an error, never a silent pass.  Over F_p the
    weight tags may differ by a multiple of p-1 (graded identification);
    over Z/p^M they must match.
    """
    if f.p != space.p or f.digits != space.digits:
        raise ValueError("mixed moduli")
    if space.digits == 1:
        if (f.weight - space.k) % (space.p - 1) != 0:
            raise ValueError("incomparable weights")
    elif f.weight != space.k:
        raise ValueError("incomparable weights over Z/p^M")
    need = max(sturm(space.k), min_prec or 0, space.dim)
    usable = min(f.prec, space.prec)
    if usable < need:
        raise PrecisionError(f"have {usable} coefficients, need {need}")
    m = space.modulus
    coords = [f.coeffs[j] for j in space.pivots]
    for n in range(usable):
        acc = 0
        for c, row in zip(coords, space.rows):
            acc += c * row.coeffs[n]
        if acc % m != f.coeffs[n]:
            return None
    return coords


# ---------------------------------------------------------------------------
# precision plans

@dataclass(frozen=True)
class PrecisionPlan:
    """A record of why a coefficient bound is sufficient for a task."""

    kind: str
    weights: tuple[int, ...]
    bound: int

    def __post_init__(self):
        w = max(self.weights) if self.weights else 0
        if self.bound < w // 12 + 1:
            raise PrecisionError("bound below the comparison-weight floor")

    def to_json(self) -> dict:
        return {"kind": self.kind, "weights": list(self.weights), "bound": self.bound}


def plan_companion(p: int, k: int) -> PrecisionPlan:
    """Comparison weight for the companion condition between k and p+1-k.

    Both sides of the defining relation live in the graded ring at weight
    W = k + (p+1-k)(p+1); agreeing up to floor(W/12) forces equality.
    """
    kp = p + 1 - k
    w = k + kp * (p + 1)
    return PrecisionPlan("companion", (k, kp, w), w // 12 + 1)
