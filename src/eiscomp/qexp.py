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

A series is one read-only array of residues, stored like the bases under
linalg's int64/object rule.  Multiplication packs each array into a big
integer, one fixed-width slot per coefficient written through numpy byte
views of 64-bit limbs, and performs a single big multiplication, which keeps
the high-precision products needed by the companion computations cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt

import numpy as np

from .errors import NonInvertibleError, PrecisionError
from .linalg import _matmul, _residues
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

def _pack(c: np.ndarray, slot: int) -> int:
    """The integer whose little-endian slot-byte digits are the residues c."""
    limbs = np.zeros((len(c), -(-slot // 8)), dtype="<u8")
    if c.dtype == object:
        for j in range(limbs.shape[1]):
            limbs[:, j] = (c >> (64 * j)) & (2**64 - 1)
    else:
        limbs[:, 0] = c
    return int.from_bytes(limbs.view(np.uint8)[:, :slot].tobytes(), "little")


def _unpack(x: int, n: int, slot: int, modulus: int) -> np.ndarray:
    """The first n little-endian slot-byte digits of x, reduced mod modulus."""
    raw = x.to_bytes(max(n * slot, (x.bit_length() + 7) // 8), "little")
    words = np.zeros((n, -(-slot // 8) * 8), dtype=np.uint8)
    words[:, :slot] = np.frombuffer(raw, dtype=np.uint8, count=n * slot).reshape(n, slot)
    limbs = words.view("<u8")
    if limbs.shape[1] == 1:
        return _residues(modulus, limbs[:, 0])
    return _residues(modulus, sum(limbs[:, j].astype(object) << (64 * j) for j in range(limbs.shape[1])))


def convolve_mod(a: np.ndarray, b: np.ndarray, modulus: int, out_len: int | None = None) -> np.ndarray:
    """Truncated product of residue arrays, exactly, modulo `modulus`.

    Both operands are packed into a big integer with one coefficient per
    fixed-width slot, multiplied once, and unpacked; the slots are written
    and read through numpy byte views of 64-bit limbs.  The slot width is
    chosen from min(len)*(modulus-1)^2 so no convolution sum can cross a
    slot boundary.  The result is stored under linalg's `_residues` rule.
    """
    if out_len is None:
        out_len = min(len(a), len(b))
    la, lb = min(len(a), out_len), min(len(b), out_len)
    if la <= 0 or lb <= 0:
        return _residues(modulus, np.zeros(max(out_len, 0), dtype=np.int64))
    bound = min(la, lb) * (modulus - 1) ** 2
    slot = (bound.bit_length() + 7) // 8
    prod = _pack(_residues(modulus, a[:la]), slot) * _pack(_residues(modulus, b[:lb]), slot)
    return _unpack(prod, out_len, slot, modulus)


class QSeries:
    """A q-expansion truncated to `prec` coefficients over Z/p^digits.

    `coeffs` is one read-only 1-D array of residues mod p^digits, stored as
    FormSpace.coeffs is; the constructor reduces a copy of its input, and
    `f[n]` is a Python int.

    `weight` is a graded-ring tag: products add it, and mod p the tag may
    be shifted by multiples of p-1 without changing coefficients (that is
    multiplication by the weight-(p-1) Eisenstein series, which reduces
    to 1).  Arithmetic requires matching p and digits.
    """

    __slots__ = ("p", "digits", "weight", "coeffs")

    def __init__(self, p: int, coeffs: np.ndarray | list[int], weight: int, digits: int = 1):
        require_admissible_prime(p)
        if digits < 1:
            raise ValueError("digits must be positive")
        if weight < 0:
            raise ValueError("negative weight tag")
        self.p = p
        self.digits = digits
        self.weight = weight
        self.coeffs = _residues(p**digits, coeffs)
        if self.coeffs.ndim != 1:
            raise ValueError("series coefficients must form one row")
        self.coeffs.flags.writeable = False

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    @property
    def modulus(self) -> int:
        return self.p**self.digits

    def __getitem__(self, n: int) -> int:
        return int(self.coeffs[n])

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise PrecisionError(f"only {self.prec} coefficients known, need {prec}")
        return QSeries(self.p, self.coeffs[:prec], self.weight, self.digits)

    def _compat(self, other: "QSeries") -> None:
        if self.p != other.p or self.digits != other.digits:
            raise ValueError("mixed moduli")

    def __add__(self, other: "QSeries") -> "QSeries":
        self._compat(other)
        if self.weight != other.weight:
            raise ValueError("adding forms of different weights")
        n = min(self.prec, other.prec)
        return QSeries(self.p, self.coeffs[:n] + other.coeffs[:n], self.weight, self.digits)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + other.scale(-1)

    def scale(self, c: int) -> "QSeries":
        # a residue times a residue stays below (m-1)^2, exact on int64 storage
        return QSeries(self.p, c % self.modulus * self.coeffs, self.weight, self.digits)

    def __mul__(self, other: "QSeries") -> "QSeries":
        self._compat(other)
        out = convolve_mod(self.coeffs, other.coeffs, self.modulus)
        return QSeries(self.p, out, self.weight + other.weight, self.digits)

    def pow(self, e: int) -> "QSeries":
        if e < 0:
            raise ValueError("negative series power")
        # the unit series 1 + O(q^prec), at the operand's precision
        acc = QSeries(self.p, np.eye(1, self.prec, dtype=np.int64)[0], 0, self.digits)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            if e > 1:
                base = base * base
            e >>= 1
        return acc

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return (
            f"QSeries(p={self.p}^{self.digits}, wt={self.weight}, "
            f"prec={self.prec}, [{head}, ...])"
        )


# ---------------------------------------------------------------------------
# classical series

def _powers(e: int, n: int, modulus: int) -> np.ndarray:
    """i^e mod modulus for i in range(n), with 0^0 = 1, by square-and-multiply on arrays."""
    base = _residues(modulus, np.arange(n))
    out = _residues(modulus, np.ones(n, dtype=np.int64))
    while e:
        if e & 1:
            out = out * base % modulus
        base = base * base % modulus
        e >>= 1
    return out


def divisor_power_sums(power: int, prec: int, modulus: int, *, skip_divisible_by: int | None = None) -> np.ndarray:
    """out[n] = sum of t^power over divisors t of n (optionally p-deprived).

    Each n = s*t, s <= t, is reached from s <= sqrt(prec-1) by two strided
    adds: s^power for every t >= s, and t^power for t > s only.
    """
    pw = _powers(power, prec, modulus)
    if skip_divisible_by is not None:
        pw[::skip_divisible_by] = 0
    out = np.zeros_like(pw)
    for s in range(1, isqrt(max(prec - 1, 0)) + 1):
        out[s * s :: s] = (out[s * s :: s] + pw[s]) % modulus
        above = out[s * (s + 1) :: s]
        above[...] = (above + pw[s + 1 : s + 1 + len(above)]) % modulus
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
    coeffs = {4: 240, 6: -504}[k] * divisor_power_sums(k - 1, prec, p**digits)
    coeffs[:1] = 1
    return QSeries(p, coeffs, k, digits)


def delta_q(p: int, prec: int, digits: int = 1) -> QSeries:
    """The discriminant series, a(1) = 1, via (E4^3 - E6^2)/1728.

    The defining identity holds over Z, so computing it modulo p^digits
    gives the reduction of the integral series.
    """
    require_admissible_prime(p)
    if prec < 1:
        raise ValueError("need at least one coefficient")
    e4 = _unit_eisenstein(p, 4, prec, digits)
    e6 = _unit_eisenstein(p, 6, prec, digits)
    return (e4.pow(3) - e6.pow(2)).scale(pow(1728, -1, p**digits))


# ---------------------------------------------------------------------------
# echelon bases

@dataclass(eq=False)
class FormSpace:
    """Echelonized q-expansion basis of M_k at level one, fixed precision.

    `coeffs` is one read-only dim x prec array of residues mod p^digits,
    stored and multiplied under linalg's int64/object rule.  Row j starts
    at q^j and vanishes at every other q^i, i < dim, so the first dim
    coefficients of a form are its coordinates; row 0 is the only one with
    a nonzero constant term, so rows 1.. span the cuspidal subspace.
    `hecke_matrices` holds the matrix of each T(n) once
    `hecke.hecke_matrix` has built it.
    """

    p: int
    digits: int
    k: int
    coeffs: np.ndarray
    hecke_matrices: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def prec(self) -> int:
        return self.coeffs.shape[1]

    @property
    def modulus(self) -> int:
        return self.p**self.digits

    def coords_to_series(self, coords: list[int]) -> QSeries:
        if len(coords) != self.dim:
            raise ValueError("coordinate length disagrees with dimension")
        row = _matmul(_residues(self.modulus, [coords]), self.coeffs, self.modulus)[0]
        return QSeries(self.p, row, self.k, self.digits)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "digits": self.digits,
            "k": self.k,
            "precision": self.prec,
            "dim": self.dim,
            "rows": self.coeffs.tolist(),
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

    e4_pows = [e4.pow(0)]
    monomials: list[np.ndarray] = []
    dpow = e4_pows[0]
    for j in range(d):
        r = k - 12 * j
        b = 0 if r % 4 == 0 else 1
        a = (r - 6 * b) // 4
        while len(e4_pows) <= a:
            e4_pows.append(e4_pows[-1] * e4)
        mono = e4_pows[a]
        if b:
            mono = mono * e6
        monomials.append((mono * dpow).coeffs)
        if j + 1 < d:
            dpow = dpow * delta
    rows = np.stack(monomials)  # d >= 1 for every even k >= 4
    # monomial j must be q^j + O(q^(j+1)): the leading block is unit upper triangular
    lacking = np.flatnonzero((np.tril(rows[:, :d]) != np.eye(d, dtype=np.int64)).any(axis=1))
    if lacking.size:
        j = int(lacking[0])
        raise AssertionError(f"basis monomial {j} lacks a unit pivot at q^{j}")

    # clear above the unit pivots, one pivot column at a time
    for j in range(1, d):
        rows[:j] = (rows[:j] - rows[:j, j, None] * rows[j]) % m
    rows.flags.writeable = False

    space = FormSpace(p=p, digits=digits, k=k, coeffs=rows)
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
    # the basis is the identity on q^0..q^(dim-1), so those are the coordinates
    coords = f.coeffs[: space.dim]
    span = _matmul(coords[None], space.coeffs[:, :usable], m)[0]
    if not np.array_equal(span, f.coeffs[:usable]):
        return None
    return coords.tolist()


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
