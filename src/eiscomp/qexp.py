"""q-expansions of level-one modular forms over F_p and Z/p^M.

Provides divisor power sums, the discriminant series, the echelonized
monomial basis of M_k, and membership solving against such a basis.  The
basis monomials E4^a E6^b Delta^j (weight-4/6 unit-normalized Eisenstein
series and the discriminant) are built as a ladder, one product per row:
each row is the one before times Delta/E4^3, where the inverse of E4^3 =
1 + O(q) is exact over Z/p^M by Newton iteration (`inverse_mod`).

A truncated q-series is one 1-D array of residues mod m = p^M, stored like
the bases under linalg's int64/object storage rule; `delta_q` and
`ladder_ratio` return read-only arrays, as a basis row is.  A series is
reduced once, where arithmetic can take it out of [0, m): a product's
output, a difference, a scaling, the divisor sums (at their end).
Product operands must be residues: `convolve_mod` and
`middle_product_mod` do not reduce them again, and an entry outside
[0, m) raises ValueError.  A power of a series is linalg's
square-and-multiply with `convolve_mod` as its product.

Every truncated product of series runs on one kernel, `convolve_mod`:
float64 FFTs of the residues split into base-2^s digits, with s chosen so
that Percival's roundoff bound proves each integer coefficient recovered by
rounding, and a runtime check that raises instead of rounding a coefficient
that is not within 1/4 of an integer.  The basis ladder, whose products all
share one factor, keeps that factor's transform and finishes each product on
the same step (`_product_from_spectra`), check included.

A product makes only the array passes its piece count P needs.  With P = 1
(every product at the companion bound of an irregular pair below p = 2099)
it transforms the residues themselves, multiplies the two spectra once,
checks every column of the inverse transform in place, and returns one
cast and one `%` of the first out_len columns.  With P > 1 (two pieces at
the companion bound from (2099, 1230) on, in the Bernoulli table near
p = 10^5, and on Z/p^M) one shift-and-mask makes every digit row, the cross
terms are summed into a zero-filled spectrum, and the digit products are
recombined with their weights 2^(s t).

The Bernoulli correlation in `bernoulli` needs only the middle of a product,
which `middle_product_mod` takes on the same steps from one cyclic product,
sized by the longer operand alone.  The answer is exact for every modulus;
floating point is only the means of the convolution.

Every `miller_basis` call builds its basis, the caller owns what it gets,
and nothing is kept between calls.  The ladder ratio Delta/E4^3 depends
only on (p, digits) and the precision, so a mirror pair makes it once
(`ladder_ratio`) and passes it to both of its builds; a build given no
ratio makes its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import expm1, gcd, isqrt, log1p, sqrt

import numpy as np

from .errors import NonInvertibleError, PrecisionError
from .linalg import _matmul, _power, _residues, _storage
from .padic import _require_digits


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
# series kernel

# Exactness of the float64 transforms.  Percival (Math. Comp. 72, 2003,
# Thm. 5.1; Brent-Zimmermann, Modern Computer Arithmetic, Thm. 3.3.2) bounds
# the error of a product z = x*y computed through radix-2 FFTs of size 2^n in
# double precision by
#
#   max |z' - z| < |x| |y| ((1+e)^(3n) (1+e sqrt5)^(3n+1) (1+b)^(3n) - 1),
#
# |x| and |y| Euclidean norms, e = 2^-53 the unit roundoff and b the error of
# the computed roots of unity, taken as e.  Operands of lengths la and lb with
# digits below 2^s have |x| |y| <= sqrt(la lb) (2^s - 1)^2.  With P pieces per
# operand an output piece sums at most P such products, so its error is at
# most P times the bound; the P - 1 frequency-domain additions and numpy's
# pocketfft, which is not the analysed radix-2 transform (it runs radix-4 and
# real-input passes), are covered by the factor _FFT_SAFETY on top.  While the
# total stays <= 1/4, rint recovers every coefficient exactly, and since the
# factor in brackets exceeds 2e, every coefficient is below 2^53 / 32, exact
# in float64 and in int64.
_FFT_SAFETY = 4
_FFT_MAX_ERROR = 0.25


def _piece_bits(la: int, lb: int, n: int, pieces: int) -> int:
    """Largest s for which P-piece operands of base-2^s digits multiply exactly.

    la and lb are the operand lengths, 2^n the transform size and P `pieces`:
    s is the largest width with _FFT_SAFETY * P * sqrt(la lb) (2^s - 1)^2
    times Percival's factor stays <= _FFT_MAX_ERROR.
    """
    e = 2.0**-53
    percival = expm1(6 * n * log1p(e) + (3 * n + 1) * log1p(e * sqrt(5)))  # b = e
    limit = _FFT_MAX_ERROR / (_FFT_SAFETY * pieces * sqrt(la * lb) * percival)
    return int(sqrt(limit) + 1).bit_length() - 1  # largest s with 2^s <= sqrt(limit) + 1


def _split(la: int, lb: int, n: int, bits: int) -> tuple[int, int]:
    """(P, s): the fewest pieces P of width s = _piece_bits(..., P) covering `bits` bits."""
    pieces = 1
    while pieces * (s := _piece_bits(la, lb, n, pieces)) < bits:
        pieces += 1
    return pieces, s


def _layout(la: int, lb: int, modulus: int) -> tuple[int, int, int]:
    """(P, s, size) for a product of operands of lengths la and lb mod `modulus`.

    size is the power of two at least la + lb - 1, so no term wraps around,
    and (P, s) the fewest base-2^s digit pieces that `_split` proves exact.
    """
    n = (la + lb - 2).bit_length()  # 2^n >= la + lb - 1
    return (*_split(la, lb, n, (modulus - 1).bit_length()), 1 << n)


def _spectra(c: np.ndarray, pieces: int, s: int, size: int) -> np.ndarray:
    """The size-point rfft of each base-2^s digit row of the residues c, lowest first.

    One piece means every residue is below 2^s and is its own digit, so the
    residues are transformed as they are; more pieces take one shift-and-mask
    over all digit rows.
    """
    if pieces == 1:
        return np.fft.rfft(c, size)[None]
    shifts = np.arange(0, s * pieces, s)[:, None]
    return np.fft.rfft((c >> shifts & ((1 << s) - 1)).astype(np.float64), size)


def _product_from_spectra(fa: np.ndarray, fb: np.ndarray, s: int, size: int, modulus: int, out_len: int) -> np.ndarray:
    """The first out_len coefficients, mod `modulus`, of the size-point cyclic
    product whose operands' digit spectra (`_spectra`) are fa and fb; at
    `_layout`'s size nothing wraps around, so that is the truncated product.

    The spectrum of each output digit sums its cross terms, one irfft and
    rint give the integer digit products, and these are recombined mod
    `modulus`.  The check reads every column of the inverse transform, not
    only the out_len returned: should any raw coefficient lie more than 1/4
    from an integer, or be NaN, AssertionError is raised rather than a
    rounded guess returned.  The result is stored under linalg's `_residues` rule.

    With one piece the spectrum is the one product fa * fb, and the rounded
    digits are the product's coefficients: one cast and one `%` over the
    first out_len columns give the result.  With P pieces the 2P - 1 output
    digits are summed into a zero-filled spectrum and recombined with their
    weights 2^(s t) mod `modulus`.
    """
    pieces = len(fa)
    if pieces == 1:
        spec = fa * fb
    else:
        spec = np.zeros((2 * pieces - 1, fa.shape[1]), dtype=complex)
        for i in range(pieces):
            spec[i : i + pieces] += fa[i] * fb
    raw = np.fft.irfft(spec, size)
    exact = np.rint(raw)
    raw -= exact
    err = float(max(raw.max(), -raw.min()))
    if not err <= _FFT_MAX_ERROR:
        raise AssertionError(
            f"float64 product coefficient {err:.3g} away from an integer, above the exact bound {_FFT_MAX_ERROR}"
        )
    # columns past the product's last term round to exact zeros
    if pieces == 1 and out_len <= size:
        out = exact[0, :out_len].astype(np.int64)
        out %= modulus
        return out
    terms = exact[:, :out_len].astype(np.int64)
    out = np.zeros(out_len, dtype=_storage(modulus))
    head = out[: terms.shape[1]]
    for t, term in enumerate(terms):
        head[...] = (head + _residues(modulus, term) * pow(2, s * t, modulus) % modulus) % modulus
    return out


def _operand(c: np.ndarray, modulus: int) -> np.ndarray:
    """c, checked to hold residues in [0, modulus) and not reduced again.

    With more than one digit piece a negative entry would go through the
    shift-and-mask into a wrong product, so an entry outside raises ValueError.
    """
    if c.size and not (0 <= c.min() and c.max() < modulus):
        raise ValueError(f"product operand has an entry outside [0, {modulus})")
    return c


def convolve_mod(a: np.ndarray, b: np.ndarray, modulus: int, out_len: int | None = None) -> np.ndarray:
    """Truncated product of residue arrays, exactly, modulo `modulus`.

    Each residue is split into P base-2^s digits, each operand's digit rows
    go through a float64 rfft of a power-of-two size at least la + lb - 1
    (`_spectra`), and `_product_from_spectra` sums the cross terms, inverts,
    rounds with its exactness check, and recombines mod `modulus`.  A square
    (`a is b`) is transformed once.  _split picks the widest digits that
    Percival's error bound keeps exact (one piece for moduli below 2^12 at
    every length up to 4000); larger moduli, object storage included, take
    more pieces on the same path.  The operands must be residues in [0,
    modulus), stored as `_residues` stores them; an entry outside raises
    ValueError.
    """
    if out_len is None:
        out_len = min(len(a), len(b))
    la, lb = min(len(a), out_len), min(len(b), out_len)
    if la <= 0 or lb <= 0:
        return np.zeros(max(out_len, 0), dtype=_storage(modulus))
    pieces, s, size = _layout(la, lb, modulus)
    fa = _spectra(_operand(a[:la], modulus), pieces, s, size)
    fb = fa if a is b else _spectra(_operand(b[:lb], modulus), pieces, s, size)
    return _product_from_spectra(fa, fb, s, size, modulus, out_len)


def middle_product_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """c_u = sum_(i < la) a_i b_(i+u) for 0 <= u <= lb - la, exactly, modulo `modulus`.

    These are coefficients la-1 .. lb-1 of the product of a reversed and b,
    the middle of that product (Hanrot, Quercia and Zimmermann, "The Middle
    Product Algorithm I", AAECC 14, 2004).  One cyclic product of size S, the
    power of two at least lb, gives them exactly: a term of the full product
    at index S or more wraps onto index at most la + lb - 2 - S < la - 1,
    which is not read.  Digits, exactness bound and check are convolve_mod's,
    with Percival's bound taken at size S; so is the rule that the operands
    be residues in [0, modulus).
    """
    la, lb = len(a), len(b)
    if not 0 < la <= lb:
        raise ValueError(f"middle product needs 0 < len(a) <= len(b), got {la} and {lb}")
    n = (lb - 1).bit_length()  # 2^n >= lb
    size = 1 << n
    pieces, s = _split(la, lb, n, (modulus - 1).bit_length())
    fa = _spectra(_operand(a[::-1], modulus), pieces, s, size)
    fb = _spectra(_operand(b, modulus), pieces, s, size)
    return _product_from_spectra(fa, fb, s, size, modulus, lb)[la - 1 :]


def inverse_mod(f: np.ndarray, modulus: int) -> np.ndarray:
    """The power series 1/f to len(f) coefficients, exactly, modulo `modulus`.

    Newton's step g <- g + g(1 - fg) doubles the number of correct
    coefficients, so the inverse costs two products per doubling on
    `convolve_mod`.  It is exact over Z/modulus whenever the constant term
    is a unit; otherwise NonInvertibleError is raised.
    """
    n = len(f)
    if n == 0:
        return np.zeros(0, dtype=_storage(modulus))
    c = int(f[0])
    if gcd(c, modulus) != 1:
        raise NonInvertibleError(f"constant term {c} is not a unit mod {modulus}")
    g = _residues(modulus, [pow(c, -1, modulus)])
    while len(g) < n:
        have, want = len(g), min(2 * len(g), n)
        # f*g = 1 + O(q^have): only its coefficients have..want-1 are needed
        err = convolve_mod(f, g, modulus, want)[have:]
        g = np.concatenate((g, -convolve_mod(g, err, modulus, want - have) % modulus))
    return g


# ---------------------------------------------------------------------------
# classical series

def _powers(e: int, n: int, modulus: int) -> np.ndarray:
    """i^e mod modulus for i in range(n), with 0^0 = 1, by square-and-multiply on arrays."""
    base = _residues(modulus, np.arange(n))
    out = np.ones(n, dtype=_storage(modulus))
    while e:
        if e & 1:
            out = out * base % modulus
        base = base * base % modulus
        e >>= 1
    return out


def divisor_power_sums(power: int, prec: int, modulus: int, *, skip_divisible_by: int | None = None) -> np.ndarray:
    """out[n] = sum of t^power over divisors t of n (optionally p-deprived).

    Each n = s*t, s <= t, is reached from s <= sqrt(prec-1) by two strided
    adds: s^power for every t >= s, and t^power for t > s only.  The sums
    are reduced once, at the end.
    """
    pw = _powers(power, prec, modulus)
    if skip_divisible_by is not None:
        pw[::skip_divisible_by] = 0
    out = np.zeros_like(pw)
    # out[n] sums one residue below modulus per divisor of n, at most tau(n) <
    # 2 sqrt(prec) of them: below 2^63 on int64 storage (modulus < 2^32) for
    # any prec below 2^60, and object storage does not overflow
    for s in range(1, isqrt(max(prec - 1, 0)) + 1):
        out[s * s :: s] += pw[s]
        above = out[s * (s + 1) :: s]
        above += pw[s + 1 : s + 1 + len(above)]
    out %= modulus
    return out


def _unit_eisenstein(k: int, prec: int, m: int) -> np.ndarray:
    """E4 or E6 normalized to a(0) = 1, mod m: exact over Z, reduced once."""
    coeffs = {4: 240, 6: -504}[k] * divisor_power_sums(k - 1, prec, m) % m
    coeffs[:1] = 1
    return coeffs


def delta_q(p: int, prec: int, digits: int = 1) -> np.ndarray:
    """The discriminant series mod p^digits, a(1) = 1, via (E4^3 - E6^2)/1728.

    The defining identity holds over Z, so computing it modulo p^digits
    gives the reduction of the integral series.
    """
    _require_digits(p, digits)
    if prec < 1:
        raise ValueError("need at least one coefficient")
    m = p**digits
    out = _delta(_power(_unit_eisenstein(4, prec, m), 3, lambda a, b: convolve_mod(a, b, m)), m)
    out.flags.writeable = False
    return out


def _delta(e4_cubed: np.ndarray, m: int) -> np.ndarray:
    """(E4^3 - E6^2)/1728 mod m from E4^3, at its precision."""
    e6 = _unit_eisenstein(6, len(e4_cubed), m)
    # |E4^3 - E6^2| < m, times a residue: below (m-1)^2 on int64 storage
    return (e4_cubed - convolve_mod(e6, e6, m)) * pow(1728, -1, m) % m


# ---------------------------------------------------------------------------
# echelon bases

@dataclass(eq=False)
class FormSpace:
    """Echelonized q-expansion basis of M_k at level one, fixed precision.

    `coeffs` is one read-only dim x prec array of residues mod p^digits,
    stored and multiplied under linalg's rules (`_residues`, `_matmul`).
    Row j starts at q^j and vanishes at every other q^i, i < dim, so the
    first dim coefficients of a form are its coordinates; row 0 is the only
    one with a nonzero constant term, so rows 1.. span the cuspidal subspace.
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

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "digits": self.digits,
            "k": self.k,
            "precision": self.prec,
            "dim": self.dim,
            "rows": self.coeffs.tolist(),
        }


def ladder_ratio(p: int, prec: int, digits: int = 1) -> np.ndarray:
    """The ladder ratio Delta/E4^3 mod p^digits to prec coefficients, as a read-only array.

    E4^3 = 1 + O(q), so its inverse (`inverse_mod`) is exact over Z/p^digits;
    one E4^3 serves Delta and the inverse.
    """
    _require_digits(p, digits)
    m = p**digits
    e4_cubed = _power(_unit_eisenstein(4, prec, m), 3, lambda a, b: convolve_mod(a, b, m))
    ratio = convolve_mod(_delta(e4_cubed, m), inverse_mod(e4_cubed, m), m)
    ratio.flags.writeable = False
    return ratio


def miller_basis(p: int, k: int, prec: int, digits: int = 1, *, ratio: np.ndarray | None = None) -> FormSpace:
    """Reduced echelon basis of M_k(level 1) over Z/p^digits.

    Built from the monomials M_j = E4^a E6^b Delta^j of weight k (j < dim,
    b in {0,1}); the j-th monomial starts q^j + ..., so the leading dim x dim
    block U of the monomials is unit upper triangular, and the reduced
    echelon basis is the one product U^-1 * monomials, exact over Z/p^M.
    Row j has weight k - 12j, so b is the same on every row and a drops by
    3 per row: M_0 = E4^a E6^b and M_(j+1) = M_j * Delta/E4^3, one product
    per row, with the ratio's spectrum computed once per build.  E4^3 =
    1 + O(q), so its inverse is exact and the monomials are the same
    truncated series as the direct products.

    `ratio` is the ladder ratio `ladder_ratio(p, P, digits)` for some P >=
    prec, of which the build reads the first prec coefficients; given
    None, the build makes its own.  A shorter ratio raises ValueError, and
    so does one with an entry outside the residues mod p^digits.  Every
    call builds a new FormSpace with empty `hecke_matrices`, and nothing is
    kept between calls.  The ladder products are exact truncated series
    and U^-1 reads only the first dim columns, so a build's first n
    columns equal a build at precision n.
    """
    _require_digits(p, digits)
    if k < 4 or k % 2 == 1:
        raise ValueError(f"no echelon basis for weight {k}")
    if prec < sturm(k):
        raise PrecisionError(f"precision {prec} below the weight-{k} bound {sturm(k)}")
    if ratio is not None and len(ratio) < prec:
        raise ValueError(f"ladder ratio has {len(ratio)} coefficients, the build needs {prec}")
    d = space_dim(k)
    m = p**digits
    b = k % 4 // 2
    a = (k - 6 * b) // 4
    rows = np.zeros((d, prec), dtype=_storage(m))  # d >= 1 for every even k >= 4
    if a:
        rows[0] = _power(_unit_eisenstein(4, prec, m), a, lambda x, y: convolve_mod(x, y, m))
    if b:
        e6 = _unit_eisenstein(6, prec, m)
        rows[0] = convolve_mod(rows[0], e6, m) if a else e6
    if d > 1:
        if ratio is None:
            ratio = ladder_ratio(p, prec, digits)
        # every ladder product has the same operand lengths: the ratio is transformed once
        pieces, s, size = _layout(prec, prec, m)
        ratio_spectra = _spectra(_operand(ratio[:prec], m), pieces, s, size)
        for j in range(1, d):
            row_spectra = _spectra(rows[j - 1], pieces, s, size)
            rows[j] = _product_from_spectra(row_spectra, ratio_spectra, s, size, m, prec)
    # monomial j must be q^j + O(q^(j+1)): the leading block U is unit upper triangular
    unit = np.eye(d, dtype=np.int64)
    lacking = np.flatnonzero((np.tril(rows[:, :d]) != unit).any(axis=1))
    if lacking.size:
        j = int(lacking[0])
        raise AssertionError(f"basis monomial {j} lacks a unit pivot at q^{j}")

    # U^-1 by clearing [U | 1] above its unit pivots, O(d^3); the basis is U^-1 rows
    aug = np.hstack((rows[:, :d], unit))
    for j in range(1, d):
        aug[:j] = (aug[:j] - aug[:j, j, None] * aug[j]) % m
    rows = _matmul(aug[:, d:], rows, m)
    rows.flags.writeable = False
    return FormSpace(p=p, digits=digits, k=k, coeffs=rows)


def membership(f: np.ndarray, space: FormSpace) -> list | None:
    """Coordinates, residues mod the space's modulus, of f in the space's basis, or None if f lies outside.

    f is one series or a block of rows, one series each; a block's
    coordinates are one list per row, and one row outside gives None.
    Every coefficient available to both sides must agree exactly; too few
    shared coefficients is an error, never a silent pass.
    """
    need = max(sturm(space.k), space.dim)
    usable = min(f.shape[-1], space.prec)
    if usable < need:
        raise PrecisionError(f"have {usable} coefficients, need {need}")
    # the basis is the identity on q^0..q^(dim-1), so those are the coordinates
    coords = f[..., : space.dim]
    span = _matmul(coords, space.coeffs[:, :usable], space.modulus)
    if not np.array_equal(span, f[..., :usable]):
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

    Both sides of theta^(p+1-k) f = theta g, f of weight k, live in the
    graded ring at weight W = k + (p+1-k)(p+1); agreeing up to floor(W/12)
    forces equality.  W is the smaller of the two graded weights of the
    pair exactly when k >= p+1-k, so the companion test reads the shared
    bound plan_companion(p, max(k, p+1-k)).bound at either weight, in the
    direction that lives there (see `companions.companion_space`).
    """
    kp = p + 1 - k
    w = k + kp * (p + 1)
    return PrecisionPlan("companion", (k, kp, w), w // 12 + 1)
