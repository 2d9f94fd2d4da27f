"""Reference series and counts that only the tests read.

Two normalizations coexist deliberately: `eisenstein_q` carries the
arithmetic constant term -B_k/(2k), while the echelon basis in
`eiscomp.qexp` uses the unit-constant-term series 1 + 240*sum(...) and
friends.  Conversions are explicit; nothing rescales silently.
"""

from eiscomp.hecke import ordinary_projector
from eiscomp.linalg import rank
from eiscomp.padic import require_admissible_prime
from eiscomp.qexp import (
    QSeries,
    _powers,
    bernoulli_fraction,
    divisor_power_sums,
    miller_basis,
    reduce_fraction,
    space_dim,
    sturm,
)


def theta_series(f: QSeries, iterates: int = 1) -> QSeries:
    """Apply theta^j: a(n) -> n^j a(n), weight tag + j(p+1)."""
    if iterates < 0:
        raise ValueError("negative theta iterate")
    # 0^0 = 1 keeps a(0) at zero iterates; any iterate kills it
    powers = _powers(iterates, f.prec, f.modulus)
    return QSeries(f.p, powers * f.coeffs, f.weight + iterates * (f.p + 1), f.digits)


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


def ordinary_dim(p: int, k: int) -> int:
    """Rank of the ordinary projector on M_k(F_p); 0 for empty weights."""
    if space_dim(k) == 0:
        return 0
    space = miller_basis(p, k, p * sturm(k))
    return rank(ordinary_projector(space))
