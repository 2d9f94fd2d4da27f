"""Bernoulli numbers modulo p and irregular-index scanning.

B_k mod p comes from Voronoi's congruence.  For a primitive root g mod p
and even k in [2, p-3], where g^k != 1,

    (g^k - 1) B_k = k g^(k-1) S_(k-1)  (mod p),   S_m = sum_(j=1..p-1) j^m floor(jg/p).

Put j = g^i, f_i = floor((g^i mod p) g / p) and h = (p-1)/2.  Since
g^(i+h) = -g^i, the second half of the cycle mirrors the first,
f_(i+h) = g-1-f_i, and for odd m = 2u+1 the sum halves:

    S_m = sum_(i<h) (2 f_i - g + 1) g^i w^(iu),   w = g^2.

Bluestein's identity iu = T(i+u) - T(i) - T(u), with T(n) = n(n-1)/2,
makes all (p-3)/2 of these sums one correlation of a length-h sequence
with a chirp of length p-3.  That correlation is the middle of a product,
which qexp.middle_product_mod takes from one cyclic product at the power
of two at least p-3, on the package's product kernel.  Powers of g,
chirps, the discrete logs that give each inverse
(g^k - 1)^(-1) = g^(-log(g^k - 1)), and the final products are int64
numpy expressions, so a table costs O(M(p)), M(p) being the cost of one
product of length-p residue arrays, plus O(p) array work.  No int64
intermediate exceeds (p-1)^2, which fixes the largest prime handled,
TABLE_MAX_PRIME; larger primes are rejected.

A prime's scan record collects its irregular indices, any pair (k, k')
with k + k' = p + 1 and both Bernoulli values divisible by p, and the
half-index check at (p+1)/2 for p = 3 mod 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .padic import require_admissible_prime
from .qexp import middle_product_mod

# The transform's int64 intermediates are products of two residues, at most
# (p-1)^2; (g^i mod p)*g with g < p; and chirp exponents t(t-1) with
# t <= p-4.  All stay below 2^63 while (p-1)^2 < 2^63; this is the largest
# such prime.
TABLE_MAX_PRIME = 3037000493


def primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod the prime p."""
    n = p - 1
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def _geometric(g: int, n: int, p: int) -> np.ndarray:
    """g^0, ..., g^(n-1) mod p, doubling the known prefix each step."""
    pw = np.ones(n, dtype=np.int64)
    size = 1
    while size < n:
        step = min(size, n - size)
        pw[size : size + step] = pw[:step] * pow(g, size, p) % p
        size += step
    return pw


def _voronoi_table(p: int) -> np.ndarray:
    """B_k mod p for 0 <= k <= p-3 from one half-length correlation."""
    g = primitive_root(p)
    n, h, count = p - 1, (p - 1) // 2, (p - 3) // 2  # count: even k in [2, p-3]
    pw = _geometric(g, n, p)  # pw[e] = g^e, exponents taken mod p-1
    t = np.arange(h + count - 1, dtype=np.int64)
    chirp_exp = t * (t - 1) % n  # w^T(t) = g^(t(t-1))
    chirp = pw[chirp_exp]
    unchirp = pw[-chirp_exp[:h] % n]  # w^(-T(t)) for t < h; count < h
    f = pw[:h] * g // p
    x = (2 * f - g + 1) * pw[:h] % p * unchirp % p  # times w^(-T(i))
    c = middle_product_mod(x, chirp, p)  # c_u = sum_i x_i chirp_(i+u)
    s = c * unchirp[:count] % p  # S_(2u+1) = w^(-T(u)) c_u
    k = 2 * t[:count] + 2
    log = np.empty(p, dtype=np.int64)
    log[pw] = np.arange(n, dtype=np.int64)
    inv = pw[-log[pw[k] - 1] % n]  # (g^k - 1)^(-1)
    b = np.zeros(p - 2, dtype=np.int64)
    b[0], b[1] = 1, (p - 1) // 2  # B_1 = -1/2
    b[2::2] = k * pw[k - 1] % p * s % p * inv % p
    return b


# A table is p - 2 int64 entries, 0.8 MB near p = 10^5, and a scan asks for
# each prime's table once, so only the last few are kept.
@lru_cache(maxsize=4)
def bernoulli_table_mod(p: int) -> np.ndarray:
    """B_k mod p for 0 <= k <= p-3 (odd k > 1 entries are zero).

    A read-only int64 array, shared by every caller through the cache.
    Outside that range B_k need not be p-integral.
    """
    if p > TABLE_MAX_PRIME:
        raise ValueError(
            f"p = {p} exceeds {TABLE_MAX_PRIME}, the largest prime the int64 table handles exactly"
        )
    require_admissible_prime(p)
    table = _voronoi_table(p)
    table.flags.writeable = False
    return table


def irregular_indices(p: int) -> list[int]:
    """Even k in [4, p-3] with p dividing B_k, as Python ints."""
    zeros = np.flatnonzero(bernoulli_table_mod(p)[4 : p - 2 : 2] == 0)
    return (2 * zeros + 4).tolist()


@dataclass(frozen=True)
class ScanRecord:
    """Per-prime scan result.

    pair_hits lists (k, k') with k <= k', k + k' = p + 1, both indices in
    [4, p-3] and both Bernoulli values divisible by p.  half_index_ok is
    the check B_((p+1)/2) != 0 mod p, defined only for p = 3 mod 4.
    """

    p: int
    irregular_indices: tuple[int, ...]
    pair_hits: tuple[tuple[int, int], ...]
    half_index_ok: bool | None

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "irregular_indices": list(self.irregular_indices),
            "pair_hits": [list(h) for h in self.pair_hits],
            "half_index_ok": self.half_index_ok,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScanRecord":
        return cls(
            p=d["p"],
            irregular_indices=tuple(d["irregular_indices"]),
            pair_hits=tuple(tuple(h) for h in d["pair_hits"]),
            half_index_ok=d["half_index_ok"],
        )

    def csv_row(self) -> str:
        irr = ";".join(str(k) for k in self.irregular_indices)
        hits = ";".join(f"{k}:{kp}" for k, kp in self.pair_hits)
        half = "na" if self.half_index_ok is None else str(self.half_index_ok).lower()
        return f"{self.p},{irr},{hits},{half}"


SCAN_CSV_HEADER = "p,irregular_indices,pair_hits,half_index_ok"


def pair_scan(p: int) -> ScanRecord:
    """Scan one prime for mirror pairs of irregular indices.

    For p = 3 mod 4 the half index (p+1)/2 is its own mirror; its
    non-vanishing is recorded separately.  Primes 5 and 7 have an empty
    index range and produce empty records.
    """
    require_admissible_prime(p)
    irr = tuple(irregular_indices(p))
    irr_set = set(irr)
    hits = []
    for k in irr:
        kp = p + 1 - k
        if kp in irr_set and k <= kp:
            hits.append((k, kp))
    half_ok: bool | None = None
    if p % 4 == 3 and p >= 7:
        # (p+1)/2 is then even and in [4, p-3], where irr lists every zero of the table
        half_ok = (p + 1) // 2 not in irr_set
    return ScanRecord(
        p=p,
        irregular_indices=irr,
        pair_hits=tuple(hits),
        half_index_ok=half_ok,
    )
