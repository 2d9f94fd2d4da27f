"""Bernoulli numbers modulo p and irregular-index scanning.

B_k mod p is computed by the classical recurrence
sum_j binom(m+1, j) B_j = 0, carried entirely mod p; this is valid for
0 <= k <= p-3, where every B_j involved is p-integral and every division
by m+1 <= p-2 is a unit.  The whole table for one prime costs O(p^2)
field operations; the inner products and Pascal-row updates run on int64
numpy vectors, which is exact up to p = INT64_MAX_PRIME; larger primes are
rejected.

A prime's scan record collects its irregular indices, any pair (k, k')
with k + k' = p + 1 and both Bernoulli values divisible by p, and the
half-index check at (p+1)/2 for p = 3 mod 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .padic import FpElem, require_admissible_prime

# The longest inner product of the recurrence (m = p-3) has (p-5)/2 terms,
# each a product of two residues at most (p-1)^2.  int64 holds the sum
# exactly while (p-5)/2 * (p-1)^2 < 2^63; this is the largest such prime.
INT64_MAX_PRIME = 2642239


def _numpy_table(p: int) -> list[int]:
    """The recurrence with its inner loops on int64 vectors."""
    size = p - 2
    b = np.zeros(size, dtype=np.int64)
    b[0] = 1
    if size > 1:
        b[1] = (p - pow(2, -1, p)) % p
    row = np.zeros(size + 2, dtype=np.int64)
    nxt = np.zeros(size + 2, dtype=np.int64)
    row[0] = 1
    row[1] = 2
    row[2] = 1
    width = 3  # row currently holds C(2, 0..2)
    for m in range(2, size):
        # advance Pascal row: C(m, .) -> C(m+1, .)
        nxt[0] = 1
        np.add(row[1:width], row[0 : width - 1], out=nxt[1:width])
        nxt[width] = 1
        width += 1
        np.remainder(nxt[:width], p, out=row[:width])
        if m % 2 == 1:
            continue
        s = int(row[0]) + int(row[1]) * int(b[1])
        if m > 2:
            s += int(np.dot(row[2:m:2], b[2:m:2]))
        b[m] = (-s * pow(m + 1, -1, p)) % p
    return [int(x) for x in b]


@lru_cache(maxsize=64)
def bernoulli_table_mod(p: int) -> tuple[int, ...]:
    """B_k mod p for 0 <= k <= p-3 (odd k > 1 entries are zero)."""
    if p > INT64_MAX_PRIME:
        raise ValueError(
            f"p = {p} exceeds {INT64_MAX_PRIME}, the largest prime the int64 table handles exactly"
        )
    require_admissible_prime(p)
    return tuple(_numpy_table(p))


def bernoulli_mod(p: int, k: int) -> FpElem:
    """B_k mod p for 0 <= k <= p-3; outside that range B_k need not be p-integral."""
    require_admissible_prime(p)
    if not (0 <= k <= p - 3):
        raise ValueError(f"index {k} outside the p-integral range [0, {p - 3}]")
    return FpElem(bernoulli_table_mod(p)[k], p)


def irregular_indices(p: int) -> list[int]:
    """Even k in [4, p-3] with p dividing B_k."""
    table = bernoulli_table_mod(p)
    return [k for k in range(4, p - 2, 2) if table[k] == 0]


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
    table = bernoulli_table_mod(p)
    irr = tuple(irregular_indices(p))
    irr_set = set(irr)
    hits = []
    for k in irr:
        kp = p + 1 - k
        if kp in irr_set and k <= kp:
            hits.append((k, kp))
    half_ok: bool | None = None
    if p % 4 == 3 and p >= 7:
        half_ok = table[(p + 1) // 2] != 0
    return ScanRecord(
        p=p,
        irregular_indices=irr,
        pair_hits=tuple(hits),
        half_index_ok=half_ok,
    )
