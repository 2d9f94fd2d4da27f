"""Bernoulli tables mod p, irregular indices, and the checkpointed scan."""

import json
from fractions import Fraction
from itertools import count
from math import comb

import numpy as np
import pytest
import sympy

from eiscomp import bernoulli
from eiscomp.bernoulli import (
    TABLE_MAX_PRIME,
    ScanRecord,
    bernoulli_table_mod,
    irregular_indices,
    pair_scan,
    primitive_root,
)
from eiscomp.errors import CheckpointError
from eiscomp.padic import is_admissible_prime
from eiscomp.qexp import convolve_mod
from eiscomp.scan import (
    load_checkpoint,
    primes_in,
    records_to_csv,
    records_to_json,
    scan_range,
    total_pair_hits,
)


# --- exact-rational oracle ----------------------------------------------------

_ORACLE = [Fraction(1)]


def bernoulli_exact(n):
    while len(_ORACLE) <= n:
        m = len(_ORACLE)
        s = sum(Fraction(comb(m + 1, j)) * _ORACLE[j] for j in range(m))
        _ORACLE.append(-s / (m + 1))
    return _ORACLE[n]


def bernoulli_oracle_mod(p, k):
    b = bernoulli_exact(k)
    return b.numerator * pow(b.denominator, -1, p) % p


# --- tables ----------------------------------------------------------------------

def test_b0_is_one_everywhere():
    for p in (5, 7, 37, 101):
        assert bernoulli_table_mod(p)[0] == 1


def test_b2_is_one_sixth():
    assert bernoulli_table_mod(5)[2] == 1  # 1/6 = 1 mod 5
    assert bernoulli_table_mod(7)[2] == pow(6, -1, 7)


def test_b32_vanishes_mod_37():
    assert bernoulli_oracle_mod(37, 32) == 0
    assert bernoulli_table_mod(37)[32] == 0


def test_table_matches_exact_oracle_small_primes():
    # 5, 7 and 11 are the transform's edge cases: its chirp runs (p-5)/2 = 0, 1
    # and 3 terms past the length-(p-1)/2 sequence
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        table = bernoulli_table_mod(p)
        for k in range(0, p - 2):
            if k % 2 == 1 and k != 1:
                assert table[k] == 0
            else:
                assert table[k] == bernoulli_oracle_mod(p, k), (p, k)


def pure_table(p: int) -> list[int]:
    """Reference implementation of the recurrence, plain integers."""
    size = p - 2  # indices 0..p-3
    b = [0] * size
    b[0] = 1
    if size > 1:
        b[1] = (p - pow(2, -1, p)) % p  # B_1 = -1/2
    row = [1, 2, 1]  # binomials C(2, .)
    for m in range(2, size):
        row = [1] + [(row[i] + row[i + 1]) % p for i in range(len(row) - 1)] + [1]
        if m % 2 == 1:
            continue  # odd B_m vanish
        s = 1 + row[1] * b[1]  # j = 0 and j = 1 terms
        for j in range(2, m, 2):
            s += row[j] * b[j]
        b[m] = (-s * pow(m + 1, -1, p)) % p
    return b


# The longest inner product of the recurrence (m = p-3) has (p-5)/2 terms,
# each a product of two residues at most (p-1)^2.  int64 holds the sum
# exactly while (p-5)/2 * (p-1)^2 < 2^63; this is the largest such prime.
INT64_MAX_PRIME = 2642239


def numpy_table(p: int) -> list[int]:
    """The O(p^2) recurrence with its inner loops on int64 vectors."""
    if p > INT64_MAX_PRIME:
        raise ValueError(f"the int64 recurrence is exact only up to {INT64_MAX_PRIME}")
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


def test_numpy_and_pure_tables_agree():
    for p in (53, 101, 257):
        assert numpy_table(p) == pure_table(p)
        assert list(bernoulli_table_mod(p)) == pure_table(p)


def test_table_matches_the_recurrence_at_every_prime_to_1000():
    for p in primes_in(5, 1000):
        assert list(bernoulli_table_mod(p)) == numpy_table(p), p


# 2311: p-1 = 2*3*5*7*11; 3989 = 1 and 4003 = 3 mod 4
@pytest.mark.parametrize("p", [2311, 3547, 3989, 4001, 4003])
def test_table_matches_the_recurrence_at_larger_primes(p):
    assert list(bernoulli_table_mod(p)) == numpy_table(p)


@pytest.mark.parametrize(
    "p, k",
    [(10007, 2), (10007, 500), (10007, 5004), (10007, 8000), (30011, 4), (30011, 2000), (30011, 6000)],
)
def test_table_matches_sympy_at_sampled_indices(p, k):
    b = sympy.bernoulli(k)
    assert bernoulli_table_mod(p)[k] == b.p * pow(b.q, -1, p) % p


def test_table_at_100003_takes_two_digit_pieces_and_matches_sympy(monkeypatch):
    # the correlation at p = 100003 is past the one-piece limit of the product kernel
    from eiscomp import qexp

    pieces = []
    real = qexp._split

    def spy(la, lb, n, bits):
        split = real(la, lb, n, bits)
        pieces.append(split[0])
        return split

    monkeypatch.setattr(qexp, "_split", spy)
    p = 100003
    table = bernoulli_table_mod.__wrapped__(p)
    assert pieces == [2]
    for k in (2, 4, 12, 100, 1000):
        b = sympy.bernoulli(k)
        assert table[k] == b.p * pow(b.q, -1, p) % p, k


def linear_route(a, b, m):
    """The former correlation: the full linear product of a reversed and b, from index len(a)-1 on."""
    return convolve_mod(a[::-1], b, m, out_len=len(b))[len(a) - 1 :]


def test_table_matches_the_linear_route_at_every_prime_to_4001(monkeypatch):
    for p in primes_in(5, 4001):
        table = bernoulli._voronoi_table(p)
        with monkeypatch.context() as patch:
            patch.setattr(bernoulli, "middle_product_mod", linear_route)
            assert np.array_equal(table, bernoulli._voronoi_table(p)), p


# 2731 - 3 and 2741 - 3 both lie in (2048, 4096]; the former linear product
# needed (p-1)/2 + p - 4 points, 4092 at 2731 and 4107 at 2741
@pytest.mark.parametrize("p, linear_size", [(2731, 4096), (2741, 8192)])
def test_table_makes_one_product_at_the_power_of_two_above_p_minus_3(monkeypatch, p, linear_size):
    from eiscomp import qexp

    sizes = []
    real = qexp._product_from_spectra

    def spy(fa, fb, s, size, modulus, out_len):
        sizes.append(size)
        return real(fa, fb, s, size, modulus, out_len)

    monkeypatch.setattr(qexp, "_product_from_spectra", spy)
    bernoulli_table_mod.__wrapped__(p)
    assert sizes == [4096]
    assert qexp._layout((p - 1) // 2, p - 3, p)[2] == linear_size


def test_table_raises_instead_of_rounding(monkeypatch):
    real = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: real(*args, **kwargs) + 0.3)
    with pytest.raises(AssertionError, match="away from an integer"):
        bernoulli_table_mod.__wrapped__(101)


def test_table_is_a_read_only_int64_array_and_records_hold_python_ints():
    table = bernoulli_table_mod(157)
    assert type(table) is np.ndarray and table.dtype == np.int64 and table.shape == (155,)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[62] = 1
    assert table[62] == 0
    assert bernoulli_table_mod(157) is table
    irr = irregular_indices(157)
    assert irr == [62, 110] and all(type(k) is int for k in irr)
    for p in (157, 103, 7):
        rec = pair_scan(p)
        assert all(type(k) is int for k in rec.irregular_indices)
        assert rec.half_index_ok is None or type(rec.half_index_ok) is bool
        assert ScanRecord.from_dict(json.loads(json.dumps(rec.to_dict()))) == rec


@pytest.mark.parametrize("p", [5, 7, 11, 41, 2311, 4001, 4003, 30011])
def test_primitive_root_has_order_exactly_p_minus_1(p):
    g = primitive_root(p)
    powers = set()
    x = 1
    for _ in range(p - 1):
        powers.add(x)
        x = x * g % p
    assert len(powers) == p - 1
    # and it is the least: every smaller c has order a proper divisor of p-1
    assert all(any(pow(c, (p - 1) // q, p) == 1 for q in sympy.primefactors(p - 1)) for c in range(2, g))


def test_recurrence_internal_consistency():
    # sum_j C(m+1, j) B_j = 0 mod p for every m in range
    for p in (37, 101):
        table = bernoulli_table_mod(p)
        for m in range(1, p - 2):
            total = sum(comb(m + 1, j) % p * table[j] for j in range(m + 1)) % p
            assert total == 0, (p, m)


def transform_fits_int64(p):
    """The transform's largest int64 intermediates fit.

    Residue products and (g^i mod p)*g with g < p stay at most (p-1)^2, and
    the largest chirp exponent is t(t-1) with t = p-4.
    """
    return max((p - 1) ** 2, (p - 4) * (p - 5)) < 2**63


def next_prime_above(n):
    return next(q for q in count(n + 1) if is_admissible_prime(q))


def test_int64_limit_is_the_largest_exact_prime():
    assert is_admissible_prime(TABLE_MAX_PRIME)
    assert transform_fits_int64(TABLE_MAX_PRIME)
    assert not transform_fits_int64(next_prime_above(TABLE_MAX_PRIME))


def test_table_beyond_int64_limit_rejected_before_any_work(monkeypatch):
    def transform_must_not_run(p):
        raise AssertionError("the transform started")

    monkeypatch.setattr(bernoulli, "_voronoi_table", transform_must_not_run)
    monkeypatch.setattr(bernoulli, "primitive_root", transform_must_not_run)
    p = next_prime_above(TABLE_MAX_PRIME)
    with pytest.raises(ValueError, match=str(TABLE_MAX_PRIME)):
        bernoulli_table_mod(p)


# --- irregular indices --------------------------------------------------------------

def test_known_irregular_indices():
    assert irregular_indices(31) == []
    assert irregular_indices(37) == [32]
    assert irregular_indices(59) == [44]
    assert irregular_indices(67) == [58]
    assert irregular_indices(101) == [68]
    assert irregular_indices(103) == [24]
    assert irregular_indices(131) == [22]
    assert irregular_indices(157) == [62, 110]


def test_irregular_matches_oracle():
    for p in (37, 59, 157):
        want = [k for k in range(4, p - 2, 2) if bernoulli_oracle_mod(p, k) == 0]
        assert irregular_indices(p) == want


# --- pair scan -------------------------------------------------------------------------

def test_pair_scan_small_primes_empty():
    for p in (5, 7, 11):
        rec = pair_scan(p)
        assert rec.pair_hits == ()
        assert rec.irregular_indices == ()


def test_pair_scan_37():
    rec = pair_scan(37)
    assert rec.irregular_indices == (32,)
    assert rec.pair_hits == ()
    assert rec.half_index_ok is None  # 37 = 1 mod 4


def test_half_index_defined_and_true_for_3_mod_4():
    for p in (7, 11, 19, 23, 43):
        rec = pair_scan(p)
        assert rec.half_index_ok is True


def test_synthetic_pair_detection(monkeypatch):
    # the detector itself, on a doctored table: force B_4 = B_34 = 0 mod 37,
    # a mirror pair since 4 + 34 = 38 = p + 1; the true index 32 stays
    p = 37
    table = bernoulli_table_mod(p).copy()
    table[4] = table[34] = 0
    monkeypatch.setattr(bernoulli, "bernoulli_table_mod", lambda q: table)
    rec = pair_scan(p)
    assert rec.pair_hits == ((4, 34),)
    assert all(type(k) is int for hit in rec.pair_hits for k in hit)
    assert rec.irregular_indices == (4, 32, 34)


def test_record_roundtrip():
    rec = pair_scan(157)
    assert ScanRecord.from_dict(rec.to_dict()) == rec


def test_pair_scan_reads_one_table_and_the_cache_stays_bounded():
    # a scan asks for each prime's table once, so the cache keeps only a few;
    # near 10^5 each table is 0.8 MB of int64
    primes = primes_in(101, 157)
    assert len(primes) == 12
    bernoulli_table_mod.cache_clear()
    records = [pair_scan(p) for p in primes]
    info = bernoulli_table_mod.cache_info()
    assert (info.hits, info.misses) == (0, len(primes))
    assert info.currsize <= info.maxsize < len(primes)
    for rec in records:
        p = rec.p
        assert rec.irregular_indices == tuple(
            k for k in range(4, p - 2, 2) if bernoulli_oracle_mod(p, k) == 0
        )
        half = bernoulli_oracle_mod(p, (p + 1) // 2) != 0 if p % 4 == 3 else None
        assert rec.half_index_ok == half
        assert pair_scan(p) == rec  # again, mostly from tables rebuilt after eviction


# --- scan_range ---------------------------------------------------------------------------

def test_primes_in():
    assert primes_in(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in(10, 9) == []


def test_empty_range():
    assert scan_range(100, 50) == []


def test_scan_shard_independence():
    base = scan_range(5, 300, shards=1)
    csv1 = records_to_csv(base)
    for shards in (2, 3, 8):
        again = records_to_csv(scan_range(5, 300, shards=shards))
        assert again == csv1


def test_scan_finds_the_first_irregular_primes():
    recs = scan_range(5, 160)
    flagged = {r.p: list(r.irregular_indices) for r in recs if r.irregular_indices}
    assert flagged == {37: [32], 59: [44], 67: [58], 101: [68], 103: [24], 131: [22], 149: [130], 157: [62, 110]}
    assert total_pair_hits(recs) == 0


def test_workers_are_capped_at_the_usable_cores(monkeypatch):
    import concurrent.futures
    import os

    made = []

    class InProcessPool:
        # records its worker count and starts no process
        def __init__(self, max_workers):
            made.append(max_workers)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    fresh = records_to_csv(scan_range(5, 100))
    assert made == []
    for shards in (5000, 2):
        assert records_to_csv(scan_range(5, 100, shards=shards)) == fresh
    assert made == [3, 2]
    scan_range(5, 5, shards=8)  # one prime to do: no pool
    assert made == [3, 2]


def test_failing_prime_keeps_every_smaller_one_checkpointed(tmp_path, monkeypatch):
    import eiscomp.scan as scan

    def failing(p):
        if p == 29:
            raise RuntimeError("p = 29 failed")
        return pair_scan(p)

    monkeypatch.setattr(scan, "pair_scan", failing)
    ck = tmp_path / "scan.ck"
    with pytest.raises(RuntimeError, match="29"):
        scan_range(5, 60, checkpoint=str(ck))
    assert sorted(load_checkpoint(str(ck))) == primes_in(5, 23)


def test_checkpoint_resume_matches_fresh(tmp_path):
    ck = tmp_path / "scan.ck"
    first = scan_range(5, 120, checkpoint=str(ck))
    assert ck.exists()
    # resuming over a larger range recomputes only the new primes
    resumed = scan_range(5, 200, checkpoint=str(ck))
    fresh = scan_range(5, 200)
    assert records_to_csv(resumed) == records_to_csv(fresh)
    # a second resume over the same range touches nothing and agrees too
    again = scan_range(5, 200, checkpoint=str(ck))
    assert records_to_csv(again) == records_to_csv(fresh)
    assert records_to_csv(first) == records_to_csv(scan_range(5, 120))


def test_checkpoint_resume_below_its_range(tmp_path):
    # lines are in ascending p within a run only: resuming 5..140 over a checkpoint
    # of 100..130 appends the primes below and above it after those already there
    ck = tmp_path / "scan.ck"
    scan_range(100, 130, checkpoint=str(ck))
    resumed = scan_range(5, 140, checkpoint=str(ck))
    assert records_to_csv(resumed) == records_to_csv(scan_range(5, 140))
    order = [json.loads(line.split(" ", 1)[1])["p"] for line in ck.read_text().splitlines()]
    assert order == primes_in(100, 130) + primes_in(5, 99) + primes_in(131, 140)
    assert sorted(order) == primes_in(5, 140)
    assert load_checkpoint(str(ck)) == {r.p: r for r in resumed}


def test_resume_from_wider_checkpoint_keeps_only_requested_primes(tmp_path):
    ck = tmp_path / "scan.ck"
    scan_range(5, 200, checkpoint=str(ck))
    resumed = scan_range(5, 60, checkpoint=str(ck))
    assert records_to_csv(resumed) == records_to_csv(scan_range(5, 60))


def test_checkpoint_corruption_detected(tmp_path):
    ck = tmp_path / "scan.ck"
    scan_range(5, 60, checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    broken = lines[0]
    payload = broken.split(" ", 1)[1].replace('"pair_hits":[]', '"pair_hits":[[4,8]]')
    assert payload != broken.split(" ", 1)[1]
    lines[0] = broken.split(" ", 1)[0] + " " + payload
    ck.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(ck))


def test_torn_final_line_is_dropped_and_cut_before_append(tmp_path):
    # a run killed mid-append leaves its last record without the newline
    ck = tmp_path / "scan.ck"
    scan_range(5, 60, checkpoint=str(ck))
    whole = ck.read_bytes()
    ck.write_bytes(whole[:-20])
    assert len(load_checkpoint(str(ck))) == whole.count(b"\n") - 1
    resumed = scan_range(5, 60, checkpoint=str(ck))
    assert records_to_csv(resumed) == records_to_csv(scan_range(5, 60))
    # the fragment was cut off, so the rewritten record stands on its own line
    assert ck.read_bytes() == whole


def test_bad_last_line_with_its_newline_still_raises(tmp_path):
    # only a line missing its newline counts as torn; a complete bad line is corruption
    ck = tmp_path / "scan.ck"
    scan_range(5, 60, checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    lines[-1] = lines[-1][:-20]
    ck.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(ck))
    with pytest.raises(CheckpointError):
        scan_range(5, 60, checkpoint=str(ck))


def test_csv_and_json_shapes():
    recs = scan_range(5, 60)
    csv = records_to_csv(recs)
    assert csv.startswith("p,irregular_indices,pair_hits,half_index_ok\n")
    assert csv.count("\n") == len(recs) + 1
    import json

    parsed = json.loads(records_to_json(recs))
    assert [r["p"] for r in parsed] == [r.p for r in recs]
