"""Bernoulli tables mod p, irregular indices, and the checkpointed scan."""

from fractions import Fraction
from itertools import count
from math import comb

import pytest

from eiscomp import bernoulli
from eiscomp.bernoulli import (
    INT64_MAX_PRIME,
    ScanRecord,
    bernoulli_mod,
    bernoulli_table_mod,
    irregular_indices,
    pair_scan,
)
from eiscomp.errors import CheckpointError
from eiscomp.padic import is_admissible_prime
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
        assert bernoulli_mod(p, 0).residue == 1


def test_b2_is_one_sixth():
    assert bernoulli_mod(5, 2).residue == 1  # 1/6 = 1 mod 5
    assert bernoulli_mod(7, 2).residue == pow(6, -1, 7)


def test_b32_vanishes_mod_37():
    assert bernoulli_oracle_mod(37, 32) == 0
    assert bernoulli_mod(37, 32).residue == 0


def test_table_matches_exact_oracle_small_primes():
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


def test_numpy_and_pure_tables_agree():
    for p in (53, 101, 257):
        assert list(bernoulli_table_mod(p)) == pure_table(p)


def test_recurrence_internal_consistency():
    # sum_j C(m+1, j) B_j = 0 mod p for every m in range
    for p in (37, 101):
        table = bernoulli_table_mod(p)
        for m in range(1, p - 2):
            total = sum(comb(m + 1, j) % p * table[j] for j in range(m + 1)) % p
            assert total == 0, (p, m)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        bernoulli_mod(37, 35)  # p-2
    with pytest.raises(ValueError):
        bernoulli_mod(37, -1)


def longest_dot_fits_int64(p):
    """The recurrence's longest inner product, (p-5)/2 terms below (p-1)^2 each, fits."""
    return (p - 5) // 2 * (p - 1) ** 2 < 2**63


def next_prime_above(n):
    return next(q for q in count(n + 1) if is_admissible_prime(q))


def test_int64_limit_is_the_largest_exact_prime():
    assert is_admissible_prime(INT64_MAX_PRIME)
    assert longest_dot_fits_int64(INT64_MAX_PRIME)
    assert not longest_dot_fits_int64(next_prime_above(INT64_MAX_PRIME))


def test_table_beyond_int64_limit_rejected_before_any_work(monkeypatch):
    def recurrence_must_not_run(p):
        raise AssertionError("the O(p^2) recurrence started")

    monkeypatch.setattr(bernoulli, "_numpy_table", recurrence_must_not_run)
    p = next_prime_above(INT64_MAX_PRIME)
    with pytest.raises(ValueError, match=str(INT64_MAX_PRIME)):
        bernoulli_table_mod(p)
    with pytest.raises(ValueError):
        bernoulli_mod(p, 4)


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


def test_synthetic_pair_detection():
    # the detector itself, on a doctored table: force B_k = B_k' = 0
    p = 37
    irr = {4, 34}  # 4 + 34 = 38 = p + 1
    hits = []
    for k in sorted(irr):
        kp = p + 1 - k
        if kp in irr and k <= kp:
            hits.append((k, kp))
    assert hits == [(4, 34)]


def test_record_roundtrip():
    rec = pair_scan(157)
    assert ScanRecord.from_dict(rec.to_dict()) == rec


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

        def map(self, fn, items):
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
