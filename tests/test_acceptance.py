"""Acceptance suite: every criterion at its stated tolerance, all exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The scan over all primes up to 4001 is shared by the first two
criteria through a module fixture.
"""

import random
import sys

import numpy as np
import pytest

from eiscomp.bernoulli import bernoulli_table_mod, irregular_indices
from eiscomp.companions import theta_series
from eiscomp.hecke import (
    duality_pairing_matrix,
    full_hecke_algebra,
    hecke_matrix,
    ordinary_dim,
    t_p_redundancy_check,
)
from eiscomp.lambda_eis import build_lambda_eisenstein, specialize_and_compare
from eiscomp.linalg import MatFp
from eiscomp.localstruct import structure_report
from eiscomp.qexp import (
    eisenstein_q,
    miller_basis,
    plan_companion,
    space_dim,
    sturm,
)
from eiscomp.scan import records_to_csv, scan_range, total_pair_hits

SCAN_MAX = 4001
COMPANION_PRIMES = (11, 13, 37, 59, 67, 101, 103, 131)
IRREGULAR_PRIMES = (37, 59, 67, 101, 103, 131)
EXPECTED_PAIRS = {(37, 32), (59, 44), (67, 58), (101, 68), (103, 24), (131, 22)}


def report(n, text):
    print(f"[acceptance] criterion {n}: PASS - {text}", file=sys.stderr)


@pytest.fixture(scope="module")
def full_scan():
    return scan_range(5, SCAN_MAX, shards=8)


def test_criterion_1_no_mirror_pairs_up_to_4001(full_scan):
    hits = total_pair_hits(full_scan)
    assert hits == 0
    assert len(full_scan) == 549  # primes in [5, 4001]
    report(1, f"zero mirror pairs over {len(full_scan)} primes up to {SCAN_MAX}")


def test_criterion_2_half_index_nonzero_for_3_mod_4(full_scan):
    checked = 0
    for rec in full_scan:
        if rec.p % 4 == 3 and rec.p >= 7:
            assert rec.half_index_ok is True, rec.p
            checked += 1
        else:
            assert rec.half_index_ok is None
    assert checked > 200
    report(2, f"B_((p+1)/2) nonzero mod p for all {checked} primes p = 3 mod 4")


def test_criterion_3_eisenstein_companion_identity():
    pairs = 0
    for p in COMPANION_PRIMES:
        for k in range(4, p - 2, 2):
            kp = p + 1 - k
            bound = plan_companion(p, k).bound
            lhs = theta_series(eisenstein_q(p, k, bound), kp)
            rhs = theta_series(eisenstein_q(p, kp, bound))
            assert np.array_equal(lhs.coeffs, rhs.coeffs), (p, k)
            pairs += 1
    assert pairs == 241
    report(3, f"theta^k' E_k = theta E_k' exactly on {pairs} weight pairs")


def test_criterion_4_irregular_pair_structure_suite():
    derived = set()
    for p in IRREGULAR_PRIMES:
        for k in irregular_indices(p):  # re-derived, not hard-coded
            derived.add((p, k))
    assert derived == EXPECTED_PAIRS
    for p, k in sorted(derived):
        rep = structure_report(p, k)
        assert rep.c_m_prime == 1, (p, k)
        assert rep.gorenstein_full, (p, k)
        assert rep.dim_m_local - 1 == rep.dim_s_local, (p, k)
        assert rep.min_gens == 1, (p, k)
        assert rep.equivalence_failures == [], (p, k)
        assert rep.all_asserted_hold, (p, k)
    report(4, f"structure suite exact on {len(derived)} scanner-derived pairs")


def test_criterion_5_duality_perfectness():
    checked = 0
    for p in (11, 13, 37):
        for k in range(4, 41, 2):
            if k % (p - 1) == 0 or space_dim(k) == 0:
                continue
            space = miller_basis(p, k, max(2, sturm(k) ** 2))
            algebra = full_hecke_algebra(space)
            _, rk = duality_pairing_matrix(space, algebra)
            assert rk == space.dim == len(algebra), (p, k)
            checked += 1
    report(5, f"pairing matrix full-rank on {checked} sampled (p, k)")


def test_criterion_6_prime_to_p_generation():
    checked = 0
    for p in (11, 13, 37):
        for k in range(4, p - 1, 2):
            space = miller_basis(p, k, max(sturm(k) ** 2, p * sturm(k)))
            res = t_p_redundancy_check(space)
            assert res.checked and res.redundant, (p, k)
            checked += 1
    report(6, f"T(p) redundant in the Hecke algebra on {checked} sampled (p, k)")


def test_criterion_7_family_specialization_mod_p_cubed():
    checked = 0
    for p in (5, 7, 37):
        for d in range(0, p - 2, 2):
            fam = build_lambda_eisenstein(p, d, 30, 8, 3)
            rep = specialize_and_compare(fam)
            assert rep.coefficients_match, (p, d, rep.mismatches)
            if d < p - 3:
                assert rep.constant_term_checked and rep.constant_term_match, (p, d)
            assert rep.digits_checked == 3
            checked += 1
    report(7, f"specializations exact mod p^3 for {checked} (p, d) families")


def test_criterion_8_ordinary_weight_stability():
    checked = 0
    for p in (11, 13):
        for k in range(4, 17):
            assert ordinary_dim(p, k) == ordinary_dim(p, k + p - 1), (p, k)
            checked += 1
    report(8, f"ordinary ranks stable under k -> k + (p-1) on {checked} weights")


def test_criterion_9a_theta_commutation_randomized():
    rng = random.Random(90901)
    for _ in range(40):
        p = rng.choice((11, 13, 37))
        k = rng.choice([k for k in range(4, 39, 2) if k % (p - 1) != 0])
        n = rng.randrange(2, 13)
        f = eisenstein_q(p, k, 20 * n)
        from eiscomp.hecke import hecke_action

        left = hecke_action(theta_series(f), n)
        right = theta_series(hecke_action(f, n)).scale(n)
        m = min(left.prec, right.prec)
        assert np.array_equal(left.coeffs[:m], right.coeffs[:m]), (p, k, n)
    report("9a", "theta commutation under 40 seeded random samples")


def test_criterion_9b_hecke_multiplicativity_randomized():
    rng = random.Random(90902)
    for _ in range(12):
        p = rng.choice((11, 13, 37))
        k = rng.choice((12, 16, 24, 26))
        pairs = [(2, 3), (2, 5), (3, 4), (3, 5)]
        m, n = pairs[rng.randrange(len(pairs))]
        space = miller_basis(p, k, (max(m * n, 9) + 1) * sturm(k))
        tmn = hecke_matrix(space, m * n)
        tm = hecke_matrix(space, m)
        tn = hecke_matrix(space, n)
        assert tmn == tm * tn, (p, k, m, n)
        assert tm * tn == tn * tm
        ell = rng.choice((2, 3))
        tl = hecke_matrix(space, ell)
        tl2 = hecke_matrix(space, ell * ell)
        eye = MatFp.identity(p, space.dim)
        assert tl2 == tl * tl - eye.scaled(pow(ell, k - 1, p)), (p, k, ell)
    report("9b", "Hecke multiplicativity and prime-power recursion, 12 samples")


def test_criterion_9c_precision_monotonicity_randomized():
    rng = random.Random(90903)
    from eiscomp.padic import a_t_poly, s_exponent

    for _ in range(10):
        p = rng.choice((5, 7, 13))
        t = rng.randrange(2, 60)
        if t % p == 0:
            continue
        lo = s_exponent(t, p, 3).value
        hi = s_exponent(t, p, 7).value
        assert hi % p**3 == lo
        f_lo = a_t_poly(t, p, 5, 2)
        f_hi = a_t_poly(t, p, 8, 4)
        assert tuple(c % p**2 for c in f_hi.coeffs[:5]) == f_lo.coeffs
    for _ in range(6):
        p = rng.choice((11, 13))
        k = rng.choice((24, 36, 48))
        d = sturm(k) + rng.randrange(1, 6)
        lo = miller_basis(p, k, d)
        hi = miller_basis(p, k, d + 10)
        for r1, r2 in zip(lo.coeffs, hi.coeffs):
            assert r2[:d].tolist() == r1.tolist()
    report("9c", "precision monotonicity across seeded p-adic and basis samples")


def test_criterion_9d_shard_determinism():
    one = records_to_csv(scan_range(5, 400, shards=1))
    for shards in (2, 5, 8):
        assert records_to_csv(scan_range(5, 400, shards=shards)) == one
    report("9d", "merged scan output byte-identical for 1, 2, 5, 8 shards")
