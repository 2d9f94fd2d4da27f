"""Exact p-adic arithmetic: lifts, logarithms, exponents, truncated series."""

import random

import pytest

from eiscomp.errors import PrecisionError
from eiscomp.padic import (
    a_t_poly,
    is_admissible_prime,
    plog,
    s_exponent,
    teichmuller,
)
from eiscomp.qexp import delta_q, ladder_ratio, miller_basis, sturm

from oracles import horner


# --- independent oracles -------------------------------------------------

def teich_oracle(t, p, M):
    """Iterate x -> x^p to stabilization."""
    q = p**M
    x = t % q
    for _ in range(M + 2):
        x = pow(x, p, q)
    return x


def plog_series_oracle(xval, p, M):
    """Direct alternating-series summation with exact rational bookkeeping."""
    from fractions import Fraction

    u = xval - 1
    total = Fraction(0)
    for n in range(1, 4 * M + 8):
        total += Fraction((-1) ** (n + 1) * u**n, n)
    # total = a/b with b prime to p for the inputs used below
    q = p**M
    return total.numerator * pow(total.denominator, -1, q) % q


def discrete_log_oracle(target, p, M):
    """Brute-force v with (1+p)^v = target mod p^M; v is defined mod p^(M-1)."""
    q = p**M
    acc = 1
    for v in range(p ** (M - 1)):
        if acc == target:
            return v
        acc = acc * (1 + p) % q
    raise AssertionError("target outside the cyclic group")


# --- teichmuller ----------------------------------------------------------

def test_teichmuller_fixed_point_at_one():
    for p in (5, 7, 37):
        assert teichmuller(1, p, 6) == 1


def test_teichmuller_frozen_example():
    # oracle value for (t=2, p=5, M=2), hand-checkable
    assert teich_oracle(2, 5, 2) == 7
    assert teichmuller(2, 5, 2) == 7
    assert pow(7, 4, 25) == 1


def test_teichmuller_single_digit_is_identity():
    for p in (5, 11):
        for t in range(1, p):
            assert teichmuller(t, p, 1) == t % p


def test_teichmuller_root_of_unity_and_congruence():
    rng = random.Random(7)
    for p in (5, 7, 13, 37):
        for _ in range(8):
            t = rng.randrange(1, 200)
            if t % p == 0:
                continue
            for M in (1, 3, 5):
                w = teichmuller(t, p, M)
                assert pow(w, p - 1, p**M) == 1
                assert w % p == t % p
                assert w == teich_oracle(t, p, M)


def test_teichmuller_rejects_multiples_of_p():
    with pytest.raises(ValueError):
        teichmuller(10, 5, 3)


# --- plog -----------------------------------------------------------------

def test_plog_of_one_is_zero():
    assert plog(1, 7, 5) == 0


def test_plog_frozen_example():
    # p=5, M=2, x=6: 5 - 25/2 + ... = 5 mod 25
    assert plog_series_oracle(6, 5, 2) == 5
    assert plog(6, 5, 2) == 5


def test_plog_matches_series_oracle():
    for p in (5, 7, 11):
        for M in (2, 3, 4):
            for z in (1, 2, p - 1, p + 3):
                x = (1 + p * z) % p**M
                got = plog(x, p, M)
                assert got == plog_series_oracle(x, p, M)


def test_plog_homomorphism():
    rng = random.Random(11)
    for p in (5, 13):
        M = 4
        q = p**M
        for _ in range(10):
            x = 1 + p * rng.randrange(p ** (M - 1))
            y = 1 + p * rng.randrange(p ** (M - 1))
            lx = plog(x, p, M)
            ly = plog(y, p, M)
            lxy = plog(x * y % q, p, M)
            assert lxy == (lx + ly) % q


def test_plog_rejects_non_units_of_the_right_shape():
    with pytest.raises(ValueError):
        plog(2, 5, 3)


# --- s_exponent -----------------------------------------------------------

def test_s_exponent_gamma_itself():
    for p in (5, 7):
        assert s_exponent(1 + p, p, 4) == 1


def test_s_exponent_at_one():
    assert s_exponent(1, 11, 3) == 0


def test_s_exponent_frozen_discrete_log():
    # (p, t, M) = (7, 2, 3): brute-force discrete log gives 33 mod 49
    p, M = 7, 3
    q = p**M
    target = 2 * pow(teich_oracle(2, p, M), -1, q) % q
    v = discrete_log_oracle(target, p, M)
    assert v == 33
    s = s_exponent(2, p, M)
    assert s % p ** (M - 1) == v
    assert pow(1 + p, s, q) == target


def test_s_exponent_defining_relation_sampled():
    rng = random.Random(3)
    for p in (5, 7, 13):
        M = 4
        q = p**M
        for _ in range(6):
            t = rng.randrange(2, 100)
            if t % p == 0:
                continue
            s = s_exponent(t, p, M)
            target = t * pow(teich_oracle(t, p, M), -1, q) % q
            assert pow(1 + p, s, q) == target


# --- a_t_poly ----------------------------------------------------------------

def test_a_t_poly_at_one_is_constant_one():
    assert a_t_poly(1, 7, 6, 4) == [1, 0, 0, 0, 0, 0]


def test_a_t_poly_constant_term_is_t():
    for p, t in ((5, 2), (7, 3), (13, 12)):
        assert a_t_poly(t, p, 4, 3)[0] == t % p**3


def test_a_t_specialization_closed_form():
    # A_t(gamma^d - 1) = t^(d+1) * omega(t)^(-d); generator-independent check
    for p in (5, 7, 13):
        for t in range(2, 50):
            if t % p == 0:
                continue
            for d in (0, 1, 2, 7, 10):
                M, D = 4, 12
                f = a_t_poly(t, p, D, M)
                # x = 0 mod p: the dropped terms have valuation >= D > M
                got = horner(f, pow(1 + p, d, p ** (M + 2)) - 1, p**M)
                om_inv = pow(teichmuller(t, p, M), -1, p**M)
                want = pow(t, d + 1, p**M) * pow(om_inv, d, p**M)
                assert got == want % p**M


# --- precision discipline ---------------------------------------------------

def test_precision_monotonicity():
    # recomputing with more digits never changes already-reported digits
    for t in (2, 3, 8):
        lo = s_exponent(t, 7, 3)
        hi = s_exponent(t, 7, 6)
        assert hi % 7**3 == lo
    lo = a_t_poly(2, 5, 5, 2)
    hi = a_t_poly(2, 5, 9, 5)
    assert [c % 5**2 for c in hi[:5]] == lo


def test_small_primes_rejected_at_construction():
    for p in (2, 3, 4, 9):
        with pytest.raises(ValueError):
            teichmuller(1, p, 2)


@pytest.mark.parametrize("prec", [0, -1])
def test_precision_below_one_digit_rejected_on_entry(prec):
    # each public function checks its precision before any arithmetic, the
    # series builds too, with their prime
    calls = (
        lambda: teichmuller(2, 5, prec),
        lambda: plog(6, 5, prec),
        lambda: s_exponent(2, 5, prec),
        lambda: a_t_poly(2, 5, 3, prec),
        lambda: miller_basis(5, 12, sturm(12), prec),
        lambda: ladder_ratio(5, 12, prec),
        lambda: delta_q(5, 12, prec),
    )
    for call in calls:
        with pytest.raises(PrecisionError, match="precision must be at least one digit"):
            call()


def test_prime_check_is_memoized():
    # trial division near 3 * 10^9 takes milliseconds; each construction asks again
    from eiscomp.linalg import EchelonSpace, MatFp

    p = 3037000493
    MatFp(p, [[1]])
    misses = is_admissible_prime.cache_info().misses
    MatFp(p, [[2]])
    EchelonSpace(p, 3)
    assert is_admissible_prime.cache_info().misses == misses
    assert is_admissible_prime(p) and not is_admissible_prime(p + 2)
