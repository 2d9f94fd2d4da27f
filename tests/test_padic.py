"""Exact p-adic arithmetic: lifts, logarithms, exponents, truncated series."""

import random

import pytest

from eiscomp.errors import PrecisionError
from eiscomp.padic import (
    FpElem,
    LambdaPoly,
    PadicInt,
    a_t_poly,
    eval_lambda,
    gamma_generator,
    is_admissible_prime,
    plog,
    s_exponent,
    teichmuller,
)


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
        assert teichmuller(1, p, 6).value == 1


def test_teichmuller_frozen_example():
    # oracle value for (t=2, p=5, M=2), hand-checkable
    assert teich_oracle(2, 5, 2) == 7
    w = teichmuller(2, 5, 2)
    assert w.value == 7
    assert pow(7, 4, 25) == 1


def test_teichmuller_single_digit_is_identity():
    for p in (5, 11):
        for t in range(1, p):
            assert teichmuller(t, p, 1).value == t % p


def test_teichmuller_root_of_unity_and_congruence():
    rng = random.Random(7)
    for p in (5, 7, 13, 37):
        for _ in range(8):
            t = rng.randrange(1, 200)
            if t % p == 0:
                continue
            for M in (1, 3, 5):
                w = teichmuller(t, p, M)
                assert pow(w.value, p - 1, p**M) == 1
                assert w.value % p == t % p
                assert w.value == teich_oracle(t, p, M)


def test_teichmuller_rejects_multiples_of_p():
    with pytest.raises(ValueError):
        teichmuller(10, 5, 3)


# --- plog -----------------------------------------------------------------

def test_plog_of_one_is_zero():
    assert plog(PadicInt(1, 7, 5)).value == 0


def test_plog_frozen_example():
    # p=5, M=2, x=6: 5 - 25/2 + ... = 5 mod 25
    assert plog_series_oracle(6, 5, 2) == 5
    assert plog(PadicInt(6, 5, 2)).value == 5


def test_plog_matches_series_oracle():
    for p in (5, 7, 11):
        for M in (2, 3, 4):
            for z in (1, 2, p - 1, p + 3):
                x = (1 + p * z) % p**M
                got = plog(PadicInt(x, p, M)).value
                assert got == plog_series_oracle(x, p, M)


def test_plog_homomorphism():
    rng = random.Random(11)
    for p in (5, 13):
        M = 4
        q = p**M
        for _ in range(10):
            x = 1 + p * rng.randrange(p ** (M - 1))
            y = 1 + p * rng.randrange(p ** (M - 1))
            lx = plog(PadicInt(x, p, M)).value
            ly = plog(PadicInt(y, p, M)).value
            lxy = plog(PadicInt(x * y, p, M)).value
            assert lxy == (lx + ly) % q


def test_plog_rejects_non_units_of_the_right_shape():
    with pytest.raises(ValueError):
        plog(PadicInt(2, 5, 3))


# --- s_exponent -----------------------------------------------------------

def test_s_exponent_gamma_itself():
    for p in (5, 7):
        assert s_exponent(1 + p, p, 4).value == 1


def test_s_exponent_at_one():
    assert s_exponent(1, 11, 3).value == 0


def test_s_exponent_frozen_discrete_log():
    # (p, t, M) = (7, 2, 3): brute-force discrete log gives 33 mod 49
    p, M = 7, 3
    q = p**M
    target = 2 * pow(teich_oracle(2, p, M), -1, q) % q
    v = discrete_log_oracle(target, p, M)
    assert v == 33
    s = s_exponent(2, p, M)
    assert s.value % p ** (M - 1) == v
    assert pow(1 + p, s.value, q) == target


def test_s_exponent_defining_relation_sampled():
    rng = random.Random(3)
    for p in (5, 7, 13):
        M = 4
        q = p**M
        for _ in range(6):
            t = rng.randrange(2, 100)
            if t % p == 0:
                continue
            s = s_exponent(t, p, M).value
            target = t * pow(teich_oracle(t, p, M), -1, q) % q
            assert pow(1 + p, s, q) == target


# --- a_t_poly and eval_lambda ----------------------------------------------

def test_a_t_poly_at_one_is_constant_one():
    f = a_t_poly(1, 7, 6, 4)
    assert f.coeffs == (1, 0, 0, 0, 0, 0)


def test_a_t_poly_constant_term_is_t():
    for p, t in ((5, 2), (7, 3), (13, 12)):
        assert a_t_poly(t, p, 4, 3).coeffs[0] == t % p**3


def test_a_t_specialization_closed_form():
    # A_t(gamma^d - 1) = t^(d+1) * omega(t)^(-d); generator-independent check
    for p in (5, 7, 13):
        for t in range(2, 50):
            if t % p == 0:
                continue
            for d in (0, 1, 2, 7, 10):
                M, D = 4, 12
                f = a_t_poly(t, p, D, M)
                x = PadicInt(pow(1 + p, d, p ** (M + 2)) - 1, p, M)
                got = eval_lambda(f, x)
                om_inv = teichmuller(t, p, M).unit_inverse().value
                want = pow(t, d + 1, p**M) * pow(om_inv, d, p**M)
                assert got.value == want % p**got.prec


def test_eval_lambda_trivial_cases():
    one = LambdaPoly.constant(1, 5, 4, 3)
    x = PadicInt(5, 5, 3)
    assert eval_lambda(one, x).value == 1
    tpoly = LambdaPoly((0, 1, 0, 0), 5, 3)
    assert eval_lambda(tpoly, x).value == 5


def test_eval_lambda_rejects_units():
    f = LambdaPoly((1, 1), 5, 3)
    with pytest.raises(ValueError):
        eval_lambda(f, PadicInt(2, 5, 3))


def test_eval_lambda_truncation_caps_precision():
    f = LambdaPoly((1, 1), 7, 6)  # trunc degree 2
    out = eval_lambda(f, PadicInt(7, 7, 6))
    assert out.prec == 2


# --- precision discipline ---------------------------------------------------

def test_precision_monotonicity():
    # recomputing with more digits never changes already-reported digits
    for t in (2, 3, 8):
        lo = s_exponent(t, 7, 3).value
        hi = s_exponent(t, 7, 6).value
        assert hi % 7**3 == lo
    lo = a_t_poly(2, 5, 5, 2)
    hi = a_t_poly(2, 5, 9, 5)
    assert tuple(c % 5**2 for c in hi.coeffs[:5]) == lo.coeffs


def test_arithmetic_carries_min_precision():
    a = PadicInt(12, 5, 4)
    b = PadicInt(3, 5, 2)
    assert (a * b).prec == 2
    assert (a + b).prec == 2


def test_small_primes_rejected_at_construction():
    for p in (2, 3, 4, 9):
        with pytest.raises(ValueError):
            PadicInt(1, p, 2)
        with pytest.raises(ValueError):
            FpElem(1, p)


def test_padic_reduce_cannot_invent_digits():
    x = PadicInt(7, 5, 2)
    with pytest.raises(PrecisionError):
        x.reduce(5)


def test_prime_check_is_memoized():
    # trial division near 3 * 10^9 takes milliseconds; each construction asks again
    from eiscomp.linalg import EchelonSpace, MatFp
    from eiscomp.qexp import QSeries

    p = 3037000493
    MatFp(p, [[1]])
    misses = is_admissible_prime.cache_info().misses
    MatFp(p, [[2]])
    EchelonSpace(p, 3)
    QSeries(p, [1, 2], 0)
    assert is_admissible_prime.cache_info().misses == misses
    assert is_admissible_prime(p) and not is_admissible_prime(p + 2)
