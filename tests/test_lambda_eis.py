"""Truncated Iwasawa-algebra Eisenstein coefficients and specialization."""

import json

import numpy as np
import pytest

from eiscomp import lambda_eis
from eiscomp.bernoulli import bernoulli_table_mod
from eiscomp.cli import main
from eiscomp.lambda_eis import (
    LambdaEisenstein,
    build_lambda_eisenstein,
    specialize_and_compare,
)
from eiscomp.padic import a_t_poly, teichmuller
from eiscomp.qexp import _powers
from eiscomp.scan import primes_in

from oracles import horner


def test_coefficient_at_one_is_constant_one():
    assert build_lambda_eisenstein(5, 0, 2, 4, 3).coeffs[1].tolist() == [1, 0, 0, 0]


def test_coefficient_at_p_only_t_one_survives():
    assert build_lambda_eisenstein(7, 2, 8, 5, 3).coeffs[7].tolist() == [1, 0, 0, 0, 0]


def test_coefficient_at_two_matches_a2():
    # n = 2, d = 0, p = 5: coefficient is 1 + A_2(T)
    p, m, d_t = 5, 2, 3
    f = build_lambda_eisenstein(p, 0, 3, d_t, m).coeffs[2]
    a2 = a_t_poly(2, p, d_t, m)
    want = [(1 if j == 0 else 0) + c for j, c in enumerate(a2)]
    assert f.tolist() == [c % p**m for c in want]


def test_unit_times_a_t_specializes_to_power():
    # omega^d(t) * A_t(gamma^d - 1) = t^(d+1)
    p, m, d_t = 7, 3, 6
    for d in (0, 2, 4):
        x = pow(1 + p, d, p**m) - 1
        for t in (2, 3, 4, 5, 6, 8):
            if t % p == 0:
                continue
            at = a_t_poly(t, p, d_t, m)
            om_d = pow(teichmuller(t, p, m), d, p**m)
            assert horner([om_d * c for c in at], x, p**m) == pow(t, d + 1, p**m)


def test_specialization_battery():
    for p in (5, 7):
        for d in range(0, p - 2, 2):
            fam = build_lambda_eisenstein(p, d, 20, 6, 3)
            rep = specialize_and_compare(fam)
            assert rep.coefficients_match, (p, d, rep.mismatches)
            if d < p - 3:
                assert rep.constant_term_checked and rep.constant_term_match
            else:
                assert not rep.constant_term_checked
            assert rep.ok


def test_specializations_at_congruent_weights_agree_mod_p():
    # evaluating the same family at d and d + (p-1) agrees mod p
    p, d, m, d_t = 7, 2, 3, 6
    fam = build_lambda_eisenstein(p, d, 15, d_t, m)
    x1 = pow(1 + p, d, p**m) - 1
    x2 = pow(1 + p, d + p - 1, p**m) - 1
    for n in range(1, 15):
        v1 = horner(fam.coeffs[n].tolist(), x1, p**m)
        v2 = horner(fam.coeffs[n].tolist(), x2, p**m)
        assert v1 % p == v2 % p


def test_fault_injection_detected():
    fam = build_lambda_eisenstein(5, 2, 12, 5, 2)
    bad = fam.coeffs.copy()
    bad[6, 0] += 1
    doctored = LambdaEisenstein(p=fam.p, d=fam.d, digits=fam.digits, coeffs=bad)
    rep = specialize_and_compare(doctored)
    assert not rep.coefficients_match
    assert rep.mismatches == [6]
    assert not rep.ok


@pytest.mark.parametrize("p, dtype", [(1447, np.int64), (1451, object)])
def test_family_storage_on_both_sides_of_the_int64_edge(p, dtype):
    # residues mod p^3 are int64 while (p^3 - 1)^2 < 2^63: up to p = 1447, object from 1451
    fam = build_lambda_eisenstein(p, 12, 40, 6, 3)
    assert fam.coeffs.dtype == dtype and fam.coeffs.shape == (40, 6)
    assert not fam.coeffs.flags.writeable
    q = p**3
    for n in (1, 12, 30, 36):
        want = [0] * 6
        for t in range(1, n + 1):
            if n % t == 0:
                om_d = pow(teichmuller(t, p, 3), 12, q)
                want = [w + om_d * c for w, c in zip(want, a_t_poly(t, p, 6, 3))]
        assert fam.coeffs[n].tolist() == [w % q for w in want], n
    assert specialize_and_compare(fam).ok


def test_truncation_caps_the_digits_checked():
    # the dropped terms c_j x^j, j >= t_trunc, have valuation >= t_trunc
    fam = build_lambda_eisenstein(7, 2, 20, 2, 5)
    assert specialize_and_compare(fam).digits_checked == 2
    for shift, seen in ((7**2, False), (7, True)):
        bad = fam.coeffs.copy()
        bad[9, 0] = (bad[9, 0] + shift) % 7**5
        rep = specialize_and_compare(LambdaEisenstein(7, 2, 5, bad))
        assert rep.mismatches == ([9] if seen else []), shift


def test_exponent_range_enforced():
    with pytest.raises(ValueError):
        build_lambda_eisenstein(7, 3, 3, 4, 2)  # odd d
    with pytest.raises(ValueError):
        build_lambda_eisenstein(7, 6, 3, 4, 2)  # d > p - 3


def test_sieve_matches_the_divisor_sum_at_each_n():
    # the n-th coefficient summed directly over the divisors t of n prime to p
    for p, d, q_prec, d_t, m in ((5, 2, 30, 4, 3), (7, 4, 26, 5, 2)):
        fam = build_lambda_eisenstein(p, d, q_prec, d_t, m)
        assert fam.coeffs.shape == (q_prec, d_t) and not fam.coeffs[0].any()
        for n in range(1, q_prec):
            want = [0] * d_t
            for t in range(1, n + 1):
                if n % t == 0 and t % p != 0:
                    om_d = pow(teichmuller(t, p, m), d, p**m)
                    for j, c in enumerate(a_t_poly(t, p, d_t, m)):
                        want[j] += om_d * c
            assert fam.coeffs[n].tolist() == [c % p**m for c in want], (p, d, n)


def test_power_sum_bernoulli_matches_the_voronoi_table():
    # sum_(a<p) a^k = p B_k (mod p^2) for every even k in [2, p-3]
    for p in primes_in(5, 399):
        table = bernoulli_table_mod(p)
        assert [lambda_eis._bernoulli_mod_p(p, k) for k in range(2, p - 2, 2)] == table[2 : p - 2 : 2].tolist(), p


@pytest.mark.parametrize("p, dtype", [(55103, np.int64), (55109, object)])
def test_power_sum_bernoulli_on_both_sides_of_the_storage_edge(p, dtype):
    # residues mod p^2 are int64 up to p = 55103 and Python ints from 55109 on
    assert _powers(2, p, p * p).dtype == dtype
    table = bernoulli_table_mod(p)
    for k in (2, 4, p - 5, p - 3):
        assert lambda_eis._bernoulli_mod_p(p, k) == table[k], k


def test_wrong_bernoulli_value_fails_the_constant_term(monkeypatch, capsys):
    # B_k + 1 from the power sum must not pass: the check compares it with
    # B_k mod p from the Voronoi table, which does not use that path
    true_b = lambda_eis._bernoulli_mod_p

    def shifted(p, k):
        return (true_b(p, k) + 1) % p

    monkeypatch.setattr(lambda_eis, "_bernoulli_mod_p", shifted)
    rep = specialize_and_compare(build_lambda_eisenstein(7, 2, 30, 8, 3))
    assert rep.coefficients_match and rep.constant_term_checked
    assert rep.constant_term_match is False
    assert not rep.ok
    assert main(["specialize", "--p", "7", "--d", "2"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["constant_term_match"] is False and blob["ok"] is False


# `eiscomp specialize --p 37 --d 30`, as written before the Bernoulli table became an array
SPECIALIZE_37_30 = """{
  "p": 37,
  "d": 30,
  "weight": 32,
  "digits_checked": 3,
  "q_prec": 30,
  "coefficients_match": true,
  "mismatches": [],
  "constant_term_checked": true,
  "constant_term_match": true,
  "ok": true
}
"""


def test_specialize_json_is_unchanged_and_its_constant_term_match_a_bool(capsys):
    assert main(["specialize", "--p", "37", "--d", "30"]) == 0
    assert capsys.readouterr().out == SPECIALIZE_37_30
    rep = specialize_and_compare(build_lambda_eisenstein(37, 30, 30, 8, 3))
    assert type(rep.constant_term_match) is bool and type(rep.ok) is bool
