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
from eiscomp.padic import LambdaPoly, PadicInt, a_t_poly, eval_lambda, teichmuller
from eiscomp.qexp import _powers
from eiscomp.scan import primes_in


def test_coefficient_at_one_is_constant_one():
    f = build_lambda_eisenstein(5, 0, 2, 4, 3).coeffs[1]
    assert f.coeffs == (1, 0, 0, 0)


def test_coefficient_at_p_only_t_one_survives():
    f = build_lambda_eisenstein(7, 2, 8, 5, 3).coeffs[7]
    assert f.coeffs == (1, 0, 0, 0, 0)


def test_coefficient_at_two_matches_a2():
    # n = 2, d = 0, p = 5: coefficient is 1 + A_2(T)
    p, m, d_t = 5, 2, 3
    f = build_lambda_eisenstein(p, 0, 3, d_t, m).coeffs[2]
    a2 = a_t_poly(2, p, d_t, m)
    want = tuple((1 if j == 0 else 0) + c for j, c in enumerate(a2.coeffs))
    assert f.coeffs == tuple(c % p**m for c in want)


def test_unit_times_a_t_specializes_to_power():
    # omega^d(t) * A_t(gamma^d - 1) = t^(d+1)
    p, m, d_t = 7, 3, 6
    for d in (0, 2, 4):
        x = PadicInt(pow(1 + p, d, p**m) - 1, p, m)
        for t in (2, 3, 4, 5, 6, 8):
            if t % p == 0:
                continue
            at = a_t_poly(t, p, d_t, m)
            om_d = pow(teichmuller(t, p, m).value, d, p**m)
            val = eval_lambda(at.scale(om_d), x)
            assert val.value == pow(t, d + 1, p**val.prec)


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
    x1 = PadicInt(pow(1 + p, d, p**m) - 1, p, m)
    x2 = PadicInt(pow(1 + p, d + p - 1, p**m) - 1, p, m)
    for n in range(1, 15):
        v1 = eval_lambda(fam.coeffs[n], x1)
        v2 = eval_lambda(fam.coeffs[n], x2)
        assert v1.value % p == v2.value % p


def test_fault_injection_detected():
    fam = build_lambda_eisenstein(5, 2, 12, 5, 2)
    bad = dict(fam.coeffs)
    victim = bad[6]
    bad[6] = LambdaPoly(
        tuple(c + 1 if j == 0 else c for j, c in enumerate(victim.coeffs)),
        victim.p,
        victim.prec,
    )
    doctored = LambdaEisenstein(
        p=fam.p, d=fam.d, q_prec=fam.q_prec, t_trunc=fam.t_trunc,
        digits=fam.digits, coeffs=bad,
    )
    rep = specialize_and_compare(doctored)
    assert not rep.coefficients_match
    assert rep.mismatches == [6]
    assert not rep.ok


def test_exponent_range_enforced():
    with pytest.raises(ValueError):
        build_lambda_eisenstein(7, 3, 3, 4, 2)  # odd d
    with pytest.raises(ValueError):
        build_lambda_eisenstein(7, 6, 3, 4, 2)  # d > p - 3


def test_sieve_matches_the_divisor_sum_at_each_n():
    # the n-th coefficient summed directly over the divisors t of n prime to p
    for p, d, q_prec, d_t, m in ((5, 2, 30, 4, 3), (7, 4, 26, 5, 2)):
        fam = build_lambda_eisenstein(p, d, q_prec, d_t, m)
        assert sorted(fam.coeffs) == list(range(1, q_prec))
        for n in range(1, q_prec):
            want = [0] * d_t
            for t in range(1, n + 1):
                if n % t == 0 and t % p != 0:
                    om_d = pow(teichmuller(t, p, m).value, d, p**m)
                    for j, c in enumerate(a_t_poly(t, p, d_t, m).coeffs):
                        want[j] += om_d * c
            assert fam.coeffs[n].coeffs == tuple(c % p**m for c in want), (p, d, n)


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
