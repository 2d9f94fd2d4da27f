"""q-expansion engine: Eisenstein series, the discriminant, echelon bases."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from eiscomp.errors import NonInvertibleError, PrecisionError
from eiscomp.linalg import _residues
from eiscomp.qexp import (
    QSeries,
    _unit_eisenstein,
    bernoulli_fraction,
    convolve_mod,
    delta_q,
    divisor_power_sums,
    eisenstein_q,
    membership,
    miller_basis,
    p_deprived_eisenstein_q,
    space_dim,
    sturm,
)

PREC = 16


# --- oracles ---------------------------------------------------------------

def sigma_oracle(n, e):
    return sum(t**e for t in range(1, n + 1) if n % t == 0)


def delta_integer_oracle(prec):
    """(E4^3 - E6^2)/1728 over exact integers."""
    def conv(a, b):
        out = [0] * prec
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j < prec:
                    out[i + j] += x * y
        return out

    e4 = [1] + [240 * sigma_oracle(n, 3) for n in range(1, prec)]
    e6 = [1] + [-504 * sigma_oracle(n, 5) for n in range(1, prec)]
    diff = [a - b for a, b in zip(conv(conv(e4, e4), e4), conv(e6, e6))]
    assert all(d % 1728 == 0 for d in diff)
    return [d // 1728 for d in diff]


# --- helpers ----------------------------------------------------------------

def test_sturm_values():
    assert sturm(12) == 2
    assert sturm(0) == 1
    assert sturm(158) == 14


def test_space_dims():
    assert space_dim(0) == 1
    assert space_dim(2) == 0
    assert [space_dim(k) for k in (4, 6, 8, 10, 12, 14)] == [1, 1, 1, 1, 2, 1]
    assert space_dim(110) == 9
    assert space_dim(7) == 0


def test_bernoulli_fractions():
    assert bernoulli_fraction(4) == Fraction(-1, 30)
    assert bernoulli_fraction(6) == Fraction(1, 42)
    assert bernoulli_fraction(12) == Fraction(-691, 2730)


def convolve_oracle(a, b, m, out_len):
    """Schoolbook truncated product of coefficient lists mod m."""
    want = [0] * out_len
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < out_len:
                want[i + j] = (want[i + j] + x * y) % m
    return want


# (modulus, len(a), len(b), out_len), with the slot width in bytes that the
# kernel derives from min(len) * (m-1)^2: slots of 1 to 8 bytes, two limbs,
# three and four limbs, both sides of the int64 storage bound (3037000493 and
# 5^13 int64, 3037000507 and 5^14 objects), empty operands, and out_len of 0,
# below both lengths and above both
CONVOLVE_CASES = [
    (7, 3, 5, None),  # 1 byte
    (37, 23, 17, None),  # 2
    (5**3, 23, 17, None),  # 3
    (293, 300, 300, None),  # 4
    (65537, 20, 20, None),  # 5
    (5**9, 50, 60, None),  # 6
    (5**11, 20, 25, None),  # 7
    (5**13, 6, 9, None),  # 8
    (5**13, 100, 90, None),  # 9: two limbs
    (5**14, 30, 40, None),  # 9
    (5**30, 12, 15, None),  # 18: three limbs
    (7**40, 12, 15, None),  # 29: four limbs
    (3037000493, 1, 5, None),  # 8
    (3037000493, 40, 40, None),  # 9
    (3037000507, 1, 5, None),  # 8, on objects
    (3037000507, 40, 40, None),  # 9
    (7, 0, 5, None),
    (7, 5, 0, None),
    (7, 0, 0, 4),
    (37, 23, 17, 0),
    (37, 23, 17, 10),
    (37, 23, 17, 50),
]


@pytest.mark.parametrize("fill", ["random", "max"])
@pytest.mark.parametrize("m,la,lb,out_len", CONVOLVE_CASES)
def test_convolve_matches_schoolbook(m, la, lb, out_len, fill):
    # all-(m-1) operands reach the slot bound min(la, lb) * (m-1)^2 exactly
    rng = random.Random(m * 1000 + la * 10 + lb)
    a, b = ([m - 1] * n if fill == "max" else [rng.randrange(m) for _ in range(n)] for n in (la, lb))
    got = convolve_mod(_residues(m, a), _residues(m, b), m, out_len)
    want = convolve_oracle(a, b, m, min(la, lb) if out_len is None else out_len)
    assert got.tolist() == want
    assert got.dtype == (np.int64 if (m - 1) ** 2 < 2**63 else object)


def divisor_power_sums_oracle(power, prec, modulus, skip=None):
    """The former per-divisor loop: t^power added at every multiple of t."""
    out = [0] * prec
    for t in range(1, prec):
        if skip is not None and t % skip == 0:
            continue
        tp = pow(t, power, modulus)
        for n in range(t, prec, t):
            out[n] = (out[n] + tp) % modulus
    return out


@pytest.mark.parametrize("modulus", [5, 293, 3037000493, 3037000507, 5**14])
def test_divisor_power_sums_match_the_per_divisor_oracle(modulus):
    # prec - 1 in {1, 16, 49, 121} is a square, whose root divides it once
    for prec in (0, 1, 2, 3, 17, 50, 122, 160):
        for power in (0, 3, 291):
            for skip in (None, 2, 5):
                got = divisor_power_sums(power, prec, modulus, skip_divisible_by=skip)
                assert got.tolist() == divisor_power_sums_oracle(power, prec, modulus, skip), (prec, power, skip)
                assert got.dtype == (np.int64 if (modulus - 1) ** 2 < 2**63 else object)


# --- Eisenstein series --------------------------------------------------------

def test_eisenstein_weight4_frozen():
    # a(0) = 1/240, a(1) = 1, a(2) = 9, from B_4 = -1/30 and divisor sums
    e = eisenstein_q(7, 4, 6)
    assert e.coeffs[0] == pow(240, -1, 7)
    assert e.coeffs[1] == 1
    assert e.coeffs[2] == 9 % 7
    assert e.coeffs[5] == sigma_oracle(5, 3) % 7


def test_eisenstein_a1_is_one_for_every_weight():
    for k in (4, 6, 16, 26):
        assert eisenstein_q(11, k, 4).coeffs[1] == 1


def test_eisenstein_rejects_weight_multiple_of_p_minus_1():
    with pytest.raises(NonInvertibleError):
        eisenstein_q(5, 8, 4)
    with pytest.raises(NonInvertibleError):
        eisenstein_q(11, 20, 4)


def test_eisenstein_mod_p_squared():
    e = eisenstein_q(7, 4, 8, digits=2)
    b4 = Fraction(-1, 30) / 8
    assert e.coeffs[0] == b4.numerator * pow(b4.denominator, -1, 49) % 49 * (-1) % 49
    assert e.coeffs[3] == sigma_oracle(3, 3) % 49


def test_p_deprived_series():
    # (p, k) = (5, 4) has k = p-1: positive coefficients exist, constant does not
    e = p_deprived_eisenstein_q(5, 4, 12, with_constant=False)
    assert e.coeffs[5] == 1  # only t = 1 survives
    assert e.coeffs[1] == 1
    assert e.coeffs[10] == (1 + 2**3) % 5
    with pytest.raises(NonInvertibleError):
        p_deprived_eisenstein_q(5, 4, 12)
    # away from the excluded weights the constant is -(1 - p^(k-1)) B_k / (2k)
    e = p_deprived_eisenstein_q(7, 4, 12)
    want = Fraction(-(1 - 7**3), 1) * Fraction(-1, 30) / 8
    assert e.coeffs[0] == want.numerator * pow(want.denominator, -1, 7) % 7


def test_p_deprived_allows_weight_two():
    e = p_deprived_eisenstein_q(7, 2, 10)
    assert e.coeffs[7] == 1
    assert e.coeffs[2] == 1 + 2


# --- discriminant ---------------------------------------------------------------

def test_delta_against_integer_oracle():
    tau = delta_integer_oracle(PREC)
    assert tau[1] == 1 and tau[2] == -24 and tau[3] == 252
    for p in (5, 11, 101):
        d = delta_q(p, PREC)
        assert d.coeffs.tolist() == [t % p for t in tau]


def test_delta_mod_p_squared_matches_oracle():
    tau = delta_integer_oracle(10)
    d = delta_q(5, 10, digits=3)
    assert d.coeffs.tolist() == [t % 125 for t in tau]


# --- echelon bases ----------------------------------------------------------------

def test_miller_dimensions_match_formula():
    for p in (5, 7, 37, 157):
        for k in range(4, 201, 2):
            s = miller_basis(p, k, sturm(k))
            assert s.dim == space_dim(k), (p, k)
            assert (s.coeffs[:, : s.dim] == np.eye(s.dim, dtype=np.int64)).all()


def test_miller_weight12_second_row_is_delta():
    s = miller_basis(11, 12, 12)
    d = delta_q(11, 12)
    assert np.array_equal(s.coeffs[1], d.coeffs)
    assert s.coeffs[0][0] == 1 and s.coeffs[0][1] == 0


def test_miller_weight4_is_unit_eisenstein():
    s = miller_basis(7, 4, 8)
    assert s.dim == 1
    assert s.coeffs[0].tolist() == [(240 * sigma_oracle(n, 3)) % 7 if n else 1 for n in range(8)]


def test_miller_weight14_dim1():
    assert miller_basis(37, 14, 4).dim == 1


def test_miller_stable_under_precision_increase():
    for (p, k) in ((11, 36), (13, 48)):
        lo = miller_basis(p, k, sturm(k) + 2)
        hi = miller_basis(p, k, sturm(k) + 12)
        for r1, r2 in zip(lo.coeffs, hi.coeffs):
            assert r2[: lo.prec].tolist() == r1.tolist()


def test_weight_p_minus_1_contains_the_constant():
    # the echelon representative with pivot 0 reduces to the constant 1:
    # multiplication by this series is the sanctioned weight shift mod p
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        s = miller_basis(p, p - 1, sturm(p - 1) + 10)
        assert s.coeffs[0].tolist() == [1] + [0] * (s.prec - 1)


def test_unit_weight_p_minus_1_eisenstein_scaling_vanishes():
    # -2(p-1)/B_(p-1) = 0 mod p, so the unit-normalized series is 1 mod p
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        c = Fraction(-2 * (p - 1)) / bernoulli_fraction(p - 1)
        num, den = c.numerator, c.denominator
        assert den % p != 0 and num % p == 0


def test_base_change_mod_p_consistency():
    # reducing the mod p^2 basis mod p spans the mod-p basis
    p, k = 7, 24
    hi = miller_basis(p, k, 8, digits=2)
    lo = miller_basis(p, k, 8, digits=1)
    for r2, r1 in zip(hi.coeffs, lo.coeffs):
        assert [c % p for c in r2.tolist()] == r1.tolist()


# --- membership --------------------------------------------------------------------

def test_membership_basis_elements():
    s = miller_basis(11, 24, 10)
    for i, row in enumerate(s.coeffs):
        coords = membership(QSeries(11, row.tolist(), 24), s)
        want = [0] * s.dim
        want[i] = 1
        assert coords == want


def test_membership_zero():
    s = miller_basis(11, 24, 10)
    z = QSeries(11, [0] * 10, 24)
    assert membership(z, s) == [0] * s.dim


def test_membership_eisenstein_in_miller():
    for (p, k) in ((11, 16), (37, 32)):
        s = miller_basis(p, k, 10)
        e = eisenstein_q(p, k, 10)
        coords = membership(e, s)
        assert coords is not None
        assert np.array_equal(s.coords_to_series(coords).coeffs, e.coeffs)


def test_membership_rejects_outsiders():
    s = miller_basis(11, 12, 10)
    f = QSeries(11, [0, 1, 1] + [0] * 7, 12)
    assert membership(f, s) is None


def test_membership_insufficient_precision_is_an_error():
    s = miller_basis(11, 48, 5)
    short = QSeries(11, [1, 0], 48)
    with pytest.raises(PrecisionError):
        membership(short, s)


def test_series_is_one_read_only_residue_array():
    src = np.array([3, -1, 15, 2**40], dtype=np.int64)
    f = QSeries(7, src, 4)
    assert f.coeffs.dtype == np.int64 and not f.coeffs.flags.writeable
    with pytest.raises(ValueError):
        f.coeffs[0] = 1
    reduced = np.array([1, 2, 3], dtype=np.int64)
    g = QSeries(7, reduced, 4)
    src[0] = reduced[0] = 5  # the caller's arrays stay the caller's
    assert f.coeffs.tolist() == [3, 6, 1, 2**40 % 7] and g.coeffs.tolist() == [1, 2, 3]
    with pytest.raises(ValueError):
        QSeries(7, [[1, 2], [3, 4]], 4)
    with pytest.raises(ValueError):
        QSeries(7, np.zeros((2, 3), dtype=np.int64), 4)
    big = QSeries(5, [5**14 + 2, -1], 4, 14)
    assert big.coeffs.dtype == object and not big.coeffs.flags.writeable
    for x, want in ((f[1], 6), (g[0], 1), (big[0], 2), (big[1], 5**14 - 1)):
        assert type(x) is int and x == want


@pytest.mark.parametrize("prec", [0, 1, 5])
def test_pow_zero_is_the_unit_at_the_operand_precision(prec):
    one = QSeries(7, list(range(3, 3 + prec)), 4).pow(0)
    assert one.prec == prec and one.weight == 0
    assert one.coeffs.tolist() == [1, 0, 0, 0, 0][:prec]


def test_series_weight_rules():
    a = QSeries(7, [1, 2, 3], 4)
    b = QSeries(7, [1, 1, 1], 6)
    assert (a * b).weight == 10
    with pytest.raises(ValueError):
        _ = a + b


# --- the array basis against the former list implementations -----------------

def basis_oracle(p, k, prec, digits):
    """Rows E4^a E6^b Delta^j, cleared above each unit pivot one (row, pivot) pair at a time."""
    m = p**digits
    e4, e6 = (_unit_eisenstein(p, w, prec, digits) for w in (4, 6))
    delta = delta_q(p, prec, digits)
    rows = []
    for j in range(space_dim(k)):
        b = (k - 12 * j) % 4 // 2
        rows.append((e4.pow((k - 12 * j - 6 * b) // 4) * e6.pow(b) * delta.pow(j)).coeffs.tolist())
    for j in range(1, len(rows)):
        lead = rows[j]
        for i in range(j):
            c = rows[i][j]
            if c:
                rows[i] = [(x - c * y) % m for x, y in zip(rows[i], lead)]
    return rows


def coords_to_series_oracle(rows, coords, m):
    out = [0] * len(rows[0])
    for c, row in zip(coords, rows):
        for n in range(len(row)):
            out[n] = (out[n] + c * row[n]) % m
    return out


def membership_oracle(f, rows, m):
    coords = f.coeffs[: len(rows)].tolist()
    for n in range(min(f.prec, len(rows[0]))):
        if sum(c * row[n] for c, row in zip(coords, rows)) % m != f[n]:
            return None
    return coords


# (p, digits, k): digits 1 at three primes, then both sides of the int64
# storage bound (5^13 int64, 5^14 objects) and of the product bound at 5^13
# (dim 6 * (5^13 - 1)^2 < 2^63 <= dim 7 * (5^13 - 1)^2)
ARRAY_BASIS_CASES = [
    (5, 1, 60), (11, 1, 48), (293, 1, 36), (293, 1, 4),
    (5, 13, 60), (5, 13, 72), (5, 14, 60), (5, 14, 72),
]


@pytest.mark.parametrize("p,digits,k", ARRAY_BASIS_CASES)
def test_array_basis_matches_the_list_oracles(p, digits, k):
    rng = random.Random(p * 1000 + digits * 100 + k)
    m = p**digits
    prec = sturm(k) + 7
    s = miller_basis(p, k, prec, digits)
    rows = basis_oracle(p, k, prec, digits)
    assert s.coeffs.tolist() == rows
    assert s.coeffs.dtype == (np.int64 if (m - 1) ** 2 < 2**63 else object)
    assert not s.coeffs.flags.writeable
    for trial in range(12):
        coords = [m - 1] * s.dim if trial == 0 else [rng.randrange(m) for _ in range(s.dim)]
        inside = coords_to_series_oracle(rows, coords, m)
        assert s.coords_to_series(coords).coeffs.tolist() == inside
        outside = list(inside)
        outside[rng.randrange(s.dim, prec)] += rng.randrange(1, m)
        noise = [rng.randrange(m) for _ in range(prec)]
        for coeffs in (inside, outside, noise):
            f = QSeries(p, coeffs, k, digits)
            assert membership(f, s) == membership_oracle(f, rows, m)
        assert membership(QSeries(p, inside, k, digits), s) == coords


@pytest.mark.parametrize("k,dtype", [(60, np.int64), (72, object)])
def test_basis_products_at_the_int64_edge(monkeypatch, k, dtype):
    # at Z/5^13 the products of dim 6 run on int64, those of dim 7 on Python integers
    from eiscomp import linalg

    seen = []
    real = linalg._residues
    monkeypatch.setattr(linalg, "_residues", lambda m, a: seen.append(a.dtype) or real(m, a))
    s = miller_basis(5, k, sturm(k) + 3, 13)
    m = 5**13
    coords = [m - 1] * s.dim
    want = coords_to_series_oracle(s.coeffs.tolist(), coords, m)
    assert s.coords_to_series(coords).coeffs.tolist() == want
    assert membership(QSeries(5, want, k, 13), s) == coords
    assert seen == [dtype, dtype]


def test_cli_basis_at_fourteen_digits_matches_the_oracle(capsys):
    from eiscomp.cli import main

    assert main(["basis", "--p", "5", "--k", "72", "--prec", "12", "--digits", "14"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rows"] == basis_oracle(5, 72, 12, 14)
