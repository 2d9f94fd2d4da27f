"""q-expansion engine: Eisenstein series, the discriminant, echelon bases."""

import json
import random
import sys
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from eiscomp.errors import NonInvertibleError, PrecisionError
from eiscomp.linalg import _power, _residues
from eiscomp.qexp import (
    _layout,
    _piece_bits,
    _split,
    _unit_eisenstein,
    convolve_mod,
    delta_q,
    divisor_power_sums,
    inverse_mod,
    ladder_ratio,
    membership,
    middle_product_mod,
    miller_basis,
    space_dim,
    sturm,
)

from oracles import bernoulli_fraction, eisenstein_q, form_of, p_deprived_eisenstein_q

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


# (modulus, len(a), len(b), out_len): moduli of 3 to 113 bits, so one to seven
# digit pieces per residue, both sides of the int64 storage bound (3037000493
# and 5^13 int64, 3037000507 and 5^14 objects), empty operands, and out_len
# of 0, below both lengths and above both
CONVOLVE_CASES = [
    (7, 3, 5, None),
    (37, 23, 17, None),
    (5**3, 23, 17, None),
    (293, 300, 300, None),
    (65537, 20, 20, None),
    (5**9, 50, 60, None),
    (5**11, 20, 25, None),
    (5**13, 6, 9, None),
    (5**13, 100, 90, None),
    (5**14, 30, 40, None),
    (5**30, 12, 15, None),
    (7**40, 12, 15, None),
    (3037000493, 1, 5, None),
    (3037000493, 40, 40, None),
    (3037000507, 1, 5, None),
    (3037000507, 40, 40, None),
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
    # all-(m-1) operands make every digit piece as large as the modulus allows
    rng = random.Random(m * 1000 + la * 10 + lb)
    a, b = ([m - 1] * n if fill == "max" else [rng.randrange(m) for _ in range(n)] for n in (la, lb))
    got = convolve_mod(_residues(m, a), _residues(m, b), m, out_len)
    want = convolve_oracle(a, b, m, min(la, lb) if out_len is None else out_len)
    assert got.tolist() == want
    assert got.dtype == (np.int64 if (m - 1) ** 2 < 2**63 else object)


def _pack(c, slot):
    """The integer whose little-endian slot-byte digits are the residues c."""
    limbs = np.zeros((len(c), -(-slot // 8)), dtype="<u8")
    if c.dtype == object:
        for j in range(limbs.shape[1]):
            limbs[:, j] = (c >> (64 * j)) & (2**64 - 1)
    else:
        limbs[:, 0] = c
    return int.from_bytes(limbs.view(np.uint8)[:, :slot].tobytes(), "little")


def _unpack(x, n, slot, modulus):
    """The first n little-endian slot-byte digits of x, reduced mod modulus."""
    raw = x.to_bytes(max(n * slot, (x.bit_length() + 7) // 8), "little")
    words = np.zeros((n, -(-slot // 8) * 8), dtype=np.uint8)
    words[:, :slot] = np.frombuffer(raw, dtype=np.uint8, count=n * slot).reshape(n, slot)
    limbs = words.view("<u8")
    if limbs.shape[1] == 1:
        return _residues(modulus, limbs[:, 0])
    return _residues(modulus, sum(limbs[:, j].astype(object) << (64 * j) for j in range(limbs.shape[1])))


def kronecker_oracle(a, b, modulus, out_len=None):
    """The former big-integer product: one fixed-width slot per coefficient, one multiply.

    The slot width comes from min(la, lb) * (modulus-1)^2, so no convolution
    sum crosses a slot boundary.
    """
    if out_len is None:
        out_len = min(len(a), len(b))
    la, lb = min(len(a), out_len), min(len(b), out_len)
    if la <= 0 or lb <= 0:
        return _residues(modulus, np.zeros(max(out_len, 0), dtype=np.int64))
    slot = ((min(la, lb) * (modulus - 1) ** 2).bit_length() + 7) // 8
    prod = _pack(_residues(modulus, a[:la]), slot) * _pack(_residues(modulus, b[:lb]), slot)
    return _unpack(prod, out_len, slot, modulus)


# digits 1, 2, 13 and 14 at p = 5 and 491 (5^13 is int64, 5^14 and 491^13 are
# objects), and the largest prime with int64 storage
PROPERTY_MODULI = [p**d for p in (5, 491) for d in (1, 2, 13, 14)] + [3037000493]


@pytest.mark.parametrize("m", PROPERTY_MODULI)
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_convolve_matches_the_kronecker_oracle(m, data):
    entry = st.one_of(st.sampled_from([0, 1, m - 1]), st.integers(0, m - 1))
    a, b = (data.draw(st.lists(entry, max_size=70)) for _ in range(2))
    full = len(a) + len(b) - 1  # the untruncated product length
    where = data.draw(st.sampled_from(["default", "below", "equal", "above"]))
    out_len = {
        "default": None,
        "below": data.draw(st.integers(0, max(full - 1, 0))),
        "equal": max(full, 0),
        "above": max(full, 0) + data.draw(st.integers(1, 9)),
    }[where]
    got = convolve_mod(_residues(m, a), _residues(m, b), m, out_len)
    want = kronecker_oracle(_residues(m, a), _residues(m, b), m, out_len)
    assert got.tolist() == want.tolist()
    assert got.dtype == want.dtype
    if a:
        square = _residues(m, a)
        assert convolve_mod(square, square, m, out_len).tolist() == kronecker_oracle(square, square, m, out_len).tolist()


def test_workload_products_take_one_piece_and_p_near_1e5_two():
    # (la, lb, modulus): survey products at the companion bounds of (293, 156)
    # and (491, 292), a modulus of 2^12 at length 4000, the scan's
    # correlation at 4001, and the correlation at 100003
    for la, lb, m, pieces in [
        (3834, 3834, 293, 1),
        (11989, 11989, 491, 1),
        (4000, 4000, 2**12, 1),
        (2000, 3997, 4001, 1),
        (50001, 100000, 100003, 2),
    ]:
        assert _split(la, lb, (la + lb - 2).bit_length(), (m - 1).bit_length())[0] == pieces, (la, lb, m)
    # the scan's cyclic middle product at 4001 and the one at 100003, of size >= lb
    for la, lb, m, pieces in [(2000, 3998, 4001, 1), (50001, 100000, 100003, 2)]:
        assert _split(la, lb, (lb - 1).bit_length(), (m - 1).bit_length())[0] == pieces, (la, lb, m)


def test_two_pieces_agree_with_one_on_workload_operands(monkeypatch):
    # the survey's operands at the companion bound of (293, 156) take one piece;
    # forced into two pieces of ceil(bits/2) bits they must give the same products
    from eiscomp import qexp

    p, k, prec = 293, 156, 3834
    rng = np.random.default_rng(p)
    a, b = rng.integers(0, p, prec), rng.integers(0, p, prec)
    out_lens = (None, 2 * prec - 1)
    one_piece = [convolve_mod(a, b, p, n) for n in out_lens]
    one_basis = miller_basis(p, k, prec).coeffs

    real = qexp._split
    default_pieces = []

    def halves(la, lb, n, bits):
        default_pieces.append(real(la, lb, n, bits)[0])
        s = -(-bits // 2)
        assert s <= _piece_bits(la, lb, n, 2)  # still inside Percival's bound
        return 2, s

    monkeypatch.setattr(qexp, "_split", halves)
    two_pieces = [convolve_mod(a, b, p, n) for n in out_lens]
    two_basis = miller_basis(p, k, prec).coeffs
    assert default_pieces and set(default_pieces) == {1}
    for n, one, two in zip(out_lens, one_piece, two_pieces):
        assert two.tolist() == one.tolist() == kronecker_oracle(a, b, p, n).tolist()
    assert two_basis.tolist() == one_basis.tolist() == kronecker_basis_oracle(p, k, prec)


@pytest.mark.parametrize("la,lb", [(1, 1), (300, 300), (4000, 4000), (2000, 3997)])
def test_worst_case_operands_at_the_one_to_two_piece_limit(la, lb):
    # all-(m-1) operands at the widest one-piece modulus 2^s, just above it,
    # and at the widest two-piece modulus, whose m-1 fills both pieces
    n = (la + lb - 2).bit_length()
    s1, s2 = _piece_bits(la, lb, n, 1), _piece_bits(la, lb, n, 2)
    for m, pieces in ((2**s1, 1), (2**s1 + 2, 2), (2 ** (2 * s2), 2)):
        assert _split(la, lb, n, (m - 1).bit_length()) == (pieces, s1 if pieces == 1 else s2)
        a, b = _residues(m, [m - 1] * la), _residues(m, [m - 1] * lb)
        for out_len in (None, la + lb - 1):
            assert convolve_mod(a, b, m, out_len).tolist() == kronecker_oracle(a, b, m, out_len).tolist()
        assert convolve_mod(a, a, m).tolist() == kronecker_oracle(a, a, m).tolist()


def test_convolve_raises_instead_of_rounding(monkeypatch):
    real = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: real(*args, **kwargs) + 0.3)
    a = _residues(293, list(range(1, 41)))
    with pytest.raises(AssertionError, match="away from an integer"):
        convolve_mod(a, a, 293)


@pytest.mark.parametrize("m,pieces", [(293, 1), (3037000493, 2)])
def test_product_operands_outside_the_residues_raise(m, pieces):
    # operands are taken as residues, not reduced again: an entry of -1 or m
    # raises at one piece and at two, where -1 would pass the shift-and-mask
    good = _residues(m, list(range(1, 41)))
    assert _layout(40, 40, m)[0] == _split(20, 40, 6, (m - 1).bit_length())[0] == pieces
    for entry in (-1, m):
        bad = good.copy()
        bad[7] = entry
        for a, b in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(ValueError, match="outside"):
                convolve_mod(a, b, m)
            with pytest.raises(ValueError, match="outside"):
                middle_product_mod(a[:20], b, m)
    assert convolve_mod(good, good, m).tolist() == kronecker_oracle(good, good, m).tolist()


def assert_every_product_raises(perturb, monkeypatch):
    """With perturb applied to each irfft output, convolve_mod, the middle
    product and the first ladder row of a cold miller_basis must each raise."""
    from eiscomp import qexp

    real = np.fft.irfft

    def perturbed(*args, **kwargs):
        raw = real(*args, **kwargs)
        perturb(raw)
        return raw

    a = _residues(293, list(range(1, 41)))
    with monkeypatch.context() as mp:
        mp.setattr(np.fft, "irfft", perturbed)
        with pytest.raises(AssertionError, match="away from an integer"):
            convolve_mod(a, a, 293)
        with pytest.raises(AssertionError, match="away from an integer"):
            middle_product_mod(a[:20], a, 293)

    # a cold build: only the products finished inside miller_basis, its ladder rows, are perturbed
    finish = qexp._product_from_spectra
    ladder_rows = []

    def ladder_row_off(*args):
        if sys._getframe(1).f_code.co_name != "miller_basis":
            return finish(*args)
        ladder_rows.append(args[-1])
        with monkeypatch.context() as mp:
            mp.setattr(np.fft, "irfft", perturbed)
            return finish(*args)

    with monkeypatch.context() as mp:
        mp.setattr(qexp, "_product_from_spectra", ladder_row_off)
        with pytest.raises(AssertionError, match="away from an integer"):
            miller_basis(293, 156, 400)
    assert ladder_rows == [400]


def test_exactness_check_reads_every_column_of_the_inverse_transform(monkeypatch):
    # 0.3 added to the last column of the irfft only, past every coefficient a
    # product returns (out_len 40 of size 128, 40 of 64, 400 of 1024): the
    # check must still raise, at convolve_mod, the middle product and a ladder row
    def last_column_off(raw):
        raw[..., -1] += 0.3

    assert_every_product_raises(last_column_off, monkeypatch)


def test_exactness_check_raises_on_a_nan_column(monkeypatch):
    # a NaN compares false with everything, so a check written as err > bound
    # would let it through to the int64 cast; one NaN column must raise as well
    def one_column_nan(raw):
        raw[..., 7] = np.nan

    assert_every_product_raises(one_column_nan, monkeypatch)


def middle_oracle(a, b, m):
    """Schoolbook c_u = sum_i a_i b_(i+u) mod m, for u <= len(b) - len(a)."""
    return [sum(x * b[i + u] for i, x in enumerate(a)) % m for u in range(len(b) - len(a) + 1)]


def linear_middle(a, b, m):
    """The middle through the full linear product, as the Bernoulli table took it before."""
    return convolve_mod(a[::-1], b, m, out_len=len(b))[len(a) - 1 :]


# len(b) at and beside powers of two, where the cyclic size steps; 293 takes one
# digit piece, 3037000493 two on int64 storage, 5^14 two and 5^30 four or five on objects
@pytest.mark.parametrize("m", [293, 3037000493, 5**14, 5**30])
@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_middle_product_matches_the_linear_route_and_schoolbook(m, data):
    lb = data.draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]))
    la = data.draw(st.one_of(st.just(1), st.just(lb), st.integers(1, lb)))
    entry = st.one_of(st.sampled_from([0, 1, m - 1]), st.integers(0, m - 1))
    a, b = (_residues(m, data.draw(st.lists(entry, min_size=n, max_size=n))) for n in (la, lb))
    got = middle_product_mod(a, b, m)
    assert got.tolist() == linear_middle(a, b, m).tolist()
    assert got.tolist() == middle_oracle(a.tolist(), b.tolist(), m)
    assert got.dtype == a.dtype


@pytest.mark.parametrize("fill", ["random", "max"])
def test_middle_product_at_100003_takes_two_pieces(monkeypatch, fill):
    # the Bernoulli table's operands at p = 100003: lengths (p-1)/2 and p-3
    from eiscomp import qexp

    p = 100003
    la, lb = (p - 1) // 2, p - 3
    rng = np.random.default_rng(p)
    a, b = (np.full(n, p - 1) if fill == "max" else rng.integers(0, p, n) for n in (la, lb))
    splits = []
    real = qexp._split
    monkeypatch.setattr(qexp, "_split", lambda *args: splits.append(real(*args)) or splits[-1])
    got = middle_product_mod(a, b, p)
    assert [pieces for pieces, _ in splits] == [2]
    assert got.tolist() == linear_middle(a, b, p).tolist()
    for u in (0, 1, 777, lb - la):  # la (p-1)^2 < 2^63: the int64 dot is exact
        assert got[u] == int(a @ b[u : u + la]) % p


def test_middle_product_needs_a_nonempty_shorter_first_operand():
    a = _residues(7, [1, 2, 3])
    for x, y in ((a, a[:2]), (a[:0], a)):
        with pytest.raises(ValueError, match="middle product"):
            middle_product_mod(x, y, 7)


def test_cli_exits_1_when_the_product_bound_fails(monkeypatch, capsys):
    from eiscomp.cli import main

    real = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: real(*args, **kwargs) + 0.3)
    assert main(["basis", "--p", "37", "--k", "32"]) == 1
    assert "away from an integer" in capsys.readouterr().err


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


def divisor_power_sums_per_step(power, prec, modulus, skip=None):
    """The strided loop reducing after every add, as divisor_power_sums did before."""
    pw = np.array([pow(t, power, modulus) for t in range(prec)], dtype=np.int64)
    if skip is not None:
        pw[::skip] = 0
    out = np.zeros_like(pw)
    for s in range(1, isqrt(max(prec - 1, 0)) + 1):
        out[s * s :: s] = (out[s * s :: s] + pw[s]) % modulus
        above = out[s * (s + 1) :: s]
        above[...] = (above + pw[s + 1 : s + 1 + len(above)]) % modulus
    return out


@pytest.mark.parametrize("skip", [None, 7])
def test_divisor_power_sums_reduce_once_at_the_largest_int64_modulus(skip):
    # each entry sums tau(n) < 2 sqrt(prec) residues below m before its one
    # reduction; at m = 3037000493, the largest int64-storage prime, and power
    # (m-1)/2 half of the terms are m - 1
    m, prec = 3037000493, 20000
    assert (m - 1) ** 2 < 2**63 <= (sympy.nextprime(m) - 1) ** 2
    for power in (3, (m - 1) // 2):
        got = divisor_power_sums(power, prec, m, skip_divisible_by=skip)
        assert got.dtype == np.int64
        assert got.tolist() == divisor_power_sums_per_step(power, prec, m, skip).tolist()
    assert got.tolist() == divisor_power_sums_oracle(power, prec, m, skip)


# --- Eisenstein series --------------------------------------------------------

def test_eisenstein_weight4_frozen():
    # a(0) = 1/240, a(1) = 1, a(2) = 9, from B_4 = -1/30 and divisor sums
    e = eisenstein_q(7, 4, 6)
    assert e[0] == pow(240, -1, 7)
    assert e[1] == 1
    assert e[2] == 9 % 7
    assert e[5] == sigma_oracle(5, 3) % 7


def test_eisenstein_a1_is_one_for_every_weight():
    for k in (4, 6, 16, 26):
        assert eisenstein_q(11, k, 4)[1] == 1


def test_eisenstein_rejects_weight_multiple_of_p_minus_1():
    with pytest.raises(NonInvertibleError):
        eisenstein_q(5, 8, 4)
    with pytest.raises(NonInvertibleError):
        eisenstein_q(11, 20, 4)


def test_eisenstein_mod_p_squared():
    e = eisenstein_q(7, 4, 8, digits=2)
    b4 = Fraction(-1, 30) / 8
    assert e[0] == b4.numerator * pow(b4.denominator, -1, 49) % 49 * (-1) % 49
    assert e[3] == sigma_oracle(3, 3) % 49


def test_p_deprived_series():
    # (p, k) = (5, 4) has k = p-1: positive coefficients exist, constant does not
    e = divisor_power_sums(3, 12, 5, skip_divisible_by=5)
    assert e[5] == 1  # only t = 1 survives
    assert e[1] == 1
    assert e[10] == (1 + 2**3) % 5
    with pytest.raises(NonInvertibleError):
        p_deprived_eisenstein_q(5, 4, 12)
    # away from the excluded weights the constant is -(1 - p^(k-1)) B_k / (2k)
    e = p_deprived_eisenstein_q(7, 4, 12)
    want = Fraction(-(1 - 7**3), 1) * Fraction(-1, 30) / 8
    assert e[0] == want.numerator * pow(want.denominator, -1, 7) % 7


def test_p_deprived_allows_weight_two():
    e = p_deprived_eisenstein_q(7, 2, 10)
    assert e[7] == 1
    assert e[2] == 1 + 2


# --- discriminant ---------------------------------------------------------------

def test_delta_against_integer_oracle():
    tau = delta_integer_oracle(PREC)
    assert tau[1] == 1 and tau[2] == -24 and tau[3] == 252
    for p in (5, 11, 101):
        d = delta_q(p, PREC)
        assert d.tolist() == [t % p for t in tau]


def test_delta_mod_p_squared_matches_oracle():
    tau = delta_integer_oracle(10)
    d = delta_q(5, 10, digits=3)
    assert d.tolist() == [t % 125 for t in tau]


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
    assert np.array_equal(s.coeffs[1], d)
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
        coords = membership(row, s)
        want = [0] * s.dim
        want[i] = 1
        assert coords == want
    # a block of rows gets one coordinate list per row
    assert membership(s.coeffs, s) == np.eye(s.dim, dtype=np.int64).tolist()


def test_membership_zero():
    s = miller_basis(11, 24, 10)
    assert membership(np.zeros(10, dtype=np.int64), s) == [0] * s.dim


def test_membership_eisenstein_in_miller():
    for (p, k) in ((11, 16), (37, 32)):
        s = miller_basis(p, k, 10)
        e = eisenstein_q(p, k, 10)
        coords = membership(e, s)
        assert coords is not None
        assert np.array_equal(form_of(s, coords), e)


def test_membership_rejects_outsiders():
    s = miller_basis(11, 12, 10)
    outsider = np.array([0, 1, 1] + [0] * 7)
    assert membership(outsider, s) is None
    # one row outside a block puts the block outside
    assert membership(np.vstack([s.coeffs, outsider]), s) is None


def test_membership_insufficient_precision_is_an_error():
    s = miller_basis(11, 48, 5)
    with pytest.raises(PrecisionError):
        membership(np.array([1, 0]), s)
    with pytest.raises(PrecisionError):
        membership(s.coeffs[:, :2], s)


def test_series_is_one_read_only_residue_array():
    # the series the library returns are single rows, read-only as a basis row
    # is, stored under the basis rule: int64 at 5^13, Python integers at 5^14
    for digits, dtype in ((13, np.int64), (14, object)):
        for f in (delta_q(5, 12, digits), ladder_ratio(5, 12, digits)):
            assert f.shape == (12,) and f.dtype == dtype and not f.flags.writeable
            with pytest.raises(ValueError):
                f[0] = 1


def count_products(monkeypatch):
    """Output lengths of every series product finished from now on.

    `convolve_mod` and the basis ladder both finish each product on
    qexp._product_from_spectra, so this counts the products of both.
    """
    from eiscomp import qexp

    lengths = []
    real = qexp._product_from_spectra

    def counted(*args):
        out = real(*args)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(qexp, "_product_from_spectra", counted)
    return lengths


@pytest.mark.parametrize("digits", [1, 14])
def test_pow_squares_from_the_first_set_bit(digits):
    # x^e costs floor(log2 e) squarings, each passing one operand twice, and
    # popcount(e) - 1 multiplications
    m = 5**digits
    f = _residues(m, [1, 3, 4, 2, 0, 1, 3, 2, 4])
    squares = []

    def mul(a, b):
        squares.append(a is b)
        return convolve_mod(a, b, m)

    for e in list(range(1, 40)) + [64, 127, 1000]:
        squares.clear()
        got = _power(f, e, mul)
        assert len(squares) == e.bit_length() - 1 + bin(e).count("1") - 1
        assert sum(squares) == e.bit_length() - 1
        assert len(got) == len(f)
        if e <= 12:
            want = f
            for _ in range(e - 1):
                want = convolve_mod(want, f, m)
            assert got.tolist() == want.tolist()


# --- Newton inverse -------------------------------------------------------------

@pytest.mark.parametrize("digits", [1, 13, 14])
@pytest.mark.parametrize("prec", [1, 2, 3, 64, 65])
def test_inverse_times_the_series_is_one(prec, digits):
    # digits 13 keeps 5^13 on int64 storage, digits 14 moves to objects
    m = 5**digits
    rng = random.Random(prec * 100 + digits)
    unit = 5 * rng.randrange(m // 5) + rng.randrange(1, 5)
    f = [unit] + [rng.randrange(m) for _ in range(prec - 1)]
    g = inverse_mod(_residues(m, f), m)
    assert g.dtype == (np.int64 if digits < 14 else object) and len(g) == prec
    assert convolve_oracle(f, g.tolist(), m, prec) == [1] + [0] * (prec - 1)


@pytest.mark.parametrize("p,digits,head", [(5, 1, 0), (5, 1, 5), (7, 3, 7 * 12), (5, 14, 5**13)])
def test_inverse_needs_a_unit_constant_term(p, digits, head):
    m = p**digits
    with pytest.raises(NonInvertibleError):
        inverse_mod(_residues(m, [head, 1, 2, 3]), m)


# --- the array basis against the former list implementations -----------------

def direct_product(m, prec, *powers):
    """The product of f^e over the (f, e) in powers, mod m to prec coefficients.

    The unit series times each power in turn, every power by square-and-multiply
    on convolve_mod; e = 0 leaves the factor out.
    """

    def mul(a, b):
        return convolve_mod(a, b, m)

    out = _residues(m, np.eye(1, prec, dtype=np.int64)[0])
    for f, e in powers:
        if e:
            out = mul(out, _power(f, e, mul))
    return out


def basis_oracle(p, k, prec, digits):
    """Rows E4^a E6^b Delta^j, cleared above each unit pivot one (row, pivot) pair at a time."""
    m = p**digits
    e4, e6 = (_unit_eisenstein(w, prec, m) for w in (4, 6))
    delta = delta_q(p, prec, digits)
    rows = []
    for j in range(space_dim(k)):
        b = (k - 12 * j) % 4 // 2
        rows.append(direct_product(m, prec, (e4, (k - 12 * j - 6 * b) // 4), (e6, b), (delta, j)).tolist())
    return clear_above_pivots(rows, m)


def kronecker_basis_oracle(p, k, prec):
    """basis_oracle's rows over F_p, every series product taken by kronecker_oracle."""

    def mul(x, y):
        return kronecker_oracle(x, y, p, prec)

    def powers(x, e):
        out = [np.eye(1, prec, dtype=np.int64)[0]]
        for _ in range(e):
            out.append(mul(out[-1], x))
        return out

    e4, e6 = (_unit_eisenstein(w, prec, p) for w in (4, 6))
    delta = (mul(mul(e4, e4), e4) - mul(e6, e6)) * pow(1728, -1, p) % p
    d = space_dim(k)
    e4_powers, delta_powers = powers(e4, k // 4), powers(delta, d - 1)
    rows = []
    for j in range(d):
        b = (k - 12 * j) % 4 // 2
        row = mul(e4_powers[(k - 12 * j - 6 * b) // 4], delta_powers[j])
        rows.append((mul(row, e6) if b else row).tolist())
    return clear_above_pivots(rows, p)


def clear_above_pivots(rows, m):
    """Monomial rows q^j + ..., cleared above each unit pivot one (row, pivot) pair at a time."""
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
    """f, a list of residues mod m: its first len(rows) entries, if they span it, else None."""
    coords = f[: len(rows)]
    for n in range(min(len(f), len(rows[0]))):
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
        assert form_of(s, coords).tolist() == inside
        outside = list(inside)
        outside[rng.randrange(s.dim, prec)] += rng.randrange(1, m)
        noise = [rng.randrange(m) for _ in range(prec)]
        for coeffs in (inside, outside, noise):
            f = _residues(m, coeffs)
            assert membership(f, s) == membership_oracle(f.tolist(), rows, m)
        assert membership(_residues(m, inside), s) == coords


# one weight per class k mod 12: b = 0 (k = 0, 4, 8 mod 12) and b = 1 (2, 6, 10),
# dim 1 (k = 4, 6, 14) and a last row that is pure Delta^(d-1) (k = 0 mod 12)
LADDER_WEIGHTS = [4, 6, 12, 14, 16, 18, 20, 22, 48, 50, 52, 54, 56, 58, 120, 134]


@pytest.mark.parametrize("p,digits", [(5, 1), (7, 1), (293, 1), (5, 13), (5, 14)])
def test_ladder_basis_matches_the_direct_monomials(p, digits):
    # the Sturm bound and both sides of Newton's doubling lengths
    for k in LADDER_WEIGHTS:
        for prec in sorted({sturm(k), 32, 33, 64, 65}):
            if prec >= sturm(k):
                assert miller_basis(p, k, prec, digits).coeffs.tolist() == basis_oracle(p, k, prec, digits), (k, prec)


def test_ladder_basis_at_the_companion_bound():
    # plan_companion(293, 156) compares 3834 coefficients
    assert miller_basis(293, 156, 3834).coeffs.tolist() == basis_oracle(293, 156, 3834, 1)


def test_ladder_basis_makes_one_full_length_product_per_row(monkeypatch):
    lengths = count_products(monkeypatch)
    s = miller_basis(293, 156, 3834)
    # dim + 2 ceil(log2 k) + 8; building E4^a one product at a time needs 71
    assert sum(n == 3834 for n in lengths) <= s.dim + 2 * (156 - 1).bit_length() + 8 == 38


@pytest.mark.parametrize("digits", [1, 2])
def test_basis_builds_e4_cubed_once(monkeypatch, digits):
    # Delta and the inverse in the ladder share one E4^3
    from eiscomp import qexp

    powers = []
    real = qexp._power
    monkeypatch.setattr(qexp, "_power", lambda f, e, mul: powers.append((f, e)) or real(f, e, mul))
    lengths = count_products(monkeypatch)
    s = miller_basis(293, 156, 3834 if digits == 1 else 60, digits)
    e4 = _unit_eisenstein(4, s.prec, 293**digits)
    assert sum(e == 3 and np.array_equal(f, e4) for f, e in powers) == 1
    # 13 ladder rows, 8 products for E4^39, 2 for E4^3, 1 for E6^2, the last Newton step and R
    assert sum(n == s.prec for n in lengths) == 26
    assert s.coeffs.tolist() == basis_oracle(293, 156, s.prec, digits)


def test_ladder_transforms_the_ratio_once(monkeypatch):
    # the 13 ladder products share the ratio Delta/E4^3: a build makes one
    # forward transform per row M_0..M_12 and one of the ratio, not two per row
    from eiscomp import qexp

    p, k, prec = 293, 156, 3834
    e4, delta = _unit_eisenstein(4, prec, p), delta_q(p, prec)
    d = space_dim(k)
    ladder_rows = [direct_product(p, prec, (e4, 39 - 3 * j), (delta, j)) for j in range(d - 1)]
    ratio = ladder_ratio(p, prec)
    assert len(ratio) == prec and not ratio.flags.writeable
    transformed = []
    real = qexp._spectra
    monkeypatch.setattr(qexp, "_spectra", lambda c, *rest: transformed.append(np.array(c)) or real(c, *rest))
    s = miller_basis(p, k, prec)
    full = [c for c in transformed if len(c) == prec]
    assert sum(np.array_equal(c, ratio) for c in full) == 1
    assert [sum(np.array_equal(c, row) for c in full) for row in ladder_rows] == [1] * (d - 1)
    assert s.coeffs.tolist() == basis_oracle(p, k, prec, 1)


def test_a_build_given_the_ladder_ratio_makes_none(monkeypatch):
    # the ratio Delta/E4^3 depends on p, digits and the precision only: a build
    # given ladder_ratio(p, P, digits), P >= prec, makes no inverse and reads its
    # first prec coefficients, byte for byte what a build making its own gives
    from eiscomp import qexp

    cases = [(156, 500, 500, 1), (138, 500, 501, 1), (48, 64, 120, 1), (138, 64, 64, 2), (48, 40, 64, 2)]
    for k, prec, longer, digits in cases:
        ratio = ladder_ratio(293, longer, digits)
        own = miller_basis(293, k, prec, digits)
        inverses = []
        real = qexp.inverse_mod
        with monkeypatch.context() as mp:
            mp.setattr(qexp, "inverse_mod", lambda f, m: inverses.append(len(f)) or real(f, m))
            given = miller_basis(293, k, prec, digits, ratio=ratio)
        assert inverses == [], (k, prec, longer, digits)
        assert given.coeffs.dtype == own.coeffs.dtype
        assert given.coeffs.tobytes() == own.coeffs.tobytes(), (k, prec, longer, digits)
    assert own.coeffs.tolist() == basis_oracle(293, 48, 40, 2)
    with pytest.raises(ValueError, match="ladder ratio"):
        miller_basis(293, 156, 501, ratio=ladder_ratio(293, 500))
    # a ratio mod 293^2 holds entries that are no residues mod 293
    with pytest.raises(ValueError, match="outside"):
        miller_basis(293, 156, 500, ratio=ladder_ratio(293, 500, 2))


@pytest.mark.parametrize("k,dtype", [(60, np.int64), (72, object)])
def test_basis_products_at_the_int64_edge(monkeypatch, k, dtype):
    # at Z/5^13 the products of dim 6 run on int64, those of dim 7 on Python integers;
    # the basis is built before recording, so only its two products are seen
    from eiscomp import linalg

    s = miller_basis(5, k, sturm(k) + 3, 13)
    seen = []
    real = linalg._residues
    monkeypatch.setattr(linalg, "_residues", lambda m, a: seen.append(a.dtype) or real(m, a))
    m = 5**13
    coords = [m - 1] * s.dim
    want = coords_to_series_oracle(s.coeffs.tolist(), coords, m)
    assert form_of(s, coords).tolist() == want
    assert membership(_residues(m, want), s) == coords
    assert seen == [dtype, dtype]


# (k, digits): the U^-1 product of a basis has inner dimension d, so it runs
# on float64 while d * (5^digits - 1)^2 < 2^53 and on int64 above: d = 6 on
# both sides of the bound at adjacent digits, and d = 3, 4 at digits 11
@pytest.mark.parametrize("k,digits,below", [(60, 10, True), (60, 11, False), (24, 11, True), (36, 11, False)])
def test_basis_at_the_float64_edge(k, digits, below):
    m = 5**digits
    assert (space_dim(k) * (m - 1) ** 2 < 2**53) == below
    prec = sturm(k) + 7
    s = miller_basis(5, k, prec, digits)
    assert s.coeffs.dtype == np.int64
    assert s.coeffs.tolist() == basis_oracle(5, k, prec, digits)
    coords = [m - 1] * s.dim
    assert form_of(s, coords).tolist() == coords_to_series_oracle(s.coeffs.tolist(), coords, m)


def test_cli_basis_at_fourteen_digits_matches_the_oracle(capsys):
    from eiscomp.cli import main

    assert main(["basis", "--p", "5", "--k", "72", "--prec", "12", "--digits", "14"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rows"] == basis_oracle(5, 72, 12, 14)
