"""Arbitrary-precision helpers: exact conversions, enclosures, quadrature."""

import sys
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath import libmp

from wellcond.numerics import (
    cos_pi_fraction,
    cos_pi_fraction_interval,
    fmt_real,
    fraction_endpoints,
    fraction_from_mpf,
    frac_str,
    gauss_legendre,
    int_str,
    round_ratio,
    to_fraction,
    to_mpf,
    two_term_log,
)


def parse_frac(s: str) -> Fraction:
    """Inverse of frac_str; also accepts plain integer strings."""
    return Fraction(s)


def test_to_mpf_rounds_fractions_correctly():
    with mp.workprec(256):
        x = to_mpf(Fraction(1, 3))
        err = abs(x - mp.mpf(1) / 3)
        assert err == 0
        assert to_mpf(Fraction(5, 4)) == mp.mpf("1.25")


def test_fraction_round_trip_is_exact():
    with mp.workprec(256):
        x = mp.sqrt(2)
        f = fraction_from_mpf(x)
        assert to_mpf(f) == x
        assert fraction_from_mpf(mp.mpf("-0.75")) == Fraction(-3, 4)


def test_cos_pi_fraction_exact_special_values():
    with mp.workprec(128):
        assert cos_pi_fraction(Fraction(0)) == 1
        assert cos_pi_fraction(Fraction(1)) == -1
        assert cos_pi_fraction(Fraction(1, 2)) == 0
        assert cos_pi_fraction(Fraction(3, 2)) == 0
        third = cos_pi_fraction(Fraction(1, 3))
        assert abs(third - mp.mpf("0.5")) < mp.mpf(2) ** -120
        assert cos_pi_fraction(Fraction(7, 3)) == third


def folded(q: Fraction) -> tuple[int, Fraction]:
    """(sign, t) with t in [0, 1/2] and cos(pi q) = sign * cos(pi t)."""
    q = q % 2
    q = min(q, 2 - q)
    return (-1, 1 - q) if 2 * q > 1 else (1, q)


@pytest.mark.parametrize("prec", [64, 300])
def test_memoised_cosine_has_the_bits_of_cospi(prec):
    """The zero-offset cosine folds q mod 2 into [0, 1/2] with a sign, is
    memoised on (folded turn, precision) and returns the bits of +-mp.cospi
    at the folded turn at the caller's precision, also when the same turn
    was asked for at another precision first; so cos(-q) = cos(q) and
    cos(1 - q) = -cos(q) hold bit for bit."""
    turns = [
        Fraction(1, 3), Fraction(7, 3), Fraction(-5, 12), Fraction(2, 7),
        Fraction(13, 24), Fraction(11, 24), Fraction(35, 24), Fraction(-1, 9),
    ]
    for other in (53, 512):
        with mp.workprec(other):
            [cos_pi_fraction(q) for q in turns]
    with mp.workprec(prec):
        for q in turns:
            sign, t = folded(q)
            for _ in range(2):
                got = cos_pi_fraction(q)
                assert got._mpf_ == (sign * mp.cospi(to_mpf(t)))._mpf_, q
            assert cos_pi_fraction(-q)._mpf_ == got._mpf_, q
            assert cos_pi_fraction(1 - q)._mpf_ == (-got)._mpf_, q
            assert cos_pi_fraction(q + 2)._mpf_ == got._mpf_, q


def test_cos_pi_fraction_interval_encloses_truth():
    q = Fraction(1, 7)
    lo, hi = cos_pi_fraction_interval(q, 128)
    with mp.workprec(300):
        truth = fraction_from_mpf(mp.cospi(to_mpf(q)))
    assert lo <= truth <= hi
    assert hi - lo < Fraction(1, 2**120)


def test_cos_pi_fraction_interval_clamped_to_unit():
    lo, hi = cos_pi_fraction_interval(Fraction(2), 64)
    assert lo == hi == 1
    lo, hi = cos_pi_fraction_interval(Fraction(12345, 12346), 64)
    assert -1 <= lo <= hi <= 1


@pytest.mark.parametrize("n", [2, 6, 17])
def test_gauss_legendre_exact_for_polynomials(n):
    """n nodes integrate monomials up to degree 2n - 1 exactly."""
    prec = 256
    xs, ws = gauss_legendre(n, prec)
    with mp.workprec(prec):
        for k in (2 * n - 2, 2 * n - 1):
            got = mp.fsum(w * x**k for x, w in zip(xs, ws))
            want = mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)
            assert abs(got - want) < mp.mpf(2) ** -(prec - 16)


def test_gauss_legendre_weights_sum_to_two():
    _, ws = gauss_legendre(25, 192)
    with mp.workprec(192):
        assert abs(mp.fsum(ws) - 2) < mp.mpf(2) ** -176


def test_fmt_real_deterministic_and_special():
    with mp.workprec(128):
        a = fmt_real(mp.mpf(1) / 7)
        b = fmt_real(mp.mpf(1) / 7)
        assert a == b
    assert fmt_real(mp.mpf("inf")) == "inf"
    assert fmt_real(mp.mpf("-inf")) == "-inf"
    assert fmt_real(mp.mpf("nan")) == "nan"


def test_fmt_real_rounds_a_wider_value_to_the_working_precision():
    """A value carrying more bits than the working precision prints as its
    rounding to that precision, memo hit or miss, at every precision."""
    with mp.workprec(512):
        x = mp.mpf(1) / 7
    for prec in (64, 128, 256, 64):
        with mp.workprec(prec):
            want = mp.nstr(+x, libmp.prec_to_dps(prec) + 2, strip_zeros=True)
            assert fmt_real(x) == fmt_real(+x) == want
            assert fmt_real(x) == want  # from the memo


def test_frac_str_round_trip():
    f = Fraction(-7, 12)
    assert parse_frac(frac_str(f)) == f
    assert parse_frac("5") == Fraction(5)
    assert frac_str(0) == "0/1"
    printed = []
    assert frac_str(Fraction(-10, 4), lambda n: printed.append(n) or str(n)) == "-5/2"
    assert printed == [5, 2]  # digits gets magnitudes only


def test_int_str_prints_past_the_digit_limit_and_restores_it():
    """int_str lifts Python's int-to-str digit limit for its own
    conversion only; below the limit it is str."""
    limit = sys.get_int_max_str_digits()
    big = 10**5000 - 1
    assert int_str(big) == "9" * 5000
    assert int_str(-big) == "-" + "9" * 5000
    assert int_str(-12) == "-12"
    assert sys.get_int_max_str_digits() == limit
    if limit:
        with pytest.raises(ValueError):
            str(big)


def test_to_fraction_is_exact_for_every_input_type():
    with mp.workprec(256):
        third = mp.mpf(1) / 3
        assert to_fraction(third) == fraction_from_mpf(third)
        assert to_mpf(to_fraction(third)) == third
    assert to_fraction(0.375) == Fraction(3, 8)
    assert to_fraction(-2) == Fraction(-2)
    assert to_fraction(Fraction(5, 9)) == Fraction(5, 9)
    with pytest.raises(ValueError):
        to_fraction(mp.mpf("inf"))


def test_cos_pi_fraction_offset():
    prec = 256
    with mp.workprec(prec):
        off = mp.mpf("0.3")
        for q in (Fraction(0), Fraction(1, 2), Fraction(7, 5), Fraction(-3, 4)):
            want = mp.cos(mp.pi * to_mpf(q) + off)
            assert abs(cos_pi_fraction(q, off) - want) < mp.mpf(2) ** -(prec - 8)
        # a zero offset of any type keeps the exact values
        assert cos_pi_fraction(Fraction(1, 2), mp.mpf(0)) == 0
        assert cos_pi_fraction(Fraction(3), 0.0) == -1


@pytest.mark.parametrize("log_x2,log_y2", [("0.3", "0.1"), ("0.05", "0.4"), ("2", "-1"), ("-3", "0.5")])
def test_two_term_log_matches_the_direct_modulus(log_x2, log_y2):
    """base + log(gap + rim sin^2(theta/2)) equals log |x^R e^(i theta) -
    y^R|^2 on both sides of L = -1 (one exp for both terms below it,
    expm1 above), and the mp.iv enclosure, also for an L straddling -1,
    contains the 512-bit value."""
    prec, R = 256, 8
    with mp.workprec(prec):
        lx, ly, theta = mp.mpf(log_x2), mp.mpf(log_y2), mp.mpf("0.7")
        base, gap, rim = two_term_log(mp.mp, R, lx, ly)
        got = base + mp.log(gap + rim * mp.sin(theta / 2) ** 2)
        # the second enclosure widens log x^2 by +-1/4, so L spans 2
        log_x2_ivs = [[lx, lx], [lx - mp.mpf(1) / 4, lx + mp.mpf(1) / 4]]
    with mp.workprec(512):
        want = mp.log(abs(mp.exp(R * lx / 2 + 1j * theta) - mp.exp(R * ly / 2)) ** 2)
        assert abs(got - want) < mp.mpf(2) ** -(prec - 16) * max(1, abs(want))
    old = mp.iv.prec
    mp.iv.prec = prec
    try:
        for log_x2_iv in log_x2_ivs:
            base, gap, rim = two_term_log(mp.iv, R, mp.iv.mpf(log_x2_iv), mp.iv.mpf(ly))
            sin_sq = mp.iv.sin(mp.iv.mpf(theta) / 2) ** 2
            lo, hi = fraction_endpoints(base + mp.iv.log(gap + rim * sin_sq))
            assert lo <= to_fraction(want) <= hi
    finally:
        mp.iv.prec = old


@pytest.mark.parametrize(
    "n,d",
    [
        (0, 7),
        (0, 2**300),
        (-5, 3),
        (-(3**200) << 517, 7**90 << 1200),
        (5**120 << 2000, 3**77 << 40),
        (1 << 900, 1 << 3),
        (-(1 << 65), 3 << 4000),
        (2**256 - 1, 2**200 + 1),
    ],
)
def test_round_ratio_is_from_rational_bit_for_bit(n, d):
    """round_ratio splits off the powers of two itself, yet rounds n / d
    as libmp.from_rational does: to nearest under mp, to floor and
    ceiling under mp.iv, at n = 0, negative n and long runs of trailing
    zeros in n and d."""
    for prec in (64, 256):
        with mp.workprec(prec):
            assert round_ratio(mp.mp, n, d)._mpf_ == libmp.from_rational(n, d, prec, "n")
        old = mp.iv.prec
        mp.iv.prec = prec
        try:
            got = round_ratio(mp.iv, n, d)._mpi_
            assert got == (libmp.from_rational(n, d, prec, "f"), libmp.from_rational(n, d, prec, "c"))
        finally:
            mp.iv.prec = old
