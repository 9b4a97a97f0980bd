"""Arbitrary-precision helpers: exact conversions, enclosures, quadrature."""

import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath import libmp

from wellcond import numerics
from wellcond.numerics import (
    cos_pi_fraction,
    cos_pi_fraction_interval,
    fmt_real,
    fraction_endpoints,
    fraction_from_mpf,
    frac_str,
    gauss_legendre,
    int_str,
    binomial_factors,
    log_fraction,
    round_ratio,
    sin_sq_pi,
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


with mp.workprec(512):
    _SEVENTH_512 = mp.mpf(1) / 7


@pytest.mark.parametrize(
    "x",
    [_SEVENTH_512, Fraction(-(10**40), 3**90), 7**60, 0, 2.5, mp.mpf("-inf")],
    ids=["mpf", "fraction", "int", "zero", "float", "inf"],
)
def test_fmt_real_at_a_given_precision_ignores_the_context(x):
    """fmt_real(x, prec) under any working precision prints what
    fmt_real(x) prints under workprec(prec): an int or a Fraction wider
    than the context is rounded once, at prec."""
    for prec in (64, 256):
        with mp.workprec(prec):
            want = fmt_real(x)
        for context in (53, 512):
            with mp.workprec(context):
                assert fmt_real(x, prec) == want, (prec, context)


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
    zeros in n and d; to_mpf of the Fraction n / d rounds it so too."""
    for prec in (64, 256):
        with mp.workprec(prec):
            assert round_ratio(mp.mp, n, d)._mpf_ == libmp.from_rational(n, d, prec, "n")
            assert to_mpf(Fraction(n, d))._mpf_ == libmp.from_rational(n, d, prec, "n")
        old = mp.iv.prec
        mp.iv.prec = prec
        try:
            got = round_ratio(mp.iv, n, d)._mpi_
            assert got == (libmp.from_rational(n, d, prec, "f"), libmp.from_rational(n, d, prec, "c"))
        finally:
            mp.iv.prec = old


def rounded_once(ctx, q: Fraction):
    """q rounded once by libmp.from_rational under ctx at its precision:
    to nearest under mp, to the floor and ceiling pair under mp.iv."""
    n, d = q.numerator, q.denominator
    if ctx is mp.iv:
        return ctx.make_mpf(tuple(libmp.from_rational(n, d, ctx.prec, rnd) for rnd in "fc"))
    return ctx.make_mpf(libmp.from_rational(n, d, ctx.prec, "n"))


def raw_value(x):
    """The raw libmp data of an mpf or an mp.iv interval, for bit equality."""
    return x._mpi_ if hasattr(x, "_mpi_") else x._mpf_


@pytest.mark.parametrize("ctx", [mp.mp, mp.iv], ids=["mp", "iv"])
@pytest.mark.parametrize(
    "a,b,d",
    [(7**40, 5**48, 3**55), (17, 3, 1), (3**200 + 1, 3**200, 2**317 + 1), (0, 11**30, 13**29)],
)
def test_binomial_factors_round_gap_and_rim_once(ctx, a, b, d):
    """Each factor is gap + rim sin^2 with gap = (a - b)^2 / d^2 and rim =
    4ab / d^2 each rounded once, as libmp.from_rational rounds the exact
    rational: to nearest under mp, to floor and ceiling under mp.iv."""
    with numerics.context_precision(ctx, 128):
        sin_sqs = [sin_sq_pi(ctx, q) for q in (Fraction(1, 7), Fraction(1, 2), Fraction(0), Fraction(2, 5))]
        gap = rounded_once(ctx, Fraction((a - b) ** 2, d * d))
        rim = rounded_once(ctx, Fraction(4 * a * b, d * d))
        got = binomial_factors(ctx, a, b, d, sin_sqs)
        assert [raw_value(x) for x in got] == [raw_value(gap + rim * s) for s in sin_sqs]


@pytest.mark.parametrize("ctx", [mp.mp, mp.iv], ids=["mp", "iv"])
def test_binomial_factors_equal_terms_and_zero_sines(ctx, monkeypatch):
    """a = b gives a gap of exactly 0 and factors rim sin^2; an all-zero
    sin^2 list, as ints or as the context's zeros, rounds the gap alone."""
    rounded, round_ratio_ = [], numerics.round_ratio
    monkeypatch.setattr(
        numerics, "round_ratio", lambda c, n, d: rounded.append(n) or round_ratio_(c, n, d)
    )
    a, d = 5**60, 2**50 * 3**40
    with numerics.context_precision(ctx, 128):
        zero = ctx.mpf(0)
        half = sin_sq_pi(ctx, Fraction(1, 4))
        assert raw_value(binomial_factors(ctx, a, a, d, [zero])[0]) == raw_value(zero)
        rim = rounded_once(ctx, Fraction(4 * a * a, d * d))
        assert raw_value(binomial_factors(ctx, a, a, d, [half])[0]) == raw_value(rim * half)
        gap = rounded_once(ctx, Fraction((a - 1) ** 2, d * d))
        for sin_sqs in ([0], [0, 0, 0], [zero, zero]):
            rounded.clear()
            got = binomial_factors(ctx, a, 1, d, sin_sqs)
            assert rounded == [(a - 1) ** 2]
            assert [raw_value(x) for x in got] == [raw_value(gap)] * len(sin_sqs)
        rounded.clear()
        binomial_factors(ctx, a, 1, d, [0, half])
        assert rounded == [(a - 1) ** 2, 4 * a]


def test_log_fraction_rounds_once():
    """log_fraction rounds q once, even where its numerator has more bits
    than the precision, so rounding the numerator first and then the
    quotient would give another value: among seeded q near 1 with
    200-bit terms, the first whose two roundings move log q."""
    prec = 64
    rng = random.Random(5)
    with mp.workprec(prec):
        for _ in range(200):
            d = rng.getrandbits(200) | 1 << 199 | 1
            q = Fraction(d + rng.getrandbits(190), d)
            once = mp.log(rounded_once(mp.mp, q))
            if mp.log(mp.mpf(q.numerator) / q.denominator) != once:
                break
        else:
            raise AssertionError("no q whose two roundings differ")
        assert q.numerator.bit_length() > prec
        assert log_fraction(mp.mp, q)._mpf_ == once._mpf_
        # an unreduced ratio, split as q / d, rounds the same once
        assert log_fraction(mp.mp, 3 * q.numerator, 3 * q.denominator)._mpf_ == once._mpf_
    with numerics.context_precision(mp.iv, prec):
        assert log_fraction(mp.iv, q)._mpi_ == mp.iv.log(rounded_once(mp.iv, q))._mpi_
