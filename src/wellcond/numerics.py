"""Shared arbitrary-precision numeric helpers.

Everything in this package computes either with exact rationals
(``fractions.Fraction``) or under an mpmath context at an explicit
binary precision: floats under mp.mp, outward-rounded intervals under
mp.iv.  This module owns the conversions between the two worlds,
rigorous enclosures of cos(pi * q) for rational q, Gauss-Legendre
nodes from mpmath's gauss_quadrature (the package integrates nothing
numerically; the enclosures and the nodes serve references in the
tests), ``round_ratio``, the one routine that rounds an exact ratio,
``binomial_factors``, the one kernel for the terms |A e^(i theta) - B|^2
of exact A, B (|f'| at the roots, the Theta grids), and
``two_term_log``, the log-domain kernel for the energy's resultants,
whose powers are too large to form.

Two representations are fixed here for the whole package:

* a height is an exact ``Fraction``; public functions that take heights
  convert their input once at entry with ``to_fraction``, or with
  ``check_height`` where it must lie in [-1, 1] (ints, floats and
  finite mpfs are dyadic or integer rationals, so this is exact);
* an azimuth is an exact turn q (a rational multiple of pi) plus a
  radian offset; ``cos_pi_fraction(q, offset)`` and
  ``sin_sq_pi(ctx, q, offset)`` evaluate it, exactly at multiples of
  pi/2 (of pi/4 for sin^2) when the offset is 0, where
  ``cos_pi_fraction`` folds q into [0, 1/2] and so is exactly even and
  exactly odd about q = 1/2.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp
from mpmath import libmp

DEFAULT_PREC_BITS = 256
MIN_PREC_BITS = 64

RationalLike = int | Fraction
RealLike = int | float | Fraction | mp.mpf


def check_precision(prec_bits: int) -> int:
    """Validate a binary precision argument (>= MIN_PREC_BITS)."""
    if not isinstance(prec_bits, int) or prec_bits < MIN_PREC_BITS:
        raise ValueError(
            f"precision must be an int >= {MIN_PREC_BITS} bits, got {prec_bits!r}"
        )
    return prec_bits


def to_mpf(x: RealLike) -> mp.mpf:
    """Convert to mpf at the current working precision, a Fraction rounded
    once (round_ratio)."""
    if isinstance(x, Fraction):
        return round_ratio(mp.mp, x.numerator, x.denominator)
    return mp.mpf(x)


def fraction_from_raw(raw) -> Fraction:
    """Exact Fraction from a raw libmp tuple (sign, man, exp, bc).

    Every finite mpf is a dyadic rational, so this conversion is exact.
    Raises ValueError for inf/nan.
    """
    sign, man, exp, bc = raw
    if man == 0:
        if exp == 0 and bc == 0:
            return Fraction(0)
        raise ValueError(f"cannot convert non-finite value {raw!r} to Fraction")
    f = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -f if sign else f


def fraction_from_mpf(x: mp.mpf) -> Fraction:
    """Exact Fraction equal to a finite mpf."""
    return fraction_from_raw(x._mpf_)


def to_fraction(x: RealLike) -> Fraction:
    """Exact Fraction equal to an int, Fraction, float or finite mpf; a
    Fraction is returned as it is."""
    if type(x) is Fraction:
        return x
    if isinstance(x, mp.mpf):
        return fraction_from_mpf(x)
    return Fraction(x)


@contextmanager
def context_precision(ctx, prec_bits: int):
    """Run a block with the mpmath context ctx (mp.mp or mp.iv) at prec_bits,
    then restore its precision."""
    old, ctx.prec = ctx.prec, prec_bits
    try:
        yield
    finally:
        ctx.prec = old


def log_fraction(ctx, q: RationalLike, d: int = 1):
    """log(q / d) for a positive rational q and an integer d > 0 under ctx
    at its precision, q / d rounded once (round_ratio) with no gcd taken:
    a float under mp, an enclosure under mp.iv."""
    return ctx.log(round_ratio(ctx, q.numerator, q.denominator * d))


def round_ratio(ctx, n: int, d: int):
    """The rational n / d of integers (d > 0) under ctx at its precision,
    rounded once: to nearest under mp.mp, outward under mp.iv (a point
    where n / d is representable), bit for bit libmp.from_rational's.  No
    gcd is taken, and the powers of two of n and d are split off in one
    step each (_raw_int), where from_rational strips them a byte at a time."""
    num, den, prec = _raw_int(n), _raw_int(d), ctx.prec
    if ctx is mp.iv:
        return ctx.make_mpf((libmp.mpf_div(num, den, prec, "f"), libmp.mpf_div(num, den, prec, "c")))
    return ctx.make_mpf(libmp.mpf_div(num, den, prec, "n"))


def _raw_int(n: int) -> tuple:
    """The exact raw libmp tuple (sign, odd mantissa, exponent, bits) of n."""
    if not n:
        return libmp.fzero
    man = abs(n)
    exp = 0 if man & 1 else (man & -man).bit_length() - 1
    man = libmp.MPZ(man >> exp)
    return (int(n < 0), man, exp, man.bit_length())


def fraction_endpoints(x) -> tuple[Fraction, Fraction]:
    """Exact Fraction endpoints of a finite mp.iv interval."""
    ra, rb = x._mpi_
    return fraction_from_raw(ra), fraction_from_raw(rb)


def interval_endpoints(fn, prec_bits: int) -> tuple[Fraction, Fraction]:
    """Exact Fraction endpoints of fn(mp.iv) at prec_bits (then restored)."""
    with context_precision(mp.iv, prec_bits):
        return fraction_endpoints(fn(mp.iv))


def check_height(u: RealLike) -> Fraction:
    """The exact height u (numerics.to_fraction), which must lie in [-1, 1]."""
    u = to_fraction(u)
    if abs(u.numerator) > u.denominator:  # |u| <= 1 on the integers
        raise ValueError("heights must lie in [-1, 1]")
    return u


def cos_pi_fraction_interval(q: RationalLike, prec_bits: int) -> tuple[Fraction, Fraction]:
    """Rigorous enclosure [lo, hi] of cos(pi * q) = 1 - 2 sin^2(pi q / 2)
    for rational q at prec_bits, exact at multiples of 1/2."""
    return interval_endpoints(lambda iv: 1 - 2 * sin_sq_pi(iv, Fraction(q) / 2), prec_bits)


def cos_pi_fraction(q: RationalLike, offset: RealLike = 0) -> mp.mpf:
    """cos(pi * q + offset) for rational q at working precision.

    With a zero offset, q mod 2 is folded into [0, 1/2] with a sign, so
    cos(-q) = cos(q) and cos(1 - q) = -cos(q) bit for bit, and multiples
    of 1/2 come out exactly (0 or +-1), which lets callers detect exact
    point coincidences on uniform azimuth grids.
    """
    q = Fraction(q) % 2
    if offset != 0:
        return mp.cos(mp.pi * to_mpf(q) + offset)
    q = min(q, 2 - q)  # cos is even with period 2
    if 2 * q > 1:
        return -_cos_pi(1 - q, mp.mp.prec)  # cos(pi (1 - q)) = -cos(pi q)
    return _cos_pi(q, mp.mp.prec)


@functools.lru_cache(maxsize=1 << 12)
def _cos_pi(q: Fraction, prec_bits: int) -> mp.mpf:
    """cos(pi * q) for q in [0, 1/2] at prec_bits, memoised: a grid of turns
    asks for the same cosines on every parallel, and for sines as cosines."""
    if q.denominator <= 2:
        return mp.mpf(int(1 - 2 * q))  # 1 or 0
    with mp.workprec(prec_bits):
        return mp.cospi(to_mpf(q))


def sin_sq_pi(ctx, q: RationalLike, offset=0):
    """sin^2(pi * q + offset) for rational q under ctx (mp.mp or mp.iv);
    exactly 0, 1/2 or 1 at quarter turns (4q an integer) with offset 0."""
    q = q if isinstance(q, Fraction) else Fraction(q)
    n, d = q.numerator % q.denominator, q.denominator  # q mod 1: sin^2 has period pi
    if offset == 0:
        return _sin_sq_pi(ctx, n, d, ctx.prec)
    return ctx.sin(ctx.pi * (ctx.mpf(n) / d) + offset) ** 2


@functools.lru_cache(maxsize=1 << 12)
def _sin_sq_pi(ctx, n: int, d: int, prec_bits: int):
    """sin^2(pi n / d), 0 <= n < d, under ctx at prec_bits (its precision),
    memoised as _cos_pi is: a grid asks for the same turns on every parallel."""
    if 4 * n % d == 0:
        return ctx.mpf((0, 0.5, 1, 0.5)[4 * n // d])
    return ctx.sin(ctx.pi * (ctx.mpf(n) / d)) ** 2


def binomial_factors(ctx, a: int, b: int, d: int, sin_sqs: list) -> list:
    """[gap + rim s for s in sin_sqs], |A e^(i theta) - B|^2 at each
    s = sin^2(theta / 2), for A = a / d and B = b / d (integers, d > 0)
    under ctx (mp.mp or mp.iv): gap = (a - b)^2 / d^2 and rim = 4ab / d^2,
    each rounded once (round_ratio), so a = b gives an exact 0.  Where every
    s is exactly 0 the gap alone fills the list, as gap + rim * 0 would."""
    d_sq = d * d
    gap = round_ratio(ctx, (a - b) ** 2, d_sq)
    if sin_sqs.count(0) == len(sin_sqs):
        return [gap] * len(sin_sqs)
    rim = round_ratio(ctx, 4 * a * b, d_sq)
    return [gap + rim * s for s in sin_sqs]


def two_term_log(ctx, R: int, log_x2, log_y2) -> tuple:
    """(base, gap, rim) with log |x^R e^(i theta) - y^R|^2 = base +
    log(gap + rim sin^2(theta/2)) from log x^2, log y^2 under ctx (mp.mp or
    mp.iv): base = R log max^2, gap = (1 - e^L)^2, rim = 4 e^L with L = (R/2)
    (log min^2 - log max^2) <= 0.  Both terms are non-negative, nothing the
    size of x^R is formed, and a pole (log -inf) needs no branch.  Only an
    L (an mp.iv interval: wholly) above -1 takes expm1 for the gap."""
    if log_y2 > log_x2:
        log_x2, log_y2 = log_y2, log_x2
    L = R * (log_y2 - log_x2) / 2
    e_L = ctx.exp(L)
    return R * log_x2, (1 - e_L) ** 2 if L < -1 else ctx.expm1(L) ** 2, 4 * e_L


def gauss_legendre(n: int, prec_bits: int = DEFAULT_PREC_BITS) -> tuple[list[mp.mpf], list[mp.mpf]]:
    """Gauss-Legendre nodes and weights on [-1, 1] at prec_bits, the nodes
    in descending order: mpmath's gauss_quadrature(n, "legendre"), which
    solves the eigenproblem of Golub & Welsch (Math. Comp. 1969).  Exact for
    polynomial integrands of degree <= 2n - 1."""
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    check_precision(prec_bits)
    with mp.workprec(prec_bits):
        nodes, weights = mp.gauss_quadrature(n, "legendre")
    return list(nodes)[::-1], list(weights)[::-1]


def fmt_real(x, prec_bits: int | None = None) -> str:
    """Deterministic decimal string for report output, at the decimal
    equivalent of prec_bits (None: the working precision) plus two guard
    digits; a record that passes its own precision prints the same under
    any context, and no context is entered.  An int or a Fraction is
    rounded once at prec_bits, as to_mpf rounds it there.  Reports repeat
    values (a cell's value on both sides, a bound shared across a band),
    so the string is memoised on the value's bits and the precision, and
    a value is rounded to the precision only on a miss."""
    prec = prec_bits or mp.mp.prec
    if isinstance(x, mp.mpf):
        raw = x._mpf_
    elif isinstance(x, (int, Fraction)):
        raw = libmp.mpf_div(_raw_int(x.numerator), _raw_int(x.denominator), prec, "n")
    else:
        raw = mp.mpf(x)._mpf_  # a float, exact at any precision >= 53
    return _fmt_raw(raw, prec)


def fmt_negated(s: str) -> str:
    """fmt_real(-x) from s = fmt_real(x) of a finite x: the sign flipped,
    and zero, which has no sign, kept."""
    return s[1:] if s.startswith("-") else s if s == "0.0" else "-" + s


@functools.lru_cache(maxsize=1 << 16)
def _fmt_raw(raw, prec_bits: int) -> str:
    sign, man, exp, bc = raw
    if man:  # inf and nan have no mantissa and must not be normalised
        raw = libmp.normalize(sign, man, exp, bc, prec_bits, libmp.round_nearest)
    x = mp.make_mpf(raw)
    if not mp.isfinite(x):
        return str(x).lstrip("+")  # nan, inf, -inf
    return mp.nstr(x, libmp.prec_to_dps(prec_bits) + 2, strip_zeros=True)


def frac_str(q: RationalLike, digits=None) -> str:
    """Exact "numerator/denominator" string for a rational; `digits` prints
    each non-negative integer (int_str by default; a caller that repeats
    integers passes a memoised one)."""
    q = q if isinstance(q, Fraction) else Fraction(q)
    n, digits = q.numerator, digits or int_str
    return f"{'-' if n < 0 else ''}{digits(abs(n))}/{digits(q.denominator)}"


def int_str(n: int) -> str:
    """str(n) for an integer of any length: past Python's int-to-str digit
    limit (sys.get_int_max_str_digits) the limit is lifted for this one
    conversion and then restored."""
    try:
        return str(n)
    except ValueError:
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(old)
