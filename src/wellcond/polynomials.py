"""Polynomials with prescribed root moduli, kept exact where possible.

The canonical degree-N = 4M^2 family has one binomial factor per
parallel of points.Parallel,

    P(z) = prod_j (z^(r_j) - s_j),   s_j = ((1 + h_j)/(1 - h_j))^(r_j/2),

an explicit positive rational because every r_j is even.  The roots of
the factor (z^r - s) are the r-th roots of s, all of modulus
rho = s^(1/r), and inverse stereographic projection puts them on the
parallel of height h with rho^2 = (1+h)/(1-h).  The factor order is the
equator first, then the parallels j and 2M - j for j = 1..M-1; with
rho_j^2 = (2M^2 - j^2)/j^2 this is

    P(z) = (z^(4M) - 1) * prod_{j=1}^{M-1} (z^(4j) - s_j)(z^(4j) - 1/s_j).

Expansion forms integer numerators a_i over one common denominator
D = prod q in w = z^4, each mirror pair as one palindromic trinomial of
which half is formed (_numerators), and reduces each a_i / D once.
norm_sq runs the same loop over context numbers and forms the
Bombieri-Weyl norm ||f||^2 = sum_i |a_i|^2 / (binom(N, i) D^2) at the
caller's precision: a float under mp.mp, an enclosure under mp.iv, for
zero-phase and phased families alike (a phased family's shifts are
rounded, and the enclosure holds the norm of the rounded factors); the
exact norm is bombieri_norm_sq(expand(f)).  |f'| at the roots reads the
Parallel records, each factor's exact height and phase: every other
factor's term (a - s)^2 + 4 a s sin^2, a and s exact powers of the
squared moduli, comes from numerics.binomial_factors, the kernel the
Theta grids share, under mp.mp or mp.iv at a caller-chosen precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .numerics import (
    DEFAULT_PREC_BITS,
    binomial_factors,
    check_precision,
    context_precision,
    cos_pi_fraction,
    fmt_real,
    frac_str,
    int_str,
    log_fraction,
    sin_sq_pi,
    to_mpf,
)
from .points import Parallel, PointSet, build_parallels

NORM_GUARD_BITS = 16  # norm_sq's working bits above its context's precision


def coeff_str(c: Fraction | mp.mpc, digits=None) -> str:
    """An exact rational as "num/den" (its integers printed by `digits`, see
    numerics.frac_str), a complex value as "re+imj" or "re-imj"."""
    if isinstance(c, mp.mpc):
        re, im = fmt_real(c.real), fmt_real(c.imag)
        return f"{re}{'' if im.startswith('-') else '+'}{im}j"
    return frac_str(c, digits)


def coeff_strs(coeffs) -> list[str]:
    """coeff_str of each value, printing each distinct integer magnitude once
    (a memo for this call only): dense coefficients repeat magnitudes and
    denominators."""
    digits = functools.lru_cache(maxsize=None)(int_str)
    return [coeff_str(c, digits) for c in coeffs]


@dataclass(frozen=True)
class Factor:
    """A binomial factor z^power - shift.

    The canonical family's shifts are positive rationals; rotating the
    roots of a factor by an angle phi multiplies its shift by
    exp(i power phi), which makes it a complex mpc.
    """

    power: int
    shift: Fraction | mp.mpc

    def __post_init__(self):
        if self.power < 1:
            raise ValueError(f"factor power must be >= 1, got {self.power}")
        if self.shift.imag == 0 and self.shift.real <= 0:
            raise ValueError(f"a real factor shift must be positive, got {self.shift}")


@dataclass(frozen=True)
class FactorizedPolynomial:
    """A product of binomial factors; degree is the sum of the powers."""

    factors: tuple[Factor, ...]

    @property
    def degree(self) -> int:
        return sum(f.power for f in self.factors)

    def to_json_dict(self) -> dict:
        return {
            "N": self.degree,
            "factors": [
                {"r": f.power, "s": coeff_str(f.shift)} for f in self.factors
            ],
        }


@dataclass(frozen=True)
class DensePolynomial:
    """Coefficients in ascending order; degree = len - 1.

    Exact rationals for rational shifts, mpc for rotated factors.
    """

    coeffs: tuple[Fraction | mp.mpc, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a polynomial needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_json_dict(self) -> dict:
        return {
            "N": self.degree,
            "coeffs": coeff_strs(self.coeffs),
        }


@dataclass(frozen=True)
class RootEntry:
    """One root: complex value plus (factor, azimuth) bookkeeping."""

    value: mp.mpc
    factor: int
    azimuth: int


def factor_parallels(parallels: list[Parallel]) -> list[Parallel]:
    """The parallels in factor order: the equator M, then j and 2M - j
    for j = 1..M-1."""
    M = (len(parallels) + 1) // 2
    order = [M] + [i for j in range(1, M) for i in (j, 2 * M - j)]
    return [parallels[i - 1] for i in order]


def _factors(pars: list[Parallel]) -> tuple[Factor, ...]:
    """The exact factor z^r - rho^r of each parallel, in the given order."""
    return tuple(Factor(par.count, par.rho_sq ** (par.count // 2)) for par in pars)


def canonical_polynomial(M: int) -> FactorizedPolynomial:
    """The degree-4M^2 product with one factor per parallel, in factor
    order: (z^(4M) - 1) first, then for j = 1..M-1 the pair
    (z^(4j) - s_j), (z^(4j) - 1/s_j) of the parallels j and 2M - j."""
    return FactorizedPolynomial(_factors(factor_parallels(build_parallels(M))))


def family_polynomial(point_set: PointSet) -> FactorizedPolynomial:
    """The monic f whose roots project to the points, one factor per
    parallel in factor order.  Rotating the parallel of factor k by phi_k
    multiplies its shift by exp(i r_k phi_k), an mpc at the point set's
    precision; with every phase 0 f stays exact and equals
    canonical_polynomial(M).
    """
    pars = factor_parallels(point_set.parallels)
    factors = _factors(pars)
    if any(par.phase for par in pars):
        with mp.workprec(point_set.prec_bits):
            factors = tuple(
                Factor(fac.power, fac.shift * mp.expj(fac.power * par.phase))
                for fac, par in zip(factors, pars)
            )
    return FactorizedPolynomial(factors)


def _reciprocal_pairs(factors: Sequence[Factor]) -> tuple[list[Factor], list[Factor]]:
    """(pairs, rest): if every shift is rational, each factor z^r - s
    matched with an unused earlier z^r - 1/s, one factor per pair; rest is
    every unmatched factor in factor order."""
    if not all(isinstance(fac.shift, Fraction) for fac in factors):
        return [], list(factors)
    waiting: dict[tuple, list[int]] = {}
    pairs, paired = [], set()
    for k, fac in enumerate(factors):
        partners = waiting.get((fac.power, 1 / fac.shift))
        if partners:
            paired |= {k, partners.pop()}
            pairs.append(fac)
        else:
            waiting.setdefault((fac.power, fac.shift), []).append(k)
    return pairs, [fac for k, fac in enumerate(factors) if k not in paired]


def _numerators(f: FactorizedPolynomial, num=lambda x: x) -> tuple[list, object]:
    """Numerators a_i and one common denominator D of f's coefficients a_i / D.

    The product is formed in w = z^g, g the gcd of the powers, and D =
    prod q over the factors z^r - p/q, so no step reduces a fraction.  A
    pair z^r - p/q, z^r - q/p of _reciprocal_pairs enters as the
    palindromic pq w^(2e) - (p^2 + q^2) w^e + pq, e = r/g, which keeps
    the product palindromic: each entry i <= n/2 is formed once and
    mirrored.  Each other factor enters, in factor order, as q w^e - p; a
    complex shift with p = shift, q = 1.  Every value the loop starts from,
    integer or complex shift, enters as num of it: itself for expand (exact
    ints, mpc at working precision), a context number (ctx.convert) for
    norm_sq.
    """
    g = math.gcd(*(fac.power for fac in f.factors)) or 1
    pairs, rest = _reciprocal_pairs(f.factors)
    zero, a, D = num(0), [num(1)], 1
    for fac in pairs:
        e, p, q = fac.power // g, fac.shift.numerator, fac.shift.denominator
        c, b, size = num(p * q), num(p * p + q * q), len(a) + 2 * e
        # entry i is c (a[i] + a[i - 2e]) - b a[i - e]; u is a padded with zeros
        u, h = [zero] * (2 * e) + a + [zero] * (2 * e), (size + 1) // 2
        half = [c * (x + z) - b * y for x, y, z in zip(u[:h], u[e:e + h], u[2 * e:2 * e + h])]
        a, D = half + half[:size // 2][::-1], D * c
    for fac in rest:
        s, e = fac.shift, fac.power // g
        p, q = map(num, (s.numerator, s.denominator) if isinstance(s, Fraction) else (s, 1))
        new = [0] * (len(a) + e)
        for i, c in enumerate(a):
            if c:
                new[i + e] += q * c
                new[i] -= p * c
        a, D = new, D * q
    z = [0] * (g * (len(a) - 1) + 1)
    z[::g] = a
    return z, D


def _over(x, d: int):
    """x / d: an exact Fraction for an integer x, rounded for an mpc or mpf x."""
    return Fraction(x, d) if isinstance(x, int) else x / d


def expand(f: FactorizedPolynomial) -> DensePolynomial:
    """Multiply the binomial factors into dense coefficients: exact for
    rational shifts (a_i / D of _numerators, reduced), at the working
    precision for complex ones.  Each distinct a_i is divided by D once
    and -a_i takes the negated quotient (the family has a_(N-i) = -a_i)."""
    a, D = _numerators(f)
    quotients: dict = {}
    for i, c in enumerate(a):
        if c not in quotients:
            negated = quotients.get(-c)
            quotients[c] = _over(c, D) if negated is None else -negated
        a[i] = quotients[c]
    return DensePolynomial(coeffs=tuple(a))


def bombieri_norm_sq(p: DensePolynomial) -> Fraction | mp.mpf:
    """Squared Bombieri-Weyl norm: sum_i binom(N, i)^-1 * |a_i|^2.

    Exact over the rationals, an mpf for complex coefficients.  This is
    the norm invariant under the unitary action on homogenisations,
    which is what makes condition numbers comparable across the sphere.
    """
    N = p.degree
    return sum(
        abs(c) ** 2 / math.comb(N, i) for i, c in enumerate(p.coeffs)
    )


def norm_sq(f: FactorizedPolynomial, ctx):
    """bombieri_norm_sq(expand(f)) under ctx (mp.mp or mp.iv) at its
    precision, from the numerators of _numerators formed over ctx numbers:

        ||f||^2 = sum_i |a_i|^2 / (binom(N, i) D^2),

    each exact binom(N, i) rounded once.  The loop runs NORM_GUARD_BITS
    above ctx's precision and the result keeps those bits; for M = 1..16
    the tests hold the value under mp.mp to 2^-(prec - 16) and the width
    of the enclosure under mp.iv to 2^-prec, relative to the exact norm."""
    with context_precision(ctx, ctx.prec + NORM_GUARD_BITS):
        a, D = _numerators(f, ctx.convert)
        N, total, comb = len(a) - 1, 0, 1  # comb = binom(N, i)
        for i, c in enumerate(a):
            if c:
                total += abs(c) ** 2 / ctx.mpf(comb)
            comb = comb * (N - i) // (i + 1)
        return total / (D * D)


def roots(f: FactorizedPolynomial, prec_bits: int = DEFAULT_PREC_BITS) -> list[RootEntry]:
    """All degree-many roots, grouped by factor.

    The factor (z^r - s) contributes s^(1/r) * exp(2 pi i k / r) for
    k = 0..r-1.  Azimuth cosines at rational multiples of pi are exact,
    so roots on the coordinate axes come out exact.
    """
    check_precision(prec_bits)
    out: list[RootEntry] = []
    with mp.workprec(prec_bits):
        for fi, fac in enumerate(f.factors):
            modulus = mp.root(to_mpf(fac.shift), fac.power)
            for k in range(fac.power):
                turn = Fraction(2 * k, fac.power)
                ca = cos_pi_fraction(turn)
                sa = cos_pi_fraction(turn - Fraction(1, 2))
                out.append(
                    RootEntry(
                        value=mp.mpc(modulus * ca, modulus * sa),
                        factor=fi,
                        azimuth=k,
                    )
                )
    return out


def derivative_modulus_at_root(
    root: Parallel, others: Sequence[Parallel], azimuths: Sequence[int],
    prec_bits: int = DEFAULT_PREC_BITS, ctx=mp.mp,
) -> list:
    """log |f'(z_t)| at the roots z_t = rho e^(i (2 pi t / r + phi)) of the
    factor of parallel `root` (count r, phase phi, rho^2 = Parallel.rho_sq),
    t in `azimuths`, of the monic f whose other factors are those of the
    parallels `others`, under ctx (mp.mp or mp.iv) at prec_bits:

        |f'(z_t)|^2 = r^2 rho^(2(r-1)) prod_m ((a_m - s_m)^2 + 4 a_m s_m sin^2(theta_m / 2)),

    with a_m = (rho^2)^(r_m/2) and s_m = (rho_m^2)^(r_m/2) exact rationals
    (every count is even) over one integer denominator, each term from
    numerics.binomial_factors, and theta_m / 2 = pi r_m t / r plus the
    offset r_m (phi - phi_m) / 2.  At equal phases an integer r_m t / r
    gives sin^2 = 0, decided on the integers (every term at a real root of
    the zero-phase family); other sin^2 are taken once per distinct turn
    of a term.  A vanishing term means a repeated root: log |f'| = -inf.
    """
    check_precision(prec_bits)
    r, n, d = root.count, root.rho_sq.numerator, root.rho_sq.denominator
    with context_precision(ctx, prec_bits):
        base = ctx.log(r) + (r - 1) * log_fraction(ctx, root.rho_sq) / 2
        phi, terms = ctx.mpf(root.phase), []
        for par in others:
            # (rho^2)^e = a / p and (rho_m^2)^e = s / p, all integers
            e, n_m, d_m = par.count // 2, par.rho_sq.numerator, par.rho_sq.denominator
            turns, equal = [par.count * t % r for t in azimuths], par.phase == root.phase
            offset = 0 if equal else par.count * (phi - ctx.mpf(par.phase)) / 2
            sin_sq = {j: sin_sq_pi(ctx, Fraction(j, r), offset) for j in set(turns) if j or not equal}
            sin_sqs = [sin_sq.get(j, 0) for j in turns]  # the int 0 at an equal-phase zero turn
            a, s, p = (n * d_m) ** e, (n_m * d) ** e, (d * d_m) ** e
            terms.append(binomial_factors(ctx, a, s, p, sin_sqs))
        return [
            base + ctx.log(ctx.fprod(term[i] for term in terms)) / 2 for i in range(len(azimuths))
        ]
