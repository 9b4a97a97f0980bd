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

Expansion, Bombieri-Weyl norms and the factor-wise data of |f'| at
each root stay in exact rational arithmetic; root values and the float
evaluation of |f'| use mpmath at a caller-chosen binary precision, and
the rotated (complex) shifts of a phased family the precision of its
point set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import mpmath as mp

from .numerics import (
    DEFAULT_PREC_BITS,
    check_precision,
    cos_pi_fraction,
    frac_str,
    to_mpf,
)
from .points import Parallel, PointSet, build_parallels


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
                {"r": f.power, "s": frac_str(f.shift)} for f in self.factors
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
            "coeffs": [frac_str(c) for c in self.coeffs],
        }


@dataclass(frozen=True)
class RootDerivative:
    """Exact data of |f'(z)|^2 at the azimuth-t root z of factor k.

        |f'(z)|^2 = r_k^2 rho_k^(2(r_k-1)) prod_{m != k} (a_m - b_m cos(pi q_m))

    with rho_k^2 = |z|^2, a_m = rho_k^(2 r_m) + s_m^2,
    b_m = 2 rho_k^(r_m) s_m and q_m = 2 r_m t / r_k; every entry is an
    exact rational.  Distinct factor moduli keep each term positive.
    """

    parallel: int
    azimuth: int
    power: int
    rho_sq: Fraction
    terms: tuple[tuple[Fraction, Fraction, Fraction], ...]

    @property
    def label(self) -> str:
        return f"p{self.parallel}.k{self.azimuth}"


@dataclass(frozen=True)
class RootEntry:
    """One root: complex value plus (factor, azimuth) bookkeeping."""

    value: mp.mpc
    factor: int
    azimuth: int


def _factor_parallels(parallels: list[Parallel]) -> list[Parallel]:
    """The parallels in factor order: the equator M, then j and 2M - j
    for j = 1..M-1."""
    M = (len(parallels) + 1) // 2
    order = [M] + [i for j in range(1, M) for i in (j, 2 * M - j)]
    return [parallels[i - 1] for i in order]


def _rho_sq(par: Parallel) -> Fraction:
    """Squared root modulus (1+h)/(1-h) of the parallel's factor."""
    return (1 + par.height) / (1 - par.height)


def _factors(pars: list[Parallel]) -> tuple[Factor, ...]:
    """The exact factor z^r - rho^r of each parallel, in the given order."""
    return tuple(Factor(par.count, _rho_sq(par) ** (par.count // 2)) for par in pars)


def canonical_polynomial(M: int) -> FactorizedPolynomial:
    """The degree-4M^2 product with one factor per parallel, in factor
    order: (z^(4M) - 1) first, then for j = 1..M-1 the pair
    (z^(4j) - s_j), (z^(4j) - 1/s_j) of the parallels j and 2M - j."""
    return FactorizedPolynomial(_factors(_factor_parallels(build_parallels(M))))


def family_polynomial(point_set: PointSet) -> tuple[FactorizedPolynomial, tuple[Fraction, ...]]:
    """The monic f whose roots project to the points, and the exact
    weights 1/(1 + rho_k^2) = (1 - h_k)/2 in factor order.  Rotating the
    parallel of factor k by phi_k multiplies its shift by exp(i r_k phi_k),
    an mpc at the point set's precision; with every phase 0 f stays exact.
    """
    pars = _factor_parallels(point_set.parallels)
    factors = _factors(pars)
    if any(par.phase for par in pars):
        with mp.workprec(point_set.prec_bits):
            factors = tuple(
                Factor(fac.power, fac.shift * mp.expj(fac.power * par.phase))
                for fac, par in zip(factors, pars)
            )
    return FactorizedPolynomial(factors), tuple((1 - par.height) / 2 for par in pars)


def expand(f: FactorizedPolynomial) -> DensePolynomial:
    """Multiply the binomial factors into dense coefficients: exact for
    rational shifts, at the working precision for complex ones."""
    coeffs = [Fraction(1)]
    for fac in f.factors:
        new = [Fraction(0)] * (len(coeffs) + fac.power)
        for i, c in enumerate(coeffs):
            if c:
                new[i + fac.power] += c
                new[i] -= fac.shift * c
        coeffs = new
    return DensePolynomial(coeffs=tuple(coeffs))


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


def root_derivative_data(M: int) -> Iterator[RootDerivative]:
    """Exact |f'(z)|^2 data at every root of the canonical polynomial.

    Roots come factor by factor, azimuth by azimuth, in the order of
    roots().  The modulus rho_k^2 = (1+h)/(1-h) is read from the exact
    height h of the factor's parallel.  For every other factor m the
    pair depends only on (k, m); the cosine argument adds the azimuth t.
    """
    pars = _factor_parallels(build_parallels(M))
    factors = _factors(pars)
    for k, (fac, par) in enumerate(zip(factors, pars)):
        rho_sq = _rho_sq(par)
        pairs = []
        for m, g in enumerate(factors):
            if m != k:
                rho_r = rho_sq ** (g.power // 2)  # rho_k^(r_m); every r_m is even
                pairs.append((g.power, rho_r * rho_r + g.shift**2, 2 * rho_r * g.shift))
        for t in range(fac.power):
            terms = tuple(
                (a, b, Fraction(2 * r_m * t, fac.power)) for r_m, a, b in pairs
            )
            yield RootDerivative(par.index, t, fac.power, rho_sq, terms)


def derivative_modulus_at_root(
    root: RootDerivative, prec_bits: int = DEFAULT_PREC_BITS
) -> mp.mpf:
    """log |f'(z)| at one root, from the closed form in mpf.

    Returned as a log since |f'| spans hundreds of orders of magnitude
    for large degrees.  A vanishing factor term means a repeated root,
    where f' = 0: the log is log 0 = -inf.
    """
    check_precision(prec_bits)
    with mp.workprec(prec_bits):
        prod = mp.mpf(1)
        for a, b, q in root.terms:
            prod *= to_mpf(a) - to_mpf(b) * cos_pi_fraction(q)
        r = root.power
        return mp.log(r) + ((r - 1) * mp.log(to_mpf(root.rho_sq)) + mp.log(prod)) / 2
