"""Polynomials with prescribed root moduli, kept exact where possible.

The canonical degree-N = 4M^2 family is a product of binomials

    P(z) = (z^(4M) - 1) * prod_{j=1}^{M-1} (z^(r_j) - s_j)(z^(r_j) - 1/s_j),

with r_j = 4j and s_j = rho_j^(r_j) for rho_j^2 = (2M^2 - j^2)/j^2, so
every s_j is an explicit positive rational.  The roots of the factor
(z^r - s) are the r-th roots of s, all of modulus s^(1/r); under inverse
stereographic projection they land on the parallel of height h with
rho(h)^2 = (1+h)/(1-h).

Expansion, Bombieri-Weyl norms and the factor-wise data of |f'| at
each root stay in exact rational arithmetic; root values, the float
evaluation of |f'| and the expansion of factors with rotated (complex)
shifts use mpmath at a caller-chosen binary precision.
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
from .points import PointSet, build_parallels


class MultipleRootError(ValueError):
    """Raised when a derivative product hits a repeated root exactly."""


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


def canonical_polynomial(M: int) -> FactorizedPolynomial:
    """The degree-4M^2 product with one factor pair per off-equator parallel.

    Factor order: the equatorial (z^(4M) - 1) first, then for j = 1..M-1
    the pair (z^(4j) - s_j), (z^(4j) - 1/s_j) with s_j the (4j)-th power
    of the modulus sqrt((2M^2 - j^2))/j.
    """
    if not isinstance(M, int) or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    factors = [Factor(power=4 * M, shift=Fraction(1))]
    for j in range(1, M):
        rho_sq = Fraction(2 * M * M - j * j, j * j)
        s = rho_sq ** (2 * j)  # (rho^2)^(r_j / 2) = rho^(4j)
        factors.append(Factor(power=4 * j, shift=s))
        factors.append(Factor(power=4 * j, shift=1 / s))
    return FactorizedPolynomial(factors=tuple(factors))


def canonical_factor_parallel(M: int, factor_index: int) -> int:
    """Parallel index carrying the roots of the given canonical factor.

    Factor 0 is equatorial (parallel M); factor 2j-1 sits on the northern
    parallel j and factor 2j on its southern mirror 2M - j.
    """
    if factor_index == 0:
        return M
    j = (factor_index + 1) // 2
    if not 1 <= j <= M - 1:
        raise ValueError(f"factor index {factor_index} out of range for M={M}")
    return j if factor_index % 2 == 1 else 2 * M - j


def family_polynomial(point_set: PointSet) -> tuple[FactorizedPolynomial, tuple[Fraction, ...]]:
    """The monic f whose roots project to the points, and the exact
    weights 1/(1 + rho_k^2) = (1 - h_k)/2 in factor order.  Rotating the
    parallel of factor k by phi_k multiplies its shift by exp(i r_k phi_k),
    an mpc at the working precision; with every phase 0 f stays exact.
    """
    M = point_set.M
    f = canonical_polynomial(M)
    pars = [point_set.parallels[canonical_factor_parallel(M, k) - 1] for k in range(len(f.factors))]
    if any(par.phase for par in pars):
        f = FactorizedPolynomial(tuple(
            Factor(fac.power, fac.shift * mp.expj(fac.power * par.phase))
            for fac, par in zip(f.factors, pars)
        ))
    return f, tuple((1 - par.height) / 2 for par in pars)


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
    f = canonical_polynomial(M)
    heights = [par.height for par in build_parallels(M)]
    for k, fac in enumerate(f.factors):
        parallel = canonical_factor_parallel(M, k)
        h = heights[parallel - 1]
        rho_sq = (1 + h) / (1 - h)
        pairs = []
        for m, g in enumerate(f.factors):
            if m != k:
                rho_r = rho_sq ** (g.power // 2)  # rho_k^(r_m); every r_m is even
                pairs.append((g.power, rho_r * rho_r + g.shift**2, 2 * rho_r * g.shift))
        for t in range(fac.power):
            terms = tuple(
                (a, b, Fraction(2 * r_m * t, fac.power)) for r_m, a, b in pairs
            )
            yield RootDerivative(parallel, t, fac.power, rho_sq, terms)


def derivative_modulus_at_root(
    root: RootDerivative, prec_bits: int = DEFAULT_PREC_BITS
) -> mp.mpf:
    """log |f'(z)| at one root, from the closed form in mpf.

    Returned as a log since |f'| spans hundreds of orders of magnitude
    for large degrees.  A vanishing factor term means a repeated root
    and raises MultipleRootError.
    """
    check_precision(prec_bits)
    with mp.workprec(prec_bits):
        prod = mp.mpf(1)
        for a, b, q in root.terms:
            term = to_mpf(a) - to_mpf(b) * cos_pi_fraction(q)
            if term == 0:
                raise MultipleRootError(f"root {root.label} is repeated")
            prod *= term
        r = root.power
        return mp.log(r) + ((r - 1) * mp.log(to_mpf(root.rho_sq)) + mp.log(prod)) / 2
