"""Brute-force references for the polynomial layer, kept out of the package.

The factor-by-factor product in Fraction (or mpc) arithmetic checks the
integer-numerator expansion of ``wellcond.polynomials.expand``.  Horner
evaluation, the exact formal derivative and the O(N) product over root
differences check the closed form of |f'(z)| that
``wellcond.polynomials`` evaluates, at degrees small enough for the
O(N^2) total cost.  The exact-rational enclosure of mu^2 checks the
interval evaluation of ``wellcond.condition.certify_bound``.
"""

from fractions import Fraction
from typing import Sequence

import mpmath as mp

from wellcond.numerics import cos_pi_fraction_interval, to_mpf
from wellcond.polynomials import (
    DensePolynomial,
    FactorizedPolynomial,
    RootEntry,
    root_derivative_data,
)


class RepeatedRootError(ValueError):
    """Raised when two roots of the list coincide exactly."""


def expand_by_fractions(f: FactorizedPolynomial) -> DensePolynomial:
    """Multiply the binomial factors into dense coefficients one factor at
    a time, each coefficient a reduced Fraction (an mpc for complex shifts)
    after every step."""
    coeffs = [Fraction(1)]
    for fac in f.factors:
        new = [Fraction(0)] * (len(coeffs) + fac.power)
        for i, c in enumerate(coeffs):
            if c:
                new[i + fac.power] += c
                new[i] -= fac.shift * c
        coeffs = new
    return DensePolynomial(coeffs=tuple(coeffs))


def evaluate(p: DensePolynomial, z) -> mp.mpc:
    """Horner evaluation at the current working precision."""
    z = mp.mpc(z)
    acc = mp.mpc(0)
    for c in reversed(p.coeffs):
        acc = acc * z + to_mpf(c)
    return acc


def derivative(p: DensePolynomial) -> DensePolynomial:
    """Exact formal derivative."""
    if p.degree == 0:
        return DensePolynomial(coeffs=(Fraction(0),))
    return DensePolynomial(
        coeffs=tuple(i * c for i, c in enumerate(p.coeffs) if i > 0)
    )


def log_derivative_modulus_by_gaps(
    root_list: Sequence[RootEntry], i: int, prec_bits: int
) -> mp.mpf:
    """log |f'(z_i)| = sum_{j != i} log |z_i - z_j| for a monic f.

    An exactly repeated root raises RepeatedRootError.
    """
    zi = root_list[i].value
    with mp.workprec(prec_bits):
        acc = mp.mpf(0)
        for j, entry in enumerate(root_list):
            if j == i:
                continue
            d = zi - entry.value
            gap_sq = d.real * d.real + d.imag * d.imag
            if gap_sq == 0:
                raise RepeatedRootError(f"roots {i} and {j} coincide")
            acc += mp.log(gap_sq) / 2
        return acc


def mu_sq_enclosures(
    M: int, norm_sq: Fraction, cos_prec: int
) -> list[tuple[str, Fraction, Fraction]]:
    """Rigorous [lo, hi] of mu^2 at every root of the canonical polynomial
    of parameter M with ||f||^2 = norm_sq, in exact rationals.

    mu^2 = N (1 + rho^2)^(N-2) ||f||^2 / |f'(z)|^2 with

        |f'(z)|^2 = r^2 rho^(2(r-1)) prod_{m} (a_m - b_m cos(pi q_m)),

    a_m = rho^(2 r_m) + s_m^2, b_m = 2 rho^(r_m) s_m, s_m = rho_m^(r_m)
    and q_m = 2 r_m t / r.  Everything is an exact rational except the
    cosines, enclosed at cos_prec bits; distinct factor moduli keep every
    term strictly positive, so the interval division is safe.
    """
    N = 4 * M * M
    cos_cache: dict[Fraction, tuple[Fraction, Fraction]] = {}

    def cos_iv(q: Fraction) -> tuple[Fraction, Fraction]:
        q %= 2
        if q not in cos_cache:
            lo, hi = cos_pi_fraction_interval(q, cos_prec)
            cos_cache[q] = (max(lo, Fraction(-1)), min(hi, Fraction(1)))
        return cos_cache[q]

    out = []
    for root in root_derivative_data(M):
        r, rho_sq = root.power, root.rho_sq
        numer = N * (1 + rho_sq) ** (N - 2) * norm_sq
        pairs = []
        for r_m, rho_sq_m in root.others:
            x, y = rho_sq ** (r_m // 2), rho_sq_m ** (r_m // 2)  # every r_m is even
            pairs.append((r_m, x * x + y * y, 2 * x * y))
        for t in range(r):
            d_lo = d_hi = Fraction(r * r) * rho_sq ** (r - 1)
            for r_m, a, b in pairs:
                c_lo, c_hi = cos_iv(Fraction(2 * r_m * t, r))
                d_lo, d_hi = d_lo * (a - b * c_hi), d_hi * (a - b * c_lo)
            out.append((f"p{root.parallel}.k{t}", numer / d_hi, numer / d_lo))
    return out
