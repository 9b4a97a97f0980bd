"""Brute-force references for the polynomial layer, kept out of the package.

The factor-by-factor product in Fraction (or mpc) arithmetic checks the
integer-numerator expansion of ``wellcond.polynomials.expand``, and the
binomial-at-a-time product of integer numerators in z, with no pairing
and no w = z^g, checks ``wellcond.polynomials._numerators``: equal
integers and D for rational shifts, the same mpc operations in the same
order for a phased family.  Horner
evaluation, the exact formal derivative and the O(N) product over root
differences check the closed form of |f'(z)| that
``wellcond.polynomials`` evaluates, at degrees small enough for the
O(N^2) total cost.  The exact-rational enclosure of mu^2 at every root
and the exact mu^2 at the real roots, in integers only, check the
interval evaluation of ``wellcond.condition.certify_bound`` and the
argument that it needs only the real roots, log_scale takes the log of
an exact ||f||^2 for log mu at chosen roots, and log mu from a
polynomial expanded out of its N roots checks the coefficient route of
a phased family.
"""

from fractions import Fraction
from typing import Sequence

import mpmath as mp

from wellcond.numerics import cos_pi_fraction_interval, context_precision, log_fraction, to_mpf
from wellcond.points import PointSet, build_parallels
from wellcond.polynomials import (
    DensePolynomial,
    FactorizedPolynomial,
    RootEntry,
    bombieri_norm_sq,
    factor_parallels,
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


def numerators_by_binomials(f: FactorizedPolynomial) -> tuple[list, int]:
    """Numerators a_i over one common denominator D = prod q of f's
    coefficients, one factor z^r - p/q at a time as (q z^r - p)/q in
    factor order; a complex shift enters with p = shift, q = 1."""
    a, D = [1], 1
    for fac in f.factors:
        s, r = fac.shift, fac.power
        p, q = (s.numerator, s.denominator) if isinstance(s, Fraction) else (s, 1)
        new = [0] * (len(a) + r)
        for i, c in enumerate(a):
            if c:
                new[i + r] += q * c
                new[i] -= p * c
        a, D = new, D * q
    return a, D


def evaluate(p: DensePolynomial, z) -> mp.mpc:
    """Horner evaluation at the current working precision."""
    z = mp.mpc(z)
    acc = mp.mpc(0)
    for c in reversed(p.coeffs):
        acc = acc * z + (c if isinstance(c, mp.mpc) else to_mpf(c))
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


def log_scale(N: int, norm_sq: Fraction, prec_bits: int, ctx=mp.mp) -> tuple:
    """(log N, log ||f||^2) under ctx at prec_bits for an exact ||f||^2 =
    norm_sq, each rounded once: the scale condition.log_mu_at_root takes."""
    with context_precision(ctx, prec_bits):
        return ctx.log(N), log_fraction(ctx, norm_sq)


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
    pars = factor_parallels(build_parallels(M))
    for k, root in enumerate(pars):
        r, rho_sq = root.count, (1 + root.height) / (1 - root.height)
        numer = N * (1 + rho_sq) ** (N - 2) * norm_sq
        pairs = []
        for par in pars[:k] + pars[k + 1:]:
            r_m, rho_sq_m = par.count, (1 + par.height) / (1 - par.height)
            x, y = rho_sq ** (r_m // 2), rho_sq_m ** (r_m // 2)  # every r_m is even
            pairs.append((r_m, x * x + y * y, 2 * x * y))
        for t in range(r):
            d_lo = d_hi = Fraction(r * r) * rho_sq ** (r - 1)
            for r_m, a, b in pairs:
                c_lo, c_hi = cos_iv(Fraction(2 * r_m * t, r))
                d_lo, d_hi = d_lo * (a - b * c_hi), d_hi * (a - b * c_lo)
            out.append((f"p{root.index}.k{t}", numer / d_hi, numer / d_lo))
    return out


def mu_sq_at_real_roots(M: int, norm_sq: Fraction) -> dict[str, Fraction]:
    """mu^2 exactly at the real root rho_j of every parallel j of the
    canonical polynomial of parameter M with ||f||^2 = norm_sq, labelled
    p{j}.k0 in factor order, from integers only:

        mu(rho_j)^2 = N (1 + rho_j^2)^(N-2) ||f||^2
                      / (r_j^2 rho_j^(2(r_j-1)) prod_m (a_m - s_m)^2),

    a_m = (rho_j^2)^(r_m/2), s_m = (rho_m^2)^(r_m/2) with rho^2 = n/d in
    lowest terms, numerator and denominator multiplied out and divided
    once.  The cost grows about as M^5, so this stays an oracle.
    """
    N = 4 * M * M
    pars = factor_parallels(build_parallels(M))
    ratios = [(1 + par.height) / (1 - par.height) for par in pars]
    out = {}
    for k, root in enumerate(pars):
        r, n, d = root.count, ratios[k].numerator, ratios[k].denominator
        num = N * (n + d) ** (N - 2) * norm_sq.numerator * d ** (r - 1)
        den = d ** (N - 2) * norm_sq.denominator * r * r * n ** (r - 1)
        for par, ratio in zip(pars[:k] + pars[k + 1:], ratios[:k] + ratios[k + 1:]):
            e, n_m, d_m = par.count // 2, ratio.numerator, ratio.denominator
            num *= (d * d_m) ** (2 * e)
            den *= ((n * d_m) ** e - (n_m * d) ** e) ** 2
        out[f"p{root.index}.k0"] = Fraction(num, den)
    return out


def log_mu_by_expansion(point_set: PointSet, prec_bits: int) -> dict[str, mp.mpf]:
    """log mu at every root of the point set's family, labelled p{j}.k{t},
    from the roots alone, at prec_bits: z = rho e^(i (2 pi t / r + phi))
    for each parallel (count r, phase phi, rho^2 = (1+h)/(1-h)), the monic
    prod (z - z_i) expanded in mpc, |f'(z)| by Horner on its derivative
    and ||f||^2 the dense Bombieri norm:

        log mu = (log N + (N-2) log(1 + |z|^2) + log ||f||^2) / 2 - log |f'(z)|.
    """
    N = point_set.N
    with mp.workprec(prec_bits):
        zs = {}
        for par in point_set.parallels:
            rho = mp.sqrt(to_mpf((1 + par.height) / (1 - par.height)))
            for t in range(par.count):
                zs[f"p{par.index}.k{t}"] = rho * mp.expj(2 * mp.pi * t / par.count + par.phase)
        coeffs = [mp.mpc(1)]  # ascending; times (z - z_i) for each root
        for z in zs.values():
            coeffs = [low - z * c for low, c in zip([0, *coeffs], [*coeffs, 0])]
        f = DensePolynomial(coeffs=tuple(coeffs))
        fp = derivative(f)
        log_norm = mp.log(bombieri_norm_sq(f))
        return {
            label: (mp.log(N) + (N - 2) * mp.log(1 + abs(z) ** 2) + log_norm) / 2
            - mp.log(abs(evaluate(fp, z)))
            for label, z in zs.items()
        }
