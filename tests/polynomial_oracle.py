"""Brute-force references for the polynomial layer, kept out of the package.

Horner evaluation, the exact formal derivative and the O(N) product over
root differences check the closed form of |f'(z)| that
``wellcond.polynomials`` evaluates, at degrees small enough for the
O(N^2) total cost.
"""

from fractions import Fraction
from typing import Sequence

import mpmath as mp

from wellcond.numerics import to_mpf
from wellcond.polynomials import DensePolynomial, RootEntry


class RepeatedRootError(ValueError):
    """Raised when two roots of the list coincide exactly."""


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
