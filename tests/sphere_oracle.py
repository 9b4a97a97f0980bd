"""Brute-force references for the sphere layer, kept out of the package.

Every point's coordinates formed on their own (``SpherePoint``), against
which the quarter-turn rings that ``wellcond.points.PointSet.to_json_dict``
prints are checked, squared chordal distances between materialised points, the
stereographic maps between the sphere and the complex plane, a
Gauss-Legendre x uniform-azimuth product rule for the numerator
integral int_S prod_j |p - p_j|^2 dsigma, against which the closed form
of ``wellcond.condition.numerator_integral_log`` is checked, the
logarithmic energy as a sum of gap products over every point and as
the discriminant identity with exact resultants, against which the
two-term kernel of ``wellcond.energy.log_energy`` is checked, and the
one-query-at-a-time forms of the Theta products: in product form (each
factor from exact rationals, the factors multiplied, one log), against
which the package's grid and per-parallel forms are held bit for bit,
and as a sum of one log per parallel through the two-term kernel
``wellcond.numerics.two_term_log``, against which they are held to
2^-(prec-16).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath import libmp

from wellcond.condition import parallel_self_product_log, point_gap_product_log
from wellcond.numerics import cos_pi_fraction, gauss_legendre, sin_sq_pi, to_fraction, to_mpf, two_term_log
from wellcond.points import PointSet
from wellcond.polynomials import family_polynomial


@dataclass(frozen=True)
class SpherePoint:
    """A point of S^2 as high-precision coordinates."""

    x: mp.mpf
    y: mp.mpf
    z: mp.mpf


def theta_by_query(r, h, c, turn, prec_bits: int, offset=0) -> mp.mpf:
    """Theta for one query, every term formed afresh in exact rationals:
    x^r = X and y^r = Y from x^2 = (1-c)(1+h) and y^2 = (1+c)(1-h), the gap
    (X - Y)^2 and the rim 4XY each rounded once by libmp.from_rational."""
    h, c, turn = to_fraction(h), to_fraction(c), Fraction(turn)
    X, Y = ((1 - c) * (1 + h)) ** (r // 2), ((1 + c) * (1 - h)) ** (r // 2)
    with mp.workprec(prec_bits):
        gap, rim = (
            mp.make_mpf(libmp.from_rational(q.numerator, q.denominator, prec_bits, "n"))
            for q in ((X - Y) ** 2, 4 * X * Y)
        )
        return gap + rim * sin_sq_pi(mp.mp, r * turn / 2, r * offset / 2)


def theta_log_by_query(r, h, c, turn, prec_bits: int, offset=0) -> mp.mpf:
    """log Theta for one query through the two-term kernel
    numerics.two_term_log: every log, (base, gap, rim) and sin^2 formed
    afresh, base + log(gap + rim sin^2)."""
    h, c, turn = to_fraction(h), to_fraction(c), Fraction(turn)
    with mp.workprec(prec_bits):
        log_x2 = mp.log(to_mpf(1 - c)) + mp.log(to_mpf(1 + h))
        log_y2 = mp.log(to_mpf(1 + c)) + mp.log(to_mpf(1 - h))
        base, gap, rim = two_term_log(mp.mp, r, log_x2, log_y2)
        return base + mp.log(gap + rim * sin_sq_pi(mp.mp, r * turn / 2, r * offset / 2))


def _log_product(factors, prec_bits: int) -> mp.mpf:
    """log prod of the factors / 2, multiplied in their order."""
    with mp.workprec(prec_bits):
        product = mp.mpf(1)
        for f in factors:
            product *= f
        return mp.log(product) / 2


def _others(point_set: PointSet, j: int, k: int):
    """(parallel, turn, offset) of the point k of parallel j as a query
    against every other parallel, the offset at the point set's precision."""
    own = point_set.parallels[j - 1]
    turn = Fraction(2 * k, own.count)
    with mp.workprec(point_set.prec_bits):
        return [(par, turn, own.phase - par.phase) for par in point_set.parallels if par.index != j]


def log_product_by_query(c, turn, point_set: PointSet, prec_bits: int) -> mp.mpf:
    """log prod_i |p_i - q| for the one query (c, pi * turn): the factors
    multiplied parallel by parallel, one log; -inf when a parallel holds q."""
    return _log_product(
        (theta_by_query(par.count, par.height, c, turn, prec_bits, -par.phase)
         for par in point_set.parallels),
        prec_bits,
    )


def log_product_by_parallel_logs(c, turn, point_set: PointSet, prec_bits: int) -> mp.mpf:
    """log_product_by_query as a sum of one log per parallel; -inf as soon
    as a parallel holds q."""
    with mp.workprec(prec_bits):
        total = mp.mpf(0)
        for par in point_set.parallels:
            lg = theta_log_by_query(par.count, par.height, c, turn, prec_bits, -par.phase)
            if lg == mp.mpf("-inf"):
                return lg
            total += lg / 2
        return total


def gap_product_by_point(point_set: PointSet, j: int, k: int, prec_bits: int) -> mp.mpf:
    """log prod over the other family points of |p - p_other| for the one
    point k of parallel j: the closed form within its parallel plus
    _log_product over the others."""
    own = point_set.parallels[j - 1]
    others = [
        theta_by_query(par.count, par.height, own.height, turn, prec_bits, offset)
        for par, turn, offset in _others(point_set, j, k)
    ]
    with mp.workprec(prec_bits):
        return parallel_self_product_log(own.count, own.height, prec_bits) + _log_product(others, prec_bits)


def gap_product_by_parallel_logs(point_set: PointSet, j: int, k: int, prec_bits: int) -> mp.mpf:
    """gap_product_by_point as a sum of one log per other parallel."""
    own = point_set.parallels[j - 1]
    with mp.workprec(prec_bits):
        total = parallel_self_product_log(own.count, own.height, prec_bits)
        for par, turn, offset in _others(point_set, j, k):
            total += theta_log_by_query(par.count, par.height, own.height, turn, prec_bits, offset) / 2
        return total


def distance_sq(p: SpherePoint, q: SpherePoint) -> mp.mpf:
    """|p - q|^2 from the coordinates."""
    dx, dy, dz = p.x - q.x, p.y - q.y, p.z - q.z
    return dx * dx + dy * dy + dz * dz


def energy_by_gap_products(point_set: PointSet, prec_bits: int) -> mp.mpf:
    """E = -sum over every point p of log prod_{q != p} |p - q|: one
    within-parallel closed form plus a Theta product per other parallel
    at each of the N points."""
    with mp.workprec(prec_bits):
        total = mp.mpf(0)
        for par in point_set.parallels:
            for gap_log in point_gap_product_log(point_set, par.index, range(par.count)):
                total += gap_log
        return -total


def energy_by_resultants(point_set: PointSet) -> mp.mpf:
    """E by the discriminant identity of ``wellcond.energy``, each
    resultant formed as the exact rational (or, phased, the mpc)
    a^(q/g) - b^(r/g) of the shifts of ``family_polynomial`` and rounded
    once: -E = N(N-1) log 2 + sum_k [log(r^r |s_k|^(r-1)) + (N-1) r log w_k]
    + sum_{k<l} 2g log |s_k^(r_l/g) - s_l^(r_k/g)|, with the weight
    w = 1/(1 + rho^2) = (1 - h)/2 of each parallel."""
    N = point_set.N
    with mp.workprec(point_set.prec_bits):
        f = family_polynomial(point_set)
        total = N * (N - 1) * mp.log(2)
        for par in point_set.parallels:
            total += (N - 1) * par.count * mp.log(to_mpf((1 - par.height) / 2))
        for fac in f.factors:
            r = fac.power
            total += mp.log(to_mpf(r**r * abs(fac.shift) ** (r - 1)))
        for k, a in enumerate(f.factors):
            for b in f.factors[k + 1 :]:
                g = math.gcd(a.power, b.power)
                diff = a.shift ** (b.power // g) - b.shift ** (a.power // g)
                total += 2 * g * mp.log(to_mpf(abs(diff)))
        return -total


def coordinates_by_point(point_set: PointSet, prec_bits: int) -> list[tuple[int, int, SpherePoint]]:
    """The (parallel index, azimuth index, point) triples of the family,
    in the order of PointSet.to_json_dict's points, with every point formed
    on its own at prec_bits: radius * (cos, sin) of the exact turn 2k/r (a
    multiple of pi) plus the parallel's phase, for all r azimuths."""
    out = []
    with mp.workprec(prec_bits):
        for par in point_set.parallels:
            radius = mp.sqrt(to_mpf(par.radius_sq))
            for k in range(par.count):
                turn = Fraction(2 * k, par.count)
                ca = cos_pi_fraction(turn, par.phase)
                sa = cos_pi_fraction(turn - Fraction(1, 2), par.phase)
                out.append((par.index, k, SpherePoint(radius * ca, radius * sa, to_mpf(par.height))))
    return out


def stereographic(p: SpherePoint) -> mp.mpc:
    """Projection from the north pole to the equatorial complex plane.

    (x, y, z) on S^2 maps to (x + i y)/(1 - z); a parallel of height h
    maps to the circle of modulus rho(h) = sqrt((1+h)/(1-h)).
    """
    if p.z == 1:
        raise ValueError("north pole has no stereographic image")
    return mp.mpc(p.x, p.y) / (1 - p.z)


def inverse_stereographic(z, prec_bits: int) -> SpherePoint:
    """Inverse projection: complex z to the sphere point below it.

    |z|^2 = t gives height (t-1)/(t+1); z = 0 is the south pole.
    """
    with mp.workprec(prec_bits):
        z = mp.mpc(z)
        t = z.real * z.real + z.imag * z.imag
        denom = t + 1
        return SpherePoint(x=2 * z.real / denom, y=2 * z.imag / denom, z=(t - 1) / denom)


def product_rule_nodes(N: int) -> tuple[int, int]:
    """(Gauss-Legendre, azimuth) node counts that integrate the degree-N
    numerator exactly: after averaging over the azimuth the integrand is
    a polynomial of degree N in the height (every parallel count is
    even), and before it a trigonometric polynomial of degree N."""
    return N // 2 + 1, N + 1


def numerator_by_product_rule(point_set: PointSet, prec_bits: int) -> mp.mpf:
    """log int_S prod_j |p - p_j|^2 dsigma by the exact product rule.

    The product over the r points of one parallel at height h, seen from
    a query point at height c and azimuth offset d, is
    (x^r - y^r)^2 + 2 (xy)^r (1 - cos(r d)) with x^2 = (1-c)(1+h) and
    y^2 = (1+c)(1-h).
    """
    n_gl, n_az = product_rule_nodes(point_set.N)
    nodes, weights = gauss_legendre(n_gl, prec_bits)
    parallels = point_set.parallels
    with mp.workprec(prec_bits):
        versines = [
            [
                2 * mp.sin(par.count * (mp.pi * m / n_az - par.phase / 2)) ** 2
                for m in range(n_az)
            ]
            for par in parallels
        ]
        total = mp.mpf(0)
        for c, w in zip(nodes, weights):
            terms = []
            for par in parallels:
                h = to_mpf(par.height)
                xr = mp.sqrt((1 - c) * (1 + h)) ** par.count
                yr = mp.sqrt((1 + c) * (1 - h)) ** par.count
                terms.append(((xr - yr) ** 2, 2 * xr * yr))
            total += w * mp.fsum(
                mp.fprod(gap + rim * row[m] for (gap, rim), row in zip(terms, versines))
                for m in range(n_az)
            ) / n_az
        return mp.log(total / 2)
