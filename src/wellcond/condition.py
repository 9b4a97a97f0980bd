"""Normalized condition numbers of the canonical polynomials.

Two routes compute mu_norm for the degree-N = 4M^2 family:

* coefficient route: for each root z of f,

      mu(f, z) = sqrt(N) * (1 + |z|^2)^((N-2)/2) * ||f|| / |f'(z)|

  with ||f|| the Bombieri-Weyl norm, formed once per M for every route
  (polynomials.product_norm_sq), and
  |f'(z)| from the factor-wise closed form of
  polynomials.derivative_modulus_at_root (one term per other factor,
  not N - 1 root differences), assembled in log-domain;

* spherical route: with the roots pushed onto the sphere by inverse
  stereographic projection,

      mu_max = 1/2 * sqrt(N(N+1)) * (int_S prod_j |p - p_j|^2 dsigma)^(1/2)
               / min_i prod_{j != i} |p_i - p_j|,

  where the numerator integral I is the identity

      I = 4^N ||f||^2 / ((N+1) prod_k (1 + rho_k^2)^(r_k)),

  from the chordal distance |p - p_j|^2 = 4 |z - z_j|^2 /
  ((1+|z|^2)(1+|z_j|^2)) and the Bombieri-Weyl integral
  int_S |f|^2 / (1+|z|^2)^N dsigma = ||f||^2 / (N+1) (Shub & Smale,
  Complexity of Bezout's theorem I), and the per-point denominators
  are Theta products over the points.  Both routes assemble the kernel
  numerics.two_term_log: gap products over heights here, |f'| over
  moduli there, so the route check compares two assemblies of it.

log mu at the roots is written once, against an mpmath context: the
coefficient route evaluates it under mp.mp, certify_bound under mp.iv,
and compares the exact endpoints of the outward-rounded mu_max^2
enclosure with each threshold, so a bound verdict is a machine-checked
inequality between rationals (or inconclusive, never falsely passed).

Each route evaluates one root (or point) per orbit of the family's
symmetry group, points.orbit_representative: the quarter turn, the
conjugation and the mirror j <-> 2M - j, the last exact because
z^N P(1/z) = -P(z) and mu_norm is invariant under the rotation z -> 1/z
of the Riemann sphere.  Every per_root entry, and under mp.iv its
enclosure, is its representative's.

Distance products against a full parallel use the closed form

    Theta(r, h, c, dphi) = prod_i |p - q_i|^2 = |x^r e^(i r dphi) - y^r|^2,
    x^2 = (1-c)(1+h),  y^2 = (1+c)(1-h),

for a query point at height c and azimuth offset dphi from the r
uniformly spaced points at height h: the kernel with R = r, so that
log Theta = base + log(gap + rim sin^2(r dphi / 2)).  The offset is an
exact turn t (a multiple of pi) plus a radian offset phi, so
sin^2(r (pi t + phi)/2) is exactly zero at a coincidence when phi = 0.
theta_product_log_turn evaluates a grid of heights x turns against one
parallel in this product form: log(1 +- u) once per height u, the base
per (parallel, height), sin^2 per (parallel, turn) and the linear factor
gap + rim sin^2 per cell, with no log.  log_distance_products sums the
bases and multiplies the factors over the parallels, then takes one log
per query point; a coincidence makes a factor, so the product, exactly
0 and the log -inf.

Precision has one source per input: numerator_integral_log and
point_gap_product_log read the prec_bits of the point set they take,
the routes and the Theta forms take prec_bits with M or a raw (r, h),
and a ConditionReport prints its floats at the precision_bits it
records, whatever the caller's mpmath context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .numerics import (
    DEFAULT_PREC_BITS,
    check_precision,
    context_precision,
    fmt_real,
    fraction_endpoints,
    interval_endpoints,
    log_fraction,
    log_one_pm,
    sin_sq_pi,
    to_fraction,
    to_mpf,
    two_term_log,
)
from .points import PointSet, build_point_set, orbit_representative
from .polynomials import (
    RootDerivative,
    canonical_norm_sq,
    derivative_modulus_at_root,
    family_polynomial,
    product_norm_sq,
    root_derivative_data,
)

LOWER_CONST = Fraction(227, 500)  # 0.454, the floor on mu_max / sqrt(N)
CERTIFY_PREC_FACTOR = 16  # cap on certify_bound's interval precision, x working precision

# Bound id -> (exact threshold on mu_max^2 at degree N, side): an
# "upper" bound holds when mu_max^2 <= threshold, a "lower" one when >=.
BOUNDS = {
    "le_N": (lambda N: Fraction(N) ** 2, "upper"),
    "le_19half_sqrt": (lambda N: Fraction(361, 4) * (N + 1), "upper"),
    "ge_lower": (lambda N: LOWER_CONST**2 * N, "lower"),
}


@dataclass
class ConditionReport:
    """Outcome of one condition-number computation.

    verdicts maps bound ids to True/False, or None when a certified run
    could not resolve the comparison at the precision cap.  The floats
    print at precision_bits.
    """

    M: int
    N: int
    route: str
    precision_bits: int
    mu_max: mp.mpf
    log_mu_max: mp.mpf
    per_root: list[tuple[str, mp.mpf]]
    verdicts: dict[str, bool | None]
    certified: bool
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        with mp.workprec(self.precision_bits):
            out = {
                "M": self.M,
                "N": self.N,
                "route": self.route,
                "precision_bits": self.precision_bits,
                "mu_max": fmt_real(self.mu_max),
                "log_mu_max": fmt_real(self.log_mu_max),
                "per_root": [
                    {"root": rid, "log_mu": fmt_real(lm)} for rid, lm in self.per_root
                ],
                "verdicts": dict(self.verdicts),
                "certified": self.certified,
            }
        out.update(self.extras)
        return out


@dataclass(frozen=True)
class NumeratorIntegral:
    """log of int_S prod_j |p - p_j|^2 dsigma."""

    log_value: mp.mpf
    # No quadrature nodes are used; perfbench/spans.py reads their
    # product as the condition.quadrature_nodes counter.
    gl_nodes = azimuth_nodes = 0


def _bound_verdicts(
    N: int, sq_lo: Fraction, sq_hi: Fraction | None = None
) -> dict[str, bool | None]:
    """Exact verdicts on BOUNDS for mu_max^2 in [sq_lo, sq_hi] (default
    [sq_lo, sq_lo]); None where the enclosure straddles a threshold."""
    sq_hi = sq_lo if sq_hi is None else sq_hi
    verdicts: dict[str, bool | None] = {}
    for key, (threshold, side) in BOUNDS.items():
        t = threshold(N)
        if side == "upper":
            verdicts[key] = True if sq_hi <= t else False if sq_lo > t else None
        else:
            verdicts[key] = True if sq_lo >= t else False if sq_hi < t else None
    return verdicts


def log_mu_at_root(
    root: RootDerivative, N: int, norm_sq: Fraction, prec_bits: int = DEFAULT_PREC_BITS, ctx=mp.mp,
    azimuths=None,
) -> list:
    """log mu(f, z) at the roots z_t, t in `azimuths` (default all), of one
    factor of the degree-N family with ||f||^2 = norm_sq, under ctx:

        log mu = (log N + (N-2) log(1 + rho^2) + log ||f||^2) / 2 - log |f'(z)|;

    +inf at a repeated root, where log |f'| = -inf."""
    log_fps = derivative_modulus_at_root(root, prec_bits, ctx, azimuths)
    with context_precision(ctx, prec_bits):
        log_w = log_fraction(ctx, 1 + root.rho_sq)  # log(1 + |z|^2)
        base = (ctx.log(N) + (N - 2) * log_w + log_fraction(ctx, norm_sq)) / 2
        return [base - log_fp for log_fp in log_fps]


def by_orbit(M: int, points, evaluate, symmetric: bool = True):
    """([(p{j}.k{t}, value)] in the order of `points`, {representative: value})
    for (parallel j, azimuth t) pairs, evaluate(j, ts) called once per parallel
    j on its representatives' ascending azimuths ts; a representative is
    points.orbit_representative's, or the point itself if not `symmetric`."""
    reps = [orbit_representative(M, j, t) if symmetric else (j, t) for j, t in points]
    turns: dict[int, list[int]] = {}
    for j, t in sorted(set(reps)):
        turns.setdefault(j, []).append(t)
    values = {(j, t): v for j, ts in turns.items() for t, v in zip(ts, evaluate(j, ts))}
    return [(f"p{j}.k{t}", values[rep]) for (j, t), rep in zip(points, reps)], values


def _log_mu_per_root(M: int, norm_sq: Fraction, prec_bits: int, ctx):
    """by_orbit of log mu under ctx at prec_bits, ||f||^2 = norm_sq, over
    every root of the canonical polynomial of M, in factor order."""
    data = {root.parallel: root for root in root_derivative_data(M)}
    return by_orbit(
        M, [(j, t) for j, root in data.items() for t in range(root.power)],
        lambda j, ts: log_mu_at_root(data[j], 4 * M * M, norm_sq, prec_bits, ctx, ts),
    )


def mu_max_coefficient_route(
    M: int, prec_bits: int = DEFAULT_PREC_BITS
) -> ConditionReport:
    """max mu over all roots of the canonical polynomial, coefficient route."""
    check_precision(prec_bits)
    N = 4 * M * M
    per_root, values = _log_mu_per_root(M, canonical_norm_sq(M), prec_bits, mp.mp)
    with mp.workprec(prec_bits):
        log_mu_max = max(values.values())
        mu_max = mp.exp(log_mu_max)
        verdicts = _bound_verdicts(N, to_fraction(mu_max) ** 2)
    return ConditionReport(
        M=M,
        N=N,
        route="coefficient",
        precision_bits=prec_bits,
        mu_max=mu_max,
        log_mu_max=log_mu_max,
        per_root=per_root,
        verdicts=verdicts,
        certified=False,
    )


def theta_product_log_turn(
    r: int,
    h,
    heights: Sequence,
    turns: Sequence,
    prec_bits: int = DEFAULT_PREC_BITS,
    offset=0,
) -> tuple[list[mp.mpf], list[list[mp.mpf]]]:
    """log Theta in product form for every query height c in `heights` and
    azimuth offset pi * turn + offset (radians), turn in `turns`:
    (bases, factors) with log Theta = bases[i] + log factors[i][m] at the
    query (heights[i], turns[m]).

    The base and the factor gap + rim sin^2 are numerics.two_term_log's,
    (base, gap, rim) formed once per height, sin^2 once per turn; no cell
    takes a log.  With a zero offset, rational turns keep coincidences
    exact: a factor is 0 precisely when the query point equals a
    parallel point.
    """
    check_precision(prec_bits)
    with mp.workprec(prec_bits):
        sin_sqs = [sin_sq_pi(mp.mp, r * Fraction(turn) / 2, r * offset / 2) for turn in turns]
        log_hp, log_hm = log_one_pm(to_fraction(h), prec_bits)
        bases, factors = [], []
        for c in heights:
            log_cp, log_cm = log_one_pm(to_fraction(c), prec_bits)
            base, gap, rim = two_term_log(mp.mp, r, log_cm + log_hp, log_cp + log_hm)
            bases.append(base)
            factors.append([gap + rim * s for s in sin_sqs])
        return bases, factors


def log_distance_products(
    parallels: Sequence, heights: Sequence, turns: Sequence, prec_bits: int, offset=0
) -> list[list[mp.mpf]]:
    """log prod over the points of `parallels` of |p - q| for every query
    q at a height c in `heights` and azimuth pi * turn + offset - phase
    of each parallel, turn in `turns`: row i, column m is the query
    (heights[i], turns[m]).

    The Theta grids' bases are summed and their factors multiplied over
    the parallels, then each query takes one log; a coincidence with a
    point of a zero-offset parallel gives -inf.
    """
    with mp.workprec(prec_bits):
        bases = [mp.mpf(0)] * len(heights)
        products = [[mp.mpf(1)] * len(turns) for _ in heights]
        for par in parallels:
            par_bases, factors = theta_product_log_turn(
                par.count, par.height, heights, turns, prec_bits, offset - par.phase
            )
            bases = [b + pb for b, pb in zip(bases, par_bases)]
            products = [[p * f for p, f in zip(row, fs)] for row, fs in zip(products, factors)]
        return [[(b + mp.log(p)) / 2 for p in row] for b, row in zip(bases, products)]


def parallel_self_product_log(
    r: int, h, prec_bits: int = DEFAULT_PREC_BITS
) -> mp.mpf:
    """log prod_{k=1}^{r-1} |p_k - p_0| within one parallel.

    For r equally spaced points on a circle of radius sqrt(1 - h^2) the
    product of distances from any fixed point to all others is
    r * radius^(r-1), i.e. the log is log r + (r-1)/2 * log(1 - h^2).
    A single-point parallel gives the empty product, log 1 = 0.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"point count must be a positive integer, got {r!r}")
    check_precision(prec_bits)
    if r == 1:
        return mp.mpf(0)
    h = to_fraction(h)
    if abs(h) >= 1:
        raise ValueError("parallel height must satisfy |h| < 1")
    with mp.workprec(prec_bits):
        return mp.log(r) + mp.mpf(r - 1) / 2 * mp.log(to_mpf(1 - h * h))


def numerator_integral_log(point_set: PointSet) -> NumeratorIntegral:
    """log of int_S prod_j |p - p_j|^2 dsigma(p) over the whole family,
    at the point set's precision.

    Evaluates 4^N ||f||^2 / ((N+1) prod_k (1 + rho_k^2)^(r_k)) for the
    f and the weights 1/(1 + rho_k^2) of polynomials.family_polynomial;
    with every phase 0 the value is an exact rational, rounded once.
    """
    N = point_set.N
    with mp.workprec(point_set.prec_bits):
        f, weights = family_polynomial(point_set)
        scale = Fraction(4**N, N + 1)
        for fac, w in zip(f.factors, weights):
            scale *= w**fac.power
        value = to_mpf(scale * product_norm_sq(f))
        return NumeratorIntegral(log_value=mp.log(value))


def point_gap_product_log(
    point_set: PointSet, parallel_index: int, azimuths: Sequence[int]
) -> list[mp.mpf]:
    """log prod over all other family points of |p - p_other|, for the
    point p of azimuth index k on the given parallel, each k in `azimuths`,
    at the point set's precision.

    Splits into the closed-form product within the point's own parallel,
    formed once, and log_distance_products over the other parallels:
    (base, gap, rim) once per pair of parallels, sin^2 once per point
    and parallel, one log per point.
    """
    prec_bits = point_set.prec_bits
    parallels = point_set.parallels
    own = parallels[parallel_index - 1]
    if own.index != parallel_index:
        raise ValueError("parallel list is not indexed contiguously")
    turns = [Fraction(2 * k, own.count) for k in azimuths]
    others = [par for par in parallels if par.index != parallel_index]
    with mp.workprec(prec_bits):
        own_log = parallel_self_product_log(own.count, own.height, prec_bits)
        (row,) = log_distance_products(others, [own.height], turns, prec_bits, own.phase)
        return [own_log + lg for lg in row]


def mu_max_spherical_route(
    M: int,
    prec_bits: int = DEFAULT_PREC_BITS,
    phases: Sequence | None = None,
) -> ConditionReport:
    """Spherical-route mu_max for the family of parameter M.

    With every phase 0 only the orbit representatives' gap products are
    evaluated, and per_root lists each parallel's points k < r/4 with
    their representatives' values; a phased family is evaluated at and
    lists every point.
    """
    point_set = build_point_set(M, phases=phases, prec_bits=prec_bits)
    num = numerator_integral_log(point_set)
    N = point_set.N
    reducible = all(par.phase == 0 for par in point_set.parallels)
    everywhere = [(par, k) for par in point_set.parallels for k in range(par.count)]
    with mp.workprec(prec_bits):
        base = (
            -mp.log(2)
            + (mp.log(N) + mp.log(N + 1)) / 2
            + num.log_value / 2
        )
        per_point, values = by_orbit(
            M, [(par.index, k) for par, k in everywhere],
            lambda j, ks: [base - g for g in point_gap_product_log(point_set, j, ks)], reducible,
        )
        per_root = [
            entry for entry, (par, k) in zip(per_point, everywhere)
            if not reducible or 4 * k < par.count
        ]
        log_mu_max = max(values.values())
        mu_max = mp.exp(log_mu_max)
        verdicts = _bound_verdicts(N, to_fraction(mu_max) ** 2)
    return ConditionReport(
        M=point_set.M,
        N=N,
        route="spherical",
        precision_bits=prec_bits,
        mu_max=mu_max,
        log_mu_max=log_mu_max,
        per_root=per_root,
        verdicts=verdicts,
        certified=False,
        extras={"symmetry_reduced": reducible},
    )


def certify_bound(M: int, prec_bits: int = DEFAULT_PREC_BITS) -> ConditionReport:
    """Certified verdicts for the three standard bounds on mu_max.

    Encloses log mu at each orbit representative, so at every root, under
    mp.iv and compares the exact endpoints of the resulting mu_max^2
    enclosure against each threshold of BOUNDS (N^2, (19/2)^2 (N+1),
    (227/500)^2 N), doubling the interval precision until each verdict
    resolves or it reaches CERTIFY_PREC_FACTOR times the working
    precision; unresolved comparisons are reported as None, never as a pass.
    """
    check_precision(prec_bits)
    cap_bits = CERTIFY_PREC_FACTOR * prec_bits
    N = 4 * M * M
    norm_sq = canonical_norm_sq(M)
    iv_prec = prec_bits
    while True:
        per_root, values = _log_mu_per_root(M, norm_sq, iv_prec, mp.iv)
        top = [max(lm.a for lm in values.values()), max(lm.b for lm in values.values())]
        sq_lo, sq_hi = interval_endpoints(lambda iv: iv.exp(2 * iv.mpf(top)), iv_prec)
        verdicts = _bound_verdicts(N, sq_lo, sq_hi)
        if all(v is not None for v in verdicts.values()) or iv_prec >= cap_bits:
            break
        iv_prec = min(2 * iv_prec, cap_bits)

    with mp.workprec(prec_bits):
        mu_lo = mp.sqrt(to_mpf(sq_lo))
        mu_hi = mp.sqrt(to_mpf(sq_hi))
        mu_mid = (mu_lo + mu_hi) / 2
        log_mu = mp.log(mu_mid)
        # an orbit's roots share one interval object: one conversion each
        mids = {id(lm): to_mpf(sum(fraction_endpoints(lm)) / 2) for lm in values.values()}
        per_root = [(rid, mids[id(lm)]) for rid, lm in per_root]
        # Verdicts come from the exact rational comparison above; the
        # extras are decimal views of the enclosure, widened by an ulp
        # so lo <= true mu_max <= hi survives the formatting rounding.
        slack = mp.mpf(2) ** (8 - prec_bits)
        extras = {
            "mu_max_lo": fmt_real(mu_lo * (1 - slack)),
            "mu_max_hi": fmt_real(mu_hi * (1 + slack)),
            "cos_precision_bits": iv_prec,
        }
    return ConditionReport(
        M=M,
        N=N,
        route="coefficient-certified",
        precision_bits=prec_bits,
        mu_max=mu_mid,
        log_mu_max=log_mu,
        per_root=per_root,
        verdicts=verdicts,
        certified=all(v is not None for v in verdicts.values()),
        extras=extras,
    )
