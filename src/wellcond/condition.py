"""Normalized condition numbers of the canonical polynomials.

Two routes compute mu_norm for the degree-N = 4M^2 family from one
input, its point set (phases included), so each checks the other:

* coefficient route: for each root z of f,

      mu(f, z) = sqrt(N) * (1 + |z|^2)^((N-2)/2) * ||f|| / |f'(z)|

  with ||f|| the Bombieri-Weyl norm, formed once per M for every route
  (polynomials.product_norm_sq), and
  |f'(z)| from the factor-wise closed form of
  polynomials.derivative_modulus_at_root (one term per other factor,
  not N - 1 root differences), assembled in log-domain, with log N and
  log ||f||^2 formed once per pass (log_scale);

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
  are Theta products over the points.  Both routes form their factors
  through one kernel, numerics.binomial_factors, but each from its own
  exact integers (|f'| pairs roots on the plane, Theta points on the
  sphere), so the route check compares two forms.

log mu at the roots is written once, against an mpmath context: the
coefficient route evaluates it under mp.mp, certify_bound under mp.iv,
and compares the exact endpoints of the outward-rounded mu_max^2
enclosure with each threshold, so a bound verdict is a machine-checked
inequality between rationals (or inconclusive, never falsely passed).
The two float routes share one report assembly, which compares the
rounded mu_max^2 exactly and names the maximising root.  A
ConditionReport decides its own pass: `passed` only when every verdict
is True.  coefficient_report reads the coefficient route's report off
certify_bound's, so a certified run evaluates mu once.

evaluated_roots chooses, in one place, the roots (and points) every
route evaluates.  On a PointSet.symmetric point set these are the real
roots (j, 0): for zero phases every shift is positive, so each other
factor's term of |f'|^2, and each other parallel's Theta factor of a
gap product, gap + rim sin^2, is smallest where every sin^2 is 0, which
is at t = 0 on every parallel at once; so each parallel's mu peaks at
its real root (certify_bound, mu_max_spherical_route).  by_orbit then
evaluates parallels 1..M only, each mapped to it by points.mirror_index,
and every per_root entry, under mp.iv its enclosure, is its
representative's.  A phased point set is evaluated at every root.

Distance products against a full parallel use the closed form

    Theta(r, h, c, dphi) = prod_i |p - q_i|^2 = |x^r e^(i r dphi) - y^r|^2,
    x^2 = (1-c)(1+h),  y^2 = (1+c)(1-h),

for a query point at height c and azimuth offset dphi from the r
uniformly spaced points at height h, so that Theta = gap + rim
sin^2(r dphi / 2) with gap = (x^r - y^r)^2 and rim = 4 (xy)^r.  Every
count r is even and every height an exact rational, so x^r and y^r are
ratios of integers, formed per query height and parallel, and the
factors come from numerics.binomial_factors.  The offset is an exact
turn t (a multiple of pi) plus a radian offset phi, so sin^2(r (pi t +
phi)/2) is exactly zero at a coincidence when phi = 0.
log_distance_products multiplies the factors over the parallels, then
takes one log per query point; a coincidence makes a factor, so the
product, exactly 0 and the log -inf.
Where every parallel's relative offset is 0 it evaluates one turn per
orbit of points.turn_representative, the quarter turn and the
conjugation, and gives every turn its representative's value.

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
    binomial_factors,
    check_height,
    check_precision,
    context_precision,
    fmt_real,
    fraction_endpoints,
    interval_endpoints,
    log_fraction,
    sin_sq_pi,
    to_fraction,
    to_mpf,
)
from .points import Parallel, PointSet, build_point_set, mirror_index, turn_representative
from .polynomials import (
    derivative_modulus_at_root,
    factor_parallels,
    family_polynomial,
    product_norm_sq,
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
    could not resolve the comparison at the precision cap; `passed` holds
    only when every verdict is True.  The floats print at precision_bits,
    with no context entered.
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

    @property
    def passed(self) -> bool:
        """Every verdict True; an unresolved (None) verdict fails."""
        return all(v is True for v in self.verdicts.values())

    @property
    def argmax_root(self) -> str:
        """The root of per_root with the largest log mu (on a certified
        report, the largest enclosure midpoint), the first listed on a tie."""
        return max(self.per_root, key=lambda entry: entry[1])[0]

    def to_json_dict(self) -> dict:
        prec = self.precision_bits
        return {
            "M": self.M,
            "N": self.N,
            "route": self.route,
            "precision_bits": prec,
            "mu_max": fmt_real(self.mu_max, prec),
            "log_mu_max": fmt_real(self.log_mu_max, prec),
            "argmax_root": self.argmax_root,
            "per_root": [{"root": rid, "log_mu": fmt_real(lm, prec)} for rid, lm in self.per_root],
            "verdicts": dict(self.verdicts),
            "certified": self.certified,
            **self.extras,
        }


@dataclass(frozen=True)
class NumeratorIntegral:
    """log of int_S prod_j |p - p_j|^2 dsigma."""

    log_value: mp.mpf
    # No quadrature nodes are used; perfbench/spans.py reads their
    # product as the condition.quadrature_nodes counter.
    gl_nodes = azimuth_nodes = 0


def route_tolerance(N: int, prec_bits: int) -> mp.mpf:
    """The relative gap N * 2^-(prec_bits - 8) allowed between the routes'
    mu_max: log mu sums terms of size N, so the routes round about N ulps
    apart (at most 2.88 N measured up to M=128); 2^8 N leaves room."""
    return N * mp.ldexp(1, 8 - prec_bits)


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


def log_scale(N: int, norm_sq, prec_bits: int = DEFAULT_PREC_BITS, ctx=mp.mp) -> tuple:
    """(log N, log ||f||^2) under ctx at prec_bits, with ||f||^2 = norm_sq
    (a Fraction or an mpf, taken exactly): log_mu_at_root's scale, formed
    once per pass over the roots."""
    with context_precision(ctx, prec_bits):
        return ctx.log(N), log_fraction(ctx, to_fraction(norm_sq))


def log_mu_at_root(
    root: Parallel, others: Sequence[Parallel], azimuths: Sequence[int], log_n, log_norm_sq,
    prec_bits: int = DEFAULT_PREC_BITS, ctx=mp.mp,
) -> list:
    """log mu(f, z) at the roots z_t, t in `azimuths`, of the factor of
    parallel `root` of the f with other factors `others`
    (polynomials.derivative_modulus_at_root), of degree N the sum of the
    counts, under ctx at prec_bits, with (log N, log ||f||^2) =
    (log_n, log_norm_sq) of log_scale:

        log mu = (log N + (N-2) log(1 + rho^2) + log ||f||^2) / 2 - log |f'(z)|;

    +inf at a repeated root, where log |f'| = -inf."""
    N = root.count + sum(par.count for par in others)
    log_fps = derivative_modulus_at_root(root, others, azimuths, prec_bits, ctx)
    with context_precision(ctx, prec_bits):
        log_w = log_fraction(ctx, 1 + root.rho_sq)  # log(1 + |z|^2)
        base = (log_n + (N - 2) * log_w + log_norm_sq) / 2
        return [base - log_fp for log_fp in log_fps]


def evaluated_roots(point_set: PointSet, parallels: Sequence[Parallel]) -> list[tuple[int, int]]:
    """The (parallel j, azimuth t) roots, or points, at which every route
    evaluates mu, over `parallels` in their order: on a symmetric point
    set (PointSet.symmetric) the real root t = 0 of each, where each
    parallel's mu peaks (certify_bound, mu_max_spherical_route), else
    every root."""
    if point_set.symmetric:
        return [(par.index, 0) for par in parallels]
    return [(par.index, t) for par in parallels for t in range(par.count)]


def by_orbit(point_set: PointSet, points, evaluate) -> list[tuple[str, object]]:
    """[(p{j}.k{t}, value)] in the order of `points` for (parallel j,
    azimuth t) pairs of the point set, evaluate(j, ts) called once per
    parallel j on its representatives' ascending azimuths ts; on a
    symmetric point set (j, t) is represented on min(j, mirror_index(M, j))."""
    M, symmetric = point_set.M, point_set.symmetric
    reps = [(min(j, mirror_index(M, j)), t) if symmetric else (j, t) for j, t in points]
    turns: dict[int, list[int]] = {}
    for j, t in sorted(set(reps)):
        turns.setdefault(j, []).append(t)
    values = {(j, t): v for j, ts in turns.items() for t, v in zip(ts, evaluate(j, ts))}
    return [(f"p{j}.k{t}", values[rep]) for (j, t), rep in zip(points, reps)]


def _log_mu_per_root(point_set: PointSet, norm_sq, prec_bits: int, ctx):
    """by_orbit of log mu under ctx at prec_bits, ||f||^2 = norm_sq, over
    the evaluated_roots, in factor order, of the point set's family
    polynomial."""
    pars = {par.index: par for par in factor_parallels(point_set.parallels)}
    log_n, log_norm_sq = log_scale(point_set.N, norm_sq, prec_bits, ctx)
    return by_orbit(
        point_set, evaluated_roots(point_set, pars.values()),
        lambda j, ts: log_mu_at_root(
            pars[j], [p for i, p in pars.items() if i != j], ts, log_n, log_norm_sq, prec_bits, ctx
        ),
    )


def _float_report(M: int, route: str, prec_bits: int, per_root: list, **extras) -> ConditionReport:
    """The uncertified report of a route from its per_root listing of
    log mu: mu_max = exp of their max, with exact verdicts on mu_max^2
    as rounded."""
    N = 4 * M * M
    with mp.workprec(prec_bits):
        log_mu_max = max(lm for _, lm in per_root)
        mu_max = mp.exp(log_mu_max)
        verdicts = _bound_verdicts(N, to_fraction(mu_max) ** 2)
    return ConditionReport(
        M=M,
        N=N,
        route=route,
        precision_bits=prec_bits,
        mu_max=mu_max,
        log_mu_max=log_mu_max,
        per_root=per_root,
        verdicts=verdicts,
        certified=False,
        extras=extras,
    )


def mu_max_coefficient_route(
    M: int, prec_bits: int = DEFAULT_PREC_BITS, phases: Sequence | None = None
) -> ConditionReport:
    """max mu over all roots of the family polynomial of M and the phases
    of points.build_point_set, coefficient route.

    mu is evaluated by by_orbit at evaluated_roots, in factor order: with
    every phase 0 the real roots, where each parallel's mu peaks
    (certify_bound proves it).
    """
    point_set = build_point_set(M, phases=phases, prec_bits=prec_bits)
    with mp.workprec(prec_bits):  # a phased ||f||^2 is an mpf at this precision
        norm_sq = product_norm_sq(family_polynomial(point_set))
    per_root = _log_mu_per_root(point_set, norm_sq, prec_bits, mp.mp)
    return _float_report(M, "coefficient", prec_bits, per_root)


def coefficient_report(certified: ConditionReport) -> ConditionReport:
    """The coefficient route's report of the zero-phase family, read off
    certify_bound's report `certified`: the midpoints of its log mu
    enclosures at the real roots, the roots mu_max_coefficient_route
    evaluates, with mu_max and the verdicts formed from them as that
    route forms its own, so a certified run evaluates mu once."""
    return _float_report(certified.M, "coefficient", certified.precision_bits, certified.per_root)


def theta_product_log_turn(
    r: int,
    h,
    heights: Sequence,
    turns: Sequence,
    prec_bits: int = DEFAULT_PREC_BITS,
    offset=0,
) -> list[list[mp.mpf]]:
    """Theta in product form for every query height c in `heights` and
    azimuth offset pi * turn + offset (radians), turn in `turns`: factors
    with log Theta = log factors[i][m] at the query (heights[i], turns[m]).

    For an even count r = 2e, c = p/q and h = u/v, each factor is

        Theta = gap + rim sin^2(r (pi turn + offset) / 2),
        gap = ((a - b) / D)^2,  rim = 4 (a / D)(b / D),

    with x^r = a / D and y^r = b / D exact: a = ((q - p)(v + u))^e,
    b = ((q + p)(v - u))^e, D = (qv)^e, from numerics.binomial_factors,
    and sin^2 taken once per turn.  With a zero offset, rational turns
    keep coincidences exact: a factor is 0 precisely when the query point
    equals a parallel point.
    """
    check_precision(prec_bits)
    if not isinstance(r, int) or r < 2 or r % 2:
        raise ValueError(f"point count must be a positive even integer, got {r!r}")
    e, h = r // 2, check_height(h)
    u, v = h.numerator, h.denominator
    heights = [check_height(c) for c in heights]
    with mp.workprec(prec_bits):
        shift = r * offset / 2
        sin_sqs = [
            sin_sq_pi(mp.mp, Fraction(r * t.numerator, 2 * t.denominator), shift)
            for t in map(Fraction, turns)
        ]
        return [
            binomial_factors(
                mp.mp, ((q - p) * (v + u)) ** e, ((q + p) * (v - u)) ** e, (q * v) ** e, sin_sqs
            )
            for p, q in ((c.numerator, c.denominator) for c in heights)
        ]


def log_distance_products(
    parallels: Sequence, heights: Sequence, turns: Sequence, prec_bits: int, offset=0
) -> list[list[mp.mpf]]:
    """log prod over the points of `parallels` of |p - q| for every query
    q at a height c in `heights` and azimuth pi * turn + offset - phase
    of each parallel, turn in `turns`: row i, column m is the query
    (heights[i], turns[m]).

    The Theta grids' factors are multiplied over the parallels and each
    query takes one log; a coincidence with a point of a zero-offset
    parallel gives -inf.  When every offset - phase is 0, each turn
    reads its points.turn_representative's column, since every family
    count is a multiple of 4.
    """
    if all(par.phase == offset for par in parallels):
        turns = [turn_representative(t) for t in turns]
    column = {t: m for m, t in enumerate(dict.fromkeys(turns))}
    distinct, picks = list(column), [column[t] for t in turns]
    with mp.workprec(prec_bits):
        products = [[mp.mpf(1)] * len(distinct) for _ in heights]
        for par in parallels:
            factors = theta_product_log_turn(
                par.count, par.height, heights, distinct, prec_bits, offset - par.phase
            )
            products = [[p * f for p, f in zip(row, fs)] for row, fs in zip(products, factors)]
        logs = [[mp.log(p) / 2 for p in row] for row in products]
    return [[row[m] for m in picks] for row in logs]


def parallel_self_product_log(
    r: int, h, prec_bits: int = DEFAULT_PREC_BITS
) -> mp.mpf:
    """log prod_{k=1}^{r-1} |p_k - p_0| within one parallel.

    For r equally spaced points on a circle of radius sqrt(1 - h^2) the
    product of distances from any fixed point to all others is
    r * radius^(r-1), i.e. the log is log r + (r-1)/2 * log(1 - h^2).
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"point count must be a positive integer, got {r!r}")
    check_precision(prec_bits)
    h = to_fraction(h)
    if abs(h) >= 1:
        raise ValueError("parallel height must satisfy |h| < 1")
    with mp.workprec(prec_bits):
        return mp.log(r) + mp.mpf(r - 1) / 2 * mp.log(to_mpf(1 - h * h))


def numerator_integral_log(point_set: PointSet) -> NumeratorIntegral:
    """log of int_S prod_j |p - p_j|^2 dsigma(p) over the whole family,
    at the point set's precision.

    Evaluates 4^N ||f||^2 / ((N+1) prod_k (1 + rho_k^2)^(r_k)) for the f
    of polynomials.family_polynomial, with the exact weights
    1/(1 + rho_k^2) = (1 - h_k)/2 of the parallels, as one ratio of
    integers rounded once (a phased ||f||^2, an mpf, taken exactly).
    """
    N = point_set.N
    num, den = 4**N, N + 1
    for par in point_set.parallels:  # (1 - h) / 2 = (v - u) / 2v for h = u / v
        u, v = par.height.numerator, par.height.denominator
        num, den = num * (v - u) ** par.count, den * (2 * v) ** par.count
    with mp.workprec(point_set.prec_bits):
        norm_sq = to_fraction(product_norm_sq(family_polynomial(point_set)))
        num, den = num * norm_sq.numerator, den * norm_sq.denominator
        return NumeratorIntegral(log_value=log_fraction(mp.mp, num, den))


def point_gap_product_log(
    point_set: PointSet, parallel_index: int, azimuths: Sequence[int]
) -> list[mp.mpf]:
    """log prod over all other family points of |p - p_other|, for the
    point p of azimuth index k on the given parallel, each k in `azimuths`,
    at the point set's precision.

    Splits into the closed-form product within the point's own parallel,
    formed once, and log_distance_products over the other parallels:
    the exact gap (and, off the real point, rim) once per pair of
    parallels, sin^2 once per point and parallel, one log per point.
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

    mu at a point is a constant less its gap product's log, so mu_max
    sits where a gap product is smallest.  With every phase 0 that is at
    a real point (j, 0): against each other parallel m the point k of
    parallel j has Theta = gap + rim sin^2(pi r_m k / r_j), where
    gap >= 0 and rim >= 0 depend only on the two heights, and
    its own parallel's product does not depend on k, so every factor, and
    the gap product, is smallest at k = 0, where every sin^2 is 0.  So the
    route evaluates by_orbit at evaluated_roots, in parallel order.
    """
    point_set = build_point_set(M, phases=phases, prec_bits=prec_bits)
    num = numerator_integral_log(point_set)
    N = point_set.N
    with mp.workprec(prec_bits):
        base = (
            -mp.log(2)
            + (mp.log(N) + mp.log(N + 1)) / 2
            + num.log_value / 2
        )
        per_root = by_orbit(
            point_set, evaluated_roots(point_set, point_set.parallels),
            lambda j, ks: [base - g for g in point_gap_product_log(point_set, j, ks)],
        )
    return _float_report(
        M, "spherical", prec_bits, per_root, symmetry_reduced=point_set.symmetric
    )


def certify_bound(M: int, prec_bits: int = DEFAULT_PREC_BITS) -> ConditionReport:
    """Certified verdicts for the three standard bounds on mu_max.

    mu_max is attained at a real root: at the root z_t = rho_j e^(2 pi i t / r_j)
    of parallel j, each other factor m contributes

        |z_t^(r_m) - s_m|^2 = (rho_j^(r_m) - s_m)^2 + 4 rho_j^(r_m) s_m sin^2(pi r_m t / r_j)
                           >= (rho_j^(r_m) - s_m)^2,

    since s_m > 0, with equality at t = 0 for every m at once, while the
    root's own factor, r_j rho_j^(r_j - 1), and (1 + rho_j^2)^(N-2) ||f||^2
    do not depend on t.
    So mu(f, z_t) <= mu(f, rho_j), and mu_max is the largest mu at the
    real roots (j, 0), evaluated_roots of the zero-phase family, which
    by_orbit evaluates.  It encloses log mu there under mp.iv and
    compares the exact endpoints of the resulting mu_max^2 enclosure
    against each threshold
    of BOUNDS (N^2, (19/2)^2 (N+1), (227/500)^2 N), doubling the interval
    precision until each verdict resolves or it reaches
    CERTIFY_PREC_FACTOR times the working precision; unresolved
    comparisons are reported as None, never as a pass.  per_root lists
    the 2M - 1 real roots p{j}.k0 in factor order.
    """
    point_set = build_point_set(M, prec_bits=prec_bits)
    cap_bits = CERTIFY_PREC_FACTOR * prec_bits
    N = point_set.N
    norm_sq = product_norm_sq(family_polynomial(point_set))
    iv_prec = prec_bits
    while True:
        per_root = _log_mu_per_root(point_set, norm_sq, iv_prec, mp.iv)
        top = [max(lm.a for _, lm in per_root), max(lm.b for _, lm in per_root)]
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
        per_root = [(rid, to_mpf(sum(fraction_endpoints(lm)) / 2)) for rid, lm in per_root]
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
