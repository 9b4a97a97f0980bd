"""Logarithmic energy of the point families and the bound machinery.

The discrete logarithmic energy of a finite set P on the sphere is

    E(P) = sum_{i != j} log 1/|p_i - p_j|,

to be compared with kappa N^2 - (N/2) log N where

    kappa = 1/2 - log 2 = - int_S int_S log|p - q| dsigma dsigma.

For the family, E is an identity in the monic f = prod_k (z^(r_k) - s_k)
whose roots z_i project to the points, s_k = rho_k^(r_k) e^(i r_k phi_k)
(polynomials.family_polynomial): by the chordal distance
|p_i - p_j|^2 = 4 |z_i - z_j|^2 / ((1+|z_i|^2)(1+|z_j|^2)),

    -E = N(N-1) log 2 + log|Disc f| - (N-1) sum_k r_k log(1 + rho_k^2),

with |Disc(z^r - s)| = r^r |s|^(r-1) and |Res(z^r - a, z^q - b)| =
|a^(q/g) - b^(r/g)|^g, g = gcd(r, q) (Shub & Smale, Complexity of
Bezout's theorem III): |a^(q/g) - b^(r/g)|^2 is the kernel
numerics.two_term_log with R = lcm(r, q), in the log domain, since the
exact powers would run to R (up to 16,128 at M = 64) times the bits of
a height; the Theta products, with R = r, take exact terms instead.

The workhorse quantities, for a query point q at height c:

* expected_log_parallel(t, c): the average of log|p - q| over the
  parallel at height t,

      (1/2)(log(1+t) + log(1-c))   if t >= c,
      (1/2)(log(1-t) + log(1+c))   if t <  c;

* band_integral(h, eps, c): (1/2) * int_{h-eps}^{h+eps} of the above in
  t, i.e. the contribution of the band's surface measure, in closed form
  via the antiderivatives (1+u)log(1+u) - u and -(1-u)log(1-u) - u;

* S_N(c) = sum_j r_j * expected_log_parallel(h_j, c): the parallel-sum
  surrogate for N times the continuous field;

* T_ell: the second-order correction sum_{j != ell}
  r_j^3 / (12 N^2 (1 -+ h_j)^2), an exact rational.

The verify_* functions report signed margins for each inequality in the
chain that controls the condition number: comparison windows between a
parallel average and its band average, the window and chain bounds on
S_N + N kappa, and the upper/lower bounds on products of distances from
a query point (or a family point) to the whole family.  Their probe
heights come from one grid per seed, _probe_grid, which draws every
band's band_probe_heights from one random.Random(seed) in band order,
so the suites that probe the first M bands read the heights
verify_comparison probes there.  Every two-sided cell is one of the
pair ComparisonMargins.cells forms from its cached margins.  SUITES
declares each verify_* function's lemmas and hypothesis.  Each report
decides for itself: `passed` from its margins, and `gated`, set where
the report is built, False below the hypothesis; verification_suite
alone refuses by it.

The suites form each transcendental value once per index it depends
on: log(1 +- u) and the antiderivatives once per height (a parallel, a
probe or a band edge) and precision, in a record (_height) memoised
across the suites and across every S_N, which reads each parallel's;
each band's window constants once, with the outside window's value
once per side of the band (the query's log cancels), and its inside
probes by two bisections over the probe heights, ranked once; and the
distance products through the Theta grids of
condition.theta_product_log_turn in product form: each probe height's
exact powers once, the linear factors multiplied over the parallels,
one log per query point and turn orbit.  The single-pair
expected_log_parallel and band_integral evaluate the same cores
(_height, _band) as the suites' hoisted loops.

Heights (t, h, c, eps) are exact rationals: every public function here
converts its height arguments once at entry with numerics.to_fraction,
so an int, float or mpf input gives the same bits as the equal
Fraction.  A query azimuth is an exact turn (a multiple of pi) plus a
radian offset, as in condition.theta_product_log_turn.

log_energy and log_product_to_set compute at the prec_bits of the point
set they take; a VerificationReport records its precision_bits,
derives its tolerance from it and prints its floats at it, passing it to
each cell's fmt_real, so printing enters no working precision.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import mpmath as mp

from .condition import by_orbit, log_distance_products, point_gap_product_log
from .numerics import (
    DEFAULT_PREC_BITS,
    check_height,
    check_precision,
    fmt_real,
    frac_str,
    log_fraction,
    sin_sq_pi,
    to_fraction,
    to_mpf,
    two_term_log,
)
from .points import Parallel, PointSet, build_parallels, build_point_set, mirror_index

HYPOTHESIS_MIN_M = 5  # the smallest M the sharpened bounds are proved for

N_RANDOM_PROBES = 8  # seeded probe heights per band, after the five structural
_RANDOM_DENOM = 2**20


def kappa(prec_bits: int = DEFAULT_PREC_BITS) -> mp.mpf:
    """Continuous logarithmic energy constant 1/2 - log 2 (~ -0.19315)."""
    check_precision(prec_bits)
    with mp.workprec(prec_bits):
        return mp.mpf(1) / 2 - mp.log(2)


@dataclass(frozen=True)
class _Height:
    """An exact height u in [-1, 1] with its logs and antiderivatives at
    the working precision, each log rounded once (-inf at a pole):

        log_p = log(1 + u),  anti_p = (1+u) log(1+u) - u = int log(1+t) dt,
        log_m = log(1 - u),  anti_m = -(1-u) log(1-u) - u = int log(1-t) dt,

    the antiderivatives taking their continuous values 1 at u = -1 and
    -1 at u = 1.
    """

    u: Fraction
    log_p: mp.mpf
    log_m: mp.mpf
    anti_p: mp.mpf
    anti_m: mp.mpf


@functools.lru_cache(maxsize=1 << 12)
def _height(u: Fraction, prec_bits: int) -> _Height:
    """The record of the exact height u in [-1, 1] (numerics.check_height)
    at prec_bits, memoised on (height, precision): the suites share the
    probe heights, and every S_N asks for each parallel's."""
    check_height(u)
    with mp.workprec(prec_bits):
        log_p, log_m = log_fraction(mp.mp, 1 + u), log_fraction(mp.mp, 1 - u)
        wp, wm = to_mpf(1 + u), to_mpf(1 - u)
        anti_p = mp.mpf(1) if u == -1 else wp * log_p - (wp - 1)
        anti_m = mp.mpf(-1) if u == 1 else -wm * log_m - (1 - wm)
    return _Height(u, log_p, log_m, anti_p, anti_m)


def _expected_log(t: _Height, c: _Height) -> mp.mpf:
    if t.u >= c.u:
        return (t.log_p + c.log_m) / 2
    return (t.log_m + c.log_p) / 2


def expected_log_parallel(t, c, prec_bits: int = DEFAULT_PREC_BITS) -> mp.mpf:
    """Average of log|p - q| over the parallel at height t, query at c.

    Equals log max(x, y) for the Theta variables; the branch switches at
    t = c.  Can be -inf only in the degenerate cases t = c = +-1.
    """
    check_precision(prec_bits)
    with mp.workprec(prec_bits):
        t, c = _height(to_fraction(t), prec_bits), _height(to_fraction(c), prec_bits)
        return _expected_log(t, c)


@dataclass(frozen=True)
class _PoleGap:
    """The window values of a band that use one pole gap g = 1 -+ h: g is
    1 - h for a query above the band, 1 + h below it."""

    outside: ComparisonMargins  # D in [0, (1/2)(5/6 - log 2) eps^4 / g^4], one per side
    inside_upper: mp.mpf  # (1 - log 2) eps^2 / (2 g^2)


@dataclass(frozen=True)
class _Band:
    """A band [h - eps, h + eps] with every constant its comparison
    windows need, formed once; `north` uses g = 1 - h, `south` 1 + h."""

    center: _Height
    lo: _Height
    hi: _Height
    eps: mp.mpf
    inside_lower: mp.mpf  # -eps / (4 (1 - h^2))
    north: _PoleGap
    south: _PoleGap


def _band(h, eps) -> _Band:
    h, eps = to_fraction(h), to_fraction(eps)
    if eps <= 0:
        raise ValueError("band half-width must be positive")
    if h - eps < -1 or h + eps > 1:
        raise ValueError("band must lie inside [-1, 1]")
    epsm, hm, prec = to_mpf(eps), to_mpf(h), mp.mp.prec
    center, lo, hi = _height(h, prec), _height(h - eps, prec), _height(h + eps, prec)

    def pole_gap(g: Fraction, log_g: mp.mpf, body: mp.mpf) -> _PoleGap:
        """Outside the band the query's log(1 +- c) cancels between the
        parallel average and the band average, leaving
        D = (1/2) log g - body / (4 eps) - eps^2 / (12 g^2)."""
        gap = to_mpf(g)
        return _PoleGap(
            ComparisonMargins(
                log_g / 2 - body / (4 * epsm) - epsm**2 / (12 * gap**2),
                mp.mpf(0),
                (mp.mpf(5) / 6 - mp.log(2)) / 2 * epsm**4 / gap**4,
            ),
            (1 - mp.log(2)) / 2 * epsm**2 / gap**2,
        )

    return _Band(
        center,
        lo,
        hi,
        epsm,
        -epsm / (4 * (1 - hm * hm)),
        pole_gap(1 - h, center.log_m, hi.anti_m - lo.anti_m),
        pole_gap(1 + h, center.log_p, hi.anti_p - lo.anti_p),
    )


def _band_integral(band: _Band, c: _Height) -> mp.mpf:
    """band_integral of the band at c; the branches run in this order, so
    a probe on a band edge takes the closed form without a 0 * log 0."""
    lo, hi = band.lo, band.hi
    if c.u <= lo.u:
        body = hi.anti_p - lo.anti_p
        rim = 2 * band.eps * c.log_m
        return (body + rim) / 4
    if c.u >= hi.u:
        body = hi.anti_m - lo.anti_m
        rim = 2 * band.eps * c.log_p
        return (body + rim) / 4
    upper = hi.anti_p - c.anti_p + to_mpf(hi.u - c.u) * c.log_m
    lower = c.anti_m - lo.anti_m + to_mpf(c.u - lo.u) * c.log_p
    return (upper + lower) / 4


def band_integral(h, eps, c, prec_bits: int = DEFAULT_PREC_BITS) -> mp.mpf:
    """(1/2) int_{h-eps}^{h+eps} expected_log_parallel(t, c) dt.

    This is the exact surface-measure contribution of the band around
    height h to int_S log|p - q| dsigma(p).  The logarithmic endpoint
    singularities integrate to finite values, handled by the continuous
    extension of the antiderivatives; the result is always finite for a
    band inside [-1, 1].
    """
    check_precision(prec_bits)
    with mp.workprec(prec_bits):
        return _band_integral(_band(h, eps), _height(to_fraction(c), prec_bits))


@dataclass(frozen=True)
class ComparisonMargins:
    """Signed margins for a two-sided bound on a computed value.

    value lies in [lower_bound, upper_bound] iff both margins are >= 0:
    lower_margin = value - lower_bound, upper_margin = upper_bound - value,
    each formed once: one band side's outside margins serve the cells of
    every query on that side.
    """

    value: mp.mpf
    lower_bound: mp.mpf
    upper_bound: mp.mpf

    @functools.cached_property
    def lower_margin(self) -> mp.mpf:
        return self.value - self.lower_bound

    @functools.cached_property
    def upper_margin(self) -> mp.mpf:
        return self.upper_bound - self.value

    def cells(self, params: dict) -> tuple[Cell, Cell]:
        """The lower and upper cells at params, the one form of every
        two-sided cell: the value against each bound, with its margin."""
        return (
            Cell({**params, "side": "lower"}, self.value, self.lower_bound, self.lower_margin),
            Cell({**params, "side": "upper"}, self.value, self.upper_bound, self.upper_margin),
        )


def _inside_margins(band: _Band, c: _Height) -> ComparisonMargins:
    """U = expected_log_parallel(h, c) - band_integral(h, eps, c) / eps."""
    gap = band.north if c.u >= band.center.u else band.south
    u = _expected_log(band.center, c) - _band_integral(band, c) / band.eps
    return ComparisonMargins(value=u, lower_bound=band.inside_lower, upper_bound=gap.inside_upper)


def _s_n_values(heights: Sequence, point_set: PointSet) -> list[mp.mpf]:
    """S_N at each height at the working precision: log(1 +- h_j) once
    per parallel and log(1 +- c) once per height."""
    prec = mp.mp.prec
    parallels = [(par.count, _height(par.height, prec)) for par in point_set.parallels]
    out = []
    for c in heights:
        c = _height(to_fraction(c), prec)
        acc = mp.mpf(0)
        for count, t in parallels:
            acc += count * _expected_log(t, c)
        out.append(acc)
    return out


def t_ell(ell: int, M: int) -> Fraction:
    """Exact second-order band correction for the band index ell <= M.

    T(ell) = sum_{j < ell} r_j^3 / (12 N^2 (1 + h_j)^2)
           + sum_{j > ell} r_j^3 / (12 N^2 (1 - h_j)^2).
    """
    if not isinstance(M, int) or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    if not isinstance(ell, int) or not 1 <= ell <= M:
        raise ValueError(f"band index must satisfy 1 <= ell <= M, got {ell!r}")
    parallels = build_parallels(M)
    N = 4 * M * M
    total = Fraction(0)
    for par in parallels:
        if par.index == ell:
            continue
        gap = (1 + par.height) if par.index < ell else (1 - par.height)
        total += Fraction(par.count**3) / (12 * N * N * gap * gap)
    return total


def log_product_to_set(
    heights: Sequence, turns: Sequence, point_set: PointSet
) -> list[list[mp.mpf]]:
    """log prod over all family points of |p_i - q| for every external
    query q at a height c in `heights` and azimuth pi * turn, turn in
    `turns`: row i, column m is the query (heights[i], turns[m]), at the
    point set's precision.

    condition.log_distance_products over every parallel: one Theta grid
    per parallel, one log per query.  Against zero-phase parallels the
    exact turns keep coincidence with a family point exact: that query's
    value is -inf.
    """
    return log_distance_products(point_set.parallels, heights, turns, point_set.prec_bits)


@dataclass
class EnergyReport:
    """Discrete logarithmic energy against its continuous prediction.

    residual = (E - kappa N^2 + (N/2) log N) / N, the order-N remainder
    per point.
    """

    M: int
    N: int
    precision_bits: int
    energy: mp.mpf
    residual: mp.mpf


def log_energy(point_set: PointSet) -> EnergyReport:
    """E(P) = sum_{i != j} log 1/|p_i - p_j| by the identity of the module
    docstring, at the point set's precision: logs of rho_k^2 and of the
    weight per factor, one kernel call per factor pair with R = lcm(r_k,
    r_l) and theta = R (phi_k - phi_l); a repeated root gives -inf.

    On a symmetric point set (PointSet.symmetric) points.mirror_index
    maps the pair (j, l) to one with the same R and log rho^2 values
    negated, so the same L and log(gap + rim sin^2), taken once per orbit
    of pairs; each pair's base is R times the larger of its own two logs."""
    prec_bits = point_set.prec_bits
    M, N = point_set.M, point_set.N
    pars = point_set.parallels
    symmetric = point_set.symmetric
    with mp.workprec(prec_bits):
        logs = [log_fraction(mp.mp, (1 + par.height) / (1 - par.height)) for par in pars]
        total = N * (N - 1) * mp.log(2)
        for par, ell in zip(pars, logs):
            r, log_w = par.count, log_fraction(mp.mp, (1 - par.height) / 2)  # w = 1/(1 + rho^2)
            total += r * mp.log(r) + r * (r - 1) * ell / 2 + (N - 1) * r * log_w
        shared = {}  # the mirror pair's log(gap + rim sin^2), awaiting it
        for k, (a, log_a) in enumerate(zip(pars, logs)):
            for b, log_b in zip(pars[k + 1 :], logs[k + 1 :]):
                g = math.gcd(a.count, b.count)
                R = a.count // g * b.count
                term = shared.pop((a.index, b.index), None)
                if term is None:
                    base, gap, rim = two_term_log(mp.mp, R, log_a, log_b)
                    sin_sq = sin_sq_pi(mp.mp, 0, R * (a.phase - b.phase) / 2)
                    term = mp.log(gap + rim * sin_sq)
                    pair = (mirror_index(M, b.index), mirror_index(M, a.index))
                    if symmetric and pair > (a.index, b.index):  # the mirror pair comes later
                        shared[pair] = term
                else:
                    base = R * max(log_a, log_b)
                total += g * (base + term)
        energy = -total
        residual = (energy - kappa(prec_bits) * N * N + mp.mpf(N) / 2 * mp.log(N)) / N
    return EnergyReport(point_set.M, N, prec_bits, energy, residual)


# ----------------------------------------------------------------------
# Verification grids and reports.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One checked inequality: lhs vs rhs with margin >= 0 meaning pass."""

    params: dict
    lhs: mp.mpf
    rhs: mp.mpf
    margin: mp.mpf

    def to_json_dict(self, prec_bits: int) -> dict:
        """The cell with its floats printed at prec_bits (its report's
        precision) and its params as they are, not copied."""
        return {
            "params": self.params,
            "lhs": fmt_real(self.lhs, prec_bits),
            "rhs": fmt_real(self.rhs, prec_bits),
            "margin": fmt_real(self.margin, prec_bits),
        }


@dataclass
class VerificationReport:
    """All cells of one verified inequality over its standard grid.

    Some bounds are attained exactly at grid points (for example the
    inside-window upper bound when the band touches a pole and c sits on
    it), so floating evaluation of the margin can land a few ulps on
    either side of zero.  `tolerance` is the rounding allowance for
    this: pass means worst_margin >= -tolerance.  It is 2^(8 - prec) at
    the report's precision_bits, dozens of orders below any
    non-degenerate margin; the floats print at precision_bits.  `gated`
    is False for an informational run below the suite's hypothesis,
    whose pass gates nothing.
    """

    lemma: str
    hypothesis: str
    M: int
    grid: str
    cells: list[Cell]
    precision_bits: int
    gated: bool
    notes: list[str] = field(default_factory=list)

    @property
    def tolerance(self) -> mp.mpf:
        return mp.ldexp(1, 8 - self.precision_bits)

    @functools.cached_property
    def worst_margin(self) -> mp.mpf:
        """The smallest margin (+inf on an empty grid), formed once."""
        if not self.cells:
            return mp.mpf("+inf")
        return min(c.margin for c in self.cells)

    @property
    def passed(self) -> bool:
        """Every margin within tolerance; an empty grid never passes."""
        return bool(self.cells and self.worst_margin >= -self.tolerance)

    def printed_margins(self) -> dict:
        """worst_margin and tolerance as to_json_dict prints them."""
        prec = self.precision_bits
        return {
            "worst_margin": fmt_real(self.worst_margin, prec),
            "tolerance": fmt_real(self.tolerance, prec),
        }

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "hypothesis": self.hypothesis,
            "M": self.M,
            "grid": self.grid,
            "cells": [c.to_json_dict(self.precision_bits) for c in self.cells],
            **self.printed_margins(),
            "pass": self.passed,
            "notes": list(self.notes),
        }


def band_probe_heights(par: Parallel, rng: random.Random) -> list[Fraction]:
    """Standard height grid for the band of one parallel: five structural
    plus seeded.

    The structural heights are both band edges, the parallel's height
    (the band's midpoint), and that height offset by half the half-width
    each way; random heights are exact rationals uniform over the band
    at denominator 2^20.
    """
    c, hw = par.height, par.half_width
    heights = [par.upper, c + hw / 2, c, c - hw / 2, par.lower]
    for _ in range(N_RANDOM_PROBES):
        k = rng.randint(1, _RANDOM_DENOM - 1)
        heights.append(par.lower + 2 * hw * Fraction(k, _RANDOM_DENOM))
    return heights


def _probe_grid(parallels: Sequence[Parallel], seed: int) -> list[list[Fraction]]:
    """band_probe_heights of each parallel, in order, all drawn from one
    random.Random(seed): the suites that probe the first M bands read the
    heights that verify_comparison draws for them."""
    rng = random.Random(seed)
    return [band_probe_heights(par, rng) for par in parallels]


AZIMUTH_TURNS = [Fraction(m, 16) for m in range(8)]  # multiples of pi in [0, pi/2)


@dataclass(frozen=True)
class Suite:
    """A verify_* function's lemmas (in report order) and the smallest M
    its bounds are proved for; the hypothesis is `proviso` if given, else
    M >= min_M.  `run(M, prec_bits, seed)` returns its reports, calling
    the function by its module-level name."""

    lemmas: tuple[str, ...]
    min_M: int
    run: Callable[[int, int, int], list[VerificationReport]]
    proviso: str = ""

    @property
    def hypothesis(self) -> str:
        return self.proviso or f"M >= {self.min_M}"


# Suite function name -> declaration, in the order verification_suite runs.
SUITES = {
    "verify_comparison": Suite(
        ("band_average_outside_window", "band_average_inside_window"),
        1,
        lambda M, prec, seed: verify_comparison(M, prec, seed),
        "none (holds for every band geometry)",
    ),
    "verify_t_bounds": Suite(
        ("band_correction_log_bounds",),
        1,
        lambda M, prec, seed: [verify_t_bounds(M, prec)],
    ),
    "verify_sn_kappa": Suite(
        ("parallel_energy_window", "parallel_energy_chain"),
        HYPOTHESIS_MIN_M,
        lambda M, prec, seed: verify_sn_kappa(M, prec, seed),
    ),
    "verify_numerator": Suite(
        ("point_product_vs_parallel_sum", "point_product_explicit_bound"),
        HYPOTHESIS_MIN_M,
        lambda M, prec, seed: verify_numerator(M, prec, seed),
    ),
    "verify_denominator": Suite(
        ("gap_product_vs_parallel_sum", "gap_product_absolute_floor"),
        HYPOTHESIS_MIN_M,
        lambda M, prec, seed: verify_denominator(M, prec),
    ),
}


def _reports(
    suite: str, M: int, prec_bits: int, grid: str, cells: list, notes: Sequence = ()
) -> list[VerificationReport]:
    """One report per lemma of SUITES[suite], one cell list each; below
    the suite's min_M the hypothesis marks the run informational and the
    reports ungated."""
    decl = SUITES[suite]
    hyp = decl.hypothesis
    gated = M >= decl.min_M
    if not gated:
        hyp += f" (informational run at M={M})"
    return [
        VerificationReport(lemma, hyp, M, grid, c, prec_bits, gated, list(notes))
        for lemma, c in zip(decl.lemmas, cells, strict=True)
    ]


def verify_comparison(
    M: int,
    prec_bits: int = DEFAULT_PREC_BITS,
    seed: int = 0,
) -> list[VerificationReport]:
    """Margins for the outside/inside band-average comparison windows.

    For the band [h - eps, h + eps] of a parallel and a probe height c
    outside it (c >= h + eps, or c <= h - eps) the difference

        D = expected_log_parallel(h, c) - band_integral(h, eps, c)/eps
            - eps^2 / (12 g^2)

    satisfies 0 <= D <= (1/2)(5/6 - log 2) eps^4 / g^4, with the pole gap
    g = 1 - h above the band and 1 + h below it.  The query's log(1 +- c)
    cancels, so D is one value per side of the band, formed with it.
    Inside it (h - eps <= c <= h + eps) the difference
    U = expected_log_parallel(h, c) - band_integral(h, eps, c)/eps obeys

        -eps / (4 (1 - h^2)) <= U <= (1 - log 2) eps^2 / (2 g^2),

    with g = 1 - h when c >= h and 1 + h when c < h.

    Sweeps every band against every height of _probe_grid: a probe in
    the closed band is checked against the inside window, any other
    against the outside window of its side, found by the probe's rank
    among the heights ranked once.  No hypothesis on M.
    """
    ps = build_point_set(M, prec_bits=prec_bits)
    probes = [h for heights in _probe_grid(ps.parallels, seed) for h in heights]
    order = sorted(range(len(probes)), key=probes.__getitem__)
    ranked = [probes[i] for i in order]
    rank = [0] * len(probes)
    for r, i in enumerate(order):
        rank[i] = r
    out_cells: list[Cell] = []
    in_cells: list[Cell] = []
    with mp.workprec(prec_bits):
        queries = [(_height(c, prec_bits), frac_str(c), r) for c, r in zip(probes, rank)]
        for par in ps.parallels:
            terms = _band(par.height, par.half_width)
            head = {
                "band": par.index,
                "h": frac_str(par.height),
                "eps": frac_str(par.half_width),
            }
            first, stop = bisect_left(ranked, par.lower), bisect_right(ranked, par.upper)
            for c, c_str, r in queries:
                params = {**head, "c": c_str}
                if first <= r < stop:
                    in_cells += _inside_margins(terms, c).cells(params)
                else:
                    out_cells += (terms.north if r >= stop else terms.south).outside.cells(params)
    grid = (
        f"{len(ps.parallels)} bands x {len(probes)} probe heights "
        f"(5 structural + {N_RANDOM_PROBES} seeded per band, seed={seed})"
    )
    return _reports("verify_comparison", M, prec_bits, grid, [out_cells, in_cells])


def verify_sn_kappa(
    M: int,
    prec_bits: int = DEFAULT_PREC_BITS,
    seed: int = 0,
) -> list[VerificationReport]:
    """Window and chain bounds on S_N(c) + N kappa for c in a band <= M.

    Window: -1 <= S_N + N kappa - T(ell) <= 2 (1 - log 2)/ell + 1/15.
    Chain:  -1 + (1/3) log((M+1)/(ell+1)) <= S_N + N kappa
                                          <= (1/3) log(M/ell)
                                             + 2 (1 - log 2)/ell + 1/4.

    Probes the first M bands of _probe_grid.
    """
    ps = build_point_set(M, prec_bits=prec_bits)
    kap = kappa(prec_bits)
    win_cells: list[Cell] = []
    chain_cells: list[Cell] = []
    probes = _probe_grid(ps.parallels[:M], seed)
    with mp.workprec(prec_bits):
        s_values = iter(_s_n_values([c for cs in probes for c in cs], ps))
        for ell, heights in enumerate(probes, 1):
            t_corr = to_mpf(t_ell(ell, M))
            win_hi = 2 * (1 - mp.log(2)) / ell + mp.mpf(1) / 15
            chain_lo = -1 + mp.log(mp.mpf(M + 1) / (ell + 1)) / 3
            chain_hi = (
                mp.log(mp.mpf(M) / ell) / 3
                + 2 * (1 - mp.log(2)) / ell
                + mp.mpf(1) / 4
            )
            for c in heights:
                val = next(s_values) + ps.N * kap
                params = {"band": ell, "c": frac_str(c)}
                win_cells += ComparisonMargins(val - t_corr, mp.mpf(-1), win_hi).cells(params)
                chain_cells += ComparisonMargins(val, chain_lo, chain_hi).cells(params)
    grid = (
        f"bands 1..{M} x {5 + N_RANDOM_PROBES} probe heights "
        f"(5 structural + {N_RANDOM_PROBES} seeded per band, seed={seed})"
    )
    return _reports("verify_sn_kappa", M, prec_bits, grid, [win_cells, chain_cells])


def verify_t_bounds(M: int, prec_bits: int = DEFAULT_PREC_BITS) -> VerificationReport:
    """Logarithmic bounds on the exact correction T(ell):

        (1/3) log((M+1)/(ell+1)) <= T(ell) <= (1/3) log(M/ell) + 1/6.
    """
    check_precision(prec_bits)
    cells: list[Cell] = []
    with mp.workprec(prec_bits):
        for ell in range(1, M + 1):
            val = to_mpf(t_ell(ell, M))
            lo = mp.log(mp.mpf(M + 1) / (ell + 1)) / 3
            hi = mp.log(mp.mpf(M) / ell) / 3 + mp.mpf(1) / 6
            cells += ComparisonMargins(val, lo, hi).cells({"ell": ell})
    return _reports("verify_t_bounds", M, prec_bits, f"ell = 1..{M}", [cells])[0]


def verify_numerator(
    M: int,
    prec_bits: int = DEFAULT_PREC_BITS,
    seed: int = 0,
) -> list[VerificationReport]:
    """Upper bounds on log prod_i |p_i - q| for external query points q.

    Against the parallel sum:  log prod <= S_N(c) + log 2 + 1/2.
    Explicit form, q in band ell <= M:
        log prod <= log 2 - kappa N + (1/3) log(M/ell) + 3/4
                    + (2/ell)(1 - log 2).
    The queries are the first M bands of _probe_grid at each turn of
    AZIMUTH_TURNS; one that hits a family point exactly is skipped with
    a note.
    """
    ps = build_point_set(M, prec_bits=prec_bits)
    kap = kappa(prec_bits)
    sum_cells: list[Cell] = []
    exp_cells: list[Cell] = []
    notes: list[str] = []
    probes = _probe_grid(ps.parallels[:M], seed)
    heights = [c for cs in probes for c in cs]
    turn_strs = [frac_str(turn) for turn in AZIMUTH_TURNS]
    with mp.workprec(prec_bits):
        s_values = iter(_s_n_values(heights, ps))
        lhs_rows = iter(log_product_to_set(heights, AZIMUTH_TURNS, ps))
        for ell, cs in enumerate(probes, 1):
            exp_rhs = (
                mp.log(2)
                - kap * ps.N
                + mp.log(mp.mpf(M) / ell) / 3
                + mp.mpf(3) / 4
                + 2 * (1 - mp.log(2)) / ell
            )
            for c in cs:
                sum_rhs = next(s_values) + mp.log(2) + mp.mpf(1) / 2
                c_str = frac_str(c)
                for turn_str, lhs in zip(turn_strs, next(lhs_rows)):
                    params = {"band": ell, "c": c_str, "turn": turn_str}
                    if lhs == mp.mpf("-inf"):
                        notes.append(
                            f"skipped query at c={c_str}, turn={turn_str}: "
                            "coincides with a family point"
                        )
                        continue
                    sum_cells.append(Cell(params, lhs, sum_rhs, sum_rhs - lhs))
                    exp_cells.append(Cell(params, lhs, exp_rhs, exp_rhs - lhs))
    grid = (
        f"bands 1..{M} x {5 + N_RANDOM_PROBES} probe heights "
        f"x {len(AZIMUTH_TURNS)} azimuths (seed={seed})"
    )
    return _reports(
        "verify_numerator", M, prec_bits, grid, [sum_cells, exp_cells], notes
    )


def verify_denominator(
    M: int, prec_bits: int = DEFAULT_PREC_BITS
) -> list[VerificationReport]:
    """Lower bounds on log prod_{p_i != p} |p_i - p| at every family point.

    Against the parallel sum:  >= S_N(h) + log(2 sqrt(2) M) - 1/8.
    Absolute floor:            >= (1/2) log(2N) - kappa N - 9/8.
    """
    ps = build_point_set(M, prec_bits=prec_bits)
    kap = kappa(prec_bits)
    sum_cells: list[Cell] = []
    abs_cells: list[Cell] = []
    with mp.workprec(prec_bits):
        abs_rhs = mp.log(2 * ps.N) / 2 - kap * ps.N - mp.mpf(9) / 8
        s_values = _s_n_values([par.height for par in ps.parallels], ps)
        points = [(par.index, k) for par in ps.parallels for k in range(par.count)]
        gap_logs = iter(by_orbit(ps, points, functools.partial(point_gap_product_log, ps)))
        for par, s_val in zip(ps.parallels, s_values):
            sum_rhs = s_val + mp.log(2 * mp.sqrt(2) * M) - mp.mpf(1) / 8
            for k in range(par.count):
                _, lhs = next(gap_logs)
                params = {"parallel": par.index, "k": k}
                sum_cells.append(Cell(params, lhs, sum_rhs, lhs - sum_rhs))
                abs_cells.append(Cell(params, lhs, abs_rhs, lhs - abs_rhs))
    grid = f"all {ps.N} family points"
    return _reports("verify_denominator", M, prec_bits, grid, [sum_cells, abs_cells])


@dataclass
class SuiteResult:
    """The suites for one M: `reports` in SUITES order and `refused`
    ({"lemma", "reason"} for each lemma whose hypothesis M does not
    meet)."""

    reports: list[VerificationReport] = field(default_factory=list)
    refused: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Every gated report passes."""
        return all(r.passed for r in self.reports if r.gated)


def verification_suite(
    M: int,
    prec_bits: int = DEFAULT_PREC_BITS,
    seed: int = 0,
    informational: bool = False,
) -> SuiteResult:
    """Every suite of SUITES for one M, in table order.

    A suite whose bounds are proved only for M >= min_M is refused below
    that, each of its lemmas listed with the unmet hypothesis and none
    evaluated, unless `informational`, which evaluates it ungated.
    """
    result = SuiteResult()
    for decl in SUITES.values():
        if M >= decl.min_M or informational:
            result.reports += decl.run(M, prec_bits, seed)
        else:
            result.refused += [
                {"lemma": lemma, "reason": f"hypothesis {decl.hypothesis} not met"}
                for lemma in decl.lemmas
            ]
    return result
