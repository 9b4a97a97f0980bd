"""Spherical point families of size N = 4M^2 arranged on parallels.

For an integer M >= 1 the family places r_j points uniformly on the
parallel of height h_j, j = 1..2M-1:

    r_j = 4j            and  h_j = 1 - j^2/M^2          for j <= M,
    r_j = 4(2M - j)     and  h_j = -1 + (2M - j)^2/M^2   for j >= M,

so the equator (j = M) carries 4M points and sum(r_j) = 4M^2 = N.
Parallel j owns the horizontal band B_j = [h_j - nu_j, h_j + nu_j] with
nu_j = r_j / N, the fraction of the surface measure it covers; the
bands tile [-1, 1] from the north pole down.  A Parallel is the one
record of this geometry: the band edges, the factors of the polynomial
family (polynomials) and the phases all come from it.  Heights and
half-widths are exact rationals.  build_parallels gives the zero-phase
geometry; build_point_set rounds each phase once, at the point set's
precision, which every function that takes the point set reads and its
JSON prints at.  Coordinates are formed only for that JSON, once per
distinct ring: the azimuth of point k on parallel j is the exact turn
2k/r_j (a multiple of pi) plus the parallel's radian phase as an
offset, both evaluated by numerics.cos_pi_fraction, for k < r_j/4 only;
the other three quarters are exact quarter turns of the first's
strings, so a coordinate may differ from cos and sin taken point by
point in its last digits.  orbit_representative declares the
zero-phase family's symmetry group, under which its printed
coordinates are invariant up to sign and order, PointSet.symmetric
whether a point set is such a family, and turn_representative the
group's action on the azimuth of a query point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import mpmath as mp

from .numerics import (
    DEFAULT_PREC_BITS,
    check_precision,
    cos_pi_fraction,
    fmt_negated,
    fmt_real,
    frac_str,
    to_mpf,
)


@dataclass(frozen=True)
class Parallel:
    """One parallel: index j, point count r_j, exact height h_j, the half
    width nu_j = r_j / N of its band [lower, upper], and its phase.

    The phase is the azimuth (radians) of the k = 0 point; points sit at
    azimuths phase + 2*pi*k/count.  The canonical construction uses
    phase 0 on every parallel.
    """

    index: int
    count: int
    height: Fraction
    half_width: Fraction
    phase: mp.mpf = field(default_factory=lambda: mp.mpf(0))

    @property
    def lower(self) -> Fraction:
        return self.height - self.half_width

    @property
    def upper(self) -> Fraction:
        return self.height + self.half_width

    @cached_property
    def rho_sq(self) -> Fraction:
        """Squared modulus (1+h)/(1-h) of the parallel's stereographic image."""
        return (1 + self.height) / (1 - self.height)

    @property
    def radius_sq(self) -> Fraction:
        """Squared Euclidean radius 1 - h^2 of the parallel circle."""
        return 1 - self.height * self.height


@dataclass
class PointSet:
    """The full family: its parallels, with every phase rounded at
    ``prec_bits``, the precision its coordinates are formed and printed at."""

    M: int
    N: int
    parallels: list[Parallel]
    prec_bits: int

    @property
    def symmetric(self) -> bool:
        """Whether orbit_representative's group maps the point set onto
        itself, which is when every phase is 0."""
        return all(par.phase == 0 for par in self.parallels)

    def to_json_dict(self) -> dict:
        """The parallels, and every point as [x, y, z] fmt_real strings at
        ``prec_bits``.  One ring is formed per (count, |height|, phase),
        which mirror parallels of equal phase share: its first quarter's
        (x, y) formatted once (_first_quarter), each later quarter the
        quarter turn (x, y) -> (-y, x) of the one before, as strings."""
        rings: dict[tuple, list[tuple[str, str]]] = {}
        points = []
        with mp.workprec(self.prec_bits):
            for par in self.parallels:
                key = (par.count, abs(par.height), par.phase)
                if key not in rings:
                    ring = [(fmt_real(x), fmt_real(y)) for x, y in _first_quarter(par)]
                    for _ in range(3):
                        ring += [(fmt_negated(y), x) for x, y in ring[-(par.count // 4):]]
                    rings[key] = ring
                z = fmt_real(par.height)
                points += [[x, y, z] for x, y in rings[key]]
            return {
                "M": self.M,
                "N": self.N,
                "precision_bits": self.prec_bits,
                "parallels": [
                    {
                        "j": par.index,
                        "r": par.count,
                        "h": frac_str(par.height),
                        "phase": fmt_real(par.phase),
                    }
                    for par in self.parallels
                ],
                "points": points,
            }


def _first_quarter(par: Parallel) -> list[tuple[mp.mpf, mp.mpf]]:
    """(x, y) of the parallel's points k < r/4 at working precision, each
    azimuth the exact turn 2k/r plus the phase, by cos_pi_fraction."""
    radius = mp.sqrt(to_mpf(par.radius_sq))
    out = []
    for k in range(par.count // 4):
        turn = Fraction(2 * k, par.count)  # azimuth as multiple of pi
        ca = cos_pi_fraction(turn, par.phase)
        sa = cos_pi_fraction(turn - Fraction(1, 2), par.phase)  # sin
        out.append((radius * ca, radius * sa))
    return out


def _check_m(M: int) -> int:
    if not isinstance(M, int) or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    return M


def build_parallels(M: int) -> list[Parallel]:
    """The 2M-1 zero-phase parallels (index, count, exact height and
    half-width) for a given M."""
    _check_m(M)
    N = 4 * M * M
    out = []
    for j in range(1, 2 * M):
        if j <= M:
            count = 4 * j
            height = 1 - Fraction(j * j, M * M)
        else:
            count = 4 * (2 * M - j)
            height = -1 + Fraction((2 * M - j) ** 2, M * M)
        out.append(Parallel(j, count, height, Fraction(count, N)))
    return out


def round_phase(angle, prec_bits: int) -> mp.mpf:
    """The angle (radians) rounded once at prec_bits.  ValueError unless
    it is finite with |angle| < 2^prec_bits: past that its ulp is at
    least 2 rad, so it names no rotation, and every sin or cos would
    reduce it at its full length."""
    with mp.workprec(prec_bits):
        phase = to_mpf(angle)
    if not mp.isfinite(phase):
        raise ValueError(f"angle {angle!r} is not finite")
    if not -mp.ldexp(1, prec_bits) < phase < mp.ldexp(1, prec_bits):
        raise ValueError(f"angle {angle!r} is not below 2^{prec_bits} in magnitude")
    return phase


def build_point_set(
    M: int,
    phases: Sequence | None = None,
    prec_bits: int = DEFAULT_PREC_BITS,
) -> PointSet:
    """The family of M; phases, if given, supply one azimuth (radians)
    per parallel, each rounded once by round_phase.  No coordinates are
    formed (see PointSet.to_json_dict)."""
    check_precision(prec_bits)
    parallels = build_parallels(M)
    if phases is not None:
        if len(phases) != len(parallels):
            raise ValueError(f"need {len(parallels)} phases for M={M}, got {len(phases)}")
        parallels = [
            replace(par, phase=round_phase(ph, prec_bits)) for par, ph in zip(parallels, phases)
        ]
    return PointSet(M=M, N=4 * M * M, parallels=parallels, prec_bits=prec_bits)


def orbit_representative(M: int, index: int, k: int) -> tuple[int, int]:
    """The orbit representative (min(j, 2M - j), min(k mod r/4, r/4 - k mod r/4))
    of point or root k of parallel j = index under the quarter turn k -> k + r/4,
    the conjugation k -> -k and the mirror j <-> 2M - j: on the roots of the real
    P(z) = Q(z^4), z -> iz, conj(z) and 1/z, the last exact since z^N P(1/z) =
    -P(z) and mu_norm is invariant under that rotation of the Riemann sphere
    (Shub & Smale, Complexity of Bezout's theorem I)."""
    quarter = min(index, 2 * M - index)  # both the mirror's j and r_j / 4
    k %= quarter
    return quarter, min(k, quarter - k)


def turn_representative(turn) -> Fraction:
    """The representative in [0, 1/4] of a query's azimuth turn t (a
    multiple of pi) under the quarter turn t -> t + 1/2 and the conjugation
    t -> -t of orbit_representative.  Every r_j is a multiple of 4, so both
    map each zero-phase parallel onto itself, and a query at (c, pi t) has
    the distances to the family of the query at (c, pi * representative)."""
    t = Fraction(turn) % Fraction(1, 2)
    return min(t, Fraction(1, 2) - t)
