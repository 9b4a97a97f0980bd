"""Spherical point families of size N = 4M^2 arranged on parallels.

For an integer M >= 1 the family places r_j points uniformly on the
parallel of height h_j, j = 1..2M-1:

    r_j = 4j            and  h_j = 1 - j^2/M^2          for j <= M,
    r_j = 4(2M - j)     and  h_j = -1 + (2M - j)^2/M^2   for j >= M,

so the equator (j = M) carries 4M points and sum(r_j) = 4M^2 = N.
The sphere splits into 2M-1 horizontal bands B_j = [H_j, H_{j-1}] with

    H_j = 1 - j(j+1)/M^2                 for 0 <= j <= M-1,
    H_j = -1 + (2M-j-1)(2M-j)/M^2        for M <= j <= 2M-1,

so that h_j is the midpoint of B_j and the band covers a fraction
nu_j = r_j / N of the surface measure.  All heights are kept as exact
rationals; coordinates are materialised at an explicit binary precision.
The azimuth of point k on parallel j is the exact turn 2k/r_j (a
multiple of pi) plus the parallel's radian phase as an offset, both
evaluated by numerics.cos_pi_fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .numerics import (
    DEFAULT_PREC_BITS,
    check_precision,
    cos_pi_fraction,
    fmt_real,
    frac_str,
    to_mpf,
)


@dataclass(frozen=True)
class Parallel:
    """One parallel: index j, point count r_j, exact height h_j, phase.

    The phase is the azimuth (radians) of the k = 0 point; points sit at
    azimuths phase + 2*pi*k/count.  The canonical construction uses
    phase 0 on every parallel.
    """

    index: int
    count: int
    height: Fraction
    phase: mp.mpf = field(default_factory=lambda: mp.mpf(0))

    @property
    def radius_sq(self) -> Fraction:
        """Squared Euclidean radius 1 - h^2 of the parallel circle."""
        return 1 - self.height * self.height


@dataclass(frozen=True)
class Band:
    """Closed height band B_j = [lower, upper] = [H_j, H_{j-1}]."""

    index: int
    lower: Fraction
    upper: Fraction

    @property
    def center(self) -> Fraction:
        return (self.lower + self.upper) / 2

    @property
    def half_width(self) -> Fraction:
        """nu_j: half the height extent, equal to r_j / N."""
        return (self.upper - self.lower) / 2


@dataclass(frozen=True)
class SpherePoint:
    """A point of S^2 as high-precision coordinates."""

    x: mp.mpf
    y: mp.mpf
    z: mp.mpf


@dataclass
class PointSet:
    """The full family: parallels, bands, and materialised coordinates.

    ``points[j-1][k]`` is the k-th point of the parallel with index j.
    Heights and band boundaries stay exact; coordinates are computed once
    at ``prec_bits``.
    """

    M: int
    N: int
    parallels: list[Parallel]
    bands: list[Band]
    prec_bits: int
    points: list[list[SpherePoint]]

    def all_points(self) -> list[tuple[int, int, SpherePoint]]:
        """Flat (parallel index, azimuth index, point) triples."""
        out = []
        for par, group in zip(self.parallels, self.points):
            for k, p in enumerate(group):
                out.append((par.index, k, p))
        return out

    def to_json_dict(self) -> dict:
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
            "points": [
                [fmt_real(p.x), fmt_real(p.y), fmt_real(p.z)]
                for _, _, p in self.all_points()
            ],
        }


def _check_m(M: int) -> int:
    if not isinstance(M, int) or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    return M


def build_parallels(M: int, phases: Sequence | None = None) -> list[Parallel]:
    """The 2M-1 parallels (index, count, exact height) for a given M.

    phases, if given, must supply one azimuth (radians) per parallel.
    """
    _check_m(M)
    if phases is not None and len(phases) != 2 * M - 1:
        raise ValueError(
            f"need {2 * M - 1} phases for M={M}, got {len(phases)}"
        )
    out = []
    for j in range(1, 2 * M):
        if j <= M:
            count = 4 * j
            height = 1 - Fraction(j * j, M * M)
        else:
            count = 4 * (2 * M - j)
            height = -1 + Fraction((2 * M - j) ** 2, M * M)
        phase = to_mpf(phases[j - 1]) if phases is not None else mp.mpf(0)
        out.append(Parallel(index=j, count=count, height=height, phase=phase))
    return out


def build_bands(M: int) -> list[Band]:
    """The 2M-1 closed height bands; band j has midpoint h_j."""
    _check_m(M)

    def boundary(j: int) -> Fraction:
        if j <= M - 1:
            return 1 - Fraction(j * (j + 1), M * M)
        return -1 + Fraction((2 * M - j - 1) * (2 * M - j), M * M)

    return [
        Band(index=j, lower=boundary(j), upper=boundary(j - 1))
        for j in range(1, 2 * M)
    ]


def build_point_set(
    M: int,
    phases: Sequence | None = None,
    prec_bits: int = DEFAULT_PREC_BITS,
) -> PointSet:
    """Materialise the N = 4M^2 points at the requested precision.

    With the default zero phases the azimuth offsets vanish, so points
    on the coordinate axes come out exact.
    """
    check_precision(prec_bits)
    parallels = build_parallels(M, phases)
    bands = build_bands(M)
    points: list[list[SpherePoint]] = []
    with mp.workprec(prec_bits):
        for par in parallels:
            radius = mp.sqrt(to_mpf(par.radius_sq))
            height = to_mpf(par.height)
            group = []
            for k in range(par.count):
                turn = Fraction(2 * k, par.count)  # azimuth as multiple of pi
                ca = cos_pi_fraction(turn, par.phase)
                sa = cos_pi_fraction(turn - Fraction(1, 2), par.phase)  # sin
                group.append(SpherePoint(x=radius * ca, y=radius * sa, z=height))
            points.append(group)
    return PointSet(
        M=M,
        N=4 * M * M,
        parallels=parallels,
        bands=bands,
        prec_bits=prec_bits,
        points=points,
    )
