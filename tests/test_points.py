"""Parallel/band layout and materialised spherical coordinates."""

from fractions import Fraction

import mpmath as mp
import pytest

from wellcond.numerics import to_fraction, to_mpf
from wellcond.points import (
    SpherePoint,
    build_bands,
    build_parallels,
    build_point_set,
)
from sphere_oracle import inverse_stereographic, stereographic


def band_of(q, bands):
    """Index of the band containing a height (or SpherePoint's height).

    Boundary heights are assigned deterministically to the band nearer
    its pole: H_j (northern, j <= M-1) belongs to band j, a southern
    boundary H_j to band j+1.  The height is compared exactly.
    """
    t = to_fraction(q.z if isinstance(q, SpherePoint) else q)
    if not bands[-1].lower <= t <= bands[0].upper:
        raise ValueError(f"height {t} outside [-1, 1]")
    M = (len(bands) + 1) // 2
    for band in bands[: M - 1]:
        if t >= band.lower:
            return band.index
    for band in bands[M - 1 : -1]:
        if t > band.lower:
            return band.index
    return len(bands)


def test_m3_heights_and_counts_by_hand():
    pars = build_parallels(3)
    assert [p.count for p in pars] == [4, 8, 12, 8, 4]
    assert [p.height for p in pars] == [
        Fraction(8, 9),
        Fraction(5, 9),
        Fraction(0),
        Fraction(-5, 9),
        Fraction(-8, 9),
    ]


@pytest.mark.parametrize("M", [1, 2, 3, 5, 8])
def test_counts_sum_to_n_and_mirror(M):
    pars = build_parallels(M)
    assert len(pars) == 2 * M - 1
    assert sum(p.count for p in pars) == 4 * M * M
    for p, q in zip(pars, reversed(pars)):
        assert p.count == q.count
        assert p.height == -q.height


@pytest.mark.parametrize("M", [1, 2, 3, 5, 8])
def test_bands_partition_and_center_on_parallels(M):
    bands = build_bands(M)
    pars = build_parallels(M)
    assert bands[0].upper == 1 and bands[-1].lower == -1
    for a, b in zip(bands, bands[1:]):
        assert a.lower == b.upper
    N = 4 * M * M
    for band, par in zip(bands, pars):
        assert band.center == par.height
        # normalized band area (dt/2) equals the parallel's point share
        assert (band.upper - band.lower) / 2 == Fraction(par.count, N)


def test_band_of_boundary_rule_m3():
    bands = build_bands(3)
    assert band_of(Fraction(7, 9), bands) == 1
    assert band_of(Fraction(-7, 9), bands) == 5
    assert band_of(Fraction(0), bands) == 3
    assert band_of(Fraction(1), bands) == 1
    assert band_of(Fraction(-1), bands) == 5


def test_equator_points_exact_axes_m1():
    ps = build_point_set(1, prec_bits=128)
    pts = [(p.x, p.y, p.z) for _, _, p in ps.all_points()]
    assert pts == [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]


@pytest.mark.parametrize("M", [2, 3])
def test_points_lie_on_their_parallels(M):
    prec = 256
    ps = build_point_set(M, prec_bits=prec)
    with mp.workprec(prec):
        for par, group in zip(ps.parallels, ps.points):
            assert len(group) == par.count
            h = to_mpf(par.height)
            r_sq = to_mpf(par.radius_sq)
            for p in group:
                assert abs(p.z - h) == 0
                assert abs(p.x**2 + p.y**2 - r_sq) < mp.mpf(2) ** -(prec - 8)


def test_stereographic_round_trip():
    prec = 256
    ps = build_point_set(2, prec_bits=prec)
    with mp.workprec(prec):
        for _, _, p in ps.all_points():
            z = stereographic(p)
            q = inverse_stereographic(z, prec)
            assert abs(q.x - p.x) < mp.mpf(2) ** -(prec - 12)
            assert abs(q.y - p.y) < mp.mpf(2) ** -(prec - 12)
            assert abs(q.z - p.z) < mp.mpf(2) ** -(prec - 12)


def test_phase_overrides_validated_and_applied():
    with pytest.raises(ValueError):
        build_parallels(2, phases=[0.0, 0.0])  # needs 2M-1 = 3 entries
    prec = 192
    with mp.workprec(prec):
        ps = build_point_set(1, phases=[mp.pi / 4], prec_bits=prec)
        p0 = ps.points[0][0]
        assert abs(p0.x - mp.sqrt(2) / 2) < mp.mpf(2) ** -(prec - 8)
        assert abs(p0.y - mp.sqrt(2) / 2) < mp.mpf(2) ** -(prec - 8)


def test_invalid_m_rejected():
    for bad in (0, -1, 2.5):
        with pytest.raises((ValueError, TypeError)):
            build_parallels(bad)
