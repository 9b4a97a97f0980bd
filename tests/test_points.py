"""Parallel/band layout, phases, and the printed spherical coordinates."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from wellcond import points
from wellcond.numerics import fmt_real, to_fraction, to_mpf
from wellcond.points import build_parallels, build_point_set, mirror_index, turn_representative
from sphere_oracle import SpherePoint, coordinates_by_point, inverse_stereographic, stereographic

PHASED = [
    (2, ["0.1", "0.7", "-1.2"]),
    (3, ["0.3", "-0.2", "1.1", "2.5", "0.05"]),
]


def printed_rows(ps):
    """{(parallel index, azimuth index): [x, y, z]} of the strings that
    ps.to_json_dict() prints, in its order."""
    rows = ps.to_json_dict()["points"]
    keys = [(par.index, k) for par in ps.parallels for k in range(par.count)]
    assert len(rows) == len(keys)
    return dict(zip(keys, rows))


def printed_points(ps, prec_bits):
    """(parallel index, azimuth index, point) of each printed point, its
    strings read at prec_bits."""
    with mp.workprec(prec_bits):
        return [(j, k, SpherePoint(*map(mp.mpf, row))) for (j, k), row in printed_rows(ps).items()]


def quarter_turn_points(ps):
    """[x, y, z] of every point, formed as mpfs at ps.prec_bits: each
    parallel's first quarter from points._first_quarter, each later
    quarter the turn (x, y) -> (-y, x) of the one before, and then
    printed by fmt_real."""
    out = []
    with mp.workprec(ps.prec_bits):
        for par in ps.parallels:
            ring = points._first_quarter(par)
            for _ in range(3):
                ring += [(-y, x) for x, y in ring[-(par.count // 4):]]
            out += [[fmt_real(x), fmt_real(y), fmt_real(par.height)] for x, y in ring]
    return out


def band_of(q, pars):
    """Index of the parallel whose band contains a height (or a
    SpherePoint's height).

    Boundary heights are assigned deterministically to the band nearer
    its pole: a northern edge (below parallel j <= M-1) belongs to band
    j, a southern one to the band below it.  The height is compared
    exactly.
    """
    t = to_fraction(q.z if isinstance(q, SpherePoint) else q)
    if not pars[-1].lower <= t <= pars[0].upper:
        raise ValueError(f"height {t} outside [-1, 1]")
    M = (len(pars) + 1) // 2
    for par in pars[: M - 1]:
        if t >= par.lower:
            return par.index
    for par in pars[M - 1 : -1]:
        if t > par.lower:
            return par.index
    return len(pars)


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
    """The band edges h -+ nu run contiguously from 1 down to -1, and each
    half-width nu is the parallel's point share r/N."""
    pars = build_parallels(M)
    assert pars[0].upper == 1 and pars[-1].lower == -1
    for a, b in zip(pars, pars[1:]):
        assert a.lower == b.upper
    N = 4 * M * M
    for par in pars:
        assert par.lower < par.height < par.upper
        assert (par.lower + par.upper) / 2 == par.height
        assert (par.upper - par.lower) / 2 == par.half_width == Fraction(par.count, N)


def test_band_edges_m3_by_hand():
    """H_j = 1 - j(j+1)/M^2 north of the equator, its mirror south."""
    edges = [par.lower for par in build_parallels(3)]
    assert edges == [Fraction(7, 9), Fraction(1, 3), Fraction(-1, 3), Fraction(-7, 9), Fraction(-1)]


def test_band_of_boundary_rule_m3():
    pars = build_parallels(3)
    assert band_of(Fraction(7, 9), pars) == 1
    assert band_of(Fraction(-7, 9), pars) == 5
    assert band_of(Fraction(0), pars) == 3
    assert band_of(Fraction(1), pars) == 1
    assert band_of(Fraction(-1), pars) == 5


def test_equator_points_exact_axes_m1():
    ps = build_point_set(1, prec_bits=128)
    assert ps.to_json_dict()["points"] == [
        ["1.0", "0.0", "0.0"], ["0.0", "1.0", "0.0"], ["-1.0", "0.0", "0.0"], ["0.0", "-1.0", "0.0"]
    ]


@pytest.mark.parametrize("M", [2, 3])
def test_points_lie_on_their_parallels(M):
    prec = 256
    ps = build_point_set(M, prec_bits=prec)
    with mp.workprec(prec):
        heights = [fmt_real(par.height) for par in ps.parallels for _ in range(par.count)]
        assert [z for _, _, z in printed_rows(ps).values()] == heights
        for j, _, p in printed_points(ps, prec):
            r_sq = to_mpf(ps.parallels[j - 1].radius_sq)
            assert abs(p.x**2 + p.y**2 - r_sq) < mp.mpf(2) ** -(prec - 8)


def test_stereographic_round_trip():
    prec = 256
    ps = build_point_set(2, prec_bits=prec)
    with mp.workprec(prec):
        for _, _, p in coordinates_by_point(ps, prec):
            z = stereographic(p)
            q = inverse_stereographic(z, prec)
            assert abs(q.x - p.x) < mp.mpf(2) ** -(prec - 12)
            assert abs(q.y - p.y) < mp.mpf(2) ** -(prec - 12)
            assert abs(q.z - p.z) < mp.mpf(2) ** -(prec - 12)


def test_phase_overrides_validated_and_applied():
    with pytest.raises(ValueError):
        build_point_set(2, phases=[0.0, 0.0])  # needs 2M-1 = 3 entries
    prec = 192
    with mp.workprec(prec):
        ps = build_point_set(1, phases=[mp.pi / 4], prec_bits=prec)
        (_, _, p0), *_ = printed_points(ps, prec)
        assert abs(p0.x - mp.sqrt(2) / 2) < mp.mpf(2) ** -(prec - 8)
        assert abs(p0.y - mp.sqrt(2) / 2) < mp.mpf(2) ** -(prec - 8)


def test_invalid_m_rejected():
    for bad in (0, -1, 2.5):
        with pytest.raises((ValueError, TypeError)):
            build_parallels(bad)


def test_phases_are_rounded_at_the_point_set_precision():
    """A phase keeps the point set's precision whatever the caller's
    working precision; the default context is 53 bits."""
    ps = build_point_set(2, phases=["0.1", "0.7", "-1.2"], prec_bits=256)
    with mp.workprec(256):
        assert [par.phase for par in ps.parallels] == [
            mp.mpf("0.1"), mp.mpf("0.7"), mp.mpf("-1.2")
        ]
    assert ps.parallels[0].phase._mpf_[3] > 53  # mantissa bits


def orbit_point(M: int, j: int, k: int, count: int) -> tuple[int, int]:
    """The (parallel, azimuth index) representative of point k of parallel
    j, which has `count` points, under turn_representative and the mirror."""
    turn = turn_representative(Fraction(2 * k, count))
    return min(j, mirror_index(M, j)), int(turn * count / 2)


@pytest.mark.parametrize("M,orbits", [(1, 1), (4, 8), (5, 11), (8, 24)])
def test_orbit_representatives(M, orbits):
    """turn_representative lies in [0, 1/4], is its own representative and
    is constant under the quarter turn t -> t + 1/2 and the conjugation
    t -> -t, on every family turn a point of the same parallel; the
    mirror is an involution that fixes only the equator j = M.  Together
    they leave 8 orbits over 64 points at M = 4, 11 over 100 at M = 5
    and 24 over 256 at M = 8, each represented on parallels 1..M at
    azimuths 0..r/8."""
    half = Fraction(1, 2)
    for j in range(1, 2 * M):
        assert mirror_index(M, mirror_index(M, j)) == j
        assert (mirror_index(M, j) == j) == (j == M)
    rng = random.Random(M)
    turns = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(50)]
    for t in [0, 1, -3, *turns]:
        rep = turn_representative(t)
        assert 0 <= rep <= half / 2 and turn_representative(rep) == rep
        assert turn_representative(t + half) == rep == turn_representative(-t)
        assert rep == min(Fraction(t) % half, half - Fraction(t) % half)
    reps = set()
    for par in build_parallels(M):
        r = par.count
        for k in range(r):
            rep = orbit_point(M, par.index, k, r)
            assert rep == orbit_point(M, par.index, (k + r // 4) % r, r)
            assert rep == orbit_point(M, par.index, -k % r, r)
            assert rep == orbit_point(M, 2 * M - par.index, k, r)
            assert orbit_point(M, *rep, r) == rep
            assert (turn_representative(Fraction(2 * k, r)) * r / 2).denominator == 1
            assert 1 <= rep[0] <= M and 0 <= 8 * rep[1] <= r
            reps.add(rep)
    assert len(reps) == orbits


@pytest.mark.parametrize("M", [*range(1, 9), 22])
def test_zero_phase_points_are_invariant_under_the_group(M):
    """Every printed point of a zero-phase family has the strings of its
    orbit_point up to the signs and the order of x and y (the quarter
    turn and the conjugation) and the sign of z (the mirror)."""

    def magnitudes(p):
        x, y, z = (v.removeprefix("-") for v in p)
        return sorted([x, y]), z

    ps = build_point_set(M)
    printed = printed_rows(ps)
    for (j, k), p in printed.items():
        rep = orbit_point(M, j, k, ps.parallels[j - 1].count)
        assert magnitudes(p) == magnitudes(printed[rep]), (j, k)


@pytest.mark.parametrize(
    "M,phases",
    [*((M, None) for M in range(1, 9)), *PHASED],
    ids=[*(f"M{M}" for M in range(1, 9)), "M2-phased", "M3-phased"],
)
def test_coordinates_match_each_point_formed_on_its_own(M, phases):
    """The printed quarter-turn rings, read back at 64 more bits, agree
    with every point formed on its own there within 2^-(prec-16), with
    and without phases."""
    prec = 256
    ps = build_point_set(M, phases=phases, prec_bits=prec)
    got = printed_points(ps, prec + 64)
    want = coordinates_by_point(ps, prec + 64)
    assert [(j, k) for j, k, _ in got] == [(j, k) for j, k, _ in want]
    tol = mp.mpf(2) ** (16 - prec)
    with mp.workprec(prec + 64):
        for (_, _, p), (_, _, w) in zip(got, want):
            assert max(abs(p.x - w.x), abs(p.y - w.y), abs(p.z - w.z)) <= tol


def test_round_phase_refuses_an_angle_of_magnitude_two_to_the_precision():
    """Below 2^prec an angle rounds once; at 2^prec and past it its ulp
    is at least 2 rad and it is refused, as is a non-finite one."""
    assert points.round_phase(2**256 - 1, 256) == 2**256 - 1
    assert points.round_phase("-0.5", 64) == mp.mpf("-0.5")
    for angle in (2**256, -(2**256), "1e1000000", "inf", "nan"):
        with pytest.raises(ValueError):
            points.round_phase(angle, 256)
    with pytest.raises(ValueError, match="not below 2\\^256"):
        build_point_set(2, phases=["1e1000000", "0", "0"])
    assert build_point_set(2, phases=[2**256 - 1, 0, 0]).parallels[0].phase == 2**256 - 1


def seeded_phases(M: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [repr(rng.uniform(-3.2, 3.2)) for _ in range(2 * M - 1)]


@pytest.mark.parametrize("seed", [None, 7], ids=["zero-phase", "seeded"])
@pytest.mark.parametrize("M", range(1, 9))
def test_point_json_prints_each_point_of_coordinates(M, seed, monkeypatch):
    """to_json_dict's points, whose quarter turns negate strings, are the
    fmt_real strings of the rings turned as mpfs (quarter_turn_points), in
    order, while fmt_real runs at most once per entry of each distinct
    ring plus once per parallel (the phase, the z and the first quarter of
    each ring is all it formats)."""
    ps = build_point_set(M, phases=None if seed is None else seeded_phases(M, seed))
    want = quarter_turn_points(ps)
    calls = []
    monkeypatch.setattr(points, "fmt_real", lambda x: calls.append(x) or fmt_real(x))
    assert ps.to_json_dict()["points"] == want
    rings = {(par.count, abs(par.height), par.phase): par.count for par in ps.parallels}
    assert len(calls) <= sum(rings.values()) + len(ps.parallels)
