"""The grid and per-parallel forms against their one-query oracles, bit for bit.

The suites evaluate each value once per index it depends on: the exact
gap and rim per (parallel, query height), sin^2 per (parallel, turn),
one log per query point, log(1 +- h) per parallel and per probe, and
each band's window constants once.  Every cell must still come out
of the same operations in the same order as the one-query forms, so
equality here is `==`, not a tolerance.  Where the suites go further
than the one-query forms (a product of factors where one log per
parallel was summed, one numerator column per turn orbit, one outside
window value per band side), the values are held to 2^-(prec-16) of
the longer form.  The two-term kernel is held, under mp.iv, to Theta
taken from the point coordinates, and the grid to both.
"""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from wellcond import condition
from wellcond.condition import point_gap_product_log, theta_product_log_turn
from wellcond.energy import (
    AZIMUTH_TURNS,
    _band,
    _height,
    _inside_margins,
    _s_n_values,
    band_integral,
    band_probe_heights,
    expected_log_parallel,
    kappa,
    log_product_to_set,
    verify_comparison,
    verify_denominator,
    verify_numerator,
    verify_sn_kappa,
)
from wellcond.numerics import (
    context_precision,
    cos_pi_fraction,
    frac_str,
    fraction_endpoints,
    fraction_from_mpf,
    log_fraction,
    sin_sq_pi,
    to_mpf,
    two_term_log,
)
from wellcond.points import build_point_set, mirror_index, turn_representative
from sphere_oracle import (
    SpherePoint,
    coordinates_by_point,
    distance_sq,
    gap_product_by_parallel_logs,
    gap_product_by_point,
    log_product_by_parallel_logs,
    log_product_by_query,
    theta_by_query,
)

PREC = 256
MINUS_INF = mp.mpf("-inf")
TOL = Fraction(1, 2 ** (PREC - 16))
PHASED = {2: [0.1, 0.7, -1.2], 3: [0.1, 0.7, -1.2, 0.4, 2.0]}
FAMILIES = [(M, None) for M in (1, 2, 3)] + [(M, PHASED[M]) for M in PHASED]
FAMILY_IDS = ["1", "2", "3", "2-phased", "3-phased"]


def edge_heights(ps):
    """Both poles, every band edge, midpoint (= parallel height) and a
    quarter point, in increasing order."""
    heights = {Fraction(-1), Fraction(1)}
    for par in ps.parallels:
        heights |= {par.lower, par.upper, par.height, par.height + par.half_width / 2}
    return sorted(heights)


def s_n_by_parallel(c, ps):
    """S_N(c) accumulated one expected_log_parallel call per parallel."""
    with mp.workprec(PREC):
        acc = mp.mpf(0)
        for par in ps.parallels:
            acc += par.count * expected_log_parallel(par.height, c, PREC)
        return acc


@pytest.mark.parametrize("M,phases", FAMILIES, ids=FAMILY_IDS)
def test_theta_grid_matches_single_query_oracle(M, phases):
    ps = build_point_set(M, phases=phases, prec_bits=PREC)
    heights = edge_heights(ps)
    turns = AZIMUTH_TURNS + [Fraction(1, 3), Fraction(7, 5)]
    for par in ps.parallels:
        factors = theta_product_log_turn(
            par.count, par.height, heights, turns, PREC, -par.phase
        )
        assert len(factors) == len(heights)
        for c, row in zip(heights, factors):
            want = [
                theta_by_query(par.count, par.height, c, t, PREC, -par.phase)
                for t in turns
            ]
            assert row == want, (par.index, c)


def theta_log_enclosure(par, c, turn, prec_bits):
    """log Theta for one query (c, pi * turn) against one parallel through
    the kernel under mp.iv: an outward-rounded enclosure."""
    iv = mp.iv
    with context_precision(iv, prec_bits):
        log_hp, log_hm = log_fraction(iv, 1 + par.height), log_fraction(iv, 1 - par.height)
        log_cp, log_cm = log_fraction(iv, 1 + c), log_fraction(iv, 1 - c)
        base, gap, rim = two_term_log(iv, par.count, log_cm + log_hp, log_cp + log_hm)
        sin_sq = sin_sq_pi(iv, par.count * turn / 2, -par.count * iv.mpf(par.phase) / 2)
        return base + iv.log(gap + rim * sin_sq)


def theta_log_from_coordinates(points, c, turn, prec_bits):
    """log prod over `points` (one parallel's, from coordinates_by_point)
    of |p - q|^2 for the query q at (c, pi * turn), at prec_bits."""
    with mp.workprec(prec_bits):
        radius = mp.sqrt(to_mpf(1 - c * c))
        q = SpherePoint(
            radius * cos_pi_fraction(turn), radius * cos_pi_fraction(turn - Fraction(1, 2)), to_mpf(c)
        )
        return mp.log(mp.fprod(distance_sq(p, q) for p in points))


@pytest.mark.parametrize("M,phases", FAMILIES[1:], ids=FAMILY_IDS[1:])
def test_kernel_encloses_theta_from_coordinates(M, phases):
    """Under mp.iv the two-term kernel encloses Theta taken from the point
    coordinates at 64 more bits, and the grid's exact-term Theta lies
    within 2^-(prec-16) of it: at both poles, every band edge, the
    parallels' own heights (coincidences at turn 0 without phases, -inf
    exactly under mp) and seeded heights, with and without phases."""
    ps = build_point_set(M, phases=phases, prec_bits=PREC)
    fine = build_point_set(M, phases=phases, prec_bits=PREC + 64)
    rng = random.Random(M)
    heights = edge_heights(ps) + [Fraction(rng.randint(-2**20, 2**20), 2**20) for _ in range(3)]
    turns = [Fraction(0), Fraction(1, 16), Fraction(1, 4), Fraction(1, 3)]
    tol = Fraction(1, 2 ** (PREC - 16))
    coincidences = 0
    coordinates = coordinates_by_point(fine, fine.prec_bits)
    for par in ps.parallels:
        points = [p for j, _, p in coordinates if j == par.index]
        factors = theta_product_log_turn(par.count, par.height, heights, turns, PREC, -par.phase)
        for c, row in zip(heights, factors):
            for turn, factor in zip(turns, row):
                enclosure = theta_log_enclosure(par, c, turn, PREC)
                want = theta_log_from_coordinates(points, c, turn, fine.prec_bits)
                if want == MINUS_INF:
                    coincidences += 1
                    assert factor == 0, (par.index, c, turn)
                    assert enclosure._mpi_[0] == MINUS_INF._mpf_, (par.index, c, turn)
                    continue
                lo, hi = fraction_endpoints(enclosure)
                want = fraction_from_mpf(want)
                assert lo <= want <= hi, (par.index, c, turn)
                with mp.workprec(PREC):
                    got = fraction_from_mpf(mp.log(factor))
                assert abs(got - want) <= tol * max(1, abs(want))
    # every zero-phase parallel holds its k = 0 point at turn 0
    assert coincidences >= (len(ps.parallels) if phases is None else 0)
    assert coincidences == 0 or phases is None


@pytest.mark.parametrize("M,phases", FAMILIES, ids=FAMILY_IDS)
def test_log_product_grid_matches_per_query_sum(M, phases):
    ps = build_point_set(M, phases=phases, prec_bits=PREC)
    heights = edge_heights(ps)
    grid = log_product_to_set(heights, AZIMUTH_TURNS, ps)
    for c, row in zip(heights, grid, strict=True):
        want = [log_product_by_query(c, t, ps, PREC) for t in AZIMUTH_TURNS]
        assert row == want, c
    coincidences = sum(v == MINUS_INF for row in grid for v in row)
    # every zero-phase parallel holds its k = 0 point at turn 0
    assert coincidences >= (len(ps.parallels) if phases is None else 0)


@pytest.mark.parametrize(
    "M,phases",
    [(M, None) for M in range(1, 7)] + [(M, PHASED[M]) for M in PHASED],
    ids=[str(M) for M in range(1, 7)] + ["2-phased", "3-phased"],
)
def test_gap_products_per_parallel_match_per_point(M, phases):
    ps = build_point_set(M, phases=phases, prec_bits=PREC)
    for par in ps.parallels:
        got = point_gap_product_log(ps, par.index, range(par.count))
        want = [gap_product_by_point(ps, par.index, k, PREC) for k in range(par.count)]
        assert got == want, par.index
        # the quarter-turn representatives the spherical route asks for
        quarter = range(par.count // 4)
        assert point_gap_product_log(ps, par.index, quarter) == want[: len(quarter)]


@pytest.fixture
def asked_turns(monkeypatch) -> list[list[Fraction]]:
    """The turns of each theta_product_log_turn call, in call order."""
    asked = []

    def spy(r, h, heights, turns, *args):
        asked.append(list(turns))
        return theta_product_log_turn(r, h, heights, turns, *args)

    monkeypatch.setattr(condition, "theta_product_log_turn", spy)
    return asked


@pytest.mark.parametrize("M", range(2, 9))
def test_zero_phase_grids_give_each_turn_its_representatives_value(M, asked_turns):
    """On a zero-phase family the point products and the gap products of
    every turn are exactly (==) those of its turn_representative, and
    the Theta grids are asked for the distinct representatives only."""
    ps = build_point_set(M, prec_bits=PREC)
    heights = edge_heights(ps)[::3]
    turns = [Fraction(m, 16) for m in range(-8, 24)]
    reps = [turn_representative(t) for t in turns]
    grid = log_product_to_set(heights, turns, ps)
    assert asked_turns == [list(dict.fromkeys(reps))] * len(ps.parallels)
    asked_turns.clear()
    rep_grid = log_product_to_set(heights, reps, ps)
    assert grid == rep_grid
    assert asked_turns == [list(dict.fromkeys(reps))] * len(ps.parallels)
    for par in ps.parallels:
        asked_turns.clear()
        got = point_gap_product_log(ps, par.index, range(par.count))
        turns = [Fraction(2 * k, par.count) for k in range(par.count)]
        distinct = list(dict.fromkeys(map(turn_representative, turns)))
        assert asked_turns == [distinct] * (len(ps.parallels) - 1), par.index
        for k, turn in enumerate(turns):
            rep_k = int(turn_representative(turn) * par.count / 2)
            (want,) = point_gap_product_log(ps, par.index, [rep_k])
            assert got[k] == want, (par.index, k)


@pytest.mark.parametrize("M", sorted(PHASED))
def test_phased_grids_evaluate_every_turn(M, asked_turns):
    """On a phased family every turn is evaluated, and each value equals
    its per-query oracle."""
    ps = build_point_set(M, phases=PHASED[M], prec_bits=PREC)
    heights = edge_heights(ps)
    turns = [Fraction(m, 16) for m in range(-8, 24)]
    grid = log_product_to_set(heights, turns, ps)
    assert asked_turns == [turns] * len(ps.parallels)
    for c, row in zip(heights, grid, strict=True):
        assert row == [log_product_by_query(c, t, ps, PREC) for t in turns], c
    for par in ps.parallels:
        asked_turns.clear()
        got = point_gap_product_log(ps, par.index, range(par.count))
        want_turns = [Fraction(2 * k, par.count) for k in range(par.count)]
        assert asked_turns == [want_turns] * (len(ps.parallels) - 1), par.index
        assert got == [gap_product_by_point(ps, par.index, k, PREC) for k in range(par.count)]


def assert_close(got, want, where):
    """got within 2^-(prec-16) of want, relative above 1; -inf only with -inf."""
    if want == MINUS_INF:
        assert got == MINUS_INF, where
        return
    got, want = fraction_from_mpf(got), fraction_from_mpf(want)
    assert abs(got - want) <= TOL * max(1, abs(want)), where


@pytest.mark.parametrize(
    "M,phases",
    [(M, None) for M in range(1, 7)] + [(M, PHASED[M]) for M in PHASED],
    ids=[str(M) for M in range(1, 7)] + ["2-phased", "3-phased"],
)
def test_product_forms_match_per_parallel_log_sums(M, phases):
    """One log of the product of the factors against one log per parallel:
    the point products at every edge height and turn, the gap products at
    every point, -inf at the same coincidences."""
    ps = build_point_set(M, phases=phases, prec_bits=PREC)
    heights = edge_heights(ps)
    grid = log_product_to_set(heights, AZIMUTH_TURNS, ps)
    for c, row in zip(heights, grid, strict=True):
        for turn, got in zip(AZIMUTH_TURNS, row, strict=True):
            assert_close(got, log_product_by_parallel_logs(c, turn, ps, PREC), (c, turn))
    for par in ps.parallels:
        got = point_gap_product_log(ps, par.index, range(par.count))
        for k, value in enumerate(got):
            assert_close(value, gap_product_by_parallel_logs(ps, par.index, k, PREC), (par.index, k))


def one_pair_comparison_cells(ps, seed):
    """(outside, inside) cells of verify_comparison, each (band, probe)
    pair taken on its own: the band's constants formed afresh (_band),
    the probe's record (_height), its inside margins (_inside_margins) or
    the outside window of the band side it lies on, found by comparing
    the heights."""
    rng = random.Random(seed)
    probes = [c for par in ps.parallels for c in band_probe_heights(par, rng)]
    out_cells, in_cells = [], []
    with mp.workprec(PREC):
        for par in ps.parallels:
            h, eps = par.height, par.half_width
            for c in probes:
                band = _band(h, eps)
                if h - eps <= c <= h + eps:
                    m, bucket = _inside_margins(band, _height(c, PREC)), in_cells
                else:
                    m, bucket = (band.north if c > h + eps else band.south).outside, out_cells
                params = {"band": par.index, "h": frac_str(h), "eps": frac_str(eps), "c": frac_str(c)}
                bucket.append(({**params, "side": "lower"}, m.value, m.lower_bound, m.lower_margin))
                bucket.append(({**params, "side": "upper"}, m.value, m.upper_bound, m.upper_margin))
    return out_cells, in_cells


def cell_tuples(report):
    return [(c.params, c.lhs, c.rhs, c.margin) for c in report.cells]


@pytest.mark.parametrize("M,seed", [(2, 0), (3, 5), (5, 1)])
def test_comparison_cells_match_one_pair_margins(M, seed):
    ps = build_point_set(M, prec_bits=PREC)
    outside, inside = verify_comparison(M, PREC, seed)
    want_out, want_in = one_pair_comparison_cells(ps, seed)
    assert cell_tuples(outside) == want_out
    assert cell_tuples(inside) == want_in
    # the structural probes put c on both edges of every band and on both
    # poles; an edge probe takes band_integral's c <= lo / c >= hi closed
    # form, so no cell is 0 * log 0
    edges = {(p["band"], p["c"]) for p, *_ in want_in}
    for par in ps.parallels:
        assert {(par.index, frac_str(par.lower)), (par.index, frac_str(par.upper))} <= edges
    poles = {p["c"] for p, *_ in want_in} & {"1/1", "-1/1"}
    assert poles == {"1/1", "-1/1"}
    with mp.workprec(PREC):
        assert all(mp.isfinite(v) for _, *vals in want_in + want_out for v in vals)
    assert outside.passed and inside.passed


@pytest.mark.parametrize("M,seed", [(3, 5), (7, 1)])
def test_outside_window_value_does_not_depend_on_the_query(M, seed):
    """Above (below) a band every outside probe reads one D, formed with
    the band, within 2^-(prec-16) of expected_log_parallel -
    band_integral / eps - eps^2 / (12 g^2) taken at that probe."""
    ps = build_point_set(M, prec_bits=PREC)
    rng = random.Random(seed)
    probes = [c for par in ps.parallels for c in band_probe_heights(par, rng)]
    checked = 0
    with mp.workprec(PREC):
        for par in ps.parallels:
            h, eps = par.height, par.half_width
            band = _band(h, eps)
            for gap, pole, side in ((1 - h, band.north, [c for c in probes if c > par.upper]),
                                    (1 + h, band.south, [c for c in probes if c < par.lower])):
                value = pole.outside.value
                for c in side:
                    by_c = (
                        expected_log_parallel(h, c, PREC)
                        - band_integral(h, eps, c, PREC) / to_mpf(eps)
                        - to_mpf(eps) ** 2 / (12 * to_mpf(gap) ** 2)
                    )
                    assert abs(fraction_from_mpf(value) - fraction_from_mpf(by_c)) <= TOL, (par.index, c)
                    checked += 1
    assert checked > len(ps.parallels) * len(probes) // 2


def test_band_integral_takes_the_closed_form_on_the_edges():
    """At c = lo and c = hi the value is the outside branch's closed form,
    finite even where the band touches a pole (c = hi = 1, c = lo = -1)."""
    with mp.workprec(PREC):
        for h, eps in [(Fraction(7, 8), Fraction(1, 8)), (Fraction(-3, 4), Fraction(1, 4)),
                       (Fraction(1, 3), Fraction(1, 6))]:
            lo, hi = h - eps, h + eps

            def anti(w):  # w log w, continuous value 0 at w = 0
                return to_mpf(w) * mp.log(to_mpf(w)) if w else mp.mpf(0)

            # c = lo: (1/4) [int_lo^hi log(1+t) dt + 2 eps log(1 - lo)]
            at_lo = (anti(1 + hi) - anti(1 + lo) - 2 * to_mpf(eps)
                     + 2 * to_mpf(eps) * mp.log(to_mpf(1 - lo))) / 4
            # c = hi: (1/4) [int_lo^hi log(1-t) dt + 2 eps log(1 + hi)]
            at_hi = (anti(1 - lo) - anti(1 - hi) - 2 * to_mpf(eps)
                     + 2 * to_mpf(eps) * mp.log(to_mpf(1 + hi))) / 4
            tol = mp.mpf(2) ** (16 - PREC)
            for c, want in [(lo, at_lo), (hi, at_hi)]:
                got = band_integral(h, eps, c, PREC)
                assert mp.isfinite(got) and abs(got - want) <= tol, (h, eps, c)


@pytest.mark.parametrize("M,seed", [(3, 2), (5, 1)])
def test_suites_match_one_query_oracles(M, seed):
    """Numerator, S_N + N kappa and denominator cells, each recomputed one
    query at a time (a denominator cell at its orbit representative); a
    coincidence is skipped with the same note."""
    ps = build_point_set(M, prec_bits=PREC)
    kap = kappa(PREC)
    rng = random.Random(seed)
    probes = [(par.index, c) for par in ps.parallels[:M] for c in band_probe_heights(par, rng)]

    numer_sum, _ = verify_numerator(M, PREC, seed)
    cells, notes = [], []
    with mp.workprec(PREC):
        for ell, c in probes:
            sum_rhs = s_n_by_parallel(c, ps) + mp.log(2) + mp.mpf(1) / 2
            for turn in AZIMUTH_TURNS:
                # a folded column holds its turn representative's product,
                # within 2^-(prec-16) of the query's own
                lhs = log_product_by_query(c, turn_representative(turn), ps, PREC)
                assert_close(lhs, log_product_by_query(c, turn, ps, PREC), (c, turn))
                if lhs == MINUS_INF:
                    notes.append(
                        f"skipped query at c={frac_str(c)}, turn={frac_str(turn)}: "
                        "coincides with a family point"
                    )
                    continue
                params = {"band": ell, "c": frac_str(c), "turn": frac_str(turn)}
                cells.append((params, lhs, sum_rhs, sum_rhs - lhs))
    assert notes, "the band midpoints at turn 0 are family points"
    assert numer_sum.notes == notes
    assert cell_tuples(numer_sum) == cells
    # each folded column is its representative's, bit for bit
    lhs = {(cell.params["c"], Fraction(cell.params["turn"])): cell.lhs for cell in numer_sum.cells}
    for (c, turn), value in lhs.items():
        assert lhs[c, turn_representative(turn)] == value, (c, turn)

    _, chain = verify_sn_kappa(M, PREC, seed)
    with mp.workprec(PREC):
        vals = [s_n_by_parallel(c, ps) + ps.N * kap for _, c in probes]
        assert [c.lhs for c in chain.cells] == [v for v in vals for _side in (0, 1)]
        assert _s_n_values([c for _, c in probes], ps) == [s_n_by_parallel(c, ps) for _, c in probes]

    # a denominator cell holds its orbit representative's gap product,
    # within 2^-(prec-16) of the point's own
    denom_sum, _ = verify_denominator(M, PREC)
    cells = []
    with mp.workprec(PREC):
        for par in ps.parallels:
            rhs = s_n_by_parallel(par.height, ps) + mp.log(2 * mp.sqrt(2) * M) - mp.mpf(1) / 8
            rep_index = min(par.index, mirror_index(M, par.index))
            for k in range(par.count):
                rep_k = turn_representative(Fraction(2 * k, par.count)) * par.count / 2
                lhs = gap_product_by_point(ps, rep_index, int(rep_k), PREC)
                own = gap_product_by_point(ps, par.index, k, PREC)
                assert abs(lhs - own) < mp.mpf(2) ** (16 - PREC), (par.index, k)
                cells.append(({"parallel": par.index, "k": k}, lhs, rhs, lhs - rhs))
    assert cell_tuples(denom_sum) == cells
