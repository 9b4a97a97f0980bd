"""Energy closed forms, comparison lemmas, and the verification suites."""

from fractions import Fraction

import mpmath as mp
import pytest

from wellcond import energy
from wellcond.energy import (
    SuiteResult,
    band_integral,
    expected_log_parallel,
    kappa,
    log_energy,
    log_product_to_set,
    t_ell,
    verification_suite,
    verify_comparison,
    verify_denominator,
    verify_numerator,
    verify_sn_kappa,
    verify_t_bounds,
)
from wellcond.condition import parallel_self_product_log
from wellcond.numerics import fmt_real, log_fraction, to_fraction, to_mpf
from wellcond.points import build_parallels, build_point_set
from sphere_oracle import coordinates_by_point, distance_sq, energy_by_gap_products, energy_by_resultants


def pairwise_log_energy(points, prec):
    """E(P) = sum_{i != j} log 1/|p_i - p_j| straight from coordinate pairs."""
    with mp.workprec(prec):
        acc = mp.mpf(0)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                d2 = distance_sq(points[i], points[j])
                acc += mp.log(d2) if d2 > 0 else mp.mpf("-inf")
        # sum_{i != j} log 1/|p_i - p_j| = -sum_{i < j} log |p_i - p_j|^2
        return -acc


def test_kappa_value():
    with mp.workprec(256):
        assert abs(kappa(256) - (mp.mpf(1) / 2 - mp.log(2))) < mp.mpf(2) ** -250


@pytest.mark.parametrize(
    "t,c",
    [
        (Fraction(1, 3), Fraction(4, 5)),
        (Fraction(-2, 7), Fraction(-9, 10)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(3, 5), Fraction(0)),
    ],
)
def test_expected_log_parallel_vs_azimuthal_average(t, c):
    """Closed form against a 4096-node uniform average over the parallel."""
    prec = 256
    n = 4096
    with mp.workprec(prec):
        t_f, c_f = to_mpf(t), to_mpf(c)
        rho_t = mp.sqrt(1 - t_f * t_f)
        rho_c = mp.sqrt(1 - c_f * c_f)
        acc = mp.mpf(0)
        for k in range(n):
            ang = 2 * mp.pi * k / n
            d2 = (rho_c - rho_t * mp.cos(ang)) ** 2 + (rho_t * mp.sin(ang)) ** 2
            d2 += (c_f - t_f) ** 2
            acc += mp.log(d2) / 2
        brute = acc / n
        got = expected_log_parallel(t, c, prec)
        assert abs(got - brute) < mp.mpf("1e-8")


def test_band_integral_vs_adaptive_quadrature():
    prec = 256
    cases = [
        (Fraction(5, 9), Fraction(2, 9), Fraction(9, 10)),  # c above the band
        (Fraction(5, 9), Fraction(2, 9), Fraction(1, 2)),  # c inside the band
        (Fraction(-5, 9), Fraction(2, 9), Fraction(0)),  # c above, southern band
    ]
    with mp.workprec(prec + 64):
        for h, eps, c in cases:
            got = band_integral(h, eps, c, prec)
            h_f, eps_f, c_f = to_mpf(h), to_mpf(eps), to_mpf(c)
            want = mp.quad(
                lambda t: expected_log_parallel(t, c_f, prec + 64) / 2,
                [h_f - eps_f, to_mpf(c) if abs(c - h) < eps else h_f, h_f + eps_f],
            )
            assert abs(got - want) < mp.mpf("1e-12")


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1, 3), Fraction(-24, 25), 1])
def test_band_integrals_sum_to_minus_kappa(c):
    """The full-sphere expected log distance: sum of all bands = -kappa."""
    prec = 256
    M = 5
    pars = build_parallels(M)
    with mp.workprec(prec):
        total = mp.fsum(
            band_integral(p.height, p.half_width, Fraction(c), prec) for p in pars
        )
        assert abs(total - (-kappa(prec))) < mp.mpf("1e-12")


def test_t_ell_exact_hand_value():
    assert t_ell(5, 5) == Fraction(93324107900, 1851120298083)
    with pytest.raises(ValueError):
        t_ell(0, 5)
    with pytest.raises(ValueError):
        t_ell(6, 5)


def test_t_ell_matches_direct_definition():
    """Same sum straight from radii and heights, no simplification."""
    for M in (2, 4, 7):
        pars = build_parallels(M)
        N = 4 * M * M
        for ell in (1, M // 2 + 1, M):
            acc = Fraction(0)
            for p in pars:
                if p.index == ell:
                    continue
                side = 1 + p.height if p.index < ell else 1 - p.height
                acc += Fraction(p.count**3, 12 * N * N) / (side * side)
            assert t_ell(ell, M) == acc


def test_comparison_margins_nonnegative_small_m():
    for M in (1, 2, 3, 4):
        for rep in verify_comparison(M, 192, seed=3):
            if M == 1 and rep.lemma == "band_average_outside_window":
                # one band covers the sphere: no probe lies outside it,
                # and an empty grid is not a pass
                assert not rep.cells and not rep.passed
                continue
            assert rep.passed, (M, rep.lemma, rep.worst_margin)


def test_log_product_to_set_matches_pairwise_sum():
    prec = 256
    # the phased M = 2 family puts the sign of each parallel's phase offset
    # into the query's azimuth
    families = [(M, None) for M in (1, 2, 3)] + [(2, [0.1, 0.7, -1.2])]
    for M, phases in families:
        ps = build_point_set(M, phases=phases, prec_bits=prec)
        q = (Fraction(11, 16), Fraction(1, 5))
        with mp.workprec(prec):
            got = log_product_to_set([q[0]], [q[1]], ps)[0][0]
            t = to_mpf(q[0])
            rho = mp.sqrt(1 - t * t)
            qx = rho * mp.cospi(to_mpf(q[1]))
            qy = rho * mp.sinpi(to_mpf(q[1]))
            acc = mp.mpf(0)
            for _, _, p in coordinates_by_point(ps, prec):
                d2 = (qx - p.x) ** 2 + (qy - p.y) ** 2 + (t - p.z) ** 2
                acc += mp.log(d2) / 2
            assert abs(got - acc) < mp.mpf("1e-25"), (M, phases)


def test_log_product_to_set_coincidence_is_minus_inf():
    ps = build_point_set(2, prec_bits=192)
    got = log_product_to_set([ps.parallels[0].height], [Fraction(0)], ps)
    assert got == [[mp.mpf("-inf")]]


def test_s_n_equator_branch_consistency():
    prec = 192
    ps = build_point_set(3, prec_bits=prec)
    with mp.workprec(prec):
        (v,) = energy._s_n_values([Fraction(1, 2)], ps)
        # direct: sum r_j * expected - parallel-weighted
        acc = mp.fsum(
            p.count * expected_log_parallel(p.height, Fraction(1, 2), prec)
            for p in ps.parallels
        )
        assert abs(v - acc) < mp.mpf(2) ** -(prec - 16)


def test_energy_m1_exact_minus_8_log2():
    rep = log_energy(build_point_set(1, prec_bits=256))
    with mp.workprec(256):
        assert abs(rep.energy - (-8 * mp.log(2))) < mp.mpf("1e-12")


def assert_energy_close(got, want, prec):
    """Relative agreement to 2^-(prec - 16)."""
    with mp.workprec(prec):
        assert abs(got - want) <= mp.ldexp(abs(want), 16 - prec), (got, want)


@pytest.mark.parametrize(
    "M,phases",
    [(1, None), (2, None), (3, None), (4, None),
     (2, [0.1, 0.7, -1.2]), (3, [0.1, 0.7, -1.2, 0.4, 2.0])],
    ids=["1", "2", "3", "4", "2-phased", "3-phased"],
)
def test_energy_parallel_vs_pairwise(M, phases):
    """The discriminant identity against the sum over coordinate pairs."""
    prec = 256
    ps = build_point_set(M, phases=phases, prec_bits=prec)
    a = log_energy(ps)
    b = pairwise_log_energy([p for _, _, p in coordinates_by_point(ps, prec)], prec)
    assert_energy_close(a.energy, b, prec)
    assert a.residual is not None and a.N == 4 * M * M


@pytest.mark.parametrize("M", [5, 6, 7, 8])
def test_energy_matches_gap_product_sum(M):
    prec = 256
    ps = build_point_set(M, prec_bits=prec)
    assert_energy_close(log_energy(ps).energy, energy_by_gap_products(ps, prec), prec)


@pytest.mark.parametrize(
    "M,phases",
    [(M, None) for M in range(1, 9)]
    + [(2, [0.1, 0.7, -1.2]), (3, [0.1, 0.7, -1.2, 0.4, 2.0])],
    ids=[str(M) for M in range(1, 9)] + ["2-phased", "3-phased"],
)
def test_energy_kernel_matches_exact_resultants(M, phases):
    """The two-term kernel against the resultants a^(q/g) - b^(r/g) formed
    exactly (or, phased, as mpc) and rounded once."""
    prec = 256
    ps = build_point_set(M, phases=phases, prec_bits=prec)
    assert_energy_close(log_energy(ps).energy, energy_by_resultants(ps), prec)


def test_log_energy_forms_no_distance_product(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("log_energy formed a distance product")

    monkeypatch.setattr(energy, "point_gap_product_log", forbidden)
    monkeypatch.setattr(energy, "log_distance_products", forbidden)
    prec = 256
    ps = build_point_set(6, prec_bits=prec)
    assert_energy_close(log_energy(ps).energy, energy_by_gap_products(ps, prec), prec)


@pytest.mark.parametrize(
    "M,phases", [(2, None), (4, None), (5, None), (3, [0.1, 0.7, -1.2, 0.4, 2.0])],
    ids=["2", "4", "5", "3-phased"],
)
def test_log_energy_takes_one_kernel_call_per_mirror_orbit_of_pairs(monkeypatch, M, phases):
    """On a symmetric point set the pairs (k, l) and (2M - k, 2M - l)
    share one kernel call: (P + M - 1) / 2 calls for the P pairs, M - 1
    of them their own mirror; a phased set takes one per pair."""
    kernel, calls = energy.two_term_log, []
    monkeypatch.setattr(energy, "two_term_log", lambda *a: calls.append(a) or kernel(*a))
    ps = build_point_set(M, phases=phases, prec_bits=256)
    pairs = (2 * M - 1) * (2 * M - 2) // 2
    assert_energy_close(log_energy(ps).energy, energy_by_resultants(ps), 256)
    assert len(calls) == (pairs if phases else (pairs + M - 1) // 2)


GENERAL_LEMMAS = [
    "band_average_outside_window",
    "band_average_inside_window",
    "band_correction_log_bounds",
]
SHARPENED_LEMMAS = [
    "parallel_energy_window",
    "parallel_energy_chain",
    "point_product_vs_parallel_sum",
    "point_product_explicit_bound",
    "gap_product_vs_parallel_sum",
    "gap_product_absolute_floor",
]


def test_suite_refuses_sharpened_lemmas_below_hypothesis(monkeypatch):
    """Below M = 5 the six sharpened lemmas are refused and not evaluated;
    informational=True evaluates all nine and gates none of the six."""

    def refused_suite_ran(*args, **kwargs):
        raise AssertionError("a refused suite was evaluated")

    for M in (2, 3, 4):
        with monkeypatch.context() as patch:
            # the registry calls the suites by module-level name
            for name in ("verify_sn_kappa", "verify_numerator", "verify_denominator"):
                patch.setattr(energy, name, refused_suite_ran)
            suite = verification_suite(M, 128)
        assert suite.refused == [
            {"lemma": lemma, "reason": "hypothesis M >= 5 not met"}
            for lemma in SHARPENED_LEMMAS
        ]
        assert [r.lemma for r in suite.reports] == GENERAL_LEMMAS
        assert all(rep.gated for rep in suite.reports)

        info = verification_suite(M, 128, informational=True)
        assert info.refused == []
        assert [r.lemma for r in info.reports] == GENERAL_LEMMAS + SHARPENED_LEMMAS
        for rep in info.reports[3:]:
            assert rep.hypothesis == f"M >= 5 (informational run at M={M})"
            assert rep.gated is False
        assert all(rep.gated for rep in info.reports[:3])


def test_full_suite_m5_passes_and_is_deterministic():
    prec = 192
    suite_a = verification_suite(5, prec, seed=11)
    suite_b = verification_suite(5, prec, seed=11)
    reps_a, reps_b = suite_a.reports, suite_b.reports
    assert [r.lemma for r in reps_a] == GENERAL_LEMMAS + SHARPENED_LEMMAS
    assert suite_a.refused == [] and all(rep.gated for rep in reps_a)
    assert suite_a.passed
    for ra, rb in zip(reps_a, reps_b, strict=True):
        assert ra.passed, (ra.lemma, ra.worst_margin)
        assert ra.to_json_dict() == rb.to_json_dict()


def test_suite_matches_the_standalone_suites():
    """The suite gives the same reports as each suite run alone."""
    prec, M, seed = 128, 3, 4
    suite = verification_suite(M, prec, seed=seed, informational=True)
    alone = [
        *verify_comparison(M, prec, seed),
        verify_t_bounds(M, prec),
        *verify_sn_kappa(M, prec, seed),
        *verify_numerator(M, prec, seed),
        *verify_denominator(M, prec),
    ]
    with mp.workprec(prec):
        assert [r.to_json_dict() for r in suite.reports] == [
            r.to_json_dict() for r in alone
        ]


def test_t_bounds_report_covers_all_ell():
    rep = verify_t_bounds(6, 192)
    assert rep.passed
    assert len(rep.cells) == 2 * 6


def test_worst_margin_is_formed_once_per_report():
    """Writing a report and deciding its suite read the cells twice: once
    for the JSON cells, once for the worst margin, shared by `passed`."""
    rep = verify_t_bounds(4, 128)

    class CountedCells(list):
        passes = 0

        def __iter__(self):
            CountedCells.passes += 1
            return super().__iter__()

    rep.cells = CountedCells(rep.cells)
    out = rep.to_json_dict()
    assert rep.passed and SuiteResult([rep]).passed and out["pass"]
    assert CountedCells.passes == 2


@pytest.mark.parametrize("nan_first", [True, False], ids=["nan-first", "nan-later"])
def test_a_nan_margin_anywhere_fails_the_report(nan_first):
    """min keeps a nan only when it comes first, so a report reads its
    worst margin as nan, prints it so and fails, wherever the nan cell
    sits."""
    cells = [
        energy.Cell({"k": 0}, mp.mpf(2), mp.mpf(1), mp.mpf(1)),
        energy.Cell({"k": 1}, mp.mpf(0), mp.nan, mp.nan),
    ]
    rep = energy.VerificationReport(
        "lemma", "none", 1, "two cells", cells[::-1] if nan_first else cells, 128, True
    )
    assert mp.isnan(rep.worst_margin)
    assert rep.printed_margins()["worst_margin"] == "nan"
    assert not rep.passed and not SuiteResult([rep]).passed
    assert rep.to_json_dict()["pass"] is False


def test_grid_strings_count_probe_heights():
    """The grid prose counts 5 structural plus 8 seeded heights."""
    for rep in verify_sn_kappa(3, 128):
        assert rep.grid.startswith("bands 1..3 x 13 probe heights ")
        assert len(rep.cells) == 3 * 13 * 2
        assert rep.hypothesis == "M >= 5 (informational run at M=3)"
    for rep in verify_numerator(3, 128):
        assert rep.grid.startswith("bands 1..3 x 13 probe heights x 8 azimuths ")


@pytest.mark.parametrize("convert", [float, to_mpf], ids=["float", "mpf"])
def test_height_inputs_match_equal_fraction_bit_for_bit(convert):
    """Heights are exact at entry: any input type gives the Fraction's bits."""
    prec = 256
    h, eps = Fraction(1, 2), Fraction(1, 8)
    with mp.workprec(prec):
        # 256-bit dyadics, not floats: each equals its to_mpf image
        two_thirds = to_fraction(mp.mpf(2) / 3)
        inside = to_fraction(mp.mpf(1) / 3 + mp.mpf(1) / 4)
    # (function, heights): band_integral probes below, inside and above
    # the band
    cases = [
        (expected_log_parallel, (Fraction(5, 8), Fraction(-3, 16))),
        (band_integral, (h, eps, Fraction(-3, 16))),
        (band_integral, (h, eps, Fraction(9, 16))),
        (band_integral, (h, eps, Fraction(3, 4))),
        (parallel_self_product_log, (12, Fraction(3, 8))),
    ]
    if convert is to_mpf:
        cases += [
            (expected_log_parallel, (two_thirds, h)),
            (band_integral, (h, eps, two_thirds)),
            (band_integral, (h, eps, inside)),
            (parallel_self_product_log, (12, two_thirds)),
        ]
    with mp.workprec(prec):
        for fn, args in cases:
            want = fn(*args, prec)
            got = fn(*(a if isinstance(a, int) else convert(a) for a in args), prec)
            assert got == want, (fn.__name__, args)


@pytest.mark.parametrize(
    "u", [Fraction(1, 3), Fraction(-5, 7), Fraction(1), Fraction(-1), Fraction(9, 8)]
)
def test_height_records_hold_the_asked_precision(u):
    """_height(u, prec) is the record at prec whatever the working
    precision, memoised on (height, precision); a height outside [-1, 1]
    is refused."""
    energy._height.cache_clear()
    if abs(u) > 1:
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            energy._height(u, 64)
        return
    with mp.workprec(53):
        records = {prec: energy._height(u, prec) for prec in (64, 256)}
    for prec, rec in records.items():
        assert energy._height(u, prec) is rec
        with mp.workprec(prec):
            log_p = log_fraction(mp.mp, 1 + u) if u > -1 else mp.mpf("-inf")
            log_m = log_fraction(mp.mp, 1 - u) if u < 1 else mp.mpf("-inf")
            wp, wm = to_mpf(1 + u), to_mpf(1 - u)
            assert (rec.u, rec.log_p, rec.log_m) == (u, log_p, log_m)
            assert rec.anti_p == (1 if u == -1 else wp * log_p - (wp - 1))
            assert rec.anti_m == (-1 if u == 1 else -wm * log_m - (1 - wm))
    if abs(u) < 1:
        assert records[64].log_p != records[256].log_p
        assert abs(records[64].log_p - records[256].log_p) < mp.mpf(2) ** -60


def test_report_json_prints_at_its_precision_under_any_context():
    """A report prints its cells, worst margin and tolerance at its
    precision_bits under any working precision, each cell's params as
    they are."""
    reports = [*verify_comparison(3, 128, seed=2), verify_t_bounds(4, 96), *verify_denominator(5, 160)]
    for rep in reports:
        with mp.workprec(53):
            low = rep.to_json_dict()
        with mp.workprec(512):
            high = rep.to_json_dict()
        assert low == high
        with mp.workprec(rep.precision_bits):
            assert low["cells"] == [
                {"params": c.params, "lhs": fmt_real(c.lhs), "rhs": fmt_real(c.rhs), "margin": fmt_real(c.margin)}
                for c in rep.cells
            ]
            assert (low["worst_margin"], low["tolerance"]) == (
                fmt_real(rep.worst_margin), fmt_real(rep.tolerance)
            )
        assert all(d["params"] is c.params for d, c in zip(low["cells"], rep.cells))
