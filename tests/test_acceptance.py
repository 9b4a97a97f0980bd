"""Acceptance gate: one test per shipped guarantee, at stated tolerances.

Each test prints a single summary line (visible with -s or in captured
output) and asserts the guarantee.  Criterion 5 records the normalized
ratio trend without gating it, since its limit lives at N -> infinity.
"""

import json
import time
from fractions import Fraction

import mpmath as mp
import pytest

from wellcond.condition import (
    certify_bound,
    mu_max_coefficient_route,
    mu_max_spherical_route,
    route_tolerance,
    theta_product_log_turn,
)
from wellcond.energy import (
    band_integral,
    expected_log_parallel,
    kappa,
    log_energy,
    log_product_to_set,
    verification_suite,
)
from wellcond.numerics import to_mpf
from wellcond.points import build_parallels, build_point_set
from wellcond.polynomials import canonical_polynomial
from wellcond.cli import main as cli_main

PREC = 256

# Residual interval frozen from measured values of this implementation:
# (E - kappa N^2 + (N/2) log N)/N for M = 2..12 spans
# [-0.03567, +0.00673]; the gate adds a small cushion on each side.
RESIDUAL_LO = mp.mpf("-0.0360")
RESIDUAL_HI = mp.mpf("+0.0068")

# Rotated families for the route check: one phase (radians) per parallel.
PHASED = {2: ["0.1", "0.7", "-1.2"], 3: ["0.1", "0.7", "-1.2", "0.4", "2.0"]}


@pytest.fixture(scope="module")
def coeff_reports():
    return {M: mu_max_coefficient_route(M, PREC) for M in range(1, 13)}


@pytest.fixture(scope="module")
def energy_reports():
    return {
        M: log_energy(build_point_set(M, prec_bits=PREC))
        for M in range(1, 13)
    }


def say(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_01_exact_factor_tables():
    """M = 1, 2, 3 factor sets match the published tables exactly, < 1 s."""
    t0 = time.perf_counter()
    want = {
        1: {(4, Fraction(1))},
        2: {(8, Fraction(1)), (4, Fraction(49)), (4, Fraction(1, 49))},
        3: {
            (12, Fraction(1)),
            (8, Fraction(2401, 16)),
            (8, Fraction(16, 2401)),
            (4, Fraction(289)),
            (4, Fraction(1, 289)),
        },
    }
    for M, expected in want.items():
        got = {(f.power, f.shift) for f in canonical_polynomial(M).factors}
        assert got == expected, M
    dt = time.perf_counter() - t0
    assert dt < 1.0
    say(f"criterion 1 PASS: factor tables exact for M=1..3 in {dt:.3f}s")


def test_criterion_02_upper_bounds_and_certification(coeff_reports):
    """mu_max <= min(N, 9.5 sqrt(N+1)) for M = 1..8; certified for M <= 8."""
    with mp.workprec(PREC):
        for M in range(1, 9):
            rep = coeff_reports[M]
            cap = min(mp.mpf(rep.N), mp.mpf("9.5") * mp.sqrt(mp.mpf(rep.N + 1)))
            assert rep.mu_max <= cap, M
            assert rep.verdicts["le_N"] and rep.verdicts["le_19half_sqrt"]
    per_m = []
    for M in range(1, 9):
        t0 = time.perf_counter()
        cert = certify_bound(M, PREC)
        per_m.append(time.perf_counter() - t0)
        assert cert.certified
        assert cert.verdicts["le_N"] is True, M
    say(
        "criterion 2 PASS: mu_max under both caps for M=1..8; "
        f"le_N certified for M=1..8 (certify {max(per_m):.2f}s worst case)"
    )


def test_criterion_03_route_agreement(coeff_reports):
    """Coefficient and spherical routes agree to the relative
    condition.route_tolerance that `cond --route both` gates on,
    N * 2^-(prec-8), for M = 1..12 and the phased families of PHASED."""
    cases = [(M, None, coeff_reports[M]) for M in range(1, 13)]
    cases += [(M, ph, mu_max_coefficient_route(M, PREC, ph)) for M, ph in PHASED.items()]
    worst = mp.mpf(0)  # as a share of the tolerance
    with mp.workprec(PREC):
        for M, phases, coeff in cases:
            sph = mu_max_spherical_route(M, PREC, phases)
            rel = abs(coeff.mu_max - sph.mu_max) / sph.mu_max
            worst = max(worst, rel / route_tolerance(coeff.N, PREC))
            assert rel <= route_tolerance(coeff.N, PREC), (M, phases, rel)
    say(
        "criterion 3 PASS: route agreement M=1..12 and phased M=2,3, "
        f"worst rel diff {mp.nstr(worst, 3)} x N*2^-(prec-8)"
    )


def test_criterion_04_lower_bound(coeff_reports):
    """mu_max >= 0.454 sqrt(N) for every M = 1..8."""
    with mp.workprec(PREC):
        for M in range(1, 9):
            rep = coeff_reports[M]
            assert rep.mu_max >= mp.mpf("0.454") * mp.sqrt(mp.mpf(rep.N))
            assert rep.verdicts["ge_lower"]
    say("criterion 4 PASS: mu_max >= 0.454 sqrt(N) for M=1..8")


def test_criterion_05_ratio_trend_recorded(coeff_reports):
    """mu_max / sqrt(N+1) for M = 5..12: recorded, stays below 9.5.

    The limiting constant is asymptotic; the desk-scale sequence is
    logged for inspection, not gated against it.
    """
    ratios = []
    with mp.workprec(PREC):
        for M in range(5, 13):
            rep = coeff_reports[M]
            ratios.append(rep.mu_max / mp.sqrt(mp.mpf(rep.N + 1)))
        assert all(r < mp.mpf("9.5") for r in ratios)
    pretty = ", ".join(mp.nstr(r, 6) for r in ratios)
    say(f"criterion 5 PASS (recorded): ratios M=5..12 = [{pretty}] < 9.5")


def test_criterion_06_inequality_suites_gated():
    """All nine inequality suites pass for every M = 5..8, < 60 s each."""
    worst_dt = 0.0
    for M in range(5, 9):
        t0 = time.perf_counter()
        suite = verification_suite(M, PREC, seed=0)
        dt = time.perf_counter() - t0
        worst_dt = max(worst_dt, dt)
        assert len(suite.reports) == 9
        assert suite.refused == [] and all(rep.gated for rep in suite.reports)
        assert suite.passed
        for rep in suite.reports:
            assert rep.passed, (M, rep.lemma, rep.worst_margin)
        assert dt < 60.0, (M, dt)
    say(f"criterion 6 PASS: 9 suites x M=5..8 all margins pass, {worst_dt:.1f}s worst M")


def test_criterion_07_sum_inequalities():
    """R(2) = 1/16 exactly; R <= 1/30 for M = 5..64; tail and log bounds."""
    from wellcond.sums import r_sum, sum_check_suite

    assert r_sum(2)[0].value == Fraction(1, 16)
    for M in range(5, 65):
        assert r_sum(M)[0].value <= Fraction(1, 30), M
    checks = sum_check_suite(64, PREC)
    failed = [c for c in checks if not c.passed]
    assert not failed, failed[:3]
    say(f"criterion 7 PASS: R(2)=1/16 exact, {len(checks)} sum checks all hold")


def test_criterion_08_closed_forms_vs_brute_force():
    """Closed forms against direct evaluation at the stated tolerances."""
    with mp.workprec(PREC):
        # distance product over one parallel vs explicit product (1e-20)
        r, h, c = 8, Fraction(5, 9), Fraction(1, 4)
        dphi = mp.pi / 16
        rho_p, rho_q = mp.sqrt(1 - to_mpf(h) ** 2), mp.sqrt(1 - to_mpf(c) ** 2)
        brute = mp.mpf(1)
        for k in range(r):
            ang = 2 * mp.pi * k / r
            brute *= (
                (rho_q * mp.cos(dphi) - rho_p * mp.cos(ang)) ** 2
                + (rho_q * mp.sin(dphi) - rho_p * mp.sin(ang)) ** 2
                + (to_mpf(c) - to_mpf(h)) ** 2
            )
        ((got,),) = theta_product_log_turn(r, h, [c], [Fraction(1, 16)], PREC)
        assert abs(got - brute) / brute < mp.mpf("1e-20")

        # parallel average of log distance vs 4096-node mean (1e-8)
        t, cc = Fraction(1, 3), Fraction(4, 5)
        n = 4096
        t_f, c_f = to_mpf(t), to_mpf(cc)
        rho_t, rho_c = mp.sqrt(1 - t_f * t_f), mp.sqrt(1 - c_f * c_f)
        acc = mp.mpf(0)
        for k in range(n):
            ang = 2 * mp.pi * k / n
            acc += (
                mp.log(
                    (rho_c - rho_t * mp.cos(ang)) ** 2
                    + (rho_t * mp.sin(ang)) ** 2
                    + (c_f - t_f) ** 2
                )
                / 2
            )
        assert abs(expected_log_parallel(t, cc, PREC) - acc / n) < mp.mpf("1e-8")

        # band integral vs adaptive quadrature (1e-12)
        h, eps, cq = Fraction(5, 9), Fraction(2, 9), Fraction(9, 10)
        want = mp.quad(
            lambda u: expected_log_parallel(u, to_mpf(cq), PREC) / 2,
            [to_mpf(h - eps), to_mpf(h + eps)],
        )
        assert abs(band_integral(h, eps, cq, PREC) - want) < mp.mpf("1e-12")

        # whole-sphere split: sum of band integrals = -kappa (1e-12)
        total = mp.fsum(
            band_integral(p.height, p.half_width, Fraction(1, 3), PREC)
            for p in build_parallels(4)
        )
        assert abs(total + kappa(PREC)) < mp.mpf("1e-12")

        # log product to the full family vs pairwise sum, M <= 3 (1e-25)
        for M in (1, 2, 3):
            ps = build_point_set(M, prec_bits=PREC)
            q = (Fraction(11, 16), Fraction(1, 5))
            got = log_product_to_set([q[0]], [q[1]], ps)[0][0]
            tq = to_mpf(q[0])
            rho = mp.sqrt(1 - tq * tq)
            qx, qy = rho * mp.cospi(to_mpf(q[1])), rho * mp.sinpi(to_mpf(q[1]))
            acc = mp.mpf(0)
            for _, _, p in ps.coordinates():
                acc += (
                    mp.log((qx - p.x) ** 2 + (qy - p.y) ** 2 + (tq - p.z) ** 2) / 2
                )
            assert abs(got - acc) < mp.mpf("1e-25"), M
    say("criterion 8 PASS: all five closed forms match brute force at tolerance")


def test_criterion_09_energy_residual_window(energy_reports):
    """M=1 energy is -8 log 2 exactly (1e-12); residuals stay in the
    frozen window for M = 2..12."""
    with mp.workprec(PREC):
        e1 = energy_reports[1]
        assert abs(e1.energy + 8 * mp.log(2)) < mp.mpf("1e-12")
        lo = hi = None
        for M in range(2, 13):
            r = energy_reports[M].residual
            assert RESIDUAL_LO <= r <= RESIDUAL_HI, (M, r)
            lo = r if lo is None else min(lo, r)
            hi = r if hi is None else max(hi, r)
    say(
        "criterion 9 PASS: E(M=1) = -8 log 2; residuals M=2..12 in "
        f"[{mp.nstr(lo, 4)}, {mp.nstr(hi, 4)}] within frozen "
        f"[{mp.nstr(RESIDUAL_LO, 3)}, {mp.nstr(RESIDUAL_HI, 3)}]"
    )


def test_criterion_10_determinism(tmp_path, monkeypatch):
    """Identical config + seed => byte-identical outputs, any worker count."""
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    argv_cond = ["cond", "--M", "1..3", "--certify"]
    argv_verify = ["verify", "--M", "5", "--seed", "7", "--sums-max", "8"]
    argv_sweep = ["sweep", "--M", "1..3"]

    monkeypatch.setenv("WELLCOND_WORKERS", "1")
    for argv, out in ((argv_cond, a), (argv_verify, a), (argv_sweep, a)):
        cli_main(argv + ["--out", str(out)])
    monkeypatch.setenv("WELLCOND_WORKERS", "3")
    for argv, out in ((argv_cond, b), (argv_verify, b), (argv_sweep, b)):
        cli_main(argv + ["--out", str(out)])
    monkeypatch.delenv("WELLCOND_WORKERS")
    for argv, out in ((argv_cond, c), (argv_verify, c), (argv_sweep, c)):
        cli_main(argv + ["--out", str(out)])

    exact = [
        "cond_M1.json",
        "cond_M2.json",
        "cond_M3.json",
        "verify_M5.json",
        "sum_checks.json",
    ]
    for name in exact:
        ra = (a / name).read_bytes()
        assert ra == (b / name).read_bytes() == (c / name).read_bytes(), name

    # sweep files hold no runtimes, so they compare whole
    ra = (a / "sweep.csv").read_bytes()
    assert ra == (b / "sweep.csv").read_bytes() == (c / "sweep.csv").read_bytes()

    cfg = json.loads((a / "cond_M1.json").read_text())["config"]
    assert cfg["precision_bits"] == 256 and cfg["seed"] == 0
    say(
        "criterion 10 PASS: byte-identical JSON and sweep CSV "
        "across 3 runs x worker counts {1, 3, unset}"
    )
