"""Condition numbers: both routes, closed products, certified verdicts."""

from fractions import Fraction

import mpmath as mp
import pytest

from wellcond import condition, polynomials
from wellcond.cli import main as cli_main
from wellcond.condition import (
    BOUNDS,
    CERTIFY_PREC_FACTOR,
    LOWER_CONST,
    _bound_verdicts,
    _log_mu_per_root,
    certify_bound,
    log_mu_at_root,
    mu_max_coefficient_route,
    mu_max_spherical_route,
    numerator_integral_log,
    parallel_self_product_log,
    point_gap_product_log,
    theta_product_log_turn,
)
from wellcond.numerics import fraction_endpoints, gauss_legendre, to_mpf
from wellcond.points import SpherePoint, build_point_set, orbit_representative
from wellcond.polynomials import (
    bombieri_norm_sq,
    canonical_norm_sq,
    canonical_polynomial,
    expand,
    product_norm_sq,
    root_derivative_data,
)
from polynomial_oracle import mu_sq_enclosures
from sphere_oracle import distance_sq, numerator_by_product_rule, product_rule_nodes


def brute_theta(r, h, c, dphi, prec):
    """Product of squared distances to the r points of a parallel, directly."""
    with mp.workprec(prec):
        h = to_mpf(h)
        c = to_mpf(c)
        rho_p = mp.sqrt(1 - h * h)
        rho_q = mp.sqrt(1 - c * c)
        prod = mp.mpf(1)
        for k in range(r):
            ang = 2 * mp.pi * k / r
            dx = rho_q * mp.cos(dphi) - rho_p * mp.cos(ang)
            dy = rho_q * mp.sin(dphi) - rho_p * mp.sin(ang)
            dz = c - h
            prod *= dx * dx + dy * dy + dz * dz
        return prod


@pytest.mark.parametrize(
    "r,h,c,turn",
    [
        (8, Fraction(5, 9), Fraction(1, 4), Fraction(1, 16)),
        (12, Fraction(0), Fraction(-7, 10), Fraction(3, 16)),
        (4, Fraction(8, 9), Fraction(8, 9), Fraction(1, 8)),
        (5, Fraction(-1, 3), Fraction(2, 3), Fraction(0)),
    ],
)
def test_theta_product_matches_brute_force(r, h, c, turn):
    prec = 256
    with mp.workprec(prec):
        dphi = mp.pi * to_mpf(turn)
        (base,), ((factor,),) = theta_product_log_turn(r, h, [c], [turn], prec)
        got = mp.exp(base) * factor
        want = brute_theta(r, h, c, dphi, prec)
        assert abs(got - want) / want < mp.mpf("1e-20")


def test_theta_log_turn_exact_zero_at_coincidence():
    turns = [Fraction(0), Fraction(1, 2), Fraction(1, 16)]
    (base,), ((on_grid, quarter, off_grid),) = theta_product_log_turn(
        8, Fraction(5, 9), [Fraction(5, 9)], turns, 192
    )
    assert mp.isfinite(base)
    # q lies exactly on the parallel grid: distance product is zero
    assert on_grid == 0
    # quarter-turn offset on an 8-point grid also hits a grid point
    assert quarter == 0
    # off-grid azimuth stays away from zero
    assert off_grid > 0


@pytest.mark.parametrize("r,h", [(1, Fraction(0)), (4, Fraction(5, 9)), (12, 0)])
def test_parallel_self_product_matches_brute_force(r, h):
    """prod over pairs |p_i - p_j| on one parallel: closed form r * rho^(r-1)."""
    prec = 256
    with mp.workprec(prec):
        got = parallel_self_product_log(r, h, prec)
        h_f = to_mpf(Fraction(h))
        rho = mp.sqrt(1 - h_f * h_f)
        prod = mp.mpf(1)
        for j in range(1, r):
            prod *= 2 * rho * mp.sin(mp.pi * j / r)
        want = mp.log(prod)
        assert abs(got - want) <= mp.mpf(2) ** -(prec - 24)


def test_mu_max_m1_is_sqrt_2():
    rep = mu_max_coefficient_route(1, 256)
    with mp.workprec(256):
        assert abs(rep.mu_max - mp.sqrt(2)) < mp.mpf(2) ** -240
    assert rep.N == 4
    assert rep.verdicts == {"le_N": True, "le_19half_sqrt": True, "ge_lower": True}


@pytest.mark.parametrize("M", range(1, 13))
def test_routes_agree(M):
    prec = 256
    a = mu_max_coefficient_route(M, prec)
    b = mu_max_spherical_route(M, prec)
    with mp.workprec(prec):
        rel = abs(a.mu_max - b.mu_max) / b.mu_max
        assert rel < mp.mpf("1e-40")
    assert a.N == b.N == 4 * M * M


def test_spherical_route_symmetry_reduction_identical():
    """The orbit-reduced route lists the points k < r/4 of every parallel,
    each equal to its own gap product, and its maximum is the maximum
    over all points."""
    prec = 192
    tol = mp.mpf(2) ** -(prec - 16)
    for M in (2, 5, 8):
        fast = mu_max_spherical_route(M, prec)
        assert fast.extras["symmetry_reduced"]
        ps = build_point_set(M, prec_bits=prec)
        num = numerator_integral_log(ps)
        N = ps.N
        with mp.workprec(prec):
            base = -mp.log(2) + (mp.log(N) + mp.log(N + 1)) / 2 + num.log_value / 2
            full = {
                f"p{par.index}.k{k}": base - gap_log
                for par in ps.parallels
                for k, gap_log in enumerate(point_gap_product_log(ps, par.index, range(par.count)))
            }
            assert abs(max(full.values()) - fast.log_mu_max) < tol
            for rid, lm in fast.per_root:
                assert abs(lm - full[rid]) < tol, rid
        assert [rid for rid, _ in fast.per_root] == [
            f"p{par.index}.k{k}" for par in ps.parallels for k in range(par.count // 4)
        ]


@pytest.mark.parametrize("M", range(1, 9))
def test_orbit_reduced_per_root_matches_full_evaluation(M):
    """Every root's log mu, filled from its orbit representative, equals
    the evaluation of all factors at all turns: within 2^-(prec-16) under
    mp, and under mp.iv each representative's enclosure overlaps the
    full evaluation's enclosure of every root of its orbit."""
    prec = 256
    N = 4 * M * M
    norm_sq = canonical_norm_sq(M)
    full = {
        ctx: [
            (f"p{root.parallel}.k{t}", lm)
            for root in root_derivative_data(M)
            for t, lm in enumerate(log_mu_at_root(root, N, norm_sq, prec, ctx))
        ]
        for ctx in (mp.mp, mp.iv)
    }
    rep = mu_max_coefficient_route(M, prec)
    assert [rid for rid, _ in rep.per_root] == [rid for rid, _ in full[mp.mp]]
    with mp.workprec(prec):
        for (rid, got), (_, want) in zip(rep.per_root, full[mp.mp]):
            assert abs(got - want) < mp.mpf(2) ** -(prec - 16), rid
    per_root, values = _log_mu_per_root(M, norm_sq, prec, mp.iv)
    assert len(values) == sum(j // 2 + 1 for j in range(1, M + 1))
    for (rid, enclosure), (full_rid, full_enclosure) in zip(per_root, full[mp.iv]):
        assert rid == full_rid
        lo, hi = fraction_endpoints(enclosure)
        full_lo, full_hi = fraction_endpoints(full_enclosure)
        assert lo <= full_hi and full_lo <= hi, rid


@pytest.fixture
def evaluated(monkeypatch) -> list[int]:
    """The number of azimuths each call of condition's per-root and
    per-point evaluations (log_mu_at_root, point_gap_product_log) covers,
    in call order."""
    counts: list[int] = []
    for name in ("log_mu_at_root", "point_gap_product_log"):

        def counted(*args, _fn=getattr(condition, name), **kwargs):
            out = _fn(*args, **kwargs)
            counts.append(len(out))
            return out

        monkeypatch.setattr(condition, name, counted)
    return counts


@pytest.mark.parametrize("M", [3, 5])
def test_symmetry_declaration_is_the_only_reduction(M, monkeypatch, evaluated):
    """With points.orbit_representative replaced by the trivial group,
    every route evaluates every root or point, and mu_max and the
    verdicts stay as they are."""
    prec = 256
    N = 4 * M * M
    orbits = sum(j // 2 + 1 for j in range(1, M + 1))
    routes = (mu_max_coefficient_route, certify_bound, mu_max_spherical_route)
    reports = {}
    for group in ("declared", "trivial"):
        if group == "trivial":
            monkeypatch.setattr(condition, "orbit_representative", lambda M, j, k: (j, k))
        for route in routes:
            evaluated.clear()
            rep = route(M, prec)
            reports[group, route] = rep
            assert sum(evaluated) == (N if group == "trivial" else orbits), (group, route.__name__)
    for route in routes:
        a, b = reports["declared", route], reports["trivial", route]
        assert a.verdicts == b.verdicts and a.certified == b.certified
        with mp.workprec(prec):
            assert abs(a.log_mu_max - b.log_mu_max) < mp.mpf(2) ** -(prec - 16)


def test_orbits_evaluate_one_factor_per_mirror_pair(monkeypatch, evaluated):
    """For M = 5..8 each route evaluates the factors (or gap products) of
    parallels 1..M only, 26 calls where the full evaluation makes 48, and
    the coefficient, certified and spherical routes of one M form the
    numerators of ||f||^2 once between them."""
    product_norm_sq.cache_clear()
    formed = []
    numerators = polynomials._numerators
    monkeypatch.setattr(polynomials, "_numerators", lambda f: formed.append(f.degree) or numerators(f))
    for route in (mu_max_coefficient_route, certify_bound, mu_max_spherical_route):
        evaluated.clear()
        for M in range(5, 9):
            route(M, 256)
        assert len(evaluated) == 26, route.__name__
    assert formed == [4 * M * M for M in range(5, 9)]
    product_norm_sq.cache_clear()


def test_uniform_nonzero_phase_matches_zero_phase():
    """Rotating every parallel by the same angle changes no distance.

    The phased family goes through the radian-offset path of the point
    coordinates and the complex expansion of the numerator, the
    zero-phase family through the exact-turn path and the exact rational
    numerator; they agree to rounding.
    """
    prec = 256
    M = 2
    tol = mp.mpf(2) ** -(prec - 16)
    zero = build_point_set(M, prec_bits=prec)
    phased = build_point_set(M, phases=[mp.mpf("0.3")] * (2 * M - 1), prec_bits=prec)
    with mp.workprec(prec):
        for par in zero.parallels:
            ks = range(par.count)
            a = point_gap_product_log(zero, par.index, ks)
            b = point_gap_product_log(phased, par.index, ks)
            for k in ks:
                assert abs(a[k] - b[k]) < tol, (par.index, k)
        a = mu_max_spherical_route(M, prec)
        b = mu_max_spherical_route(M, prec, phases=[mp.mpf("0.3")] * (2 * M - 1))
        assert a.extras["symmetry_reduced"] and not b.extras["symmetry_reduced"]
        assert abs(a.mu_max - b.mu_max) / a.mu_max < tol


def test_spherical_route_phases_keep_the_working_precision():
    """Decimal phases are rounded at prec_bits, not at the caller's
    working precision."""
    prec = 256
    strings = ["0.1", "0.7", "-1.2"]
    a = mu_max_spherical_route(2, prec, phases=strings)
    with mp.workprec(prec):
        b = mu_max_spherical_route(2, prec, phases=[mp.mpf(v) for v in strings])
    assert a.log_mu_max == b.log_mu_max and a.per_root == b.per_root


PHASED = {
    2: [0.1, 0.7, -1.2],
    3: [0.1, 0.7, -1.2, 0.4, 2.0],
    5: [0.3, -0.2, 1.1, 0.05, -2.5, 0.9, 0.0, 1.7, -0.4],
}


@pytest.mark.parametrize(
    "M,phases",
    [(M, None) for M in range(1, 7)] + [(M, PHASED[M]) for M in PHASED],
    ids=[f"M{M}" for M in range(1, 7)] + [f"M{M}-phased" for M in PHASED],
)
def test_numerator_integral_matches_product_rule(M, phases):
    """The closed form equals the exact product-rule quadrature."""
    prec = 256
    ps = build_point_set(M, phases=phases, prec_bits=prec)
    got = numerator_integral_log(ps).log_value
    want = numerator_by_product_rule(ps, prec)
    with mp.workprec(prec):
        assert abs(got - want) < mp.mpf(2) ** -(prec - 16)


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_numerator_integral_zero_phase_is_exact_rational(M):
    """I = 4^N ||f||^2 / ((N+1) prod_k (1 + rho_k^2)^(r_k)), rounded once;
    at M = 1, f = z^4 - 1 on the equator gives 4^4 * 2 / (5 * 2^4)."""
    prec = 256
    ps = build_point_set(M, prec_bits=prec)
    N = ps.N
    exact = Fraction(4**N, N + 1) * bombieri_norm_sq(expand(canonical_polynomial(M)))
    for par in ps.parallels:
        rho_sq = (1 + par.height) / (1 - par.height)
        exact /= (1 + rho_sq) ** par.count
    if M == 1:
        assert exact == Fraction(32, 5)
    with mp.workprec(prec):
        assert numerator_integral_log(ps).log_value == mp.log(to_mpf(exact))


def test_numerator_integral_matches_point_quadrature_with_phases():
    """The closed form equals the product rule over materialised points.

    Distinct phases make the complex shifts of the expansion matter; the
    integrand is the product of squared distances to the coordinates.
    """
    prec = 192
    ps = build_point_set(2, phases=[0.1, 0.7, -1.2], prec_bits=prec)
    num = numerator_integral_log(ps)
    n_gl, n_az = product_rule_nodes(ps.N)
    nodes, weights = gauss_legendre(n_gl, prec)
    pts = [p for _, _, p in ps.coordinates()]
    with mp.workprec(prec):
        acc = mp.mpf(0)
        for c, w in zip(nodes, weights):
            rho = mp.sqrt(1 - c * c)
            for m in range(n_az):
                a = 2 * mp.pi * m / n_az
                q = SpherePoint(rho * mp.cos(a), rho * mp.sin(a), c)
                acc += w * mp.fprod(distance_sq(q, p) for p in pts) / n_az
        assert abs(mp.log(acc / 2) - num.log_value) < mp.mpf(2) ** -(prec - 24)


def test_point_gap_product_matches_brute_force():
    prec = 256
    _check_gap_products(build_point_set(2, prec_bits=prec), prec, (0, 5, 9))
    # distinct phases; point 13 (k = 1 of 12) sits off the 8-point
    # parallels' symmetry axes, so the sign of the phase offset matters
    phased = build_point_set(3, phases=[0.1, 0.7, -1.2, 0.4, 2.0], prec_bits=prec)
    _check_gap_products(phased, prec, (0, 5, 13))


def _check_gap_products(ps, prec, indices):
    flat = ps.coordinates()
    with mp.workprec(prec):
        for idx in indices:
            par_index, azimuth, p = flat[idx]
            (got,) = point_gap_product_log(ps, par_index, [azimuth])
            acc = mp.mpf(0)
            for jdx, (_, _, q) in enumerate(flat):
                if jdx == idx:
                    continue
                d2 = (p.x - q.x) ** 2 + (p.y - q.y) ** 2 + (p.z - q.z) ** 2
                acc += mp.log(d2) / 2
            assert abs(got - acc) < mp.mpf(2) ** -(prec - 40)


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_certified_verdicts_resolve_true(M):
    rep = certify_bound(M, 256)
    assert rep.certified
    assert rep.verdicts == {"le_N": True, "le_19half_sqrt": True, "ge_lower": True}
    lo = mp.mpf(rep.extras["mu_max_lo"])
    hi = mp.mpf(rep.extras["mu_max_hi"])
    assert 0 < lo <= hi < 4 * M * M


def test_certified_encloses_float_route():
    for M in range(1, 9):
        rep_f = mu_max_coefficient_route(M, 256)
        rep_c = certify_bound(M, 256)
        with mp.workprec(256):
            lo = mp.mpf(rep_c.extras["mu_max_lo"])
            hi = mp.mpf(rep_c.extras["mu_max_hi"])
            slack = mp.mpf(2) ** -200
            assert lo - slack <= rep_f.mu_max <= hi + slack, M


def test_certified_route_matches_fraction_oracle():
    """For M = 1..8 the interval enclosures agree with the exact-rational
    ones: the same roots, the same verdicts, overlapping mu_max^2
    enclosures, a mu_max enclosure narrower than 2^-(prec-16) relative
    and per-root log mu within 2^-(prec-16)."""
    prec = 256
    for M in range(1, 9):
        rep = certify_bound(M, prec)
        norm_sq = bombieri_norm_sq(expand(canonical_polynomial(M)))
        oracle = mu_sq_enclosures(M, norm_sq, prec)
        assert [rid for rid, _ in rep.per_root] == [rid for rid, _, _ in oracle]
        sq_lo = max(lo for _, lo, _ in oracle)
        sq_hi = max(hi for _, _, hi in oracle)
        assert _bound_verdicts(rep.N, sq_lo, sq_hi) == rep.verdicts, M
        mu_lo = Fraction(rep.extras["mu_max_lo"])
        mu_hi = Fraction(rep.extras["mu_max_hi"])
        assert mu_lo**2 <= sq_hi and sq_lo <= mu_hi**2, M
        assert mu_hi - mu_lo < mu_lo / 2 ** (prec - 16), M
        with mp.workprec(prec):
            for (rid, got), (_, lo, hi) in zip(rep.per_root, oracle):
                want = mp.log(to_mpf((lo + hi) / 2)) / 2
                assert abs(got - want) < mp.mpf(2) ** -(prec - 16), (M, rid)


def test_unresolved_verdict_escalates_to_the_cap_and_never_passes(tmp_path, monkeypatch):
    """A threshold inside every enclosure stays unresolved through each
    precision doubling up to the cap: the verdict is None, the run is not
    certified and `cond --certify` exits non-zero.

    At M = 3 the maximum sits at azimuth 0 of the equator, where every
    cosine is exactly 1, so mu_max^2 is an exact rational that no
    enclosure can exclude."""
    prec = 256
    norm_sq = bombieri_norm_sq(expand(canonical_polynomial(3)))
    label, sq_lo, sq_hi = max(mu_sq_enclosures(3, norm_sq, prec), key=lambda e: e[1])
    assert label == "p3.k0" and sq_lo == sq_hi
    monkeypatch.setitem(BOUNDS, "le_N", (lambda N: sq_lo, "upper"))
    rep = certify_bound(3, prec)
    assert rep.verdicts["le_N"] is None
    assert rep.verdicts["le_19half_sqrt"] is True and rep.verdicts["ge_lower"] is True
    assert rep.extras["cos_precision_bits"] == CERTIFY_PREC_FACTOR * prec
    assert rep.certified is False
    monkeypatch.setenv("WELLCOND_WORKERS", "1")
    argv = ["cond", "--M", "3", "--route", "coeff", "--certify", "--out", str(tmp_path)]
    assert cli_main(argv) != 0


def test_bound_verdicts_compare_mu_squared_exactly():
    """One threshold table: a point value on a threshold passes, an
    enclosure straddling one is unresolved, one just outside fails."""
    N = 64
    assert list(BOUNDS) == ["le_N", "le_19half_sqrt", "ge_lower"]
    at_n = _bound_verdicts(N, Fraction(N) ** 2)
    assert at_n["le_N"] is True
    assert at_n["le_19half_sqrt"] is True  # 64 < 9.5 * sqrt(65)
    tiny = Fraction(1, 2**300)
    assert _bound_verdicts(N, Fraction(N) ** 2 + tiny)["le_N"] is False
    assert _bound_verdicts(N, Fraction(N) ** 2 - tiny, Fraction(N) ** 2 + tiny)[
        "le_N"
    ] is None
    floor = LOWER_CONST**2 * N
    assert _bound_verdicts(N, floor)["ge_lower"] is True
    assert _bound_verdicts(N, floor - tiny)["ge_lower"] is False
    assert _bound_verdicts(N, floor - tiny, floor)["ge_lower"] is None
    top = Fraction(361, 4) * (N + 1)
    assert _bound_verdicts(N, top)["le_19half_sqrt"] is True
    assert _bound_verdicts(N, top, top + tiny)["le_19half_sqrt"] is None


@pytest.mark.parametrize("M", [1, 2, 4])
def test_float_verdicts_match_direct_mu_comparisons(M):
    """The exact mu^2 comparison gives the verdicts of comparing mu itself."""
    prec = 256
    for rep in (mu_max_coefficient_route(M, prec), mu_max_spherical_route(M, prec)):
        with mp.workprec(prec):
            mu, n = rep.mu_max, mp.mpf(rep.N)
            want = {
                "le_N": mu <= n,
                "le_19half_sqrt": mu <= mp.mpf(19) / 2 * mp.sqrt(n + 1),
                "ge_lower": mu >= to_mpf(LOWER_CONST) * mp.sqrt(n),
            }
        assert rep.verdicts == want, (M, rep.route)


def test_report_json_shape():
    rep = mu_max_coefficient_route(2, 192)
    d = rep.to_json_dict()
    assert d["M"] == 2 and d["N"] == 16
    assert d["route"] == "coefficient"
    assert len(d["per_root"]) == 16
    assert set(d["verdicts"]) == {"le_N", "le_19half_sqrt", "ge_lower"}
