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
    by_orbit,
    certify_bound,
    coefficient_report,
    log_mu_at_root,
    log_scale,
    mu_max_coefficient_route,
    mu_max_spherical_route,
    numerator_integral_log,
    parallel_self_product_log,
    point_gap_product_log,
    theta_product_log_turn,
)
from wellcond.numerics import fmt_real, fraction_endpoints, gauss_legendre, to_mpf
from wellcond.points import build_parallels, build_point_set
from wellcond.polynomials import (
    bombieri_norm_sq,
    canonical_polynomial,
    expand,
    factor_parallels,
    product_norm_sq,
)
from polynomial_oracle import log_mu_by_expansion, mu_sq_at_real_roots, mu_sq_enclosures
from sphere_oracle import (
    SpherePoint,
    coordinates_by_point,
    distance_sq,
    numerator_by_product_rule,
    product_rule_nodes,
)


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
        (6, Fraction(-1, 3), Fraction(2, 3), Fraction(0)),
        (2, Fraction(-1, 3), Fraction(2, 3), Fraction(1, 5)),
    ],
)
def test_theta_product_matches_brute_force(r, h, c, turn):
    prec = 256
    with mp.workprec(prec):
        dphi = mp.pi * to_mpf(turn)
        ((got,),) = theta_product_log_turn(r, h, [c], [turn], prec)
        want = brute_theta(r, h, c, dphi, prec)
        assert abs(got - want) / want < mp.mpf("1e-20")


@pytest.mark.parametrize("r", [5, 1, 0, -4, 8.0])
def test_theta_product_refuses_an_odd_or_non_positive_count(r):
    """Theta's exact terms are powers of x^2 and y^2: r must be even."""
    with pytest.raises(ValueError, match="positive even integer"):
        theta_product_log_turn(r, Fraction(1, 3), [Fraction(1, 2)], [Fraction(0)], 128)


def test_theta_product_checks_every_height_itself():
    """A height outside [-1, 1] raises from the kernel itself, the
    parallel's and every query height's, the first or a later one."""
    ok, bad = Fraction(1, 3), Fraction(5, 4)
    for h, c in [(bad, ok), (ok, bad), (-bad, ok), (ok, -bad)]:
        with pytest.raises(ValueError, match=r"heights must lie in \[-1, 1\]"):
            theta_product_log_turn(8, h, [c], [Fraction(0)], 128)
    with pytest.raises(ValueError, match=r"heights must lie in \[-1, 1\]"):
        theta_product_log_turn(8, ok, [ok, bad], [Fraction(0)], 128)
    with pytest.raises(ValueError, match=r"heights must lie in \[-1, 1\]"):
        condition.log_distance_products(build_parallels(2), [bad], [Fraction(0)], 128)


@pytest.mark.parametrize(
    "r,h,delta", [(8, Fraction(5, 9), Fraction(1, 2**40)), (28, Fraction(13, 49), Fraction(1, 2**60))]
)
def test_theta_near_a_coincidence_keeps_its_relative_accuracy(r, h, delta):
    """At turn 0 a query at c = h + delta is a near coincidence: Theta is
    the exact rational (x^r - y^r)^2, tiny, and the grid's log Theta lies
    within 2^-(prec-16) of its log, formed from that rational at twice
    the precision."""
    prec = 256
    c = h + delta
    e = r // 2
    exact = (((1 - c) * (1 + h)) ** e - ((1 + c) * (1 - h)) ** e) ** 2
    ((got,),) = theta_product_log_turn(r, h, [c], [Fraction(0)], prec)
    with mp.workprec(2 * prec):
        want = mp.log(to_mpf(exact))
        assert want < -50
        assert abs(mp.log(got) - want) <= mp.mpf(2) ** (16 - prec)


def test_theta_log_turn_exact_zero_at_coincidence():
    turns = [Fraction(0), Fraction(1, 2), Fraction(1, 16)]
    ((on_grid, quarter, off_grid),) = theta_product_log_turn(
        8, Fraction(5, 9), [Fraction(5, 9)], turns, 192
    )
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
    """The reduced route lists the real point k = 0 of every parallel,
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
        assert [rid for rid, _ in fast.per_root] == [f"p{par.index}.k0" for par in ps.parallels]


@pytest.mark.parametrize("M", range(1, 9))
def test_orbit_reduced_per_root_matches_full_evaluation(M):
    """Every root's log mu, filled from its mirror representative on
    parallels 1..M, which by_orbit evaluates at every turn, equals the
    evaluation of all factors at all turns: within 2^-(prec-16) under
    mp, and under mp.iv each representative's enclosure overlaps the
    full evaluation's enclosure of every root of its orbit.  The
    coefficient route lists the full evaluation's real roots k = 0."""
    prec = 256
    N = 4 * M * M
    norm_sq = product_norm_sq(canonical_polynomial(M))
    pars = factor_parallels(build_parallels(M))
    full = {
        ctx: [
            (f"p{par.index}.k{t}", lm)
            for k, par in enumerate(pars)
            for t, lm in enumerate(log_mu_at_root(
                par, pars[:k] + pars[k + 1:], range(par.count), *log_scale(N, norm_sq, prec, ctx), prec, ctx
            ))
        ]
        for ctx in (mp.mp, mp.iv)
    }
    tol = mp.mpf(2) ** -(prec - 16)
    rep = mu_max_coefficient_route(M, prec)
    real = [(rid, lm) for rid, lm in full[mp.mp] if rid.endswith(".k0")]
    assert [rid for rid, _ in rep.per_root] == [rid for rid, _ in real]
    with mp.workprec(prec):
        for (rid, got), (_, want) in zip(rep.per_root, real):
            assert abs(got - want) < tol, rid
    roots = [(par.index, t) for par in pars for t in range(par.count)]
    ps = build_point_set(M, prec_bits=prec)
    by_index = {par.index: par for par in pars}
    orbits, evaluated = {}, {}
    for ctx in (mp.mp, mp.iv):
        scale = log_scale(N, norm_sq, prec, ctx)
        evaluated[ctx] = []

        def evaluate(j, ts, ctx=ctx, scale=scale):
            evaluated[ctx] += [(j, t) for t in ts]
            others = [p for p in pars if p.index != j]
            return log_mu_at_root(by_index[j], others, ts, *scale, prec, ctx)

        orbits[ctx] = by_orbit(ps, roots, evaluate)
    mirror_reps = [(j, t) for j in range(1, M + 1) for t in range(4 * j)]
    per_root = orbits[mp.mp]
    assert evaluated[mp.mp] == mirror_reps
    assert [rid for rid, _ in per_root] == [rid for rid, _ in full[mp.mp]]
    with mp.workprec(prec):
        for (rid, got), (_, want) in zip(per_root, full[mp.mp]):
            assert abs(got - want) < tol, rid
    per_root = orbits[mp.iv]
    assert evaluated[mp.iv] == mirror_reps
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
    """With points.mirror_index and points.turn_representative replaced by
    the trivial group, every route evaluates every real root or point,
    where it evaluates M (one per mirror pair) under the declared group,
    and mu_max and the verdicts stay as they are."""
    prec = 256
    counts = dict.fromkeys(  # route -> (declared, trivial)
        (mu_max_coefficient_route, certify_bound, mu_max_spherical_route), (M, 2 * M - 1)
    )
    reports = {}
    for group in ("declared", "trivial"):
        if group == "trivial":
            monkeypatch.setattr(condition, "mirror_index", lambda M, j: j)
            monkeypatch.setattr(condition, "turn_representative", Fraction)
        for route, (declared, trivial) in counts.items():
            evaluated.clear()
            rep = route(M, prec)
            reports[group, route] = rep
            want = trivial if group == "trivial" else declared
            assert sum(evaluated) == want, (group, route.__name__)
    for route in counts:
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
    """Rotating every parallel by the same angle changes no distance,
    and no mu.

    The phased family goes through the radian-offset path of the point
    coordinates and the complex expansion of the numerator and of ||f||^2,
    the zero-phase family through the exact-turn path and the exact
    rational numerator; both routes agree with the zero-phase family to
    rounding.
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
        c = mu_max_coefficient_route(M, prec, phases=[mp.mpf("0.3")] * (2 * M - 1))
        assert abs(a.mu_max - c.mu_max) / a.mu_max < tol


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


@pytest.mark.parametrize("M", [2, 3])
def test_phased_coefficient_route_matches_expanded_roots(M, evaluated):
    """With distinct phases the coefficient route evaluates every root
    once, and each root's log mu is within 2^-(prec-16) of the polynomial
    expanded from its N roots (Horner on f', the dense Bombieri norm) at
    64 more bits."""
    prec = 256
    rep = mu_max_coefficient_route(M, prec, PHASED[M])
    assert sum(evaluated) == rep.N
    want = log_mu_by_expansion(build_point_set(M, phases=PHASED[M], prec_bits=prec), prec + 64)
    got = dict(rep.per_root)
    assert got.keys() == want.keys()
    with mp.workprec(prec):
        tol = mp.mpf(2) ** -(prec - 16)
        for rid, lm in got.items():
            assert abs(lm - want[rid]) < tol, rid
        assert abs(rep.log_mu_max - max(want.values())) < tol


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


@pytest.mark.parametrize("M", range(1, 9))
def test_numerator_integral_zero_phase_is_exact_rational(M):
    """I = 4^N ||f||^2 / ((N+1) prod_k (1 + rho_k^2)^(r_k)), rounded once,
    and its log within 2^-(prec-16) of the exact rational's log taken at
    twice the precision; at M = 1, f = z^4 - 1 on the equator gives
    4^4 * 2 / (5 * 2^4)."""
    prec = 256
    ps = build_point_set(M, prec_bits=prec)
    N = ps.N
    exact = Fraction(4**N, N + 1) * bombieri_norm_sq(expand(canonical_polynomial(M)))
    for par in ps.parallels:
        rho_sq = (1 + par.height) / (1 - par.height)
        exact /= (1 + rho_sq) ** par.count
    if M == 1:
        assert exact == Fraction(32, 5)
    got = numerator_integral_log(ps).log_value
    with mp.workprec(prec):
        assert got == mp.log(to_mpf(exact))
    with mp.workprec(2 * prec):
        want = mp.log(to_mpf(exact))
        assert abs(got - want) <= mp.mpf(2) ** (16 - prec) * max(1, abs(want))


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
    pts = [p for _, _, p in coordinates_by_point(ps, prec)]
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
    flat = coordinates_by_point(ps, prec)
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
    ones at every root: per_root lists the real roots k = 0, each log mu
    within 2^-(prec-16) of the oracle's, the oracle's largest mu^2 over
    all roots is its largest over the real roots, and the verdicts match,
    with overlapping mu_max^2 enclosures and a mu_max enclosure narrower
    than 2^-(prec-16) relative."""
    prec = 256
    for M in range(1, 9):
        rep = certify_bound(M, prec)
        norm_sq = bombieri_norm_sq(expand(canonical_polynomial(M)))
        oracle = mu_sq_enclosures(M, norm_sq, prec)
        real = [entry for entry in oracle if entry[0].endswith(".k0")]
        assert [rid for rid, _ in rep.per_root] == [rid for rid, _, _ in real]
        sq_lo = max(lo for _, lo, _ in oracle)
        sq_hi = max(hi for _, _, hi in oracle)
        assert (sq_lo, sq_hi) == (max(lo for _, lo, _ in real), max(hi for _, _, hi in real)), M
        assert _bound_verdicts(rep.N, sq_lo, sq_hi) == rep.verdicts, M
        mu_lo = Fraction(rep.extras["mu_max_lo"])
        mu_hi = Fraction(rep.extras["mu_max_hi"])
        assert mu_lo**2 <= sq_hi and sq_lo <= mu_hi**2, M
        assert mu_hi - mu_lo < mu_lo / 2 ** (prec - 16), M
        with mp.workprec(prec):
            for (rid, got), (_, lo, hi) in zip(rep.per_root, real):
                want = mp.log(to_mpf((lo + hi) / 2)) / 2
                assert abs(got - want) < mp.mpf(2) ** -(prec - 16), (M, rid)


@pytest.mark.parametrize("M", range(1, 17))
def test_exact_mu_max_sits_at_z_1_inside_the_enclosure(M):
    """mu^2 at the real roots, exact in integers
    (polynomial_oracle.mu_sq_at_real_roots): the mirror parallels j and
    2M - j give equal values, the equator's root z = 1 (p{M}.k0) gives
    the largest, and that maximum lies in certify_bound's mu_max^2
    enclosure, whose per_root lists the same real roots."""
    rep = certify_bound(M, 256)
    exact = mu_sq_at_real_roots(M, product_norm_sq(canonical_polynomial(M)))
    assert list(exact) == [rid for rid, _ in rep.per_root]
    for j in range(1, M):
        assert exact[f"p{j}.k0"] == exact[f"p{2 * M - j}.k0"], j
    top = exact.pop(f"p{M}.k0")
    assert all(sq < top for sq in exact.values())
    assert rep.argmax_root == f"p{M}.k0"
    assert Fraction(rep.extras["mu_max_lo"]) ** 2 <= top <= Fraction(rep.extras["mu_max_hi"]) ** 2


@pytest.mark.parametrize("M", [4, 8, 16])
def test_each_parallel_peaks_at_its_real_root_on_both_float_routes(M):
    """Evaluated at every root, log mu (log_mu_at_root) is largest on each
    parallel at k = 0, and the gap product (point_gap_product_log) is
    smallest there: the argument both float routes and certify_bound
    rest on to evaluate the real roots alone.  Each route's mu_max is
    the largest over every root, and its argmax the equator's z = 1."""
    prec = 256
    ps = build_point_set(M, prec_bits=prec)
    norm_sq = product_norm_sq(canonical_polynomial(M))
    logs = log_scale(ps.N, norm_sq, prec)
    pars = factor_parallels(ps.parallels)
    top = {}
    for k, par in enumerate(pars):
        row = log_mu_at_root(par, pars[:k] + pars[k + 1:], range(par.count), *logs, prec)
        assert len(row) == par.count and max(row) == row[0], ("coefficient", par.index)
        gaps = point_gap_product_log(ps, par.index, range(par.count))
        assert min(gaps) == gaps[0], ("spherical", par.index)
        top[par.index] = row[0]
    rep = mu_max_coefficient_route(M, prec)
    assert rep.log_mu_max == max(top.values()) == top[M]
    with mp.workprec(prec):
        sphere = mu_max_spherical_route(M, prec)
        assert abs(sphere.log_mu_max - top[M]) < mp.mpf(2) ** -(prec - 16)
    assert rep.argmax_root == sphere.argmax_root == f"p{M}.k0"


def test_coefficient_report_reads_the_certificate():
    """The coefficient report read off certify_bound's lists the roots that
    mu_max_coefficient_route lists, each log mu within 2^-(prec-16) of
    its, with the same verdicts and argmax, and a mu_max inside the
    certified enclosure."""
    prec = 256
    tol = mp.mpf(2) ** -(prec - 16)
    for M in range(1, 9):
        cert = certify_bound(M, prec)
        got, want = coefficient_report(cert), mu_max_coefficient_route(M, prec)
        assert (got.route, got.certified, got.extras) == ("coefficient", False, {})
        assert [rid for rid, _ in got.per_root] == [rid for rid, _ in want.per_root]
        assert got.verdicts == want.verdicts and got.argmax_root == want.argmax_root, M
        with mp.workprec(prec):
            for (rid, a), (_, b) in zip(got.per_root, want.per_root):
                assert abs(a - b) < tol, (M, rid)
            assert abs(got.mu_max - want.mu_max) < tol * want.mu_max, M
            lo, hi = mp.mpf(cert.extras["mu_max_lo"]), mp.mpf(cert.extras["mu_max_hi"])
            assert lo <= got.mu_max <= hi, M


def test_log_scale_is_formed_once_per_pass(monkeypatch):
    """log N and log ||f||^2 are formed once per pass over the roots, not
    once per parallel: once by the float coefficient route, and once by
    certify_bound at each interval precision it tries."""
    formed = []
    inner = condition.log_scale
    monkeypatch.setattr(condition, "log_scale", lambda *args: formed.append(args[2]) or inner(*args))
    mu_max_coefficient_route(5, 256, phases=[0.1] * 9)
    mu_max_coefficient_route(5, 256)
    rep = certify_bound(5, 256)
    assert rep.extras["cos_precision_bits"] == 256
    assert formed == [256, 256, 256]


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
    assert rep.certified is False and rep.passed is False
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
    assert [e["root"] for e in d["per_root"]] == ["p2.k0", "p1.k0", "p3.k0"]
    assert d["argmax_root"] == "p2.k0"
    assert set(d["verdicts"]) == {"le_N", "le_19half_sqrt", "ge_lower"}


def test_report_json_prints_at_its_precision_under_any_context(monkeypatch):
    """A coefficient, a spherical and a certified report print the same
    under any working precision: their floats at precision_bits, with no
    mp.workprec entered."""
    reports = [
        mu_max_coefficient_route(3, 128),
        mu_max_spherical_route(2, 96, phases=[0.1, 0.7, -1.2]),
        certify_bound(3, 160),
    ]
    calls = []
    real = mp.workprec
    monkeypatch.setattr(mp, "workprec", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    for rep in reports:
        with real(53):
            low = rep.to_json_dict()
        with real(512):
            high = rep.to_json_dict()
        assert low == high, rep.route
        with real(rep.precision_bits):
            assert low["mu_max"] == fmt_real(rep.mu_max)
            assert [e["log_mu"] for e in low["per_root"]] == [fmt_real(lm) for _, lm in rep.per_root]
    assert calls == []
