"""Factorized family, exact expansion, norms, and root extraction."""

import dataclasses
from fractions import Fraction

import mpmath as mp
import pytest

from polynomial_oracle import (
    RepeatedRootError,
    derivative,
    evaluate,
    expand_by_fractions,
    log_derivative_modulus_by_gaps,
    log_scale,
    numerators_by_binomials,
)
from wellcond.condition import (
    certify_bound,
    log_mu_at_root,
    mu_max_coefficient_route,
    mu_max_spherical_route,
)
from wellcond.numerics import context_precision, fraction_endpoints, fraction_from_mpf, to_mpf
from wellcond import condition, numerics, polynomials
from wellcond.points import Parallel, build_parallels, build_point_set
from wellcond.polynomials import (
    DensePolynomial,
    Factor,
    FactorizedPolynomial,
    bombieri_norm_sq,
    canonical_polynomial,
    coeff_str,
    coeff_strs,
    derivative_modulus_at_root,
    expand,
    factor_parallels,
    family_polynomial,
    norm_sq,
    roots,
)


def factor_set(f: FactorizedPolynomial) -> set:
    return {(g.power, g.shift) for g in f.factors}


def norm_enclosure(f: FactorizedPolynomial, prec: int = 256) -> tuple[Fraction, Fraction]:
    """The exact endpoints of norm_sq(f) under mp.iv at prec."""
    with context_precision(mp.iv, prec):
        return fraction_endpoints(norm_sq(f, mp.iv))


def test_family_m1_is_z4_minus_1():
    f = canonical_polynomial(1)
    assert factor_set(f) == {(4, Fraction(1))}
    assert expand(f).coeffs == (Fraction(-1), 0, 0, 0, Fraction(1))


def test_family_m2_exact_factors():
    f = canonical_polynomial(2)
    assert factor_set(f) == {
        (8, Fraction(1)),
        (4, Fraction(49)),
        (4, Fraction(1, 49)),
    }
    assert f.degree == 16


def test_family_m3_exact_factors():
    f = canonical_polynomial(3)
    assert factor_set(f) == {
        (12, Fraction(1)),
        (8, Fraction(2401, 16)),
        (8, Fraction(16, 2401)),
        (4, Fraction(289)),
        (4, Fraction(1, 289)),
    }
    assert f.degree == 36


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_reversal_antisymmetry(M):
    """z^N P(1/z) = -P(z): the coefficient list reversed equals its negation."""
    coeffs = expand(canonical_polynomial(M)).coeffs
    assert list(reversed(coeffs)) == [-c for c in coeffs]


def test_expand_small_product_by_hand():
    f = FactorizedPolynomial(
        factors=(Factor(2, Fraction(3)), Factor(1, Fraction(1, 2)))
    )
    # (z^2 - 3)(z - 1/2) = z^3 - z^2/2 - 3z + 3/2
    assert expand(f).coeffs == (
        Fraction(3, 2),
        Fraction(-3),
        Fraction(-1, 2),
        Fraction(1),
    )


@pytest.mark.parametrize("M", range(1, 13))
def test_expand_equals_the_fraction_product(M):
    f = canonical_polynomial(M)
    assert expand(f) == expand_by_fractions(f)


@pytest.mark.parametrize(
    "shifts",
    [
        # shared denominators, and one of denominator 1
        [(2, Fraction(3, 4)), (4, Fraction(5, 4)), (1, Fraction(7)), (2, Fraction(1, 4))],
        # pairwise coprime denominators
        [(3, Fraction(2, 3)), (1, Fraction(7, 5)), (2, Fraction(11, 49)), (5, Fraction(1))],
        # a common factor of numerator and D that cancels in some coefficients
        [(1, Fraction(6, 5)), (1, Fraction(5, 6)), (2, Fraction(10, 3))],
        # a repeated shift: s, s, 1/s pairs once and leaves one s
        [(4, Fraction(3, 5)), (4, Fraction(3, 5)), (8, Fraction(2)), (4, Fraction(5, 3))],
        # two s = 1 factors pair with each other
        [(2, Fraction(1)), (4, Fraction(7, 2)), (2, Fraction(1))],
        # reciprocal shifts of unequal powers do not pair
        [(2, Fraction(7, 3)), (4, Fraction(3, 7)), (6, Fraction(1))],
        # powers of gcd 3
        [(3, Fraction(2, 5)), (6, Fraction(5, 2)), (3, Fraction(5, 2)), (9, Fraction(1))],
        # odd powers, gcd 1, a pair of odd power
        [(1, Fraction(2, 3)), (3, Fraction(3, 2)), (5, Fraction(7)), (1, Fraction(3, 2))],
    ],
    ids=["shared", "coprime", "cancelling", "repeated", "ones", "unequal-powers", "gcd3", "odd"],
)
def test_expand_hand_built_rational_products(shifts):
    f = FactorizedPolynomial(tuple(Factor(r, s) for r, s in shifts))
    dense = expand(f)
    assert dense == expand_by_fractions(f)
    assert all(type(c) is Fraction for c in dense.coeffs)
    lo, hi = norm_enclosure(f)
    assert lo <= bombieri_norm_sq(dense) <= hi
    assert polynomials._numerators(f) == numerators_by_binomials(f)


@pytest.mark.parametrize(
    "shifts,rest",
    [
        ([(4, Fraction(3, 5)), (4, Fraction(3, 5)), (8, Fraction(2)), (4, Fraction(5, 3))], [0, 2]),
        ([(2, Fraction(1)), (4, Fraction(7, 2)), (2, Fraction(1))], [1]),
        ([(2, Fraction(7, 3)), (4, Fraction(3, 7)), (6, Fraction(1))], [0, 1, 2]),
        ([(3, Fraction(2, 5)), (6, Fraction(5, 2)), (3, Fraction(5, 2)), (9, Fraction(1))], [1, 3]),
        ([(4, Fraction(2)), (4, Fraction(1, 2)), (4, Fraction(1, 2)), (4, Fraction(2))], []),
    ],
    ids=["repeated", "ones", "unequal-powers", "gcd3", "twice"],
)
def test_reciprocal_pairs_match_each_factor_once(shifts, rest):
    """Each factor z^r - s pairs with at most one unused z^r - 1/s of the
    same power; the unmatched factors keep factor order."""
    factors = tuple(Factor(r, s) for r, s in shifts)
    pairs, unmatched = polynomials._reciprocal_pairs(factors)
    assert unmatched == [factors[k] for k in rest]
    assert 2 * len(pairs) == len(factors) - len(rest)


@pytest.mark.parametrize("M", range(1, 13))
def test_family_numerators_equal_the_binomial_loop(M):
    """The paired, palindromic product in w = z^4 gives the integers and
    the D of one binomial at a time in z."""
    f = canonical_polynomial(M)
    pairs, rest = polynomials._reciprocal_pairs(f.factors)
    assert len(pairs) == M - 1 and rest == [f.factors[0]]
    assert polynomials._numerators(f) == numerators_by_binomials(f)


@pytest.mark.parametrize(
    "M,phases",
    [
        (2, ["0.1", "0.7", "-1.2"]),
        # the mirror pair j = 2, 4 has phase 0 on both parallels
        (3, ["0.3", "0", "1.1", "0", "0.05"]),
        (4, ["0", "0.25", "0", "0.125", "0", "1.5", "0"]),
    ],
)
def test_phased_numerators_are_the_binomial_loop(M, phases):
    """A phased family has only complex shifts, so it forms no pair, even a
    mirror pair whose phases are both 0, and _numerators does the binomial
    loop's mpc operations in its order: the values are equal bit for bit."""
    ps = build_point_set(M, phases=phases)
    with mp.workprec(ps.prec_bits):
        f = family_polynomial(ps)
        assert all(isinstance(fac.shift, mp.mpc) for fac in f.factors)
        assert polynomials._reciprocal_pairs(f.factors) == ([], list(f.factors))
        assert polynomials._numerators(f) == numerators_by_binomials(f)


@pytest.mark.parametrize("M", range(1, 9))
def test_expand_reduces_each_distinct_magnitude_once(M, monkeypatch):
    """expand divides each distinct |a_i| of _numerators by D once (-a
    takes the negated quotient) and still equals the Fraction-loop oracle;
    the zero-phase family has a_(N-i) = -a_i and a_i = 0 unless 4 | i."""
    f = canonical_polynomial(M)
    numerators, _ = polynomials._numerators(f)
    calls = []
    over = polynomials._over
    monkeypatch.setattr(polynomials, "_over", lambda x, d: calls.append(x) or over(x, d))
    coeffs = expand(f).coeffs
    assert sorted(map(abs, calls)) == sorted({abs(a) for a in numerators})
    assert expand(f) == expand_by_fractions(f)
    N = len(coeffs) - 1
    assert all(coeffs[N - i] == -c for i, c in enumerate(coeffs))
    assert all(c == 0 for i, c in enumerate(coeffs) if i % 4)


def test_coeff_str_prints_past_the_digit_limit(monkeypatch):
    """A 5,000-digit rational prints exactly, alone and through the
    per-call memo of coeff_strs, which prints each magnitude once."""
    big = Fraction(-(10**5000 - 1), 7)
    want = "-" + "9" * 5000 + "/7"
    assert coeff_str(big) == want
    printed = []
    int_str = polynomials.int_str
    monkeypatch.setattr(polynomials, "int_str", lambda n: printed.append(n) or int_str(n))
    assert coeff_strs([big, -big, big, Fraction(0)]) == [want, want[1:], want, "0/1"]
    assert printed == [10**5000 - 1, 7, 0, 1]


def test_expand_of_no_factors_is_one():
    f = FactorizedPolynomial(())
    assert expand(f).coeffs == (Fraction(1),)
    assert norm_enclosure(f) == (1, 1)
    assert norm_sq(f, mp.mp) == 1


@pytest.mark.parametrize("M", [2, 3])
def test_phased_expansion_matches_the_fraction_product(M):
    """Complex shifts go through the same integer loop with q = 1: each
    coefficient within 2^-(prec-16) of the Fraction/mpc oracle (exact
    where both are exact), and the norm within the same bound."""
    prec = 256
    phases = [0.1 * (j + 1) - 0.35 for j in range(2 * M - 1)]
    f = family_polynomial(build_point_set(M, phases=phases, prec_bits=prec))
    with mp.workprec(prec):
        got, want = expand(f).coeffs, expand_by_fractions(f).coeffs
        tol = mp.mpf(2) ** (16 - prec)
        for c, w in zip(got, want, strict=True):
            if isinstance(w, Fraction):
                assert c == w
            else:
                assert abs(c - w) <= tol * max(1, abs(w))
        norm, want_norm = norm_sq(f, mp.mp), bombieri_norm_sq(expand_by_fractions(f))
        assert abs(norm - want_norm) <= tol * want_norm


@pytest.mark.parametrize("M", range(1, 17))
def test_product_norm_equals_the_dense_norm(M):
    """norm_sq of the factorized family holds the exact dense norm
    bombieri_norm_sq(expand(f)): under mp.iv in an enclosure narrower than
    2^-prec relative (2^-264 measured up to M=16), and under mp.mp within
    2^-(prec-16) relative."""
    prec = 256
    f = canonical_polynomial(M)
    exact = bombieri_norm_sq(expand(f))
    lo, hi = norm_enclosure(f, prec)
    assert lo <= exact <= hi
    assert hi - lo < exact / 2**prec
    with mp.workprec(prec):
        got = fraction_from_mpf(norm_sq(f, mp.mp))
    assert abs(got - exact) <= exact / 2 ** (prec - 16)


def test_zero_phase_family_shares_the_canonical_norm(monkeypatch):
    """A zero-phase family_polynomial equals canonical_polynomial(M), so
    the coefficient, certified and spherical routes of one M, each forming
    the family of its own point set, all take norm_sq of the canonical
    polynomial, at their working precision: the float coefficient route
    under mp.mp, and certify_bound and the spherical route's rounded-once
    numerator integral under mp.iv."""
    taken = []
    inner = condition.norm_sq
    monkeypatch.setattr(
        condition, "norm_sq", lambda f, ctx: taken.append((f, ctx, ctx.prec)) or inner(f, ctx)
    )
    for route in (mu_max_coefficient_route, certify_bound, mu_max_spherical_route):
        route(4, 256)
    f = canonical_polynomial(4)
    assert taken == [(f, mp.mp, 256), (f, mp.iv, 256), (f, mp.iv, 256)]


def test_bombieri_norm_hand_values():
    p = DensePolynomial(coeffs=(Fraction(-1), 0, 0, 0, Fraction(1)))
    assert bombieri_norm_sq(p) == Fraction(2)
    q = DensePolynomial(coeffs=(Fraction(0), Fraction(2), Fraction(1)))
    # |2|^2 / C(2,1) + |1|^2 / C(2,2) = 2 + 1
    assert bombieri_norm_sq(q) == Fraction(3)


def test_roots_m1_are_fourth_roots_of_unity():
    rs = roots(canonical_polynomial(1), 192)
    assert len(rs) == 4
    with mp.workprec(192):
        got = sorted((mp.nstr(r.value.real, 5), mp.nstr(r.value.imag, 5)) for r in rs)
        want = sorted(
            (mp.nstr(mp.mpf(a), 5), mp.nstr(mp.mpf(b), 5))
            for a, b in [(1, 0), (0, 1), (-1, 0), (0, -1)]
        )
        assert got == want


@pytest.mark.parametrize("M", [2, 3])
def test_roots_satisfy_their_factors(M):
    prec = 256
    f = canonical_polynomial(M)
    rs = roots(f, prec)
    assert len(rs) == f.degree
    with mp.workprec(prec):
        for entry in rs:
            g = f.factors[entry.factor]
            val = entry.value**g.power - g.shift.numerator / mp.mpf(g.shift.denominator)
            assert abs(val) < mp.mpf(2) ** -(prec - 16) * max(1, abs(float(g.shift)))


def factor_inputs(M: int) -> list[tuple[Parallel, list[Parallel]]]:
    """(parallel, the other factors' parallels) of each factor of the
    canonical polynomial of M, in factor order."""
    pars = factor_parallels(build_parallels(M))
    return [(par, pars[:k] + pars[k + 1:]) for k, par in enumerate(pars)]


@pytest.mark.parametrize("M", [2, 5])
def test_real_roots_round_no_rim_and_keep_every_bit(M, monkeypatch):
    """At a real root of the zero-phase family every sin^2 is exactly 0,
    so the kernel rounds each other factor's gap alone, and log |f'|
    equals, bit for bit, the t = 0 entry of the evaluation at every root,
    which rounds the rims, under mp and under mp.iv."""
    prec = 256
    rounded, kernel_calls = [], []
    round_ratio, kernel = numerics.round_ratio, polynomials.binomial_factors
    monkeypatch.setattr(
        numerics, "round_ratio", lambda ctx, n, d: rounded.append(n) or round_ratio(ctx, n, d)
    )
    monkeypatch.setattr(
        polynomials, "binomial_factors", lambda *args: kernel_calls.append(args) or kernel(*args)
    )
    for ctx, raw in ((mp.mp, lambda x: x._mpf_), (mp.iv, lambda x: x._mpi_)):
        for root, others in factor_inputs(M):
            rounded.clear()
            kernel_calls.clear()
            (real,) = derivative_modulus_at_root(root, others, [0], prec, ctx)
            assert len(kernel_calls) == len(others), (ctx, root.index)
            # log rho^2 of the base, then one gap per other factor and no rim
            assert len(rounded) == 1 + len(others), (ctx, root.index)
            every = derivative_modulus_at_root(root, others, range(root.count), prec, ctx)
            assert raw(real) == raw(every[0]), (ctx, root.index)


@pytest.mark.parametrize("ctx", [mp.mp, mp.iv], ids=["mp", "iv"])
def test_no_other_factor_leaves_the_base_alone(ctx):
    """At M = 1 the equator's factor z^4 - 1 is f itself: the product over
    the other factors is 1, and log |f'| = log r + (r - 1) log rho^2 / 2 is
    log 4 at every root, bit for bit."""
    (equator,) = build_parallels(1)
    raw = (lambda x: x._mpi_) if ctx is mp.iv else (lambda x: x._mpf_)
    got = derivative_modulus_at_root(equator, [], range(equator.count), 256, ctx)
    with context_precision(ctx, 256):
        want = ctx.log(4)
    assert [raw(value) for value in got] == [raw(want)] * 4


def test_factor_to_parallel_mapping_m3():
    """The parallel of each factor's roots, as factor_parallels orders
    them, in the factor order the roots come in."""
    f = canonical_polynomial(3)
    parallels = [par.index for par in factor_parallels(build_parallels(3)) for _ in range(par.count)]
    got = {
        (f.factors[entry.factor].power, f.factors[entry.factor].shift): parallel
        for entry, parallel in zip(roots(f, 64), parallels, strict=True)
    }
    assert len(got) == len(f.factors)
    # equator has index M; shift > 1 sits north (smaller index), < 1 south
    assert got[(12, Fraction(1))] == 3
    assert got[(4, Fraction(289))] == 1
    assert got[(4, Fraction(1, 289))] == 5
    assert got[(8, Fraction(2401, 16))] == 2
    assert got[(8, Fraction(16, 2401))] == 4


def test_derivative_modulus_matches_direct_evaluation():
    """Closed form vs the root-difference product at every root, M = 1..4:
    within 2^-(prec-16) under mp, and the mp.iv enclosure contains the
    product taken at 64 more bits."""
    prec = 256
    tol = mp.mpf(2) ** -(prec - 16)
    tol_q = Fraction(1, 2 ** (prec - 16))
    for M in range(1, 5):
        f = canonical_polynomial(M)
        rs, fine = roots(f, prec), roots(f, prec + 64)
        data = factor_inputs(M)
        assert len(data) == len(f.factors)
        assert sum(root.count for root, _ in data) == len(rs) == f.degree
        floats = [
            v for root, others in data
            for v in derivative_modulus_at_root(root, others, range(root.count), prec)
        ]
        enclosures = [
            v for root, others in data
            for v in derivative_modulus_at_root(root, others, range(root.count), prec, mp.iv)
        ]
        i = 0
        for fi, ((root, _), fac) in enumerate(zip(data, f.factors, strict=True)):
            # the roots lie on the stereographic image of their parallel
            rho_sq = (1 + root.height) / (1 - root.height)
            assert fac.shift == rho_sq ** (root.count // 2) and root.count == fac.power
            for t in range(root.count):
                entry = rs[i]
                assert (entry.factor, entry.azimuth) == (fi, t)
                with mp.workprec(prec):
                    assert abs(abs(entry.value) ** 2 - to_mpf(rho_sq)) < tol * rho_sq
                    want = log_derivative_modulus_by_gaps(rs, i, prec)
                    # |log a - log b| bounds the relative error of a vs b
                    assert abs(floats[i] - want) < tol, (M, root.index, t)
                exact = fraction_from_mpf(log_derivative_modulus_by_gaps(fine, i, prec + 64))
                lo, hi = fraction_endpoints(enclosures[i])
                assert lo <= exact <= hi and hi - lo < 2 * tol_q, (M, root.index, t)
                i += 1
    # Horner on the exact derivative agrees too, at M = 2 where its
    # cancellation stays small.
    f = canonical_polynomial(2)
    rs = roots(f, prec)
    floats = [
        v for root, others in factor_inputs(2)
        for v in derivative_modulus_at_root(root, others, range(root.count), prec)
    ]
    dp = derivative(expand(f))
    with mp.workprec(prec):
        for i in (0, 5, 11):
            direct = abs(evaluate(dp, rs[i].value))
            got = mp.exp(floats[i])
            assert abs(got - direct) / direct < mp.mpf(2) ** -(prec - 32)


def test_multiple_root_gives_infinite_mu():
    """A repeated root has f' = 0: log |f'| = log 0 = -inf and log mu = +inf,
    under mp and under mp.iv."""
    prec = 256
    # f = (z^4 - 1)^2, two equal parallels on the equator (rho^2 = 1): at
    # every root the other copy of the factor gives L = 0, a turn q = 2t
    # = 0 mod 2 and an offset exactly 0, so its term vanishes exactly;
    # rotating both copies by one phase keeps the offset exactly 0.
    f = FactorizedPolynomial(factors=(Factor(4, Fraction(1)), Factor(4, Fraction(1))))
    equator = Parallel(1, 4, Fraction(0), Fraction(1, 2))
    for root in (equator, dataclasses.replace(equator, phase=mp.mpf("0.3"))):
        for ctx in (mp.mp, mp.iv):
            for log_fp in derivative_modulus_at_root(root, [root], range(root.count), prec, ctx):
                assert log_fp == ctx.mpf("-inf"), ctx
            norm_sq = bombieri_norm_sq(expand(f))
            scale = log_scale(8, norm_sq, prec, ctx)
            for log_mu in log_mu_at_root(root, [root], range(root.count), *scale, prec, ctx):
                assert log_mu == ctx.mpf("+inf"), ctx
    with pytest.raises(RepeatedRootError):
        log_derivative_modulus_by_gaps(roots(f, prec), 0, prec)


def test_factor_validation():
    with pytest.raises(ValueError):
        Factor(0, Fraction(1))
    with pytest.raises(ValueError):
        Factor(4, Fraction(-2))
    with pytest.raises(ValueError):
        Factor(4, mp.mpc(-2, 0))
    assert Factor(4, mp.mpc(1, 1)).shift == mp.mpc(1, 1)  # a rotated factor


def test_rotated_shifts_keep_the_point_set_precision():
    """At mpmath's default 53-bit context a phased family still rotates
    its shifts at the point set's 256 bits."""
    assert mp.mp.prec == 53
    ps = build_point_set(2, phases=["0.1", "0.7", "-1.2"], prec_bits=256)
    f = family_polynomial(ps)
    with mp.workprec(256):
        want = family_polynomial(ps)
    assert [fac.shift for fac in f.factors] == [fac.shift for fac in want.factors]
    assert all(isinstance(fac.shift, mp.mpc) for fac in f.factors)
    assert f.factors[0].shift.real._mpf_[3] > 53  # mantissa bits
