"""Exact sum inequalities and their interval-backed bounds."""

from fractions import Fraction

import mpmath as mp
import pytest

from wellcond import sums
from wellcond.numerics import fmt_real, frac_str, fraction_from_mpf, interval_endpoints, to_mpf
from wellcond.sums import CSV_HEADER, r_sum, sum_check_suite

PREC = 256


def tail_checks(ell, M, prec_bits=PREC):
    """The suite's two tail checks at one (ell, M)."""
    return sums._tail_checks(ell, M, *sums._tail_values(ell, [M])[M], prec_bits)


def weighted_checks(M, prec_bits=PREC):
    """The suite's weighted-sum check at one M."""
    return sums._weighted_checks(M, *sums._weighted_lhs([M], prec_bits)[M], prec_bits)


def harmonic_checks(ell, M, prec_bits=PREC):
    """The suite's two harmonic checks at one (ell, M), the sum taken
    directly as sum_{j=ell+1}^{M} 1/j: the reference for the suite's
    differences of harmonic numbers."""
    value = sum(Fraction(1, j) for j in range(ell + 1, M + 1))
    logs = {n: sums._log_enclosure(n, prec_bits) for n in (ell, ell + 1, M, M + 1)}
    return sums._harmonic_checks(ell, M, value, logs, prec_bits)


def r_sum_by_terms(M):
    """R(M) term by term, one Fraction addition per j: the oracle of
    r_sum's one ratio."""
    return sum(Fraction(j, M) ** (4 * j) for j in range(1, M))


def test_r_sum_equals_the_term_by_term_sum():
    for M in range(2, 65):
        assert r_sum(M)[0].value == r_sum_by_terms(M), M


def test_r2_is_exactly_one_sixteenth():
    checks = r_sum(2)
    assert len(checks) == 1
    check = checks[0]
    assert check.value == Fraction(1, 16)
    assert check.check_id == "r_sum_le_1_16"
    assert check.margin == 0 and check.passed


def test_r3_hand_value():
    # (1/3)^4 + (2/3)^8 = 1/81 + 256/6561
    assert r_sum(3)[0].value == Fraction(337, 6561)


def test_r_monotone_chain_2_to_5():
    vals = [r_sum(M)[0].value for M in (2, 3, 4, 5)]
    assert vals[0] >= vals[1] >= vals[2] >= vals[3]


def test_r_below_one_thirtieth_from_5_to_64():
    for M in range(5, 65):
        checks = r_sum(M)
        assert checks[0].value <= Fraction(1, 30), M
        assert all(c.passed for c in checks)


def test_r_stays_exact_past_m_64():
    """R(M) and both margins are exact rationals at every M."""
    for M in (65, 90):
        checks = r_sum(M)
        assert [c.check_id for c in checks] == ["r_sum_le_1_16", "r_sum_le_1_30"]
        value = r_sum_by_terms(M)
        for c in checks:
            assert c.value == value and c.margin == c.bound - value and c.passed


def test_r_rejects_bad_m():
    for bad in (1, 0, 2.5):
        with pytest.raises(ValueError):
            r_sum(bad)


def test_tail_single_term_hand_value():
    envelope, companion = tail_checks(3, 5)
    assert envelope.value == Fraction(4, 5) ** 20
    assert companion.value == Fraction(12, 25) ** 10
    assert companion.bound == envelope.value
    assert envelope.passed and companion.passed


def test_tail_bound_holds_on_worst_small_ell():
    bound = [c for c in tail_checks(1, 16) if c.check_id == "tail_sum_le_inv_e4m1"][0]
    assert bound.passed
    # the enclosure endpoint really is below 1/(e^4 - 1)
    with mp.workprec(128):
        assert to_mpf(bound.bound) <= 1 / (mp.exp(mp.mpf(4)) - 1)


def test_tail_companion_never_exceeds_envelope_form():
    for ell, M in ((1, 6), (2, 9), (5, 12)):
        envelope, companion = tail_checks(ell, M)
        assert companion.bound == envelope.value
        assert companion.value <= envelope.value


def test_harmonic_sandwich_hand_case():
    lower, upper = harmonic_checks(1, 2)
    assert lower.value == upper.value == Fraction(1, 2)
    with mp.workprec(128):
        assert abs(to_mpf(lower.bound) - mp.log(mp.mpf(3) / 2)) < mp.mpf(2) ** -100
        assert abs(to_mpf(upper.bound) - mp.log(mp.mpf(2))) < mp.mpf(2) ** -100
    assert lower.passed and upper.passed


def test_weighted_sum_margin_positive():
    for M in (1, 2, 5, 32, 64):
        (check,) = weighted_checks(M)
        assert check.passed
        assert check.margin > 0 or M == 1


def test_weighted_sum_memoised_terms_match_a_fresh_enclosure():
    """The memoised per-ell terms, summed in the same order, give the
    values of enclosing every term afresh for each M, and the tail checks'
    1/(e^4 - 1) is enclosed once per precision."""
    prec = 256

    def fresh_lhs(iv, M):
        acc, log2 = iv.mpf(0), iv.log(iv.mpf(2))
        for ell in range(1, M):
            acc += iv.exp(iv.log(iv.mpf(ell)) / 3) * iv.exp((iv.mpf(1) - log2) * 4 / ell)
        return acc

    sums._weighted_term.cache_clear()
    for M in (2, 5, 17, 64):
        lo, hi = interval_endpoints(lambda iv: fresh_lhs(iv, M), prec)
        (check,) = weighted_checks(M, prec)
        with mp.workprec(prec):
            assert check.value == to_mpf((lo + hi) / 2), M
    assert sums._weighted_term.cache_info().currsize == 63
    sums._inv_e4m1.cache_clear()
    for ell, M in ((1, 5), (3, 9), (2, 40)):
        tail_checks(ell, M, prec)
    assert sums._inv_e4m1.cache_info().misses == 1


@pytest.mark.parametrize("max_m", [64, 300])
def test_suite_weighted_checks_equal_weighted_sum(max_m, monkeypatch):
    """The suite accumulates the weighted sums' left side once over
    ascending M; each of its checks equals weighted_checks(M), formed
    from that M's sum alone,
    for every M = 1..max_m.  At max_m = 300 the suite runs without its
    tail and harmonic grids, whose exact sums would take seconds there."""
    if max_m > 64:
        monkeypatch.setattr(sums, "_tail_grid", lambda M: [])
        monkeypatch.setattr(sums, "_harmonic_checks", lambda *args: [])
    got = [c for c in sum_check_suite(max_m) if c.check_id == "weighted_sum_le_cubic_bound"]
    assert [c.params["M"] for c in got] == list(range(1, max_m + 1))
    for c in got:
        (want,) = weighted_checks(c.params["M"])
        assert (c.value, c.bound, c.margin) == (want.value, want.bound, want.margin)
        assert c == want


def _is_long(v):
    """A Fraction too long to print exactly: it prints as a decimal."""
    return isinstance(v, Fraction) and sums._MAX_EXACT_BITS < max(
        v.numerator.bit_length(), v.denominator.bit_length()
    )


def test_check_json_prints_at_its_precision_under_any_context():
    """A check prints the same under any working precision: exact values
    as num/den, the rest as fmt_real at its precision_bits, a Fraction
    past _MAX_EXACT_BITS rounded once at that precision."""
    checks = [*tail_checks(1, 64), *tail_checks(1, 64, 128), *weighted_checks(7, 96), *r_sum(9), *harmonic_checks(2, 9)]
    assert any(_is_long(v) for c in checks for v in (c.value, c.bound, c.margin))
    for c in checks:
        with mp.workprec(53):
            low = c.to_json_dict()
        with mp.workprec(512):
            high = c.to_json_dict()
        assert low == high
        with mp.workprec(c.precision_bits):
            for key in ("value", "bound", "margin"):
                v = getattr(c, key)
                exact = isinstance(v, Fraction) and not _is_long(v)
                assert low[key] == (frac_str(v) if exact else fmt_real(to_mpf(v))), (c.check_id, key)


def test_formatting_the_suite_enters_no_working_precision(monkeypatch):
    """Each check prints at its own precision_bits without entering
    mp.workprec, which the suite's 4,542 checks at max_m = 64 would
    otherwise enter once each."""
    checks = sum_check_suite(64)
    calls = []
    real = mp.workprec
    monkeypatch.setattr(mp, "workprec", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    docs = [c.to_json_dict() for c in checks]
    assert len(docs) == 4542
    assert calls == []


def test_suite_all_checks_pass():
    checks = sum_check_suite(64)
    assert len(checks) > 4000
    assert all(c.passed for c in checks)
    ids = {c.check_id for c in checks}
    assert {
        "r_sum_le_1_16",
        "r_sum_le_1_30",
        "r_sum_monotone_step",
        "tail_sum_le_inv_e4m1",
        "tail_companion_le_envelope",
        "weighted_sum_le_cubic_bound",
        "harmonic_ge_log_upper_ratio",
        "harmonic_le_log_lower_ratio",
    } <= ids


def test_suite_encloses_each_log_ratio_once(monkeypatch):
    """The harmonic checks equal those of the direct sum at every (ell, M), with
    each log n enclosed once, n = 1..max_m + 1; every bound is a
    difference of two such enclosures, on the conservative side of the
    log ratio and within a few ulps of it."""
    calls = []
    real = sums._log_enclosure

    def counting(n, prec_bits):
        calls.append(n)
        return real(n, prec_bits)

    max_m = 12
    with monkeypatch.context() as patch:
        patch.setattr(sums, "_log_enclosure", counting)
        got = [c for c in sum_check_suite(max_m) if c.check_id.startswith("harmonic_")]
    assert calls == list(range(1, max_m + 2))
    want = [c for M in range(2, max_m + 1) for ell in range(1, M) for c in harmonic_checks(ell, M)]
    assert got == want
    slack = Fraction(1, 2 ** (256 - 8))
    with mp.workprec(512):
        for c in got:
            ell, M = c.params["ell"], c.params["M"]
            num, den = (M + 1, ell + 1) if c.check_id == "harmonic_ge_log_upper_ratio" else (M, ell)
            exact = fraction_from_mpf(mp.log(mp.mpf(num) / den))
            gap = c.bound - exact if num == M + 1 else exact - c.bound
            assert 0 < gap < slack, (c.check_id, ell, M)


def test_suite_tail_sums_equal_each_sum_taken_afresh(monkeypatch):
    """The suite's tail checks equal those formed at each (ell, M) of the
    grid, in the grid's order (M, then ell), and their sums equal the
    sums taken from scratch, while the suite accumulates each ell's sums
    once, over all its M."""
    max_m = 24
    grid = [(ell, M) for M in (*range(3, 19), 24) for ell in sums._tail_grid(M)]
    calls = []
    real = sums._tail_values
    with monkeypatch.context() as patch:
        patch.setattr(
            sums, "_tail_values", lambda ell, ms: calls.append((ell, list(ms))) or real(ell, ms)
        )
        got = [c for c in sum_check_suite(max_m) if c.check_id.startswith("tail_")]
    assert sorted(calls) == [
        (ell, [M for e, M in grid if e == ell]) for ell in sorted({ell for ell, _ in grid})
    ]
    assert got == [c for ell, M in grid for c in tail_checks(ell, M)]
    for ell, M in grid:
        envelope, companion = tail_checks(ell, M)
        js = range(ell + 2, M + 1)
        assert envelope.value == sum(Fraction(ell + 1, j) ** (4 * j) for j in js)
        assert companion.value == sum(Fraction(ell * (ell + 1), j * j) ** (2 * j) for j in js)


def test_suite_tail_grid_reaches_max_m():
    """--sums-max past the fixed grid still checks tail sums at max_m."""
    tails = [
        c for c in sum_check_suite(80)
        if c.check_id.startswith("tail_") and c.params["M"] == 80
    ]
    assert len(tails) == 12
    assert all(c.passed for c in tails)


def test_check_serialization_round_trip():
    check = r_sum(2)[0]
    d = check.to_json_dict()
    assert d["id"] == "r_sum_le_1_16"
    assert d["value"] == "1/16" and d["pass"] is True
    row = check.csv_row()
    assert len(row) == len(CSV_HEADER)
    assert row[0] == d["id"] and row[-1] == "True"


def test_huge_rationals_format_without_overflow():
    """Exact values beyond ~4000 digits fall back to decimal display."""
    checks = tail_checks(1, 64)
    for c in checks:
        for cell in c.csv_row():
            assert len(cell) < 5000
    assert all(c.passed for c in checks)
