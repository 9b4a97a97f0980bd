"""Discrete sum inequalities used by the energy and product bounds.

Four families of sums, each with explicit bounds:

* R(M) = sum_{j=1}^{M-1} (j/M)^(4j), exactly rational, formed as one
  ratio sum_j j^(4j) M^(4(M-1-j)) / M^(4(M-1)) reduced once;
  R(M) <= 1/16 for M >= 2 and R(M) <= 1/30 for M >= 5.
* tail(ell, M) = sum_{j=ell+2}^{M} ((ell+1)/j)^(4j) <= 1/(e^4 - 1),
  together with its smaller companion sum_{j} (ell(ell+1)/j^2)^(2j).
* sum_{ell=1}^{M-1} ell^(1/3) (e/2)^(4/ell)
  <= (3/4) M^(4/3) + 12 (1 - log 2) M^(1/3) + 3.
* log((M+1)/(ell+1)) <= sum_{j=ell+1}^{M} 1/j <= log(M/ell), the sum
  H_M - H_ell of exact harmonic numbers, each log n enclosed once.

Rational sums are evaluated exactly; transcendental bounds are enclosed
by interval arithmetic, and a check passes only if the exact value
clears the conservative endpoint, so rounding can never flip a verdict
to pass.  r_sum forms one M's checks; sum_check_suite forms every
grid's, and accumulates what several grid points share once over
ascending M: each ell's tail sums, and the weighted sums' left-side
enclosure, with the interval additions of each M's sum in their order,
so every check equals the one formed from its own terms.  A check
prints at its own precision_bits and enters no working precision.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import mpmath as mp

from .numerics import (
    DEFAULT_PREC_BITS,
    check_precision,
    context_precision,
    fmt_real,
    frac_str,
    fraction_endpoints,
    interval_endpoints,
    to_mpf,
)

@dataclass(frozen=True)
class SumCheck:
    """One verified sum inequality; it passes when margin >= 0.

    For upper bounds margin = bound - value, for lower bounds
    value - bound; interval-backed margins are conservative (measured
    from the unfavourable enclosure endpoint), and an mpf margin is the
    exact one rounded to nearest, which keeps its sign.  Values print at
    precision_bits, whatever the caller's mpmath context.
    """

    check_id: str
    params: dict
    value: object  # Fraction or mpf
    bound: object
    margin: object
    precision_bits: int

    @property
    def passed(self) -> bool:
        return self.margin >= 0

    def to_json_dict(self) -> dict:
        prec = self.precision_bits
        return {
            "id": self.check_id,
            "params": self.params,
            "value": _fmt_value(self.value, prec),
            "bound": _fmt_value(self.bound, prec),
            "margin": _fmt_value(self.margin, prec),
            "pass": self.passed,
        }


# Exact rationals print as num/den up to this many bits per side
# (roughly 4000 decimal digits); larger ones fall back to a decimal at
# the check's precision so reports stay readable.  Checks themselves always
# compare exactly regardless of how the value is printed.
_MAX_EXACT_BITS = 13288


def _fmt_value(v, prec_bits: int) -> str:
    if (
        isinstance(v, Fraction)
        and v.numerator.bit_length() <= _MAX_EXACT_BITS
        and v.denominator.bit_length() <= _MAX_EXACT_BITS
    ):
        return frac_str(v)
    return fmt_real(v, prec_bits)


def _log_enclosure(n: int, prec_bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of log n for a positive integer n."""
    return interval_endpoints(lambda iv: iv.log(iv.mpf(n)), prec_bits)


@functools.lru_cache(maxsize=None)
def _inv_e4m1(prec_bits: int) -> Fraction:
    """Lower end of an enclosure of 1/(e^4 - 1), once per precision."""
    return interval_endpoints(lambda iv: 1 / (iv.exp(iv.mpf(4)) - 1), prec_bits)[0]


def r_sum(M: int, prec_bits: int = DEFAULT_PREC_BITS) -> list[SumCheck]:
    """R(M) = sum_{j=1}^{M-1} (j/M)^(4j), exactly, with its 1/16 and
    1/30 checks; each check's value is R(M), formed as one ratio over
    the common denominator M^(4(M-1)) and reduced once."""
    if not isinstance(M, int) or M < 2:
        raise ValueError(f"R(M) needs an integer M >= 2, got {M!r}")
    check_precision(prec_bits)
    m4, num = M**4, 0
    for j in range(1, M):  # Horner's rule for sum_j j^(4j) M^(4(M-1-j))
        num = num * m4 + j ** (4 * j)
    value = Fraction(num, m4 ** (M - 1))
    bounds = [("r_sum_le_1_16", Fraction(1, 16))]
    if M >= 5:
        bounds.append(("r_sum_le_1_30", Fraction(1, 30)))
    return [
        SumCheck(check_id, {"M": M}, value, bound, bound - value, prec_bits)
        for check_id, bound in bounds
    ]


def _tail_values(ell: int, ms) -> dict[int, tuple[Fraction, Fraction]]:
    """{M: (tail(ell, M), its companion)} for one ell at each M of ms,
    accumulated once over ascending j."""
    out, envelope, companion, j = {}, 0, 0, ell + 2
    for M in sorted(ms):
        while j <= M:
            envelope += Fraction(ell + 1, j) ** (4 * j)
            companion += Fraction(ell * (ell + 1), j * j) ** (2 * j)
            j += 1
        out[M] = (envelope, companion)
    return out


def _tail_checks(ell: int, M: int, envelope, companion, prec_bits: int) -> list[SumCheck]:
    """The two checks of the tail sums at (ell, M): the envelope against
    the lower end of 1/(e^4 - 1)'s enclosure, the companion against the
    envelope."""
    bound_lo = _inv_e4m1(prec_bits)
    return [
        SumCheck(check_id, {"ell": ell, "M": M}, value, bound, bound - value, prec_bits)
        for check_id, value, bound in (
            ("tail_sum_le_inv_e4m1", envelope, bound_lo),
            ("tail_companion_le_envelope", companion, envelope),
        )
    ]


def _weighted_lhs(ms, prec_bits: int) -> dict[int, tuple[Fraction, Fraction]]:
    """{M: endpoints of the weighted sum's enclosure} at each M of ms,
    accumulated once over ascending ell, each term ell^(1/3) (e/2)^(4/ell)
    enclosed once: every M's sum takes the same interval additions, in
    the same order, as summing its terms afresh."""
    out, ell, iv = {}, 1, mp.iv
    with context_precision(iv, prec_bits):
        acc = iv.mpf(0)
        for M in sorted(ms):
            while ell < M:
                acc += iv.exp(iv.log(iv.mpf(ell)) / 3) * iv.exp((1 - iv.log(iv.mpf(2))) * 4 / ell)
                ell += 1
            out[M] = fraction_endpoints(acc)
    return out


def _weighted_checks(M: int, lhs_lo: Fraction, lhs_hi: Fraction, prec_bits: int) -> list[SumCheck]:
    """The check of the weighted sum's enclosure [lhs_lo, lhs_hi] against
    the enclosed cubic-root bound, between the unfavourable endpoints."""

    def rhs(iv):
        log2 = iv.log(iv.mpf(2))
        m13 = iv.exp(iv.log(iv.mpf(M)) / 3)
        return iv.mpf(3) / 4 * (m13 ** 4) + 12 * (1 - log2) * m13 + 3

    rhs_lo, rhs_hi = interval_endpoints(rhs, prec_bits)
    margin = rhs_lo - lhs_hi
    with mp.workprec(prec_bits):
        return [
            SumCheck(
                "weighted_sum_le_cubic_bound",
                {"M": M},
                to_mpf((lhs_lo + lhs_hi) / 2),
                to_mpf((rhs_lo + rhs_hi) / 2),
                to_mpf(margin),
                prec_bits,
            )
        ]


def _harmonic_checks(ell: int, M: int, value: Fraction, logs: dict, prec_bits: int) -> list[SumCheck]:
    """The two checks of the harmonic sum `value` at (ell, M), each bound
    a difference of the unfavourable ends of the enclosures logs[n] of
    log n."""
    lower = logs[M + 1][1] - logs[ell + 1][0]
    upper = logs[M][0] - logs[ell][1]
    params = {"ell": ell, "M": M}
    return [
        SumCheck("harmonic_ge_log_upper_ratio", params, value, lower, value - lower, prec_bits),
        SumCheck("harmonic_le_log_lower_ratio", params, value, upper, upper - value, prec_bits),
    ]


def _tail_grid(M: int) -> list[int]:
    """Representative ell values for the tail-sum grid at one M."""
    if M <= 18:
        return list(range(1, M - 1))
    picks = {1, 2, M // 4, M // 2, M - 3, M - 2}
    return sorted(p for p in picks if 1 <= p <= M - 2)


def sum_check_suite(
    max_m: int = 64, prec_bits: int = DEFAULT_PREC_BITS
) -> list[SumCheck]:
    """Every sum check over the standard desk-scale grids.

    R(M) for all 2 <= M <= max_m (exact), plus the recorded monotone
    chain R(5) <= R(4) <= R(3) <= R(2); tail sums on a representative
    (ell, M) grid that always includes M = max_m; the weighted sum and the harmonic sandwich for every
    M up to max_m.
    """
    checks: list[SumCheck] = []
    values = {}
    for M in range(2, max_m + 1):
        r_checks = r_sum(M, prec_bits)
        values[M] = r_checks[0].value
        checks.extend(r_checks)
    for hi, lo in ((2, 3), (3, 4), (4, 5)):
        if hi in values and lo in values:
            checks.append(
                SumCheck(
                    "r_sum_monotone_step",
                    {"M_small": hi, "M_large": lo},
                    values[lo],
                    values[hi],
                    values[hi] - values[lo],
                    prec_bits,
                )
            )
    grid = [
        (ell, M)
        for M in range(3, max_m + 1)
        if M <= 18 or M in (24, 32, 48, 64) or M == max_m
        for ell in _tail_grid(M)
    ]
    ells = {ell for ell, _ in grid}
    tails = {ell: _tail_values(ell, [M for e, M in grid if e == ell]) for ell in ells}
    for ell, M in grid:
        checks.extend(_tail_checks(ell, M, *tails[ell][M], prec_bits))
    lhs = _weighted_lhs(range(1, max_m + 1), prec_bits)
    for M in range(1, max_m + 1):
        checks.extend(_weighted_checks(M, *lhs[M], prec_bits))
    harmonic = list(accumulate((Fraction(1, j) for j in range(1, max_m + 1)), initial=Fraction(0)))
    logs = {n: _log_enclosure(n, prec_bits) for n in range(1, max_m + 2)}
    for M in range(2, max_m + 1):
        for ell in range(1, M):
            checks.extend(_harmonic_checks(ell, M, harmonic[M] - harmonic[ell], logs, prec_bits))
    return checks
