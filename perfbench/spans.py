"""Span recorder installed around wellcond's public functions.

Every traced function is wrapped once and the wrapper is bound in every
``wellcond`` module namespace that holds the original, because modules
import these names directly (``cli`` binds ``verify_numerator``,
``condition`` binds ``bombieri_norm_sq``, ...).  Spans stay in memory as
``[name, parent, start, end]`` and are written out when the run ends.

Work counters that live in return values (quadrature nodes, cosine
precision escalations, cells, sum checks) are read by small observers
at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer module -> public functions timed in that layer.
TRACED = {
    "points": ["build_point_set"],
    "polynomials": [
        "canonical_polynomial",
        "expand",
        "bombieri_norm_sq",
        "roots",
        "derivative_modulus_at_root",
    ],
    "condition": [
        "mu_max_coefficient_route",
        "log_mu_at_root",
        "certify_bound",
        "mu_max_spherical_route",
        "numerator_integral_log",
        "point_gap_product_log",
        "theta_product_log_turn",
    ],
    "numerics": ["cos_pi_fraction_interval", "gauss_legendre"],
    "energy": [
        "log_energy",
        "verify_comparison",
        "verify_t_bounds",
        "verify_sn_kappa",
        "verify_numerator",
        "verify_denominator",
        "log_product_to_set",
    ],
    "sums": ["sum_check_suite"],
}

ROOT = "cli"


def _cells(result) -> int:
    reports = result if isinstance(result, list) else [result]
    return sum(len(r.cells) for r in reports)


def _escalations(report) -> int:
    # Certification starts at the working precision and doubles it.
    return (report.extras["cos_precision_bits"] // report.precision_bits).bit_length() - 1


# Span name -> (counter name, function of the returned value).
OBSERVERS = {
    "condition.numerator_integral_log": (
        "condition.quadrature_nodes",
        lambda r: r.gl_nodes * r.azimuth_nodes,
    ),
    "condition.certify_bound": ("condition.certify_bound.escalations", _escalations),
    "sums.sum_check_suite": ("sums.checks", len),
    **{
        f"energy.{name}": ("energy.cells", _cells)
        for name in TRACED["energy"]
        if name.startswith("verify_")
    },
}


class Recorder:
    """In-memory spans of one single-threaded run, plus work counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observer = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if observer is not None:
                key, measure = observer
                counts[key] = counts.get(key, 0) + measure(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function in each wellcond module that binds it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "wellcond" or n.startswith("wellcond.")
        ]
        for layer, names in TRACED.items():
            home = sys.modules[f"wellcond.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapper)
