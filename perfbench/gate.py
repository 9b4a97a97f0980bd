"""Correctness gate: pull the checked values out of a run's outputs.

``extract`` turns one CLI run (its exit code and ``--out`` directory)
into a flat map of named values; ``compare`` checks that map against
the references recorded from a known-good commit.  Floats are stored as
``{"float": "<decimal>"}`` and compared at a relative tolerance of
2^-(prec-16); everything else (rationals, verdicts, counts) must match
exactly.  Report prose (``grid`` strings) and the sweep's runtime
columns are never read.

The probe heights of ``verify`` depend on ``--seed``, and with them the
split of cells between the two band-average windows and the number of
numerator queries skipped for hitting a family point.  So the cells of
those two windows are counted together, and skipped queries are counted
with the cells; the totals, and every other value here, are the same
for every seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

# The exact dense coefficients run to thousands of digits.
sys.set_int_max_str_digits(0)

SUITE_GROUPS = {
    "band_average_outside_window": "band_average_windows",
    "band_average_inside_window": "band_average_windows",
}


def _tolerance(prec_bits: int) -> Fraction:
    return Fraction(1, 2 ** (prec_bits - 16))


def _float(text: str) -> dict:
    return {"float": text}


def _m_of(path: Path) -> int:
    return int(path.stem.rsplit("_M", 1)[1])


def _by_m(outdir: Path, pattern: str) -> list[tuple[int, Path]]:
    return sorted((_m_of(p), p) for p in outdir.glob(pattern))


def _exact_digest(values) -> str:
    """SHA-256 of rationals in lowest terms, so equal values hash equal."""
    h = hashlib.sha256()
    for v in values:
        q = Fraction(v)
        h.update(f"{q.numerator}/{q.denominator};".encode())
    return h.hexdigest()


def _cond(outdir: Path, vals: dict, prec_bits: int) -> None:
    for M, path in _by_m(outdir, "cond_M*.json"):
        reports = {r["route"]: r for r in json.loads(path.read_text())["reports"]}
        coeff = reports["coefficient"]
        cert = reports["coefficient-certified"]
        vals[f"M{M}.N"] = coeff["N"]
        vals[f"M{M}.coefficient.mu_max"] = _float(coeff["mu_max"])
        for route, rep in (("coefficient", coeff), ("certified", cert)):
            for bound, verdict in rep["verdicts"].items():
                vals[f"M{M}.{route}.verdicts.{bound}"] = verdict
            vals[f"M{M}.{route}.certified"] = rep["certified"]
        # The float route is not rigorous, so it may sit a few ulps
        # outside the certified enclosure, but no further than the tolerance.
        mu, slack = Fraction(coeff["mu_max"]), 1 + _tolerance(prec_bits)
        vals[f"M{M}.certified.encloses_mu_max"] = (
            Fraction(cert["mu_max_lo"]) / slack <= mu <= Fraction(cert["mu_max_hi"]) * slack
        )


def _sweep(outdir: Path, vals: dict, prec_bits: int) -> None:
    with open(outdir / "sweep.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            M = row["M"]
            vals[f"M{M}.N"] = int(row["N"])
            vals[f"M{M}.mu_max"] = _float(row["mu_max"])
            vals[f"M{M}.energy_residual"] = _float(row["energy_residual"])


def _verify(outdir: Path, vals: dict, prec_bits: int) -> None:
    for M, path in _by_m(outdir, "verify_M*.json"):
        data = json.loads(path.read_text())
        vals[f"M{M}.refused"] = [r["lemma"] for r in data["refused"]]
        vals[f"M{M}.suites"] = [r["lemma"] for r in data["reports"]]
        for rep in data["reports"]:
            lemma = rep["lemma"]
            vals[f"M{M}.{lemma}.pass"] = rep["pass"]
            key = f"M{M}.{SUITE_GROUPS.get(lemma, lemma)}.cells"
            vals[key] = vals.get(key, 0) + len(rep["cells"]) + len(rep["notes"])
    sums = json.loads((outdir / "sum_checks.json").read_text())
    by_id: dict[str, int] = {}
    for check in sums["checks"]:
        by_id[check["id"]] = by_id.get(check["id"], 0) + 1
    vals["sum_checks.count"] = len(sums["checks"])
    vals["sum_checks.by_id"] = by_id
    vals["sum_checks.pass"] = sums["pass"]


def _generate(outdir: Path, vals: dict, prec_bits: int) -> None:
    for M, path in _by_m(outdir, "points_M*.json"):
        points = json.loads(path.read_text())["points"]
        vals[f"M{M}.points"] = len(points["points"])
    for M, path in _by_m(outdir, "polynomial_M*.json"):
        data = json.loads(path.read_text())
        vals[f"M{M}.N"] = data["dense"]["N"]
        vals[f"M{M}.factors.r"] = [f["r"] for f in data["factorized"]["factors"]]
        vals[f"M{M}.factors.s"] = _exact_digest(f["s"] for f in data["factorized"]["factors"])
        vals[f"M{M}.dense"] = _exact_digest(data["dense"]["coeffs"])


EXTRACTORS = {
    "cond": _cond,
    "sweep": _sweep,
    "verify": _verify,
    "generate": _generate,
}


def extract(subcommand: str, rc: int, outdir: Path, prec_bits: int) -> dict:
    """Checked values of one run; raises if an expected output is unreadable."""
    vals = {
        "exit_code": rc,
        "files": sorted(p.name for p in outdir.iterdir()) if outdir.is_dir() else [],
    }
    EXTRACTORS[subcommand](outdir, vals, prec_bits)
    return vals


def _matches(got, want, prec_bits: int) -> bool:
    if isinstance(want, dict) and set(want) == {"float"}:
        if not (isinstance(got, dict) and set(got) == {"float"}):
            return False
        try:
            a, b = Fraction(got["float"]), Fraction(want["float"])
        except ValueError:  # inf or nan never matches
            return False
        return abs(a - b) <= abs(b) * _tolerance(prec_bits)
    return got == want


def compare(got: dict, refs: dict, prec_bits: int) -> list[str]:
    """Names of failed checks; one check per reference value plus any
    value the run produced that has no reference."""
    failed = [k for k, want in refs.items() if k not in got or not _matches(got[k], want, prec_bits)]
    failed += [k for k in got if k not in refs]
    return failed
