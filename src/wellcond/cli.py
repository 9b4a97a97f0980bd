"""Command-line interface: generate, cond, verify, and sweep.

Subcommands
-----------
* ``generate`` — write the point sets and polynomials for each M.
* ``cond``     — compute mu_max by the chosen route(s), optionally with
  certified (rigorously rounded) bound verdicts.
* ``verify``   — run every inequality suite plus the sum checks; a
  suite whose hypothesis M does not meet is refused, or with
  --informational run ungated.
* ``sweep``    — one row per M with mu_max, its normalized ratio and the
  energy residual; plot-ready CSV, runtimes on stderr only.

Outputs are deterministic for a fixed configuration and seed; files are
written atomically; the process exits 0 only if every gated check
passed.  The environment variable
``WELLCOND_WORKERS`` sets the number of processes used across M values.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import mpmath as mp

from . import __version__
from .condition import (
    BOUNDS,
    certify_bound,
    mu_max_coefficient_route,
    mu_max_spherical_route,
)
from .energy import log_energy, verification_suite
from .numerics import MIN_PREC_BITS, fmt_real
from .points import build_point_set
from .polynomials import coeff_str, coeff_strs, expand, family_polynomial
from .sums import CSV_HEADER as SUMS_CSV_HEADER
from .sums import sum_check_suite

ROUTE_TOLERANCE = 1e-6  # largest relative mu_max gap between routes that passes

SWEEP_HEADER = ["M", "N", "mu_max", "mu_ratio_sqrt_np1", "energy_residual"]


# ----------------------------------------------------------------------
# Argument handling
# ----------------------------------------------------------------------


class InputError(Exception):
    """Malformed user input; main() reports it on one line and exits 2."""


def _parse_m_range(text: str) -> list[int]:
    """'5' -> [5]; '2..6' -> [2, 3, 4, 5, 6]; an empty range like '6..2'
    is malformed, as is any M below 1."""
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            lo, hi = int(a), int(b)
            values = list(range(lo, hi + 1))
        else:
            values = [int(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or a..b range, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty M range {text!r}: need a <= b")
    if any(m < 1 for m in values):
        raise argparse.ArgumentTypeError("M values must be >= 1")
    return values


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_precision(text: str) -> int:
    bits = int(text)
    if bits < MIN_PREC_BITS:
        raise argparse.ArgumentTypeError(
            f"precision must be >= {MIN_PREC_BITS} bits, got {bits}"
        )
    return bits


def _worker_count(n_items: int) -> int:
    raw = os.environ.get("WELLCOND_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise InputError(f"WELLCOND_WORKERS must be an integer, got {raw!r}")
    return max(1, min(n, n_items))


def _load_phases_file(path: str | None) -> dict[int, list[str]] | None:
    """Phase overrides keyed by M; values are radian angles as strings.

    The file holds either an object {"<M>": [2M-1 angles], ...} with
    every key an M >= 1, or a bare array applying to whichever M has a
    matching parallel count; the table keeps a bare array under -1.
    """
    if path is None:
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
        if isinstance(data, list):
            data = {-1: data}
        elif isinstance(data, dict):
            for k in data:
                if int(k) < 1:
                    raise ValueError(f"key {k!r} is not an M >= 1")
        else:
            raise ValueError("expected a JSON array or object of phase lists")
        table = {int(k): [str(v) for v in vals] for k, vals in data.items()}
        for vals in table.values():
            for v in vals:
                # a non-numeric or non-finite angle fails here, before any work
                if not mp.isfinite(mp.mpf(v)):
                    raise ValueError(f"angle {v!r} is not finite")
    except (OSError, TypeError, ValueError) as e:
        raise InputError(f"{path}: {e}") from None
    return table


def _phases_for(overrides: dict[int, list[str]] | None, M: int) -> list[str] | None:
    """The angle strings for M, which build_point_set rounds."""
    if overrides is None:
        return None
    want = 2 * M - 1
    raw = overrides.get(M)
    if raw is None and -1 in overrides and len(overrides[-1]) == want:
        raw = overrides[-1]
    if raw is None:
        return None
    if len(raw) != want:
        raise InputError(f"phases for M={M} must list {want} angles, got {len(raw)}")
    return raw


def _prepare(args):
    """Validate every input, then create --out.

    Returns (output directory, {M: phases or None}, worker count).
    Input rejected here exits 2 and leaves no directory behind.
    """
    table = _load_phases_file(getattr(args, "phases", None))
    workers = _worker_count(len(args.M))
    phases = {M: _phases_for(table, M) for M in args.M}
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"--out {args.out}: {e}") from None
    return outdir, phases, workers


def _short(s: str) -> str:
    """Console-friendly 8-significant-digit view of a report number."""
    try:
        return mp.nstr(mp.mpf(s), 8)
    except ValueError:
        return s

# ----------------------------------------------------------------------
# Output plumbing
# ----------------------------------------------------------------------


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as e:
        raise SystemExit(f"error: cannot write {path}: {e}") from e


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _config_block(args, command: str) -> dict:
    block = {
        "command": command,
        "M": args.M_text,
        "precision_bits": args.precision,
        "seed": getattr(args, "seed", 0),
        "format": args.format,
        "package_version": __version__,
    }
    if hasattr(args, "route"):
        block["route"] = args.route
    if hasattr(args, "certify"):
        block["certify"] = args.certify
    if hasattr(args, "informational"):
        block["informational"] = args.informational
    if getattr(args, "phases", None):
        block["phases_file"] = os.path.basename(args.phases)
    return block


def _map_over_m(fn, m_values: list[int], workers: int) -> list:
    """Apply fn to each M, across `workers` processes if more than one.

    Results are merged in M order, so worker count never changes output.
    """
    if workers > 1 and len(m_values) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, m_values))
    return [fn(m) for m in m_values]


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------


def _generate_one(prec: int, phases: dict, fmt: str, M: int) -> dict:
    ps = build_point_set(M, phases=phases[M], prec_bits=prec)
    with mp.workprec(prec):
        fac, _ = family_polynomial(ps)
        dense = expand(fac)
        if fmt == "json":
            return {
                "M": M,
                "points": ps.to_json_dict(),
                "factorized": fac.to_json_dict(),
                "dense": dense.to_json_dict(),
            }
        point_rows = [
            [str(j), str(k), fmt_real(p.x), fmt_real(p.y), fmt_real(p.z)]
            for j, k, p in ps.coordinates()
        ]
        factor_rows = [[str(f.power), coeff_str(f.shift)] for f in fac.factors]
        dense_rows = [[str(i), c] for i, c in enumerate(coeff_strs(dense.coeffs))]
    return {
        "M": M,
        "point_rows": point_rows,
        "factor_rows": factor_rows,
        "dense_rows": dense_rows,
    }


def cmd_generate(args) -> int:
    outdir, phases, workers = _prepare(args)
    config = _config_block(args, "generate")
    worker = functools.partial(_generate_one, args.precision, phases, args.format)
    for payload in _map_over_m(worker, args.M, workers):
        M = payload["M"]
        if args.format == "json":
            _write_atomic(
                outdir / f"points_M{M}.json",
                _json_text({"config": config, "points": payload["points"]}),
            )
            _write_atomic(
                outdir / f"polynomial_M{M}.json",
                _json_text(
                    {
                        "config": config,
                        "factorized": payload["factorized"],
                        "dense": payload["dense"],
                    }
                ),
            )
        else:
            _write_atomic(
                outdir / f"points_M{M}.csv",
                _csv_text(["parallel", "k", "x", "y", "z"], payload["point_rows"]),
            )
            _write_atomic(
                outdir / f"factors_M{M}.csv",
                _csv_text(["r", "s"], payload["factor_rows"]),
            )
            _write_atomic(
                outdir / f"dense_M{M}.csv",
                _csv_text(["i", "coeff"], payload["dense_rows"]),
            )
        print(f"M={M}: wrote point set and polynomial to {outdir}")
    return 0


# ----------------------------------------------------------------------
# cond
# ----------------------------------------------------------------------


def _cond_one(prec: int, route: str, certify: bool, phases: dict, M: int) -> dict:
    reports = []
    problems = []
    rel_diff = None
    with mp.workprec(prec):
        if route in ("coeff", "both"):
            reports.append(mu_max_coefficient_route(M, prec))
        if route in ("sphere", "both"):
            reports.append(mu_max_spherical_route(M, prec, phases=phases[M]))
        if route == "both":
            a, b = reports[0].mu_max, reports[1].mu_max
            rel_diff = abs(a - b) / b
            if rel_diff > ROUTE_TOLERANCE:
                problems.append(
                    f"routes disagree: route_rel_diff={mp.nstr(rel_diff, 8)} "
                    f"> {ROUTE_TOLERANCE}"
                )
        if certify:
            reports.append(certify_bound(M, prec))
        payload_reports = []
        for rep in reports:
            d = rep.to_json_dict()
            if rel_diff is not None:
                d["route_rel_diff"] = fmt_real(rel_diff)
            payload_reports.append(d)
    gated_ok = not problems and all(
        v is True for rep in reports for v in rep.verdicts.values()
    )
    return {
        "M": M,
        "reports": payload_reports,
        "problems": problems,
        "gated_ok": gated_ok,
    }


def _cond_csv_rows(payload: dict) -> list[list[str]]:
    rows = []
    for d in payload["reports"]:
        rows.append(
            [
                str(d["M"]),
                str(d["N"]),
                d["route"],
                str(d["precision_bits"]),
                d["mu_max"],
                d["log_mu_max"],
                *(str(d["verdicts"][key]) for key in BOUNDS),
                str(d["certified"]),
                d.get("route_rel_diff", ""),
            ]
        )
    return rows


COND_HEADER = [
    "M",
    "N",
    "route",
    "precision_bits",
    "mu_max",
    "log_mu_max",
    *BOUNDS,
    "certified",
    "route_rel_diff",
]


def cmd_cond(args) -> int:
    if args.phases and (args.route != "sphere" or args.certify):
        raise InputError("--phases applies only to --route sphere without --certify")
    outdir, phases, workers = _prepare(args)
    config = _config_block(args, "cond")
    worker = functools.partial(
        _cond_one, args.precision, args.route, args.certify, phases
    )
    payloads = _map_over_m(worker, args.M, workers)
    all_ok = True
    csv_rows = []
    for payload in payloads:
        M = payload["M"]
        all_ok &= payload["gated_ok"]
        if args.format == "json":
            _write_atomic(
                outdir / f"cond_M{M}.json",
                _json_text({"config": config, "reports": payload["reports"]}),
            )
        else:
            csv_rows.extend(_cond_csv_rows(payload))
        head = payload["reports"][0]
        print(
            f"M={M} N={head['N']}: mu_max={_short(head['mu_max'])} "
            f"verdicts_ok={payload['gated_ok']}"
        )
        for problem in payload["problems"]:
            print(f"M={M}: {problem}")
    if args.format == "csv":
        _write_atomic(outdir / "cond.csv", _csv_text(COND_HEADER, csv_rows))
    return 0 if all_ok else 1


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _verify_one(prec: int, seed: int, informational: bool, M: int) -> dict:
    suite = verification_suite(M, prec, seed, informational)
    return {
        "M": M,
        "reports": [r.to_json_dict() for r in suite.reports],
        "refused": suite.refused,
        "gating": suite.gated,
        "gated_ok": suite.passed,
    }


VERIFY_HEADER = ["M", "lemma", "cells", "worst_margin", "tolerance", "gated", "pass"]


def cmd_verify(args) -> int:
    outdir, _, workers = _prepare(args)
    config = _config_block(args, "verify")
    worker = functools.partial(
        _verify_one, args.precision, args.seed, args.informational
    )
    payloads = _map_over_m(worker, args.M, workers)
    all_ok = True
    for payload in payloads:
        M = payload["M"]
        all_ok &= payload["gated_ok"]
        if args.format == "json":
            _write_atomic(
                outdir / f"verify_M{M}.json",
                _json_text(
                    {
                        "config": config,
                        "reports": payload["reports"],
                        "refused": payload["refused"],
                    }
                ),
            )
        else:
            rows = [
                [
                    str(d["M"]),
                    d["lemma"],
                    str(len(d["cells"])),
                    d["worst_margin"],
                    d["tolerance"],
                    str(payload["gating"][d["lemma"]]),
                    str(d["pass"]),
                ]
                for d in payload["reports"]
            ]
            _write_atomic(
                outdir / f"verify_M{M}.csv", _csv_text(VERIFY_HEADER, rows)
            )
        for d in payload["reports"]:
            print(
                f"M={M} {d['lemma']}: worst_margin={_short(d['worst_margin'])} "
                f"pass={d['pass']}" + ("" if d["cells"] else " (no cells checked)")
            )
        for r in payload["refused"]:
            print(f"M={M} {r['lemma']}: refused ({r['reason']})")
    checks = sum_check_suite(args.sums_max, args.precision)
    sums_ok = all(c.passed for c in checks)
    all_ok &= sums_ok
    if args.format == "json":
        _write_atomic(
            outdir / "sum_checks.json",
            _json_text(
                {
                    "config": config,
                    "checks": [c.to_json_dict() for c in checks],
                    "pass": sums_ok,
                }
            ),
        )
    else:
        _write_atomic(
            outdir / "sum_checks.csv",
            _csv_text(SUMS_CSV_HEADER, [c.csv_row() for c in checks]),
        )
    print(f"sum checks: {len(checks)} checks, pass={sums_ok}")
    return 0 if all_ok else 1


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def _sweep_one(prec: int, route: str, M: int) -> dict:
    t0 = time.perf_counter()
    if route == "sphere":
        rep = mu_max_spherical_route(M, prec)
    else:
        rep = mu_max_coefficient_route(M, prec)
    cond_dt = time.perf_counter() - t0
    t0 = time.perf_counter()
    erep = log_energy(build_point_set(M, prec_bits=prec))
    energy_dt = time.perf_counter() - t0
    with mp.workprec(prec):
        ratio = rep.mu_max / mp.sqrt(mp.mpf(rep.N + 1))
        row = {
            "M": M,
            "N": rep.N,
            "mu_max": fmt_real(rep.mu_max),
            "mu_ratio_sqrt_np1": fmt_real(ratio),
            "energy_residual": fmt_real(erep.residual),
        }
    gated_ok = all(v is True for v in rep.verdicts.values())
    return {"M": M, "row": row, "seconds": (cond_dt, energy_dt), "gated_ok": gated_ok}


def cmd_sweep(args) -> int:
    outdir, _, workers = _prepare(args)
    config = _config_block(args, "sweep")
    worker = functools.partial(_sweep_one, args.precision, args.route)
    payloads = _map_over_m(worker, args.M, workers)
    all_ok = True
    rows = []
    for payload in payloads:
        all_ok &= payload["gated_ok"]
        r = payload["row"]
        rows.append([str(r[k]) for k in SWEEP_HEADER])
        print(
            f"M={r['M']} N={r['N']} mu_max={_short(r['mu_max'])} "
            "({:.3f}s cond, {:.3f}s energy)".format(*payload["seconds"]),
            file=sys.stderr,
        )
    if args.format == "json":
        _write_atomic(
            outdir / "sweep.json",
            _json_text({"config": config, "rows": [p["row"] for p in payloads]}),
        )
    else:
        _write_atomic(outdir / "sweep.csv", _csv_text(SWEEP_HEADER, rows))
    print(f"sweep: {len(rows)} rows, bounds_ok={all_ok}")
    return 0 if all_ok else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _add_common(sub, default_format: str) -> None:
    sub.add_argument(
        "--M",
        required=True,
        dest="M_text",
        help="single value or inclusive range a..b",
    )
    sub.add_argument(
        "--precision",
        type=_parse_precision,
        default=256,
        help="working precision in bits (default 256)",
    )
    sub.add_argument(
        "--format", choices=("json", "csv"), default=default_format
    )
    sub.add_argument("--out", default=".", help="output directory (default .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellcond",
        description=(
            "Explicit well-conditioned polynomials on N = 4M^2 spherical "
            "points: generation, condition numbers, bound verification."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("generate", help="write point sets and polynomials")
    _add_common(g, "json")
    g.add_argument("--phases", help="JSON file of phase overrides (radians)")
    g.set_defaults(fn=cmd_generate)

    c = subs.add_parser("cond", help="compute mu_max and bound verdicts")
    _add_common(c, "json")
    c.add_argument("--route", choices=("coeff", "sphere", "both"), default="coeff")
    c.add_argument(
        "--certify",
        action="store_true",
        help="add rigorously rounded bound verdicts",
    )
    c.add_argument("--phases", help="JSON file of phase overrides (radians)")
    c.set_defaults(fn=cmd_cond)

    v = subs.add_parser("verify", help="run inequality suites and sum checks")
    _add_common(v, "json")
    v.add_argument("--seed", type=int, default=0, help="probe-grid seed")
    v.add_argument(
        "--informational",
        action="store_true",
        help="run the suites whose hypothesis M does not meet, ungated",
    )
    v.add_argument(
        "--sums-max",
        type=_positive_int,
        default=64,
        help="largest M in the sum-check grids (default 64)",
    )
    v.set_defaults(fn=cmd_verify)

    s = subs.add_parser("sweep", help="per-M summary rows (plot-ready)")
    _add_common(s, "csv")
    s.add_argument("--route", choices=("coeff", "sphere"), default="coeff")
    s.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.M = _parse_m_range(args.M_text)
    except argparse.ArgumentTypeError as e:
        parser.error(str(e))
    try:
        return args.fn(args)
    except InputError as e:
        parser.exit(2, f"error: {e}\n")


if __name__ == "__main__":
    sys.exit(main())
