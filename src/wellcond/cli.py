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

Every subcommand runs one worker per M through ``_run``: the worker
returns its M's rendered files and console lines, and ``_run`` writes
and prints them as soon as that M finishes, in M order, so a run that
fails at a later M keeps the earlier M's files and sweep's per-M stderr
lines arrive as progress.  Files that span every M (``cond.csv``,
``sweep.*``, ``sum_checks.*``) are written after the last M.

The reports decide their own results (ConditionReport.passed,
VerificationReport.passed and .gated) and format their own values
(to_json_dict, which generate's CSV rows are also read from); this
module renders and aggregates them, and adds one check of its own: with
--route both the two routes' mu_max, for any phases, agree to
condition.route_tolerance, relative N*2^-(precision-8).  With --certify
the coefficient report is read off the certified one
(condition.coefficient_report), so cond evaluates mu at the roots once.

Outputs are deterministic for a fixed configuration and seed; each file
is written atomically; the process exits 0 only if every gated check
passed.  The environment variable
``WELLCOND_WORKERS`` sets the number of processes used across M values.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import mpmath as mp

from . import __version__
from .condition import (
    BOUNDS,
    certify_bound,
    coefficient_report,
    mu_max_coefficient_route,
    mu_max_spherical_route,
    route_tolerance,
)
from .energy import log_energy, verification_suite
from .numerics import MIN_PREC_BITS, fmt_real
from .points import build_point_set, round_phase
from .polynomials import expand, family_polynomial
from .sums import sum_check_suite


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


def _load_phases(
    path: str | None, m_values: list[int], prec_bits: int
) -> dict[int, list[str] | None]:
    """{M: its phase angles as strings, which build_point_set rounds, or
    None} for each M of m_values; every angle must pass
    points.round_phase at prec_bits.

    The file holds either an object {"<M>": [2M-1 angles], ...} with
    every key a distinct M >= 1 and every value an array, or a bare
    array applying to whichever M has a matching parallel count.  A file
    that gives no M of m_values its angles is refused.
    """
    if path is None:
        return dict.fromkeys(m_values)
    try:
        with open(path) as fh:
            data = json.load(fh, object_pairs_hook=tuple)  # an object as its (key, value) pairs
        if isinstance(data, list):
            table = {M: data for M in m_values if len(data) == 2 * M - 1}
        elif isinstance(data, tuple):
            table, keys = {}, {}
            for k, vals in data:
                M = int(k)
                if M < 1:
                    raise ValueError(f"key {k!r} is not an M >= 1")
                if M in keys:
                    raise ValueError(f"keys {keys[M]!r} and {k!r} both name M={M}")
                if not isinstance(vals, list):
                    raise ValueError(f"the value of key {k!r} is not a JSON array")
                table[M], keys[M] = vals, k
        else:
            raise ValueError("expected a JSON array or object of phase lists")
        table = {M: [str(v) for v in vals] for M, vals in table.items()}
        for vals in table.values():
            for v in vals:
                round_phase(v, prec_bits)  # a bad angle fails here, before any work
    except (OSError, TypeError, ValueError) as e:
        raise InputError(f"{path}: {e}") from None
    phases = {M: table.get(M) for M in m_values}
    for M, raw in phases.items():
        if raw is not None and len(raw) != 2 * M - 1:
            raise InputError(f"phases for M={M} must list {2 * M - 1} angles, got {len(raw)}")
    if all(raw is None for raw in phases.values()):
        raise InputError(f"{path}: no phases for any requested M")
    return phases


def _prepare(args):
    """Validate every input, then create --out.

    Returns (output directory, {M: phases or None}, worker count).
    Input rejected here exits 2 and leaves no directory behind.
    """
    phases = _load_phases(getattr(args, "phases", None), args.M, args.precision)
    workers = _worker_count(len(args.M))
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"--out {args.out}: {e}") from None
    return outdir, phases, workers


def _short(s: str) -> str:
    """Console-friendly 8-significant-digit view of a report number, a
    fmt_real string ("inf" and "nan" included)."""
    return mp.nstr(mp.mpf(s), 8)

# ----------------------------------------------------------------------
# Output plumbing
# ----------------------------------------------------------------------


def _write_atomic(path: Path, text: str) -> None:
    """Write text to path through a temporary file beside it, which a
    failed write removes."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as e:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise SystemExit(f"error: cannot write {path}: {e}") from e


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2) + "\n", byte for byte, for the values a
    report holds: exact dicts with str keys, lists, str, int, bool and
    None; any other type raises TypeError.  Each container joins its
    children's texts, so no list of every token is held, and encodes its
    str keys and values in place, with no call per string."""
    return _json_value(obj, "\n") + "\n"


_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_value(obj, newline: str) -> str:
    """obj as json.dumps(indent=2) prints it at the indentation that
    `newline` (a newline and the enclosing indentation) ends with."""
    kind = type(obj)
    if kind is not dict and kind is not list:  # the common containers skip the scalar tests
        if kind is str:
            return encode_basestring_ascii(obj)
        if kind is int:
            return int.__repr__(obj)
        if kind is bool or obj is None:
            return _JSON_CONSTANTS[obj]
        raise TypeError(f"a report holds no {kind.__name__}")
    if not obj:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    # the children's texts are a temporary of join, freed before the
    # brackets are added, so a large container is not held twice over;
    # encode_basestring_ascii raises TypeError on a key that is no str
    if kind is dict:
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k)
            + ": "
            + (encode_basestring_ascii(v) if type(v) is str else _json_value(v, inner))
            for k, v in obj.items()
        ]) + newline + "}"
    return "[" + inner + ("," + inner).join([
        encode_basestring_ascii(v) if type(v) is str else _json_value(v, inner) for v in obj
    ]) + newline + "]"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _csv_row(header: list[str], record: dict) -> list[str]:
    """The CSV row of a report's JSON dict: each header key's value as
    str, "" where the record has none, a params dict as its sorted
    key=value pairs joined by ";"."""
    row = []
    for key in header:
        value = record.get(key, "")
        if isinstance(value, dict):
            value = ";".join(f"{k}={v}" for k, v in sorted(value.items()))
        row.append(str(value))
    return row


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


def _map_over_m(fn, m_values: list[int], workers: int):
    """Yield fn(M) for each M in order, across `workers` processes if
    more than one, so worker count never changes output."""
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import; one worker never needs it

        with ProcessPoolExecutor(max_workers=workers) as ex:
            yield from ex.map(fn, m_values)
    else:
        yield from map(fn, m_values)


class Done(NamedTuple):
    """What one M's worker hands back: its files as (name, text) pairs,
    its stdout and stderr lines, whether its gated checks passed, and
    its rows of the file that spans every M."""

    files: Sequence[tuple[str, str]]
    out: Sequence[str]
    err: Sequence[str] = ()
    ok: bool = True
    rows: Sequence = ()


def _run(args, command: str, worker) -> tuple[Path, dict, bool, list]:
    """Validate the input, then run worker(args, config, phases, M) for
    each M, writing each M's files and printing its lines as it arrives.

    Returns (output directory, config block, whether every M passed,
    every M's rows in M order).
    """
    outdir, phases, workers = _prepare(args)
    config = _config_block(args, command)
    fn = functools.partial(worker, args, config, phases)
    all_ok, rows = True, []
    for done in _map_over_m(fn, args.M, workers):
        for name, text in done.files:
            _write_atomic(outdir / name, text)
        for line in done.out:
            print(line)
        for line in done.err:
            print(line, file=sys.stderr)
        all_ok &= done.ok
        rows += done.rows
    return outdir, config, all_ok, rows


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------


def _generate_one(args, config: dict, phases: dict, M: int) -> Done:
    ps = build_point_set(M, phases=phases[M], prec_bits=args.precision)
    with mp.workprec(args.precision):
        fac = family_polynomial(ps)
        points, factorized = ps.to_json_dict(), fac.to_json_dict()
        dense = expand(fac).to_json_dict()
    if args.format == "json":
        polynomial = {"config": config, "factorized": factorized, "dense": dense}
        files = [
            (f"points_M{M}.json", _json_text({"config": config, "points": points})),
            (f"polynomial_M{M}.json", _json_text(polynomial)),
        ]
    else:
        ids = [[str(par["j"]), str(k)] for par in points["parallels"] for k in range(par["r"])]
        point_rows = [jk + xyz for jk, xyz in zip(ids, points["points"], strict=True)]
        factor_rows = [[str(f["r"]), f["s"]] for f in factorized["factors"]]
        dense_rows = [[str(i), c] for i, c in enumerate(dense["coeffs"])]
        files = [
            (f"points_M{M}.csv", _csv_text(["parallel", "k", "x", "y", "z"], point_rows)),
            (f"factors_M{M}.csv", _csv_text(["r", "s"], factor_rows)),
            (f"dense_M{M}.csv", _csv_text(["i", "coeff"], dense_rows)),
        ]
    return Done(files, [f"M={M}: wrote point set and polynomial to {Path(args.out)}"])


def cmd_generate(args) -> int:
    _run(args, "generate", _generate_one)
    return 0


# ----------------------------------------------------------------------
# cond
# ----------------------------------------------------------------------


COND_HEADER = [
    "M",
    "N",
    "route",
    "precision_bits",
    "mu_max",
    "log_mu_max",
    "argmax_root",
    "mu_max_lo",
    "mu_max_hi",
    *BOUNDS,
    "certified",
    "route_rel_diff",
]


def _cond_one(args, config: dict, phases: dict, M: int) -> Done:
    prec, route = args.precision, args.route
    reports = []
    rel_diff = None
    with mp.workprec(prec):
        # --certify implies zero phases; the coefficient route then reads
        # the certificate's enclosures, so mu is evaluated once
        certified = certify_bound(M, prec) if args.certify else None
        if route in ("coeff", "both"):
            if certified is not None:
                reports.append(coefficient_report(certified))
            else:
                reports.append(mu_max_coefficient_route(M, prec, phases=phases[M]))
        if route in ("sphere", "both"):
            reports.append(mu_max_spherical_route(M, prec, phases=phases[M]))
        if route == "both":
            a, b = reports[0].mu_max, reports[1].mu_max
            rel_diff = abs(a - b) / b
        if certified is not None:
            reports.append(certified)
        dicts = [rep.to_json_dict() for rep in reports]
        if rel_diff is not None:
            for d in dicts:
                d["route_rel_diff"] = fmt_real(rel_diff)
    N = reports[0].N
    agree = rel_diff is None or rel_diff <= route_tolerance(N, prec)
    ok = agree and all(rep.passed for rep in reports)
    out = [f"M={M} N={dicts[0]['N']}: mu_max={_short(dicts[0]['mu_max'])} verdicts_ok={ok}"]
    if not agree:
        out.append(
            f"M={M}: routes disagree: route_rel_diff={mp.nstr(rel_diff, 8)} "
            f"> {N}*2^{8 - prec}"
        )
    if args.format == "json":
        return Done([(f"cond_M{M}.json", _json_text({"config": config, "reports": dicts}))], out, ok=ok)
    rows = [_csv_row(COND_HEADER, {**d, **d["verdicts"]}) for d in dicts]
    return Done([], out, ok=ok, rows=rows)


def cmd_cond(args) -> int:
    if args.phases and args.certify:
        # the phased shifts are rounded: an enclosure of ||f||^2 would hold the
        # norm of the rounded factors, not of the polynomial whose roots are the points
        raise InputError("--phases applies only without --certify")
    outdir, _, all_ok, rows = _run(args, "cond", _cond_one)
    if args.format == "csv":
        _write_atomic(outdir / "cond.csv", _csv_text(COND_HEADER, rows))
    return 0 if all_ok else 1


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


VERIFY_HEADER = ["M", "lemma", "cells", "worst_margin", "tolerance", "gated", "pass"]
SUMS_HEADER = ["id", "params", "value", "bound", "margin", "pass"]


def _verify_one(args, config: dict, phases: dict, M: int) -> Done:
    suite = verification_suite(M, args.precision, args.seed, args.informational)
    rows = [
        {"M": r.M, "lemma": r.lemma, "cells": len(r.cells), **r.printed_margins(),
         "gated": r.gated, "pass": r.passed}
        for r in suite.reports
    ]
    if args.format == "json":
        reports = [r.to_json_dict() for r in suite.reports]
        doc = {"config": config, "reports": reports, "refused": suite.refused}
        files = [(f"verify_M{M}.json", _json_text(doc))]
    else:
        csv_rows = [_csv_row(VERIFY_HEADER, row) for row in rows]
        files = [(f"verify_M{M}.csv", _csv_text(VERIFY_HEADER, csv_rows))]
    out = [
        f"M={M} {row['lemma']}: worst_margin={_short(row['worst_margin'])} "
        f"pass={row['pass']}" + ("" if row["cells"] else " (no cells checked)")
        for row in rows
    ]
    out += [f"M={M} {r['lemma']}: refused ({r['reason']})" for r in suite.refused]
    return Done(files, out, ok=suite.passed)


def cmd_verify(args) -> int:
    outdir, config, all_ok, _ = _run(args, "verify", _verify_one)
    checks = sum_check_suite(args.sums_max, args.precision)
    sums_ok = all(c.passed for c in checks)
    dicts = [c.to_json_dict() for c in checks]
    if args.format == "json":
        doc = {"config": config, "checks": dicts, "pass": sums_ok}
        _write_atomic(outdir / "sum_checks.json", _json_text(doc))
    else:
        rows = [_csv_row(SUMS_HEADER, d) for d in dicts]
        _write_atomic(outdir / "sum_checks.csv", _csv_text(SUMS_HEADER, rows))
    print(f"sum checks: {len(checks)} checks, pass={sums_ok}")
    return 0 if all_ok and sums_ok else 1


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


SWEEP_HEADER = ["M", "N", "mu_max", "mu_ratio_sqrt_np1", "energy_residual"]


def _sweep_one(args, config: dict, phases: dict, M: int) -> Done:
    prec = args.precision
    t0 = time.perf_counter()
    if args.route == "sphere":
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
    progress = (
        f"M={M} N={rep.N} mu_max={_short(row['mu_max'])} "
        f"({cond_dt:.3f}s cond, {energy_dt:.3f}s energy)"
    )
    return Done([], [], [progress], rep.passed, [row])


def cmd_sweep(args) -> int:
    outdir, config, all_ok, rows = _run(args, "sweep", _sweep_one)
    if args.format == "json":
        _write_atomic(outdir / "sweep.json", _json_text({"config": config, "rows": rows}))
    else:
        csv_rows = [_csv_row(SWEEP_HEADER, r) for r in rows]
        _write_atomic(outdir / "sweep.csv", _csv_text(SWEEP_HEADER, csv_rows))
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
