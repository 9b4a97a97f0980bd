"""End-to-end CLI behavior: files, formats, gating, determinism."""

import csv
import dataclasses
import enum
import json
import re
import sys
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from wellcond import cli, condition, energy, points
from wellcond.cli import main
from wellcond.condition import mu_max_coefficient_route, route_tolerance
from wellcond.energy import verify_t_bounds
from wellcond.numerics import to_mpf
from wellcond.points import build_point_set
from wellcond.sums import sum_check_suite


# Rotated families: one phase (radians) per parallel.
PHASED = {"2": ["0.1", "0.7", "-1.2"], "3": ["0.1", "0.7", "-1.2", "0.4", "2.0"]}


def run(argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_generate_table_factors_m2(tmp_path):
    assert run(["generate", "--M", "2", "--out", tmp_path]) == 0
    d = read_json(tmp_path / "polynomial_M2.json")
    facs = {(f["r"], f["s"]) for f in d["factorized"]["factors"]}
    assert facs == {(8, "1/1"), (4, "49/1"), (4, "1/49")}
    assert d["dense"]["N"] == 16
    assert d["config"]["command"] == "generate"


def test_generate_m1_csv_four_point_rows(tmp_path):
    assert run(["generate", "--M", "1", "--format", "csv", "--out", tmp_path]) == 0
    rows = read_rows(tmp_path / "points_M1.csv")
    assert rows[0] == ["parallel", "k", "x", "y", "z"]
    assert len(rows) == 1 + 4


def test_generate_m3_point_count(tmp_path):
    assert run(["generate", "--M", "3", "--out", tmp_path]) == 0
    d = read_json(tmp_path / "points_M3.json")
    assert len(d["points"]["points"]) == 36
    assert len(d["points"]["parallels"]) == 5


def test_cond_m1_sqrt2(tmp_path):
    assert run(["cond", "--M", "1", "--route", "coeff", "--out", tmp_path]) == 0
    rep = read_json(tmp_path / "cond_M1.json")["reports"][0]
    assert rep["mu_max"].startswith("1.41421356")
    assert rep["verdicts"] == {
        "le_N": True,
        "le_19half_sqrt": True,
        "ge_lower": True,
    }


def test_cond_both_routes_agree(tmp_path):
    """At M=64 the routes differ by 0.25 N ulps at 256 bits, 0.06 of an
    N-free bound 2^-(prec - 16); the exit code holds them to
    N 2^-(prec - 8)."""
    for M in (3, 64):
        assert run(["cond", "--M", M, "--route", "both", "--out", tmp_path]) == 0
        reps = read_json(tmp_path / f"cond_M{M}.json")["reports"]
        assert [r["route"] for r in reps] == ["coefficient", "spherical"]
        assert float(reps[0]["route_rel_diff"]) < 1e-6


def test_cond_certify_m4(tmp_path):
    assert run(["cond", "--M", "4", "--certify", "--out", tmp_path]) == 0
    reps = read_json(tmp_path / "cond_M4.json")["reports"]
    cert = [r for r in reps if r["route"] == "coefficient-certified"]
    assert len(cert) == 1
    assert cert[0]["certified"] is True
    assert cert[0]["verdicts"]["le_N"] is True


def test_cond_csv_format(tmp_path):
    assert run(
        ["cond", "--M", "1..2", "--format", "csv", "--out", tmp_path]
    ) == 0
    rows = read_rows(tmp_path / "cond.csv")
    assert rows[0][0] == "M" and len(rows) == 3
    assert rows[1][0] == "1" and rows[2][0] == "2"


def test_cond_csv_names_the_argmax_and_the_enclosure(tmp_path):
    """Every cond.csv row names its maximising root, and the certified row
    carries the enclosure endpoints of the JSON report; the float rows
    leave them empty."""
    argv = ["cond", "--M", "3", "--route", "both", "--certify"]
    assert run([*argv, "--format", "csv", "--out", tmp_path / "csv"]) == 0
    assert run([*argv, "--out", tmp_path / "json"]) == 0
    header, *rows = read_rows(tmp_path / "csv" / "cond.csv")
    assert header == cli.COND_HEADER
    assert header[6:9] == ["argmax_root", "mu_max_lo", "mu_max_hi"]
    reports = read_json(tmp_path / "json" / "cond_M3.json")["reports"]
    assert [row[2] for row in rows] == [r["route"] for r in reports]
    for row, rep in zip(rows, reports, strict=True):
        got = dict(zip(header, row, strict=True))
        assert got["argmax_root"] == rep["argmax_root"] == "p3.k0"
        assert got["mu_max_lo"] == rep.get("mu_max_lo", "")
        assert got["mu_max_hi"] == rep.get("mu_max_hi", "")
    assert rows[2][7] and rows[2][8] and not any(row[7] or row[8] for row in rows[:2])


def test_cond_certify_evaluates_mu_once(tmp_path, monkeypatch):
    """With --certify the coefficient report is read off the certificate:
    mu_max_coefficient_route is not called, log mu is evaluated once per
    mirror pair of parallels, and the routes still agree."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the float coefficient route ran")

    evaluated = []
    log_mu_at_root = condition.log_mu_at_root

    def counted(root, *args, **kwargs):
        evaluated.append(root.index)
        return log_mu_at_root(root, *args, **kwargs)

    monkeypatch.setattr(cli, "mu_max_coefficient_route", forbidden)
    monkeypatch.setattr(condition, "log_mu_at_root", counted)
    argv = ["cond", "--M", "2..3", "--route", "both", "--certify", "--out", tmp_path]
    assert run(argv) == 0
    assert sorted(evaluated) == [1, 1, 2, 2, 3]
    for M in (2, 3):
        coeff, sphere, cert = read_json(tmp_path / f"cond_M{M}.json")["reports"]
        assert (coeff["route"], cert["route"]) == ("coefficient", "coefficient-certified")
        assert [e["root"] for e in coeff["per_root"]] == [e["root"] for e in cert["per_root"]]
        assert mp.mpf(coeff["route_rel_diff"]) <= route_tolerance(4 * M * M, 256)
        assert mp.mpf(cert["mu_max_lo"]) <= mp.mpf(coeff["mu_max"]) <= mp.mpf(cert["mu_max_hi"])


def test_verify_m3_refuses_gated_but_exits_zero(tmp_path):
    assert run(["verify", "--M", "3", "--out", tmp_path]) == 0
    d = read_json(tmp_path / "verify_M3.json")
    run_lemmas = {r["lemma"] for r in d["reports"]}
    assert "band_average_outside_window" in run_lemmas
    assert "parallel_energy_window" not in run_lemmas
    assert len(d["refused"]) == 6
    sums = read_json(tmp_path / "sum_checks.json")
    assert sums["pass"] is True


def test_verify_m3_informational_runs_everything(tmp_path):
    assert run(
        ["verify", "--M", "3", "--informational", "--sums-max", "8", "--out", tmp_path]
    ) == 0
    d = read_json(tmp_path / "verify_M3.json")
    assert len(d["reports"]) == 9
    assert d["refused"] == []
    # below the hypothesis only the three general lemmas are gated
    argv = ["verify", "--M", "3", "--informational", "--format", "csv", "--sums-max", "8"]
    assert run([*argv, "--out", tmp_path]) == 0
    header, *rows = read_rows(tmp_path / "verify_M3.csv")
    gated = {row[1]: row[header.index("gated")] for row in rows}
    assert gated == {
        "band_average_outside_window": "True",
        "band_average_inside_window": "True",
        "band_correction_log_bounds": "True",
        **{r["lemma"]: "False" for r in d["reports"][3:]},
    }


def test_verify_m5_all_pass(tmp_path):
    assert run(["verify", "--M", "5", "--sums-max", "16", "--out", tmp_path]) == 0
    d = read_json(tmp_path / "verify_M5.json")
    assert len(d["reports"]) == 9
    assert all(r["pass"] for r in d["reports"])


def test_verify_csv_formats_no_cell(tmp_path, monkeypatch, capsys):
    """A CSV run reads each report's cell count and printed margins, never
    a cell's strings, and its rows and console lines carry what the JSON
    run prints."""
    argv = ["verify", "--M", "5", "--sums-max", "4"]
    assert run([*argv, "--out", tmp_path]) == 0
    json_out = capsys.readouterr().out
    reports = read_json(tmp_path / "verify_M5.json")["reports"]

    def forbidden(*args, **kwargs):
        raise AssertionError("a CSV run formatted a cell")

    monkeypatch.setattr(energy.Cell, "to_json_dict", forbidden)
    assert run([*argv, "--format", "csv", "--out", tmp_path]) == 0
    assert capsys.readouterr().out == json_out
    header, *rows = read_rows(tmp_path / "verify_M5.csv")
    assert [dict(zip(header, row)) for row in rows] == [
        {"M": "5", "lemma": r["lemma"], "cells": str(len(r["cells"])),
         "worst_margin": r["worst_margin"], "tolerance": r["tolerance"],
         "gated": "True", "pass": str(r["pass"])}
        for r in reports
    ]


def test_verify_seed_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["verify", "--M", "5", "--seed", "7", "--sums-max", "4", "--out", a])
    run(["verify", "--M", "5", "--seed", "7", "--sums-max", "4", "--out", b])
    assert (a / "verify_M5.json").read_bytes() == (b / "verify_M5.json").read_bytes()
    run(["verify", "--M", "5", "--seed", "8", "--sums-max", "4", "--out", b])
    assert (a / "verify_M5.json").read_bytes() != (b / "verify_M5.json").read_bytes()


_RUNTIMES = re.compile(r" \(\d+\.\d+s cond, \d+\.\d+s energy\)")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--M", "1..3"],
        ["cond", "--M", "1..4", "--route", "both", "--certify"],
        ["cond", "--M", "2..3", "--route", "both", "--phases", "../ph.json"],
        ["verify", "--M", "1..3", "--informational", "--sums-max", "4"],
        ["sweep", "--M", "1..4"],
    ],
    ids=["generate", "cond", "cond-phased", "verify", "sweep"],
)
def test_workers_do_not_change_output(tmp_path, capsys, monkeypatch, argv, fmt):
    """Every file, console line and exit code is the same with one worker
    as with three, whose documents cross the process boundary."""
    (tmp_path / "ph.json").write_text(json.dumps(PHASED))
    runs = []
    for workers in ("1", "3"):
        monkeypatch.setenv("WELLCOND_WORKERS", workers)
        (tmp_path / workers).mkdir()
        monkeypatch.chdir(tmp_path / workers)  # generate prints its --out path
        out = Path("out")
        rc = run([*argv, "--format", fmt, "--out", out])
        console = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((rc, console.out, _RUNTIMES.sub("", console.err), files))
    assert runs[0][3]
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "command,name,written",
    [
        ("generate", "build_point_set", ["points_M{}.json", "polynomial_M{}.json"]),
        ("cond", "mu_max_coefficient_route", ["cond_M{}.json"]),
        ("verify", "verification_suite", ["verify_M{}.json"]),
    ],
)
def test_each_m_is_written_before_the_next_m_runs(
    tmp_path, monkeypatch, command, name, written
):
    """M's files are on disk when the worker of M + 1 starts, so a run
    that fails at a later M keeps the earlier M's files."""
    seen = {}
    inner = getattr(cli, name)

    def spy(M, *args, **kwargs):
        seen[M] = {p.name for p in tmp_path.iterdir()}
        if M == 3:
            raise RuntimeError("stop at M=3")
        return inner(M, *args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    with pytest.raises(RuntimeError, match="M=3"):
        run([command, "--M", "1..4", "--out", tmp_path])
    assert list(seen) == [1, 2, 3]
    for M, names in seen.items():
        assert names == {pattern.format(m) for m in range(1, M) for pattern in written}
    assert {p.name for p in tmp_path.iterdir()} == seen[3]


def test_sweep_prints_each_m_before_the_next_m_runs(tmp_path, capsys, monkeypatch):
    progress = {}
    inner = cli.mu_max_coefficient_route

    def spy(M, *args, **kwargs):
        progress[M] = capsys.readouterr().err
        return inner(M, *args, **kwargs)

    monkeypatch.setattr(cli, "mu_max_coefficient_route", spy)
    assert run(["sweep", "--M", "1..3", "--out", tmp_path]) == 0
    assert progress[1] == ""
    assert progress[2].startswith("M=1 N=4 mu_max=1.4142136 (")
    assert progress[3].startswith("M=2 N=16 mu_max=")


def test_sweep_rows_and_bounds(tmp_path, capsys):
    assert run(["sweep", "--M", "1..3", "--out", tmp_path]) == 0
    rows = read_rows(tmp_path / "sweep.csv")
    assert rows[0] == [
        "M",
        "N",
        "mu_max",
        "mu_ratio_sqrt_np1",
        "energy_residual",
    ]
    assert len(rows) == 4
    for row in rows[1:]:
        n = int(row[1])
        assert n == 4 * int(row[0]) ** 2
        assert float(row[2]) <= min(n, 9.5 * (n + 1) ** 0.5)
        assert float(row[2]) >= 0.454 * n**0.5
    err = capsys.readouterr().err
    assert err.count("mu_max=") == 3  # per-M progress on stderr


@pytest.mark.parametrize("command", ["generate", "cond", "verify", "sweep"])
def test_reversed_m_range_exits_2(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--M", "6..2", "--out", tmp_path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "empty M range '6..2'" in err
    assert not list(tmp_path.iterdir())


def test_sweep_runtime_columns_excluded_from_determinism(tmp_path):
    # runtimes go to stderr only, so whole sweep files repeat byte for byte
    a, b = tmp_path / "a", tmp_path / "b"
    for fmt in ("csv", "json"):
        run(["sweep", "--M", "1..2", "--format", fmt, "--out", a])
        run(["sweep", "--M", "1..2", "--format", fmt, "--out", b])
        name = f"sweep.{fmt}"
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert "seconds" not in (a / "sweep.csv").read_text()
    assert all("seconds" not in row for row in read_json(a / "sweep.json")["rows"])


def test_cond_phases_checks_the_routes_against_each_other(tmp_path):
    """cond --route both --phases runs both routes on the rotated family,
    exits 0 and records their relative gap, within N * 2^-(prec-8)."""
    (tmp_path / "ph.json").write_text(json.dumps(PHASED))
    out = tmp_path / "out"
    argv = ["cond", "--M", "2..3", "--route", "both", "--phases", tmp_path / "ph.json"]
    assert run([*argv, "--out", out]) == 0
    for M in (2, 3):
        coeff, sphere = read_json(out / f"cond_M{M}.json")["reports"]
        assert (coeff["route"], sphere["route"]) == ("coefficient", "spherical")
        assert len(coeff["per_root"]) == len(sphere["per_root"]) == 4 * M * M
        assert sphere["symmetry_reduced"] is False
        rel = mp.mpf(coeff["route_rel_diff"])
        assert rel == mp.mpf(sphere["route_rel_diff"])
        assert rel <= route_tolerance(4 * M * M, 256), M


def test_phases_file_applies_to_sphere_route(tmp_path):
    phases = tmp_path / "ph.json"
    phases.write_text(json.dumps({"1": [0.7853981633974483]}))
    assert run(
        ["generate", "--M", "1", "--phases", phases, "--out", tmp_path]
    ) == 0
    d = read_json(tmp_path / "points_M1.json")
    x0 = float(d["points"]["points"][0][0])
    assert abs(x0 - 0.7071067811865476) < 1e-12
    assert d["config"]["phases_file"] == "ph.json"


def test_phases_wrong_length_rejected(tmp_path):
    phases = tmp_path / "ph.json"
    phases.write_text(json.dumps({"2": [0.1]}))
    with pytest.raises(SystemExit):
        run(["generate", "--M", "2", "--phases", phases, "--out", tmp_path])


def test_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["cond", "--M", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["cond", "--M", "x..y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["cond", "--M", "2", "--precision", "32"])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "phases",
    [["a", "b", "c"], {"2": "123"}, {"2": 5}, {"2": {"0": 1, "1": 2, "2": 3}}],
    ids=["letters", "string-value", "number-value", "object-value"],
)
def test_non_numeric_phase_exits_2(tmp_path, capsys, phases):
    # a string value is not split into its characters, nor an object into its keys
    (tmp_path / "ph.json").write_text(json.dumps(phases))
    out = tmp_path / "out"
    for command in (["generate"], ["cond", "--route", "sphere"]):
        with pytest.raises(SystemExit) as exc:
            run([*command, "--M", "2", "--phases", tmp_path / "ph.json", "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if isinstance(phases, dict):
            assert "the value of key '2' is not a JSON array" in err
        assert not out.exists()


@pytest.mark.parametrize("second", ["02", "2"])
def test_phase_keys_naming_one_m_exit_2(tmp_path, capsys, second):
    # json.load alone would keep the last of two keys for one M
    phases = tmp_path / "ph.json"
    phases.write_text(f'{{"2": [0, 0, 0], "{second}": [1, 1, 1]}}')
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--M", "2", "--phases", phases, "--out", tmp_path / "out"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"error: {phases}: keys '2' and '{second}' both name M=2\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("angles", [["inf", "0", "0"], [0.0, float("nan"), 0.0]])
def test_non_finite_phase_exits_2(tmp_path, capsys, angles):
    phases = tmp_path / "ph.json"
    phases.write_text(json.dumps(angles))  # the float nan is written as NaN
    out = tmp_path / "out"
    for command in (["generate"], ["cond", "--route", "sphere"]):
        with pytest.raises(SystemExit) as exc:
            run([*command, "--M", "2", "--phases", phases, "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not finite" in err
        assert not out.exists()


@pytest.mark.parametrize("angle", ["1e1000000", "-1e100000", 2.0**256])
def test_phase_of_magnitude_two_to_the_precision_exits_2(tmp_path, capsys, angle):
    """An angle of magnitude 2^precision or more names no rotation: it is
    refused before any work, not reduced at full length by every sin and
    cos."""
    phases = tmp_path / "ph.json"
    phases.write_text(json.dumps([angle, 0, 0]))
    out = tmp_path / "out"
    for command in (["generate"], ["cond", "--route", "sphere"]):
        with pytest.raises(SystemExit) as exc:
            run([*command, "--M", "2", "--phases", phases, "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not below 2^256 in magnitude" in err
        assert not out.exists()


def test_csv_row_reads_each_header_key_of_a_record():
    record = {"M": 3, "lemma": "x", "pass": False, "params": {"M": 4, "ell": 1}, "extra": "y"}
    header = ["lemma", "M", "absent", "params", "pass"]
    assert cli._csv_row(header, record) == ["x", "3", "", "M=4;ell=1", "False"]


@pytest.mark.parametrize(
    "argv,phases,workers",
    [
        (["generate", "--M", "1"], ["nan"], "1"),
        (["generate", "--M", "1..2"], {"2": [0.1]}, "1"),
        (["cond", "--M", "2", "--route", "sphere"], {"2": [0.1]}, "1"),
        (["cond", "--M", "2", "--route", "sphere", "--certify"], [0.1, 0.7, -1.2], "1"),
        (["generate", "--M", "2"], {"-1": [0.5, 0.5, 0.5]}, "1"),
        (["cond", "--M", "2", "--route", "sphere"], {"0": [0.5, 0.5, 0.5]}, "1"),
        (["cond", "--M", "2", "--route", "sphere"], [0, 0, 0, 0, 0], "1"),
        (["cond", "--M", "2", "--route", "sphere"], {"7": [0, 0, 0]}, "1"),
        (["generate", "--M", "1"], None, "x"),
        (["cond", "--M", "1"], None, "x"),
        (["verify", "--M", "5"], None, "x"),
        (["sweep", "--M", "1"], None, "x"),
    ],
    ids=[
        "nan-phase", "phase-count-generate", "phase-count-cond", "phases-certify",
        "phase-key-minus-1", "phase-key-0", "phases-array-fits-no-m",
        "phases-keys-name-no-m", "workers-generate", "workers-cond",
        "workers-verify", "workers-sweep",
    ],
)
def test_rejected_input_creates_no_output_directory(
    tmp_path, capsys, monkeypatch, argv, phases, workers
):
    monkeypatch.setenv("WELLCOND_WORKERS", workers)
    if phases is not None:
        (tmp_path / "ph.json").write_text(json.dumps(phases))
        argv = [*argv, "--phases", tmp_path / "ph.json"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "cond", "verify", "sweep"])
def test_uncreatable_out_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker / "sub", blocker):
        with pytest.raises(SystemExit) as exc:
            run([command, "--M", "1", "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: ") and err.count("\n") == 1
    assert blocker.read_text() == ""


def test_verify_sums_max_below_1_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--M", "2", "--sums-max", "0", "--out", tmp_path])
    assert exc.value.code == 2
    assert not (tmp_path / "sum_checks.json").exists()


def test_cond_route_disagreement_exits_1(tmp_path, capsys, monkeypatch):
    """A spherical mu_max scaled by 2 disagrees by 1/2; one scaled by
    1 + 2^(24 - prec) disagrees by 2^12 times the tolerance
    N 2^-(prec - 8) at M=2 (N=16)."""
    prec = 256
    spherical = cli.mu_max_spherical_route
    with mp.workprec(prec):
        nudge = 1 + mp.ldexp(1, 24 - prec)
    for scale, shown in [(2, "0.5"), (nudge, "1.44")]:

        def scaled(*args, **kwargs):
            rep = spherical(*args, **kwargs)
            return dataclasses.replace(rep, mu_max=scale * rep.mu_max)

        monkeypatch.setattr(cli, "mu_max_spherical_route", scaled)
        out_dir = tmp_path / shown
        argv = ["cond", "--M", "2", "--route", "both", "--precision", prec, "--out", out_dir]
        assert run(argv) == 1
        line = capsys.readouterr().out.splitlines()[1]
        assert line.startswith(f"M=2: routes disagree: route_rel_diff={shown}")
        assert line.endswith(" > 16*2^-248")
        reports = read_json(out_dir / "cond_M2.json")["reports"]
        assert all(v is True for r in reports for v in r["verdicts"].values())


def test_cond_sweep_and_verify_build_no_coordinates(tmp_path, monkeypatch):
    """Only generate writes coordinates; the other commands read the
    exact parallels alone."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a point coordinate was formed")

    monkeypatch.setattr(points, "cos_pi_fraction", forbidden)  # every azimuth
    for argv in (
        ["cond", "--M", "2..3", "--route", "both"],
        ["sweep", "--M", "2..3", "--route", "sphere"],
        ["verify", "--M", "2..3", "--informational", "--sums-max", "4"],
    ):
        assert run([*argv, "--out", tmp_path]) == 0, argv
    with pytest.raises(AssertionError, match="coordinate"):
        run(["generate", "--M", "2", "--out", tmp_path])


@pytest.mark.parametrize("command", ["generate", "cond", "sweep"])
def test_seed_only_on_verify(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--M", "2", "--seed", "1", "--out", tmp_path])
    assert exc.value.code == 2


def test_generate_writes_phases_at_the_working_precision(tmp_path):
    phases = tmp_path / "ph.json"
    phases.write_text(json.dumps(["0.1", "0.7", "-1.2"]))
    assert run(["generate", "--M", "2", "--phases", phases, "--out", tmp_path]) == 0
    pars = read_json(tmp_path / "points_M2.json")["points"]["parallels"]
    assert pars[0]["phase"] == "0.1"


def test_verify_empty_grid_exits_1(tmp_path, capsys):
    # a single band covers the sphere, so no probe lies outside it
    assert run(["verify", "--M", "1", "--sums-max", "8", "--out", tmp_path]) == 1
    assert (
        "M=1 band_average_outside_window: worst_margin=+inf pass=False "
        "(no cells checked)" in capsys.readouterr().out
    )
    rep = read_json(tmp_path / "verify_M1.json")["reports"][0]
    assert rep["lemma"] == "band_average_outside_window"
    assert rep["cells"] == [] and rep["pass"] is False


def test_zero_phases_file_is_symmetry_reduced(tmp_path):
    phases = tmp_path / "ph.json"
    phases.write_text(json.dumps(["0", "0.0", "-0"]))
    out = tmp_path / "out"
    assert run(
        ["cond", "--M", "2", "--route", "sphere", "--phases", phases, "--out", out]
    ) == 0
    rep = read_json(out / "cond_M2.json")["reports"][0]
    assert rep["symmetry_reduced"] is True
    assert [e["root"] for e in rep["per_root"]] == ["p1.k0", "p2.k0", "p3.k0"]


# At mpmath's default 53-bit context the library prints what the CLI
# writes at 256 bits: each report and point set prints at its own precision.


def test_library_condition_report_prints_like_cond(tmp_path):
    assert mp.mp.prec == 53
    assert run(["cond", "--M", "2", "--route", "coeff", "--out", tmp_path]) == 0
    written = read_json(tmp_path / "cond_M2.json")["reports"][0]
    assert mu_max_coefficient_route(2).to_json_dict() == written


def test_library_verification_report_prints_like_verify(tmp_path):
    assert mp.mp.prec == 53
    assert run(["verify", "--M", "5", "--sums-max", "2", "--out", tmp_path]) == 0
    (written,) = [
        d for d in read_json(tmp_path / "verify_M5.json")["reports"]
        if d["lemma"] == "band_correction_log_bounds"
    ]
    assert verify_t_bounds(5).to_json_dict() == written


def test_library_sum_check_prints_like_verify(tmp_path):
    assert mp.mp.prec == 53
    assert run(["verify", "--M", "5", "--sums-max", "2", "--out", tmp_path]) == 0
    (written,) = [
        d for d in read_json(tmp_path / "sum_checks.json")["checks"]
        if d["id"] == "weighted_sum_le_cubic_bound" and d["params"] == {"M": 1}
    ]
    (check,) = [
        c for c in sum_check_suite(2)
        if c.check_id == "weighted_sum_le_cubic_bound" and c.params == {"M": 1}
    ]
    assert len(written["margin"]) > 70
    assert check.to_json_dict() == written


def test_library_point_set_prints_like_generate(tmp_path):
    assert mp.mp.prec == 53
    strings = ["0.1", "0.7", "-1.2"]
    phases = tmp_path / "ph.json"
    phases.write_text(json.dumps(strings))
    assert run(["generate", "--M", "2", "--phases", phases, "--out", tmp_path]) == 0
    written = read_json(tmp_path / "points_M2.json")["points"]
    got = build_point_set(2, phases=strings).to_json_dict()
    assert got["parallels"][0]["phase"] == "0.1"
    assert got == written


_FLOAT = r"[+-]?\d+(?:\.\d*)?(?:e[+-]?\d+)?"
_COMPLEX = re.compile(rf"^({_FLOAT})([+-]\d+(?:\.\d*)?(?:e[+-]?\d+)?)j$")


def parse_complex(text):
    """An "re+imj" shift or coefficient of a phased polynomial file as an mpc."""
    m = _COMPLEX.match(text)
    assert m, text
    return mp.mpc(mp.mpf(m.group(1)), mp.mpf(m.group(2)))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_generate_phases_writes_the_rotated_family(tmp_path, fmt):
    """The polynomial file of generate --phases describes the points file:
    the shift of the factor of parallel j has modulus rho_j^(r_j) and
    argument r_j phi_j mod 2 pi, printed at --precision."""
    phases = tmp_path / "ph.json"
    phases.write_text(json.dumps(["0.1", "0.7", "-1.2"]))
    out = tmp_path / "out"
    assert run(["generate", "--M", "2", "--phases", phases, "--out", out]) == 0
    pars = read_json(out / "points_M2.json")["points"]["parallels"]
    if fmt == "json":
        factors = read_json(out / "polynomial_M2.json")["factorized"]["factors"]
        rows = [(f["r"], f["s"]) for f in factors]
    else:
        assert run(["generate", "--M", "2", "--format", "csv", "--phases", phases, "--out", out]) == 0
        rows = [(int(r), s) for r, s in read_rows(out / "factors_M2.csv")[1:]]
    order = [2, 1, 3]  # the equator first, then j and 2M - j
    with mp.workprec(256):
        tol = mp.mpf(2) ** -240
        for (r, text), j in zip(rows, order, strict=True):
            par = pars[j - 1]
            assert r == par["r"]
            shift = parse_complex(text)
            h = Fraction(par["h"])
            assert abs(abs(shift) - to_mpf(((1 + h) / (1 - h)) ** (r // 2))) < tol * abs(shift)
            want = mp.mpf(r) * mp.mpf(par["phase"])
            turn = (mp.arg(shift) - want) / (2 * mp.pi)
            assert abs(turn - mp.nint(turn)) < tol, (j, text)


def test_generate_phases_dense_coefficients_expand_the_factors(tmp_path):
    """The dense coefficients of a phased family are the expansion of its
    printed factors: exact zeros as 0/1, the rest complex."""
    phases = tmp_path / "ph.json"
    phases.write_text(json.dumps(["0.1", "0.7", "-1.2"]))
    assert run(["generate", "--M", "2", "--phases", phases, "--out", tmp_path]) == 0
    d = read_json(tmp_path / "polynomial_M2.json")
    coeffs = d["dense"]["coeffs"]
    assert len(coeffs) == 17 and coeffs[16] == "1/1"
    assert all(c == "0/1" for i, c in enumerate(coeffs) if i % 4)
    with mp.workprec(256):
        shifts = [parse_complex(f["s"]) for f in d["factorized"]["factors"]]
        const = -shifts[0] * shifts[1] * shifts[2]  # (-1)^3 times their product
        assert abs(parse_complex(coeffs[0]) - const) < mp.mpf(2) ** -240 * abs(const)


@pytest.mark.parametrize("M,phases", [(3, None), (2, ["0.1", "0.7", "-1.2"])], ids=["M3", "M2-phased"])
def test_generate_csv_and_json_print_the_same_points(tmp_path, M, phases):
    argv = ["generate", "--M", M]
    if phases:
        (tmp_path / "ph.json").write_text(json.dumps(phases))
        argv += ["--phases", tmp_path / "ph.json"]
    assert run([*argv, "--out", tmp_path]) == 0
    assert run([*argv, "--format", "csv", "--out", tmp_path]) == 0
    rows = read_rows(tmp_path / f"points_M{M}.csv")[1:]
    assert [row[2:] for row in rows] == read_json(tmp_path / f"points_M{M}.json")["points"]["points"]


def test_generate_prints_coefficients_past_the_int_digit_limit(tmp_path, monkeypatch):
    """At M = 29 numerators and denominators pass Python's 4,300-digit
    int-to-str limit; generate prints them, also in worker processes, and
    leaves the limit as it was."""
    limit = sys.get_int_max_str_digits()
    monkeypatch.setenv("WELLCOND_WORKERS", "2")
    assert run(["generate", "--M", "28..29", "--out", tmp_path]) == 0
    assert sys.get_int_max_str_digits() == limit
    coeffs = read_json(tmp_path / "polynomial_M29.json")["dense"]["coeffs"]
    assert len(coeffs) == 4 * 29**2 + 1
    assert max(len(part) for c in coeffs for part in c.split("/")) > 4300


class _Label(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Rows(list):
    pass


# Cases of the types reports hold, and cases that hold another type (a
# float, a tuple, a non-str key, a subclass of dict, list, str or int),
# which the writer refuses.
JSON_EDGE_CASES = [
    {},
    [],
    {"label": _Label("sub"), "level": _Level.HIGH, _Label("key"): [_Level.LOW]},
    [_Label("sub"), _Level.LOW, "plain", {"in": _Label("dict")}],
    {"a": "str key", 2: "int key", None: [], "b": {"c": "d"}, 0.5: "x"},
    [OrderedDict([("x", "y"), ("n", [1, "z"])]), OrderedDict(), {"k": OrderedDict(a="b")}],
    ["s", {"k": "v"}, ["t", [], {}], "u", ("w", "v"), "", 3],
    {"empty": {}, "list": [], "nested": [[], [{}], {"a": []}]},
    {"text": "é ü ☃ 𝄞", "escapes": "tab\tquote\"back\\slash\nnew", "ключ": "значение"},
    {2: "int key", 2.5: "float key", True: "bool key", False: 0, None: "null key"},
    [True, False, None, 0, -7, 10**40, 2.5, -0.0, 1e300, 1e-300, float("inf"), float("-inf")],
    ("a", ("tuple", 1)),
    "scalar",
    3,
    1.5,
    True,
    None,
    ["s", {"k": "v"}, ["t", [], {}], "u", ["w", "v"], "", 3],
    {"a": "str key", "2": "int key", "null": [], "b": {"c": "d"}},
    [True, False, None, 0, -7, 10**40, -(10**40)],
    {"k": [{"deep": [[{"x": ["y", 1, None]}]]}]},
    # one removed type per case, at the top or nested
    {2: "int key"}, {None: []}, {0.5: "x"}, {True: "bool key"},
    2.5, [2.5], {"x": -0.0}, float("inf"), [float("-inf")],
    ("a",), (), ["s", ("w", "v")], {"t": ()},
    OrderedDict(), [OrderedDict([("x", "y")])], {"k": OrderedDict(a="b")},
    _Rows(), [_Rows(["a"])],
    _Label("sub"), [_Label("sub")], {"label": _Label("sub")},
    _Level.HIGH, [_Level.LOW], {"level": _Level.HIGH},
]


def _report_value(obj) -> bool:
    """Whether obj holds only what a report holds: exact dicts with str
    keys, exact lists, and exact str, int, bool and None."""
    kind = type(obj)
    if kind is dict:
        return all(isinstance(k, str) and _report_value(v) for k, v in obj.items())
    if kind is list:
        return all(map(_report_value, obj))
    return kind in (str, int, bool, type(None))


def _streamed(obj) -> str:
    """The text _write_atomic writes for the document obj: its streamed
    pieces, joined."""
    return "".join(cli._json_chunks(obj, "\n")) + "\n"


@pytest.mark.parametrize("obj", JSON_EDGE_CASES)
def test_json_writer_matches_json_dumps_on_edge_cases(obj):
    """A case of the types reports hold prints as json.dumps(indent=2)
    prints it; a case that holds any other type raises TypeError."""
    if _report_value(obj):
        assert _streamed(obj) == json.dumps(obj, indent=2) + "\n"
    else:
        with pytest.raises(TypeError):
            _streamed(obj)


def test_json_writer_keeps_json_dumps_nan_and_errors():
    """json.dumps's errors stay TypeErrors, and a nan, which no report
    holds as a float, is one too."""
    with pytest.raises(TypeError):
        _streamed([float("nan")])
    with pytest.raises(TypeError):
        _streamed({"x": object()})
    with pytest.raises(TypeError):
        _streamed({(1, 2): "tuple key"})


def test_json_writer_matches_json_dumps_on_every_command(tmp_path):
    """Every JSON file the four commands write is json.dumps(indent=2) of
    what it holds, byte for byte."""
    out = tmp_path / "out"
    phases = tmp_path / "phases.json"
    phases.write_text(json.dumps({"2": ["0.1", "0.7", "-1.2"]}))
    assert run(["generate", "--M", "2", "--out", out]) == 0
    assert run(["generate", "--M", "2", "--phases", phases, "--out", out / "phased"]) == 0
    assert run(["cond", "--M", "2", "--route", "both", "--certify", "--out", out]) == 0
    assert run(["verify", "--M", "3", "--informational", "--sums-max", "8", "--out", out]) == 0
    assert run(["sweep", "--M", "1..2", "--format", "json", "--out", out]) == 0
    files = sorted(out.rglob("*.json"))
    assert {p.name for p in files} >= {
        "points_M2.json", "polynomial_M2.json", "cond_M2.json", "verify_M3.json",
        "sum_checks.json", "sweep.json",
    }
    for path in files:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path.name
        again = tmp_path / "again.json"
        cli._write_atomic(again, json.loads(text))
        assert again.read_bytes() == path.read_bytes(), path.name


def test_json_writer_streams_no_piece_longer_than_a_cell(tmp_path, monkeypatch):
    """No piece of the stream of verify --M 5's documents is longer than
    its longest cell or sum check text, so no report, list or file is
    ever rendered whole."""
    written = {}
    write = cli._write_atomic

    def spy(path, content):
        written[path.name] = content
        write(path, content)

    monkeypatch.setattr(cli, "_write_atomic", spy)
    assert run(["verify", "--M", "5", "--sums-max", "8", "--out", tmp_path]) == 0
    verify, sums = written["verify_M5.json"], written["sum_checks.json"]
    for name, items, depth in [
        ("verify_M5.json", [c for r in verify["reports"] for c in r["cells"]], 8),
        ("sum_checks.json", sums["checks"], 4),
    ]:
        pieces = list(cli._json_chunks(written[name], "\n"))
        assert "".join(pieces) + "\n" == (tmp_path / name).read_text()
        indent = "\n" + " " * depth
        longest = max(len(json.dumps(item, indent=2).replace("\n", indent)) for item in items)
        assert max(map(len, pieces)) <= longest, name


def test_failed_stream_leaves_neither_the_file_nor_its_temporary_file(tmp_path):
    """A document holding a type no report holds raises TypeError after
    its first batches are written, and leaves neither the file nor
    <name>.tmp."""
    doc = {"cells": [{"margin": "0.5"}] * 1000 + [{"margin": 0.5}]}
    assert 2 * 1000 > cli._WRITE_BATCH  # a separator and a cell per item
    with pytest.raises(TypeError, match="a report holds no float"):
        cli._write_atomic(tmp_path / "verify_M2.json", doc)
    assert list(tmp_path.iterdir()) == []


def test_one_worker_run_imports_no_process_pool(tmp_path):
    """The process pool's modules load only when a run uses more than one
    worker."""
    import subprocess

    code = (
        "import sys; from wellcond import cli; "
        f"cli.main(['cond', '--M', '1..2', '--out', {str(tmp_path)!r}]); "
        "print('concurrent.futures.process' in sys.modules)"
    )
    env = {"PYTHONPATH": str(Path(points.__file__).parents[1]), "WELLCOND_WORKERS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


def test_failed_write_leaves_no_temporary_file(tmp_path):
    """A file that cannot be written (here a directory stands at its
    path) exits 1 with one error line, and its temporary file is gone."""
    (tmp_path / "verify_M2.json").mkdir()
    with pytest.raises(SystemExit) as exit_:
        run(["verify", "--M", "2", "--informational", "--sums-max", "2", "--out", tmp_path])
    assert str(exit_.value.code).startswith(f"error: cannot write {tmp_path / 'verify_M2.json'}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["verify_M2.json"]
