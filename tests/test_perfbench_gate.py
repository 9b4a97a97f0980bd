"""The benchmark's correctness gate on the tiny commands, run in-process.

perfbench/gate.py turns a run's exit code and outputs into named values
and compares them with the references recorded from a known-good
commit; perfbench/workloads.json holds a tiny (M = 2..3) variant of
each workload's command.  Both are read, never written, here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from wellcond.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())
REFERENCES = json.loads((PERFBENCH / "references.json").read_text())


def load_gate():
    """perfbench/gate.py as a module, with the interpreter's int-to-str
    digit limit, which the module lifts on import, restored."""
    limit = sys.get_int_max_str_digits()
    spec = importlib.util.spec_from_file_location("perfbench_gate", PERFBENCH / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(gate)
    finally:
        sys.set_int_max_str_digits(limit)
    return gate


GATE = load_gate()


@pytest.mark.parametrize("name", sorted(WORKLOADS["workloads"]))
def test_tiny_workload_passes_the_benchmark_gate(name, tmp_path, monkeypatch):
    """Each tiny command, with seed 1 and one worker, exits as recorded and
    every value the gate checks matches the tiny references."""
    monkeypatch.setenv("WELLCOND_WORKERS", "1")
    argv = [a.replace("{seed}", "1") for a in WORKLOADS["workloads"][name]["tiny"]]
    out = tmp_path / "out"
    rc = main([*argv, "--out", str(out)])
    prec = WORKLOADS["precision_bits"]
    got = GATE.extract(argv[0], rc, out, prec)
    assert GATE.compare(got, REFERENCES["tiny"][name], prec) == []
