"""The README's library example runs, and its comments state what it gives."""

import re
from pathlib import Path

import mpmath as mp

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first fenced python block under the README's `## Library`."""
    text = README.read_text()
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_as_its_comments_say():
    block = library_block()
    names: dict = {}
    exec(compile(block, str(README), "exec"), names)
    rep, cert, energy, suite = (names[k] for k in ("rep", "cert", "energy", "suite"))

    (digits,) = re.findall(r"mu_max = ([0-9.]+?)\.\.\.", block)
    with mp.workprec(rep.precision_bits):
        assert mp.nstr(rep.mu_max, 30).startswith(digits)
    assert rep.M == 5 and rep.passed

    assert "verdicts resolved rigorously" in block
    assert cert.certified and all(v is True for v in cert.verdicts.values())

    assert "residual per point" in block
    assert energy.M == 8 and mp.isfinite(energy.residual)

    assert "(nine)" in block
    assert len(suite.reports) == 9 and suite.refused == [] and suite.passed
