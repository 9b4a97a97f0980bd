"""Harness self-test on the tiny (M = 2..3) variant of every workload.

    python3 perfbench/selftest.py

For each workload it runs the tiny command once and checks that the
correctness gate passes against the recorded tiny references, and that
it fails once one reference value is corrupted.  Then it makes one
traced run per workload and checks that the spans arrive and the work
counters repeat.  Exits 0 when every expectation holds.
"""

import sys
import time
from decimal import Decimal, localcontext

import gate
import run


def nudge(v: dict) -> dict:
    """A float reference moved by 2^-200 relative, beyond the 2^-240 tolerance."""
    with localcontext() as ctx:
        ctx.prec = 120
        return {"float": str(Decimal(v["float"]) * (1 + Decimal(2) ** -200))}


# One corrupted reference per workload, covering each kind of comparison:
# floats just beyond the tolerance, an exact count and a digest of exact
# rationals.
CORRUPT = {
    "coeff-certify": ("M3.coefficient.mu_max", nudge),
    "sphere-sweep": ("M3.energy_residual", nudge),
    "verify-suites": ("M3.band_average_windows.cells", lambda v: v + 1),
    "generate-large": ("M3.dense", lambda v: v[::-1]),
}


def main() -> int:
    config = run.load_json("workloads.json")
    prec = config["precision_bits"]
    refs = run.load_json("references.json")["tiny"]
    ok = True
    for name, w in config["workloads"].items():
        argv = [a.replace("{seed}", "1") for a in w["tiny"]]
        key, corrupt = CORRUPT[name]
        bad = dict(refs[name], **{key: corrupt(refs[name][key])})
        rates = {}

        def check(rc, outdir):
            got = gate.extract(argv[0], rc, outdir, prec)
            for label, want in (("clean", refs[name]), ("corrupted", bad)):
                rates[label] = len(gate.compare(got, want, prec)) / len(set(want) | set(got))
            return 0, []

        run.spawn(argv, False, time.perf_counter() + 120, check)
        values, attempted, failed = run.run_workload(argv, refs[name], 0, True, prec)
        passed = (
            rates.get("clean") == 0
            and rates.get("corrupted", 0) > 0
            and not failed
            and values.get("cli.calls") == 1
        )
        ok &= passed
        print(
            f"{name:15s} fail_rate clean={rates.get('clean')} "
            f"corrupted({key})={rates.get('corrupted')} "
            f"traced checks={attempted} failed={len(failed)} "
            f"-> {'ok' if passed else 'FAILED'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
