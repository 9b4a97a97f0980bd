"""Record the correctness gate's reference values from the current checkout.

    python3 perfbench/record_references.py

Runs every workload, and its tiny variant used by selftest.py, once with
seed 0 and writes the extracted values to perfbench/references.json.
Re-record only on a commit whose outputs are known to be right, and
say in the change why the references moved.
"""

import json
import sys
import time

import gate
import run


def record(argv: list[str], prec_bits: int) -> dict:
    captured = {}

    def keep(rc, outdir):
        captured.update(gate.extract(argv[0], rc, outdir, prec_bits))
        return 0, []

    sample = run.spawn(argv, False, time.perf_counter() + 600, keep)
    if sample.rc != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {sample.rc}")
    return captured


def main() -> int:
    spec = run.load_json("workloads.json")
    workloads = spec["workloads"]
    refs = {"full": {}, "tiny": {}}
    for name, w in workloads.items():
        for kind in refs:
            argv = [a.replace("{seed}", "0") for a in w["argv" if kind == "full" else kind]]
            print(f"{name} ({kind}): {' '.join(argv)}", file=sys.stderr)
            refs[kind][name] = record(argv, spec["precision_bits"])
    (run.HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
