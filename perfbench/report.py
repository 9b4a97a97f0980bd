"""Print the end-to-end metrics of every workload, with fail_rate.

    python3 perfbench/report.py [--seed N] [--seconds S]

One untraced run per workload (as ``run.py --trace 0``), then one
table: wall_s, setup_s and peak_rss_mb with their units, and
fail_rate = output checks failed / output checks attempted.
"""

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run.benchmark_spec()["run_seconds"])
    args = parser.parse_args()
    print("env " + json.dumps(run.environment()))
    rows = []
    for name in run.load_json("workloads.json")["workloads"]:
        res = run.measure(name, args.seed, args.seconds, False)
        cells = [f"{m}={v['value']:.4f} {v['unit']}" for m, v in res["metrics"].items()]
        cells.append(f"fail_rate={res['failed'] / res['attempted']:.4f} ratio")
        rows.append(f"{name:15s} " + "  ".join(cells))
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
