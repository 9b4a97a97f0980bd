"""wellcond benchmark: one CLI workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
its ``src/``.  Every sample is a fresh interpreter running
``wellcond.cli.main`` with WELLCOND_WORKERS=1 at the default precision,
with its own temporary ``--out`` directory, stdout and stderr, all
removed afterwards.  Samples run one at a time, so the benchmark never
has more than one child process.

--trace 0 repeats the command until --seconds have passed (at least
MIN_SAMPLES times), with set-up probes before each sample, and reports
the medians of the end-to-end metrics.  --trace 1 alternates untraced
and traced samples (at least MIN_TRACED pairs) and reports the per-layer
metrics of the traced ones, plus the tracing overhead.  Every sample's
outputs go through the correctness gate (gate.py); in traced runs the
work counters must also repeat exactly from one sample to the next.

stdout ends with an ``env`` line (the environment block) and then one
JSON result line; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

MIN_SAMPLES = 3
MIN_TRACED = 2
# Set-up-only processes started before each untraced sample.
SETUP_PROBES = 2
# A run must end within 180 s; stop starting samples, and kill a child
# still running, this long after the run began.
RUN_LIMIT_S = 170.0


def load_json(name: str) -> dict:
    return json.loads((HERE / name).read_text())


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Sample:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    rc: int
    out_bytes: int
    report: dict
    checked: int
    failed: list[str]


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], trace: bool, deadline: float, check=None) -> Sample:
    """Run one fresh interpreter; ``argv == []`` is a set-up probe.

    ``check(rc, outdir)`` returns (checks attempted, names failed) and
    runs before the temporary directory is removed.
    """
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        out, report_path = tmp / "out", tmp / "report.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(report_path), str(int(trace))]
        if argv:
            cmd += argv + ["--out", str(out)]
        env = dict(os.environ, PYTHONPATH=str(SRC), WELLCOND_WORKERS="1")
        with open(tmp / "stdout", "wb") as so, open(tmp / "stderr", "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=tmp)
            timer = threading.Timer(max(0.0, deadline - t0), _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.perf_counter()
        rc = proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            report = {}
        if rc != 0:
            tail = (tmp / "stderr").read_text(errors="replace")[-2000:]
            print(f"child exited {rc}: {' '.join(argv)}\n{tail}", file=sys.stderr)
        checked, failed = check(rc, out) if check else (0, [])
        out_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.is_dir() else 0
        return Sample(
            wall_s=t1 - t0,
            setup_s=report.get("setup_mark", t1) - t0,
            peak_rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            rc=rc,
            out_bytes=out_bytes,
            report=report,
            checked=checked,
            failed=failed,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def make_check(subcommand: str, refs: dict, prec_bits: int):
    def check(rc: int, outdir: Path) -> tuple[int, list[str]]:
        try:
            got = gate.extract(subcommand, rc, outdir, prec_bits)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            return len(refs), [f"unreadable outputs: {e!r}"] * len(refs)
        return len(set(refs) | set(got)), gate.compare(got, refs, prec_bits)

    return check


def layer_metrics(sample: Sample) -> dict[str, float]:
    """Inclusive seconds, self seconds and calls per span name, plus counters.

    Inclusive time skips spans nested in a span of the same name, so a
    re-entrant function is not counted twice.
    """
    spans = sample.report["spans"]
    child_time = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    values: dict[str, float] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        dur = end - start
        values[f"{name}.calls"] = values.get(f"{name}.calls", 0) + 1
        values[f"{name}.self_s"] = values.get(f"{name}.self_s", 0.0) + dur - child_time[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent < 0:
            values[f"{name}.s"] = values.get(f"{name}.s", 0.0) + dur
    values.update(sample.report["counts"])
    values["cli.bytes_written"] = sample.out_bytes
    return values


def environment() -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "git_commit": git_commit(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "wellcond").glob("*.py"))
        ),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(
    argv: list[str], refs: dict, seconds: float, trace: bool, prec_bits: int
) -> tuple[dict[str, float], int, list[str]]:
    """Measure one workload; returns (metric values, checks attempted,
    names of failed checks)."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    check = make_check(argv[0], refs, prec_bits)
    spawn([], False, deadline)  # writes the bytecode caches; not measured
    plain: list[Sample] = []
    traced: list[Sample] = []
    probes: list[Sample] = []
    failed: list[str] = []
    attempted = 0

    def take(trace_it: bool) -> Sample:
        nonlocal attempted
        s = spawn(argv, trace_it, deadline, check)
        attempted += s.checked
        failed.extend(s.failed)
        print(
            f"{'traced' if trace_it else 'plain '} wall={s.wall_s:.3f}s "
            f"setup={s.setup_s:.3f}s rss={s.peak_rss_mb:.1f}MB rc={s.rc} "
            f"checks={s.checked} failed={len(s.failed)}",
            file=sys.stderr,
        )
        return s

    def more(done: int, minimum: int) -> bool:
        # Start another round while it would end, on average, by `seconds`.
        now = time.perf_counter()
        round_s = (now - start) / done if done else 0.0
        return now < deadline and (done < minimum or now - start + round_s / 2 < seconds)

    if not trace:
        while more(len(plain), MIN_SAMPLES):
            probes += [spawn([], False, deadline) for _ in range(SETUP_PROBES)]
            plain.append(take(False))
        print(f"{len(plain)} samples, {len(probes) + len(plain)} set-up timings", file=sys.stderr)
        values = {
            "wall_s": statistics.median(s.wall_s for s in plain),
            "setup_s": statistics.median(s.setup_s for s in probes + plain),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plain),
        }
        return values, attempted, failed

    while more(len(traced), MIN_TRACED):
        plain.append(take(False))
        traced.append(take(True))
    print(f"{len(traced)} traced and {len(plain)} untraced samples", file=sys.stderr)
    per_sample = [layer_metrics(s) for s in traced if "spans" in s.report]
    if len(per_sample) < len(traced):
        attempted += 1
        failed.append("traced sample wrote no spans")
    values: dict[str, float] = {}
    for name in sorted({k for m in per_sample for k in m}):
        series = [m.get(name, 0) for m in per_sample]
        if isinstance(series[0], int):
            attempted += 1
            if len(set(series)) != 1:
                failed.append(f"count {name} drifted: {series}")
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)
    values["trace_overhead_s"] = statistics.median(s.wall_s for s in traced) - statistics.median(
        s.wall_s for s in plain
    )
    return values, attempted, failed


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark result: correctness counts and the metrics that
    BENCHMARK.json lists for this kind of run."""
    spec = benchmark_spec()
    config = load_json("workloads.json")
    cmd = [a.replace("{seed}", str(seed)) for a in config["workloads"][workload]["argv"]]
    refs = load_json("references.json")["full"][workload]
    values, attempted, failed = run_workload(cmd, refs, seconds, trace, config["precision_bits"])
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    kind = "per_layer" if trace else "end_to_end"
    return {
        "correct": not failed,
        "attempted": max(attempted, 1),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec[kind]
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(load_json("workloads.json")["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wellcond" / "cli.py").is_file():
        print(f"error: {SRC}/wellcond not found; run from a wellcond checkout", file=sys.stderr)
        return 2
    env = environment()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
