"""The hahndisk benchmark.

    python3 perfbench/run.py --workload {series,construct,divide,all}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it imports the package from `src/` and
reads the golden build from `tests/golden/`.  Each workload runs in its own
worker processes (one client, closed loop, no threads): a few probes that
only set up, for the set-up time, then the measured process.  With
--trace 0 the last line of output is a JSON object with every end-to-end
metric; with --trace 1 it holds every per-layer metric instead, measured in
a separate traced run.  Work files go to `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, reference_loop  # noqa: E402

NAMES = ("series", "construct", "divide")
#: Processes that only set up; with the measured process they give the
#: median set-up time.
SETUP_PROBES = 8
CHILD_TIMEOUT = 170


def spawn(args, workload, *extra, timeout):
    """Start a worker, wait for it, and return (start time, its JSON line,
    the factor that scales this moment's times to the reference speed)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = reference_loop()
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    scale = 2 * REFERENCE_S / (before + reference_loop())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1]), scale


def tail(latencies):
    """The highest percentile with at least ten samples beyond it, by
    nearest rank: (percentile, value, samples beyond)."""
    n = len(latencies)
    ranked = sorted(latencies)
    pct = max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ranked[rank - 1], n - rank


def measure(args, workload):
    """Run one workload; return (attempted, failed, metrics, notes)."""
    deadline = time.monotonic() + CHILD_TIMEOUT
    setups = []
    for _ in range(SETUP_PROBES):
        start, probe, scale = spawn(args, workload, "--probe", timeout=60)
        setups.append((probe["ready"] - start) * scale)
    start, res, scale = spawn(args, workload, timeout=max(10, deadline - time.monotonic()))
    setups.append((res["ready"] - start) * scale)
    passes = res["passes"]
    records = [r for records in passes for r in records]
    errors = [r["error"] for r in records if r["error"]]
    if len({tuple(r["bytes"] for r in records) for records in passes}) > 1:
        errors.append("output bytes differ between passes over the same jobs")
    rounds = f"{len(passes)} pass{'es' if len(passes) > 1 else ''}"
    notes = [f"{workload}: {len(records)} jobs attempted ({rounds} over "
             f"{len(passes[0])} jobs), {len(errors)} failed"]
    notes += [f"  failed: {e}" for e in dict.fromkeys(errors)][:5]
    if args.trace:
        mismatched = res["count_mismatches"]
        if mismatched:
            errors.append("exact counts differ between the two traced passes")
            notes.append(f"  counts that differ between traced passes: {mismatched[:10]}")
        else:
            notes.append("  exact counts repeat identically in both traced passes")
        notes.append(f"  spans of the first traced pass: .perfbench_work/spans-{workload}/")
        return len(records), len(errors), res["layer_metrics"], notes
    # Each job at its median over the passes, in reference-speed time.
    jobs = range(len(passes[0]))
    per_job = [statistics.median(p[j]["s"] * p[j]["scale"] for p in passes) for j in jobs]
    per_job_cpu = [statistics.median(p[j]["cpu"] * p[j]["scale"] for p in passes) for j in jobs]
    pct, tail_value, beyond = tail(per_job)
    notes.append(f"  latency_tail_ms is p{pct} of {len(per_job)} jobs ({beyond} beyond "
                 f"it), each job its median over {rounds}")
    first = passes[0]
    found = {
        "throughput_jobs_per_s": len(per_job) / sum(per_job),
        "latency_p50_ms": statistics.median(per_job) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "cpu_ms_per_job": statistics.mean(per_job_cpu) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": res["peak_rss_kib"] / 1024,
        "output_bytes_per_job": sum(r["bytes"] for r in first) / len(first),
    }
    return len(records), len(errors), found, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hahndisk" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "golden" / "plan.json").is_file():
        print(f"perfbench: {ROOT} is not a hahndisk checkout (src/hahndisk and "
              "tests/golden are needed)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            n, bad, found, notes = measure(args, name)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        missing = [m["name"] for m in wanted if m["name"] not in found]
        if missing:
            print(f"perfbench: {name}: no value for {missing}", file=sys.stderr)
            return 1
        attempted += n
        failed += bad
        print("\n".join(notes))
        for m in wanted:
            value = found[m["name"]]
            print(f"  {m['name']:40s} {value:14.6g} {m['unit']}")
            key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
            metrics[key] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
