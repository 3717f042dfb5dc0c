"""One workload process: set up, then run the measured passes or the traced
passes, and print one JSON line of raw results for run.py.

Set-up is what the program needs before its first job: interpreter start,
imports, the residue fields (`series`), the golden files (`construct`) and
filling the `omega` cache.  With --probe
the process stops there and only reports when it became ready.  Drawing
the inputs comes after that point: it is the benchmark's work, not the
program's.

The deck is a fixed number of whole blocks drawn from the seed.  The
measured run repeats the whole deck, in the same order, as often as whole
passes fit in --seconds of timed work (at least once), and run.py takes
the median of each job over its passes.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from calibrate import INTERVAL_S, REFERENCE_S, reference_loop
from tracing import Tracer
from workloads import WORKLOADS, reset_slot

MODULES = ("valgroup", "series", "fields", "tate", "config", "errors",
           "builder", "division", "verify", "cli")

#: Blocks in the measured deck, and in the deck of the traced run.
DECK_BLOCKS = {"series": 288, "construct": 5, "divide": 12}
TRACE_BLOCKS = {"series": 144, "construct": 1, "divide": 1}


def run_pass(workload, deck, slot, tracer=None):
    """Run every job of the deck once; only `workload.run` is timed.
    Returns one record per job; "scale" converts its times to the
    reference speed (see calibrate.py)."""
    records = []
    samples = [reference_loop()]
    since = 0.0
    for spec in deck:
        reset_slot(slot)
        workload.prepare(spec, slot)
        if tracer is not None:
            tracer.job = len(records)
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = workload.run(spec, slot)
        except Exception as exc:  # a failed job is counted, never dropped
            error = f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.job = -1
        size = trace_bytes = 0
        if error is None:
            try:
                workload.check(spec, slot, out)
                size = workload.output_bytes(spec, slot, out)
                trace_bytes = workload.trace_bytes(slot)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        records.append({"s": t1 - t0, "cpu": c1 - c0, "bytes": size,
                        "trace_bytes": trace_bytes, "error": error,
                        "sample": len(samples) - 1})
        since += t1 - t0
        if since >= INTERVAL_S:
            samples.append(reference_loop())
            since = 0.0
    if since:
        samples.append(reference_loop())
    for r in records:
        k = r.pop("sample")
        r["scale"] = 2 * REFERENCE_S / (samples[k] + samples[k + 1])
    return records


def deck_of(workload, seed, blocks):
    return [spec for block in itertools.islice(workload.blocks(seed), blocks)
            for spec in block]


def measured(args, workload, slot):
    if Tracer.installed_anywhere(workload.hd):
        raise RuntimeError("tracing wrappers present in an untraced run")
    deck = deck_of(workload, args.seed, DECK_BLOCKS[args.workload])
    deadline = time.monotonic() + 3 * args.seconds + 30
    passes = [run_pass(workload, deck, slot)]
    timed = sum(r["s"] for r in passes[0])
    while timed * (len(passes) + 1) / len(passes) <= args.seconds \
            and time.monotonic() < deadline:
        passes.append(run_pass(workload, deck, slot))
        timed += sum(r["s"] for r in passes[-1])
    return {"passes": passes}


def traced(args, workload, slot, spans_dir):
    """An untraced pass, then two traced passes over the same jobs.

    The first traced pass gives the per-layer metrics and the span file;
    the second must repeat its exact counts."""
    deck = deck_of(workload, args.seed, TRACE_BLOCKS[args.workload])
    plain = run_pass(workload, deck, slot)
    runs, counts = [], []
    for _ in range(2):
        tracer = Tracer(workload.hd)
        tracer.install()
        try:
            records = run_pass(workload, deck, slot, tracer)
        finally:
            tracer.uninstall()
        counts.append(tracer.exact_counts())
        runs.append(records)
        if len(runs) == 1:
            tracer.write(spans_dir)
            metrics = tracer.metrics(len(records), sum(r["trace_bytes"] for r in records))
    if Tracer.installed_anywhere(workload.hd):
        raise RuntimeError("tracing wrappers left installed")
    first, second = counts
    mismatched = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    untraced = len(plain) / sum(r["s"] for r in plain)
    traced_rate = len(runs[0]) / sum(r["s"] for r in runs[0])
    metrics["trace.untraced_jobs_per_s"] = untraced
    metrics["trace.traced_jobs_per_s"] = traced_rate
    metrics["trace.overhead_pct"] = 100.0 * (untraced - traced_rate) / untraced
    return {"passes": [plain, *runs], "layer_metrics": metrics,
            "count_mismatches": mismatched}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--root", required=True)
    args = ap.parse_args()

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("HAHNDISK_CONFIG", None)
    hd = {name: importlib.import_module(f"hahndisk.{name}") for name in MODULES}
    hd["hahndisk"] = importlib.import_module("hahndisk")
    work = root / ".perfbench_work"
    workdir = work / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](hd, root)
    workload.setup()
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return
    slot = workdir / "job"
    try:
        if args.trace:
            result = traced(args, workload, slot, work / f"spans-{args.workload}")
        else:
            result = measured(args, workload, slot)
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["ready"] = ready
    print(json.dumps(result))


if __name__ == "__main__":
    main()
