"""Seeded division targets that make a division append many stages.

A target is a sum of n terms c t^a x^q with q = i/p^k, |i| <= 729 and
k <= 6 (i/3^k on the default instance), c a nonzero residue, and each
term's weight a + q * gamma_x drawn into one of eight bands
[v_s + j, v_s + j + 1), j < 8.  An 8-step division meets every term, and
almost every exponent is off the plan's enumeration, so each appends a
stage.  Run from the repository root:

    PYTHONPATH=src python3 scripts/many_stages.py 64 192 384

For each target size it prints one JSON line: the size, the stages of the
extended plan, how many the division appended, the largest Frobenius
exponent, and the wall seconds of `run_division` and of `verify_trace` on
the trace document; or, where the stage search reaches its ceiling
(`config.MAX_B_SEARCH`), the error and the seconds spent.  `--seed` (default 7) seeds the targets, one random
stream per size.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import time
from fractions import Fraction

from hahndisk import InstanceConfig
from hahndisk.builder import build_plan
from hahndisk.division import run_division, trace_to_doc
from hahndisk.errors import StageUnavailableError
from hahndisk.series import TruncatedSeries
from hahndisk.verify import verify_trace

BANDS = 8
MAX_I = 729
MAX_K = 6


def many_stage_target(rng: random.Random, field, v_s: Fraction, n: int) -> TruncatedSeries:
    """An exact residue element of up to n terms (equal keys merge), every
    weight in [v_s, v_s + BANDS), with t-exponents in (1/9) Z."""
    p = field.ground.p
    terms = {}
    for _ in range(n):
        q = Fraction(rng.randint(-MAX_I, MAX_I), p ** rng.randint(0, MAX_K))
        lo = v_s + rng.randrange(BANDS) - q * field.gamma_x  # a in [lo, lo + 1)
        a = Fraction(math.ceil(lo * 9) + rng.randrange(9), 9)
        terms[(a, q)] = rng.randint(1, p - 1)
    return TruncatedSeries(field.profile, terms, None)


def measure(n: int, seed: int, config: InstanceConfig) -> dict:
    plan = build_plan(config)
    beta = many_stage_target(random.Random(seed * 100003 + n), plan.field, config.v_s, n)
    start = time.perf_counter()
    try:
        trace = run_division(plan, beta, BANDS)
    except StageUnavailableError as exc:  # the stage search's ceiling
        return {"terms": n, "stopped": str(exc),
                "divide_s": round(time.perf_counter() - start, 4)}
    divided = time.perf_counter()
    doc = trace_to_doc(trace)
    start_verify = time.perf_counter()
    report = verify_trace(doc)
    verified = time.perf_counter()
    stages = trace.plan.stages
    return {
        "terms": n,
        "stages": len(stages),
        "appended": len(stages) - config.stages,
        "largest_b": max(st.b for st in stages),
        "divide_s": round(divided - start, 4),
        "verify_s": round(verified - start_verify, 4),
        "verified": report.ok,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sizes", nargs="+", type=int, help="target term counts")
    parser.add_argument("--seed", type=int, default=7, help="target seed (default 7)")
    args = parser.parse_args(argv)
    for n in args.sizes:
        print(json.dumps(measure(n, args.seed, InstanceConfig())), flush=True)


if __name__ == "__main__":
    main()
