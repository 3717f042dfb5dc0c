"""Divisions that append many stages, from the seeded generator in
`scripts/many_stages.py`."""

import importlib.util
import random
import time
from fractions import Fraction
from pathlib import Path

from hahndisk import InstanceConfig
from hahndisk.builder import build_adapted, build_plan
from hahndisk.division import run_division, trace_to_doc
from hahndisk.series import TruncatedSeries
from hahndisk.verify import verify_trace

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "many_stages.py"


def load_generator():
    spec = importlib.util.spec_from_file_location("many_stages", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_division_appending_over_100_stages_verifies():
    many_stages = load_generator()
    cfg = InstanceConfig()
    plan = build_plan(cfg)
    beta = many_stages.many_stage_target(random.Random(7), plan.field, cfg.v_s, 128)
    start = time.perf_counter()
    trace = run_division(plan, beta, many_stages.BANDS)
    report = verify_trace(trace_to_doc(trace))
    elapsed = time.perf_counter() - start
    assert report.ok, report.text()
    stages = trace.plan.stages
    assert len(stages) - cfg.stages >= 100
    # 0.8 s before divisions checked each stage's divisor identity once
    # (2 cores, CPython 3.11); the budget leaves room for a slower host
    assert elapsed < 6, f"divide and verify took {elapsed:.2f}s, budget 6s"
    # a certificate image skips the stages appended after its own, which
    # the tail guard puts past its precision: the full tail gives the same
    for m in (1, cfg.stages, cfg.stages + 1, len(stages)):
        st = stages[m - 1]
        root = Fraction(1, cfg.p ** st.b)
        full = TruncatedSeries.from_terms(plan.field.profile, (
            (((st.v_eps + a) * root, x * root), 1)
            for a, x in map(trace.plan.alpha_term_exps, stages[m - 1:])),
            st.v_eps * root + cfg.work_prec)
        image = build_adapted(trace.plan, m).image
        assert image == full and list(image.terms) == list(full.terms)
