"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Every expected value is an exact rational computed by an
independent route (brute-force oracle, exhaustive search, or direct
arithmetic on the transcript numbers); no tolerance is floating-point.
"""

import copy
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from hahndisk import InstanceConfig
from hahndisk.errors import AmbiguousLeadingError
from hahndisk.builder import (
    build_adapted,
    build_plan,
    kernel_witness,
    plan_summary,
    plan_to_doc,
    standard_substitution,
)
from hahndisk.cli import main as cli_main
from hahndisk.division import run_division, trace_to_doc
from hahndisk.series import TruncatedSeries, random_series
from hahndisk.tate import TateRing, disk_seminorm, type_ii_lower_bound
from hahndisk.verify import verify_plan, verify_trace

from conftest import INSTANCES, rand_normalized_target

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(num, description, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL criterion {num}: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE PASS criterion {num} ({elapsed:.2f}s): {description}")
    assert elapsed < limit_seconds, (
        f"criterion {num} took {elapsed:.2f}s, limit {limit_seconds}s"
    )


def schoolbook_mul(f, g):
    p = f.profile.p
    acc = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            acc[key] = (acc.get(key, 0) + c1 * c2) % p
    fv = f.val_lower() if f.terms else f.precision
    gv = g.val_lower() if g.terms else g.precision
    prec = None
    for cand in (
        None if (f.precision is None or gv is None) else f.precision + gv,
        None if (g.precision is None or fv is None) else g.precision + fv,
    ):
        if cand is not None and (prec is None or cand < prec):
            prec = cand
    return TruncatedSeries(f.profile, acc, prec)


def test_criterion_1_series_engine_laws(cfg, residue):
    with criterion(1, "series engine laws on 1000 seeded random pairs", 10):
        rng = random.Random(cfg.seed + 1)
        profile = residue.profile
        for _ in range(1000):
            f = random_series(rng, profile, max_terms=12, max_prec=20)
            g = random_series(rng, profile, max_terms=12, max_prec=20)
            fg = f * g
            assert fg == schoolbook_mul(f, g)
            assert fg.val_lower() == f.val_lower() + g.val_lower()
            s = f + g
            vs = s.val_lower()
            if vs is not None:
                assert vs >= min(f.val_lower(), g.val_lower())
            if f.val_lower() != g.val_lower():
                assert vs == min(f.val_lower(), g.val_lower())
        # distributivity spot-check on triples from the same stream
        for _ in range(200):
            f = random_series(rng, profile, max_terms=6, max_prec=20)
            g = random_series(rng, profile, max_terms=6, max_prec=20)
            h = random_series(rng, profile, max_terms=6, max_prec=20)
            assert f * (g + h) == f * g + f * h
        # inversion round-trips within the contracted precision
        done = 0
        while done < 1000:
            f = random_series(rng, profile, max_terms=12, max_prec=20, max_k=1,
                              max_num=9)
            v = f.val_lower()
            target = v + 2
            if f.precision is not None and f.precision - 2 * v < target:
                continue
            try:
                g = f.invert(target)
            except AmbiguousLeadingError:
                continue  # leading-weight tie: nothing to extract
            r = f * g - TruncatedSeries.one(profile)
            assert r.is_zero
            if g.precision is None:  # exact monomial: inverse is exact
                assert len(f.terms) == 1 and r.precision is None
            else:
                assert r.precision == target + v
            done += 1


def test_criterion_2_frobenius_perfectness(cfg, residue):
    with criterion(2, "Frobenius roots and ring-map laws on 1000 pairs", 5):
        rng = random.Random(cfg.seed + 2)
        profile = residue.profile
        for _ in range(1000):
            f = random_series(rng, profile, max_terms=10, max_prec=20)
            g = random_series(rng, profile, max_terms=10, max_prec=20)
            assert f.frobenius(1).frobenius(-1) == f
            assert f.frobenius(-1).frobenius(1) == f
            assert (f * g).frobenius(1) == f.frobenius(1) * g.frobenius(1)
            assert (f + g).frobenius(1) == f.frobenius(1) + g.frobenius(1)


def test_criterion_3_counterexample_construction(cfg):
    with criterion(3, "12-stage construction with verified certificates", 60):
        assert (cfg.p, cfg.gamma_x, cfg.v_s, cfg.stages, cfg.work_prec) == (
            3, F(1, 2), F(1, 4), 12, F(26))
        for p, gamma_x, v_s in INSTANCES:
            inst = InstanceConfig(p=p, gamma_x=gamma_x, v_s=v_s)
            residue, ring3 = inst.residue(), inst.tate(3)
            plan = build_plan(inst)
            report = verify_plan(
                plan_to_doc(plan, summary=plan_summary(plan, residue, ring3)))
            assert report.ok, report.text()
            for m in range(1, 13):
                cert = build_adapted(plan, m, residue, ring3)
                assert cert.ok
                lead_w = residue.profile.weight(cert.leading_exps)
                assert 0 <= lead_w < v_s
                assert cert.leading_exps[1] == plan.stages[m - 1].omega
                residual = cert.image - residue.monomial(
                    cert.leading_coeff, *cert.leading_exps)
                rv = residual.val_lower()
                assert rv is None or rv > 1 + v_s


def test_criterion_4_non_evaluation_witness(cfg, residue, ring3, plan):
    with criterion(4, "kernel witness: valuation 1/2 outside Z[1/3], relation to 0", 1):
        facts = kernel_witness(plan, residue, ring3)
        assert facts["witness_valuation"] == F(1, 2)
        assert facts["witness_in_value_group"] is False
        assert not residue.ground.contains_value(F(1, 2))
        assert facts["relation_maps_to_zero"] is True


def test_criterion_5_division_contraction(cfg, residue, ring3):
    with criterion(5, "certified division: 20 random + round-trip targets, 8 steps", 120):
        rng = random.Random(cfg.seed + 5)
        steps = 8

        def check_trace(plan, beta, trace):
            for step in trace.steps:
                val = step.beta_after.val_lower()
                assert val is None or val >= step.m + 1 + cfg.v_s
            prev = ring3.zero()
            for step in trace.steps:
                gap = (step.a_after - prev).val_lower()
                assert gap is None or gap >= step.m
                prev = step.a_after
            assert trace.final_val_lower is None or \
                trace.final_val_lower >= steps + cfg.v_s
            # f(a_M) - beta = -beta_M on the certificate route; the generic
            # substitution route must agree on every term it resolves
            sub = standard_substitution(plan, residue, ring3)
            diff = sub.apply(trace.a_final, cfg.work_prec) \
                + trace.final_beta - beta
            assert not diff.terms

        for _ in range(20):
            plan = build_plan(cfg)
            beta = rand_normalized_target(rng, residue, cfg.v_s, max_terms=8)
            trace = run_division(plan, residue, ring3, beta, steps)
            check_trace(plan, beta, trace)

        # round-trips through builder-produced integral elements
        plan = build_plan(cfg)
        c1 = build_adapted(plan, 1, residue, ring3)
        c2 = build_adapted(plan, 2, residue, ring3)
        c3 = build_adapted(plan, 3, residue, ring3)
        targets = [
            residue.monomial(1, 1, 0) * c1.image,
            residue.monomial(1, 1, 0) * c2.image
            + residue.monomial(2, 2, 0) * c3.image,
            residue.monomial(2, 3, 0) * c1.image
            + residue.monomial(1, 1, 0) * c3.image,
        ]
        for beta in targets:
            plan_rt = build_plan(cfg)
            trace = run_division(plan_rt, residue, ring3, beta, steps)
            check_trace(plan_rt, beta, trace)


def test_criterion_6_type_ii_lower_bound(cfg, ground):
    with criterion(6, "positive seminorm bound at 250 value-group points", 10):
        rng = random.Random(cfg.seed + 6)
        ring1 = TateRing(ground, 1)
        for _ in range(50):
            terms = {}
            for _ in range(rng.randint(1, 10)):
                t_exp = F(rng.randint(-12, 12), 3 ** rng.randint(0, 2))
                x_exp = F(rng.randint(0, 12), 3 ** rng.randint(0, 2))
                terms[(t_exp, x_exp)] = rng.randint(1, 2)
            f = TruncatedSeries(ring1.profile, terms, None)
            for _ in range(5):
                rho = F(rng.randint(0, 18), 3 ** rng.randint(0, 2))
                bound = type_ii_lower_bound(f, rho)
                assert bound is not None  # additively finite: norm >= e^-bound > 0
                assert disk_seminorm(f, (rho,)) <= bound


def test_criterion_7_determinism_and_verification(tmp_path):
    with criterion(7, "byte-identical builds; 10 located mutation failures", 30):
        for p, gamma_x, v_s in INSTANCES:
            check_determinism_and_mutations(
                InstanceConfig(p=p, gamma_x=gamma_x, v_s=v_s), tmp_path / f"{p}-{v_s}")


def check_determinism_and_mutations(cfg, out):
    flags = ["--p", str(cfg.p), "--gamma-x", str(cfg.gamma_x), "--v-s", str(cfg.v_s)]
    out_a, out_b = out / "a", out / "b"
    assert cli_main(["build", "--out", str(out_a)] + flags) == 0
    assert cli_main(["build", "--out", str(out_b)] + flags) == 0
    for name in ("plan.json", "alpha.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        if cfg == InstanceConfig():
            assert (out_a / name).read_bytes() == (GOLDEN / name).read_bytes()
    assert cli_main(["verify", str(out_a / "plan.json")]) == 0

    residue, ring3 = cfg.residue(), cfg.tate(3)
    plan_doc = json.loads((out_a / "plan.json").read_text())
    plan = build_plan(cfg)
    rng = random.Random(cfg.seed + 7)
    beta = rand_normalized_target(rng, residue, cfg.v_s)
    trace_doc = trace_to_doc(run_division(plan, residue, ring3, beta, 5))
    assert verify_trace(trace_doc).ok

    def plan_mut(doc, rng):
        i = rng.randint(1, 11)
        field_name, value = rng.choice([
            ("b", doc["stages"][i]["b"] - 1),
            ("b", doc["stages"][i]["b"] + 1),
            ("v_eps", str(Fraction(doc["stages"][i]["v_eps"]) + 1)),
            ("v_e", str(Fraction(doc["stages"][i]["v_e"]) + 1)),
        ])
        doc["stages"][i][field_name] = value
        return f"stage {i + 1}", verify_plan

    def trace_mut(doc, rng):
        k = rng.randrange(len(doc["steps"]))
        choice = rng.randrange(3)
        if choice == 0:
            # the band floor is k + v_s, so 1/8 is off unless k = 0, v_s = 1/8
            doc["steps"][k]["bound"] = "1/8" if k + cfg.v_s != F(1, 8) else "1/4"
        elif choice == 1:
            text = doc["steps"][k]["beta_after"]
            # inject a low-weight term that survives the precision filter
            doc["steps"][k]["beta_after"] = text.replace("O(", "1 t^-20\nO(", 1)
        else:
            doc["steps"][k]["e"] = "1 t^0\nO(EXACT)\n"
            return f"step {k}", verify_trace
        return f"step {k}", verify_trace

    detected = 0
    for i in range(10):
        mut_rng = random.Random(1000 + i)
        if i % 2 == 0:
            tampered = copy.deepcopy(plan_doc)
            where, checker = plan_mut(tampered, mut_rng)
        else:
            tampered = copy.deepcopy(trace_doc)
            where, checker = trace_mut(tampered, mut_rng)
        report = checker(tampered)
        assert not report.ok, f"{cfg}: mutation {i} at {where} was missed"
        assert any(f.where == where for f in report.failures()), (
            f"{cfg}: mutation {i}: expected failure at {where}, "
            f"got {[f.where for f in report.failures()]}")
        detected += 1
    assert detected == 10
