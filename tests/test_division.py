import dataclasses
import random
from fractions import Fraction

import pytest

from hahndisk import InstanceConfig, division
from hahndisk.builder import (
    assemble_alpha,
    build_adapted,
    build_plan,
    plan_from_doc,
    plan_to_doc,
    standard_substitution,
)
from hahndisk.division import (
    normalize_target,
    run_division,
    slice_band,
    trace_to_doc,
)
from hahndisk.errors import ContractViolationError, UnresolvedError
from hahndisk.valgroup import EXACT, padic_denominator_exponent
from hahndisk.verify import verify_trace

from conftest import rand_normalized_target

F = Fraction


class TestNormalizeTarget:
    def test_already_normalized(self, residue, cfg):
        beta = residue.monomial(1, 1, 0)
        assert normalize_target(residue, beta, cfg.v_s) == (0, beta)

    def test_shallow_target_shifts_once(self, residue, cfg):
        beta = residue.x_power(F(1, 3))  # valuation 1/6 < 1/4
        k, shifted = normalize_target(residue, beta, cfg.v_s)
        assert k == 1
        assert shifted.val_lower() == F(1, 6) + 1

    def test_deep_target_untouched(self, residue, cfg):
        beta = residue.monomial(1, 2, 0)
        assert normalize_target(residue, beta, cfg.v_s)[0] == 0

    def test_negative_valuation(self, residue, cfg):
        beta = residue.monomial(1, -3, 0)
        k, shifted = normalize_target(residue, beta, cfg.v_s)
        assert k == 4 and shifted.val_lower() == 1

    def test_unresolved_rejected(self, residue, cfg):
        with pytest.raises(UnresolvedError):
            normalize_target(residue, residue.zero(precision=2), cfg.v_s)


class TestSliceBand:
    def test_zero_gives_empty(self, residue, cfg):
        band = slice_band(residue.zero(precision=10), 2, cfg.v_s)
        assert band.is_zero

    def test_single_term_in_band(self, residue, cfg):
        beta = residue.monomial(2, 1, 0)
        band = slice_band(beta, 0, cfg.v_s)
        assert band == residue.monomial(2, 1, 0)

    def test_boundary_is_half_open(self, residue):
        # With v_s = 1/4 and gamma_x = 1/2 every term weight lies in
        # (1/2)*Z[1/3], so the band boundary m + 5/4 is never attained and
        # the policy is exercised at the function level with v_s = 1/2,
        # where weight 0 + 1 + 1/2 is hit by t^1 x^1.
        v_s = F(1, 2)
        boundary = residue.monomial(1, 1, 1)   # weight 3/2 == 0 + 1 + v_s
        below = residue.monomial(1, 1, 0)      # weight 1 inside band 0
        beta = boundary + below
        band0 = slice_band(beta, 0, v_s)
        band1 = slice_band(beta, 1, v_s)
        assert band0.terms == below.terms
        assert band1.terms == boundary.terms

    def test_standard_instance_cannot_hit_boundary(self, residue, cfg):
        # 2*(m + 1 + v_s) has an even denominator while 2*weight = 2a + q
        # stays inside Z[1/3]; spot-check on random exponents
        rng = random.Random(4)
        for _ in range(300):
            a = F(rng.randint(-30, 30), 3 ** rng.randint(0, 3))
            q = F(rng.randint(-30, 30), 3 ** rng.randint(0, 3))
            w = a + q * cfg.gamma_x
            for m in range(6):
                assert w != m + 1 + cfg.v_s


class TestRunDivision:
    def test_zero_target_is_all_noops(self, plan_fresh, residue, ring3):
        beta = residue.zero()
        trace = run_division(plan_fresh, residue, ring3, beta, 5)
        assert trace.a_final.is_zero
        for step in trace.steps:
            assert step.e.is_zero and step.band.is_zero
        assert trace.final_beta.is_zero

    def test_single_monomial_one_step(self, cfg, plan_fresh, residue, ring3):
        # one band-0 term; the consumed certificate leaves its residual
        # beyond 1 + v_s
        beta = residue.monomial(1, F(10, 9), 0)
        trace = run_division(plan_fresh, residue, ring3, beta, 1)
        step = trace.steps[0]
        assert step.band == beta
        rv = step.beta_after.val_lower()
        assert rv is None or rv > 1 + cfg.v_s

    def test_round_trip_on_builder_images(self, cfg, plan_fresh, residue, ring3):
        c1 = build_adapted(plan_fresh, 1, residue, ring3)
        c2 = build_adapted(plan_fresh, 2, residue, ring3)
        beta = residue.monomial(1, 1, 0) * c1.image \
            + residue.monomial(1, 2, 0) * c2.image
        steps = 8
        trace = run_division(plan_fresh, residue, ring3, beta, steps)
        assert trace.final_val_lower >= steps + cfg.v_s
        prev = ring3.zero()
        for step in trace.steps:
            gap = (step.a_after - prev).val_lower()
            assert gap is None or gap >= step.m
            prev = step.a_after

    def test_contraction_on_random_targets(self, cfg, residue, ring3):
        rng = random.Random(cfg.seed + 3)
        for _ in range(5):
            plan = build_plan(cfg)
            beta = rand_normalized_target(rng, residue, cfg.v_s)
            trace = run_division(plan, residue, ring3, beta, 6)
            for step in trace.steps:
                val = step.beta_after.val_lower()
                assert val is None or val >= step.m + 1 + cfg.v_s
            assert trace.final_val_lower >= 6 + cfg.v_s

    def test_consistency_with_substitution_route(self, cfg, plan_fresh, residue, ring3):
        rng = random.Random(19)
        beta = rand_normalized_target(rng, residue, cfg.v_s)
        trace = run_division(plan_fresh, residue, ring3, beta, 4)
        sub = standard_substitution(plan_fresh, residue, ring3)
        for step in trace.steps:
            diff = sub.apply(step.a_after, cfg.work_prec) + step.beta_after - beta
            assert not diff.terms

    def test_unnormalized_target_rejected(self, plan_fresh, residue, ring3):
        beta = residue.x_power(F(1, 3))  # valuation 1/6 < v_s
        with pytest.raises(ContractViolationError):
            run_division(plan_fresh, residue, ring3, beta, 2)


class TestTraceSerialization:
    def test_replay_round_trip(self, cfg, plan_fresh, residue, ring3):
        rng = random.Random(29)
        beta = rand_normalized_target(rng, residue, cfg.v_s)
        trace = run_division(plan_fresh, residue, ring3, beta, 5)
        doc = trace_to_doc(trace)
        report = verify_trace(doc)
        assert report.ok, report.text()

    def test_doc_shape(self, plan_fresh, residue, ring3):
        beta = residue.monomial(1, 1, 0)
        trace = run_division(plan_fresh, residue, ring3, beta, 2)
        doc = trace_to_doc(trace, normalize_k=0)
        assert doc["kind"] == "trace"
        assert doc["steps_requested"] == 2
        assert len(doc["steps"]) == 2
        assert doc["plan"]["kind"] == "plan"
        assert set(doc["final"]) == {"bound", "residual", "val_lower"}


def reference_apply(sub, f, work_prec):
    """The term-by-term substitution route: a fresh power for every factor
    and a running sum with one validated series per term."""
    p = sub.ring.ground.p
    out = sub.field.zero()
    for exps, coeff in f.terms_sorted():
        term = sub.field.monomial(coeff, exps[0], 0)
        for i, q in enumerate(exps[1:]):
            if q:
                k = padic_denominator_exponent(q, p)
                power = sub.images[i].frobenius(-k) ** int(q * p ** k)
                if work_prec is not None and power.precision is not EXACT \
                        and power.precision > work_prec:
                    power = power.truncate(work_prec)
                term = term * power
        out = out + term
    if f.precision is not EXACT:
        out = out + sub.field.zero(precision=f.precision)
    if work_prec is not None and out.precision is not EXACT \
            and out.precision > work_prec:
        out = out.truncate(work_prec)
    return out


def _bump(c, p):
    return c + 1 if c + 1 < p else 1


class TestConsistencyCheck:
    @pytest.mark.parametrize("part", ["image", "preimage"])
    def test_corrupted_certificate_is_caught(self, part, cfg, plan_fresh, residue,
                                             ring3, monkeypatch):
        beta = residue.monomial(1, 1, 0)  # band 0, exponent 0 = stage 1
        cert = build_adapted(plan_fresh, 1, residue, ring3)
        series = getattr(cert, part)
        # image: its lightest non-leading term; preimage: its heaviest term.
        # Either way the division still reads the recorded leading monomial,
        # so the quotients and every valuation bound stay intact.
        exps, c = series.terms_sorted()[-1 if part == "preimage" else 1]
        terms = dict(series.terms)
        terms[exps] = _bump(c, cfg.p)
        bad = dataclasses.replace(
            cert, **{part: type(series)(series.profile, terms, series.precision)})
        plan_fresh._certs[1] = bad
        with pytest.raises(ContractViolationError, match="step 0: substitution route"):
            run_division(plan_fresh, residue, ring3, beta, 2)

        # the verifier rejects the same run on its own
        monkeypatch.setattr(division, "_check_consistency", lambda diff, where: None)
        doc = trace_to_doc(run_division(plan_fresh, residue, ring3, beta, 2))
        report = verify_trace(doc)
        assert not report.ok
        assert report.failures()[0].where == "step 0", report.text()

    def test_checks_every_step_then_the_whole(self, cfg, plan_fresh, residue, ring3,
                                              monkeypatch):
        seen = []
        check = division._check_consistency

        def spy(diff, where):
            seen.append(where)
            check(diff, where)

        monkeypatch.setattr(division, "_check_consistency", spy)
        beta = rand_normalized_target(random.Random(31), residue, cfg.v_s)
        run_division(plan_fresh, residue, ring3, beta, 3)
        assert seen == ["step 0", "step 1", "step 2", "final"]

    def test_stage_appended_mid_division(self, cfg, plan_fresh, residue, ring3):
        # t^1 is divided at step 0 by stage 1; t x^(5/9) lies in band 1 and
        # its exponent is off the enumeration, so step 1 appends a stage
        beta = residue.monomial(1, 1, 0) + residue.monomial(2, 1, F(5, 9))
        n0 = len(plan_fresh.stages)
        trace = run_division(plan_fresh, residue, ring3, beta, 3)
        assert len(plan_fresh.stages) == n0 + 1
        assert plan_fresh.stages[-1].omega == F(5, 9)
        assert trace.steps[1].band.terms == {(F(1), F(5, 9)): 2}
        sub = standard_substitution(plan_fresh, residue, ring3)
        assert sub.images[2] == assemble_alpha(plan_fresh, residue)
        report = verify_trace(trace_to_doc(trace))
        assert report.ok, report.text()

    def test_cached_map_matches_fresh_and_reference(self, cfg, plan_fresh, residue,
                                                    ring3):
        rng = random.Random(23)
        beta = rand_normalized_target(rng, residue, cfg.v_s)
        trace = run_division(plan_fresh, residue, ring3, beta, 4)
        cached = standard_substitution(plan_fresh, residue, ring3)
        assert standard_substitution(plan_fresh, residue, ring3) is cached
        twin = plan_from_doc(plan_to_doc(plan_fresh))
        fresh = standard_substitution(twin, residue, ring3)
        assert fresh is not cached
        x1, x3 = ring3.var(1), ring3.var(3)
        elements = [s.e for s in trace.steps] + [trace.a_final, x3, x1 * x3 * x3]
        # memos are keyed by work_prec: a low cap truncates the powers first
        for wp in (F(2), None, cfg.work_prec):
            for f in elements:
                want = reference_apply(fresh, f, wp)
                assert cached.apply(f, wp) == want
                assert fresh.apply(f, wp) == want


@pytest.mark.parametrize("p, gamma_x, v_s", [
    (5, F(1, 3), F(1, 2)),
    (7, F(1, 2), F(1, 8)),
])
def test_division_round_trip_other_instances(p, gamma_x, v_s):
    cfg = InstanceConfig(p=p, gamma_x=gamma_x, v_s=v_s)
    field, ring = cfg.residue(), cfg.tate(3)
    plan = build_plan(cfg)
    rng = random.Random(p)
    for _ in range(2):
        beta = rand_normalized_target(rng, field, v_s, max_terms=5)
        trace = run_division(plan, field, ring, beta, 4)
        for step in trace.steps:
            val = step.beta_after.val_lower()
            assert val is None or val >= step.m + 1 + v_s
        report = verify_trace(trace_to_doc(trace))
        assert report.ok, report.text()
