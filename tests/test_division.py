import dataclasses
import math
import random
from fractions import Fraction

import pytest

from hahndisk import InstanceConfig, builder, division
from hahndisk.builder import build_adapted, build_plan, dump_doc
from hahndisk.division import (
    normalize_target,
    run_division,
    trace_to_doc,
)
from hahndisk.errors import (
    AdaptednessFailedError,
    ConfigError,
    ContractViolationError,
    UnresolvedError,
)
from hahndisk.series import TruncatedSeries, render_series
from hahndisk.tate import SubstitutionMap
from hahndisk.valgroup import EXACT, padic_denominator_exponent
from hahndisk.verify import verify_certificate, verify_trace

from conftest import rand_normalized_target, step_corrections

F = Fraction


class TestNormalizeTarget:
    def test_already_normalized(self, plan, residue):
        beta = residue.monomial(1, 1, 0)
        assert normalize_target(plan, beta) == (0, beta)

    def test_shallow_target_shifts_once(self, plan, residue):
        beta = residue.x_power(F(1, 3))  # valuation 1/6 < 1/4
        k, shifted = normalize_target(plan, beta)
        assert k == 1
        assert shifted.val_lower() == F(1, 6) + 1

    def test_deep_target_untouched(self, plan, residue):
        beta = residue.monomial(1, 2, 0)
        assert normalize_target(plan, beta)[0] == 0

    def test_negative_valuation(self, plan, residue):
        beta = residue.monomial(1, -3, 0)
        k, shifted = normalize_target(plan, beta)
        assert k == 4 and shifted.val_lower() == 1

    def test_unresolved_rejected(self, plan, residue):
        with pytest.raises(UnresolvedError):
            normalize_target(plan, residue.zero(precision=2))

    def test_exact_zero_needs_no_shift(self, plan, residue):
        # the exact zero has valuation +infinity
        zero = residue.zero()
        assert zero.precision is None
        assert normalize_target(plan, zero) == (0, zero)


class TestSliceBand:
    def test_zero_gives_empty(self, residue, cfg):
        band = residue.zero(precision=10).window(2 + cfg.v_s, 3 + cfg.v_s)
        assert band.is_zero

    def test_single_term_in_band(self, residue, cfg):
        beta = residue.monomial(2, 1, 0)
        band = beta.window(cfg.v_s, 1 + cfg.v_s)
        assert band == residue.monomial(2, 1, 0)

    def test_boundary_is_half_open(self, residue):
        # A band is the window [m + v_s, m + 1 + v_s).  With v_s = 1/4 and
        # gamma_x = 1/2 every term weight lies in (1/2)*Z[1/3], so the band
        # boundary m + 5/4 is never attained and the policy is exercised on
        # the window itself with v_s = 1/2,
        # where weight 0 + 1 + 1/2 is hit by t^1 x^1.
        v_s = F(1, 2)
        boundary = residue.monomial(1, 1, 1)   # weight 3/2 == 0 + 1 + v_s
        below = residue.monomial(1, 1, 0)      # weight 1 inside band 0
        beta = boundary + below
        band0 = beta.window(v_s, 1 + v_s)
        band1 = beta.window(1 + v_s, 2 + v_s)
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
    def test_zero_target_is_all_noops(self, plan, residue):
        beta = residue.zero()
        trace = run_division(plan, beta, 5)
        assert run_division(plan, beta, 0).steps == []
        for step in trace.steps:
            assert step.quotients == () and step.band.is_zero
        assert trace.final_beta.is_zero

    def test_single_monomial_one_step(self, cfg, plan, residue):
        # one band-0 term; the consumed certificate leaves its residual
        # beyond 1 + v_s
        beta = residue.monomial(1, F(10, 9), 0)
        trace = run_division(plan, beta, 1)
        step = trace.steps[0]
        assert step.band == beta
        rv = step.beta_after.val_lower()
        assert rv is None or rv > 1 + cfg.v_s

    def test_round_trip_on_builder_images(self, cfg, plan, residue):
        c1 = build_adapted(plan, 1)
        c2 = build_adapted(plan, 2)
        beta = residue.monomial(1, 1, 0) * c1.image \
            + residue.monomial(1, 2, 0) * c2.image
        steps = 8
        trace = run_division(plan, beta, steps)
        assert trace.final_beta.val_lower() >= steps + cfg.v_s
        for m, e in enumerate(step_corrections(trace)):
            gap = e.val_lower()
            assert gap is None or gap >= m

    def test_contraction_on_random_targets(self, cfg, residue):
        rng = random.Random(3)
        for _ in range(5):
            plan = build_plan(cfg)
            beta = rand_normalized_target(rng, residue, cfg.v_s)
            trace = run_division(plan, beta, 6)
            for m, step in enumerate(trace.steps):
                val = step.beta_after.val_lower()
                assert val is None or val >= m + 1 + cfg.v_s
            assert trace.final_beta is trace.steps[-1].beta_after
            assert trace.final_beta.val_lower() >= 6 + cfg.v_s

    def test_consistency_with_substitution_route(self, cfg, plan, residue, ring3):
        rng = random.Random(19)
        beta = rand_normalized_target(rng, residue, cfg.v_s)
        trace = run_division(plan, beta, 4)
        sub = trace.plan.substitution
        a = ring3.zero()
        for m, (step, e) in enumerate(zip(trace.steps, step_corrections(trace))):
            gap = e.val_lower()
            assert gap is None or gap >= m
            a = a + e
            diff = sub.apply(a, cfg.work_prec) + step.beta_after - beta
            assert not diff.terms

    def test_unnormalized_target_rejected(self, plan, residue):
        beta = residue.x_power(F(1, 3))  # valuation 1/6 < v_s
        with pytest.raises(ContractViolationError):
            run_division(plan, beta, 2)

    def test_negative_steps_rejected_first(self, plan, residue):
        with pytest.raises(ConfigError, match="step count"):
            run_division(plan, residue.monomial(1, 1, 0), -1)
        # the step count is checked before the target's own bound
        with pytest.raises(ConfigError):
            run_division(plan, residue.x_power(F(1, 3)), -3)


class TestTraceSerialization:
    def test_replay_round_trip(self, cfg, plan, residue):
        rng = random.Random(29)
        beta = rand_normalized_target(rng, residue, cfg.v_s)
        trace = run_division(plan, beta, 5)
        doc = trace_to_doc(trace)
        report = verify_trace(doc)
        assert report.ok, report.text()

    def test_doc_shape(self, plan, residue):
        beta = residue.monomial(1, 1, 0)
        trace = run_division(plan, beta, 2)
        doc = trace_to_doc(trace, normalize_k=0)
        assert set(doc) == {"kind", "format", "plan", "target", "normalize_k",
                            "steps_requested", "steps"}
        assert doc["kind"] == "trace"
        assert doc["format"] == 4
        assert doc["steps_requested"] == 2
        # t^1 is band 0, divided by stage 1's leading monomial 1 t^(1/9)
        assert doc["steps"] == [[["0", "1 t^8/9\nO(EXACT)\n"]], []]
        assert doc["plan"]["kind"] == "plan"

    def test_size_at_128_target_terms(self, cfg, plan, residue):
        # each term shifted by a whole power of t into a band the division
        # reaches; format 3 recorded 314 kB for this trace
        rng = random.Random(128)
        terms = {}
        while len(terms) < 128:
            q = F(rng.randint(-8, 8), 3 ** rng.randint(0, 2))
            t_exp = F(rng.randint(-8, 8), 3 ** rng.randint(0, 2))
            t_exp += math.ceil(rng.randrange(8) + cfg.v_s - t_exp - q * cfg.gamma_x)
            terms[(t_exp, q)] = rng.randint(1, 2)
        beta = TruncatedSeries(residue.profile, terms, None)
        doc = trace_to_doc(run_division(plan, beta, 8))
        report = verify_trace(doc)
        assert report.ok, report.text()
        assert len(dump_doc(doc)) < 20_000


@pytest.fixture
def built_maps(monkeypatch):
    """Every substitution map a plan builds, in order."""
    built = []

    def spy(*args):
        built.append(SubstitutionMap(*args))
        return built[-1]

    monkeypatch.setattr(builder, "SubstitutionMap", spy)
    return built


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


def divisor_identity_holds(plan, st):
    """Fact (a) for stage st, through the plan's map: t^(-d) W maps to the
    stage term, exactly."""
    got = plan.substitution.apply(
        plan.ring.monomial(1, -plan.d_requirement(st), plan.divisor_exps(st)))
    return got == plan.field.monomial(1, *plan.alpha_term_exps(st))


class TestConsistencyCheck:
    @pytest.mark.parametrize("part", ["image", "preimage"])
    def test_corrupted_certificate_is_caught(self, part, cfg, plan, residue, monkeypatch):
        if part == "image":
            beta = residue.monomial(1, 1, 0)  # band 0, exponent 0 = stage 1
            cert = build_adapted(plan, 1)
            # its lightest non-leading term: the division still reads the
            # recorded leading monomial, so every valuation bound stays intact
            exps, c = cert.image.terms_sorted()[1]
            terms = {**cert.image.terms, exps: _bump(c, cfg.p)}
            bad = dataclasses.replace(cert, image=TruncatedSeries(
                cert.image.profile, terms, cert.image.precision))
            monkeypatch.setattr(builder, "build_adapted", lambda plan, m: (
                bad if m == 1 else build_adapted(plan, m)))
            with pytest.raises(ContractViolationError,
                               match="stage 1: the image disagrees with the root of alpha"):
                run_division(plan, beta, 2)
            # unchecked, the run records the honest quotients: the bumped
            # term reaches no quotient in 2 steps, so the trace equals the
            # one run on the honest certificate and verifies
            monkeypatch.setattr(division, "_check_divisors", lambda *args: None)
            doc = trace_to_doc(run_division(plan, beta, 2))
            monkeypatch.undo()  # the honest certificate and check
            assert doc == trace_to_doc(run_division(plan, beta, 2))
            report = verify_trace(doc)
            assert report.ok, report.text()
            return

        # a preimage no longer reaches a division: one that would be wrong
        # changes no byte of the trace, which still verifies
        beta = residue.monomial(1, 1, F(-1, 3))  # band 0, stage 9
        honest = trace_to_doc(run_division(plan, beta, 2))
        preimage = builder.build_preimage(plan, 9)
        exps, c = preimage.terms_sorted()[-1]  # its heaviest term
        bad = TruncatedSeries(preimage.profile, {**preimage.terms, exps: _bump(c, cfg.p)},
                              preimage.precision)
        built = []
        monkeypatch.setattr(builder, "build_preimage",
                            lambda plan, m: built.append(m) or bad)
        assert trace_to_doc(run_division(plan, beta, 2)) == honest
        assert built == []
        # the certificate verifier catches it in a certificate document
        doc = builder.certificate_to_doc(plan, build_adapted(plan, 9))
        assert built == [9] and doc["preimage"] == render_series(bad)
        monkeypatch.undo()
        report = verify_certificate(doc)
        assert [(f.where, f.message) for f in report.failures()] == [
            ("certificate stage 9", "recorded preimage equals the transcript-derived preimage")]
        # a canceller that leaves the unit ball, from an eps below an
        # earlier stage's demand, fails the adapted path's preimage and,
        # without any preimage, the division
        st9 = plan.stages[8]
        low = dataclasses.replace(plan, stages=plan.stages[:8] + (
            dataclasses.replace(st9, v_eps=F(0)),) + plan.stages[9:])
        with pytest.raises(AdaptednessFailedError, match="divisor quotient for stage 2"):
            builder.certificate_to_doc(low, build_adapted(low, 9))
        with pytest.raises(AdaptednessFailedError, match="stage 9: eps has valuation 0"):
            run_division(low, beta, 2)

    @pytest.mark.parametrize("i, corrupt, m", [
        (0, lambda f, v_c: f.monomial(2, 0, 1), 2),  # x1 -> 2 x
        (1, lambda f, v_c: f.monomial(1, v_c + 1, -1), 3),  # x2 -> t c x^-1
        (1, lambda f, v_c: f.monomial(1, v_c, -1, precision=v_c + 5), 3),  # inexact
        (0, lambda f, v_c: f.x_power(1) + f.monomial(1, 3, 0), 2),  # two terms
    ], ids=["coefficient", "key", "inexact", "two terms"])
    def test_corrupted_divisor_identity_is_caught(self, i, corrupt, m, cfg, residue):
        # fact (a) is read off the images of x1 and x2: with one of them
        # corrupted, the first stage whose divisor monomial uses it fails,
        # stage 2 (omega = 1) for x1 and stage 3 (omega = -1) for x2; the
        # map is corrupted on a private copy, not on the shared plan
        plan = dataclasses.replace(build_plan(cfg))
        images = list(plan.substitution.images)
        images[i] = corrupt(plan.field, plan.v_c)
        vars(plan)["substitution"] = SubstitutionMap(plan.ring, plan.field, images)
        beta = residue.monomial(1, 1, F(-1, 3))  # band 0, stage 9
        with pytest.raises(ContractViolationError,
                           match=f"^stage {m}: the divisor monomial does not map"):
            run_division(plan, beta, 2)

    def test_checks_each_stage_up_to_the_highest_used_once(self, cfg, plan, residue,
                                                           monkeypatch):
        seen = []
        divisor_exps = builder.AlphaPlan.divisor_exps

        def spy(self, st):
            seen.append(st.m)
            return divisor_exps(self, st)

        monkeypatch.setattr(builder.AlphaPlan, "divisor_exps", spy)
        # steps 1 and 2 both divide by the stage of exponent -3
        beta = rand_normalized_target(random.Random(35), residue, cfg.v_s)
        trace = run_division(plan, beta, 3)
        qs = [q for step in trace.steps for q, _ in step.quotients]
        used = {trace.plan.stage_index.get(q).m for q in qs}
        assert 1 < len(used) < len(qs)
        # fact (a) at every stage up to the highest used, each once, unused
        # stages included
        assert seen == list(range(1, max(used) + 1))
        assert used < set(seen)

    def test_divisor_identity_on_every_instance(self, extended_plans):
        # fact (a) through the map on every stage of the four instances,
        # p = 5 and p = 7 included, each with three appended stages; the
        # last stage's certificate verifies
        for plan in extended_plans:
            assert all(divisor_identity_holds(plan, st) for st in plan.stages)
            n = len(plan.stages)
            report = verify_certificate(builder.certificate_to_doc(plan, build_adapted(plan, n)))
            assert report.ok, report.text()

    def test_stage_appended_mid_division(self, cfg, residue, built_maps):
        # t^1 is divided at step 0 by stage 1; t x^(5/9) lies in band 1 and
        # its exponent is off the enumeration, so step 1 appends a stage.  A
        # private copy of the shared plan has no map yet, so the check below
        # sees whether the run builds one for it
        plan = dataclasses.replace(build_plan(cfg))
        beta = residue.monomial(1, 1, 0) + residue.monomial(2, 1, F(5, 9))
        n0 = len(plan.stages)
        trace = run_division(plan, beta, 3)
        assert len(plan.stages) == n0
        assert len(trace.plan.stages) == n0 + 1
        assert trace.plan.stages[-1].omega == F(5, 9)
        assert trace.steps[1].band.terms == {(F(1), F(5, 9)): 2}
        # every stage up to the appended one is checked against the map of
        # the extended plan, the one map the run builds, and fact (a) holds
        # at each, the appended stage included
        assert len(built_maps) == 1 and built_maps[0] is trace.plan.substitution
        assert "substitution" not in vars(plan)
        assert all(divisor_identity_holds(trace.plan, st) for st in trace.plan.stages)
        report = verify_trace(trace_to_doc(trace))
        assert report.ok, report.text()

    def test_divisions_on_a_shared_plan_match_fresh_plans(self, cfg, plan, residue):
        # the first target appends the stage 5/9; the second division must
        # not see it
        targets = [residue.monomial(1, 1, 0) + residue.monomial(2, 1, F(5, 9)),
                   rand_normalized_target(random.Random(37), residue, cfg.v_s)]
        n0 = len(plan.stages)
        shared = [trace_to_doc(run_division(plan, beta, 3)) for beta in targets]
        fresh = [trace_to_doc(run_division(build_plan(cfg), beta, 3)) for beta in targets]
        assert len(shared[0]["plan"]["stages"]) == n0 + 1
        assert shared == fresh

    def test_cached_map_matches_fresh_and_reference(self, cfg, residue, ring3, built_maps):
        rng = random.Random(23)
        beta = rand_normalized_target(rng, residue, cfg.v_s)
        trace = run_division(build_plan(cfg), beta, 4)
        # the run builds one map, that of the plan it returns; an equal plan
        # value builds its own
        (cached,) = built_maps
        assert cached is trace.plan.substitution
        fresh = dataclasses.replace(trace.plan).substitution
        assert fresh is not cached
        x1, x3 = ring3.var(1), ring3.var(3)
        corrections = step_corrections(trace)
        a = sum(corrections, ring3.zero())
        elements = corrections + [a, x3, x1 * x3 * x3]
        # a low cap truncates the image powers before they are multiplied
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
    plan = build_plan(cfg)
    rng = random.Random(p)
    for _ in range(2):
        beta = rand_normalized_target(rng, plan.field, v_s, max_terms=5)
        trace = run_division(plan, beta, 4)
        for m, step in enumerate(trace.steps):
            val = step.beta_after.val_lower()
            assert val is None or val >= m + 1 + v_s
        report = verify_trace(trace_to_doc(trace))
        assert report.ok, report.text()
