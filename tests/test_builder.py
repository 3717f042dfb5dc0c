"""Construction-side checks: plan recursion, certificates, kernel witness.

The frozen stage table below was derived independently: the canonical
point of each window interval by exhaustive denominator search, the
divisibility demands by direct rational arithmetic, and each Frobenius
exponent by a linear scan of the constraint predicates.  The oracle
`minimal_b_oracle` repeats that scan here, separate from the library code.
"""

import dataclasses
from fractions import Fraction

import pytest

import hahndisk.builder
from hahndisk.builder import (
    AlphaPlan,
    _minimal_b,
    assemble_alpha,
    build_adapted,
    build_plan,
    certificate_to_doc,
    extend,
    kernel_witness,
    plan_to_doc,
)
from hahndisk.errors import StageUnavailableError
from hahndisk.tate import SubstitutionMap, is_integral
from hahndisk.valgroup import smallest_zp_point
from hahndisk import InstanceConfig

F = Fraction

# (m, omega, v_e, b, v_eps) for p=3, gamma_x=1/2, v_s=1/4, 12 stages.
GOLDEN_STAGES = [
    (1, F(0), F(1, 9), 0, F(0)),
    (2, F(1), F(-1, 3), 3, F(0)),
    (3, F(-1), F(2, 3), 5, F(9)),
    (4, F(2), F(-8, 9), 8, F(9)),
    (5, F(-2), F(10, 9), 11, F(5832)),
    (6, F(3), F(-4, 3), 13, F(39366)),
    (7, F(-3), F(5, 3), 16, F(2125764)),
    (8, F(1, 3), F(0), 18, F(14348907)),
    (9, F(-1, 3), F(1, 3), 20, F(14348907)),
    (10, F(2, 3), F(-2, 9), 23, F(14348907)),
    (11, F(-2, 3), F(4, 9), 26, F(20920706406)),
    (12, F(4), F(-17, 9), 29, F(20920706406)),
]


def minimal_b_oracle(prior, w, v_eps, m, v_s, guard=None, p=3):
    """Brute scan for the least b meeting every stage inequality."""
    b = 0
    while True:
        ok = p**b * w > m and Fraction(v_eps, 1) / p**b < v_s - w
        if ok:
            for b_j in prior:
                gap = Fraction(p) ** (b - b_j) * w
                if not gap > 1 + v_s or (guard is not None and not gap > guard):
                    ok = False
                    break
        if ok:
            return b
        b += 1


def divisor_images(plan):
    """{stage m: (image of the stage term, image of its divisor monomial W)}
    through the substitution map: W is x1^(omega p^b), or x2^(-omega p^b)
    for a negative omega, so its image is read off `apply`, not off the
    demand's closed form."""
    field, ring, sub = plan.field, plan.ring, plan.substitution
    out = {}
    for st in plan.stages:
        x = st.omega * plan.config.p ** st.b
        w_mono = ring.monomial(1, 0, (x, 0, 0) if x >= 0 else (0, -x, 0))
        out[st.m] = (field.monomial(1, *plan.alpha_term_exps(st)), sub.apply(w_mono))
    return out


class TestBuildPlan:
    def test_opening_stage_is_pinned(self, plan):
        assert plan.stages[0].b == 0
        assert plan.stages[0].omega == 0

    def test_stage_one_window_point(self, plan):
        assert plan.stages[0].v_e == F(1, 9)

    def test_matches_frozen_table(self, plan):
        got = [(s.m, s.omega, s.v_e, s.b, s.v_eps) for s in plan.stages]
        assert got == GOLDEN_STAGES

    def test_invariant_replay(self, cfg, plan):
        # growth, window and separation re-evaluated from scratch
        p, gamma, v_s = cfg.p, cfg.gamma_x, cfg.v_s
        for idx, st in enumerate(plan.stages):
            w = st.v_e + st.omega * gamma
            assert 0 < w < v_s
            assert st.v_e == smallest_zp_point(
                -st.omega * gamma, -st.omega * gamma + v_s, p
            )
            assert st.v_eps >= 0
            if st.m >= 2:
                assert p**st.b * w > st.m
                assert st.v_eps / p**st.b < v_s - w
                for prev in plan.stages[:idx]:
                    assert Fraction(p) ** (st.b - prev.b) * w > 1 + v_s

    def test_minimality_via_oracle(self, extended_plans):
        # the builder starts its search above every earlier b and keeps the
        # demand as a running maximum; the scan from b = 0 against the
        # demand of every earlier stage must choose the same stages
        for plan in extended_plans:
            cfg = plan.config
            images = divisor_images(plan)
            for idx, st in enumerate(plan.stages):
                prior = plan.stages[:idx]
                # the demand from the image weights, not from its closed form
                assert st.v_eps == max([F(0)] + [
                    images[s.m][1].val_lower() - images[s.m][0].val_lower()
                    for s in prior])
                if st.m == 1:
                    continue
                w = st.v_e + st.omega * cfg.gamma_x
                guard = cfg.work_prec if st.m > cfg.stages else None
                assert st.b == minimal_b_oracle(
                    [s.b for s in prior], w, st.v_eps, st.m, cfg.v_s,
                    guard=guard, p=cfg.p), (cfg, st.m)

    def test_minimal_b_at_equality(self, plan):
        # the search compares cross-multiplied integers; inputs that put
        # growth, window, separation or the guard at equality for some b
        # must be decided as the strict Fraction inequalities decide them
        p, v_s, guard = plan.config.p, plan.config.v_s, plan.config.work_prec
        top_b, m = plan.stages[-1].b, len(plan.stages) + 1
        ws = [(1 + v_s) / p ** 2, (1 + v_s) / p ** 3, guard / p ** 5, guard / p ** 6,
              F(1, 2 * p ** 2), F(7, 2 * p ** 3)]
        ws += [F(m, p ** (top_b + k)) for k in (1, 2, 3)]
        for w in ws:
            assert 0 < w < v_s
            for v_eps in [F(0), F(1, p)] + [p ** (top_b + k) * (v_s - w) for k in (1, 2, 3)]:
                for base in (True, False):
                    want = minimal_b_oracle([st.b for st in plan.stages], w, v_eps, m, v_s,
                                            guard=None if base else guard, p=p)
                    got = _minimal_b(plan, m, w.numerator, w.denominator, v_eps, base)
                    assert got == want, (w, v_eps, base)

    def test_work_prec_floor(self):
        from hahndisk.errors import ConfigError

        with pytest.raises(ConfigError):
            # work_prec <= stages + 1 is rejected at the config level, so
            # build_plan needs no guard: work_prec > stages + 1 >= 2 > 1 + v_s
            InstanceConfig(stages=12, work_prec=13)
        with pytest.raises(ConfigError):
            InstanceConfig(stages=1, work_prec=F(9, 8))

    def test_doc_shape(self, plan):
        # format 3 records only the free choices: no v_c, per-stage index,
        # v_e or v_eps, and no kernel witnesses, which the verifier derives
        doc = plan_to_doc(plan)
        assert set(doc) == {"kind", "format", "instance", "stages"}
        assert doc["kind"] == "plan"
        assert doc["format"] == 3
        assert [set(st) for st in doc["stages"]] == [{"omega", "b"}] * len(plan.stages)

    def test_determinism(self, cfg, plan):
        again = build_plan(cfg)
        assert plan_to_doc(again) == plan_to_doc(plan)


class TestAssembleAlpha:
    def test_single_stage_is_one_monomial(self):
        cfg1 = InstanceConfig(stages=1, work_prec=F(6))
        alpha = assemble_alpha(build_plan(cfg1))
        assert alpha.terms == {(F(1, 9), F(0)): 1}
        assert alpha.precision == 2

    def test_valuation_in_window(self, cfg, plan):
        alpha = assemble_alpha(plan)
        st1 = plan.stages[0]
        assert alpha.val_lower() == st1.v_e + st1.omega * cfg.gamma_x
        assert 0 < alpha.val_lower() < cfg.v_s

    def test_integrality_and_tail(self, cfg, plan):
        alpha = assemble_alpha(plan)
        assert alpha.val_lower() >= 0
        assert alpha.precision == min(cfg.work_prec, F(len(plan.stages) + 1))
        assert alpha.terms == {(F(1, 9), F(0)): 1, (F(-9), F(27)): 1}


class TestAdaptedCertificates:
    def test_stage_one_shape(self, plan, ring3):
        cert = build_adapted(plan, 1)
        # the preimage is the bare third generator (eps_1 = 1, b_1 = 0)
        assert cert.preimage == ring3.var(3)
        assert cert.leading_exps == (F(1, 9), F(0))
        assert cert.leading_coeff == 1

    def test_all_stages_verify(self, cfg, plan, residue):
        for m in range(1, len(plan.stages) + 1):
            cert = build_adapted(plan, m)
            assert cert.ok
            st = plan.stages[m - 1]
            lead_w = residue.profile.weight(cert.leading_exps)
            assert 0 <= lead_w < cfg.v_s
            assert cert.leading_exps[1] == st.omega
            residual = cert.image - residue.monomial(
                cert.leading_coeff, *cert.leading_exps
            )
            rv = residual.val_lower()
            assert rv is None or rv > 1 + cfg.v_s

    def test_doc_shape(self, plan):
        # format 2 records each fact once: no v_s, leading monomial or check
        # records, which the verifier derives from the plan
        doc = certificate_to_doc(plan, build_adapted(plan, 3))
        assert set(doc) == {"kind", "format", "plan", "m", "q", "preimage", "image"}
        assert doc["kind"] == "certificate"
        assert doc["format"] == 2
        assert doc["plan"] == plan_to_doc(plan)
        assert (doc["m"], doc["q"]) == (3, "-1")

    def test_preimages_integral(self, plan):
        for m in range(1, len(plan.stages) + 1):
            assert is_integral(build_adapted(plan, m).preimage)

    def test_divisor_quotients_in_unit_ball(self, plan):
        # the exact quotients eps*stage/f(W) must have valuation >= 0
        images = divisor_images(plan)
        for idx, st in enumerate(plan.stages):
            for prev in plan.stages[:idx]:
                term, fw = images[prev.m]
                assert st.v_eps + term.val_lower() >= fw.val_lower()

    def test_quotients_match_series_product(self, extended_plans):
        # the canceller quotient of every earlier stage, in closed form and
        # as the series product eps * (stage term) * f(W)^-1; it is free of x
        for plan in extended_plans:
            field = plan.field
            images = divisor_images(plan)
            for idx, st in enumerate(plan.stages):
                eps_res = field.monomial(1, st.v_eps, 0)
                for prev in plan.stages[:idx]:
                    term, fw = images[prev.m]
                    want = eps_res * term * fw.invert()
                    got = field.monomial(1, st.v_eps - plan.d_requirement(prev), 0)
                    assert got == want

    def test_staged_sums_match_running_sums(self, extended_plans):
        # alpha, every image and every preimage are summed in one dict; a
        # sum built one `+` at a time has the same terms, in the same order,
        # and the same precision
        def running_sum(plan, stages, field, prec):
            total = field.zero(precision=prec)
            for st in stages:
                total = total + field.monomial(1, *plan.alpha_term_exps(st),
                                               precision=prec)
            return total

        def same(got, want):
            return got == want and list(got.terms) == list(want.terms)

        for plan in extended_plans:
            cfg = plan.config
            field, ring = plan.field, plan.ring
            prec = min(cfg.work_prec, F(len(plan.stages) + 1))
            assert same(assemble_alpha(plan),
                        running_sum(plan, plan.stages, field, prec))
            for m, st in enumerate(plan.stages, start=1):
                # the image is built in closed form; the running sum of the
                # stage tail, times eps and under the root, is the same
                tail = running_sum(plan, plan.stages[m - 1:], field,
                                   cfg.p ** st.b * cfg.work_prec)
                assert same(build_adapted(plan, m).image,
                            (field.monomial(1, st.v_eps, 0) * tail).frobenius(-st.b))
                head = ring.monomial(1, st.v_eps, (0, 0, 1))
                for prev in plan.stages[: m - 1]:
                    w = prev.omega * cfg.p ** prev.b
                    x_exps = (w, 0, 0) if w >= 0 else (0, -w, 0)
                    head = head - ring.monomial(
                        1, st.v_eps - plan.d_requirement(prev), x_exps)
                assert same(build_adapted(plan, m).preimage,
                            head.frobenius(-st.b))

    def test_image_consistency_with_substitution_route(self, cfg, plan):
        # the generic route evaluates the preimage through the map; the
        # recorded image must agree on every term both sides resolve
        sub = plan.substitution
        for m in range(1, len(plan.stages) + 1):
            cert = build_adapted(plan, m)
            assert not (sub.apply(cert.preimage, cfg.work_prec) - cert.image).terms

    def test_image_precision_covers_division_depth(self, cfg, plan):
        for m in range(1, len(plan.stages) + 1):
            cert = build_adapted(plan, m)
            assert cert.image.precision >= cfg.work_prec


class TestExtension:
    def test_known_exponent_is_reused(self, plan):
        assert extend(plan, F(1)) is plan
        assert plan.stage_index.get(F(1)).m == 2
        assert len(plan.stages) == 12

    def test_stage_index_is_handed_on(self, cfg):
        # an appended plan gets its parent's index plus the new stage; the
        # parent's index does not see it
        plan = build_plan(cfg)
        assert plan.stage_index.get(F(5, 9)) is None
        grown = extend(plan, F(5, 9))
        assert "stage_index" in vars(grown)
        assert grown.stage_index.get(F(5, 9)) is grown.stages[-1]
        assert plan.stage_index.get(F(5, 9)) is None
        assert grown.stage_index == {st.omega: st for st in grown.stages}

    def test_new_exponent_appends_verified_stage(self, cfg, plan):
        grown = extend(plan, F(5, 9))
        assert len(grown.stages) == len(plan.stages) + 1
        st = grown.stages[-1]
        cert = build_adapted(grown, st.m)
        assert cert.ok and cert.q == F(5, 9)
        w = st.v_e + st.omega * cfg.gamma_x
        for prev in grown.stages[:-1]:
            assert Fraction(cfg.p) ** (st.b - prev.b) * w > cfg.work_prec

    def test_extension_minimality_under_guard(self, cfg, plan):
        grown = extend(plan, F(5, 9))
        st = grown.stages[-1]
        prior = [s.b for s in grown.stages[:-1]]
        w = st.v_e + st.omega * cfg.gamma_x
        assert st.b == minimal_b_oracle(
            prior, w, st.v_eps, st.m, cfg.v_s, guard=cfg.work_prec
        )

    def test_non_padic_exponent_rejected(self, plan):
        with pytest.raises(StageUnavailableError):
            extend(plan, F(1, 2))

    def test_extend_leaves_the_plan_unchanged(self, plan):
        before = plan_to_doc(plan)
        grown = extend(extend(plan, F(5, 9)), F(-101, 9))
        assert plan_to_doc(plan) == before
        assert len(grown.stages) == len(plan.stages) + 2
        assert all(a is b for a, b in zip(grown.stages, plan.stages))
        assert extend(grown, F(5, 9)) is grown

    def test_plans_and_stages_are_frozen(self, plan):
        assert isinstance(plan.stages, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.stages = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.stages[0].b = 1


class TestDerivedObjects:
    def test_a_plan_is_its_config_and_stages(self):
        assert [f.name for f in dataclasses.fields(AlphaPlan)] == ["config", "stages"]
        assert not hasattr(hahndisk.builder, "standard_substitution")

    def test_derived_once_per_plan_value(self, cfg):
        plan = build_plan(cfg)
        assert plan.field is plan.field and plan.ring is plan.ring
        assert plan.substitution is plan.substitution
        assert plan.v_c == F(2, 3)
        assert plan.substitution.images[2] == assemble_alpha(plan)
        assert plan.substitution.images[1] == plan.field.monomial(1, plan.v_c, -1)

    def test_extension_shares_the_instance_objects(self, cfg):
        plan = build_plan(cfg)
        sub = plan.substitution
        grown = extend(plan, F(5, 9))
        # field, ring and v_c follow from the config; the map from the stages
        assert grown.field is plan.field and grown.ring is plan.ring
        assert grown.substitution is not sub
        assert grown.substitution.images[2] == assemble_alpha(grown)
        assert plan.substitution is sub


class TestKernelWitness:
    def test_witness_facts(self, plan):
        facts = kernel_witness(plan)
        assert facts["witness_valuation"] == F(1, 2)
        assert facts["witness_in_value_group"] is False
        assert facts["relation_maps_to_zero"] is True

    @staticmethod
    def _with_images(plan, x1_img, x2_img):
        """A copy of plan whose map sends x1 and x2 to the given images and
        x3 to alpha, so the facts must come from the images."""
        other = dataclasses.replace(plan)
        vars(other)["substitution"] = SubstitutionMap(
            other.ring, other.field, (x1_img, x2_img, plan.substitution.images[2]))
        return other

    def test_wrong_coefficient_does_not_vanish(self, plan, residue):
        other = self._with_images(plan, residue.x_power(1), residue.monomial(2, plan.v_c, -1))
        facts = kernel_witness(other)
        assert facts["witness_valuation"] == F(1, 2)
        assert facts["relation_maps_to_zero"] is False

    def test_finite_precision_does_not_vanish(self, cfg, plan, residue):
        inexact = residue.monomial(1, plan.v_c, -1, precision=cfg.work_prec)
        facts = kernel_witness(self._with_images(plan, residue.x_power(1), inexact))
        assert facts["relation_maps_to_zero"] is False

    def test_valuation_is_read_off_the_image(self, plan, residue):
        # x^2 weighs 2 * 1/2 = 1, which lies in Z[1/3]
        other = self._with_images(plan, residue.x_power(2), residue.monomial(1, plan.v_c, -1))
        facts = kernel_witness(other)
        assert facts["witness_valuation"] == 1
        assert facts["witness_in_value_group"] is True
        assert facts["relation_maps_to_zero"] is False
