"""The independent checker must accept honest documents and localize any
single tampered field."""

import ast
import copy
import dataclasses
import hashlib
import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hahndisk
import hahndisk.builder
import hahndisk.cli
import hahndisk.config
import hahndisk.division
import hahndisk.errors
import hahndisk.fields
import hahndisk.series
import hahndisk.tate
import hahndisk.valgroup
import hahndisk.verify
from hahndisk import InstanceConfig
from hahndisk.builder import (
    build_adapted,
    build_plan,
    certificate_to_doc,
    certify,
    extend,
    plan_to_doc,
)
from hahndisk.config import MAX_B_SEARCH, MAX_P
from hahndisk.errors import ConfigError, HahndiskError
from hahndisk.series import TruncatedSeries, parse_series
from hahndisk.division import normalize_target, run_division, trace_to_doc
from hahndisk.tate import is_integral
from hahndisk.valgroup import is_in_zp, smallest_zp_point
from hahndisk.verify import (
    Report,
    verify_certificate,
    verify_document,
    verify_plan,
    verify_trace,
)

from conftest import INSTANCES, rand_normalized_target

F = Fraction
DATA = Path(__file__).parent / "data"


def unreduced(text):
    """A rational's text over twice its denominator, e.g. 2/6 for 1/3."""
    q = Fraction(text)
    return f"{2 * q.numerator}/{2 * q.denominator}"


def swap_terms(text):
    """Series text with its first two term lines swapped: the same series,
    not in canonical order."""
    lines = text.splitlines(keepends=True)
    return "".join([lines[1], lines[0]] + lines[2:])


def unreduce_exponent(text):
    """Series text with the t-exponent of its first term unreduced: the
    same series, not canonical."""
    first, rest = text.split("\n", 1)
    coeff, t_exp, *xs = first.split()
    return " ".join([coeff, "t^" + unreduced(t_exp[2:]), *xs]) + "\n" + rest


def derived_stages(doc):
    """(m, omega, v_e, b, v_eps) of every stage of a format-3 plan document,
    derived here: v_e the canonical point of the stage window, and v_eps
    the largest demand weight(f(W)) - weight(stage term) of the earlier
    stages, with the weights written out."""
    cfg = InstanceConfig.from_dict(doc["instance"])
    p, gamma_x, v_s = cfg.p, cfg.gamma_x, cfg.v_s
    v_c = smallest_zp_point(gamma_x, gamma_x + v_s, p)
    out, demand = [], Fraction(0)
    for m, st in enumerate(doc["stages"], start=1):
        omega, b = Fraction(st["omega"]), st["b"]
        v_e = smallest_zp_point(-omega * gamma_x, -omega * gamma_x + v_s, p)
        out.append((m, omega, v_e, b, demand))
        # W is x1^(omega p^b), or x2^(-omega p^b) with image (c/x)^(-omega p^b)
        fw = p ** b * (omega * gamma_x - min(omega, 0) * v_c)
        demand = max(demand, fw - p ** b * (v_e + omega * gamma_x))
    return out


def scanned_verdicts(doc, start):
    """{stage m: (the constraints hold at b, no b' < b meets them)} from
    stage index `start` on: separation against every earlier stage, and
    minimality by scanning every b'."""
    cfg = InstanceConfig.from_dict(doc["instance"])
    p, gamma_x, v_s, guard = cfg.p, cfg.gamma_x, cfg.v_s, cfg.work_prec
    stages = [(m, b, v_e + omega * gamma_x, v_eps)
              for m, omega, v_e, b, v_eps in derived_stages(doc)]

    def hold(idx, b):
        m, _, w, v_eps = stages[idx]
        if not (p ** b * w > idx + 1 and v_eps / p ** b < v_s - w):
            return False
        for _, b_j, _, _ in stages[:idx]:
            gap = Fraction(p) ** (b - b_j) * w
            if not gap > 1 + v_s or (m > cfg.stages and not gap > guard):
                return False
        return True

    return {m: (hold(idx, b), not any(hold(idx, bb) for bb in range(b)))
            for idx, (m, b, _, _) in enumerate(stages[start:], start=start)}


def reported_verdicts(doc, start):
    """{stage m: the verifier's verdicts that the constraints hold at b and
    that b is minimal} from stage index `start` on."""
    report = verify_plan(doc)
    verdicts = {}
    for m, row in enumerate(doc["stages"][start:], start=start + 1):
        (holds, minimal) = [
            f.ok for f in report.findings if f.where == f"stage {m}" and f.message in (
                f"growth, window and separation hold at b = {row['b']}",
                f"b = {row['b']} is minimal")]
        verdicts[m] = (holds, minimal)
    return verdicts


def built_image_findings(doc):
    """The image facts of every stage read off its built image series (the
    image through the validating constructor, then its leading term and
    the valuation of the rest): the reference for what a passing plan
    implies.  The leading exponent is the stage exponent on every built
    image."""
    cfg = InstanceConfig.from_dict(doc["instance"])
    p, v_s, profile, guard = cfg.p, cfg.v_s, cfg.residue().profile, cfg.work_prec
    rows = derived_stages(doc)
    findings = []
    for idx, (m, omega, _, b, v_eps) in enumerate(rows):
        scale = p ** b
        terms = {}
        for _, omega_l, v_e_l, b_l, _ in rows[idx:]:
            key = ((v_eps + p ** b_l * v_e_l) / scale, Fraction(omega_l * p ** b_l, scale))
            terms[key] = (terms.get(key, 0) + 1) % p
        image = TruncatedSeries(profile, terms, v_eps / scale + guard)
        where = f"stage {m} image"
        lead = image.leading()
        if lead is None:
            findings.append((False, where, "image has no resolved leading term"))
            continue
        w0, exps, coeff = lead
        assert exps[1] == omega, (where, exps)
        res_val = (image - TruncatedSeries.monomial(profile, coeff, exps)).val_lower()
        findings += [
            (0 <= w0 < v_s, where, f"leading value {w0} inside [0, {v_s})"),
            (res_val is None or res_val > 1 + v_s, where,
             f"residual valuation {res_val} beyond {1 + v_s}"),
        ]
    return findings


class TestPlanVerification:
    def test_accepts_fresh_plan(self, plan):
        report = verify_plan(plan_to_doc(plan))
        assert report.ok, report.text()

    def test_rejects_wrong_kind(self):
        report = verify_plan({"kind": "nonsense"})
        assert not report.ok

    def test_stage_mutations_are_localized(self, plan):
        doc = plan_to_doc(plan)
        mutations = [
            ("stage 5", lambda d: d["stages"][4].__setitem__("b", 10)),
            ("stage 5", lambda d: d["stages"][4].__setitem__("b", 12)),
            # JSON types int() would coerce to the recorded b = 3
            ("stage 2", lambda d: d["stages"][1].__setitem__("b", 3.5)),
            ("stage 2", lambda d: d["stages"][1].__setitem__("b", "3")),
            ("stage 2", lambda d: d["stages"][1].__setitem__("b", True)),
            ("stage 12", lambda d: d["stages"][11].__setitem__("b", MAX_B_SEARCH + 1)),
            ("stage 3", lambda d: d["stages"][2].__setitem__("omega", "5")),
            # a stage is exactly omega and b: its index, v_e and v_eps are
            # derived, so a record carrying one is format 1
            ("stage 1", lambda d: d["stages"][0].__setitem__("m", 1)),
            ("stage 1", lambda d: d["stages"][0].__setitem__("v_e", "1/9")),
            ("stage 7", lambda d: d["stages"][6].__setitem__("v_eps", "2125764")),
            # a stage record that cannot be read fails the plan
            ("plan", lambda d: d["stages"][3].pop("b")),
            # so is a plan carrying v_c, the tail guard or the base length
            ("plan", lambda d: d.__setitem__("v_c", "2/3")),
            ("plan", lambda d: d.__setitem__("tail_guard", "26")),
            ("plan", lambda d: d.__setitem__("m_base", 12)),
            ("plan", lambda d: d.__setitem__("format", "banana")),
            ("plan", lambda d: d.__setitem__("format", 1)),
            ("plan", lambda d: d.__setitem__("format", 2)),
            ("plan", lambda d: d.__setitem__("format", True)),
            ("plan", lambda d: d.pop("format")),
            # the instance is checked as recorded, not through its defaults
            ("plan", lambda d: d.__setitem__("instance", {})),
            ("plan", lambda d: d["instance"].pop("work_prec")),
            ("plan", lambda d: d["instance"].__setitem__("seed", 0)),
            ("plan", lambda d: d["instance"].__setitem__("p", 3.0)),
            ("plan", lambda d: d["instance"].__setitem__("gamma_x", "2/4")),
            ("plan", lambda d: d["instance"].__setitem__("stages", 13)),
            # e-notation is not rational text
            ("plan", lambda d: d["stages"][2].__setitem__("omega", "1e3")),
            # the kernel witnesses are derived, never recorded
            ("plan", lambda d: d.__setitem__("summary", {})),
        ]
        for where, mutate in mutations:
            tampered = copy.deepcopy(doc)
            mutate(tampered)
            report = verify_plan(tampered)
            assert not report.ok
            assert any(f.where == where for f in report.failures()), (
                where, report.text())

    def test_extra_fields_fail_at_their_place(self):
        # each extra key verified PASS while plans were format 1
        golden = json.loads((DATA.parent / "golden" / "plan.json").read_text())
        trace = json.loads((DATA / "divide_p5_steps4.json").read_text())
        for where, doc, mutate in [
            ("plan", golden, lambda d: d.__setitem__("note", "unread")),
            ("stage 4", golden, lambda d: d["stages"][3].__setitem__("note", "unread")),
            ("plan", trace, lambda d: d["plan"].__setitem__("note", "unread")),
        ]:
            tampered = copy.deepcopy(doc)
            mutate(tampered)
            report = verify_document(tampered)
            assert [f.where for f in report.failures()] == [where], report.text()

    def test_format_1_plans_fail_at_plan(self, plan):
        # a plan as format 1 wrote it, with every restated value honest, alone
        # and embedded in a certificate
        doc = plan_to_doc(plan)
        doc.update(format=1, v_c=str(plan.v_c), tail_guard=str(plan.config.work_prec),
                   m_base=plan.config.stages)
        doc["instance"]["seed"] = 0
        doc["stages"] = [{"m": st.m, "omega": str(st.omega), "v_e": str(st.v_e),
                          "b": st.b, "v_eps": str(st.v_eps)} for st in plan.stages]
        cert = certificate_to_doc(plan, build_adapted(plan, 2))
        cert["plan"] = doc
        for tampered in (doc, cert):
            report = verify_document(tampered)
            assert [f.where for f in report.failures()] == ["plan"], report.text()

    def test_derived_values_match_the_builder(self, plan, extended_plans):
        golden = json.loads((DATA.parent / "golden" / "plan.json").read_text())
        for built, doc in [(plan, golden)] + [(p, plan_to_doc(p)) for p in extended_plans]:
            rep = Report()
            config, rows, field = hahndisk.verify._check_plan(doc, rep)
            assert rep.ok, rep.text()
            assert config == built.config and any(st.omega < 0 for st in built.stages)
            assert field.profile == built.field.profile
            # the demand d = -p^b (v_e + min(omega, 0) v_c) of every stage,
            # so v_c too wherever omega < 0
            assert ([(r.omega, Fraction(*r.v_e), r.b, Fraction(*r.v_eps), Fraction(*r.d))
                     for r in rows]
                    == [(st.omega, st.v_e, st.b, st.v_eps, built.d_requirement(st))
                        for st in built.stages])

    def test_constraint_verdicts_match_full_scan(self, extended_plans):
        # the verifier separates against the largest earlier b only and
        # decides minimality at b - 1 only
        for plan in extended_plans:
            doc = plan_to_doc(plan)
            verdicts = reported_verdicts(doc, 1)
            assert verdicts == scanned_verdicts(doc, 1)
            assert all(holds and minimal for holds, minimal in verdicts.values())
            # move b at one early, one middle, the last base and the last
            # appended stage; the stages before it keep the honest verdicts
            n = len(doc["stages"])
            for k in sorted({1, n // 2, plan.config.stages - 1, n - 1}):
                b = doc["stages"][k]["b"]
                for moved in (b - 1, b + 1, 0):
                    tampered = copy.deepcopy(doc)
                    tampered["stages"][k]["b"] = moved
                    assert (reported_verdicts(tampered, k)
                            == scanned_verdicts(tampered, k)), (plan.config, k, moved)

    @pytest.mark.parametrize("p,gamma_x,v_s", [(11, F(2, 5), F(1, 3)),
                                               (13, F(3, 4), F(2, 7))])
    def test_other_primes_and_radii(self, p, gamma_x, v_s):
        plan = build_plan(InstanceConfig(p=p, gamma_x=gamma_x, v_s=v_s))
        for q in (F(5, p ** 3), F(-101, p ** 2), F(97)):
            plan = extend(plan, q)
        doc = plan_to_doc(plan)
        report = verify_plan(doc)
        assert report.ok, report.text()
        verdicts = reported_verdicts(doc, 1)
        assert verdicts == scanned_verdicts(doc, 1)
        assert len(verdicts) == 14 and all(holds and minimal
                                           for holds, minimal in verdicts.values())

    def test_constraint_check_at_equality(self):
        # _constraints_hold cross-multiplies integers; it must decide the
        # strict inequalities as Fractions do, at equality, for b below
        # top_b, and for a negative v_eps or a w past 1 + v_s
        def reference(w, v_eps, idx, b, top_b, p, v_s, guard, guarded):
            if not (p ** b * w > idx + 1 and v_eps / p ** b < v_s - w):
                return False
            gap = None if top_b is None else Fraction(p) ** (b - top_b) * w
            return gap is None or (gap > 1 + v_s and (not guarded or gap > guard))

        rng = random.Random(23)
        guard = F(26)
        for p, gamma_x, v_s in INSTANCES:
            for _ in range(400):
                b, idx = rng.randint(0, 12), rng.randint(1, 14)
                top_b = rng.choice([None, b, b + 1, b - 1, rng.randint(0, 14)])
                top_b = None if top_b is None or top_b < 0 else top_b
                shift = F(p) ** (b - (top_b or 0))
                w = rng.choice([
                    F(rng.randint(-40, 400), p ** rng.randint(0, 3) * gamma_x.denominator),
                    F(idx + 1, p ** b), (1 + v_s) / shift, guard / shift])
                v_eps = rng.choice([F(rng.randint(-10 ** 6, 10 ** 6), p ** rng.randint(0, 3)),
                                    p ** b * (v_s - w)])
                for guarded in (False, True):
                    args = (w, v_eps, idx, b, top_b, p, v_s, guard, guarded)
                    got = hahndisk.verify._constraints_hold(
                        w.numerator, w.denominator, (v_eps.numerator, v_eps.denominator),
                        idx, b, p ** b, top_b, p, v_s, guard, guarded)
                    assert got == reference(*args), args

    def test_negative_or_decreasing_b_stays_exact(self, plan):
        # b below zero or below the previous stage's b: a located FAIL, and
        # no message carries float text
        float_text = re.compile(r"\d\.\d|\d[eE][-+]?\d|\binf\b|\bnan\b")
        doc = plan_to_doc(plan)
        for m, b in [(2, -3), (5, -1), (5, 2), (8, 17), (12, 0)]:
            tampered = copy.deepcopy(doc)
            tampered["stages"][m - 1]["b"] = b
            report = verify_plan(tampered)
            assert any(f.where == f"stage {m}" for f in report.failures()), (m, b)
            assert not [f.message for f in report.findings
                        if float_text.search(f.message)], (m, b, report.text())

    def test_passing_plans_have_adapted_built_images(self, extended_plans):
        # the stage checks imply every image fact (see the verify module
        # docstring), so verify_plan states none: wherever it passes, on an
        # honest plan or one with a stage's b moved, each built image is
        # adapted
        golden = json.loads((DATA.parent / "golden" / "plan.json").read_text())
        for doc in [golden] + [plan_to_doc(extended) for extended in extended_plans]:
            variants = [doc]
            for k, stage in enumerate(doc["stages"]):
                for moved in (stage["b"] - 1, stage["b"] + 1, 0):
                    tampered = copy.deepcopy(doc)
                    tampered["stages"][k]["b"] = moved
                    variants.append(tampered)
            passed = [tampered for tampered in variants if verify_plan(tampered).ok]
            assert passed[0] is doc
            for tampered in passed:
                facts = built_image_findings(tampered)
                assert len(facts) == 2 * len(doc["stages"])
                assert all(ok for ok, _, _ in facts), (doc["instance"], facts)

    def test_stage_index_is_gated_before_omega(self, plan, monkeypatch):
        # omega(m) computes the enumeration up to m, and a stage's index is
        # its position, so the base stages the instance asks for must all be
        # committed before any omega(m) is asked
        asked = []
        real_omega = hahndisk.verify.omega
        monkeypatch.setattr(hahndisk.verify, "omega",
                            lambda m, p: asked.append(m) or real_omega(m, p))
        doc = plan_to_doc(plan)
        n = len(doc["stages"])
        for mutate in [
            lambda d: d["instance"].update(stages=50, work_prec="200"),
            lambda d: d["instance"].update(stages=10 ** 6, work_prec=str(10 ** 7)),
            lambda d: d.__setitem__("stages", d["stages"][:5]),
            lambda d: d.__setitem__("stages", []),
        ]:
            tampered = copy.deepcopy(doc)
            mutate(tampered)
            asked.clear()
            report = verify_plan(tampered)
            # the checks end at the gate: nothing is reported past it
            assert [f.where for f in report.failures()] == ["plan"], report.text()
            assert report.findings[-1].where == "plan", report.text()
            assert asked == [], asked
        asked.clear()
        assert verify_plan(doc).ok
        assert asked == list(range(1, n + 1))

    def test_prime_is_bounded_before_primality_test(self, plan, primality_capped):
        with pytest.raises(ConfigError):
            InstanceConfig(p=MAX_P + 2)
        doc = plan_to_doc(plan)
        doc["instance"]["p"] = MAX_P + 2
        report = verify_plan(doc)
        assert [f.where for f in report.failures()] == ["plan"], report.text()


@pytest.fixture(scope="module")
def instance_plans():
    """The plan at 12 stages of every instance of INSTANCES; read-only."""
    return [build_plan(InstanceConfig(p=p, gamma_x=gamma_x, v_s=v_s))
            for p, gamma_x, v_s in INSTANCES]


class TestCertificateVerification:
    def test_accepts_fresh_certificates(self, instance_plans, extended_plans):
        # every stage of every plan: p = 3, 5 and 7, 12 and 24 base stages,
        # three appended stages, and the x2 branch of a negative omega.  A
        # passing report includes the checks that the recorded image and
        # preimage equal the renderings of the verifier's own series.
        for plan in instance_plans + extended_plans:
            for m in range(1, len(plan.stages) + 1):
                cert = build_adapted(plan, m)
                report = verify_certificate(certificate_to_doc(plan, cert))
                assert report.ok, report.text()

    def test_images_stop_at_the_precision(self, instance_plans, extended_plans):
        # the builder's and the verifier's image loops stop at the first
        # term at or past the precision; both equal, term for term and in
        # order, the image built from every stage on, appended ones
        # included, and then cut
        for plan in instance_plans + extended_plans:
            cfg, field = plan.config, plan.field
            rep = Report()
            _, rows, _ = hahndisk.verify._check_plan(plan_to_doc(plan), rep)
            assert rep.ok, rep.text()
            for m, stage in enumerate(plan.stages, 1):
                scale = cfg.p ** stage.b
                full = TruncatedSeries(field.profile, {
                    ((stage.v_eps + cfg.p ** later.b * later.v_e) / scale,
                     cfg.p ** later.b * later.omega / scale): 1
                    for later in plan.stages[m - 1:]},
                    stage.v_eps / scale + cfg.work_prec)
                derived = hahndisk.verify._image_series(rows, m - 1, cfg.work_prec, field)
                for image in (build_adapted(plan, m).image, derived):
                    assert image.precision == full.precision
                    assert list(image.terms.items()) == list(full.terms.items())

    def test_image_tamper_detected(self, instance_plans):
        for plan in instance_plans:
            cert = build_adapted(plan, 2)
            doc = certificate_to_doc(plan, cert)
            doc["image"] = doc["image"].replace("1 t^", "2 t^", 1)
            report = verify_certificate(doc)
            assert not report.ok
            assert any("stage 2" in f.where for f in report.failures())

    def test_malformed_fields_are_located(self, instance_plans):
        # a located FAIL, never a KeyError or AttributeError
        for plan in instance_plans:
            cert = build_adapted(plan, 2)
            # the three fields format 1 recorded, with their honest values
            format_1 = {
                "v_s": str(plan.config.v_s),
                "leading": {"t_exp": str(cert.leading_exps[0]),
                            "x_exp": str(cert.leading_exps[1]),
                            "coeff": cert.leading_coeff},
                "checks": [dataclasses.asdict(c) for c in cert.checks],
            }
            for where, mutate in [
                ("certificate", lambda d: d.__setitem__("format", "banana")),
                ("certificate", lambda d: d.__setitem__("format", 1)),
                ("certificate", lambda d: d.update(format_1, format=1)),
                ("plan", lambda d: d["plan"].__setitem__("format", "banana")),
                ("certificate", lambda d: d.__setitem__("v_s", format_1["v_s"])),
                ("certificate", lambda d: d.__setitem__("leading", format_1["leading"])),
                ("certificate", lambda d: d.__setitem__("checks", format_1["checks"])),
                ("certificate", lambda d: d.pop("image")),
                ("certificate", lambda d: d.pop("q")),
                ("certificate", lambda d: d.__setitem__("q", "1e3")),
                ("certificate stage 2", lambda d: d.__setitem__("q", "5")),
                # recorded series are canonical text
                ("certificate stage 2", lambda d: d.__setitem__(
                    "image", swap_terms(d["image"]))),
                ("certificate stage 2", lambda d: d.__setitem__(
                    "preimage", unreduce_exponent(d["preimage"]))),
            ]:
                doc = certificate_to_doc(plan, cert)
                mutate(doc)
                report = verify_certificate(doc)
                assert [f.where for f in report.failures()] == [where], report.text()


class TestTraceVerification:
    def make_trace_doc(self, cfg, seed=29, steps=5):
        plan = build_plan(cfg)
        rng = random.Random(seed)
        beta = rand_normalized_target(rng, plan.field, cfg.v_s)
        trace = run_division(plan, beta, steps)
        return trace_to_doc(trace)

    def test_accepts_fresh_trace(self, cfg):
        report = verify_trace(self.make_trace_doc(cfg))
        assert report.ok, report.text()

    def test_normalize_k_needs_a_low_nonzero_target(self, plan, residue):
        # normalize_target shifts only a nonzero target of valuation below
        # v_s, by the least power of t that lifts it to v_s, so the shifted
        # target lies below 1 + v_s = 5/4
        high = residue.monomial(1, 2, 0) * build_adapted(plan, 1).image
        assert high.val_lower() == F(19, 9)
        for target, shifts in [(high, (1, 3)), (residue.zero(), (5,))]:
            doc = trace_to_doc(run_division(plan, target, 4))
            assert verify_trace(doc).ok
            for k in shifts:
                report = verify_trace({**doc, "normalize_k": k})
                assert [f.where for f in report.failures()] == ["trace"], report.text()

    def test_normalize_k_moves_on_the_pinned_traces(self):
        # normalize_k - 1 is no shift normalize_target writes, so it FAILs
        # at trace.  normalize_k + 1 verifies PASS: each target lies below
        # 1 + v_s, so it is also the shift of an input one more power of t
        # lower, and the trace records no input, so this move changes
        # nothing the verifier can derive.  No move raises.
        start = time.monotonic()
        passed = []
        for name in ("divide_seed11_steps4.json", "divide_p5_steps4.json"):
            doc = json.loads((DATA / name).read_text())
            v_s = Fraction(doc["plan"]["instance"]["v_s"])
            target = InstanceConfig.from_dict(doc["plan"]["instance"]).residue().parse(
                doc["target"])
            assert target.terms and target.val_lower() < 1 + v_s
            for move in (-1, 1):
                report = verify_trace({**doc, "normalize_k": doc["normalize_k"] + move})
                if report.ok:
                    passed.append((name, move))
                else:
                    assert [f.where for f in report.failures()] == ["trace"], report.text()
        assert passed == [("divide_seed11_steps4.json", 1), ("divide_p5_steps4.json", 1)]
        elapsed = time.monotonic() - start
        assert elapsed < 5, f"normalize_k moves took {elapsed:.2f}s, budget 5s"

    @staticmethod
    def step_mutations(doc):
        """(where, mutate) pairs, each changing one value of `doc`.  A step
        record is the list of its [q, d] pairs."""
        p = doc["plan"]["instance"]["p"]
        # the last step with two pairs to drop, duplicate or swap
        k = max(j for j, rec in enumerate(doc["steps"]) if len(rec) > 1)
        at = f"step {k}"
        q, d = doc["steps"][k][0]
        v_s = Fraction(doc["plan"]["instance"]["v_s"])

        def bump_coeff(text):
            coeff, rest = text.split(" ", 1)
            return f"{int(coeff) % (p - 1) + 1} {rest}"

        def shift_t(text):
            coeff, t_exp, rest = re.match(r"(\S+) t\^(\S+)(.*)", text, re.S).groups()
            return f"{coeff} t^{Fraction(t_exp) + Fraction(1, p)}{rest}"

        def with_pair(value):
            return lambda doc: doc["steps"][k].__setitem__(0, value)

        def swap_pairs(doc):
            rec = doc["steps"][k]
            rec[0], rec[1] = rec[1], rec[0]

        mutations = [
            (at, with_pair([q, bump_coeff(d)])),
            (at, with_pair([q, shift_t(d)])),
            (at, with_pair([q, unreduce_exponent(d)])),
            (at, with_pair([str(Fraction(q) + Fraction(1, p)), d])),
            (at, with_pair([str(Fraction(q) - Fraction(1, p)), d])),
            (at, lambda doc: doc["steps"][k].pop(0)),
            (at, lambda doc: doc["steps"][k].append([q, d])),
            (at, swap_pairs),
            (at, lambda doc: doc["steps"][k].clear()),
            (at, with_pair(None)),
            (at, with_pair(["0"])),
            (at, with_pair([0, "O(EXACT)\n"])),
            # a step as format 3 wrote it
            (at, lambda doc: doc["steps"].__setitem__(k, {
                "band": "O(EXACT)\n", "e": "O(EXACT)\n", "beta_after": "O(EXACT)\n"})),
            ("trace", lambda d: d.__setitem__("steps_requested", len(d["steps"]) - 1)),
            # format 4 only, with no extra field
            ("trace", lambda d: d.__setitem__("format", 3)),
            ("trace", lambda d: d.__setitem__("format", "4")),
            ("trace", lambda d: d.__setitem__("format", 2)),
            ("trace", lambda d: d.__setitem__("target_sha256", hashlib.sha256(
                d["target"].encode()).hexdigest())),
            ("trace", lambda d: d.__setitem__("final", {
                "bound": str(len(d["steps"]) + v_s), "residual": "O(EXACT)\n"})),
        ]
        # the terms of a quotient with two, in an order that is not canonical
        for j, rec in enumerate(doc["steps"]):
            for i, (q2, d2) in enumerate(rec):
                if len(d2.splitlines()) > 2:
                    mutations.append((f"step {j}", lambda d, j=j, i=i, q2=q2, d2=d2:
                                      d["steps"][j].__setitem__(i, [q2, swap_terms(d2)])))
        return mutations

    def test_step_mutations_are_localized(self, cfg):
        fresh = self.make_trace_doc(cfg, seed=17)
        # the recorded p = 5 run divides by no quotient of two terms; the
        # fresh p = 3 run has two
        recorded = json.loads((DATA / "divide_p5_steps4.json").read_text())
        counts = []
        for doc in (fresh, recorded):
            mutations = self.step_mutations(doc)
            counts.append(len(mutations))
            for where, mutate in mutations:
                tampered = copy.deepcopy(doc)
                mutate(tampered)
                assert tampered != doc, where
                report = verify_trace(tampered)
                assert [f.where for f in report.failures()] == [where], report.text()
        assert counts == [21, 19]

    def test_only_the_target_is_parsed(self, monkeypatch):
        # recorded series are compared as text, so a trace parses its
        # target alone and a certificate parses no series at all
        parsed = []
        real = hahndisk.series.parse_series

        def counted(profile, text):
            parsed.append(text)
            return real(profile, text)

        for module in (hahndisk.series, hahndisk.fields, hahndisk.tate, hahndisk.verify):
            if hasattr(module, "parse_series"):
                monkeypatch.setattr(module, "parse_series", counted)
        trace = json.loads((DATA / "divide_seed11_steps4.json").read_text())
        assert verify_trace(trace).ok
        assert parsed == [trace["target"]]
        parsed.clear()
        cert = json.loads((DATA / "adapted_minus5_9.json").read_text())
        assert verify_certificate(cert).ok
        assert parsed == []


def field_paths(node, prefix=()):
    """Every field path of a JSON document, entering the first entry of each
    list only, and not entering an embedded plan."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = list(enumerate(node))[:1]
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        if prefix or key != "plan":
            yield from field_paths(value, prefix + (key,))


def perturbation_plans():
    """(label, plan document) of the golden plan and of the 12-stage p = 5
    and p = 7 plans of INSTANCES, each extended by one stage off the
    enumeration."""
    plans = [("golden", json.loads((DATA.parent / "golden" / "plan.json").read_text()))]
    for p, gamma_x, v_s in INSTANCES[1:3]:
        plan = build_plan(InstanceConfig(p=p, gamma_x=gamma_x, v_s=v_s))
        plans.append((f"p={p}", plan_to_doc(extend(plan, Fraction(5, p ** 3)))))
    return plans


def rational_moves(q, p, k):
    """(label, value) pairs: q moved by +-1/p and +-1/p^k, by a factor p and
    by a sign flip."""
    ks = sorted({1, k})
    return ([(f"+1/{p}^{j}", q + Fraction(1, p ** j)) for j in ks]
            + [(f"-1/{p}^{j}", q - Fraction(1, p ** j)) for j in ks]
            + [(f"*{p}", q * p), ("*-1", -q)])


def value_perturbations(doc):
    """(label, perturbed document) pairs, each changing one value of `doc`
    and keeping its type.  The omega of the first, a middle, the last base
    and any appended stage moves by +-1/p and +-1/p^(b+1), by a factor p and
    by a sign flip, and b of the same stages by +-1; the instance's stages
    move by +-1 and its work_prec by +-1/p."""
    p, base = doc["instance"]["p"], doc["instance"]["stages"]
    picked = sorted({1, (base + 1) // 2, base, len(doc["stages"])})

    def with_value(path, value):
        tampered = copy.deepcopy(doc)
        parent = tampered
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return tampered

    for m in picked:
        stage = doc["stages"][m - 1]
        for how, q in rational_moves(Fraction(stage["omega"]), p, stage["b"] + 1):
            yield f"stage {m} omega {how}", with_value(("stages", m - 1, "omega"), str(q))
        for step in (-1, 1):
            yield f"stage {m} b {step:+d}", with_value(("stages", m - 1, "b"), stage["b"] + step)
    for step in (-1, 1):
        yield f"stages {step:+d}", with_value(("instance", "stages"), base + step)
    for sign in (1, -1):
        q = Fraction(doc["instance"]["work_prec"]) + Fraction(sign, p)
        yield f"work_prec {sign:+d}/{p}", with_value(("instance", "work_prec"), str(q))


def perturbation_reports():
    """The text of tests/data/verify_plan_perturbations.txt: each plan's
    honest verbose report, then one per value perturbation that changes the
    document.  A perturbation that leaves the document as it was (a zero
    scaled or negated) is listed with no report."""
    out = []
    for name, doc in perturbation_plans():
        out.append(f"=== {name}: honest\n{verify_plan(doc).text(verbose=True)}\n")
        for label, tampered in value_perturbations(doc):
            if tampered == doc:
                out.append(f"=== {name}: {label}: unchanged\n")
            else:
                out.append(f"=== {name}: {label}\n"
                           f"{verify_plan(tampered).text(verbose=True)}\n")
    return "".join(out)


def test_value_perturbations_are_pinned():
    # failure paths (b - 1 below the largest earlier b, a b that is not
    # minimal, a base stage checked under the tail guard once the instance
    # has one stage fewer) verified by value, byte for byte; re-record with
    # the command in test_cli.TestRecordedTranscripts
    start = time.monotonic()
    got = perturbation_reports()
    elapsed = time.monotonic() - start
    assert got == (DATA / "verify_plan_perturbations.txt").read_text()
    assert elapsed < 3, f"perturbation reports took {elapsed:.2f}s, budget 3s"


def builder_doc(doc, cache):
    """The document the builder writes for the instance and the appended
    exponents of `doc` (build_plan, then extend, then plan_to_doc), or None
    where the builder refuses them."""
    key = json.dumps([doc["instance"], [st["omega"] for st in doc["stages"]]])
    if key not in cache:
        try:
            cfg = InstanceConfig.from_dict(doc["instance"])
            built = build_plan(cfg)
            for st in doc["stages"][cfg.stages:]:
                built = extend(built, Fraction(st["omega"]))
        except HahndiskError:
            cache[key] = None
        else:
            cache[key] = plan_to_doc(built)
    return cache[key]


def test_value_perturbations_pass_only_as_built():
    # a perturbed plan verifies exactly when the builder writes it, and a
    # perturbed stage first fails at that stage or before it
    cache = {}
    passed = 0
    for name, doc in perturbation_plans():
        for label, tampered in value_perturbations(doc):
            report = verify_plan(tampered)
            assert report.ok == (tampered == builder_doc(tampered, cache)), (name, label)
            passed += report.ok
            if label.startswith("stage ") and not report.ok:
                first = report.failures()[0].where
                m = int(label.split()[1])
                assert first == "plan" or (
                    first.startswith("stage ") and int(first.split()[1]) <= m), \
                    (name, label, first)
    # honest documents and the perturbations that leave them as the builder
    # writes them (a zero scaled or negated, a work_prec that moves no stage)
    assert passed > 0


def certificate_perturbations(doc):
    """(label, perturbed certificate) pairs, each changing one value of
    `doc`: q moves as a stage's omega does in `value_perturbations`; in
    image and in preimage the first term is dropped, its t-exponent moves
    by 1/p, or the coefficient of the first term below p - 1 moves by +1."""
    p = doc["plan"]["instance"]["p"]
    b = doc["plan"]["stages"][doc["m"] - 1]["b"]
    for how, q in rational_moves(Fraction(doc["q"]), p, b + 1):
        yield f"q {how}", {**doc, "q": str(q)}
    for name in ("image", "preimage"):
        lines = doc[name].splitlines(keepends=True)
        coeff, t_exp, *xs = lines[0].split()
        shifted = " ".join([coeff, f"t^{Fraction(t_exp[2:]) + Fraction(1, p)}", *xs])
        i = next(i for i, line in enumerate(lines) if int(line.split()[0]) < p - 1)
        coeff, rest = lines[i].split(" ", 1)
        bumped = lines[:i] + [f"{int(coeff) + 1} {rest}"] + lines[i + 1:]
        yield f"{name} drop", {**doc, name: "".join(lines[1:])}
        yield f"{name} t +1/{p}", {**doc, name: "".join([shifted + "\n"] + lines[1:])}
        yield f"{name} coeff +1", {**doc, name: "".join(bumped)}


def test_certificate_value_perturbations_fail_at_the_certificate():
    # each perturbed certificate fails at the certificate or its stage and
    # never raises; no perturbation leaves a pinned certificate unchanged
    start = time.monotonic()
    unchanged = []
    for name in ("adapted_minus1_3.json", "adapted_minus5_9.json"):
        doc = json.loads((DATA / name).read_text())
        located = {"certificate", f"certificate stage {doc['m']}"}
        for label, tampered in certificate_perturbations(doc):
            if tampered == doc:
                unchanged.append((name, label))
                continue
            report = verify_certificate(tampered)
            wheres = {f.where for f in report.failures()}
            assert wheres and wheres <= located, (name, label, report.text())
    assert unchanged == []
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"certificate perturbations took {elapsed:.2f}s, budget 5s"


_DELETE = object()


def test_document_mutation_sweep_never_raises():
    # the golden plan sweeps the plan fields, so the plan embedded in a
    # certificate or trace is only deleted or retyped as a whole.  Every
    # field takes each value below, and every string field, series text
    # included, also has one character changed by a seeded draw; each
    # document passes through JSON first, so it is one a file can hold
    names = ["golden/plan.json", "data/adapted_minus1_3.json",
             "data/adapted_minus5_9.json", "data/divide_seed11_steps4.json",
             "data/divide_p5_steps4.json"]
    values = [_DELETE, None, 1.5, "x", [], {}, True, 10 ** 6, 0, -1, 10 ** 4000,
              "1e3", "0.5", "1/0", "+2/3", "\u0663", "1/" + "7" * 4000]
    rng = random.Random(27)
    start = time.monotonic()
    swept = 0
    for name in names:
        doc = json.loads((DATA.parent / name).read_text())
        for path in field_paths(doc):
            news = list(values)
            old = doc
            for key in path:
                old = old[key]
            if isinstance(old, str) and old:
                i = rng.randrange(len(old))
                news.append(old[:i] + rng.choice("0123456789/-+^ tx\n") + old[i + 1:])
            for value in news:
                tampered = copy.deepcopy(doc)
                parent = tampered
                for key in path[:-1]:
                    parent = parent[key]
                if value is _DELETE:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
                report = verify_document(json.loads(json.dumps(tampered)))
                assert report.findings, (name, path, value)
                swept += 1
    # 46 field paths, 17 values each, and 19 string fields with one
    # character changed
    assert swept == 46 * 17 + 19
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"mutation sweep took {elapsed:.2f}s, budget 5s"


def test_reports_add_no_stage_findings_after_the_plan(instance_plans, extended_plans):
    # past the embedded plan's own findings, a certificate reports at
    # `certificate stage m` and a trace at `trace` and `step m`: neither
    # adds a finding at a plan stage.  No report states a fact its stage
    # checks imply (see the verify module docstring): an image's adapted
    # facts, an integral preimage or a positive quotient valuation
    messages = set()

    def added(doc, report):
        plan = [(f.ok, f.where, f.message) for f in verify_plan(doc["plan"]).findings]
        got = [(f.ok, f.where, f.message) for f in report.findings]
        assert report.ok and got[1:1 + len(plan)] == plan, report.text()
        assert not [w for _, w, _ in got if w.endswith(" image")], report.text()
        messages.update(message for _, _, message in got)
        return [where for _, where, _ in got[1 + len(plan):]]

    wheres = set()
    for plan in instance_plans + extended_plans:
        for m in range(1, len(plan.stages) + 1):
            doc = certificate_to_doc(plan, build_adapted(plan, m))
            wheres.update(added(doc, verify_certificate(doc)))
    for name in ("divide_seed11_steps4.json", "divide_p5_steps4.json"):
        doc = json.loads((DATA / name).read_text())
        wheres.update(added(doc, verify_trace(doc)))
    assert wheres and not [w for w in wheres if re.fullmatch(r"stage \d+", w)], sorted(wheres)
    assert not [message for message in messages
                if message == "preimage lies in the unit-ball subring"
                or re.fullmatch(r"quotient for exponent \S+ has valuation \S+ > 0", message)]


def test_every_report_derives_the_kernel_witnesses(instance_plans):
    # a plan, a certificate and a trace report each carry the two witness
    # findings at `plan` right after the plan's format, at every instance;
    # criterion 4 checks the builder's kernel_witness there
    for plan in instance_plans:
        cfg = plan.config
        want = [(True, "plan", f"witness valuation {cfg.gamma_x} of x lies outside "
                 f"Z[1/{cfg.p}]"), (True, "plan", "x * c x^-1 - c is the exact zero")]
        trace = run_division(plan, plan.field.zero(), 1)
        for doc in (plan_to_doc(plan),
                    certificate_to_doc(plan, build_adapted(plan, 2)),
                    trace_to_doc(trace)):
            report = verify_document(doc)
            assert report.ok, report.text()
            got = [(f.ok, f.where, f.message) for f in report.findings]
            at = got.index((True, "plan", "format 3 is 3")) + 1
            assert got[at:at + 2] == want, report.text()


class TestDispatch:
    def test_routes_by_kind(self, plan):
        assert verify_document(plan_to_doc(plan)).ok
        cert = build_adapted(plan, 1)
        assert verify_document(certificate_to_doc(plan, cert)).ok
        assert not verify_document({"kind": "mystery"}).ok

    @pytest.mark.parametrize("doc", [[1], "x", None], ids=["list", "string", "null"])
    @pytest.mark.parametrize("check,where", [(verify_plan, "plan"),
                                             (verify_certificate, "certificate"),
                                             (verify_trace, "trace")],
                             ids=["plan", "certificate", "trace"])
    def test_non_object_is_one_failure(self, check, where, doc):
        # a checker reports a document that is not an object, never raises
        report = check(doc)
        assert [(f.ok, f.where) for f in report.findings] == [(False, where)]


def _module_tree(module):
    return ast.parse(Path(module.__file__).read_text())


def test_verify_imports_neither_builder_nor_division():
    # every import statement, deferred ones inside functions included
    names = set()
    for node in ast.walk(_module_tree(hahndisk.verify)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            assert getattr(node, "id", getattr(node, "attr", None)) not in (
                "__import__", "import_module")
    assert not [n for n in names if {"builder", "division"} & set(n.split("."))]


def test_only_the_config_builds_fields_and_rings():
    # a plan derives its field, ring and map from its config, so no builder
    # or division function takes one, and only config.py constructs them
    built = {"GroundField", "ResidueField", "TateRing"}
    for module in (hahndisk.builder, hahndisk.division, hahndisk.verify, hahndisk.cli,
                   hahndisk.config, hahndisk.tate, hahndisk.fields):
        calls = [node.lineno for node in ast.walk(_module_tree(module))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) in built]
        assert bool(calls) == (module is hahndisk.config), (module.__name__, calls)
    for module in (hahndisk.builder, hahndisk.division):
        params = {arg.arg for node in ast.walk(_module_tree(module))
                  if isinstance(node, ast.FunctionDef) for arg in node.args.args}
        assert not params & {"field", "ring", "sub"}, module.__name__


@pytest.mark.parametrize("module", [hahndisk, hahndisk.builder, hahndisk.cli, hahndisk.config,
                                    hahndisk.division, hahndisk.errors, hahndisk.fields,
                                    hahndisk.tate, hahndisk.valgroup, hahndisk.verify],
                         ids=lambda m: m.__name__)
def test_computed_series_skip_the_validating_constructor(module):
    # computed terms become a series through from_terms, window or split;
    # TruncatedSeries(...) is for input from outside, and only the series
    # module itself wraps terms with _trusted
    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    nodes = list(ast.walk(_module_tree(module)))
    assert [n.lineno for n in nodes
            if isinstance(n, ast.Call) and name(n.func) == "TruncatedSeries"] == []
    assert [n.lineno for n in nodes if name(n) == "_trusted"] == []


# -- findings render only when read --------------------------------------------------


PINNED_REPORTS = [
    (DATA.parent / "golden" / "plan.json", "verify_golden_plan.txt"),
    (DATA / "adapted_minus1_3.json", "verify_adapted_minus1_3.txt"),
    (DATA / "adapted_minus5_9.json", "verify_adapted_minus5_9.txt"),
    (DATA / "divide_seed11_steps4.json", "verify_divide_seed11_steps4.txt"),
    (DATA / "divide_p5_steps4.json", "verify_divide_p5_steps4.txt"),
]


@pytest.fixture
def renders(monkeypatch):
    """The templates `verify` formats, in order, from here on."""
    seen = []
    real = hahndisk.verify._render

    def spy(template, args):
        seen.append(template)
        return real(template, args)

    monkeypatch.setattr(hahndisk.verify, "_render", spy)
    return seen


@pytest.mark.parametrize("check,path,pinned", [
    (verify_plan, DATA.parent / "golden" / "plan.json", "verify_golden_plan.txt"),
    (verify_trace, DATA / "divide_seed11_steps4.json", "verify_divide_seed11_steps4.txt"),
], ids=["plan", "trace"])
def test_a_passing_report_formats_nothing_until_read(check, path, pinned, renders):
    report = check(json.loads(path.read_text()))
    assert report.ok and len(report.findings) > 20
    assert renders == []
    # a passing report prints its summary line alone
    assert report.text().startswith("PASS: ") and renders == []
    # one finding read renders that one, once
    finding = report.findings[1]
    message = finding.message
    line = (DATA / pinned).read_text().splitlines()[1]
    assert f"ok  [{finding.where}] {message}" == line and len(renders) == 1
    assert finding.message is message and len(renders) == 1
    report.text(verbose=True)
    assert len(renders) == len(report.findings)


@pytest.mark.parametrize("source,name", PINNED_REPORTS, ids=lambda x: getattr(x, "name", x))
def test_messages_are_the_pinned_text(source, name):
    # each message is a str equal to its line in the pinned verbose report;
    # test_value_perturbations_are_pinned holds the failing findings
    report = verify_document(json.loads(source.read_text()))
    assert all(type(f.message) is str for f in report.findings)
    lines = [f"{'ok ' if f.ok else 'FAIL'} [{f.where}] {f.message}" for f in report.findings]
    assert lines == (DATA / name).read_text().splitlines()[:-1]


def test_each_stage_finding_names_its_own_values():
    # messages are rendered after the stage loop has moved on, so each must
    # hold its own stage's exponent and b
    plan = build_plan(InstanceConfig(stages=24))
    report = verify_plan(plan_to_doc(plan))
    assert report.ok, report.text()
    for m, st in enumerate(plan.stages, start=1):
        q, b = st.omega, st.b
        want = [f"exponent {q} lies in Z[1/3]",
                f"Frobenius exponent {b} is an integer in [0, {MAX_B_SEARCH}]",
                f"exponent {q} follows the fixed enumeration"]
        want += (["opening stage has Frobenius exponent 0"] if m == 1 else
                 [f"growth, window and separation hold at b = {b}", f"b = {b} is minimal"])
        assert [f.message for f in report.findings if f.where == f"stage {m}"] == want


@st.composite
def random_instances(draw):
    """A valid instance: p up to 13, gamma_x = a/b with a, b <= 40 outside
    Z[1/p], v_s = k/100 and 4 to 12 stages."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    gamma_x = draw(st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))
                   .filter(lambda g: not is_in_zp(g, p)))
    return InstanceConfig(p=p, gamma_x=gamma_x, v_s=Fraction(draw(st.integers(1, 99)), 100),
                          stages=draw(st.integers(4, 12)))


@settings(max_examples=50, deadline=5000)
@given(random_instances(), st.data())
def test_random_instances_verify(config, data):
    # a plan, a certificate on the enumeration and one off it, and a
    # 4-step division of a normalized target all verify PASS
    plan = build_plan(config)
    on = plan.stages[data.draw(st.integers(0, config.stages - 1))].omega
    off = Fraction(data.draw(st.integers(-60, 60)), config.p ** data.draw(st.integers(0, 2)))
    if off in plan.stage_index:
        off += 1000  # past every committed exponent
    docs = [certificate_to_doc(*certify(plan, q)) for q in (on, off)]
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    k, beta = normalize_target(plan, rand_normalized_target(rng, plan.field, config.v_s))
    docs.append(trace_to_doc(run_division(plan, beta, 4), normalize_k=k))
    for doc in docs:
        report = verify_document(doc)
        assert report.ok, report.text()
    # the facts the verifier derives from its stage checks (see the verify
    # module docstring) hold: each preimage is integral, and each step's d,
    # t^m times the quotient, weighs more than m
    for doc in docs[:2]:
        assert is_integral(parse_series(config.tate().profile, doc["preimage"]))
    for m, step in enumerate(docs[2]["steps"]):
        for _, d in step:
            assert plan.field.parse(d).val_lower() > m, (m, d)
