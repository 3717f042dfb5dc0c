"""The independent checker must accept honest documents and localize any
single tampered field."""

import copy
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import hahndisk.verify
from hahndisk import InstanceConfig
from hahndisk.builder import (
    build_adapted,
    build_plan,
    certificate_to_doc,
    plan_summary,
    plan_to_doc,
)
from hahndisk.config import MAX_B_SEARCH, MAX_P
from hahndisk.errors import ConfigError
from hahndisk.series import TruncatedSeries
from hahndisk.division import run_division, trace_to_doc
from hahndisk.verify import verify_certificate, verify_document, verify_plan, verify_trace

from conftest import INSTANCES, rand_normalized_target

F = Fraction
DATA = Path(__file__).parent / "data"


def full_plan_doc(plan, residue, ring3):
    return plan_to_doc(plan, summary=plan_summary(plan, residue, ring3))


def scanned_verdicts(doc, start):
    """{stage m: (the constraints hold at b, no b' < b meets them)} from
    stage index `start` on: separation against every earlier stage, and
    minimality by scanning every b'."""
    cfg = InstanceConfig.from_dict(doc["instance"])
    p, gamma_x, v_s = cfg.p, cfg.gamma_x, cfg.v_s
    guard = Fraction(doc["tail_guard"])
    stages = [(st["m"], st["b"], Fraction(st["v_e"]) + Fraction(st["omega"]) * gamma_x,
               Fraction(st["v_eps"])) for st in doc["stages"]]

    def hold(idx, b):
        m, _, w, v_eps = stages[idx]
        if not (p ** b * w > idx + 1 and v_eps / p ** b < v_s - w):
            return False
        for _, b_j, _, _ in stages[:idx]:
            gap = Fraction(p) ** (b - b_j) * w
            if not gap > 1 + v_s or (m > doc["m_base"] and not gap > guard):
                return False
        return True

    return {m: (hold(idx, b), not any(hold(idx, bb) for bb in range(b)))
            for idx, (m, b, _, _) in enumerate(stages[start:], start=start)}


def reported_verdicts(doc, start):
    """{stage m: the verifier's verdicts that the constraints hold at b and
    that b is minimal} from stage index `start` on."""
    report = verify_plan(doc)
    verdicts = {}
    for row in doc["stages"][start:]:
        (holds, minimal) = [
            f.ok for f in report.findings if f.where == f"stage {row['m']}" and f.message in (
                f"growth, window and separation hold at b = {row['b']}",
                f"b = {row['b']} is minimal")]
        verdicts[row["m"]] = (holds, minimal)
    return verdicts


def built_image_findings(doc):
    """The image facts of every stage read off its built image series: a
    test-local copy of the image loop verify_plan ran before the closed form
    (the image through the validating constructor, then its leading term
    and the valuation of the rest)."""
    cfg = InstanceConfig.from_dict(doc["instance"])
    p, v_s, profile = cfg.p, cfg.v_s, cfg.residue().profile
    guard = Fraction(doc["tail_guard"])
    rows = [(st["m"], Fraction(st["omega"]), Fraction(st["v_e"]), st["b"],
             Fraction(st["v_eps"])) for st in doc["stages"]]
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
        res_val = (image - TruncatedSeries.monomial(profile, coeff, exps)).val_lower()
        findings += [
            (0 <= w0 < v_s, where, f"leading value {w0} inside [0, {v_s})"),
            (exps[1] == omega, where,
             f"leading exponent {exps[1]} matches stage exponent {omega}"),
            (res_val is None or res_val > 1 + v_s, where,
             f"residual valuation {res_val} beyond {1 + v_s}"),
        ]
    return findings


def findings_and_reference(doc):
    """verify_plan's findings, and the same with the image facts taken from
    built images in its order: plan and stage checks, the image facts once
    those all hold, then the summary."""
    got = [(f.ok, f.where, f.message) for f in verify_plan(doc).findings]
    checks = [f for f in got if not f[1].endswith(" image") and f[1] != "summary"]
    summary = [f for f in got if f[1] == "summary"]
    if all(ok for ok, _, _ in checks):
        checks += built_image_findings(doc)
    return got, checks + summary


class TestPlanVerification:
    def test_accepts_fresh_plan(self, plan, residue, ring3):
        report = verify_plan(full_plan_doc(plan, residue, ring3))
        assert report.ok, report.text()

    def test_rejects_wrong_kind(self):
        report = verify_plan({"kind": "nonsense"})
        assert not report.ok

    def test_stage_mutations_are_localized(self, plan, residue, ring3):
        doc = full_plan_doc(plan, residue, ring3)
        mutations = [
            ("stage 5", lambda d: d["stages"][4].__setitem__("b", 10)),
            ("stage 5", lambda d: d["stages"][4].__setitem__("b", 12)),
            # JSON types int() would coerce to the recorded b = 3 and m = 1
            ("stage 2", lambda d: d["stages"][1].__setitem__("b", 3.5)),
            ("stage 2", lambda d: d["stages"][1].__setitem__("b", "3")),
            ("stage 1", lambda d: d["stages"][0].__setitem__("m", True)),
            ("stage 3", lambda d: d["stages"][2].__setitem__("m", -5)),
            ("stage 12", lambda d: d["stages"][11].__setitem__("b", MAX_B_SEARCH + 1)),
            ("stage 7", lambda d: d["stages"][6].__setitem__("v_eps", "2125765")),
            ("stage 1", lambda d: d["stages"][0].__setitem__("v_e", "2/9")),
            ("stage 3", lambda d: d["stages"][2].__setitem__("omega", "5")),
            ("plan", lambda d: d.__setitem__("v_c", "7/9")),
            ("plan", lambda d: d.__setitem__("m_base", 12.5)),
            ("plan", lambda d: d.__setitem__("m_base", "12")),
            ("plan", lambda d: d.__setitem__("format", "banana")),
            ("plan", lambda d: d.__setitem__("format", 2)),
            ("plan", lambda d: d.__setitem__("format", True)),
            ("plan", lambda d: d.pop("format")),
            # e-notation is not rational text
            ("plan", lambda d: d["stages"][2].__setitem__("omega", "1e3")),
            ("summary", lambda d: d["summary"].__setitem__("alpha_valuation", "2/9")),
        ]
        for where, mutate in mutations:
            tampered = copy.deepcopy(doc)
            mutate(tampered)
            report = verify_plan(tampered)
            assert not report.ok
            assert any(f.where == where for f in report.failures()), (
                where, report.text())

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
            for k in sorted({1, n // 2, plan.m_base - 1, n - 1}):
                b = doc["stages"][k]["b"]
                for moved in (b - 1, b + 1, 0):
                    tampered = copy.deepcopy(doc)
                    tampered["stages"][k]["b"] = moved
                    assert (reported_verdicts(tampered, k)
                            == scanned_verdicts(tampered, k)), (plan.config, k, moved)

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

    def test_closed_form_image_facts_match_built_images(self, extended_plans, plan,
                                                         residue, ring3):
        docs = [full_plan_doc(plan, residue, ring3)]
        docs += [plan_to_doc(extended) for extended in extended_plans]
        for doc in docs:
            got, want = findings_and_reference(doc)
            assert got == want
            assert sum(where.endswith(" image") for _, where, _ in got) == (
                3 * len(doc["stages"]))
        for extended in extended_plans:
            doc = plan_to_doc(extended)
            for k, stage in enumerate(doc["stages"]):
                for moved in (stage["b"] - 1, stage["b"] + 1, 0):
                    tampered = copy.deepcopy(doc)
                    tampered["stages"][k]["b"] = moved
                    got, want = findings_and_reference(tampered)
                    assert got == want, (extended.config, k, moved)

    def test_stage_index_is_gated_before_omega(self, plan, monkeypatch):
        # omega(m) computes the enumeration up to m, so a large recorded
        # index must end the checks before it reaches omega; either gate
        # alone would bound the index, each is checked here
        asked = []
        real_omega = hahndisk.verify.omega
        monkeypatch.setattr(hahndisk.verify, "omega",
                            lambda m, p: asked.append(m) or real_omega(m, p))
        doc = plan_to_doc(plan)
        n = len(doc["stages"])
        for where, mutate in [
            ("stage 1", lambda d: d["stages"][0].__setitem__("m", 50)),
            ("stage 5", lambda d: d["stages"][4].__setitem__("m", 50)),
            ("stage 5", lambda d: d["stages"][4].__setitem__("m", 4)),
            ("plan", lambda d: d.__setitem__("m_base", 50)),
            ("plan", lambda d: d.__setitem__("m_base", 0)),
            ("plan", lambda d: (d.__setitem__("m_base", 50),
                                   d["stages"][0].__setitem__("m", 50))),
        ]:
            tampered = copy.deepcopy(doc)
            mutate(tampered)
            asked.clear()
            report = verify_plan(tampered)
            # the checks end at the gate: nothing is reported past it
            assert any(f.where == where for f in report.failures()), report.text()
            assert report.findings[-1].where == where, report.text()
            assert max(asked, default=0) <= n, (where, max(asked))
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
    """(plan, residue field, Tate ring) at 12 stages for every instance of
    INSTANCES; read-only."""
    out = []
    for p, gamma_x, v_s in INSTANCES:
        cfg = InstanceConfig(p=p, gamma_x=gamma_x, v_s=v_s)
        out.append((build_plan(cfg), cfg.residue(), cfg.tate(3)))
    return out


class TestCertificateVerification:
    def test_accepts_fresh_certificates(self, instance_plans):
        for plan, residue, ring3 in instance_plans:
            for m in (1, 2, 7, 12):
                cert = build_adapted(plan, m, residue, ring3)
                report = verify_certificate(certificate_to_doc(plan, cert))
                assert report.ok, report.text()

    def test_image_tamper_detected(self, instance_plans):
        for plan, residue, ring3 in instance_plans:
            cert = build_adapted(plan, 2, residue, ring3)
            doc = certificate_to_doc(plan, cert)
            doc["image"] = doc["image"].replace("1 t^", "2 t^", 1)
            report = verify_certificate(doc)
            assert not report.ok
            assert any("stage 2" in f.where for f in report.failures())

    def test_leading_tamper_detected(self, instance_plans):
        for plan, residue, ring3 in instance_plans:
            cert = build_adapted(plan, 3, residue, ring3)
            doc = certificate_to_doc(plan, cert)
            doc["leading"]["coeff"] = 2
            report = verify_certificate(doc)
            assert not report.ok

    def test_malformed_fields_are_located(self, instance_plans):
        # a located FAIL, never a KeyError or AttributeError
        for plan, residue, ring3 in instance_plans:
            cert = build_adapted(plan, 2, residue, ring3)
            for where, mutate in [
                ("certificate", lambda d: d.__setitem__("format", "banana")),
                ("certificate", lambda d: d.__setitem__("format", 2)),
                ("plan", lambda d: d["plan"].__setitem__("format", "banana")),
                ("certificate", lambda d: d.pop("v_s")),
                ("certificate", lambda d: d.__setitem__("v_s", "1e3")),
                ("certificate stage 2", lambda d: d.__setitem__("leading", [1])),
                ("certificate stage 2", lambda d: d.__setitem__("checks", "ok")),
                ("certificate stage 2", lambda d: d.__setitem__("checks", [1])),
                ("certificate stage 2", lambda d: d.pop("checks")),
            ]:
                doc = certificate_to_doc(plan, cert)
                mutate(doc)
                report = verify_certificate(doc)
                assert [f.where for f in report.failures()] == [where], report.text()

    def test_every_recorded_field_is_checked(self, instance_plans):
        # each mutation used to pass: the verifier read only each check's
        # `ok` and compared the leading coefficient with ==
        mutations = [
            lambda d: d["checks"][0].__setitem__("lhs", "999"),
            lambda d: d["checks"][2].__setitem__("op", "<"),
            lambda d: d.__setitem__("checks", []),
            lambda d: d["leading"].__setitem__("coeff", True),
        ]
        docs = [json.loads((DATA / name).read_text())
                for name in ("adapted_minus1_3.json", "adapted_minus5_9.json")]
        docs += [certificate_to_doc(plan, build_adapted(plan, 2, residue, ring3))
                 for plan, residue, ring3 in instance_plans]
        for doc in docs:
            assert verify_certificate(doc).ok
            for mutate in mutations:
                tampered = copy.deepcopy(doc)
                mutate(tampered)
                report = verify_certificate(tampered)
                assert [f.where for f in report.failures()] == [
                    f"certificate stage {doc['m']}"], report.text()


class TestTraceVerification:
    def make_trace_doc(self, cfg, residue, ring3, seed=29, steps=5):
        plan = build_plan(cfg)
        rng = random.Random(seed)
        beta = rand_normalized_target(rng, residue, cfg.v_s)
        trace = run_division(plan, residue, ring3, beta, steps)
        return trace_to_doc(trace)

    def test_accepts_fresh_trace(self, cfg, residue, ring3):
        report = verify_trace(self.make_trace_doc(cfg, residue, ring3))
        assert report.ok, report.text()

    def test_step_mutations_are_localized(self, cfg, residue, ring3):
        doc = self.make_trace_doc(cfg, residue, ring3)
        step = len(doc["steps"]) // 2

        def bump_coeff(text):
            lines = text.splitlines()
            for i, line in enumerate(lines):
                if not line.startswith("O("):
                    coeff = int(line.split()[0])
                    lines[i] = " ".join(["1" if coeff == 2 else "2"]
                                        + line.split()[1:])
                    return "\n".join(lines) + "\n"
            return "O(1)\n"  # replace an empty record with junk

        mutations = [
            (f"step {step}", lambda d: d["steps"][step].__setitem__(
                "beta_after", bump_coeff(d["steps"][step]["beta_after"]))),
            (f"step {step}", lambda d: d["steps"][step].__setitem__(
                "e", bump_coeff(d["steps"][step]["e"]))),
            (f"step {step}", lambda d: d["steps"][step].__setitem__(
                "bound", "1/8")),
            ("final", lambda d: d["final"].__setitem__("val_lower", "99")),
            ("trace", lambda d: d.__setitem__("target_sha256", "0" * 64)),
            # format 2 only: no other format, no extra or missing step field
            ("trace", lambda d: d.__setitem__("format", 1)),
            ("trace", lambda d: d.__setitem__("format", "2")),
            (f"step {step}", lambda d: d["steps"][step].__setitem__(
                "a_after", d["steps"][step]["e"])),
            (f"step {step}", lambda d: d["steps"][step].pop("band")),
        ]
        for where, mutate in mutations:
            tampered = copy.deepcopy(doc)
            mutate(tampered)
            report = verify_trace(tampered)
            assert not report.ok
            assert any(f.where == where for f in report.failures()), (
                where, report.text())


class TestDispatch:
    def test_routes_by_kind(self, plan, residue, ring3):
        assert verify_document(full_plan_doc(plan, residue, ring3)).ok
        cert = build_adapted(plan, 1, residue, ring3)
        assert verify_document(certificate_to_doc(plan, cert)).ok
        assert not verify_document({"kind": "mystery"}).ok
