"""The staged construction of the substitution map onto the residue field.

The map sends the three generators to x, c*x^{-1} and alpha, where alpha is
a staged sum: stage m contributes (e_m x^{w_m})^(p^{b_m}) with e_m a
uniformizer power and w_m an exponent drawn from the fixed enumeration of
Z[1/p] (or, for stages appended on demand, a requested exponent).  The
recursion chooses each stage subject to three exact constraints against all
earlier stages:

  growth      the stage weight exceeds its index (so the sum converges and
              omitted stages are bounded below the committed tail),
  window      a divisibility multiplier eps_m exists whose scaled-back
              valuation keeps the stage leading value inside (0, v_s),
  separation  scaled against any earlier stage the term falls strictly
              beyond 1 + v_s.

A plan commits finitely many stages.  Claims about the uncommitted tail are
quantified over all continuations that satisfy the constraints above plus a
tail guard: every later stage must clear `tail_guard` (instead of merely
1 + v_s) in the separation inequality.  Appending a stage with
`ensure_stage` enforces the guard, so previously issued certificates stay
valid verbatim.

For each committed stage the builder produces an `AdaptedCertificate`: an
integral preimage whose image has valuation in [0, v_s), leading monomial
exponent equal to the stage exponent, and the rest of the image beyond
1 + v_s; the three facts are checked as exact rational comparisons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .config import MAX_B_SEARCH, InstanceConfig
from .errors import (
    AdaptednessFailedError,
    ContractViolationError,
    PrecisionExhaustedError,
    StageUnavailableError,
)
from .fields import ResidueField, choose_c
from .series import TruncatedSeries, render_series
from .tate import SubstitutionMap, TateRing, is_integral
from .valgroup import EXACT, as_fraction, is_in_zp, omega, smallest_zp_point


@dataclass
class PlanStage:
    m: int
    omega: Fraction
    v_e: Fraction
    b: int
    v_eps: Fraction


@dataclass
class AlphaPlan:
    config: InstanceConfig
    v_c: Fraction
    tail_guard: Fraction
    m_base: int
    stages: list
    _certs: dict = dc_field(default_factory=dict, repr=False, compare=False)
    # (key, SubstitutionMap) of the latest standard_substitution; the key
    # holds the stage count because appending a stage changes the alpha image
    _sub: tuple = dc_field(default=None, repr=False, compare=False)

    # -- stage arithmetic ---------------------------------------------------

    def w(self, st: PlanStage) -> Fraction:
        """Leading weight of the unscaled stage term e_m x^{omega_m}."""
        return st.v_e + st.omega * self.config.gamma_x

    def stage_weight(self, st: PlanStage) -> Fraction:
        """Weight of the full stage term, p^b * (v_e + omega * gamma_x)."""
        return self.config.p ** st.b * self.w(st)

    def alpha_term_exps(self, st: PlanStage):
        """(t-exponent, x-exponent) of the stage term in the residue field."""
        scale = self.config.p ** st.b
        return (scale * st.v_e, scale * st.omega)

    def fw_image_exps(self, st: PlanStage):
        """(t-exponent, x-exponent) of the image of the divisor monomial
        W attached to this stage: x1^{omega p^b} when omega >= 0, else
        x2^{-omega p^b} whose image is (c x^{-1})^{-omega p^b}."""
        scale = self.config.p ** st.b
        if st.omega >= 0:
            return (Fraction(0), scale * st.omega)
        return ((-st.omega) * scale * self.v_c, scale * st.omega)

    def weight_fw(self, st: PlanStage) -> Fraction:
        t_exp, x_exp = self.fw_image_exps(st)
        return t_exp + x_exp * self.config.gamma_x

    def d_requirement(self, st: PlanStage) -> Fraction:
        """Valuation demanded of eps so that eps * (stage term) is divisible
        by the W-image of this stage: weight(f(W)) - weight(stage term)."""
        return self.weight_fw(st) - self.stage_weight(st)

    def find_stage(self, q: Fraction):
        for st in self.stages:
            if st.omega == q:
                return st
        return None


# -- plan construction -------------------------------------------------------


def _minimal_b(plan: AlphaPlan, m: int, w: Fraction, v_eps: Fraction, base: bool) -> int:
    """Least b meeting growth, window and separation against every stage.

    Since 0 < w < v_s, the separation gap p^(b - b_j) * w is smallest
    against the stage with the largest b_j, so that stage alone decides
    separation; at b <= b_j the gap is at most w < 1 + v_s, so the scan
    starts at b_j + 1.
    """
    cfg = plan.config
    top_b = max(st.b for st in plan.stages)
    b = top_b + 1
    while b <= MAX_B_SEARCH:
        scale = cfg.p ** b
        gap = cfg.p ** (b - top_b) * w
        if (scale * w > m and v_eps / scale < cfg.v_s - w and gap > 1 + cfg.v_s
                and (base or gap > plan.tail_guard)):
            return b
        b += 1
    raise StageUnavailableError(
        f"no Frobenius exponent below {MAX_B_SEARCH} resolves stage {m}"
    )


def _append_stage(plan: AlphaPlan, q: Fraction, base: bool) -> PlanStage:
    cfg = plan.config
    if not is_in_zp(q, cfg.p):
        raise StageUnavailableError(f"{q} is not in Z[1/{cfg.p}]")
    if plan.find_stage(q) is not None:
        raise StageUnavailableError(f"a stage with exponent {q} already exists")
    m = len(plan.stages) + 1
    lo = -q * cfg.gamma_x
    v_e = smallest_zp_point(lo, lo + cfg.v_s, cfg.p)
    w = v_e + q * cfg.gamma_x
    # the demand is a running maximum: the last stage's v_eps already
    # covers every stage before it
    if plan.stages:
        last = plan.stages[-1]
        v_eps = max(last.v_eps, plan.d_requirement(last))
    else:
        v_eps = Fraction(0)
    if m == 1:
        b = 0  # the opening stage is pinned; its term is the leading term
    else:
        b = _minimal_b(plan, m, w, v_eps, base)
    st = PlanStage(m=m, omega=q, v_e=v_e, b=b, v_eps=v_eps)
    plan.stages.append(st)
    return st


def build_plan(config: InstanceConfig) -> AlphaPlan:
    """Commit the configured number of stages along the fixed enumeration.

    Base stages use the minimal Frobenius exponent meeting growth, window
    and separation; the constraints are re-verified on the finished plan by
    the independent checker.
    """
    if config.work_prec <= 1 + config.v_s:
        raise PrecisionExhaustedError(
            f"work_prec = {config.work_prec} cannot resolve any stage tail"
        )
    field = config.residue()
    v_c = choose_c(field, config.v_s)
    plan = AlphaPlan(
        config=config,
        v_c=v_c,
        tail_guard=config.work_prec,
        m_base=config.stages,
        stages=[],
    )
    for m in range(1, config.stages + 1):
        _append_stage(plan, omega(m, config.p), base=True)
    from . import verify  # deferred: verify must stay import-free of builder

    report = verify.verify_plan(plan_to_doc(plan))
    if not report.ok:
        raise ContractViolationError(
            "freshly built plan failed its own verification:\n" + report.text()
        )
    return plan


def ensure_stage(plan: AlphaPlan, q) -> PlanStage:
    """Return the stage with exponent q, appending one under the tail guard
    if the plan does not contain it yet."""
    q = as_fraction(q)
    st = plan.find_stage(q)
    if st is not None:
        return st
    return _append_stage(plan, q, base=False)


# -- assembled objects --------------------------------------------------------


def assemble_alpha(plan: AlphaPlan, field: ResidueField) -> TruncatedSeries:
    """The committed part of the staged sum.

    Omitted stages have weight beyond their index by the growth constraint,
    so the result is sound at precision min(work_prec, M + 1).
    """
    m_committed = len(plan.stages)
    prec = min(plan.config.work_prec, Fraction(m_committed + 1))
    total = field.zero(precision=prec)
    for st in plan.stages:
        t_exp, x_exp = plan.alpha_term_exps(st)
        total = total + field.monomial(1, t_exp, x_exp, precision=prec)
    return total


def standard_substitution(plan: AlphaPlan, field: ResidueField, ring: TateRing) -> SubstitutionMap:
    """Generator images: x1 -> x, x2 -> c x^{-1}, x3 -> the staged sum.

    The map and its power memos are kept on the plan until a stage is
    appended, so every caller working on one plan shares them.
    """
    if ring.nvars != 3:
        raise StageUnavailableError("the construction lives in three variables")
    key = (len(plan.stages), field.profile, ring.profile)
    if plan._sub is not None and plan._sub[0] == key:
        return plan._sub[1]
    x_img = field.x_power(1)
    cx_inv = field.monomial(1, plan.v_c, -1)
    sub = SubstitutionMap(ring, field, (x_img, cx_inv, assemble_alpha(plan, field)))
    plan._sub = (key, sub)
    return sub


# -- adapted certificates -----------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    lhs: str
    op: str
    rhs: str
    ok: bool


@dataclass
class AdaptedCertificate:
    m: int
    q: Fraction
    v_s: Fraction
    preimage: TruncatedSeries
    image: TruncatedSeries
    leading_exps: tuple
    leading_coeff: int
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _tail_series(plan: AlphaPlan, m: int, field: ResidueField) -> TruncatedSeries:
    """sum of committed stage terms from stage m on, with the precision
    justified by the tail guard viewed from stage m."""
    st_m = plan.stages[m - 1]
    prec = plan.config.p ** st_m.b * plan.tail_guard
    total = field.zero(precision=prec)
    for st in plan.stages[m - 1:]:
        t_exp, x_exp = plan.alpha_term_exps(st)
        total = total + field.monomial(1, t_exp, x_exp, precision=prec)
    return total


def build_adapted(plan: AlphaPlan, m: int, field: ResidueField, ring: TateRing) -> AdaptedCertificate:
    """Build and exactly check the certificate for committed stage m.

    The preimage scales the third generator by eps_m and cancels every
    earlier stage with an exact ground-field multiple of its divisor
    monomial; a Frobenius root brings it into the unit ball.  Its image is
    eps_m^(1/p^b) times the staged tail from m on, which the divisibility
    window and the separation constraint pin inside the adapted shape.
    """
    if not 1 <= m <= len(plan.stages):
        raise StageUnavailableError(f"stage {m} is not committed")
    if m in plan._certs:
        return plan._certs[m]
    cfg = plan.config
    st = plan.stages[m - 1]
    eps_res = field.monomial(1, st.v_eps, 0)

    cancellers = []
    for prev in plan.stages[: m - 1]:
        t_exp, x_exp = plan.alpha_term_exps(prev)
        alpha_term = field.monomial(1, t_exp, x_exp)
        fw = field.monomial(1, *plan.fw_image_exps(prev))
        d = eps_res * alpha_term * fw.invert()
        ((d_exps, d_coeff),) = d.terms.items()
        if d_exps[1] != 0:
            raise AdaptednessFailedError(
                f"divisor quotient for stage {prev.m} kept x-exponent {d_exps[1]}"
            )
        if d_exps[0] < 0:
            raise AdaptednessFailedError(
                f"divisor quotient for stage {prev.m} has valuation "
                f"{d_exps[0]} < 0; eps is not divisible enough"
            )
        if prev.omega >= 0:
            w_exps = (Fraction(0), prev.omega * cfg.p ** prev.b, Fraction(0), Fraction(0))
        else:
            w_exps = (Fraction(0), Fraction(0), -prev.omega * cfg.p ** prev.b, Fraction(0))
        cancellers.append(
            ring.monomial(d_coeff, d_exps[0], w_exps[1:])
        )

    head = ring.monomial(1, st.v_eps, (0, 0, 1))
    for piece in cancellers:
        head = head - piece
    preimage = head.frobenius(-st.b)
    ring.check_element(preimage)
    if not is_integral(preimage):
        raise AdaptednessFailedError(f"stage {m} preimage left the unit-ball subring")

    image = (eps_res * _tail_series(plan, m, field)).frobenius(-st.b)

    lead = image.leading()
    if lead is None:
        raise AdaptednessFailedError(f"stage {m} image has no resolved leading term")
    lead_w, lead_exps, lead_coeff = lead
    residual = image - field.monomial(lead_coeff, *lead_exps)
    res_val = residual.val_lower()

    checks = [
        CheckRecord(
            name="value_window",
            lhs=str(lead_w),
            op="in [0, v_s)",
            rhs=str(cfg.v_s),
            ok=0 <= lead_w < cfg.v_s,
        ),
        CheckRecord(
            name="leading_exponent",
            lhs=str(lead_exps[1]),
            op="==",
            rhs=str(st.omega),
            ok=lead_exps[1] == st.omega,
        ),
        CheckRecord(
            name="tail_gap",
            lhs="EXACT" if res_val is None else str(res_val),
            op=">",
            rhs=str(1 + cfg.v_s),
            ok=res_val is None or res_val > 1 + cfg.v_s,
        ),
    ]
    cert = AdaptedCertificate(
        m=m,
        q=st.omega,
        v_s=cfg.v_s,
        preimage=preimage,
        image=image,
        leading_exps=lead_exps,
        leading_coeff=lead_coeff,
        checks=checks,
    )
    if not cert.ok:
        bad = ", ".join(c.name for c in checks if not c.ok)
        raise AdaptednessFailedError(f"stage {m} failed exact checks: {bad}")
    plan._certs[m] = cert
    return cert


def certificate_for_exponent(plan: AlphaPlan, q, field: ResidueField, ring: TateRing) -> AdaptedCertificate:
    """Certificate for a requested leading exponent, extending on demand."""
    st = ensure_stage(plan, q)
    return build_adapted(plan, st.m, field, ring)


def kernel_witness(plan: AlphaPlan, field: ResidueField, ring: TateRing) -> dict:
    """The two exact facts separating the kernel from every evaluation ideal.

    The image of the first generator has valuation gamma_x, which lies
    outside the ground value group, so the quotient field properly extends
    the ground field; and the product relation x1*x2 - c maps to the exact
    zero, so the map factors through the quotient by that relation.
    """
    sub = standard_substitution(plan, field, ring)
    x1_img = sub.apply(ring.var(1))
    val = x1_img.val_lower()
    rel = ring.var(1) * ring.var(2) - ring.monomial(1, plan.v_c, (0, 0, 0))
    rel_img = sub.apply(rel)
    return {
        "witness_valuation": val,
        "witness_in_value_group": field.ground.contains_value(val),
        "relation_maps_to_zero": rel_img.is_zero and rel_img.precision is EXACT,
    }


# -- serialization ------------------------------------------------------------


def plan_to_doc(plan: AlphaPlan, summary: dict | None = None) -> dict:
    doc = {
        "kind": "plan",
        "format": 1,
        "instance": plan.config.to_dict(),
        "v_c": str(plan.v_c),
        "tail_guard": str(plan.tail_guard),
        "m_base": plan.m_base,
        "stages": [
            {
                "m": st.m,
                "omega": str(st.omega),
                "v_e": str(st.v_e),
                "b": st.b,
                "v_eps": str(st.v_eps),
            }
            for st in plan.stages
        ],
    }
    if summary is not None:
        doc["summary"] = summary
    return doc


def plan_summary(plan: AlphaPlan, field: ResidueField, ring: TateRing) -> dict:
    """Verification summary for a transcript: certificate count plus the
    kernel witness facts, the latter recomputed exactly.

    No certificate is built here.  The count is of the stages whose three
    adapted facts the independent `verify_plan` checks in closed form: it
    ran on the fresh plan inside `build_plan`, and it runs again on every
    document that carries this summary.
    """
    alpha = assemble_alpha(plan, field)
    witness = kernel_witness(plan, field, ring)
    return {
        "alpha_valuation": str(alpha.val_lower()),
        "alpha_precision": str(alpha.precision),
        "certificates_verified": len(plan.stages),
        "witness_valuation": str(witness["witness_valuation"]),
        "witness_in_value_group": witness["witness_in_value_group"],
        "relation_maps_to_zero": witness["relation_maps_to_zero"],
    }


def certificate_to_doc(plan: AlphaPlan, cert: AdaptedCertificate) -> dict:
    return {
        "kind": "certificate",
        "format": 1,
        "plan": plan_to_doc(plan),
        "m": cert.m,
        "q": str(cert.q),
        "v_s": str(cert.v_s),
        "preimage": render_series(cert.preimage),
        "image": render_series(cert.image),
        "leading": {
            "t_exp": str(cert.leading_exps[0]),
            "x_exp": str(cert.leading_exps[1]),
            "coeff": cert.leading_coeff,
        },
        "checks": [
            {"name": c.name, "lhs": c.lhs, "op": c.op, "rhs": c.rhs, "ok": c.ok}
            for c in cert.checks
        ],
    }


def dump_doc(doc: dict) -> str:
    """Canonical JSON used for every transcript: sorted keys, two-space
    indent, trailing newline, so identical runs are byte-identical."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
