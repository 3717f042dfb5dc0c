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

A plan commits finitely many stages: the configured `stages` base stages
along the enumeration, then any appended ones.  Claims about the uncommitted
tail are quantified over all continuations that satisfy the constraints
above plus a tail guard: every appended stage must clear `work_prec`
(instead of merely 1 + v_s) in the separation inequality.  Plans are values:
`extend` returns a new plan with the appended stage, shares the stage
prefix, and enforces the guard, so certificates issued against the shorter
plan stay valid verbatim.  A plan derives its residue field, R_3, v_c and
substitution map once, on first use, so no caller passes them; an
extended plan shares the first three and builds its own map.

A plan document (format 3) records only the free choices: the instance and
each stage's omega and b.  v_c, each stage's index, v_e and v_eps follow
from them, and the verifier derives them again.  It also derives the two
facts of `kernel_witness` from the instance, so no plan records them.

For each committed stage the builder produces an `AdaptedCertificate`: an
integral preimage whose image has valuation in [0, v_s), leading monomial
exponent equal to the stage exponent, and the rest of the image beyond
1 + v_s; the three facts are checked as exact rational comparisons.  The
image and its facts are built first; the preimage is built apart, on
first use, since a division reads only the image (see `division`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import takewhile

from .config import MAX_B_SEARCH, InstanceConfig
from .errors import (AdaptednessFailedError, ContractViolationError, SearchCeilingError,
                     StageUnavailableError)
from .fields import ResidueField, choose_c
from .series import TruncatedSeries, render_series
from .tate import SubstitutionMap, TateRing, is_integral
from .valgroup import EXACT, as_fraction, is_in_zp, omega, stage_point

_ZERO = Fraction(0)


@dataclass(frozen=True)
class PlanStage:
    m: int
    omega: Fraction
    v_e: Fraction
    b: int
    v_eps: Fraction


@dataclass(frozen=True)
class AlphaPlan:
    """The tail guard is `config.work_prec`, and the first `config.stages`
    stages are the base stages."""
    config: InstanceConfig
    stages: tuple

    # -- derived objects ------------------------------------------------------

    @cached_property
    def field(self) -> ResidueField:
        return self.config.residue()

    @cached_property
    def ring(self) -> TateRing:
        return self.config.tate()

    @cached_property
    def v_c(self) -> Fraction:
        """Valuation of the constant c in the second generator's image."""
        return choose_c(self.field, self.config.v_s)

    @cached_property
    def substitution(self) -> SubstitutionMap:
        """Generator images: x1 -> x, x2 -> c x^{-1}, x3 -> the staged sum."""
        field = self.field
        return SubstitutionMap(self.ring, field, (
            field.x_power(1), field.monomial(1, self.v_c, -1), assemble_alpha(self)))

    # -- stage arithmetic ---------------------------------------------------

    def alpha_term_exps(self, st: PlanStage):
        """(t-exponent, x-exponent) of the stage term in the residue field."""
        scale = self.config.p ** st.b
        return (scale * st.v_e, scale * st.omega)

    def d_requirement(self, st: PlanStage) -> Fraction:
        """Valuation demanded of eps so that eps * (stage term) is divisible
        by the image of this stage's divisor monomial W, which is
        x1^{omega p^b} when omega >= 0, else x2^{-omega p^b}:
        weight(f(W)) - weight(stage term), which is
        -p^b * (v_e + min(omega, 0) * v_c) written out.  The t-exponent of
        eps * (stage term) / f(W) is v_eps - d_requirement."""
        return Fraction(*self._d_pair(st))

    def _d_pair(self, st: PlanStage) -> tuple:
        """`d_requirement` as a (numerator, positive denominator) pair."""
        scale, en, ed = self.config.p ** st.b, st.v_e.numerator, st.v_e.denominator
        on, od = st.omega.numerator, st.omega.denominator
        if on >= 0:
            return -scale * en, ed
        cn, cd = self.v_c.numerator, self.v_c.denominator
        return -scale * (en * od * cd + on * cn * ed), ed * od * cd

    def divisor_exps(self, st: PlanStage, root: int = 1) -> tuple:
        """The (x1, x2, x3) exponents of the divisor monomial W, or of its
        root W^(1/root), each one Fraction.  The map sends
        t^(-d_requirement) W to the stage term, and a later preimage
        cancels the stage with the root of that monomial."""
        on, od = st.omega.numerator, st.omega.denominator
        x = Fraction(abs(on) * self.config.p ** st.b, od * root)
        return (x, _ZERO, _ZERO) if on >= 0 else (_ZERO, x, _ZERO)

    @cached_property
    def stage_index(self) -> dict:
        """Each stage by its exponent omega; `_append_stage` hands it on."""
        return {st.omega: st for st in self.stages}


# -- plan construction -------------------------------------------------------


def _minimal_b(plan: AlphaPlan, m: int, wn: int, wd: int, v_eps: Fraction, base: bool) -> int:
    """Least b meeting growth, window and separation against every stage.

    Since 0 < w < v_s, the separation gap p^(b - b_j) * w is smallest
    against the stage with the largest b_j, so that stage alone decides
    separation; at b <= b_j the gap is at most w < 1 + v_s, so the scan
    starts at b_j + 1, so b strictly increases and the last stage has the
    largest b.  Each inequality is compared on cross-multiplied numerators;
    w = wn/wd with wd > 0.
    """
    cfg = plan.config
    sn, sd = cfg.v_s.numerator, cfg.v_s.denominator
    gn, gd = cfg.work_prec.numerator, cfg.work_prec.denominator
    # window v_eps / p^b < v_s - w, as need < p^b * room
    need = v_eps.numerator * sd * wd
    room = v_eps.denominator * (sn * wd - wn * sd)
    b = plan.stages[-1].b + 1
    scale, gap = cfg.p ** b, cfg.p  # p^b and p^(b - b_j) for the last stage j
    while b <= MAX_B_SEARCH:
        if (scale * wn > m * wd and need < scale * room
                and gap * wn * sd > (sd + sn) * wd
                and (base or gap * wn * gd > gn * wd)):
            return b
        b += 1
        scale *= cfg.p
        gap *= cfg.p
    raise SearchCeilingError(
        f"no Frobenius exponent below {MAX_B_SEARCH} resolves stage {m}"
    )


def _append_stage(plan: AlphaPlan, q: Fraction, base: bool) -> AlphaPlan:
    """The plan with one more stage, of exponent q; `plan` is unchanged."""
    cfg = plan.config
    if not is_in_zp(q, cfg.p):
        raise StageUnavailableError(f"{q} is not in Z[1/{cfg.p}]")
    m = len(plan.stages) + 1
    (en, ed), (wn, wd) = stage_point(q, cfg.gamma_x, cfg.v_s, cfg.p)
    # the demand is a running maximum: the last stage's v_eps already
    # covers every stage before it
    v_eps, b = _ZERO, 0  # the opening stage is pinned; its term is the leading term
    if plan.stages:
        last = plan.stages[-1]
        (dn, dd), v_eps = plan._d_pair(last), last.v_eps
        if dn * v_eps.denominator > v_eps.numerator * dd:
            v_eps = Fraction(dn, dd)
        b = _minimal_b(plan, m, wn, wd, v_eps, base)  # w = v_e + q * gamma_x
    st = PlanStage(m=m, omega=q, v_e=Fraction(en, ed), b=b, v_eps=v_eps)
    grown = replace(plan, stages=plan.stages + (st,))
    # field, ring and v_c follow from the config alone, and the stage
    # index grows by the new stage
    for name in ("field", "ring", "v_c"):
        if name in vars(plan):
            vars(grown)[name] = vars(plan)[name]
    if "stage_index" in vars(plan):
        vars(grown)["stage_index"] = {**plan.stage_index, q: st}
    return grown


def build_plan(config: InstanceConfig) -> AlphaPlan:
    """Commit the configured number of stages along the fixed enumeration.

    Base stages use the minimal Frobenius exponent meeting growth, window
    and separation; the constraints are re-verified on the finished plan by
    the independent checker.
    """
    plan = AlphaPlan(config=config, stages=())
    for m in range(1, config.stages + 1):
        plan = _append_stage(plan, omega(m, config.p), base=True)
    from . import verify  # deferred: verify must stay import-free of builder

    report = verify.verify_plan(plan_to_doc(plan))
    if not report.ok:
        raise ContractViolationError(
            "freshly built plan failed its own verification:\n" + report.text()
        )
    return plan


def extend(plan: AlphaPlan, q) -> AlphaPlan:
    """A plan with a stage of exponent q: `plan` itself if it has one, else
    a new plan that appends one under the tail guard."""
    q = as_fraction(q)
    if q in plan.stage_index:
        return plan
    return _append_stage(plan, q, base=False)


def certify(plan: AlphaPlan, q):
    """(plan, certificate) for exponent q: the plan `extend` returns and the
    certificate of its stage for q."""
    q = as_fraction(q)
    plan = extend(plan, q)
    return plan, build_adapted(plan, plan.stage_index[q].m)


# -- assembled objects --------------------------------------------------------


def assemble_alpha(plan: AlphaPlan) -> TruncatedSeries:
    """The committed part of the staged sum.

    Omitted stages have weight beyond their index by the growth constraint,
    so the result is sound at precision min(work_prec, M + 1).
    """
    prec = min(plan.config.work_prec, Fraction(len(plan.stages) + 1))
    return TruncatedSeries.from_terms(
        plan.field.profile, ((plan.alpha_term_exps(st), 1) for st in plan.stages), prec)


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
    image: TruncatedSeries
    leading_exps: tuple
    leading_coeff: int
    checks: list
    plan: AlphaPlan = field(repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @cached_property
    def preimage(self) -> TruncatedSeries:
        """Built on first use, by `build_preimage`."""
        return build_preimage(self.plan, self.m)


def build_adapted(plan: AlphaPlan, m: int) -> AdaptedCertificate:
    """Build and exactly check the image of committed stage m's certificate.

    The image is eps_m^(1/p^b) times the staged tail from m on, which the
    divisibility window and the separation constraint pin inside the
    adapted shape; each exponent is scaled by the root 1/p^b as made.  A
    stage appended after m clears the tail guard against a b at least
    b_m, so its term lies past the image's precision, where the loop stops.
    """
    if not 1 <= m <= len(plan.stages):
        raise StageUnavailableError(f"stage {m} is not committed")
    cfg, field = plan.config, plan.field
    st = plan.stages[m - 1]
    scale, vn, vd = cfg.p ** st.b, st.v_eps.numerator, st.v_eps.denominator

    def key(later):
        # ((v_eps + p^b_l v_e_l) / p^b, p^b_l omega_l / p^b) on numerators
        lift, en, ed = cfg.p ** later.b, later.v_e.numerator, later.v_e.denominator
        return (Fraction(vn * ed + lift * en * vd, vd * ed * scale),
                Fraction(lift * later.omega.numerator, later.omega.denominator * scale))

    # eps times the stage terms from m on; the tail guard bounds every
    # stage not committed.  Stage l's term weighs (v_eps + p^b_l w_l) / p^b;
    # for k < l separation gives p^b_l w_l > p^b_k (1 + v_s) and the window
    # w_k < v_s, so p^b_l w_l strictly increases with l, and the terms below
    # the precision v_eps / p^b + work_prec are a prefix
    prec, weight = Fraction(vn, vd * scale) + cfg.work_prec, field.profile.weight
    kept = takewhile(lambda e: weight(e) < prec, map(key, plan.stages[m - 1:]))
    image = TruncatedSeries.from_terms(field.profile, ((e, 1) for e in kept), prec)

    lead = image.leading()
    if lead is None:
        raise AdaptednessFailedError(f"stage {m} image has no resolved leading term")
    lead_w, lead_exps, lead_coeff = lead
    res_val = min((field.profile.weight(e) for e in image.terms if e != lead_exps),
                  default=image.precision)

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
            lhs=str(res_val),
            op=">",
            rhs=str(1 + cfg.v_s),
            ok=res_val > 1 + cfg.v_s,
        ),
    ]
    cert = AdaptedCertificate(
        m=m,
        q=st.omega,
        image=image,
        leading_exps=lead_exps,
        leading_coeff=lead_coeff,
        checks=checks,
        plan=plan,
    )
    if not cert.ok:
        bad = ", ".join(c.name for c in checks if not c.ok)
        raise AdaptednessFailedError(f"stage {m} failed exact checks: {bad}")
    return cert


def build_preimage(plan: AlphaPlan, m: int) -> TruncatedSeries:
    """The integral preimage of committed stage m's certificate.

    It scales the third generator by eps_m and cancels every earlier stage
    j with its divisor monomial W_j times the quotient t^(v_eps_m - d_j),
    where d_j is stage j's demand; a Frobenius root brings it into the unit
    ball.  Each quotient is free of x, integral exactly when v_eps_m >= d_j,
    and the series is built once, each exponent one Fraction of integer
    numerators, the root 1/p^b included.
    """
    ring = plan.ring
    st = plan.stages[m - 1]
    scale, vn, vd = plan.config.p ** st.b, st.v_eps.numerator, st.v_eps.denominator
    head = [((Fraction(vn, vd * scale), _ZERO, _ZERO, Fraction(1, scale)), 1)]
    for prev in plan.stages[: m - 1]:
        dn, dd = plan._d_pair(prev)
        num = vn * dd - dn * vd  # v_eps - d_j over vd * dd
        if num < 0:
            raise AdaptednessFailedError(
                f"divisor quotient for stage {prev.m} has valuation "
                f"{Fraction(num, vd * dd)} < 0; eps is not divisible enough"
            )
        head.append(((Fraction(num, vd * dd * scale), *plan.divisor_exps(prev, scale)), -1))
    preimage = TruncatedSeries.from_terms(ring.profile, head, EXACT)
    ring.check_element(preimage)
    if not is_integral(preimage):
        raise AdaptednessFailedError(f"stage {m} preimage left the unit-ball subring")
    return preimage


def kernel_witness(plan: AlphaPlan) -> dict:
    """The two exact facts separating the kernel from every evaluation ideal.

    The image of the first generator has valuation gamma_x, which lies
    outside the ground value group, so the quotient field properly extends
    the ground field; and the product relation x1*x2 - c maps to the exact
    zero, so the map factors through the quotient by that relation.  Both
    are read off the generator images (`SubstitutionMap.monomial_image`):
    the valuation is the weight of x1's image, and x1*x2 - c is the exact
    zero iff the images of x1 and x2 are exact and x1*x2 maps to c, the
    monomial t^(v_c) with coefficient 1.
    """
    sub = plan.substitution
    val = plan.field.profile.weight(sub.monomial_image((0, 1, 0, 0))[0])
    exact = all(img.precision is EXACT for img in sub.images[:2])
    return {
        "witness_valuation": val,
        "witness_in_value_group": plan.field.ground.contains_value(val),
        "relation_maps_to_zero": exact and sub.monomial_image((0, 1, 1, 0)) == ((plan.v_c, 0), 1),
    }


# -- serialization ------------------------------------------------------------


def plan_to_doc(plan: AlphaPlan) -> dict:
    """Plan format 3: the instance and each stage's omega and b, the only
    free choices.  A stage's index is its position; v_c, v_e and v_eps
    follow from the instance and the earlier stages."""
    return {
        "kind": "plan",
        "format": 3,
        "instance": plan.config.to_dict(),
        "stages": [{"omega": str(st.omega), "b": st.b} for st in plan.stages],
    }


def certificate_to_doc(plan: AlphaPlan, cert: AdaptedCertificate) -> dict:
    """Certificate format 2, with the preimage built here.  The stage's
    three adapted facts are not recorded: the plan verifier derives them
    from the embedded plan, and the certificate verifier compares `image`
    and `preimage` with it."""
    return {
        "kind": "certificate",
        "format": 2,
        "plan": plan_to_doc(plan),
        "m": cert.m,
        "q": str(cert.q),
        "preimage": render_series(cert.preimage),
        "image": render_series(cert.image),
    }


def dump_doc(doc: dict) -> str:
    """Canonical JSON used for every transcript: sorted keys, two-space
    indent, trailing newline, so identical runs are byte-identical."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
