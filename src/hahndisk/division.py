"""Successive-approximation division against the staged substitution map.

Given a target beta in the residue field with valuation >= v_s, step m
consumes the band of terms with weight in [m + v_s, m + 1 + v_s): each band
term b*x^q is matched by the adapted certificate for exponent q, the exact
ground-field quotient d = b / (leading * t^m) has valuation > 0, and the
correction sum d * t^m * preimage_q moves the residual strictly past the
next band floor.  Every bound but the quotient's, which the certificate's
value window implies, is checked as an exact rational comparison; a failed
check aborts the run instead of degrading it.  The bounds follow from a
step's position, so the trace records none of them, and a step records
only its quotients: the band and the residual follow from the target, and
the correction from the quotients and the plan.

Band boundaries are half-open: a term of weight exactly m + 1 + v_s belongs
to the next band, so each term is consumed exactly once.

The corrections are checked against the substitution map f without
building any preimage.  A correction is a sum of d * preimage_q with d free
of x, and f is a ring map fixing such d, so it suffices that each used
certificate's f(preimage) agrees with its image wherever both are known.
For stage m, with r = 1/p^b and s = v_eps * r, the preimage is t^s x3^r
minus, for each j < m, t^s (t^(-d_j) W_j)^r, where W_j is stage j's
divisor monomial (x1^(p^b omega), or x2^(-p^b omega) for omega < 0) and
d_j its demand; v_eps >= d_j makes each canceller integral.  Two exact
facts then fix f(preimage):
  (a) f(t^(-d_j) W_j) is T_j, stage j's term of alpha.  x1 and x2 map to
      the exact monomials x and c x^-1, so (a) is read off their images:
      `SubstitutionMap.monomial_image` gives the key and coefficient of
      f(t^(-d_j) W_j) in closed form, and no series is built;
  (b) f(x3) is alpha, whose terms are the stage terms T_l, known up to
      prec(alpha) = min(work_prec, stages + 1).
Roots are additive in characteristic p, so f(preimage) is t^s times the
root of alpha's terms from stage m on, known up to s + prec(alpha) * r.
The image is t^s times the roots of the T_l with l >= m, known up to
s + work_prec by the tail guard, which is no less.  So (b) compares their
terms below s + prec(alpha) * r, with no series product.  (a) depends on j
alone: checked once per stage up to the highest one used, it costs
O(stages) per run.

A step's correction is the sum of its products d * image_q, taken in one
`from_terms`, so no partial sum is copied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain

from .builder import AlphaPlan, certify, plan_to_doc
from .errors import (
    AdaptednessFailedError,
    ConfigError,
    ContractViolationError,
    InsufficientPrecisionError,
    UnresolvedError,
)
from .series import TruncatedSeries, min_precision, render_series
from .valgroup import EXACT


def normalize_target(plan: AlphaPlan, beta: TruncatedSeries) -> tuple:
    """Smallest integer shift k >= 0 with valuation(t^k * beta) >= v_s.

    The exact zero has valuation +infinity and needs no shift; a zero known
    only up to its precision has no leading term to shift."""
    if not beta.terms:
        if beta.precision is EXACT:
            return 0, beta
        raise UnresolvedError("target has no resolved leading term")
    k = max(0, math.ceil(plan.config.v_s - beta.val_lower()))
    if k == 0:
        return 0, beta
    return k, plan.field.monomial(1, k, 0) * beta


@dataclass
class DivisionStep:
    """Step m, the step's position in the trace, certifies valuation
    >= m + v_s before it and >= m + 1 + v_s after it."""
    band: TruncatedSeries    # the consumed slice of beta_m
    quotients: tuple         # (q, d) per x-exponent q of the band, split order
    beta_after: TruncatedSeries


@dataclass
class DivisionTrace:
    plan: AlphaPlan  # the plan as the run extended it
    target: TruncatedSeries
    steps: list
    final_beta: TruncatedSeries  # the last beta_after, or the target


def _certified_val(beta: TruncatedSeries, floor: Fraction, what: str):
    val = beta.val_lower()
    if val is not None and val < floor:
        raise ContractViolationError(f"{what}: valuation {val} < certified {floor}")


def run_division(plan: AlphaPlan, beta: TruncatedSeries, steps: int) -> DivisionTrace:
    """Run `steps` certified division steps against a normalized target.

    A band exponent without a stage extends the plan, and the trace carries
    the extended plan.  Certificates are kept by exponent.  After the last
    step, facts (a) and (b) of the module docstring are checked against the
    plan the trace carries: a stage `extend` appends clears the tail guard,
    so an earlier certificate's image is unchanged.
    """
    if steps < 0:
        raise ConfigError(f"the step count must be nonnegative, got {steps}")
    cfg, field = plan.config, plan.field
    v_s = cfg.v_s
    _certified_val(beta, v_s, "target is not normalized")
    beta_m = beta
    records = []
    certs = {}
    for m in range(steps):
        # beta_m >= m + v_s: the target check, or step m - 1's contraction
        lo = m + v_s
        hi = lo + 1
        if beta_m.precision is not EXACT and beta_m.precision < hi:
            raise InsufficientPrecisionError(
                f"step {m}: residual precision {beta_m.precision} does not "
                f"cover the band up to {hi}"
            )
        band = beta_m.window(lo, hi)
        quotients, products = [], []
        for q, part in band.split(1):
            if q not in certs:
                plan, cert = certify(plan, q)
                certs[q] = cert, field.monomial(cert.leading_coeff, *cert.leading_exps).invert()
            cert, lead_inv = certs[q]
            # d = part / lead, free of x since lead carries x^q, is the
            # quotient b / (lead * t^m) times t^m, of weight > m: part weighs
            # >= m + v_s, and `certify` checked the lead's weight < v_s
            d = part * lead_inv
            quotients.append((q, d))
            products.append(d * cert.image)
        beta_next = beta_m - _sum(field.profile, products)
        _certified_val(beta_next, hi, f"step {m} contraction bound")
        records.append(DivisionStep(band=band, quotients=tuple(quotients),
                                    beta_after=beta_next))
        beta_m = beta_next
    _check_divisors(plan, [cert for cert, _ in certs.values()])
    return DivisionTrace(plan=plan, target=beta, steps=records, final_beta=beta_m)


def _sum(profile, parts) -> TruncatedSeries:
    """The sum of the series `parts` through one `from_terms`: a running
    sum's terms and dict order, with no partial sum copied."""
    return TruncatedSeries.from_terms(
        profile, chain.from_iterable(f.terms.items() for f in parts),
        reduce(min_precision, (f.precision for f in parts), EXACT))


def _check_divisors(plan: AlphaPlan, certs):
    """The module docstring's demand v_eps >= d_j and fact (b) at each
    certificate's stage, and fact (a) at every stage up to the highest."""
    by_m = {cert.m: cert for cert in certs}
    if not by_m:
        return
    sub = plan.substitution
    images, weight = sub.images, plan.field.profile.weight
    alpha = images[2]
    rest = dict(alpha.terms)  # alpha's terms from stage st on
    demand = Fraction(0)  # the largest d_j of the stages before st
    # (a) is read off a used image only if it is an exact single term
    monomial = [len(img.terms) == 1 and img.precision is EXACT for img in images]
    for st in plan.stages[:max(by_m)]:
        if st.m in by_m:
            if st.v_eps < demand:
                raise AdaptednessFailedError(
                    f"stage {st.m}: eps has valuation {st.v_eps} below the demand "
                    f"{demand} of an earlier stage")
            # alpha's term keys (a, x) from st on, shifted by eps and rooted:
            # ((v_eps + a) / p^b, x / p^b), on numerators
            scale, vn, vd = plan.config.p ** st.b, st.v_eps.numerator, st.v_eps.denominator
            bound = Fraction(vn, vd * scale) + alpha.precision / scale
            want = {(Fraction(vn * a.denominator + a.numerator * vd, vd * a.denominator * scale),
                     Fraction(x.numerator, x.denominator * scale)): c
                    for (a, x), c in rest.items()}
            got = {e: c for e, c in by_m[st.m].image.terms.items() if weight(e) < bound}
            if got != want:
                raise ContractViolationError(f"stage {st.m}: the image disagrees with the "
                                             f"root of alpha below weight {bound}")
        d, term = plan.d_requirement(st), plan.alpha_term_exps(st)
        exps = (-d, *plan.divisor_exps(st))
        if not (all(monomial[i] for i, q in enumerate(exps[1:]) if q)
                and sub.monomial_image(exps) == (term, 1)):
            raise ContractViolationError(f"stage {st.m}: the divisor monomial does not "
                                         f"map to the stage term t^{term[0]} x^{term[1]}")
        rest.pop(term, None)
        if d > demand:
            demand = d


# -- serialization ------------------------------------------------------------


def trace_to_doc(trace: DivisionTrace, normalize_k: int = 0) -> dict:
    """Trace format 4.  Step m is the m-th record, a list of [q, d] pairs in
    `split` order: the band's x-exponents and their quotients, the only
    free content of a step.  The band and the residuals replay from the
    target, and the correction is the sum of d * preimage_q."""
    return {
        "kind": "trace",
        "format": 4,
        "plan": plan_to_doc(trace.plan),
        "target": render_series(trace.target),
        "normalize_k": normalize_k,
        "steps_requested": len(trace.steps),
        "steps": [[[str(q), render_series(d)] for q, d in s.quotients]
                  for s in trace.steps],
    }
