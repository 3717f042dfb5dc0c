"""Successive-approximation division against the staged substitution map.

Given a target beta in the residue field with valuation >= v_s, step m
consumes the band of terms with weight in [m + v_s, m + 1 + v_s): each band
term b*x^q is matched by the adapted certificate for exponent q, the exact
ground-field quotient d = b / (leading * t^m) has valuation > 0, and the
correction sum d * t^m * preimage_q moves the residual strictly past the
next band floor.  Every bound is checked as an exact rational comparison;
a failed check aborts the run instead of degrading it.  The bounds follow
from a step's position, so the trace records none of them, and a step
records only its quotients: the band and the residual follow from the
target, and the correction from the quotients and the plan.

Band boundaries are half-open: a term of weight exactly m + 1 + v_s belongs
to the next band, so each term is consumed exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .builder import AlphaPlan, certify, plan_to_doc
from .errors import (
    ConfigError,
    ContractViolationError,
    InsufficientPrecisionError,
    UnresolvedError,
)
from .series import TruncatedSeries, render_series
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
    step each is checked once, in first-use order, against the substitution
    route of the plan the trace carries: a stage `extend` appends clears
    the tail guard, so an earlier certificate's image is unchanged, and the
    final map resolves at least what an earlier one did.
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
        if beta_m.precision is not EXACT and beta_m.precision < m + 1 + v_s:
            raise InsufficientPrecisionError(
                f"step {m}: residual precision {beta_m.precision} does not "
                f"cover the band up to {m + 1 + v_s}"
            )
        band = beta_m.window(m + v_s, m + 1 + v_s)
        f_e = field.zero()
        quotients = []
        for q, part in band.split(1):
            if q not in certs:
                plan, cert = certify(plan, q)
                certs[q] = cert, field.monomial(cert.leading_coeff, *cert.leading_exps).invert()
            cert, lead_inv = certs[q]
            # d = part / lead, free of x since lead carries x^q, is the
            # quotient b / (lead * t^m) times t^m
            d = part * lead_inv
            d_val = d.val_lower() - m
            if not d_val > 0:
                raise ContractViolationError(
                    f"step {m}: quotient for exponent {q} has valuation "
                    f"{d_val}, expected > 0"
                )
            quotients.append((q, d))
            f_e = f_e + d * cert.image
        beta_next = beta_m - f_e
        _certified_val(beta_next, m + 1 + v_s, f"step {m} contraction bound")
        records.append(DivisionStep(band=band, quotients=tuple(quotients),
                                    beta_after=beta_next))
        beta_m = beta_next
    for cert, _ in certs.values():
        _check_consistency(plan.substitution.apply(cert.preimage, cfg.work_prec)
                           - cert.image, f"stage {cert.m}")
    return DivisionTrace(plan=plan, target=beta, steps=records, final_beta=beta_m)


def _check_consistency(diff: TruncatedSeries, where: str):
    """The generic substitution route must agree with the certificate route
    on every term it can resolve: `diff`, apply(preimage) - image for one
    certificate, has no stored term below its propagated precision.

    A step's correction is the sum of d * preimage_q over its quotients,
    with each d free of x, and the map is a ring map that fixes such d.  So
    the image of any correction, or of the whole approximant, differs from
    what the certificates removed by the sum of d * (apply(preimage_q) -
    image_q), and one check per certificate covers every step that uses it.
    """
    if diff.terms:
        w, exps = min((diff.profile.weight(e), e) for e in diff.terms)
        raise ContractViolationError(
            f"{where}: substitution route disagrees at weight {w} "
            f"(exponents {exps}, coefficient {diff.terms[exps]})"
        )


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
