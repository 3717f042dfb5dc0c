"""Successive-approximation division against the staged substitution map.

Given a target beta in the residue field with valuation >= v_s, step m
consumes the band of terms with weight in [m + v_s, m + 1 + v_s): each band
term b*x^q is matched by the adapted certificate for exponent q, the exact
ground-field quotient d = b / (leading * t^m) has valuation > 0, and the
correction e_m = sum d * t^m * preimage_q moves the residual strictly past
the next band floor.  Every bound is recorded and re-checked as an exact
rational comparison; a failed check aborts the run instead of degrading it.

Band boundaries are half-open: a term of weight exactly m + 1 + v_s belongs
to the next band, so each term is consumed exactly once.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

from .builder import (
    AlphaPlan,
    certificate_for_exponent,
    plan_to_doc,
    standard_substitution,
)
from .errors import (
    ContractViolationError,
    InsufficientPrecisionError,
    UnresolvedError,
)
from .fields import ResidueField
from .series import TruncatedSeries, render_series
from .tate import TateRing
from .valgroup import EXACT, as_fraction


def normalize_target(field: ResidueField, beta: TruncatedSeries, v_s) -> tuple:
    """Smallest integer shift k >= 0 with valuation(t^k * beta) >= v_s."""
    v_s = as_fraction(v_s)
    val = beta.val_lower()
    if val is None and not beta.terms:
        raise UnresolvedError("cannot normalize the exact zero")
    if beta.precision is not EXACT and not beta.terms:
        raise UnresolvedError("target has no resolved leading term")
    k = max(0, math.ceil(v_s - val))
    if k == 0:
        return 0, beta
    shifted = field.monomial(1, k, 0) * beta
    return k, shifted


def slice_band(beta: TruncatedSeries, m: int, v_s: Fraction) -> TruncatedSeries:
    """Terms of weight in [m + v_s, m + 1 + v_s), as an exact element."""
    lo = m + v_s
    hi = m + 1 + v_s
    kept = {
        exps: c
        for exps, c in beta.terms.items()
        if lo <= beta.profile.weight(exps) < hi
    }
    return TruncatedSeries(beta.profile, kept, EXACT)


@dataclass
class DivisionStep:
    m: int
    bound: Fraction          # certified: valuation(beta_m) >= bound
    beta: TruncatedSeries    # residual entering the step
    band: TruncatedSeries    # the consumed slice of beta_m
    e: TruncatedSeries       # correction added to the approximant
    a_after: TruncatedSeries
    beta_after: TruncatedSeries


@dataclass
class DivisionTrace:
    plan: AlphaPlan
    target: TruncatedSeries
    steps_requested: int
    steps: list
    final_beta: TruncatedSeries
    final_bound: Fraction
    final_val_lower: Fraction

    @property
    def a_final(self) -> TruncatedSeries:
        if self.steps:
            return self.steps[-1].a_after
        return None


def _certified_val(beta: TruncatedSeries, floor: Fraction, what: str):
    val = beta.val_lower()
    if val is not None and val < floor:
        raise ContractViolationError(f"{what}: valuation {val} < certified {floor}")
    return val


def run_division(plan: AlphaPlan, field: ResidueField, ring: TateRing,
                 beta: TruncatedSeries, steps: int) -> DivisionTrace:
    """Run `steps` certified division steps against a normalized target."""
    cfg = plan.config
    v_s = cfg.v_s
    _certified_val(beta, v_s, "target is not normalized")
    a = ring.zero()
    beta_m = beta
    records = []
    for m in range(steps):
        _certified_val(beta_m, m + v_s, f"step {m} entry bound")
        if beta_m.precision is not EXACT and beta_m.precision < m + 1 + v_s:
            raise InsufficientPrecisionError(
                f"step {m}: residual precision {beta_m.precision} does not "
                f"cover the band up to {m + 1 + v_s}"
            )
        band = slice_band(beta_m, m, v_s)
        groups = {}
        for exps, c in band.terms.items():
            groups.setdefault(exps[1], {})[exps] = c
        f_e = field.zero()
        e_m = ring.zero()
        order = sorted(
            groups, key=lambda q: (min(band.profile.weight(e) for e in groups[q]), q)
        )
        t_m_res = field.monomial(1, m, 0)
        t_m_ring = ring.monomial(1, m, (0, 0, 0))
        for q in order:
            cert = certificate_for_exponent(plan, q, field, ring)
            part = TruncatedSeries(field.profile, groups[q], EXACT)
            lead = field.monomial(cert.leading_coeff, *cert.leading_exps)
            d = part * (lead * t_m_res).invert()
            if any(exps[1] != 0 for exps in d.terms):
                raise ContractViolationError(
                    f"step {m}: quotient for exponent {q} kept an x-exponent"
                )
            d_val = d.val_lower()
            if not (d_val is not None and d_val > 0):
                raise ContractViolationError(
                    f"step {m}: quotient for exponent {q} has valuation "
                    f"{d_val}, expected > 0"
                )
            d_ring = TruncatedSeries(
                ring.profile,
                {(a0, Fraction(0), Fraction(0), Fraction(0)): c
                 for (a0, _), c in d.terms.items()},
                d.precision,
            )
            e_m = e_m + d_ring * t_m_ring * cert.preimage
            f_e = f_e + d * t_m_res * cert.image
        beta_next = beta_m - f_e
        a_next = a + e_m
        _certified_val(beta_next, m + 1 + v_s, f"step {m} contraction bound")
        step_gap = e_m.val_lower()
        if step_gap is not None and step_gap < m:
            raise ContractViolationError(
                f"step {m}: approximant moved by valuation {step_gap} < {m}"
            )
        sub = standard_substitution(plan, field, ring)
        _check_consistency(sub.apply(e_m, cfg.work_prec) - f_e, f"step {m}")
        records.append(
            DivisionStep(
                m=m,
                bound=m + v_s,
                beta=beta_m,
                band=band,
                e=e_m,
                a_after=a_next,
                beta_after=beta_next,
            )
        )
        beta_m, a = beta_next, a_next
    final_val = _certified_val(beta_m, steps + v_s, "final residual bound")
    sub = standard_substitution(plan, field, ring)
    _check_consistency(sub.apply(a, cfg.work_prec) + beta_m - beta, "final")
    return DivisionTrace(
        plan=plan,
        target=beta,
        steps_requested=steps,
        steps=records,
        final_beta=beta_m,
        final_bound=steps + v_s,
        final_val_lower=beta_m.precision if final_val is None else final_val,
    )


def _check_consistency(diff: TruncatedSeries, where: str):
    """The generic substitution route must agree with the certificate route
    on every term it can resolve: `diff` has no stored term below its
    propagated precision.

    Each step checks apply(e_m) - (beta_m - beta_{m+1}); the ring map is
    additive, so the increments add up to the whole.  The run ends with one
    whole check, apply(a) + beta_M - beta: terms of the increments can cancel
    in a, and then apply(a) resolves terms that every increment check left
    beyond its propagated precision.
    """
    if diff.terms:
        w, exps = min((diff.profile.weight(e), e) for e in diff.terms)
        raise ContractViolationError(
            f"{where}: substitution route disagrees at weight {w} "
            f"(exponents {exps}, coefficient {diff.terms[exps]})"
        )


# -- serialization ------------------------------------------------------------


def target_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_to_doc(trace: DivisionTrace, normalize_k: int = 0) -> dict:
    target_text = render_series(trace.target)
    return {
        "kind": "trace",
        "format": 1,
        "plan": plan_to_doc(trace.plan),
        "target": target_text,
        "target_sha256": target_digest(target_text),
        "normalize_k": normalize_k,
        "steps_requested": trace.steps_requested,
        "steps": [
            {
                "m": s.m,
                "bound": str(s.bound),
                "beta": render_series(s.beta),
                "band": render_series(s.band),
                "e": render_series(s.e),
                "a_after": render_series(s.a_after),
                "beta_after": render_series(s.beta_after),
            }
            for s in trace.steps
        ],
        "final": {
            "bound": str(trace.final_bound),
            "residual": render_series(trace.final_beta),
            "val_lower": "EXACT" if trace.final_val_lower is None
                         else str(trace.final_val_lower),
        },
    }
