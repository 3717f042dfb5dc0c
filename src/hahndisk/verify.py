"""Independent checkers for transcripts, certificates and division traces.

Everything here is re-derived from the raw transcript numbers with direct
rational formulas; this module never imports the builder or the division
code, only the series engine and the shared value-group helpers.  A check
failure is reported with the stage or step it belongs to, so a single
mutated field in a document is pinpointed rather than merely rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .config import MAX_B_SEARCH, InstanceConfig
from .errors import HahndiskError
from .fields import GroundField, ResidueField
from .series import TruncatedSeries
from .tate import SubstitutionMap, TateRing
from .valgroup import EXACT, as_fraction, is_in_zp, omega, smallest_zp_point


@dataclass
class Finding:
    ok: bool
    where: str
    message: str


class Report:
    def __init__(self):
        self.findings = []

    def check(self, ok: bool, where: str, message: str) -> bool:
        self.findings.append(Finding(bool(ok), where, message))
        return bool(ok)

    def fail(self, where: str, message: str):
        self.findings.append(Finding(False, where, message))

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.findings)

    def failures(self):
        return [f for f in self.findings if not f.ok]

    def text(self, verbose: bool = False) -> str:
        lines = []
        for f in self.findings:
            if verbose or not f.ok:
                mark = "ok " if f.ok else "FAIL"
                lines.append(f"{mark} [{f.where}] {f.message}")
        lines.append(f"{'PASS' if self.ok else 'FAIL'}: "
                     f"{len(self.findings)} checks, {len(self.failures())} failures")
        return "\n".join(lines)


# -- raw transcript access ----------------------------------------------------


def _is_int(value) -> bool:
    """True for a JSON integer; JSON true/false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _format_is(doc: dict, want: int, rep: Report, where: str) -> bool:
    """The document's `format` is the JSON integer `want`: a document of
    another format may carry fields this checker would leave unread."""
    got = doc.get("format")
    return rep.check(_is_int(got) and got == want, where,
                     f"format {got!r} is {want}")


#: The fields of a format-2 trace step, each checked against the replay.
_STEP_FIELDS = frozenset({"m", "bound", "band", "e", "beta_after"})


@dataclass
class _Row:
    m: int  # as recorded: verify_plan checks m and b are JSON integers
    omega: Fraction
    v_e: Fraction
    b: int
    v_eps: Fraction


def _rows(doc) -> list:
    rows = []
    for raw in doc["stages"]:
        rows.append(
            _Row(
                m=raw["m"],
                omega=as_fraction(raw["omega"]),
                v_e=as_fraction(raw["v_e"]),
                b=raw["b"],
                v_eps=as_fraction(raw["v_eps"]),
            )
        )
    return rows


def _w(row: _Row, gamma_x: Fraction) -> Fraction:
    return row.v_e + row.omega * gamma_x


def _stage_weight(row: _Row, p: int, gamma_x: Fraction) -> Fraction:
    return p ** row.b * _w(row, gamma_x)


def _fw_weight(row: _Row, p: int, gamma_x: Fraction, v_c: Fraction) -> Fraction:
    if row.omega >= 0:
        return row.omega * p ** row.b * gamma_x
    return (-row.omega) * p ** row.b * (v_c - gamma_x)


def _d_requirement(row, p, gamma_x, v_c) -> Fraction:
    return _fw_weight(row, p, gamma_x, v_c) - _stage_weight(row, p, gamma_x)


def _constraints_hold(row, idx, b, top_b, p, gamma_x, v_s, guard, guarded) -> bool:
    """The exact stage inequalities for the stage at index idx (0-based) at
    Frobenius exponent b >= 0; top_b is the largest b of the earlier stages
    (None if there are none).

    Growth forces w > 0, so the separation gap p^(b - b_j) * w is smallest
    against the earlier stage with the largest b_j, and checking that one
    checks them all.  b may lie below top_b, so the power is an exact
    Fraction.
    """
    w = _w(row, gamma_x)
    scale = p ** b
    if not scale * w > idx + 1:
        return False
    if not row.v_eps / scale < v_s - w:
        return False
    if top_b is None:
        return True
    gap = Fraction(p) ** (b - top_b) * w
    return gap > 1 + v_s and (not guarded or gap > guard)


# -- formula-level reconstruction ----------------------------------------------


def _image_series(rows, idx, p, guard, field: ResidueField) -> TruncatedSeries:
    """The certificate image of stage idx+1, straight from the transcript:
    scaled committed stage terms from this stage on, bounded below by the
    tail guard for everything not committed."""
    row = rows[idx]
    scale = p ** row.b
    prec = row.v_eps / scale + guard
    terms = {}
    for later in rows[idx:]:
        t_exp = (row.v_eps + p ** later.b * later.v_e) / scale
        x_exp = Fraction(later.omega * p ** later.b, scale)
        key = (t_exp, x_exp)
        terms[key] = (terms.get(key, 0) + 1) % p
    return TruncatedSeries(field.profile, terms, prec)


def _preimage_series(rows, idx, p, v_c, ring: TateRing) -> TruncatedSeries:
    row = rows[idx]
    scale = p ** row.b
    terms = {(row.v_eps / scale, Fraction(0), Fraction(0), Fraction(1, scale)): 1}
    for prev in rows[:idx]:
        if prev.omega >= 0:
            d_t = row.v_eps + p ** prev.b * prev.v_e
            x1 = Fraction(prev.omega * p ** prev.b, scale)
            x2 = Fraction(0)
        else:
            d_t = row.v_eps + p ** prev.b * (prev.v_e + prev.omega * v_c)
            x1 = Fraction(0)
            x2 = Fraction(-prev.omega * p ** prev.b, scale)
        key = (d_t / scale, x1, x2, Fraction(0))
        terms[key] = (terms.get(key, 0) - 1) % p
    return TruncatedSeries(ring.profile, terms, EXACT)


def _alpha_series(rows, p, work_prec, field: ResidueField) -> TruncatedSeries:
    prec = min(work_prec, Fraction(len(rows) + 1))
    terms = {}
    for row in rows:
        key = (p ** row.b * row.v_e, Fraction(row.omega * p ** row.b))
        terms[key] = (terms.get(key, 0) + 1) % p
    return TruncatedSeries(field.profile, terms, prec)


def _fact_records(w0, x_exp, res_val, row: _Row, v_s: Fraction, rep: Report,
                  where: str) -> list:
    """Report the three adapted facts of a stage image, given its leading
    weight and x-exponent and the valuation of the rest, and return them as
    the check records a certificate carries."""
    records = [
        ("value_window", w0, "in [0, v_s)", v_s, 0 <= w0 < v_s,
         f"leading value {w0} inside [0, {v_s})"),
        ("leading_exponent", x_exp, "==", row.omega, x_exp == row.omega,
         f"leading exponent {x_exp} matches stage exponent {row.omega}"),
        ("tail_gap", "EXACT" if res_val is None else res_val, ">", 1 + v_s,
         res_val is None or res_val > 1 + v_s,
         f"residual valuation {res_val} beyond {1 + v_s}"),
    ]
    for _, _, _, _, ok, message in records:
        rep.check(ok, where, message)
    return [{"name": name, "lhs": str(lhs), "op": op, "rhs": str(rhs), "ok": ok}
            for name, lhs, op, rhs, ok, _ in records]


def _adapted_facts(image: TruncatedSeries, row: _Row, v_s: Fraction, rep: Report,
                   where: str):
    """The adapted facts read off a built image: its check records, or None
    when it has no leading term."""
    lead = image.leading()
    if lead is None:
        rep.fail(where, "image has no resolved leading term")
        return None
    w0, exps, coeff = lead
    residual = image - TruncatedSeries.monomial(image.profile, coeff, exps)
    return _fact_records(w0, exps[1], residual.val_lower(), row, v_s, rep, where)


def _image_facts_closed_form(rows, p, v_s, guard, field: ResidueField, rep: Report):
    """The adapted facts of every stage image without building the images.

    Image term l >= idx of stage idx weighs v_eps/p^b + p^(b_l - b) * w_l.
    Separation puts every l > idx past 1 + v_s > w, so the stage's own
    term leads and no two terms share a key; the rest of the image then
    has valuation v_eps/p^b + min(guard, min_{l>idx} p^(b_l - b) * w_l).
    Only call this once the stage checks, separation included, all hold.
    """
    # one pass from the last stage: min over l > idx of p^(b_l) * w_l
    later = [_stage_weight(row, p, field.gamma_x) for row in reversed(rows[1:])]
    later_min = list(accumulate(later, min))[::-1] + [None]
    for row, low in zip(rows, later_min):
        # the stage's own term, by the formulas of _image_series
        scale = p ** row.b
        t_exp = (row.v_eps + scale * row.v_e) / scale
        x_exp = Fraction(row.omega * scale, scale)
        rest = guard if low is None else min(guard, low / scale)
        _fact_records(field.profile.weight((t_exp, x_exp)), x_exp,
                      row.v_eps / scale + rest, row, v_s, rep, f"stage {row.m} image")


# -- plan verification ----------------------------------------------------------


def verify_plan(doc: dict, report: Report | None = None) -> Report:
    rep = report if report is not None else Report()
    if not isinstance(doc, dict) or doc.get("kind") != "plan":
        rep.fail("plan", "document kind is not 'plan'")
        return rep
    if not _format_is(doc, 1, rep, "plan"):
        return rep
    try:
        config = InstanceConfig.from_dict(doc["instance"])
        rows = _rows(doc)
        v_c = as_fraction(doc["v_c"])
        guard = as_fraction(doc["tail_guard"])
        m_base = doc["m_base"]
    except (KeyError, TypeError, ValueError, HahndiskError) as exc:
        rep.fail("plan", f"malformed transcript: {exc}")
        return rep
    if not _is_int(m_base):
        rep.fail("plan", f"base length {m_base!r} is not an integer")
        return rep
    p, gamma_x, v_s = config.p, config.gamma_x, config.v_s
    field = ResidueField(GroundField(p), gamma_x)

    rep.check(v_c == smallest_zp_point(gamma_x, gamma_x + v_s, p), "plan",
              f"v_c = {v_c} is the canonical point of ({gamma_x}, {gamma_x + v_s})")
    rep.check(guard == config.work_prec, "plan",
              f"tail guard {guard} equals work_prec {config.work_prec}")
    base_in_range = 1 <= m_base <= len(rows)
    rep.check(base_in_range and m_base == config.stages, "plan",
              f"base length {m_base} consistent with {len(rows)} committed stages")
    rep.check(all(_is_int(r.m) for r in rows)
              and [r.m for r in rows] == list(range(1, len(rows) + 1)), "plan",
              "stage indices are contiguous from 1")
    rep.check(len({r.omega for r in rows}) == len(rows), "plan",
              "stage exponents are pairwise distinct")
    # omega(m) computes the enumeration up to m: m_base within the stages
    # here, and each m at its position below, keep every index in range
    if not base_in_range:
        return rep

    # the divisibility demand and the largest b of all earlier stages
    demand, top_b = Fraction(0), None
    for idx, row in enumerate(rows):
        where = f"stage {idx + 1}"
        if idx:
            prev = rows[idx - 1]
            demand = max(demand, _d_requirement(prev, p, gamma_x, v_c))
            top_b = prev.b if top_b is None else max(top_b, prev.b)
        ok_member = rep.check(
            is_in_zp(row.omega, p) and is_in_zp(row.v_e, p) and is_in_zp(row.v_eps, p),
            where, "omega, v_e, v_eps lie in Z[1/p]")
        # No omega(m) and no p ** b is computed before these two checks.  A
        # later stage's demand and separation need this m and b, so a bad one
        # ends the stage checks.
        if not (_is_int(row.m) and row.m == idx + 1):
            rep.fail(where, f"index {row.m!r} is the stage position {idx + 1}")
            break
        if not rep.check(
                _is_int(row.b) and 0 <= row.b <= MAX_B_SEARCH, where,
                f"index {row.m!r} is a positive integer and Frobenius exponent "
                f"{row.b!r} an integer in [0, {MAX_B_SEARCH}]"):
            break
        if not ok_member:
            continue
        if row.m <= m_base:
            rep.check(row.omega == omega(row.m, p), where,
                      f"exponent {row.omega} follows the fixed enumeration")
        lo = -row.omega * gamma_x
        rep.check(row.v_e == smallest_zp_point(lo, lo + v_s, p), where,
                  f"v_e = {row.v_e} is the canonical point of ({lo}, {lo + v_s})")
        rep.check(row.v_eps == demand, where,
                  f"v_eps = {row.v_eps} equals the divisibility demand {demand}")
        w = _w(row, gamma_x)
        rep.check(0 < w < v_s, where, f"stage weight seed {w} inside (0, {v_s})")
        if row.m == 1:
            rep.check(row.b == 0, where, "opening stage has Frobenius exponent 0")
            continue
        guarded = row.m > m_base
        rep.check(
            _constraints_hold(row, idx, row.b, top_b, p, gamma_x, v_s, guard, guarded),
            where, f"growth, window and separation hold at b = {row.b}")
        # Growth, window and separation each only get easier as b grows once
        # w > 0 and v_eps >= 0, which this stage checks above.  A failure at
        # b - 1 is then a failure at every smaller b, so b - 1 alone decides
        # minimality; where w or v_eps is off, this stage has already failed.
        minimal = row.b == 0 or not _constraints_hold(
            row, idx, row.b - 1, top_b, p, gamma_x, v_s, guard, guarded)
        rep.check(minimal, where, f"b = {row.b} is minimal")

    if rep.ok:
        _image_facts_closed_form(rows, p, v_s, guard, field, rep)

    summary = doc.get("summary")
    if summary is not None and rep.ok:
        alpha = _alpha_series(rows, p, config.work_prec, field)
        rep.check(summary.get("alpha_valuation") == str(alpha.val_lower()),
                  "summary", "alpha valuation matches")
        rep.check(summary.get("alpha_precision") == str(alpha.precision),
                  "summary", "alpha precision matches")
        rep.check(summary.get("certificates_verified") == len(rows),
                  "summary", "certificate count matches")
        rep.check(summary.get("witness_valuation") == str(gamma_x),
                  "summary", "witness valuation is gamma_x")
        rep.check(summary.get("witness_in_value_group") is False,
                  "summary", "witness valuation lies outside Z[1/p]")
        x_img = field.x_power(1)
        cx_inv = field.monomial(1, v_c, -1)
        relation_zero = x_img * cx_inv - field.monomial(1, v_c, 0)
        rep.check(
            summary.get("relation_maps_to_zero") is True
            and relation_zero.is_zero and relation_zero.precision is EXACT,
            "summary", "product relation maps to the exact zero")
    return rep


# -- certificate verification ----------------------------------------------------


def verify_certificate(doc: dict, report: Report | None = None) -> Report:
    rep = report if report is not None else Report()
    if doc.get("kind") != "certificate":
        rep.fail("certificate", "document kind is not 'certificate'")
        return rep
    if not _format_is(doc, 1, rep, "certificate"):
        return rep
    verify_plan(doc.get("plan", {}), rep)
    if not rep.ok:
        return rep
    config = InstanceConfig.from_dict(doc["plan"]["instance"])
    rows = _rows(doc["plan"])
    v_c = as_fraction(doc["plan"]["v_c"])
    guard = as_fraction(doc["plan"]["tail_guard"])
    p = config.p
    field = ResidueField(GroundField(p), config.gamma_x)
    ring = TateRing(GroundField(p), 3)
    try:
        m = doc["m"]
        q = as_fraction(doc["q"])
        v_s = as_fraction(doc["v_s"])
        recorded_pre = ring.parse(doc["preimage"])
        recorded_img = field.parse(doc["image"])
    except (KeyError, TypeError, ValueError, HahndiskError) as exc:
        rep.fail("certificate", f"malformed certificate: {exc}")
        return rep
    where = f"certificate stage {m}"
    if not rep.check(_is_int(m) and 1 <= m <= len(rows), where,
                     "stage index is committed"):
        return rep
    row = rows[m - 1]
    rep.check(q == row.omega, where, f"exponent {q} matches stage exponent")
    rep.check(v_s == config.v_s, where, "v_s matches the instance")
    image = _image_series(rows, m - 1, p, guard, field)
    preimage = _preimage_series(rows, m - 1, p, v_c, ring)
    rep.check(recorded_img == image, where,
              "recorded image equals the transcript-derived image")
    rep.check(recorded_pre == preimage, where,
              "recorded preimage equals the transcript-derived preimage")
    rep.check(all(exps[0] >= 0 for exps in preimage.terms), where,
              "preimage lies in the unit-ball subring")
    expected = _adapted_facts(image, row, config.v_s, rep, where)
    lead = doc.get("leading")
    got = image.leading()
    if got is not None:
        w0, exps, coeff = got
        rep.check(
            isinstance(lead, dict)
            and lead.get("t_exp") == str(exps[0])
            and lead.get("x_exp") == str(exps[1])
            and _is_int(lead.get("coeff")) and lead.get("coeff") == coeff,
            where, "recorded leading monomial matches")
    # every recorded field is compared; `is True` because 1 == True
    checks = doc.get("checks")
    rep.check(expected is not None and checks == expected
              and all(c["ok"] is True for c in checks),
              where, "recorded checks all passed")
    return rep


# -- trace verification -----------------------------------------------------------


def _slice_terms(beta: TruncatedSeries, m: int, v_s: Fraction) -> TruncatedSeries:
    lo, hi = m + v_s, m + 1 + v_s
    kept = {e: c for e, c in beta.terms.items() if lo <= beta.profile.weight(e) < hi}
    return TruncatedSeries(beta.profile, kept, EXACT)


def verify_trace(doc: dict, report: Report | None = None) -> Report:
    rep = report if report is not None else Report()
    if doc.get("kind") != "trace":
        rep.fail("trace", "document kind is not 'trace'")
        return rep
    if not _format_is(doc, 2, rep, "trace"):
        return rep
    verify_plan(doc.get("plan", {}), rep)
    if not rep.ok:
        return rep
    import hashlib

    config = InstanceConfig.from_dict(doc["plan"]["instance"])
    rows = _rows(doc["plan"])
    v_c = as_fraction(doc["plan"]["v_c"])
    guard = as_fraction(doc["plan"]["tail_guard"])
    p, v_s = config.p, config.v_s
    ground = GroundField(p)
    field = ResidueField(ground, config.gamma_x)
    ring = TateRing(ground, 3)
    by_exponent = {row.omega: idx for idx, row in enumerate(rows)}
    stage_series = {}  # stage index -> (image, preimage), built on first use

    try:
        target_text = doc["target"]
        target = field.parse(target_text)
        steps = doc["steps"]
    except (KeyError, TypeError, HahndiskError) as exc:
        rep.fail("trace", f"malformed trace: {exc}")
        return rep
    if not isinstance(steps, list):
        rep.fail("trace", f"steps is a {type(steps).__name__}, not a list")
        return rep
    rep.check(
        doc.get("target_sha256") == hashlib.sha256(target_text.encode()).hexdigest(),
        "trace", "target digest matches")
    requested = doc.get("steps_requested")
    rep.check(_is_int(requested) and requested == len(steps), "trace",
              f"steps_requested {requested!r} equals the {len(steps)} recorded steps")
    shift = doc.get("normalize_k")
    rep.check(_is_int(shift) and shift >= 0, "trace",
              f"normalize_k {shift!r} is a nonnegative integer")
    val0 = target.val_lower()
    rep.check(val0 is None or val0 >= v_s, "trace",
              f"target valuation {val0} is normalized to >= {v_s}")

    beta = target
    a = ring.zero()
    for m, rec in enumerate(steps):
        where = f"step {m}"
        if not isinstance(rec, dict):
            rep.fail(where, f"step record is a {type(rec).__name__}, not an object")
            return rep
        if not rep.check(_is_int(rec.get("m")) and rec["m"] == m, where,
                         f"recorded index {rec.get('m')!r} is the position {m}"):
            return rep
        if not rep.check(rec.keys() == _STEP_FIELDS, where,
                         f"step fields {sorted(rec)} are {sorted(_STEP_FIELDS)}"):
            return rep
        try:
            bound = as_fraction(rec["bound"])
            rec_band = field.parse(rec["band"])
            rec_e = ring.parse(rec["e"])
            rec_next = field.parse(rec["beta_after"])
        except HahndiskError as exc:
            rep.fail(where, f"malformed step record: {exc}")
            return rep
        if not rep.check(bound == m + v_s, where, "recorded bound is the band floor"):
            return rep
        # beta is replayed from the target, never read from the record
        val = beta.val_lower()
        rep.check(val is None or val >= m + v_s, where,
                  f"residual valuation {val} >= {m + v_s}")
        band = _slice_terms(beta, m, v_s)
        if not rep.check(rec_band == band, where, "recorded band matches"):
            return rep
        groups = {}
        for exps, c in band.terms.items():
            groups.setdefault(exps[1], {})[exps] = c
        f_e = field.zero()
        e_m = ring.zero()
        t_m_res = field.monomial(1, m, 0)
        t_m_ring = ring.monomial(1, m, (0, 0, 0))
        order = sorted(groups, key=lambda qq: (
            min(band.profile.weight(e) for e in groups[qq]), qq))
        ok_groups = True
        for q in order:
            idx = by_exponent.get(q)
            if idx is None:
                rep.fail(where, f"no committed stage for exponent {q}")
                ok_groups = False
                break
            if idx not in stage_series:
                stage_series[idx] = (
                    _image_series(rows, idx, p, guard, field),
                    _preimage_series(rows, idx, p, v_c, ring))
            image, preimage = stage_series[idx]
            w0, lexps, lcoeff = image.leading()
            part = TruncatedSeries(field.profile, groups[q], EXACT)
            d = part * (field.monomial(lcoeff, *lexps) * t_m_res).invert()
            d_val = d.val_lower()
            if not rep.check(d_val is not None and d_val > 0, where,
                             f"quotient for exponent {q} has valuation {d_val} > 0"):
                ok_groups = False
                break
            d_ring = TruncatedSeries(
                ring.profile,
                {(a0, Fraction(0), Fraction(0), Fraction(0)): c
                 for (a0, _), c in d.terms.items()},
                d.precision)
            e_m = e_m + d_ring * t_m_ring * preimage
            f_e = f_e + d * t_m_res * image
        if not ok_groups:
            return rep
        beta_next = beta - f_e
        if not rep.check(rec_e == e_m, where, "recorded correction matches"):
            return rep
        rep.check(rec_next == beta_next, where, "recorded next residual matches")
        gap = e_m.val_lower()
        rep.check(gap is None or gap >= m, where,
                  f"approximant moved by valuation {gap} >= {m}")
        val_next = beta_next.val_lower()
        rep.check(val_next is None or val_next >= m + 1 + v_s, where,
                  f"contracted residual valuation {val_next} >= {m + 1 + v_s}")
        beta, a = beta_next, a + e_m

    final = doc.get("final")
    if not isinstance(final, dict):
        rep.fail("final", f"final record is a {type(final).__name__}, not an object")
        return rep
    try:
        rec_final = field.parse(final["residual"])
        final_bound = as_fraction(final.get("bound", "0"))
    except (KeyError, HahndiskError) as exc:
        rep.fail("final", f"malformed final record: {exc}")
        return rep
    rep.check(rec_final == beta, "final", "recorded final residual matches")
    rep.check(final_bound == len(steps) + v_s, "final", "final bound is steps + v_s")
    val = beta.val_lower()
    rep.check(val is None or val >= len(steps) + v_s, "final",
              f"final residual valuation {val} >= {len(steps) + v_s}")
    recorded_val = final.get("val_lower")
    want_val = "EXACT" if val is None else str(val)
    rep.check(recorded_val == want_val, "final", "recorded residual valuation matches")

    # Generic-route consistency: evaluating the final approximant through the
    # substitution map must agree with target - residual on resolved terms.
    alpha = _alpha_series(rows, p, config.work_prec, field)
    sub = SubstitutionMap(ring, field,
                          (field.x_power(1), field.monomial(1, v_c, -1), alpha))
    diff = sub.apply(a, config.work_prec) + beta - target
    rep.check(not diff.terms, "final",
              "substitution route agrees with the certificate route")
    return rep


def verify_document(doc: dict) -> Report:
    if not isinstance(doc, dict):
        rep = Report()
        rep.fail("document", f"a transcript is an object, not a {type(doc).__name__}")
        return rep
    kind = doc.get("kind")
    if kind == "plan":
        return verify_plan(doc)
    if kind == "certificate":
        return verify_certificate(doc)
    if kind == "trace":
        return verify_trace(doc)
    rep = Report()
    rep.fail("document", f"unknown document kind {kind!r}")
    return rep
