"""Independent checkers for transcripts, certificates and division traces.

Everything here is re-derived from the raw transcript numbers with direct
rational formulas; this module never imports the builder or the division
code, only the series engine and the shared value-group helpers.  A check
failure is reported with the stage or step it belongs to, so a single
mutated field in a document is pinpointed rather than merely rejected.

A plan (format 3) records only its instance and each stage's omega and b;
v_c, and each stage's index, v_e and v_eps, are derived here, the latter
two in the stage loop, so no recorded value is compared with them.  Every
plan report, and so every certificate and trace report, also derives the
two kernel witnesses from the instance, in closed form on exponents: the
valuation gamma_x of x lies outside Z[1/p], and x * c x^-1 - c is the
exact zero.

Facts (a) and (b) of the `division` docstring tie a certificate to the
substitution map.  This module has no map: it derives every image from
the stage-term formula, so (b) holds by construction, and
`division.run_division` checks (a) against the plan's map.

A certificate or trace is read only once its plan passes, and three facts
then follow from the stage checks, so no finding states them.  Put
w = v_e + omega * gamma_x; the demand v_eps starts at 0 and only rises.
(1) Stage k's own image term weighs v_eps/p^b + w, in [0, v_s) by growth
(w > 0) and the window, or at stage 1 as b = 0, v_eps = 0 and w = v_e - lo
lies in (0, v_s).  The term of a later stage l weighs v_eps/p^b +
p^(b_l - b) w_l, past 1 + v_s by l's separation check as b <= top_b(l),
and so does the precision v_eps/p^b + work_prec, as work_prec > stages + 1.
(2) The preimage's t-exponents v_eps/p^b and (v_eps - d_j)/p^b, j < k, are
>= 0, as v_eps is the largest of 0 and the d_j.
(3) A band term of step m weighs >= m + v_s and the image leads below v_s,
so each quotient, the part over the lead, weighs more than m.

A finding keeps its message as a `str.format` template and the values the
check passed, and renders it only when its `message`, or a report's
`text`, first reads it: a passing report is seldom printed, and a check
that passes builds no message text and no message `Fraction`.

Only a plan and a trace's target are parsed.  A recorded series or
valuation is compared, as text, with `render_series` or `str` of the value
replayed here: series keep their terms reduced and render deterministically,
so equal text is an equal series, and text that is not canonical fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile

from .config import MAX_B_SEARCH, InstanceConfig
from .errors import FormatError, HahndiskError
from .fields import ResidueField
from .series import TruncatedSeries, min_precision, render_series
from .tate import TateRing
from .valgroup import EXACT, as_fraction, is_in_zp, omega, smallest_zp_point, stage_point


class Finding:
    """A check's verdict, where it applies, and its message.  The message is
    kept as a `str.format` template and the arguments the check passed, and
    rendered when `message` is first read."""

    __slots__ = ("ok", "where", "_template", "_args")

    def __init__(self, ok: bool, where: str, template: str, args: tuple):
        self.ok, self.where, self._template, self._args = ok, where, template, args

    @property
    def message(self) -> str:
        if self._args is not None:
            self._template, self._args = _render(self._template, self._args), None
        return self._template

    def __repr__(self):
        return f"Finding({self.ok!r}, {self.where!r}, {self.message!r})"


def _render(template: str, args: tuple) -> str:
    """A finding's message: the one place a template is formatted."""
    return template.format(*args)


class Report:
    def __init__(self):
        self.findings = []

    def check(self, ok: bool, where: str, template: str, *args) -> bool:
        """Record a finding whose message is `template.format(*args)`; the
        arguments are values, rendered only if the message is read."""
        self.findings.append(Finding(bool(ok), where, template, args))
        return bool(ok)

    def fail(self, where: str, template: str, *args):
        self.findings.append(Finding(False, where, template, args))

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


def _document_is(doc, kind: str, fmt: int, fields: frozenset, rep: Report) -> bool:
    """The document is an object of this kind whose `format` is the JSON
    integer `fmt` and whose fields are exactly `fields`: a document of
    another format may carry fields this checker would leave unread.
    Findings go to `kind`."""
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        rep.fail(kind, "document kind is not {!r}", kind)
        return False
    got = doc.get("format")
    return (rep.check(_is_int(got) and got == fmt, kind, "format {!r} is {}", got, fmt)
            and _fields_are(doc, fields, rep, kind))


def _fields_are(record: dict, want: frozenset, rep: Report, where: str) -> bool:
    """The record holds exactly the fields `want`, so none goes unread.  Only
    a mismatch is reported: an honest document's report is unchanged."""
    if record.keys() == want:
        return True
    rep.fail(where, "fields {} are {}", sorted(record), sorted(want))
    return False


#: The fields of a format-2 certificate.  The stage's adapted facts follow
#: from the plan's checks; this checker compares image and preimage.
_CERT_FIELDS = frozenset({"kind", "format", "plan", "m", "q", "preimage", "image"})
#: The fields of a format-4 trace.  A step's index is its position, and its
#: bounds follow from that; a step records only its quotients.
_TRACE_FIELDS = frozenset({"kind", "format", "plan", "target", "normalize_k",
                           "steps_requested", "steps"})


#: The fields of a format-3 plan and of each of its stages.  A stage's
#: index is its position, and v_c, v_e and v_eps are derived here.
_PLAN_FIELDS = frozenset({"kind", "format", "instance", "stages"})
_PLAN_STAGE_FIELDS = frozenset({"omega", "b"})


@dataclass
class _Row:
    """A derived stage; v_e, v_eps, d and w are (numerator, positive
    denominator) pairs, so no Fraction is built but a series key."""
    omega: Fraction
    v_e: tuple  # the canonical point of (lo, lo + v_s), lo = -omega * gamma_x
    b: int
    v_eps: tuple  # the divisibility demand of the earlier stages
    d: tuple  # the demand this stage puts on every later one
    scale: int  # p^b
    w: tuple  # the leading weight v_e + omega * gamma_x


def _read_plan(doc) -> tuple:
    """(config, [(omega, b)]) of a plan document, omega parsed and b as
    recorded; raises on a malformed one.

    `instance` must be the record its config writes, key for key, so no
    field is left to a default; the config already refuses a `p` or
    `stages` that is not a JSON integer.
    """
    instance = doc["instance"]
    config = InstanceConfig.from_dict(instance)
    if instance != config.to_dict():
        raise FormatError(f"instance {instance} is not exactly {config.to_dict()}")
    return config, [(as_fraction(raw["omega"]), raw["b"]) for raw in doc["stages"]]


def _d_requirement(omega: Fraction, v_e: tuple, scale: int, v_c: Fraction) -> tuple:
    """The divisibility demand a stage puts on every later one: the weight
    of its divisor monomial's image minus the weight of its term, written
    out as -p^b * (v_e + min(omega, 0) * v_c) over one common denominator,
    as a pair; v_e is a pair and scale is p^b."""
    (en, ed), on = v_e, omega.numerator
    if on >= 0:
        return -scale * en, ed
    od, cn, cd = omega.denominator, v_c.numerator, v_c.denominator
    return -scale * (en * od * cd + on * cn * ed), ed * od * cd


def _constraints_hold(wn, wd, v_eps, idx, b, scale, top_b, p, v_s, guard, guarded) -> bool:
    """The exact stage inequalities for the stage at index idx (0-based),
    of leading weight w = v_e + omega * gamma_x = wn/wd with wd > 0, at
    Frobenius exponent b >= 0
    with scale = p^b, against the demand v_eps = (numerator, denominator);
    top_b is the largest b of the earlier stages (None if there are none).

    Growth forces w > 0, so the separation gap p^(b - b_j) * w is smallest
    against the earlier stage with the largest b_j, and checking that one
    checks them all.  Each inequality a/c < d/e is compared as a*e < d*c on
    numerators and positive denominators; where b lies below top_b the
    bound side takes the factor p^(top_b - b), so no power is negative.
    """
    sn, sd = v_s.numerator, v_s.denominator
    if not scale * wn > (idx + 1) * wd:
        return False
    # v_eps / p^b < v_s - w
    if not v_eps[0] * sd * wd < scale * v_eps[1] * (sn * wd - wn * sd):
        return False
    if top_b is None:
        return True
    # the gap p^(b - top_b) * w, as gap_n / gap_d
    gap_n, gap_d = wn, wd
    if b >= top_b:
        gap_n *= p ** (b - top_b)
    else:
        gap_d *= p ** (top_b - b)
    return (gap_n * sd > (sd + sn) * gap_d
            and (not guarded or gap_n * guard.denominator > guard.numerator * gap_d))


# -- formula-level reconstruction ----------------------------------------------


def _image_series(rows, idx, guard, field: ResidueField) -> TruncatedSeries:
    """The certificate image of stage idx+1, straight from the transcript:
    scaled committed stage terms from this stage on, bounded below by the
    tail guard for everything not committed.  An appended stage past this
    one clears the guard against a b at least this stage's, so its term
    lies past the precision, where the loop stops: call this once the plan
    checks pass."""
    row = rows[idx]
    scale, (vn, vd) = row.scale, row.v_eps

    def key(later):
        # ((v_eps + p^b_l v_e_l) / p^b, p^b_l omega_l / p^b) on numerators
        lift, (en, ed) = later.scale, later.v_e
        return (Fraction(vn * ed + lift * en * vd, vd * ed * scale),
                Fraction(lift * later.omega.numerator, later.omega.denominator * scale))

    # checked separation and window make p^b_l w_l strictly increase with l
    # (see `builder.build_adapted`): terms with p^b_l w_l < p^b guard are a prefix
    gn, gd = guard.numerator, guard.denominator
    kept = takewhile(lambda later: later.scale * later.w[0] * gd < scale * gn * later.w[1],
                     rows[idx:])
    return TruncatedSeries.from_terms(field.profile, ((key(later), 1) for later in kept),
                                      Fraction(vn, vd * scale) + guard)


def _preimage_series(rows, idx, ring: TateRing) -> TruncatedSeries:
    """Stage idx+1's t^(v_eps) x3 less t^(v_eps - d_j) W_j for each earlier
    j, rooted by 1/p^b, each exponent one Fraction of integers."""
    row = rows[idx]
    scale, (vn, vd) = row.scale, row.v_eps
    zero = Fraction(0)
    terms = [((Fraction(vn, vd * scale), zero, zero, Fraction(1, scale)), 1)]
    for prev in rows[:idx]:
        (dn, dd), on = prev.d, prev.omega.numerator
        d_t = Fraction(vn * dd - dn * vd, vd * dd * scale)
        x = Fraction(abs(on) * prev.scale, prev.omega.denominator * scale)  # x1^x, or x2^x
        terms.append(((d_t, x, zero, zero) if on >= 0 else (d_t, zero, x, zero), -1))
    return TruncatedSeries.from_terms(ring.profile, terms, EXACT)


# -- plan verification ----------------------------------------------------------


def verify_plan(doc: dict) -> Report:
    rep = Report()
    _check_plan(doc, rep)
    return rep


def _check_plan(doc, rep: Report):
    """The checks of `verify_plan`, added to rep.  Returns the plan as read
    and derived, (config, rows, residue field), or None if it could not
    be read, so a certificate or trace reads its embedded plan, and builds
    its field, once.  Use the rows only once every check has passed."""
    if not _document_is(doc, "plan", 3, _PLAN_FIELDS, rep):
        return None
    try:
        config, stages = _read_plan(doc)
    except (KeyError, TypeError, ValueError, HahndiskError) as exc:
        rep.fail("plan", "malformed transcript: {}", exc)
        return None
    p, gamma_x, v_s, guard = config.p, config.gamma_x, config.v_s, config.work_prec
    field = config.residue()
    v_c = smallest_zp_point(gamma_x, gamma_x + v_s, p)
    rows = []
    plan = config, rows, field
    # the two kernel witnesses, from the instance alone, on exact monomials
    # of the residue field: x = t^0 x^1 weighs gamma_x, and the product of x
    # and t^(v_c) x^-1 is t^(0 + v_c) x^(1 - 1) with coefficient 1 * 1, which
    # is c = t^(v_c) x^0 with coefficient 1, so the difference is exactly 0
    rep.check(not is_in_zp(gamma_x, p), "plan",
              "witness valuation {} of x lies outside Z[1/{}]", gamma_x, p)
    rep.check(((0 + v_c, 1 - 1), 1 * 1) == ((v_c, 0), 1), "plan",
              "x * c x^-1 - c is the exact zero")

    rep.check(len({q for q, _ in stages}) == len(stages), "plan",
              "stage exponents are pairwise distinct")
    # omega(m) computes the enumeration up to m, and only base stages ask
    # for it, so no m past the committed stages is asked
    if not rep.check(len(stages) >= config.stages, "plan",
                     "the plan commits {} stages, at least the {} base stages",
                     len(stages), config.stages):
        return plan

    # the divisibility demand (a pair) and the largest b of all earlier stages
    demand, top_b = (0, 1), None
    for idx, (raw, (q, b)) in enumerate(zip(doc["stages"], stages)):
        where = f"stage {idx + 1}"
        if not _fields_are(raw, _PLAN_STAGE_FIELDS, rep, where):
            break
        if idx:
            prev = rows[-1]
            if prev.d[0] * demand[1] > demand[0] * prev.d[1]:
                demand = prev.d
            top_b = prev.b if top_b is None else max(top_b, prev.b)
        # No canonical point and no p ** b is computed before these two
        # checks.  A later stage's demand and separation need this v_e and
        # b, so a bad one ends the stage checks.
        if not rep.check(is_in_zp(q, p), where, "exponent {} lies in Z[1/{}]", q, p):
            break
        if not rep.check(_is_int(b) and 0 <= b <= MAX_B_SEARCH, where,
                         "Frobenius exponent {!r} is an integer in [0, {}]", b, MAX_B_SEARCH):
            break
        scale = p ** b
        v_e, (wn, wd) = stage_point(q, gamma_x, v_s, p)
        rows.append(_Row(omega=q, v_e=v_e, b=b, v_eps=demand,
                         d=_d_requirement(q, v_e, scale, v_c), scale=scale, w=(wn, wd)))
        if idx < config.stages:
            rep.check(q == omega(idx + 1, p), where,
                      "exponent {} follows the fixed enumeration", q)
        if idx == 0:
            rep.check(b == 0, where, "opening stage has Frobenius exponent 0")
            continue
        guarded = idx >= config.stages
        rep.check(
            _constraints_hold(wn, wd, demand, idx, b, scale, top_b, p, v_s, guard, guarded),
            where, "growth, window and separation hold at b = {}", b)
        # Growth, window and separation each only get easier as b grows, as
        # w > 0 and v_eps >= 0: v_e lies inside (lo, lo + v_s) and the demand
        # starts at 0.  A failure at b - 1 is then a failure at every smaller
        # b, so b - 1 alone decides minimality.
        minimal = b == 0 or not _constraints_hold(
            wn, wd, demand, idx, b - 1, scale // p, top_b, p, v_s, guard, guarded)
        rep.check(minimal, where, "b = {} is minimal", b)
    return plan


# -- certificate verification ----------------------------------------------------


def verify_certificate(doc: dict) -> Report:
    """Format 2: the embedded plan verifies, so the stage's image is adapted
    and its preimage integral (see the module docstring), and `image` and
    `preimage` are the rendered series the plan gives for stage `m`."""
    rep = Report()
    if not _document_is(doc, "certificate", 2, _CERT_FIELDS, rep):
        return rep
    plan = _check_plan(doc["plan"], rep)
    if not rep.ok:
        return rep
    config, rows, field = plan
    try:
        m = doc["m"]
        q = as_fraction(doc["q"])
    except (TypeError, ValueError, HahndiskError) as exc:
        rep.fail("certificate", "malformed certificate: {}", exc)
        return rep
    where = f"certificate stage {m}"
    if not rep.check(_is_int(m) and 1 <= m <= len(rows), where,
                     "stage index is committed"):
        return rep
    rep.check(q == rows[m - 1].omega, where, "exponent {} matches stage exponent", q)
    preimage = _preimage_series(rows, m - 1, config.tate())
    image = _image_series(rows, m - 1, config.work_prec, field)
    rep.check(doc["image"] == render_series(image),
              where, "recorded image equals the transcript-derived image")
    rep.check(doc["preimage"] == render_series(preimage), where,
              "recorded preimage equals the transcript-derived preimage")
    return rep


# -- trace verification -----------------------------------------------------------


def verify_trace(doc: dict) -> Report:
    """Format 4: the steps replay from the target, and each step's record
    is the list of [q, d] pairs of its replayed quotients."""
    rep = Report()
    if not _document_is(doc, "trace", 4, _TRACE_FIELDS, rep):
        return rep
    plan = _check_plan(doc["plan"], rep)
    if not rep.ok:
        return rep
    config, rows, field = plan
    v_s, guard = config.v_s, config.work_prec
    by_exponent = {row.omega: idx for idx, row in enumerate(rows)}
    images = {}  # stage index -> (image, inverse of its lead), built on first use

    try:
        target = field.parse(doc["target"])
        steps = doc["steps"]
    except (TypeError, HahndiskError) as exc:
        rep.fail("trace", "malformed trace: {}", exc)
        return rep
    if not isinstance(steps, list):
        rep.fail("trace", "steps is a {}, not a list", type(steps).__name__)
        return rep
    requested = doc["steps_requested"]
    rep.check(_is_int(requested) and requested == len(steps), "trace",
              "steps_requested {!r} equals the {} recorded steps", requested, len(steps))
    # normalize_target shifts only a nonzero target of valuation below v_s,
    # by the least k that lifts it to v_s or beyond, so below 1 + v_s
    shift = doc["normalize_k"]
    val0 = target.val_lower()
    rep.check(_is_int(shift) and (shift == 0 or (shift > 0 and not target.is_zero
                                                 and val0 < 1 + v_s)), "trace",
              "normalize_k {!r} is a nonnegative integer, and 0 unless "
              "the target is nonzero of valuation below {}", shift, 1 + v_s)
    rep.check(val0 is None or val0 >= v_s, "trace",
              "target valuation {} is normalized to >= {}", val0, v_s)

    beta = target
    for m, rec in enumerate(steps):
        where = f"step {m}"
        # beta is replayed from the target, never read from a record; its
        # valuation >= m + v_s is the target check, or step m - 1's contraction
        band = beta.window(m + v_s, m + 1 + v_s)
        replayed, pairs, prec = [], [], EXACT
        for q, part in band.split(1):
            idx = by_exponent.get(q)
            if idx is None:
                rep.fail(where, "no committed stage for exponent {}", q)
                return rep
            if idx not in images:
                image = _image_series(rows, idx, guard, field)
                _, lexps, lcoeff = image.leading()
                images[idx] = image, field.monomial(lcoeff, *lexps).invert()
            image, lead_inv = images[idx]
            # part / lead is the quotient times t^m
            d = part * lead_inv
            replayed.append([str(q), render_series(d)])
            product = d * image
            pairs.extend(product.terms.items())
            prec = min_precision(prec, product.precision)
        # the record is compared as JSON, so any other value is a FAIL here
        rep.check(rec == replayed, where, "recorded quotients match")
        # the step's correction, summed once
        beta = beta - TruncatedSeries.from_terms(field.profile, pairs, prec)
        val_next, bound = beta.val_lower(), m + 1 + v_s
        rep.check(val_next is None or val_next >= bound, where,
                  "contracted residual valuation {} >= {}", val_next, bound)
    return rep


def verify_document(doc: dict) -> Report:
    if not isinstance(doc, dict):
        rep = Report()
        rep.fail("document", "a transcript is an object, not a {}", type(doc).__name__)
        return rep
    kind = doc.get("kind")
    if kind == "plan":
        return verify_plan(doc)
    if kind == "certificate":
        return verify_certificate(doc)
    if kind == "trace":
        return verify_trace(doc)
    rep = Report()
    rep.fail("document", "unknown document kind {!r}", kind)
    return rep
