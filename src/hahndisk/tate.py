"""The perfectoid Tate algebra at truncation level, and substitution maps.

Elements of R_n live over the profile (t; x1..xn) with all variable weights
zero, so the profile weight of a term is the valuation of its coefficient:
the induced valuation is the Gauss (sup-coefficient) seminorm, and the
precision bound means "coefficients known modulo t^N".  Variable exponents
are nonnegative p-adic rationals.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .errors import (
    ConfigError,
    ContractViolationError,
    ExponentError,
    IndeterminateFromPrecisionError,
    UnresolvedError,
)
from .fields import GroundField, ResidueField
from .series import (
    TruncatedSeries,
    WeightProfile,
    min_precision,
    parse_series,
    render_series,
    shift_precision,
)
from .valgroup import EXACT, as_fraction, is_in_zp, padic_denominator_exponent


class TateRing:
    """Descriptor for R_n = C<x1^(1/p^inf), ..., xn^(1/p^inf)> truncated."""

    def __init__(self, ground: GroundField, nvars: int):
        if nvars < 1:
            raise ConfigError("need at least one variable")
        self.ground = ground
        self.nvars = nvars
        self.profile = WeightProfile(
            ground.p, (Fraction(1),) + (Fraction(0),) * nvars, generic_radius=False
        )

    def zero(self, precision=EXACT):
        return TruncatedSeries.zero(self.profile, precision)

    def one(self):
        return TruncatedSeries.one(self.profile)

    def monomial(self, coeff, t_exp, x_exps, precision=EXACT):
        f = TruncatedSeries.monomial(
            self.profile, coeff, (t_exp,) + tuple(x_exps), precision
        )
        return self.check_element(f)

    def var(self, i: int) -> TruncatedSeries:
        """The generator x_i (1-indexed)."""
        if not 1 <= i <= self.nvars:
            raise ConfigError(f"variable index {i} out of range")
        exps = [Fraction(0)] * (self.nvars + 1)
        exps[i] = Fraction(1)
        return TruncatedSeries.monomial(self.profile, 1, tuple(exps))

    def embed_ground(self, f: TruncatedSeries) -> TruncatedSeries:
        if f.profile != self.ground.profile:
            raise ConfigError("embed_ground expects a ground-field element")
        pad = (Fraction(0),) * self.nvars
        terms = {(a,) + pad: c for (a,), c in f.terms.items()}
        return TruncatedSeries(self.profile, terms, f.precision)

    def check_element(self, f: TruncatedSeries) -> TruncatedSeries:
        """Validate the variable-exponent sign constraint of this ring."""
        if f.profile != self.profile:
            raise ConfigError("element built over a different profile")
        for exps in f.terms:
            if any(q < 0 for q in exps[1:]):
                raise ExponentError(
                    f"negative variable exponent in {exps}; R_n allows only "
                    "nonnegative p-power-denominator exponents"
                )
        return f

    def parse(self, text: str) -> TruncatedSeries:
        return self.check_element(parse_series(self.profile, text))


def is_integral(f: TruncatedSeries) -> bool:
    """True iff every coefficient has valuation >= 0 (membership in the
    unit-ball subring O_C<...>), including the unresolved tail."""
    if any(exps[0] < 0 for exps in f.terms):
        return False
    return f.precision is EXACT or f.precision >= 0


def project(f: TruncatedSeries, target: TateRing) -> TruncatedSeries:
    """The surjection R_n -> R_m sending x_i to x_i for i <= m and to 0
    beyond; monomials containing a dropped variable vanish."""
    keep = target.nvars
    terms = {}
    for exps, c in f.terms.items():
        if any(q != 0 for q in exps[keep + 1:]):
            continue
        terms[exps[: keep + 1]] = c
    return TruncatedSeries(target.profile, terms, f.precision)


def disk_seminorm(f: TruncatedSeries, rho) -> Fraction:
    """Additive seminorm of f at the disk point with radius values rho.

    The value is min over terms of (coefficient valuation + sum q_i rho_i).
    It is exact whenever that minimum lies below the precision floor, since
    unresolved tail terms have coefficient valuation >= precision and the
    variable contribution is nonnegative.
    """
    rho = tuple(as_fraction(r) for r in rho)
    if len(rho) != f.profile.dim - 1:
        raise ConfigError("one radius value per variable is required")
    if any(r < 0 for r in rho):
        raise ConfigError("radius values must be nonnegative")
    if not f.terms:
        if f.precision is EXACT:
            return None  # exact zero: seminorm is +infinity additively
        raise IndeterminateFromPrecisionError(
            f"no term resolved below precision {f.precision}"
        )
    value = min(
        exps[0] + sum(q * r for q, r in zip(exps[1:], rho)) for exps in f.terms
    )
    if f.precision is not EXACT and value >= f.precision:
        raise IndeterminateFromPrecisionError(
            f"seminorm candidate {value} is not below the precision floor "
            f"{f.precision}"
        )
    return value


def finite_approx(f: TruncatedSeries, v_eps) -> TruncatedSeries:
    """The finite sub-sum of terms with coefficient valuation <= v_eps.

    Dropped terms have coefficient valuation > v_eps, hence point value
    > v_eps at every disk point of the unit ball: the difference from f has
    seminorm strictly beyond v_eps everywhere.
    """
    v_eps = as_fraction(v_eps)
    kept = {
        exps: c for exps, c in f.terms.items() if f.profile.weight(exps) <= v_eps
    }
    if f.precision is EXACT or f.precision > v_eps:
        precision = EXACT  # all terms at or below the cutoff are resolved
    else:
        precision = f.precision
    return TruncatedSeries(f.profile, kept, precision)


def type_ii_lower_bound(f: TruncatedSeries, rho) -> Fraction:
    """Certified bound for a one-variable element at a value-group radius.

    Returns the point value of the weight-minimal resolved term; the
    seminorm at rho can only be smaller or equal (additively), so the norm
    of f at the point is at least the positive quantity the bound encodes.
    Raising UnresolvedError means no term was resolved below precision.
    """
    if f.profile.dim != 2:
        raise ConfigError("the bound is stated for one-variable elements")
    rho = as_fraction(rho)
    if rho < 0 or not is_in_zp(rho, f.profile.p):
        raise ConfigError(
            f"rho = {rho} is not a value-group (Type II) radius"
        )
    if not f.terms:
        raise UnresolvedError("no term resolved below the precision floor")
    bound = min(exps[0] + exps[1] * rho for exps in f.terms)
    try:
        sem = disk_seminorm(f, (rho,))
    except IndeterminateFromPrecisionError as exc:
        raise UnresolvedError(str(exc)) from exc
    if sem > bound:
        raise ContractViolationError(
            f"seminorm {sem} exceeded its certified bound {bound}"
        )
    return bound


class SubstitutionMap:
    """Continuous ring map R_n -> residue field fixed by generator images.

    Every image must have valuation >= 0, so the unit-ball subring lands in
    the residue-field unit ball and the unresolved tail of an argument only
    contributes beyond its own precision.  Monomials evaluate through
    p-power roots (Frobenius) of the images followed by integer powers; the
    root towers are memoized because staged exponents reuse them heavily.
    """

    def __init__(self, ring: TateRing, field: ResidueField, images):
        images = tuple(images)
        if len(images) != ring.nvars:
            raise ConfigError("one image per generator is required")
        for img in images:
            if img.profile != field.profile:
                raise ConfigError("images must live in the residue field")
            v = img.val_lower()
            if v is not None and v < 0:
                raise ConfigError(
                    f"image valuation {v} < 0 breaks continuity on the unit ball"
                )
        self.ring = ring
        self.field = field
        self.images = images
        self._roots = {}
        self._powers = {}
        self._x_parts = {}

    def _root(self, i: int, k: int) -> TruncatedSeries:
        key = (i, k)
        if key not in self._roots:
            self._roots[key] = self.images[i].frobenius(-k)
        return self._roots[key]

    def _image_power(self, i: int, q: Fraction, work_prec) -> TruncatedSeries:
        key = (i, q, work_prec)
        if key in self._powers:
            return self._powers[key]
        k = padic_denominator_exponent(q, self.ring.ground.p)
        u = int(q * self.ring.ground.p ** k)
        if u < 0:
            raise ExponentError("negative variable exponent reached substitution")
        out = self._root(i, k) ** u
        if (
            work_prec is not None
            and out.precision is not EXACT
            and out.precision > work_prec
        ):
            out = out.truncate(work_prec)
        self._powers[key] = out
        return out

    def _x_part(self, qs: tuple, work_prec) -> TruncatedSeries:
        """Image of the monomial x1^q1 ... xn^qn, multiplied left to right."""
        key = (qs, work_prec)
        if key in self._x_parts:
            return self._x_parts[key]
        out = self.field.one()
        for i, q in enumerate(qs):
            if q:
                out = out * self._image_power(i, q, work_prec)
        self._x_parts[key] = out
        return out

    def apply(self, f: TruncatedSeries, work_prec=None) -> TruncatedSeries:
        """Evaluate f term by term.

        The result keeps exact precision when everything in sight is exact;
        finite propagated precisions are capped at work_prec.  The tail of f
        beyond its own precision maps into valuation >= that precision.

        A term c t^a x^q maps to c t^a times the memoized image of x^q, which
        only shifts that image by a.  The shifted images are summed into one
        dict and filtered once at the end: precision only falls as terms are
        added, so this keeps exactly the terms a running sum would keep.
        """
        self.ring.check_element(f)
        if work_prec is not None:
            work_prec = as_fraction(work_prec)
        p = self.field.profile.p
        acc = {}
        prec = f.precision
        for exps, coeff in f.terms.items():
            a = exps[0]
            part = self._x_part(exps[1:], work_prec)
            prec = min_precision(prec, shift_precision(part.precision, a))
            for (e0, *rest), c in part.terms.items():
                key = (e0 + a, *rest)
                s = (acc.get(key, 0) + coeff * c) % p
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        if work_prec is not None and prec is not EXACT and prec > work_prec:
            prec = work_prec
        return TruncatedSeries._trusted(self.field.profile, acc, prec)


# A substitution map serializes as an ordered list of residue-element files,
# one per generator, in the shared series text format.


def save_substitution(sub: SubstitutionMap, directory) -> list:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, img in enumerate(sub.images, start=1):
        path = directory / f"image_{i}.txt"
        path.write_text(render_series(img))
        paths.append(path)
    return paths


def load_substitution(ring: TateRing, field: ResidueField, paths) -> SubstitutionMap:
    images = []
    for path in paths:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read image file {path}: {exc}") from exc
        images.append(field.parse(text))
    return SubstitutionMap(ring, field, images)
