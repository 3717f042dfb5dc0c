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
    ExponentError,
    IndeterminateFromPrecisionError,
    UnresolvedError,
)
from .fields import GroundField, ResidueField
from .series import (
    TruncatedSeries,
    WeightProfile,
    min_precision,
    render_series,
    shift_precision,
)
from .valgroup import EXACT, as_fraction, is_in_zp, padic_denominator_exponent

_ZERO = Fraction(0)


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


def is_integral(f: TruncatedSeries) -> bool:
    """True iff every coefficient has valuation >= 0 (membership in the
    unit-ball subring O_C<...>), including the unresolved tail."""
    if any(exps[0] < 0 for exps in f.terms):
        return False
    return f.precision is EXACT or f.precision >= 0


def disk_seminorm(f: TruncatedSeries, rho) -> Fraction:
    """Additive seminorm of f at the disk point with radius values rho.

    The value is the least term weight under the profile (1, rho): the
    coefficient valuation plus sum q_i rho_i.
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
    value = min(map(WeightProfile(f.profile.p, (1, *rho)).weight, f.terms))
    if f.precision is not EXACT and value >= f.precision:
        raise IndeterminateFromPrecisionError(
            f"seminorm candidate {value} is not below the precision floor "
            f"{f.precision}"
        )
    return value


def type_ii_lower_bound(f: TruncatedSeries, rho) -> Fraction:
    """The disk seminorm of a one-variable element at a value-group radius.

    The value is a finite rational v, so the norm of f at that Type II
    point is e^-v > 0.  Raising UnresolvedError means no term, or no
    minimum, is resolved below precision.
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
    try:
        return disk_seminorm(f, (rho,))
    except IndeterminateFromPrecisionError as exc:
        raise UnresolvedError(str(exc)) from exc


class SubstitutionMap:
    """Continuous ring map R_n -> residue field fixed by generator images.

    Every image must have valuation >= 0, so the unit-ball subring lands in
    the residue-field unit ball and the unresolved tail of an argument only
    contributes beyond its own precision.  `apply` raises an image to a
    p-adic power through its p-power root (Frobenius) followed by an integer
    power.  `monomial_image` reads the image of a monomial off single-term
    generator images in closed form.
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

    def monomial_image(self, exps) -> tuple:
        """(key, coefficient) of the image of the ring monomial t^a x^q with
        exponent vector exps = (a, q1, ..., qn), read off the single-term
        images of the generators it uses.

        For q = u/p^k a single-term image c t^b x^e raises in closed form to
        c^u t^(q b) x^(q e): the Frobenius root of an F_p coefficient is the
        coefficient.  The product of the powers adds their keys, t^a shifts
        the key by a, and the coefficients multiply.  The route reads stored
        terms only, so both callers, the division's fact (a) and
        `builder.kernel_witness`, check that the images they use are exact.
        Raises ConfigError if a used image does not have exactly one term.
        """
        p = self.ring.ground.p
        key, coeff = [exps[0]] + [_ZERO] * (self.field.profile.dim - 1), 1
        for i, q in enumerate(exps[1:]):
            if not q:
                continue
            terms = self.images[i].terms
            if len(terms) != 1:
                raise ConfigError(f"the image of x{i + 1} has {len(terms)} terms, not one")
            ((img_exps, c),) = terms.items()
            padic_denominator_exponent(q, p)  # q = u/p^k, so u is its numerator
            if q.numerator < 0:
                raise ExponentError("negative variable exponent reached substitution")
            key = [s + q * e for s, e in zip(key, img_exps)]
            coeff = coeff * pow(c, q.numerator, p) % p
        return tuple(key), coeff

    def _image_power(self, i: int, q: Fraction, work_prec) -> TruncatedSeries:
        """Image of x_{i+1}^q for q = u/p^k: the p^k-th root (Frobenius) of
        the image raised to the u-th power, truncated to work_prec."""
        k = padic_denominator_exponent(q, self.ring.ground.p)
        if q.numerator < 0:
            raise ExponentError("negative variable exponent reached substitution")
        out = self.images[i].frobenius(-k) ** q.numerator
        if work_prec is not None and out.precision is not EXACT and out.precision > work_prec:
            out = out.truncate(work_prec)
        return out

    def apply(self, f: TruncatedSeries, work_prec=None) -> TruncatedSeries:
        """Evaluate f term by term: c t^a x^q maps to c t^a times the product
        of the image powers, which only shifts that product by a.

        The result keeps exact precision when everything in sight is exact;
        finite propagated precisions are capped at work_prec.  The tail of f
        beyond its own precision maps into valuation >= that precision.
        """
        self.ring.check_element(f)
        if work_prec is not None:
            work_prec = as_fraction(work_prec)
        prec, pairs = f.precision, []
        for exps, coeff in f.terms.items():
            a, part = exps[0], self.field.one()
            for i, q in enumerate(exps[1:]):
                if q:
                    part = part * self._image_power(i, q, work_prec)
            prec = min_precision(prec, shift_precision(part.precision, a))
            pairs += [((e0 + a, *rest), coeff * c) for (e0, *rest), c in part.terms.items()]
        if work_prec is not None and prec is not EXACT and prec > work_prec:
            prec = work_prec
        return TruncatedSeries.from_terms(self.field.profile, pairs, prec)


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
