"""Concrete field instances.

`GroundField` is the completed perfection of F_p((t)) at truncation level:
series in t alone, value group Z[1/p].  `ResidueField` is the residue field
of the disk of radius r centered at the origin when -log r lies outside
Z[1/p] (a generic-radius disk point): series in one variable x whose weight
gamma_x = -log r is a positive rational outside Z[1/p], so the value group
properly extends Z[1/p] and the leading monomial of constructed elements is
unique.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import ConfigError
from .series import TruncatedSeries, WeightProfile, parse_series
from .valgroup import EXACT, as_fraction, is_in_zp, is_prime, smallest_zp_point


class GroundField:
    """Truncated series in the uniformizer t over F_p."""

    def __init__(self, p: int):
        if not is_prime(p) or p == 2:
            raise ConfigError(f"p must be an odd prime, got {p}")
        self.p = p
        self.profile = WeightProfile(p, (Fraction(1),), generic_radius=True)

    def zero(self, precision=EXACT):
        return TruncatedSeries.zero(self.profile, precision)

    def one(self):
        return TruncatedSeries.one(self.profile)

    def monomial(self, coeff, t_exp, precision=EXACT):
        return TruncatedSeries.monomial(self.profile, coeff, (t_exp,), precision)

    def contains_value(self, v) -> bool:
        """True iff v lies in the value group Z[1/p] of this field.

        An element whose valuation fails this test cannot belong to the
        ground field; this is the witness predicate separating the residue
        field of a generic-radius point from the ground field itself.
        """
        return is_in_zp(v, self.p)

    def __eq__(self, other):
        return isinstance(other, GroundField) and other.p == self.p

    def __repr__(self):
        return f"GroundField(p={self.p})"


class ResidueField:
    """Residue field of the radius-r disk at the origin, r outside |C*|.

    Elements are series in x with exponents in Z[1/p] of either sign and
    coefficients in the ground field; the weight of t^a x^q is
    a + q*gamma_x with gamma_x = -log r.
    """

    def __init__(self, ground: GroundField, gamma_x=Fraction(1, 2)):
        gamma_x = as_fraction(gamma_x)
        if gamma_x <= 0:
            raise ConfigError("gamma_x must be positive (the disk radius r < 1)")
        if is_in_zp(gamma_x, ground.p):
            raise ConfigError(
                f"gamma_x = {gamma_x} lies in Z[1/{ground.p}]; the disk point "
                "would not have generic radius"
            )
        self.ground = ground
        self.gamma_x = gamma_x
        self.profile = WeightProfile(
            ground.p, (Fraction(1), gamma_x), generic_radius=True
        )

    def zero(self, precision=EXACT):
        return TruncatedSeries.zero(self.profile, precision)

    def one(self):
        return TruncatedSeries.one(self.profile)

    def monomial(self, coeff, t_exp, x_exp, precision=EXACT):
        return TruncatedSeries.monomial(
            self.profile, coeff, (t_exp, x_exp), precision
        )

    def x_power(self, q) -> TruncatedSeries:
        return self.monomial(1, 0, as_fraction(q))

    def parse(self, text: str) -> TruncatedSeries:
        return parse_series(self.profile, text)

    def __repr__(self):
        return f"ResidueField(p={self.ground.p}, gamma_x={self.gamma_x})"


def choose_c(field: ResidueField, v_s) -> Fraction:
    """Valuation of the constant c with 0 < v(c) - gamma_x < v_s.

    c itself is the uniformizer power t^{v(c)}; its valuation is the Z[1/p]
    point of smallest denominator, then smallest numerator, in the open
    interval (gamma_x, gamma_x + v_s).  With this choice the image of the
    second variable, c*x^{-1}, has valuation strictly inside (0, v_s).
    """
    v_s = as_fraction(v_s)
    if v_s <= 0:
        raise ConfigError("v_s must be positive")
    return smallest_zp_point(field.gamma_x, field.gamma_x + v_s, field.ground.p)


class PointType(enum.Enum):
    TYPE_I = "Type I"
    TYPE_II = "Type II"
    TYPE_III = "Type III"


def classify_disk_point(p: int, radii) -> PointType:
    """Classify a disk point by its radii, given additively as -log r.

    A radius of None is the point sentinel (radius 0, additive value
    +infinity).  A point is Type I when every radius is the sentinel,
    Type II when every finite radius value lies in the value group Z[1/p],
    and Type III otherwise.  Centers only translate the disk, so the type
    does not depend on them and they are not asked for.
    """
    radii = list(radii)
    if not radii:
        raise ConfigError("at least one radius is required")
    finite = [as_fraction(r) for r in radii if r is not None]
    for r in finite:
        if r < 0:
            raise ConfigError(f"radius value {r} must be nonnegative")
    if not finite:
        return PointType.TYPE_I
    if all(is_in_zp(r, p) for r in finite):
        return PointType.TYPE_II
    return PointType.TYPE_III
