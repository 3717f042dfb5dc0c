"""Sparse truncated power series over F_p with exponents in Z[1/p].

An element is a finite association of exponent vectors to nonzero
coefficients in F_p together with a precision bound:

    sum_i  c_i * t^{a_i} * x1^{q_i1} * ... * xd^{q_id}   + O(N)

The weight of a term is the rational linear functional of its exponent
vector given by the profile (slot 0 is the uniformizer t with weight 1;
slot i >= 1 carries the radius parameter of variable i).  A series with
precision N stands for any value sigma whose difference from the stored
terms has weight-valuation >= N; stored terms always lie strictly below N.
EXACT (None) precision means the element is known completely.

Valuations are additive (v = -log norm, v(t) = 1), so all norm
inequalities from the multiplicative picture appear here with the
direction flipped.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    AmbiguousLeadingError,
    ExponentError,
    FormatError,
    InsufficientPrecisionError,
    NotAUnitError,
    PrecisionIncreaseError,
    ProfileMismatchError,
)
from .valgroup import EXACT, as_fraction, is_in_zp


def min_precision(a, b):
    """Minimum of two precision bounds, where None means +infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def shift_precision(prec, shift):
    """prec + shift with None treated as +infinity (in either slot)."""
    if prec is None or shift is None:
        return None
    return prec + shift


class WeightProfile:
    """Weights turning exponent vectors into additive valuations.

    Slot 0 belongs to the uniformizer t and always weighs 1; slot i >= 1
    weighs variable i by its radius parameter -log r_i.  `generic_radius`
    marks profiles on which the leading monomial is promised to be unique,
    so an equal-weight tie is reported as an error instead of being broken
    arbitrarily.
    """

    __slots__ = ("p", "weights", "generic_radius")

    def __init__(self, p: int, weights, generic_radius: bool = False):
        weights = tuple(as_fraction(w) for w in weights)
        if not weights or weights[0] != 1:
            raise ProfileMismatchError("slot 0 is the uniformizer and must weigh 1")
        if any(w < 0 for w in weights):
            raise ProfileMismatchError("weights must be nonnegative")
        self.p = p
        self.weights = weights
        self.generic_radius = generic_radius

    @property
    def dim(self) -> int:
        return len(self.weights)

    def weight(self, exponents) -> Fraction:
        return sum((w * e for w, e in zip(self.weights, exponents)), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, WeightProfile)
            and self.p == other.p
            and self.weights == other.weights
            and self.generic_radius == other.generic_radius
        )

    def __hash__(self):
        return hash((self.p, self.weights, self.generic_radius))

    def __repr__(self):
        return f"WeightProfile(p={self.p}, weights={self.weights})"


class TruncatedSeries:
    """Immutable sparse series over F_p at a rational precision bound."""

    __slots__ = ("profile", "terms", "precision")

    def __init__(self, profile: WeightProfile, terms=None, precision=EXACT):
        if precision is not EXACT:
            precision = as_fraction(precision)
        tidy = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(as_fraction(e) for e in exps)
            if len(exps) != profile.dim:
                raise ProfileMismatchError(
                    f"exponent vector {exps} does not match profile dimension {profile.dim}"
                )
            for e in exps:
                if not is_in_zp(e, profile.p):
                    raise ExponentError(f"exponent {e} is not in Z[1/{profile.p}]")
            c = int(coeff) % profile.p
            if c == 0:
                continue
            if precision is not EXACT and profile.weight(exps) >= precision:
                continue
            tidy[exps] = c
        self.profile = profile
        self.terms = tidy
        self.precision = precision

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, profile, precision=EXACT):
        return cls(profile, {}, precision)

    @classmethod
    def monomial(cls, profile, coeff, exponents, precision=EXACT):
        return cls(profile, {tuple(exponents): coeff}, precision)

    @classmethod
    def one(cls, profile):
        return cls.monomial(profile, 1, (0,) * profile.dim)

    @classmethod
    def _trusted(cls, profile, terms: dict, precision):
        """Wrap terms produced by a closed operation without re-validation.

        The caller guarantees what `__init__` checks: exponent tuples of the
        profile's dimension with entries in Z[1/p], coefficients reduced
        mod p and nonzero, and a Fraction or EXACT precision.  Only the
        precision filter runs, since it depends on the result's own bound.
        """
        if precision is not EXACT:
            weight = profile.weight
            terms = {e: c for e, c in terms.items() if weight(e) < precision}
        out = object.__new__(cls)
        out.profile = profile
        out.terms = terms
        out.precision = precision
        return out

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when no term is resolved below the precision bound."""
        return not self.terms

    def val_lower(self):
        """The valuation of a nonzero series; the precision bound otherwise.

        For a series with stored terms this is the exact valuation.  For a
        zero series it is the strongest certified lower bound: `None` for
        the exact zero (valuation +infinity), else the precision.
        """
        if self.terms:
            return min(self.profile.weight(e) for e in self.terms)
        return self.precision

    def leading(self):
        """(weight, exponents, coeff) of the minimal-weight term, or None.

        Under a generic-radius profile an equal-weight tie raises
        AmbiguousLeadingError; other profiles break ties by the smallest
        exponent vector.
        """
        if not self.terms:
            return None
        ranked = sorted((self.profile.weight(e), e) for e in self.terms)
        w0, e0 = ranked[0]
        if self.profile.generic_radius and len(ranked) > 1 and ranked[1][0] == w0:
            raise AmbiguousLeadingError(
                f"terms {e0} and {ranked[1][1]} share minimal weight {w0}"
            )
        return w0, e0, self.terms[e0]

    def terms_sorted(self):
        """Stored terms ordered by (weight, exponent vector)."""
        return sorted(
            self.terms.items(), key=lambda item: (self.profile.weight(item[0]), item[0])
        )

    def _check_profile(self, other):
        if not isinstance(other, TruncatedSeries) or other.profile != self.profile:
            raise ProfileMismatchError("operands built over different profiles")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        self._check_profile(other)
        prec = min_precision(self.precision, other.precision)
        acc = dict(self.terms)
        p = self.profile.p
        for exps, c in other.terms.items():
            s = (acc.get(exps, 0) + c) % p
            if s:
                acc[exps] = s
            else:
                acc.pop(exps, None)
        return TruncatedSeries._trusted(self.profile, acc, prec)

    def __neg__(self):
        p = self.profile.p
        return TruncatedSeries._trusted(
            self.profile, {e: p - c for e, c in self.terms.items()}, self.precision
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_profile(other)
        prec = min_precision(
            shift_precision(self.precision, other.val_lower()),
            shift_precision(other.precision, self.val_lower()),
        )
        acc = {}
        p = self.profile.p
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = (acc.get(e, 0) + c1 * c2) % p
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return TruncatedSeries._trusted(self.profile, acc, prec)

    def __pow__(self, n: int):
        if n < 0:
            return self._monomial_inverse() ** (-n)
        result = TruncatedSeries.one(self.profile)
        base = self
        while n:
            if n & 1:
                result = result * base
            base2 = base * base if n > 1 else base
            base, n = base2, n >> 1
        return result

    def _monomial_inverse(self):
        if len(self.terms) != 1:
            raise NotAUnitError("negative powers require a single-term series")
        (exps, c), = self.terms.items()
        w = self.profile.weight(exps)
        prec = shift_precision(self.precision, -2 * w)
        inv = pow(c, -1, self.profile.p)
        return TruncatedSeries.monomial(
            self.profile, inv, tuple(-e for e in exps), prec
        )

    def truncate(self, new_prec):
        """Drop terms of weight >= new_prec and record the lower bound."""
        new_prec = as_fraction(new_prec)
        if self.precision is not EXACT and new_prec > self.precision:
            raise PrecisionIncreaseError(
                f"cannot raise precision from {self.precision} to {new_prec}"
            )
        return TruncatedSeries(self.profile, self.terms, new_prec)

    def frobenius(self, k: int):
        """Scale exponents and precision by p^k; p-th powers/roots of F_p
        coefficients are the identity.  Negative k is legitimate because
        every ring in this package is perfect."""
        scale = Fraction(self.profile.p) ** k
        terms = {tuple(e * scale for e in exps): c for exps, c in self.terms.items()}
        prec = None if self.precision is None else self.precision * scale
        return TruncatedSeries(self.profile, terms, prec)

    def invert(self, target_prec=None):
        """Multiplicative inverse.

        An exact single-term series inverts exactly (the target is ignored).
        Otherwise the result carries precision target_prec, computed by
        leading-term extraction and geometric iteration on the tail; the
        input must be precise enough to determine it, i.e.
        precision(self) - 2*val(self) >= target_prec.
        """
        if not self.terms:
            raise NotAUnitError("cannot invert a series with no resolved terms")
        if self.precision is EXACT and len(self.terms) == 1:
            return self._monomial_inverse()
        if target_prec is None:
            raise InsufficientPrecisionError(
                "a target precision is required for non-monomial inversion"
            )
        target = as_fraction(target_prec)
        w, exps, c = self.leading()
        if self.precision is not EXACT and self.precision - 2 * w < target:
            raise InsufficientPrecisionError(
                f"precision {self.precision} at valuation {w} cannot deliver "
                f"an inverse to precision {target}"
            )
        lead = TruncatedSeries.monomial(self.profile, c, exps)
        lead_inv = lead._monomial_inverse()
        rel = target + w
        u = _clip(lead_inv * (self - lead), rel)
        acc = TruncatedSeries.one(self.profile)
        term = TruncatedSeries.one(self.profile)
        while True:
            term = _clip(term * (-u), rel)
            acc = acc + term
            if term.is_zero:
                break
        return _clip(lead_inv * acc, target)

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.profile == other.profile
            and self.terms == other.terms
            and self.precision == other.precision
        )

    __hash__ = None

    def __repr__(self):
        body = render_series(self).replace("\n", "; ").rstrip("; ")
        return f"<series {body}>"


def random_series(rng, profile: WeightProfile, max_terms=12, max_prec=20,
                  max_num=27, max_k=3, nonzero=True) -> TruncatedSeries:
    """Seeded random series for smoke tests.

    Exponents are i / p^k with |i| <= max_num and k <= max_k; the precision
    is EXACT with probability 0.4, else an integer in [max_prec // 2,
    max_prec].  With `nonzero` the draw repeats until a term survives.
    """
    p = profile.p
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(
                Fraction(rng.randint(-max_num, max_num), p ** rng.randint(0, max_k))
                for _ in range(profile.dim)
            )
            terms[exps] = rng.randint(1, p - 1)
        if rng.random() < 0.4:
            precision = EXACT
        else:
            precision = Fraction(rng.randint(max_prec // 2, max_prec))
        f = TruncatedSeries(profile, terms, precision)
        if f.terms or not nonzero:
            return f


def _clip(f: TruncatedSeries, prec):
    if f.precision is EXACT or f.precision > prec:
        return f.truncate(prec)
    return f


# -- text format -----------------------------------------------------------
#
# One term per line, `<coeff> t^<rat> [x1^<rat> ...]`, closed by the
# precision sentinel `O(<rat>)` (or `O(EXACT)`).  Terms are ordered by
# (weight, exponent vector) so rendering is deterministic, and
# parse(render(f)) == f exactly.


def render_series(f: TruncatedSeries) -> str:
    lines = []
    for exps, coeff in f.terms_sorted():
        parts = [str(coeff), f"t^{exps[0]}"]
        for i, q in enumerate(exps[1:], start=1):
            if q:
                parts.append(f"x{i}^{q}")
        lines.append(" ".join(parts))
    prec = "EXACT" if f.precision is EXACT else str(f.precision)
    lines.append(f"O({prec})")
    return "\n".join(lines) + "\n"


def parse_series(profile: WeightProfile, text: str) -> TruncatedSeries:
    if not isinstance(text, str):
        raise FormatError(f"series text must be a string, not {type(text).__name__}")
    terms = {}
    precision = "missing"
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if precision != "missing":
            raise FormatError("content after the precision sentinel")
        if line.startswith("O(") and line.endswith(")"):
            body = line[2:-1]
            precision = EXACT if body == "EXACT" else as_fraction(body)
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise FormatError(f"malformed term line: {line!r}")
        try:
            coeff = int(tokens[0])
        except ValueError as exc:
            raise FormatError(f"malformed coefficient in: {line!r}") from exc
        exps = [Fraction(0)] * profile.dim
        for tok in tokens[1:]:
            name, sep, val = tok.partition("^")
            if not sep:
                raise FormatError(f"malformed factor {tok!r} in: {line!r}")
            if name == "t":
                idx = 0
            elif name.startswith("x") and name[1:].isdigit():
                idx = int(name[1:])
            else:
                raise FormatError(f"unknown variable {name!r} in: {line!r}")
            if not 0 <= idx < profile.dim:
                raise FormatError(f"variable {name!r} outside profile in: {line!r}")
            exps[idx] = as_fraction(val)
        key = tuple(exps)
        if key in terms:
            raise FormatError(f"duplicate exponent vector in term line: {line!r}")
        terms[key] = coeff
    if precision == "missing":
        raise FormatError("missing precision sentinel O(...)")
    return TruncatedSeries(profile, terms, precision)
