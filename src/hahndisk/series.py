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

A series comes about in one of two ways.  Input from outside the program
(`parse_series`, the public constructors, tests) goes through the
validating constructor `TruncatedSeries(profile, terms, precision)`, which
checks every exponent and reduces every coefficient.  Terms a closed
operation computed go through `_trusted` or its public forms, which skip
that check: `from_terms` sums (exponents, coefficient) pairs mod p,
`window` keeps the terms of a weight interval and `split` groups them by
one exponent.  `_summed`, behind `from_terms`, is the one loop that
combines terms mod p: `+` and `-` fold the right operand into a copy of
the left's terms, and `*` hands it the pairs below the product's
precision.

A closed operation hashes an exponent vector only as it stores a new
term: a dict copy keeps its stored hashes, the precision filter deletes
the dropped keys in place, and `from_terms` hashes a new vector once.
Dict order is still that of a running sum over the operands' terms.

A weight is computed one way.  A profile keeps its slot weights as
integer numerators over one common denominator, and
`WeightProfile._weigh` gives an exponent vector's weight as (numerator,
positive denominator) from one integer dot product, with no gcd;
`weight` is that pair as one `Fraction`, or the t-exponent itself when
no variable weighs anything.  Every bound test compares such pairs
cross-multiplied: `window`, the precision filter `_cut` of the
validating constructor and of `_trusted`, and the pair filter of `*`;
`val_lower` and `leading` pick the least pair the same way and build one
`Fraction`, for the weight they return, as `*` does for its precision.
`split` orders its parts by `val_lower`, and the text order sorts by
`weight`.  Each term is weighed at most once per operation: `*` stores
the pairs its own filter kept without filtering them again, and `+` and
`-` filter only the operand whose precision exceeds the result's.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add

from .errors import (
    AmbiguousLeadingError,
    ExponentError,
    FormatError,
    InsufficientPrecisionError,
    NotAUnitError,
    PrecisionIncreaseError,
    ProfileMismatchError,
)
from .valgroup import EXACT, as_fraction, is_in_zp, too_many_digits


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


def _least(weights) -> tuple:
    """The least of a nonempty iterable of (numerator, positive denominator)
    weight pairs, compared cross-multiplied."""
    it = iter(weights)
    bn, bd = next(it)
    for n, d in it:
        if n * bd < bn * d:
            bn, bd = n, d
    return bn, bd


class WeightProfile:
    """Weights turning exponent vectors into additive valuations.

    Slot 0 belongs to the uniformizer t and always weighs 1; slot i >= 1
    weighs variable i by its radius parameter -log r_i.  `generic_radius`
    marks profiles on which the leading monomial is promised to be unique,
    so an equal-weight tie is reported as an error instead of being broken
    arbitrarily.
    """

    __slots__ = ("p", "weights", "generic_radius", "_den", "_int_slots")

    def __init__(self, p: int, weights, generic_radius: bool = False):
        weights = tuple(as_fraction(w) for w in weights)
        if not weights or weights[0] != 1:
            raise ProfileMismatchError("slot 0 is the uniformizer and must weigh 1")
        if any(w < 0 for w in weights):
            raise ProfileMismatchError("weights must be nonnegative")
        self.p = p
        self.weights = weights
        self.generic_radius = generic_radius
        # (index, weight) of the variable slots that weigh anything, each
        # weight an integer numerator over the common denominator _den: slot
        # 0 always weighs 1, and a Tate-ring variable weighs 0
        self._den = lcm(*(w.denominator for w in weights))
        self._int_slots = tuple((i, w.numerator * (self._den // w.denominator))
                                for i, w in enumerate(weights) if i and w)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def weight(self, exponents) -> Fraction:
        """The weight as a Fraction: the pair `_weigh` gives, reduced, or
        the t-exponent itself when no variable slot weighs anything (the
        ground field and the Tate rings)."""
        if not self._int_slots:
            return exponents[0]
        return Fraction(*self._weigh(exponents))

    def _weigh(self, exponents) -> tuple:
        """The weight of `exponents` as an unreduced pair (numerator,
        positive denominator): one integer dot product of the exponent
        numerators with the slot numerators over `_den`, on a running
        denominator that takes in each exponent denominator it does not
        equal."""
        e = exponents[0]
        n, d = e.numerator * self._den, e.denominator
        for i, a in self._int_slots:
            e = exponents[i]
            ed = e.denominator
            if ed == d:
                n += a * e.numerator
            else:
                n, d = n * ed + a * e.numerator * d, d * ed
        return n, d * self._den

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
            if c:
                tidy[exps] = c
        if precision is not EXACT:
            _cut(profile, tidy, precision)
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
    def _trusted(cls, profile, terms: dict, precision, cut=True):
        """Wrap terms produced by a closed operation without re-validation.

        The caller guarantees what `__init__` checks: exponent tuples of the
        profile's dimension with entries in Z[1/p], coefficients reduced
        mod p and nonzero, a Fraction or EXACT precision, and a `terms` dict
        no one else holds.  Only the precision filter runs, since it depends
        on the result's own bound; it deletes the dropped keys from `terms`.
        A caller that kept no term at or past the precision passes `cut`
        false, and nothing is weighed.
        """
        if cut and precision is not EXACT:
            _cut(profile, terms, precision)
        out = object.__new__(cls)
        out.profile = profile
        out.terms = terms
        out.precision = precision
        return out

    @classmethod
    def from_terms(cls, profile, pairs, precision):
        """The sum of the monomials c * t^a x^q given as (exponents, c) pairs.

        A new vector is hashed once, as it is stored; only a repeated one is
        summed mod p, and dropped at zero, so the terms and their dict order
        are a running sum's.  The caller guarantees what `_trusted` asks of
        exponents and precision, and that no c is divisible by p."""
        return cls._trusted(profile, _summed({}, pairs, profile.p), precision)

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
            return Fraction(*_least(map(self.profile._weigh, self.terms)))
        return self.precision

    def leading(self):
        """(weight, exponents, coeff) of the minimal-weight term, or None.

        Under a generic-radius profile an equal-weight tie raises
        AmbiguousLeadingError; other profiles break ties by the smallest
        exponent vector.
        """
        if not self.terms:
            return None
        weighed = [(self.profile._weigh(e), e) for e in self.terms]
        n0, d0 = _least(w for w, _ in weighed)
        tied = sorted(e for (n, d), e in weighed if n * d0 == n0 * d)
        w0 = Fraction(n0, d0)
        if self.profile.generic_radius and len(tied) > 1:
            raise AmbiguousLeadingError(
                f"terms {tied[0]} and {tied[1]} share minimal weight {w0}"
            )
        return w0, tied[0], self.terms[tied[0]]

    def terms_sorted(self):
        """Stored terms ordered by (weight, exponent vector)."""
        return sorted(
            self.terms.items(), key=lambda item: (self.profile.weight(item[0]), item[0])
        )

    def window(self, lo, hi):
        """The stored terms of weight in [lo, hi), as an exact element."""
        weigh = self.profile._weigh
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        return TruncatedSeries._trusted(
            self.profile,
            {e: c for e, c in self.terms.items()
             if ln * (w := weigh(e))[1] <= w[0] * ld and w[0] * hd < hn * w[1]},
            EXACT,
        )

    def split(self, slot: int):
        """The stored terms grouped by their exponent in `slot`.

        Returns (exponent, part) pairs ordered by the least term weight of
        each part, then by the exponent; every part keeps this series'
        precision, and the parts sum to it.
        """
        groups = {}
        for exps, c in self.terms.items():
            groups.setdefault(exps[slot], {})[exps] = c
        parts = [(q, TruncatedSeries._trusted(self.profile, part, self.precision, cut=False))
                 for q, part in groups.items()]
        return sorted(parts, key=lambda qp: (qp[1].val_lower(), qp[0]))

    def _check_profile(self, other):
        if not isinstance(other, TruncatedSeries) or (
                other.profile is not self.profile and other.profile != self.profile):
            raise ProfileMismatchError("operands built over different profiles")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        self._check_profile(other)
        return self._combine(other, other.terms.items())

    def __neg__(self):
        return TruncatedSeries.zero(self.profile, self.precision) - self

    def __sub__(self, other):
        self._check_profile(other)
        return self._combine(other, ((e, -c) for e, c in other.terms.items()))

    def _combine(self, other, pairs):
        """self plus the (exponents, c) pairs of other's terms.  Only the
        operand whose precision exceeds the result's can hold a term at or
        past it, so only that one is filtered, before the sum: its dropped
        keys share no key with the other operand, and dict order is kept."""
        prec = min_precision(self.precision, other.precision)
        terms = self.terms.copy()
        if prec is not EXACT:
            if self.precision is EXACT or self.precision > prec:
                _cut(self.profile, terms, prec)
            elif other.precision is EXACT or other.precision > prec:
                weigh, pn, pd = self.profile._weigh, prec.numerator, prec.denominator
                pairs = ((e, c) for e, c in pairs if (w := weigh(e))[0] * pd < pn * w[1])
        return TruncatedSeries._trusted(
            self.profile, _summed(terms, pairs, self.profile.p), prec, cut=False)

    def __mul__(self, other):
        self._check_profile(other)
        # a pair at or past the precision is dropped by its weight, the sum
        # of the operands' weights, before its exponent vector is built, and
        # the pairs kept are not weighed again
        weigh = self.profile._weigh
        left = [(weigh(e), e, c) for e, c in self.terms.items()]
        right = [(weigh(e), e, c) for e, c in other.terms.items()]

        def least(side):
            return Fraction(*_least(w for w, _, _ in side))

        prec = min_precision(
            shift_precision(self.precision, least(right) if right else other.precision),
            shift_precision(other.precision, least(left) if left else self.precision),
        )
        if prec is EXACT:
            pairs = ((tuple(map(add, e1, e2)), c1 * c2)
                     for _, e1, c1 in left for _, e2, c2 in right)
        else:
            # w1 + w2 < prec, as n2/d2 < (pn d1 - n1 pd) / (pd d1)
            pn, pd = prec.numerator, prec.denominator
            pairs = ((tuple(map(add, e1, e2)), c1 * c2)
                     for (n1, d1), e1, c1 in left
                     for rn, rd in [(pn * d1 - n1 * pd, pd * d1)]
                     for (n2, d2), e2, c2 in right if n2 * rd < rn * d2)
        return TruncatedSeries._trusted(
            self.profile, _summed({}, pairs, self.profile.p), prec, cut=False)

    def __pow__(self, n: int):
        if n < 0:
            return self._monomial_inverse() ** (-n)
        if n == 0:
            return TruncatedSeries.one(self.profile)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def _monomial_inverse(self):
        if len(self.terms) != 1:
            raise NotAUnitError("negative powers require a single-term series")
        (exps, c), = self.terms.items()
        w = self.profile.weight(exps)
        prec = shift_precision(self.precision, -2 * w)
        inv = pow(c, -1, self.profile.p)
        return TruncatedSeries._trusted(self.profile, {tuple(-e for e in exps): inv}, prec)

    def truncate(self, new_prec):
        """Drop terms of weight >= new_prec and record the lower bound."""
        new_prec = as_fraction(new_prec)
        if self.precision is not EXACT and new_prec > self.precision:
            raise PrecisionIncreaseError(
                f"cannot raise precision from {self.precision} to {new_prec}"
            )
        return TruncatedSeries._trusted(self.profile, self.terms.copy(), new_prec)

    def frobenius(self, k: int):
        """Scale exponents and precision by p^k; p-th powers/roots of F_p
        coefficients are the identity.  Negative k is legitimate because
        every ring in this package is perfect."""
        scale = Fraction(self.profile.p) ** k
        terms = {tuple(e * scale for e in exps): c for exps, c in self.terms.items()}
        prec = None if self.precision is None else self.precision * scale
        # weights scale by p^k > 0 too, so every term stays below prec
        return TruncatedSeries._trusted(self.profile, terms, prec, cut=False)

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
        rest = self - lead
        if rest.terms and rest.val_lower() <= w:  # a tie, off a generic radius
            raise NotAUnitError(f"another term has the leading weight {w}; not a unit")
        lead_inv = lead._monomial_inverse()
        rel = target + w
        u = _clip(lead_inv * rest, rel)
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


def _cut(profile: WeightProfile, terms: dict, precision):
    """Delete from `terms`, in place, every key of weight >= precision."""
    weigh, pn, pd = profile._weigh, precision.numerator, precision.denominator
    for e in [e for e in terms if (w := weigh(e))[0] * pd >= pn * w[1]]:
        del terms[e]


def _summed(acc: dict, pairs, p: int) -> dict:
    """The loop of `from_terms`: each (exponents, c) pair added into `acc`
    mod p, in place; returns acc."""
    for exps, c in pairs:
        size = len(acc)
        s = acc.setdefault(exps, c % p)
        if len(acc) == size:  # a repeated vector
            s = (s + c) % p
            if s:
                acc[exps] = s
            else:
                del acc[exps]
    return acc


def _clip(f: TruncatedSeries, prec):
    if f.precision is EXACT or f.precision > prec:
        return f.truncate(prec)
    return f


# -- text format -----------------------------------------------------------
#
# One term per line, `<coeff> t^<rat> [x1^<rat> ...]`, closed by the
# precision sentinel `O(<rat>)` (or `O(EXACT)`).  Terms are ordered by
# (weight, exponent vector) so rendering is deterministic, and
# parse(render(f)) == f exactly.  A coefficient is `-?[0-9]+`, a rational
# follows `valgroup.RATIONAL_TEXT`.

_INTEGER_TEXT = re.compile(r"-?[0-9]+")
_VARIABLE_TEXT = re.compile(r"x[0-9]+")


def _int_text(text: str) -> int:
    """int() of text that already matched a digit pattern."""
    try:
        return int(text)
    except ValueError as exc:  # only the digit limit is left
        raise too_many_digits(f"an integer of {len(text)} characters") from exc


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
        if not _INTEGER_TEXT.fullmatch(tokens[0]):
            raise FormatError(f"malformed coefficient in: {line!r}")
        coeff = _int_text(tokens[0])
        exps = [Fraction(0)] * profile.dim
        for tok in tokens[1:]:
            name, sep, val = tok.partition("^")
            if not sep:
                raise FormatError(f"malformed factor {tok!r} in: {line!r}")
            if name == "t":
                idx = 0
            elif _VARIABLE_TEXT.fullmatch(name):
                idx = _int_text(name[1:])
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
    try:
        return TruncatedSeries(profile, terms, precision)
    except ExponentError as exc:  # an exponent outside Z[1/p] is malformed text
        raise FormatError(str(exc)) from exc
