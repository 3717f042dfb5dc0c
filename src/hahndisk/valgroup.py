"""Exact arithmetic on the value group Z[1/p] and its enumeration.

All valuations in this package are additive: v = -log of the multiplicative
norm, normalized so the uniformizer has valuation 1.  Every valuation and
exponent is a `fractions.Fraction`, so each comparison in the package is an
exact integer comparison after cross-multiplication.  The plan checks (here,
in the builder's stage search and in the plan verifier) cross-multiply the
numerators and denominators themselves, a/b < c/d as a*d < c*b with b, d > 0,
and build a `Fraction` only for a value they store or print.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ConfigError, FormatError

#: Precision sentinel: a series with precision EXACT is known completely.
EXACT = None


#: The one text form of a rational: ASCII digits, an optional leading minus
#: and an optional denominator.  `Fraction` alone would also take `1e6`,
#: `0.5`, `1_000` and `+2/3`, and e-notation builds 10^k before any bound.
RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def too_many_digits(what: str) -> FormatError:
    """The error for numeric text longer than Python converts to an int."""
    return FormatError(
        f"{what} exceeds the {sys.get_int_max_str_digits()}-digit integer "
        "conversion limit")


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    match = isinstance(value, str) and RATIONAL_TEXT.fullmatch(value)
    if match:
        num, den = match.groups()  # the two digit runs: no second parse
        try:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except ZeroDivisionError as exc:
            raise FormatError(f"not a rational: {value!r}") from exc
        except ValueError as exc:  # the text matched, so only the digit limit
            raise too_many_digits(f"a rational of {len(value)} characters") from exc
    raise FormatError(f"not a rational: {value!r}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_in_zp(q, p: int) -> bool:
    """True iff the reduced denominator of q is a power of p."""
    q = as_fraction(q)
    den = q.denominator
    while den % p == 0:
        den //= p
    return den == 1


def padic_denominator_exponent(q: Fraction, p: int) -> int:
    """The k with q = i / p^k in lowest terms; q must lie in Z[1/p]."""
    den = q.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if den != 1:
        raise ConfigError(f"{q} is not in Z[1/{p}]")
    return k


def _zp_point(ln: int, ld: int, hn: int, hd: int, p: int) -> tuple:
    """`smallest_zp_point` of (ln/ld, hn/hd), ld and hd > 0, as a reduced
    (numerator, p-power denominator) pair.  The first denominator p^k that
    admits a point gives it, so the point has no factor p in common with
    p^k: that point over p^(k-1) would have been found first."""
    den = 1
    while True:
        n = ln * den // ld + 1  # floor(lo * den) + 1; // rounds down
        if n * hd < hn * den:
            return n, den
        den *= p


def smallest_zp_point(lo: Fraction, hi: Fraction, p: int) -> Fraction:
    """The Z[1/p] point of the open interval (lo, hi) with the smallest
    denominator, ties broken by the smallest numerator.

    Density of Z[1/p] in the reals guarantees termination: some denominator
    p^k with p^k > 1/(hi - lo) always admits a point.
    """
    lo, hi = as_fraction(lo), as_fraction(hi)
    if not lo < hi:
        raise ConfigError(f"empty interval ({lo}, {hi})")
    return Fraction(*_zp_point(lo.numerator, lo.denominator, hi.numerator, hi.denominator, p))


def stage_point(q: Fraction, gamma_x: Fraction, v_s: Fraction, p: int) -> tuple:
    """((en, ed), (wn, wd)) for a plan stage of exponent q: the canonical
    point v_e = en/ed = smallest_zp_point(lo, lo + v_s, p), reduced, of
    lo = -q * gamma_x, and its weight w = v_e - lo = wn/wd, not reduced.

    lo and lo + v_s are numerators over one common denominator, and no
    Fraction is built; denominators are positive, and v_s must be.
    """
    sn, sd = v_s.numerator, v_s.denominator
    qg = q.denominator * gamma_x.denominator
    ln, ld = -q.numerator * gamma_x.numerator * sd, qg * sd
    n, den = _zp_point(ln, ld, ln + sn * qg, ld, p)
    return (n, den), (n * ld - ln * den, den * ld)


# The fixed enumeration of Z[1/p]: reduced fractions i/p^k ordered by
# increasing height h = max(|i|, p^k), ties by smaller k, then smaller |i|,
# then the positive sign first.  omega(1) = 0.
_OMEGA_CACHE: dict[int, tuple[list[Fraction], int]] = {}


def _height_block(h: int, p: int) -> list[Fraction]:
    cands = []
    if h == 1:
        cands.append((0, 0, 0, Fraction(0)))
    cands.append((0, h, 0, Fraction(h)))
    cands.append((0, h, 1, Fraction(-h)))
    pk, k = p, 1
    while pk <= h:
        if pk == h:
            for i in range(1, h + 1):
                if i % p:
                    cands.append((k, i, 0, Fraction(i, pk)))
                    cands.append((k, i, 1, Fraction(-i, pk)))
        elif h % p:
            cands.append((k, h, 0, Fraction(h, pk)))
            cands.append((k, h, 1, Fraction(-h, pk)))
        pk *= p
        k += 1
    cands.sort(key=lambda c: c[:3])
    return [c[3] for c in cands]


def omega_prefix(n: int, p: int) -> list[Fraction]:
    """The first n values of the enumeration, as a list."""
    if not is_prime(p):
        raise ConfigError(f"p must be prime, got {p}")
    values, next_h = _OMEGA_CACHE.get(p, ([], 1))
    if len(values) < n:
        values = list(values)
        while len(values) < n:
            values.extend(_height_block(next_h, p))
            next_h += 1
        _OMEGA_CACHE[p] = (values, next_h)
    return values[:n]


def omega(m: int, p: int) -> Fraction:
    """The m-th element (1-indexed) of the fixed bijection onto Z[1/p]."""
    if m < 1:
        raise ConfigError(f"omega index must be >= 1, got {m}")
    values = _OMEGA_CACHE.get(p, ((),))[0]  # only a prime p is cached
    if len(values) < m:
        omega_prefix(m, p)
        values = _OMEGA_CACHE[p][0]
    return values[m - 1]
