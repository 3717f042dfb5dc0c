"""Exact arithmetic on the value group Z[1/p] and its enumeration.

All valuations in this package are additive: v = -log of the multiplicative
norm, normalized so the uniformizer has valuation 1.  Every valuation and
exponent is a `fractions.Fraction`, so each comparison in the package is an
exact integer comparison after cross-multiplication.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConfigError, FormatError

#: Precision sentinel: a series with precision EXACT is known completely.
EXACT = None


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {value!r}") from exc
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


def smallest_zp_point(lo: Fraction, hi: Fraction, p: int) -> Fraction:
    """The Z[1/p] point of the open interval (lo, hi) with the smallest
    denominator, ties broken by the smallest numerator.

    Density of Z[1/p] in the reals guarantees termination: some denominator
    p^k with p^k > 1/(hi - lo) always admits a point.
    """
    lo, hi = as_fraction(lo), as_fraction(hi)
    if not lo < hi:
        raise ConfigError(f"empty interval ({lo}, {hi})")
    den = 1
    while True:
        n = math.floor(lo * den) + 1
        if Fraction(n, den) < hi:
            return Fraction(n, den)
        den *= p


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
    return omega_prefix(m, p)[m - 1]
