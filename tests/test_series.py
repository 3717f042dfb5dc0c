"""Engine laws: ring operations, precision contracts, text round-trips."""

import contextlib
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hahndisk.errors import (
    AmbiguousLeadingError,
    ExponentError,
    InsufficientPrecisionError,
    NotAUnitError,
    PrecisionIncreaseError,
    ProfileMismatchError,
)
from hahndisk.config import InstanceConfig
from hahndisk.series import (
    TruncatedSeries,
    WeightProfile,
    min_precision,
    parse_series,
    random_series,
    render_series,
)

P3 = WeightProfile(3, (1,), generic_radius=True)
RES = WeightProfile(3, (1, Fraction(1, 2)), generic_radius=True)


def mono(profile, coeff, *exps, prec=None):
    return TruncatedSeries.monomial(profile, coeff, exps, prec)


def schoolbook_mul(f, g):
    """Independent double-loop convolution oracle."""
    p = f.profile.p
    acc = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            acc[key] = (acc.get(key, 0) + c1 * c2) % p
    fv = f.val_lower() if f.terms else f.precision
    gv = g.val_lower() if g.terms else g.precision
    prec = None
    for cand in (
        None if (f.precision is None or gv is None) else f.precision + gv,
        None if (g.precision is None or fv is None) else g.precision + fv,
    ):
        if cand is not None and (prec is None or cand < prec):
            prec = cand
    return TruncatedSeries(f.profile, acc, prec)


class TestAdd:
    def test_identity(self):
        f = mono(P3, 1, Fraction(1, 3)) + mono(P3, 2, 2)
        assert f + TruncatedSeries.zero(P3) == f

    def test_cancellation_in_char_three(self):
        f = mono(P3, 1, Fraction(1, 3), prec=5)
        g = mono(P3, 2, Fraction(1, 3), prec=7)
        s = f + g
        assert s.is_zero and s.precision == 5

    def test_precision_drop(self):
        f = TruncatedSeries(P3, {(Fraction(1),): 1, (Fraction(2),): 1}, 3)
        g = mono(P3, 1, 2, prec=2)
        s = f + g
        # the weight-2 terms sit at the new bound and are dropped
        assert s == mono(P3, 1, 1, prec=2)

    def test_profile_mismatch(self):
        with pytest.raises(ProfileMismatchError):
            mono(P3, 1, 0) + mono(RES, 1, 0, 0)


class TestMul:
    def test_identity(self):
        f = mono(RES, 2, Fraction(1, 3), 1) + mono(RES, 1, 0, 0)
        assert f * TruncatedSeries.one(RES) == f

    def test_single_term_convolution(self):
        f = mono(P3, 1, Fraction(1, 3)) * mono(P3, 1, Fraction(2, 3))
        assert f == mono(P3, 1, 1)

    def test_binomial_square(self):
        one_plus_t = TruncatedSeries(P3, {(Fraction(0),): 1, (Fraction(1),): 1})
        sq = one_plus_t * one_plus_t
        assert sq == TruncatedSeries(
            P3, {(Fraction(0),): 1, (Fraction(1),): 2, (Fraction(2),): 1}
        )

    def test_matches_schoolbook_on_randoms(self):
        rng = random.Random(23)
        for _ in range(200):
            f = random_series(rng, RES, nonzero=False)
            g = random_series(rng, RES, nonzero=False)
            assert f * g == schoolbook_mul(f, g)

    def test_zero_propagates_precision(self):
        z = TruncatedSeries.zero(P3, 5)
        t = mono(P3, 1, 1)
        prod = z * t
        assert prod.is_zero and prod.precision == 6


class TestValuationAndLeading:
    def test_min_of_two(self):
        f = mono(P3, 1, 2) + mono(P3, 1, 1)
        assert f.leading() == (1, (Fraction(1),), 1)

    def test_mixed_weights(self):
        f = mono(RES, 1, 0, Fraction(1, 3)) + mono(RES, 1, 1, -1)
        assert f.leading() == (Fraction(1, 6), (Fraction(0), Fraction(1, 3)), 1)

    def test_zero_reports_precision(self):
        z = TruncatedSeries.zero(RES, 7)
        assert z.leading() is None
        assert z.val_lower() == 7

    def test_ambiguous_tie_raises_on_generic_profile(self):
        # weights 1 and 2*(1/2) collide: the generic-radius promise is
        # violated by this artificial input and must be reported.
        f = mono(RES, 1, 1, 0) + mono(RES, 1, 0, 2)
        with pytest.raises(AmbiguousLeadingError):
            f.leading()

    def test_tie_tolerated_on_gauss_profile(self):
        gauss = WeightProfile(3, (1, 0), generic_radius=False)
        f = TruncatedSeries(gauss, {(Fraction(0), Fraction(1)): 1,
                                    (Fraction(0), Fraction(2)): 1})
        w, exps, coeff = f.leading()
        assert w == 0 and exps == (0, 1)


class TestInvert:
    def test_one(self):
        one = TruncatedSeries.one(P3)
        assert one.invert() == one

    def test_exact_monomial_inverts_exactly(self):
        f = mono(P3, 1, Fraction(1, 3))
        g = f.invert()
        assert g == mono(P3, 1, Fraction(-1, 3))
        assert g.precision is None

    def test_geometric_tail(self):
        f = TruncatedSeries(P3, {(Fraction(0),): 1, (Fraction(1),): 1})
        g = f.invert(3)
        assert g == TruncatedSeries(
            P3, {(Fraction(0),): 1, (Fraction(1),): 2, (Fraction(2),): 1}, 3
        )
        r = f * g - TruncatedSeries.one(P3)
        assert r.is_zero and r.precision == 3

    def test_round_trip_on_randoms(self):
        rng = random.Random(41)
        for _ in range(100):
            f = random_series(rng, RES, max_terms=6, max_k=1, max_num=9)
            v = f.val_lower()
            target = v + Fraction(3, 2)
            if f.precision is not None and f.precision - 2 * v < target:
                continue
            try:
                g = f.invert(target)
            except AmbiguousLeadingError:
                continue  # leading-weight tie: no unique leading to extract
            r = f * g - TruncatedSeries.one(RES)
            assert r.is_zero
            if g.precision is None:  # exact monomial path: exact inverse
                assert len(f.terms) == 1 and r.precision is None
            else:
                assert r.precision == target + v

    def test_zero_not_a_unit(self):
        with pytest.raises(NotAUnitError):
            TruncatedSeries.zero(P3, 4).invert(2)

    def test_insufficient_precision(self):
        f = TruncatedSeries(P3, {(Fraction(0),): 1, (Fraction(1),): 1}, 2)
        with pytest.raises(InsufficientPrecisionError):
            f.invert(3)

    def test_tied_leading_weight_is_not_a_unit(self):
        # Off a generic radius a tail term can share the leading weight;
        # the geometric series in the tail would then never end.  1 + x1 is
        # not a unit of R_3.  The time limit turns a hang into a failure.
        ring = InstanceConfig().tate()
        gauss5 = WeightProfile(5, (1, 0))
        tied = [ring.one() + ring.var(1),
                TruncatedSeries(gauss5, {(Fraction(0), Fraction(0)): 2,
                                         (Fraction(0), Fraction(1, 25)): 1,
                                         (Fraction(1), Fraction(0)): 3}, 4)]
        for f in tied:
            with time_limit(5), pytest.raises(NotAUnitError):
                f.invert(3)

    def test_untied_tail_inverts_off_a_generic_radius(self):
        ring = InstanceConfig().tate()
        f = ring.one() + ring.monomial(1, 1, (1, 0, 0))
        r = f * f.invert(5) - ring.one()
        assert r.is_zero and r.precision == 5


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestFrobenius:
    def test_identity_power(self):
        f = mono(RES, 2, Fraction(1, 3), 1, prec=9)
        assert f.frobenius(0) == f

    def test_exponent_scaling(self):
        f = mono(P3, 1, Fraction(1, 3)) + mono(P3, 1, 1)
        assert f.frobenius(1) == mono(P3, 1, 1) + mono(P3, 1, 3)

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            f = random_series(rng, RES)
            assert f.frobenius(-2).frobenius(2) == f

    def test_ring_map(self):
        rng = random.Random(17)
        for _ in range(100):
            f = random_series(rng, RES, nonzero=False)
            g = random_series(rng, RES, nonzero=False)
            assert (f * g).frobenius(1) == f.frobenius(1) * g.frobenius(1)
            assert (f + g).frobenius(1) == f.frobenius(1) + g.frobenius(1)


class TestTruncate:
    def test_identity_at_equal_precision(self):
        f = mono(P3, 1, 1, prec=3)
        assert f.truncate(3) == f

    def test_drop_to_zero(self):
        f = mono(P3, 1, 2, prec=5)
        z = f.truncate(2)
        assert z.is_zero and z.precision == 2

    def test_partial_drop(self):
        f = TruncatedSeries(P3, {(Fraction(1),): 1, (Fraction(2),): 1}, 3)
        assert f.truncate(Fraction(3, 2)) == mono(P3, 1, 1, prec=Fraction(3, 2))

    def test_cannot_raise(self):
        f = mono(P3, 1, 1, prec=3)
        with pytest.raises(PrecisionIncreaseError):
            f.truncate(4)


class TestUltrametric:
    def test_multiplicative_exact(self):
        rng = random.Random(99)
        for _ in range(300):
            f = random_series(rng, RES)
            g = random_series(rng, RES)
            assert (f * g).val_lower() == f.val_lower() + g.val_lower()

    def test_additive_bound_and_equality(self):
        rng = random.Random(100)
        for _ in range(300):
            f = random_series(rng, RES)
            g = random_series(rng, RES)
            s = f + g
            vs, vf, vg = s.val_lower(), f.val_lower(), g.val_lower()
            if vs is not None:
                assert vs >= min(vf, vg)
            if vf != vg:
                assert vs == min(vf, vg)


@st.composite
def small_series(draw):
    n = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n):
        e0 = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 3, 9])))
        e1 = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 3, 9])))
        terms[(e0, e1)] = draw(st.integers(1, 2))
    prec = draw(st.one_of(st.none(), st.integers(5, 12)))
    return TruncatedSeries(RES, terms, prec)


def agree_to_precision(a, b):
    """a and b are equal once both are truncated to the smaller precision."""
    prec = min_precision(a.precision, b.precision)
    if prec is None:
        return a == b
    return a.truncate(prec) == b.truncate(prec)


@settings(max_examples=60, deadline=None)
@given(f=small_series(), g=small_series(), h=small_series())
# Cancellation in g + h lifts the precision of f * (g + h): here it is
# 1 + O(5) while f * g + f * h is 1 + O(14/3).  Both are sound, so
# distributivity holds only to the smaller precision.
@example(f=mono(RES, 1, 0, 0, prec=5),
         g=mono(RES, 2, Fraction(-1, 3), 0) + mono(RES, 1, 0, 0),
         h=mono(RES, 1, Fraction(-1, 3), 0))
def test_ring_laws_to_precision(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert agree_to_precision(f * (g + h), f * g + f * h)
    assert (f + g) + h == f + (g + h)


@st.composite
def profile_and_exponents(draw):
    """A ground, residue-field or Tate-ring profile and an exponent vector."""
    p = draw(st.sampled_from([3, 5, 7]))
    den = draw(st.sampled_from([2, 4, 11]))
    gamma_x = Fraction(draw(st.integers(0, 20)) * den + 1, den)
    weights = draw(st.sampled_from([
        (1,), (1, gamma_x), (1,) + (0,) * draw(st.integers(1, 4))]))
    exps = tuple(Fraction(draw(st.integers(-50, 50)), p ** draw(st.integers(0, 3)))
                 for _ in weights)
    return WeightProfile(p, weights), exps


@settings(max_examples=200, deadline=None)
@given(case=profile_and_exponents())
def test_weight_is_the_full_dot_product(case):
    profile, exps = case
    want = sum((w * e for w, e in zip(profile.weights, exps)), Fraction(0))
    got = profile.weight(exps)
    assert got == want and isinstance(got, Fraction)


@settings(max_examples=60, deadline=None)
@given(f=small_series(), g=small_series(), lo=st.integers(-4, 8),
       width=st.integers(0, 6))
def test_closed_operations_match_validating_constructor(f, g, lo, width):
    # from_terms meets every key twice: g's terms add to 2g, and f's terms
    # cancel mod p against their negatives
    pairs = [*f.terms.items(), *g.terms.items(), *g.terms.items(),
             *((e, RES.p - c) for e, c in f.terms.items())]
    summed = TruncatedSeries.from_terms(RES, pairs, f.precision)
    assert summed == TruncatedSeries(
        RES, {e: 2 * c for e, c in g.terms.items()}, f.precision)
    parts = f.split(1)
    assert sum((part for _, part in parts), TruncatedSeries.zero(RES, f.precision)) == f
    assert all(e[1] == q for q, part in parts for e in part.terms)
    leads = [part.val_lower() for _, part in parts]
    assert leads == sorted(leads)
    window = f.window(lo, lo + width)
    assert window.terms == {e: c for e, c in f.terms.items()
                            if lo <= RES.weight(e) < lo + width}
    for got in (f * g, f + g, -f, summed, window, *(part for _, part in parts)):
        assert TruncatedSeries(got.profile, dict(got.terms), got.precision) == got


@settings(max_examples=60, deadline=None)
@given(f=small_series(), k=st.integers(-2, 2), cut=st.integers(-6, 12))
def test_frobenius_and_truncate_match_validating_constructor(f, k, cut):
    outs = [f.frobenius(k)]
    if f.precision is None or cut <= f.precision:
        outs.append(f.truncate(cut))
    for got in outs:
        assert TruncatedSeries(got.profile, dict(got.terms), got.precision) == got


@settings(max_examples=60, deadline=None)
@given(f=small_series())
def test_power_is_the_repeated_product(f):
    product = TruncatedSeries.one(RES)
    for n in range(7):
        assert f ** n == product
        product = f if n == 0 else product * f


class TestTextFormat:
    def test_documented_shape(self):
        f = mono(RES, 1, Fraction(1, 9), 0) + mono(RES, 1, -9, 27, prec=13)
        text = render_series(f)
        assert text == "1 t^1/9\n1 t^-9 x1^27\nO(13)\n"

    def test_round_trip_randoms(self):
        rng = random.Random(55)
        for _ in range(100):
            f = random_series(rng, RES, nonzero=False)
            assert parse_series(RES, render_series(f)) == f

    def test_exact_sentinel(self):
        f = mono(RES, 2, 0, Fraction(-1, 3))
        assert "O(EXACT)" in render_series(f)
        assert parse_series(RES, render_series(f)) == f

    def test_rejects_garbage(self):
        from hahndisk.errors import FormatError

        for bad in ["", "1 t^1\n", "O(1)\nextra", "x t^1\nO(1)", "1 q^2\nO(1)"]:
            with pytest.raises(FormatError):
                parse_series(RES, bad)

    def test_rejects_non_canonical_numbers(self):
        from hahndisk.errors import FormatError

        # rationals follow -?[0-9]+(/[0-9]+)? and coefficients -?[0-9]+;
        # small exponents only, since e-notation builds 10^k first
        for bad in ["1 t^1e3\nO(EXACT)", "O(1e3)", "1 t^0.5\nO(EXACT)",
                    "1 t^1_0\nO(EXACT)", "1 t^+2/3\nO(EXACT)", "1 t^٣\nO(EXACT)",
                    "+1 t^1\nO(EXACT)", "1_0 t^1\nO(EXACT)", "١ t^1\nO(EXACT)",
                    "1 t^0 x²^1\nO(EXACT)", "1 t^0 x1^1/0\nO(EXACT)"]:
            with pytest.raises(FormatError):
                parse_series(RES, bad)


def test_over_long_numerals_are_format_errors():
    from hahndisk.errors import FormatError

    big = "1" + "0" * 5000
    for bad in [f"{big} t^1\nO(EXACT)", f"1 t^{big}\nO(EXACT)",
                f"1 t^0 x{big}^1\nO(EXACT)", f"O({big})"]:
        with pytest.raises(FormatError):
            parse_series(RES, bad)


def test_exponents_must_be_padic():
    with pytest.raises(ExponentError):
        TruncatedSeries(P3, {(Fraction(1, 2),): 1})


def test_precision_monotonicity_no_stored_term_at_bound():
    rng = random.Random(77)
    for _ in range(200):
        f = random_series(rng, RES, nonzero=False)
        g = random_series(rng, RES, nonzero=False)
        for h in (f + g, f * g, f.frobenius(1), -f):
            if h.precision is not None:
                assert all(
                    h.profile.weight(e) < h.precision for e in h.terms
                )


# -- the divide regime: exponents i/p^k with k up to 40 -------------------------


def plain_weight(profile, exps):
    """The weight as a plain dot product with the profile's weights."""
    return sum((w * e for w, e in zip(profile.weights, exps)), Fraction(0))


def running_sum(profile, pairs, precision):
    """Reference for every closed operation: the monomials added one at a
    time to a plain dict, then the terms at or past the precision dropped.
    Returns the (exponents, coefficient) list in dict order and the
    precision."""
    acc = {}
    for exps, c in pairs:
        s = (acc.get(exps, 0) + c) % profile.p
        if s:
            acc[exps] = s
        else:
            acc.pop(exps, None)
    return [(e, c) for e, c in acc.items()
            if precision is None or plain_weight(profile, e) < precision], precision


def listed(f):
    return list(f.terms.items()), f.precision


@st.composite
def divide_regime(draw):
    """A residue-field or R_3 profile at p in {3, 5, 7}; (exponents, c)
    pairs that repeat and cancel; two series; and a cut and a window, all
    drawn from one small pool of vectors with entries i/p^k, k <= 40, so
    that the series share vectors and the cuts fall on term weights."""
    p = draw(st.sampled_from([3, 5, 7]))
    profile = WeightProfile(p, draw(st.sampled_from([(1, Fraction(1, 2)), (1, 0, 0, 0)])))
    rational = st.builds(lambda i, k: Fraction(i, p ** k),
                         st.integers(-40, 40), st.integers(0, 40))
    pool = draw(st.lists(st.tuples(*[rational] * profile.dim),
                         min_size=1, max_size=6, unique=True))
    coeff = st.integers(1, p - 1)
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), coeff), max_size=10))
    # cancel some of them mod p, wherever they fall in the order
    pairs += [(e, p - c) for e, c in pairs if draw(st.booleans())]
    pairs = draw(st.permutations(pairs))
    cuts = sorted({plain_weight(profile, e) + d for e in pool for d in (0, 1)})
    cut = st.sampled_from(cuts)

    def series():
        keys = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
        return TruncatedSeries(profile, {e: draw(coeff) for e in keys},
                               draw(st.one_of(st.none(), cut)))

    lo = draw(cut)
    return profile, pairs, series(), series(), draw(cut), lo, lo + draw(cut) - cuts[0]


@settings(max_examples=150, deadline=None)
@given(case=divide_regime())
def test_closed_operations_are_running_sums(case):
    # every fast path keeps the terms, their dict order and the precision
    # of a running sum over the same monomials
    profile, pairs, f, g, cut, lo, hi = case
    fs, gs = list(f.terms.items()), list(g.terms.items())
    assert listed(TruncatedSeries.from_terms(profile, pairs, cut)) == \
        running_sum(profile, pairs, cut)
    assert listed(TruncatedSeries.from_terms(profile, pairs, None)) == \
        running_sum(profile, pairs, None)
    # the validating constructor's own precision filter keeps the same terms
    given = dict(pairs)
    for prec in (cut, None):
        assert listed(TruncatedSeries(profile, given, prec)) == \
            running_sum(profile, given.items(), prec)
    both = min_precision(f.precision, g.precision)
    assert listed(f + g) == running_sum(profile, fs + gs, both)
    assert listed(f - g) == running_sum(profile, fs + [(e, -c) for e, c in gs], both)

    def val(h):
        return min((plain_weight(profile, e) for e in h.terms), default=h.precision)

    product = min((a + b for a, b in ((f.precision, val(g)), (g.precision, val(f)))
                   if a is not None and b is not None), default=None)
    pairs = [(tuple(a + b for a, b in zip(e1, e2)), c1 * c2) for e1, c1 in fs for e2, c2 in gs]
    assert listed(f * g) == running_sum(profile, pairs, product)
    if f.precision is None or cut <= f.precision:
        assert listed(f.truncate(cut)) == running_sum(profile, fs, cut)
    assert listed(f.window(lo, hi)) == (
        [(e, c) for e, c in fs if lo <= plain_weight(profile, e) < hi], None)
    parts = f.split(1)
    groups = {}
    for e, c in fs:
        groups.setdefault(e[1], []).append((e, c))
    assert [q for q, _ in parts] == sorted(
        groups, key=lambda q: (min(plain_weight(profile, e) for e, _ in groups[q]), q))
    assert all(listed(part) == (groups[q], f.precision) for q, part in parts)


# -- each exponent vector hashed once --------------------------------------------


def test_from_terms_hashes_each_distinct_vector_once(counted):
    Counted, hashes = counted
    vectors = [(Counted(i, 3 ** 27), Counted(-2 * i, 3 ** 27)) for i in range(1, 9)]
    # EXACT, and a precision past every weight: the filter drops nothing
    for prec in (None, Fraction(1)):
        hashes.clear()
        f = TruncatedSeries.from_terms(RES, [(e, 1) for e in vectors], prec)
        assert list(f.terms) == vectors
        assert [hashes[id(x)] for e in vectors for x in e] == [1] * 16


def test_precision_filter_and_sums_hash_no_kept_key_again(counted):
    Counted, hashes = counted

    def vector(i):
        return Counted(i, 3 ** 20), Counted(i, 3 ** 20)

    f = TruncatedSeries(RES, {vector(i): 1 for i in range(1, 9)}, 20)
    f_ids = {id(x) for e in f.terms for x in e}
    cut = RES.weight(vector(6))
    # g repeats two of f's vectors, one of them cancelling, adds two new
    # ones and lowers the precision of a sum to the weight of f's 7th term
    g = TruncatedSeries(RES, {vector(2): 1, vector(4): 2, vector(-1): 1, vector(-2): 1},
                        RES.weight(vector(7)))
    for op in (lambda: f.truncate(cut), lambda: f + g, lambda: f - g):
        hashes.clear()
        h = op()
        kept = [x for e in h.terms for x in e if id(x) in f_ids]
        assert kept and not any(hashes[id(x)] for x in kept)


# -- integer weights against the Fraction reference ------------------------------


@st.composite
def weight_regime(draw):
    """A profile with no weighted slot, one, or several of which one weighs
    0, at p in {3, 5, 7}, generic or not; two series, a cut and a window
    from one pool of vectors with entries i/p^k, k <= 40.  The pool holds
    vectors of equal weight, so cuts, window bounds and leading terms tie
    with term weights."""
    p = draw(st.sampled_from([3, 5, 7]))
    radius = st.builds(Fraction, st.integers(1, 40), st.sampled_from([2, 4, 11, 13]))
    weights = draw(st.sampled_from([
        (1,), (1, 0, 0, 0), (1, draw(radius)), (1, draw(radius), 0, draw(radius))]))
    profile = WeightProfile(p, weights, generic_radius=draw(st.booleans()))
    rational = st.builds(lambda i, k: Fraction(i, p ** k),
                         st.integers(-40, 40), st.integers(0, 40))
    pool = draw(st.lists(st.tuples(*[rational] * profile.dim),
                         min_size=1, max_size=5, unique=True))
    # a partner of equal weight: raise slot i by the denominator d of its
    # weight n/d and lower t by n (a zero-weight slot: raise it by 1)
    for e in list(pool) if profile.dim > 1 else ():
        i = draw(st.integers(1, profile.dim - 1))
        n, d = Fraction(weights[i]).as_integer_ratio()
        partner = list(e)
        partner[0] -= n
        partner[i] += d if n else 1
        if tuple(partner) not in pool:
            pool.append(tuple(partner))
    coeff = st.integers(1, p - 1)
    at = sorted({plain_weight(profile, e) for e in pool})
    bound = st.sampled_from(at)

    def series():
        keys = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
        return TruncatedSeries(profile, {e: draw(coeff) for e in keys},
                               draw(st.one_of(st.none(), bound)))

    return profile, series(), series(), draw(bound), draw(bound), draw(bound)


@settings(max_examples=200, deadline=None)
@given(case=weight_regime())
def test_integer_weights_match_the_fraction_reference(case):
    # window, val_lower, leading, the precision filter, *, + and -: terms,
    # dict order and precision, with every bound on a term's weight
    profile, f, g, cut, lo, hi = case
    fs, gs = list(f.terms.items()), list(g.terms.items())
    for e, _ in fs + gs:
        n, d = profile._weigh(e)
        assert d > 0 and Fraction(n, d) == profile.weight(e) == plain_weight(profile, e)
    assert listed(f.window(lo, hi)) == (
        [(e, c) for e, c in fs if lo <= plain_weight(profile, e) < hi], None)
    assert listed(f.window(lo, lo)) == ([], None)

    want = min((plain_weight(profile, e) for e, _ in fs), default=f.precision)
    got = f.val_lower()
    assert got == want and (not fs or isinstance(got, Fraction))

    ranked = sorted((plain_weight(profile, e), e) for e, _ in fs)
    if not ranked:
        assert f.leading() is None
    elif profile.generic_radius and len(ranked) > 1 and ranked[1][0] == ranked[0][0]:
        with pytest.raises(AmbiguousLeadingError) as caught:
            f.leading()
        assert str(caught.value) == (f"terms {ranked[0][1]} and {ranked[1][1]} "
                                     f"share minimal weight {ranked[0][0]}")
    else:
        w0, e0 = ranked[0]
        assert f.leading() == (w0, e0, f.terms[e0])

    assert listed(TruncatedSeries._trusted(profile, dict(f.terms), cut)) == \
        running_sum(profile, fs, cut)
    both = min_precision(f.precision, g.precision)
    assert listed(f + g) == running_sum(profile, fs + gs, both)
    assert listed(f - g) == running_sum(profile, fs + [(e, -c) for e, c in gs], both)
    product = min((a + b for a, b in (
        (f.precision, min((plain_weight(profile, e) for e, _ in gs), default=g.precision)),
        (g.precision, min((plain_weight(profile, e) for e, _ in fs), default=f.precision)))
        if a is not None and b is not None), default=None)
    pairs = [(tuple(a + b for a, b in zip(e1, e2)), c1 * c2) for e1, c1 in fs for e2, c2 in gs]
    assert listed(f * g) == running_sum(profile, pairs, product)
