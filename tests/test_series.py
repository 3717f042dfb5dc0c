"""Engine laws: ring operations, precision contracts, text round-trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hahndisk.errors import (
    AmbiguousLeadingError,
    ExponentError,
    InsufficientPrecisionError,
    NotAUnitError,
    PrecisionIncreaseError,
    ProfileMismatchError,
)
from hahndisk.series import (
    TruncatedSeries,
    WeightProfile,
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


@settings(max_examples=60, deadline=None)
@given(f=small_series(), g=small_series(), h=small_series())
def test_ring_laws_to_precision(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) + h == f + (g + h)


@settings(max_examples=60, deadline=None)
@given(f=small_series(), g=small_series())
def test_closed_operations_match_validating_constructor(f, g):
    for got in (f * g, f + g, -f):
        assert TruncatedSeries(got.profile, dict(got.terms), got.precision) == got


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
