import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hahndisk.builder import build_adapted
from hahndisk.errors import (
    ConfigError,
    ExponentError,
    IndeterminateFromPrecisionError,
    UnresolvedError,
)
from hahndisk.fields import GroundField, ResidueField
from hahndisk.series import TruncatedSeries
from hahndisk.tate import (
    SubstitutionMap,
    TateRing,
    disk_seminorm,
    is_integral,
    type_ii_lower_bound,
)

from test_division import reference_apply


@pytest.fixture(scope="module")
def ring1(ground):
    return TateRing(ground, 1)


def rand_tate(rng, ring, max_terms=8, nonzero=True):
    """Random element with nonnegative variable exponents."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            t_exp = Fraction(rng.randint(-10, 10), 3 ** rng.randint(0, 2))
            x_exps = tuple(
                Fraction(rng.randint(0, 9), 3 ** rng.randint(0, 2))
                for _ in range(ring.nvars)
            )
            terms[(t_exp,) + x_exps] = rng.randint(1, 2)
        prec = None if rng.random() < 0.5 else Fraction(rng.randint(6, 15))
        f = TruncatedSeries(ring.profile, terms, prec)
        if f.terms or not nonzero:
            return f


class TestRingConstraints:
    def test_negative_variable_exponent_rejected(self, ring1):
        with pytest.raises(ExponentError):
            ring1.monomial(1, 0, (Fraction(-1),))

    def test_integrality(self, ring1):
        assert is_integral(ring1.monomial(1, 0, (Fraction(1, 3),)))
        assert not is_integral(ring1.monomial(1, Fraction(-1, 3), (1,)))
        assert not is_integral(ring1.zero(precision=Fraction(-1)))


class TestDiskSeminorm:
    def test_single_variable(self, ring1):
        f = ring1.var(1)
        assert disk_seminorm(f, (Fraction(1, 2),)) == Fraction(1, 2)

    def test_two_term_comparison(self, ring1):
        f = ring1.monomial(1, 1, (1,)) + ring1.monomial(1, 0, (2,))
        assert disk_seminorm(f, (Fraction(1, 2),)) == 1

    def test_constant_has_gauss_value_zero(self, ring1):
        assert disk_seminorm(ring1.one(), (Fraction(7, 9),)) == 0

    def test_indeterminate_when_floor_hides_minimum(self, ring1):
        # candidate value 2 + 1*2 = 4 is not below the precision floor 3
        f = ring1.monomial(1, 2, (1,), precision=3)
        with pytest.raises(IndeterminateFromPrecisionError):
            disk_seminorm(f, (Fraction(2),))
        with pytest.raises(IndeterminateFromPrecisionError):
            disk_seminorm(ring1.zero(precision=3), (Fraction(2),))

    def test_multiplicative_and_ultrametric(self, ring1):
        rng = random.Random(6)
        for _ in range(200):
            f = rand_tate(rng, ring1)
            g = rand_tate(rng, ring1)
            rho = (Fraction(rng.randint(0, 6), rng.randint(1, 6)),)
            try:
                sf = disk_seminorm(f, rho)
                sg = disk_seminorm(g, rho)
                sfg = disk_seminorm(f * g, rho)
                ssum = disk_seminorm(f + g, rho)
            except IndeterminateFromPrecisionError:
                continue
            assert sfg == sf + sg
            assert ssum >= min(sf, sg)


class TestTypeIILowerBound:
    def test_plain_variable(self, ring1):
        f = ring1.var(1)
        assert type_ii_lower_bound(f, 1) == 1
        assert disk_seminorm(f, (Fraction(1),)) == 1

    def test_chooses_smaller_term(self, ring1):
        f = ring1.monomial(1, 1, (0,)) + ring1.var(1)
        assert type_ii_lower_bound(f, 2) == 1

    def test_fractional_exponent(self, ring1):
        f = ring1.monomial(1, 0, (Fraction(1, 3),)) + ring1.var(1)
        assert type_ii_lower_bound(f, 1) == Fraction(1, 3)

    def test_rejects_generic_radius(self, ring1):
        with pytest.raises(ConfigError):
            type_ii_lower_bound(ring1.var(1), Fraction(1, 2))

    def test_unresolved(self, ring1):
        with pytest.raises(UnresolvedError):
            type_ii_lower_bound(ring1.zero(precision=2), 1)


class TestSubstitution:
    def test_first_generator(self, plan, residue, ring3):
        sub = plan.substitution
        assert sub.apply(ring3.var(1)) == residue.x_power(1)

    def test_product_relation_hits_constant(self, plan, residue, ring3):
        sub = plan.substitution
        got = sub.apply(ring3.var(1) * ring3.var(2))
        assert got == residue.monomial(1, plan.v_c, 0)

    def test_fractional_power_via_root(self, plan, residue, ring3):
        sub = plan.substitution
        f = ring3.monomial(1, 0, (Fraction(1, 3), 0, 0))
        assert sub.apply(f) == residue.x_power(Fraction(1, 3))

    def test_homomorphism_to_precision(self, plan, ring3):
        rng = random.Random(9)
        sub = plan.substitution
        wp = plan.config.work_prec
        for _ in range(40):
            f = rand_tate(rng, ring3, max_terms=4)
            g = rand_tate(rng, ring3, max_terms=4)
            lhs = sub.apply(f * g, wp)
            rhs = sub.apply(f, wp) * sub.apply(g, wp)
            diff = lhs - rhs
            assert not diff.terms

    def test_integral_maps_to_nonnegative_valuation(self, plan, ring3):
        rng = random.Random(10)
        sub = plan.substitution
        for _ in range(60):
            f = rand_tate(rng, ring3, max_terms=4)
            if not is_integral(f):
                continue
            val = sub.apply(f, plan.config.work_prec).val_lower()
            assert val is None or val >= 0

    def test_rejects_unbounded_images(self, residue, ring3):
        bad = residue.monomial(1, -1, 0)
        with pytest.raises(ConfigError):
            SubstitutionMap(ring3, residue, (bad, bad, bad))

    def test_file_round_trip(self, plan, residue, tmp_path):
        from hahndisk.tate import save_substitution

        sub = plan.substitution
        paths = save_substitution(sub, tmp_path / "images")
        assert [p.name for p in paths] == ["image_1.txt", "image_2.txt", "image_3.txt"]
        assert tuple(residue.parse(p.read_text()) for p in paths) == sub.images


# (p, gamma_x) of the residue fields in conftest.INSTANCES
_FIELDS = {3: Fraction(1, 2), 5: Fraction(1, 3), 7: Fraction(1, 2)}


def _root_and_power(image, k, u, work_prec):
    """x^q with q = u/p^k by the Frobenius root and repeated squaring from
    one(), each result re-wrapped through the validating constructor."""
    profile = image.profile
    scale = Fraction(profile.p) ** -k
    prec = None if image.precision is None else image.precision * scale
    base = TruncatedSeries(
        profile, {tuple(e * scale for e in exps): c for exps, c in image.terms.items()},
        prec)
    out = TruncatedSeries.one(profile)
    while u:
        if u & 1:
            out = out * base
        base2 = base * base if u > 1 else base
        base, u = base2, u >> 1
    if work_prec is not None and out.precision is not None and out.precision > work_prec:
        out = TruncatedSeries(profile, out.terms, work_prec)
    return out


@st.composite
def single_term_powers(draw):
    p = draw(st.sampled_from(sorted(_FIELDS)))
    field = ResidueField(GroundField(p), _FIELDS[p])
    x_exp = Fraction(draw(st.integers(-9, 9)), p ** draw(st.integers(0, 2)))
    t_exp = Fraction(draw(st.integers(-9, 9)), p ** draw(st.integers(0, 2)))
    weight = t_exp + x_exp * field.gamma_x
    if weight < 0:
        t_exp += -(weight // 1)  # integral shift into valuation >= 0
        weight = t_exp + x_exp * field.gamma_x
    prec = draw(st.one_of(st.none(), st.builds(
        lambda n, j: weight + Fraction(n, p ** j), st.integers(1, 20), st.integers(0, 2))))
    image = field.monomial(draw(st.integers(1, p - 1)), t_exp, x_exp, precision=prec)
    q = Fraction(draw(st.integers(1, 40)), p ** draw(st.integers(0, 3)))
    work_prec = draw(st.one_of(st.none(), st.builds(
        Fraction, st.integers(0, 60), st.sampled_from([1, p, p * p]))))
    return field, image, q, work_prec


@settings(max_examples=150, deadline=None)
@given(case=single_term_powers())
def test_image_power_closed_form_matches_root_and_power(case):
    """`_image_power` has one route, the Frobenius root of the image and an
    integer power; on single-term images, whose powers have a closed form,
    it matches the root and repeated squaring rebuilt through the
    validating constructor, precision and work_prec cap included."""
    field, image, q, work_prec = case
    sub = SubstitutionMap(TateRing(field.ground, 1), field, (image,))
    p = field.ground.p
    k = 0
    while (q * p ** k).denominator != 1:
        k += 1
    want = _root_and_power(image, k, int(q * p ** k), work_prec)
    assert sub._image_power(0, q, work_prec) == want


def _pruned_case():
    """x1 -> x, x2 -> an empty image O(2), x3 -> x + t + O(3).  The term
    x1 x2^(2/9) x3 sets the result's precision to 13/9 (x2^(2/9) is O(4/9)),
    so t^10 x1^3 falls past it, and t x1 x2 meets the empty image."""
    field = ResidueField(GroundField(3), _FIELDS[3])
    ring = TateRing(field.ground, 3)
    images = (
        field.x_power(1),
        field.zero(precision=2),
        TruncatedSeries(field.profile, {(0, 1): 1, (1, 0): 1}, 3),
    )
    f = TruncatedSeries(ring.profile, {
        (0, 1, 0, Fraction(1, 3)): 1,
        (10, 3, 0, 0): 2,
        (1, 1, 1, 0): 1,
        (0, 1, Fraction(2, 9), 1): 2,
    })
    return field, ring, images, f, None


@st.composite
def substitution_cases(draw):
    """A three-variable map whose third image, like alpha, has several terms
    at finite precision; the other two are exact or finite, one or several
    terms, or empty at finite precision.  The first term of f has two or
    three nonzero variable exponents."""
    p = draw(st.sampled_from(sorted(_FIELDS)))
    field = ResidueField(GroundField(p), _FIELDS[p])
    ring = TateRing(field.ground, 3)

    def rat(lo, hi, k):
        return Fraction(draw(st.integers(lo, hi)), p ** draw(st.integers(0, k)))

    def image(kind):
        if kind == "empty":
            return field.zero(precision=rat(0, 6, 1))
        terms = {}
        for _ in range(1 if kind.endswith("monomial") else draw(st.integers(2, 3))):
            t_exp, x_exp = rat(0, 6, 1), rat(-3, 3, 1)
            weight = t_exp + x_exp * field.gamma_x
            if weight < 0:
                t_exp += -(weight // 1)  # integral shift into valuation >= 0
            terms[(t_exp, x_exp)] = draw(st.integers(1, p - 1))
        top = max(t + x * field.gamma_x for t, x in terms)
        prec = None if kind.startswith("exact") else top + rat(1, 6, 1)
        return TruncatedSeries(field.profile, terms, prec)

    kinds = st.sampled_from(
        ["exact monomial", "exact sum", "finite monomial", "finite sum", "empty"])
    images = (image(draw(kinds)), image(draw(kinds)), image("finite sum"))
    terms = {}
    for j in range(draw(st.integers(1, 4))):
        used = draw(st.lists(st.integers(0, 2), min_size=2 if j == 0 else 0,
                             max_size=3, unique=True))
        qs = [Fraction(0)] * 3
        for i in used:
            qs[i] = rat(1, 3, 2)
        terms[(rat(-2, 12, 1), *qs)] = draw(st.integers(1, p - 1))
    f = TruncatedSeries(ring.profile, terms, draw(st.one_of(
        st.none(), st.integers(0, 15).map(Fraction))))
    work_prec = draw(st.one_of(st.none(), st.builds(
        Fraction, st.integers(0, 20), st.sampled_from([1, p]))))
    return field, ring, images, f, work_prec


@settings(max_examples=150, deadline=None)
@given(case=substitution_cases())
@example(case=_pruned_case())
def test_apply_matches_reference_route(case):
    field, ring, images, f, work_prec = case
    sub = SubstitutionMap(ring, field, images)
    got = sub.apply(f, work_prec)
    want = reference_apply(sub, f, work_prec)
    assert got.precision == want.precision
    assert got.terms == want.terms


def test_apply_hashes_no_x_part_twice(counted, cfg, plan):
    # apply walks each term's exponents in place and hashes only the keys
    # of the image products, so no x-exponent of a stage preimage is hashed
    # twice, let alone looked up
    Counted, hashes = counted
    sub = plan.substitution
    for m in range(1, len(plan.stages) + 1):
        preimage = build_adapted(plan, m).preimage
        watched = TruncatedSeries(preimage.profile, {
            tuple(map(Counted, e)): c for e, c in preimage.terms.items()}, preimage.precision)
        hashes.clear()
        got = sub.apply(watched, cfg.work_prec)
        assert all(hashes[id(x)] <= 1 for e in watched.terms for x in e[1:])
        assert got == sub.apply(preimage, cfg.work_prec)


@st.composite
def monomial_route_cases(draw):
    """A map whose x1 and x2 images are exact single terms with random
    coefficients, like the plan's x and c x^-1, and whose x3 image has two
    terms; and a monomial t^a x1^q1 x2^q2 with a t-shift a of either sign."""
    p = draw(st.sampled_from(sorted(_FIELDS)))
    field = ResidueField(GroundField(p), _FIELDS[p])
    ring = TateRing(field.ground, 3)

    def rat(lo, hi, k):
        return Fraction(draw(st.integers(lo, hi)), p ** draw(st.integers(0, k)))

    def single_term():
        t_exp, x_exp = rat(0, 6, 1), rat(-3, 3, 1)
        weight = t_exp + x_exp * field.gamma_x
        if weight < 0:
            t_exp += -(weight // 1)  # integral shift into valuation >= 0
        return field.monomial(draw(st.integers(1, p - 1)), t_exp, x_exp)

    images = (single_term(), single_term(), field.x_power(1) + field.monomial(1, 1, 0))
    qs = [rat(0, 12, 3), rat(0, 12, 3)]
    return field, ring, images, (rat(-12, 12, 2), *qs, Fraction(0))


@settings(max_examples=150, deadline=None)
@given(case=monomial_route_cases())
def test_monomial_route_matches_apply_and_reference(case):
    field, ring, images, exps = case
    sub = SubstitutionMap(ring, field, images)
    key, coeff = sub.monomial_image(exps)
    want = field.monomial(coeff, *key)
    f = ring.monomial(1, exps[0], exps[1:])
    assert sub.apply(f) == want
    assert reference_apply(sub, f, None) == want
    # the multi-term image of x3 has no closed form
    with pytest.raises(ConfigError, match="image of x3 has 2 terms"):
        sub.monomial_image((*exps[:3], Fraction(1, field.ground.p)))
