import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hahndisk.errors import ConfigError, FormatError
from hahndisk.valgroup import (
    as_fraction,
    is_in_zp,
    is_prime,
    omega,
    omega_prefix,
    smallest_zp_point,
    stage_point,
)

F = Fraction


class TestIsInZp:
    def test_examples(self):
        assert is_in_zp(Fraction(1, 2), 3) is False
        assert is_in_zp(Fraction(5, 9), 3) is True
        assert is_in_zp(7, 3) is True

    def test_multiplicative_closure(self):
        rng = random.Random(11)
        for _ in range(300):
            q1 = Fraction(rng.randint(-50, 50), 3 ** rng.randint(0, 4))
            q2 = Fraction(rng.randint(-50, 50), 3 ** rng.randint(0, 4))
            assert is_in_zp(q1, 3) and is_in_zp(q2, 3)
            assert is_in_zp(q1 + q2, 3)
            k = rng.randint(-4, 4)
            assert is_in_zp(q1 * Fraction(3) ** k, 3)


@given(
    a=st.integers(-10**6, 10**6),
    b=st.integers(1, 10**6),
    c=st.integers(-10**6, 10**6),
    d=st.integers(1, 10**6),
)
def test_fraction_field_laws_against_cross_multiplication(a, b, c, d):
    # Fractions must agree with integer cross-multiplication identities.
    x, y = Fraction(a, b), Fraction(c, d)
    s = x + y
    assert s.numerator * (b * d) == (a * d + c * b) * s.denominator
    m = x * y
    assert m.numerator * (b * d) == (a * c) * m.denominator
    if c != 0:
        q = x / y
        assert q.numerator * (b * c) == (a * d) * q.denominator


class TestOmega:
    def test_first_value_is_zero(self):
        assert omega(1, 3) == 0

    def test_known_prefix(self):
        want = [0, 1, -1, 2, -2, 3, -3,
                Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3), Fraction(-2, 3), 4]
        assert omega_prefix(12, 3) == want

    def test_injective_on_long_prefix(self):
        values = omega_prefix(10**4, 3)
        assert len(set(values)) == len(values)

    def test_covers_bounded_box(self):
        values = set(omega_prefix(10**4, 3))
        for a in range(-10, 11):
            for b in range(4):
                assert Fraction(a, 3 ** b) in values

    def test_values_are_padic(self):
        for q in omega_prefix(500, 3):
            assert is_in_zp(q, 3)

    def test_index_validation(self):
        with pytest.raises(ConfigError):
            omega(0, 3)

    def test_cached_index_reads_the_list(self, monkeypatch):
        # once the enumeration covers m, omega(m) neither re-tests p for
        # primality nor copies a prefix
        want = omega_prefix(40, 5)
        monkeypatch.setattr("hahndisk.valgroup.is_prime", lambda n: pytest.fail("re-tested"))
        monkeypatch.setattr("hahndisk.valgroup.omega_prefix", lambda n, p: pytest.fail("copied"))
        assert [omega(m, 5) for m in range(1, 41)] == want


class TestSmallestZpPoint:
    def test_choose_c_interval(self):
        assert smallest_zp_point(Fraction(1, 2), Fraction(3, 4), 3) == Fraction(2, 3)

    def test_stage_one_interval(self):
        assert smallest_zp_point(Fraction(0), Fraction(1, 4), 3) == Fraction(1, 9)

    def test_degenerate_interval(self):
        lo = Fraction(1, 2)
        hi = lo + Fraction(1, 3**6)
        got = smallest_zp_point(lo, hi, 3)
        assert lo < got < hi

    @staticmethod
    def exhaustive(lo, hi, p):
        """The first point of (lo, hi) over denominators 1, p, p^2, ...,
        smallest numerator first."""
        den = 1
        while True:
            for num in range(int(lo * den) - 2, int(hi * den) + 3):
                if lo < Fraction(num, den) < hi:
                    return Fraction(num, den)
            den *= p

    def test_matches_exhaustive_search(self):
        for p in (3, 5, 7, 11):
            rng = random.Random(5 + p)
            cases = [(F(0), F(1)), (F(-1), F(0)), (F(-1), F(1)), (F(1, p), F(2, p)),
                     (F(-2, p), F(-1, p)), (F(-1, p ** 2), F(1, p ** 2))]
            for _ in range(100):
                lo = F(rng.randint(-40, 40), rng.randint(1, 12))
                cases.append((lo, lo + F(rng.randint(1, 9), rng.randint(1, 40))))
            for _ in range(40):
                # endpoints that are Z[1/p] points themselves
                lo = F(rng.randint(-40, 40), p ** rng.randint(0, 3))
                cases.append((lo, lo + F(rng.randint(1, 9), p ** rng.randint(0, 3))))
                # wholly negative, and containing 0
                hi = -F(rng.randint(0, 40), rng.randint(1, 12))
                cases.append((hi - F(rng.randint(1, 9), rng.randint(1, 40)), hi))
                cases.append((-F(rng.randint(1, 9), rng.randint(1, 40)),
                              F(rng.randint(1, 9), rng.randint(1, 40))))
            for j in range(2, 13):
                # narrow windows, where the search for k bisects
                lo = F(rng.randint(-40, 40), rng.randint(1, 12))
                cases.append((lo, lo + F(1, p ** j)))
            for lo, hi in cases:
                got = smallest_zp_point(lo, hi, p)
                assert got == self.exhaustive(lo, hi, p), (lo, hi, p)
                assert lo < got < hi

    def test_narrow_window_takes_few_powers(self):
        # a plan document may give v_s = 1/77...7, 4000 digits, and its
        # windows need denominators near 3^8384: stepping through every k
        # takes seconds a window, so the search doubles and bisects k
        v_s, q, gamma_x = F(1, int("7" * 4000)), F(5, 9), F(1, 2)
        start = time.monotonic()
        (en, ed), _ = stage_point(q, gamma_x, v_s, 3)
        assert time.monotonic() - start < 1
        lo, den = -q * gamma_x, ed // 3
        assert lo < F(en, ed) < lo + v_s and ed > 3 ** 8000
        assert not lo < F(lo.numerator * den // lo.denominator + 1, den) < lo + v_s

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigError):
            smallest_zp_point(Fraction(1), Fraction(1), 3)

    def test_stage_point_on_every_instance(self, extended_plans):
        # the integer canonical point and weight of every base and appended
        # stage of the four instances, p = 5 and p = 7 included
        for plan in extended_plans:
            p, gamma_x, v_s = plan.config.p, plan.config.gamma_x, plan.config.v_s
            for st in plan.stages:
                lo = -st.omega * gamma_x
                (en, ed), (wn, wd) = stage_point(st.omega, gamma_x, v_s, p)
                v_e = Fraction(en, ed)
                assert (en, ed) == (v_e.numerator, v_e.denominator)  # reduced
                assert v_e == smallest_zp_point(lo, lo + v_s, p) == st.v_e
                assert wd > 0 and Fraction(wn, wd) == v_e - lo


class TestAsFraction:
    def test_accepts_the_one_text_form(self):
        for text, want in [("0", 0), ("-7", -7), ("2/3", Fraction(2, 3)),
                           ("-1/3", Fraction(-1, 3)), ("12/4", 3)]:
            assert as_fraction(text) == want

    def test_non_canonical_spellings_read_as_fraction_does(self):
        # the two digit runs are converted apart; the value is the same
        for text in ["6/4", "-0", "007", "0/5", "-12/4", "-007/0021", "10/100"]:
            assert as_fraction(text) == Fraction(text), text

    @given(n=st.integers(-10 ** 30, 10 ** 30), d=st.integers(1, 10 ** 30),
           pad=st.integers(0, 3))
    def test_text_reads_as_fraction_does(self, n, d, pad):
        sign, digits = ("-", str(-n)) if n < 0 else ("", str(n))
        for text in (f"{n}/{d}", f"{sign}{'0' * pad}{digits}/{'0' * pad}{d}", str(n)):
            got = as_fraction(text)
            assert type(got) is Fraction and got == Fraction(text), text

    def test_rejects_every_other_spelling(self):
        # small exponents only: e-notation would build 10^k first
        for bad in ["1e3", "1E3", "0.5", ".5", "1_000", "+2/3", " 1/2", "1/2 ",
                    "1/2\n", "٣", "1/-2", "1//2", "1/0", "", "-", "/3", "inf", "nan"]:
            with pytest.raises(FormatError):
                as_fraction(bad)

    def test_over_long_numeral_is_format_error(self):
        big = "1" + "0" * 5000
        for bad in [big, "-" + big, "1/" + big, big + "/3"]:
            with pytest.raises(FormatError):
                as_fraction(bad)

    def test_rejects_non_rational_json_values(self):
        for bad in [True, 0.5, None, [1], {"num": 1}]:
            with pytest.raises(FormatError):
                as_fraction(bad)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
