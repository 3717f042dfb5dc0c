import random
from fractions import Fraction

import pytest

from hahndisk.errors import ConfigError
from hahndisk.fields import (
    GroundField,
    PointType,
    ResidueField,
    choose_c,
    classify_disk_point,
)
from hahndisk.series import random_series
from hahndisk.valgroup import is_in_zp



class TestGroundField:
    def test_rejects_non_odd_prime(self):
        for bad in (2, 4, 9, 1):
            with pytest.raises(ConfigError):
                GroundField(bad)

    def test_value_group_membership(self, ground):
        assert ground.contains_value(Fraction(2, 3)) is True
        assert ground.contains_value(Fraction(1, 2)) is False
        assert ground.contains_value(Fraction(1, 2)) == is_in_zp(Fraction(1, 2), 3)

    def test_valuations_live_in_group(self, ground):
        rng = random.Random(2)
        for _ in range(200):
            f = random_series(rng, ground.profile)
            assert ground.contains_value(f.val_lower())

    def test_division_round_trip(self, ground):
        rng = random.Random(8)
        for _ in range(100):
            f = random_series(rng, ground.profile, max_terms=5, max_k=1, max_num=9)
            g = random_series(rng, ground.profile, max_terms=5, max_k=1, max_num=9)
            target = g.val_lower() + 2
            if g.precision is not None and g.precision - 2 * g.val_lower() < target:
                continue
            q = f * g.invert(target)
            r = q * g - f
            assert r.is_zero


class TestResidueField:
    def test_gamma_constraints(self, ground):
        with pytest.raises(ConfigError):
            ResidueField(ground, Fraction(1, 3))   # inside Z[1/3]
        with pytest.raises(ConfigError):
            ResidueField(ground, Fraction(-1, 2))

    def test_embed_preserves_valuation(self, ground, residue):
        assert residue.embed_ground(ground.zero()).is_zero
        t = ground.uniformizer_power(1)
        assert residue.embed_ground(t).val_lower() == 1

    def test_embedded_times_x_power(self, ground, residue):
        f = residue.embed_ground(ground.one() + ground.uniformizer_power(1))
        g = f * residue.x_power(Fraction(1, 3))
        assert g.val_lower() == Fraction(1, 6)

    def test_x_valuation_outside_ground_group(self, residue):
        v = residue.x_power(1).val_lower()
        assert v == residue.gamma_x
        assert not residue.ground.contains_value(v)

    def test_norm_multiplicative(self, residue):
        rng = random.Random(31)
        for _ in range(200):
            f = random_series(rng, residue.profile)
            g = random_series(rng, residue.profile)
            assert (f * g).val_lower() == f.val_lower() + g.val_lower()

    def test_collision_characterization(self, residue):
        # a + q*gamma_x = a' + q'*gamma_x forces (q - q')*gamma_x into
        # Z[1/p]; whenever that product stays outside, weights differ.
        rng = random.Random(12)
        gamma = residue.gamma_x
        p = residue.ground.p
        for _ in range(500):
            a = Fraction(rng.randint(-20, 20), p ** rng.randint(0, 2))
            a2 = Fraction(rng.randint(-20, 20), p ** rng.randint(0, 2))
            q = Fraction(rng.randint(-20, 20), p ** rng.randint(0, 2))
            q2 = Fraction(rng.randint(-20, 20), p ** rng.randint(0, 2))
            if (a, q) == (a2, q2):
                continue
            equal = a + q * gamma == a2 + q2 * gamma
            if equal:
                assert q != q2 and is_in_zp((q - q2) * gamma, p)
            elif q != q2 and not is_in_zp((q - q2) * gamma, p):
                assert a + q * gamma != a2 + q2 * gamma


class TestChooseC:
    def test_standard_instance(self, residue):
        assert choose_c(residue, Fraction(1, 4)) == Fraction(2, 3)

    def test_certificate_inequalities(self, residue):
        v_c = choose_c(residue, Fraction(1, 4))
        assert 0 < v_c - residue.gamma_x < Fraction(1, 4)

    def test_degenerate_window(self, residue):
        v_s = Fraction(1, 3**6)
        v_c = choose_c(residue, v_s)
        assert 0 < v_c - residue.gamma_x < v_s

    def test_rejects_nonpositive_window(self, residue):
        with pytest.raises(ConfigError):
            choose_c(residue, 0)


class TestClassifyDiskPoint:
    def test_value_group_radius(self):
        assert classify_disk_point(3, [Fraction(1)]) is PointType.TYPE_II

    def test_generic_radius(self):
        assert classify_disk_point(3, [Fraction(1, 2)]) is PointType.TYPE_III

    def test_point_sentinel(self):
        assert classify_disk_point(3, [None]) is PointType.TYPE_I

    def test_vector_rules(self):
        assert classify_disk_point(3, [Fraction(1), Fraction(2, 3)]) is PointType.TYPE_II
        assert classify_disk_point(3, [Fraction(1), Fraction(1, 2)]) is PointType.TYPE_III
        assert classify_disk_point(3, [None, None]) is PointType.TYPE_I

    def test_rejects_negative_radius(self):
        with pytest.raises(ConfigError):
            classify_disk_point(3, [Fraction(-1)])
