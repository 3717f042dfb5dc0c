import math
from fractions import Fraction

import pytest

from hahndisk import InstanceConfig
from hahndisk.builder import build_plan
from hahndisk.series import TruncatedSeries


@pytest.fixture(scope="session")
def cfg():
    return InstanceConfig()


@pytest.fixture(scope="session")
def ground(cfg):
    return cfg.ground()


@pytest.fixture(scope="session")
def residue(cfg):
    return cfg.residue()


@pytest.fixture(scope="session")
def ring3(cfg):
    return cfg.tate(3)


@pytest.fixture(scope="session")
def plan(cfg):
    """Shared read-only plan; tests that extend the plan must use plan_fresh."""
    return build_plan(cfg)


@pytest.fixture
def plan_fresh(cfg):
    return build_plan(cfg)


def rand_normalized_target(rng, field, v_s, max_terms=8):
    """Random exact residue element with every term weight >= v_s."""
    p = field.ground.p
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        q = Fraction(rng.randint(-8, 8), p ** rng.randint(0, 2))
        t_exp = Fraction(rng.randint(-18, 18), p ** rng.randint(0, 2))
        w = t_exp + q * field.gamma_x
        shift = max(0, math.ceil(v_s - w))
        terms[(t_exp + shift, q)] = rng.randint(1, p - 1)
    return TruncatedSeries(field.profile, terms, None)
