import math
from fractions import Fraction

import pytest

import hahndisk.config
from hahndisk import InstanceConfig
from hahndisk.builder import build_plan, ensure_stage
from hahndisk.series import TruncatedSeries

#: (p, gamma_x, v_s) of the benchmark's four instances.
INSTANCES = [
    (3, Fraction(1, 2), Fraction(1, 4)),
    (5, Fraction(1, 3), Fraction(1, 2)),
    (7, Fraction(1, 2), Fraction(1, 8)),
    (3, Fraction(1, 2), Fraction(1, 100)),
]


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


@pytest.fixture(scope="session")
def extended_plans():
    """Read-only plans for every instance of INSTANCES at 12 and 24 stages,
    each extended by three guarded stages off the enumeration."""
    plans = []
    for p, gamma_x, v_s in INSTANCES:
        for stages in (12, 24):
            plan = build_plan(InstanceConfig(p=p, gamma_x=gamma_x, v_s=v_s, stages=stages))
            for q in (Fraction(5, p ** 3), Fraction(-101, p ** 2), Fraction(97)):
                ensure_stage(plan, q)
            assert len(plan.stages) == stages + 3
            plans.append(plan)
    return plans


@pytest.fixture
def primality_capped(monkeypatch):
    """Make config.is_prime fail the test when asked about a p above MAX_P."""
    real_is_prime = hahndisk.config.is_prime

    def capped_is_prime(n):
        assert n <= hahndisk.config.MAX_P, f"primality test run on {n}"
        return real_is_prime(n)

    monkeypatch.setattr(hahndisk.config, "is_prime", capped_is_prime)


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
