import math
from collections import Counter
from fractions import Fraction

import pytest

import hahndisk.config
from hahndisk import InstanceConfig
from hahndisk.builder import build_adapted, build_plan, extend
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
    return cfg.tate()


@pytest.fixture(scope="session")
def plan(cfg):
    """Shared plan; a plan is a value, so extending it leaves it unchanged."""
    return build_plan(cfg)


@pytest.fixture(scope="session")
def extended_plans():
    """Plans for every instance of INSTANCES at 12 and 24 stages, each
    extended by three guarded stages off the enumeration."""
    plans = []
    for p, gamma_x, v_s in INSTANCES:
        for stages in (12, 24):
            plan = build_plan(InstanceConfig(p=p, gamma_x=gamma_x, v_s=v_s, stages=stages))
            for q in (Fraction(5, p ** 3), Fraction(-101, p ** 2), Fraction(97)):
                plan = extend(plan, q)
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


def step_corrections(trace):
    """Each step's correction, the sum over its quotients (q, d) of
    d * preimage_q, with the preimages of the builder's certificates on the
    trace's plan; the approximant is their sum.  A trace records only the
    quotients, so tests that need the approximant expand it here."""
    plan, ring = trace.plan, trace.plan.ring
    preimages = {}
    out = []
    for step in trace.steps:
        e = ring.zero()
        for q, d in step.quotients:
            if q not in preimages:
                preimages[q] = build_adapted(plan, plan.stage_index.get(q).m).preimage
            # d is free of x, so it lifts to R_3 term by term
            lift = TruncatedSeries(ring.profile, {(exps[0], 0, 0, 0): c
                                                  for exps, c in d.terms.items()}, d.precision)
            e = e + lift * preimages[q]
        out.append(e)
    return out


@pytest.fixture
def counted():
    """(Counted, hashes): a Fraction subclass whose instances count, in
    hashes[id(x)], every hash taken of them; exponent tuples made of them
    show which vectors an operation hashes, and how often."""
    hashes = Counter()

    class Counted(Fraction):
        def __hash__(self):
            hashes[id(self)] += 1
            return super().__hash__()

    return Counted, hashes
