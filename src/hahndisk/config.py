"""Instance configuration shared by the CLI and the test suites."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, FormatError
from .fields import GroundField, ResidueField
from .tate import TateRing
from .valgroup import as_fraction, is_in_zp, is_prime

#: Environment variable naming a JSON config file used for defaults.
CONFIG_ENV = "HAHNDISK_CONFIG"

#: Search ceiling for a single Frobenius exponent.  The builder gives up on
#: a stage past it (it never triggers for sane configs), and the verifier
#: rejects a larger recorded exponent before computing any p ** b.
MAX_B_SEARCH = 4000

#: Ceiling for the prime p, checked before the trial-division primality
#: test, whose cost grows with the square root of p (about a thousand
#: divisions at this ceiling).
MAX_P = 10 ** 6


@dataclass(frozen=True)
class InstanceConfig:
    """Parameters fixing one computational instance.

    p odd prime; gamma_x = -log r for the disk radius, outside Z[1/p];
    v_s = -log s in (0, 1); stages = number of committed stages M;
    work_prec > stages + 1 bounds every truncation (default 2*(stages+1));
    seed drives the randomized suites.
    """

    p: int = 3
    gamma_x: Fraction = Fraction(1, 2)
    v_s: Fraction = Fraction(1, 4)
    stages: int = 12
    work_prec: Fraction = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.p, int) or not 2 < self.p <= MAX_P:
            raise ConfigError(f"p must be an odd prime at most {MAX_P}, got {self.p!r}")
        if not is_prime(self.p):
            raise ConfigError(f"p must be an odd prime, got {self.p!r}")
        object.__setattr__(self, "gamma_x", as_fraction(self.gamma_x))
        object.__setattr__(self, "v_s", as_fraction(self.v_s))
        if self.gamma_x <= 0:
            raise ConfigError("gamma_x must be positive")
        if is_in_zp(self.gamma_x, self.p):
            raise ConfigError(
                f"gamma_x = {self.gamma_x} lies in Z[1/{self.p}]: the target "
                "disk point must have generic radius"
            )
        if not 0 < self.v_s < 1:
            raise ConfigError(f"v_s must lie in (0, 1), got {self.v_s}")
        if not isinstance(self.stages, int) or self.stages < 1:
            raise ConfigError(f"stages must be a positive integer, got {self.stages!r}")
        wp = self.work_prec
        if wp is None:
            wp = Fraction(2 * (self.stages + 1))
        object.__setattr__(self, "work_prec", as_fraction(wp))
        if self.work_prec <= self.stages + 1:
            raise ConfigError(
                f"work_prec = {self.work_prec} must exceed stages + 1 = "
                f"{self.stages + 1}"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")

    # -- derived objects ----------------------------------------------------

    def ground(self) -> GroundField:
        return GroundField(self.p)

    def residue(self) -> ResidueField:
        return ResidueField(self.ground(), self.gamma_x)

    def tate(self, nvars: int = 3) -> TateRing:
        return TateRing(self.ground(), nvars)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "gamma_x": str(self.gamma_x),
            "v_s": str(self.v_s),
            "stages": self.stages,
            "work_prec": str(self.work_prec),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InstanceConfig":
        if not isinstance(data, dict):
            raise FormatError("config must be a JSON object")
        known = {"p", "gamma_x", "v_s", "stages", "work_prec", "seed"}
        unknown = set(data) - known
        if unknown:
            raise FormatError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for key in known & set(data):
            value = data[key]
            if key in ("gamma_x", "v_s", "work_prec"):
                value = as_fraction(value)
            kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "InstanceConfig":
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FormatError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
