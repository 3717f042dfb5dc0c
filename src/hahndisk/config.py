"""Instance configuration shared by the CLI and the test suites, and the
readers the CLI opens its input files with."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path

from .errors import ConfigError, FormatError
from .fields import GroundField, ResidueField
from .tate import TateRing
from .valgroup import as_fraction, is_in_zp, is_prime, too_many_digits

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
    work_prec > stages + 1 bounds every truncation (default 2*(stages+1)).
    These are the instance record of a plan, key for key.
    """

    p: int = 3
    gamma_x: Fraction = Fraction(1, 2)
    v_s: Fraction = Fraction(1, 4)
    stages: int = 12
    work_prec: Fraction = None

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
        # type(...) is int: JSON true is a bool, and a bool is an int
        if type(self.stages) is not int or self.stages < 1:
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

    # -- derived objects ----------------------------------------------------

    def ground(self) -> GroundField:
        return GroundField(self.p)

    @cache
    def residue(self) -> ResidueField:
        return ResidueField(self.ground(), self.gamma_x)

    @cache
    def tate(self) -> TateRing:
        """R_3, the ring the construction maps from."""
        return TateRing(self.ground(), 3)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "gamma_x": str(self.gamma_x),
            "v_s": str(self.v_s),
            "stages": self.stages,
            "work_prec": str(self.work_prec),
        }

    @classmethod
    def from_dict(cls, data: dict, **overrides) -> "InstanceConfig":
        """The config of a JSON object, each of `overrides` replacing its key."""
        if not isinstance(data, dict):
            raise FormatError("config must be a JSON object")
        data = {**data, **overrides}
        known = {"p", "gamma_x", "v_s", "stages", "work_prec"}
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


def read_text(path, name: str) -> str:
    """The text of the file at `path`, called `name` in errors: a ConfigError
    if it cannot be read, a FormatError if it is not UTF-8."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{name} is not UTF-8 text: {exc}") from exc


def read_json(path, name: str):
    """The JSON value in the file at `path`, called `name` in errors; text
    json cannot read, even nested past the recursion limit, is a FormatError."""
    text = read_text(path, name)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{name} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # a JSON integer past the digit limit
        raise too_many_digits(f"an integer in {name}") from exc
    except RecursionError as exc:
        raise FormatError(f"{name} nests too deeply to read") from exc
