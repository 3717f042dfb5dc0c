"""Exact truncated Hahn-type series over F_p with certified constructions.

The package provides: exact arithmetic on sparse truncated series with
exponents in Z[1/p] (`series`), the ground field and the residue field of a
generic-radius disk point (`fields`), the truncated perfectoid Tate algebra
with disk seminorms and substitution maps (`tate`), a staged construction
of a surjection onto the residue field with exact adaptedness certificates
(`builder`), a certified successive-approximation division algorithm
(`division`), and an independent transcript verifier (`verify`).
"""

from .config import InstanceConfig
from .errors import HahndiskError
from .fields import GroundField, PointType, ResidueField, choose_c, classify_disk_point
from .series import TruncatedSeries, WeightProfile, parse_series, render_series
from .tate import (
    SubstitutionMap,
    TateRing,
    disk_seminorm,
    is_integral,
    save_substitution,
    type_ii_lower_bound,
)
from .valgroup import EXACT, is_in_zp, omega, smallest_zp_point

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "GroundField",
    "HahndiskError",
    "InstanceConfig",
    "PointType",
    "ResidueField",
    "SubstitutionMap",
    "TateRing",
    "TruncatedSeries",
    "WeightProfile",
    "choose_c",
    "classify_disk_point",
    "disk_seminorm",
    "is_in_zp",
    "is_integral",
    "omega",
    "parse_series",
    "render_series",
    "save_substitution",
    "smallest_zp_point",
    "type_ii_lower_bound",
    "__version__",
]
