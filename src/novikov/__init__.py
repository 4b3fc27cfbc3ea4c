"""Exact truncation-aware series calculus and identity-verification engine.

Submodules: series (scalar arithmetic), useries (u-extension), graded
(class-valued vectors, signed table products and linear maps), ode (the
equation chain and mirror identities), quantum (product relations and the
rank-3 derivation), bv (graded algebra checks with connections), operad
(disc gluing and signed composition), cli (batch verification front end).
"""

from .errors import (
    GlueError,
    InconsistentSeed,
    InsufficientPrecision,
    LatticeMismatch,
    NoSolution,
    NovikovError,
    ParseError,
    PrerequisiteFailed,
    ResonantExponent,
    ZConflict,
)
from .series import INF, NovikovSeries
from .useries import USeries

__version__ = "0.1.0"

__all__ = [
    "INF",
    "NovikovSeries",
    "USeries",
    "NovikovError",
    "InsufficientPrecision",
    "ResonantExponent",
    "LatticeMismatch",
    "InconsistentSeed",
    "NoSolution",
    "PrerequisiteFailed",
    "ZConflict",
    "GlueError",
    "ParseError",
    "__version__",
]
