"""Exact rational realizations: geometry, verification, and builders."""

from .builders import build_realization
from .geometry import (
    Interval,
    Polygon,
    Realization,
    VerifyDiff,
    code_of_realization,
    format_rational,
    realization_from_json,
    validate,
    verify_realization,
)
from .svg import render_svg

__all__ = [
    "Interval",
    "Polygon",
    "Realization",
    "VerifyDiff",
    "build_realization",
    "code_of_realization",
    "format_rational",
    "realization_from_json",
    "render_svg",
    "validate",
    "verify_realization",
]
