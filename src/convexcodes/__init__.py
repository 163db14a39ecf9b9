"""Convexity of combinatorial neural codes with up to four maximal codewords.

The package decides convexity, emits replayable certificates (local
obstructions, sprockets, completeness and nerve-class theorems), and for
the covered constructive families builds exact rational realizations that
are verified by recomputing their generated code.
"""

from importlib import import_module

from .codes import (
    CodeParseError,
    NeuralCode,
    canonicalize,
    format_code,
    format_word,
    is_max_intersection_complete,
    max_intersection_faces,
    maximal_codewords,
    parse_code,
    relabel,
    trunk,
)
from .decider import Certificate, Report, Verdict, analyze, decide
from .topology import (
    INDETERMINATE,
    classify_small_complex,
    has_local_obstruction,
    is_link_contractible,
    mandatory_faces,
    minimal_code,
    nerve,
    path_of_facets,
)
from .wheels import (
    DEFAULT_BUDGET,
    SprocketCandidate,
    canonical_l24_sprocket,
    find_sprocket,
    is_sprocket,
)

__version__ = "0.1.0"

# Names that load their submodule on first access (PEP 562).  decide never
# needs realize (fractions, decimal, the geometry) or atlas (csv), so a bare
# import of the package does not pay for them.
_LAZY = {
    **dict.fromkeys((
        "realize",
        "Interval",
        "Polygon",
        "Realization",
        "build_realization",
        "code_of_realization",
        "realization_from_json",
        "render_svg",
        "verify_realization",
    ), "realize"),
    **dict.fromkeys(
        ("atlas", "AtlasRow", "atlas_rows", "enumerate_facet_antichains", "write_atlas_csv"),
        "atlas",
    ),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "AtlasRow",
    "Certificate",
    "CodeParseError",
    "DEFAULT_BUDGET",
    "INDETERMINATE",
    "Interval",
    "NeuralCode",
    "Polygon",
    "Realization",
    "Report",
    "SprocketCandidate",
    "Verdict",
    "analyze",
    "atlas_rows",
    "build_realization",
    "canonical_l24_sprocket",
    "canonicalize",
    "classify_small_complex",
    "code_of_realization",
    "decide",
    "enumerate_facet_antichains",
    "find_sprocket",
    "format_code",
    "format_word",
    "has_local_obstruction",
    "is_link_contractible",
    "is_max_intersection_complete",
    "is_sprocket",
    "mandatory_faces",
    "max_intersection_faces",
    "maximal_codewords",
    "minimal_code",
    "nerve",
    "parse_code",
    "path_of_facets",
    "realization_from_json",
    "relabel",
    "render_svg",
    "trunk",
    "verify_realization",
    "write_atlas_csv",
]
