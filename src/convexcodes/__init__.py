"""Convexity of combinatorial neural codes with up to four maximal codewords.

The package decides convexity, emits replayable certificates (local
obstructions, sprockets, completeness and nerve-class theorems), and for
the covered constructive families builds exact rational realizations that
are verified by recomputing their generated code.
"""

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
    SimplicialComplex,
    classify_small_complex,
    has_local_obstruction,
    is_contractible_small,
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
    is_partial_wheel,
    is_sprocket,
)
from .realize import (
    Interval,
    Polygon,
    Realization,
    build_realization,
    code_of_realization,
    realization_from_json,
    render_svg,
    verify_realization,
)
from .atlas import AtlasRow, atlas_rows, enumerate_facet_antichains, write_atlas_csv

__version__ = "0.1.0"

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
    "SimplicialComplex",
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
    "is_contractible_small",
    "is_link_contractible",
    "is_max_intersection_complete",
    "is_partial_wheel",
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
