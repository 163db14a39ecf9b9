"""The convexity decision procedure and the aggregate report.

decide() runs a fixed pipeline whose every exit is justified by a
replayable certificate: the local-obstruction scan (sound for NONCONVEX,
run first and unconditionally), max-intersection completeness, the
3-maximal theorem, the nerve-class theorems for 4-maximal codes with the
canonical sprocket on minimal L24 codes that are not complete, and for
five or more facets component decomposition and the bounded sprocket
search.  Its budget is one per call: each entry point builds the call's
CodeStructure around a one-item box holding it, and the components share
that box.  UNKNOWN is a terminal honest answer for the open cases, never a
timeout disguise: certificates list what was established.  When no
sprocket is found, analyze() reports the budget it was given, not the
budget the search spent.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import List, NamedTuple, Optional, Tuple

from .codes import EMPTY, NeuralCode, Codeword, _mask_key, format_word, sort_words
from .topology import INDETERMINATE, CodeStructure, _path_of_facets
from .wheels import (
    DEFAULT_BUDGET,
    SprocketCandidate,
    _check_budget,
    _find_sprocket,
    _l24_sprocket,
)

# not called here: kept importable because the benchmark tracer patches these names
from .topology import classify_small_complex, has_local_obstruction, mandatory_faces, minimal_code, nerve
# not called here: kept importable because the benchmark tracer patches these names
from .wheels import canonical_l24_sprocket, find_sprocket


class Verdict(Enum):
    CONVEX = "CONVEX"
    NONCONVEX = "NONCONVEX"
    UNKNOWN = "UNKNOWN"


# certificate kinds
KIND_MAX_INTERSECTION_COMPLETE = "MaxIntersectionComplete"
KIND_LOCAL_OBSTRUCTION = "LocalObstruction"
KIND_SPROCKET = "Sprocket"
KIND_THEOREM_NO_LOCAL_OBSTRUCTION = "TheoremNoLocalObstruction"
KIND_L24_MINIMAL_POF_SPROCKET = "L24MinimalPoFSprocket"
KIND_DISCONNECTED_DECOMPOSITION = "DisconnectedDecomposition"
KIND_INDETERMINATE_CONTRACTIBILITY = "IndeterminateContractibility"


class Certificate(NamedTuple):
    kind: str
    face: Optional[Codeword] = None
    candidate: Optional[SprocketCandidate] = None
    class_id: Optional[str] = None
    components: Optional[tuple] = None  # ((sorted neuron tuple, status), ...)
    faces: Optional[tuple] = None  # undecided faces

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.face is not None:
            out["face"] = sorted(self.face)
        if self.candidate is not None:
            out["candidate"] = self.candidate.to_json()
        if self.class_id is not None:
            out["class"] = self.class_id
        if self.components is not None:
            out["components"] = [
                {"neurons": list(neurons), "status": status}
                for neurons, status in self.components
            ]
        if self.faces is not None:
            out["faces"] = [sorted(f) for f in self.faces]
        return out

    def text(self) -> str:
        k = self.kind
        if k == KIND_MAX_INTERSECTION_COMPLETE:
            return f"{k}: every nonempty facet intersection is a codeword"
        if k == KIND_LOCAL_OBSTRUCTION:
            return f"{k}: mandatory face {format_word(self.face, braced=True)} is not a codeword"
        if k in (KIND_SPROCKET, KIND_L24_MINIMAL_POF_SPROCKET):
            return f"{k}: {self.candidate.text()}"
        if k == KIND_THEOREM_NO_LOCAL_OBSTRUCTION:
            return f"{k}: {self.class_id}"
        if k == KIND_DISCONNECTED_DECOMPOSITION:
            parts = "; ".join(
                "{" + ",".join(str(i) for i in neurons) + "} -> " + status
                for neurons, status in self.components
            )
            return f"{k}: {parts}"
        if k == KIND_INDETERMINATE_CONTRACTIBILITY:
            faces = ", ".join(format_word(f, braced=True) for f in self.faces)
            return f"{k}: contractibility unresolved for {faces}"
        return k


def _theorem_cert(class_id: str) -> Certificate:
    return Certificate(KIND_THEOREM_NO_LOCAL_OBSTRUCTION, class_id=class_id)


def decide(code: NeuralCode, budget: int = DEFAULT_BUDGET) -> Tuple[Verdict, List[Certificate]]:
    """Decide convexity; every verdict other than UNKNOWN carries a proof.

    The pipeline order matters: the local-obstruction scan runs first so no
    later convexity theorem can be applied to an obstructed code, and
    max-intersection completeness second so later branches may assume the
    code is not complete.  budget bounds the sprocket steps of the whole
    call, every nerve component included.  Raises ValueError on a negative
    budget.
    """
    _check_budget(budget)
    return _decide(CodeStructure(code, [budget]))


def _decide(s: CodeStructure) -> Tuple[Verdict, List[Certificate]]:
    """decide on a code's structure; every sprocket search spends from s.box.

    Each public entry point builds one structure per call around a box
    holding its budget, and the nerve components share that box, so they
    share the budget.

    A minimal L24 code that reaches the L24 branch satisfies Path-of-Facets
    on its triangle F1, F2, F3, so it goes straight to the canonical
    sprocket.  Only F4 and one triangle facet hold a face Fi & F4, and only
    Fi and Fj hold Fi & Fj unless it is the triple intersection tau; such
    a link is two disjoint sets, so those faces are mandatory.  The link of
    tau is the nerve of the three sets Fi - tau, which is a path exactly
    when one of the differences Path-of-Facets reads is empty.  So a
    triangle failing Path-of-Facets makes every max-intersection face
    mandatory: the minimal code is complete and has already returned.  The
    census of all 512 L24 families with one neuron per cell in
    tests/test_decider.py pins this.
    """
    obs = s.obstruction
    if obs is INDETERMINATE:
        faces = tuple(map(s.packed.word, s.undecided))
        return (Verdict.UNKNOWN, [Certificate(KIND_INDETERMINATE_CONTRACTIBILITY, faces=faces)])
    if obs is not None:
        return (Verdict.NONCONVEX, [Certificate(KIND_LOCAL_OBSTRUCTION, face=obs)])

    if not s.missing:
        return (Verdict.CONVEX, [Certificate(KIND_MAX_INTERSECTION_COMPLETE)])

    m = len(s.facet_masks)
    if m <= 3:
        return (Verdict.CONVEX, [_theorem_cert("<=3-maximal")])

    if m == 4:
        class_id = s.classified.class_id
        if 9 <= int(class_id[1:]) <= 23:
            return (Verdict.CONVEX, [_theorem_cert(class_id)])
        if class_id == "L24" and s.is_minimal:
            cand = _l24_sprocket(s)
            if cand is None:
                raise AssertionError(
                    "canonical sprocket construction failed on a minimal L24 "
                    "code satisfying Path-of-Facets; pipeline is broken"
                )
            return (
                Verdict.NONCONVEX,
                [Certificate(KIND_L24_MINIMAL_POF_SPROCKET, candidate=cand)],
            )
    elif len(s.components) > 1:  # m >= 5 from here on
        statuses = []
        payload = []
        for sub in s.components:
            verdict, _ = _decide(sub)
            statuses.append(verdict)
            payload.append((sub.packed.labels, verdict.value))
        cert = Certificate(KIND_DISCONNECTED_DECOMPOSITION, components=tuple(payload))
        if all(v is Verdict.CONVEX for v in statuses):
            return (Verdict.CONVEX, [cert])
        if any(v is Verdict.NONCONVEX for v in statuses):
            return (Verdict.NONCONVEX, [cert])
        return (Verdict.UNKNOWN, [cert])
    cand = _find_sprocket(s)
    if cand is not None:
        return (Verdict.NONCONVEX, [Certificate(KIND_SPROCKET, candidate=cand)])
    return (Verdict.UNKNOWN, [])


class Report(NamedTuple):
    """Everything analyze() can say about one code, JSON-ready."""

    neurons: int
    codewords: tuple
    facets: tuple
    nerve_class: Optional[str]
    nerve_relabeling: Optional[tuple]
    mandatory_faces: tuple
    minimal_code: Optional[tuple]
    missing_max_intersections: tuple
    path_of_facets: tuple
    sprocket: Optional[dict]
    verdict: Verdict
    certificates: Tuple[Certificate, ...]
    realization: Optional[dict]

    def to_json(self) -> dict:
        return {
            "neurons": self.neurons,
            "codewords": [sorted(w) for w in self.codewords],
            "facets": [sorted(w) for w in self.facets],
            "nerve_class": self.nerve_class,
            "nerve_relabeling": list(self.nerve_relabeling)
            if self.nerve_relabeling is not None
            else None,
            "mandatory_faces": [sorted(w) for w in self.mandatory_faces],
            "minimal_code": [sorted(w) for w in self.minimal_code]
            if self.minimal_code is not None
            else None,
            "missing_max_intersections": [
                sorted(w) for w in self.missing_max_intersections
            ],
            "path_of_facets": list(self.path_of_facets),
            "sprocket": self.sprocket,
            "verdict": self.verdict.value,
            "certificates": [c.to_json() for c in self.certificates],
            "realization": self.realization,
        }


def analyze(code: NeuralCode, budget: int = DEFAULT_BUDGET) -> Report:
    """Aggregate view: structure, verdict, certificates, realization.

    The realization field is filled only when the verdict is CONVEX and the
    code falls in a constructive family; the builders verify it against the
    code before it is reported.
    Raises ValueError on a negative budget.
    """
    _check_budget(budget)
    s = CodeStructure(code, [budget])
    facets, cls = s.facets, s.classified
    m = len(facets)
    mandatory = tuple(map(s.packed.word, sorted(s.mandatory, key=_mask_key)))

    pof_rows = []
    masks = s.facet_masks
    for positions in itertools.combinations(range(1, m + 1), 3):
        path = _path_of_facets(*[masks[p - 1] for p in positions])
        pof_rows.append(
            {
                "facets": list(positions),
                "witness": None if path is None else [positions[i] for i in path],
            }
        )

    verdict, certs = _decide(s)

    sprocket_json = None
    for cert in certs:
        if cert.candidate is not None:
            sprocket_json = cert.candidate.to_json()
    if verdict is Verdict.UNKNOWN and not certs:
        sprocket_json = {"found": False, "budget": budget}

    realization_json = None
    if verdict is Verdict.CONVEX:
        from .realize import builders

        built = builders._build(s)
        if built is not None:
            realization, tag = built
            realization_json = {**realization.to_json(), "construction": tag}

    return Report(
        neurons=code.n,
        codewords=tuple(sort_words(code.codewords)),
        facets=tuple(facets),
        nerve_class=cls.class_id if cls else None,
        nerve_relabeling=tuple(ref for _pos, ref in cls.relabeling) if cls else None,
        mandatory_faces=mandatory,
        minimal_code=None if s.undecided else (EMPTY, *mandatory),
        missing_max_intersections=tuple(map(s.packed.word, s.missing)),
        path_of_facets=tuple(pof_rows),
        sprocket=sprocket_json,
        verdict=verdict,
        certificates=tuple(certs),
        realization=realization_json,
    )
