"""Exact invariants, volumes and defect classification of lattice polytopes.

Everything is exact: arbitrary precision integers for lattice data,
`fractions.Fraction` at the rational edges. No floating point anywhere.
"""

from .classifier import (
    ClassificationReport,
    JoinDecomposition,
    classify,
    decompose_join,
    is_defect_polytope,
)
from .constructions import (
    check_strongly_isomorphic,
    cube,
    eulerian,
    hypersimplex,
    product,
    projective_join,
    simplex,
)
from .equivalence import find_unimodular_map, unimodular_equivalent
from .errors import (
    DomainError,
    InternalConsistencyError,
    NotSimpleError,
    PolyinvError,
)
from .invariants import (
    InvariantReport,
    c,
    c_star,
    c_t,
    dual_degree,
    f_polynomial,
    f_value,
    mult,
    report,
)
from .linalg import (
    AffineNormalization,
    affine_normalize,
    hermite_normal_form,
    lattice_index,
    primitive,
)
from .polytope import Face, Polytope
from .volumes import lattice_points, normalized_volume, volume

__version__ = "0.1.0"

__all__ = [
    "AffineNormalization",
    "ClassificationReport",
    "DomainError",
    "Face",
    "InternalConsistencyError",
    "InvariantReport",
    "JoinDecomposition",
    "NotSimpleError",
    "Polytope",
    "PolyinvError",
    "affine_normalize",
    "c",
    "c_star",
    "c_t",
    "check_strongly_isomorphic",
    "classify",
    "cube",
    "decompose_join",
    "dual_degree",
    "eulerian",
    "f_polynomial",
    "f_value",
    "find_unimodular_map",
    "hermite_normal_form",
    "hypersimplex",
    "is_defect_polytope",
    "lattice_index",
    "lattice_points",
    "mult",
    "normalized_volume",
    "primitive",
    "product",
    "projective_join",
    "report",
    "simplex",
    "unimodular_equivalent",
    "volume",
]
