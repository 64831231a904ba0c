"""Exact invariants, volumes and defect classification of lattice polytopes.

Everything is exact: arbitrary precision integers for lattice data,
`fractions.Fraction` at the rational edges. No floating point anywhere.

Public names load lazily (PEP 562): the first access to one imports its
home module, so `python -m polyinv <command>` loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# each public name and its home module, in `__all__` order
_HOMES = {
    "AffineNormalization": "linalg",
    "ClassificationReport": "classifier",
    "DomainError": "errors",
    "Face": "polytope",
    "InternalConsistencyError": "errors",
    "InvariantReport": "invariants",
    "JoinDecomposition": "classifier",
    "NotSimpleError": "errors",
    "Polytope": "polytope",
    "PolyinvError": "errors",
    "affine_normalize": "linalg",
    "c": "invariants",
    "c_star": "invariants",
    "c_t": "invariants",
    "check_strongly_isomorphic": "constructions",
    "classify": "classifier",
    "cube": "constructions",
    "decompose_join": "classifier",
    "dual_degree": "invariants",
    "eulerian": "constructions",
    "f_polynomial": "invariants",
    "f_value": "invariants",
    "find_unimodular_map": "equivalence",
    "hermite_normal_form": "linalg",
    "hypersimplex": "constructions",
    "is_defect_polytope": "classifier",
    "lattice_index": "linalg",
    "lattice_points": "volumes",
    "mult": "invariants",
    "normalized_volume": "volumes",
    "primitive": "linalg",
    "product": "constructions",
    "projective_join": "constructions",
    "report": "invariants",
    "simplex": "constructions",
    "unimodular_equivalent": "equivalence",
    "volume": "volumes",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
