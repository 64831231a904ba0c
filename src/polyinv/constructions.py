"""Generators for the polytope families used throughout the package.

Standard simplices, cubes with prescribed edge length, hypersimplices,
cartesian products, projective joins of strongly isomorphic summands,
and Eulerian numbers (descent convention). Every generator builds its
vertex list and hands it to `Polytope.from_vertices`, and fails with
`InternalConsistencyError` if the hull drops a point that the family
says is a vertex.

The projective join of m-dimensional polytopes P_0 .. P_k places summand
i at the vertex e_i of a unimodular k-simplex in k extra coordinates
(e_0 = 0) and takes the convex hull; the result has dimension m + k.
Summands must be strongly isomorphic: equal normal fans in the shared
Hermite model of their (parallel) affine spans. Parallel spans have one
saturated direction lattice, whose row Hermite form is unique, so every
summand's facet normals already live in the same coordinates and are
compared as they are. That is stronger than sharing a combinatorial
type: it matches the summands' vertices one to one by their normal
cones.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations, product as iproduct

from .errors import DomainError
from .polytope import Polytope


# ---------------------------------------------------------------------------
# basic families


def _generated(family: str, verts: list, name: str | None) -> Polytope:
    """`from_vertices` on a generated vertex list whose every point must
    come out as a vertex."""
    P = Polytope.from_vertices(verts, name=name)
    if P.n_vertices != len(verts):
        raise P._broken(
            f"{family} construction dropped a point expected to be a vertex"
        )
    return P


def _simplex_vertices(r: int) -> list[tuple[int, ...]]:
    """0, e_1, ..., e_r in Z^r: the vertices of the standard r-simplex,
    the heights at which `projective_join` places its summands, and so the
    images the classifier predicts for a join's fibers."""
    return [tuple(int(j == i - 1) for j in range(r)) for i in range(r + 1)]


def simplex(r: int) -> Polytope:
    """The standard r-simplex conv{0, e_1, ..., e_r}; a point for r = 0."""
    if r < 0:
        raise DomainError("simplex dimension must be nonnegative")
    return _generated("simplex", _simplex_vertices(r), f"simplex({r})")


def cube(m: int, n: int) -> Polytope:
    """The cube [0, n]^m."""
    if m < 1 or n < 1:
        raise DomainError("cube needs dimension >= 1 and edge length >= 1")
    verts = [tuple(n * c for c in corner) for corner in iproduct((0, 1), repeat=m)]
    return _generated("cube", verts, f"cube({m},{n})")


def hypersimplex(k: int, n: int) -> Polytope:
    """Convex hull of all 0/1 vectors in Z^n with coordinate sum k."""
    if not 1 <= k <= n - 1:
        raise DomainError("hypersimplex needs 1 <= k <= n-1")
    verts = [
        tuple(1 if i in chosen else 0 for i in range(n))
        for chosen in combinations(range(n), k)
    ]
    return _generated("hypersimplex", verts, f"hypersimplex({k},{n})")


def product(P: Polytope, Q: Polytope, name: str | None = None) -> Polytope:
    """Cartesian product in the concatenated ambient space."""
    verts = [v + w for v in P.vertices for w in Q.vertices]
    return _generated("product", verts, name)


# ---------------------------------------------------------------------------
# Eulerian numbers


@lru_cache(maxsize=None)
def eulerian(n: int, j: int) -> int:
    """Number of permutations of {1..n} with exactly j descents."""
    if n < 1:
        raise DomainError("eulerian numbers need n >= 1")
    if j < 0 or j > n - 1:
        return 0
    if n == 1:
        return 1
    return (j + 1) * eulerian(n - 1, j) + (n - j) * eulerian(n - 1, j - 1)


# ---------------------------------------------------------------------------
# projective joins


def check_strongly_isomorphic(summands: Sequence[Polytope]) -> None:
    """Raise DomainError unless the summands are strongly isomorphic.

    The summands must share ambient and intrinsic dimension, and their
    affine spans must be parallel. The row Hermite form of a lattice is
    unique, so parallel spans have one `_norm.basis` and one model map.
    Their facet normals can therefore be compared as they are. Then the
    normal fans, each the set of per-vertex facet masks read off
    `Polytope._fan`, must agree; facets are sorted by normal, so equal
    normals give one bit order.
    """
    if not summands:
        raise DomainError("a join needs at least one summand")
    P0 = summands[0]
    if any(P.ambient_dim != P0.ambient_dim or P.dim != P0.dim for P in summands):
        raise DomainError(
            "summands not strongly isomorphic: ambient or intrinsic dimensions differ"
        )
    if any(P._norm.basis != P0._norm.basis for P in summands):
        raise DomainError("summands not strongly isomorphic: affine spans differ")
    normals = [[a for a, _ in P._nfacets] for P in summands]
    if any(ns != normals[0] for ns in normals):
        raise DomainError("summands not strongly isomorphic: facet normals differ")
    fans = [set(P._fan()) for P in summands]
    if any(fan != fans[0] for fan in fans):
        raise DomainError("summands not strongly isomorphic: normal fans differ")


def projective_join(
    summands: Sequence[Polytope], name: str | None = None
) -> Polytope:
    """The projective join of the summands: each P_i embedded at height
    e_i of a unimodular simplex in k extra coordinates, then the hull.
    The summands are compared in their shared Hermite model first
    (`check_strongly_isomorphic`)."""
    summands = tuple(summands)
    check_strongly_isomorphic(summands)
    k = len(summands) - 1
    verts = [
        v + e_i for P, e_i in zip(summands, _simplex_vertices(k)) for v in P.vertices
    ]
    out = _generated("projective join", verts, name)
    if out.dim != summands[0].dim + k:
        raise out._broken("projective join has wrong dimension")
    return out
