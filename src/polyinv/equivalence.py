"""Unimodular equivalence testing between lattice polytopes.

Two integral polytopes are equivalent when an affine map with integer
linear part of determinant +-1 and integer translation carries the
vertex set of one onto the other; every invariant in this package is
constant on equivalence classes.

`find_unimodular_map` searches when no correspondence is known. It works
on the normalized full-dimensional models. After quick invariant filters
(dimension, vertex count, f-vector, normalized volume, degree multiset)
it anchors an affine frame at a vertex of the first polytope, built from
edge neighbors, and tries the finitely many frame images in the second
polytope consistent with vertex degrees; `linalg.paired_unimodular_map`
solves each candidate, which is then verified on the whole vertex set.
Desk scale only.
"""

from __future__ import annotations

import itertools
from typing import Optional

from . import linalg as la
from . import volumes as vol
from .polytope import Polytope

Map = tuple[list[list[int]], tuple[int, ...]]


def _frame(P: Polytope, v: int) -> Optional[list[int]]:
    """Ids of dim(P) neighbors of v spanning the model space."""
    nbrs = P.edge_graph()[v]
    diffs = [la.vec_sub(P._nverts[w], P._nverts[v]) for w in nbrs]
    chosen = [nbrs[i] for i in la.independent_rows(diffs, P.dim)]
    return chosen if len(chosen) == P.dim else None


def _signature(P: Polytope):
    return (
        P.dim,
        len(P.vertices),
        P.f_vector,
        vol.normalized_volume(P),
        tuple(sorted(len(nb) for nb in P.edge_graph().values())),
    )


def find_unimodular_map(P: Polytope, Q: Polytope) -> Optional[Map]:
    """A pair (M, t) with x -> M x + t carrying P's model vertex set onto
    Q's, or None. The map acts on the normalized models."""
    if _signature(P) != _signature(Q):
        return None
    r = P.dim
    if r == 0:
        return [], ()

    a0 = 0  # P's model vertices are in a fixed order; anchor at the first
    frame = _frame(P, a0)
    if frame is None:
        raise P._broken("edge directions at a vertex do not span", 1 << a0)
    src = [P._nverts[a0]] + [P._nverts[w] for w in frame]
    degA = [len(P.edge_graph()[w]) for w in frame]
    deg0 = len(P.edge_graph()[a0])

    qverts = set(Q._nverts)
    gq = Q.edge_graph()
    for b0 in range(len(Q.vertices)):
        if len(gq[b0]) != deg0:
            continue
        for image in itertools.permutations(gq[b0], r):
            if any(len(gq[w]) != d for w, d in zip(image, degA)):
                continue
            found = la.paired_unimodular_map(
                src, [Q._nverts[b0]] + [Q._nverts[w] for w in image]
            )
            if found is None:
                continue
            M, t = found
            if all(la.vec_add(la.mat_vec(M, v), t) in qverts for v in P._nverts):
                return found
    return None


def unimodular_equivalent(P: Polytope, Q: Polytope) -> bool:
    return find_unimodular_map(P, Q) is not None
