"""Unimodular equivalence testing between lattice polytopes.

Two integral polytopes are equivalent when an affine map with integer
linear part of determinant +-1 and integer translation carries the
vertex set of one onto the other; every invariant in this package is
constant on equivalence classes.

`paired_unimodular_map` is the one place where such a map is solved and
verified: given where each point goes, it solves the map from a frame at
the first point through `linalg.solve` (the package's one fraction-free
elimination), requires it to be integral with |det| = 1, and checks
every pair. The classifier calls it with the vertex correspondence its
join decomposition predicts.

`find_unimodular_map` searches when no correspondence is known. It works
on the normalized full-dimensional models. After quick invariant filters
(dimension, vertex count, f-vector, normalized volume, degree multiset)
it anchors an affine frame at a vertex of the first polytope, built from
edge neighbors, and tries the finitely many frame images in the second
polytope consistent with vertex degrees; `paired_unimodular_map` solves
each candidate, which is then verified on the whole vertex set. Desk
scale only.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from . import linalg as la
from . import volumes as vol
from .polytope import Polytope

Map = tuple[list[list[int]], tuple[int, ...]]


def paired_unimodular_map(
    src: Sequence[Sequence[int]], dst: Sequence[Sequence[int]]
) -> Optional[Map]:
    """A pair (M, t), M integral with det +-1, such that M src[i] + t =
    dst[i] for every i, or None if there is none.

    The points of `src` must affinely span their space. M is solved from
    a frame at src[0], differences src[i] - src[0] of full rank that the
    elimination pivots on, and then checked on every pair.
    """
    p0, q0 = src[0], dst[0]
    X = la.solve(
        [la.vec_sub(p, p0) for p in src[1:]], [la.vec_sub(q, q0) for q in dst[1:]],
        len(p0),
    )
    if X is None:
        return None
    M = la.transpose(X)
    if not la.is_unimodular(M):
        return None
    t = la.vec_sub(q0, la.mat_vec(M, p0))
    for p, q in zip(src, dst):
        if la.vec_add(la.mat_vec(M, p), t) != tuple(q):
            return None
    return M, t


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
            found = paired_unimodular_map(
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
