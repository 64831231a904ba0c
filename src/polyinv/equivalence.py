"""Unimodular equivalence testing between lattice polytopes.

Two integral polytopes are equivalent when an affine map with integer
linear part of determinant +-1 and integer translation carries the
vertex set of one onto the other; every invariant in this package is
constant on equivalence classes.

The test works on the normalized full-dimensional models. After quick
invariant filters (dimension, vertex count, f-vector, normalized volume,
degree multiset) it anchors an affine frame at a vertex of the first
polytope, built from edge neighbors, and tries the finitely many frame
images in the second polytope consistent with vertex degrees and with
|det| preservation; each candidate determines the affine map, which is
then verified on the whole vertex set. Desk scale only.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from . import linalg as la
from . import volumes as vol
from .errors import InternalConsistencyError
from .polytope import Polytope


def _adjugate(M: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(M)
    if n == 0:
        return []
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [M[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            out[j][i] = (-1) ** (i + j) * la.det(minor)
    return out


def _frame(P: Polytope, v: int) -> Optional[list[int]]:
    """Ids of dim(P) neighbors of v spanning the model space."""
    nbrs = P.edge_graph()[v]
    chosen: list[int] = []
    rows: list[list[int]] = []
    for w in nbrs:
        cand = rows + [list(la.vec_sub(P._nverts[w], P._nverts[v]))]
        if la.rank(cand) == len(cand):
            rows = cand
            chosen.append(w)
            if len(chosen) == P.dim:
                return chosen
    return None


def _signature(P: Polytope):
    return (
        P.dim,
        len(P.vertices),
        P.f_vector,
        vol.normalized_volume(P),
        tuple(sorted(len(nb) for nb in P.edge_graph().values())),
    )


def find_unimodular_map(
    P: Polytope, Q: Polytope
) -> Optional[tuple[list[list[int]], tuple[int, ...]]]:
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
        raise InternalConsistencyError("edge directions at a vertex do not span")
    pa = P._nverts[a0]
    DA = [list(la.vec_sub(P._nverts[w], pa)) for w in frame]
    DA_cols = la.transpose(DA)
    detA = la.det(DA_cols)
    adjA = _adjugate(DA_cols)
    degA = [len(P.edge_graph()[w]) for w in frame]
    deg0 = len(P.edge_graph()[a0])

    qverts = set(Q._nverts)
    gq = Q.edge_graph()

    for b0 in range(len(Q.vertices)):
        if len(gq[b0]) != deg0:
            continue
        qb = Q._nverts[b0]
        nbrs = gq[b0]
        for image in itertools.permutations(nbrs, r):
            if any(len(gq[w]) != d for w, d in zip(image, degA)):
                continue
            DB = [list(la.vec_sub(Q._nverts[w], qb)) for w in image]
            DB_cols = la.transpose(DB)
            if abs(la.det(DB_cols)) != abs(detA):
                continue
            # M = DB_cols . DA_cols^-1 = DB_cols . adjA / detA, must be integral
            num = la.mat_mul(DB_cols, adjA)
            M = []
            ok = True
            for row in num:
                out_row = []
                for x in row:
                    if x % detA:
                        ok = False
                        break
                    out_row.append(x // detA)
                if not ok:
                    break
                M.append(out_row)
            if not ok:
                continue
            # verify the full vertex set
            t = la.vec_sub(qb, la.mat_vec(M, pa))
            good = True
            for v in P._nverts:
                if la.vec_add(la.mat_vec(M, v), t) not in qverts:
                    good = False
                    break
            if good:
                return M, t
    return None


def unimodular_equivalent(P: Polytope, Q: Polytope) -> bool:
    return find_unimodular_map(P, Q) is not None
