"""Defect polytopes: detection, certified join decompositions, verdicts.

A Delzant polytope is a defect polytope when its invariant c vanishes;
equivalently the dual variety of the associated embedded toric manifold
drops dimension. Every defect polytope of dimension r >= 2 is either a
unimodular r-simplex (dual defect r) or a projective join of k+1
strongly isomorphic Delzant fibers of dimension r - k, with
max(2, ceil((r+1)/2)) <= k <= r - 1 and dual defect d = 2k - r.

`decompose_join` searches for that structure directly, one search for
every k from r down. The unimodular r-simplex is the case k = r, whose
fibers are its vertices. In a join over the k-simplex, the facet pulled
back from the i-th facet of the simplex contains every vertex of P but
those of fiber i (Dickenstein, Di Rocco & Piene 2009). So the candidates
are the facets whose vertex complement is an (r-k)-face, and a subset of
k+1 of them is tried only when its complements are disjoint and cover
every vertex (an exact cover). The projection read off the last k facets
of the subset must map the vertices of P onto those of the standard
unimodular k-simplex. That images test decides, and it implies the rest
of the join's linear algebra: the rows then map Z^r onto Z^k, so they
have rank k and span a saturated lattice, and the first facet of the
subset is tight exactly where the coordinates sum to 1, so its primitive
normal is minus the sum of theirs. The vertex fibers must then be
(r-k)-dimensional, Delzant and strongly isomorphic in their shared
Hermite model; a fiber is Delzant by its facet normals at each vertex
and builds no face lattice. Fibers with the same model points (the
k+1 equal fibers of a product with a simplex) are built and tested once
and are then one shared, immutable `Polytope`. The decomposition
predicts where each vertex of P lands in the projective join of the
fibers (its fiber coordinates followed by its simplex vertex); those
images are the join's vertices by construction, so the join is not
rebuilt. The unimodular map fixed by that correspondence is solved and
checked on every vertex (`linalg.paired_unimodular_map`), and its
last k rows must be the reported projection. This check, not the
search, is the correctness anchor. Ties are broken by one rule for
every k: maximal k first, then the lexicographically smallest facet
subset in facet order.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Optional

from . import linalg as la
from .constructions import _simplex_vertices, check_strongly_isomorphic
from .errors import DomainError
from .invariants import c, c_star, dual_degree
from .linalg import paired_unimodular_map
from .polytope import Polytope


def is_defect_polytope(P: Polytope) -> bool:
    """True iff P is Delzant and c(P) = 0."""
    return P.is_delzant() and c(P) == 0


def _k_min(r: int) -> int:
    return max(2, (r + 2) // 2)  # ceil((r+1)/2)


class JoinDecomposition(namedtuple(
    "JoinDecomposition", "k defect projection_matrix projection_shift fibers",
)):
    """A certified projective-join structure of a defect polytope; immutable.

    `projection_matrix` and `projection_shift` are the integer linear map
    plus shift (acting on the polytope's normalized model Z^r) that carries
    the polytope onto the standard unimodular k-simplex; `fibers` are the
    preimages of the simplex vertices (fiber 0 over the origin, fiber i
    over e_i), given as full-dimensional polytopes in one shared
    normalization so that `projective_join(fibers)` rebuilds the input up
    to unimodular equivalence. Equal fibers are one shared, immutable
    `Polytope`, so setting `.name` on one sets it on all of them. `defect`
    is 2k - r; the unimodular r-simplex is the case k = r, with point
    fibers and defect r.
    `to_dict` writes the image as the document of `simplex(k)`.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        simplex_vertices = sorted(_simplex_vertices(self.k))
        return {
            "k": self.k,
            "defect": self.defect,
            "projection": {
                "matrix": [list(r) for r in self.projection_matrix],
                "shift": list(self.projection_shift),
            },
            "simplex_image": {
                "name": f"simplex({self.k})",
                "ambient_dim": self.k,
                "vertices": [list(v) for v in simplex_vertices],
            },
            "fibers": [f.to_dict() for f in self.fibers],
        }


def decompose_join(P: Polytope) -> Optional[JoinDecomposition]:
    """Certified join decomposition of a Delzant polytope with c = 0.

    Returns None when c(P) != 0. Raises DomainError for non-Delzant or
    dim < 2 input, and InternalConsistencyError if c(P) = 0 but no
    decomposition passes certification (impossible for Delzant input
    unless the implementation is wrong).
    """
    if not P.is_delzant():
        raise DomainError("join decomposition requires a Delzant polytope")
    if P.dim < 2:
        raise DomainError("join decomposition requires dimension >= 2")
    if c(P) != 0:
        return None
    r = P.dim
    full = (1 << len(P.vertices)) - 1
    dim_of = P._lattice().dims
    complements = [full & ~t for t in P._incidence]
    for k in range(r, _k_min(r) - 1, -1):
        candidates = [j for j, m in enumerate(complements) if dim_of.get(m) == r - k]
        for J in itertools.combinations(candidates, k + 1):
            if not _exact_cover([complements[j] for j in J], full):
                continue
            dec = _try_subset(P, J, k)
            if dec is None:
                continue
            if not _k_min(r) <= dec.k <= r:
                raise P._broken("join parameter outside classified range")
            if dec.defect != 2 * dec.k - r:
                raise P._broken("defect value inconsistent with k")
            return dec
    raise P._broken("classification violated")


def _exact_cover(masks, full) -> bool:
    """True when the masks are pairwise disjoint and their union is `full`."""
    seen = 0
    for m in masks:
        if seen & m:
            return False
        seen |= m
    return seen == full


def _certified(P, images, proj_rows, shift) -> bool:
    """True when a unimodular map sends P's i-th model vertex to images[i],
    with the projection as its last k rows (the join's simplex coordinates)."""
    found = paired_unimodular_map(P._nverts, images)
    if found is None:
        return False
    M, t = found
    k = len(shift)
    return M[-k:] == [list(a) for a in proj_rows] and t[-k:] == tuple(shift)


def _try_subset(P, J, k) -> Optional[JoinDecomposition]:
    r = P.dim
    proj_rows = [P._nfacets[j][0] for j in J[1:]]
    shift = tuple(-P._nfacets[j][1] for j in J[1:])
    images = [
        tuple(la.dot(a, v) + s for a, s in zip(proj_rows, shift))
        for v in P._nverts
    ]
    simplex = _simplex_vertices(k)
    if set(images) != set(simplex):
        return None

    # fiber i, over e_i, is the vertex complement of facet J[i], an (r - k)-face
    groups: dict[tuple, list[int]] = {}
    for vid, img in enumerate(images):
        groups.setdefault(img, []).append(vid)

    # shared normalization of the fiber spans: every fiber's differences
    # lie in the kernel of the k projection rows (rank k, as they map the
    # vertices onto the simplex), which fiber 0, an (r - k)-face there, spans
    norm0 = la.affine_normalize([P._nverts[i] for i in groups[simplex[0]]])
    fibers = []
    built: dict[tuple, Polytope] = {}  # sorted model points -> their fiber
    # where each vertex lands in the join of the fibers: its fiber
    # coordinates, then the simplex vertex e_i of its fiber, as
    # `projective_join` lists it
    join_images: list = [None] * len(P._nverts)
    for e_i in simplex:
        vids = groups[e_i]
        pts = [P._nverts[i] for i in vids]
        b = min(pts)
        coords = [
            tuple(la.dot(row, la.vec_sub(p, b)) for row in norm0.matrix)
            for p in pts
        ]
        key = tuple(sorted(coords))
        F = built.get(key)
        if F is None:
            F = built[key] = Polytope.from_vertices(coords)
            if F.dim != r - k or not F.is_delzant():
                return None
        fibers.append(F)
        for vid, x in zip(vids, coords):
            join_images[vid] = x + e_i

    try:
        check_strongly_isomorphic(fibers)
    except DomainError:
        return None
    if not _certified(P, join_images, proj_rows, shift):
        return None
    return JoinDecomposition(
        k=k,
        defect=2 * k - r,
        projection_matrix=tuple(tuple(a) for a in proj_rows),
        projection_shift=shift,
        fibers=tuple(fibers),
    )


class ClassificationReport(namedtuple(
    "ClassificationReport",
    "dim is_simple is_delzant c verdict c_star defect dual_degree decomposition notes",
    defaults=(None, None, None, None, ()),
)):
    """Verdict on one polytope: defect structure or the reason there is none;
    immutable. `verdict` is defect, non-defect, non-Delzant or
    dim-1-degenerate; `c_star` is a Fraction or None, `decomposition` a
    `JoinDecomposition` or None, `notes` a str tuple."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "is_simple": self.is_simple,
            "is_delzant": self.is_delzant,
            "c": self.c,
            "c_star": None if self.c_star is None else str(self.c_star),
            "verdict": self.verdict,
            "defect": self.defect,
            "dual_degree": self.dual_degree,
            "decomposition": (
                None if self.decomposition is None else self.decomposition.to_dict()
            ),
            "notes": list(self.notes),
        }


def classify(P: Polytope) -> ClassificationReport:
    """Full defect classification of an arbitrary integral polytope: one
    report, whose verdict is read off c once c and c_star are known."""
    simple = P.is_simple()
    delzant = P.is_delzant()
    cval = c(P)
    cstar = c_star(P) if simple else None
    notes, dec, degree = (), None, None
    if P.dim == 1:
        verdict = "dim-1-degenerate"
        notes = ("dimension-1 polytopes sit outside the defect classification",)
    elif not delzant:
        verdict = "non-Delzant"
        if cval == 0:
            notes = (
                "c = 0 on a non-Delzant polytope: candidate join structure "
                "outside the certified classification",
            )
    elif cval == 0 and P.dim >= 2:
        verdict = "defect"
        dec = decompose_join(P)
    elif cval < 0:
        # c >= 0 on every Delzant polytope by the source paper
        raise P._broken(f"c = {cval} is negative on a Delzant polytope")
    else:
        verdict = "non-defect"
        degree = dual_degree(P)
    return ClassificationReport(
        P.dim, simple, delzant, cval, verdict, c_star=cstar,
        defect=None if dec is None else dec.defect, dual_degree=degree,
        decomposition=dec, notes=notes,
    )
