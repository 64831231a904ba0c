"""Lattice-normalized volumes, lattice point counts and Ehrhart data.

The normalized volume nvol(F) of a k-dimensional face is k! times the
Lebesgue measure of the face after normalizing its span lattice to Z^k;
it is always a nonnegative integer and is the internal currency of every
invariant in this package. A vertex has nvol 1.

Volumes are computed by an exact pulling triangulation (cone from the
lexicographically smallest vertex over the facets avoiding it,
recursively). Each simplex contributes the `lattice_index` of its edge
rows in the polytope's model Z^dim, which is its normalized volume in
the lattice of its own span; no face needs a coordinate change.

Lattice counts use a bounding-box scan of a lattice normalization of the
face's span (`_face_model`) with exact inequality tests. No floating
point, no approximation. Counting runs in the ambient lattice of the
dilated face: for a face F and a dilation n the count is |nF cap Z^n|,
which agrees with counting in the span lattice of F whenever that span
passes through the origin.
"""

from __future__ import annotations


from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence, Union

from . import linalg as la
from .errors import DomainError, InternalConsistencyError
from .polytope import Face, Polytope

FaceLike = Union[Face, Polytope]


def _as_face(obj: FaceLike) -> Face:
    if isinstance(obj, Polytope):
        return obj.top_face()
    return obj


def normalized_volume(face: FaceLike) -> int:
    """nvol(F) = dim(F)! * Vol(F), an exact nonnegative integer."""
    face = _as_face(face)
    P = face.owner
    key = ("nvol", face.vertex_ids)
    if key not in P._cache:
        total = 0
        for simplex in P._triangulation(face):
            base = P._nverts[simplex[0]]
            rows = [la.vec_sub(P._nverts[v], base) for v in simplex[1:]]
            try:
                total += la.lattice_index(rows)
            except DomainError:
                raise InternalConsistencyError(
                    f"degenerate simplex {simplex} in the triangulation"
                    f" of face {face.vertex_ids}"
                ) from None
        if total <= 0:
            raise InternalConsistencyError("face has nonpositive volume")
        P._cache[key] = total
    return P._cache[key]


def volume(face: FaceLike) -> Fraction:
    """Lattice volume Vol(F) = nvol(F) / dim(F)! as an exact rational."""
    face = _as_face(face)
    return Fraction(normalized_volume(face), factorial(face.dim))


def lattice_points(face: FaceLike, n: int) -> int:
    """|nF cap Z^ambient| for an integer dilation n >= 1."""
    if n < 1:
        raise DomainError("dilation must be a positive integer")
    face = _as_face(face)
    P = face.owner
    key = ("count", face.vertex_ids, n)
    if key not in P._cache:
        P._cache[key] = _count_dilate(P, face, n)
    return P._cache[key]


def _face_model(P: Polytope, face: Face):
    """(vertex coords, inequalities) of a face in a lattice normalization
    of its span; the restricted facets not containing the face cut it out."""
    key = ("fmodel", face.vertex_ids)
    if key not in P._cache:
        norm = la.affine_normalize([P._nverts[i] for i in face.vertex_ids])
        coords = [norm.forward(P._nverts[i]) for i in face.vertex_ids]
        ineqs = []
        for j, (a, b) in enumerate(P._nfacets):
            if j not in face.facet_ids:
                ra = tuple(la.dot(w, a) for w in norm.basis)
                ineqs.append((ra, b - la.dot(a, norm.base)))
        P._cache[key] = (coords, ineqs)
    return P._cache[key]


def _count_dilate(P: Polytope, face: Face, n: int) -> int:
    if face.dim == 0:
        return 1
    coords, ineqs = _face_model(P, face)
    lo, hi = la.bounding_box(coords)
    d = len(lo)
    lo = [n * x for x in lo]
    hi = [n * x for x in hi]
    # coordinate-by-coordinate scan; a branch dies as soon as some
    # inequality cannot be met even with the best remaining coordinates
    systems = []
    for a, b in ineqs:
        sufmax = [0] * (d + 1)
        for j in range(d - 1, -1, -1):
            cj = a[j]
            sufmax[j] = sufmax[j + 1] + max(cj * lo[j], cj * hi[j])
        systems.append((a, n * b, sufmax))

    count = 0
    stack = [(0, [0] * len(systems))]
    while stack:
        j, partials = stack.pop()
        if j == d:
            count += 1
            continue
        for y in range(lo[j], hi[j] + 1):
            nxt = []
            ok = True
            for (a, rhs, suf), p in zip(systems, partials):
                p2 = p + a[j] * y
                if p2 + suf[j + 1] < rhs:
                    ok = False
                    break
                nxt.append(p2)
            if ok:
                stack.append((j + 1, nxt))
    return count


@dataclass(frozen=True)
class EhrhartData:
    """Exact lattice point counting polynomial of a face.

    `samples` maps each sampled dilation (including the forced value 1 at
    n = 0) to its exact count; `polynomial` lists rational coefficients in
    ascending degree order, degree = dim of the face. The constant term is
    1 and the leading coefficient equals Vol(face).
    """

    face: Face
    samples: dict[int, int]
    polynomial: tuple[Fraction, ...]

    def evaluate(self, n: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.polynomial):
            acc = acc * n + c
        return acc


def interpolate(points: Sequence[tuple[int, int]]) -> list[Fraction]:
    """Coefficients (ascending) of the unique polynomial of degree
    < len(points) through the given integer points, by Newton's divided
    differences over exact rationals."""
    xs = [Fraction(x) for x, _ in points]
    divided = [Fraction(y) for _, y in points]
    k = len(points)
    for level in range(1, k):
        for i in range(k - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    # expand the Newton form into monomial coefficients
    coeffs = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        # multiply current polynomial by (x - xs[i]) and add divided[i]
        new = [Fraction(0)] * k
        for j in range(k - 1):
            new[j + 1] += coeffs[j]
            new[j] -= xs[i] * coeffs[j]
        new[0] += divided[i]
        coeffs = new
    return coeffs


def ehrhart(face: FaceLike) -> EhrhartData:
    """Ehrhart data of a face: exact counts at n = 0 .. dim+1 and the
    interpolated counting polynomial, cross-checked for degree."""
    face = _as_face(face)
    d = face.dim
    samples = {0: 1}
    for n in range(1, d + 2):
        samples[n] = lattice_points(face, n)
    pts = sorted(samples.items())
    coeffs = interpolate(pts)
    # the fit has degree <= d+1 through d+2 points; the top coefficient
    # must vanish for a genuine counting polynomial of degree d
    if len(coeffs) == d + 2:
        if coeffs[d + 1] != 0:
            raise InternalConsistencyError(
                "lattice counts are not polynomial of the face dimension"
            )
        coeffs = coeffs[: d + 1]
    data = EhrhartData(face=face, samples=samples, polynomial=tuple(coeffs))
    if data.polynomial[0] != 1:
        raise InternalConsistencyError("Ehrhart constant term is not 1")
    if data.polynomial[-1] != volume(face):
        raise InternalConsistencyError(
            "Ehrhart leading coefficient differs from the volume"
        )
    for n, c in samples.items():
        if data.evaluate(n) != c:
            raise InternalConsistencyError("Ehrhart polynomial misses a sample")
    return data
