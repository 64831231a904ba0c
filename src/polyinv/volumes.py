"""Lattice-normalized volumes, lattice point counts and Ehrhart polynomials.

The normalized volume nvol(F) of a k-dimensional face is k! times the
Lebesgue measure of the face after normalizing its span lattice to Z^k;
it is always a nonnegative integer and is the internal currency of every
invariant in this package. A vertex has nvol 1.

Volumes are computed by lattice pyramids over the face lattice (Beck &
Robins, "Computing the Continuous Discretely", ch. 3): with v the
lexicographically smallest vertex of F, nvol(F) is the sum of
h_G * nvol(G) over the facets G of F avoiding v, where h_G is the
lattice height of v over aff(G) in the lattice of aff(F). If the facet
t of P cuts G from F and its normal a_t has content g on F's direction
lattice, then h_G = (<a_t, v> - b_t) / g. Each face keeps one basis of
its direction lattice in P's model (`Polytope._content`), so no face
needs a coordinate change and no simplex is enumerated; the recursion is
memoized and visits only the faces that the asked volume needs.

Ehrhart polynomials of all faces come from structure (`scaled_ehrhart`),
bottom up over the face lattice: Ehrhart-Macdonald reciprocity fixes
every coefficient of a k-face whose degree has the parity of k - 1 from
its proper faces, the leading one is the volume, the constant term of
an even-dimensional face is 1, and the floor((k - 1)/2) coefficients
left come from counts at n = 1..floor((k - 1)/2) (Macdonald 1971; Beck
& Robins, "Computing the Continuous Discretely", ch. 4-5). Faces of
dimension <= 2 are never counted.

Lattice counts |nF cap Z^ambient| come from one scan of nP per n in
P's own model, an affine lattice isomorphism of aff(P) cap Z^ambient
onto Z^dim, cut out by P's facet inequalities alone (`_scan`). The scan
of the dilated bounding box fixes one coordinate at a time; the values
of a coordinate that can still reach a point form an interval, solved
from the inequalities, and the last coordinate adds its interval's
length. For a proper face the scan credits each point to its carrier,
the smallest face containing it, whose facet mask is the point's tight
set; L_F(n) is then the sum of the interior counts L°_G(n) over the
faces G <= F. P alone is the same scan without credits. No floating
point, no approximation. The CLI command `ehrhart` checks
`ehrhart_polynomial` against such direct counts.
"""

from __future__ import annotations


from fractions import Fraction
from math import factorial
from typing import Sequence, Union

from . import linalg as la
from .errors import DomainError, broken_identity
from .polytope import Face, Polytope

FaceLike = Union[Face, Polytope]


def _located(obj: FaceLike) -> tuple[Polytope, int]:
    """(owner, vertex mask) of a face; a polytope stands for its top face."""
    if isinstance(obj, Polytope):
        return obj, (1 << obj.n_vertices) - 1
    return obj.owner, obj.mask


def normalized_volume(face: FaceLike) -> int:
    """nvol(F) = dim(F)! * Vol(F), an exact nonnegative integer."""
    return _nvol(*_located(face))


def _nvol(P: Polytope, s: int) -> int:
    """nvol(F) of the face F with vertex mask s, memoized: the pyramids from
    F's first vertex v over the facets G of F that avoid v add h_G * nvol(G),
    where h_G is the lattice height of v over G in lin(F) cap Z^dim."""
    nvol = P._cache.setdefault("nvol", {})
    if s not in nvol:
        lattice = P._lattice()
        low = s & -s  # vertices are lex sorted
        v = P._nverts[low.bit_length() - 1]
        total = 0 if lattice.dims[s] else 1
        for c in lattice.children[s]:
            if c & low:
                continue
            g, t = P._content(s, c)
            a, b = P._nfacets[t]
            h, rem = divmod(la.dot(a, v) - b, g)
            if rem or h < 1:
                what = "not an integer" if rem else "not positive"
                raise P._broken(
                    f"height of the first vertex over the facet"
                    f" {P._face(c).vertex_ids} is {what}",
                    s,
                )
            total += h * _nvol(P, c)
        if total <= 0:
            raise P._broken("face has nonpositive volume", s)
        nvol[s] = total
    return nvol[s]


def volume(face: FaceLike) -> Fraction:
    """Lattice volume Vol(F) = nvol(F) / dim(F)! as an exact rational."""
    P, s = _located(face)
    return Fraction(_nvol(P, s), factorial(P._lattice().dims[s]))


def lattice_points(face: FaceLike, n: int) -> int:
    """|nF cap Z^ambient| for an integer dilation n >= 1: a proper face F
    sums L°_G(n) over the faces G <= F from the carrier table of nP, one
    per n; P alone is a plain scan of nP unless that table exists."""
    if n < 1:
        raise DomainError("dilation must be a positive integer")
    return _count(*_located(face), n)


def _count(P: Polytope, s: int, n: int) -> int:
    """`lattice_points` of the face with vertex mask s."""
    key = ("count", s, n)
    if key not in P._cache:
        lattice = P._lattice()
        table = P._cache.get(("carriers", n))
        if lattice.dims[s] == 0:
            P._cache[key] = 1
        elif table is None and not lattice.facets[s]:
            P._cache[key] = _scan(P, n, credit=False)
        else:
            if table is None:
                table = P._cache[("carriers", n)] = _scan(P, n, credit=True)
            P._cache[key] = table[s] + sum(map(table.__getitem__, _below(P)[s]))
    return P._cache[key]


def _below(P: Polytope) -> dict[int, tuple[int, ...]]:
    """Face mask -> the masks of the face's proper faces."""
    if "below" not in P._cache:
        below = P._cache["below"] = {}
        lattice = P._lattice()
        for s in lattice.dims:  # sorted by dimension
            sub = set()
            for c in lattice.children[s]:
                sub.add(c)
                sub.update(below[c])
            below[s] = tuple(sub)  # lives with P: a quarter of a set's size
    return P._cache["below"]


def ehrhart_polynomial(face: FaceLike) -> tuple[Fraction, ...]:
    """Coefficients c_0 .. c_k (ascending) of L_F(n) = |nF cap Z^ambient|
    for a k-face F, from `scaled_ehrhart` of its polytope."""
    P, s = _located(face)
    scale = factorial(P.dim)
    return tuple(Fraction(a, scale) for a in scaled_ehrhart(P)[s])


def scaled_ehrhart(P: Polytope) -> dict[int, tuple[int, ...]]:
    """Face mask -> dim(P)! times the Ehrhart coefficients of the face.

    k! L_F has integer coefficients for a lattice k-polytope F, so the
    scaled values are integers. Built bottom up over the face lattice:
    with L°_G(n) = (-1)^dim G L_G(-n) the relative interior count of G,
    reciprocity gives L_F(n) - (-1)^k L_F(-n) = B(n), the sum of L°_G
    over the proper faces G of F. So c_j = B_j / 2 for j of the parity
    of k - 1, and B_j = 0 for the other j. c_k = Vol(F), c_0 = 1 for
    even k, and the floor((k - 1)/2) coefficients left are solved from
    lattice_points(F, n) at n = 1..floor((k - 1)/2).
    """
    if "ehrhart" not in P._cache:
        scale = factorial(P.dim)
        out: dict[int, tuple[int, ...]] = {}
        below = _below(P)
        interior: dict[int, list[int]] = {}  # face mask -> scaled L° coefficients
        for s, k in P._lattice().dims.items():  # sorted by dimension
            boundary = [0] * k
            for g in below[s]:
                for j, a in enumerate(interior[g]):
                    boundary[j] += a
            coeffs = _face_ehrhart(P, s, k, boundary, scale)
            out[s] = coeffs
            interior[s] = [(-1) ** (k + j) * a for j, a in enumerate(coeffs)]
        P._cache["ehrhart"] = out
    return P._cache["ehrhart"]


def _face_ehrhart(
    P: Polytope, s: int, k: int, boundary: list[int], scale: int
) -> tuple[int, ...]:
    """Scaled coefficients of L_F for the k-face with vertex mask s, from
    the scaled boundary sum B (see `scaled_ehrhart`), the volume and the
    counts reciprocity leaves open, with every identity checked that these
    data must satisfy."""
    coeffs = [0] * (k + 1)
    for j, b in enumerate(boundary):
        if (k - j) % 2:
            half, odd = divmod(b, 2)
            if odd:
                raise P._broken(f"{scale} * Ehrhart c_{j} is not an integer", s)
            coeffs[j] = half
        elif b:
            raise P._broken(
                f"reciprocity fails: the boundary sum has a degree-{j} term", s
            )
    if k % 2:
        if coeffs[0] != scale:
            raise P._broken(
                "Ehrhart constant term is not 1 (Euler relation on the boundary)", s
            )
    else:
        coeffs[0] = scale
    coeffs[k] = _nvol(P, s) * (scale // factorial(k))
    if k > 0:
        # c_{k-1} = (1/2) sum of Vol(G) over the facets G, with the facet
        # volumes read afresh rather than from the boundary sum
        facets = sum(_nvol(P, c) for c in P._lattice().children[s])
        if 2 * coeffs[k - 1] != facets * (scale // factorial(k - 1)):
            raise P._broken(
                f"Ehrhart c_{k - 1} differs from half the facet volumes", s
            )

    unknown = range(2 - k % 2, k - 1, 2)
    if unknown:
        # sum_i c_{j0+2i} n^(j0+2i) = rest(n) is a polynomial in n^2 after
        # dividing by n^j0; interpolate it through n = 1..len(unknown)
        j0 = unknown[0]
        points = []
        for n in range(1, len(unknown) + 1):
            rest = scale * _count(P, s, n) - sum(
                a * n**j for j, a in enumerate(coeffs)
            )
            points.append((n * n, Fraction(rest, n**j0)))
        for j, cf in zip(unknown, interpolate(points)):
            if cf.denominator != 1:
                raise P._broken(f"{scale} * Ehrhart c_{j} is not an integer", s)
            coeffs[j] = int(cf)
    return tuple(coeffs)


def _scan(P: Polytope, n: int, credit: bool):
    """The lattice points of nP in P's model: their number, or with
    `credit` a map from face mask to L°_G(n), the number of them whose
    carrier is G. Each facet is affine and >= 0 on a leaf's interval, so
    it is tight inside iff tight at both ends, and a leaf credits at most
    three carriers. Counting one small proper face at a large n this way
    scans all of nP."""
    d = P.dim
    lo, hi = la.bounding_box(P._nverts)
    # the widest coordinate goes last, where it costs one interval
    order = sorted(range(d), key=lambda j: hi[j] - lo[j])
    lo = [n * lo[j] for j in order]
    hi = [n * hi[j] for j in order]
    # sufmax[j]: the largest value coordinates j.. can add to a . y in the box
    systems = []
    for a, b in P._nfacets:
        a = [a[j] for j in order]
        sufmax = [0] * (d + 1)
        for j in range(d - 1, -1, -1):
            sufmax[j] = sufmax[j + 1] + max(a[j] * lo[j], a[j] * hi[j])
        systems.append((a, n * b, sufmax))
    carrier = {f: s for s, f in P._lattice().facets.items()} if credit else {}
    table = dict.fromkeys(carrier.values(), 0)
    bits = [1 << i for i in range(len(systems))]

    def add(tight: int, prefix: tuple, y: int, points: int) -> None:
        if tight not in carrier:  # name the point n base + y . basis
            model = dict(zip(order, prefix + (y,)))
            x = la.vec_add(P._norm.backward([model[j] for j in range(d)]),
                           [(n - 1) * c for c in P._norm.base])
            raise broken_identity(f"the point {x} of {n}P is tight on the"
                                  " facets of no face", P.top_face())
        table[carrier[tight]] += points

    # coordinate-by-coordinate scan. A branch survives a value y of
    # coordinate j iff p + a_j y + sufmax[j + 1] >= rhs for every system;
    # that is linear in y, so the surviving values form an interval
    count = 0
    stack = [(0, [0] * len(systems), ())]
    while stack:
        j, partials, prefix = stack.pop()
        ylo, yhi = lo[j], hi[j]
        for (a, rhs, suf), p in zip(systems, partials):
            aj = a[j]
            t = rhs - p - suf[j + 1]
            if aj > 0:
                ylo = max(ylo, -(-t // aj))
            elif aj < 0:
                yhi = min(yhi, t // aj)
            elif t > 0:
                yhi = ylo - 1
            if ylo > yhi:
                break
        else:
            if j < d - 1:
                for y in range(ylo, yhi + 1):
                    nxt = [p + a[j] * y for (a, _, _), p in zip(systems, partials)]
                    stack.append((j + 1, nxt, prefix + (y,)))
            elif not credit:
                count += yhi - ylo + 1
            else:
                low = high = 0  # the facets tight at each end
                for (a, rhs, _), p, bit in zip(systems, partials, bits):
                    if a[j] * ylo == rhs - p:
                        low |= bit
                    if a[j] * yhi == rhs - p:
                        high |= bit
                add(low, prefix, ylo, 1)
                if ylo < yhi:
                    add(high, prefix, yhi, 1)
                if yhi - ylo > 1:
                    add(low & high, prefix, ylo + 1, yhi - ylo - 1)
    return table if credit else count


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
