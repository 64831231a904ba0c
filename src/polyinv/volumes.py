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
lattice, then h_G = (<a_t, v> - b_t) / g. One level walk (`_walk`) cuts
each face's lattice basis (values on the facet normals, in P's model)
once from a parent's and reads the heights top down, then sums bottom
up; no face needs a coordinate change and no simplex is enumerated.

Ehrhart data are read from volumes and the carrier tables of nP alone
(`_fit`). For a k-face F, L_F(0) = 1, the leading coefficient is the
volume and the next one is half the facet volumes; for
n = 1..floor((k - 1)/2) the table of nP gives L_F(n), the sum of the
interior counts L°_G(n) over the faces G <= F, and by Ehrhart-Macdonald
reciprocity L_F(-n) = (-1)^k L°_F(n) (Macdonald 1971; Beck & Robins,
"Computing the Continuous Discretely", ch. 4-5). That fixes L_F, with
one equation to spare for odd k. Faces of dimension <= 2 are never
counted, and no face needs the polynomials of its own faces. The same
fit gives the sums over the k-faces that `invariants.f_polynomial`
expands.

Lattice counts |nF cap Z^ambient|, P's included, come from one scan of
nP per n in P's own model, an affine lattice isomorphism of
aff(P) cap Z^ambient onto Z^dim, cut out by P's facet inequalities alone
(`_scan`). The scan of the dilated bounding box fixes one coordinate at
a time; the values of a coordinate that can still reach a point form an
interval, solved from the inequalities. Each point is credited to its
carrier, the smallest face containing it, whose facet mask is the
point's tight set, read off the solve of the last coordinate's interval,
and the scan keeps the nonzero interior counts L°_G(n). No floating
point, no approximation.
The CLI command `ehrhart` checks `ehrhart_polynomial` against such
direct counts.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Sequence, Union

from . import linalg as la
from .errors import DomainError
from .polytope import Face, Polytope, _ids

FaceLike = Union[Face, Polytope]


def _located(obj: FaceLike) -> tuple[Polytope, int]:
    """(owner, vertex mask) of a face; a polytope stands for its top face."""
    if isinstance(obj, Polytope):
        return obj, (1 << obj.n_vertices) - 1
    return obj.owner, obj.mask


def normalized_volume(face: FaceLike) -> int:
    """nvol(F) = dim(F)! * Vol(F), an exact nonnegative integer."""
    P, s = _located(face)
    return _volumes(P, [s])[s]


def _volumes(P: Polytope, masks: Sequence[int]) -> dict[int, int]:
    """Face mask -> nvol, P's table, to which one walk adds the faces
    `masks`, all of one dimension, if any is missing."""
    vols = P._cache.get("nvol", {})
    missing = [s for s in masks if s not in vols]
    if missing:
        levels = [[] for _ in range(P._lattice().dims[missing[0]])] + [missing]
        vols = P._cache.setdefault("nvol", {})
        vols.update(_walk(P, levels, every=False)[0])
    return vols


def _face_tables(P: Polytope) -> tuple[dict, dict]:
    """`_walk` over every face of P, once: its two tables."""
    if "cuts" not in P._cache:
        vols, cuts = _walk(P, P._lattice().levels, every=True)
        P._cache.update(nvol=vols, cuts=cuts)  # nvol: a one-face table's superset
    return P._cache["nvol"], P._cache["cuts"]


def _walk(P: Polytope, levels: list[list[int]], every: bool) -> tuple[dict, dict]:
    """(face mask -> nvol, face mask -> (cutter, content)) on the faces of
    `levels`, by dimension, and, unless they are `every` face, on the
    pyramid children they reach, appended there. Top down, a face F cuts
    the basis of each child it reaches first (of any child if `every`) and
    reads the height of its first vertex over each pyramid child, with the
    content g of the cut or the gcd of the facet's values on F's basis;
    bottom up, nvol(F) sums h_G * nvol(G)."""
    facets, children, nfacets = P._lattice().facets, P._lattice().children, P._nfacets
    cuts, pyramids, bases = {}, {}, {}  # (cutter, g), [(child, h)], basis
    for k in range(len(levels) - 1, 0, -1):
        for s in levels[k]:
            if s in bases:
                basis = bases.pop(s)
            else:  # reached by no walked face: P's basis (cached), cut at s's facets
                basis = P._cache.setdefault("basis", list(zip(*(a for a, _ in nfacets))))
                for t in _ids(facets[s]):
                    basis = la.cut_basis(basis, t)[1]
            low, fs = s & -s, facets[s]  # vertices are lex sorted
            v = P._nverts[low.bit_length() - 1]
            pyramids[s] = pyramid = []
            for c in children[s]:
                if c & low and (not every or c in cuts):
                    continue
                new = facets[c] & ~fs
                t = (new & -new).bit_length() - 1
                if c in cuts:
                    g = gcd(*[w[t] for w in basis])
                else:
                    g, bases[c] = la.cut_basis(basis, t)
                    cuts[c] = (s, g)
                    if not every:
                        levels[k - 1].append(c)
                if g < 1:
                    raise P._broken(f"facet {t} is constant on the face", s)
                if c & low:
                    continue
                a, b = nfacets[t]
                h, rem = divmod(la.dot(a, v) - b, g)
                if rem or h < 1:
                    raise P._broken(
                        f"height of the first vertex over the facet {_ids(c)} is"
                        f" {'not an integer' if rem else 'not positive'}", s,
                    )
                pyramid.append((c, h))
    vols = dict.fromkeys(levels[0], 1)
    for s, pyramid in reversed(pyramids.items()):  # each face after its children
        vols[s] = total = sum([h * vols[c] for c, h in pyramid])
        if total <= 0:
            raise P._broken("face has nonpositive volume", s)
    return vols, cuts


def volume(face: FaceLike) -> Fraction:
    """Lattice volume Vol(F) = nvol(F) / dim(F)! as an exact rational."""
    P, s = _located(face)
    return Fraction(_volumes(P, [s])[s], factorial(P._lattice().dims[s]))


def lattice_points(face: FaceLike, n: int) -> int:
    """|nF cap Z^ambient| for an integer dilation n >= 1: L_F(n) sums
    L°_G(n) over the faces G <= F from the carrier table of nP, one per n;
    P itself is the sum of its whole table."""
    if n < 1:
        raise DomainError("dilation must be a positive integer")
    return _count(*_located(face), n)


def _count(P: Polytope, s: int, n: int) -> int:
    """`lattice_points` of the face with vertex mask s: 1 for a vertex, else
    the sum of `_carriers` over the faces inside s."""
    if P._lattice().dims[s] == 0:
        return 1
    return sum([c for g, c in _carriers(P, n).items() if g & s == g])


def _carriers(P: Polytope, n: int) -> dict[int, int]:
    """Face mask -> L°_G(n) > 0, the points of nP whose carrier is G; one
    scan per n (`_scan`)."""
    if ("carriers", n) not in P._cache:
        P._cache[("carriers", n)] = _scan(P, n)
    return P._cache[("carriers", n)]


def ehrhart_polynomial(face: FaceLike) -> tuple[Fraction, ...]:
    """Coefficients c_0 .. c_k (ascending) of L_F(n) = |nF cap Z^ambient|
    for a k-face F, fitted by `_fit` through L_F(0) = 1, the volumes of F
    and its facets and, for n = 1..floor((k - 1)/2), the count L_F(n) and
    L_F(-n) = (-1)^k L°_F(n) from the carrier table of nP."""
    P, s = _located(face)
    lattice = P._lattice()
    k = lattice.dims[s]
    values = [
        ((-1) ** k * _carriers(P, n).get(s, 0), _count(P, s, n))
        for n in range(1, (k - 1) // 2 + 1)
    ]
    lead, vols = _volumes(P, [s])[s], _volumes(P, lattice.children[s])
    facets = sum([vols[c] for c in lattice.children[s]])
    coeffs = _fit(P, s, k, "Ehrhart", 1, lead, facets, values)
    return tuple(Fraction(a, factorial(k)) for a in coeffs)


def _fit(
    P: Polytope, s: int, k: int, what: str, at0: int, lead: int, facets: int,
    values: list[tuple[int, int]],
) -> list[int]:
    """k! times the coefficients c_0 .. c_k (ascending) of the degree-k
    Ehrhart polynomial L of a k-face, or of a sum of them, from

    - L(0) = at0, and k! c_k = lead, the normalized volume (at k = 0
      both fix c_0, and `lead` is kept);
    - c_{k-1} = half the facet volumes: k! c_{k-1} = k * facets / 2,
      with `facets` the sum of the facets' normalized volumes;
    - (L(-n), L(n)) = values[n - 1] for n = 1..floor((k - 1)/2).

    The even and odd parts (L(n) +- L(-n)) / 2 are fitted apart, each in
    n^2 through n = 0..floor((k - 1)/2) by `_lagrange`, in integers: each
    coefficient is its numerator over twice the common denominator, and
    that division must be exact. For odd k the
    data fix c_{k-1} twice, and the two must agree; values beyond the
    fitted ones must be matched. Errors name `what` on the face with
    vertex mask s.
    """
    scale = factorial(k)
    coeffs = [0] * (k + 1)
    coeffs[0] = scale * at0
    coeffs[k] = lead
    if k % 2 == 0 and k:
        coeffs[k - 1] = k // 2 * facets
    m = (k - 1) // 2
    # n^p times the parity-p part, less its known terms, is 2 R(n^2) with
    # R(x) = sum_i k! c_{2i-p} x^i over i = 1..m, so R(0) = 0
    for p in (0, 1) if m else ():  # k >= 3: unknown coefficients are left
        points = [(0, 0)]
        for n, (down, up) in enumerate(values[:m], 1):
            rest = scale * (up + (-1) ** p * down) - 2 * sum(
                a * n**j for j, a in enumerate(coeffs) if j % 2 == p
            )
            points.append((n * n, n**p * rest))
        num, den = _lagrange(points)
        for i, a in enumerate(num[1:], 1):
            j = 2 * i - p
            coeffs[j], rem = divmod(a, 2 * den)
            if rem:
                raise P._broken(f"{scale} * {what} c_{j} is not an integer", s)
    if k % 2 and 2 * coeffs[k - 1] != k * facets:
        raise P._broken(f"{what} c_{k - 1} differs from half the facet volumes", s)
    for n, (down, up) in enumerate(values[m:], m + 1):
        for x, count in ((-n, down), (n, up)):
            if sum(a * x**j for j, a in enumerate(coeffs)) != scale * count:
                raise P._broken(f"{what} misses the count at n = {x}", s)
    return coeffs


def _scan(P: Polytope, n: int) -> dict[int, int]:
    """The carrier table of nP in P's model: face mask -> L°_G(n), the
    number of lattice points of nP whose carrier is G, for the G with
    L°_G(n) > 0. The tight sets come from the last coordinate's interval
    solve: a facet is zero only at its exact bound, so it is tight at the
    end that bound makes, or, if constant there, on all or none of the
    interval; a leaf credits at most three carriers. Counting one small
    proper face at a large n this way scans all of nP."""
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
    carrier = {f: s for s, f in P._lattice().facets.items()}
    table: dict[int, int] = {}
    bits = [1 << i for i in range(len(systems))]

    def add(tight: int, prefix: tuple, y: int, points: int) -> None:
        if tight not in carrier:  # name the point n base + y . basis
            model = dict(zip(order, prefix + (y,)))
            x = la.vec_add(P._norm.backward([model[j] for j in range(d)]),
                           [(n - 1) * c for c in P._norm.base])
            raise P._broken(f"the point {x} of {n}P is tight on the facets of no face")
        g = carrier[tight]
        table[g] = table.get(g, 0) + points

    # coordinate-by-coordinate scan. A branch survives a value y of
    # coordinate j iff p + a_j y + sufmax[j + 1] >= rhs for every system;
    # that is linear in y, so the surviving values form an interval. At a
    # leaf sufmax[d] = 0, so low, high and flat are the facets tight at
    # ylo, at yhi and on the whole interval
    stack = [(0, [0] * len(systems), ())]
    while stack:
        j, partials, prefix = stack.pop()
        ylo, yhi = lo[j], hi[j]
        low = high = flat = 0
        for (a, rhs, suf), p, bit in zip(systems, partials, bits):
            aj = a[j]
            t = rhs - p - suf[j + 1]
            if aj > 0:
                q = -(-t // aj)
                if q > ylo:
                    ylo, low = q, (bit if q * aj == t else 0)
                elif q == ylo and q * aj == t:
                    low |= bit
            elif aj < 0:
                q = t // aj
                if q < yhi:
                    yhi, high = q, (bit if q * aj == t else 0)
                elif q == yhi and q * aj == t:
                    high |= bit
            elif t > 0:
                break
            elif t == 0:
                flat |= bit
            if ylo > yhi:
                break
        else:
            if j < d - 1:
                for y in range(ylo, yhi + 1):
                    nxt = [p + a[j] * y for (a, _, _), p in zip(systems, partials)]
                    stack.append((j + 1, nxt, prefix + (y,)))
            elif ylo == yhi:
                add(low | high | flat, prefix, ylo, 1)
            else:
                add(low | flat, prefix, ylo, 1)
                add(high | flat, prefix, yhi, 1)
                if yhi - ylo > 1:
                    add(flat, prefix, ylo + 1, yhi - ylo - 1)
    return table


def interpolate(points: Sequence[tuple[int, int]]) -> list[Fraction]:
    """Coefficients (ascending) of the unique polynomial of degree
    < len(points) through the given integer points (`_lagrange`)."""
    num, den = _lagrange(points)
    return [Fraction(a, den) for a in num]


def _lagrange(points: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """(num, den), den > 0, with num[i] / den the coefficient of x^i of
    the polynomial through `points`, by Lagrange's formula in integers
    over one common denominator."""
    num, den = [0] * len(points), 1
    for i, (xi, yi) in enumerate(points):
        # add yi prod_{j != i} (x - x_j) / (x_i - x_j) to num / den
        basis, d = [1], 1
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [b - xj * a for a, b in zip(basis + [0], [0] + basis)]
                d *= xi - xj
        num = [d * a + den * yi * b for a, b in zip(num, basis)]
        den *= d
    return ([-a for a in num], -den) if den < 0 else (num, den)
