"""Integral convex polytopes with exact combinatorics.

Every `Polytope` is built by `Polytope.from_vertices` from an integer
V-representation; the family generators, products, projective joins and
dilates all hand it a vertex list. Internally every polytope carries a
normalized model: an affine change of coordinates that maps the lattice
of its affine span onto Z^dim (see `linalg.affine_normalize`). All
geometric computations (facets, face lattice, volumes, multiplicities,
lattice counts) run on that full dimensional model, so lower dimensional
inputs such as hypersimplices inside a hyperplane of Z^n behave exactly
like full dimensional ones. Reported vertices keep the caller's ambient
coordinates.

Facets come from an exact integer double description hull on the
normalized model (`_hull_facet_normals`, its start cone read off one
`linalg.adjugate`): its rays are the facet inequalities, their zero
masks the tight sets; sidedness must give each ray the same set, of rank
dim - 1, or the hull raises. A tight set through dim points of the start
simplex has that rank, and only other tight sets are eliminated
(`_is_facet`). Tight sets and facet incidences are int
bitmasks over point ids; a point is a vertex only if the facets through
it meet in that point alone. Transposed, the incidences are the normal
fan (`_fan`): simplicity and the Delzant test (Delzant 1988) read it.

The face lattice comes from the incidences in one graded pass on masks,
top down: the facets of a face are the inclusion-maximal nonempty
intersections of its vertex mask with the facets of P not containing it.
A face's dimension is its level in that pass. Levels and children keep
the pass's order; only the public listers sort by vertex ids. A face is
its vertex mask, which keys every per-face map and names it in errors
(`Polytope._broken`). Caches hold ints only; a `Face` is made where the
public API hands one out, so no cache points back at its polytope.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from operator import mul

from . import linalg as la
from .errors import DomainError, InternalConsistencyError

Point = tuple[int, ...]
Halfspace = tuple[tuple[int, ...], int]  # (inward normal, offset): <a, x> >= b
# The face lattice as ints, in the order of the top-down pass that builds it:
# each dimension's face masks; mask -> child masks; mask -> facet mask;
# mask -> dimension, ascending by dimension.
_Lattice = namedtuple("_Lattice", "levels children facets dims")


class Face(namedtuple("Face", "owner mask facet_mask dim")):
    """A nonempty face of a polytope; immutable.

    Identified by its vertex mask: bit i of `mask` is set iff the owner's
    vertex i lies on it; bit j of `facet_mask` is set iff facet j contains
    it (none for the polytope itself). `vertex_ids` and `facet_ids` decode
    them into sorted ids. Dimension is the face's level in the graded face
    lattice, which equals the affine dimension of its vertex set. Faces
    are made afresh on each call from the owner's int-only lattice; two
    are equal iff their owners and masks are, which fix the other fields.
    """

    __slots__ = ()

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        return _ids(self.mask)

    @property
    def facet_ids(self) -> tuple[int, ...]:
        return _ids(self.facet_mask)

    @property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(self.owner.vertices[i] for i in self.vertex_ids)

    def __repr__(self):
        return f"Face(dim={self.dim}, vertices={self.mask.bit_count()})"


class Polytope:
    """Convex hull of finitely many points of Z^n.

    Immutable after construction but for `name`. Use `Polytope.from_vertices`
    to build one; duplicate and non-extreme input points are dropped. Derived
    data (face lattice, volumes, counts) is cached
    lazily with idempotent values, so concurrent reads are safe.
    """

    def __init__(self):
        raise DomainError("use Polytope.from_vertices to construct polytopes")

    def __setattr__(self, field, value=None):  # deleting `name` unsets it
        if field != "name":
            raise AttributeError(f"cannot assign to or delete Polytope field {field!r}")
        object.__setattr__(self, field, value)
    __delattr__ = __setattr__

    # -- construction -------------------------------------------------

    @classmethod
    def from_vertices(
        cls, points: Iterable[Sequence[int]], name: str | None = None
    ) -> "Polytope":
        pts = _clean_points(points)
        norm, model, start = la.affine_model(pts)
        d = norm.dim

        facets: dict[Halfspace, int] = {}
        # extreme points: the facets through a point meet in that point alone
        meets = [(1 << len(pts)) - 1] * len(pts)
        if d > 0:
            starts = sum(1 << i for i in start)
            for a, zero in _hull_facet_normals(model, start):
                vals = [sum(map(mul, a, y)) for y in model]
                b = min(vals)
                if zero != sum(1 << i for i, v in enumerate(vals) if v == b):
                    raise la._broken_span("hull zero mask is not the tight set", pts)
                if not _is_facet(model, starts, a, zero):
                    raise la._broken_span("hull ray is not a facet", pts)
                facets[(a, b)] = zero
                for i in _ids(zero):
                    meets[i] &= zero

        keep = [i for i, meet in enumerate(meets) if meet == 1 << i]
        order = sorted(keep, key=lambda i: pts[i])
        facet_list = sorted(facets.items())

        self = cls.__new__(cls)  # fields are set past the refusing __setattr__
        vars(self).update(
            name=name, ambient_dim=len(pts[0]), dim=d, _norm=norm, _cache={},
            vertices=tuple(pts[i] for i in order),
            _nverts=tuple(model[i] for i in order),
            _nfacets=tuple(f for f, _ in facet_list),
            # one mask per facet: bit i is set iff vertex i lies on the facet
            _incidence=tuple(
                sum(1 << new for new, old in enumerate(order) if tight >> old & 1)
                for _, tight in facet_list
            ),
        )
        return self

    # -- basic data ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self._nfacets)

    @property
    def facets(self) -> tuple[Halfspace, ...]:
        """Facet inequalities in ambient coordinates.

        Inward primitive normals with integer offsets. Together with
        `span_equations` they cut out the polytope; for a full dimensional
        polytope the span equation list is empty and this is the exact
        irredundant H-representation.
        """
        if "facets" not in self._cache:
            out = []
            for (a, _b), tight in zip(self._nfacets, self._incidence):
                amb = la.primitive([la.dot(col, a) for col in zip(*self._norm.matrix)])
                v = self.vertices[(tight & -tight).bit_length() - 1]
                out.append((amb, la.dot(amb, v)))
            self._cache["facets"] = tuple(out)
        return self._cache["facets"]

    @property
    def span_equations(self) -> tuple[Halfspace, ...]:
        """Equations <c, x> = value describing the affine span."""
        if "span_eq" not in self._cache:
            basis = [list(w) for w in self._norm.basis] or [[0] * self.ambient_dim]
            kers = map(la.primitive, la.kernel_basis(basis))
            self._cache["span_eq"] = tuple(
                sorted((c, la.dot(c, self._norm.base)) for c in kers)
            )
        return self._cache["span_eq"]

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self._lattice().levels))

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.ambient_dim == other.ambient_dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Polytope(dim={self.dim}, ambient={self.ambient_dim}, "
            f"vertices={len(self.vertices)}{label})"
        )

    # -- face lattice ----------------------------------------------------

    def face_lattice(self) -> tuple[Face, ...]:
        """All nonempty faces: `faces(0)` + ... + `faces(dim)`, P itself last."""
        return tuple(f for k in range(self.dim + 1) for f in self.faces(k))

    def _lattice(self) -> _Lattice:
        """The face lattice as ints, built once (`_build_face_lattice`)."""
        if "lattice" not in self._cache:
            self._cache["lattice"] = self._build_face_lattice()
        return self._cache["lattice"]

    def _face(self, mask: int) -> Face:
        """A fresh `Face` for the face with vertex mask `mask`."""
        lattice = self._lattice()
        return Face(self, mask, lattice.facets[mask], lattice.dims[mask])

    def _broken(
        self, identity: str, mask: int | None = None
    ) -> InternalConsistencyError:
        """The error naming a failed identity, P's name and the vertex ids
        of the face with mask `mask` (P by default); it builds no lattice."""
        if mask is None:
            mask = (1 << len(self.vertices)) - 1
        return InternalConsistencyError(
            f"{identity} (polytope {self.name or 'unnamed'}, face {_ids(mask)})"
        )

    def _build_face_lattice(self) -> _Lattice:
        """The face lattice in four int-only maps (`_Lattice`).

        Built in one top-down pass on int bitmasks over the vertex ids, a
        level per dimension. The facets of a face F are the inclusion-maximal
        nonempty cuts F & t over the facet incidences t that do not
        contain F, and the facets of P containing such a child are those
        of F plus the t that cut it, kept as a mask of facet ids. Levels
        and children keep the pass's order, not vertex-id order, and
        `reversed(dims)` retraces the pass, each face after its parents.
        """
        incidence, d, n = self._incidence, self.dim, len(self.vertices)
        top = (1 << n) - 1
        facets, level_of, children = {top: 0}, {top: d}, {}
        if any(t & top == top for t in incidence):
            raise self._broken("the top face lies on a facet")
        pairs = [(t, 1 << j) for j, t in enumerate(incidence)]
        # levels[i] holds the faces of dimension d - i; it grows as it is walked
        levels = [[top]]
        for level in levels:
            below, dim = [], d - len(levels)
            for s in level:
                # s & t == s exactly for the facets t containing s
                cuts: dict[int, int] = {}
                for t, bit in pairs:
                    if (cut := s & t) and cut != s:
                        cuts[cut] = cuts.get(cut, 0) | bit
                # larger cuts first: a cut is maximal unless a kid contains it
                kids: list[int] = []
                for c in sorted(cuts, key=int.bit_count, reverse=True) if cuts else ():
                    for k in kids:
                        if c & k == c:
                            break
                    else:
                        kids.append(c)
                for c in kids:
                    if c not in level_of:
                        facets[c], level_of[c] = facets[s] | cuts[c], dim
                        below.append(c)
                    elif level_of[c] != dim:
                        what = "face appears at two levels of the face lattice"
                        raise self._broken(what, c)
                children[s] = kids
            if below:
                levels.append(below)

        # guardrails: these hold for every polytope and catch a wrong or
        # incomplete facet description at first use
        if len(levels) != d + 1 or set(levels[-1]) != {1 << i for i in range(n)}:
            raise self._broken("vertex missing from face lattice")
        if sum((-1) ** (d - i) * len(level) for i, level in enumerate(levels)) != 1:
            raise self._broken("Euler relation failed")
        levels.reverse()
        dims = dict(reversed(level_of.items()))
        return _Lattice(levels, children, facets, dims)

    def faces(self, k: int) -> tuple[Face, ...]:
        """The k-dimensional faces, sorted by vertex ids; empty outside 0..dim."""
        level = self._lattice().levels[k] if 0 <= k <= self.dim else ()
        return tuple(map(self._face, sorted(level, key=_ids)))

    def top_face(self) -> Face:
        return self._face((1 << len(self.vertices)) - 1)

    def face_children(self, face: Face) -> tuple[Face, ...]:
        """Faces of dimension face.dim - 1 contained in `face`, sorted by
        vertex ids; `face` must be a face of this polytope or of an equal one."""
        if face.owner is not self and face.owner != self:
            raise DomainError("face does not belong to this polytope")
        kids = self._lattice().children[face.mask]
        return tuple(map(self._face, sorted(kids, key=_ids)))

    def edge_graph(self) -> dict[int, tuple[int, ...]]:
        """Vertex id -> sorted ids of neighbors along edges."""
        if "edges" not in self._cache:
            adj = [0] * len(self.vertices)
            for e in self._lattice().levels[1] if self.dim else ():
                for u in _ids(e):
                    adj[u] |= e ^ 1 << u
            self._cache["edges"] = dict(enumerate(map(_ids, adj)))
        return self._cache["edges"]

    # -- predicates ------------------------------------------------------

    def _fan(self) -> tuple[int, ...]:
        """The normal fan: bit j of entry i is set iff vertex i is on facet j."""
        if "fan" not in self._cache:
            fan = [0] * len(self.vertices)
            for j, t in enumerate(self._incidence):
                for i in _ids(t):
                    fan[i] |= 1 << j
            self._cache["fan"] = tuple(fan)
        return self._cache["fan"]

    def is_simple(self) -> bool:
        """True iff every vertex lies on exactly dim(P) facets (equivalently
        edges: its vertex figure is then a simplex)."""
        if "simple" not in self._cache:
            self._cache["simple"] = all(f.bit_count() == self.dim for f in self._fan())
        return self._cache["simple"]

    def is_delzant(self) -> bool:
        """Simple, and the primitive normals of the facets through each
        vertex form a basis of Z^dim (a unimodular normal cone). With facet
        i missing edge i, the normals A and the primitive edge directions E
        give A E^T = diag(a_i . e_i) > 0: either is unimodular iff that is I."""
        if "delzant" not in self._cache:
            normals = [a for a, _ in self._nfacets]
            self._cache["delzant"] = self.is_simple() and all(
                abs(la.det([normals[j] for j in _ids(f)])) == 1 for f in self._fan()
            )
        return self._cache["delzant"]

    # -- transformations ---------------------------------------------------

    def dilate(self, n: int) -> "Polytope":
        """The dilate nP, n >= 1, as the hull of the scaled vertices."""
        if n < 1:
            raise DomainError("dilation factor must be a positive integer")
        if n == 1:
            return self
        return Polytope.from_vertices(
            [tuple(n * x for x in v) for v in self.vertices]
        )

    def unimodular_image(
        self, matrix: Sequence[Sequence[int]], shift: Sequence[int] | None = None
    ) -> "Polytope":
        """Image under an affine unimodular map x -> M x + t."""
        M = [list(r) for r in matrix]
        if len(M) != self.ambient_dim or not la.is_unimodular(M):
            raise DomainError("transform is not an affine unimodular map")
        t = tuple(shift) if shift is not None else (0,) * self.ambient_dim
        mapped = [la.vec_add(la.mat_vec(M, v), t) for v in self.vertices]
        return Polytope.from_vertices(mapped, name=self.name)

    # -- membership ------------------------------------------------------

    def contains(self, point: Sequence) -> bool:
        """Exact membership for a rational point of the ambient space."""
        from fractions import Fraction  # imported on use: it loads `decimal`

        if len(point) != self.ambient_dim:
            raise DomainError("point dimension does not match ambient dimension")
        x = [Fraction(c) for c in point]
        for c, val in self.span_equations:
            if sum(Fraction(ci) * xi for ci, xi in zip(c, x)) != val:
                return False
        for a, b in self.facets:
            if sum(Fraction(ai) * xi for ai, xi in zip(a, x)) < b:
                return False
        return True

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        doc = {}
        if self.name is not None:
            doc["name"] = self.name
        doc["ambient_dim"] = self.ambient_dim
        doc["vertices"] = [list(v) for v in self.vertices]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Polytope":
        if not isinstance(doc, dict):
            raise DomainError("polytope document must be a JSON object")
        if "vertices" not in doc:
            raise DomainError("missing field 'vertices'")
        if "ambient_dim" not in doc:
            raise DomainError("missing field 'ambient_dim'")
        n = doc["ambient_dim"]
        verts = doc["vertices"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise DomainError("field 'ambient_dim' must be a nonnegative integer")
        if not isinstance(verts, list) or not verts:
            raise DomainError("field 'vertices' must be a nonempty array")
        if any(not isinstance(v, list) or len(v) != n for v in verts):
            raise DomainError(_BAD_POINTS)
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise DomainError("field 'name' must be a string")
        try:
            return cls.from_vertices(verts, name=name)
        except DomainError as e:  # the coordinates are checked there, once
            if e.args != (_NOT_INTEGRAL,):
                raise
            raise DomainError(_BAD_POINTS) from None


# ---------------------------------------------------------------------------
# helpers


def _ids(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of `mask`, ascending."""
    ids = []
    while mask:
        ids.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(ids)


# a bad coordinate as `from_vertices` reports it, and as `from_dict` does
_NOT_INTEGRAL = "vertices must have integer coordinates"
_BAD_POINTS = (
    "field 'vertices' must contain integer points of the stated ambient dimension"
)


def _clean_points(points: Iterable[Sequence[int]]) -> list[Point]:
    pts = [tuple(p) for p in points]
    for t in pts:
        if any(not isinstance(c, int) or isinstance(c, bool) for c in t):
            raise DomainError(_NOT_INTEGRAL)
        if len(t) != len(pts[0]):
            raise DomainError("vertices must share one ambient dimension")
    if not pts:
        raise DomainError("a polytope needs at least one vertex")
    return list(dict.fromkeys(pts))


def _is_facet(model: list[Point], starts: int, a: Point, zero: int) -> bool:
    """Whether the points of the mask `zero`, all on a . y = b with a != 0,
    have rank d - 1 = len(a) - 1. d points of the start simplex (mask
    `starts`) have it: independent, they have rank d - 1, and on the
    hyperplane no more. Else one elimination, stopping at d - 1 pivots,
    runs over the differences to the first point with a coordinate j,
    a_j != 0, dropped; as they lie in a^perp, that keeps the rank."""
    if (zero & starts).bit_count() == len(a):
        return True
    first, *rest = _ids(zero)
    cols = zip(*[la.vec_sub(model[i], model[first]) for i in rest])
    j = next(k for k, x in enumerate(a) if x)
    return la.rank([c for k, c in enumerate(cols) if k != j]) == len(a) - 1


def _hull_facet_normals(model: list[Point], start: list[int]) -> list:
    """Primitive inward facet normals of the full dimensional hull of
    `model` in Z^d, by the double description method (Fukuda & Prodon,
    "Double description method revisited", 1996) in exact integers.

    A point v is homogenized as the row (v, -1), so the facets are the
    extreme rays (a, b) of the cone {(a, b) : <a, v> - b >= 0 for every
    point}; it starts from the simplicial cone of `_start_cone` on the
    affinely independent points `start`. Each further row keeps the rays
    on its nonnegative side and joins every adjacent pair it separates,
    by the combinatorial test on zero sets: bitmasks over the point ids,
    returned with the normals, exact since a new ray vanishes on an
    earlier row iff both parents do."""
    d = len(start) - 1
    rows = [v + (-1,) for v in model]
    rays = _start_cone(model, start)
    zeros = [sum(1 << i for i in start if i != j) for j in start]

    for i, row in enumerate(rows):
        if i in start:
            continue
        bit = 1 << i
        vals = [sum(map(mul, r, row)) for r in rays]
        pos = [k for k, s in enumerate(vals) if s > 0]
        neg = [k for k, s in enumerate(vals) if s < 0]
        new_rays, new_zeros = [], []
        for p in pos:
            for q in neg:
                common = zeros[p] & zeros[q]
                if common.bit_count() < d - 1 or any(
                    common & z == common
                    for k, z in enumerate(zeros)
                    if k != p and k != q
                ):
                    continue
                # |val_q| * ray_p + val_p * ray_q vanishes on the new row
                ray = tuple(
                    -vals[q] * x + vals[p] * y for x, y in zip(rays[p], rays[q])
                )
                new_rays.append(la.primitive(ray))
                new_zeros.append(common | bit)
        keep = [k for k, s in enumerate(vals) if s >= 0]
        rays = [rays[k] for k in keep] + new_rays
        zeros = [zeros[k] | bit if vals[k] == 0 else zeros[k] for k in keep]
        zeros += new_zeros
    return [(la.primitive(r[:-1]), z) for r, z in zip(rays, zeros)]


def _start_cone(model: list[Point], start: list[int]) -> list[Point]:
    """The rays of the cone {x : M x >= 0} on the rows (v, -1) of the
    affinely independent points `start`: the columns of adj(M), primitive
    and signed by the one row of M they miss."""
    M = [model[i] + (-1,) for i in start]
    rays = []
    for row, col in zip(M, zip(*la.adjugate(M))):
        r = la.primitive(col)
        rays.append(r if la.dot(r, row) > 0 else tuple(-x for x in r))
    return rays
