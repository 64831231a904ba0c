"""Seeded inputs for the polyinv benchmark, each with its expected answer.

Standard library only: this module never imports polyinv, so the
expected values below are independent of the code under test. Every
input is a polytope JSON document written from its family's vertices
(a join's vertices are (v, e_i), a product's are (v, w)) and moved by a
random lattice map. Its expectation comes from closed forms:

* a *face table* lists, for each kind of face, its dimension, how many
  faces of that kind there are, their normalized volume and the lattice
  point count of their n-th dilate. Simplices s*Delta_d, hypersimplices
  Delta(k, n) and their products have exact tables, and so do
  projective joins of identical copies (a join of k+1 copies of P is
  P x Delta_k). From a table follow the f-vector, the volume, every
  c_t and the f-polynomial;
* a 0/1 point set has only its own points as lattice points, and each
  is a vertex;
* a projective join of k+1 fibers of dimension m has dual defect
  2k - (m + k), and the Segre product Delta_a x Delta_b has defect
  |a - b| (none when a = b).

`generate(workload, seed)` returns a list of `Case`s; the same seed
always gives byte-identical inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, gcd
from typing import Callable, Optional

WORKLOADS = {
    # name: (CLI command, why)
    "vrep_info": (
        "info",
        "vertex-only inputs in dim 4-5 with redundant points, sheared: "
        "the hull (kernel_basis per candidate subset) dominates",
    ),
    "dilated_invariants": (
        "invariants",
        "few vertices, large volume, only signed permutations: lattice "
        "counting dominates; shears are left out because counting scans "
        "the bounding box",
    ),
    "join_classify": (
        "classify",
        "sheared projective joins and Segre products: the only workload "
        "that runs the classifier, equivalence and join construction",
    ),
}


@dataclass(frozen=True)
class Case:
    """One benchmark input and what its output must satisfy."""

    label: str
    data: bytes
    check: Callable[[dict], Optional[str]]  # returns a mismatch, or None


# ---------------------------------------------------------------------------
# lattice maps


def _signed_permutation(n: int, rng: random.Random) -> list[list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [
        [rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)]
        for i in range(n)
    ]


def _shear(n: int, rng: random.Random) -> list[list[int]]:
    """A signed permutation times n random elementary operations
    row_i += +-row_j: unimodular with small entries."""
    M = _signed_permutation(n, rng)
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
    return M


def _move(points, M, shift) -> list[list[int]]:
    return [
        [sum(m * x for m, x in zip(row, p)) + s for row, s in zip(M, shift)]
        for p in points
    ]


def _document(points, rng: random.Random) -> bytes:
    points = [list(p) for p in points]
    rng.shuffle(points)
    doc = {"ambient_dim": len(points[0]), "vertices": points}
    return json.dumps(doc, separators=(",", ":")).encode("ascii")


def _affine_rank(points) -> int:
    base = points[0]
    rows = [[Fraction(x - b) for x, b in zip(p, base)] for p in points[1:]]
    rank = 0
    ncols = len(base)
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# face tables


@dataclass(frozen=True)
class FaceKind:
    dim: int
    number: int  # faces of this kind
    nvol: int  # dim! * lattice volume of each
    count: Callable[[int], int]  # lattice points of the n-th dilate of each


def _simplex_table(d: int, s: int = 1) -> list[FaceKind]:
    """s * Delta_d."""
    return [
        FaceKind(k, comb(d + 1, k + 1), s**k, lambda n, k=k: comb(s * n + k, k))
        for k in range(d + 1)
    ]


def _eulerian(m: int, j: int) -> int:
    """Permutations of m letters with j descents."""
    return sum((-1) ** i * comb(m + 1, i) * (j + 1 - i) ** m for i in range(j + 1))


def _box_slice(width: int, total: int, n: int) -> int:
    """Points y of [0, n]^width with coordinate sum `total`."""
    return sum(
        (-1) ** j * comb(width, j) * comb(total - j * (n + 1) + width - 1, width - 1)
        for j in range(width + 1)
        if total - j * (n + 1) >= 0
    )


def _hypersimplex_table(k: int, n: int, s: int = 1) -> list[FaceKind]:
    """s * Delta(k, n). A face of dim >= 1 fixes a coordinates to 1 and b to
    0 and is Delta(k - a, n - a - b); distinct (a, b)-sets give distinct
    faces as long as 1 <= k - a <= n - a - b - 1."""
    table = [FaceKind(0, comb(n, k), 1, lambda t: 1)]
    for a in range(k):
        for b in range(n - k):
            w, kk = n - a - b, k - a
            if not 1 <= kk <= w - 1:
                continue
            table.append(
                FaceKind(
                    w - 1,
                    comb(n, a) * comb(n - a, b),
                    s ** (w - 1) * _eulerian(w - 1, kk - 1),
                    lambda t, w=w, kk=kk: _box_slice(w, kk * s * t, s * t),
                )
            )
    return table


def _product_table(P: list[FaceKind], Q: list[FaceKind]) -> list[FaceKind]:
    return [
        FaceKind(
            F.dim + G.dim,
            F.number * G.number,
            comb(F.dim + G.dim, F.dim) * F.nvol * G.nvol,
            lambda n, F=F, G=G: F.count(n) * G.count(n),
        )
        for F in P
        for G in Q
    ]


def _rising(d: int, t: int) -> int:
    out = 1
    for i in range(d + 1, d + t + 1):
        out *= i
    return out


def _interpolate(values: list[tuple[int, int]]) -> list[Fraction]:
    """Ascending coefficients of the polynomial through the points (Lagrange)."""
    k = len(values)
    coeffs = [Fraction(0)] * k
    for i, (xi, yi) in enumerate(values):
        basis = [Fraction(1)]
        denom = 1
        for j, (xj, _) in enumerate(values):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for m in range(len(basis) - 1):
                basis[m] -= xj * basis[m + 1]
            denom *= xi - xj
        for m in range(k):
            coeffs[m] += Fraction(yi, denom) * basis[m]
    return coeffs


@dataclass(frozen=True)
class Expected:
    """Every number of an info/invariants report that a face table fixes."""

    dim: int
    f_vector: list[int]
    nvol: int
    points: int
    c_t: dict[int, int]
    f_coefficients: list[int]

    @classmethod
    def from_table(cls, table: list[FaceKind]) -> "Expected":
        r = max(F.dim for F in table)
        f_vector = [sum(F.number for F in table if F.dim == k) for k in range(r + 1)]
        top = next(F for F in table if F.dim == r)

        def c_t(t):
            return sum(
                (-1) ** (r - F.dim) * F.number * _rising(F.dim, t) * F.nvol
                for F in table
            )

        def f_value(n):
            return sum(
                (-n) ** (r - F.dim) * factorial(F.dim + 1) * F.number * F.count(n)
                for F in table
            )

        coeffs = _interpolate([(n, f_value(n)) for n in range(r + 1)])
        return cls(
            dim=r,
            f_vector=f_vector,
            nvol=top.nvol,
            points=top.count(1),
            c_t={t: c_t(t) for t in range(5)},
            f_coefficients=[int(x) for x in coeffs],
        )


def _mismatch(out: dict, want: dict) -> Optional[str]:
    for key, value in want.items():
        if out.get(key) != value:
            return f"{key}: got {out.get(key)!r}, want {value!r}"
    return None


def _info_check(exp: Expected, ambient: int, delzant: bool):
    """Every family here is either Delzant or not simple."""
    want = {
        "ambient_dim": ambient,
        "dim": exp.dim,
        "n_vertices": exp.f_vector[0],
        "n_facets": exp.f_vector[-2],
        "f_vector": exp.f_vector,
        "is_simple": delzant,
        "is_delzant": delzant,
        "normalized_volume": exp.nvol,
        "volume": str(Fraction(exp.nvol, factorial(exp.dim))),
        "lattice_points": exp.points,
    }
    return lambda out: _mismatch(out, want)


def _invariants_check(exp: Expected, ambient: int, delzant: bool):
    c = exp.c_t[1]
    want = {
        "ambient_dim": ambient,
        "dim": exp.dim,
        "c": c,
        "c_t": {str(t): v for t, v in exp.c_t.items()},
        "f_coefficients": exp.f_coefficients,
    }
    if delzant:
        want["c_star"] = str(c)
        want["dual_degree"] = c if c > 0 else None
    return lambda out: _mismatch(out, want)


# ---------------------------------------------------------------------------
# family vertices


def _simplex_vertices(d: int, s: int = 1) -> list[tuple[int, ...]]:
    return [tuple(0 for _ in range(d))] + [
        tuple(s if j == i else 0 for j in range(d)) for i in range(d)
    ]


def _hypersimplex_vertices(k: int, n: int, s: int = 1) -> list[tuple[int, ...]]:
    return [
        tuple(s if i in chosen else 0 for i in range(n))
        for chosen in combinations(range(n), k)
    ]


def _product_vertices(P, Q) -> list[tuple[int, ...]]:
    return [tuple(v) + tuple(w) for v in P for w in Q]


def _join_vertices(fibers) -> list[tuple[int, ...]]:
    """Projective join: fiber i sits at height e_i of the standard k-simplex
    (fiber 0 at the origin)."""
    k = len(fibers) - 1
    return [
        tuple(v) + tuple(1 if j == i - 1 else 0 for j in range(k))
        for i, fiber in enumerate(fibers)
        for v in fiber
    ]


def _with_midpoints(vertices, extra: int, rng: random.Random):
    """Add `extra` distinct integral midpoints of vertex pairs; none of them
    is a vertex, so they are redundant hull input."""
    verts = [tuple(v) for v in vertices]
    vset = set(verts)
    mids = []
    pairs = [
        (v, w)
        for v, w in combinations(verts, 2)
        if all((a + b) % 2 == 0 for a, b in zip(v, w))
    ]
    rng.shuffle(pairs)
    for v, w in pairs:
        if len(mids) == extra:
            break
        m = tuple((a + b) // 2 for a, b in zip(v, w))
        if m not in vset and m not in mids:
            mids.append(m)
    return verts + mids


# ---------------------------------------------------------------------------
# workloads


def _moved(points, rng: random.Random, shear: bool) -> bytes:
    """The points under a random unimodular shear (or, with shear=False,
    a signed permutation) and a translation, in random order."""
    n = len(points[0])
    M = _shear(n, rng) if shear else _signed_permutation(n, rng)
    shift = [rng.randint(-3, 3) for _ in range(n)]
    return _document(_move(points, M, shift), rng)


def _vrep_info(rng: random.Random) -> list[Case]:
    """Sheared V-representations in dims 4-5 with 10-16 input points.

    Calls stay short (8-25 ms; 2cube4 about 55 ms) so that each input
    repeats often within a run; hypersimplex(2,6), with 15 vertices, would
    take 150-200 ms a call."""
    square2 = _product_vertices(_simplex_vertices(1, 2), _simplex_vertices(1, 2))
    square2_table = _product_table(_simplex_table(1, 2), _simplex_table(1, 2))
    families = [
        # label, vertices, face table, Delzant (= simple here), redundant points
        ("2hyper(2,5)", _hypersimplex_vertices(2, 5, 2), _hypersimplex_table(2, 5, 2),
         False, 1),
        ("2D2x2D2", _product_vertices(_simplex_vertices(2, 2), _simplex_vertices(2, 2)),
         _product_table(_simplex_table(2, 2), _simplex_table(2, 2)), True, 1),
        ("2D1x2D3", _product_vertices(_simplex_vertices(1, 2), _simplex_vertices(3, 2)),
         _product_table(_simplex_table(1, 2), _simplex_table(3, 2)), True, 2),
        ("2D1x2D4", _product_vertices(_simplex_vertices(1, 2), _simplex_vertices(4, 2)),
         _product_table(_simplex_table(1, 2), _simplex_table(4, 2)), True, 0),
        ("join4(2seg)", _join_vertices([_simplex_vertices(1, 2)] * 4),
         _product_table(_simplex_table(1, 2), _simplex_table(3)), True, 2),
        ("join5(2seg)", _join_vertices([_simplex_vertices(1, 2)] * 5),
         _product_table(_simplex_table(1, 2), _simplex_table(4)), True, 0),
        ("2cube4", _product_vertices(square2, square2),
         _product_table(square2_table, square2_table), True, 0),
    ]
    expected = {label: Expected.from_table(table) for label, _, table, _, _ in families}
    cases = []
    for rnd in range(12):
        # Three inputs of a round cost about 10 ms a call and six about
        # 15 ms (2cube4, in every fourth round, 55 ms). p50 and p90 then
        # both fall well inside the 15 ms group, whose cost the seed
        # hardly changes, and not on the step between two groups.
        for label, verts, _, delzant, extra in families[:6 if rnd % 4 else 7]:
            pts = _with_midpoints(verts, extra, rng)
            check = _info_check(expected[label], len(pts[0]), delzant)
            cases.append(Case(label, _moved(pts, rng, shear=True), check))
        for _ in range(3):
            while True:
                pts = rng.sample(list(product((0, 1), repeat=4)), 11)
                if _affine_rank(pts) == 4:
                    break
            want = {"ambient_dim": 4, "dim": 4, "n_vertices": 11, "lattice_points": 11}
            cases.append(Case("01set(4,11)", _moved(pts, rng, shear=True),
                              lambda out, want=want: _mismatch(out, want)))
    return cases


def _det(M: list[list[int]]) -> int:
    """Exact determinant by Bareiss elimination."""
    M = [list(r) for r in M]
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1] if n else 1


def _simplex_face_nvol(vertices) -> int:
    """nvol of a lattice simplex in its own span lattice: the gcd of the
    maximal minors of its edge matrix."""
    k = len(vertices) - 1
    if k == 0:
        return 1
    edges = [[a - b for a, b in zip(v, vertices[0])] for v in vertices[1:]]
    g = 0
    for cols in combinations(range(len(edges[0])), k):
        g = gcd(g, _det([[row[c] for c in cols] for row in edges]))
    return g


def _random_simplex_check(vertices, ambient: int):
    """c and c_t from per-face volumes; f(P, 0) = (r+1)! and d_r = c."""
    r = len(vertices) - 1
    nvol_by_dim = [0] * (r + 1)
    for k in range(r + 1):
        for face in combinations(vertices, k + 1):
            nvol_by_dim[k] += _simplex_face_nvol(face)
    c_t = {
        t: sum((-1) ** (r - k) * _rising(k, t) * nvol_by_dim[k] for k in range(r + 1))
        for t in range(5)
    }
    want = {"ambient_dim": ambient, "dim": r, "c": c_t[1],
            "c_t": {str(t): v for t, v in c_t.items()}}

    def check(out):
        f = out.get("f_coefficients") or [None]
        if f[0] != factorial(r + 1) or f[-1] != c_t[1]:
            return f"f_coefficients ends: got {f[0]!r}, {f[-1]!r}"
        return _mismatch(out, want)

    return check


def _dilated_invariants(rng: random.Random) -> list[Case]:
    """Few vertices and large volume under signed permutations only."""
    cube32 = _product_vertices(_simplex_vertices(1, 2), _product_vertices(
        _simplex_vertices(1, 2), _simplex_vertices(1, 2)))
    cube32_table = _product_table(_simplex_table(1, 2), _product_table(
        _simplex_table(1, 2), _simplex_table(1, 2)))
    families = [
        # label, vertices, face table, Delzant
        *[(f"{s}D3", _simplex_vertices(3, s), _simplex_table(3, s), True)
          for s in (3, 4, 5)],
        ("2D4", _simplex_vertices(4, 2), _simplex_table(4, 2), True),
        *[("cube(3,2)", cube32, cube32_table, True)] * 2,
        ("hyper(2,5)", _hypersimplex_vertices(2, 5), _hypersimplex_table(2, 5), False),
    ]
    expected = {label: Expected.from_table(table) for label, _, table, _ in families}
    cases = []
    for rnd in range(14):
        # The orientation moves a simplex's counting cost by 10-18%, the
        # cube's not at all. Two cubes a round put p50 among the cubes;
        # hyper(2,5) in every fourth round puts p90 among the 2D4s.
        for label, verts, _, delzant in families[:6 if rnd % 4 else 7]:
            check = _invariants_check(expected[label], len(verts[0]), delzant)
            cases.append(Case(label, _moved(verts, rng, shear=False), check))
        while True:
            verts = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(4)]
            if _affine_rank(verts) == 3:
                break
        cases.append(Case("rand-simplex3", _moved(verts, rng, shear=False),
                          _random_simplex_check(verts, 3)))
    return cases


def _classify_check(verdict: str, defect: Optional[int]):
    want = {"verdict": verdict, "defect": defect}
    return lambda out: _mismatch(out, want)


def _join_classify(rng: random.Random) -> list[Case]:
    """Sheared projective joins (defect 2k - r) and Segre products
    Delta_a x Delta_b (defect |a - b|, none when a = b)."""
    polygons = [  # Delzant fibers: one of them, four times, makes a k = 3 join
        [(0, 0), (1, 0), (0, 1)],
        [(0, 0), (2, 0), (0, 2)],
    ]
    small_fibers = [[(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1), (1, 1)]]
    segre = [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2)]
    cases = []

    def join(label, fibers, m):
        """k+1 fibers of dim m: dual defect 2k - (m + k) when positive."""
        defect = len(fibers) - 1 - m
        verdict = ("defect", defect) if defect > 0 else ("non-defect", None)
        cases.append(Case(label, _moved(_join_vertices(fibers), rng, shear=True),
                          _classify_check(*verdict)))

    def segre_product(a, b):
        verts = _product_vertices(_simplex_vertices(a), _simplex_vertices(b))
        verdict = ("non-defect", None) if a == b else ("defect", abs(a - b))
        cases.append(Case(f"D{a}xD{b}", _moved(verts, rng, shear=True),
                          _classify_check(*verdict)))

    for rnd in range(10):
        for k in (2, 3):
            join(f"join{k + 1}(seg)",
                 [[(0,), (rng.randint(1, 3),)] for _ in range(k + 1)], 1)
        join("join3(polygon)", [small_fibers[rnd % 2]] * 3, 2)
        for a, b in segre:
            segre_product(a, b)
        # the largest inputs in every other round: five joins of polygons,
        # then fifteen inputs of about equal cost that hold p90
        if rnd % 2:
            join("join5(seg)", [[(0,), (rng.randint(1, 3),)] for _ in range(5)], 1)
            segre_product(1, 4)
        else:
            join("join4(polygon)", [polygons[rnd // 2 % 2]] * 4, 2)
            segre_product(4, 1)
    return cases


def generate(workload: str, seed: int) -> list[Case]:
    return globals()["_" + workload](random.Random(seed))
