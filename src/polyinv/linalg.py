"""Exact integer linear algebra kernels.

Matrices are plain lists of lists of Python ints (row major); vectors are
tuples of ints. Everything here is arbitrary precision and fraction free:
no floats anywhere. Rationals, where they appear at the API edges of other
modules, are `fractions.Fraction`.

One fraction-free elimination, `_eliminate` (Bareiss), serves `det`,
`rank`, `adjugate`, `solve` and `independent_rows`; `adjugate` and
`solve` add one back substitution scaled by its last pivot.
`paired_unimodular_map` is the one place where a unimodular affine map
is solved, by `solve`, from where each point goes, and checked on every
pair. One extended
gcd step, `cut_basis`, splits a lattice along a coordinate, and
`lattice_index` is a product of its contents.

The one normal form, `hermite_normal_form`, is row style with positive
pivots and entries above a pivot reduced into [0, pivot), so outputs are
reproducible. It stays a separate gcd elimination because callers read
its unimodular transform, not only its rank or pivots: the span lattice
bases, and so the model coordinates that `classify` prints, are rows of
it. `affine_normalize` reads the span equations, the saturated direction
lattice and its dual projection off Hermite forms (Cohen, "A Course in
Computational Algebraic Number Theory", 2.4); there is no Smith form.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .errors import DomainError, InternalConsistencyError

Vector = tuple[int, ...]
Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# basic matrix helpers


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(M: Sequence[Sequence[int]]) -> Matrix:
    return [list(row) for row in M]


def transpose(M: Sequence[Sequence[int]]) -> Matrix:
    if not M:
        return []
    return [[M[i][j] for i in range(len(M))] for j in range(len(M[0]))]


def mat_vec(A: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    return tuple(sum(map(operator.mul, row, v)) for row in A)


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def vec_sub(a: Sequence[int], b: Sequence[int]) -> Vector:
    return tuple(map(operator.sub, a, b))


def vec_add(a: Sequence[int], b: Sequence[int]) -> Vector:
    return tuple(map(operator.add, a, b))


# ---------------------------------------------------------------------------
# one fraction-free elimination (Bareiss) and the kernels that read it


def _eliminate(rows: Iterable[Sequence[int]], n: int) -> tuple[Matrix, int, int, int]:
    """Bareiss forward elimination over the first n columns of `rows`.

    Returns (a, r, sign, p): the rows in echelon form (columns past n,
    such as a right-hand side, are carried along), the rank r of the
    first n columns, the sign of the row swaps and the last pivot. A
    column without a pivot is skipped. After k pivots every entry below
    them is a (k + 1)-minor of the swapped rows, so each division by the
    previous pivot is exact (Bareiss 1968); with r = n the last pivot
    is the determinant of the top n rows as swapped.
    """
    a = [list(row) for row in rows]
    m = len(a)
    width = len(a[0]) if m else 0
    r, sign, prev = 0, 1, 1
    for col in range(n):
        for piv in range(r, m):
            if a[piv][col]:
                break
        else:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[col]
        for i in range(r + 1, m):
            row = a[i]
            f = row[col]
            for j in range(col + 1, width):
                row[j] = (row[j] * p - f * top[j]) // prev
            row[col] = 0
        prev = p
        r += 1
        if r == m:
            break
    return a, r, sign, prev


def _back_substitute(a: Matrix, n: int, p: int) -> Matrix:
    """p X for the X with A X = B, where the first n rows of `a` are the
    elimination of [A | B], A square of full rank, and p is its last
    pivot, det A. p X = adj(A) B is integral, so every division is
    exact."""
    X: Matrix = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = [p * x for x in row[n:]]
        for j in range(i + 1, n):
            f = row[j]
            if f:
                acc = [x - f * y for x, y in zip(acc, X[j])]
        X[i] = [x // row[i] for x in acc]
    return X


def det(M: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise DomainError("determinant of a non-square matrix")
    _, r, sign, p = _eliminate(M, n)
    return sign * p if r == n else 0


def rank(M: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    return _eliminate(M, len(M[0]) if M else 0)[1]


def adjugate(M: Sequence[Sequence[int]]) -> Matrix:
    """adj(M) = det(M) M^-1 of a nonsingular square integer matrix. The
    back substitution of [M | I] gives p M^-1, where the last pivot p is
    det(M) times the sign of the row swaps."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise DomainError("adjugate of a non-square matrix")
    a, r, sign, p = _eliminate(([*row, *e] for row, e in zip(M, identity(n))), n)
    if r < n:
        raise DomainError("adjugate of a singular matrix")
    return [[sign * x for x in row] for row in _back_substitute(a, n, p)]


def solve(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], n: int):
    """The integer X with A X = B for A with n columns, solved from the
    top n rows of the elimination of [A | B], or None if A has lower
    rank or X is not integral. The other rows are not checked."""
    a, r, _, p = _eliminate(([*ra, *rb] for ra, rb in zip(A, B)), n)
    if r < n:
        return None
    pX = _back_substitute(a, n, p)
    if any(x % p for row in pX for x in row):
        return None
    return [[x // p for x in row] for row in pX]


def independent_rows(rows: Sequence[Sequence[int]], k: int) -> list[int]:
    """Ids of the first k rows, greedily, each independent of the rows
    before it; fewer when the rows have lower rank. They are the pivot
    columns of the transpose's echelon form."""
    a, r, _, _ = _eliminate(transpose(rows), len(rows))
    return [next(j for j, x in enumerate(row) if x) for row in a[:min(r, k)]]


# ---------------------------------------------------------------------------
# Hermite normal form


def hermite_normal_form(M: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U * M = H, det(U) = +-1, pivot entries of H
    positive and entries above each pivot reduced into [0, pivot).
    """
    H = copy_matrix(M)
    m = len(H)
    n = len(H[0]) if m else 0
    U = identity(m)
    r = 0
    for col in range(n):
        # gather the gcd of column `col` into row r, zeroing the rows below
        piv = None
        for i in range(r, m):
            if H[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            H[r], H[piv] = H[piv], H[r]
            U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            while H[i][col] != 0:
                q = H[r][col] // H[i][col]
                for j in range(n):
                    H[r][j] -= q * H[i][j]
                for j in range(m):
                    U[r][j] -= q * U[i][j]
                H[r], H[i] = H[i], H[r]
                U[r], U[i] = U[i], U[r]
        if H[r][col] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        # reduce the entries above the pivot
        p = H[r][col]
        for i in range(r):
            q = H[i][col] // p
            if q:
                for j in range(n):
                    H[i][j] -= q * H[r][j]
                for j in range(m):
                    U[i][j] -= q * U[r][j]
        r += 1
        if r == m:
            break
    return H, U


def is_unimodular(M: Sequence[Sequence[int]]) -> bool:
    n = len(M)
    if any(len(row) != n for row in M):
        return False
    return abs(det(M)) == 1


def paired_unimodular_map(
    src: Sequence[Sequence[int]], dst: Sequence[Sequence[int]]
) -> tuple[Matrix, Vector] | None:
    """A pair (M, t), M integral with det +-1, such that M src[i] + t =
    dst[i] for every i, or None if there is none.

    The points of `src` must affinely span their space. M is solved from
    a frame at src[0], differences src[i] - src[0] of full rank that the
    elimination pivots on, and then checked on every pair.
    """
    p0, q0 = src[0], dst[0]
    X = solve([vec_sub(p, p0) for p in src[1:]], [vec_sub(q, q0) for q in dst[1:]], len(p0))
    if X is None:
        return None
    M = transpose(X)
    if not is_unimodular(M):
        return None
    t = vec_sub(q0, mat_vec(M, p0))
    for p, q in zip(src, dst):
        if vec_add(mat_vec(M, p), t) != tuple(q):
            return None
    return M, t


def kernel_basis(M: Sequence[Sequence[int]]) -> list[Vector]:
    """Basis of the integer kernel {x : M x = 0}, a saturated lattice: the
    rows of the HNF transform U aligned with zero rows of H = U M^T."""
    if not M or not M[0]:
        return []
    H, U = hermite_normal_form(transpose(M))
    return [tuple(u) for u, h in zip(U, H) if not any(h)]


# ---------------------------------------------------------------------------
# primitive vectors and lattice indices


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def primitive(v: Sequence[int]) -> Vector:
    """v divided by the gcd of its entries; direction is preserved."""
    g = math.gcd(*v)
    if g == 0:
        raise DomainError("zero vector has no primitive representative")
    return tuple(v) if g == 1 else tuple(x // g for x in v)


def lattice_index(gens: Sequence[Sequence[int]]) -> int:
    """Index of the lattice spanned by `gens` inside (span of gens) cap Z^n.

    Equals the number of lattice points in the half-open parallelotope
    spanned by the generators, and the product of the Smith diagonal
    entries of the k x n generator matrix, which is also the index in
    Z^k of the lattice its columns generate. That index is the product
    of the contents that successive `cut_basis` steps read off the
    columns, one coordinate of Z^k at a time; a zero content means the
    columns do not span Z^k, so the generators are dependent.
    """
    basis = list(zip(*gens))
    index = 1
    for j in range(len(gens)):
        g, basis = cut_basis(basis, j)
        if not g:
            raise DomainError("generators not independent")
        index *= g
    return index


def cut_basis(basis: Sequence[Sequence[int]], j: int) -> tuple[int, list]:
    """(g, rest) for a basis of a lattice L in Z^m and a coordinate j:
    g >= 0 is the content of x_j on L, the gcd of the j-th entries of the
    basis, and `rest` is a basis of L cap {x_j = 0}. Extended gcd steps
    on the basis vectors (unimodular column operations) send those
    entries to (g, 0, ..., 0); `rest` is every vector but the first.
    g = 0 when x_j vanishes on L. The same holds for any generating set
    of L in place of a basis, with `rest` generating L cap {x_j = 0}."""
    if not basis:
        return 0, []
    first, rest = basis[0], []
    for c in basis[1:]:
        if c[j]:
            g, x, z = _xgcd(first[j], c[j])
            p, q = first[j] // g, c[j] // g
            first, c = (
                tuple([x * u + z * w for u, w in zip(first, c)]),
                tuple([p * w - q * u for u, w in zip(first, c)]),
            )
        rest.append(c)
    if not first[j]:
        return 0, list(basis)
    return abs(first[j]), rest


# ---------------------------------------------------------------------------
# affine lattice normalization


class AffineNormalization(namedtuple("AffineNormalization", "matrix base basis dim")):
    """Affine change of coordinates onto the lattice of an affine span.

    `forward` maps Z^n integer points to Z^d by x -> A (x - base); restricted
    to (affine span of the inputs) cap Z^n it is a bijection onto Z^d.
    `backward` is its exact inverse on the span: y -> base + y . basis.
    The basis rows generate the saturated direction lattice of the span.
    Immutable fields: `matrix` (A), `base`, `basis` and `dim` (d).
    """

    __slots__ = ()

    def forward(self, point: Sequence[int]) -> Vector:
        diff = vec_sub(point, self.base)
        return tuple(sum(map(operator.mul, row, diff)) for row in self.matrix)

    def backward(self, coords: Sequence[int]) -> Vector:
        out = list(self.base)
        for c, row in zip(coords, self.basis):
            for j, x in enumerate(row):
                out[j] += c * x
        return tuple(out)


def affine_normalize(points: Sequence[Sequence[int]]) -> AffineNormalization:
    """Normalize lattice points onto the full lattice of their span."""
    return affine_model(points)[0]


def affine_model(points: Sequence[Sequence[int]]) -> tuple:
    """(norm, model, start): `affine_normalize(points)`, the images
    `norm.forward(p)` from its round-trip check, and the first dim + 1
    affinely independent point ids, greedily from the least point `base`.

    Hermite forms only. Of the HNF of diffs^T, the transform rows at zero
    rows are the span equations and the pivot columns the rest of `start`.
    The equations' kernel is the saturated direction lattice; its row HNF
    is `basis` (W). The HNF transform of W^T brings it to [I_d; 0], so its
    first d rows are `matrix`: A W^T = I_d. With no equations W = I_n is
    its own Hermite form, with transform I_n, and neither is computed.
    `forward` is thus a bijection of the span's lattice points onto Z^d,
    so `start` stays independent: (0, 0)-(2, 2) goes to [0, 2], midpoint too."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise DomainError("affine_normalize needs at least one point")
    n = len(pts[0])
    base = min(pts)
    start = [pts.index(base)]
    others = [i for i, p in enumerate(pts) if p != base]
    if not others or n == 0:
        return AffineNormalization((), base, (), 0), [()] * len(pts), start

    diffs = [vec_sub(pts[i], base) for i in others]
    H, U = hermite_normal_form(transpose(diffs))
    equations = [u for u, h in zip(U, H) if not any(h)]
    d = n - len(equations)
    start += [others[next(j for j, x in enumerate(h) if x)] for h in H[:d]]
    W = U = identity(n)  # no equations: HNF(I_n^T) = (I_n, I_n)
    if equations:
        # the row lattice of the kernel is saturated; HNF makes W canonical
        Wh, _ = hermite_normal_form(kernel_basis(equations))
        W = [row for row in Wh if any(row)]
        if len(W) != d:
            raise _broken_span("saturation basis lost rank", pts)
        H, U = hermite_normal_form(transpose(W))
        if H != [row[:d] for row in identity(n)]:
            raise _broken_span("span lattice basis is not saturated", pts)

    norm = AffineNormalization(
        matrix=tuple(tuple(r) for r in U[:d]),
        base=base,
        basis=tuple(tuple(r) for r in W),
        dim=d,
    )
    model = [norm.forward(p) for p in pts]
    if list(map(norm.backward, model)) != pts:
        raise _broken_span("affine normalization failed to invert", pts)
    return norm, model, start


def _broken_span(identity: str, points: list[Vector]) -> InternalConsistencyError:
    """A failed identity of `affine_model` or the hull, naming the points."""
    return InternalConsistencyError(f"{identity} (points {tuple(points)})")


def bounding_box(points: Iterable[Sequence[int]]) -> tuple[Vector, Vector]:
    """Componentwise (min, max) over a nonempty point collection."""
    pts = list(points)
    lo = tuple(min(p[i] for p in pts) for i in range(len(pts[0])))
    hi = tuple(max(p[i] for p in pts) for i in range(len(pts[0])))
    return lo, hi
