"""Independent brute-force oracles for the test suite.

Everything here is deliberately written from scratch against the same
mathematical definitions the library implements, sharing no code with
it: exact rational Gaussian elimination, determinants as signed
permutation sums, a tiny phase-I simplex over integer rows for
feasibility questions, supporting-hyperplane face detection by subset
enumeration, the graded face lattice pass on frozensets, facets by
hyperplanes through every affinely independent point subset,
half-open parallelotope point counts, and bounding-box lattice counts
with convex-hull membership tests. The last section keeps retired
library routines (the Smith normal form, the Smith route to
`affine_normalize`, the per-face normalized box scan, the per-face
interval scan in P's model, the hull's start cone from one kernel per
start row, simplicity and the Delzant test on the edge graph, the
per-face `Fraction` sum of `c_star`, multiplicities from each face's
content against its first parent, volumes from a pulling triangulation, the structural Ehrhart build by reciprocity over
each face's proper faces and the two matrix helpers it all used,
`mat_mul` and `unimodular_inverse`) as differential oracles, and the
carrier table of nP by a walk of the dilated box in P's model; those
build on the library.
Slow on purpose; used only at desk scale.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, gcd

from polyinv import linalg as la, mult, normalized_volume
from polyinv import volumes as vol
from polyinv.errors import DomainError


# ---------------------------------------------------------------------------
# exact rational gaussian elimination


def gauss_rank(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col] / a[r][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def affine_dim(points):
    pts = [tuple(p) for p in points]
    if not pts:
        return -1
    base = pts[0]
    return gauss_rank([[x - y for x, y in zip(p, base)] for p in pts[1:]])


def gauss_solve(A, b):
    """One solution of A x = b over the rationals, or None."""
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if aug[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][col] for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = aug[i][n]
    return x


def leibniz_det(M):
    """Determinant as the signed sum over permutations (Leibniz)."""
    total = 0
    for perm in itertools.permutations(range(len(M))):
        inversions = sum(
            perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
        )
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= M[i][j]
        total += term
    return total


def gauss_kernel(rows, n):
    """Basis of {x in Q^n : r . x = 0 for every row r}, one vector per
    free column of the reduced row echelon form."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, len(a)):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    out = []
    for free in range(n):
        if free in pivots:
            continue
        x = [Fraction(0)] * n
        x[free] = Fraction(1)
        for i, col in enumerate(pivots):
            x[col] = -a[i][free]
        out.append(x)
    return out


def _integral_primitive(v):
    """The primitive integer vector with the direction of a rational one."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# phase-I simplex feasibility, Bland's rule, exact integer rows


def lp_feasible(A, b):
    """Is there x >= 0 with A x = b, for integer A and b? Exact. Each
    tableau row, right-hand side last, and the objective are kept in
    integers up to a positive scale: the ratio test cross-multiplies, and
    a pivot sends a row to piv * row - a * leave over its gcd. Every
    decision reads a sign or a ratio, which the scales leave alone, so
    Bland's rule picks the pivots of the tableau over the rationals."""
    m = len(A)
    n = len(A[0]) if m else 0
    total = n + m
    T = []
    for i in range(m):
        sign = -1 if b[i] < 0 else 1
        unit = [1 if j == i else 0 for j in range(m)]
        T.append([sign * x for x in A[i]] + unit + [sign * b[i]])
    basis = [n + i for i in range(m)]
    obj = [-sum(row[j] for row in T) for j in range(total + 1)]
    for j in range(n, total):
        obj[j] += 1

    while True:
        enter = None
        for j in range(total):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        for i in range(m):
            if T[i][enter] > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / T_i < rhs_l / T_l, both pivots positive
                cross = T[i][total] * T[leave][enter] - T[leave][total] * T[i][enter]
                if cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            break
        row = T[leave]
        piv = row[enter]
        for i in range(m):
            a = T[i][enter]
            if i != leave and a != 0:
                T[i] = _reduced([piv * x - a * y for x, y in zip(T[i], row)])
        a = obj[enter]
        if a != 0:
            obj = _reduced([piv * x - a * y for x, y in zip(obj, row)])
        basis[leave] = enter
    return obj[total] == 0


def _reduced(row):
    """An integer row divided by the gcd of its entries, a positive scale."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


# ---------------------------------------------------------------------------
# faces by supporting hyperplanes


def _separating_functional_exists(tight, strict):
    """Is there a with <a, d> = 0 for d in tight and <a, d> >= 1 in strict?"""
    if not strict:
        return True
    n = len(strict[0])
    rows = []
    rhs = []
    for d in tight:
        rows.append(list(d) + [-x for x in d] + [0] * len(strict))
        rhs.append(0)
    for idx, d in enumerate(strict):
        slack = [0] * len(strict)
        slack[idx] = -1
        rows.append(list(d) + [-x for x in d] + slack)
        rhs.append(1)
    return lp_feasible(rows, rhs)


def face_vertex_sets(vertices):
    """All vertex subsets that are the exact tight set of a supporting
    hyperplane, plus the improper face. Brute force over all subsets."""
    V = [tuple(v) for v in vertices]
    ids = range(len(V))
    out = {frozenset(ids)}
    for size in range(1, len(V)):
        for S in itertools.combinations(ids, size):
            v0 = V[S[0]]
            tight = [
                tuple(x - y for x, y in zip(V[i], v0)) for i in S[1:]
            ]
            strict = [
                tuple(x - y for x, y in zip(V[i], v0))
                for i in ids
                if i not in S
            ]
            if _separating_functional_exists(tight, strict):
                out.add(frozenset(S))
    return out


# ---------------------------------------------------------------------------
# face lattice from facet incidences


def frozenset_face_lattice(n_vertices, incidence_sets):
    """The face lattice of a polytope from its facet incidences, by the
    graded pass on frozensets that the library ran before its bitmask one.

    Top down, one level per dimension: the facets of a face F are the
    inclusion-maximal nonempty sets F & t over the incidences t that do
    not contain F, and the facets of P containing such a child are those
    of F plus the t that cut it. Returns {vertex id set: (facet id set,
    dim, children)}, the children sorted by their sorted vertex ids.
    """
    incidence = [frozenset(t) for t in incidence_sets]
    top = frozenset(range(n_vertices))
    facet_ids = {top: frozenset(j for j, t in enumerate(incidence) if top <= t)}
    kids_of = {}
    levels = [[top]]
    for level in levels:
        below = {}
        for s in level:
            cuts = {}
            for j, t in enumerate(incidence):
                if j not in facet_ids[s] and (cut := s & t):
                    cuts.setdefault(cut, set()).add(j)
            kids_of[s] = [c for c in cuts if not any(c < other for other in cuts)]
            for c in kids_of[s]:
                if c not in facet_ids:
                    facet_ids[c] = facet_ids[s] | cuts[c]
                below[c] = None
        if below:
            levels.append(list(below))
    top_dim = len(levels) - 1
    return {
        s: (facet_ids[s], top_dim - i, tuple(sorted(kids_of[s], key=sorted)))
        for i, level in enumerate(levels)
        for s in level
    }


# ---------------------------------------------------------------------------
# facets by subset enumeration


def subset_hull_facets(points):
    """Facets of conv(points) as {tight point set: (normal, offset)}.

    Tries the hyperplane through every affinely independent subset of
    dim(P) points. Inside the affine span such a hyperplane is unique;
    its normal is the first rational kernel vector of the subset's
    differences that is not constant on the points, made primitive and
    integral. It is a facet when every point lies on one side; the
    normal is then oriented inward, with <normal, p> >= offset for every
    point p and equality exactly on the tight set. For a full
    dimensional input this is the unique primitive inward normal; for a
    lower dimensional one it is one valid choice modulo the span.
    """
    pts = sorted({tuple(p) for p in points})
    d = affine_dim(pts)
    if d <= 0:
        return {}
    n = len(pts[0])
    facets = {}
    for S in itertools.combinations(range(len(pts)), d):
        base = pts[S[0]]
        diffs = [[x - y for x, y in zip(pts[i], base)] for i in S[1:]]
        if gauss_rank(diffs) != d - 1:
            continue
        for v in gauss_kernel(diffs, n):
            vals = {sum(x * y for x, y in zip(v, p)) for p in pts}
            if len(vals) > 1:
                break
        a = _integral_primitive(v)
        at_base = sum(x * y for x, y in zip(a, base))
        vals = [sum(x * y for x, y in zip(a, p)) for p in pts]
        for sign in (1, -1):
            if all(sign * (w - at_base) >= 0 for w in vals):
                normal = tuple(sign * x for x in a)
                tight = frozenset(p for p, w in zip(pts, vals) if w == at_base)
                facets[tight] = (normal, sign * at_base)
    return facets


def hull_vertices(points, facets):
    """Sorted vertices of conv(points), given its `subset_hull_facets`:
    the points alone in the intersection of the facets through them."""
    pts = sorted({tuple(p) for p in points})
    if not facets:
        return pts[:1]
    out = []
    for p in pts:
        face = set(pts)
        for tight in facets:
            if p in tight:
                face &= tight
        if face == {p}:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# lattice point counting


def parallelotope_points(gens):
    """Number of integer points in {sum a_i g_i : 0 <= a_i < 1}.

    A point of the span is fixed by its coordinates at k rows of the
    n x k generator matrix that are independent, so the scan runs over
    the bounding box of those k coordinates only. The inverse of that
    k x k block, written as N / D with N integral, gives D a_i; a point
    counts when every D a_i lies in [0, D) and D divides every coordinate
    of D sum a_i g_i."""
    gens = [tuple(g) for g in gens]
    k = len(gens)
    if k == 0:
        return 1
    n = len(gens[0])
    rows = []
    for j in range(n):
        if gauss_rank([[g[i] for g in gens] for i in rows + [j]]) > len(rows):
            rows.append(j)
    if len(rows) < k:
        raise ValueError("generators are not independent")
    block = [[g[j] for g in gens] for j in rows]
    # column c of the inverse solves block . x = e_c
    inverse = [gauss_solve(block, [int(i == c) for i in range(k)]) for c in range(k)]
    D = 1
    for col in inverse:
        for x in col:
            D = D * x.denominator // gcd(D, x.denominator)
    N = [[int(inverse[c][i] * D) for c in range(k)] for i in range(k)]
    ranges = []
    for j in rows:
        lo = sum(min(g[j], 0) for g in gens)
        hi = sum(max(g[j], 0) for g in gens)
        ranges.append(range(lo, hi + 1))
    count = 0
    for y in itertools.product(*ranges):
        scaled = [sum(a * b for a, b in zip(row, y)) for row in N]  # D * a_i
        if all(0 <= a < D for a in scaled) and all(
            sum(a * g[j] for a, g in zip(scaled, gens)) % D == 0 for j in range(n)
        ):
            count += 1
    return count


def conv_contains(vertices, point):
    """Exact membership of a point in the convex hull of `vertices`."""
    V = [tuple(v) for v in vertices]
    n = len(V[0])
    A = [[V[i][j] for i in range(len(V))] for j in range(n)]
    A.append([1] * len(V))
    b = list(point) + [1]
    return lp_feasible(A, b)


def box_count(vertices, n):
    """|n * conv(vertices) cap Z^ambient| by bounding-box enumeration."""
    V = [tuple(n * x for x in v) for v in vertices]
    d = len(V[0])
    lo = [min(v[j] for v in V) for j in range(d)]
    hi = [max(v[j] for v in V) for j in range(d)]
    count = 0
    for x in itertools.product(*(range(lo[j], hi[j] + 1) for j in range(d))):
        if conv_contains(V, x):
            count += 1
    return count


def newton_leading(points, degree):
    """Leading coefficient (of x^degree) of the interpolating polynomial."""
    xs = [Fraction(x) for x, _ in points]
    vals = [Fraction(y) for _, y in points]
    k = len(points)
    for level in range(1, k):
        for i in range(k - 1, level - 1, -1):
            vals[i] = (vals[i] - vals[i - 1]) / (xs[i] - xs[i - level])
    # divided difference of order `degree` equals the leading coefficient
    # when the polynomial has that degree and k = degree + 1 points are used
    assert k == degree + 1
    return vals[degree]


def oracle_normalized_volume(vertices):
    """nvol via lattice-count interpolation, independent of triangulation."""
    d = affine_dim(vertices)
    if d == 0:
        return 1
    pts = [(0, 1)] + [(m, box_count(vertices, m)) for m in range(1, d + 1)]
    lead = newton_leading(pts, d)
    fact = 1
    for i in range(2, d + 1):
        fact *= i
    nvol = lead * fact
    assert nvol.denominator == 1 and nvol > 0
    return int(nvol)


# ---------------------------------------------------------------------------
# retired library routines, kept as differential oracles
#
# Unlike the rest of this module these build on the library's Hermite
# form, its `AffineNormalization` and a polytope's normalized model: they
# are the code that the Hermite-only `affine_normalize`, the interval
# scan in P's own model, the carrier-crediting scan of nP, the adjugate
# start cone, the per-multiplicity `c_star` sums and the Ehrhart fit from
# the carrier tables replaced, kept to check that the replacements give
# the same bases, counts, rays, values and polynomials.


def mat_mul(A, B):
    """The integer matrix product A B."""
    if A and B and len(A[0]) != len(B):
        raise DomainError("matrix shapes do not match")
    if not B:
        return [[] for _ in A]
    cols = range(len(B[0]))
    return [[sum(a[k] * B[k][j] for k in range(len(a))) for j in cols] for a in A]


def unimodular_inverse(M):
    """Exact inverse of a unimodular integer matrix."""
    n = len(M)
    H, U = la.hermite_normal_form(M)
    if H != la.identity(n):
        raise DomainError("matrix is not unimodular")
    return U


def _xgcd(a, b):
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


def _smith_engine(M):
    D = la.copy_matrix(M)
    m = len(D)
    n = len(D[0]) if m else 0
    U = la.identity(m)
    V = la.identity(n)

    def clear_col_entry(t, i):
        # zero D[i][t] using row t; keeps det(U) = +-1
        a, b = D[t][t], D[i][t]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            for j in range(n):
                D[i][j] -= q * D[t][j]
            for j in range(m):
                U[i][j] -= q * U[t][j]
            return
        g, x, y = _xgcd(a, b)
        u, v = -(b // g), a // g  # u*a + v*b = 0, det = 1
        for j in range(n):
            dt, di = D[t][j], D[i][j]
            D[t][j] = x * dt + y * di
            D[i][j] = u * dt + v * di
        for j in range(m):
            ut, ui = U[t][j], U[i][j]
            U[t][j] = x * ut + y * ui
            U[i][j] = u * ut + v * ui

    def clear_row_entry(t, j):
        a, b = D[t][t], D[t][j]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            for i in range(m):
                D[i][j] -= q * D[i][t]
            for i in range(n):
                V[i][j] -= q * V[i][t]
            return
        g, x, y = _xgcd(a, b)
        u, v = -(b // g), a // g
        for i in range(m):
            dt, dj = D[i][t], D[i][j]
            D[i][t] = x * dt + y * dj
            D[i][j] = u * dt + v * dj
        for i in range(n):
            vt, vj = V[i][t], V[i][j]
            V[i][t] = x * vt + y * vj
            V[i][j] = u * vt + v * vj

    def diagonalize_from(t):
        while True:
            for i in range(t + 1, m):
                clear_col_entry(t, i)
            for j in range(t + 1, n):
                clear_row_entry(t, j)
            if all(D[i][t] == 0 for i in range(t + 1, m)) and all(
                D[t][j] == 0 for j in range(t + 1, n)
            ):
                return

    t = 0
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        if i != t:
            D[t], D[i] = D[i], D[t]
            U[t], U[i] = U[i], U[t]
        if j != t:
            for r_ in range(m):
                D[r_][t], D[r_][j] = D[r_][j], D[r_][t]
            for r_ in range(n):
                V[r_][t], V[r_][j] = V[r_][j], V[r_][t]
        diagonalize_from(t)
        t += 1

    def make_nonneg(i):
        if D[i][i] < 0:
            for j in range(n):
                D[i][j] = -D[i][j]
            for j in range(m):
                U[i][j] = -U[i][j]

    for i in range(min(m, n)):
        make_nonneg(i)

    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(min(m, n) - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # fold d_{i+1} under the pivot, re-diagonalize the pair
                for r_ in range(m):
                    D[r_][i] += D[r_][i + 1]
                for r_ in range(n):
                    V[r_][i] += V[r_][i + 1]
                diagonalize_from(i)
                make_nonneg(i)
                make_nonneg(i + 1)
                changed = True
    return U, D, V


def smith_normal_form(M):
    """Smith normal form: returns (U, D, V) with U * M * V = D.

    D is diagonal with nonnegative entries satisfying d1 | d2 | ...,
    and U, V are unimodular.
    """
    U, D, V = _smith_engine(M)
    assert mat_mul(mat_mul(U, la.copy_matrix(M)), V) == D
    return U, D, V


def smith_affine_normalize(points):
    """The Smith-form route to `affine_normalize`: the saturated direction
    lattice from the Smith form of the differences, tidied by HNF, and the
    dual projection from the inverse of a unimodular completion."""
    pts = [tuple(p) for p in points]
    n = len(pts[0])
    base = min(pts)
    diffs = [list(la.vec_sub(p, base)) for p in pts if p != base]
    if not diffs or n == 0:
        return la.AffineNormalization(matrix=(), base=base, basis=(), dim=0)
    _, D, V = _smith_engine(diffs)
    d = sum(1 for i in range(min(len(D), n)) if D[i][i] != 0)
    Vinv = unimodular_inverse(V)
    Wh, _ = la.hermite_normal_form([list(Vinv[i]) for i in range(d)])
    W = [row for row in Wh if any(row)]
    assert len(W) == d
    _, D2, V2 = _smith_engine(W)
    assert all(D2[i][i] == 1 for i in range(d))
    V2inv = unimodular_inverse(V2)
    Wtilde = [list(r) for r in W] + [list(V2inv[i]) for i in range(d, n)]
    Winv = unimodular_inverse(Wtilde)
    A = [tuple(Winv[j][i] for j in range(n)) for i in range(d)]
    return la.AffineNormalization(
        matrix=tuple(A), base=base, basis=tuple(tuple(r) for r in W), dim=d
    )


def face_model_scan_count(P, face, n):
    """|n F cap Z^ambient| by the per-face route: normalize the span of F's
    model vertices (in P's model), restrict the facets of P that do not
    contain F to it, and test every value of every coordinate of the
    dilated bounding box, pruning a branch once some inequality cannot be
    met with the best remaining coordinates."""
    if face.dim == 0:
        return 1
    if face.dim == P.dim:
        coords, ineqs = P._nverts, P._nfacets
    else:
        norm = smith_affine_normalize([P._nverts[i] for i in face.vertex_ids])
        coords = [norm.forward(P._nverts[i]) for i in face.vertex_ids]
        ineqs = []
        for j, (a, b) in enumerate(P._nfacets):
            if j not in face.facet_ids:
                ra = tuple(la.dot(w, a) for w in norm.basis)
                ineqs.append((ra, b - la.dot(a, norm.base)))
    lo, hi = la.bounding_box(coords)
    d = len(lo)
    lo = [n * x for x in lo]
    hi = [n * x for x in hi]
    systems = []
    for a, b in ineqs:
        sufmax = [0] * (d + 1)
        for j in range(d - 1, -1, -1):
            sufmax[j] = sufmax[j + 1] + max(a[j] * lo[j], a[j] * hi[j])
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
            for (a, rhs, suf), p in zip(systems, partials):
                p2 = p + a[j] * y
                if p2 + suf[j + 1] < rhs:
                    break
                nxt.append(p2)
            else:
                stack.append((j + 1, nxt))
    return count


def interval_scan_count(P, face, n):
    """|nF cap Z^ambient|, counted in P's own model, one face at a time.

    The model map is an affine lattice isomorphism of aff(P) cap Z^ambient
    onto Z^dim, so the count is |n F_model cap Z^dim|. F_model is cut out
    by P's facet inequalities and, for each facet containing F, the
    reversed one; the scan runs over the bounding box of F's vertices,
    fixing one coordinate at a time to the interval solved from the
    inequalities, and the last coordinate adds its interval's length.
    """
    if face.dim == 0:
        return 1
    ineqs = list(P._nfacets)
    for j in face.facet_ids:
        a, b = P._nfacets[j]
        ineqs.append((tuple(-x for x in a), -b))
    lo, hi = la.bounding_box(P._nverts[i] for i in face.vertex_ids)
    d = P.dim
    # the widest coordinate goes last, where it costs one interval
    order = sorted(range(d), key=lambda j: hi[j] - lo[j])
    lo = [n * lo[j] for j in order]
    hi = [n * hi[j] for j in order]
    # sufmax[j]: the largest value coordinates j.. can add to a . y in the box
    systems = []
    for a, b in ineqs:
        a = [a[j] for j in order]
        sufmax = [0] * (d + 1)
        for j in range(d - 1, -1, -1):
            cj = a[j]
            sufmax[j] = sufmax[j + 1] + max(cj * lo[j], cj * hi[j])
        systems.append((a, n * b, sufmax))
    count = 0
    last = d - 1
    stack = [(0, [0] * len(systems))]
    while stack:
        j, partials = stack.pop()
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
            if j == last:
                count += yhi - ylo + 1
                continue
            for y in range(ylo, yhi + 1):
                nxt = [p + a[j] * y for (a, _, _), p in zip(systems, partials)]
                stack.append((j + 1, nxt))
    return count


def box_carriers(P, n):
    """Face mask -> L°_G(n) > 0 by brute force in P's model: every lattice
    point of n times the bounding box of the model's vertices that meets
    all facet inequalities of nP is credited to the face whose facet mask
    is its tight set."""
    face_of = {f: s for s, f in P._lattice().facets.items()}
    lo, hi = la.bounding_box(P._nverts)
    table = {}
    for y in itertools.product(*(range(n * l, n * h + 1) for l, h in zip(lo, hi))):
        slack = [la.dot(a, y) - n * b for a, b in P._nfacets]
        if min(slack) < 0:
            continue
        tight = sum(1 << i for i, x in enumerate(slack) if x == 0)
        assert tight in face_of, (P.name, n, y, tight)
        g = face_of[tight]
        table[g] = table.get(g, 0) + 1
    return table


def affine_basis(model, d):
    """Ids of the first d + 1 affinely independent points, greedily."""
    basis = [0]
    diffs = []
    for i in range(1, len(model)):
        diff = la.vec_sub(model[i], model[0])
        if la.rank(diffs + [diff]) > len(diffs):
            diffs.append(diff)
            basis.append(i)
            if len(basis) == d + 1:
                break
    return basis


def kernel_start_cone(model, start):
    """The hull's start cone on the affinely independent points `start` by
    one kernel per start row: for each start row (v, -1), the primitive
    kernel vector of the other start rows, signed to be positive on it."""
    rows = [tuple(model[i]) + (-1,) for i in start]
    rays = []
    for j, row in enumerate(rows):
        (r,) = la.kernel_basis([rows[i] for i in range(len(rows)) if i != j])
        rays.append(r if la.dot(r, row) > 0 else tuple(-x for x in r))
    return rays


def edge_is_simple(P):
    """`Polytope.is_simple` on the edge graph: every vertex lies on
    exactly dim(P) edges."""
    return all(len(nbrs) == P.dim for nbrs in P.edge_graph().values())


def edge_is_delzant(P):
    """`Polytope.is_delzant` on the edge graph: simple, and the primitive
    edge directions at every vertex have determinant +-1 in the model."""
    nv = P._nverts
    return edge_is_simple(P) and all(
        abs(la.det([la.primitive(la.vec_sub(nv[w], nv[v])) for w in nbrs])) == 1
        for v, nbrs in P.edge_graph().items()
    )


def fraction_c_star(P):
    """c_star(P) as one `Fraction` per face: the sum of
    (-1)^(dim P - dim F) (dim F + 1) nvol(F) / mult(P, F)."""
    return sum(
        (
            Fraction(
                (-1) ** (P.dim - f.dim) * (f.dim + 1) * normalized_volume(f),
                mult(P, f),
            )
            for f in P.face_lattice()
        ),
        Fraction(0),
    )


def first_parent_mults(P):
    """Face mask -> multiplicity by the route the volume walk's cuts
    replaced: top down, a face's multiplicity is its first parent's (the
    first face of the lattice pass to list it as a child) times the
    content of the facet that cuts it from that parent, the gcd of the
    facet's values on a basis of the parent's direction lattice, here P's
    basis cut at each facet through the parent."""
    lattice = P._lattice()
    out = {lattice.levels[-1][0]: 1}
    for level in reversed(lattice.levels):
        for s in level:
            basis = list(zip(*(a for a, _ in P._nfacets)))
            for j in P._face(s).facet_ids:
                basis = la.cut_basis(basis, j)[1]
            for c in lattice.children[s]:
                if c not in out:
                    new = lattice.facets[c] & ~lattice.facets[s]
                    t = (new & -new).bit_length() - 1
                    out[c] = out[s] * gcd(*[v[t] for v in basis])
    return out


def pulling_triangulation(P, face, memo=None):
    """Pulling triangulation of a face, as tuples of vertex ids: cones
    from its lexicographically smallest vertex over the triangulations of
    its facets that avoid that vertex."""
    memo = {} if memo is None else memo
    if face.mask not in memo:
        low = face.mask & -face.mask  # vertices are lex sorted
        apex = low.bit_length() - 1
        simplices = [] if face.dim else [(apex,)]
        for child in P.face_children(face):
            if not child.mask & low:
                simplices += [
                    s + (apex,) for s in pulling_triangulation(P, child, memo)
                ]
        memo[face.mask] = simplices
    return memo[face.mask]


def triangulation_volumes(P):
    """Face mask -> nvol(F) for every face of P: the sum over the simplices
    of F's pulling triangulation of the `lattice_index` of their edge rows
    in P's model, each a simplex's normalized volume in its own span."""
    memo = {}
    out = {}
    for face in P.face_lattice():
        total = 0
        for simplex in pulling_triangulation(P, face, memo):
            base = P._nverts[simplex[0]]
            total += la.lattice_index(
                [la.vec_sub(P._nverts[v], base) for v in simplex[1:]]
            )
        out[face.mask] = total
    return out


def proper_faces(P):
    """Face mask -> the masks of the face's proper faces."""
    below = {}
    lattice = P._lattice()
    for s in lattice.dims:  # sorted by dimension
        sub = set()
        for c in lattice.children[s]:
            sub.add(c)
            sub.update(below[c])
        below[s] = tuple(sub)
    return below


def structural_ehrhart(P):
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
    scale = factorial(P.dim)
    out = {}
    below = proper_faces(P)
    interior = {}  # face mask -> scaled L° coefficients
    for s, k in P._lattice().dims.items():  # sorted by dimension
        boundary = [0] * k
        for g in below[s]:
            for j, a in enumerate(interior[g]):
                boundary[j] += a
        coeffs = _face_ehrhart(P, s, k, boundary, scale)
        out[s] = coeffs
        interior[s] = [(-1) ** (k + j) * a for j, a in enumerate(coeffs)]
    return out


def _face_ehrhart(P, s, k, boundary, scale):
    """Scaled coefficients of L_F for the k-face with vertex mask s, from
    the scaled boundary sum B (see `structural_ehrhart`), the volume and
    the counts reciprocity leaves open, with every identity checked that
    these data must satisfy."""
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
    coeffs[k] = normalized_volume(P._face(s)) * (scale // factorial(k))
    if k > 0:
        # c_{k-1} = (1/2) sum of Vol(G) over the facets G, with the facet
        # volumes read afresh rather than from the boundary sum
        facets = sum(normalized_volume(P._face(c)) for c in P._lattice().children[s])
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
            rest = scale * vol._count(P, s, n) - sum(
                a * n**j for j, a in enumerate(coeffs)
            )
            points.append((n * n, Fraction(rest, n**j0)))
        for j, cf in zip(unknown, vol.interpolate(points)):
            if cf.denominator != 1:
                raise P._broken(f"{scale} * Ehrhart c_{j} is not an integer", s)
            coeffs[j] = int(cf)
    return tuple(coeffs)


def structural_f_polynomial(P):
    """`f_polynomial` with each face adding its own Ehrhart polynomial from
    `structural_ehrhart`: face F of dimension k adds
    (-1)^(r-k) (k+1)! n^(r-k) L_F(n)."""
    r = P.dim
    scaled = structural_ehrhart(P)
    total = [0] * (r + 1)
    for s, k in P._lattice().dims.items():
        w = (-1) ** (r - k) * factorial(k + 1)
        for j, a in enumerate(scaled[s]):
            total[j + r - k] += w * a
    out = []
    for t in total:
        d, rem = divmod(t, factorial(r))  # `scaled` holds r! L_F
        assert not rem, (P.name, total)
        out.append(d)
    return out
