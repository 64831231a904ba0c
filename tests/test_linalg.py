import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyinv import linalg as la
from polyinv.errors import DomainError, InternalConsistencyError

import oracles


small_int = st.integers(min_value=-9, max_value=9)


def small_matrix(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small_int, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


def is_row_hnf(H):
    m = len(H)
    n = len(H[0]) if m else 0
    pivots = []
    for row in H:
        nz = [j for j in range(n) if row[j] != 0]
        if not nz:
            pivots.append(None)
            continue
        pivots.append(nz[0])
    seen = [p for p in pivots if p is not None]
    if seen != sorted(seen) or len(set(seen)) != len(seen):
        return False
    # zero rows must come last
    if any(
        pivots[i] is None and pivots[j] is not None
        for i in range(m)
        for j in range(i + 1, m)
    ):
        return False
    for i, p in enumerate(pivots):
        if p is None:
            continue
        if H[i][p] <= 0:
            return False
        for above in range(i):
            if not 0 <= H[above][p] < H[i][p]:
                return False
    return True


def square_matrix(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def integer_matrix(m, n, entry=small_int):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)


@st.composite
def degenerate_matrix(draw, max_dim=5):
    """An m x n matrix, m, n <= max_dim, now and then of rank below both
    (a product through a thinner inner dimension), with a forced zero
    column and a repeated row now and then: the cases where elimination
    skips a pivot column."""
    m, n = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    if draw(st.booleans()):
        M = draw(integer_matrix(m, n))
    else:
        k = draw(st.integers(1, min(m, n)))
        f = st.integers(-3, 3)
        M = oracles.mat_mul(draw(integer_matrix(m, k, f)), draw(integer_matrix(k, n, f)))
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in M:
            row[j] = 0
    if draw(st.booleans()):
        M.insert(draw(st.integers(0, m)), list(M[draw(st.integers(0, m - 1))]))
    return M


class TestMatVec:
    def test_matches_index_loop(self):
        # seeded shapes, zero rows and zero columns included, and entries
        # past 64 bits
        rng = random.Random(2718)
        for _ in range(300):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            bound = rng.choice((3, 10**30))
            A = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
            v = tuple(rng.randint(-bound, bound) for _ in range(n))
            loop = tuple(sum(row[k] * v[k] for k in range(n)) for row in A)
            assert la.mat_vec(A, v) == loop


class TestRank:
    """The shared elimination's rank against rational Gaussian elimination."""

    def test_skipped_pivot_column(self):
        # after the first pivot both lower rows vanish in column 1
        M = [[1, 2, 3], [2, 4, 7], [3, 6, 10]]
        assert la.rank(M) == 2 == oracles.gauss_rank(M)

    def test_empty(self):
        assert la.rank([]) == 0 and la.rank([[0, 0]]) == 0

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(degenerate_matrix())
    def test_matches_gauss_rank(self, M):
        assert la.rank(M) == oracles.gauss_rank(M)


class TestDet:
    """The shared elimination's determinant against the Leibniz sum."""

    def test_zero_leading_pivot(self):
        assert la.det([[0, 1, 0], [1, 0, 0], [0, 0, 2]]) == -2

    def test_empty(self):
        assert la.det([]) == 1
        assert la.is_unimodular([])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(square_matrix(), st.booleans(), st.data())
    def test_matches_leibniz(self, M, zero_pivot, data):
        if zero_pivot:
            M[0][0] = 0  # the first pivot then needs a row swap, or is missing
        if len(M) > 1 and data.draw(st.booleans()):
            M[-1] = list(M[data.draw(st.integers(0, len(M) - 2))])
        assert la.det(M) == oracles.leibniz_det(M)


class TestSolve:
    """`solve` returns the integer X with A X = B, and None when A has
    lower rank than its column count or X is not integral."""

    def test_non_integral(self):
        assert la.solve([[2]], [[1]], 1) is None
        assert la.solve([[2]], [[4]], 1) == [[2]]

    def test_rank_deficient(self):
        assert la.solve([[1, 2], [2, 4], [3, 6]], [[1], [2], [3]], 2) is None

    def test_zero_leading_pivot_and_extra_rows(self):
        A = [[0, 1], [0, 2], [1, 0], [1, 1]]
        assert la.solve(A, oracles.mat_mul(A, [[2, -1], [3, 5]]), 2) == [[2, -1], [3, 5]]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(degenerate_matrix(4), st.data())
    def test_recovers_integral_solution(self, A, data):
        n, c = len(A[0]), data.draw(st.integers(1, 3))
        X = data.draw(integer_matrix(n, c))
        got = la.solve(A, oracles.mat_mul(A, X), n)
        assert got == (X if oracles.gauss_rank(A) == n else None)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(square_matrix(4), st.data())
    def test_matches_gauss_solve(self, A, data):
        n, c = len(A), data.draw(st.integers(1, 3))
        B = data.draw(integer_matrix(n, c))
        got = la.solve(A, B, n)
        if oracles.gauss_rank(A) < n:
            assert got is None
            return
        cols = [oracles.gauss_solve(A, [row[k] for row in B]) for k in range(c)]
        if all(x.denominator == 1 for col in cols for x in col):
            assert got == [[int(x) for x in row] for row in zip(*cols)]
        else:
            assert got is None


class TestIndependentRows:
    """The first rows that reach rank k, greedily, against repeated ranks."""

    def test_skips_dependent_rows(self):
        rows = [[0, 0, 0], [1, 2, 0], [2, 4, 0], [0, 0, 1], [1, 0, 0]]
        assert la.independent_rows(rows, 3) == [1, 3, 4]
        assert la.independent_rows(rows, 2) == [1, 3]
        assert la.independent_rows(rows[:3], 3) == [1]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(degenerate_matrix(), st.integers(1, 5))
    def test_matches_greedy_rank(self, rows, k):
        greedy = []
        for i in range(len(rows)):
            kept = [rows[j] for j in greedy + [i]]
            if len(kept) <= k and oracles.gauss_rank(kept) == len(kept):
                greedy.append(i)
        assert la.independent_rows(rows, k) == greedy


class TestAdjugate:
    """adj(M) M = M adj(M) = det(M) I, row swaps included."""

    def test_small_example(self):
        assert la.adjugate([[1, 2], [3, 4]]) == [[4, -2], [-3, 1]]

    def test_zero_leading_pivot(self):
        # det -2; the first column's pivot sits in the second row
        M = [[0, 1, 0], [1, 0, 0], [0, 0, 2]]
        assert la.adjugate(M) == [[0, -2, 0], [-2, 0, 0], [0, 0, -1]]

    def test_rejects_singular_and_non_square(self):
        with pytest.raises(DomainError, match="singular"):
            la.adjugate([[1, 2], [2, 4]])
        with pytest.raises(DomainError, match="non-square"):
            la.adjugate([[1, 2]])

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(square_matrix(), st.booleans())
    def test_identity_holds(self, M, zero_pivot):
        if zero_pivot:
            M[0][0] = 0  # a nonsingular M then needs a row swap
        D = la.det(M)
        if D == 0:
            with pytest.raises(DomainError, match="singular"):
                la.adjugate(M)
            return
        A = la.adjugate(M)
        DI = [[D * x for x in row] for row in la.identity(len(M))]
        assert oracles.mat_mul(A, M) == DI
        assert oracles.mat_mul(M, A) == DI


class TestHermite:
    def test_identity(self):
        I3 = la.identity(3)
        H, U = la.hermite_normal_form(I3)
        assert H == I3 and U == I3

    def test_zero(self):
        Z = [[0, 0], [0, 0]]
        H, U = la.hermite_normal_form(Z)
        assert H == Z and U == la.identity(2)

    def test_small_example(self):
        M = [[2, 4], [6, 8]]
        H, U = la.hermite_normal_form(M)
        assert oracles.mat_mul(U, M) == H
        assert abs(la.det(U)) == 1
        assert is_row_hnf(H)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(small_matrix())
    def test_identity_holds(self, M):
        H, U = la.hermite_normal_form(M)
        assert oracles.mat_mul(U, M) == H
        assert abs(la.det(U)) == 1
        assert is_row_hnf(H)


class TestSmith:
    def test_identity(self):
        I3 = la.identity(3)
        U, D, V = oracles.smith_normal_form(I3)
        assert D == I3

    def test_diag_2_3(self):
        U, D, V = oracles.smith_normal_form([[2, 0], [0, 3]])
        assert D == [[1, 0], [0, 6]]

    def test_zero_1x1(self):
        U, D, V = oracles.smith_normal_form([[0]])
        assert D == [[0]]
        assert U == [[1]] and V == [[1]]

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(small_matrix())
    def test_identity_and_chain(self, M):
        U, D, V = oracles.smith_normal_form(M)
        assert oracles.mat_mul(oracles.mat_mul(U, M), V) == D
        assert abs(la.det(U)) == 1 and abs(la.det(V)) == 1
        m, n = len(D), len(D[0])
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3))
    def test_square_det_preserved(self, M):
        U, D, V = oracles.smith_normal_form(M)
        prod = 1
        for i in range(3):
            prod *= D[i][i]
        assert abs(prod) == abs(la.det(M))


class TestPrimitive:
    @pytest.mark.parametrize(
        "v,expected",
        [((2, 4, 6), (1, 2, 3)), ((0, 5), (0, 1)), ((-3, 0, -6), (-1, 0, -2))],
    )
    def test_examples(self, v, expected):
        assert la.primitive(v) == expected

    def test_zero_vector(self):
        with pytest.raises(DomainError, match="zero vector"):
            la.primitive((0, 0, 0))


class TestLatticeIndex:
    def test_standard_basis(self):
        assert la.lattice_index([(1, 0), (0, 1)]) == 1

    @pytest.mark.parametrize(
        "gens,expected",
        [([(2, 0)], 2), ([(1, 1), (1, -1)], 2)],
    )
    def test_against_parallelotope_oracle(self, gens, expected):
        assert la.lattice_index(gens) == expected
        assert oracles.parallelotope_points(gens) == expected

    def test_dependent_generators(self):
        with pytest.raises(DomainError, match="not independent"):
            la.lattice_index([(1, 0), (2, 0)])
        with pytest.raises(DomainError, match="not independent"):
            la.lattice_index([(1,), (2,)])

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=3, max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    def test_matches_brute_force(self, gens):
        if la.rank([list(g) for g in gens]) != len(gens):
            return
        idx = la.lattice_index(gens)
        _, D, _ = oracles.smith_normal_form(gens)
        assert idx == math.prod(D[i][i] for i in range(len(gens)))
        if idx <= 50:
            assert idx == oracles.parallelotope_points(gens)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                 min_size=2, max_size=2),
        st.integers(-2, 2),
    )
    def test_unimodular_change_invariance(self, gens, s):
        if la.rank([list(g) for g in gens]) != 2:
            return
        # right multiplication of the generator list by a unimodular matrix
        U = [[1, s], [0, 1]]
        new_gens = [
            tuple(U[0][0] * gens[0][j] + U[0][1] * gens[1][j] for j in range(3)),
            tuple(U[1][0] * gens[0][j] + U[1][1] * gens[1][j] for j in range(3)),
        ]
        assert la.lattice_index(gens) == la.lattice_index(new_gens)


class TestCutBasis:
    def test_vanishing_coordinate(self):
        assert la.cut_basis([(0, 1), (0, 2)], 0) == (0, [(0, 1), (0, 2)])

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(square_matrix(4), st.data())
    def test_splits_the_determinant(self, M, data):
        # for a basis B of a full lattice L and H = {x_j = 0}, |det B| is
        # the content g of x_j on L times the index of L cap H in Z^m cap H,
        # which the rest attains only if it spans all of L cap H
        if la.det(M) == 0:
            return
        j = data.draw(st.integers(0, len(M) - 1))
        g, rest = la.cut_basis([tuple(r) for r in M], j)
        assert g == math.gcd(*(r[j] for r in M))
        assert len(rest) == len(M) - 1 and all(c[j] == 0 for c in rest)
        assert abs(la.det(M)) == g * la.lattice_index(rest)


class TestAffineNormalize:
    def test_single_point(self):
        norm = la.affine_normalize([(4, 5, 6)])
        assert norm.dim == 0
        assert norm.forward((4, 5, 6)) == ()
        assert norm.backward(()) == (4, 5, 6)

    def test_unimodular_configuration(self):
        norm = la.affine_normalize([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert norm.dim == 2
        imgs = {norm.forward(p) for p in [(0, 0, 0), (1, 0, 0), (0, 1, 0)]}
        assert imgs == {(0, 0), (1, 0), (0, 1)}

    def test_saturated_segment(self):
        # the span lattice of (0,0)-(2,2) is generated by (1,1); the
        # segment holds three lattice points
        norm = la.affine_normalize([(0, 0), (2, 2)])
        assert norm.dim == 1
        assert {norm.forward(p) for p in [(0, 0), (2, 2)]} == {(0,), (2,)}
        assert norm.forward((1, 1)) == (1,)

    def test_roundtrip_on_span_points_in_bbox(self):
        pts = [(0, 0, 1), (2, 2, 1), (0, 4, 1)]
        norm = la.affine_normalize(pts)
        lo, hi = la.bounding_box(pts)
        span_eqs = la.kernel_basis([list(w) for w in norm.basis])
        base = norm.base
        for q in itertools.product(*(range(lo[i], hi[i] + 1) for i in range(3))):
            if all(la.dot(c, q) == la.dot(c, base) for c in span_eqs):
                assert norm.backward(norm.forward(q)) == q

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    def test_forward_backward_on_inputs(self, pts):
        pts = [tuple(p) for p in pts]
        norm = la.affine_normalize(pts)
        for p in pts:
            assert norm.backward(norm.forward(p)) == p
        assert norm.dim == oracles.affine_dim(pts)


class TestNamedNormalizationErrors:
    """Each identity check of `affine_normalize` keeps its text and names
    the input points."""

    POINTS = [(0, 0), (2, 2)]
    NAMED = " (points ((0, 0), (2, 2)))"

    @staticmethod
    def corrupt_call(monkeypatch, name, k, corrupt):
        """Make the k-th call (from 1) of `la.<name>` return corrupt(result)."""
        real, calls = getattr(la, name), []

        def wrapped(*args):
            calls.append(args)
            out = real(*args)
            return corrupt(out) if len(calls) == k else out

        monkeypatch.setattr(la, name, wrapped)

    def test_saturation_basis_lost_rank(self, monkeypatch):
        # the one kernel basis is the direction lattice of the span; the
        # span equations come straight from the first Hermite form
        self.corrupt_call(monkeypatch, "kernel_basis", 1, lambda rows: rows[:-1])
        with pytest.raises(InternalConsistencyError, match="lost rank") as err:
            la.affine_normalize(self.POINTS)
        assert str(err.value) == "saturation basis lost rank" + self.NAMED

    def test_span_lattice_basis_not_saturated(self, monkeypatch):
        # the fourth Hermite form is that of W^T, after two left kernels and W's
        double = lambda HU: ([[2 * x for x in row] for row in HU[0]], HU[1])
        self.corrupt_call(monkeypatch, "hermite_normal_form", 4, double)
        with pytest.raises(InternalConsistencyError, match="not saturated") as err:
            la.affine_normalize(self.POINTS)
        assert str(err.value) == "span lattice basis is not saturated" + self.NAMED

    def test_failed_to_invert(self, monkeypatch):
        monkeypatch.setattr(la.AffineNormalization, "backward", lambda self, y: ())
        with pytest.raises(InternalConsistencyError, match="failed to invert") as err:
            la.affine_normalize(self.POINTS)
        assert str(err.value) == "affine normalization failed to invert" + self.NAMED


@st.composite
def span_lift(draw, n, r):
    """An integer n x r matrix, its diagonal raised by 1..3 so that it is
    often not saturated."""
    entry = st.integers(-2, 2)
    lift = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=n, max_size=n))
    for i in range(r):
        lift[i][i] += draw(st.integers(1, 3))
    return lift


@st.composite
def span_inputs(draw, n, r, lift=None):
    """Point sets in Z^n of affine rank r (now and then less): r + 1 to
    r + 3 points of [-3, 3]^r lifted by `lift` (drawn by `span_lift`
    when not given) and translated, with repeated points."""
    k = draw(st.integers(r + 1, r + 3))
    coord = st.integers(-3, 3)
    local = draw(st.lists(st.tuples(*[coord] * r), min_size=k, max_size=k))
    if lift is None:
        lift = draw(span_lift(n, r))
    shift = draw(st.tuples(*[st.integers(-5, 5)] * n))
    pts = [
        tuple(s + sum(a * x for a, x in zip(row, p)) for row, s in zip(lift, shift))
        for p in local
    ]
    pts += [pts[i] for i in draw(st.lists(st.integers(0, k - 1), max_size=2))]
    return draw(st.permutations(pts))


class TestHermiteOnlyNormalization:
    """The HNF-only `affine_normalize` against the Smith-form route it
    replaced: the same base, dimension and basis. `matrix` may differ on
    lower-dimensional spans; it must be a left inverse of the basis.
    Parallel spans must get one basis and one matrix."""

    @pytest.mark.parametrize(
        "n,r", [(n, r) for n in range(1, 7) for r in range(n + 1)]
    )
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_smith_route(self, n, r, data):
        pts = data.draw(span_inputs(n, r))
        norm = la.affine_normalize(pts)
        smith = oracles.smith_affine_normalize(pts)
        assert (norm.base, norm.dim, norm.basis) == (smith.base, smith.dim, smith.basis)
        assert norm.dim == oracles.affine_dim(pts)
        product = [[la.dot(a, w) for w in norm.basis] for a in norm.matrix]
        assert product == la.identity(norm.dim)
        for p in pts:
            assert norm.backward(norm.forward(p)) == p

    @pytest.mark.parametrize(
        "n,r", [(n, r) for n in range(2, 7) for r in range(1, n)]
    )
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_parallel_spans_share_the_model(self, n, r, data):
        # parallel spans have one saturated direction lattice, whose row
        # Hermite form is unique: one basis and one model map for both
        lift = data.draw(span_lift(n, r))
        pts = data.draw(span_inputs(n, r, lift))
        qts = data.draw(span_inputs(n, r, lift))
        if oracles.affine_dim(pts) == oracles.affine_dim(qts) == r:
            a, b = la.affine_normalize(pts), la.affine_normalize(qts)
            assert (a.basis, a.matrix) == (b.basis, b.matrix)


def fraction_lp_feasible(A, b):
    """`oracles.lp_feasible` as it was over `Fraction` entries, kept to
    check its integer tableau against."""
    m = len(A)
    n = len(A[0]) if m else 0
    T = []
    rhs = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]]
        bi = Fraction(b[i])
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        T.append(row + [Fraction(1) if j == i else Fraction(0) for j in range(m)])
        rhs.append(bi)
    basis = [n + i for i in range(m)]
    total = n + m
    obj = [Fraction(0)] * (total + 1)
    for i in range(m):
        for j in range(total):
            obj[j] -= T[i][j]
        obj[total] -= rhs[i]
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
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = rhs[i] / T[i][enter]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:
            break
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        rhs[leave] /= piv
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
                rhs[i] -= f * rhs[leave]
        f = obj[enter]
        if f != 0:
            for j in range(total):
                obj[j] -= f * T[leave][j]
            obj[total] -= f * rhs[leave]
        basis[leave] = enter
    return obj[total] == 0


class TestLpFeasibleOracle:
    """The integer-row simplex of `oracles.lp_feasible` against its
    `Fraction` original, on seeded systems and on the oracles' own."""

    def test_seeded_systems(self):
        rng, seen = random.Random(7), set()
        for _ in range(400):
            m, n = rng.randint(1, 4), rng.randint(1, 6)
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            b = [rng.randint(-4, 4) for _ in range(m)]
            want = fraction_lp_feasible(A, b)
            assert oracles.lp_feasible(A, b) == want, (A, b)
            seen.add(want)
        assert seen == {True, False}

    def test_the_oracles_own_systems(self, monkeypatch):
        # each LP that a box count and a face enumeration pose
        real, calls = oracles.lp_feasible, []
        monkeypatch.setattr(
            oracles, "lp_feasible", lambda A, b: calls.append((A, b)) or real(A, b)
        )
        rng = random.Random(11)
        for _ in range(12):
            d = rng.randint(1, 3)
            V = sorted({tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 2)})
            oracles.box_count(V, 1)
            oracles.face_vertex_sets(V)
        assert {fraction_lp_feasible(A, b) for A, b in calls} == {True, False}
        for A, b in calls:
            assert real(A, b) == fraction_lp_feasible(A, b), (A, b)
