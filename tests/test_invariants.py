import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import factorial

import pytest

from polyinv import (
    Polytope,
    c,
    classify,
    c_star,
    c_t,
    cube,
    dual_degree,
    f_polynomial,
    f_value,
    hypersimplex,
    mult,
    normalized_volume,
    product,
    report,
    simplex,
)
from polyinv import cli, invariants, volumes
from polyinv.cli import CliConfig, run
from polyinv.errors import DomainError, InternalConsistencyError, NotSimpleError
from polyinv.invariants import c_grade_terms

import oracles
from conftest import TRIANGLE_HALF, UNIMODULAR_TRANSFORMS, segment


class TestC:
    @pytest.mark.parametrize("r", range(1, 9))
    def test_simplices_vanish(self, r):
        assert c(simplex(r)) == 0

    def test_prism(self):
        prism = product(simplex(2), cube(1, 1))
        assert c(prism) == 0
        # per-grade signed sums: 4! * 1/2, -3! * 4, 2 * 9, -6
        assert c_grade_terms(prism) == [-6, 18, -24, 12]

    def test_unit_square(self):
        sq = cube(2, 1)
        assert c(sq) == 2
        assert c_grade_terms(sq) == [4, -8, 6]

    def test_cube3(self):
        # degree of the 2x2x2 hyperdeterminant
        assert c(cube(3, 1)) == 4

    def test_hypersimplex_36(self):
        # the alternating sum with exact hypersimplex volumes; the value
        # is cross-checked below through the independent f-polynomial route
        P = hypersimplex(3, 6)
        assert c(P) == 136

    def test_point(self):
        assert c(simplex(0)) == 1

    def test_hypersimplex_25_is_negative(self):
        # verified against the independent LP-face and counting oracles;
        # the value is reported by the conjecture scan as a finding
        assert c(hypersimplex(2, 5)) == -5
        assert c(hypersimplex(3, 5)) == -5

    def test_c_t_is_the_face_sum(self, small_corpus):
        # the per-dimension volume sums are cached once per polytope; every
        # c_t must still be the alternating sum over the face lattice
        for P in small_corpus:
            for t in range(5):
                expected = sum(
                    (-1) ** (P.dim - f.dim)
                    * factorial(f.dim + t)
                    // factorial(f.dim)
                    * normalized_volume(f)
                    for f in P.face_lattice()
                )
                assert c_t(P, t) == expected, (P.name, t)

    def test_c_is_c1(self, small_corpus):
        for P in small_corpus:
            assert c(P) == c_t(P, 1)

    def test_invariance(self, small_corpus):
        for P in small_corpus:
            for M, t in UNIMODULAR_TRANSFORMS.get(P.ambient_dim, [])[:2]:
                assert c(P.unimodular_image(M, t)) == c(P)

    def test_full_invariance_suite(self, small_corpus):
        for P in small_corpus:
            if P.dim > 3:
                continue
            for M, t in UNIMODULAR_TRANSFORMS.get(P.ambient_dim, [])[:1]:
                Q = P.unimodular_image(M, t)
                for s in (0, 2):
                    assert c_t(Q, s) == c_t(P, s)
                assert f_polynomial(Q) == f_polynomial(P)
                if P.is_simple():
                    assert c_star(Q) == c_star(P)


class TestCt:
    @pytest.mark.parametrize("r", range(1, 7))
    def test_simplex_identities(self, r):
        S = simplex(r)
        assert c_t(S, 0) == (-1) ** r
        for i in range(1, r + 1):
            assert c_t(S, i) == 0
        assert c_t(S, r + 1) > 0

    def test_rejects_negative_t(self):
        with pytest.raises(DomainError):
            c_t(simplex(2), -1)

    def test_nonnegative_for_simple(self, simple_corpus):
        for P in simple_corpus[:20]:
            for t in range(1, 5):
                assert c_t(P, t) >= 0

    def test_product_slope_is_next_invariant(self):
        # c_t(P x [0,m]) is exactly linear in m with slope c_{t+1}(P)
        for P in (simplex(2), cube(2, 1), Polytope.from_vertices(TRIANGLE_HALF)):
            for t in range(0, 4):
                vals = [c_t(product(P, segment(m)), t) for m in (1, 2, 3)]
                d1 = vals[1] - vals[0]
                d2 = vals[2] - vals[1]
                assert d1 == d2
                assert d1 == c_t(P, t + 1)


class TestMult:
    def test_delzant_all_one(self):
        P = cube(3, 1)
        assert all(mult(P, f) == 1 for f in P.face_lattice())

    def test_half_triangle_vertex(self):
        P = Polytope.from_vertices(TRIANGLE_HALF)
        v = [f for f in P.faces(0) if f.vertices == ((0, 0),)][0]
        assert mult(P, v) == 2
        normals = [P._nfacets[j][0] for j in v.facet_ids]
        assert oracles.parallelotope_points(normals) == 2

    def test_whole_polytope(self):
        P = simplex(3)
        assert mult(P, P) == 1

    def test_face_of_an_equal_polytope(self):
        P, Q = (Polytope.from_vertices(TRIANGLE_HALF) for _ in range(2))
        assert [mult(P, f) for f in Q.face_lattice()] == [2, 1, 1, 1, 1, 1, 1]
        assert mult(P, Q) == 1

    def test_face_of_another_polytope_raises(self):
        # the 2-simplex's edge has a mask of the square's, 0b11
        P, f = cube(2, 1), simplex(2).faces(1)[0]
        with pytest.raises(DomainError, match="^face does not belong to this polytope$"):
            mult(P, f)

    def test_requires_simple(self):
        with pytest.raises(NotSimpleError):
            mult(hypersimplex(2, 4), hypersimplex(2, 4).top_face())

    def test_matches_parallelotope_oracle(self, simple_corpus):
        for P in simple_corpus[:12]:
            if len(P.vertices) > 12 or P.dim > 4:
                continue
            for f in P.face_lattice():
                normals = [P._nfacets[j][0] for j in f.facet_ids]
                assert mult(P, f) == oracles.parallelotope_points(normals)

    def test_delzant_iff_all_mult_one(self, simple_corpus):
        for P in simple_corpus[:25]:
            all_one = all(mult(P, f) == 1 for f in P.face_lattice())
            assert all_one == P.is_delzant()


class TestCStar:
    def test_equals_c_for_delzant(self, simple_corpus):
        for P in simple_corpus:
            if P.is_delzant():
                assert c_star(P) == c(P)

    def test_half_triangle_value(self):
        # 3! * 1 - 2 * (1 + 2 + 1) + (1/2 + 1 + 1): the corner of
        # multiplicity 2 contributes a half, so the sum is not integral
        P = Polytope.from_vertices(TRIANGLE_HALF)
        assert c_star(P) == Fraction(1, 2)

    def test_simplices_vanish(self):
        for r in (1, 2, 3, 4):
            assert c_star(simplex(r)) == 0

    def test_requires_simple(self):
        with pytest.raises(NotSimpleError):
            c_star(hypersimplex(2, 4))

    def test_matches_per_face_fraction_sum(self, small_corpus, join_corpus):
        half = Polytope.from_vertices(TRIANGLE_HALF)
        polys = small_corpus + [J for J, _k, _r in join_corpus] + [half]
        simple = [P for P in polys if P.is_simple()]
        assert len(simple) > len(polys) // 3
        for P in simple:
            assert c_star(P) == oracles.fraction_c_star(P), P.name
        assert oracles.fraction_c_star(half) == Fraction(1, 2)


class TestFPolynomial:
    @pytest.mark.parametrize("r", range(1, 5))
    def test_simplex_leading_and_constant(self, r):
        d = f_polynomial(simplex(r))
        assert d[r] == 0
        assert d[0] == c_t(simplex(r), r + 1)

    def test_triangle(self):
        assert f_polynomial(simplex(2)) == [6, 3, 0]

    def test_unit_square(self):
        assert f_polynomial(cube(2, 1)) == [6, 4, 2]

    def test_point(self):
        assert f_polynomial(simplex(0)) == [1]

    def test_leading_is_c_and_extra_dilations(self, small_corpus):
        for P in small_corpus:
            if P.dim > 4:
                continue
            d = f_polynomial(P)
            assert d[P.dim] == c(P)
            for n in (P.dim + 2, P.dim + 3):
                direct = f_value(P, n)
                interp = sum(coef * n**i for i, coef in enumerate(d))
                assert direct == interp, P.name

    def test_non_integral_coefficient_is_caught(self):
        P = cube(2, 1)
        f_polynomial(P)
        P._cache["nvol"][P.top_face().mask] = Fraction(5, 2)  # d_2 gets 3 * 5/2
        fraction = "f-polynomial coefficient d_2 is not an integer"
        with pytest.raises(InternalConsistencyError, match=fraction) as err:
            f_polynomial(P)
        assert "polytope cube(2,1), face (0, 1, 2, 3)" in str(err.value)

    def test_leading_coefficient_is_checked_against_c(self):
        P = cube(2, 1)
        f_polynomial(P)
        P._cache["nvol"][P.top_face().mask] = 4  # area 2 in place of 1
        with pytest.raises(InternalConsistencyError, match="differs from c"):
            f_polynomial(P)


class TestNoHang:
    """Small inputs whose dilates have huge bounding boxes: the Ehrhart
    fit counts no face of dimension <= 2 and scans the 3-face once, and
    the count scans the widest coordinate last, so the sheared simplex
    costs about m scan nodes rather than m^2."""

    def test_long_triangle(self):
        P = Polytope.from_vertices([(0, 0), (10**8, 0), (0, 1)])
        start = time.perf_counter()
        rep = report(P)
        assert time.perf_counter() - start < 1.0
        # 3 * nvol - 2 * (10^8 + 1 + 1) + 3
        assert rep.c == 10**8 - 1

    def test_info_on_long_triangle(self):
        doc = {"ambient_dim": 2, "vertices": [[0, 0], [10**8, 0], [0, 1]]}
        start = time.perf_counter()
        code, out = run(CliConfig(command="info"), json.dumps(doc).encode())
        assert time.perf_counter() - start < 1.0
        assert code == 0, out
        # L_P(1) = 1 + 50000001 + 50000000
        assert json.loads(out)["lattice_points"] == 100000002

    @staticmethod
    def _sheared_simplex(m):
        # unimodular for every m, so 4 lattice points; its bounding box
        # holds about m^3 points
        return [(0, 0, 0), (1, 0, 0), (m, 1, 0), (m * m, m, 1)]

    @pytest.mark.parametrize("m", [40, 160, 1000])
    def test_sheared_unimodular_simplex(self, m):
        P = Polytope.from_vertices(self._sheared_simplex(m))
        start = time.perf_counter()
        rep = report(P)
        assert time.perf_counter() - start < 1.0
        assert rep.c == 0
        assert rep.f_coefficients == tuple(f_polynomial(simplex(3)))

    def test_info_on_sheared_simplex(self):
        doc = {"ambient_dim": 3, "vertices": self._sheared_simplex(160)}
        start = time.perf_counter()
        code, out = run(CliConfig(command="info"), json.dumps(doc).encode())
        assert time.perf_counter() - start < 1.0
        assert code == 0, out
        assert json.loads(out)["lattice_points"] == 4


class TestNamedErrors:
    """The identity checks of c_star, report and `ehrhart` name the
    polytope; through the CLI they exit with code 3."""

    DOC = {"name": "unit-square", "ambient_dim": 2,
           "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}

    def _run(self, config):
        code, out = run(config, json.dumps(self.DOC).encode())
        assert code == 3, out
        return out.decode()

    def _raises(self, call, match):
        """The same check raised by the library call behind the command."""
        with pytest.raises(InternalConsistencyError, match=match) as err:
            call(Polytope.from_dict(self.DOC))
        assert "polytope unit-square" in str(err.value)

    def test_c_star_differs_from_c(self, monkeypatch):
        monkeypatch.setattr(
            invariants, "_mults",
            lambda P: {s: 1 + (k == 0) for s, k in P._lattice().dims.items()},
        )
        out = self._run(CliConfig(command="invariants"))
        assert "c_star differs from c on a Delzant input" in out
        assert "polytope unit-square, face (0, 1, 2, 3)" in out

    def test_report_c_star_check(self, monkeypatch):
        monkeypatch.setattr(invariants, "c_star", lambda P: Fraction(7))
        out = self._run(CliConfig(command="invariants"))
        assert "c_star != c on Delzant input" in out
        assert "polytope unit-square, face (0, 1, 2, 3)" in out
        self._raises(invariants.report, "c_star != c on Delzant input")

    def test_report_leading_coefficient(self, monkeypatch):
        monkeypatch.setattr(invariants, "f_polynomial", lambda P: [0, 0, 7])
        out = self._run(CliConfig(command="invariants"))
        assert "report has d_r != c" in out
        assert "polytope unit-square, face (0, 1, 2, 3)" in out
        self._raises(invariants.report, "report has d_r != c")

    def test_ehrhart_direct_count(self, monkeypatch):
        count = volumes.lattice_points
        monkeypatch.setattr(
            volumes, "lattice_points", lambda f, n: count(f, n) + (n > f.dim + 1)
        )
        config = CliConfig(command="ehrhart", dilation_max=5)
        out = self._run(config)
        assert "Ehrhart polynomial disagrees with a direct count" in out
        assert "polytope unit-square, face (0, 1, 2, 3)" in out
        self._raises(
            lambda P: cli._cmd_ehrhart(P, config),
            "Ehrhart polynomial disagrees with a direct count",
        )

    def test_ehrhart_polynomial_checked(self, monkeypatch):
        # 1 + 3n + n^2 in place of (n + 1)^2 = 1 + 2n + n^2
        poly = volumes.ehrhart_polynomial
        monkeypatch.setattr(
            volumes, "ehrhart_polynomial",
            lambda f: tuple(cf + (j == 1) for j, cf in enumerate(poly(f))),
        )
        out = self._run(CliConfig(command="ehrhart", dilation_max=1))
        assert "Ehrhart polynomial disagrees with a direct count" in out
        assert "polytope unit-square" in out


class TestDualDegree:
    def test_unit_square(self):
        assert dual_degree(cube(2, 1)) == 2

    def test_simplex_defect(self):
        assert dual_degree(simplex(3)) is None

    def test_non_delzant(self):
        assert dual_degree(hypersimplex(3, 6)) is None


class TestClassicalDegrees:
    """c(P) against dual-variety degrees known from classical algebraic
    geometry; each is an independent cross-check of the whole pipeline."""

    def test_segre_p1xp1_is_quadric(self):
        assert c(cube(2, 1)) == 2

    def test_segre_p2xp2_is_3x3_determinant(self):
        assert c(product(simplex(2), simplex(2))) == 3

    def test_veronese_conics_discriminant(self):
        assert c(simplex(2).dilate(2)) == 3

    def test_plane_cubics_discriminant(self):
        assert c(simplex(2).dilate(3)) == 12

    def test_quadric_surfaces_discriminant(self):
        assert c(simplex(3).dilate(2)) == 4

    def test_2x2x2_hyperdeterminant(self):
        assert c(cube(3, 1)) == 4

    def test_2x2x3_hyperdeterminant(self):
        assert c(product(cube(2, 1), simplex(2))) == 6

    def test_p1_bundles_over_projective_space_are_defect(self):
        assert c(product(simplex(1), simplex(2))) == 0
        assert c(product(simplex(1), simplex(3))) == 0


class TestReport:
    def test_triangle(self):
        rep = report(simplex(2))
        assert rep.c == 0
        assert rep.c_star == 0
        assert rep.f_coefficients[-1] == 0
        assert rep.dual_degree is None

    def test_hypersimplex_omits_c_star(self):
        rep = report(hypersimplex(2, 4))
        assert rep.c_star is None
        assert any("not simple" in n for n in rep.notes)

    def test_unit_square(self):
        rep = report(cube(2, 1))
        assert rep.c == 2
        assert rep.dual_degree == 2

    def test_non_integral_c_star_is_noted(self):
        rep = report(Polytope.from_vertices(TRIANGLE_HALF))
        assert rep.c_star == Fraction(1, 2)
        assert any("non-integral" in n for n in rep.notes)

    def test_serialization_shape(self):
        doc = report(cube(2, 1)).to_dict()
        assert list(doc) == [
            "c",
            "c_t",
            "f_coefficients",
            "c_star",
            "dual_degree",
            "notes",
        ]


class TestConcurrentReads:
    """Polytopes fill their caches lazily with idempotent values, so
    threads that share one polytope read what a serial run reads."""

    CALLS = (
        lambda P: report(P).to_dict(),
        lambda P: classify(P).to_dict(),
        lambda P: volumes.ehrhart_polynomial(P),
    )

    def test_shared_polytopes(self, small_corpus, simple_corpus, conjecture_corpus, join_corpus):
        corpus = small_corpus + simple_corpus + conjecture_corpus
        corpus += [J for J, _k, _r in join_corpus]

        def fresh():
            return [Polytope.from_vertices(P.vertices, name=P.name) for P in corpus]

        want = [[call(P) for call in self.CALLS] for P in fresh()]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often inside the scans
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    [pool.submit(call, P) for call in self.CALLS] for P in fresh()
                ]
                got = [[f.result(timeout=120) for f in row] for row in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == want
