import itertools
import json
from math import comb, factorial

import pytest

from polyinv import (
    Polytope,
    c,
    cube,
    decompose_join,
    eulerian,
    hypersimplex,
    lattice_points,
    normalized_volume,
    product,
    projective_join,
    simplex,
    unimodular_equivalent,
)
from polyinv import polytope
from polyinv.cli import CliConfig, run
from polyinv.constructions import _generated
from polyinv.errors import DomainError, InternalConsistencyError

import oracles
from conftest import segment


SHEARED_TRIANGLE = [(0, 0), (2, 1), (1, 3)]


def descents(perm):
    return sum(1 for a, b in zip(perm, perm[1:]) if a > b)


class TestEulerian:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_against_permutation_enumeration(self, n):
        counts = {}
        for perm in itertools.permutations(range(1, n + 1)):
            counts[descents(perm)] = counts.get(descents(perm), 0) + 1
        for j in range(n):
            assert eulerian(n, j) == counts.get(j, 0)

    def test_known_values(self):
        assert eulerian(4, 0) == 1
        assert eulerian(4, 1) == 11
        assert eulerian(5, 2) == 66

    def test_out_of_range_is_zero(self):
        assert eulerian(4, 9) == 0
        assert eulerian(4, -1) == 0

    def test_row_sums(self):
        for n in range(1, 8):
            assert sum(eulerian(n, j) for j in range(n)) == factorial(n)


class TestSimplex:
    def test_point(self):
        P = simplex(0)
        assert P.dim == 0 and len(P.vertices) == 1

    def test_triangle(self):
        P = simplex(2)
        assert normalized_volume(P) == 1
        assert P.n_facets == 3

    def test_face_counts_r5(self):
        P = simplex(5)
        assert P.f_vector == tuple(comb(6, k + 1) for k in range(6))

    def test_negative_dimension(self):
        with pytest.raises(DomainError):
            simplex(-1)


class TestCube:
    def test_segment(self):
        P = cube(1, 1)
        assert P.dim == 1 and P.vertices == ((0,), (1,))

    def test_unit_square_invariant(self):
        assert c(cube(2, 1)) == 2

    def test_lattice_points_of_cube_3_2(self):
        assert lattice_points(cube(3, 2), 1) == 27

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            cube(0, 1)
        with pytest.raises(DomainError):
            cube(2, 0)


class TestHypersimplex:
    def test_k1_is_standard_simplex(self):
        for n in (2, 3, 4, 5):
            H = hypersimplex(1, n)
            assert H.dim == n - 1
            assert unimodular_equivalent(H, simplex(n - 1))

    def test_face_table_36(self):
        assert hypersimplex(3, 6).f_vector == (20, 90, 120, 60, 12, 1)

    def test_octahedral_24(self):
        H = hypersimplex(2, 4)
        assert H.dim == 3
        assert normalized_volume(H) == 4

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            hypersimplex(0, 4)
        with pytest.raises(DomainError):
            hypersimplex(4, 4)

    def test_complement_equivalence(self):
        for k, n in [(1, 3), (2, 4), (2, 5), (2, 6)]:
            assert unimodular_equivalent(
                hypersimplex(k, n), hypersimplex(n - k, n)
            )

    @pytest.mark.parametrize("n", range(2, 8))
    def test_volume_is_eulerian(self, n):
        for k in range(1, n):
            assert normalized_volume(hypersimplex(k, n)) == eulerian(n - 1, k - 1)


class TestProduct:
    def test_prism_is_the_figure_polytope(self):
        prism = product(simplex(2), cube(1, 1))
        assert prism.dim == 3
        assert c(prism) == 0

    def test_product_with_point(self):
        P = product(simplex(2), simplex(0))
        assert P.f_vector == simplex(2).f_vector
        assert normalized_volume(P) == normalized_volume(simplex(2))

    def test_square_as_product(self):
        P = product(cube(1, 1), cube(1, 1))
        assert unimodular_equivalent(P, cube(2, 1))

    def test_f_vector_is_the_convolution(self):
        triangle = Polytope.from_vertices(SHEARED_TRIANGLE)
        pairs = [
            (simplex(2), cube(2, 1)),
            (segment(3), hypersimplex(2, 4)),
            (simplex(0), simplex(3)),
            (cube(1, 2), simplex(1)),
            (hypersimplex(1, 3), triangle),
            (triangle, segment(3)),
        ]
        for P, Q in pairs:
            R = product(P, Q)
            assert R.n_vertices == P.n_vertices * Q.n_vertices
            assert R.n_facets == P.n_facets + Q.n_facets
            convolution = [0] * (P.dim + Q.dim + 1)
            for i, fp in enumerate(P.f_vector):
                for j, fq in enumerate(Q.f_vector):
                    convolution[i + j] += fp * fq
            assert R.f_vector == tuple(convolution)

    def test_matches_general_hull(self):
        R = product(simplex(2), cube(1, 2))
        facets = oracles.subset_hull_facets(R.vertices)
        assert sorted(facets.values()) == sorted(R.facets)
        assert oracles.hull_vertices(R.vertices, facets) == list(R.vertices)
        assert normalized_volume(R) == oracles.oracle_normalized_volume(R.vertices)


class TestProjectiveJoin:
    def test_join_of_points_is_simplex(self):
        for k in (1, 2, 3):
            J = projective_join([simplex(0)] * (k + 1))
            assert unimodular_equivalent(J, simplex(k))

    def test_join_of_separated_points(self):
        pts = [Polytope.from_vertices([(i, 2 * i)]) for i in (0, 3, 5)]
        J = projective_join(pts)
        assert unimodular_equivalent(J, simplex(2))

    def test_figure_join_of_segments(self):
        J = projective_join([segment(2), segment(2), segment(3)], name="fig")
        assert J.dim == 3
        assert len(J.vertices) == 6
        assert c(J) == 0
        assert J.is_delzant()

    def test_join_of_copies_is_product_with_simplex(self):
        for Q in (
            segment(2),
            simplex(2),
            cube(2, 1),
            hypersimplex(1, 3),
            Polytope.from_vertices(SHEARED_TRIANGLE),
        ):
            for k in (1, 2, 3):
                J = projective_join([Q] * (k + 1))
                assert J.dim == Q.dim + k
                assert J.n_facets == Q.n_facets + k + 1
                assert unimodular_equivalent(J, product(simplex(k), Q))
                assert unimodular_equivalent(J, product(Q, simplex(k)))

    def test_join_dimension(self):
        J = projective_join([cube(2, 1)] * 4)
        assert J.dim == 2 + 3

    def test_wrong_dimension_is_an_internal_error(self):
        # a summand that records dimension 2 for a segment: the join of two
        # copies is a square, not the 3-polytope that 2 + k promises
        S = Polytope.from_vertices([(0,), (1,)])
        object.__setattr__(S, "dim", 2)
        wrong = "projective join has wrong dimension"
        with pytest.raises(InternalConsistencyError, match=wrong) as err:
            projective_join([S, S], name="J")
        assert "(polytope J, face (0, 1, 2, 3))" in str(err.value)

    def test_single_summand(self):
        J = projective_join([segment(2)])
        assert J.vertices == segment(2).vertices

    def test_rejects_mismatched_summands(self, tmp_path):
        with pytest.raises(DomainError, match="strongly isomorphic"):
            projective_join([segment(1), cube(2, 1)])
        with pytest.raises(DomainError, match="strongly isomorphic"):
            projective_join([simplex(2), cube(2, 1)])
        # the same five facet normals, but a prism (6, 9, 5, 1) and a
        # square pyramid (5, 8, 5, 1): only the normal fans tell them apart
        prism = Polytope.from_vertices(
            [(0, 1, 1), (0, 1, 2), (1, 1, 0), (1, 1, 2), (2, 2, 0), (2, 2, 2)]
        )
        pyramid = Polytope.from_vertices(
            [(0, 0, 2), (1, 0, 1), (1, 0, 2), (2, 1, 1), (2, 1, 2)]
        )
        assert [a for a, _ in prism._nfacets] == [a for a, _ in pyramid._nfacets]
        message = "summands not strongly isomorphic: normal fans differ"
        with pytest.raises(DomainError, match=f"^{message}$"):
            projective_join([prism, pyramid])
        paths = []
        for name, P in (("prism", prism), ("pyramid", pyramid)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(P.to_dict()))
            paths.append(str(path))
        code, out = run(CliConfig(command="join", summands=tuple(paths)))
        assert (code, out) == (2, f"error: {message}\n".encode())

    def test_rejects_nonparallel_spans(self):
        a = Polytope.from_vertices([(0, 0), (1, 0)])
        b = Polytope.from_vertices([(0, 0), (0, 1)])
        with pytest.raises(DomainError, match="strongly isomorphic"):
            projective_join([a, b])

    def test_rectangles_are_strongly_isomorphic(self):
        # same normal fan, different edge lengths
        a = product(segment(1), segment(2))
        b = product(segment(3), segment(1))
        J = projective_join([a, b])
        assert J.dim == 3

    def test_translated_summands_allowed(self):
        a = segment(2)
        b = Polytope.from_vertices([(5,), (7,)])
        J = projective_join([a, b])
        assert unimodular_equivalent(J, projective_join([a, a]))

    def test_defect_vanishing_for_joins_in_range(self, join_corpus):
        for J, k, r in join_corpus:
            if k >= max(2, (r + 1) / 2):
                assert c(J) == 0, (k, r)

    def test_vertices_are_the_lifted_fiber_vertices(self, join_corpus):
        # the classifier predicts each vertex's place in the join of its
        # fibers as v + e_i without building the hull; the hull agrees
        for J, k, r in join_corpus:
            fibers = decompose_join(J).fibers
            lifted = sorted(
                v + tuple(int(t == i - 1) for t in range(len(fibers) - 1))
                for i, F in enumerate(fibers)
                for v in F.vertices
            )
            assert list(projective_join(fibers).vertices) == lifted, (k, r)

    def test_join_below_range_not_defect(self):
        # k = 2 with square fibers gives r = 4, below the classified range
        J = projective_join([cube(2, 1)] * 3)
        assert c(J) > 0


class TestGeneratedVertexCheck:
    def test_dropped_point_is_an_internal_error(self):
        with pytest.raises(InternalConsistencyError, match="demo construction") as err:
            _generated("demo", [(0,), (1,), (2,)], None)
        assert "(polytope unnamed, face (0, 1))" in str(err.value)
        assert _generated("demo", [(0,), (2,)], None).n_vertices == 2

    def test_family_whose_hull_loses_a_facet(self, monkeypatch):
        # without its first facet the square keeps only the two corners
        # that the three remaining facets pin down
        hull = polytope._hull_facet_normals
        monkeypatch.setattr(
            polytope, "_hull_facet_normals", lambda model, d: hull(model, d)[1:]
        )
        dropped = "cube construction dropped a point expected to be a vertex"
        with pytest.raises(InternalConsistencyError, match=dropped) as err:
            cube(2, 1)
        assert "(polytope cube(2,1), face (0, 1))" in str(err.value)


class TestDilate:
    @pytest.mark.parametrize(
        "P",
        [
            simplex(2),
            cube(2, 1),
            hypersimplex(2, 4),
            Polytope.from_vertices(SHEARED_TRIANGLE),
            Polytope.from_vertices([(0, 0), (2, 2)]),
        ],
    )
    def test_dilate_is_the_hull_of_scaled_vertices(self, P):
        for n in (2, 3):
            D = P.dilate(n)
            G = Polytope.from_vertices([tuple(n * x for x in v) for v in P.vertices])
            assert D.vertices == G.vertices
            assert D._nfacets == G._nfacets
            assert D.name is None
            assert D.f_vector == P.f_vector
