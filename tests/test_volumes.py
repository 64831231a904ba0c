from fractions import Fraction
from math import factorial

import pytest

from polyinv import (
    Polytope,
    cube,
    ehrhart,
    hypersimplex,
    lattice_points,
    normalized_volume,
    product,
    simplex,
    volume,
)
from polyinv.errors import DomainError, InternalConsistencyError

import oracles
from conftest import UNIMODULAR_TRANSFORMS


class TestNormalizedVolume:
    def test_simplex_faces_all_unimodular(self):
        P = simplex(4)
        for f in P.face_lattice():
            assert normalized_volume(f) == 1

    def test_edge_length_counts_lattice_points(self):
        # an edge containing 4 lattice points has length 3
        P = Polytope.from_vertices([(0, 0), (3, 3)])
        assert lattice_points(P, 1) == 4
        assert normalized_volume(P) == 3

    def test_prism_volume(self):
        prism = product(simplex(2), cube(1, 1))
        assert normalized_volume(prism) == 3
        assert volume(prism) == Fraction(1, 2)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_simplex_volume(self, r):
        assert volume(simplex(r)) == Fraction(1, factorial(r))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_unit_cube_volume(self, m):
        assert volume(cube(m, 1)) == 1

    def test_hypersimplex_36_volume(self):
        P = hypersimplex(3, 6)
        assert normalized_volume(P) == 66
        assert volume(P) == Fraction(11, 20)

    def test_vertex_volume_is_one(self):
        P = simplex(2)
        assert all(normalized_volume(f) == 1 for f in P.faces(0))

    def test_matches_counting_oracle(self, small_corpus):
        for P in small_corpus:
            if P.dim > 3 and len(P.vertices) > 10:
                continue
            assert normalized_volume(P) == oracles.oracle_normalized_volume(
                P.vertices
            ), P.name
            if P.dim > 3:
                continue
            for f in P.face_lattice()[:-1]:  # the proper faces
                assert normalized_volume(f) == oracles.oracle_normalized_volume(
                    f.vertices
                ), (P.name, f.vertex_ids)

    def test_invariant_under_unimodular_maps(self, small_corpus):
        for P in small_corpus:
            for M, t in UNIMODULAR_TRANSFORMS.get(P.ambient_dim, [])[:2]:
                assert normalized_volume(P.unimodular_image(M, t)) == (
                    normalized_volume(P)
                )

    def test_degenerate_triangulation_simplex_raises(self):
        P = cube(3, 1)
        # vertices 0..3 span the facet x_1 = 0, not a 3-simplex
        P._cache[("tri", P.top_face().vertex_ids)] = ((0, 1, 2, 3),)
        with pytest.raises(InternalConsistencyError, match="degenerate simplex"):
            normalized_volume(P)

    def test_additive_over_a_split(self):
        # [0,3] x [0,1] split along x = 1 into two rectangles
        left = Polytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
        right = Polytope.from_vertices([(1, 0), (3, 0), (1, 1), (3, 1)])
        whole = Polytope.from_vertices([(0, 0), (3, 0), (0, 1), (3, 1)])
        assert (
            normalized_volume(whole)
            == normalized_volume(left) + normalized_volume(right)
        )


class TestLatticePoints:
    def test_triangle_has_three(self):
        assert lattice_points(simplex(2), 1) == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_square_grid(self, n):
        assert lattice_points(cube(2, 1), n) == (n + 1) ** 2

    def test_hypersimplex_36_vertices_only(self):
        assert lattice_points(hypersimplex(3, 6), 1) == 20

    def test_rejects_nonpositive_dilation(self):
        with pytest.raises(DomainError):
            lattice_points(simplex(2), 0)

    def test_counts_match_oracle(self, small_corpus):
        for P in small_corpus:
            if P.dim > 3 and len(P.vertices) > 10:
                continue
            for n in (1, 2):
                assert lattice_points(P, n) == oracles.box_count(
                    P.vertices, n
                ), (P.name, n)

    def test_face_counts_match_oracle(self, small_corpus):
        for P in small_corpus:
            if P.dim > 3:
                continue
            for f in P.faces(max(P.dim - 1, 0)):
                assert lattice_points(f, 2) == oracles.box_count(f.vertices, 2)


class TestEhrhart:
    def test_segment(self):
        P = Polytope.from_vertices([(0,), (2,)])
        data = ehrhart(P)
        assert data.polynomial == (Fraction(1), Fraction(2))

    def test_triangle(self):
        data = ehrhart(simplex(2))
        # (n+1)(n+2)/2
        assert data.polynomial == (Fraction(1), Fraction(3, 2), Fraction(1, 2))
        for n in (3, 4):
            assert data.evaluate(n) == lattice_points(simplex(2), n)

    def test_unit_cube_3(self):
        data = ehrhart(cube(3, 1))
        assert data.polynomial == (
            Fraction(1),
            Fraction(3),
            Fraction(3),
            Fraction(1),
        )

    def test_samples_include_forced_origin(self):
        data = ehrhart(simplex(3))
        assert data.samples[0] == 1

    def test_leading_coefficient_is_volume(self, small_corpus):
        for P in small_corpus:
            if P.dim > 3 and len(P.vertices) > 10:
                continue
            data = ehrhart(P)
            assert data.polynomial[-1] == volume(P)
            assert data.polynomial[0] == 1

    def test_two_extra_dilations(self, small_corpus):
        for P in small_corpus:
            if P.dim > 3:
                continue
            data = ehrhart(P)
            for n in (P.dim + 2, P.dim + 3):
                assert data.evaluate(n) == lattice_points(P, n), P.name


class TestPick:
    def pick_holds(self, P):
        area = volume(P)
        perimeter = sum(normalized_volume(e) for e in P.faces(1))
        return lattice_points(P, 1) == area + Fraction(perimeter, 2) + 1

    def test_on_2d_corpus(self, small_corpus):
        polys = [P for P in small_corpus if P.dim == 2]
        assert polys
        for P in polys:
            assert self.pick_holds(P), P.name
