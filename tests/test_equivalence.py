import pytest

from polyinv import (
    Polytope,
    cube,
    find_unimodular_map,
    hypersimplex,
    product,
    simplex,
    unimodular_equivalent,
)
from polyinv import linalg as la
from polyinv.errors import InternalConsistencyError
from polyinv.linalg import paired_unimodular_map

from conftest import TRIANGLE_HALF, UNIMODULAR_TRANSFORMS


class TestEquivalence:
    def test_reflexive(self, small_corpus):
        for P in small_corpus:
            assert unimodular_equivalent(P, P)

    def test_transformed_copies(self, small_corpus):
        for P in small_corpus:
            for M, t in UNIMODULAR_TRANSFORMS.get(P.ambient_dim, [])[:2]:
                assert unimodular_equivalent(P, P.unimodular_image(M, t))

    def test_distinguishes_square_and_triangle(self):
        assert not unimodular_equivalent(cube(2, 1), simplex(2))

    def test_distinguishes_dilates(self):
        assert not unimodular_equivalent(simplex(2), simplex(2).dilate(2))

    def test_distinguishes_volume(self):
        # same f-vector, different volume
        assert not unimodular_equivalent(
            Polytope.from_vertices(TRIANGLE_HALF), simplex(2)
        )

    def test_cross_dimension(self):
        # a segment embedded in the plane against a plain segment
        a = Polytope.from_vertices([(0, 0), (2, 2)])
        b = Polytope.from_vertices([(0,), (2,)])
        assert unimodular_equivalent(a, b)

    def test_points(self):
        a = Polytope.from_vertices([(5, 7)])
        b = Polytope.from_vertices([(0,)])
        assert unimodular_equivalent(a, b)

    def test_product_commutes(self):
        a = product(simplex(2), cube(1, 1))
        b = product(cube(1, 1), simplex(2))
        assert unimodular_equivalent(a, b)

    def test_map_is_returned_and_valid(self):
        P = cube(2, 1)
        Q = P.unimodular_image([[2, 1], [1, 1]], (3, -2))
        M, t = find_unimodular_map(P, Q)
        assert abs(la.det(M)) == 1
        mapped = {
            la.vec_add(la.mat_vec(M, v), t) for v in P._nverts
        }
        assert mapped == set(Q._nverts)

    def test_hypersimplex_complement(self):
        assert unimodular_equivalent(hypersimplex(2, 5), hypersimplex(3, 5))
        assert not unimodular_equivalent(hypersimplex(2, 5), simplex(4))


def _known_pairing(P, M, t):
    """Q = P.unimodular_image(M, t) and, in P's vertex order, the model
    vertices of Q that P's model vertices go to."""
    Q = P.unimodular_image(M, t)
    image = [la.vec_add(la.mat_vec(M, v), t) for v in P.vertices]
    return Q, [Q._nverts[Q.vertices.index(w)] for w in image]


class TestFrameCheck:
    def test_edge_directions_that_do_not_span(self):
        # a corrupted edge graph leaves vertex 0 of the square one neighbour,
        # too few for a frame of the plane
        P = cube(2, 1)
        P.edge_graph()[0] = P.edge_graph()[0][:1]
        span = "edge directions at a vertex do not span"
        with pytest.raises(InternalConsistencyError, match=span) as err:
            find_unimodular_map(P, P)
        assert "(polytope cube(2,1), face (0,))" in str(err.value)


class TestPairedMap:
    """The map fixed by a known vertex correspondence."""

    def test_reproduces_the_pairing(self, small_corpus):
        for P in small_corpus:
            for M, t in UNIMODULAR_TRANSFORMS.get(P.ambient_dim, []):
                Q, paired = _known_pairing(P, M, t)
                found = paired_unimodular_map(P._nverts, paired)
                assert found is not None, P.name
                N, s = found
                assert abs(la.det(N)) == 1
                assert [la.vec_add(la.mat_vec(N, p), s) for p in P._nverts] == paired
                if P.dim == P.ambient_dim:
                    # full dimensional: the ambient pairing fixes (M, t) itself
                    image = [la.vec_add(la.mat_vec(M, v), t) for v in P.vertices]
                    assert paired_unimodular_map(P.vertices, image) == (M, t)

    @pytest.mark.parametrize("P", [cube(2, 1), cube(3, 1), cube(3, 2)])
    def test_swapped_pair(self, P):
        # vertices 0 and 1 span an edge; no affine map swaps them and
        # fixes every other vertex
        _, paired = _known_pairing(P, *UNIMODULAR_TRANSFORMS[P.ambient_dim][0])
        assert paired_unimodular_map(P._nverts, paired) is not None
        swapped = [paired[1], paired[0], *paired[2:]]
        assert paired_unimodular_map(P._nverts, swapped) is None

    def test_dilate(self, small_corpus):
        for P in small_corpus:
            if P.dim == 0:
                continue
            Q = P.dilate(2)
            assert Q.vertices == tuple(tuple(2 * x for x in v) for v in P.vertices)
            assert paired_unimodular_map(P._nverts, Q._nverts) is None
            assert paired_unimodular_map(P.vertices, Q.vertices) is None

    def test_non_integral(self):
        # the half triangle's vertex swap is affine but not integral
        P = Polytope.from_vertices(TRIANGLE_HALF)
        swapped = [P._nverts[1], P._nverts[0], P._nverts[2]]
        assert paired_unimodular_map(P._nverts, swapped) is None

    def test_points(self):
        assert paired_unimodular_map([()], [()]) == ([], ())
