import copy
import gc
import itertools
import pickle
import re
import time
import weakref
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from polyinv import Polytope, classifier, cube, hypersimplex, invariants, simplex
from polyinv import linalg as la
from polyinv import polytope, volumes
from polyinv.errors import DomainError, InternalConsistencyError
from polyinv.polytope import _clean_points, _ids, _is_facet, _start_cone

import oracles
from conftest import (
    TRIANGLE_HALF,
    UNIMODULAR_TRANSFORMS,
    hull_inputs,
    lattice_polytopes,
    unimodular_maps,
)


class TestFromVertices:
    def test_standard_triangle(self):
        P = Polytope.from_vertices([(0, 0), (1, 0), (0, 1)])
        assert P.dim == 2
        assert P.n_facets == 3
        assert len(P.vertices) == 3

    def test_collinear_interior_point_dropped(self):
        P = Polytope.from_vertices([(0, 0), (1, 0), (2, 0)])
        assert P.dim == 1
        assert P.vertices == ((0, 0), (2, 0))
        assert P.n_facets == 2

    def test_duplicates_removed(self):
        P = Polytope.from_vertices([(0, 0), (0, 0), (1, 0), (0, 1), (1, 0)])
        assert len(P.vertices) == 3

    def test_interior_point_dropped(self):
        big = Polytope.from_vertices([(0, 0), (3, 0), (0, 3), (1, 1)])
        assert (1, 1) not in big.vertices

    def test_empty_input(self):
        with pytest.raises(DomainError):
            Polytope.from_vertices([])

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            Polytope.from_vertices([(0.5, 0)])

    def test_hypersimplex_36(self):
        P = hypersimplex(3, 6)
        assert P.dim == 5
        assert P.n_facets == 12

    def test_facets_satisfied_by_all_vertices(self, small_corpus):
        for P in small_corpus:
            for a, b in P.facets:
                for v in P.vertices:
                    assert sum(x * y for x, y in zip(a, v)) >= b

    def test_lower_dimensional_facets(self):
        # ambient normals of a lower-dimensional polytope are fixed only
        # modulo its span equations; these are the ones the HNF-only
        # normalization gives
        assert hypersimplex(2, 4).facets == (
            ((0, 0, 0, 1), 0),
            ((-1, 0, 0, 0), -1),
            ((0, -1, 0, 0), -1),
            ((1, 1, 0, 1), 1),
            ((-1, -1, 0, -1), -2),
            ((0, 1, 0, 0), 0),
            ((1, 0, 0, 0), 0),
            ((0, 0, 0, -1), -1),
        )
        triangle = Polytope.from_vertices([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert triangle.facets == (((0, 0, 1), 0), ((-1, 0, -1), -1), ((1, 0, 0), 0))
        segment = Polytope.from_vertices([(0, 0, 0), (2, 2, 2)])
        assert segment.facets == (((0, 0, -1), -2), ((0, 0, 1), 0))

    def test_span_equations_hold(self, small_corpus):
        for P in small_corpus:
            for c_, val in P.span_equations:
                for v in P.vertices:
                    assert sum(x * y for x, y in zip(c_, v)) == val


class TestFaceLattice:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_simplex_counts_are_binomial(self, r):
        P = simplex(r)
        for k in range(r + 1):
            assert len(P.faces(k)) == comb(r + 1, k + 1)

    def test_hypersimplex_36_table(self):
        P = hypersimplex(3, 6)
        assert P.f_vector == (20, 90, 120, 60, 12, 1)

    def test_unit_square(self):
        assert cube(2, 1).f_vector == (4, 4, 1)

    def test_faces_filter(self):
        P = simplex(2)
        assert len(P.faces(1)) == 3
        assert P.faces(-1) == ()
        assert P.faces(3) == ()
        assert P.faces(P.dim) == (P.top_face(),)

    def test_hypersimplex_3_faces(self):
        assert len(hypersimplex(3, 6).faces(3)) == 60

    def test_euler_relation(self, small_corpus):
        for P in small_corpus:
            assert sum((-1) ** k * c for k, c in enumerate(P.f_vector)) == 1

    def test_facet_faces_have_codimension_one(self, small_corpus):
        for P in small_corpus:
            if P.dim == 0:
                continue
            facet_faces = P.faces(P.dim - 1)
            assert len(facet_faces) == P.n_facets
            for f in facet_faces:
                assert len(f.facet_ids) >= 1

    def test_brute_force_oracle_agreement(self, small_corpus):
        for P in small_corpus:
            expected = oracles.face_vertex_sets(P.vertices)
            got = {frozenset(f.vertex_ids) for f in P.face_lattice()}
            assert got == expected, P.name
            assert_graded_lattice(P)

    def test_randomized_hulls_match_oracle(self):
        import random

        rng = random.Random(31081)
        for trial in range(15):
            dim = rng.choice((2, 2, 3))
            pts = {
                tuple(rng.randrange(-2, 4) for _ in range(dim))
                for _ in range(rng.randrange(4, 9))
            }
            P = Polytope.from_vertices(sorted(pts))
            got = {frozenset(f.vertex_ids) for f in P.face_lattice()}
            assert got == oracles.face_vertex_sets(P.vertices), (trial, pts)
            assert_graded_lattice(P)


def assert_graded_lattice(P):
    """Each face's level is the affine dimension of its vertices, and its
    children are the faces one level down whose vertices it contains.
    Each level is strictly increasing in vertex ids, and the lattice lists
    the levels from dimension 0 up."""
    faces = P.face_lattice()
    levels = [P.faces(k) for k in range(P.dim + 1)]
    assert faces == sum(levels, ()), P.name
    for level in levels:
        ids = [f.vertex_ids for f in level]
        assert all(a < b for a, b in zip(ids, ids[1:])), (P.name, ids)
    for f in faces:
        assert f.dim == oracles.affine_dim(f.vertices), (P.name, f.vertex_ids)
        expected = tuple(
            g
            for g in faces
            if g.dim == f.dim - 1 and set(g.vertex_ids) <= set(f.vertex_ids)
        )
        assert P.face_children(f) == expected, (P.name, f.vertex_ids)


class TestFaceIdentity:
    """Faces are made afresh on each call; two are equal iff their masks
    and their owners are."""

    def test_faces_of_different_polytopes_differ(self):
        # the segments (0,0)-(0,2) and (0,0)-(0,1), both with vertex ids (0, 1)
        f, g = cube(2, 2).faces(1)[0], simplex(2).faces(1)[0]
        assert f.mask == g.mask
        assert f != g
        assert len({f, g}) == 2

    def test_two_calls_give_equal_faces(self):
        P = hypersimplex(2, 4)
        f, g = P.faces(1)[0], P.faces(1)[0]
        assert f is not g
        assert f == g and hash(f) == hash(g)
        assert P.face_lattice() == P.face_lattice()

    def test_equal_owners_give_equal_faces(self):
        f = cube(3, 1).faces(2)[1]
        g = cube(3, 1).faces(2)[1]
        assert f.owner is not g.owner
        assert f == g and hash(f) == hash(g)

    def test_children_of_a_face_of_an_equal_polytope(self):
        P, Q = cube(3, 1), cube(3, 1)
        for f in Q.face_lattice():
            assert P.face_children(f) == Q.face_children(f)

    def test_children_of_a_face_of_another_polytope_raise(self):
        # the 2-simplex's edge (0,0)-(1,0) has the mask 0b11 of the unit
        # square's edge (0,0)-(0,1), and its top face the mask 0b111, which
        # is no face of the square
        square, triangle = cube(2, 1), simplex(2)
        edge = next(f for f in triangle.faces(1) if f.mask == 0b11)
        for face in (edge, triangle.top_face()):
            with pytest.raises(DomainError, match="^face does not belong to this polytope$"):
                square.face_children(face)


class TestFreedByRefcount:
    """No cache of a polytope points back at it, so dropping the last
    reference frees it without the cyclic collector."""

    def test_dead_after_every_command(self, join_corpus):
        corpus = [cube(3, 1), hypersimplex(2, 4)]
        # a fresh copy: the session fixture keeps its own members alive
        corpus.append(Polytope.from_vertices(join_corpus[5][0].vertices))
        gc.collect()
        gc.disable()
        try:
            refs = []
            while corpus:
                P = corpus.pop()
                P.f_vector
                volumes.normalized_volume(P)
                volumes.lattice_points(P, 1)
                invariants.report(P)
                classifier.classify(P)
                refs.append(weakref.ref(P))
                del P
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()


class TestFaceLatticeGuardrails:
    """A wrong facet incidence fails at the first use of the lattice, and
    the error names the polytope and the face."""

    def test_dropped_facet_misses_a_vertex(self):
        P = cube(2, 1)
        object.__setattr__(P, "_incidence", P._incidence[1:])
        with pytest.raises(InternalConsistencyError, match="vertex missing") as err:
            P.face_lattice()
        assert "(polytope cube(2,1), face (0, 1, 2, 3))" in str(err.value)

    def test_face_at_two_levels(self):
        P = cube(2, 1)
        object.__setattr__(P, "_incidence", (P._incidence[0] ^ 1,) + P._incidence[1:])
        with pytest.raises(InternalConsistencyError, match="two levels") as err:
            P.face_lattice()
        assert "(polytope cube(2,1), face (0,))" in str(err.value)

    def test_euler_relation(self):
        P = hypersimplex(2, 4)
        object.__setattr__(P, "_incidence", P._incidence[1:])
        with pytest.raises(InternalConsistencyError, match="Euler"):
            P.face_lattice()

    def test_top_face_on_a_facet(self):
        P = cube(2, 1)
        top = (1 << P.n_vertices) - 1
        object.__setattr__(P, "_incidence", (top,) + P._incidence[1:])
        with pytest.raises(InternalConsistencyError, match="top face lies on a facet"):
            P.face_lattice()


class TestHullOracle:
    """`from_vertices` against the subset enumeration it replaced."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(hull_inputs())
    def test_matches_subset_enumeration(self, pts):
        assert_hull_matches_subset_enumeration(pts)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(hull_inputs())
    def test_facet_certificate_matches_gauss_rank(self, pts):
        # the start-simplex certificate, and the elimination behind it, pass
        # a ray iff its tight set has rank d - 1: each hull ray, and each
        # sum of two, tight on a ridge or on a smaller face or facet
        pts = _clean_points(pts)
        _norm, model, start = la.affine_model(pts)
        d, starts = len(start) - 1, sum(1 << i for i in start)
        normals = [a for a, _ in polytope._hull_facet_normals(model, start)] if d else []
        sums = [la.vec_add(a, b) for a, b in itertools.combinations(normals, 2)]
        for a in normals + [la.primitive(a) for a in sums if any(a)]:
            vals = [la.dot(a, y) for y in model]
            zero = sum(1 << i for i, v in enumerate(vals) if v == min(vals))
            first, *rest = _ids(zero)
            diffs = [la.vec_sub(model[i], model[first]) for i in rest]
            rank = oracles.gauss_rank(diffs)
            assert _is_facet(model, starts, a, zero) == (rank == d - 1), (a, zero)

    @pytest.mark.parametrize(
        "pts",
        [
            # the first three points are collinear
            [(0, 0, 0), (1, 1, 0), (2, 2, 0), (-1, -1, 0), (0, 3, 0), (0, 0, 2), (3, 0, 1)],
            # the first four points span a parallelogram: a repeated direction
            [(0, 0, 0), (1, 2, 0), (2, 1, 0), (3, 3, 0), (1, 1, 3), (2, 2, -1)],
            # a repeated point and a point between the first two
            [(0, 0), (4, 2), (0, 0), (2, 1), (6, 3), (1, 5)],
            # dimension 4, the first five points on one facet of the cube
            [p + (0,) for p in itertools.product((0, 1), repeat=3)]
            + [(0, 0, 0, 1), (1, 1, 1, 1), (1, 0, 0, 1)],
        ],
        ids=["collinear", "parallelogram", "repeat", "cube-facet"],
    )
    def test_affinely_dependent_leading_points(self, pts):
        norm = la.affine_normalize(_clean_points(pts))
        model = [norm.forward(p) for p in _clean_points(pts)]
        assert oracles.affine_basis(model, norm.dim) != list(range(norm.dim + 1))
        assert_start_cone_matches_kernels(pts)
        assert_hull_matches_subset_enumeration(pts)

    @pytest.mark.parametrize(
        "points,family",
        [
            (list(itertools.product((0, 1), repeat=5)), lambda: cube(5, 1)),
            (
                [
                    tuple(int(i in S) for i in range(7))
                    for S in itertools.combinations(range(7), 3)
                ],
                lambda: hypersimplex(3, 7),
            ),
        ],
        ids=["cube5", "hypersimplex37"],
    )
    def test_many_vertices_fast(self, points, family):
        start = time.perf_counter()
        P = Polytope.from_vertices(points)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        Q = family()
        assert P.n_vertices == len(points)
        assert P.facets == Q.facets
        assert P.f_vector == Q.f_vector


def assert_hull_matches_subset_enumeration(pts):
    """The facets, their incidences and the vertices of `from_vertices`
    equal those of `oracles.subset_hull_facets`."""
    P = Polytope.from_vertices(pts)
    expected = oracles.subset_hull_facets(pts)
    assert list(P.vertices) == oracles.hull_vertices(pts, expected)
    got = set()
    for (a, b), ids in zip(P.facets, P._incidence):
        vals = [sum(x * y for x, y in zip(a, p)) for p in pts]
        assert min(vals) == b
        tight = frozenset(p for p, v in zip(pts, vals) if v == b)
        assert tight in expected
        if P.dim == P.ambient_dim:
            assert (a, b) == expected[tight]
        on_facet = {v for i, v in enumerate(P.vertices) if ids >> i & 1}
        assert on_facet == tight & set(P.vertices)
        got.add(tight)
    assert got == set(expected)


def assert_start_cone_matches_kernels(points):
    """`linalg.affine_model` on `points` gives the normalization, the
    `forward` images and, as the hull's start ids, the least point followed
    by `independent_rows` of the model differences from it; the adjugate
    start cone on those ids equals the one kernel per start row route."""
    pts = _clean_points(points)
    norm, model, start = la.affine_model(pts)
    assert norm == la.affine_normalize(pts), points
    assert model == [norm.forward(p) for p in pts], points
    least = pts.index(min(pts))
    diffs = [la.vec_sub(y, model[least]) for y in model]
    assert start == [least] + la.independent_rows(diffs, norm.dim), points
    if norm.dim:
        rays = oracles.kernel_start_cone(model, start)
        assert _start_cone(model, start) == rays, points


class TestStartCone:
    """The Hermite pivot start ids against a greedy elimination, and the
    adjugate start cone against the kernel route it replaced."""

    def test_corpora(self, small_corpus, join_corpus):
        for P in small_corpus + [J for J, _k, _r in join_corpus]:
            assert_start_cone_matches_kernels(P.vertices)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(hull_inputs())
    def test_hull_inputs(self, pts):
        assert_start_cone_matches_kernels(pts)


def assert_lattice_matches_oracles(P):
    """The face lattice equals the frozenset pass run on the incidences
    read off the ambient facet inequalities. Each face's facet ids are
    exactly the facets tight on all of its vertices, and its vertex ids
    exactly the vertices tight on all of those facets."""
    tight = [
        frozenset(
            i for i, v in enumerate(P.vertices) if sum(x * y for x, y in zip(a, v)) == b
        )
        for a, b in P.facets
    ]
    expected = oracles.frozenset_face_lattice(P.n_vertices, tight)
    got = {
        frozenset(f.vertex_ids): (
            frozenset(f.facet_ids),
            f.dim,
            tuple(frozenset(g.vertex_ids) for g in P.face_children(f)),
        )
        for f in P.face_lattice()
    }
    assert got == expected, P.name
    everything = frozenset(range(P.n_vertices))
    for f in P.face_lattice():
        vids = frozenset(f.vertex_ids)
        assert f.facet_ids == tuple(j for j, t in enumerate(tight) if vids <= t)
        assert everything.intersection(*(tight[j] for j in f.facet_ids)) == vids


class TestLatticeOracles:
    """The bitmask face lattice against the frozenset pass it replaced and
    against the facet inequalities."""

    def test_corpora(self, small_corpus, join_corpus):
        for P in small_corpus + [J for J, _k, _r in join_corpus]:
            assert_lattice_matches_oracles(P)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(hull_inputs())
    def test_hull_inputs(self, pts):
        P = Polytope.from_vertices(pts)
        if P.ambient_dim <= 4:
            expected = oracles.subset_hull_facets(pts)
            assert list(P.vertices) == oracles.hull_vertices(pts, expected)
        assert_lattice_matches_oracles(P)


class TestPredicates:
    def test_simplices_and_cubes_simple(self):
        assert simplex(3).is_simple()
        assert cube(3, 1).is_simple()

    def test_hypersimplex_not_simple(self):
        P = hypersimplex(3, 6)
        assert not P.is_simple()
        assert all(len(nbrs) == 9 for nbrs in P.edge_graph().values())

    def test_delzant_families(self):
        assert simplex(4).is_delzant()
        assert cube(3, 1).is_delzant()
        assert cube(2, 2).is_delzant()

    def test_delzant_counterexample(self):
        # at the origin the primitive edge directions are (1,0) and (1,2)
        P = Polytope.from_vertices(TRIANGLE_HALF)
        assert P.is_simple()
        assert not P.is_delzant()

    def test_delzant_dilated_simplex(self):
        # dilation preserves the Delzant property: corners are unchanged
        assert simplex(2).dilate(2).is_delzant()

    def test_non_unimodular_triangle_not_delzant(self):
        # at (1,0) the primitive edge directions (-1,0), (-1,2) have det 2
        P = Polytope.from_vertices([(0, 0), (1, 0), (0, 2)])
        assert not P.is_delzant()
        from polyinv import mult

        vertex_10 = [f for f in P.faces(0) if f.vertices == ((1, 0),)][0]
        assert mult(P, vertex_10) == 2

    def test_hypersimplex_not_delzant(self):
        assert not hypersimplex(3, 6).is_delzant()

    def test_point_is_delzant(self):
        # no edges: the empty determinant is 1, in every ambient dimension
        assert simplex(0).is_delzant()
        assert Polytope.from_vertices([()]).is_delzant()
        assert Polytope.from_vertices([(3, -1)]).is_delzant()


def assert_predicates_match_edge_route(P):
    """`is_simple` and `is_delzant`, read off the normal fan, against the
    edge-graph oracles."""
    fan = (P.is_simple(), P.is_delzant())
    assert fan == (oracles.edge_is_simple(P), oracles.edge_is_delzant(P)), P


class TestPredicatesAgainstEdgeRoute:
    """The normal-fan predicates against the edge-graph route they
    replaced, on the corpora, on random draws and on unimodular images."""

    def test_corpora(self, small_corpus, simple_corpus, conjecture_corpus, join_corpus):
        corpus = small_corpus + simple_corpus + conjecture_corpus
        for P in corpus + [J for J, _k, _r in join_corpus]:
            assert_predicates_match_edge_route(P)
            for M, t in UNIMODULAR_TRANSFORMS.get(P.ambient_dim, []):
                assert_predicates_match_edge_route(P.unimodular_image(M, t))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_lattice_polytopes(self, data):
        P = data.draw(lattice_polytopes())
        U, t = data.draw(unimodular_maps(P.ambient_dim))
        assert_predicates_match_edge_route(P)
        assert_predicates_match_edge_route(P.unimodular_image(U, t))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_hull_inputs(self, data):
        P = Polytope.from_vertices(data.draw(hull_inputs()))
        U, t = data.draw(unimodular_maps(P.ambient_dim))
        assert_predicates_match_edge_route(P)
        assert_predicates_match_edge_route(P.unimodular_image(U, t))

    @pytest.mark.parametrize(
        "P, simple, delzant",
        [
            (simplex(0), True, True),
            (Polytope.from_vertices([(2,), (5,)]), True, True),
            (Polytope.from_vertices(TRIANGLE_HALF), True, False),
            (hypersimplex(2, 4), False, False),
            (simplex(2).dilate(2), True, True),
            (hypersimplex(1, 4), True, True),
        ],
    )
    def test_hand_cases(self, P, simple, delzant):
        # hypersimplex(1, 4) is a unimodular 3-simplex in x_1 + ... + x_4 = 1
        assert (P.is_simple(), P.is_delzant()) == (simple, delzant)
        assert_predicates_match_edge_route(P)

    def test_build_no_face_lattice(self, join_corpus):
        for P in (cube(3, 1), hypersimplex(2, 4), Polytope.from_vertices(TRIANGLE_HALF)):
            P.is_simple()
            P.is_delzant()
            assert "lattice" not in P._cache, P
        for J, _k, _r in join_corpus:
            for F in classifier.decompose_join(J).fibers:
                assert "lattice" not in F._cache, F


class TestHullZeroMasks:
    def test_wrong_zero_mask_raises(self, monkeypatch):
        hull = polytope._hull_facet_normals

        def flipped(model, d):
            (a, zero), *rest = hull(model, d)
            return [(a, zero ^ 1)] + rest

        monkeypatch.setattr(polytope, "_hull_facet_normals", flipped)
        with pytest.raises(InternalConsistencyError, match="zero mask") as err:
            Polytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert "points ((0, 0), (1, 0), (0, 1), (1, 1))" in str(err.value)

    def test_ray_through_one_vertex_raises(self, monkeypatch):
        # a ray whose tight set has rank other than d - 1 is no facet and
        # can only come from a hull bug: the sum of two adjacent facet
        # normals of the square is tight at their common vertex alone
        hull = polytope._hull_facet_normals

        def with_a_vertex_ray(model, d):
            rays = hull(model, d)
            (a, z), (b, w) = next(
                (p, q)
                for p, q in itertools.combinations(rays, 2)
                if (p[1] & q[1]).bit_count() == 1
            )
            return rays + [(la.primitive(la.vec_add(a, b)), z & w)]

        monkeypatch.setattr(polytope, "_hull_facet_normals", with_a_vertex_ray)
        with pytest.raises(InternalConsistencyError, match="hull ray is not a facet"):
            Polytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])

    def test_ray_through_an_edge_raises(self, monkeypatch):
        # the rank of the tight set is taken with one coordinate dropped;
        # two adjacent facet normals of the 3-cube sum to a ray tight on
        # their common edge, of rank 1 where a facet needs 2
        hull = polytope._hull_facet_normals

        def with_an_edge_ray(model, start):
            rays = hull(model, start)
            (a, z), (b, w) = next(
                (p, q)
                for p, q in itertools.combinations(rays, 2)
                if (p[1] & q[1]).bit_count() == 2
            )
            return rays + [(la.primitive(la.vec_add(a, b)), z & w)]

        monkeypatch.setattr(polytope, "_hull_facet_normals", with_an_edge_ray)
        with pytest.raises(InternalConsistencyError, match="hull ray is not a facet"):
            Polytope.from_vertices(list(itertools.product((0, 1), repeat=3)))

    def test_ray_through_start_points_of_an_edge_raises(self, monkeypatch):
        # only d points of the start simplex certify a facet: a ray tight on
        # an edge of the 3-cube between two of them is still eliminated
        hull = polytope._hull_facet_normals

        def with_a_start_edge_ray(model, start):
            rays = hull(model, start)
            starts = sum(1 << i for i in start)
            (a, z), (b, w) = next(
                (p, q)
                for p, q in itertools.combinations(rays, 2)
                if (p[1] & q[1]).bit_count() == 2 == (p[1] & q[1] & starts).bit_count()
            )
            return rays + [(la.primitive(la.vec_add(a, b)), z & w)]

        monkeypatch.setattr(polytope, "_hull_facet_normals", with_a_start_edge_ray)
        with pytest.raises(InternalConsistencyError, match="hull ray is not a facet"):
            Polytope.from_vertices(list(itertools.product((0, 1), repeat=3)))


class TestTransforms:
    def test_dilate_identity(self):
        P = simplex(2)
        assert P.dilate(1) is P

    def test_dilate_segment(self):
        P = Polytope.from_vertices([(0,), (1,)]).dilate(3)
        assert P.vertices == ((0,), (3,))

    def test_dilate_square_lattice_points(self):
        from polyinv import lattice_points

        assert lattice_points(cube(2, 1).dilate(2), 1) == 9

    def test_dilate_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            simplex(2).dilate(0)

    def test_dilate_scales_facet_offsets(self):
        P = Polytope.from_vertices(TRIANGLE_HALF)
        Q = P.dilate(3)
        assert {a for a, _ in Q.facets} == {a for a, _ in P.facets}
        offs_p = dict(P.facets)
        offs_q = dict(Q.facets)
        for a in offs_p:
            assert offs_q[a] == 3 * offs_p[a]

    def test_unimodular_image_identity_and_translation(self):
        P = simplex(2)
        assert P.unimodular_image([[1, 0], [0, 1]]).vertices == P.vertices
        T = P.unimodular_image([[1, 0], [0, 1]], (2, 5))
        assert T.vertices == tuple(sorted((v[0] + 2, v[1] + 5) for v in P.vertices))

    def test_unimodular_image_rejects_non_unimodular(self):
        with pytest.raises(DomainError):
            simplex(2).unimodular_image([[2, 0], [0, 1]])

    def test_shear_preserves_structure(self):
        P = cube(2, 1)
        Q = P.unimodular_image([[1, 1], [0, 1]])
        assert Q.f_vector == P.f_vector
        assert Q.is_simple() == P.is_simple()
        assert Q.is_delzant() == P.is_delzant()

    def test_invariance_of_predicates_and_f_vector(self, small_corpus):
        for P in small_corpus:
            for M, t in UNIMODULAR_TRANSFORMS.get(P.ambient_dim, [])[:2]:
                Q = P.unimodular_image(M, t)
                assert Q.f_vector == P.f_vector
                assert Q.dim == P.dim
                assert Q.is_simple() == P.is_simple()
                assert Q.is_delzant() == P.is_delzant()


class TestContains:
    def test_center_of_triangle(self):
        P = simplex(2)
        assert P.contains((Fraction(1, 3), Fraction(1, 3)))

    def test_outside(self):
        assert not simplex(2).contains((2, 0))

    def test_vertices_inside(self, small_corpus):
        for P in small_corpus:
            for v in P.vertices:
                assert P.contains(v)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            simplex(2).contains((1, 2, 3))

    def test_lower_dimensional_membership(self):
        P = Polytope.from_vertices([(0, 0), (2, 2)])
        assert P.contains((1, 1))
        assert not P.contains((1, 0))


class TestJsonRoundtrip:
    def test_roundtrip(self, small_corpus):
        for P in small_corpus:
            doc = P.to_dict()
            Q = Polytope.from_dict(doc)
            assert Q.vertices == P.vertices
            assert Q._nfacets == P._nfacets
            assert Q.f_vector == P.f_vector

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"ambient_dim": 2}, "vertices"),
            ({"vertices": [[0, 0]]}, "ambient_dim"),
            ({"ambient_dim": 2, "vertices": []}, "vertices"),
            ({"ambient_dim": 2, "vertices": [[0]]}, "vertices"),
            ({"ambient_dim": 2, "vertices": [[0, 0.5]]}, "vertices"),
            ({"ambient_dim": 2, "vertices": [[0, 0]], "name": 7}, "name"),
        ],
    )
    def test_malformed_documents(self, doc, field):
        with pytest.raises(DomainError, match=field):
            Polytope.from_dict(doc)

    @pytest.mark.parametrize("bad", [0.5, True, "1", None])
    def test_document_coordinate_message(self, bad):
        # from_vertices checks each coordinate once; a document names its field
        doc = {"ambient_dim": 2, "vertices": [[0, 0], [1, bad], [0, 1]]}
        message = (
            "field 'vertices' must contain integer points of the stated"
            " ambient dimension"
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Polytope.from_dict(doc)

    @pytest.mark.parametrize("bad", [0.5, True, "1", None])
    def test_vertex_coordinate_message(self, bad):
        message = "^vertices must have integer coordinates$"
        with pytest.raises(DomainError, match=message):
            Polytope.from_vertices([(0, 0), (1, bad), (0, 1)])

    def test_other_domain_errors_keep_their_message(self, monkeypatch):
        def refuse(points):
            raise DomainError("some other fault")

        monkeypatch.setattr(la, "affine_model", refuse)
        with pytest.raises(DomainError, match="^some other fault$"):
            Polytope.from_dict({"ambient_dim": 1, "vertices": [[0], [1]]})


class TestImmutable:
    """Every field but `name` refuses assignment and deletion."""

    FIELDS = (
        "ambient_dim", "dim", "vertices", "_norm", "_nverts", "_nfacets",
        "_incidence", "_cache", "extra",
    )

    def test_fields_refuse_assignment(self):
        P = cube(2, 1)
        before = dict(vars(P))
        for field in self.FIELDS:
            with pytest.raises(AttributeError, match=f"field '{field}'"):
                setattr(P, field, None)
            if field in before:
                with pytest.raises(AttributeError, match=f"field '{field}'"):
                    delattr(P, field)
        assert vars(P) == before

    def test_name_is_writable(self):
        P = Polytope.from_vertices([(0,), (2,)], name="segment")
        P.name = "renamed"
        assert P.name == "renamed" and "renamed" in repr(P)
        del P.name
        assert P.name is None and P.to_dict() == {
            "ambient_dim": 1, "vertices": [[0], [2]]
        }

    def test_only_from_vertices_constructs(self):
        with pytest.raises(DomainError, match="use Polytope.from_vertices"):
            Polytope()

    def test_pickle_and_copy(self):
        P = hypersimplex(2, 4)
        for Q in (pickle.loads(pickle.dumps(P)), copy.copy(P)):
            assert Q == P and Q._nfacets == P._nfacets and Q._incidence == P._incidence
            assert Q.f_vector == P.f_vector
            with pytest.raises(AttributeError):
                Q.dim = 0


def assert_public_order(P):
    """`faces(k)` and `face_children(F)` are sorted by vertex ids, and
    `face_lattice()` is graded from the vertices up, then sorted; as sets,
    all three agree with the int maps, which keep the build's own order."""
    lattice = P._lattice()
    levels = [P.faces(k) for k in range(P.dim + 1)]
    faces = P.face_lattice()
    assert faces == sum(levels, ()), P.name
    assert [f.dim for f in faces] == sorted(lattice.dims.values()), P.name
    assert {f.mask: f.dim for f in faces} == lattice.dims, P.name
    for k, level in enumerate(levels):
        ids = [f.vertex_ids for f in level]
        assert ids == sorted(ids), (P.name, k)
        assert sorted(f.mask for f in level) == sorted(lattice.levels[k]), (P.name, k)
    for f in faces:
        kids = P.face_children(f)
        ids = [g.vertex_ids for g in kids]
        assert ids == sorted(ids), (P.name, f.vertex_ids)
        assert sorted(g.mask for g in kids) == sorted(lattice.children[f.mask])


def assert_broken_needs_no_lattice(P):
    """`_broken` names P, or one vertex of it, without building a lattice."""
    P = Polytope.from_vertices(P.vertices, name=P.name)
    name, n = P.name or "unnamed", P.n_vertices
    assert str(P._broken("x")) == f"x (polytope {name}, face {tuple(range(n))})"
    for i in range(n):
        assert str(P._broken("x", 1 << i)) == f"x (polytope {name}, face ({i},))"
    assert "lattice" not in P._cache, P.name


class TestPublicEdge:
    """The listers hand out Faces sorted by vertex ids whatever the order of
    the int lattice behind them, and errors name faces from masks alone."""

    def test_corpora(self, small_corpus, simple_corpus, conjecture_corpus, join_corpus):
        corpus = small_corpus + simple_corpus + conjecture_corpus
        for P in corpus + [J for J, _k, _r in join_corpus]:
            assert_public_order(P)
            assert_broken_needs_no_lattice(P)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(lattice_polytopes())
    def test_lattice_polytopes(self, P):
        assert_public_order(P)
        assert_broken_needs_no_lattice(P)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(hull_inputs())
    def test_hull_inputs(self, pts):
        P = Polytope.from_vertices(pts)
        assert_public_order(P)
        assert_broken_needs_no_lattice(P)
