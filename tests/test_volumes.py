import json
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from polyinv import (
    Polytope,
    c,
    classify,
    cube,
    f_polynomial,
    hypersimplex,
    lattice_points,
    mult,
    normalized_volume,
    product,
    simplex,
    volume,
)
from polyinv import linalg as la, volumes
from polyinv.cli import CliConfig, run
from polyinv.errors import DomainError, InternalConsistencyError
from polyinv.volumes import ehrhart_polynomial, interpolate

import oracles
from conftest import (
    UNIMODULAR_TRANSFORMS,
    hull_inputs,
    lattice_polytopes,
    unimodular_maps,
)


def every_face(face):
    """c(P) of the face's polytope, which walks every face of P."""
    return c(face if isinstance(face, Polytope) else face.owner)


# each check of the volume walk fires on both of its routes: one face's
# pyramid closure and every face
ROUTES = (normalized_volume, every_face)


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

    @staticmethod
    def _offset_moved(b):
        """conv{(0,0), (2,0), (0,3)} with the offset of its facet
        3x + 2y <= 6 replaced by b: its normal has content 3 on the edge
        from (0,0) to (2,0), where the true height of (0,0) is 6/3 = 2."""
        P = Polytope.from_vertices([(0, 0), (2, 0), (0, 3)], name="triangle_23")
        j = [a for a, _ in P._nfacets].index((-3, -2))
        moved = P._nfacets[:j] + (((-3, -2), -b),) + P._nfacets[j + 1 :]
        object.__setattr__(P, "_nfacets", moved)
        return P

    def test_non_integral_height_raises(self):
        # the edge's height is 5/3, and 5/2 on the edge from (0,0) to
        # (0,3); the walk over every face reaches the first edge first, so
        # both routes name it
        for route in ROUTES:
            P = self._offset_moved(5)
            edge = [f for f in P.faces(1) if f.vertices == ((0, 0), (2, 0))][0]
            height = r"height of the first vertex over the facet \(.*\) is not an integer"
            with pytest.raises(InternalConsistencyError, match=height) as err:
                route(edge)
            assert f"face {edge.vertex_ids}" in str(err.value)
            assert "polytope triangle_23" in str(err.value)

    def test_nonpositive_height_raises(self):
        # the facet now passes through (0,0), the apex of the top face
        for route in ROUTES:
            P = self._offset_moved(0)
            height = r"height of the first vertex over the facet \(.*\) is not positive"
            with pytest.raises(InternalConsistencyError, match=height) as err:
                route(P)
            assert f"face {P.top_face().vertex_ids}" in str(err.value)
            assert "polytope triangle_23" in str(err.value)

    def test_nonpositive_volume_raises(self):
        # every facet left under the top face contains its first vertex,
        # so the pyramids from that vertex add nothing; the other edges,
        # no longer children of any face, get their bases from P's
        for route in ROUTES:
            P = Polytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)], name="sq")
            top = P.top_face().mask
            children = P._lattice().children
            children[top] = [c for c in children[top] if c & top & -top]
            with pytest.raises(
                InternalConsistencyError,
                match=r"^face has nonpositive volume \(polytope sq, face \(0, 1, 2, 3\)\)$",
            ):
                route(P)

    def test_constant_facet_raises(self, monkeypatch):
        # a cut whose content is 0: the facet normal takes no nonzero value
        # on the face's direction lattice
        cut = la.cut_basis
        monkeypatch.setattr(la, "cut_basis", lambda b, t: (0, cut(b, t)[1]))
        for route in ROUTES:
            P = cube(3, 1)
            with pytest.raises(
                InternalConsistencyError,
                match=r"^facet 0 is constant on the face"
                r" \(polytope cube\(3,1\), face \(0, 1, 2, 3, 4, 5, 6, 7\)\)$",
            ):
                route(P)

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


def counted_ehrhart(f):
    """L_F through the direct counts at n = 0..k + 1, k = dim F, whose
    degree-(k + 1) coefficient must vanish."""
    k = f.dim
    samples = [(0, 1)] + [(n, lattice_points(f, n)) for n in range(1, k + 2)]
    coeffs = interpolate(samples)
    assert coeffs[k + 1] == 0, (f.owner.name, f.vertex_ids)
    return tuple(coeffs[: k + 1])


def evaluate(polynomial, n):
    return sum(cf * n**j for j, cf in enumerate(polynomial))


class TestEhrhart:
    """`ehrhart_polynomial` against the polynomial through direct counts."""

    def test_segment(self):
        P = Polytope.from_vertices([(0,), (2,)])
        assert ehrhart_polynomial(P) == counted_ehrhart(P) == (1, 2)

    def test_triangle(self):
        # (n+1)(n+2)/2
        poly = (Fraction(1), Fraction(3, 2), Fraction(1, 2))
        assert ehrhart_polynomial(simplex(2)) == counted_ehrhart(simplex(2)) == poly
        for n in (3, 4):
            assert evaluate(poly, n) == lattice_points(simplex(2), n)

    def test_unit_cube_3(self):
        poly = ehrhart_polynomial(cube(3, 1))
        assert poly == counted_ehrhart(cube(3, 1)) == (1, 3, 3, 1)

    def test_samples_include_forced_origin(self):
        doc = json.dumps(simplex(3).to_dict()).encode()
        code, out = run(CliConfig(command="ehrhart"), doc)
        assert code == 0, out
        assert json.loads(out)["samples"]["0"] == 1

    def test_leading_coefficient_is_volume(self, small_corpus):
        for P in small_corpus:
            if P.dim > 3 and len(P.vertices) > 10:
                continue
            poly = ehrhart_polynomial(P)
            assert poly == counted_ehrhart(P), P.name
            assert poly[-1] == volume(P)
            assert poly[0] == 1

    def test_two_extra_dilations(self, small_corpus):
        for P in small_corpus:
            if P.dim > 3:
                continue
            poly = counted_ehrhart(P)
            assert ehrhart_polynomial(P) == poly, P.name
            for n in (P.dim + 2, P.dim + 3):
                assert evaluate(poly, n) == lattice_points(P, n), P.name


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


class TestStructuralEhrhart:
    """`ehrhart_polynomial` (volumes, reciprocity and a few counts)
    against the polynomial through direct counts and its symmetries."""

    def test_matches_direct_counts(self, small_corpus):
        for P in small_corpus:
            for f in P.face_lattice():
                assert ehrhart_polynomial(f) == counted_ehrhart(f), (
                    P.name,
                    f.vertex_ids,
                )

    def test_lower_dimensional_in_higher_ambient(self):
        # an octahedron in x_1 + ... + x_4 = 2 whose only lattice points
        # are its 6 vertices; nvol 4 and 8 unimodular triangles give
        # c_3 = 4/3!, c_2 = 8 * (1/2) / 2 and c_1 = 6 - 1 - c_2 - c_3
        P = hypersimplex(2, 4)
        assert P.dim == 3 and P.ambient_dim == 4
        assert ehrhart_polynomial(P) == (
            Fraction(1),
            Fraction(7, 3),
            Fraction(2),
            Fraction(2, 3),
        )

    def test_dimension_at_most_two_is_never_counted(self):
        P = Polytope.from_vertices([(0, 0), (7, 0), (0, 5)])
        assert ehrhart_polynomial(P) == (Fraction(1), Fraction(13, 2), Fraction(35, 2))
        assert not any(key[0] == "carriers" for key in P._cache)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data())
    def test_unimodular_invariance(self, data):
        P = data.draw(lattice_polytopes())
        U, t = data.draw(unimodular_maps(P.ambient_dim))
        assert ehrhart_polynomial(P.unimodular_image(U, t)) == ehrhart_polynomial(P)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(lattice_polytopes(), st.sampled_from((2, 3)))
    def test_dilate_scales_coefficients(self, P, t):
        scaled = tuple(cf * t**j for j, cf in enumerate(ehrhart_polynomial(P)))
        assert ehrhart_polynomial(P.dilate(t)) == scaled


class TestAgainstStructuralRoute:
    """`ehrhart_polynomial` of every face and `f_polynomial` (one fit each
    through volumes and carrier tables) against the structural build by
    reciprocity over each face's proper faces that they replaced."""

    @staticmethod
    def _check(P):
        scale = factorial(P.dim)
        scaled = oracles.structural_ehrhart(P)
        for f in P.face_lattice():
            want = tuple(Fraction(a, scale) for a in scaled[f.mask])
            assert ehrhart_polynomial(f) == want, (P.name, f.vertex_ids)
        assert f_polynomial(P) == oracles.structural_f_polynomial(P), P.name

    def test_corpora(self, small_corpus, simple_corpus, conjecture_corpus, join_corpus):
        joins = [J for J, _k, _r in join_corpus]
        for P in small_corpus + simple_corpus + conjecture_corpus + joins:
            self._check(P)

    def test_face_rich(self):
        # dimension 6 and 7: S_3 and S_4 are also checked at the n = 2
        # table, and the 7-faces are fitted through n = 1..3
        for P in (cube(7, 1), hypersimplex(3, 7), product(simplex(3), cube(3, 1))):
            self._check(P)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(lattice_polytopes())
    def test_lattice_polytopes(self, P):
        self._check(P)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(hull_inputs())
    def test_hull_inputs(self, pts):
        self._check(Polytope.from_vertices(pts))


class TestStructuralEhrhartChecks:
    """Each identity of the structural build by reciprocity over the
    proper faces (`oracles.structural_ehrhart`, the differential oracle of
    the fit) fails on a corrupted lattice and names the polytope, the face
    and the identity."""

    def test_constant_term_of_an_odd_face(self):
        P = cube(2, 1)
        edge = P.faces(1)[0]
        children = P._lattice().children
        children[edge.mask] = children[edge.mask][:1]
        with pytest.raises(InternalConsistencyError, match="constant term is not 1"):
            oracles.structural_ehrhart(P)

    def test_facet_volume_identity(self):
        P = cube(2, 1)
        top = P.top_face()
        children = P._lattice().children
        children[top.mask] += (P.faces(0)[0].mask,)  # a vertex posing as a facet
        with pytest.raises(InternalConsistencyError, match="half the facet volumes"):
            oracles.structural_ehrhart(P)

    def test_reciprocity(self):
        P = cube(2, 1)
        top = P.top_face()
        children = P._lattice().children
        children[top.mask] = children[top.mask][1:]
        with pytest.raises(InternalConsistencyError, match="reciprocity") as err:
            oracles.structural_ehrhart(P)
        assert f"face {top.vertex_ids}" in str(err.value)
        assert "polytope cube(2,1)" in str(err.value)


class TestEhrhartFitChecks:
    """Each identity of the fit through the carrier tables fails on a
    corrupted table or lattice, for one face (`ehrhart_polynomial`) and
    for the k-face sums S_k (`f_polynomial`), and names the polytope, the
    face and the identity."""

    @staticmethod
    def _raises(call, arg, match, face):
        with pytest.raises(InternalConsistencyError, match=match) as err:
            call(arg)
        assert f"(polytope {face.owner.name}, face {face.vertex_ids})" in str(err.value)

    def test_spare_equation_of_a_3_polytope(self):
        # a second point on a vertex of P: the even part of L_P then fits
        # c_2 = 7/2, not half the facet areas 3
        P = cube(3, 1)
        volumes._carriers(P, 1)[P.faces(0)[0].mask] += 1
        top = P.top_face()
        self._raises(ehrhart_polynomial, top, r"^Ehrhart c_2 differs from half", top)
        self._raises(f_polynomial, P, r"^Ehrhart sum S_3 c_2 differs from half", top)

    def test_edge_with_one_child(self):
        # c_0 = L(0) = 1 against half the volume of a single vertex; the
        # kept child avoids the edge's first vertex, so the pyramid from
        # that vertex still sees a facet and the volume stays positive
        P = cube(2, 1)
        edge = P.faces(1)[0]
        children = P._lattice().children
        low = edge.mask & -edge.mask
        children[edge.mask] = [c for c in children[edge.mask] if not c & low]
        self._raises(ehrhart_polynomial, edge, r"^Ehrhart c_0 differs from half", edge)
        self._raises(
            f_polynomial, P, r"^Ehrhart sum S_1 c_0 differs from half", P.top_face()
        )

    def test_count_beyond_the_fit(self):
        # S_3 is fitted through n = 1 and checked at the n = 2 table, which
        # also holds the interior counts S_5 needs
        P = cube(5, 1)
        volumes._carriers(P, 2)[P.faces(0)[0].mask] += 1
        self._raises(
            f_polynomial, P, r"^Ehrhart sum S_3 misses the count at n = 2",
            P.top_face(),
        )

    def test_non_integral_fit(self):
        # integer counts and volumes always fit integers (the data enter
        # divided by at most (2m)!, m = floor((k - 1)/2), which divides k!);
        # half a point on a vertex of P makes 3! c_2 = 39/2
        P = cube(3, 1)
        volumes._carriers(P, 1)[P.faces(0)[0].mask] += Fraction(1, 2)
        top = P.top_face()
        self._raises(ehrhart_polynomial, top, r"^6 \* Ehrhart c_2 is not an integer", top)
        self._raises(f_polynomial, P, r"^6 \* Ehrhart sum S_3 c_2 is not an integer", top)


class TestLagrange:
    """`volumes._lagrange`, the integer core of `_fit` and `interpolate`."""

    @pytest.mark.parametrize("seed", range(20))
    def test_core_and_interpolate_agree(self, seed):
        rng = random.Random(seed)
        xs = rng.sample(range(-9, 10), rng.randint(1, 6))
        if seed % 2:
            xs.sort(reverse=True)
        points = [(x, rng.randint(-50, 50)) for x in xs]
        num, den = volumes._lagrange(points)
        assert den > 0 and len(num) == len(points)
        for x, y in points:
            assert sum(a * x**j for j, a in enumerate(num)) == den * y
        assert interpolate(points) == [Fraction(a, den) for a in num]


class TestCountInOwnModel:
    """`lattice_points` (the carrier table of one scan of nP in P's own
    model) against the per-face interval scan it replaced, the per-face
    normalized box scan before that and, where cheap, hull membership of
    every point of the dilated bounding box."""

    @staticmethod
    def _check(P):
        for f in P.face_lattice():
            for n in (1, 2, 3):
                got = lattice_points(f, n)
                assert got == oracles.interval_scan_count(P, f, n), (
                    P.name, f.vertex_ids, n
                )
                assert got == oracles.face_model_scan_count(P, f, n), (
                    P.name, f.vertex_ids, n
                )

    def test_corpora(self, small_corpus, join_corpus):
        for P in small_corpus + [J for J, _k, _r in join_corpus]:
            self._check(P)
            if P.ambient_dim <= 3:
                for f in P.face_lattice():
                    assert lattice_points(f, 2) == oracles.box_count(f.vertices, 2)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.data())
    def test_sheared_hull_inputs(self, data):
        pts = data.draw(hull_inputs())
        U, t = data.draw(unimodular_maps(len(pts[0])))
        P = Polytope.from_vertices(
            [tuple(sum(u * x for u, x in zip(row, p)) + s for row, s in zip(U, t))
             for p in pts]
        )
        self._check(P)

    @staticmethod
    def _check_carriers(P):
        # every carrier table of nP against a walk of the dilated box, and
        # P's count against that walk's total; P is fresh, so its own count
        # is the first call to build each table
        P = Polytope.from_vertices(P.vertices, name=P.name)
        lo, hi = la.bounding_box(P._nverts)
        for n in (1, 2, 3):
            if prod(n * (h - l) + 1 for l, h in zip(lo, hi)) > 5000:
                break  # a small box only
            want = oracles.box_carriers(P, n)
            assert lattice_points(P, n) == sum(want.values()), (P.name, n)
            assert volumes._carriers(P, n) == want, (P.name, n)

    def test_carriers_match_box_walk(self, small_corpus, join_corpus):
        # with a lower-dimensional octahedron, a segment, one-point
        # intervals at the corners of simplices and a thin triangle, and
        # the cube's facets that are constant in the last coordinate
        extra = [
            hypersimplex(2, 4),
            Polytope.from_vertices([(0, 0), (3, 3)]),
            simplex(3),
            Polytope.from_vertices([(0, 0), (5, 5), (0, 1)]),
            cube(3, 1),
        ]
        for P in small_corpus + [J for J, _k, _r in join_corpus] + extra:
            if P.dim:  # a vertex is never looked up in the table
                self._check_carriers(P)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(hull_inputs())
    def test_carriers_of_hull_inputs(self, pts):
        self._check_carriers(Polytope.from_vertices(pts))

    def test_tight_set_of_no_face(self):
        # the unit square at height 7 of Z^3 with facets A, B, C, D, where
        # C is opposite A and D meets C: C' = C + D moved one step outward
        # cuts the corner of C and D, and the point 2v of 2P, v the vertex
        # on A and D, becomes tight on A, C' and D, the facets of no face;
        # counting an edge or P itself scans 2P and raises
        P = Polytope.from_vertices(
            [(3, 7, 2), (4, 7, 2), (3, 7, 3), (4, 7, 3)], name="square"
        )
        facets, incidence = list(P._nfacets), P._incidence
        c = 0
        a = next(j for j, t in enumerate(incidence) if not t & incidence[c])
        d = next(j for j in range(1, 4) if j != a)
        (ac, bc), (ad, bd) = facets[c], facets[d]
        facets[c] = (tuple(x + y for x, y in zip(ac, ad)), bc + bd + 1)
        object.__setattr__(P, "_nfacets", tuple(facets))
        v = P.vertices[(incidence[a] & incidence[d]).bit_length() - 1]
        no_face = r"^the point \(.*\) of 2P is tight on the facets of no face"
        for face in (P.faces(1)[0], P):
            with pytest.raises(InternalConsistencyError, match=no_face) as err:
                lattice_points(face, 2)
            assert f"point {tuple(2 * x for x in v)} of 2P" in str(err.value)
            assert "(polytope square, face (0, 1, 2, 3))" in str(err.value)


def _volume_sums(P):
    sums = [0] * (P.dim + 1)
    for f in P.face_lattice():
        sums[f.dim] += normalized_volume(f)
    return sums


class TestPyramidVolumes:
    """`normalized_volume` (pyramid heights over one lattice basis per
    face) and `mult` (the contents of the cutting facets) against the
    pulling triangulation's `lattice_index` sum, the parallelotope count
    and their behaviour under dilation and unimodular maps."""

    @staticmethod
    def _check(P):
        vols = oracles.triangulation_volumes(P)
        for f in P.face_lattice():
            assert normalized_volume(f) == vols[f.mask], (P.name, f.vertex_ids)
            if P.is_simple():
                normals = [P._nfacets[j][0] for j in f.facet_ids]
                assert mult(P, f) == oracles.parallelotope_points(normals), (
                    P.name,
                    f.vertex_ids,
                )

    def test_corpora(self, small_corpus, simple_corpus, conjecture_corpus, join_corpus):
        joins = [J for J, _k, _r in join_corpus]
        for P in small_corpus + simple_corpus + conjecture_corpus + joins:
            self._check(P)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data())
    def test_hull_inputs(self, data):
        pts = data.draw(hull_inputs())
        if data.draw(st.booleans()):
            U, t = data.draw(unimodular_maps(len(pts[0])))
            pts = [
                tuple(sum(u * x for u, x in zip(row, p)) + s for row, s in zip(U, t))
                for p in pts
            ]
        self._check(Polytope.from_vertices(pts))

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(lattice_polytopes(), st.sampled_from((2, 3)))
    def test_dilate_scales_volume_sums(self, P, n):
        scaled = [n**k * s for k, s in enumerate(_volume_sums(P))]
        assert _volume_sums(P.dilate(n)) == scaled

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data())
    def test_unimodular_invariance(self, data):
        P = data.draw(lattice_polytopes())
        U, t = data.draw(unimodular_maps(P.ambient_dim))
        Q = P.unimodular_image(U, t)
        image = {frozenset(g.vertices): g for g in Q.face_lattice()}
        for f in P.face_lattice():
            moved = frozenset(
                tuple(sum(u * x for u, x in zip(row, v)) + s for row, s in zip(U, t))
                for v in f.vertices
            )
            g = image[moved]
            assert normalized_volume(g) == normalized_volume(f)
            if P.is_simple():
                assert mult(Q, g) == mult(P, f)


class TestLevelWalk:
    """The walk over every face against the walk over one face's pyramid
    closure, its cuts' multiplicities against each face's content on its
    first parent (`oracles.first_parent_mults`), and one cut per face."""

    @staticmethod
    def _check(P):
        vols = volumes._face_tables(P)[0]
        fresh = Polytope.from_vertices(P.vertices)
        for s in fresh._lattice().dims:
            fresh._cache.pop("nvol", None)  # this face's closure alone
            assert normalized_volume(fresh._face(s)) == vols[s], (P.name, s)
        assert "mult" not in fresh._cache
        assert volumes._face_tables(P)[1] == oracles.first_parent_mults(P), P.name

    def test_corpora(self, small_corpus, simple_corpus, conjecture_corpus, join_corpus):
        joins = [J for J, _k, _r in join_corpus]
        for P in small_corpus + simple_corpus + conjecture_corpus + joins:
            self._check(P)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(hull_inputs())
    def test_hull_inputs(self, pts):
        self._check(Polytope.from_vertices(pts))

    def test_classify_cuts_each_basis_once(
        self, monkeypatch, small_corpus, simple_corpus, join_corpus
    ):
        cut, calls = la.cut_basis, []
        monkeypatch.setattr(la, "cut_basis", lambda b, t: calls.append(t) or cut(b, t))
        corpus = small_corpus + simple_corpus + [J for J, _k, _r in join_corpus]
        kinds = set()
        for P in corpus:
            P = Polytope.from_vertices(P.vertices, name=P.name)
            calls.clear()
            kinds.add(classify(P).verdict)
            # every face but P is cut once, from its first parent
            assert len(calls) == len(P._lattice().dims) - 1, P.name
        assert {"defect", "non-defect", "non-Delzant"} <= kinds
