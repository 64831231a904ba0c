import itertools
import json

import pytest

from polyinv import (
    Polytope,
    c,
    classifier,
    classify,
    cube,
    decompose_join,
    hypersimplex,
    is_defect_polytope,
    product,
    projective_join,
    simplex,
    unimodular_equivalent,
)
from polyinv import linalg as la
from polyinv.cli import CliConfig, run
from polyinv.errors import DomainError, InternalConsistencyError

from conftest import TRIANGLE_HALF, segment


class TestIsDefect:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_simplices(self, r):
        assert is_defect_polytope(simplex(r))

    def test_unit_square(self):
        assert not is_defect_polytope(cube(2, 1))

    def test_prism(self):
        assert is_defect_polytope(product(simplex(2), cube(1, 1)))

    def test_non_delzant_never_defect(self):
        assert not is_defect_polytope(hypersimplex(2, 4))


class TestDecomposeJoin:
    def test_prism(self):
        prism = product(simplex(2), cube(1, 1))
        dec = decompose_join(prism)
        assert dec.k == 2
        assert dec.defect == 1
        assert len(dec.fibers) == 3
        for f in dec.fibers:
            assert f.dim == 1 and f.vertices == ((0,), (1,))

    def test_figure_join(self):
        J = projective_join([segment(2), segment(2), segment(3)])
        dec = decompose_join(J)
        assert dec.k == 2 and dec.defect == 1
        lengths = sorted(f.vertices[-1][0] for f in dec.fibers)
        assert lengths == [2, 2, 3]

    def test_simplex_case(self):
        dec = decompose_join(simplex(3))
        assert dec.k == 3 and dec.defect == 3
        assert all(f.dim == 0 for f in dec.fibers)

    def test_none_when_c_positive(self):
        assert decompose_join(cube(2, 1)) is None

    def test_requires_delzant(self):
        with pytest.raises(DomainError):
            decompose_join(hypersimplex(2, 4))

    def test_requires_dim_2(self):
        with pytest.raises(DomainError):
            decompose_join(segment(1))

    def test_projection_maps_onto_standard_simplex(self):
        prism = product(simplex(2), cube(1, 1))
        dec = decompose_join(prism)
        images = {
            tuple(
                la.dot(row, v) + s
                for row, s in zip(dec.projection_matrix, dec.projection_shift)
            )
            for v in prism._nverts
        }
        image = dec.to_dict()["simplex_image"]
        assert image == simplex(dec.k).to_dict()
        assert images == {tuple(w) for w in image["vertices"]}

    def test_round_trip_corpus(self, join_corpus):
        for J, k, r in join_corpus:
            assert is_defect_polytope(J), (k, r)
            dec = decompose_join(J)
            assert dec is not None
            rebuilt = projective_join(dec.fibers)
            assert unimodular_equivalent(rebuilt, J), (k, r)
            if dec.k < r:
                assert dec.defect == 2 * dec.k - r
            else:
                assert dec.defect == r
            assert (dec.defect - r) % 2 == 0
            for f in dec.fibers:
                assert f.is_delzant()
                assert f.dim == r - dec.k


class TestEachFiberBuiltOnce:
    """`_try_subset` builds each distinct fiber once: equal fibers are one
    shared `Polytope`, and each fiber is the build of its own model points."""

    @staticmethod
    def _builds(monkeypatch, P):
        """decompose_join(P) and the number of `from_vertices` calls in it."""
        real = Polytope.from_vertices.__func__
        calls = []

        def counted(cls, points, name=None):
            calls.append(name)
            return real(cls, points, name)

        monkeypatch.setattr(Polytope, "from_vertices", classmethod(counted))
        return decompose_join(P), len(calls)

    def test_segre_product_builds_one_fiber(self, monkeypatch):
        dec, builds = self._builds(monkeypatch, product(simplex(1), simplex(4)))
        assert (dec.k, len(dec.fibers), builds) == (4, 5, 1)
        assert all(f is dec.fibers[0] for f in dec.fibers)

    def test_join_of_equal_triangles_builds_one_fiber(self, monkeypatch):
        J = projective_join([simplex(2)] * 4)
        dec, builds = self._builds(monkeypatch, J)
        assert (dec.k, len(dec.fibers), builds) == (3, 4, 1)

    def test_distinct_segments_build_three_fibers(self, monkeypatch):
        J = projective_join([segment(1), segment(2), segment(3)])
        dec, builds = self._builds(monkeypatch, J)
        assert (dec.k, len(dec.fibers), builds) == (2, 3, 3)
        assert len({id(f) for f in dec.fibers}) == 3

    def test_fibers_are_their_own_builds(self, join_corpus):
        # each fiber's model points, recomputed from the reported projection:
        # the vertices over e_i, in the Hermite model of the fiber over 0
        for J, _k, _r in join_corpus:
            dec = decompose_join(J)
            rows, shift = dec.projection_matrix, dec.projection_shift
            over = {}
            for v in J._nverts:
                img = tuple(la.dot(a, v) + s for a, s in zip(rows, shift))
                over.setdefault(img, []).append(v)
            fibers_pts = [over[e] for e in classifier._simplex_vertices(dec.k)]
            norm0 = la.affine_normalize(fibers_pts[0])
            for F, pts in zip(dec.fibers, fibers_pts):
                b = min(pts)
                model = [
                    tuple(la.dot(row, la.vec_sub(p, b)) for row in norm0.matrix)
                    for p in pts
                ]
                fresh = Polytope.from_vertices(model)
                assert F == fresh and F._nfacets == fresh._nfacets, J.vertices


class TestImagesTestImpliesTheLinearChecks:
    """`_try_subset` decides on the images of the vertices alone. Whenever
    the last k facets of an exact-cover subset map the vertices onto the
    standard k-simplex, the k+1 primitive normals sum to zero, have rank k,
    and the last k span a saturated lattice."""

    @staticmethod
    def _onto_simplex(P):
        """(k, normals) for every exact-cover subset `decompose_join` would
        try on P whose projection maps the vertices onto the k-simplex."""
        r = P.dim
        full = (1 << P.n_vertices) - 1
        dim_of = {f.mask: f.dim for f in P.face_lattice()}
        complements = [full & ~t for t in P._incidence]
        for k in range(r, classifier._k_min(r) - 1, -1):
            simplex_vertices = set(classifier._simplex_vertices(k))
            candidates = [
                j for j, m in enumerate(complements) if dim_of.get(m) == r - k
            ]
            for J in itertools.combinations(candidates, k + 1):
                if not classifier._exact_cover([complements[j] for j in J], full):
                    continue
                facets = [P._nfacets[j] for j in J]
                images = {
                    tuple(la.dot(a, v) - b for a, b in facets[1:]) for v in P._nverts
                }
                if images == simplex_vertices:
                    yield k, [a for a, _ in facets]

    def test_corpora(self, join_corpus, small_corpus):
        defect = [J for J, _, _ in join_corpus]
        defect += [P for P in small_corpus if P.dim >= 2 and is_defect_polytope(P)]
        seen = 0
        for P in defect:
            for k, normals in self._onto_simplex(P):
                seen += 1
                assert all(sum(column) == 0 for column in zip(*normals)), P.name
                assert la.rank(normals) == k, P.name
                assert la.lattice_index(normals[1:]) == 1, P.name
        assert seen >= len(defect)


class TestPredictedCorrespondence:
    """The certificate must send each vertex to the image the decomposition
    predicts; a correspondence with two images traded is refused, even on
    a simplex, where any vertex bijection is a unimodular map."""

    VIOLATED = r"classification violated \(polytope .+, face \(.*\)\)$"

    @staticmethod
    def _trade_two_images(monkeypatch):
        real = classifier.paired_unimodular_map

        def traded(src, dst):
            return real(src, [dst[1], dst[0], *dst[2:]])

        monkeypatch.setattr(classifier, "paired_unimodular_map", traded)

    def test_join_corpus(self, join_corpus, monkeypatch):
        self._trade_two_images(monkeypatch)
        for J, k, r in join_corpus:
            with pytest.raises(InternalConsistencyError, match=self.VIOLATED):
                decompose_join(J)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_simplices(self, r, monkeypatch):
        self._trade_two_images(monkeypatch)
        with pytest.raises(InternalConsistencyError, match=self.VIOLATED):
            decompose_join(simplex(r))


class TestDecompositionChecks:
    """A decomposition whose k or defect does not fit P's dimension is an
    internal error that names the polytope."""

    @staticmethod
    def _altered(monkeypatch, **changes):
        real = classifier._try_subset

        def altered(P, J, k):
            dec = real(P, J, k)
            return dec and dec._replace(**changes)

        monkeypatch.setattr(classifier, "_try_subset", altered)

    def test_k_outside_range(self, monkeypatch):
        self._altered(monkeypatch, k=1)
        outside = "join parameter outside classified range"
        with pytest.raises(InternalConsistencyError, match=outside) as err:
            decompose_join(simplex(3))
        assert "(polytope simplex(3), face (0, 1, 2, 3))" in str(err.value)

    def test_defect_inconsistent_with_k(self, monkeypatch):
        self._altered(monkeypatch, defect=0)
        square = json.dumps(simplex(2).to_dict()).encode()
        code, out = run(CliConfig(command="classify"), square)
        assert code == 3
        assert b"defect value inconsistent with k (polytope simplex(2)" in out
        with pytest.raises(InternalConsistencyError, match="inconsistent with k"):
            decompose_join(simplex(2))


class TestClassify:
    def test_simplex3(self):
        rep = classify(simplex(3))
        assert rep.verdict == "defect"
        assert rep.defect == 3
        assert rep.decomposition is not None

    def test_unit_square(self):
        rep = classify(cube(2, 1))
        assert rep.verdict == "non-defect"
        assert rep.dual_degree == 2

    def test_hypersimplex(self):
        rep = classify(hypersimplex(3, 6))
        assert rep.verdict == "non-Delzant"
        assert rep.c == 136
        assert rep.c_star is None

    def test_dim_one(self):
        assert classify(segment(1)).verdict == "dim-1-degenerate"
        assert classify(segment(5)).verdict == "dim-1-degenerate"

    def test_half_triangle(self):
        rep = classify(Polytope.from_vertices(TRIANGLE_HALF))
        assert rep.verdict == "non-Delzant"
        assert rep.c_star is not None

    def test_prism_report_serializes(self):
        rep = classify(product(simplex(2), cube(1, 1)))
        doc = rep.to_dict()
        assert doc["verdict"] == "defect"
        assert doc["decomposition"]["k"] == 2
        assert len(doc["decomposition"]["fibers"]) == 3

    def test_point(self):
        rep = classify(simplex(0))
        assert rep.verdict == "non-defect"
        assert rep.c == 1


class TestNegativeC:
    """c >= 0 on Delzant polytopes; a negative value is an internal error."""

    def test_raises(self, monkeypatch):
        monkeypatch.setattr(classifier, "c", lambda P: -1)
        negative = r"^c = -1 is negative on a Delzant polytope \(polytope cube\(2,1\)"
        with pytest.raises(InternalConsistencyError, match=negative):
            classify(cube(2, 1))

    def test_cli_exit_code(self, monkeypatch):
        monkeypatch.setattr(classifier, "c", lambda P: -1)
        square = json.dumps(cube(2, 1).to_dict()).encode()
        code, out = run(CliConfig(command="classify"), square)
        assert code == 3
        assert b"c = -1 is negative on a Delzant polytope" in out
