"""Shared corpora for the test suite.

All randomness is seeded; the corpora are identical across runs.
"""

from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from polyinv import Polytope, cube, hypersimplex, product, projective_join, simplex


def subprocess_env():
    """os.environ with this checkout's src first on PYTHONPATH, so that a
    child `python -m polyinv` imports the working tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def segment(length, name=None):
    return Polytope.from_vertices([(0,), (length,)], name=name)


def named(name, poly):
    poly.name = name
    return poly


TRIANGLE_HALF = [(0, 0), (1, 0), (1, 2)]  # simple, not Delzant, mult 2 corner


def _random_polygon(rng, span=5, tries=40):
    for _ in range(tries):
        pts = {(rng.randrange(span + 1), rng.randrange(span + 1)) for _ in range(8)}
        if len(pts) < 3:
            continue
        P = Polytope.from_vertices(sorted(pts))
        if P.dim == 2:
            return P
    raise AssertionError("random polygon generation failed")


def _random_simplex(rng, dim, span=3, tries=60):
    for _ in range(tries):
        pts = {
            tuple(rng.randrange(span + 1) for _ in range(dim))
            for _ in range(dim + 1)
        }
        if len(pts) < dim + 1:
            continue
        P = Polytope.from_vertices(sorted(pts))
        if P.dim == dim and len(P.vertices) == dim + 1:
            return P
    raise AssertionError("random simplex generation failed")


def _random_01_polytope(rng, dim, min_vertices=4):
    corners = list(itertools.product((0, 1), repeat=dim))
    while True:
        chosen = [v for v in corners if rng.random() < 0.6]
        if len(chosen) < min_vertices:
            continue
        P = Polytope.from_vertices(chosen)
        if P.dim == dim:
            return P


def build_small_corpus():
    """Polytopes with <= 12 vertices and dim <= 4, small coordinates.

    Used by the oracle-equivalence and f-polynomial checks.
    """
    rng = random.Random(990001)
    out = [
        named("point", Polytope.from_vertices([(0, 0)])),
        segment(1, "segment1"),
        segment(3, "segment3"),
        named("simplex2", simplex(2)),
        named("simplex3", simplex(3)),
        named("simplex4", simplex(4)),
        named("square", cube(2, 1)),
        named("square2", cube(2, 2)),
        named("cube3", cube(3, 1)),
        named("triangle_half", Polytope.from_vertices(TRIANGLE_HALF)),
        named("triangle_23", Polytope.from_vertices([(0, 0), (2, 0), (0, 3)])),
        named("simplex2_dilate2", simplex(2).dilate(2)),
        named("prism", product(simplex(2), cube(1, 1))),
        named("simplex2xsimplex2", product(simplex(2), simplex(2))),
        named("hyp24", hypersimplex(2, 4)),
        named("hyp25", hypersimplex(2, 5)),
        named("trapezoid", projective_join([segment(1), segment(2)])),
        named("join223", projective_join([segment(2), segment(2), segment(3)])),
        named("join_points", projective_join([simplex(0)] * 3)),
    ]
    for i in range(2):
        out.append(named(f"rand01_3_{i}", _random_01_polytope(rng, 3)))
    out.append(named("rand01_4_0", _random_01_polytope(rng, 4, min_vertices=6)))
    return [P for P in out if len(P.vertices) <= 12 and P.dim <= 4]


def build_simple_corpus():
    """At least 50 simple polytopes of dimensions 2 to 4: constructive
    families plus randomized simple polytopes validated by is_simple()."""
    rng = random.Random(424242)
    corpus = []

    def add(P):
        if P.is_simple() and 2 <= P.dim <= 4:
            corpus.append(P)

    for P in [
        simplex(2),
        simplex(3),
        simplex(4),
        simplex(2).dilate(2),
        simplex(3).dilate(2),
        simplex(2).dilate(3),
        cube(2, 1),
        cube(2, 2),
        cube(3, 1),
        cube(3, 2),
        cube(4, 1),
        product(simplex(2), cube(1, 1)),
        product(simplex(2), cube(1, 2)),
        product(simplex(2), simplex(2)),
        product(simplex(3), cube(1, 1)),
        product(cube(2, 1), cube(2, 1)),
        product(simplex(2), cube(2, 1)),
        Polytope.from_vertices(TRIANGLE_HALF),
        Polytope.from_vertices([(0, 0), (2, 0), (0, 3)]),
        Polytope.from_vertices([(0, 0), (3, 1), (1, 3)]),
        projective_join([segment(1), segment(2)]),
        projective_join([segment(2), segment(2), segment(3)]),
        projective_join([segment(1), segment(1), segment(1)]),
        projective_join([cube(2, 1)] * 3),
    ]:
        add(P)
    while len([P for P in corpus if P.dim == 2]) < 20:
        add(_random_polygon(rng))
    while len([P for P in corpus if P.dim == 3]) < 17:
        if rng.random() < 0.5:
            add(_random_simplex(rng, 3))
        else:
            add(product(_random_polygon(rng, span=3), segment(rng.randrange(1, 3))))
    while len([P for P in corpus if P.dim == 4]) < 13:
        if rng.random() < 0.4:
            add(_random_simplex(rng, 4, span=2))
        else:
            add(product(_random_polygon(rng, span=2), _random_polygon(rng, span=2)))
    assert len(corpus) >= 50
    return corpus


def build_conjecture_corpus():
    """Mixed corpus for the conjecture scan: all hypersimplices with
    n <= 6 plus random 0/1 polytopes of dimension <= 4."""
    rng = random.Random(777003)
    out = []
    for n in range(2, 7):
        for k in range(1, n):
            out.append(hypersimplex(k, n))
    for i in range(4):
        out.append(named(f"scan01_3_{i}", _random_01_polytope(rng, 3)))
    for i in range(4):
        out.append(named(f"scan01_4_{i}", _random_01_polytope(rng, 4, min_vertices=6)))
    return out


def build_join_corpus():
    """At least 20 projective joins with k inside the classification
    range, with the expected (k, r) recorded."""
    rng = random.Random(515151)
    out = []

    def add(summands):
        k = len(summands) - 1
        r = summands[0].dim + k
        out.append((projective_join(summands), k, r))

    for r in (2, 3, 4, 5):
        add([simplex(0)] * (r + 1))  # the unimodular simplex
    seg_combos = [
        (1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3),
        (1, 3, 3), (2, 2, 2),
    ]
    for combo in seg_combos:
        add([segment(l) for l in combo])  # k = 2, r = 3
    for combo in [(1, 1, 1, 1), (1, 2, 2, 3), (3, 1, 2, 1), (2, 2, 2, 2)]:
        add([segment(l) for l in combo])  # k = 3, r = 4
    for combo in [(1, 1, 2, 1, 3), (2, 1, 1, 1, 1)]:
        add([segment(l) for l in combo])  # k = 4, r = 5
    add([cube(2, 1)] * 4)  # unit squares, k = 3, r = 5
    add([cube(2, 1)] * 5)  # unit squares, k = 4, r = 6
    # translated summands: equivalent join via a shear
    add([segment(2), Polytope.from_vertices([(4,), (6,)]), segment(1)])
    # strongly isomorphic but non-congruent 2-dimensional fibers
    tri = simplex(2)
    add([tri, tri, tri.dilate(2), tri])  # k = 3, r = 5, twisted
    rects = [
        product(segment(1), segment(2)),
        product(segment(2), segment(1)),
        product(segment(1), segment(1)),
        product(segment(3), segment(2)),
    ]
    add(rects)  # rectangles share the square fan; k = 3, r = 5
    assert len(out) >= 20
    return out


@st.composite
def hull_inputs(draw):
    """Point sets of affine dimension up to 5: even lattice points, some
    pushed onto one coordinate hyperplane, plus integral midpoints and
    repeats; optionally lifted into a hyperplane of Z^(m+1)."""
    m = draw(st.sampled_from((1, 2, 3, 4, 5)))
    k = draw(st.integers(m + 1, m + 4))
    coord = st.integers(-1, 1)
    base = draw(
        st.lists(st.tuples(*[coord] * m), min_size=k, max_size=k, unique=True)
    )
    flat = draw(st.integers(0, k))
    pts = [
        tuple(2 * x for x in p[:-1]) + ((-2,) if i < flat else (2 * p[-1],))
        for i, p in enumerate(base)
    ]
    for i, j in draw(
        st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=3)
    ):
        pts.append(tuple((x + y) // 2 for x, y in zip(pts[i], pts[j])))
    pts += [pts[i] for i in draw(st.lists(st.integers(0, k - 1), max_size=2))]
    if m < 5 and draw(st.booleans()):
        c = draw(st.tuples(*[coord] * m))
        t = draw(coord)
        pts = [p + (sum(x * y for x, y in zip(c, p)) + t,) for p in pts]
    return draw(st.permutations(pts))


@st.composite
def lattice_polytopes(draw):
    """Hulls of up to m + 3 points of [-2, 2]^m, m = 1..4."""
    m = draw(st.integers(1, 4))
    pts = draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * m),
            min_size=1,
            max_size=m + 3,
            unique=True,
        )
    )
    return Polytope.from_vertices(pts)


@st.composite
def unimodular_maps(draw, m):
    """(U, t): a signed permutation times a few elementary shears, and a
    translation, all in Z^m."""
    perm = draw(st.permutations(range(m)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m))
    U = [[signs[i] if j == perm[i] else 0 for j in range(m)] for i in range(m)]
    if m > 1:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.permutations(range(m)))[:2]
            s = draw(st.integers(-3, 3))
            U[i] = [a + s * b for a, b in zip(U[i], U[j])]
    t = draw(st.tuples(*[st.integers(-5, 5)] * m))
    return U, t


UNIMODULAR_TRANSFORMS = {
    1: [([[1]], (3,)), ([[-1]], (0,))],
    2: [
        ([[1, 1], [0, 1]], (0, 0)),
        ([[0, 1], [1, 0]], (2, -1)),
        ([[1, 0], [0, 1]], (-4, 7)),
        ([[2, 1], [1, 1]], (1, 1)),
    ],
    3: [
        ([[1, 0, 1], [0, 1, 0], [0, 0, 1]], (1, -2, 0)),
        ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], (0, 0, 0)),
    ],
    4: [
        (
            [
                [1, 0, 0, 1],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
            ],
            (0, 1, 0, -1),
        ),
    ],
    5: [],
    6: [],
}


@pytest.fixture(scope="session")
def small_corpus():
    return build_small_corpus()


@pytest.fixture(scope="session")
def simple_corpus():
    return build_simple_corpus()


@pytest.fixture(scope="session")
def conjecture_corpus():
    return build_conjecture_corpus()


@pytest.fixture(scope="session")
def join_corpus():
    return build_join_corpus()
