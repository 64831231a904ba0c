"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s

Criterion 2 compares c(hypersimplex(3,6)) with a value computed here
without the library: every face of a hypersimplex is a smaller
hypersimplex whose normalized volume is an Eulerian number, so c is a
finite signed sum over face types (136 for Delta(3,6)). Criterion 4
requires c_star to be an integer equal to c only on Delzant members,
which is all its definition promises; on the other simple members it
checks that the denominator of c_star divides the lcm of the face
multiplicities.
"""

import functools
import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from polyinv import (
    Polytope,
    c,
    c_star,
    c_t,
    cube,
    decompose_join,
    f_polynomial,
    f_value,
    hypersimplex,
    is_defect_polytope,
    lattice_points,
    mult,
    normalized_volume,
    product,
    projective_join,
    simplex,
    unimodular_equivalent,
    volume,
)
from polyinv.cli import CliConfig, run
from polyinv.invariants import c_grade_terms

import oracles
from conftest import segment, subprocess_env

ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "artifacts"


def _criterion(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status} - {desc}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_prism_value():
    t0 = time.perf_counter()
    prism = product(simplex(2), cube(1, 1))
    grades = c_grade_terms(prism)  # index k = 0..3
    value = c(prism)
    elapsed = time.perf_counter() - t0
    ok = (
        value == 0
        and grades[3] == 12
        and grades[2] == -24
        and grades[1] == 18
        and grades[0] == -6
        and elapsed < 1.0
    )
    _criterion(
        1,
        "prism invariant vanishes with exact per-grade sums 12,-24,18,-6",
        ok,
        f"c={value}, grades k=3..0: {grades[::-1]}, {elapsed:.3f}s",
    )


def _eulerian(n, j):
    """Eulerian number A(n, j): permutations of n letters with j descents."""
    return sum(
        (-1) ** i * math.comb(n + 1, i) * (j + 1 - i) ** n for i in range(j + 1)
    )


def _hypersimplex_c(k, n):
    """c(Delta(k, n)) from its face types, independently of polyinv.

    For dim >= 1 the faces of Delta(k, n) are the Delta(k', m) cut out by
    fixing n - m coordinates, k - k' of them to 1, with 0 < k' < m; such
    a face has dimension m - 1 and normalized volume A(m - 1, k' - 1).
    The C(n, k) vertices have normalized volume 1.
    """
    r = n - 1
    total = (-1) ** r * math.comb(n, k)
    for m in range(2, n + 1):
        for kk in range(max(1, k - (n - m)), min(m - 1, k) + 1):
            count = math.comb(n, m) * math.comb(n - m, k - kk)
            sign = (-1) ** (r - (m - 1))
            total += sign * m * count * _eulerian(m - 1, kk - 1)
    return total


def test_criterion_02_hypersimplex_value():
    expected = _hypersimplex_c(3, 6)
    t0 = time.perf_counter()
    H = hypersimplex(3, 6)
    fvec = H.f_vector
    value = c(H)
    elapsed = time.perf_counter() - t0
    counts_ok = fvec == (20, 90, 120, 60, 12, 1)
    ok = expected == 136 and counts_ok and elapsed < 5.0 and value == expected
    _criterion(
        2,
        "hypersimplex(3,6): face counts (20,90,120,60,12,1) and c equal to "
        "the Eulerian face-type sum",
        ok,
        f"face counts {'ok' if counts_ok else fvec}, computed c={value}, "
        f"face-type sum {expected}, {elapsed:.2f}s",
    )


def test_criterion_03_simplex_identities():
    t0 = time.perf_counter()
    problems = []
    for r in range(1, 9):
        if c(simplex(r)) != 0:
            problems.append(f"c(simplex({r})) != 0")
    for r in range(1, 7):
        S = simplex(r)
        if c_t(S, 0) != (-1) ** r:
            problems.append(f"c_0(simplex({r}))")
        for i in range(1, r + 1):
            if c_t(S, i) != 0:
                problems.append(f"c_{i}(simplex({r}))")
        top = c_t(S, r + 1)
        if top <= 0:
            problems.append(f"c_{r + 1}(simplex({r})) <= 0")
        if f_polynomial(S)[0] != top:
            problems.append(f"d_0(simplex({r})) != c_{r + 1}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 10.0
    _criterion(
        3,
        "simplex identities for c, c_0, c_i and d_0 = c_{r+1}",
        ok,
        f"{len(problems)} violations, {elapsed:.2f}s"
        + (f": {problems[:3]}" if problems else ""),
    )


def test_criterion_04_nonnegativity_hard(simple_corpus):
    t0 = time.perf_counter()
    ct_violations = []
    cstar_negative = []
    delzant_mismatch = []
    denominator_violations = []
    delzant_count = 0
    for P in simple_corpus:
        label = P.name or str(P.vertices[:3])
        for t in range(1, 5):
            if c_t(P, t) < 0:
                ct_violations.append((label, t))
        cs = c_star(P)
        if cs < 0:
            cstar_negative.append(label)
        if P.is_delzant():
            delzant_count += 1
            if cs != c(P):  # c is an int, so this also checks integrality
                delzant_mismatch.append((label, str(cs)))
        else:
            face_lcm = math.lcm(*(mult(P, f) for f in P.face_lattice()))
            if face_lcm % cs.denominator != 0:
                denominator_violations.append((label, str(cs), face_lcm))
    other_count = len(simple_corpus) - delzant_count
    elapsed = time.perf_counter() - t0
    ok = (
        len(simple_corpus) >= 50
        and delzant_count > 0
        and other_count > 0
        and not ct_violations
        and not cstar_negative
        and not delzant_mismatch
        and not denominator_violations
        and elapsed < 120.0
    )
    _criterion(
        4,
        "c_star >= 0 and c_t >= 0 (t=1..4) on 50+ simple polytopes; c_star "
        "is an integer equal to c on Delzant members, and its denominator "
        "divides the lcm of the face multiplicities on the others",
        ok,
        f"corpus {len(simple_corpus)} ({delzant_count} Delzant, "
        f"{other_count} not), c_t<0: {len(ct_violations)}, "
        f"c*<0: {len(cstar_negative)}, "
        f"Delzant c* != c: {len(delzant_mismatch)}{delzant_mismatch[:2] or ''}, "
        f"denominator not dividing the lcm: {len(denominator_violations)}"
        f"{denominator_violations[:2] or ''}, {elapsed:.1f}s",
    )


def test_criterion_05_conjecture_scan(conjecture_corpus):
    t0 = time.perf_counter()
    findings = []
    scanned = []
    for P in conjecture_corpus:
        cval = c(P)
        coeffs = f_polynomial(P)
        scanned.append(
            {"name": P.name, "dim": P.dim, "c": cval, "f_coefficients": coeffs}
        )
        if cval < 0 or any(d < 0 for d in coeffs):
            findings.append(
                {
                    "polytope": P.to_dict(),
                    "c": cval,
                    "f_coefficients": coeffs,
                    "note": "potential counterexample to the nonnegativity conjectures",
                }
            )
    elapsed = time.perf_counter() - t0
    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "conjecture_scan.json"
    artifact.write_text(
        json.dumps(
            {"scanned": scanned, "findings": findings}, indent=2, default=str
        )
        + "\n"
    )
    names = {P.name for P in conjecture_corpus}
    coverage_ok = "hypersimplex(3,6)" in names and any(
        n and n.startswith("scan01_4") for n in names
    )
    # findings are reported, never failed on
    _criterion(
        5,
        "conjecture scan over hypersimplices and 0/1 polytopes",
        coverage_ok,
        f"{len(scanned)} scanned, {len(findings)} findings -> {artifact}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_06_join_round_trip(join_corpus):
    t0 = time.perf_counter()
    problems = []
    for J, k, r in join_corpus:
        try:
            if not is_defect_polytope(J):
                problems.append((k, r, "not defect"))
                continue
            dec = decompose_join(J)
            rebuilt = projective_join(dec.fibers)
            if not unimodular_equivalent(rebuilt, J):
                problems.append((k, r, "reconstruction differs"))
                continue
            expected = r if dec.k == r else 2 * dec.k - r
            if dec.defect != expected or (dec.defect - r) % 2 != 0:
                problems.append((k, r, f"defect {dec.defect}"))
        except Exception as e:  # noqa: BLE001 - report, then fail the criterion
            problems.append((k, r, repr(e)))
    elapsed = time.perf_counter() - t0
    ok = len(join_corpus) >= 20 and not problems and elapsed < 120.0
    _criterion(
        6,
        "round trip over 20+ generated joins with correct defects",
        ok,
        f"{len(join_corpus)} joins, {len(problems)} failures{problems[:2] or ''}, "
        f"{elapsed:.1f}s",
    )


# ----------------------------------------------------------------------------
# exhaustive 2d scan


def _direction_order(u, v):
    def sector(w):
        x, y = w
        if y == 0:
            return 0 if x > 0 else 4
        if y > 0:
            return 1 if x > 0 else (2 if x == 0 else 3)
        return 5 if x < 0 else (6 if x == 0 else 7)

    su, sv = sector(u), sector(v)
    if su != sv:
        return -1 if su < sv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def _enumerate_anchored_polygons(span):
    """All convex lattice polygons inside [0, span]^2 whose bounding box
    touches x = 0 and y = 0; every polygon in the box is a translate of
    exactly one of them. Edge vectors are scanned in strictly increasing
    angle order, which characterizes convex loops."""
    from math import gcd

    dirs = sorted(
        {
            (dx // g, dy // g)
            for dx in range(-span, span + 1)
            for dy in range(-span, span + 1)
            if (dx, dy) != (0, 0)
            for g in (gcd(abs(dx), abs(dy)),)
        },
        key=functools.cmp_to_key(_direction_order),
    )
    nd = len(dirs)
    lmax = [span // max(abs(dx), abs(dy)) for dx, dy in dirs]
    # reachable displacement ranges using directions i..nd-1
    sminx = [0] * (nd + 1)
    smaxx = [0] * (nd + 1)
    sminy = [0] * (nd + 1)
    smaxy = [0] * (nd + 1)
    for i in range(nd - 1, -1, -1):
        dx, dy = dirs[i]
        L = lmax[i]
        sminx[i] = sminx[i + 1] + min(0, L * dx)
        smaxx[i] = smaxx[i + 1] + max(0, L * dx)
        sminy[i] = sminy[i + 1] + min(0, L * dy)
        smaxy[i] = smaxy[i + 1] + max(0, L * dy)

    polygons = []

    def rec(i, x, y, start, pts, edges):
        if edges >= 3 and (x, y) == start:
            vs = pts[:-1]
            if min(v[0] for v in vs) == 0 and min(vs, key=lambda v: (v[1], v[0])) == start:
                polygons.append(vs)
            return
        if i == nd:
            return
        nx_need = start[0] - x
        ny_need = start[1] - y
        if not (sminx[i] <= nx_need <= smaxx[i] and sminy[i] <= ny_need <= smaxy[i]):
            return
        for j in range(i, nd):
            dx, dy = dirs[j]
            if edges == 0 and not (dy > 0 or (dy == 0 and dx > 0)):
                continue
            for L in range(1, lmax[j] + 1):
                px, py = x + L * dx, y + L * dy
                if not (0 <= px <= span and 0 <= py <= span):
                    break
                rec(j + 1, px, py, start, pts + [(px, py)], edges + 1)

    for x0 in range(span + 1):
        rec(0, x0, 0, (x0, 0), [(x0, 0)], 0)
    return polygons


def _polygons_by_subset_hulls(span):
    grid = [(x, y) for x in range(span + 1) for y in range(span + 1)]
    seen = set()
    for size in range(3, len(grid) + 1):
        for S in itertools.combinations(grid, size):
            P = Polytope.from_vertices(S)
            if P.dim != 2:
                continue
            vs = P.vertices
            if min(v[0] for v in vs) == 0 and min(v[1] for v in vs) == 0:
                seen.add(frozenset(vs))
    return seen


def test_criterion_07_2d_completeness():
    t0 = time.perf_counter()
    # exhaustiveness guard: on the 3x3 grid the edge-walk enumeration
    # agrees with brute force over all point subsets
    assert {frozenset(p) for p in _enumerate_anchored_polygons(2)} == (
        _polygons_by_subset_hulls(2)
    )
    polygons = _enumerate_anchored_polygons(4)
    scanned = 0
    delzant_count = 0
    defect_polygons = []
    pick_failures = []
    mismatch = []
    tri = simplex(2)
    for vs in polygons:
        P = Polytope.from_vertices(vs)
        assert P.dim == 2 and len(P.vertices) == len(vs)
        scanned += 1
        area = volume(P)
        perim = sum(normalized_volume(e) for e in P.faces(1))
        if lattice_points(P, 1) != area + Fraction(perim, 2) + 1:
            pick_failures.append(vs)
            continue
        if P.is_delzant():
            delzant_count += 1
            defect = c(P) == 0
            unimodular_triangle = (
                len(P.vertices) == 3 and normalized_volume(P) == 1
            )
            if defect != unimodular_triangle:
                mismatch.append(vs)
            if defect:
                defect_polygons.append(P)
    equiv_failures = [
        P.vertices
        for P in defect_polygons
        if not unimodular_equivalent(P, tri)
    ]
    elapsed = time.perf_counter() - t0
    ok = (
        scanned > 1000
        and delzant_count > 50
        and defect_polygons
        and not pick_failures
        and not mismatch
        and not equiv_failures
        and elapsed < 300.0
    )
    _criterion(
        7,
        "exhaustive 2d scan: defect polygons are exactly unimodular "
        "triangles; Pick holds everywhere",
        ok,
        f"{scanned} polygons (translation-anchored), {delzant_count} Delzant, "
        f"{len(defect_polygons)} defect, pick failures {len(pick_failures)}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_oracle_equivalence(small_corpus):
    t0 = time.perf_counter()
    problems = []
    for P in small_corpus:
        if len(P.vertices) > 12 or P.dim > 4:
            continue
        got = {frozenset(f.vertex_ids) for f in P.face_lattice()}
        expected = oracles.face_vertex_sets(P.vertices)
        if got != expected:
            problems.append((P.name, "face lattice"))
            continue
        if P.dim <= 3 or len(P.vertices) <= 10:
            if normalized_volume(P) != oracles.oracle_normalized_volume(P.vertices):
                problems.append((P.name, "volume"))
            for n in (1, 2):
                if lattice_points(P, n) != oracles.box_count(P.vertices, n):
                    problems.append((P.name, f"count n={n}"))
        if P.is_simple():
            for f in P.face_lattice():
                normals = [P._nfacets[j][0] for j in f.facet_ids]
                if mult(P, f) != oracles.parallelotope_points(normals):
                    problems.append((P.name, "mult"))
                    break
    elapsed = time.perf_counter() - t0
    ok = not problems
    _criterion(
        8,
        "face lattices, volumes, counts and multiplicities match brute force",
        ok,
        f"{len(problems)} disagreements{problems[:3] or ''}, {elapsed:.1f}s",
    )


def test_criterion_09_f_polynomial_consistency(small_corpus):
    t0 = time.perf_counter()
    problems = []
    for P in small_corpus:
        coeffs = f_polynomial(P)  # integrality and d_r = c asserted inside
        if coeffs[P.dim] != c(P):
            problems.append((P.name, "leading"))
        for n in (P.dim + 2, P.dim + 3):
            direct = f_value(P, n)
            interp = sum(cf * n**i for i, cf in enumerate(coeffs))
            if direct != interp:
                problems.append((P.name, n))
    elapsed = time.perf_counter() - t0
    _criterion(
        9,
        "interpolated f matches direct values at two unsampled dilations",
        not problems,
        f"{len(small_corpus)} polytopes, {len(problems)} mismatches, "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    code, poly = run(CliConfig(command="construct", family="hypersimplex", k=2, n=5))
    assert code == 0
    runs = [run(CliConfig(command="invariants"), poly) for _ in range(2)]
    in_process_ok = runs[0] == runs[1] and runs[0][0] == 0
    cmd = [
        sys.executable,
        "-m",
        "polyinv",
        "construct",
        "--family",
        "simplex",
        "--dim",
        "4",
    ]
    env = subprocess_env()
    r1 = subprocess.run(cmd, capture_output=True, check=True, env=env)
    r2 = subprocess.run(cmd, capture_output=True, check=True, env=env)
    subprocess_ok = r1.stdout == r2.stdout
    elapsed = time.perf_counter() - t0
    ok = in_process_ok and subprocess_ok
    _criterion(
        10,
        "repeated runs on fixed inputs are byte-identical",
        ok,
        f"{elapsed:.1f}s",
    )
