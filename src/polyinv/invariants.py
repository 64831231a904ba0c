"""Combinatorial invariants of integral polytopes.

All sums run over the full face lattice (nonempty faces, the polytope
included). With nvol the integer normalized volume and r = dim(P):

    c_t(P) = sum over faces F of (-1)^(r - dim F) (dim F + t)! Vol(F)
           = sum over faces F of (-1)^(r - dim F) rising(dim F, t) nvol(F)

where rising(d, t) = (d + t)! / d! = perm(d + t, t) is an integer.
c(P) = c_1(P). For the associated projective toric variety, c(P) equals
the top Chern number of the first jet bundle of the embedding line
bundle in the smooth case, hence the degree of the dual variety when
that variety is a hypersurface.

c_star(P) divides each face term by the multiplicity of the normal cone
of the face and is defined for simple polytopes; it coincides with c(P)
when the polytope is Delzant. It is returned as an exact rational; it is
not integral for every simple polytope (the smooth-case argument that
would force integrality needs the jet sheaf to be locally free).

f_polynomial(P) expands

    f(P, n) = sum_k (-n)^(r-k) (k+1)! S_k(n),
    S_k(n) = sum_{F in P(k)} |Z^F cap nF|,

as a polynomial. Each S_k is one fit (`volumes._fit`, in integers scaled
by k!) through S_k(0) = f_k, the volume sums and, for k >= 3, the
carrier tables of nP: S_k(n) credits each point to the k-faces that
contain its carrier, and S_k(-n) = (-1)^k times the points whose carrier
is a k-face (reciprocity). No face gets a polynomial of its own. The
coefficients are asserted integral and the leading one equals c(P).
f_value counts the dilates directly and is the independent check of
that expansion.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial, lcm, perm
from typing import Optional, Sequence, Union

from . import volumes as vol
from .errors import DomainError, NotSimpleError
from .polytope import Face, Polytope


def c_t(P: Polytope, t: int) -> int:
    """The alternating face-volume sum with weight (dim F + t)!, once per t."""
    if t < 0:
        raise DomainError("t must be a nonnegative integer")
    if ("c_t", t) not in P._cache:
        P._cache[("c_t", t)] = sum(c_grade_terms(P, t))
    return P._cache[("c_t", t)]


def c(P: Polytope) -> int:
    """c(P) = c_1(P), the degree invariant of the polytope."""
    return c_t(P, 1)


def c_grade_terms(P: Polytope, t: int = 1) -> list[int]:
    """Per-dimension signed contributions to c_t, index k = 0..dim, from
    the sums of nvol over each level, added up once per polytope."""
    if "level_nvol" not in P._cache:
        vols, levels = vol._face_tables(P)[0], P._lattice().levels
        P._cache["level_nvol"] = [sum([vols[s] for s in level]) for level in levels]
    return [
        (-1) ** (P.dim - k) * perm(k + t, t) * total
        for k, total in enumerate(P._cache["level_nvol"])
    ]


def mult(P: Polytope, face: Union[Face, Polytope]) -> int:
    """Multiplicity of the normal cone of a face of a simple polytope.

    The number of lattice points in the half-open parallelotope spanned
    by the primitive inward normals of the facets containing the face;
    1 for the polytope itself, and 1 for every face iff P is Delzant;
    the volume walk's second table (`volumes._face_tables`).
    """
    if not P.is_simple():
        raise NotSimpleError("multiplicity defined only for simple polytopes")
    owner, s = vol._located(face)
    if owner is not P and owner != P:
        raise DomainError("face does not belong to this polytope")
    return vol._face_tables(P)[1][s]


def c_star(P: Polytope) -> Fraction:
    """Multiplicity-corrected invariant for simple polytopes.

    Exact rational. When P is Delzant every multiplicity is 1, so the
    value is an integer and equals c(P). On other simple inputs it need
    not be an integer; its denominator divides the lcm L of mult(P, F)
    over the faces F, e.g. 1/2 on conv{(0,0),(1,0),(1,2)}, whose vertex
    (0,0) has multiplicity 2. The integer face terms, from the volume
    walk's two tables, are summed over L and divided once.
    """
    if not P.is_simple():
        raise NotSimpleError("c_star defined only for simple polytopes")
    r, (vols, mults) = P.dim, vol._face_tables(P)
    L = lcm(*set(mults.values()))
    total = Fraction(sum([
        (-1) ** (r - k) * (k + 1) * vols[s] * (L // mults[s])
        for s, k in P._lattice().dims.items()
    ]), L)
    if P.is_delzant() and total != c(P):
        raise P._broken("c_star differs from c on a Delzant input")
    return total


def f_polynomial(P: Polytope) -> list[int]:
    """Coefficients d_0 .. d_r of f(P, n), exact integers, d_r = c(P).

    S_k, the sum of L_F over the k-faces F, adds (-1)^(r-k) (k+1)! n^(r-k)
    S_k(n); it is fitted by `volumes._fit` through S_k(0) = f_k, the
    volume sums, added up apart from c's sums, and the carrier tables."""
    r, vols = P.dim, vol._face_tables(P)[0]
    levels, kids = P._lattice().levels, P._lattice().children
    lead = [sum([vols[s] for s in level]) for level in levels]
    facets = [sum([vols[c] for s in level for c in kids[s]]) for level in levels]
    counts = _sum_counts(P)
    top = levels[-1][0]
    out = [0] * (r + 1)
    for k, level in enumerate(levels):
        fit = vol._fit(
            P, top, k, f"Ehrhart sum S_{k}", len(level), lead[k], facets[k],
            counts.get(k, []),
        )
        for j, a in enumerate(fit):  # k! S_k has integer coefficients a
            out[j + r - k] += (-1) ** (r - k) * (k + 1) * a
    for i, d in enumerate(out):
        if d.denominator != 1:
            raise P._broken(f"f-polynomial coefficient d_{i} is not an integer")
    if out[r] != c(P):
        raise P._broken("leading f-coefficient differs from c(P)")
    return out


def _sum_counts(P: Polytope) -> dict[int, list[tuple[int, int]]]:
    """k -> [(S_k(-n), S_k(n)) for n = 1..floor((r - 1)/2)] for k >= 3, from
    the carrier tables of nP: S_k(n) = sum over G of L°_G(n) times the
    number of k-faces containing G, and S_k(-n) = (-1)^k times the sum of
    L°_F(n) over the k-faces F. The containing faces come from one top-down
    pass of int bitmasks over the indices of the faces of dimension >= 3."""
    r, lattice = P.dim, P._lattice()
    if r < 3:
        return {}
    # face mask -> one bit for each face of dimension >= 3 containing it;
    # those faces come first top down, so their bits are 0, 1, 2, ...
    up: dict[int, int] = {}
    level_bits = [0] * (r + 1)  # k -> the bits of the k-faces
    for i, (s, k) in enumerate(reversed(lattice.dims.items())):
        u = up.get(s, 0)  # each face comes after its parents
        if k >= 3:
            u |= 1 << i
            level_bits[k] |= 1 << i
        up[s] = u
        for c in lattice.children[s]:
            up[c] = up.get(c, 0) | u
    out: dict[int, list[tuple[int, int]]] = {k: [] for k in range(3, r + 1)}
    for n in range(1, (r - 1) // 2 + 1):
        interior, sums = [0] * (r + 1), [0] * (r + 1)
        for g, count in vol._carriers(P, n).items():
            u, kg = up[g], lattice.dims[g]
            interior[kg] += count
            for k in range(max(kg, 3), r + 1):
                sums[k] += count * (u & level_bits[k]).bit_count()
        for k in out:
            out[k].append(((-1) ** k * interior[k], sums[k]))
    return out


def f_value(P: Polytope, n: int) -> int:
    """Direct evaluation of f(P, n) without interpolation."""
    if n < 1:
        raise DomainError("dilation must be a positive integer")
    r = P.dim
    acc = 0
    for s, k in P._lattice().dims.items():
        acc += (-n) ** (r - k) * factorial(k + 1) * vol._count(P, s, n)
    return acc


def dual_degree(P: Polytope) -> Optional[int]:
    """Degree of the dual variety when defined by c(P).

    Returns c(P) for a Delzant polytope with c(P) > 0; None when the
    polytope is Delzant with c(P) = 0 (positive dual defect, see the
    classifier) and None for non-Delzant input, where the degree formula
    does not apply.
    """
    if not P.is_delzant():
        return None
    value = c(P)
    if value > 0:
        return value
    return None


class InvariantReport(namedtuple(
    "InvariantReport", "c c_t_values f_coefficients c_star dual_degree notes",
    defaults=(None, None, ()),
)):
    """Bundle of the invariants of one polytope; immutable. `c_t_values`
    maps t to c_t; `c_star` is a Fraction or None, `notes` a str tuple."""

    __slots__ = ()

    def to_dict(self) -> dict:
        doc = {
            "c": self.c,
            "c_t": {str(t): v for t, v in sorted(self.c_t_values.items())},
            "f_coefficients": list(self.f_coefficients),
        }
        doc["c_star"] = None if self.c_star is None else str(self.c_star)
        doc["dual_degree"] = self.dual_degree
        doc["notes"] = list(self.notes)
        return doc


def report(P: Polytope, t_range: Sequence[int] = (0, 1, 2, 3, 4)) -> InvariantReport:
    """Aggregate c, the c_t family, c_star, f-coefficients and dual degree."""
    for t in t_range:
        if t < 0:
            raise DomainError("t range entries must be nonnegative")
    notes = []
    cval = c(P)
    ct = {t: c_t(P, t) for t in t_range}
    fcoef = tuple(f_polynomial(P))
    if fcoef[-1] != cval:
        raise P._broken("report has d_r != c")
    cstar = None
    if P.is_simple():
        cstar = c_star(P)
        if P.is_delzant() and cstar != cval:
            raise P._broken("c_star != c on Delzant input")
        if cstar.denominator != 1:
            notes.append(
                "c_star is non-integral on this simple but non-Delzant input"
            )
    else:
        notes.append("c_star omitted: polytope is not simple")
    dd = dual_degree(P)
    if P.is_delzant():
        if cval == 0:
            notes.append("dual defect positive; see classifier")
    else:
        notes.append("dual degree defined here only for Delzant polytopes")
    return InvariantReport(
        c=cval,
        c_t_values=ct,
        f_coefficients=fcoef,
        c_star=cstar,
        dual_degree=dd,
        notes=tuple(notes),
    )
