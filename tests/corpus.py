"""A corpus of small enumerated groups for census/oracle cross-checks.

All groups have order at most 200 and at most three generators: cyclic
multiplicative groups, split and non-split norm tori, torus products,
dihedral-like torus normalizers, additive groups, small SL_2's, and the
double cover of a torus.  Beside them live the reference predicates
`is_subgroup` and `is_normal`, which test id sets by brute force, and
`invariants`, the invariant factors of a whole abelian group.
"""

from isocensus.census import invariant_factors_abelian, small_generating_set
from isocensus.ffield import make_field
from isocensus.matgroup import (GaSpec, GmSpec, Matrix, NormTorusCoverSpec,
                                NormTorusSpec, SLSpec, direct_product,
                                from_generators, rational_points)


def _gm(p, e, n):
    field = make_field(p, e * n)
    return rational_points(GmSpec(p, e), n, field)


def _dihedral_like(p):
    """Torus normalizer <diag(g, g^-1), antidiag(1, 1)> in GL_2(F_p)."""
    field = make_field(p, 1)
    gm = rational_points(GmSpec(p), 1, field)
    gamma = gm.elements[gm.gens_hint[0]][0]
    diag = Matrix(field, ((gamma, field.zero),
                          (field.zero, field.inv(gamma))))
    flip = Matrix(field, ((field.zero, field.one),
                          (field.one, field.zero)))
    return from_generators([diag, flip], Matrix.__mul__,
                           Matrix.identity(field, 2), inv=Matrix.inv,
                           label=f"N(T) in GL2(F_{p})")


def is_subgroup(group, ids):
    """Whether ids hold the identity and a b^-1 for every a and b in them."""
    idset = set(ids)
    if group.identity_id not in idset:
        return False
    return all(group.mult(a, group.inv(b)) in idset
               for a in idset for b in idset)


def is_normal(group, ids):
    """Normality via conjugation by a generating set of the parent."""
    idset = set(ids)
    return all(group.conjugate_id(g, h) in idset
               for g in small_generating_set(group) for h in idset)


def invariants(group):
    """Invariant factors of an abelian group, passed whole to
    `invariant_factors_abelian`: every id over the identity."""
    return invariant_factors_abelian(group, range(len(group)), [group.identity_id])


def build_corpus():
    """Labeled groups of order <= 200 covering the census acceptance corpus."""
    groups = []
    for p, e, n in ((2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6),
                    (2, 1, 7), (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 1, 4),
                    (5, 1, 1), (5, 1, 2), (5, 1, 3), (7, 1, 1), (7, 1, 2),
                    (11, 1, 1), (13, 1, 1)):
        groups.append((f"C{p**(e * n) - 1}=Gm(F_{p**(e * n)})", _gm(p, e, n)))
    for p in (2, 5, 7, 11, 13):
        degree = 1 if (p - 1) % 3 == 0 else 2
        field = make_field(p, degree)
        groups.append((f"NormTorus(F_{p})",
                       rational_points(NormTorusSpec(p), 1, field)))
    field4 = make_field(2, 2)
    groups.append(("NormTorus(F_4)",
                   rational_points(NormTorusSpec(2, 2), 1, field4)))
    for p in (5, 7):
        field = make_field(p, 1)
        groups.append((f"NormTorusCover(F_{p})",
                       rational_points(NormTorusCoverSpec(p), 1, field)))
    groups.append(("SL2(F_2)", rational_points(SLSpec(2, 2), 1, make_field(2, 1))))
    groups.append(("SL2(F_3)", rational_points(SLSpec(2, 3), 1, make_field(3, 1))))
    for p, n in ((2, 3), (3, 2), (2, 4), (3, 3)):
        field = make_field(p, n)
        groups.append((f"Ga(F_{p**n})", rational_points(GaSpec(p), n, field)))
    for p in (7, 11, 13):
        groups.append((f"N(T)_GL2(F_{p})", _dihedral_like(p)))
    c3 = _gm(2, 1, 2)
    c7 = _gm(2, 1, 3)
    c2 = _gm(3, 1, 1)
    groups.append(("C3xC3", direct_product(c3, c3)))
    groups.append(("C3xC7", direct_product(c3, c7)))
    groups.append(("C2xC2xC2", direct_product(c2, direct_product(c2, c2))))
    assert all(len(g) <= 200 for _, g in groups)
    assert len(groups) >= 20
    return groups
