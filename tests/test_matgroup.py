"""Rational-point enumeration: orders, strategies, canonical structure."""

import itertools
import random
import re
from functools import reduce

import pytest

from corpus import build_corpus, invariants
from isocensus import ffield, homs, matgroup, orderform
from isocensus.census import index_k_subgroups, small_generating_set
from isocensus.ffield import AmbientField, VerificationError, make_field
from isocensus.matgroup import (EnumerationBound, FiniteGroup, GaSpec, GLSpec,
                                GmSpec, Matrix, NormTorusCoverSpec, NormTorusSpec,
                                SLSpec, SOSpec, SpSpec, SUSpec, builtin_specs,
                                direct_product, from_generators,
                                make_spec, mat_det, mat_frobenius, mat_identity,
                                mat_inv, mat_rows, rational_points)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F7 = make_field(7, 1)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F25 = make_field(5, 2)


def test_catalog_names():
    assert sorted(builtin_specs()) == ["GL", "Ga", "Gm", "NormTorus",
                                       "NormTorusCover", "SL", "SO", "SU", "Sp"]
    assert make_spec("SL", 2, m=2).q == 2
    with pytest.raises(ValueError):
        make_spec("E8", 2)


@pytest.mark.parametrize("e", [1, 2])
def test_split_so_in_characteristic_2_is_refused(e):
    # the anti-diagonal form is alternating there: its group would be Sp
    with pytest.raises(ValueError, match="needs a quadratic form"):
        SOSpec(2, 2, e)


@pytest.mark.parametrize("spec,field,n,expected", [
    (GmSpec(2), F8, 3, 7),            # |F_8*| = 7
    (GmSpec(2), F2, 1, 1),            # degenerate: trivial group is allowed
    (GaSpec(2), F8, 3, 8),
    (SLSpec(2, 2), F2, 1, 6),
    (SLSpec(2, 3), F3, 1, 24),
    (SLSpec(2, 2), F4, 2, 60),
    (SLSpec(2, 5), F5, 1, 120),
    (GLSpec(2, 2), F2, 1, 6),
    (GLSpec(2, 3), F3, 1, 48),
    (NormTorusSpec(7), F7, 1, 36),    # split: (7-1)^2
    (NormTorusSpec(5), F25, 1, 24),   # non-split: 5^2 - 1
    (NormTorusSpec(3), F3, 1, 6),     # characteristic 3: q(q-1)
    (NormTorusCoverSpec(7), F7, 1, 36),
    (SpSpec(2, 2), F2, 1, 6),         # Sp_2 = SL_2
    (SOSpec(3, 3), F3, 1, 24),
    (SUSpec(2, 2), F4, 1, 6),
    (SUSpec(2, 3), F9, 1, 24),
])
def test_point_group_orders(spec, field, n, expected):
    group = rational_points(spec, n, field)
    assert len(group) == expected


@pytest.mark.parametrize("tag,q,n,m", [
    ("Gm", 2, 3, 1), ("Ga", 2, 3, 2), ("SL", 2, 1, 2), ("SL", 3, 1, 2),
    ("SL", 5, 1, 2), ("GL", 3, 1, 2), ("Sp", 2, 1, 2), ("NormTorus", 7, 1, 2),
    ("NormTorus", 5, 1, 2), ("NormTorus", 3, 1, 2), ("NormTorusCover", 7, 1, 3),
    ("SU", 2, 1, 2),
])
def test_orders_match_closed_formulas(tag, q, n, m):
    spec = make_spec(tag, q, m=m)
    degree = spec.entry_degree(n)
    if tag == "NormTorus" and (q**n - 1) % 3 != 0 and q % 3 != 0:
        degree *= 2
    field = make_field(q, degree) if q in (2, 3, 5, 7) else None
    group = rational_points(spec, n, field)
    assert len(group) == orderform.closed_order(tag, q, n, m)


@pytest.mark.parametrize("spec,field,n", [
    (SLSpec(2, 2), F2, 1),
    (SLSpec(2, 3), F3, 1),
    (GLSpec(2, 2), F2, 1),
    (SLSpec(2, 2), F4, 2),
    (GmSpec(3), F9, 2),
    (GaSpec(3), F9, 2),
    (NormTorusSpec(5), F5, 1),
    (NormTorusSpec(7), F7, 1),
    (NormTorusCoverSpec(3), F3, 1),
])
def test_strategy_agreement_with_full_scan(spec, field, n):
    by_strategy = rational_points(spec, n, field)
    by_scan = matgroup._scan_all_matrices(spec, field, n, 2**21)
    assert by_strategy.elements == tuple(sorted(by_scan))


def test_sp4_full_scan_order():
    group = rational_points(SpSpec(4, 2), 1, F2)
    assert len(group) == 720


def test_tower_monotonicity():
    amb = make_field(2, 6)
    spec = GmSpec(2)
    levels = {n: set(rational_points(spec, n, amb).elements) for n in (1, 2, 3, 6)}
    assert levels[1] <= levels[2] <= levels[6]
    assert levels[1] <= levels[3] <= levels[6]
    spec_a = GaSpec(2)
    ga = {n: set(rational_points(spec_a, n, amb).elements) for n in (1, 3, 6)}
    assert ga[1] <= ga[3] <= ga[6]


@pytest.mark.parametrize("spec,field,n", [
    (SLSpec(2, 5), F5, 1),
    (NormTorusSpec(7), F7, 1),
    (NormTorusCoverSpec(5), F5, 1),
    (GaSpec(2), make_field(2, 4), 4),
    (SUSpec(2, 3), F9, 1),
])
def test_closure_audit_random_pairs(spec, field, n):
    group = rational_points(spec, n, field)
    rng = random.Random(0)
    table = set(group.elements)
    for _ in range(1000):
        g = group.elements[rng.randrange(len(group))]
        h = group.elements[rng.randrange(len(group))]
        assert field.mat_mul(g, mat_inv(field, h)) in table


def test_lagrange_on_samples():
    group = rational_points(SLSpec(2, 3), 1, F3)
    rng = random.Random(1)
    for _ in range(20):
        i = rng.randrange(len(group))
        assert len(group) % group.element_order(i) == 0


def test_canonical_order_is_deterministic():
    a = rational_points(NormTorusSpec(7), 1, make_field(7, 1))
    b = rational_points(NormTorusSpec(7), 1, make_field(7, 1))
    assert a.elements == b.elements
    assert a.gens_hint == b.gens_hint


def test_specs_compare_and_hash_by_class_m_p_e():
    for a, b in [(make_spec("SL", 5), SLSpec(2, 5)), (GmSpec(3, 2), GmSpec(3, 2)),
                 (make_spec("NormTorus", 7, m=3), NormTorusSpec(7)),
                 (make_spec("SU", 2, 2, 3), SUSpec(3, 2, 2))]:
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) and len({a, b}) == 1
    base = SLSpec(2, 5)
    others = [GLSpec(2, 5), SLSpec(3, 5), SLSpec(2, 7), SLSpec(2, 5, 2)]
    for other in others:
        assert base != other and other != base
    assert len({base, *others, SLSpec(2, 5)}) == 5
    assert NormTorusSpec(7) != NormTorusCoverSpec(7)
    assert GmSpec(3) != "Gm" and GmSpec(3) != (GmSpec, 1, 3, 1)


def test_matrix_maps_ints_and_checks_tuples():
    for field in (F7, make_field(7, 2), make_field(97, 2)):
        ident = Matrix.identity(field, 2)
        p = field.p
        assert Matrix(field, ((1, 0), (p, 1 - p))) == ident
        g = Matrix(field, ((3, 1), (field.from_int(5), 2)))
        assert g.flat == tuple(map(field.from_int, (3, 1, 5, 2)))
        assert g * g.inv() == ident
        one = field.one
        for bad in [(p + 2,) + one[1:], one + (0,), one[:-1], (-1,) + one[1:]]:
            with pytest.raises(ValueError, match=re.escape(f"of {field!r}")):
                Matrix(field, ((one, bad), (field.zero, one)))
    # each entry is the field's own tuple, as the field's results are
    for field in (F7, make_field(7, 2)):
        g = Matrix(field, ((tuple(field.from_int(3)), 0), (0, 1)))
        assert g.flat[0] is field.mul(field.one, field.from_int(3))
        assert g.flat[1] is field.zero


def _nested_sort_key(x):
    """The order of nested rows, for matrices and for flats (a tuple of
    coefficient tuples)."""
    if isinstance(x, Matrix):
        return x.rows()
    if isinstance(x, tuple) and x and isinstance(x[0], tuple) \
            and x[0] and isinstance(x[0][0], int):
        return mat_rows(x)
    if isinstance(x, tuple):
        return tuple(_nested_sort_key(c) for c in x)
    return x


def test_flat_sort_key_gives_the_ids_of_nested_rows():
    sl2f5 = rational_points(SLSpec(2, 5), 1, F5)
    cover = rational_points(NormTorusCoverSpec(7), 1, F7)
    groups = [g for _, g in build_corpus()] + [
        sl2f5, direct_product(sl2f5, rational_points(GmSpec(2), 2, F4)),
        direct_product(cover, cover)]
    for group in groups:
        assert sorted(group.elements, key=_nested_sort_key) == list(group.elements)
        assert sorted(reversed(group.elements)) == list(group.elements)
        if "field" in group.meta:
            # flats sort as the matrices wrapping them
            wrapped = [Matrix(group.meta["field"], mat_rows(x))
                       for x in reversed(group.elements)]
            assert [m.flat for m in sorted(wrapped)] == list(group.elements)


def test_determinant_multiplicative_and_associativity():
    group = rational_points(GLSpec(2, 3), 1, F3)
    rng = random.Random(2)
    f = F3
    for _ in range(50):
        g = group.elements[rng.randrange(len(group))]
        h = group.elements[rng.randrange(len(group))]
        k = group.elements[rng.randrange(len(group))]
        mul = f.mat_mul
        assert mat_det(f, mul(g, h)) == f.mul(mat_det(f, g), mat_det(f, h))
        assert mul(mul(g, h), k) == mul(g, mul(h, k))


def test_matrix_inverse_roundtrip():
    group = rational_points(SLSpec(2, 3, 2), 1, F9)
    rng = random.Random(3)
    ident = mat_identity(F9, 2)
    for _ in range(25):
        g = group.elements[rng.randrange(len(group))]
        assert F9.mat_mul(g, mat_inv(F9, g)) == ident
        assert Matrix(F9, mat_rows(g)) * Matrix(F9, mat_rows(g)).inv() == \
            Matrix.identity(F9, 2)


def test_frobenius_map_examples():
    ident = mat_identity(F4, 2)
    assert mat_frobenius(F4, ident, 1) == ident
    group = rational_points(SLSpec(2, 2), 2, F4)
    x = F4.element_of((0, 1))
    g = Matrix(F4, ((x, F4.one), (F4.one, F4.zero))).flat
    assert g in group.index
    mapped = mat_frobenius(F4, g, 1)
    assert mapped[0] == F4.mul(x, x)
    # rational points are exactly the fixed points of their own Frobenius
    for h in group.elements:
        assert mat_frobenius(F4, h, 2) == h


def test_fixed_subgroup_of_extension():
    amb = make_field(2, 2)
    big = rational_points(SLSpec(2, 2), 2, amb)
    small = {g for g in big.elements if mat_frobenius(amb, g, 1) == g}
    assert len(small) == 6
    direct = rational_points(SLSpec(2, 2), 1, amb)
    assert small == set(direct.elements)


def test_su_needs_quadratic_subextension():
    with pytest.raises(ValueError):
        rational_points(SUSpec(2, 2), 1, F2)


def test_enumeration_bounds_raise(monkeypatch):
    monkeypatch.setattr(matgroup, "DEFAULT_ORDER_BOUND", 100)
    with pytest.raises(EnumerationBound, match="exceeds bound 100"):
        rational_points(SLSpec(2, 31), 1, make_field(31, 1))
    with pytest.raises(EnumerationBound, match="exceeds bound 100"):
        rational_points(GmSpec(103), 1, make_field(103, 1))
    # 2^16 candidates: within the default limit, past a limit of 1000
    monkeypatch.setattr(matgroup, "DEFAULT_MATRIX_SCAN_LIMIT", 1000)
    with pytest.raises(EnumerationBound, match="exceeds bound 1000"):
        rational_points(SpSpec(4, 2), 1, F2)
    with pytest.raises(ValueError):
        rational_points(GmSpec(2), 2, F2)  # subfield unavailable


def test_identity_must_satisfy_predicate():
    spec = SLSpec(2, 2)
    spec.predicate = lambda mat, field, n: False
    with pytest.raises(ValueError):
        rational_points(spec, 1, F2)


def test_from_generators_and_direct_product():
    gm4 = rational_points(GmSpec(2), 2, F4)
    prod = direct_product(gm4, gm4)
    assert len(prod) == 9
    assert invariants(prod) == [3, 3]
    # dihedral-like: torus normalizer in GL_2
    f = F7
    gm7 = rational_points(GmSpec(7), 1, F7)
    (gamma,) = gm7.elements[gm7.gens_hint[0]]
    diag = Matrix(f, ((gamma, f.zero), (f.zero, f.inv(gamma))))
    flip = Matrix(f, ((f.zero, f.one), (f.one, f.zero)))
    dihedral = from_generators([diag, flip], Matrix.__mul__,
                               Matrix.identity(f, 2), inv=Matrix.inv)
    assert len(dihedral) == 2 * 6


def test_norm_torus_structures():
    split = rational_points(NormTorusSpec(7), 1, F7)
    assert invariants(split) == [6, 6]
    nonsplit = rational_points(NormTorusSpec(5), 1, F25)
    assert invariants(nonsplit) == [24]
    char3 = rational_points(NormTorusSpec(3), 2, make_field(3, 2))
    assert invariants(char3) == [3, 24]


def _points_without_a_walk(monkeypatch, spec, field):
    """rational_points(spec, 1, field) with every group product forbidden."""
    def forbidden(*args):
        raise AssertionError("rational_points walked the group")

    with monkeypatch.context() as m:
        m.setattr(FiniteGroup, "mult", forbidden)
        group = rational_points(spec, 1, field)
    assert not group.bfs_programs
    return group


def _declaration_raises_on_first_use(monkeypatch, spec, field, declared):
    """rational_points keeps a declaration that does not generate, and each
    first use of the generators raises, naming the group."""
    monkeypatch.setattr(spec, "point_generators", lambda field, n: declared)
    group = _points_without_a_walk(monkeypatch, spec, field)
    assert group.gens_hint == tuple(group.index[g] for g in declared)
    iso = homs.IdentityIsogeny(spec)
    uses = (small_generating_set, lambda g: index_k_subgroups(g, 2),
            lambda g: homs.with_sections(
                homs.cokernel(iso, 1, homs.image(iso, 1, field, codomain=g), field), iso, 1))
    for use in uses:
        with pytest.raises(VerificationError,
                           match=f"do not generate {re.escape(repr(group))}"):
            use(group)


@pytest.mark.parametrize("spec,field", [(GmSpec(7), F7), (NormTorusSpec(5), F25),
                                        (NormTorusSpec(11), make_field(11, 1)),
                                        (GmSpec(5003), make_field(5003, 1))])
def test_one_declared_generator_is_proved_on_first_use(monkeypatch, spec, field):
    # a non-split torus declares one generator without F_{q^2} in its field,
    # so no random search runs; the last group is above the product-cache
    # threshold
    group = _points_without_a_walk(monkeypatch, spec, field)
    assert small_generating_set(group) == list(group.gens_hint)
    assert set(group.bfs_programs) == {group.gens_hint}
    # a declared generator of order |G|/2 must not pass
    [gen] = spec.point_generators(field, 1)
    _declaration_raises_on_first_use(monkeypatch, spec, field,
                                     [field.mat_mul(gen, gen)])


def test_several_declared_generators_are_proved_on_first_use(monkeypatch):
    spec = NormTorusSpec(7)
    group = _points_without_a_walk(monkeypatch, spec, F7)
    assert len(group.gens_hint) == 2
    assert small_generating_set(group) == list(group.gens_hint)
    g, _ = spec.point_generators(F7, 1)
    _declaration_raises_on_first_use(monkeypatch, spec, F7, [g, F7.mat_mul(g, g)])
    # a declared generator must be a point
    one, zero = F7.one, F7.zero
    shear = (one, one, zero, one)
    monkeypatch.setattr(spec, "point_generators", lambda field, n: [g, shear])
    with pytest.raises(VerificationError, match="not an element"):
        rational_points(spec, 1, F7)


@pytest.mark.parametrize("field", [make_field(7, 2), make_field(17, 1)])
def test_matrix_products_take_no_field_mul_or_add(monkeypatch, field):
    # tabled and prime fields multiply matrices without `mul` or `add`
    rng = random.Random(field.order)
    elements = list(field.iter_elements())
    pairs = [tuple(Matrix(field, tuple(tuple(rng.choice(elements) for _ in range(m))
                                       for _ in range(m))) for _ in range(2))
             for m in (1, 2, 3) for _ in range(30)]
    want = [Matrix(field, tuple(
        tuple(reduce(field.add, (field.mul(x, y) for x, y in zip(row, col)))
              for col in zip(*b.rows())) for row in a.rows())) for a, b in pairs]

    def forbidden(*args):
        raise AssertionError("field mul/add called in a matrix product")

    monkeypatch.setattr(AmbientField, "mul", forbidden)
    monkeypatch.setattr(AmbientField, "add", forbidden)
    assert [a * b for a, b in pairs] == want


def test_norm_torus_generators_need_a_cube_root_of_unity(monkeypatch):
    monkeypatch.setattr(matgroup, "_element_of_order", lambda field, t: None)
    with pytest.raises(VerificationError,
                       match="ambient field must contain cube roots of unity"):
        rational_points(NormTorusSpec(7), 1, F7)


def _scan_by_predicate(field, d, cover):
    """The norm-torus (or cover) scan as it was: every pair of the entry
    subfield, a outer and b inner, kept where a^2 - ab + b^2 != 0, and for
    the cover each square root c of it."""
    sub = field.enumerate_subfield(d)
    roots = {}
    for c in sub:
        roots.setdefault(field.mul(c, c), []).append(c)
    zero, out = field.zero, []
    for a in sub:
        for b in sub:
            det = field.add(field.sub(field.mul(a, a), field.mul(a, b)),
                            field.mul(b, b))
            if not any(det):
                continue
            if not cover:
                out.append((a, field.neg(b), b, field.sub(a, b)))
                continue
            for c in roots.get(det, ()):
                out.append((a, field.neg(b), zero, b, field.sub(a, b), zero,
                            zero, zero, c))
    return out


@pytest.mark.parametrize("p,degree,n", [
    (2, 1, 1), (2, 2, 2), (2, 3, 3), (2, 4, 4), (3, 1, 1), (3, 2, 2),
    (3, 3, 3), (7, 1, 1), (7, 2, 2), (5, 2, 2),
    # levels below the ambient degree
    (2, 4, 2), (2, 4, 1), (3, 2, 1), (5, 2, 1), (7, 2, 1)])
def test_norm_torus_scans_skip_the_zero_set(p, degree, n):
    field = make_field(p, degree)
    for spec, cover in ((NormTorusSpec(p), False), (NormTorusCoverSpec(p), True)):
        got = list(spec.scan_points(field, n))
        assert got == _scan_by_predicate(field, n, cover), (spec, n)
        assert len(set(got)) == len(got)


def _block_product_mismatches(product, field, pairs):
    return [(x, y) for x, y in pairs if product(x, y) != field.mat_mul(x, y)]


def _block_diagonal_pairs(field, count, seed):
    """Seeded pairs of diag(A, c), a quarter of the entries zero."""
    rng, zero = random.Random(seed), field.zero

    def entry():
        if rng.random() < 0.25:
            return zero
        return field.element_of([rng.randrange(field.p) for _ in range(field.degree)])

    def block():
        a0, a1, a3, a4, c = (entry() for _ in range(5))
        return (a0, a1, zero, a3, a4, zero, zero, zero, c)

    return [(block(), block()) for _ in range(count)]


def test_cover_points_multiply_by_the_block_product():
    cover = rational_points(NormTorusCoverSpec(7), 1, F7)
    assert len(cover) == 36
    assert _block_product_mismatches(
        cover.op, F7, itertools.product(cover.elements, repeat=2)) == []


@pytest.mark.parametrize("p,degree,path", [
    (7, 2, "table"), (31, 1, "prime"), (97, 2, "packed"), (257, 2, "packed")])
def test_block_product_is_mat_mul_on_block_diagonal_pairs(monkeypatch, p, degree,
                                                          path):
    with monkeypatch.context() as m:
        if p == 97:  # tabled, so its packed path needs the tables off
            m.setattr(ffield, "TABLE_COEFF_LIMIT", 0)
        field = make_field(p, degree)
    assert path == ("prime" if degree == 1 else
                    "packed" if field._log is None else "table")
    pairs = _block_diagonal_pairs(field, 300, p * 10 + degree)
    assert _block_product_mismatches(NormTorusCoverSpec(p).product(field),
                                     field, pairs) == []


def test_a_wrong_block_entry_turns_the_block_product_check_red(monkeypatch):
    real = NormTorusCoverSpec.product

    def swapped(self, field):
        block = real(self, field)

        def product(x, y):
            r = list(block(x, y))
            r[1], r[3] = r[3], r[1]  # r1 and r2 of the 2x2 block
            return tuple(r)

        return product

    monkeypatch.setattr(NormTorusCoverSpec, "product", swapped)
    cover = rational_points(NormTorusCoverSpec(7), 1, F7)
    assert _block_product_mismatches(
        cover.op, F7, itertools.product(cover.elements, repeat=2)) != []
    field = make_field(97, 2)
    assert _block_product_mismatches(NormTorusCoverSpec(97).product(field), field,
                                     _block_diagonal_pairs(field, 300, 972)) != []
