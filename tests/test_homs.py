"""Isogeny kernels, images, Lang maps, cokernels, and induced isogenies."""

import dataclasses
import functools
import math
import os
import random
import subprocess
import sys

import pytest

from corpus import invariants, is_normal, is_subgroup
from isocensus import census, homs
from isocensus.ffield import VerificationError, make_field
from isocensus.matgroup import (FiniteGroup, GaSpec, GmSpec, Matrix,
                                NormTorusCoverSpec, NormTorusSpec, SLSpec, make_spec, mat_identity,
                                mat_inv, rational_points)


def _cokernel(iso, n, amb, codomain=None):
    """The cokernel with its section table, every point in one ambient."""
    img = homs.image(iso, n, amb, codomain=codomain)
    return homs.with_sections(homs.cokernel(iso, n, img, amb), iso, n)


@pytest.mark.parametrize("n", [0, -1, -2])
def test_plan_degree_rejects_a_level_below_one(n):
    iso = homs.PowerIsogeny(GmSpec(3), 2)
    for sections in (False, True):
        with pytest.raises(ValueError, match=f"level n must be positive, got n={n}$"):
            homs.plan_degree(iso, n=n, sections=sections)
    assert homs.plan_degree(iso) == 1


def test_power_isogeny_requires_coprime_exponent():
    with pytest.raises(ValueError):
        homs.PowerIsogeny(GmSpec(3), 3)
    with pytest.raises(ValueError):
        homs.PowerIsogeny(GmSpec(2, 2), 2)
    with pytest.raises(ValueError):
        homs.PowerIsogeny(GaSpec(3), 2)  # not a torus spec


def test_kernel_of_squaring_on_gm():
    amb = make_field(3, 2)
    group, level = homs.kernel_points(homs.PowerIsogeny(GmSpec(3), 2), amb)
    assert len(group) == 2 and level == 1
    elems = {g[0] for g in group.elements}
    assert elems == {amb.one, amb.neg(amb.one)}


def test_kernel_of_cubing_on_gm_over_f2():
    amb = make_field(2, 2)
    group, level = homs.kernel_points(homs.PowerIsogeny(GmSpec(2), 3), amb)
    assert len(group) == 3 and level == 2


def test_kernel_of_norm_cover():
    amb = make_field(7, 1)
    group, level = homs.kernel_points(homs.NormCoverIsogeny(7), amb)
    assert len(group) == 2 and level == 1
    amb2 = make_field(2, 1)
    group2, _ = homs.kernel_points(homs.NormCoverIsogeny(2), amb2)
    assert len(group2) == 1  # squaring is bijective in characteristic 2


def test_kernel_of_power_on_plane_torus():
    amb = make_field(7, 1)  # split: cube roots of unity in F_7
    iso = homs.PowerIsogeny(NormTorusSpec(7), 3)
    group, level = homs.kernel_points(iso, amb)
    assert len(group) == 9 and level == 1
    assert invariants(group) == [3, 3]
    # characteristic 3: only the scalar part survives
    amb3 = make_field(3, 1)
    iso3 = homs.PowerIsogeny(NormTorusSpec(3), 2)
    group3, _ = homs.kernel_points(iso3, amb3)
    assert len(group3) == 2


def test_kernel_not_captured_in_small_field():
    amb = make_field(2, 1)
    with pytest.raises(homs.KernelNotCaptured):
        homs.kernel_points(homs.PowerIsogeny(GmSpec(2), 3), amb)


def test_kernel_centrality_in_domain():
    amb = make_field(7, 1)
    cases = [
        (homs.PowerIsogeny(NormTorusSpec(7), 2), NormTorusSpec(7)),
        (homs.NormCoverIsogeny(7), homs.NormCoverIsogeny(7).domain_spec),
    ]
    for iso, domain_spec in cases:
        kernel, _ = homs.kernel_points(iso, amb)
        domain = rational_points(domain_spec, 1, amb)
        for a in kernel.elements:
            for g in domain.elements:  # groups are small: check every element
                assert amb.mat_mul(a, g) == amb.mat_mul(g, a)


@pytest.mark.parametrize("k,q,n,expected", [
    (2, 3, 1, (2, 2, True)),
    (2, 3, 2, (2, 2, True)),
    (3, 2, 2, (3, 3, True)),
    (3, 2, 1, (1, 1, True)),
    (5, 7, 1, (1, 1, True)),
])
def test_check_image_index_on_gm(k, q, n, expected):
    amb = make_field(q, n)
    img = homs.image(homs.PowerIsogeny(GmSpec(q), k), n, amb)
    assert homs.check_image_index(img) == expected


def test_image_of_identity_isogeny_is_everything():
    amb = make_field(3, 1)
    iso = homs.IdentityIsogeny(GmSpec(3))
    group = rational_points(GmSpec(3), 1, amb)
    assert homs.image(iso, 1, amb, codomain=group).ids == tuple(range(len(group)))


def test_image_is_normal_subgroup():
    amb = make_field(3, 1)
    iso = homs.PowerIsogeny(GmSpec(3), 2)
    group = rational_points(GmSpec(3), 1, amb)
    assert is_normal(group, homs.image(iso, 1, amb, codomain=group).ids)


def test_lang_map_examples():
    amb = make_field(2, 2)
    group = rational_points(GmSpec(2), 1, amb)
    for g in group.elements:  # rational points map to the identity
        assert homs.lang_map(amb, g, 2, 1) == mat_identity(amb, 1)
    gen = ((0, 1),)  # generator of F_4*: lang(y) = y
    assert homs.lang_map(amb, gen, 2, 1) == gen
    with pytest.raises(ValueError):
        homs.lang_map(amb, gen, 3, 1)


def test_lang_preserves_kernel():
    amb = make_field(2, 4)
    iso = homs.PowerIsogeny(GmSpec(2), 5)
    kernel, _ = homs.kernel_points(iso, amb)
    for a in kernel.elements:
        assert homs.lang_map(amb, a, 2, 1) in kernel.index


def test_cokernel_of_squaring_q5():
    amb = make_field(5, 2)
    data = _cokernel(homs.PowerIsogeny(GmSpec(5), 2), 1, amb)
    assert data.invariants == [2]
    assert len(data.lang_image_ids) == 1  # lang kills the rational kernel
    assert homs.verify_mu(data)


def test_cokernel_of_identity_is_trivial():
    amb = make_field(5, 1)
    data = _cokernel(homs.IdentityIsogeny(GmSpec(5)), 1, amb)
    assert data.invariants == []
    assert homs.verify_mu(data)


def test_cokernel_of_norm_cover_p7():
    amb = make_field(7, 2)
    data = _cokernel(homs.NormCoverIsogeny(7), 1, amb)
    assert data.invariants == [2]
    assert homs.verify_mu(data)


def test_cokernel_invariants_without_mu_table():
    amb = make_field(3, 3)
    iso = homs.PowerIsogeny(GmSpec(3), 2)
    kamb = make_field(3, iso.kernel_field_degree())
    data = homs.cokernel(iso, 3, homs.image(iso, 3, amb), kamb)
    assert data.invariants == [2]  # 3^3 - 1 = 26 is even
    assert data.sections is None
    # sections live in the codomain points' field, and their Lang values
    # must be looked up in a kernel enumerated there too
    with pytest.raises(ValueError, match="section table needs the kernel"):
        homs.with_sections(data, iso, 3)


def test_cokernel_nontrivial_lang_action():
    # mu_4 over F_3 has lang image of order 2 at level 1: coker is C2, not C4
    amb = make_field(3, 4)
    iso = homs.PowerIsogeny(GmSpec(3), 4)
    data = _cokernel(iso, 1, amb)
    assert data.invariants == [2]
    assert len(data.lang_image_ids) == 2
    assert data.kernel_min_level == 2
    assert homs.verify_mu(data)


def test_image_index_walks_no_generating_set(monkeypatch):
    # split NormTorus(F_7) declares two generators; the image index needs none
    def forbidden(*args):
        raise AssertionError("a generating set was walked")

    monkeypatch.setattr(census, "_walk", forbidden)
    monkeypatch.setattr(census, "_bfs_program", forbidden)
    amb = make_field(7, 1)
    group = rational_points(NormTorusSpec(7), 1, amb)
    assert len(group.gens_hint) == 2
    iso = homs.PowerIsogeny(NormTorusSpec(7), 2)
    assert homs.check_image_index(homs.image(iso, 1, amb, codomain=group)) == (4, 4, True)


def test_cokernel_and_verify_mu_share_one_program():
    iso = homs.PowerIsogeny(NormTorusSpec(7), 2)
    amb = make_field(7, homs.plan_degree(iso, n=1, sections=True))
    data = _cokernel(iso, 1, amb)
    assert homs.verify_mu(data)
    assert set(data.codomain.bfs_programs) == {tuple(data.section_gens)}


def test_preimage_not_found_is_loud():
    amb = make_field(3, 1)  # non-squares of F_3 have no square roots here
    iso = homs.PowerIsogeny(GmSpec(3), 2)
    with pytest.raises(homs.PreimageNotFound):
        _cokernel(iso, 1, amb)


def test_section_degree_plans():
    assert homs.PowerIsogeny(GmSpec(3), 2).section_degree(1) == 2
    assert homs.PowerIsogeny(GmSpec(7), 5).section_degree(5) == 4
    assert homs.NormCoverIsogeny(7).section_degree(1) == 2
    assert homs.NormCoverIsogeny(2).section_degree(4) == 1
    # non-split plane torus: roots are taken upstairs in the quadratic cover
    assert homs.PowerIsogeny(NormTorusSpec(5), 2).section_degree(1) == 4


@pytest.mark.parametrize("p,degree", [(7, 1), (3, 2)])
def test_matrix_pow_matches_repeated_products(p, degree):
    # PowerIsogeny.apply is `mat_pow`; a power of the inverse is the
    # inverse's power
    amb = make_field(p, degree)
    x = amb.element_of((2, 1)[:degree])
    one, zero = amb.one, amb.zero
    mats = [(x,), (x, one, zero, amb.add(x, one)), (one, one, zero, one)]
    for mat in mats:
        bases = [mat, mat_inv(amb, mat)]
        want = bases
        for k in range(1, 10):
            assert amb.mat_pow(bases, k) == want
            want = [amb.mat_mul(w, base) for w, base in zip(want, bases)]
        assert homs.PowerIsogeny(GmSpec(p, degree) if len(mat) == 1 else
                                 NormTorusSpec(p, degree), 5).apply(amb, [mat]) == \
            amb.mat_pow([mat], 5)
    for k in (0, -1):
        with pytest.raises(ValueError, match="positive exponent"):
            amb.mat_pow(mats[1:2], k)


@pytest.mark.parametrize("p,degree", [(7, 1), (5, 5), (7, 4), (7, 5)])
def test_matrix_pow_of_1x1_is_one_field_pow(monkeypatch, p, degree):
    # prime field, two tabled fields and one on the polynomial path
    amb = make_field(p, degree)
    mat = (amb.element_of((3, 1, 4, 1, 5)[:degree]),)
    inv = mat_inv(amb, mat)
    want = {0: mat_identity(amb, 1)}
    for k in range(1, 10):
        want[k] = amb.mat_mul(want[k - 1], mat)
    for k in range(1, 4):
        want[-k] = amb.mat_mul(want[1 - k], inv)
    monkeypatch.setattr(type(amb), "mat_mul", None)  # no matrix product is taken
    for e in range(-3, 10):
        if e:
            assert amb.mat_pow([mat if e > 0 else inv], abs(e)) == [want[e]]


@pytest.mark.parametrize("k,products", [(1, 0), (2, 1), (3, 2), (5, 3), (8, 3)])
def test_matrix_pow_spends_no_extra_products(monkeypatch, k, products):
    amb = make_field(5, 1)
    mat = (amb.from_int(2), amb.one, amb.zero, amb.from_int(3))
    calls = []
    mul = type(amb).mat_mul

    def counted(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(type(amb), "mat_mul", counted)
    amb.mat_pow([mat], k)
    assert len(calls) == products


def test_induced_isogeny_boundary_cases():
    amb = make_field(3, 2)
    iso = homs.PowerIsogeny(GmSpec(3), 2)
    group = rational_points(GmSpec(3), 1, amb)
    data = _cokernel(iso, 1, amb, group)
    whole = tuple(range(len(group)))
    k_ids, ok = homs.induced_isogeny_reaches(data, whole)
    assert ok and len(k_ids) == 2  # K = full kernel: rational isomorphism
    k_ids, ok = homs.induced_isogeny_reaches(data, data.image_ids)
    assert ok and len(k_ids) == 1  # K = lang(kernel): same image


def test_induced_isogeny_rejects_subgroup_missing_the_image():
    amb = make_field(5, 2)
    iso = homs.PowerIsogeny(GmSpec(5), 2)
    group = rational_points(GmSpec(5), 1, amb)
    data = _cokernel(iso, 1, amb, group)
    with pytest.raises(ValueError):
        homs.induced_isogeny_reaches(data, (group.identity_id,))
    without_table = homs.cokernel(iso, 1, homs.image(iso, 1, amb, codomain=group), amb)
    with pytest.raises(ValueError):
        homs.induced_isogeny_reaches(without_table, tuple(range(len(group))))


def test_reached_by_on_split_torus():
    amb = make_field(7, 2)
    group = rational_points(NormTorusSpec(7), 1, amb)
    subs = census.index_k_subgroups(group, 2)
    catalog = [homs.NormCoverIsogeny(7), homs.PowerIsogeny(NormTorusSpec(7), 2)]
    flags = homs.reached_by(group, [h.ids for h in subs], catalog, 1, amb)
    assert sum(1 for f in flags if f["normcover"]) == 1
    assert all(f["pow:2"] for f in flags)


def test_reached_by_skips_inapplicable_isogeny():
    amb = make_field(3, 1)
    group = rational_points(GmSpec(3), 1, amb)
    [flags] = homs.reached_by(group, [tuple(range(len(group)))],
                              [homs.NormCoverIsogeny(3)], 1, amb)
    assert flags["normcover"] is None


def test_reached_by_matches_one_cokernel_per_subgroup():
    # sharing one CokernelData across subgroups gives the flags that a fresh
    # cokernel per subgroup gives
    spec = NormTorusSpec(7)
    amb = make_field(7, 2)
    group = rational_points(spec, 1, amb)
    subs = [h.ids for k in (2, 3) for h in census.index_k_subgroups(group, k)]
    catalog = [homs.NormCoverIsogeny(7), homs.PowerIsogeny(spec, 2)]
    flags = homs.reached_by(group, subs, catalog, 1, amb)
    for h_ids, f in zip(subs, flags):
        for iso in catalog:
            data = _cokernel(iso, 1, amb, group)
            want = set(data.image_ids) <= set(h_ids) and \
                homs.induced_isogeny_reaches(data, h_ids)[1]
            assert f[iso.name] is want
    assert any(f["normcover"] for f in flags)
    assert not all(f["normcover"] for f in flags)



def _reach_by_preimage_group(iso, data, h_ids, n, amb):
    """Matrix-domain reference for induced_isogeny_reaches: (|K|, reached == H).

    K is found from the Lang value of each section of H.  Y is the group of
    all section * kernel products whose Lang value lies in K; K must be a
    central subgroup of Y, checked in Y itself, and the isogeny is applied
    to every element of Y.
    """
    kernel = data.kernel_group

    def lang_class(y):
        return data.kernel_proj[kernel.index[homs.lang_map(amb, y, iso.q, n)]]

    mul = amb.mat_mul
    kbar = {lang_class(data.sections[h]) for h in h_ids}
    k_mats = {a for i, a in enumerate(kernel.elements) if data.kernel_proj[i] in kbar}
    y_elems = {mul(y0, a) for y0 in data.sections for a in kernel.elements
               if homs.lang_map(amb, mul(y0, a), iso.q, n) in k_mats}
    y_group = FiniteGroup(y_elems, mul, mat_identity(amb, iso.domain_spec.m),
                          inv=lambda y: mat_inv(amb, y))
    k_ids = [y_group.index[a] for a in k_mats]
    assert is_subgroup(y_group, k_ids)
    assert all(y_group.mult(k, y) == y_group.mult(y, k)
               for k in k_ids for y in range(len(y_group)))
    reached = {data.codomain.index[x] for x in iso.apply(amb, y_group.elements)}
    return len(k_mats), reached == set(h_ids)


REFERENCE_CASES = [("NormTorus", name, p)
                   for p in (2, 5, 7, 11, 13)
                   for name in ("normcover", "pow:2", "pow:3")
                   if name == "normcover" or p % int(name[-1])]
REFERENCE_CASES += [("Gm", name, p) for p in (7, 13) for name in ("pow:2", "pow:3")]


@pytest.mark.parametrize("family,name,p", REFERENCE_CASES)
def test_reached_by_matches_preimage_group_reference(family, name, p):
    iso = _catalog_isogeny(family, name, p, 1)
    amb = make_field(p, homs.plan_degree(iso, n=1, sections=True))
    group = rational_points(iso.codomain_spec, 1, amb)
    subs = [tuple(range(len(group)))]
    subs += [h.ids for k in (2, 3) for h in census.index_k_subgroups(group, k)]
    flags = homs.reached_by(group, subs, [iso], 1, amb)
    data = _cokernel(iso, 1, amb, group)
    compared = 0
    for h_ids, f in zip(subs, flags):
        if not set(data.image_ids) <= set(h_ids):
            assert f[iso.name] is False
            continue
        k_ids, ok = homs.induced_isogeny_reaches(data, h_ids)
        assert (len(k_ids), ok) == _reach_by_preimage_group(iso, data, h_ids, 1, amb)
        assert f[iso.name] is ok
        compared += 1
    assert compared


def _mutated_reached_by(monkeypatch, mutate):
    """reached_by for pow:2 on NormTorus(F_7), after mutate edits the
    cokernel data it builds."""
    iso = homs.PowerIsogeny(NormTorusSpec(7), 2)
    amb = make_field(7, homs.plan_degree(iso, n=1, sections=True))
    group = rational_points(iso.codomain_spec, 1, amb)
    real = homs.with_sections

    def mutated(*args, **kw):
        data = real(*args, **kw)
        mutate(data)
        return data

    monkeypatch.setattr(homs, "with_sections", mutated)
    return homs.reached_by(group, [tuple(range(len(group)))], [iso], 1, amb)


def test_reached_by_rejects_a_wrong_non_generator_section(monkeypatch):
    def mutate(data):
        x = next(x for x in range(len(data.codomain))
                 if x not in data.reps and x not in data.section_gens)
        data.sections[x] = data.codomain.meta["field"].mat_mul(
            data.sections[x], data.sections[data.section_gens[0]])

    with pytest.raises(VerificationError, match="section is not a preimage"):
        _mutated_reached_by(monkeypatch, mutate)


def test_reached_by_rejects_a_nonabelian_kernel(monkeypatch):
    s3 = rational_points(SLSpec(2, 2), 1, make_field(2, 1))

    def mutate(data):
        data.kernel_group = s3

    with pytest.raises(VerificationError, match="not abelian"):
        _mutated_reached_by(monkeypatch, mutate)


class _WrongKernel(homs.PowerIsogeny):
    """pow:2 on Gm whose kernel lists 2, which squares to 4, in place of -1."""

    def kernel_matrices(self, ambient):
        one = super().kernel_matrices(ambient)[0]
        return [one, (ambient.from_int(2),)]


def test_kernel_points_reject_a_point_outside_the_kernel():
    iso = _WrongKernel(GmSpec(5), 2)
    amb = make_field(5, homs.plan_degree(iso, n=1, sections=True))
    with pytest.raises(VerificationError, match="does not map to the identity"):
        homs.kernel_points(iso, amb)
    group = rational_points(GmSpec(5), 1, amb)
    with pytest.raises(VerificationError, match="does not map to the identity"):
        homs.reached_by(group, [tuple(range(len(group)))], [iso], 1, amb)


def test_kernel_matrices_reject_a_missing_root_of_unity(monkeypatch):
    monkeypatch.setattr(homs, "_element_of_order", lambda field, t: None)
    with pytest.raises(VerificationError,
                       match="no element of order 2 despite mu_2 in field"):
        homs.kernel_points(homs.PowerIsogeny(GmSpec(3), 2), make_field(3, 1))


def test_section_over_rejects_a_wrong_root(monkeypatch):
    iso = homs.PowerIsogeny(NormTorusSpec(7), 2)
    amb = make_field(7, homs.plan_degree(iso, n=1, sections=True))
    x = next(g for g in rational_points(NormTorusSpec(7), 1, amb).elements
             if g != mat_identity(amb, 2))
    monkeypatch.setattr(homs, "kth_root", lambda field, a, k: a)
    with pytest.raises(VerificationError,
                       match="pow:2: extracted section is not a preimage"):
        iso.section_over(x, amb)


def test_image_values_reject_a_point_outside_the_codomain():
    iso = homs.PowerIsogeny(GmSpec(5), 2)
    amb = make_field(5, 1)
    one = mat_identity(amb, 1)
    trivial = FiniteGroup([one], amb.mat_mul, one, inv=lambda y: mat_inv(amb, y))
    with pytest.raises(VerificationError, match="pow:2 maps a rational point "
                       "outside the codomain point group"):
        homs.image(iso, 1, amb, codomain=trivial,
                   domain=rational_points(GmSpec(5), 1, amb))


def _section_table_inputs():
    """pow:2 on Gm(F_5) at level 1: ambient, codomain points and kernel."""
    iso = homs.PowerIsogeny(GmSpec(5), 2)
    amb = make_field(5, homs.plan_degree(iso, n=1, sections=True))
    kernel, _ = homs.kernel_points(iso, amb)
    return iso, amb, rational_points(GmSpec(5), 1, amb), kernel


def test_section_table_rejects_a_lang_value_outside_the_kernel():
    # lang(sqrt(2)) = 2^2 = -1, which the trivial group lacks
    iso, amb, codomain, _ = _section_table_inputs()
    one = mat_identity(amb, 1)
    trivial = FiniteGroup([one], amb.mat_mul, one, inv=lambda y: mat_inv(amb, y))
    with pytest.raises(VerificationError,
                       match="lang value of a section must lie in the kernel"):
        homs._section_table(iso, 1, amb, codomain, trivial, 0)


def test_section_table_rejects_a_kernel_element_off_the_centralizer():
    iso = homs.PowerIsogeny(NormTorusSpec(7), 2)
    amb = make_field(7, homs.plan_degree(iso, n=1, sections=True))
    kernel, _ = homs.kernel_points(iso, amb)
    generic = Matrix(amb, ((1, 2), (3, 5))).flat
    padded = FiniteGroup([*kernel.elements, generic], amb.mat_mul,
                         kernel.identity, inv=lambda y: mat_inv(amb, y))
    codomain = rational_points(NormTorusSpec(7), 1, amb)
    with pytest.raises(VerificationError,
                       match="a kernel element does not commute with a section"):
        homs._section_table(iso, 1, amb, codomain, padded, 0)


def test_section_table_rejects_a_generator_section_off_the_cover_shape(monkeypatch):
    # the right 2x2 block with a one at entry (0, 2): the block product would
    # drop that entry, so the walk must not start
    iso = homs.NormCoverIsogeny(7)
    amb = make_field(7, homs.plan_degree(iso, n=1, sections=True))
    kernel, _ = homs.kernel_points(iso, amb)
    codomain = rational_points(NormTorusSpec(7), 1, amb)
    real_section = homs.NormCoverIsogeny.section_over
    real_product = NormTorusCoverSpec.product
    products = []

    def sheared(self, x, ambient):
        y = real_section(self, x, ambient)
        return y[:2] + (ambient.one,) + y[3:]

    def counted(self, field):
        block = real_product(self, field)
        return lambda x, y: products.append((x, y)) or block(x, y)

    monkeypatch.setattr(homs.NormCoverIsogeny, "section_over", sheared)
    monkeypatch.setattr(NormTorusCoverSpec, "product", counted)
    with pytest.raises(VerificationError, match=r"normcover: a generator section is "
                       r"not a point of NormTorusCoverSpec\(m=3, q=7\)"):
        homs._section_table(iso, 1, amb, codomain, kernel, 0)
    assert products == []
    monkeypatch.setattr(homs.NormCoverIsogeny, "section_over", real_section)
    homs._section_table(iso, 1, amb, codomain, kernel, 0)
    assert len(products) == len(codomain) - 1


def test_cokernel_rejects_unequal_invariants(monkeypatch):
    # with lang the identity map, lang(ker) is all of mu_4: ker/lang(ker)
    # is trivial, while F_3^* / (F_3^*)^4 has order 2
    monkeypatch.setattr(homs, "lang_map", lambda field, y, q, n: y)
    with pytest.raises(VerificationError, match=r"cokernel invariants \[2\] "
                       r"differ from kernel-side invariants \[\]"):
        iso, amb = homs.PowerIsogeny(GmSpec(3), 4), make_field(3, 2)
        homs.cokernel(iso, 1, homs.image(iso, 1, amb), amb)


def test_cokernel_rejects_a_wrong_coset_rep_section(monkeypatch):
    iso, amb, codomain, _ = _section_table_inputs()
    reps, _ = census.quotient_group(
        codomain, homs.image(iso, 1, amb, codomain=codomain).ids)
    rep = next(x for x in reps if x != codomain.identity_id)
    real = homs._section_table

    def corrupted(*args):
        sections, lang_ids, gens = real(*args)
        sections[rep] = mat_identity(amb, 1)
        return sections, lang_ids, gens

    monkeypatch.setattr(homs, "_section_table", corrupted)
    with pytest.raises(VerificationError,
                       match="pow:2: coset rep section is not a preimage"):
        _cokernel(iso, 1, amb, codomain)


def _catalog_isogeny(family, name, p, e):
    spec = GmSpec(p, e) if family == "Gm" else NormTorusSpec(p, e)
    if name == "normcover":
        return homs.NormCoverIsogeny(p, e)
    if name == "compose":
        return homs.CompositeIsogeny(homs.PowerIsogeny(spec, 2),
                                     homs.PowerIsogeny(spec, 3))
    return homs.PowerIsogeny(spec, int(name.split(":")[1]))


# (family, isogeny, p, e, n, kernel, points, points+kernel+sections):
# the degrees the experiment runner planned before plan_degree existed.  The
# old CLI agreed except on non-split NormTorus points, which it raised to
# 2en, and so also on the p = 2 norm cover with sections.
PLAN_CASES = [
    ("Gm", "pow:2", 5, 1, 1, 1, 1, 2),
    ("Gm", "pow:3", 2, 1, 2, 2, 2, 6),
    ("Gm", "pow:3", 2, 2, 1, 2, 2, 6),
    ("Gm", "pow:4", 7, 1, 3, 2, 3, 6),
    ("NormTorus", "pow:2", 7, 1, 1, 1, 1, 2),     # split
    ("NormTorus", "pow:2", 5, 1, 1, 2, 1, 4),     # non-split
    ("NormTorus", "pow:2", 5, 1, 2, 2, 2, 4),     # split at level 2
    ("NormTorus", "pow:5", 2, 1, 1, 4, 1, 4),     # non-split
    ("NormTorus", "pow:2", 3, 1, 1, 1, 1, 2),     # characteristic 3
    ("NormTorus", "pow:4", 3, 1, 2, 2, 2, 8),     # characteristic 3
    ("NormTorus", "normcover", 2, 1, 1, 1, 1, 1),
    ("NormTorus", "normcover", 2, 1, 2, 1, 2, 2),
    ("NormTorus", "normcover", 5, 1, 1, 1, 1, 2),
    ("NormTorus", "normcover", 7, 1, 3, 1, 3, 6),
    ("Gm", "compose", 5, 1, 1, 2, 1, 6),
    ("Gm", "compose", 7, 1, 2, 3, 2, 12),
]


@pytest.mark.parametrize(
    "family,name,p,e,n,kernel,points,sections", PLAN_CASES,
    ids=[f"{c[1]}-{c[0]}-q{c[2] ** c[3]}-n{c[4]}" for c in PLAN_CASES])
def test_plan_degree_matches_the_earlier_plans(family, name, p, e, n,
                                               kernel, points, sections):
    iso = _catalog_isogeny(family, name, p, e)
    assert homs.plan_degree(iso) == kernel
    assert homs.plan_degree(iso, n=n) == points
    assert homs.plan_degree(iso, n=n, sections=True) == sections


def _search_level(iso, n):
    """(level, scale) for the brute-force search: roots over F_{q^level},
    degree times scale.  A non-split level of a plane torus outside
    characteristic 3 takes its roots upstairs, in F_{q^(2n)}."""
    nonsplit = iso._needs_cube_root() and (iso.q**n - 1) % 3 != 0
    return (2 * n, 2) if nonsplit else (n, 1)


# Gm, split and non-split NormTorus (p = 2, 5, 11 have non-split levels),
# and NormTorus in characteristic 3
SECTION_SPECS = [(GmSpec, p) for p in (2, 3, 5, 7, 11, 13)] + \
    [(NormTorusSpec, p) for p in (2, 3, 5, 7, 11, 13)]


@pytest.mark.parametrize("spec_cls,p", SECTION_SPECS,
                         ids=[f"{c.__name__}-p{p}" for c, p in SECTION_SPECS])
def test_section_degree_is_the_least_search_degree(spec_cls, p):
    scales = set()
    for k in range(1, 13):
        if k % p == 0:
            continue
        iso = homs.PowerIsogeny(spec_cls(p), k)
        for n in range(1, 5):
            level, scale = _search_level(iso, n)
            big_q = p**level
            s = 1
            while (big_q**s - 1) % (k * (big_q - 1)):
                s += 1
            assert iso.section_degree(n) == scale * s, (k, n)
            assert s <= k
            scales.add(scale)
    assert (2 in scales) == (spec_cls is NormTorusSpec and p % 3 == 2)


def test_plan_degree_takes_the_lcm_over_isogenies():
    # the census --reached catalog on NormTorus(F_5): cover 2, squaring 4
    spec = NormTorusSpec(5)
    catalog = [homs.NormCoverIsogeny(5), homs.PowerIsogeny(spec, 2)]
    assert homs.plan_degree(*catalog, n=1, sections=True) == 4


def test_plan_degree_with_sections_covers_the_kernel():
    # in the catalog the kernel is always rational where the sections are,
    # so a stand-in isogeny whose kernel needs level 3 checks that term
    class FarKernel(homs.IdentityIsogeny):
        def kernel_field_degree(self):
            return 3

    iso = FarKernel(GmSpec(5, 2))
    assert homs.plan_degree(iso) == 6
    assert homs.plan_degree(iso, n=2) == 4
    assert homs.plan_degree(iso, n=2, sections=True) == 12


def test_composite_isogeny_behaves_like_power_product():
    amb = make_field(5, 4)
    sq = homs.PowerIsogeny(GmSpec(5), 2)
    comp = homs.CompositeIsogeny(sq, sq)
    kernel, level = homs.kernel_points(comp, amb)
    assert len(kernel) == 4 == comp.kernel_order()
    data = _cokernel(comp, 1, amb)
    direct = _cokernel(homs.PowerIsogeny(GmSpec(5), 4), 1, amb)
    assert data.invariants == direct.invariants == [4]
    assert homs.verify_mu(data)


def test_composite_through_the_cover():
    comp = homs.CompositeIsogeny(homs.PowerIsogeny(NormTorusSpec(7), 2),
                                 homs.NormCoverIsogeny(7))
    assert comp.kernel_order() == 8
    amb = make_field(7, comp.kernel_field_degree())
    kernel, level = homs.kernel_points(comp, amb)
    assert len(kernel) == 8 and level == 2
    assert homs.check_image_index(homs.image(comp, 1, make_field(7, 1))) == (4, 4, True)


def test_composite_factors_must_chain():
    with pytest.raises(ValueError):
        homs.CompositeIsogeny(homs.PowerIsogeny(GmSpec(5), 2),
                              homs.NormCoverIsogeny(5))


def test_isogenies_match_specs_by_equality(monkeypatch):
    # factors and points built from separate but equal specs
    outer, inner = homs.PowerIsogeny(GmSpec(5), 2), homs.PowerIsogeny(GmSpec(5), 3)
    assert outer.applies_to(GmSpec(5)) and not outer.applies_to(GmSpec(5, 2))
    assert not outer.applies_to(GmSpec(7)) and not outer.applies_to(NormTorusSpec(5))
    comp = homs.CompositeIsogeny(outer, inner)
    assert comp.applies_to(GmSpec(5))
    with pytest.raises(ValueError, match="do not chain"):
        homs.CompositeIsogeny(outer, homs.PowerIsogeny(GmSpec(5, 2), 3))
    # a domain equal to the codomain reuses its points
    built = []
    real = homs.rational_points

    def record(spec, n, amb):
        built.append(spec)
        return real(spec, n, amb)

    monkeypatch.setattr(homs, "rational_points", record)
    amb = make_field(5, 1)
    assert homs.check_image_index(homs.image(comp, 1, amb)) == (2, 2, True)
    assert built == [GmSpec(5)]
    homs.image(homs.NormCoverIsogeny(5), 1, amb)
    assert built[1:] == [NormTorusSpec(5), NormTorusCoverSpec(5)]


def _schoolbook(amb, a, b):
    """The product of two flat matrices with field `mul` and `add` only."""
    m = math.isqrt(len(a))
    return tuple(functools.reduce(amb.add, [amb.mul(a[i + l], b[l * m + j])
                                            for l in range(m)])
                 for i in range(0, m * m, m) for j in range(m))


def _apply_reference(iso, amb, x):
    """phi(x) for one point, from the definition of each catalog isogeny."""
    if isinstance(iso, homs.CompositeIsogeny):
        return _apply_reference(iso.outer, amb, _apply_reference(iso.inner, amb, x))
    if isinstance(iso, homs.PowerIsogeny):
        y = x
        for _ in range(iso.k - 1):
            y = _schoolbook(amb, y, x)
        return y
    if isinstance(iso, homs.NormCoverIsogeny):
        return tuple(x[3 * i + j] for i in range(2) for j in range(2))
    assert isinstance(iso, homs.IdentityIsogeny)
    return x


# (spec, p, isogeny, level): tabled, prime and polynomial-path fields
APPLY_CASES = [("Gm", 7, "pow:2", 2), ("Gm", 2, "pow:3", 11),
               ("NormTorus", 5, "pow:2", 1), ("NormTorus", 7, "pow:3", 2),
               ("NormTorus", 2, "pow:5", 3), ("NormTorus", 11, "normcover", 1),
               ("SL", 3, "id", 1), ("NormTorus", 7, "compose:(pow:2,normcover)", 1),
               ("Gm", 7, "compose:(pow:3,pow:2)", 2)]


@pytest.mark.parametrize("spec,p,name,n", APPLY_CASES)
def test_list_apply_matches_a_per_point_reference(spec, p, name, n):
    iso = homs.parse_isogeny(name, make_spec(spec, p))
    amb = make_field(p, homs.plan_degree(iso, n=n))
    domain = rational_points(iso.domain_spec, n, amb).elements
    assert iso.apply(amb, domain) == [_apply_reference(iso, amb, x) for x in domain]
    assert iso.apply(amb, []) == []


@pytest.mark.parametrize("spec,p,name,n", APPLY_CASES)
def test_image_maps_its_domain_in_one_apply_call(monkeypatch, spec, p, name, n):
    calls = []
    for cls in (homs.PowerIsogeny, homs.NormCoverIsogeny, homs.IdentityIsogeny,
                homs.CompositeIsogeny):
        def counted(self, field, points, apply=cls.apply):
            calls.append((self.name, len(points)))
            return apply(self, field, points)
        monkeypatch.setattr(cls, "apply", counted)
    iso = homs.parse_isogeny(name, make_spec(spec, p))
    amb = make_field(p, homs.plan_degree(iso, n=n))
    img = homs.image(iso, n, amb)
    size = len(rational_points(iso.domain_spec, n, amb))
    factors = [iso.inner, iso.outer] if isinstance(iso, homs.CompositeIsogeny) else []
    assert calls == [(iso.name, size)] + [(f.name, size) for f in factors]
    assert len(img.codomain) // len(img.ids) == img.rational_kernel


def test_isogenies_are_multiplicative_on_random_pairs():
    amb7 = make_field(7, 1)
    amb9 = make_field(3, 2)
    cases = [
        (homs.PowerIsogeny(NormTorusSpec(7), 2),
         rational_points(NormTorusSpec(7), 1, amb7)),
        (homs.NormCoverIsogeny(7),
         rational_points(homs.NormCoverIsogeny(7).domain_spec, 1, amb7)),
        (homs.PowerIsogeny(GmSpec(3), 4),
         rational_points(GmSpec(3), 2, amb9)),
    ]
    rng = random.Random(4)
    for iso, domain in cases:
        amb = domain.meta["field"]
        mul = amb.mat_mul
        assert iso.apply(amb, [domain.identity]) == [mat_identity(amb, iso.codomain_spec.m)]
        gs = [domain.elements[rng.randrange(len(domain))] for _ in range(60)]
        hs = [domain.elements[rng.randrange(len(domain))] for _ in range(60)]
        assert iso.apply(amb, list(map(mul, gs, hs))) == \
            list(map(mul, iso.apply(amb, gs), iso.apply(amb, hs)))


def test_mu_sampled_verification_above_small_cells():
    # Gm over F_3 at level 6 has 728 elements, above the E2 mu bound of 512;
    # the proof on generators stays cheap at this size
    iso = homs.PowerIsogeny(GmSpec(3), 2)
    amb = make_field(3, 12)
    data = _cokernel(iso, 6, amb)
    assert data.invariants == [2]
    assert homs.verify_mu(data)


def _order_swap(group):
    """Swap an element of order 2 with one of order 4 in a cyclic group of
    order 4: a bijection of ids that fixes the identity but is no
    automorphism."""
    by_order = sorted(range(len(group)), key=group.element_order)
    low, high = by_order[1], by_order[-1]
    return {low: high, high: low}


def _c4_cokernel():
    """The C4 cokernel of pow:4 on Gm(F_5) with its mu table: mu is a
    bijection onto ker/lang(ker), its kernel the trivial image."""
    return _cokernel(homs.PowerIsogeny(GmSpec(5), 4), 1, make_field(5, 4))


def _relabelled_mu():
    """The C4 cokernel, and a copy whose Lang ids are relabelled by
    _order_swap of the kernel group."""
    data = _c4_cokernel()
    swap = _order_swap(data.kernel_group)
    bad = dataclasses.replace(
        data, section_lang_ids=[swap.get(v, v) for v in data.section_lang_ids])
    return data, bad


def _tree_consistent_mu():
    """The C4 cokernel over the generators [s, s^2], with Lang ids built
    along the tree edges of their program from the kernel elements a^2 for
    s and a for s^2, a = lang(section(s)): every tree edge agrees, but
    s * s = s^2 does not, as mu(s)^2 = a^4 is the identity class."""
    data = _c4_cokernel()
    codomain, kernel = data.codomain, data.kernel_group
    (s,) = data.section_gens
    a = data.section_lang_ids[s]
    gens, gen_lang = [s, codomain.mult(s, s)], [kernel.mult(a, a), a]
    bfs_ids, targets, first = census._bfs_program(codomain, gens)
    lang = [None] * len(codomain)
    lang[codomain.identity_id] = kernel.identity_id
    for i, t in enumerate(targets):
        if first[i]:
            lang[bfs_ids[t]] = kernel.mult(lang[bfs_ids[i // 2]], gen_lang[i % 2])
    return dataclasses.replace(data, section_gens=gens, section_lang_ids=lang)


def _onto_with_the_image_as_kernel(data):
    """verify_mu's first two checks: mu takes every class, and the class of
    the identity exactly on the image."""
    values = list(map(data.mu, range(len(data.codomain))))
    one = data.kernel_proj[data.kernel_group.identity_id]
    return set(values) == set(data.kernel_proj) and \
        {x for x, v in enumerate(values) if v == one} == set(data.image_ids)


def test_verify_mu_rejects_relabelled_values():
    data, bad = _relabelled_mu()
    assert data.invariants == [4]
    assert homs.verify_mu(data)
    assert not homs.verify_mu(bad)


def test_multiplicativity_rejects_the_swapping_map():
    # the relabelled mu fixes the identity class and is onto, so only the
    # edge products refute it; a constant map misses the identity class
    data, bad = _relabelled_mu()
    assert _onto_with_the_image_as_kernel(data)
    assert _onto_with_the_image_as_kernel(bad)
    assert not homs.verify_mu(bad)
    other = next(v for v in range(len(data.kernel_group))
                 if data.kernel_proj[v] != data.kernel_proj[data.kernel_group.identity_id])
    constant = dataclasses.replace(
        data, section_lang_ids=[other] * len(data.codomain))
    assert not homs.verify_mu(constant)


def test_multiplicativity_is_checked_on_cycle_closing_edges():
    # built along the tree edges, mu passes the first two checks; only the
    # cycle-closing edge s * s = s^2 refutes it
    bad = _tree_consistent_mu()
    assert _onto_with_the_image_as_kernel(bad)
    assert not homs.verify_mu(bad)


def test_rejections_hold_under_python_O():
    # the checks are explicit raises and returns, not asserts, so they
    # survive -O; the script itself checks without assert for that reason
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    script = "\n".join([
        "import sys",
        f"sys.path[:0] = [{src_dir!r}, {tests_dir!r}]",
        "from isocensus import homs",
        "from test_homs import _relabelled_mu, _tree_consistent_mu",
        "if not sys.flags.optimize:",
        "    sys.exit('not running under -O')",
        "data, bad = _relabelled_mu()",
        "if not homs.verify_mu(data) or homs.verify_mu(bad):",
        "    sys.exit('verify_mu missed the relabelling')",
        "if homs.verify_mu(_tree_consistent_mu()):",
        "    sys.exit('verify_mu missed a cycle-closing edge')",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_arithmetic_progression_of_full_kernel_levels():
    cases = [
        (homs.PowerIsogeny(GmSpec(2), 3), 2, 6),
        (homs.PowerIsogeny(GmSpec(3), 2), 3, 6),
        (homs.NormCoverIsogeny(5), 5, 3),
    ]
    for iso, q, n_max in cases:
        full = iso.kernel_order()
        levels = []
        for n in range(1, n_max + 1):
            amb = make_field(q, n)
            _, ker_n, _ = homs.check_image_index(homs.image(iso, n, amb))
            if ker_n == full:
                levels.append(n)
        kamb = make_field(q, iso.kernel_field_degree())
        _, minimal = homs.kernel_points(iso, kamb)
        assert minimal in levels
        assert all(m in levels for m in range(minimal, n_max + 1, minimal))
