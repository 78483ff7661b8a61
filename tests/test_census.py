"""Index-k censuses against the lattice oracle and known group theory."""

import random
import re
import tracemalloc

import pytest

from corpus import build_corpus
from isocensus import census
from isocensus.census import (CensusBoundExceeded, SubgroupHandle,
                              abelianization_invariants, center,
                              conjugacy_classes_of_subgroups,
                              derived_subgroup, index_k_subgroups,
                              invariant_factors_abelian, is_normal,
                              is_subgroup, normal_core, quotient_group, small_generating_set,
                              subgroup_lattice_oracle)
from isocensus.ffield import VerificationError, make_field
from isocensus.matgroup import (EnumerationBound, FiniteGroup, GaSpec, GmSpec,
                                Matrix, NormTorusSpec, SLSpec, cayley_walk,
                                direct_product, from_generators, rational_points)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F7 = make_field(7, 1)
F8 = make_field(2, 3)

SL2F2 = rational_points(SLSpec(2, 2), 1, F2)
SL2F3 = rational_points(SLSpec(2, 3), 1, F3)
SL2F4 = rational_points(SLSpec(2, 2), 2, F4)
SL2F5 = rational_points(SLSpec(2, 5), 1, make_field(5, 1))


def factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_index_one_is_whole_group():
    subs = index_k_subgroups(SL2F2, 1)
    assert len(subs) == 1 and subs[0].order == 6 and subs[0].normal


def test_sl2f2_has_one_index_two_subgroup():
    subs = index_k_subgroups(SL2F2, 2)
    assert len(subs) == 1
    assert subs[0].order == 3 and subs[0].normal


def test_ga_f8_has_seven_hyperplanes():
    group = rational_points(GaSpec(2), 3, F8)
    assert len(index_k_subgroups(group, 2)) == 7


def test_norm_torus_f7_has_three_index_two_subgroups():
    group = rational_points(NormTorusSpec(7), 1, F7)
    subs = index_k_subgroups(group, 2)
    assert len(subs) == 3
    assert all(h.normal for h in subs)


def test_census_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        index_k_subgroups(SL2F2, 0)


def test_census_bound_is_loud():
    group = rational_points(NormTorusSpec(7), 1, F7)
    with pytest.raises(CensusBoundExceeded):
        index_k_subgroups(group, 6, candidate_bound=10)


def test_trivial_group_census():
    trivial = rational_points(GmSpec(2), 1, F2)
    assert len(index_k_subgroups(trivial, 1)) == 1
    assert index_k_subgroups(trivial, 2) == []


def test_census_matches_oracle_on_corpus():
    for label, group in build_corpus():
        if len(group) > 200:
            continue
        lattice = subgroup_lattice_oracle(group)
        gens = small_generating_set(group)
        for k in range(1, 7):
            found = {h.ids for h in index_k_subgroups(group, k, gens=gens)}
            expected = {ids for ids in lattice if len(group) // len(ids) == k
                        and len(group) % len(ids) == 0}
            assert found == expected, (label, k)


def test_census_matches_oracle_on_corpus_at_k7_and_k8():
    for label, group in build_corpus():
        lattice = subgroup_lattice_oracle(group)
        for k in (7, 8):
            found = {h.ids for h in index_k_subgroups(group, k)}
            expected = {ids for ids in lattice if len(ids) * k == len(group)}
            assert found == expected, (label, k)


def test_census_has_no_duplicate_ids():
    for label, group in build_corpus():
        for k in range(2, 7):
            ids = [h.ids for h in index_k_subgroups(group, k)]
            assert len(ids) == len(set(ids)), (label, k)
            assert ids == sorted(ids), (label, k)


def test_census_cores_match_normal_core_on_corpus():
    for label, group in build_corpus():
        for k in range(2, 7):
            for h in index_k_subgroups(group, k):
                assert h.core_ids == normal_core(group, h.ids).ids, (label, k)


def test_census_is_independent_of_the_generating_set():
    for label, group in build_corpus()[-12:]:
        gens = small_generating_set(group)
        other = list(reversed(gens)) + [gens[0]]
        for k in range(2, 7):
            want = [(h.ids, h.core_ids) for h in index_k_subgroups(group, k)]
            got = [(h.ids, h.core_ids)
                   for h in index_k_subgroups(group, k, gens=other)]
            assert got == want, (label, k)
        # one Cayley-graph program per generating set, reused across k
        assert set(group.bfs_programs) == {tuple(gens), tuple(other)}, label


def _random_matrix_group(rng):
    """<one or two random invertible 2x2 matrices over F_p>, of order <= 200."""
    while True:
        field = make_field(rng.choice((2, 3, 5, 7)), 1)
        count, gens = rng.randint(1, 2), []
        while len(gens) < count:
            rows = tuple(tuple(field.from_int(rng.randrange(field.p))
                               for _ in range(2)) for _ in range(2))
            m = Matrix(field, rows)
            if any(m.det()):
                gens.append(m)
        try:
            return from_generators(gens, Matrix.__mul__,
                                   Matrix.identity(field, 2), inv=Matrix.inv,
                                   bound=200)
        except EnumerationBound:
            continue


def test_census_matches_oracle_on_random_groups():
    rng = random.Random(5)
    groups = [_random_matrix_group(rng) for _ in range(10)]
    while len(groups) < 14:
        a, b = _random_matrix_group(rng), _random_matrix_group(rng)
        if len(a) * len(b) <= 200:
            groups.append(direct_product(a, b))
    for group in groups:
        lattice = subgroup_lattice_oracle(group)
        for k in range(1, 7):
            found = [h.ids for h in index_k_subgroups(group, k)]
            expected = [ids for ids in lattice if len(ids) * k == len(group)]
            assert found == expected, (group, k)


def _pairwise_oracle(group):
    """The lattice by joining every pair of known subgroups to a fixpoint."""
    gens_of = {}
    queue = []
    for i in range(len(group)):
        sub = group.closure_ids([i])
        if sub not in gens_of:
            gens_of[sub] = (i,)
            queue.append(sub)
    qi = 0
    while qi < len(queue):
        a = queue[qi]
        qi += 1
        for b in list(gens_of):
            join = group.closure_ids(gens_of[a] + gens_of[b])
            if join not in gens_of:
                gens_of[join] = tuple(dict.fromkeys(gens_of[a] + gens_of[b]))
                queue.append(join)
    return sorted(gens_of)


def test_oracle_matches_pairwise_reference_on_corpus():
    for label, group in build_corpus():
        assert subgroup_lattice_oracle(group) == _pairwise_oracle(group), label


def test_core_bounds_on_corpus_sample():
    for label, group in build_corpus()[:12]:
        for k in (2, 3, 4):
            for h in index_k_subgroups(group, k):
                assert k <= h.core_index <= factorial(k), label
                assert is_normal(group, h.core_ids)


def test_subgroup_handle_validates_lagrange():
    with pytest.raises(ValueError):
        SubgroupHandle(SL2F2, range(4))


def test_oracle_lattice_sizes_from_the_literature():
    # in each of these groups some joins pass n/p elements and stop at G
    ga16 = rational_points(GaSpec(2), 4, make_field(2, 4))
    for group, size in ((SL2F3, 15), (SL2F4, 59), (SL2F5, 76), (ga16, 67)):
        assert len(subgroup_lattice_oracle(group)) == size, group


def test_oracle_multiplies_at_most_log2_n_columns(monkeypatch):
    groups = [group for _, group in build_corpus()] + [SL2F5]

    def no_closure(self, seed_ids, bound=None):
        raise AssertionError("the oracle called closure_ids")

    monkeypatch.setattr(FiniteGroup, "closure_ids", no_closure)
    for group in groups:
        products = 0

        def counting(i, j, _mult=group.mult):
            nonlocal products
            products += 1
            return _mult(i, j)

        monkeypatch.setattr(group, "mult", counting)
        subgroup_lattice_oracle(group)
        n = len(group)
        assert products <= n * (n.bit_length() - 1), group


def test_oracle_on_s3():
    lattice = subgroup_lattice_oracle(SL2F2)
    by_order = sorted(len(s) for s in lattice)
    assert by_order == [1, 2, 2, 2, 3, 6]


def test_index_two_count_equals_two_rank_formula():
    for label, group in build_corpus():
        invariants = abelianization_invariants(group)
        rank2 = sum(1 for d in invariants if d % 2 == 0)
        count = len(index_k_subgroups(group, 2))
        assert count == 2**rank2 - 1, label


def test_perfect_groups_have_no_index_two():
    assert derived_subgroup(SL2F4) == tuple(range(60))
    assert index_k_subgroups(SL2F4, 2) == []


def test_abelianization_examples():
    assert abelianization_invariants(SL2F3) == [3]
    gm7 = rational_points(GmSpec(7), 1, F7)
    assert abelianization_invariants(gm7) == [6]
    assert derived_subgroup(gm7) == (gm7.identity_id,)


def test_center_of_sl2():
    assert len(center(SL2F3)) == 2
    assert len(center(SL2F2)) == 1
    assert len(center(SL2F4)) == 1


def test_normal_core_of_nonnormal_subgroup():
    # an order-2 subgroup of S3 has trivial core and index 2 over it... no:
    # its three conjugates intersect trivially, so the core is trivial
    sub = next(h for h in index_k_subgroups(SL2F2, 3) if not h.normal)
    core = normal_core(SL2F2, sub.ids)
    assert core.ids == (SL2F2.identity_id,)


def test_small_generating_set_paths():
    gm = rational_points(GmSpec(5), 1, make_field(5, 1))
    gens = small_generating_set(gm)
    assert len(gens) == 1 and gm.closure_ids(gens) == tuple(range(len(gm)))
    assert small_generating_set(rational_points(GmSpec(2), 1, F2)) == []
    # a group with no hint: strip it first
    nt = rational_points(NormTorusSpec(7), 1, F7)
    nt.gens_hint = None
    gens = small_generating_set(nt, seed=0)
    assert nt.closure_ids(gens) == tuple(range(len(nt)))
    assert len(gens) <= 4


@pytest.mark.parametrize("name", ["Ga(F_16)", "C2xC2xC2"])
def test_generating_set_is_searched_once_per_group(monkeypatch, name):
    # neither group has a generating pair or triple among its declared
    # generators, so each search tries every pair and triple by closure
    if name == "Ga(F_16)":
        group = rational_points(GaSpec(2), 4, make_field(2, 4))
    else:
        c2 = rational_points(GmSpec(3), 1, F3)
        group = direct_product(direct_product(c2, c2), c2)
    closures = []
    real = FiniteGroup.closure_ids
    monkeypatch.setattr(FiniteGroup, "closure_ids",
                        lambda self, ids: closures.append(ids) or real(self, ids))
    counts = []
    for k in range(2, 7):
        index_k_subgroups(group, k)
        counts.append(len(closures))
    assert counts[0] > 0 and set(counts) == {counts[0]}


@pytest.fixture(scope="module")
def sl2f17():
    # 4,896 elements: above the product-cache threshold
    return rational_points(SLSpec(2, 17), 1, make_field(17, 1))


def _check_program(group, gens):
    """Every edge of the program of gens is the product group.mult reads,
    and the flagged edges are exactly the first visits, in discovery order."""
    bfs_ids, targets, first = census._bfs_program(group, gens)
    r = len(gens)
    assert bfs_ids[0] == group.identity_id
    assert sorted(bfs_ids) == list(range(len(group)))
    assert len(targets) == len(first) == len(group) * r
    visited = 1
    for i, t in enumerate(targets):
        assert bfs_ids[t] == group.mult(bfs_ids[i // r], gens[i % r])
        assert first[i] == (t == visited)
        assert t <= visited
        visited += first[i]


def test_programs_match_the_group_product(sl2f17):
    for label, group in build_corpus() + [("SL2(F_17)", sl2f17)]:
        gens = small_generating_set(group)
        if gens:
            _check_program(group, gens)


def test_closure_groups_keep_the_walk_that_built_them(sl2f17):
    # the stored program is the one the census would walk over the hint
    fresh = [rational_points(SLSpec(2, 3), 1, F3),
             rational_points(SLSpec(2, 2), 2, F4),
             dict(build_corpus())["N(T)_GL2(F_13)"]]
    for group in fresh + [sl2f17]:
        [(key, stored)] = group.bfs_programs.items()
        assert key == group.gens_hint == tuple(sorted(key))
        assert cayley_walk(group.identity_id, key, group.mult, len(group)) \
            == stored


def test_census_of_a_closure_group_multiplies_nothing(monkeypatch):
    group = rational_points(SLSpec(2, 7), 1, F7)
    calls = []
    real = FiniteGroup.mult
    monkeypatch.setattr(FiniteGroup, "mult",
                        lambda self, i, j: calls.append((i, j)) or real(self, i, j))
    # SL2(F_7) has no proper subgroup of index below 7
    assert [len(index_k_subgroups(group, k)) for k in (2, 3, 4)] == [0, 0, 0]
    assert calls == []


def test_program_costs_at_most_40_bytes_per_edge(sl2f17):
    # tuples of (is_check, gpos, spos, tpos) cost 99 bytes per edge here
    gens = small_generating_set(sl2f17)
    sl2f17.bfs_programs.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        program = census._bfs_program(sl2f17, gens)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert program is sl2f17.bfs_programs[tuple(gens)]
    assert size <= 40 * len(sl2f17) * len(gens), size


def test_point_groups_cost_at_most_240_bytes_per_element():
    # nested row tuples cost 294 bytes per element here
    field = make_field(13, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = rational_points(SLSpec(2, 13), 1, field)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(group) == 2184
    assert size <= 240 * len(group), size / len(group)


def test_census_walk_leaves_the_product_cache_empty():
    # the walk's targets hold its products; it used to cache 4,608 of them
    group = rational_points(NormTorusSpec(7), 2, make_field(7, 2))
    assert len(index_k_subgroups(group, 3)) == 4
    assert group.bfs_programs and not group._mult_cache


def test_quotient_group_structure():
    sl = SL2F3
    z = center(sl)
    quotient, proj = quotient_group(sl, z)
    assert len(quotient) == 12
    assert sorted(proj) == sorted(list(range(12)) * 2)
    with pytest.raises(ValueError):
        quotient_group(sl, index_k_subgroups(sl, 4)[0].ids)  # C6 is not normal


def test_invariant_factors_examples():
    gm = rational_points(GmSpec(7), 1, F7)  # C6
    assert invariant_factors_abelian(gm) == [6]
    ga = rational_points(GaSpec(2), 3, F8)
    assert invariant_factors_abelian(ga) == [2, 2, 2]


def test_conjugacy_classes_of_subgroups():
    # S3: the three order-2 subgroups are one class, A3 is its own
    idx3 = index_k_subgroups(SL2F2, 3)
    classes = conjugacy_classes_of_subgroups(SL2F2, idx3)
    assert sorted(len(c) for c in classes) == [3]
    idx2 = index_k_subgroups(SL2F2, 2)
    assert [len(c) for c in conjugacy_classes_of_subgroups(SL2F2, idx2)] == [1]
    # abelian parent: every subgroup is alone in its class
    nt = rational_points(NormTorusSpec(7), 1, F7)
    subs = index_k_subgroups(nt, 2)
    assert [len(c) for c in conjugacy_classes_of_subgroups(nt, subs)] == [1, 1, 1]


def test_core_index_bound_fires(monkeypatch):
    monkeypatch.setattr(census, "factorial", lambda k: k - 1)
    with pytest.raises(VerificationError,
                       match=re.escape("core index 2 outside [k, k!] for k=2")):
        index_k_subgroups(SL2F2, 2)


def test_conjugacy_class_closure_fires():
    one_of_three = index_k_subgroups(SL2F2, 3)[:1]
    with pytest.raises(VerificationError,
                       match="conjugate of a census subgroup is missing"):
        conjugacy_classes_of_subgroups(SL2F2, one_of_three)


def test_is_subgroup_and_subgroup_as_group():
    ids = index_k_subgroups(SL2F3, 3)[0].ids
    assert is_subgroup(SL2F3, ids)
    assert not is_subgroup(SL2F3, ids[1:])
    q8 = from_generators([SL2F3.elements[i] for i in ids], Matrix.__mul__,
                         SL2F3.identity, inv=Matrix.inv)
    assert len(q8) == 8
    assert invariant_factors_abelian(quotient_group(q8, center(q8))[0]) == [2, 2]
