"""Index-k censuses against the lattice oracle and known group theory."""

import itertools
import math
import random
import re
import tracemalloc
from functools import partial

import pytest

from corpus import build_corpus, invariants, is_normal, is_subgroup
from isocensus import census, homs, matgroup
from isocensus.census import (CensusBoundExceeded, SubgroupHandle, center,
                              conjugacy_classes_of_subgroups, index_k_subgroups,
                              invariant_factors_abelian, quotient_group,
                              small_generating_set, subgroup_lattice_oracle)
from isocensus.ffield import VerificationError, factorize, make_field
from isocensus.matgroup import (FiniteGroup, GaSpec, GLSpec, GmSpec, Matrix,
                                NormTorusSpec, SLSpec, cayley_walk, direct_product,
                                from_generators, mat_det, mat_inv, rational_points)

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


def _closure(group, ids):
    """Sorted ids of the subgroup the ids generate, by `cayley_walk` over
    `group.mult`."""
    seeds = tuple(dict.fromkeys(ids))
    return tuple(sorted(cayley_walk(group.identity_id, seeds, group.mult,
                                    len(group))[0]))


def _normal_core(group, ids):
    """Sorted ids of the intersection of all conjugates of the subgroup ids:
    the kernel of the action on its left cosets."""
    n = len(group)
    coset_of = [-1] * n
    reps = []
    for i in range(n):
        if coset_of[i] < 0:
            reps.append(i)
            for h in ids:
                coset_of[group.mult(i, h)] = len(reps) - 1
    return tuple(g for g in range(n)
                 if all(coset_of[group.mult(g, r)] == x for x, r in enumerate(reps)))


def _derived_subgroup(group):
    """Sorted ids of [G, G], generated by the commutators [x, s] for every
    element x and generator s.  Their closure N is normal, since
    y^-1 [x, s] y = [xy, s] [y, s]^-1, and every generator is central
    modulo N, so G/N is abelian and N contains [G, G]."""
    comms = [group.mult(group.mult(group.inv(x), group.inv(s)), group.mult(x, s))
             for x in range(len(group)) for s in small_generating_set(group)]
    return _closure(group, [c for c in comms if c != group.identity_id])


def _abelianization(group):
    """Invariant factors of G/[G, G]."""
    derived = _derived_subgroup(group)
    reps, _ = quotient_group(group, derived)
    return invariant_factors_abelian(group, reps, derived)


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


def test_census_bound_is_loud(monkeypatch):
    group = rational_points(NormTorusSpec(7), 1, F7)
    monkeypatch.setattr(census, "DEFAULT_CANDIDATE_BOUND", 10)
    with pytest.raises(CensusBoundExceeded, match="passed 10 branch points"):
        index_k_subgroups(group, 6)


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
                assert h.core_ids == _normal_core(group, h.ids), (label, k)
                assert h.normal == is_normal(group, h.ids), (label, k)


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
            if any(mat_det(field, m.flat)):
                gens.append(m)
        group = from_generators(gens, Matrix.__mul__, Matrix.identity(field, 2),
                                inv=Matrix.inv)
        if len(group) <= 200:
            return group


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
        sub = _closure(group, [i])
        if sub not in gens_of:
            gens_of[sub] = (i,)
            queue.append(sub)
    qi = 0
    while qi < len(queue):
        a = queue[qi]
        qi += 1
        for b in list(gens_of):
            join = _closure(group, gens_of[a] + gens_of[b])
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
        SubgroupHandle(SL2F2, range(4), (SL2F2.identity_id,))


def test_oracle_lattice_sizes_from_the_literature():
    # in each of these groups some joins pass n/p elements and stop at G
    ga16 = rational_points(GaSpec(2), 4, make_field(2, 4))
    for group, size in ((SL2F3, 15), (SL2F4, 59), (SL2F5, 76), (ga16, 67)):
        assert len(subgroup_lattice_oracle(group)) == size, group


def test_oracle_multiplies_at_most_log2_n_columns(monkeypatch):
    groups = [group for _, group in build_corpus()] + [SL2F5]

    def no_walk(group, gen_ids):
        raise AssertionError("the oracle walked a generating set")

    monkeypatch.setattr(census, "_walk", no_walk)
    for group in groups:
        products = 0

        def counting(x, y, _op=group.op):
            nonlocal products
            products += 1
            return _op(x, y)

        monkeypatch.setattr(group, "op", counting)
        cached = len(group._mult_cache)
        subgroup_lattice_oracle(group)
        n = len(group)
        assert products <= n * (n.bit_length() - 1), group
        # its columns are its own: none of its products is cached
        assert len(group._mult_cache) == cached, group


def test_oracle_on_s3():
    lattice = subgroup_lattice_oracle(SL2F2)
    by_order = sorted(len(s) for s in lattice)
    assert by_order == [1, 2, 2, 2, 3, 6]


def test_index_two_count_equals_two_rank_formula():
    for label, group in build_corpus():
        invariants = _abelianization(group)
        rank2 = sum(1 for d in invariants if d % 2 == 0)
        count = len(index_k_subgroups(group, 2))
        assert count == 2**rank2 - 1, label


def test_perfect_groups_have_no_index_two():
    assert _derived_subgroup(SL2F4) == tuple(range(60))
    assert index_k_subgroups(SL2F4, 2) == []


def test_abelianization_examples():
    assert _abelianization(SL2F3) == [3]
    gm7 = rational_points(GmSpec(7), 1, F7)
    assert _abelianization(gm7) == [6]
    assert _derived_subgroup(gm7) == (gm7.identity_id,)


def test_center_of_sl2():
    assert len(center(SL2F3)) == 2
    assert len(center(SL2F2)) == 1
    assert len(center(SL2F4)) == 1


def test_normal_core_of_nonnormal_subgroup():
    # an order-2 subgroup of S3 has trivial core and index 2 over it... no:
    # its three conjugates intersect trivially, so the core is trivial
    sub = next(h for h in index_k_subgroups(SL2F2, 3) if not h.normal)
    assert sub.core_ids == _normal_core(SL2F2, sub.ids) == (SL2F2.identity_id,)


def test_small_generating_set_paths():
    gm = rational_points(GmSpec(5), 1, make_field(5, 1))
    gens = small_generating_set(gm)
    assert len(gens) == 1 and _closure(gm, gens) == tuple(range(len(gm)))
    assert small_generating_set(rational_points(GmSpec(2), 1, F2)) == []
    # a group with no hint: strip it first
    nt = rational_points(NormTorusSpec(7), 1, F7)
    nt.gens_hint = None
    gens = small_generating_set(nt, seed=0)
    assert _closure(nt, gens) == tuple(range(len(nt)))
    assert len(gens) <= 4


@pytest.mark.parametrize("name", ["Ga(F_16)", "C2xC2xC2"])
def test_generating_set_is_searched_once_per_group(monkeypatch, name):
    # neither group has a generating pair or triple among its declared
    # generators, so each search walks every pair and triple
    if name == "Ga(F_16)":
        group = rational_points(GaSpec(2), 4, make_field(2, 4))
    else:
        c2 = rational_points(GmSpec(3), 1, F3)
        group = direct_product(direct_product(c2, c2), c2)
    walks = []
    real = census.cayley_walk
    monkeypatch.setattr(census, "cayley_walk",
                        lambda *args: walks.append(args[1]) or real(*args))
    counts = []
    for k in range(2, 7):
        index_k_subgroups(group, k)
        counts.append(len(walks))
    assert counts[0] > 1 and set(counts) == {counts[0]}


def _searched_groups():
    """SL2(F_4), whose four declared generators are pruned to a triple, Ga(F_16)
    and C2xC2xC2, where no pair or triple generates, and NormTorus(F_7)
    without its declaration, which the seeded search covers."""
    c2 = rational_points(GmSpec(3), 1, F3)
    nt = rational_points(NormTorusSpec(7), 1, F7)
    nt.gens_hint = None
    return [rational_points(SLSpec(2, 2), 2, F4),
            rational_points(GaSpec(2), 4, make_field(2, 4)),
            direct_product(direct_product(c2, c2), c2), nt]


def test_census_walks_no_generating_set_the_search_returned(monkeypatch):
    groups = _searched_groups()
    sl2f4, nt = groups[0], groups[-1]
    assert len(small_generating_set(sl2f4)) == 3 < len(sl2f4.gens_hint)
    assert len(small_generating_set(nt)) < len(nt)

    def no_walk(*args):
        raise AssertionError("a generating set was walked again")

    monkeypatch.setattr(matgroup, "cayley_walk", no_walk)
    monkeypatch.setattr(census, "cayley_walk", no_walk)
    assert len(index_k_subgroups(sl2f4, 5)) == 5
    assert len(index_k_subgroups(nt, 2)) == 3


def test_generating_set_search_adds_nothing_to_the_product_cache():
    for group in _searched_groups():
        for i in range(len(group)):
            group.element_order(i)
        cached = len(group._mult_cache)
        small_generating_set(group)
        assert len(group._mult_cache) == cached, group


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
    quotient, coset_of = quotient_group(sl, z)
    assert len(quotient) == 12
    assert sorted(map(coset_of, sl.elements)) == sorted(list(range(12)) * 2)
    # normality is the callers' precondition: a C6 of SL2(F_3) is not normal
    c6 = index_k_subgroups(sl, 4)[0].ids
    assert is_subgroup(sl, c6) and not is_normal(sl, c6)


def _labelled_reps(group, normal_ids):
    """rep_of[x], the least element of the coset x N, by the labelling pass
    quotient_group made before it tested membership: rep_of[i*h] = i for
    each h in N and each i not yet labelled."""
    rep_of = [-1] * len(group)
    for i in range(len(group)):
        if rep_of[i] < 0:
            for h in normal_ids:
                rep_of[group.mult(i, h)] = i
    return rep_of


def _power_image(group, k):
    return tuple(sorted({group.pow_id(i, k) for i in range(len(group))}))


def _normal_subgroups(group):
    """The center, the derived subgroup and, in an abelian group, the
    images of x -> x^k for k = 2, 3, 4."""
    z = center(group)
    found = [z, _derived_subgroup(group)]
    if len(z) == len(group):
        found += [_power_image(group, k) for k in (2, 3, 4)]
    return found


def _assert_labelled_quotient(group, normal_ids):
    rep_of = _labelled_reps(group, normal_ids)
    reps, coset_of = quotient_group(group, normal_ids)
    assert reps == sorted(set(rep_of))
    assert [reps[coset_of(x)] for x in group.elements] == rep_of


def test_quotient_reps_match_the_labelling_pass_on_corpus():
    for label, group in build_corpus():
        for normal_ids in _normal_subgroups(group):
            assert is_normal(group, normal_ids), label
            _assert_labelled_quotient(group, normal_ids)


def test_quotient_reps_match_the_labelling_pass_above_the_cache_limit():
    gl = rational_points(GLSpec(2, 3, 2), 1, make_field(3, 2))
    gm = rational_points(GmSpec(3), 8, make_field(3, 8))
    nt = rational_points(NormTorusSpec(67), 1, make_field(67, 1))
    cases = [(gl, _derived_subgroup(gl))]
    cases += [(g, _power_image(g, k)) for g, k in ((gm, 2), (gm, 4), (nt, 2), (nt, 3))]
    for group, normal_ids in cases:
        assert len(group) > matgroup.TABLE_THRESHOLD
        assert 1 < len(group) // len(normal_ids) <= 9, group
        _assert_labelled_quotient(group, normal_ids)


def _partitions(v, largest):
    """The partitions of v into parts of at most `largest`, non-increasing."""
    if v == 0:
        yield []
    for part in range(min(v, largest), 0, -1):
        for rest in _partitions(v - part, part):
            yield [part] + rest


def _abelian_types(d):
    """The invariant factors of every abelian group of order d."""
    per_prime = [[[p**e for e in part] for part in _partitions(v, v)]
                 for p, v in factorize(d).items()]
    for combo in itertools.product(*per_prime):
        width = max(map(len, combo), default=0)
        columns = [c + [1] * (width - len(c)) for c in combo]
        yield sorted(math.prod(col) for col in zip(*columns))


def _reference_invariants(group, normal_ids):
    """Invariant factors of G/N from a quotient table on the labelling pass:
    the one abelian type [d_1, ..., d_r] of order [G : N] whose count
    prod gcd(m, d_i) of solutions of x^m = 1 is the table's for every m
    dividing [G : N]."""
    rep_of = _labelled_reps(group, normal_ids)
    reps = sorted(set(rep_of))
    label = {r: j for j, r in enumerate(reps)}
    table = [[label[rep_of[group.mult(a, b)]] for b in reps] for a in reps]
    one, d = label[rep_of[group.identity_id]], len(reps)
    orders = []
    for a in range(d):
        x, o = a, 1
        while x != one:
            x, o = table[x][a], o + 1
        orders.append(o)
    counts = {m: sum(1 for o in orders if m % o == 0)
              for m in range(1, d + 1) if d % m == 0}
    [found] = [t for t in _abelian_types(d)
               if all(math.prod(math.gcd(m, f) for f in t) == c
                      for m, c in counts.items())]
    return found


def _e2_images():
    """(label, codomain, image ids) of power maps planned as E2 plans them:
    over F_7 (no section table), over tabled fields, and over F_{7^6}, the
    section field of Gm(F_{7^3})."""
    cases = [(NormTorusSpec(7), 3, 1, False), (GmSpec(7), 2, 1, False),
             (NormTorusSpec(2), 3, 2, True), (NormTorusSpec(2), 3, 4, True),
             (NormTorusSpec(3), 2, 2, True), (NormTorusSpec(5), 2, 1, True),
             (GmSpec(2), 5, 4, True), (GmSpec(7), 2, 3, True), (GmSpec(7), 3, 3, True)]
    for spec, k, n, sections in cases:
        iso = homs.PowerIsogeny(spec, k)
        field = make_field(spec.p, homs.plan_degree(iso, n=n, sections=sections))
        img = homs.image(iso, n, field)
        yield f"{iso.name} on {img.codomain!r} over {field!r}", img.codomain, img.ids


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coset_order_invariants_match_a_reference_quotient_table(seed):
    rng = random.Random(seed)
    cases = list(_e2_images())
    fields = {group.meta["field"] for _, group, _ in cases}
    assert {(f.p, f.degree) for f in fields} >= {(7, 1), (2, 6), (7, 6)}
    assert make_field(2, 6)._log is not None  # tabled
    for label, group in build_corpus():
        if len(center(group)) == len(group):
            cases += [(label, group, _closure(group, rng.sample(range(len(group)), r)))
                      for r in (1, 2)]
    for label, group, normal_ids in cases:
        reps, _ = quotient_group(group, normal_ids)
        assert len(reps) == len(group) // len(normal_ids), label
        assert invariant_factors_abelian(group, reps, normal_ids) == \
            _reference_invariants(group, normal_ids), label


def test_quotient_group_leaves_the_product_cache_as_it_found_it():
    for label, group in build_corpus()[-8:]:
        normal_ids = center(group)
        group.mult(0, 0)
        before = dict(group._mult_cache)
        reps, coset_of = quotient_group(group, normal_ids)
        list(map(coset_of, group.elements))
        assert group._mult_cache == before, label


def test_quotient_group_rejects_ids_that_are_no_subgroup():
    q8 = index_k_subgroups(SL2F3, 3)[0].ids
    for size in (0, 5, 7):
        with pytest.raises(ValueError):
            quotient_group(SL2F3, range(size))
    for bad in (range(1, 9), q8[1:] + (22,)):
        assert not is_subgroup(SL2F3, bad)
        with pytest.raises(VerificationError, match="lies in no coset"):
            quotient, coset_of = quotient_group(SL2F3, bad)
            list(map(coset_of, SL2F3.elements))


def test_invariant_factors_examples():
    gm = rational_points(GmSpec(7), 1, F7)  # C6
    assert invariants(gm) == [6]
    ga = rational_points(GaSpec(2), 3, F8)
    assert invariants(ga) == [2, 2, 2]
    c2xc4 = direct_product(rational_points(GmSpec(3), 1, F3),
                           rational_points(GmSpec(5), 1, make_field(5, 1)))
    assert invariants(c2xc4) == [2, 4]
    # C2 x C4 over its C4 factor (ids 0-3) is C2, over the squares C2 x C2
    for normal_ids, want in (((0, 1, 2, 3), [2]), (_power_image(c2xc4, 2), [2, 2])):
        reps, _ = quotient_group(c2xc4, normal_ids)
        assert invariant_factors_abelian(c2xc4, reps, normal_ids) == want


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
    field = SL2F3.meta["field"]
    q8 = from_generators([SL2F3.elements[i] for i in ids], field.mat_mul,
                         SL2F3.identity, inv=partial(mat_inv, field))
    assert len(q8) == 8
    z = center(q8)
    assert invariant_factors_abelian(q8, quotient_group(q8, z)[0], z) == [2, 2]
