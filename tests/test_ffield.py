"""Field arithmetic: deterministic moduli, Frobenius, subfields, roots."""

import itertools
import random
import re
from math import isqrt

import pytest

from isocensus import ffield
from isocensus.ffield import (VerificationError, factorize, is_prime, kth_root,
                              make_field, prime_power, subfield_generator)


def sieve_smallest_irreducible(p, degree):
    """Independent oracle: lexicographic sieve with trial-division tests."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return out

    def divides(d, f):
        f = list(f)
        while True:
            while f and f[-1] == 0:
                f.pop()
            if len(f) < len(d):
                break
            c = f[-1]
            shift = len(f) - len(d)
            for i, di in enumerate(d):
                f[shift + i] = (f[shift + i] - c * di) % p
        return not any(f)

    divisors = [list(c) + [1] for deg in range(1, degree // 2 + 1)
                for c in itertools.product(range(p), repeat=deg)]
    for coeffs in itertools.product(range(p), repeat=degree):
        cand = list(coeffs) + [1]
        if not any(divides(d, cand) for d in divisors):
            return tuple(cand)
    raise AssertionError


def test_prime_field_modulus_is_x():
    assert make_field(2, 1).modulus == (0, 1)


def test_unique_quadratic_modulus_over_f2():
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_smallest_quartic_modulus_over_f3():
    field = make_field(3, 4)
    # frozen from the trial-division sieve oracle below
    assert field.modulus == (1, 0, 1, 1, 1)
    assert field.modulus == sieve_smallest_irreducible(3, 4)


@pytest.mark.parametrize("p,degree", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_modulus_matches_sieve_oracle(p, degree):
    assert make_field(p, degree).modulus == sieve_smallest_irreducible(p, degree)


def test_construction_is_reproducible():
    a, b = make_field(3, 4), make_field(3, 4)
    assert a.modulus == b.modulus
    assert a.one == b.one


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(6, 2)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 65)  # past DEFAULT_SIZE_LIMIT = 2^64


@pytest.mark.parametrize("p,degree", [(2, 4), (3, 2), (5, 2), (2, 6)])
def test_field_axioms_on_full_grid(p, degree):
    field = make_field(p, degree)
    elements = list(field.iter_elements())
    assert len(elements) == p**degree
    one, zero = field.one, field.zero
    for a in elements:
        assert field.add(a, zero) == a
        assert field.mul(a, one) == a
        assert field.add(a, field.neg(a)) == zero
        if any(a):
            assert field.mul(a, field.inv(a)) == one
            # x^(p^D) = x for every element
            assert field.frobenius(a, degree) == a


def test_inverse_of_zero_raises():
    field = make_field(5, 2)
    with pytest.raises(ZeroDivisionError):
        field.inv(field.zero)


@pytest.mark.parametrize("p,degree,e", [(2, 4, 1), (2, 4, 2), (3, 2, 1), (5, 2, 1)])
def test_frobenius_is_an_automorphism(p, degree, e):
    field = make_field(p, degree)
    elements = list(field.iter_elements())
    for a in elements:
        for b in elements:
            assert field.frobenius(field.mul(a, b), e) == \
                field.mul(field.frobenius(a, e), field.frobenius(b, e))
            assert field.frobenius(field.add(a, b), e) == \
                field.add(field.frobenius(a, e), field.frobenius(b, e))


def test_frobenius_fixes_prime_field():
    field = make_field(7, 2)
    for c in range(7):
        x = field.from_int(c)
        assert field.frobenius(x, 1) == x


def test_frobenius_squares_f4_generator():
    field = make_field(2, 2)
    x = field.element_of((0, 1))
    assert field.frobenius(x, 1) == (1, 1)
    assert field.frobenius(x, 1) == field.mul(x, x)
    assert field.frobenius(x, 2) == x


def test_subfield_membership_counts():
    field = make_field(2, 4)
    members = [a for a in field.iter_elements() if field.in_subfield(a, 2)]
    assert len(members) == 4
    gen = subfield_generator(field, 4)
    # a generator of F_16* has order 15, which does not divide 3
    assert not field.in_subfield(gen, 2)
    assert field.in_subfield(field.one, 2)


@pytest.mark.parametrize("p,degree", [(2, 4), (2, 6), (3, 2), (3, 4), (5, 2)])
def test_subfield_sizes_for_all_divisors(p, degree):
    field = make_field(p, degree)
    for d in range(1, degree + 1):
        if degree % d:
            continue
        sub = field.enumerate_subfield(d)
        assert len(sub) == p**d
        assert sub == sorted(sub)
        assert all(field.in_subfield(a, d) for a in sub)
        count = sum(1 for a in field.iter_elements() if field.in_subfield(a, d))
        assert count == p**d


def test_subfield_rejects_non_divisor():
    field = make_field(2, 4)
    with pytest.raises(ValueError):
        field.in_subfield(field.one, 3)
    with pytest.raises(ValueError):
        field.enumerate_subfield(3)


def test_subfield_generator_has_full_order():
    field = make_field(3, 4)
    for d in (1, 2, 4):
        g = subfield_generator(field, d)
        order = 3**d - 1
        assert field.pow(g, order) == field.one
        for ell in factorize(order):
            assert field.pow(g, order // ell) != field.one


def test_field_element_operators():
    field = make_field(5, 1)
    two, three = field.element_of([2]), field.element_of([3])
    assert field.add(two, three) == (0,)
    assert field.mul(two, three) == (1,)
    assert field.sub(two, three) == (4,)
    assert field.mul(three, field.inv(two)) == (4,)
    assert field.pow(two, 3) == (3,)
    assert field.neg(two) == (3,)


def test_pow_handles_negative_exponents():
    field = make_field(7, 1)
    a = field.from_int(3)
    assert field.mul(field.pow(a, -1), a) == field.one


@pytest.mark.parametrize("p,degree,k", [(3, 2, 2), (5, 2, 2), (2, 4, 3),
                                        (5, 2, 4), (7, 2, 3)])
def test_kth_root_full_scan(p, degree, k):
    field = make_field(p, degree)
    elements = [a for a in field.iter_elements() if any(a)]
    powers = {field.pow(a, k) for a in elements}
    for x in elements:
        root = kth_root(field, x, k)
        if x in powers:
            assert root is not None and field.pow(root, k) == x
        else:
            assert root is None


def test_kth_root_of_zero_and_one():
    field = make_field(3, 2)
    assert kth_root(field, field.zero, 5) == field.zero
    assert field.pow(kth_root(field, field.one, 4), 4) == field.one


def test_is_prime_and_factorize():
    assert is_prime(2) and is_prime(97) and not is_prime(91) and not is_prime(1)
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}


@pytest.mark.parametrize("q,split", [(2, (2, 1)), (4, (2, 2)), (7, (7, 1)),
                                     (81, (3, 4)), (1024, (2, 10)),
                                     (97**3, (97, 3))])
def test_prime_power_splits_prime_powers(q, split):
    assert prime_power(q) == split


@pytest.mark.parametrize("q", [0, 1, 12, 36, -4])
def test_prime_power_rejects_other_integers(q):
    with pytest.raises(ValueError):
        prime_power(q)


# ---------------------------------------------------------------------------
# exp/log/Zech tables against the polynomial path


def polynomial_field(monkeypatch, p, degree):
    """The same field with its tables switched off: the reference path.

    Its products are Kronecker-packed, which the tests below check against
    the list helper `ffield._poly_mulmod`.  The polynomial-path tests take
    their fields under TABLE_COEFF_LIMIT from here, and their fields past it
    (F_{7^6}, F_{7^12}, F_{2^20}, F_{257^2}, ...) as `make_field` builds
    them."""
    with monkeypatch.context() as m:
        m.setattr(ffield, "TABLE_COEFF_LIMIT", 0)
        return make_field(p, degree)


def assert_unary_ops_agree(field, ref, a, exponents):
    assert field.neg(a) == ref.neg(a)
    for e in range(field.degree + 1):
        assert field.frobenius(a, e) == ref.frobenius(a, e)
    if any(a):
        assert field.inv(a) == ref.inv(a)
        assert field.mult_order(a) == ref.mult_order(a)
        for e in exponents:
            assert field.pow(a, e) == ref.pow(a, e)
    else:
        for e in exponents:
            if e >= 0:
                assert field.pow(a, e) == ref.pow(a, e)
        for fn in (field.inv, field.mult_order, lambda x: field.pow(x, -1)):
            with pytest.raises(ZeroDivisionError):
                fn(a)


@pytest.mark.parametrize("p,degree", [(2, 4), (3, 3), (5, 2)])
def test_tables_match_polynomial_path_on_every_pair(monkeypatch, p, degree):
    field, ref = make_field(p, degree), polynomial_field(monkeypatch, p, degree)
    assert field._log is not None and ref._log is None
    elements = list(field.iter_elements())
    for a, b in itertools.product(elements, repeat=2):
        assert field.mul(a, b) == ref.mul(a, b)
        assert field.add(a, b) == ref.add(a, b)
        assert field.sub(a, b) == ref.sub(a, b)
    for a in elements:
        assert_unary_ops_agree(field, ref, a, range(-3, field.order + 2))


def test_tables_match_polynomial_path_at_the_size_limit(monkeypatch):
    # F_{251^2} has the largest q * D of any field with tables
    field, ref = make_field(251, 2), polynomial_field(monkeypatch, 251, 2)
    assert field._log is not None
    assert field.order * 2 <= ffield.TABLE_COEFF_LIMIT < 257**2 * 2
    rng = random.Random(3)
    elements = [field.zero, field.one] + [
        tuple(rng.randrange(251) for _ in range(2)) for _ in range(300)]
    for _ in range(3000):
        a, b = rng.choice(elements), rng.choice(elements)
        assert field.mul(a, b) == ref.mul(a, b)
        assert field.add(a, b) == ref.add(a, b)
        assert field.sub(a, b) == ref.sub(a, b)
    q = field.order
    for a in elements[:40]:
        assert_unary_ops_agree(field, ref, a,
                               [*range(-3, 10), q - 2, q - 1, q, 10**6 + 3])


def test_tables_stop_at_the_size_limit():
    limit = ffield.TABLE_COEFF_LIMIT
    assert limit == 2**17
    # q * D from 126,002 (F_{251^2}, the largest) down to F_4, with the six
    # fields that 2^14 left untabled
    for p, degree in [(251, 2), (13, 4), (2, 13), (5, 6), (7, 5), (3, 8),
                      (2, 12), (2, 11), (97, 2), (89, 2), (2, 2)]:
        assert p**degree * degree <= limit
        assert make_field(p, degree)._log is not None
    # fields just above the limit, and prime fields of any size
    for p, degree in [(257, 2), (37, 3), (2, 14), (3, 9), (7, 6), (2, 20)]:
        assert p**degree * degree > limit
        assert make_field(p, degree)._log is None
    for p in (131101, 1021, 2):
        assert make_field(p, 1)._log is None


def test_tables_reject_tuples_outside_the_field():
    field = make_field(3, 2)
    one = field.one
    for bad in [(3, 0), (1, 0, 0), (1,), (-1, 0)]:
        for fn in (field.mul, field.add, field.sub):
            with pytest.raises(KeyError):
                fn(bad, one)
            with pytest.raises(KeyError):
                fn(one, bad)
        for m in (1, 2, 3):
            entries = ((one,) * (m - 1) + (bad,)) * m
            with pytest.raises(KeyError):
                field.mat_mul(entries, (one,) * (m * m))
        for fn in (field.inv, field.neg, field.mult_order,
                   lambda x: field.pow(x, 2), lambda x: field.frobenius(x, 1)):
            with pytest.raises(KeyError):
                fn(bad)


def test_table_build_rejects_a_non_primitive_element(monkeypatch):
    # g^e has order (q - 1) / e, and the walk reaches only that many units:
    # 5 of the 15 in F_16^*
    least = ffield._least_primitive
    for p, degree, e in [(2, 4, 3), (2, 12, 3), (97, 2, 2), (7, 5, 2)]:
        with monkeypatch.context() as m:
            m.setattr(ffield, "_least_primitive",
                      lambda field: field.pow(least(field), e))
            n = p**degree - 1
            with pytest.raises(VerificationError,
                               match=f"primitive element reach {n // e} of {n} units"):
                make_field(p, degree)


def test_check_on_irreducible_modulus_fires(monkeypatch):
    monkeypatch.setattr(ffield, "_is_irreducible", lambda f, p: False)
    with pytest.raises(VerificationError, match="no irreducible of degree 2 over F_3"):
        ffield._smallest_irreducible(3, 2)


def test_check_on_subfield_basis_dimension_fires(monkeypatch):
    field = make_field(2, 4)
    monkeypatch.setattr(ffield, "_nullspace", lambda matrix, p: [[1, 0, 0, 0]])
    with pytest.raises(VerificationError, match="must have dimension d"):
        field.subfield_basis(2)


def test_check_on_subfield_span_fires(monkeypatch):
    field = make_field(2, 4)
    monkeypatch.setattr(field, "subfield_basis", lambda d: [field.one] * d)
    with pytest.raises(VerificationError, match="spans fewer than 2\\^2 elements"):
        field.enumerate_subfield(2)
    # the whole field is listed directly, without a basis
    assert field.enumerate_subfield(4) == list(field.iter_elements())


def test_check_on_cyclic_unit_group_fires(monkeypatch):
    field = make_field(3, 2)
    monkeypatch.setattr(field, "pow", lambda a, e: field.one)
    for d in (1, 2):
        with pytest.raises(VerificationError, match="is cyclic"):
            subfield_generator(field, d)


def test_check_on_extracted_root_fires(monkeypatch):
    field = make_field(7, 12)
    x = field.neg(field.one)
    monkeypatch.setattr(ffield, "_prime_root", lambda field, x, ell: field.one)
    with pytest.raises(VerificationError, match="not a 4-th root"):
        kth_root(field, x, 4)


# F_{2^8}, F_{2^9}, F_{3^4} and F_{5^4} walk a primitive element of degree 2
@pytest.mark.parametrize("p,degree", [(5, 5), (7, 4), (3, 7), (13, 3), (89, 2),
                                      (2, 10), (2, 8), (2, 9), (3, 4), (5, 4)])
def test_tables_match_polynomial_path_on_seeded_elements(monkeypatch, p, degree):
    field, ref = make_field(p, degree), polynomial_field(monkeypatch, p, degree)
    assert field._log is not None and ref._log is None
    rng = random.Random(p * 100 + degree)
    elements = [field.zero, field.one, field.neg(field.one)] + [
        tuple(rng.randrange(p) for _ in range(degree)) for _ in range(60)]
    for _ in range(600):
        a, b = rng.choice(elements), rng.choice(elements)
        assert field.mul(a, b) == ref.mul(a, b)
        assert field.add(a, b) == ref.add(a, b)
        assert field.sub(a, b) == ref.sub(a, b)
    q = field.order
    for a in elements[:15]:
        assert_unary_ops_agree(field, ref, a,
                               [*range(-3, 4), q - 2, q - 1, q, -q - 5,
                                rng.randrange(10**12)])
    for k in (2, 3, 4):
        for x in elements[:12]:
            for f in (field, ref):
                root = kth_root(f, x, k)
                if root is not None:
                    assert f.pow(root, k) == x
            assert (kth_root(field, x, k) is None) == (kth_root(ref, x, k) is None)


def list_product(field, a, b):
    """a * b through the list helpers, independent of the packed path."""
    c = ffield._poly_mulmod(list(a), list(b), list(field.modulus), field.p)
    return tuple(c) + (0,) * (field.degree - len(c))


@pytest.mark.parametrize("p,degree", [(2, 11), (2, 12), (2, 20), (7, 5), (7, 12),
                                      (5, 6), (97, 2), (4093, 3), (65521, 2),
                                      (7, 6), (257, 2)])
def test_packed_mul_matches_list_reference(monkeypatch, p, degree):
    field = polynomial_field(monkeypatch, p, degree)
    assert field._log is None
    rng = random.Random(p * 100 + degree)
    # all-(p - 1) fills every product slot to the bound
    special = [field.zero, field.one, field.neg(field.one), (p - 1,) * degree]
    elements = special + [tuple(rng.randrange(p) for _ in range(degree))
                          for _ in range(40)]
    pairs = [*itertools.product(special, elements),
             *((rng.choice(elements), rng.choice(elements)) for _ in range(200))]
    for a, b in pairs:
        assert field.mul(a, b) == list_product(field, a, b), (a, b)
    for a in elements[:8]:
        for e in (2, 3, 10, p**degree - 2):
            ref = ffield._poly_powmod(list(a), e, list(field.modulus), p)
            assert field.pow(a, e) == tuple(ref) + (0,) * (degree - len(ref))


@pytest.mark.parametrize("p,degree", [(97, 2), (2, 11), (7, 12), (7, 6)])
def test_polynomial_path_rejects_tuples_outside_the_field(monkeypatch, p, degree):
    field = polynomial_field(monkeypatch, p, degree)
    assert field._log is None
    one = field.one
    for bad in [(p,) + one[1:], one + (0,), one[:-1], (-1,) + one[1:],
                one[:-1] + (p + 5,)]:
        for fn in (lambda x: field.mul(x, one), lambda x: field.mul(one, x),
                   lambda x: field.pow(x, 2), lambda x: field.pow(x, 3)):
            with pytest.raises(ValueError, match=re.escape(f"of {field!r}")):
                fn(bad)
        for m in (1, 2, 3, 4):
            good = (one,) * (m * m)
            entries = ((one,) * (m - 1) + (bad,)) * m
            for a, b in [(entries, good), (good, entries)]:
                with pytest.raises(ValueError, match=re.escape(f"of {field!r}")):
                    field.mat_mul(a, b)



@pytest.mark.parametrize("p,degree", [(97, 2), (2, 11), (7, 12), (97, 1), (7, 6)])
def test_polynomial_entry_check_rejects_tuples_outside_the_field(monkeypatch,
                                                                 p, degree):
    field = polynomial_field(monkeypatch, p, degree)
    assert field._log is None
    one = field.one

    def no_euclid(a):
        raise AssertionError("inv reached its Euclid loop")

    # the check must raise before inv's Euclid loop, which would never end
    monkeypatch.setattr(ffield, "_trim", no_euclid)
    for bad in [(p,) + one[1:], one + (0,), one[:-1], (-1,) + one[1:],
                one[:-1] + (p + 5,)]:
        for fn in (lambda x: field.add(x, one), lambda x: field.add(one, x),
                   lambda x: field.sub(x, one), lambda x: field.sub(one, x),
                   field.neg, field.inv, lambda x: field.pow(x, -1),
                   lambda x: field.frobenius(x, 1),
                   lambda x: field.frobenius(x, 0)):
            with pytest.raises(ValueError, match=re.escape(f"of {field!r}")):
                fn(bad)


def test_polynomial_entry_check_on_the_reported_inputs(monkeypatch):
    field = polynomial_field(monkeypatch, 97, 2)
    assert field.add((1, 2), (3, 95)) == (4, 0)
    assert field.frobenius((96, 0), 1) == (96, 0)
    monkeypatch.setattr(ffield, "_trim", lambda a: pytest.fail("Euclid loop"))
    message = re.escape(f"is not an element of {field!r}")
    for call in (lambda: field.inv((97, 0)), lambda: field.pow((97, 0), -3),
                 lambda: field.add((1, 2), (3,)),
                 lambda: field.add((1, 2, 5), (3, 4, 6)),
                 lambda: field.frobenius((100, 0), 1)):
        with pytest.raises(ValueError, match=message):
            call()

@pytest.mark.parametrize("p,degree", [(7, 5), (2, 11), (3, 8), (7, 6), (2, 20)])
def test_polynomial_pow_squares_from_the_leading_bit(monkeypatch, p, degree):
    field = polynomial_field(monkeypatch, p, degree)
    assert field._log is None
    a = field.element_of((1, 2, 1))
    mul = field.mul
    calls = []

    def counted(x, y):
        calls.append(1)
        return mul(x, y)

    field.mul = counted
    for e in [1, 2, 3, 5, 8, 13, 255, 256, 1000, 10**9 + 7]:
        calls.clear()
        got = field.pow(a, e)
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1, e
        assert got == ref_pow(mul, field.one, a, e)
    calls.clear()
    assert field.pow(a, 0) == field.one and not calls


def ref_pow(mul, one, a, e):
    """Right-to-left square-and-multiply, independent of the field's pow."""
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# matrix products against the schoolbook mul/add reference


def schoolbook(field, a, b):
    m = len(a)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = field.zero
            for l in range(m):
                acc = field.add(acc, field.mul(a[i][l], b[l][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def flat(rows):
    """The row-major entry tuple that `mat_mul` takes and returns."""
    return tuple(x for row in rows for x in row)


def random_matrix(field, rng, m):
    """Entries uniform over the field, with one in three forced to zero."""
    p, d = field.p, field.degree
    return tuple(tuple(field.zero if rng.random() < 1 / 3
                       else tuple(rng.randrange(p) for _ in range(d))
                       for _ in range(m)) for _ in range(m))


def cancelling_pair(field, rng, m):
    """(a, b) whose (0, 0) entry sums x*u and -x*u, then for m > 2 zero
    terms 1*0 and a last term 1*u."""
    a = [list(r) for r in random_matrix(field, rng, m)]
    b = [list(r) for r in random_matrix(field, rng, m)]
    x, u = field.element_of((2, 1)), field.element_of((3,))
    a[0][:2] = [x, field.one]
    b[0][0], b[1][0] = u, field.neg(field.mul(x, u))
    for l in range(2, m):
        a[0][l], b[l][0] = field.one, (field.zero if l < m - 1 else u)
    return tuple(map(tuple, a)), tuple(map(tuple, b))


@pytest.mark.parametrize("p", [2, 7, 17])
def test_prime_field_results_are_its_own_element_tuples(p):
    # as the table path returns its table's tuples; the operands are new ones
    field = make_field(p, 1)
    elems = [field.from_int(c) for c in range(p)]
    assert field.zero is elems[0] and field.one is elems[1]
    rng = random.Random(p)
    results = []
    for _ in range(50):
        a, b = (rng.randrange(p),), (rng.randrange(1, p),)
        results += [field.add(a, b), field.sub(a, b), field.neg(a),
                    field.mul(a, b), field.inv(b), field.pow(b, rng.randrange(-5, 6)),
                    field.pow(a, 1), field.from_int(a[0] + p),
                    field.element_of([a[0], b[0]])]
    for m in (1, 2, 3):
        for _ in range(20):
            results += field.mat_mul(flat(random_matrix(field, rng, m)),
                                     flat(random_matrix(field, rng, m)))
    assert all(x is elems[x[0]] for x in results)


def test_prime_field_above_the_limit_builds_each_tuple():
    p = 131101
    field = make_field(p, 1)
    assert p > ffield.TABLE_COEFF_LIMIT
    assert (field.zero, field.one, field.from_int(-1)) == ((0,), (1,), (p - 1,))
    assert field.mul((p - 1,), (p - 1,)) == field.inv((1,)) == (1,)
    assert field.mat_mul(((2,), (0,), (1,), (1,)),
                         ((3,), (1,), (0,), (p - 1,))) == ((6,), (2,), (3,), (0,))


@pytest.mark.parametrize("p,degree", [(17, 1), (7, 2), (2, 10), (89, 2),
                                      (97, 2), (7, 5), (7, 12), (2, 12),
                                      (65521, 2)])
def test_mat_mul_matches_schoolbook_reference(p, degree):
    field = make_field(p, degree)
    tabled = 1 < degree and p**degree * degree <= ffield.TABLE_COEFF_LIMIT
    assert (field._log is not None) == tabled
    rng = random.Random(p * 100 + degree)
    for m in (1, 2, 3, 4):
        pairs = [(random_matrix(field, rng, m), random_matrix(field, rng, m))
                 for _ in range(40)]
        zero_row = (field.zero,) * m
        pairs.append(((zero_row,) + pairs[0][0][1:], pairs[0][1]))
        pairs.append((pairs[1][0], pairs[1][1][:-1] + (zero_row,)))
        # every entry all-(p - 1): each dot product fills its slots to the bound
        full = (((p - 1,) * degree,) * m,) * m
        pairs.append((full, full))
        if m > 1:
            pairs.append(cancelling_pair(field, rng, m))
        for a, b in pairs:
            assert field.mat_mul(flat(a), flat(b)) == flat(schoolbook(field, a, b)), \
                (m, a, b)
        if m > 1:
            a, b = pairs[-1]
            u = b[0][0]
            assert field.mat_mul(flat(a), flat(b))[0] == (field.zero if m == 2 else u)


def right_to_left_power(field, a, e):
    """a^e by squaring from the lowest bit, with `mat_mul` only: a second
    algorithm against the leading-bit powering of `mat_pow`."""
    size = len(a)
    result = tuple(field.one if i % (isqrt(size) + 1) == 0 else field.zero
                   for i in range(size))
    while e:
        if e & 1:
            result = field.mat_mul(result, a)
        a = field.mat_mul(a, a)
        e >>= 1
    return result


@pytest.mark.parametrize("p,degree", [(7, 2), (17, 1), (97, 2), (7, 6)])
def test_mat_pow_matches_repeated_mat_mul(monkeypatch, p, degree):
    # a tabled field, a prime field, F_{97^2} with its tables off and F_{7^6}
    # past the table limit
    field = polynomial_field(monkeypatch, p, degree) if p == 97 \
        else make_field(p, degree)
    assert (field._log is not None) == (degree == 2 and p < 97)
    rng = random.Random(p * 100 + degree)
    big = 10**9 + 7
    for m in (1, 2, 3):
        mats = [flat(random_matrix(field, rng, m)) for _ in range(12)]
        zero_row = (field.zero,) * m
        # singular: a zero row, two equal rows; and the all-zero matrix
        mats.append(zero_row + mats[0][m:])
        mats.append(mats[1][:m] * m)
        mats.append(zero_row * m)
        want = list(mats)
        for e in range(1, 41):
            assert field.mat_pow(mats, e) == want, (m, e)
            want = [field.mat_mul(w, a) for w, a in zip(want, mats)]
        assert field.mat_pow(mats, big) == [right_to_left_power(field, a, big)
                                            for a in mats]
        for e in (0, -2):
            with pytest.raises(ValueError, match="positive exponent"):
                field.mat_pow(mats[:1], e)


def schoolbook_power(field, a, e):
    """a^e for one flat matrix by e - 1 `schoolbook` products, with `mul`
    and `add` only: a per-matrix reference that shares no code with
    `mat_mul` or `mat_pow`."""
    m = isqrt(len(a))
    rows = [a[i:i + m] for i in range(0, len(a), m)]
    result = rows
    for _ in range(e - 1):
        result = schoolbook(field, result, rows)
    return flat(result)


@pytest.mark.parametrize("p,degree", [(5, 4), (2, 6), (7, 5), (13, 1), (7, 6)])
def test_batched_mat_pow_matches_a_per_matrix_reference(monkeypatch, p, degree):
    # two tabled fields, F_{7^5} with its tables off, F_{7^6} past the
    # table limit and a prime field
    field = polynomial_field(monkeypatch, p, degree) if (p, degree) == (7, 5) \
        else make_field(p, degree)
    assert (field._log is not None) == (degree in (4, 6) and p < 7)
    rng = random.Random(p * 10 + degree)
    for m in (1, 2, 3):
        mats = [flat(random_matrix(field, rng, m)) for _ in range(8)]
        mats.append((field.zero,) * (m * m))
        assert sum(x == field.zero for a in mats for x in a) > m * m
        for e in range(1, 10):
            assert field.mat_pow(mats, e) == [schoolbook_power(field, a, e)
                                              for a in mats], (m, e)
        assert field.mat_pow(mats[:1], 1) == mats[:1]
    assert field.mat_pow([], 3) == []


@pytest.mark.parametrize("p,degree", [(2, 3), (3, 2), (5, 2)])
def test_2x2_log_core_matches_polynomial_path_on_every_zero_pattern(monkeypatch,
                                                                    p, degree):
    # bit i of a pattern zeroes entry i; every pair of patterns is one
    # 2x2 product through the straight-line branch of `_log_mat_mul`
    field, ref = make_field(p, degree), polynomial_field(monkeypatch, p, degree)
    assert field._log is not None and ref._log is None
    rng = random.Random(p * 10 + degree)
    units = [x for x in ref.iter_elements() if any(x)]
    mats = [tuple(field.zero if bits >> i & 1 else rng.choice(units)
                  for i in range(4)) for bits in range(16) for _ in range(3)]
    cancelled = 0
    for a in mats:
        for b in mats:
            got = field.mat_mul(a, b)
            assert got == ref.mat_mul(a, b), (a, b)
            # entries whose two terms are nonzero and sum to zero
            cancelled += sum(not any(got[i + j]) and all(a[i:i + 2]) and all(b[j::2])
                             for i in (0, 2) for j in (0, 1))
    assert cancelled
    for e in range(1, 10):
        assert field.mat_pow(mats, e) == ref.mat_pow(mats, e), e


def test_table_walk_generator_has_least_degree(monkeypatch):
    # x + c on every tabled field but five, whose least monic primitive
    # element has degree 2
    limit = ffield.TABLE_COEFF_LIMIT
    quadratic = {}
    for p in filter(is_prime, range(2, isqrt(limit // 2) + 1)):
        degree = 2
        while p**degree * degree <= limit:
            field = polynomial_field(monkeypatch, p, degree)
            g = ffield._least_primitive(field)
            s = max(i for i, c in enumerate(g) if c)
            assert g[s] == 1 and field.mult_order(g) == field.order - 1
            if s > 1:
                quadratic[p, degree] = s
            degree += 1
    assert quadratic == {(2, 8): 2, (2, 9): 2, (2, 12): 2, (3, 4): 2, (5, 4): 2}


@pytest.mark.parametrize("p,degree", [(2, 5), (3, 4), (7, 3), (97, 2)])
def test_poly_powmod_is_the_repeated_product(p, degree):
    f = list(make_field(p, degree).modulus)
    rng = random.Random(p * 100 + degree)
    # zero, one, x, the modulus itself and seeded polynomials past its degree
    bases = [[], [1], [0, 1], list(f)] + [
        [rng.randrange(p) for _ in range(degree + 2)] for _ in range(6)]
    for a in bases:
        ref = [1]
        for e in range(21):
            assert ffield._poly_powmod(a, e, f, p) == ref, (a, e)
            ref = ffield._poly_mulmod(ref, a, f, p)


@pytest.mark.parametrize("p", [2, 3, 7, 97])
def test_poly_divmod_is_a_division_with_remainder(p):
    rng = random.Random(p)
    for _ in range(80):
        # a divisor of degree 0 to 5 with a leading coefficient other than 1,
        # and a dividend of any degree up to 11, trailing zeros included
        f = [rng.randrange(p) for _ in range(rng.randrange(6))] + [rng.randrange(1, p)]
        a = [rng.randrange(p) for _ in range(rng.randrange(12))] + [0] * rng.randrange(2)
        q, r = ffield._poly_divmod(a, f, p)
        assert len(r) < len(f) and (not r or r[-1]) and (not q or q[-1])
        back = list(r) + [0] * (len(q) + len(f))
        for i, qi in enumerate(q):
            for j, fj in enumerate(f):
                back[i + j] = (back[i + j] + qi * fj) % p
        assert ffield._trim(back) == ffield._trim(list(a)), (a, f)


@pytest.mark.parametrize("p,degree,modulus", [
    (7, 12, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3, 1)),
    (2, 20, (1,) + (0,) * 16 + (1, 0, 0, 1)),
    (97, 2, (1, 3, 1))])
def test_moduli_of_the_largest_fields_are_pinned(p, degree, modulus):
    assert make_field(p, degree).modulus == modulus


# ---------------------------------------------------------------------------
# the index walk of `_build_tables` against the Horner walk it replaced


def horner_tables(field):
    """exp, log and zech by walking the powers of `_least_primitive` one
    Horner step r -> x r + g_j h per coefficient g_j of g below its leading
    1, from r = h: each step shifts r up, folds its top coefficient back
    through the modulus and adds g_j h.  Coefficient tuples throughout."""
    n, p, d = field.order - 1, field.p, field.degree
    g = ffield._least_primitive(field)
    s = max(i for i, c in enumerate(g) if c)
    low = g[s - 1::-1]
    tail = [-c % p for c in field.modulus[:d]]
    exp, cur = [], (1,) + (0,) * (d - 1)
    for _ in range(n):
        exp.append(cur)
        r = cur
        for gj in low:
            top = r[-1]
            r = tuple((b + top * t + gj * a) % p
                      for a, b, t in zip(cur, (0,) + r[:-1], tail))
        cur = r
    log = {t: i for i, t in enumerate(exp)}
    log[(0,) * d] = None
    zech = [log[((t[0] + 1) % p,) + t[1:]] for t in exp]
    return exp, log, zech


# every tabled field of the default grids and the benchmark workloads
GRID_TABLED_FIELDS = ([(2, d) for d in range(2, 13)] + [(3, d) for d in (2, 3, 4, 5, 6, 8)]
                      + [(5, d) for d in range(2, 7)] + [(7, d) for d in range(2, 6)]
                      + [(p, 2) for p in range(11, 98) if is_prime(p)])


@pytest.mark.parametrize("p,degree", GRID_TABLED_FIELDS + [(251, 2)])
def test_index_walk_matches_the_horner_walk(monkeypatch, p, degree):
    # F_{251^2} has the largest q * D under the limit
    field = make_field(p, degree)
    assert field._log is not None
    exp, log, zech = horner_tables(polynomial_field(monkeypatch, p, degree))
    assert field._exp == exp
    assert list(field._log.items()) == list(log.items())
    assert field._zech == zech


@pytest.mark.parametrize("p,degree", [(2, 12), (3, 8), (7, 5), (97, 2), (5, 3)])
def test_zech_is_the_log_of_one_plus_each_power(monkeypatch, p, degree):
    field, ref = make_field(p, degree), polynomial_field(monkeypatch, p, degree)
    n, g = field.order - 1, field._exp[1]
    rng = random.Random(p * 100 + degree)
    # i = 0 and i = n / 2 give 1 + 1 and 1 + (-1), one of which is zero
    for i in [0, 1, n // 2, n - 1] + rng.sample(range(n), min(n, 300)):
        power = ref.pow(g, i)
        assert field._exp[i] == power and field._log[power] == i
        assert field._zech[i] == field._log[ref.add(ref.one, power)], i
    assert field._zech[0 if p == 2 else n // 2] is None


# ---------------------------------------------------------------------------
# the root pre-test of the modulus search


def ben_or_search(p, degree):
    """The modulus search without the root pre-test: a Ben-Or test on each
    candidate in order."""
    for c0 in range(1, p):
        for rest in itertools.product(range(p), repeat=degree - 1):
            if ffield._is_irreducible([c0, *rest, 1], p):
                return (c0, *rest, 1)
    raise AssertionError


@pytest.mark.parametrize("p,degree", [(p, d) for p in (2, 3, 5, 7, 11) for d in range(2, 7)]
                         + [(7, 12), (2, 20), (2, 12), (97, 2)])
def test_root_pre_test_keeps_every_modulus(p, degree):
    # (7, 6) and (5, 6) are in the p <= 11, D <= 6 block
    assert ffield._smallest_irreducible(p, degree) == ben_or_search(p, degree)


def test_root_pre_test_finds_exactly_the_roots():
    for p in (2, 3, 5, 7):
        for low in itertools.product(range(p), repeat=3):
            f = [*low, 1]
            roots = [a for a in range(1, p)
                     if sum(c * a**i for i, c in enumerate(f)) % p == 0]
            assert ffield._has_root(f, p) == bool(roots), f
    # over F_7, 29 of the 53 candidates up to the degree-12 modulus have one
    modulus = make_field(7, 12).modulus
    candidates = ((c0, *rest, 1) for c0 in range(1, 7)
                  for rest in itertools.product(range(7), repeat=11))
    tried = list(itertools.takewhile(lambda f: f != modulus, candidates)) + [modulus]
    assert len(tried) == 53
    assert sum(ffield._has_root(list(f), 7) for f in tried) == 29


@pytest.mark.parametrize("p,degree,t,want", [
    (2, 1, 1, (1,)), (2, 4, 1, (1, 0, 0, 0)), (2, 4, 3, (0, 1, 0, 1)),
    (2, 4, 5, (1, 0, 1, 0)), (2, 4, 15, (0, 0, 1, 0)), (2, 4, 7, None),
    (3, 2, 8, (1, 1)), (3, 2, 4, (0, 2)), (3, 2, 3, None),
    (5, 2, 3, (4, 4)), (5, 2, 6, (0, 4)),
    (7, 1, 3, (4,)), (7, 1, 6, (3,)), (7, 1, 4, None), (101, 1, 25, (16,)),
    (2, 12, 13, (0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1)),
    (2, 12, 65, (0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1)),
    (2, 20, 11, (1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0)),
    (2, 20, 7, None), (7, 6, 19, (3, 0, 0, 0, 2, 0)), (7, 6, 9, (2, 0, 0, 0, 1, 0)),
])
def test_element_of_order_is_pinned(p, degree, t, want):
    # the first exact-order element along the canonical walk of the field;
    # None exactly when t does not divide p^D - 1 (tabled, prime and
    # polynomial-path fields)
    field = make_field(p, degree)
    got = ffield._element_of_order(field, t)
    assert got == want
    assert (want is None) == bool((field.order - 1) % t)
    if want is not None:
        assert field.pow(got, t) == field.one
        assert all(field.pow(got, t // ell) != field.one for ell in factorize(t))
