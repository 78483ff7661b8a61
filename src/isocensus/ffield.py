"""Exact arithmetic in one ambient finite field F_{p^D}.

Elements are represented as tuples of D integers in [0, p): the coefficients,
low degree first, of the polynomial representative modulo a fixed monic
irreducible modulus of degree D.  The modulus is chosen deterministically as
the lexicographically smallest monic irreducible of degree D over F_p, where
coefficient sequences are compared low-degree-first; two constructions of the
same (p, D) therefore agree bit for bit.

All computations are exact.  Subfields F_{p^d} for d | D are never built as
separate objects: they are the fixed sets of the d-th Frobenius power
x -> x^(p^d), and can be tested for membership or enumerated in place.

Arithmetic takes one of two paths, fixed when the field is built:

* Table path, for 1 < D and q * D <= TABLE_COEFF_LIMIT, where q = p^D: exp,
  log and Zech tables over a primitive element g (Huber, "Some comments on
  Zech's logarithms", IEEE Trans. IT 36, 1990).  Any primitive element
  gives valid tables; g is the monic one of least degree
  (`_least_primitive`).  The walk over its powers runs on the indices of
  the elements in `iter_elements` order, at four list lookups per power
  whatever the degree of g (`_build_tables`).  The tables hold q tuples of
  D coefficients, so q * D tracks their memory.  A product is a sum of two
  logs, a sum a Zech lookup log(1 + g^n), and an inverse, power, Frobenius
  image or multiplicative order one log lookup.  Results are the tables' own
  canonical tuples, so equality, hashing and ordering are those of the
  coefficient tuples.  Zero has no log and is handled explicitly; a tuple
  that is not a field element raises.  The tables also serve matrix
  products (`mat_mul`, on the row-major tuple of a matrix's m^2 entries)
  and powers (`mat_pow`, on a whole list of matrices at once), which share
  one log-domain core (`_log_mat_mul`): each entry's log is looked up once,
  every dot product is summed in the log domain, a power keeps every
  intermediate product as logs, and one exp lookup per entry ends it; a
  list of 1 x 1 matrices is one pass over their logs.
* Polynomial path, for prime fields and fields above the limit: extended
  Euclid for inverses and `_power` over `mul` for powers (`mat_pow` powers
  its list by `mat_mul` the same way).  A prime field with
  p <= TABLE_COEFF_LIMIT returns its own p element tuples, as the table
  path returns its tables'; above the limit each result is new.  A product
  in F_{p^D}, 1 < D, is Kronecker-packed (Harvey, "Faster polynomial
  multiplication via multipoint Kronecker substitution", J. Symb. Comp. 44,
  2009): one bigint product of the packed operands, its D - 1 high slots
  folded onto the low D through the packed tails x^(D + i) mod the modulus,
  and each slot reduced mod p.  `_slots` derives a slot width at which no
  slot carries into the next; a tuple that is not a field element would,
  and raises.  This path tests the tables' generator for primitivity, and
  the tests check it against the list helper `_poly_mulmod`.  A prime field
  takes its matrix products as integer dot products mod p; a field above
  the limit packs each entry once, sums each dot product as bigints and
  reduces once per entry.

The tuple API on :class:`AmbientField` is the only field API: every other
module passes coefficient tuples to its methods, and there is no element
wrapper with operator overloading.  `canonical` turns an outside tuple into
the field's own, and raises unless it is an element.

Each algorithm has one implementation: `_power`, square-and-multiply for
polynomials, elements, lists of matrices and `FiniteGroup.pow_id`;
`_poly_divmod`, polynomial division; `_first_of_order`, the exact-order
test.  A field's own products, `_frobenius_rows` and the table walk
included, go through `mul`; the list helpers (`_poly_mulmod`,
`_poly_powmod`) serve the modulus search and the tests' references.

Bounds are module constants, read when they are checked: DEFAULT_SIZE_LIMIT
on p^D at construction, DEFAULT_SCAN_LIMIT on a subfield that is listed
element by element, and TABLE_COEFF_LIMIT on the tabled fields.  A
multiplicative order past 2^21 raises.
"""

from __future__ import annotations

import itertools
import operator
from functools import partial
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, Optional, Sequence

Coeffs = tuple[int, ...]
#: an m x m matrix as the row-major tuple of its m^2 entries
Flat = tuple[Coeffs, ...]
#: slot width, masks of one slot and of D slots, packed tails (see `_slots`)
Slots = tuple[int, int, int, tuple[int, ...]]

#: construction bound on p^D; towers used for preimage searches stay far below
DEFAULT_SIZE_LIMIT = 2**64

#: bound on p^d for operations that materialize a full subfield
DEFAULT_SCAN_LIMIT = 2**24

#: fields with 1 < D and p^D * D at most this get exp/log/Zech tables, and
#: prime fields with p at most this a list of their p element tuples
TABLE_COEFF_LIMIT = 2**17


class VerificationError(AssertionError):
    """A computed result failed the check that certifies it.

    Raised explicitly, so no check disappears under `python -O`.
    """


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; intended for small n."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e and e >= 1; ValueError unless q is a prime power."""
    factors = factorize(q) if q > 1 else {}
    if len(factors) != 1:
        raise ValueError(f"q={q} is not a prime power")
    [(p, e)] = factors.items()
    return p, e


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (lists of ints, low degree first)


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)

def _poly_divmod(a: list[int], f: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder), both trimmed, of a by f, whose leading
    coefficient is nonzero mod p: the one polynomial division."""
    r, df = _trim(list(a)), len(f) - 1
    q = [0] * max(len(r) - df, 0)
    inv_lead = pow(f[-1], p - 2, p)
    while len(r) > df:
        c = r[-1] * inv_lead % p
        shift = len(r) - 1 - df
        q[shift] = c
        for i, fi in enumerate(f):
            r[shift + i] = (r[shift + i] - c * fi) % p
        _trim(r)
    return _trim(q), r

def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    return _poly_divmod(_poly_mul(a, b, p), f, p)[1]

def _power(mul: Callable, x, e: int):
    """x^e for e >= 1 under an associative `mul`, the one square-and-multiply
    (Knuth, TAOCP Vol. 2, 4.6.3): from the leading bit of e, floor(log2 e)
    squarings and popcount(e) - 1 further products."""
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result

def _poly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e mod f for e >= 0, by `_power` over `_poly_mulmod`."""
    base = _poly_divmod(a, f, p)[1]
    return _power(partial(_poly_mulmod, f=f, p=p), base, e) if e else [1]

def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """True iff monic f has no factor of degree <= deg(f)/2.

    x^(p^i) - x is the product of all monic irreducibles of degree dividing i,
    so coprimality with it for every i up to deg(f)/2 rules out any nontrivial
    factorization.
    """
    d = len(f) - 1
    if d == 1:
        return True
    u = [0, 1]
    for _ in range(d // 2):
        u = _poly_powmod(u, p, f, p)
        diff = list(u)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(diff, f, p)
        if len(g) - 1 >= 1:
            return False
    return True


def _has_root(f: list[int], p: int) -> bool:
    """True iff f(a) = 0 for some a in F_p^*, by Horner at a = 1, ..., p - 1."""
    for a in range(1, p):
        v = 0
        for c in reversed(f):
            v = (v * a + c) % p
        if not v:
            return True
    return False


def _smallest_irreducible(p: int, degree: int) -> Coeffs:
    """Lexicographically smallest monic irreducible of the given degree.

    Candidates are ordered by their non-leading coefficient tuple
    (c_0, ..., c_{D-1}), compared low-degree-first.  The c_0 = 0 block is
    skipped for degree >= 2 since x then divides the candidate, and a
    candidate with a root in F_p^* (Horner at x = 1, ..., p - 1) has the
    factor x - a, so only the rest take a Ben-Or test.
    """
    if degree == 1:
        return (0, 1)
    for c0 in range(1, p):
        for rest in itertools.product(range(p), repeat=degree - 1):
            f = [c0, *rest, 1]
            if not _has_root(f, p) and _is_irreducible(f, p):
                return tuple(f)
    raise VerificationError(f"no irreducible of degree {degree} over F_{p}")


class AmbientField:
    """The field F_{p^D} with a deterministic modulus.

    Immutable after construction; every method is pure, so instances are safe
    to share across threads.  Raw-tuple methods (`add`, `mul`, ...) operate on
    coefficient tuples of length D.

    When 1 < D and p^D * D <= TABLE_COEFF_LIMIT, construction also builds
    exp/log/Zech tables over `_least_primitive` and the raw-tuple
    methods use them; prime fields and larger fields use polynomial
    arithmetic.  Both paths return the same tuples.  Construction raises
    ValueError when p^D exceeds DEFAULT_SIZE_LIMIT.
    """

    def __init__(self, p: int, degree: int):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if degree < 1:
            raise ValueError(f"extension degree must be positive, got {degree}")
        if p**degree > DEFAULT_SIZE_LIMIT:
            raise ValueError(
                f"field size {p}^{degree} exceeds bound {DEFAULT_SIZE_LIMIT}")
        self.p = p
        self.degree = degree
        self.modulus: Coeffs = _smallest_irreducible(p, degree)
        # a prime field's elements (c,), indexed by c
        self._elems = None if degree > 1 else \
            [(c,) for c in range(p)] if p <= TABLE_COEFF_LIMIT else _FreshTuples()
        self.zero, self.one = self.element_of(()), self.element_of((1,))
        self._frob_rows: dict[int, list[Coeffs]] = {}
        self._slot_cache: dict[int, Slots] = {}
        if degree > 1:
            self._slots(1)
        self._exp: Optional[list[Coeffs]] = None
        self._log: Optional[dict[Coeffs, Optional[int]]] = None
        self._zech: Optional[list[Optional[int]]] = None
        self._units = self._half = 0
        if degree > 1 and p**degree * degree <= TABLE_COEFF_LIMIT:
            self._build_tables()

    def _build_tables(self) -> None:
        """exp/log/Zech tables over g = `_least_primitive(self)`.

        exp[i] = g^i for i < q - 1; log maps each element to its exponent and
        zero to None; zech[i] = log(1 + g^i), None where 1 + g^i = 0.  Sums of
        logs are not reduced: every index lands in [-(q - 1), q - 1), where
        Python's negative indexing supplies the wrap.  Any primitive element
        gives valid tables (Huber).

        The walk over the powers of g runs on indices: element c is
        N(c) = sum c_i p^(D-1-i), its place in `iter_elements`, so exp is
        one lookup per power in the list of all D-tuples.  Multiplying by g
        is F_p-linear, so the image of c is the image of its h = D // 2 high
        digits plus that of its low digits, each one lookup in a table of
        packed images, coefficient i in a slot of w bits at bit
        w (D - 1 - i).  A slot of the integer sum holds at most 2p - 2 <
        2^w, so no slot carries, and `norm` (the index of each run of D - h
        slot values taken mod p) turns the high and the low slots back into
        one index.  Adding 1 adds p^(D-1) to an index mod q, so zech[i] is
        the log of index N(g^i) + p^(D-1) mod q.  The build fails unless the
        walk reaches q - 1 distinct elements.
        """
        n, p, d = self.order - 1, self.p, self.degree
        g = _least_primitive(self)
        h, w = d // 2, (2 * p - 2).bit_length()
        low = p ** (d - h)  # the low digits of an index are N % low

        def packed_images(digits: range) -> list[int]:
            """Packed g c for every c supported on `digits`, in index order."""
            vecs = [(0,) * d]
            for i in digits:
                row = self.mul(g, self.element_of([0] * i + [1]))
                vecs = [tuple([(a + c * b) % p for a, b in zip(v, row)])
                        for v in vecs for c in range(p)]
            return [sum(c << w * (d - 1 - i) for i, c in enumerate(v)) for v in vecs]

        high_images, low_images = packed_images(range(h)), packed_images(range(h, d))
        norm = [0]
        for _ in range(d - h):
            norm = [v * p + c % p for v in norm for c in range(1 << w)]
        # h high slots are a run of D - h slots whose leading ones are 0
        high_norm = [v * low for v in norm[:1 << w * h]]
        shift, mask = w * (d - h), (1 << w * (d - h)) - 1
        one = (n + 1) // p  # p^(D-1), the index of 1
        walk = [one]
        append, cur = walk.append, one
        for _ in range(n - 1):
            s = high_images[cur // low] + low_images[cur % low]
            cur = high_norm[s >> shift] + norm[s & mask]
            append(cur)
        elems = list(itertools.product(range(p), repeat=d))
        exp: list[Coeffs] = list(map(elems.__getitem__, walk))
        del elems
        log: dict[Coeffs, Optional[int]] = dict(zip(exp, range(n)))
        if len(log) != n:
            raise VerificationError(
                f"powers of the primitive element reach {len(log)} of {n} units")
        # plus_one[N] is the log of index N + p^(D-1) mod q, the same int as
        # log's; a negative place wraps mod q
        plus_one: list[Optional[int]] = [None] * (n + 1)
        for index, i in zip(walk, log.values()):
            plus_one[index - one] = i
        self._zech = list(map(plus_one.__getitem__, walk))
        del walk, plus_one
        log[self.zero] = None
        self._exp = exp
        self._log = log
        self._units = n
        # -1 = g^((q-1)/2) in odd characteristic, 1 in characteristic 2
        self._half = n // 2 if p != 2 else 0

    @property
    def order(self) -> int:
        return self.p**self.degree

    def __repr__(self) -> str:
        return f"AmbientField(p={self.p}, degree={self.degree})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AmbientField)
                and self.p == other.p and self.degree == other.degree)

    def __hash__(self) -> int:
        return hash((self.p, self.degree))

    # -- raw tuple arithmetic ------------------------------------------------

    def from_int(self, c: int) -> Coeffs:
        return self.element_of((c,))

    def element_of(self, coeffs) -> Coeffs:
        t = tuple(c % self.p for c in coeffs)
        if len(t) > self.degree:
            t = tuple(_poly_divmod(t, self.modulus, self.p)[1])
        t += (0,) * (self.degree - len(t))
        return self._elems[t[0]] if self.degree == 1 else t

    def canonical(self, a) -> Coeffs:
        """The field's own tuple equal to a, as `add` returns it; ValueError
        naming the field unless a is D coefficients in [0, p)."""
        a = tuple(a)
        self._check(a)
        return self.add(a, self.zero)

    def add(self, a: Coeffs, b: Coeffs) -> Coeffs:
        log = self._log
        if log is not None:
            la, lb = log[a], log[b]
            if la is None:
                return self.zero if lb is None else self._exp[lb]
            if lb is None:
                return self._exp[la]
            # g^la + g^lb = g^la * (1 + g^(lb - la))
            z = self._zech[lb - la]
            return self.zero if z is None else self._exp[la + z - self._units]
        self._check(a, b)
        p = self.p
        if self.degree == 1:
            return self._elems[(a[0] + b[0]) % p]
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a: Coeffs, b: Coeffs) -> Coeffs:
        log = self._log
        if log is not None:
            la, lb = log[a], log[b]
            if lb is None:
                return self.zero if la is None else self._exp[la]
            n = self._units
            lb += self._half - n  # -b = g^(lb + half), index in [-n, n)
            if la is None:
                return self._exp[lb]
            z = self._zech[(lb - la) % n]
            return self.zero if z is None else self._exp[la + z - n]
        self._check(a, b)
        p = self.p
        if self.degree == 1:
            return self._elems[(a[0] - b[0]) % p]
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a: Coeffs) -> Coeffs:
        log = self._log
        if log is not None:
            la = log[a]
            if la is None:
                return self.zero
            return self._exp[la + self._half - self._units]
        self._check(a)
        p = self.p
        if self.degree == 1:
            return self._elems[-a[0] % p]
        return tuple(-x % p for x in a)

    def mul(self, a: Coeffs, b: Coeffs) -> Coeffs:
        if self.degree == 1:
            return self._elems[a[0] * b[0] % self.p]
        log = self._log
        if log is not None:
            la, lb = log[a], log[b]
            if la is None or lb is None:
                return self.zero
            return self._exp[la + lb - self._units]
        return self._poly_mul(a, b)

    def mat_mul(self, a: Flat, b: Flat) -> Flat:
        """The product of two m x m matrices given by their m^2 entries in
        row-major order, in the same order.

        On the table path each of the 2m^2 entries is looked up in the log
        table once, `_log_mat_mul` takes the product in the log domain, and
        one exp lookup turns each entry back.  A prime field takes integer
        dot products mod p on the single coefficient, with m = 1 and m = 2
        unrolled.  Other fields take a 1 x 1 product as one `_poly_mul`, and
        otherwise pack each of the 2m^2 entries once with slots wide enough
        for a sum of m products (`_slots`), sum each dot product as bigints
        and reduce once per entry: m^2 reductions in place of m^3 products
        and m^2 (m - 1) sums.  Every path returns the entries `mul` and
        `add` would.
        """
        size = len(a)
        log = self._log
        if log is not None:
            exp, zero = self._exp, self.zero
            if size == 1:
                x, y = log[a[0]], log[b[0]]
                return (zero if x is None or y is None else exp[x + y - self._units],)
            return tuple([zero if r is None else exp[r] for r in _log_mat_mul(
                self._zech, self._units, [log[x] for x in a], [log[y] for y in b])])
        if self.degree == 1:
            p, e = self.p, self._elems
            if size == 1:
                return (e[a[0][0] * b[0][0] % p],)
            if size == 4:
                (a0,), (a1,), (a2,), (a3,) = a
                (b0,), (b1,), (b2,), (b3,) = b
                return (e[(a0 * b0 + a1 * b2) % p], e[(a0 * b1 + a1 * b3) % p],
                        e[(a2 * b0 + a3 * b2) % p], e[(a2 * b1 + a3 * b3) % p])
            m = isqrt(size)
            xs, ys = [x for x, in a], [y for y, in b]
            cols = [ys[j::m] for j in range(m)]
            return tuple(e[sum(map(operator.mul, xs[i:i + m], col)) % p]
                         for i in range(0, size, m) for col in cols)
        if size == 1:
            return (self._poly_mul(a[0], b[0]),)
        m = isqrt(size)
        slots = self._slots(m)
        w, pack, reduce = slots[0], self._pack, self._reduce
        xs, ys = [pack(x, w) for x in a], [pack(y, w) for y in b]
        cols = [ys[j::m] for j in range(m)]
        return tuple(reduce(sum(map(operator.mul, xs[i:i + m], col)), slots)
                     for i in range(0, size, m) for col in cols)

    def mat_pow(self, mats: Sequence[Flat], e: int) -> list[Flat]:
        """[a^e for a in mats], for m x m matrices of one size given as
        `mat_mul` takes them, and e >= 1 (ValueError otherwise): the one
        matrix power.  The whole list is powered at once by `_power`, whose
        product is one `map` of the matrix product over the list:
        floor(log2 e) squarings and popcount(e) - 1 further products.

        On the table path, 1 x 1 matrices are one pass over their logs,
        exp[log(a) e mod (q - 1)]; for m >= 2 each entry's log is looked up
        once, every product is `_log_mat_mul` on logs, and one exp lookup
        per entry ends it.  Elsewhere a 1 x 1 matrix is one `pow`, and a
        larger one multiplies by `mat_mul`.
        """
        if e < 1:
            raise ValueError(f"matrix power needs a positive exponent, got {e}")
        if not mats:
            return []
        log, zero, size = self._log, self.zero, len(mats[0])
        if size == 1:
            if log is None:
                return [(self.pow(a, e),) for a, in mats]
            exp, n = self._exp, self._units
            return [(zero,) if (la := log[a]) is None else (exp[la * e % n],)
                    for a, in mats]
        if log is None:
            mul, bases = self.mat_mul, mats
        else:
            mul = partial(_log_mat_mul, self._zech, self._units)
            # one tuple of m^2 logs per matrix, cut from one pass over all entries
            logs = map(log.__getitem__, itertools.chain.from_iterable(mats))
            bases = list(zip(*[logs] * size))
        powers = _power(lambda xs, ys: list(map(mul, xs, ys)), bases, e)
        if log is None:
            return list(powers)
        exp = self._exp
        entries = iter([zero if r is None else exp[r] for result in powers for r in result])
        return list(zip(*[entries] * size))

    def _poly_mul(self, a: Coeffs, b: Coeffs) -> Coeffs:
        """Product on the polynomial path (D > 1): the packed operands
        (`_pack`, slots of `_slots(1)`) are multiplied as one bigint, whose
        2D - 1 slots `_reduce` folds back to an element.  `mul`, `pow`,
        `mult_order`, `kth_root` and `_least_primitive` all multiply here."""
        slots = self._slot_cache[1]
        w = slots[0]
        return self._reduce(self._pack(a, w) * self._pack(b, w), slots)

    def _slots(self, m: int) -> Slots:
        """Kronecker packing for sums of m products, built once per m.

        An element (c_0, ..., c_{D-1}) packs to the int sum of c_i 2^(w i),
        so one bigint product of two packed elements holds in slot k the sum
        of c_i c'_j over i + j = k: at most D (p - 1)^2, and in a sum of m
        products at most H = m D (p - 1)^2.  Reduction adds to the D low
        slots the D - 1 high slots h_i times the packed tails x^(D + i) mod
        the modulus, whose coefficients are below p, so no slot exceeds
        H (1 + (D - 1)(p - 1)).  The slot width w is that bound's bit length,
        and no slot carries into the next.  Returns w, the masks of one slot
        and of D slots, and the packed tails.
        """
        slots = self._slot_cache.get(m)
        if slots is None:
            p, d = self.p, self.degree
            w = (m * d * (p - 1) ** 2 * (1 + (d - 1) * (p - 1))).bit_length()
            tails = tuple(self._pack(self.element_of([0] * (d + i) + [1]), w)
                          for i in range(d - 1))
            slots = (w, (1 << w) - 1, (1 << w * d) - 1, tails)
            self._slot_cache[m] = slots
        return slots

    def _pack(self, a: Coeffs, w: int) -> int:
        """a as the int sum of c_i 2^(w i); ValueError unless a is a tuple of
        D coefficients in [0, p): any other tuple would overflow a slot or
        be read as another element."""
        p = self.p
        if len(a) == self.degree:
            x = 0
            for c in reversed(a):
                if not 0 <= c < p:
                    break
                x = x << w | c
            else:
                return x
        raise ValueError(f"{a!r} is not an element of {self!r}")

    def _check(self, *elems: Coeffs) -> None:
        """The entry check of the polynomial path in `add`, `sub`, `neg`,
        `inv` and `frobenius`: ValueError unless each argument is a tuple of
        D coefficients in [0, p), as `_pack` requires of products.  Without
        it a short tuple is truncated by `zip`, a coefficient of p or more is
        read as another element, and `inv` of one whose leading coefficient
        is a multiple of p never leaves its Euclid loop."""
        p, d = self.p, self.degree
        for a in elems:
            if len(a) != d or min(a) < 0 or max(a) >= p:
                raise ValueError(f"{a!r} is not an element of {self!r}")

    def _reduce(self, x: int, slots: Slots) -> Coeffs:
        """The element represented by x, a sum of packed products within the
        slot bound of `slots`: its 2D - 1 slots are folded onto D through the
        tails, and each is then reduced mod p."""
        w, mask, low, tails = slots
        r = x & low
        x >>= w * self.degree
        for t in tails:
            r += (x & mask) * t
            x >>= w
        p = self.p
        return tuple([(r >> s & mask) % p for s in range(0, w * self.degree, w)])

    def inv(self, a: Coeffs) -> Coeffs:
        """Multiplicative inverse: one log lookup on the table path, one
        modular `pow` on a prime field, and otherwise extended Euclid, each
        step one `_poly_divmod` (several times faster than Fermat's a^(q-2))."""
        log = self._log
        if log is not None:
            la = log[a]
            if la is None:
                raise ZeroDivisionError("inverse of zero field element")
            return self._exp[-la]
        self._check(a)
        if not any(a):
            raise ZeroDivisionError("inverse of zero field element")
        if self.degree == 1:
            return self._elems[pow(a[0], self.p - 2, self.p)]
        p = self.p
        r0, r1 = list(self.modulus), _trim(list(a))
        t0, t1 = [], [1]
        while r1:
            q, r = _poly_divmod(r0, r1, p)
            r0, r1 = r1, r
            t0, t1 = t1, _trim([(x - y) % p for x, y in
                                itertools.zip_longest(t0, _poly_mul(q, t1, p),
                                                      fillvalue=0)])
        lead_inv = pow(r0[-1], p - 2, p)
        t0 = [c * lead_inv % p for c in t0]
        return tuple(t0) + (0,) * (self.degree - len(t0))

    def pow(self, a: Coeffs, e: int) -> Coeffs:
        """a^e: one log lookup on the table path, one modular `pow` on a
        prime field, and otherwise `_power` over `mul`, floor(log2 e)
        squarings and popcount(e) - 1 further products; negative e inverts
        first."""
        log = self._log
        if log is not None:
            la = log[a]
            if la is None:
                if e < 0:
                    raise ZeroDivisionError("inverse of zero field element")
                return self.one if e == 0 else self.zero
            return self._exp[la * e % self._units]
        if e < 0:
            a, e = self.inv(a), -e
        if self.degree == 1:
            return self._elems[pow(a[0], e, self.p)]
        return _power(self.mul, a, e) if e else self.one

    # -- Frobenius and subfields ----------------------------------------------

    def _frobenius_rows(self, e: int) -> list[Coeffs]:
        """Rows of the F_p-linear map a -> a^(p^e) on coefficient vectors: row
        j is x^(j p^e), by the field's own `pow` and `mul`."""
        rows = self._frob_rows.get(e)
        if rows is None:
            xq = self.pow(self.element_of((0, 1)), self.p**e)
            rows = [self.one]
            for _ in range(self.degree - 1):
                rows.append(self.mul(rows[-1], xq))
            self._frob_rows[e] = rows
        return rows

    def frobenius(self, a: Coeffs, e: int) -> Coeffs:
        """a^(p^e), reduced along the Frobenius orbit (period divides D)."""
        e %= self.degree
        log = self._log
        if log is not None:
            la = log[a]
            if la is None:
                return self.zero
            return self._exp[la * self.p**e % self._units]
        self._check(a)
        if e == 0:
            return a
        rows = self._frobenius_rows(e)
        p = self.p
        out = [0] * self.degree
        for j, aj in enumerate(a):
            if aj:
                row = rows[j]
                for i in range(self.degree):
                    out[i] = (out[i] + aj * row[i]) % p
        return tuple(out)

    def in_subfield(self, a: Coeffs, d: int) -> bool:
        if self.degree % d:
            raise ValueError(f"degree {d} does not divide ambient degree {self.degree}")
        return self.frobenius(a, d) == a

    def subfield_basis(self, d: int) -> list[Coeffs]:
        """F_p-basis of the fixed set of x -> x^(p^d), i.e. of F_{p^d}."""
        if self.degree % d:
            raise ValueError(f"degree {d} does not divide ambient degree {self.degree}")
        n, p = self.degree, self.p
        rows = self._frobenius_rows(d % n) if d % n else None
        # columns of (F - I) as a linear system acting on row vectors
        system = []
        for i in range(n):
            col = []
            for j in range(n):
                v = rows[j][i] if rows is not None else (1 if i == j else 0)
                if i == j:
                    v -= 1
                col.append(v % p)
            system.append(col)
        basis = _nullspace(system, p)
        if len(basis) != d:
            raise VerificationError("fixed space of Frobenius^d must have dimension d")
        return [tuple(v) for v in basis]

    def enumerate_subfield(self, d: int) -> list[Coeffs]:
        """All p^d elements of F_{p^d}, sorted lexicographically on coeffs.

        The whole field (d = D) is `iter_elements`, already in that order; a
        proper subfield is spanned by its Frobenius-fixed basis, sorted, and
        must count p^d distinct elements.  Raises ValueError when p^d exceeds
        DEFAULT_SCAN_LIMIT.
        """
        if self.p**d > DEFAULT_SCAN_LIMIT:
            raise ValueError(f"subfield size {self.p}^{d} exceeds scan bound")
        if d == self.degree:
            return list(self.iter_elements())
        basis = self.subfield_basis(d)
        p, n = self.p, self.degree
        out = []
        for combo in itertools.product(range(p), repeat=d):
            acc = [0] * n
            for c, vec in zip(combo, basis):
                if c:
                    for i in range(n):
                        acc[i] = (acc[i] + c * vec[i]) % p
            out.append(tuple(acc))
        out.sort()
        if len(set(out)) != p**d:
            raise VerificationError(f"subfield basis spans fewer than {p}^{d} elements")
        return out

    def iter_elements(self) -> Iterator[Coeffs]:
        """All field elements in lexicographic coefficient order, lazily."""
        return itertools.product(range(self.p), repeat=self.degree)

    def mult_order(self, a: Coeffs) -> int:
        """Multiplicative order; raises ValueError past 2^21.

        One log lookup on the table path, power iteration otherwise.
        """
        cap = 2**21
        log = self._log
        if log is not None:
            la = log[a]
            if la is None:
                raise ZeroDivisionError("order of zero")
            n = self._units // gcd(la, self._units)
            if n > cap:
                raise ValueError(f"multiplicative order exceeds cap {cap}")
            return n
        if not any(a):
            raise ZeroDivisionError("order of zero")
        cur, n = a, 1
        while cur != self.one:
            cur = self.mul(cur, a)
            n += 1
            if n > cap:
                raise ValueError(f"multiplicative order exceeds cap {cap}")
        return n


class _FreshTuples:
    """A prime field's element list above TABLE_COEFF_LIMIT, not stored."""

    def __getitem__(self, c: int) -> Coeffs:
        return (c,)


def _log_mat_mul(zech: list[Optional[int]], n: int, xs: Sequence[Optional[int]],
                 ys: Sequence[Optional[int]]) -> Sequence[Optional[int]]:
    """The logs of the entries of the product of two m x m matrices, given
    and returned as the logs of their m^2 row-major entries, each in
    [0, n) or None for zero: the one log-domain product core of `mat_mul`
    and `mat_pow`.  A product of two entries is a sum of logs, each further
    term of a dot product one Zech lookup (g^s + g^t = g^s (1 + g^(t - s))),
    and a zero entry is skipped.  m = 2, the bulk of E1's powers (2x2
    norm-torus points), is written out straight-line, one block per entry."""
    if len(xs) == 4:
        x0, x1, x2, x3 = xs
        y0, y1, y2, y3 = ys
        if x0 is None or y0 is None:
            r0 = None if x1 is None or y2 is None else (x1 + y2) % n
        elif x1 is None or y2 is None:
            r0 = (x0 + y0) % n
        else:
            s = x0 + y0
            z = zech[(x1 + y2 - s) % n]
            r0 = None if z is None else (s + z) % n
        if x0 is None or y1 is None:
            r1 = None if x1 is None or y3 is None else (x1 + y3) % n
        elif x1 is None or y3 is None:
            r1 = (x0 + y1) % n
        else:
            s = x0 + y1
            z = zech[(x1 + y3 - s) % n]
            r1 = None if z is None else (s + z) % n
        if x2 is None or y0 is None:
            r2 = None if x3 is None or y2 is None else (x3 + y2) % n
        elif x3 is None or y2 is None:
            r2 = (x2 + y0) % n
        else:
            s = x2 + y0
            z = zech[(x3 + y2 - s) % n]
            r2 = None if z is None else (s + z) % n
        if x2 is None or y1 is None:
            r3 = None if x3 is None or y3 is None else (x3 + y3) % n
        elif x3 is None or y3 is None:
            r3 = (x2 + y1) % n
        else:
            s = x2 + y1
            z = zech[(x3 + y3 - s) % n]
            r3 = None if z is None else (s + z) % n
        return (r0, r1, r2, r3)
    m = isqrt(len(xs))
    cols = [ys[j::m] for j in range(m)]
    out = []
    for i in range(0, len(xs), m):
        row = xs[i:i + m]
        for col in cols:
            acc = None  # log of the partial sum, None while it is 0
            for x, y in zip(row, col):
                if x is None or y is None:
                    continue
                if acc is None:
                    acc = x + y
                else:
                    z = zech[(x + y - acc) % n]
                    acc = None if z is None else acc + z
            out.append(None if acc is None else acc % n)
    return out


def _nullspace(matrix: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {v : matrix . v = 0} over F_p (matrix given as list of rows)."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivot_of_col[c] = r
        r += 1
        if r == rows:
            break
    basis = []
    free_cols = [c for c in range(cols) if c not in pivot_of_col]
    for fc in free_cols:
        v = [0] * cols
        v[fc] = 1
        for c, pr in pivot_of_col.items():
            v[c] = -m[pr][fc] % p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# spec-level operations


def make_field(p: int, degree: int) -> AmbientField:
    """Construct F_{p^degree} with the deterministic modulus; p^degree must
    be at most DEFAULT_SIZE_LIMIT."""
    return AmbientField(p, degree)



# ---------------------------------------------------------------------------
# roots in the multiplicative group
#
# Used by the isogeny machinery to find rational preimages under power maps.
# Only elements of small multiplicative order are ever passed in, so orders
# are found by plain iteration and discrete logs by scanning one small cyclic
# subgroup; no general discrete-logarithm machinery is involved.


def _element_of_order(field: AmbientField, t: int) -> Optional[Coeffs]:
    """The first element of exact multiplicative order t, or None when t
    does not divide p^D - 1.

    Walks the field in canonical order, mapping each z to z^((p^D - 1)/t),
    which lies in the subgroup of order t; the image has order t exactly
    when the t-part of z's order is full, which happens for a positive
    fraction of z.  `_first_of_order` skips zero, and `one` unless t = 1.
    """
    big = field.order - 1
    return None if big % t else _first_of_order(
        field.pow, field.one, (field.pow(z, big // t) for z in field.iter_elements()), t)


def _first_of_order(power: Callable, one, candidates: Iterable, n: int):
    """The first candidate a of exact order n, the one exact-order test:
    a^(n / l) != one for every prime l | n and a^n = one, by power(a, c) for
    c >= 1; a field's zero fails the last.  VerificationError when none has
    order n: every caller's candidates hold a generator of a cyclic group."""
    checks = [n // ell for ell in factorize(n)]
    for a in candidates:
        if all(power(a, c) != one for c in checks) and power(a, n) == one:
            return a
    raise VerificationError(f"no candidate of order {n}, though their group is cyclic")


def subfield_generator(field: AmbientField, d: int) -> Coeffs:
    """First element (in coefficient order) generating F_{p^d}^*.

    The multiplicative order p^d - 1 is factored by trial division, so this
    is meant for subfields small enough to enumerate anyway.
    """
    target = field.p**d - 1
    if target == 0:
        raise ValueError("F_p^0 has no multiplicative generator")
    # the whole field is walked lazily: its canonical order is lexicographic
    elements = field.iter_elements() if d == field.degree \
        else field.enumerate_subfield(d)
    return _first_of_order(field.pow, field.one, elements, target)


def _least_primitive(field: AmbientField) -> Coeffs:
    """The first monic primitive element of least degree over F_p, taking
    the monics of one degree s in the order of their low coefficients
    (c_0, ..., c_{s-1}), as `_smallest_irreducible` takes moduli; the table
    walk multiplies by it, at a cost that does not depend on s.  Degree 1
    (some x + c) serves every tabled field but F_{2^8}, F_{2^9}, F_{2^12},
    F_{3^4} and F_{5^4}, where degree 2 does, so few candidates take the
    order test."""
    d = field.degree
    monics = ((*low, 1) + (0,) * (d - s - 1)
              for s in range(1, d) for low in itertools.product(range(field.p), repeat=s))
    return _first_of_order(field.pow, field.one, monics, field.order - 1)


def _prime_root(field: AmbientField, x: Coeffs, ell: int) -> Optional[Coeffs]:
    r = field.mult_order(x)
    if r % ell:
        # x stays inside its own cyclic group: invert ell modulo ord(x)
        return field.pow(x, pow(ell, -1, r))
    delta = _element_of_order(field, r * ell)
    if delta is None:
        return None
    w = field.pow(delta, ell)
    # <w> = <x> since both have order r in a cyclic ambient group
    cur, y = field.one, field.one
    for _ in range(r):
        if cur == x:
            return y
        cur = field.mul(cur, w)
        y = field.mul(y, delta)
    return None


def kth_root(field: AmbientField, x: Coeffs, k: int) -> Optional[Coeffs]:
    """Some y with y^k = x, or None if no such y exists in this field.

    x must have small multiplicative order (it comes from an enumerated
    rational-point group).  Roots are extracted one prime of k at a time.
    """
    if k < 1:
        raise ValueError("root index must be positive")
    if not any(x):
        return x
    y = x
    for ell, mult in sorted(factorize(k).items()):
        for _ in range(mult):
            y = _prime_root(field, y, ell)
            if y is None:
                return None
    if field.pow(y, k) != x:
        raise VerificationError(f"extracted root is not a {k}-th root")
    return y
