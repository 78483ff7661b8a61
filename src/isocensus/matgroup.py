"""Matrix groups over the ambient field and their rational-point groups.

A :class:`GroupSpec` describes a matrix group by polynomial conditions over a
base field F_q (q = p^e) together with an enumeration strategy; its group of
rational points at level n is the set of members whose entries lie in the
subfield F_{q^n}, equivalently the fixed points of the entrywise Frobenius
map raising entries to the q^n-th power.

Enumerated groups are wrapped in :class:`FiniteGroup`, which also hosts
direct products, the one abstract group, whose elements are pairs; a
quotient is not a group but its coset labels (`census.quotient_group`).
All downstream algorithms only use the group operation through canonical
element ids.  A point group's elements are flat entry tuples
(`Flat`: the row-major tuple of a matrix's m^2 entries), its operation the
spec's `product`, and `mat_identity`, `mat_inv`, `mat_det`,
`mat_frobenius`, `mat_transpose` and `mat_rows` are functions of them,
with m read off their length.  :class:`Matrix` wraps a flat tuple with its
field for callers outside the package; `FiniteGroup` and the census take
either.

Built-in specs: GL, SL, Sp (standard alternating form), split SO (hyperbolic
form), SU (relative to the quadratic subextension), Gm, Ga (as 2x2 unipotent
matrices), the plane norm torus {{a, -b}, {b, a-b}} with a^2 - ab + b^2 != 0,
and its 3x3 double cover carrying an extra entry c with c^2 = a^2 - ab + b^2.
Connectedness of a spec is an assumption of the surrounding theory and is not
checked algorithmically.

Bounds are module constants, read when they are checked: DEFAULT_ORDER_BOUND
on an enumerated point group (in `rational_points` and `from_generators`),
DEFAULT_MATRIX_SCAN_LIMIT on the candidate matrices of a "scan" spec, and
TABLE_THRESHOLD on the groups whose products are cached.
"""

from __future__ import annotations

import itertools
from array import array
from functools import partial
from math import isqrt
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

from .ffield import (AmbientField, Coeffs, Flat, VerificationError,
                     _element_of_order, factorize, subfield_generator)

#: a square matrix as its tuple of rows, as `mat_rows` and `Matrix.rows` give it
Rows = tuple[tuple[Coeffs, ...], ...]

#: enumerated point groups are limited to this many elements
DEFAULT_ORDER_BOUND = 200_000

#: full m x m scans are limited to this many candidate matrices
DEFAULT_MATRIX_SCAN_LIMIT = 2**20

#: groups at most this large get an unbounded product cache
TABLE_THRESHOLD = 4096


class EnumerationBound(RuntimeError):
    """An enumeration would exceed its configured size bound."""


def mat_identity(field: AmbientField, m: int) -> Flat:
    """The m x m identity matrix as its row-major entries."""
    one, zero = field.one, field.zero
    return tuple(one if i % (m + 1) == 0 else zero for i in range(m * m))


def mat_rows(a: Flat) -> Rows:
    """The nested rows of a, for printing and the eliminations of m > 2."""
    m = isqrt(len(a))
    return tuple(a[i:i + m] for i in range(0, m * m, m))


def mat_transpose(a: Flat) -> Flat:
    m = isqrt(len(a))
    # row j of the transpose is column j, a[j::m]
    return tuple(x for j in range(m) for x in a[j::m])


def mat_frobenius(field: AmbientField, a: Flat, e: int) -> Flat:
    """Entrywise x -> x^(p^e)."""
    return tuple(field.frobenius(x, e) for x in a)


def mat_det(field: AmbientField, a: Flat) -> Coeffs:
    f, size = field, len(a)
    if size == 1:
        return a[0]
    if size == 4:
        a0, a1, a2, a3 = a
        return f.sub(f.mul(a0, a3), f.mul(a1, a2))
    # Gaussian elimination with pivot tracking
    m = isqrt(size)
    rows = [list(r) for r in mat_rows(a)]
    det = f.one
    for col in range(m):
        piv = next((r for r in range(col, m) if any(rows[r][col])), None)
        if piv is None:
            return f.zero
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = f.neg(det)
        pivot = rows[col][col]
        det = f.mul(det, pivot)
        inv = f.inv(pivot)
        for r in range(col + 1, m):
            if any(rows[r][col]):
                factor = f.mul(rows[r][col], inv)
                rows[r] = [f.sub(x, f.mul(factor, y))
                           for x, y in zip(rows[r], rows[col])]
    return det


def mat_inv(field: AmbientField, a: Flat) -> Flat:
    """The inverse matrix; ZeroDivisionError when a is singular."""
    f, size = field, len(a)
    if size == 1:
        return (f.inv(a[0]),)
    if size == 4:
        a0, a1, a2, a3 = a
        det_inv = f.inv(mat_det(f, a))
        return (f.mul(a3, det_inv), f.mul(f.neg(a1), det_inv),
                f.mul(f.neg(a2), det_inv), f.mul(a0, det_inv))
    m = isqrt(size)
    aug = [list(row) + [f.one if i == j else f.zero for j in range(m)]
           for i, row in enumerate(mat_rows(a))]
    for col in range(m):
        piv = next((r for r in range(col, m) if any(aug[r][col])), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = f.inv(aug[col][col])
        aug[col] = [f.mul(inv, x) for x in aug[col]]
        for r in range(m):
            if r != col and any(aug[r][col]):
                factor = aug[r][col]
                aug[r] = [f.sub(x, f.mul(factor, y))
                          for x, y in zip(aug[r], aug[col])]
    return tuple(x for row in aug for x in row[m:])


class Matrix:
    """Immutable square matrix over an ambient field, the type for callers
    outside the package: it wraps `flat`, the row-major tuple of its m^2
    entries (entry (i, j) is flat[i * m + j]), each a coefficient tuple
    handled with the field's tuple API.

    The point groups of specs hold flat tuples themselves, multiplied by
    `AmbientField.mat_mul` and handled by the `mat_*` functions of this
    module; a `Matrix` is one of them with its field attached.  A product is
    one `mat_mul` on the flat tuples.  Hashing, equality and order are those
    of `flat`, and ignore the field object itself: matrices are only ever
    compared within one ambient field.  `Matrix(field, rows)` is the one
    checked constructor: it flattens nested rows once, maps an int entry by
    `from_int`, and returns each entry as the field's own tuple
    (`field.canonical`: ValueError naming the field for a non-element);
    `rows()` gives the rows back for printing.  Products, `identity` and
    `inv` come from `_flat_matrix`, whose entries are the field's own
    results and are not checked again.

    Within one group every matrix is m x m, so its flat tuple is the
    concatenation of m rows of length m; two such tuples first differ at
    the first differing entry of the first differing row, so they sort as
    their nested rows do.  A flat tuple sorts as the `Matrix` wrapping it,
    and a `direct_product` pair compares its first components first, so a
    group of flats, or of pairs of them, gets the ids of the same group of
    matrices.
    """

    __slots__ = ("field", "m", "flat")

    def __init__(self, field: AmbientField, rows: Sequence[Sequence]):
        def entry(x):
            return field.canonical(field.from_int(x) if isinstance(x, int) else x)

        self.field = field
        self.m = len(rows)
        self.flat = tuple(entry(x) for row in rows for x in row)

    @classmethod
    def identity(cls, field: AmbientField, m: int) -> "Matrix":
        return _flat_matrix(field, m, mat_identity(field, m))

    def __mul__(self, other: "Matrix") -> "Matrix":
        f = self.field
        return _flat_matrix(f, self.m, f.mat_mul(self.flat, other.flat))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.flat == other.flat

    def __hash__(self) -> int:
        return hash(self.flat)

    def __lt__(self, other: "Matrix") -> bool:
        return self.flat < other.flat

    def __repr__(self) -> str:
        return f"Matrix({self.rows()})"

    def rows(self) -> Rows:
        return mat_rows(self.flat)

    def inv(self) -> "Matrix":
        return _flat_matrix(self.field, self.m, mat_inv(self.field, self.flat))


_new_matrix = object.__new__


def _flat_matrix(field: AmbientField, m: int, flat: Flat) -> Matrix:
    """The m x m matrix whose row-major entries are `flat`, without a copy."""
    mat = _new_matrix(Matrix)
    mat.field, mat.m, mat.flat = field, m, flat
    return mat


class FiniteGroup:
    """An explicitly enumerated finite group with canonical element ids.

    Elements are sorted as they compare, so the id assignment (and every
    report derived from it) is deterministic; see `Matrix` for why a point
    group's flats and the matrices wrapping them get the same ids.
    A point group of a spec holds flat entry tuples, with `op` the spec's
    `product` over its field (that field's `mat_mul`, or the norm cover's
    block product), and records that field as `meta["field"]`.  Products
    of small groups are cached without bound; larger groups recompute
    products on demand.  `gens_hint` declares generators, as elements of
    the group: either `from_generators` built the group from them, or
    their first walk (`census._bfs_program`) proves that they generate.
    `inv` inverts an element, as `op` multiplies two.
    """

    def __init__(self, elements: Iterable, op: Callable, identity, *,
                 inv: Callable, label: str = "",
                 gens_hint: Optional[Sequence] = None, meta: Optional[dict] = None):
        self.elements = tuple(sorted(elements))
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements in group construction")
        self.op = op
        self.identity = identity
        self.identity_id = self.index[identity]
        self._inv_fn = inv
        self.label = label
        if gens_hint is not None and any(g not in self.index for g in gens_hint):
            raise VerificationError(f"a declared generator is not an element of {self!r}")
        self.gens_hint = None if gens_hint is None else \
            tuple(self.index[g] for g in gens_hint)
        self.meta = dict(meta or {})
        self._cache_products = len(self.elements) <= TABLE_THRESHOLD
        # the product of ids i and j under the key i * len(self) + j
        self._mult_cache: dict[int, int] = {}
        self._inv_cache: dict[int, int] = {}
        self._order_cache: dict[int, int] = {}
        # Cayley-graph programs over ids and small_generating_set's results
        self.bfs_programs: dict[tuple[int, ...], tuple] = {}
        self.generating_sets: dict[int, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        tag = self.label or "FiniteGroup"
        return f"<{tag} of order {len(self.elements)}>"

    def mult(self, i: int, j: int) -> int:
        if self._cache_products:
            key = i * len(self.elements) + j
            r = self._mult_cache.get(key)
            if r is None:
                r = self._mult_cache[key] = \
                    self.index[self.op(self.elements[i], self.elements[j])]
            return r
        return self.index[self.op(self.elements[i], self.elements[j])]

    def inv(self, i: int) -> int:
        r = self._inv_cache.get(i)
        if r is None:
            r = self._inv_cache[i] = self.index[self._inv_fn(self.elements[i])]
        return r

    def pow_id(self, i: int, e: int) -> int:
        if e < 0:
            i, e = self.inv(i), -e
        result, base = self.identity_id, i
        while e:
            if e & 1:
                result = self.mult(result, base)
            base = self.mult(base, base)
            e >>= 1
        return result

    def element_order(self, i: int) -> int:
        r = self._order_cache.get(i)
        if r is None:
            r = self._order_cache[i] = \
                self.order_modulo(i, len(self.elements), {self.identity_id})
        return r

    def order_modulo(self, i: int, d: int, members: Container[int]) -> int:
        """The least r with i^r in `members`, a normal subgroup's ids, for
        a d with i^d there (|G|, or [G : N] by Lagrange in G/N): the order
        of the coset of i.  The r with i^r in it are the multiples of that
        order, so dividing d by each prime l while i^(d/l) stays in it
        leaves the order itself."""
        for ell in factorize(d):
            while d % ell == 0 and self.pow_id(i, d // ell) in members:
                d //= ell
        return d

    def conjugate_id(self, g: int, h: int) -> int:
        """g^(-1) h g."""
        return self.mult(self.mult(self.inv(g), h), g)


def cayley_walk(identity, gens: Sequence, op: Callable, bound: int):
    """The breadth-first walk of the right Cayley graph of `gens` from
    `identity`, op(x, g) for each visited x in turn and each g in order, as
    the one definition of a Cayley-graph program (order, targets, first).

    order lists the visited elements, the subgroup gens generate, in
    discovery order; an element's position is its index there.  Edge
    i = pos * r + j, r = len(gens), runs from position pos by gens[j]:
    targets (array 'i') holds at i the position of op(order[pos], gens[j]),
    and first (a bytearray) 1 exactly on the edges that first reach their
    target, the tree edges, and 0 elsewhere: 5 bytes per edge.  Raises
    EnumerationBound once more than `bound` elements are reached."""
    pos_of = {identity: 0}
    order = [identity]
    targets, first = array("i"), bytearray()
    for x in order:
        for g in gens:
            y = op(x, g)
            t = pos_of.get(y)
            if t is None:
                if len(order) >= bound:
                    raise EnumerationBound(f"generator closure exceeds bound {bound}")
                t = pos_of[y] = len(order)
                order.append(y)
                first.append(1)
            else:
                first.append(0)
            targets.append(t)
    return order, targets, first


def from_generators(gens: Sequence, op: Callable, identity, *,
                    inv: Callable, label: str = "",
                    meta: Optional[dict] = None) -> FiniteGroup:
    """The group generated by `gens`, enumerated by one `cayley_walk` over
    its distinct non-identity generators in sorted order, up to
    DEFAULT_ORDER_BOUND elements.  They
    become the `gens_hint`, whose ids then increase, so the walk is the one
    `census._bfs_program` makes over them; it is kept in `bfs_programs`,
    with the order as ids.  A closure needs no proof that it is generated.
    """
    live = sorted({g for g in gens if g != identity})
    order, targets, first = cayley_walk(identity, live, op, DEFAULT_ORDER_BOUND)
    group = FiniteGroup(order, op, identity, inv=inv, label=label, meta=meta,
                        gens_hint=live)
    group.bfs_programs[group.gens_hint] = \
        [group.index[x] for x in order], targets, first
    return group


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with componentwise operation on element pairs."""

    def op(u, v):
        return (a.op(u[0], v[0]), b.op(u[1], v[1]))

    def inv(u):
        return (a.elements[a.inv(a.index[u[0]])], b.elements[b.inv(b.index[u[1]])])

    return FiniteGroup([(x, y) for x in a.elements for y in b.elements], op,
                       (a.identity, b.identity), inv=inv, label=f"{a.label}x{b.label}")


# ---------------------------------------------------------------------------
# group specifications


class GroupSpec:
    """Base description of a matrix group defined over F_q, q = p^e.

    Subclasses fix the matrix shape, the membership predicate, and the
    enumeration strategy.  The predicate must hold for the identity matrix,
    and its coefficients must lie in the base field; both are structural for
    the built-ins.  `entry_degree(n)` is the subfield degree (over F_p) that
    entries of level-n rational points live in.  Points, generators and
    predicate arguments are flat entry tuples (`Flat`).  Specs compare and
    hash by (class, m, p, e).
    """

    tag: str = ""
    strategy: str = "scan"  # "parametrized" | "closure" | "scan"

    def __init__(self, m: int, p: int, e: int = 1):
        if m < 1:
            raise ValueError(f"matrix dimension must be positive, got m={m}")
        if e < 1:
            raise ValueError(f"base field degree must be positive, got e={e}")
        self.m = m
        self.p = p
        self.e = e

    @property
    def q(self) -> int:
        return self.p**self.e

    def entry_degree(self, n: int) -> int:
        """ValueError naming n when n < 1; every path that sizes a field or
        enumerates points calls this before it uses n."""
        if n < 1:
            raise ValueError(f"level n must be positive, got n={n}")
        return self.e * n

    def frobenius_exponent(self, n: int) -> int:
        """Exponent t such that sigma_{q^n} is x -> x^(p^t)."""
        return self.e * n

    def predicate(self, mat: Flat, field: AmbientField, n: int) -> bool:
        raise NotImplementedError

    def scan_points(self, field: AmbientField, n: int) -> Iterator[Flat]:
        """Parametrized enumeration, each point once; only for strategy ==
        'parametrized'."""
        raise NotImplementedError

    def generators(self, field: AmbientField, n: int) -> list[Flat]:
        """Generators for closure enumeration; only for strategy == 'closure'."""
        raise NotImplementedError

    def point_generators(self, field: AmbientField, n: int) -> Optional[list[Flat]]:
        """Canonical small generating set of the point group, if one is known."""
        return None

    def product(self, field: AmbientField) -> Callable[[Flat, Flat], Flat]:
        """The product of two points over field, the op of their point
        group: `field.mat_mul`, unless the spec's shape allows less work."""
        return field.mat_mul

    def __eq__(self, other: object) -> bool:
        """Two specs are equal when they have the same class, m, p and e,
        and so the same points at every level."""
        return isinstance(other, GroupSpec) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return (type(self), self.m, self.p, self.e)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.m}, q={self.q})"


class FixedSizeSpec(GroupSpec):
    """A spec whose matrix size `size` is fixed by its class: it is built
    from (p, e) alone, and its group labels omit the size."""

    size: int

    def __init__(self, p: int, e: int = 1):
        super().__init__(self.size, p, e)


class GmSpec(FixedSizeSpec):
    """Multiplicative group as invertible 1x1 matrices."""

    tag = "Gm"
    strategy = "parametrized"
    size = 1

    def predicate(self, mat: Flat, field: AmbientField, n: int) -> bool:
        return any(mat[0])

    def scan_points(self, field: AmbientField, n: int) -> Iterator[Flat]:
        for c in field.enumerate_subfield(self.entry_degree(n)):
            if any(c):
                yield (c,)

    def point_generators(self, field: AmbientField, n: int) -> Optional[list[Flat]]:
        d = self.entry_degree(n)
        if field.p**d == 2:  # trivial group
            return []
        return [(subfield_generator(field, d),)]


class GaSpec(FixedSizeSpec):
    """Additive group realized as upper unitriangular 2x2 matrices."""

    tag = "Ga"
    strategy = "parametrized"
    size = 2

    def predicate(self, mat: Flat, field: AmbientField, n: int) -> bool:
        a, b, c, d = mat
        return a == field.one and d == field.one and c == field.zero \
            and field.in_subfield(b, self.entry_degree(n))

    def scan_points(self, field: AmbientField, n: int) -> Iterator[Flat]:
        one, zero = field.one, field.zero
        for t in field.enumerate_subfield(self.entry_degree(n)):
            yield (one, t, zero, one)

    def point_generators(self, field: AmbientField, n: int) -> Optional[list[Flat]]:
        one, zero = field.one, field.zero
        basis = field.subfield_basis(self.entry_degree(n))
        return [(one, b, zero, one) for b in basis]


def _norm_matrix(field: AmbientField, a: Coeffs, b: Coeffs) -> Flat:
    return (a, field.neg(b), b, field.sub(a, b))


def _cover_matrix(field: AmbientField, a: Coeffs, b: Coeffs, c: Coeffs) -> Flat:
    """The norm-torus cover point diag(M(a, b), c)."""
    zero = field.zero
    return (a, field.neg(b), zero,
            b, field.sub(a, b), zero,
            zero, zero, c)


def _norm_det(field: AmbientField, a: Coeffs, b: Coeffs) -> Coeffs:
    # a^2 - ab + b^2
    return field.add(field.sub(field.mul(a, a), field.mul(a, b)), field.mul(b, b))


def _cube_root_of_unity(field: AmbientField) -> Coeffs:
    """A primitive third root of unity; scalar 1 in characteristic 3."""
    if field.p == 3:
        return field.one
    xi = _element_of_order(field, 3)
    if xi is None:
        raise VerificationError("ambient field must contain cube roots of unity")
    return xi


def _norm_from_eigenvalues(field: AmbientField, u: Coeffs, v: Coeffs,
                           xi: Coeffs) -> Flat:
    """The norm-torus matrix with eigenvalues a + xi*b = u and a + xi^2*b = v."""
    xi2 = field.mul(xi, xi)
    b = field.mul(field.sub(u, v), field.inv(field.sub(xi, xi2)))
    a = field.sub(u, field.mul(xi, b))
    return _norm_matrix(field, a, b)


def _norm_zeros(field: AmbientField, d: int) -> list[Coeffs]:
    """The roots rho of t^2 - t + 1 in the subfield F_{p^d}: a^2 - ab + b^2,
    for a != 0, vanishes exactly at b = a rho, since it is a^2 (t^2 - t + 1)
    at t = b / a, and at a = 0 only for b = 0.  Outside characteristic 3
    the roots are -xi and -xi^2 for a primitive cube root of unity xi, in
    F_{p^d} exactly when 3 divides p^d - 1; in characteristic 3 the form is
    (a + b)^2 and -1 is its double root."""
    if field.p != 3 and (field.p**d - 1) % 3:
        return []
    xi = _cube_root_of_unity(field)
    return sorted({field.neg(xi), field.neg(field.mul(xi, xi))})


class NormTorusSpec(FixedSizeSpec):
    """Plane torus of matrices {{a, -b}, {b, a-b}} with a^2 - ab + b^2 != 0.

    Splits over fields containing a primitive cube root of unity, where it is
    isomorphic to a product of two multiplicative groups; otherwise its point
    group is cyclic.  In characteristic 3 the defining form degenerates to
    (a + b)^2 and the point group picks up an additive factor.
    """

    tag = "NormTorus"
    strategy = "parametrized"
    size = 2

    def predicate(self, mat: Flat, field: AmbientField, n: int) -> bool:
        a, mb, b, amb = mat
        return mb == field.neg(b) and amb == field.sub(a, b) \
            and any(_norm_det(field, a, b))

    def scan_points(self, field: AmbientField, n: int) -> Iterator[Flat]:
        """Every pair (a, b) of the entry subfield, a outer and b inner,
        except the zero set of a^2 - ab + b^2 (`_norm_zeros`)."""
        d = self.entry_degree(n)
        sub = field.enumerate_subfield(d)
        negs = [field.neg(b) for b in sub]
        rhos = _norm_zeros(field, d)
        for a in sub:
            zeros = {field.mul(a, rho) for rho in rhos} if any(a) else {a}
            for b, nb in zip(sub, negs):
                if b not in zeros:
                    yield (a, nb, b, field.sub(a, b))

    def point_generators(self, field: AmbientField, n: int) -> Optional[list[Flat]]:
        d = self.entry_degree(n)
        p = field.p
        if p == 3:
            # C_{q^n - 1} scalar part x elementary abelian unipotent part
            gens = []
            if p**d > 2:
                g = subfield_generator(field, d)
                gens.append(_norm_matrix(field, g, field.zero))
            one = field.one
            for bvec in field.subfield_basis(d):
                if any(bvec):
                    gens.append(_norm_matrix(field, field.sub(one, bvec), bvec))
            return gens
        if (p**d - 1) % 3 == 0:
            # split: diagonalizable over the subfield itself
            xi = _cube_root_of_unity(field)
            if p**d == 2:
                return []
            g = subfield_generator(field, d)
            one = field.one
            return [_norm_from_eigenvalues(field, g, one, xi),
                    _norm_from_eigenvalues(field, one, g, xi)]
        # non-split: the point group is F_{Q^2}^* via a <-> a + xi*b, Q = p^d,
        # cyclic of order Q^2 - 1; its first point of that order generates
        order = p**(2 * d) - 1
        checks = [order // ell for ell in factorize(order)]
        one = [mat_identity(field, 2)]
        return [next(x for x in self.scan_points(field, n)
                     if all(field.mat_pow([x], c) != one for c in checks))]


class NormTorusCoverSpec(FixedSizeSpec):
    """Double cover of the norm torus: block diag(M(a, b), c) with
    c^2 = a^2 - ab + b^2."""

    tag = "NormTorusCover"
    strategy = "parametrized"
    size = 3

    def product(self, field: AmbientField) -> Callable[[Flat, Flat], Flat]:
        """The block product diag(A, c) diag(B, e) = diag(A B, c e): one 2x2
        `mat_mul` on entries 0, 1, 3, 4 and one `mul` on entry 8, zero at
        2, 5, 6 and 7.  It equals `mat_mul` on block-diagonal operands, as
        points are, and is wrong on any other."""
        mat_mul, mul, zero = field.mat_mul, field.mul, field.zero

        def block(x: Flat, y: Flat) -> Flat:
            r0, r1, r2, r3 = mat_mul((x[0], x[1], x[3], x[4]), (y[0], y[1], y[3], y[4]))
            return (r0, r1, zero, r2, r3, zero, zero, zero, mul(x[8], y[8]))

        return block

    def predicate(self, mat: Flat, field: AmbientField, n: int) -> bool:
        a, mb, z02, b, amb, z12, z20, z21, c = mat
        zero = field.zero
        shape_ok = (mb == field.neg(b) and amb == field.sub(a, b)
                    and z02 == zero and z12 == zero
                    and z20 == zero and z21 == zero)
        det = _norm_det(field, a, b)
        return shape_ok and any(det) and field.mul(c, c) == det

    def scan_points(self, field: AmbientField, n: int) -> Iterator[Flat]:
        """Every (a, b, c) of the entry subfield with c^2 = a^2 - ab + b^2
        != 0, a outer, then b, then c; squares and negatives are looked up."""
        sub = field.enumerate_subfield(self.entry_degree(n))
        squares = [field.mul(c, c) for c in sub]
        negs = [field.neg(b) for b in sub]
        roots: dict[Coeffs, list[Coeffs]] = {}
        for c, c2 in zip(sub, squares):
            roots.setdefault(c2, []).append(c)
        zero = field.zero
        for a, a2 in zip(sub, squares):
            for b, b2, nb in zip(sub, squares, negs):
                det = field.add(field.sub(a2, field.mul(a, b)), b2)
                if any(det):
                    amb = field.sub(a, b)
                    for c in roots.get(det, ()):
                        yield (a, nb, zero, b, amb, zero, zero, zero, c)


def _with_entry(field: AmbientField, m: int, i: int, j: int, x: Coeffs) -> Flat:
    """The m x m identity matrix with entry (i, j) replaced by x."""
    flat = list(mat_identity(field, m))
    flat[i * m + j] = x
    return tuple(flat)


class SLSpec(GroupSpec):
    """Special linear group, enumerated by transvection closure."""

    tag = "SL"
    strategy = "closure"

    def predicate(self, mat: Flat, field: AmbientField, n: int) -> bool:
        return mat_det(field, mat) == field.one

    def generators(self, field: AmbientField, n: int) -> list[Flat]:
        # E_ij(b) over an F_p-basis b of the entry subfield generates SL_m
        basis, m = field.subfield_basis(self.entry_degree(n)), self.m
        return [_with_entry(field, m, i, j, b)
                for i in range(m) for j in range(m) if i != j for b in basis]


class GLSpec(SLSpec):
    """General linear group: transvections plus one diagonal generator."""

    tag = "GL"
    strategy = "closure"

    def predicate(self, mat: Flat, field: AmbientField, n: int) -> bool:
        return any(mat_det(field, mat))

    def generators(self, field: AmbientField, n: int) -> list[Flat]:
        d = self.entry_degree(n)
        gens = [] if self.m == 1 else SLSpec.generators(self, field, n)
        if field.p**d > 2:
            gens.append(_with_entry(field, self.m, 0, 0, subfield_generator(field, d)))
        return gens


def _preserves_form(field: AmbientField, mat: Flat, form: Flat) -> bool:
    """mat^T form mat == form."""
    mul = field.mat_mul
    return mul(mul(mat_transpose(mat), form), mat) == form


class SpSpec(GroupSpec):
    """Symplectic group for the standard alternating form [[0, I], [-I, 0]]."""

    tag = "Sp"
    strategy = "scan"

    def __init__(self, m: int, p: int, e: int = 1):
        if m % 2:
            raise ValueError("symplectic groups need even dimension")
        super().__init__(m, p, e)

    def _form(self, field: AmbientField) -> Flat:
        m, h = self.m, self.m // 2
        flat = [field.zero] * (m * m)
        for i in range(h):
            flat[i * m + h + i] = field.one
            flat[(h + i) * m + i] = field.neg(field.one)
        return tuple(flat)

    def predicate(self, mat: Flat, field: AmbientField, n: int) -> bool:
        return _preserves_form(field, mat, self._form(field))


class SOSpec(GroupSpec):
    """Split special orthogonal group for the anti-diagonal form, in odd
    characteristic: in characteristic 2 that form is alternating, so the
    group it preserves is Sp, and the split SO needs a quadratic form."""

    tag = "SO"
    strategy = "scan"

    def __init__(self, *m_p_e: int):
        super().__init__(*m_p_e)
        if self.p == 2:
            raise ValueError("the split SO in characteristic 2 needs a quadratic "
                             "form, which SO does not take")

    def _form(self, field: AmbientField) -> Flat:
        m = self.m
        flat = [field.zero] * (m * m)
        for i in range(m):
            flat[i * m + m - 1 - i] = field.one
        return tuple(flat)

    def predicate(self, mat: Flat, field: AmbientField, n: int) -> bool:
        return _preserves_form(field, mat, self._form(field)) \
            and mat_det(field, mat) == field.one


class SUSpec(GroupSpec):
    """Special unitary group relative to the quadratic subextension.

    Level-n points have entries in F_{q^{2n}} and satisfy
    sigma_{q^n}(g)^T g = 1 together with det g = 1, for the identity
    hermitian form.
    """

    tag = "SU"
    strategy = "scan"

    def entry_degree(self, n: int) -> int:
        return 2 * super().entry_degree(n)

    def predicate(self, mat: Flat, field: AmbientField, n: int) -> bool:
        conj = mat_transpose(mat_frobenius(field, mat, self.frobenius_exponent(n)))
        return field.mat_mul(conj, mat) == mat_identity(field, self.m) \
            and mat_det(field, mat) == field.one


def builtin_specs() -> dict[str, type[GroupSpec]]:
    """The spec classes keyed by their tags, the stable CLI names."""
    return {cls.tag: cls for cls in (GLSpec, SLSpec, SpSpec, SOSpec, SUSpec, GmSpec,
                                     GaSpec, NormTorusSpec, NormTorusCoverSpec)}


def make_spec(name: str, p: int, e: int = 1, m: int = 2) -> GroupSpec:
    """The named spec over F_{p^e}; `m` is ignored by a fixed-size spec."""
    catalog = builtin_specs()
    if name not in catalog:
        raise ValueError(f"unknown spec {name!r}; known: {sorted(catalog)}")
    cls = catalog[name]
    return cls(p, e) if issubclass(cls, FixedSizeSpec) else cls(m, p, e)


# ---------------------------------------------------------------------------
# rational points


def _scan_all_matrices(spec: GroupSpec, field: AmbientField, n: int,
                       scan_limit: int) -> Iterator[Flat]:
    """The members of spec with level-n entries, from all len(sub)^(m^2)
    matrices over the entry subfield, each once; raises EnumerationBound
    past scan_limit."""
    d = spec.entry_degree(n)
    sub = field.enumerate_subfield(d)
    if len(sub) ** (spec.m**2) > scan_limit:
        raise EnumerationBound(
            f"full scan of {len(sub)}^{spec.m**2} matrices exceeds bound {scan_limit}")
    for combo in itertools.product(sub, repeat=spec.m**2):
        if spec.predicate(combo, field, n):
            yield combo


def rational_points(spec: GroupSpec, n: int, ambient: AmbientField) -> FiniteGroup:
    """Enumerate the group of level-n rational points of a spec.

    The ambient field must contain the entry subfield.  The returned group
    holds flat entry tuples, multiplied by the spec's `product` and inverted
    by `mat_inv`, and records `ambient` as `meta["field"]`.  It is canonical:
    element ids depend only on (spec, n, ambient degree).  Other than a
    "closure" spec (`from_generators`), the spec's declared point
    generators, each checked to be a point, become its `gens_hint`; only
    `census._bfs_program` proves that they generate.  `spec.strategy` picks
    the enumeration, whose points are distinct by construction (a duplicate
    raises in `FiniteGroup`); more than DEFAULT_ORDER_BOUND points raise
    EnumerationBound, and so does a "scan" spec whose full scan would pass
    DEFAULT_MATRIX_SCAN_LIMIT matrices.
    """
    if spec.p != ambient.p:
        raise ValueError("spec and ambient field have different characteristics")
    d = spec.entry_degree(n)
    if ambient.degree % d:
        raise ValueError(
            f"subfield of degree {d} unavailable in ambient of degree {ambient.degree}")
    identity = mat_identity(ambient, spec.m)
    if not spec.predicate(identity, ambient, n):
        raise ValueError(f"identity fails membership predicate of {spec!r}")
    meta = {"spec": spec, "n": n, "q": spec.q, "field": ambient}
    op, inv = spec.product(ambient), partial(mat_inv, ambient)
    if spec.strategy == "parametrized":
        elems = list(spec.scan_points(ambient, n))
    elif spec.strategy == "closure":
        return from_generators(spec.generators(ambient, n), op, identity,
                               inv=inv, meta=meta,
                               label=f"{spec.tag}{spec.m}(F_{spec.q}^{n})")
    elif spec.strategy == "scan":
        elems = list(_scan_all_matrices(spec, ambient, n, DEFAULT_MATRIX_SCAN_LIMIT))
    else:
        raise ValueError(f"unknown strategy {spec.strategy!r}")
    if len(elems) > DEFAULT_ORDER_BOUND:
        raise EnumerationBound(
            f"group order {len(elems)} exceeds bound {DEFAULT_ORDER_BOUND}")
    fixed = isinstance(spec, FixedSizeSpec)
    tag = f"{spec.tag}{spec.m if spec.m > 1 and not fixed else ''}"
    return FiniteGroup(elems, op, identity, inv=inv,
                       label=f"{tag}(F_{spec.q}^{n})", meta=meta,
                       gens_hint=spec.point_generators(ambient, n))
