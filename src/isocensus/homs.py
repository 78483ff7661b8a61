"""Isogenies between matrix group specs and their finite-level invariants.

An isogeny here is a polynomial matrix map with finite geometric kernel,
restricted to enumerated rational-point groups.  The catalog covers power
maps g -> g^k on tori (requiring k coprime to q), the double cover of the
norm torus, identity maps, and composites; each knows how to produce its
geometric kernel and rational preimages without scanning large fields.

Central objects:

* kernel_points: the full geometric kernel as a finite group, together with
  the minimal level m at which it is entirely rational.
* image: the one map applied to every level-n point, an Image value that
  each reader is passed; check_image_index reads [G : image] = #rational
  kernel off it, and cokernel checks G/image against ker/lang(ker).
* lang_map: the twisted translation y -> y^(-1) sigma_{q^n}(y), surjective
  over the closure; its restriction to the kernel drives the cokernel.
* with_sections: the connecting map mu of a cokernel, defined on every
  codomain point x as the class of lang(section(x)) in ker/lang(ker) for
  the tabulated preimage section(x) of x.
* induced_isogeny_reaches: the bootstrap that quotients the domain by a
  sigma-stable subgroup K of the kernel so that the induced isogeny's
  rational image grows to a prescribed subgroup H, decided by id arithmetic
  on one cokernel.  reached_by proves its premises once per isogeny (every
  section is a preimage, the kernel is abelian) and asks it for every
  subgroup of a census.

Preimages are found by k-th root extraction in the ambient field (power
maps diagonalize over the splitting field of the torus), so no large-field
scans occur; the ambient field must be planned large enough.  plan_degree
is the one planner: it turns the degree helpers on each isogeny into the
ambient degree by integer arithmetic, for the CLI and the experiments alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from math import gcd, lcm
from typing import Optional, Sequence

from . import census
from .ffield import (AmbientField, Flat, VerificationError, kth_root, prime_power,
                     _element_of_order)
from .matgroup import (FiniteGroup, GmSpec, GroupSpec, NormTorusCoverSpec,
                       NormTorusSpec, mat_frobenius, mat_identity, mat_inv,
                       rational_points, _cover_matrix,
                       _cube_root_of_unity, _norm_det, _norm_from_eigenvalues,
                       _norm_matrix)


class KernelNotCaptured(RuntimeError):
    """The ambient field is too small to contain the full geometric kernel."""


class PreimageNotFound(RuntimeError):
    """A section generator has no preimage in the ambient field, which was
    planned smaller than the isogeny's section_degree requires."""


def _mult_ord(a: int, mod: int) -> int:
    """Multiplicative order of a modulo mod (gcd(a, mod) = 1)."""
    if mod == 1:
        return 1
    t, cur = 1, a % mod
    while cur != 1:
        cur = cur * a % mod
        t += 1
    return t


class Isogeny:
    """Base class: a matrix map between two specs with finite kernel.

    Points are flat entry tuples over an ambient field, as the point groups
    of `rational_points` hold them; `apply(field, points)` maps a sequence
    of them to the list of their images, so a caller pays one call per list.
    """

    name: str = ""

    def __init__(self, domain_spec: GroupSpec, codomain_spec: GroupSpec):
        self.domain_spec = domain_spec
        self.codomain_spec = codomain_spec

    @property
    def q(self) -> int:
        return self.codomain_spec.q

    def applies_to(self, spec: GroupSpec) -> bool:
        return spec == self.codomain_spec

    def apply(self, field: AmbientField, points: Sequence[Flat]) -> list[Flat]:
        raise NotImplementedError

    def kernel_field_degree(self) -> int:
        """Some s with the full geometric kernel rational at level s."""
        raise NotImplementedError

    def kernel_order(self) -> int:
        """Cardinality of the geometric kernel (the order of the isogeny)."""
        raise NotImplementedError

    def kernel_matrices(self, ambient: AmbientField) -> list[Flat]:
        """The geometric kernel, or raise KernelNotCaptured."""
        raise NotImplementedError

    def section_over(self, x: Flat, ambient: AmbientField) -> Optional[Flat]:
        """Some preimage of the codomain point x inside the ambient field."""
        raise NotImplementedError

    def section_degree(self, n: int) -> int:
        """An s with the whole preimage of the level-n codomain points
        rational at level n*s, so root extraction at that level finds every
        section; integer arithmetic only."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<isogeny {self.name}: {self.domain_spec!r} -> {self.codomain_spec!r}>"


class IdentityIsogeny(Isogeny):
    def __init__(self, spec: GroupSpec):
        super().__init__(spec, spec)
        self.name = "id"

    def apply(self, field: AmbientField, points: Sequence[Flat]) -> list[Flat]:
        return list(points)

    def kernel_field_degree(self) -> int:
        return 1

    def kernel_order(self) -> int:
        return 1

    def kernel_matrices(self, ambient: AmbientField) -> list[Flat]:
        return [mat_identity(ambient, self.domain_spec.m)]

    def section_over(self, x: Flat, ambient: AmbientField) -> Optional[Flat]:
        return x

    def section_degree(self, n: int) -> int:
        return 1


class PowerIsogeny(Isogeny):
    """g -> g^k on a torus spec; an isogeny exactly when gcd(k, q) = 1."""

    def __init__(self, spec: GroupSpec, k: int):
        if not isinstance(spec, (GmSpec, NormTorusSpec)):
            raise ValueError("power isogenies are defined on torus specs")
        if k < 1:
            raise ValueError("power exponent must be positive")
        if gcd(k, spec.q) != 1:
            raise ValueError(f"power map with k={k} is not an isogeny over q={spec.q}")
        super().__init__(spec, spec)
        self.k = k
        self.name = f"pow:{k}"

    def apply(self, field: AmbientField, points: Sequence[Flat]) -> list[Flat]:
        return field.mat_pow(points, self.k)

    def _is_plane_torus(self) -> bool:
        return isinstance(self.domain_spec, NormTorusSpec)

    def _needs_cube_root(self) -> bool:
        return self._is_plane_torus() and self.domain_spec.p != 3

    def kernel_order(self) -> int:
        return self.k * self.k if self._needs_cube_root() else self.k

    def kernel_field_degree(self) -> int:
        s = _mult_ord(self.q, self.k)
        if self._needs_cube_root():
            s_xi = 1 if (self.q - 1) % 3 == 0 else 2
            s = lcm(s, s_xi)
        return s

    def kernel_matrices(self, ambient: AmbientField) -> list[Flat]:
        k = self.k
        roots_of_unity = lcm(k, 3) if self._needs_cube_root() else k
        if (ambient.order - 1) % roots_of_unity:
            raise KernelNotCaptured(
                f"mu_{roots_of_unity} not contained in field of order {ambient.order}")
        delta = ambient.one if k == 1 else _element_of_order(ambient, k)
        if delta is None:
            raise VerificationError(f"no element of order {k} despite mu_{k} in field")
        roots = [ambient.one]
        for _ in range(k - 1):
            roots.append(ambient.mul(roots[-1], delta))
        if not self._is_plane_torus():
            return [(r,) for r in roots]
        if self.domain_spec.p == 3:
            return [_norm_matrix(ambient, r, ambient.zero) for r in roots]
        xi = _cube_root_of_unity(ambient)
        return [_norm_from_eigenvalues(ambient, u, v, xi)
                for u in roots for v in roots]

    def section_degree(self, n: int) -> int:
        q, k = self.q, self.k
        nonsplit = self._needs_cube_root() and (q**n - 1) % 3 != 0
        # over a non-split level the eigenvalues live in the quadratic
        # extension, and the two roots are extracted independently there
        level, scale = (2 * n, 2) if nonsplit else (n, 1)
        # the k-th roots of F_Q^* form a cyclic group of order k(Q-1), inside
        # F_{Q^s} exactly when k(Q-1) divides Q^s - 1; the least such s is
        # the order of Q mod k(Q-1), at most k
        big_q = q**level
        return scale * _mult_ord(big_q, k * (big_q - 1))

    def section_over(self, x: Flat, ambient: AmbientField) -> Optional[Flat]:
        k = self.k
        if not self._is_plane_torus():
            r = kth_root(ambient, x[0], k)
            return None if r is None else (r,)
        a, b = x[0], x[2]
        if self.domain_spec.p == 3:
            e0 = ambient.add(a, b)
            root = kth_root(ambient, e0, k)
            if root is None:
                return None
            # unipotent part: solve k * root^(k-1) * f = b
            scale = ambient.mul(ambient.from_int(k), ambient.pow(root, k - 1))
            f = ambient.mul(b, ambient.inv(scale))
            y = _norm_matrix(ambient, ambient.sub(root, f), f)
        else:
            if (ambient.order - 1) % 3:
                raise KernelNotCaptured(
                    "ambient field lacks a primitive cube root of unity")
            xi = _cube_root_of_unity(ambient)
            xi2 = ambient.mul(xi, xi)
            u = ambient.add(a, ambient.mul(xi, b))
            v = ambient.add(a, ambient.mul(xi2, b))
            ru = kth_root(ambient, u, k)
            rv = kth_root(ambient, v, k)
            if ru is None or rv is None:
                return None
            y = _norm_from_eigenvalues(ambient, ru, rv, xi)
        if self.apply(ambient, [y]) != [x]:
            raise VerificationError(f"{self.name}: extracted section is not a preimage")
        return y


class NormCoverIsogeny(Isogeny):
    """The double cover of the norm torus, forgetting the extra entry c."""

    def __init__(self, p: int, e: int = 1):
        super().__init__(NormTorusCoverSpec(p, e), NormTorusSpec(p, e))
        self.name = "normcover"

    def apply(self, field: AmbientField, points: Sequence[Flat]) -> list[Flat]:
        return [(x[0], x[1], x[3], x[4]) for x in points]

    def kernel_order(self) -> int:
        return 1 if self.q % 2 == 0 else 2

    def kernel_field_degree(self) -> int:
        return 1

    def kernel_matrices(self, ambient: AmbientField) -> list[Flat]:
        one, zero = ambient.one, ambient.zero
        mats = [mat_identity(ambient, 3)]
        if self.q % 2:
            mats.append((one, zero, zero,
                         zero, one, zero,
                         zero, zero, ambient.neg(one)))
        return mats

    def section_degree(self, n: int) -> int:
        # c^2 = det lands in the quadratic extension; in characteristic 2
        # squaring is bijective and the cover is one-to-one on points
        return 1 if self.q % 2 == 0 else 2

    def section_over(self, x: Flat, ambient: AmbientField) -> Optional[Flat]:
        a, b = x[0], x[2]
        det = _norm_det(ambient, a, b)
        c = kth_root(ambient, det, 2)
        return None if c is None else _cover_matrix(ambient, a, b, c)


class CompositeIsogeny(Isogeny):
    """outer o inner, with kernels and sections assembled from the factors."""

    def __init__(self, outer: Isogeny, inner: Isogeny):
        if inner.codomain_spec != outer.domain_spec:
            raise ValueError("composite factors do not chain: the inner "
                             "codomain must be the outer domain")
        super().__init__(inner.domain_spec, outer.codomain_spec)
        self.outer = outer
        self.inner = inner
        self.name = f"compose:({outer.name},{inner.name})"

    def apply(self, field: AmbientField, points: Sequence[Flat]) -> list[Flat]:
        return self.outer.apply(field, self.inner.apply(field, points))

    def kernel_order(self) -> int:
        return self.outer.kernel_order() * self.inner.kernel_order()

    def kernel_field_degree(self) -> int:
        so = self.outer.kernel_field_degree()
        return lcm(self.inner.kernel_field_degree(),
                   so * self.inner.section_degree(so))

    def kernel_matrices(self, ambient: AmbientField) -> list[Flat]:
        inner_kernel = self.inner.kernel_matrices(ambient)
        out = []
        for w in self.outer.kernel_matrices(ambient):
            y0 = self.inner.section_over(w, ambient)
            if y0 is None:
                raise KernelNotCaptured(
                    f"{self.name}: no preimage of an outer kernel point in ambient")
            out.extend(ambient.mat_mul(y0, a) for a in inner_kernel)
        return out

    def section_degree(self, n: int) -> int:
        so = self.outer.section_degree(n)
        return so * self.inner.section_degree(n * so)

    def section_over(self, x: Flat, ambient: AmbientField) -> Optional[Flat]:
        mid = self.outer.section_over(x, ambient)
        if mid is None:
            return None
        return self.inner.section_over(mid, ambient)


def parse_isogeny(text: str, spec: GroupSpec) -> Isogeny:
    """The catalog isogeny named pow:K, normcover, id or compose:(outer,inner)
    over spec; normcover takes only its p and e.  Raises ValueError on any
    other name and on pow:K over a spec that is not a torus."""
    text = text.strip()
    if text == "normcover":
        return NormCoverIsogeny(spec.p, spec.e)
    if text == "id":
        return IdentityIsogeny(spec)
    if text.startswith("pow:"):
        try:
            k = int(text[len("pow:"):])
        except ValueError:
            raise ValueError(f"{text!r}: pow:K needs an integer K") from None
        return PowerIsogeny(spec, k)
    if text.startswith("compose:(") and text.endswith(")"):
        inner = text[len("compose:("):-1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return CompositeIsogeny(parse_isogeny(inner[:i], spec),
                                        parse_isogeny(inner[i + 1:], spec))
        raise ValueError(f"malformed composite {text!r}")
    raise ValueError(f"unknown isogeny {text!r}; use pow:K, normcover, id, "
                     "or compose:(a,b)")


def plan_degree(*isogenies: Isogeny, n: Optional[int] = None,
                sections: bool = False) -> int:
    """Degree over F_p of the one ambient field a computation needs.

    Without n: the geometric kernel, e * kernel_field_degree().  With n: the
    level-n points of domain and codomain, the lcm of their entry degrees
    (e*n for the catalog).  With sections as well: the points, the kernel
    and rational sections, e * lcm(n * section_degree(n),
    kernel_field_degree()).  Several isogenies get the lcm of their plans.
    ValueError when n < 1, from `entry_degree`, which runs before
    `section_degree`.
    """
    degree = 1
    for iso in isogenies:
        e = iso.codomain_spec.e
        if n is None:
            degree = lcm(degree, e * iso.kernel_field_degree())
            continue
        degree = lcm(degree, iso.domain_spec.entry_degree(n),
                     iso.codomain_spec.entry_degree(n))
        if sections:
            degree = lcm(degree, e * lcm(n * iso.section_degree(n),
                                         iso.kernel_field_degree()))
    return degree


# ---------------------------------------------------------------------------
# finite-level operations


def kernel_points(iso: Isogeny, ambient: AmbientField) -> tuple[FiniteGroup, int]:
    """The full geometric kernel as a group, and the minimal level m with
    kernel = kernel(F_{q^m}).  Every element is checked to map to the
    identity; the cokernel and every induced isogeny rest on this.  Like a
    point group, the kernel holds flats and records `meta["field"]`."""
    mats = iso.kernel_matrices(ambient)
    group = FiniteGroup(mats, ambient.mat_mul, mat_identity(ambient, iso.domain_spec.m),
                        inv=partial(mat_inv, ambient), label=f"ker({iso.name})",
                        meta={"isogeny": iso.name, "field": ambient})
    one = mat_identity(ambient, iso.codomain_spec.m)
    if any(x != one for x in iso.apply(ambient, group.elements)):
        raise VerificationError(f"{iso.name}: a kernel point does not map to the identity")
    if len(group) != iso.kernel_order():
        raise KernelNotCaptured(
            f"{iso.name}: found {len(group)} kernel points, expected {iso.kernel_order()}")
    e = iso.domain_spec.e
    m = 1
    for g in group.elements:
        t = 1
        cur = mat_frobenius(ambient, g, e)
        while cur != g:
            cur = mat_frobenius(ambient, cur, e)
            t += 1
        m = lcm(m, t)
    return group, m


@dataclass(frozen=True)
class Image:
    """The sorted codomain ids of the level-n image, and the rational
    kernel: the number of domain points mapped to the identity."""

    codomain: FiniteGroup
    ids: tuple[int, ...]
    rational_kernel: int


def image(iso: Isogeny, n: int, ambient: AmbientField, *,
          domain: Optional[FiniteGroup] = None,
          codomain: Optional[FiniteGroup] = None) -> Image:
    """phi applied to every level-n domain point, once, in one `apply` call
    on the whole domain.  A point group not given is enumerated in the
    ambient field, except that a domain with the codomain's spec reuses the
    codomain points."""
    if codomain is None:
        codomain = rational_points(iso.codomain_spec, n, ambient)
    if domain is None:
        domain = codomain if iso.domain_spec == iso.codomain_spec \
            else rational_points(iso.domain_spec, n, ambient)
    values = list(map(codomain.index.get, iso.apply(ambient, domain.elements)))
    if None in values:
        raise VerificationError(f"{iso.name} maps a rational point outside "
                                "the codomain point group")
    return Image(codomain, tuple(sorted(set(values))),
                 values.count(codomain.identity_id))


def check_image_index(img: Image) -> tuple[int, int, bool]:
    """([G : image], #rational kernel, equality flag)."""
    index = len(img.codomain) // len(img.ids)
    return index, img.rational_kernel, index == img.rational_kernel


def lang_map(field: AmbientField, y: Flat, q: int, n: int) -> Flat:
    """The twisted translation y -> y^(-1) sigma_{q^n}(y) of a point y over
    field."""
    p, e = prime_power(q)
    if p != field.p:
        raise ValueError(f"q={q} is not a power of the field characteristic {field.p}")
    return field.mat_mul(mat_inv(field, y), mat_frobenius(field, y, e * n))


@dataclass
class CokernelData:
    """Everything the cokernel isomorphism produces at one level n."""

    invariants: list[int]
    codomain: FiniteGroup
    image_ids: tuple[int, ...]
    reps: list[int]
    kernel_group: FiniteGroup
    kernel_min_level: int
    lang_image_ids: tuple[int, ...]
    kernel_proj: list[int]
    sections: Optional[list[Flat]] = None
    section_lang_ids: Optional[list[int]] = None
    section_gens: Optional[list[int]] = None

    def mu(self, x_id: int) -> int:
        """mu(x) as an id in ker/lang(ker): the class of lang(section(x)).
        Needs the section table; verify_mu proves it constant on image
        cosets."""
        return self.kernel_proj[self.section_lang_ids[x_id]]


def _section_table(iso: Isogeny, n: int, ambient: AmbientField,
                   codomain: FiniteGroup, kernel_group: FiniteGroup,
                   seed: int) -> tuple[list[Flat], list[int], list[int]]:
    """A preimage of every codomain point, its Lang value's kernel id, and
    the codomain generators the table is built from.

    Sections of a generating set are extended multiplicatively along the
    tree edges g -> g*s of the generators' Cayley-graph program
    (`census._bfs_program`, which proves that they generate), one product
    of the domain spec's `product` per element; the codomain must be
    abelian for the extension to stay a preimage.  That product may assume
    the shape of a point (the norm cover's block product), so each
    generator section is first checked with the domain spec's predicate;
    products of points are points.  Lang values follow the same products:
    lang(y*s) = s^(-1) lang(y) s lang(s), and lang(y) lies in the kernel,
    so lang(y*s) = lang(y) lang(s) for every y exactly when each kernel
    element commutes with each generator section s, which is checked by
    `mat_mul`: a kernel element need not be a point of the domain spec.
    """
    gens = census.small_generating_set(codomain, seed=seed)
    if any(codomain.mult(a, b) != codomain.mult(b, a)
           for a in gens for b in gens):
        raise ValueError("transversal construction needs an abelian codomain")
    spec, level = iso.domain_spec, n * iso.section_degree(n)
    mul = ambient.mat_mul
    ygens, ygen_lang = [], []
    for g in gens:
        y = iso.section_over(codomain.elements[g], ambient)
        if y is None:
            raise PreimageNotFound(
                f"{iso.name}: generator of level-{n} points has no preimage in "
                f"ambient of degree {ambient.degree}")
        if not spec.predicate(y, ambient, level):
            raise VerificationError(f"{iso.name}: a generator section is not a "
                                    f"point of {spec!r}")
        kid = kernel_group.index.get(lang_map(ambient, y, iso.q, n))
        if kid is None:
            raise VerificationError("lang value of a section must lie in the kernel")
        if any(mul(a, y) != mul(y, a) for a in kernel_group.elements):
            raise VerificationError("a kernel element does not commute with a section")
        ygens.append(y)
        ygen_lang.append(kid)
    bfs_ids, targets, first = census._bfs_program(codomain, gens)
    r = len(gens)
    sections: list[Optional[Flat]] = [None] * len(codomain)
    lang_ids: list[Optional[int]] = [None] * len(codomain)
    sections[codomain.identity_id] = mat_identity(ambient, spec.m)
    lang_ids[codomain.identity_id] = kernel_group.identity_id
    product = spec.product(ambient)
    for i in itertools.compress(range(len(first)), first):
        gpos, spos = divmod(i, r)
        g, t = bfs_ids[gpos], bfs_ids[targets[i]]
        sections[t] = product(sections[g], ygens[spos])
        lang_ids[t] = kernel_group.mult(lang_ids[g], ygen_lang[spos])
    return sections, lang_ids, gens


def cokernel(iso: Isogeny, n: int, img: Image,
             kernel_ambient: AmbientField) -> CokernelData:
    """The cokernel G(F_{q^n}) / image, checked against ker / lang(ker).
    The geometric kernel is enumerated in kernel_ambient, which must hold
    it; only abelian invariants cross the isomorphism, so that field may be
    smaller than the codomain points' one, unless with_sections follows.
    Both groups quotiented are abelian, so every subgroup is normal; each
    quotient is its coset labels (`census.quotient_group`), not a group:
    the codomain side keeps its minimal coset reps (`reps`, codomain ids in
    increasing order), and the kernel side the label of every kernel
    element (`kernel_proj`, read by mu)."""
    codomain, image_ids = img.codomain, img.ids
    reps, _ = census.quotient_group(codomain, image_ids)
    lhs = census.invariant_factors_abelian(codomain, reps, image_ids)

    kernel_group, min_level = kernel_points(iso, kernel_ambient)
    lam_ids = sorted({kernel_group.index[lang_map(kernel_ambient, a, iso.q, n)]
                      for a in kernel_group.elements})
    kreps, coset_of = census.quotient_group(kernel_group, lam_ids)
    kproj = list(map(coset_of, kernel_group.elements))
    rhs = census.invariant_factors_abelian(kernel_group, kreps, lam_ids)
    if lhs != rhs:
        raise VerificationError(
            f"cokernel invariants {lhs} differ from kernel-side invariants {rhs}")
    return CokernelData(invariants=lhs, codomain=codomain, image_ids=image_ids,
                        reps=reps, kernel_group=kernel_group,
                        kernel_min_level=min_level, lang_image_ids=tuple(lam_ids),
                        kernel_proj=kproj)


def with_sections(data: CokernelData, iso: Isogeny, n: int, *,
                  seed: int = 0) -> CokernelData:
    """data with the section table behind mu, its sections found by root
    extraction in the codomain points' field, which must hold the kernel
    (ValueError) and cover section_degree(n) (PreimageNotFound).  The
    section of every coset representative is checked to be a preimage."""
    codomain = data.codomain
    ambient = codomain.meta["field"]
    if data.kernel_group.meta["field"] != ambient:
        raise ValueError(f"the section table needs the kernel in {ambient!r}")
    sections, lang_ids, gens = _section_table(iso, n, ambient, codomain,
                                              data.kernel_group, seed)
    if iso.apply(ambient, [sections[x] for x in data.reps]) != \
            [codomain.elements[x] for x in data.reps]:
        raise VerificationError(f"{iso.name}: coset rep section is not a preimage")
    return replace(data, sections=sections, section_lang_ids=lang_ids, section_gens=gens)


def verify_mu(data: CokernelData) -> bool:
    """mu is a surjective homomorphism onto ker/lang(ker) with kernel the
    image subgroup.

    Reads mu on every codomain point and checks three things: mu is onto
    the classes of `kernel_proj`; the points it sends to the class of the
    identity are exactly the image; and on every edge x -> x*s of the
    Cayley-graph program of the section generators (`census._bfs_program`,
    which proves that they generate), kernel_proj[lang(x*s)] ==
    kernel_proj[lang(x) lang(s)], one product in the kernel group per edge.

    kernel_proj labels the cosets of lang(ker) in the abelian kernel, so it
    is a homomorphism onto ker/lang(ker), and the edge check says
    mu(x*s) = mu(x) mu(s) there.  That makes mu a homomorphism: mu(e) is the
    identity class, e lying in the image, and mu(x*w) = mu(x) mu(w) for
    every word w in the generators, by induction on its length (Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, 2005); the
    program's edges are the pairs (x, s), each once.  With the kernel equal
    to the image, mu is also constant on image cosets.  Costs
    |G| * |gens| kernel products.
    """
    proj, lang, kernel = data.kernel_proj, data.section_lang_ids, data.kernel_group
    values = [proj[v] for v in lang]
    if set(values) != set(proj):
        return False
    one = proj[kernel.identity_id]
    if {x for x, v in enumerate(values) if v == one} != set(data.image_ids):
        return False
    gens = data.section_gens
    bfs_ids, targets, _ = census._bfs_program(data.codomain, gens)
    r, gen_lang = len(gens), [lang[s] for s in gens]
    walked = [lang[x] for x in bfs_ids]
    return all(proj[walked[t]] == proj[kernel.mult(walked[i // r], gen_lang[i % r])]
               for i, t in enumerate(targets))


def induced_isogeny_reaches(data: CokernelData, h_ids: Sequence[int]
                            ) -> tuple[tuple[int, ...], bool]:
    """Quotient the domain by K = mu(H) pulled back into the kernel, and
    decide whether the induced isogeny's rational image is exactly H.

    Returns (kernel ids of K inside the geometric kernel group, reached == H).
    Requires image(level n) <= H and data with its section table.  The
    argument below also needs every section to be a preimage and the kernel
    to be abelian; reached_by proves both once per isogeny, before it calls
    this for each H.

    The rational points of G'/K are the cosets yK with lang(y) in K.  Such a
    y maps to a rational x, as lang(phi(y)) = phi(lang(y)) = 1 (kernel_points
    checks that kernel elements map to the identity), so y = section(x) a
    for a kernel element a, and lang(y) = lang(section(x)) lang(a) because
    lang(section(x)) lies in the abelian kernel.  K is a union of lang(ker)-cosets, so some a puts lang(y)
    in K exactly when lang(section(x)) lies in K.  Kernel elements commute
    with the generator sections (_section_table), so K is central in the
    group of sections times kernel elements, and the cosets form a group.
    Everything is therefore id arithmetic in the kernel group.
    """
    if data.section_lang_ids is None:
        raise ValueError("induced isogeny needs the cokernel's section table")
    hset = set(h_ids)
    if not hset.issuperset(data.image_ids):
        raise ValueError("induced isogeny needs image contained in H")
    kbar = {data.mu(h) for h in hset}
    k_ids = tuple(i for i, c in enumerate(data.kernel_proj) if c in kbar)
    reached = {x for x in range(len(data.codomain)) if data.mu(x) in kbar}
    return k_ids, reached == hset


def reached_by(codomain: FiniteGroup, subgroups: Sequence[Sequence[int]],
               isogenies: Sequence[Isogeny], n: int, ambient: AmbientField, *,
               seed: int = 0) -> list[dict[str, Optional[bool]]]:
    """For each subgroup H of the codomain points, one flag per isogeny:
    does its induced isogeny reach H?

    False when the level-n image is not contained in H; None when the
    isogeny does not apply to the codomain's spec.  The cokernel data, with
    its section table, is built once per isogeny and shared by every H.
    Before any H, this proves what induced_isogeny_reaches assumes: every
    section maps to its point, and the geometric kernel is abelian.
    """
    spec = codomain.meta.get("spec")
    flags: list[dict[str, Optional[bool]]] = [{} for _ in subgroups]
    for iso in isogenies:
        if spec is None or not iso.applies_to(spec):
            for f in flags:
                f[iso.name] = None
            continue
        img = image(iso, n, ambient, codomain=codomain)
        data = with_sections(cokernel(iso, n, img, ambient), iso, n, seed=seed)
        kernel = data.kernel_group
        if any(kernel.mult(a, b) != kernel.mult(b, a)
               for a in range(len(kernel)) for b in range(a)):
            raise VerificationError(f"ker({iso.name}) is not abelian")
        if iso.apply(ambient, data.sections) != list(data.codomain.elements):
            raise VerificationError(f"{iso.name}: a section is not a preimage")
        image_set = set(img.ids)
        for f, h_ids in zip(flags, subgroups):
            f[iso.name] = image_set.issubset(h_ids) and induced_isogeny_reaches(data, h_ids)[1]
    return flags
