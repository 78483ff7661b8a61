"""Exact enumeration of index-k subgroups and supporting group utilities.

Subgroups of index k in a concrete finite group G correspond to transitive
actions of G on k points with a marked basepoint: the subgroup is the
basepoint stabilizer.  The census finds these actions by Sims' low-index
backtracking (Sims, *Computation with Finitely Presented Groups*, 1994,
ch. 5) over the right Cayley graph of a small generating set: it labels
each element with the point of its coset, builds the generators' partial
permutations edge by edge in breadth-first order, and backtracks on any
edge where they disagree.  Points are numbered in order of first
appearance, so each subgroup is produced exactly once; the census finds all
subgroups of index exactly k, not just one per conjugacy class.

An independent oracle (`subgroup_lattice_oracle`) computes the full subgroup
lattice of small groups by closing the cyclic subgroups under joins with
cyclic subgroups; it exists purely to cross-check the census and shares no
code with it.  It reads every product from its own right-regular table, of
which only the columns of at most log2 |G| generators are multiplied and the
rest composed by associativity; it grows each join by whole right cosets of
the smaller subgroup (Dimino) and stops a join at G once it passes |G|/p
elements, p the least prime dividing |G| (Lagrange).

The normal core of every subgroup found at index k is the kernel of its
coset action and must have index between k and k! (the action embeds
G/core into Sym(k); the weaker k^k bound is implied).  The subgroup is
normal exactly when it equals its core.

The module returns subgroup handles, conjugacy classes and oracle lattices,
and holds no report type: the experiments and `isocensus census` each build
their own payload from these.
"""

from __future__ import annotations

import itertools
import random
from math import factorial, prod
from typing import Callable, Optional, Sequence

from .ffield import VerificationError, factorize
from .matgroup import EnumerationBound, FiniteGroup, cayley_walk

DEFAULT_CANDIDATE_BOUND = 10**6
DEFAULT_ORACLE_BOUND = 200


class CensusBoundExceeded(EnumerationBound):
    """A census search visits more branch points than the configured bound."""


class SubgroupHandle:
    """A subgroup of an enumerated parent group, as a sorted id tuple, with
    its normal core.  It is normal exactly when it is its own core: the core
    is the intersection of its conjugates."""

    def __init__(self, parent: FiniteGroup, ids: Sequence[int],
                 core_ids: Sequence[int]):
        self.parent = parent
        self.ids = tuple(sorted(ids))
        if len(parent) % len(self.ids):
            raise ValueError("subgroup order does not divide group order")
        self.index = len(parent) // len(self.ids)
        self.core_ids = tuple(sorted(core_ids))
        self.normal = self.core_ids == self.ids

    @property
    def order(self) -> int:
        return len(self.ids)

    @property
    def core_index(self) -> int:
        return len(self.parent) // len(self.core_ids)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubgroupHandle) and self.ids == other.ids \
            and self.parent is other.parent

    def __hash__(self) -> int:
        return hash(self.ids)

    def __repr__(self) -> str:
        return f"<subgroup of index {self.index} in {self.parent!r}>"


# ---------------------------------------------------------------------------
# generating sets


def small_generating_set(group: FiniteGroup, *, seed: int = 0) -> list[int]:
    """A small generating set of element ids, proved once and kept per seed.

    Prefers the group's declared generators: a pair or triple of them that
    generates, or else all of them (VerificationError naming the group if
    they do not generate).  Without a declaration it runs a seeded
    randomized search biased toward high-order elements, with a
    deterministic greedy-closure fallback that always succeeds.  Every
    candidate is tested by the walk of `_bfs_program`, and the program of
    the set returned is kept, so the census does not walk it again.
    """
    if seed not in group.generating_sets:
        group.generating_sets[seed] = tuple(_generating_set(group, seed))
    return list(group.generating_sets[seed])


def _generating_set(group: FiniteGroup, seed: int) -> list[int]:
    n = len(group)
    if n == 1:
        return []
    hint = group.gens_hint
    if hint:
        live = [i for i in hint if i != group.identity_id]
        if len(live) > 2:
            # try to prune a long hint down to a pair or triple
            ordered = sorted(live, key=lambda i: (-group.element_order(i), i))
            for size in (2, 3):
                for subset in itertools.combinations(ordered, size):
                    if len(_walk(group, subset)[0]) == n:
                        return list(subset)
        _bfs_program(group, live)
        return live
    rng = random.Random(seed)
    pool = sorted(rng.sample(range(n), min(n, 24)))
    pool = [i for i in pool if i != group.identity_id] or [group.identity_id]
    ranked = sorted(pool, key=lambda i: (-group.element_order(i), i))
    candidates = itertools.chain(itertools.combinations(ranked[:8], 1),
                                 itertools.combinations(ranked[:8], 2),
                                 itertools.combinations(ranked[:6], 3))
    for subset in candidates:
        if len(_walk(group, subset)[0]) == n:
            return list(subset)
    # deterministic greedy growth over the canonical element order
    gens: list[int] = []
    have = {group.identity_id}
    while len(have) < n:
        nxt = next(i for i in range(n) if i not in have)
        gens.append(nxt)
        have = set(_walk(group, gens)[0])
    return gens


# ---------------------------------------------------------------------------
# index-k census by low-index backtracking


def _walk(group: FiniteGroup, gen_ids: Sequence[int]):
    """The program (bfs_ids, targets, first) of `matgroup.cayley_walk` from
    the identity over the generators' elements by `group.op`, its order
    turned into ids by `group.index`; bfs_ids lists the subgroup they
    generate.  A program that reaches every element is kept on the group
    by generator tuple, where `from_generators` leaves the walk that built
    the group, and read from there.  The walk leaves nothing in the product
    cache: its targets already hold every product it takes."""
    key = tuple(gen_ids)
    program = group.bfs_programs.get(key)
    if program is None:
        elems, index = group.elements, group.index
        order, targets, first = cayley_walk(group.identity, [elems[g] for g in key],
                                            group.op, len(group))
        program = [index[x] for x in order], targets, first
        if len(order) == len(group):
            group.bfs_programs[key] = program
    return program


def _bfs_program(group: FiniteGroup, gen_ids: Sequence[int]):
    """The program of `_walk`, which must reach every element: the one
    proof that the generators generate (VerificationError otherwise)."""
    program = _walk(group, gen_ids)
    if len(program[0]) != len(group):
        raise VerificationError(f"generators {list(gen_ids)} do not generate {group!r}")
    return program


def index_k_subgroups(group: FiniteGroup, k: int, *,
                      gens: Optional[Sequence[int]] = None,
                      seed: int = 0) -> list[SubgroupHandle]:
    """All subgroups of index exactly k, as handles sorted by their ids.

    Sims' low-index search over the right Cayley graph of `gens`: each
    element g gets the point pt[g] of its coset, pt[e] = 0, and each
    generator s a partial permutation of k points, grown edge by edge in
    BFS order.  A tree edge g -> g*s whose image pt[g]^s is still undefined
    is a branch point: it tries every point without an s-preimage, then
    the next unused point.  Any other edge must agree with the partial
    permutation: an undefined pt[g]^s becomes pt[g*s] unless that point
    already has an s-preimage, and any conflict backtracks.  New points
    are numbered in order of first appearance, so each subgroup comes out
    once.  DEFAULT_CANDIDATE_BOUND caps the branch points visited; passing
    it raises `CensusBoundExceeded` rather than truncating.
    """
    if k < 1:
        raise ValueError("index must be positive")
    n = len(group)
    if k == 1:
        return [SubgroupHandle(group, range(n), range(n))]
    if n % k:
        return []
    if gens is None:
        gens = small_generating_set(group, seed=seed)
    if not gens:
        if n > 1:
            raise ValueError("empty generating set for a nontrivial group")
        return []  # trivial group, k > 1
    bfs_ids, targets, first = _bfs_program(group, gens)
    r = len(gens)
    fwd = [[-1] * k for _ in gens]
    bwd = [[-1] * k for _ in gens]
    pt = [0] * n
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    branch_points = 0

    def accept() -> None:
        # fwd is now total: the action of each element follows its tree edge
        act = [None] * n
        act[0] = ident = tuple(range(k))
        for i in itertools.compress(range(len(first)), first):
            act[targets[i]] = tuple(map(fwd[i % r].__getitem__, act[i // r]))
        found.append((tuple(sorted(bfs_ids[i] for i in range(n) if pt[i] == 0)),
                      tuple(sorted(bfs_ids[i] for i in range(n) if act[i] == ident))))

    def walk(start: int, used: int) -> None:
        nonlocal branch_points
        defined = []
        for i in range(start, len(targets)):
            gpos, spos = divmod(i, r)
            f, b = fwd[spos], bwd[spos]
            x, t = pt[gpos], targets[i]
            y = f[x]
            if not first[i]:
                z = pt[t]
                if y == z:
                    continue
                if y >= 0 or b[z] >= 0:
                    break
                f[x], b[z] = z, x
                defined.append((f, b, x, z))
            elif y >= 0:
                pt[t] = y
            else:
                branch_points += 1
                if branch_points > DEFAULT_CANDIDATE_BOUND:
                    raise CensusBoundExceeded(
                        f"census cell passed {DEFAULT_CANDIDATE_BOUND} branch points")
                for z in range(min(used + 1, k)):
                    if b[z] < 0:
                        f[x], b[z], pt[t] = z, x, z
                        walk(i + 1, used + (z == used))
                        f[x] = b[z] = -1
                break
        else:
            if used == k:
                accept()
        for f, b, x, z in defined:
            f[x] = b[z] = -1

    walk(0, 1)
    handles = [SubgroupHandle(group, ids, core) for ids, core in sorted(found)]
    for h in handles:
        if not (k <= h.core_index <= factorial(k)):
            raise VerificationError(
                f"core index {h.core_index} outside [k, k!] for k={k}")
    return handles


# ---------------------------------------------------------------------------
# independent oracle: full subgroup lattice by cyclic joins


def subgroup_lattice_oracle(group: FiniteGroup,
                            bound: int = DEFAULT_ORACLE_BOUND) -> list[tuple[int, ...]]:
    """Every subgroup of a small group, as sorted id tuples.

    Seeds with the cyclic subgroups, one chosen generator c for each, and
    joins every queued subgroup A with each chosen c outside A.  This is
    complete: for a subgroup H and a queued A < H, any h in H - A has a
    chosen generator c of <h> with c in H - A, so <A, c> is queued, lies
    in H and is larger than A.  Starting from the trivial subgroup, such a
    chain of cyclic joins reaches H.

    All products are read from the right-regular table right[t][a] = a t.
    Walking the ids in order, an element not yet reached becomes a new
    generator and its column costs n products of `group.op`, which leave
    nothing in the group's product cache; every other column is composed,
    col(u s) = [col(s)[x] for x in col(u)].  Each new generator at least
    doubles the reached subgroup, so at most floor(log2 n) columns are
    multiplied.  A cyclic subgroup is the walk of e along its generator's
    column.

    A join <A, c> is grown by right cosets of A (Dimino; G. Butler,
    *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991): from
    reps [e], each rep r and each s among A's generators and c give t = r s,
    and a t outside the union so far adds the coset A t as a new rep.  The
    union is closed under right multiplication by every s: h r s is h t,
    which lies in A t if t was added, and otherwise t = h' r' for a rep r',
    so h t = (h h') r' lies in A r'.  It contains e, so it is <A, c>.  Once
    the union has more than n/p elements, p the least prime dividing n, the
    join is G: its order divides n and exceeds n/p, the largest proper
    divisor of n.
    """
    n = len(group)
    if n > bound:
        raise EnumerationBound(f"oracle limited to order {bound}, got {n}")
    e = group.identity_id
    elems, index, op = group.elements, group.index, group.op
    right: list[Optional[list[int]]] = [None] * n
    right[e] = list(range(n))
    table_gens: list[int] = []
    reached = [e]
    for s in range(n):
        if right[s] is not None:
            continue
        t = elems[s]
        right[s] = [index[op(x, t)] for x in elems]
        table_gens.append(s)
        reached.append(s)
        # from the start: elements reached earlier meet the new generator
        for u in reached:
            col_u = right[u]
            for g in table_gens:
                col_g = right[g]
                t = col_g[u]
                if right[t] is None:
                    right[t] = [col_g[x] for x in col_u]
                    reached.append(t)
    gens_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i in range(n):
        col, x, powers = right[i], i, {e}
        while x not in powers:
            powers.add(x)
            x = col[x]
        gens_of.setdefault(tuple(sorted(powers)), (i,))
    cyclic = [g for (g,) in gens_of.values()]
    whole = tuple(range(n))
    lagrange = n // min(factorize(n), default=1)
    queue = list(gens_of)
    for a in queue:
        members = set(a)
        for c in cyclic:
            if c in members:
                continue
            gens = gens_of[a] + (c,)
            joined, reps = set(members), [e]
            for r in reps:
                for s in gens:
                    t = right[s][r]
                    if t not in joined:
                        col = right[t]
                        joined.update(map(col.__getitem__, a))
                        reps.append(t)
                if len(joined) > lagrange:
                    join = whole
                    break
            else:
                join = tuple(sorted(joined))
            if join not in gens_of:
                gens_of[join] = gens
                queue.append(join)
    return sorted(gens_of)


# ---------------------------------------------------------------------------
# quotients, centers, abelian structure


def quotient_group(group: FiniteGroup, normal_ids: Sequence[int]
                   ) -> tuple[list[int], Callable[[object], int]]:
    """The quotient by a normal subgroup N, a precondition that both program
    callers meet (they quotient abelian groups), as its coset labels: no
    group is built.

    Returns (reps, coset_of): reps the ids of the minimal coset reps in
    increasing order, and coset_of(x) the position in reps of the coset of
    the parent element x.  Walking the ids in order, x is the least element
    of a new coset exactly when r^(-1) x lies outside N for every rep r so
    far, until there are [G : N] reps.  Membership is tested by `group.op`
    and `group.index`, leaving the product cache as it was.  ValueError when
    |N| does not divide |G|; VerificationError for an element in no coset.
    """
    nset = set(normal_ids)
    n, elems, index, op = len(group), group.elements, group.index, group.op
    if not nset or n % len(nset):
        raise ValueError(f"{len(nset)} ids cannot be a subgroup of {group!r}")
    reps, rep_invs = [], []

    def find(x) -> Optional[int]:
        return next((j for j, r in enumerate(rep_invs) if index[op(r, x)] in nset), None)

    for i, x in enumerate(elems):
        if len(reps) == n // len(nset):
            break
        if find(x) is None:
            reps.append(i)
            rep_invs.append(elems[group.inv(i)])

    def coset_of(x) -> int:
        j = find(x)
        if j is None:
            raise VerificationError(f"an element of {group!r} lies in no coset "
                                    f"of the {len(nset)} ids")
        return j

    return reps, coset_of


def center(group: FiniteGroup) -> tuple[int, ...]:
    """Ids of elements commuting with a generating set (hence with all),
    compared as elements by `group.op`: no product is read twice, so none
    goes to the product cache."""
    op, elems = group.op, group.elements
    gens = [elems[g] for g in small_generating_set(group)]
    return tuple(i for i, x in enumerate(elems)
                 if all(op(x, g) == op(g, x) for g in gens))


def invariant_factors_abelian(group: FiniteGroup, reps: Sequence[int],
                              normal_ids: Sequence[int]) -> list[int]:
    """Invariant factors [d_1, ..., d_r], d_1 | d_2 | ... | d_r, of an
    abelian quotient G/N, given N and its coset reps (`quotient_group`); a
    whole group passes all its ids and its identity.

    The order of each coset xN is found as `FiniteGroup.element_order`
    finds an element's (`FiniteGroup.order_modulo`): from d = [G : N],
    divide out each prime l while x^(d/l) lies in N.  In a direct sum of
    cyclic p-groups with exponents e_1, e_2, ... the count of solutions of
    x^(p^i) = 1 is p to the power sum(min(i, e_j)), so the increments of its
    p-logarithm are the conjugate partition of the e_j; they sum to v, the
    Sylow p-subgroup having p^v elements for p^v the p-part of d.
    """
    index = len(reps)
    if index == 1:
        return []
    nset = set(normal_ids)
    orders = [group.order_modulo(x, index, nset) for x in reps]
    primary: dict[int, list[int]] = {}
    for p, v in factorize(index).items():
        # no e_j exceeds v, so i = 1 .. v reaches every increment
        logs = [0] + [_ilog(sum(1 for o in orders if p**i % o == 0), p)
                      for i in range(1, v + 1)]
        profile = [b - a for a, b in zip(logs, logs[1:])]
        # the exponents e_j in non-increasing order
        primary[p] = [sum(1 for e in profile if e > j) for j in range(profile[0])]
    width = max(map(len, primary.values()))
    return sorted(prod(p ** parts[t] for p, parts in primary.items() if t < len(parts))
                  for t in range(width))


def _ilog(x: int, p: int) -> int:
    e = 0
    while x > 1:
        x //= p
        e += 1
    return e


def conjugacy_classes_of_subgroups(parent: FiniteGroup,
                                   handles: Sequence[SubgroupHandle]
                                   ) -> list[list[SubgroupHandle]]:
    """Group subgroup handles into conjugacy classes.

    Orbits are grown by conjugating with a generating set; classes come out
    sorted by their smallest member, members sorted within each class.
    """
    gens = small_generating_set(parent)
    by_ids = {h.ids: h for h in handles}
    seen: set[tuple[int, ...]] = set()
    classes = []
    for ids in sorted(by_ids):
        if ids in seen:
            continue
        orbit = {ids}
        queue = [ids]
        while queue:
            cur = queue.pop()
            for g in gens:
                conj = tuple(sorted(parent.conjugate_id(g, x) for x in cur))
                if conj not in orbit:
                    orbit.add(conj)
                    queue.append(conj)
        members = sorted(orbit & set(by_ids))
        if orbit - set(by_ids):
            raise VerificationError("conjugate of a census subgroup is missing "
                                    "from the census")
        seen.update(members)
        classes.append([by_ids[m] for m in members])
    return classes

