"""Symbolic order formulas for rational-point groups.

Two independent routes to group orders, both in exact arbitrary-precision
integers: the BN-pair product

    |G(F_q)| = q^#(positive roots) * |T(F_q)| * sum over the Weyl group of
               q^length(w)

for a split group with maximal torus T, and the classical closed product
formulas for GL, SL, Sp, split odd SO, SU and the built-in tori.  Both must
agree with brute-force enumeration wherever enumeration is feasible; tests
and the experiment harness enforce this.

Only the split groups SL2, SL3 and Sp4 ship with hard-coded BN data (root
counts, torus rank and Weyl length multisets); there is no root-system
engine.  The Weyl summation is over the full Weyl group, which is the split
case of the general statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .ffield import prime_power


@dataclass(frozen=True)
class OrderFormula:
    """BN-pair order data for one split group.

    `torus_rank` encodes |T(F_q)| = (q - 1)^torus_rank; `weyl_lengths` is the
    multiset of element lengths of the Weyl group, which always contains the
    identity at length zero.
    """

    tag: str
    positive_roots: int
    torus_rank: int
    weyl_lengths: tuple[int, ...]

    def __post_init__(self):
        if not self.weyl_lengths:
            raise ValueError("Weyl group is never empty")
        if 0 not in self.weyl_lengths:
            raise ValueError("Weyl group contains the identity, of length zero")
        if any(l < 0 for l in self.weyl_lengths):
            raise ValueError("lengths are nonnegative integers")


BN_CATALOG: dict[str, OrderFormula] = {
    "SL2": OrderFormula("SL2", positive_roots=1, torus_rank=1,
                        weyl_lengths=(0, 1)),
    "SL3": OrderFormula("SL3", positive_roots=3, torus_rank=2,
                        weyl_lengths=(0, 1, 1, 2, 2, 3)),
    "Sp4": OrderFormula("Sp4", positive_roots=4, torus_rank=2,
                        weyl_lengths=(0, 1, 1, 2, 2, 3, 3, 4)),
}


def _check_arguments(q: int, n: int, m: int) -> None:
    """ValueError naming the value unless q = p^e, n >= 1 and m >= 1."""
    prime_power(q)
    if n < 1:
        raise ValueError(f"level n={n} must be at least 1")
    if m < 1:
        raise ValueError(f"dimension m={m} must be at least 1")


def bn_order(formula: OrderFormula, q: int) -> int:
    """Evaluate the BN-pair product formula at the prime power q."""
    prime_power(q)
    torus = (q - 1) ** formula.torus_rank
    return q**formula.positive_roots * torus * sum(q**l for l in formula.weyl_lengths)


def closed_order(tag: str, q: int, n: int, m: int = 2) -> int:
    """Classical closed order of the level-n points of a built-in spec.

    Serves as a second oracle beside enumeration.  SO covers the split
    odd-dimensional case in odd characteristic only.
    """
    _check_arguments(q, n, m)
    Q = q**n
    if tag == "Gm":
        return Q - 1
    if tag == "Ga":
        return Q
    if tag == "GL":
        out = 1
        for i in range(m):
            out *= Q**m - Q**i
        return out
    if tag == "SL":
        return closed_order("GL", q, n, m) // (Q - 1)
    if tag == "Sp":
        if m % 2:
            raise ValueError("Sp needs even dimension")
        h = m // 2
        out = Q ** (h * h)
        for i in range(1, h + 1):
            out *= Q ** (2 * i) - 1
        return out
    if tag == "SO":
        if m % 2 == 0:
            raise ValueError("only odd split SO orders are provided")
        if q % 2 == 0:
            raise ValueError("odd-dimensional SO orders assume odd characteristic")
        l = (m - 1) // 2
        out = Q ** (l * l)
        for i in range(1, l + 1):
            out *= Q ** (2 * i) - 1
        return out
    if tag == "SU":
        out = Q ** (m * (m - 1) // 2)
        for i in range(2, m + 1):
            out *= Q**i - (-1) ** i
        return out
    if tag == "NormTorus":
        if q % 3 == 0:
            return Q * (Q - 1)
        if (Q - 1) % 3 == 0:
            return (Q - 1) ** 2
        return Q * Q - 1
    if tag == "NormTorusCover":
        # isogenous to the norm torus, hence the same number of points;
        # in characteristic 2 the covering map is itself bijective on points
        return closed_order("NormTorus", q, n)
    raise ValueError(f"no closed order formula for {tag!r}")


def center_order(tag: str, q: int, n: int, m: int = 2) -> int:
    """Closed-form order of the center of the level-n point group."""
    _check_arguments(q, n, m)
    Q = q**n
    if tag in ("Gm", "Ga", "NormTorus", "NormTorusCover"):
        return closed_order(tag, q, n, m)
    if tag == "SL":
        return gcd(m, Q - 1)
    if tag == "GL":
        return Q - 1
    if tag == "Sp":
        return gcd(2, Q - 1)
    if tag == "SU":
        return gcd(m, Q + 1)
    if tag == "SO":
        if m % 2 == 0:
            raise ValueError("only odd split SO centers are provided")
        return 1
    raise ValueError(f"no center order formula for {tag!r}")
