"""Kernel microbenchmarks: field and matrix products on seeded operands.

Each kernel reports the median over REPEATS of the time per operation in
microseconds, and the coefficient multiplies one operation needs, computed
from the algorithm in `isocensus.ffield` for dense operands (not counted):
a product in F_{p^D} takes D^2 schoolbook multiplies plus D(D-1) to reduce
the D-1 high coefficients (1 when D = 1); a Frobenius power is a D x D
matrix-vector product; an m x m matrix product takes m^3 field products.
"""

from __future__ import annotations

import random
import statistics
import time

from isocensus.ffield import make_field
from isocensus.matgroup import Matrix

REPEATS = 5
OPERANDS = 64


def field_mul_coeff_muls(d: int) -> int:
    return 1 if d == 1 else d * d + d * (d - 1)


def _per_op_us(fn, pairs, ops: int) -> float:
    """Median over REPEATS of the microseconds per fn(a, b) call."""
    seq = (pairs * (ops // len(pairs) + 1))[:ops]
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for a, b in seq:
            fn(a, b)
        samples.append((time.perf_counter() - t0) / ops * 1e6)
    return statistics.median(samples)


def _elements(fld, rng: random.Random, count: int) -> list:
    out = []
    while len(out) < count:
        a = tuple(rng.randrange(fld.p) for _ in range(fld.degree))
        if any(a):
            out.append(a)
    return out


def _matrices(fld, m: int, rng: random.Random, count: int) -> list:
    return [Matrix(fld, tuple(tuple(_elements(fld, rng, m)) for _ in range(m)))
            for _ in range(count)]


# (metric, kind, p, D, m, operations per repeat)
KERNELS = (
    ("ffield.mul_us.p7d1", "mul", 7, 1, 0, 20000),
    ("ffield.mul_us.p2d6", "mul", 2, 6, 0, 4000),
    ("ffield.mul_us.p7d5", "mul", 7, 5, 0, 4000),
    ("ffield.mul_us.p7d12", "mul", 7, 12, 0, 1000),
    ("ffield.mul_us.p2d20", "mul", 2, 20, 0, 500),
    ("ffield.inv_us.p7d12", "inv", 7, 12, 0, 500),
    ("ffield.frobenius_us.p7d12", "frobenius", 7, 12, 0, 2000),
    ("matgroup.matmul2_us.p7d1", "matmul", 7, 1, 2, 2000),
    ("matgroup.matmul2_us.p7d5", "matmul", 7, 5, 2, 500),
    ("matgroup.matmul3_us.p7d2", "matmul", 7, 2, 3, 500),
)


def coeff_muls_name(metric: str) -> str:
    """ffield.mul_us.p7d1 -> ffield.mul_coeff_muls.p7d1."""
    layer, kernel, shape = metric.split(".")
    return f"{layer}.{kernel[:-3]}_coeff_muls.{shape}"


def coeff_muls(kind: str, d: int, m: int):
    if kind == "mul":
        return field_mul_coeff_muls(d)
    if kind == "frobenius":
        return d * d
    if kind == "matmul":
        return m**3 * field_mul_coeff_muls(d)
    return None  # inversion: a data-dependent Euclidean remainder sequence


def run(seed: int) -> dict:
    """metric -> (value, unit) for every kernel."""
    out = {}
    for metric, kind, p, d, m, ops in KERNELS:
        rng = random.Random(f"{seed}:{metric}")
        fld = make_field(p, d)
        if kind == "matmul":
            mats = _matrices(fld, m, rng, 2 * OPERANDS)
            pairs = list(zip(mats[::2], mats[1::2]))
            fn = Matrix.__mul__
        else:
            xs = _elements(fld, rng, 2 * OPERANDS)
            if kind == "mul":
                pairs, fn = list(zip(xs[::2], xs[1::2])), fld.mul
            elif kind == "inv":
                pairs, fn = [(x, None) for x in xs], lambda a, _: fld.inv(a)
            else:
                pairs = [(x, 1) for x in xs]
                fn = fld.frobenius
        out[metric] = (_per_op_us(fn, pairs, ops), "us")
        count = coeff_muls(kind, d, m)
        if count is not None:
            out[coeff_muls_name(metric)] = (count, "count_computed")
    return out
