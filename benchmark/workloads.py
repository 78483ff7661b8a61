"""Benchmark workloads: experiment grids plus a census/oracle sweep.

A pass runs one workload once through the public isocensus API, in one
thread, each cell starting when the previous one ends (a closed loop with a
single caller).  It returns the cells it attempted and failed, where a cell
fails when the program marks it failed, when its report's sha256 differs
from the recorded reference, or when a sweep census differs from the
lattice oracle.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

# Layer functions are called through their modules, so that the tracer's
# wrappers are the ones called.
from isocensus import census, experiments, matgroup
from isocensus.ffield import make_field
from isocensus.matgroup import GaSpec, Matrix, SLSpec

from configs import WORKLOADS

SWEEP_K_MAX = 6
ORACLE_BOUND = 200


def make_config(name: str, seed: int) -> experiments.ExperimentConfig:
    return experiments.ExperimentConfig(seed=seed, **WORKLOADS[name]["config"])


# ---------------------------------------------------------------------------
# sweep groups: built through the public matgroup API, with generators drawn
# from the workload seed


def _primitive(field, rng: random.Random):
    """A seed-chosen generator of the multiplicative group of the field."""
    target = field.order - 1
    while True:
        a = tuple(rng.randrange(field.p) for _ in range(field.degree))
        if any(a) and field.mult_order(a) == target:
            return a


def _cyclic(p: int, d: int, rng: random.Random):
    """F_{p^d}^* as 1x1 matrices generated by a seed-chosen element."""
    fld = make_field(p, d)
    gen = Matrix(fld, ((_primitive(fld, rng),),))
    return matgroup.from_generators([gen], Matrix.__mul__,
                                    Matrix.identity(fld, 1), inv=Matrix.inv,
                                    label=f"C{p**d - 1}")


def _torus_normalizer(p: int, rng: random.Random):
    """<diag(g, 1/g), antidiag(c, 1/c)> in GL_2(F_p), g and c seed-chosen."""
    fld = make_field(p, 1)
    g = _primitive(fld, rng)
    c = fld.from_int(rng.randrange(1, p))
    zero = fld.zero
    diag = Matrix(fld, ((g, zero), (zero, fld.inv(g))))
    flip = Matrix(fld, ((zero, c), (fld.inv(c), zero)))
    return matgroup.from_generators([diag, flip], Matrix.__mul__,
                                    Matrix.identity(fld, 2), inv=Matrix.inv,
                                    label=f"N(T)_GL2(F_{p})")


def _points(spec, n: int):
    return matgroup.rational_points(spec, n, make_field(spec.p, n))


SWEEP_GROUPS = {
    "C24": lambda rng: _cyclic(5, 2, rng),
    "C31": lambda rng: _cyclic(2, 5, rng),
    "N(T)_7": lambda rng: _torus_normalizer(7, rng),
    "N(T)_11": lambda rng: _torus_normalizer(11, rng),
    "SL2_3": lambda rng: _points(SLSpec(2, 3), 1),
    "Ga_16": lambda rng: _points(GaSpec(2), 4),
    "C3xC7": lambda rng: matgroup.direct_product(_cyclic(2, 2, rng),
                                                 _cyclic(2, 3, rng)),
    "C2xC2xC2": lambda rng: matgroup.direct_product(
        _cyclic(3, 1, rng),
        matgroup.direct_product(_cyclic(3, 1, rng), _cyclic(3, 1, rng))),
}


def sweep_group(label: str, group, seed: int) -> list[tuple[str, str]]:
    """Census each k <= SWEEP_K_MAX against the lattice oracle.

    Returns (cell name, failure reason) for every failed (group, k) cell.
    """
    failures = []
    oracle = census.subgroup_lattice_oracle(group, ORACLE_BOUND)
    for k in range(1, SWEEP_K_MAX + 1):
        cell = f"sweep {label} k={k}"
        try:
            want = [s for s in oracle if len(s) * k == len(group)]
            got = sorted(h.ids for h in census.index_k_subgroups(group, k,
                                                                 seed=seed))
            if got != want:
                failures.append((cell, f"census found {len(got)} subgroups, "
                                       f"oracle {len(want)}"))
        except Exception as exc:  # a failed cell must not stop the sweep
            failures.append((cell, f"{type(exc).__name__}: {exc}"))
    return failures


# ---------------------------------------------------------------------------
# one pass


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def digest(report: dict) -> str:
    return hashlib.sha256(experiments.report_json(report).encode()).hexdigest()


def run_pass(name: str, seed: int, reference: dict, wrap_sweep=None) -> PassResult:
    """Run the workload once; `reference` maps experiment id to sha256.

    `wrap_sweep`, when given, wraps the per-group sweep function (tracing).
    """
    workload = WORKLOADS[name]
    result = PassResult()
    runner = experiments.Runner(make_config(name, seed))
    for eid in workload["experiments"]:
        report = runner.run(eid)
        live = [c for c in report["cells"] if c["status"] != "skipped"]
        bad = [c for c in live if c["status"] == "fail"]
        got, want = digest(report), reference.get(eid)
        if got != want:
            result.failures.append((eid, f"report sha256 {got}, reference {want}"))
            bad = live
        else:
            result.failures.extend((eid, c["reason"]) for c in bad)
        result.attempted += len(live)
        result.failed += len(bad)
    check = wrap_sweep(sweep_group) if wrap_sweep else sweep_group
    rng = random.Random(seed)
    for label in workload["sweep"]:
        try:
            group = SWEEP_GROUPS[label](rng)
            failures = check(label, group, seed)
        except Exception as exc:  # a group that cannot be built fails its cells
            failures = [(f"sweep {label}", f"{type(exc).__name__}: {exc}")] \
                * SWEEP_K_MAX
        result.attempted += SWEEP_K_MAX
        result.failed += len(failures)
        result.failures.extend(failures)
    return result
