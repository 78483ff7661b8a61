"""Batch experiments reproducing the theory at desk scale.

Each experiment walks a grid of cells and returns one record per cell;
`Runner.run` adds the summary, and reads E3's progression from the cells.
Every record carries an explicit pass/fail/skipped status, and cells that
would exceed a size bound are labeled skipped rather than silently dropped.
Every cell body runs through `_guarded`, the one failure policy: an exception
inside a cell marks it failed, with the exception's type and message, while
the harness continues.  Reports are deterministic: fixed iteration order,
integer-only payloads, seeded randomness.

    E1  image-index identity  [G(F_{q^n}) : image] = #rational kernel
    E2  cokernel invariants match ker/lang(ker); the connecting map mu
        checked as a surjective homomorphism on small cells
    E3  arithmetic-progression detector for index-3 subgroups of Gm over F_2
    E4  vanishing censuses for SL_2 over small prime powers, at k = 2, 3, 4
    E5  norm torus: split/non-split index-2 counts and which subgroups the
        double cover reaches
    E6  BN-pair and closed order formulas against enumeration
    E7  characteristic scan: SL_2(F_p), p >= 5, has no subgroup of index <= 4
    E8  additive counterexample: hyperplane counts in G_a

Ambient fields are planned per cell by `homs.plan_degree`, the planner the
CLI uses too: level-n points need degree e*n, geometric kernels degree
e*s_ker, and the sections behind mu degree e*n*s_section; the kernel side
of E2 lives in its own small field on cells too large for the mu check,
and E2 reads the image E1 computed wherever the two plan the same field.

The config holds what a run varies: the seed, the grids' extents and the
report location and format.  Settings every run shares are constants, read
where they are checked; the config rejects their keys by name, and a grid
entry that is not a prime power (or prime) before any cell runs.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field, fields
from functools import cache
from math import gcd
from typing import Callable

from . import census, homs, orderform
from .ffield import AmbientField, factorize, is_prime, make_field, prime_power
from .matgroup import (FiniteGroup, GaSpec, GmSpec, GroupSpec, SLSpec, make_spec,
                       rational_points)

EXPERIMENT_IDS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8")
FORMATS = ("json", "csv", "both")

#: E2 proves mu on the cells of at most this many points
MU_ORDER_BOUND = 512


def primes_in(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


@dataclass
class ExperimentConfig:
    """One config drives every experiment; defaults match the acceptance grid."""

    seed: int = 0
    out_dir: str = "reports"
    fmt: str = "json"  # one of FORMATS

    e12_qs: tuple[int, ...] = (2, 3, 5, 7)
    e12_n_max: int = 6
    e12_ks: tuple[int, ...] = (2, 3, 4, 5)
    e12_order_bound: int = 100_000

    e3_n_max: int = 12

    e4_qs: tuple[tuple[int, int], ...] = ((2, 1), (3, 1), (2, 2), (5, 1),
                                          (7, 1), (2, 3), (3, 2))

    e5_p_max: int = 100

    e6_qs: tuple[int, ...] = (2, 3, 4, 5, 7, 9)
    e6_ratio_n_max: int = 6

    e7_p_max: int = 31

    e8_ps: tuple[int, ...] = (2, 3)
    e8_n_max: int = 4

    def __post_init__(self):
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown report format {self.fmt!r}, not in {FORMATS}")
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, list):
                setattr(self, f.name,
                        tuple(tuple(x) if isinstance(x, list) else x for x in v))
        # a grid entry that names no field fails here, before any cell runs
        for name in ("e12_qs", "e6_qs"):
            for q in getattr(self, name):
                if q < 2 or len(factorize(q)) != 1:
                    raise ValueError(f"{name} entry {q} is not a prime power")
        for pair in self.e4_qs:
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and is_prime(pair[0]) and pair[1] >= 1):
                raise ValueError(f"e4_qs entry {pair} is not (prime, e >= 1)")
        for p in self.e8_ps:
            if not is_prime(p):
                raise ValueError(f"e8_ps entry {p} is not prime")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        bad = set(data) - {f.name for f in fields(cls)}
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        return cls(**data)


def _cell(experiment: str, **kw) -> dict:
    base = {"experiment": experiment, "spec": None, "isogeny": None, "q": None,
            "n": None, "k": None, "order": None, "count": None, "flags": {},
            "status": "pass", "reason": None}
    base.update(kw)
    return base


def _guarded(cell: dict, body: Callable[..., None], *args) -> dict:
    """Run `body(cell, *args)` and return the cell; the one failure policy:
    an exception marks the cell failed with its type and message."""
    try:
        body(cell, *args)
    except Exception as exc:  # cell failures must not stop the grid
        cell.update(status="fail", reason=f"{type(exc).__name__}: {exc}")
    return cell


class Runner:
    """Executes experiments against shared field/group caches."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._fields: dict[tuple[int, int], AmbientField] = {}
        self._groups: dict[tuple, FiniteGroup] = {}
        self._images: dict[tuple[str, FiniteGroup], homs.Image] = {}

    # -- caches ---------------------------------------------------------------

    def field(self, p: int, degree: int) -> AmbientField:
        key = (p, degree)
        if key not in self._fields:
            self._fields[key] = make_field(p, degree)
        return self._fields[key]

    def group(self, spec: GroupSpec, n: int, degree: int) -> FiniteGroup:
        key = (spec, n, degree)
        if key not in self._groups:
            amb = self.field(spec.p, degree)
            self._groups[key] = rational_points(spec, n, amb)
        return self._groups[key]

    def image(self, iso: homs.Isogeny, n: int, degree: int) -> homs.Image:
        """One image per catalog isogeny name and codomain (spec, n, degree)."""
        codomain = self.group(iso.codomain_spec, n, degree)
        if (iso.name, codomain) not in self._images:
            self._images[iso.name, codomain] = homs.image(
                iso, n, codomain.meta["field"], codomain=codomain,
                domain=self.group(iso.domain_spec, n, degree))
        return self._images[iso.name, codomain]

    # -- shared cell steps ------------------------------------------------------

    def _census(self, cell: dict, group: FiniteGroup, k: int) -> list:
        """The index-k census at the config's seed; sets the count."""
        subs = census.index_k_subgroups(group, k, seed=self.config.seed)
        cell["count"] = len(subs)
        return subs

    def _e12_cells(self, experiment: str) -> list[dict]:
        """Common grid for E1/E2: catalog isogenies x q x n."""
        cfg = self.config
        cells = []
        for q in cfg.e12_qs:
            for family in ("Gm", "NormTorus"):
                for k in cfg.e12_ks:
                    for n in range(1, cfg.e12_n_max + 1):
                        cells.append((family, f"pow:{k}", q, n, k))
            for n in range(1, cfg.e12_n_max + 1):
                cells.append(("NormTorus", "normcover", q, n, None))
        out = []
        for family, iso_name, q, n, k in cells:
            cell = _cell(experiment, spec=family, isogeny=iso_name, q=q, n=n, k=k)
            if k is not None and gcd(k, q) != 1:
                cell.update(status="skipped", reason="k shares a factor with q")
            elif iso_name == "normcover" and q % 3 == 0:
                cell.update(status="skipped",
                            reason="cover is disconnected in characteristic 3")
            else:
                cell["order"] = orderform.closed_order(family, q, n)
                if cell["order"] > cfg.e12_order_bound:
                    cell.update(status="skipped", reason="group order exceeds bound")
                else:
                    _guarded(cell, self._run_e12_cell, family, iso_name, q, n)
            out.append(cell)
        return out

    def _run_e12_cell(self, cell: dict, family: str, iso_name: str, q: int,
                      n: int) -> None:
        cfg = self.config
        p, e = prime_power(q)
        iso = homs.parse_isogeny(iso_name, make_spec(family, p, e))
        with_mu = cell["experiment"] == "E2" and cell["order"] <= MU_ORDER_BOUND
        degree = homs.plan_degree(iso, n=n, sections=with_mu)
        img = self.image(iso, n, degree)

        if cell["experiment"] == "E1":
            index, ker_n, equal = homs.check_image_index(img)
            cell["count"] = index
            cell["flags"] = {"kernel_rational": ker_n, "equal": equal}
            if not equal:
                cell.update(status="fail", reason="index differs from kernel size")
            return

        kernel_field = self.field(p, degree if with_mu else homs.plan_degree(iso))
        data = homs.cokernel(iso, n, img, kernel_field)
        mu_ok = homs.verify_mu(homs.with_sections(data, iso, n, seed=cfg.seed)) \
            if with_mu else None
        cell["count"] = len(data.reps)
        cell["flags"] = {"invariants": data.invariants,
                         "kernel_min_level": data.kernel_min_level,
                         "mu_checked": with_mu, "mu_ok": mu_ok}
        if with_mu and not mu_ok:
            cell.update(status="fail", reason="mu failed verification")

    # -- experiments ------------------------------------------------------------

    def e1(self) -> list[dict]:
        return self._e12_cells("E1")

    def e2(self) -> list[dict]:
        return self._e12_cells("E2")

    def e3(self) -> list[dict]:
        q, k = 2, 3

        def body(cell, n):
            subs = self._census(cell, self.group(GmSpec(q), n, n), k)
            expected = 1 if (q**n - 1) % k == 0 else 0
            cell["flags"] = {"expected_cyclic_count": expected}
            if len(subs) != expected:
                cell.update(status="fail", reason="count differs from cyclic rule")

        return [_guarded(_cell("E3", spec="Gm", q=q, n=n, k=k,
                               order=orderform.closed_order("Gm", q, n)), body, n)
                for n in range(1, self.config.e3_n_max + 1)]

    def e4(self) -> list[dict]:
        # index-k subgroup counts of SL_2(F_q), k <= 4: none for q >= 4
        ks = (2, 3, 4)
        expected = {2: {2: 1, 3: 3, 4: 0}, 3: {2: 0, 3: 1, 4: 4}}
        bound = census.DEFAULT_ORACLE_BOUND

        def body(cell, spec, lattice_of):
            group = self.group(spec, 1, spec.e)
            lattice = lattice_of(group) if len(group) <= bound else None
            cell["order"] = len(group)
            k = cell["k"]
            subs = self._census(cell, group, k)
            want = expected.get(cell["q"], {}).get(k, 0)
            cell["flags"] = {"expected": want}
            if lattice is not None:
                oracle_count = sum(1 for s in lattice if len(group) // len(s) == k)
                cell["flags"]["oracle_count"] = oracle_count
                if oracle_count != len(subs):
                    cell.update(status="fail", reason="census disagrees with oracle")
            if len(subs) != want:
                cell.update(status="fail", reason="unexpected census count")

        cells = []
        for p, e in self.config.e4_qs:
            # the lattice serves every k of this q; a failure retries per cell
            lattice_of = cache(lambda group: census.subgroup_lattice_oracle(
                group, bound))
            for k in ks:
                cells.append(_guarded(_cell("E4", spec="SL2", q=p**e, n=1, k=k),
                                      body, SLSpec(2, p, e), lattice_of))
        return cells

    def e5(self) -> list[dict]:
        cfg = self.config

        def body(cell, p):
            cover = homs.NormCoverIsogeny(p)
            degree = homs.plan_degree(cover, n=1, sections=True)
            group = self.group(cover.codomain_spec, 1, degree)
            cell["order"] = len(group)
            subs = self._census(cell, group, 2)
            flags = homs.reached_by(group, [sub.ids for sub in subs], [cover],
                                    1, self.field(p, degree), seed=cfg.seed)
            reach = [{"subgroup_order": sub.order, **f}
                     for sub, f in zip(subs, flags)]
            cover_hits = sum(1 for r in reach if r["normcover"])
            cell["flags"].update({"reached": reach, "cover_reached": cover_hits})
            split = cell["flags"]["split"]
            want = 3 if split else (1 if p % 2 else 0)
            if len(subs) != want:
                cell.update(status="fail", reason=f"expected {want} subgroups")
            elif split and cover_hits != 1:
                cell.update(status="fail",
                            reason="cover should reach exactly one subgroup")

        cells = []
        for p in primes_in(2, cfg.e5_p_max):
            cell = _cell("E5", spec="NormTorus", q=p, n=1, k=2,
                         flags={"split": p % 3 == 1})
            if p == 3:
                cell.update(status="skipped",
                            reason="defining form degenerates in characteristic 3")
            else:
                _guarded(cell, body, p)
            cells.append(cell)
        return cells

    def e6(self) -> list[dict]:
        cfg = self.config
        data = orderform.BN_CATALOG["SL2"]

        def body(cell, p, e):
            q = cell["q"]
            group = self.group(SLSpec(2, p, e), 1, e)
            bn = orderform.bn_order(data, q)
            closed = orderform.closed_order("SL", q, 1)
            z = len(census.center(group))
            z_closed = orderform.center_order("SL", q, 1)
            cell["order"] = len(group)
            cell["flags"] = {"bn": bn, "closed": closed, "enumerated": len(group),
                             "center": z, "center_closed": z_closed}
            if not (bn == closed == len(group)) or z != z_closed:
                cell.update(status="fail", reason="order formulas disagree")

        cells = [_guarded(_cell("E6", spec="SL2", q=q, n=1), body, *prime_power(q))
                 for q in cfg.e6_qs]
        ratio_cell = _cell("E6", spec="SL2", q=2, k=None,
                           flags={"check": "ratio strictly increasing"})
        ratios = [orderform.closed_order("SL", 2, n)
                  // orderform.center_order("SL", 2, n)
                  for n in range(1, cfg.e6_ratio_n_max + 1)]
        ratio_cell["flags"]["ratios"] = ratios
        if any(b <= a for a, b in zip(ratios, ratios[1:])):
            ratio_cell.update(status="fail", reason="ratio not strictly increasing")
        cells.append(ratio_cell)
        return cells

    def e7(self) -> list[dict]:
        # SL_2(F_p) has a proper subgroup of index at most 4 only for p < 5

        def body(cell, p, k):
            if self._census(cell, self.group(SLSpec(2, p), 1, 1), k):
                cell.update(status="fail", reason="unexpected subgroup found")

        return [_guarded(_cell("E7", spec="SL2", q=p, n=1, k=k,
                               order=orderform.closed_order("SL", p, 1)), body, p, k)
                for p in primes_in(5, self.config.e7_p_max)
                for k in (2, 3, 4)]

    def e8(self) -> list[dict]:
        cfg = self.config

        def body(cell, p, n):
            subs = self._census(cell, self.group(GaSpec(p), n, n), p)
            want = (p**n - 1) // (p - 1)
            cell["flags"] = {"expected": want}
            if len(subs) != want:
                cell.update(status="fail", reason="hyperplane count mismatch")

        return [_guarded(_cell("E8", spec="Ga", q=p, n=n, k=p, order=p**n), body, p, n)
                for p in cfg.e8_ps for n in range(1, cfg.e8_n_max + 1)]

    # -- orchestration ----------------------------------------------------------

    def run(self, experiment: str) -> dict:
        experiment = experiment.upper()
        if experiment not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment {experiment!r}")
        cells = getattr(self, experiment.lower())()
        summary = _summarize(cells)
        if experiment == "E3":
            # the levels whose census found a subgroup; a failed cell has none
            hits = [c["n"] for c in cells if c["count"]]
            minimal = min(hits) if hits else None
            summary.update(levels_with_subgroup=hits, minimal_level=minimal,
                           progression_contained=bool(hits) and all(
                               m in hits for m in range(
                                   minimal, self.config.e3_n_max + 1, minimal)))
        return {"experiment": experiment, "cells": cells, "summary": summary}

    def run_all(self) -> dict:
        reports = {eid: self.run(eid) for eid in EXPERIMENT_IDS}
        overall = all(r["summary"]["pass"] for r in reports.values())
        return {"reports": reports,
                "summary": {"all_pass": overall,
                            "experiments": {eid: reports[eid]["summary"]
                                            for eid in EXPERIMENT_IDS}}}


def _summarize(cells: list[dict]) -> dict:
    passed = sum(1 for c in cells if c["status"] == "pass")
    failed = sum(1 for c in cells if c["status"] == "fail")
    skipped = sum(1 for c in cells if c["status"] == "skipped")
    return {"total": len(cells), "passed": passed, "failed": failed,
            "skipped": skipped, "pass": failed == 0 and passed > 0}


# ---------------------------------------------------------------------------
# report serialization

CSV_COLUMNS = ("experiment", "spec", "isogeny", "q", "n", "k", "order",
               "count", "status", "reason", "flags")


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for cell in report["cells"]:
        row = [cell.get(c) for c in CSV_COLUMNS[:-1]]
        row.append(json.dumps(cell.get("flags", {}), sort_keys=True))
        writer.writerow(row)
    return buf.getvalue()


def write_reports(result: dict, out_dir: str, fmt: str) -> list[str]:
    """Write one file per experiment plus a summary; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for eid, report in sorted(result["reports"].items()):
        if fmt in ("json", "both"):
            path = os.path.join(out_dir, f"{eid}.json")
            with open(path, "w") as fh:
                fh.write(report_json(report))
            written.append(path)
        if fmt in ("csv", "both"):
            path = os.path.join(out_dir, f"{eid}.csv")
            with open(path, "w") as fh:
                fh.write(report_csv(report))
            written.append(path)
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        fh.write(report_json(result["summary"]))
    written.append(path)
    return written
