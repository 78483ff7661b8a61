"""Acceptance criteria: one test per criterion, exact tolerances.

Every criterion prints one line `ACCEPTANCE <n> (<name>): PASS` on success;
a failed assertion leaves the line unprinted and the test red.  Experiments
share one Runner so field/group caches flow between criteria, mirroring how
`experiment all` executes.
"""

import filecmp
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import build_corpus
from isocensus import census, homs
from isocensus.experiments import ExperimentConfig, Runner, report_json
from isocensus.ffield import is_prime

# `isocensus all` output for the criterion-10 config, recorded before the
# refactors it guards; every later change must reproduce it byte for byte
GOLDEN = Path(__file__).parent / "golden"

# sha256 of every default-grid report (`report_json`), which every refactor
# must reproduce byte for byte; each is the same whether its experiment runs
# alone or after the others, in any order
DEFAULT_GRID_SHA256 = {
    "E1": "430b05f6b329daac49e6866b6805ffefc165c5c2801e0026b71f53b9a3a4ead7",
    "E2": "0359baf9009c6e98c3d0f6ccc418d9a0a142f12a2d489d77ef484a304f4540f5",
    "E3": "44ae287f375ee246dcce090fa4b65892d56f69c765b3ee7f1b4ea0e302009f14",
    "E4": "24f9f4de94ef444fe199e2426a9fceb3ec39b3d686658ce5216e0efc176f0e2c",
    "E5": "4ed14d2c70074fe22a3856f18561bc8cb7e22e3994e2a3fb9b1c2b5c4cbc46f1",
    "E6": "fd7d8b4b45ccaa1fe2332f0d902362b093e2c408e01b53560d829766c2766ecf",
    "E7": "75cac2834378ed7a469cecf66f07f804e9426be7ca31a10a4ac256b0f9d045ea",
    "E8": "6bc3725181780ded1b10d1fd1c36ddef98bdde4b695a8d5dffca96491de673ab",
}

SKIP_REASONS = {"k shares a factor with q", "group order exceeds bound",
                "cover is disconnected in characteristic 3",
                "defining form degenerates in characteristic 3"}


@pytest.fixture(scope="module")
def runner():
    return Runner(ExperimentConfig())


@pytest.fixture(scope="module")
def reports():
    return {}


def get_report(runner, reports, eid):
    if eid not in reports:
        reports[eid] = runner.run(eid)
    return reports[eid]


def cells_by(report, **match):
    out = []
    for cell in report["cells"]:
        if all(cell.get(k) == v for k, v in match.items()):
            out.append(cell)
    return out


def check_digest(report):
    eid = report["experiment"]
    got = hashlib.sha256(report_json(report).encode()).hexdigest()
    assert got == DEFAULT_GRID_SHA256[eid], (eid, got)


def check_statuses(report):
    assert report["summary"]["failed"] == 0, [
        (c["spec"], c["isogeny"], c["q"], c["n"], c["k"], c["reason"])
        for c in report["cells"] if c["status"] == "fail"]
    for cell in report["cells"]:
        if cell["status"] == "skipped":
            assert cell["reason"] in SKIP_REASONS, cell


def test_criterion_1_image_index_identity(runner, reports):
    report = get_report(runner, reports, "E1")
    check_statuses(report)
    check_digest(report)
    live = [c for c in report["cells"] if c["status"] == "pass"]
    assert len(live) >= 100
    for cell in live:
        assert cell["flags"]["equal"] is True
        assert cell["count"] == cell["flags"]["kernel_rational"]
    spot = cells_by(report, spec="Gm", isogeny="pow:2", q=3, n=1)[0]
    assert (spot["count"], spot["flags"]["kernel_rational"]) == (2, 2)
    print("ACCEPTANCE 1 (image-index identity E1): PASS")


def test_e2_reads_the_images_e1_computed(runner, reports, monkeypatch):
    # runs before criterion 2, so that E2 meets E1's images in the Runner;
    # 52 of E2's 123 live cells plan the field E1 planned
    get_report(runner, reports, "E1")
    computed = []
    real = homs.image
    monkeypatch.setattr(homs, "image",
                        lambda *args, **kw: computed.append(args) or real(*args, **kw))
    report = get_report(runner, reports, "E2")
    assert sum(1 for c in report["cells"] if c["status"] == "pass") == 123
    assert len(computed) == 71


def test_criterion_2_cokernel_isomorphism(runner, reports):
    report = get_report(runner, reports, "E2")
    check_statuses(report)
    check_digest(report)
    live = [c for c in report["cells"] if c["status"] == "pass"]
    assert len(live) >= 100
    mu_checked = [c for c in live if c["flags"]["mu_checked"]]
    assert len(mu_checked) >= 30
    for cell in live:
        if cell["order"] <= runner.config.mu_order_bound:
            assert cell["flags"]["mu_checked"] and cell["flags"]["mu_ok"] is True
    spot = cells_by(report, spec="NormTorus", isogeny="normcover", q=7, n=1)[0]
    assert spot["flags"]["invariants"] == [2]
    print("ACCEPTANCE 2 (cokernel isomorphism E2): PASS")


def test_criterion_3_arithmetic_progression(runner, reports):
    report = get_report(runner, reports, "E3")
    check_statuses(report)
    check_digest(report)
    summary = report["summary"]
    assert summary["levels_with_subgroup"] == [2, 4, 6, 8, 10, 12]
    assert summary["minimal_level"] == 2
    assert summary["progression_contained"] is True
    print("ACCEPTANCE 3 (arithmetic progression E3): PASS")


def test_criterion_4_norm_torus_census(runner, reports):
    report = get_report(runner, reports, "E5")
    check_statuses(report)
    check_digest(report)
    for cell in report["cells"]:
        p = cell["q"]
        if cell["status"] == "skipped":
            assert p == 3
            continue
        if p % 3 == 1:
            assert cell["count"] == 3, p
            assert cell["flags"]["cover_reached"] == 1, p
        elif p == 2:
            assert cell["count"] == 0  # cyclic of odd order 3
        else:
            assert cell["count"] == 1, p
    checked = [c for c in report["cells"] if c["status"] == "pass"]
    assert {c["q"] for c in checked} == {p for p in range(2, 101)
                                         if is_prime(p) and p != 3}
    print("ACCEPTANCE 4 (norm torus E5): PASS")


def test_criterion_5_simply_connected_vanishing(runner, reports):
    report = get_report(runner, reports, "E4")
    check_statuses(report)
    check_digest(report)
    def count(q, k):
        return cells_by(report, q=q, k=k)[0]["count"]
    assert count(2, 2) == 1
    assert count(3, 2) == 0 and count(3, 3) >= 1
    for q in (4, 5, 7, 8, 9):
        for k in (2, 3, 4):
            assert count(q, k) == 0, (q, k)
    print("ACCEPTANCE 5 (simply connected vanishing E4): PASS")


def test_criterion_6_characteristic_scan(runner, reports):
    report = get_report(runner, reports, "E7")
    check_statuses(report)
    check_digest(report)
    primes = [p for p in range(5, 32) if is_prime(p)]
    for p in primes:
        for k in (2, 3, 4):
            assert cells_by(report, q=p, k=k)[0]["count"] == 0, (p, k)
    print("ACCEPTANCE 6 (characteristic scan E7): PASS")


def test_criterion_7_order_formulas(runner, reports):
    report = get_report(runner, reports, "E6")
    check_statuses(report)
    check_digest(report)
    for q in (2, 3, 4, 5, 7, 9):
        cell = cells_by(report, q=q, n=1)[0]
        flags = cell["flags"]
        assert flags["bn"] == flags["closed"] == flags["enumerated"] == q**3 - q
        assert flags["center"] == flags["center_closed"]
        assert flags["center"] == (2 if q % 2 else 1)
    ratio_cell = next(c for c in report["cells"]
                      if c["flags"].get("check") == "ratio strictly increasing")
    ratios = ratio_cell["flags"]["ratios"]
    assert len(ratios) == 6 and all(b > a for a, b in zip(ratios, ratios[1:]))
    print("ACCEPTANCE 7 (order formulas E6): PASS")


def test_criterion_8_additive_counterexample(runner, reports):
    report = get_report(runner, reports, "E8")
    check_statuses(report)
    check_digest(report)
    for p in (2, 3):
        for n in range(1, 5):
            cell = cells_by(report, q=p, n=n)[0]
            assert cell["count"] == (p**n - 1) // (p - 1), (p, n)
    print("ACCEPTANCE 8 (additive counterexample E8): PASS")


def test_criterion_9_census_oracle_equivalence():
    corpus = build_corpus()
    assert len(corpus) >= 20
    factorial = [1, 1, 2, 6, 24, 120, 720]
    for label, group in corpus:
        assert len(group) <= 200
        lattice = census.subgroup_lattice_oracle(group)
        gens = census.small_generating_set(group)
        for k in range(1, 7):
            subs = census.index_k_subgroups(group, k, gens=gens)
            found = {h.ids for h in subs}
            expected = {ids for ids in lattice
                        if len(group) == k * len(ids)}
            assert found == expected, (label, k)
            for h in subs:
                assert k <= h.core_index <= factorial[k], (label, k)
    print("ACCEPTANCE 9 (census/oracle equivalence): PASS")


def test_criterion_10_deterministic_reports(tmp_path):
    config = ExperimentConfig(
        e12_qs=(2, 3), e12_n_max=3, e12_ks=(2, 3), e3_n_max=6,
        e4_qs=((2, 1), (3, 1), (2, 2)), e5_p_max=13, e6_qs=(2, 3, 4),
        e6_ratio_n_max=4, e7_p_min=5, e7_p_max=11, e8_ps=(2, 3), e8_n_max=3,
        fmt="both")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(config.to_json())
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    dirs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "isocensus.cli", "all",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        dirs.append(out)
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    assert len(names) == 17  # 8 experiments x 2 formats + summary
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names,
                                               shallow=False)
    assert sorted(match) == names and not mismatch and not errors
    assert names == sorted(os.listdir(GOLDEN))
    match, mismatch, errors = filecmp.cmpfiles(GOLDEN, dirs[0], names,
                                               shallow=False)
    assert sorted(match) == names and not mismatch and not errors, mismatch
    summary = json.loads((dirs[0] / "summary.json").read_text())
    assert summary["all_pass"] is True
    print("ACCEPTANCE 10 (deterministic reports): PASS")
