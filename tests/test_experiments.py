"""The experiment harness's one failure policy, its per-cell caches and its
config's checks."""

import ast
import json
from dataclasses import fields
from pathlib import Path

import pytest

from isocensus import census, experiments, homs
from isocensus.experiments import EXPERIMENT_IDS, ExperimentConfig, Runner

# every guarded experiment has at least three cells that reach its callee
TINY = dict(e12_qs=(2,), e12_n_max=2, e12_ks=(3,), e3_n_max=4,
            e4_qs=((2, 1), (3, 1)), e5_p_max=7, e6_qs=(2, 3, 4),
            e6_ratio_n_max=3, e7_p_max=7, e8_ps=(2,), e8_n_max=3)

# one callee per experiment that runs inside the cell body
CALLEES = {"E1": (homs, "check_image_index"), "E2": (homs, "cokernel"),
           "E3": (census, "index_k_subgroups"), "E4": (census, "index_k_subgroups"),
           "E5": (homs, "reached_by"), "E6": (census, "center"),
           "E7": (census, "index_k_subgroups"), "E8": (census, "index_k_subgroups")}


def boom_on_call(monkeypatch, owner, name, call_no):
    """Make owner.name raise RuntimeError("boom") on its call_no-th call."""
    real = getattr(owner, name)
    calls = []

    def patched(*args, **kw):
        calls.append(args)
        if len(calls) == call_no:
            raise RuntimeError("boom")
        return real(*args, **kw)

    monkeypatch.setattr(owner, name, patched)
    return calls


def count_calls(monkeypatch, owner, name):
    return boom_on_call(monkeypatch, owner, name, 0)


@pytest.mark.parametrize("eid", EXPERIMENT_IDS)
def test_a_raising_cell_fails_alone(monkeypatch, eid):
    baseline = Runner(ExperimentConfig(**TINY)).run(eid)
    assert baseline["summary"]["failed"] == 0
    calls = boom_on_call(monkeypatch, *CALLEES[eid], 2)
    report = Runner(ExperimentConfig(**TINY)).run(eid)
    assert len(calls) >= 3  # cells ran before and after the failing one
    failed = [i for i, c in enumerate(report["cells"]) if c["status"] == "fail"]
    assert len(failed) == 1
    bad = report["cells"][failed[0]]
    assert bad["reason"] == "RuntimeError: boom"
    assert baseline["cells"][failed[0]]["status"] == "pass"
    for i, (got, want) in enumerate(zip(report["cells"], baseline["cells"])):
        if i != failed[0]:
            assert got == want, i
    assert report["summary"]["failed"] == 1 and report["summary"]["pass"] is False


def test_e3_levels_are_read_from_the_cells(monkeypatch):
    # the second cell, level 2, is the first level with an index-3 subgroup;
    # once it fails the summary no longer counts it
    baseline = Runner(ExperimentConfig(**TINY)).run("E3")["summary"]
    assert baseline["levels_with_subgroup"] == [2, 4]
    boom_on_call(monkeypatch, census, "index_k_subgroups", 2)
    report = Runner(ExperimentConfig(**TINY)).run("E3")
    assert isinstance(Runner(ExperimentConfig(**TINY)).e3(), list)
    assert report["cells"][1]["count"] is None
    summary = report["summary"]
    assert summary["levels_with_subgroup"] == [4]
    assert summary["minimal_level"] == 4
    assert summary["progression_contained"] is True


def test_e4_builds_one_lattice_per_q(monkeypatch):
    lattices = count_calls(monkeypatch, census, "subgroup_lattice_oracle")
    cells = Runner(ExperimentConfig(**TINY)).e4()
    assert len(cells) == 6 and all(c["status"] == "pass" for c in cells)
    assert [len(group) for group, _ in lattices] == [6, 24]


@pytest.mark.parametrize("eid,per_group", [("E4", 3), ("E7", 3)])
def test_a_failed_group_build_is_retried_by_the_next_cell(monkeypatch, eid, per_group):
    # Runner.group caches successes only, so the first cell of the first
    # group fails and the next cell builds the group again
    builds = boom_on_call(monkeypatch, experiments, "rational_points", 1)
    lattices = count_calls(monkeypatch, census, "subgroup_lattice_oracle")
    cells = Runner(ExperimentConfig(**TINY)).run(eid)["cells"]
    assert [c["status"] for c in cells] == ["fail"] + ["pass"] * (len(cells) - 1)
    assert cells[0]["reason"] == "RuntimeError: boom"
    assert len(cells) == 2 * per_group and len(builds) == 3
    assert len(lattices) == (2 if eid == "E4" else 0)


@pytest.mark.parametrize("data,named", [
    ({"e12_qs": [2, 6]}, "e12_qs entry 6 is not a prime power"),
    ({"e6_qs": [1]}, "e6_qs entry 1 is not a prime power"),
    ({"e4_qs": [[6, 1]]}, r"e4_qs entry \(6, 1\) is not \(prime, e >= 1\)"),
    ({"e4_qs": [[5, 0]]}, r"e4_qs entry \(5, 0\)"),
    ({"e4_qs": [5]}, "e4_qs entry 5 "),
    ({"e8_ps": [2, 4]}, "e8_ps entry 4 is not prime"),
    # gcd(0, q) = q would skip every pow cell; -2 would fail every one
    ({"e12_ks": [0]}, "e12_ks entry 0 is not a positive integer"),
    ({"e12_ks": [3, -2]}, "e12_ks entry -2 is not a positive integer"),
])
def test_a_grid_entry_that_names_no_field_is_rejected(data, named):
    with pytest.raises(ValueError, match=named):
        ExperimentConfig.from_json(json.dumps(data))


@pytest.mark.parametrize("data", [{"e12_n_max": 0}, {"e12_order_bound": 0}])
def test_a_grid_where_no_cell_passed_does_not_pass(data):
    summary = Runner(ExperimentConfig.from_json(json.dumps(data))).run("E1")["summary"]
    assert summary["passed"] == summary["failed"] == 0
    assert summary["pass"] is False


def test_option_counts_do_not_grow():
    # ROADMAP aim 2 tracks both counts; a change that adds a parameter with
    # a default or a config field raises its bound here and says why
    defaults = 0
    for path in Path(experiments.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    assert defaults <= 25
    assert len(fields(ExperimentConfig)) <= 15


def test_no_assert_statement_in_src():
    # ROADMAP aim 3: every check is a real one, none disappears under python -O
    paths = sorted(Path(experiments.__file__).parent.glob("*.py"))
    assert len(paths) >= 8
    for path in paths:
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], path


def test_an_unknown_report_format_is_rejected_before_any_cell():
    with pytest.raises(ValueError, match="'xml'"):
        ExperimentConfig(fmt="xml")
    with pytest.raises(ValueError, match="'xml'"):
        ExperimentConfig.from_json('{"fmt": "xml"}')
    for fmt in experiments.FORMATS:
        assert ExperimentConfig(fmt=fmt).fmt == fmt
