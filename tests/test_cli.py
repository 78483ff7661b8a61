"""CLI subcommands and config round-trips."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from corpus import is_normal, is_subgroup
from isocensus import census, homs
from isocensus.cli import build_parser, main
from isocensus.experiments import ExperimentConfig, Runner, write_reports
from isocensus.matgroup import GmSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_points_subcommand(capsys):
    code, payload = run_cli(capsys, "points", "--spec", "SL", "--p", "2", "--n", "1")
    assert code == 0 and payload["order"] == 6


def test_points_lists_elements(capsys):
    code, payload = run_cli(capsys, "points", "--spec", "Gm", "--p", "3",
                            "--n", "1", "--list", "2")
    assert code == 0 and len(payload["elements"]) == 2


def test_order_subcommand(capsys):
    code, payload = run_cli(capsys, "order", "--spec", "SL", "--q", "7")
    assert code == 0
    assert payload["order"] == payload["bn_order"] == 336
    assert payload["center_order"] == 2


@pytest.mark.parametrize("argv", [
    ("cokernel", "--spec", "Gm", "--p", "3", "--n", "-1", "--iso", "pow:2"),
    ("census", "--spec", "NormTorus", "--p", "7", "--n", "-2", "--k", "2",
     "--reached"),
    ("points", "--spec", "Gm", "--p", "3", "--n", "0"),
    ("census", "--spec", "NormTorus", "--p", "7", "--n", "0", "--k", "2"),
    ("points", "--spec", "SU", "--p", "2", "--n", "-1", "--e", "2"),
])
def test_a_level_below_one_exits_2_naming_n(argv):
    # the first two lines used to run without end: a negative level made the
    # section degree a float power, whose multiplicative order never came;
    # the last three size their field by spec.entry_degree, not plan_degree,
    # and used to name the field's degree (e*n, and 2en for SU), not n
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "isocensus.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=5)
    assert proc.returncode == 2
    assert proc.stderr == f"error: level n must be positive, got n={argv[6]}\n"


def test_points_rejects_a_negative_list_length(capsys):
    code = main(["points", "--spec", "Gm", "--p", "3", "--list", "-2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "-2" in captured.err


@pytest.mark.parametrize("argv,named", [
    (("--spec", "GL", "--q", "4", "--n", "-1"), "n=-1"),
    (("--spec", "SL", "--q", "6"), "q=6"),
    (("--spec", "SL", "--q", "4", "--n", "0"), "n=0"),
    (("--spec", "SL", "--q", "7", "--m", "0"), "m=0"),
])
def test_order_rejects_impossible_arguments(capsys, argv, named):
    assert main(["order", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


def test_kernel_subcommand(capsys):
    code, payload = run_cli(capsys, "kernel", "--iso", "pow:3", "--spec", "Gm",
                            "--p", "2")
    assert code == 0
    assert payload["kernel_order"] == 3 and payload["minimal_level"] == 2


def test_image_subcommand(capsys):
    code, payload = run_cli(capsys, "image", "--iso", "pow:2", "--spec", "Gm",
                            "--p", "3", "--n", "1")
    assert code == 0 and payload["index_equals_kernel"]


def test_only_cokernel_and_census_take_a_seed(capsys):
    # kernel and image are exact and draw nothing at random
    parser = build_parser()
    for command in ("kernel", "image"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--iso", "pow:2", "--p", "3", "--seed", "1"])
    assert parser.parse_args(["cokernel", "--iso", "pow:2", "--p", "3",
                              "--seed", "1"]).seed == 1
    assert parser.parse_args(["census", "--p", "3", "--k", "2", "--seed", "1"]).seed == 1


def test_cokernel_subcommand(capsys):
    code, payload = run_cli(capsys, "cokernel", "--iso", "normcover",
                            "--spec", "NormTorus", "--p", "7", "--n", "1")
    assert code == 0
    assert payload["invariants"] == [2] and payload["mu_verified"] is True


def test_census_subcommand_with_reached(capsys):
    code, payload = run_cli(capsys, "census", "--spec", "NormTorus", "--p", "7",
                            "--k", "2", "--reached")
    assert code == 0 and payload["count"] == 3
    cover_hits = sum(1 for f in payload["reached"] if f["normcover"])
    assert cover_hits == 1


# sha256 of the stdout of census lines, as printed while a report record
# (census.CensusReport) still built them: with and without reach flags and
# classes, with an empty census, and past the 4096-element listing limit
CENSUS_STDOUT_SHA256 = {
    "census --spec NormTorus --p 7 --k 2 --reached --classes":
        "b6dfe0e8af2d3c9c588550a031c2f4b6387d487eddbae90353bf016c41c5228a",
    "census --spec NormTorus --p 5 --k 2 --reached --classes":
        "555e5bb9798f8225b9014fd59692501902bee71d4d1516c903faba8afe8e6547",
    "census --spec SL --p 2 --k 3 --classes":
        "48d15b96e64b36da7b415edcebe62bc4cf69263b20c21b000d3d9001e356a454",
    "census --spec SL --p 17 --k 2":
        "5c30954889988ef3b9dc28e58489ff9b32d8f40f1c73201e4d3a649e1e8d69b7",
    "census --spec Ga --p 2 --n 3 --k 2 --classes":
        "fae2807d958e778e2b09adb3c8ec990808d6e1864a21daa63074c9a9665a3f7b",
    "census --spec SL --p 5 --k 2 --classes":
        "af3bbbd3f981b8852381a821f4782a4202b4ced4f3ad965d3b200704d71e6930",
    "census --spec NormTorus --p 2 --k 2 --reached --classes":
        "a53b12991c1624cdd27e25fe285f37c68b6379a6ea8a28fd7e7685ba20bba8f9",
}


@pytest.mark.parametrize("line", list(CENSUS_STDOUT_SHA256))
def test_census_stdout_keeps_its_bytes(capsys, line):
    assert main(line.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_STDOUT_SHA256[line]


def test_census_past_the_listing_limit_prints_counts_only(capsys):
    # NormTorus(F_67) has 66^2 = 4356 points, past cli.CENSUS_LIST_ORDER,
    # and three subgroups of index 2: no list, reach flags or classes
    code, payload = run_cli(capsys, "census", "--spec", "NormTorus", "--p", "67",
                            "--k", "2", "--reached", "--classes")
    assert code == 0 and payload["order"] == 4356 and payload["count"] == 3
    assert sorted(payload) == ["count", "k", "n", "order", "q", "spec"]


# payloads the CLI printed before the degree planner was shared, when it
# raised non-split NormTorus to 2en; NormTorus(F_5) is non-split at n = 1
NONSPLIT_F5_PAYLOADS = [
    (("image", "--iso", "pow:2"),
     {"image_index": 2, "index_equals_kernel": True, "isogeny": "pow:2",
      "kernel_rational": 2, "n": 1, "q": 5}),
    (("image", "--iso", "normcover"),
     {"image_index": 2, "index_equals_kernel": True, "isogeny": "normcover",
      "kernel_rational": 2, "n": 1, "q": 5}),
    (("cokernel", "--iso", "pow:2"),
     {"invariants": [2], "isogeny": "pow:2", "kernel_minimal_level": 2,
      "kernel_order": 4, "lang_kernel_image_order": 2, "mu_verified": True,
      "n": 1, "q": 5}),
    (("cokernel", "--iso", "normcover"),
     {"invariants": [2], "isogeny": "normcover", "kernel_minimal_level": 1,
      "kernel_order": 2, "lang_kernel_image_order": 1, "mu_verified": True,
      "n": 1, "q": 5}),
    (("census", "--k", "2", "--reached"),
     {"count": 1, "k": 2, "n": 1, "order": 24, "q": 5,
      "reached": [{"normcover": True, "pow:2": True}], "spec": "NormTorus",
      "subgroups": [{"core_index": 2, "normal": True, "order": 12}]}),
    (("census", "--k", "3", "--reached"),
     {"count": 1, "k": 3, "n": 1, "order": 24, "q": 5,
      "reached": [{"normcover": False, "pow:2": False}], "spec": "NormTorus",
      "subgroups": [{"core_index": 3, "normal": True, "order": 8}]}),
]


@pytest.mark.parametrize("argv,want", NONSPLIT_F5_PAYLOADS,
                         ids=[" ".join(a) for a, _ in NONSPLIT_F5_PAYLOADS])
def test_nonsplit_norm_torus_payloads_are_unchanged(capsys, argv, want):
    code = main([*argv, "--spec", "NormTorus", "--p", "5", "--n", "1"])
    assert code == 0
    assert capsys.readouterr().out == json.dumps(want, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("spec,p,e,n", [("NormTorus", 5, 1, 1),
                                        ("NormTorus", 2, 1, 3),
                                        ("NormTorus", 7, 1, 1),
                                        ("Gm", 2, 2, 2), ("SL", 3, 1, 1)])
def test_points_list_entries_live_in_the_level_field(capsys, spec, p, e, n):
    code, payload = run_cli(capsys, "points", "--spec", spec, "--p", str(p),
                            "--e", str(e), "--n", str(n), "--list", "4")
    assert code == 0 and payload["elements"]
    for rows in payload["elements"]:
        assert all(len(c) == e * n for row in rows for c in row)


def test_every_exported_name_imports():
    import isocensus
    assert len(set(isocensus.__all__)) == len(isocensus.__all__)
    assert {"Image", "image", "with_sections"} <= set(isocensus.__all__)
    for name in isocensus.__all__:
        assert getattr(isocensus, name) is not None
    # group API that no experiment or command reached is gone
    deleted = {isocensus.homs: ("quotient_by_central", "fiber_product"),
               isocensus.census: ("abelianization_invariants", "derived_subgroup",
                                  "normal_core", "CensusReport", "run_census"),
               isocensus.Matrix: ("from_entries",),
               isocensus.matgroup: ("pair_group",),
               isocensus.FiniteGroup: ("closure_ids",)}
    for owner, names in deleted.items():
        for name in names:
            assert name not in isocensus.__all__ and not hasattr(owner, name), name


def test_composite_isogeny_parsing():
    spec = GmSpec(5)
    iso = homs.parse_isogeny("compose:(pow:2,pow:3)", spec)
    assert iso.name == "compose:(pow:2,pow:3)"
    assert iso.kernel_order() == 6
    with pytest.raises(ValueError):
        homs.parse_isogeny("compose:(pow:2", spec)
    with pytest.raises(ValueError):
        homs.parse_isogeny("frobnicate", spec)


def test_identity_isogeny_takes_the_matrix_dimension(capsys):
    # Sp needs an even dimension, so --m 3 must fail rather than fall back to m = 2
    code = main(["image", "--spec", "Sp", "--m", "3", "--p", "2", "--iso", "id"])
    assert code == 2
    assert "even dimension" in capsys.readouterr().err
    code, payload = run_cli(capsys, "image", "--spec", "Sp", "--m", "2", "--p", "2",
                            "--iso", "id")
    assert code == 0 and payload["image_index"] == 1


def test_cli_reports_errors_with_exit_2(capsys):
    code = main(["kernel", "--iso", "pow:3", "--spec", "Gm", "--p", "9"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (("points", "--spec", "GL", "--p", "3", "--m", "0"), "m=0"),
    (("points", "--spec", "GL", "--p", "3", "--m", "-1"), "m=-1"),
    (("image", "--spec", "Gm", "--p", "3", "--iso", "pow:x"), "'pow:x'"),
    (("points", "--spec", "SO", "--p", "2", "--m", "2"),
     "split SO in characteristic 2 needs a quadratic form"),
    (("points", "--spec", "Gm", "--p", "3", "--e", "0"), "e=0"),
    (("points", "--spec", "SL", "--p", "3", "--e", "-1"), "e=-1"),
])
def test_bad_spec_input_fails_with_a_named_error(capsys, argv, named):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


def test_debug_raises_the_error_with_its_traceback(capsys):
    argv = ["points", "--spec", "GL", "--p", "3", "--m", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(ValueError, match="m=0") as info:
        main(["--debug", *argv])
    assert info.traceback[-1].name == "__init__"
    assert capsys.readouterr().err == ""


def test_config_round_trip():
    config = ExperimentConfig(seed=7, e12_qs=(2, 3), e4_qs=((2, 1), (3, 1)))
    text = config.to_json()
    again = ExperimentConfig.from_json(text)
    assert again == config
    assert again.to_json() == text
    with pytest.raises(ValueError):
        ExperimentConfig.from_json('{"nonsense": 1}')
    # keys of settings that are constants now; each fails by name
    for key in ("s_search", "mu_order_bound", "e3_q", "e3_k", "e4_ks", "e7_p_min",
                "e7_k_max", "census_order_bound", "candidate_bound", "oracle_bound"):
        with pytest.raises(ValueError, match=rf"\['{key}'\]"):
            ExperimentConfig.from_json(json.dumps({key: 1}))


def test_all_rejects_an_unknown_format_before_any_cell(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(Runner, "run", lambda self, eid: ran.append(eid))
    cfg = tmp_path / "config.json"
    cfg.write_text('{"fmt": "xml"}')
    out = tmp_path / "reports"
    assert main(["all", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'xml'" in capsys.readouterr().err
    assert not ran and not out.exists()


@pytest.mark.parametrize("key", ["e12_qs", "e6_qs"])
def test_all_rejects_a_q_that_is_no_prime_power_before_any_cell(tmp_path, capsys,
                                                                monkeypatch, key):
    ran = []
    monkeypatch.setattr(Runner, "run", lambda self, eid: ran.append(eid))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({key: [6]}))
    out = tmp_path / "reports"
    assert main(["all", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{key} entry 6 is not a prime power" in capsys.readouterr().err
    assert not ran and not out.exists()


SMALL = dict(e12_qs=(2,), e12_n_max=2, e12_ks=(2, 3), e3_n_max=4,
             e4_qs=((2, 1),), e5_p_max=7, e6_qs=(2, 3), e6_ratio_n_max=3,
             e7_p_max=5, e8_ps=(2,), e8_n_max=2)


@pytest.mark.parametrize("key", ["e12_n_max", "e12_order_bound"])
def test_all_fails_a_grid_where_no_cell_passed(tmp_path, capsys, key):
    # a bound of 0 leaves E1 and E2 no cell, or only skipped ones
    cfg = tmp_path / "config.json"
    cfg.write_text(ExperimentConfig(**{**SMALL, key: 0}).to_json())
    code, payload = run_cli(capsys, "all", "--config", str(cfg),
                            "--out", str(tmp_path / "reports"))
    assert code == 1 and payload["summary"]["all_pass"] is False
    for eid, summary in payload["summary"]["experiments"].items():
        assert summary["failed"] == 0
        assert summary["pass"] is (eid not in ("E1", "E2")), eid
    assert payload["summary"]["experiments"]["E1"]["passed"] == 0


def test_experiment_subcommand_writes_reports(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(ExperimentConfig(**SMALL).to_json())
    code, payload = run_cli(capsys, "experiment", "E8", "--config", str(cfg),
                            "--out", str(tmp_path / "reports"))
    assert code == 0
    assert (tmp_path / "reports" / "E8.json").exists()
    assert payload["summary"]["all_pass"]


def test_run_all_summary_structure(tmp_path):
    runner = Runner(ExperimentConfig(**SMALL))
    result = runner.run_all()
    assert set(result["reports"]) == {f"E{i}" for i in range(1, 9)}
    assert result["summary"]["all_pass"]
    paths = write_reports(result, str(tmp_path / "r"), "both")
    names = sorted(p.rsplit("/", 1)[1] for p in paths)
    assert "summary.json" in names and "E1.csv" in names


def test_e1_gives_a_power_map_its_codomain_points_as_domain(monkeypatch):
    # Runner.group keys groups by spec and level, so pow:k, whose
    # domain and codomain specs agree, gets one point group for both
    seen = []
    real = homs.image

    def record(iso, n, amb, *, domain, codomain):
        seen.append((iso.name, domain, codomain))
        return real(iso, n, amb, domain=domain, codomain=codomain)

    monkeypatch.setattr(homs, "image", record)
    cells = Runner(ExperimentConfig(e12_qs=(5,), e12_n_max=2, e12_ks=(2, 3))).e1()
    assert all(c["status"] == "pass" for c in cells)
    assert {name for name, _, _ in seen} == {"pow:2", "pow:3", "normcover"}
    for name, domain, codomain in seen:
        assert (domain is codomain) == name.startswith("pow:")


def test_every_quotient_the_program_takes_is_by_a_normal_subgroup(monkeypatch, capsys):
    # normality is quotient_group's precondition, which it does not check;
    # a tiny E2 grid and the cokernel command must meet it on every call
    taken = []
    real = census.quotient_group

    def checked(group, normal_ids):
        taken.append(is_subgroup(group, normal_ids) and is_normal(group, normal_ids))
        return real(group, normal_ids)

    monkeypatch.setattr(census, "quotient_group", checked)
    report = Runner(ExperimentConfig(e12_qs=(2, 3), e12_n_max=2, e12_ks=(2, 3))).run("E2")
    assert report["summary"]["failed"] == 0
    code, payload = run_cli(capsys, "cokernel", "--iso", "normcover",
                            "--spec", "NormTorus", "--p", "7", "--n", "1")
    assert code == 0 and payload["mu_verified"] is True
    assert len(taken) > 2 and all(taken)
