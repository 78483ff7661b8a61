"""Command-line interface: point counts, isogeny invariants, censuses, and
the batch experiment harness.

Every subcommand prints one deterministic JSON document to stdout; the
experiment subcommands additionally write report files.  The process exits 0
exactly when every assertion that ran passed.  An error prints one `error:`
line and exits 2; with `--debug` it is raised with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import census, homs, orderform
from .experiments import (EXPERIMENT_IDS, FORMATS, ExperimentConfig, Runner,
                          write_reports)
from .ffield import make_field
from .matgroup import builtin_specs, make_spec, mat_rows, rational_points

#: `census` lists its subgroups, their reach flags and classes only for
#: groups of at most this order
CENSUS_LIST_ORDER = 4096


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_points(args) -> int:
    if args.list < 0:
        raise ValueError(f"--list N must be nonnegative, got {args.list}")
    spec = make_spec(args.spec, args.p, args.e, args.m)
    amb = make_field(args.p, spec.entry_degree(args.n))
    group = rational_points(spec, args.n, amb)
    payload = {"spec": args.spec, "q": spec.q, "n": args.n,
               "order": len(group)}
    if args.list:
        payload["elements"] = [[[list(c) for c in row] for row in mat_rows(g)]
                               for g in group.elements[:args.list]]
    _emit(payload)
    return 0


def cmd_order(args) -> int:
    payload = {"spec": args.spec, "q": args.q, "n": args.n,
               "order": orderform.closed_order(args.spec, args.q, args.n, args.m)}
    if args.spec == "SL" and args.m == 2:
        payload["bn_order"] = orderform.bn_order(orderform.BN_CATALOG["SL2"],
                                                 args.q**args.n)
    payload["center_order"] = orderform.center_order(args.spec, args.q,
                                                     args.n, args.m)
    _emit(payload)
    return 0


def cmd_kernel(args) -> int:
    iso = homs.parse_isogeny(args.iso, make_spec(args.spec, args.p, args.e, args.m))
    amb = make_field(args.p, homs.plan_degree(iso))
    group, min_level = homs.kernel_points(iso, amb)
    _emit({"isogeny": iso.name, "q": iso.q, "kernel_order": len(group),
           "minimal_level": min_level,
           "invariants": census.invariant_factors_abelian(
               group, range(len(group)), [group.identity_id])})
    return 0


def cmd_image(args) -> int:
    iso = homs.parse_isogeny(args.iso, make_spec(args.spec, args.p, args.e, args.m))
    amb = make_field(args.p, homs.plan_degree(iso, n=args.n))
    index, ker_n, equal = homs.check_image_index(homs.image(iso, args.n, amb))
    _emit({"isogeny": iso.name, "q": iso.q, "n": args.n, "image_index": index,
           "kernel_rational": ker_n, "index_equals_kernel": equal})
    return 0 if equal else 1


def cmd_cokernel(args) -> int:
    iso = homs.parse_isogeny(args.iso, make_spec(args.spec, args.p, args.e, args.m))
    amb = make_field(args.p, homs.plan_degree(iso, n=args.n, sections=True))
    data = homs.cokernel(iso, args.n, homs.image(iso, args.n, amb), amb)
    data = homs.with_sections(data, iso, args.n, seed=args.seed)
    mu_ok = homs.verify_mu(data)
    _emit({"isogeny": iso.name, "q": iso.q, "n": args.n,
           "invariants": data.invariants,
           "kernel_order": len(data.kernel_group),
           "kernel_minimal_level": data.kernel_min_level,
           "lang_kernel_image_order": len(data.lang_image_ids),
           "mu_verified": mu_ok})
    return 0 if mu_ok else 1


def cmd_census(args) -> int:
    spec = make_spec(args.spec, args.p, args.e, args.m)
    catalog = []
    if args.reached:
        if spec.tag != "NormTorus":
            raise ValueError("--reached supports the NormTorus spec only")
        catalog.append(homs.NormCoverIsogeny(args.p, args.e))
        if spec.q % 2:
            catalog.append(homs.PowerIsogeny(spec, 2))
    degree = homs.plan_degree(*catalog, n=args.n, sections=True) if catalog \
        else spec.entry_degree(args.n)
    amb = make_field(args.p, degree)
    group = rational_points(spec, args.n, amb)
    subs = census.index_k_subgroups(group, args.k, seed=args.seed)
    payload = {"spec": spec.tag, "q": spec.q, "n": args.n, "k": args.k,
               "order": len(group), "count": len(subs)}
    if len(group) <= CENSUS_LIST_ORDER:
        payload["subgroups"] = [{"order": h.order, "normal": h.normal,
                                 "core_index": h.core_index} for h in subs]
        if catalog and subs:
            payload["reached"] = homs.reached_by(
                group, [h.ids for h in subs], catalog, args.n, amb, seed=args.seed)
        if args.classes and subs:
            payload["conjugacy_classes"] = [
                len(c) for c in census.conjugacy_classes_of_subgroups(group, subs)]
    _emit(payload)
    return 0


def cmd_experiment(args) -> int:
    config = _load_config(args)
    result = Runner(config).run_all(EXPERIMENT_IDS if args.id == "all" else (args.id,))
    paths = write_reports(result, config.out_dir, config.fmt)
    _emit({"written": paths, "summary": result["summary"]})
    return 0 if result["summary"]["all_pass"] else 1


def _load_config(args) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            config = ExperimentConfig.from_json(fh.read())
    else:
        config = ExperimentConfig()
    if args.out:
        config.out_dir = args.out
    if args.format:
        config.fmt = args.format
    if args.seed is not None:
        config.seed = args.seed
    return config


def _add_spec_args(sub, with_n=True):
    sub.add_argument("--spec", default="Gm", choices=sorted(builtin_specs()))
    sub.add_argument("--p", type=int, required=True, help="characteristic")
    sub.add_argument("--e", type=int, default=1, help="base field is F_{p^e}")
    sub.add_argument("--m", type=int, default=2, help="matrix dimension")
    if with_n:
        sub.add_argument("--n", type=int, default=1, help="extension level")


def _add_report_args(sub):
    sub.add_argument("--config", help="JSON config path")
    sub.add_argument("--out", help="report directory")
    sub.add_argument("--format", choices=FORMATS)
    sub.add_argument("--seed", type=int)
    sub.set_defaults(func=cmd_experiment)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isocensus",
        description="exact isogeny/subgroup experiments for matrix groups "
                    "over finite fields")
    parser.add_argument("--debug", action="store_true",
                        help="raise errors with their traceback, not as one line")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("points", help="enumerate a rational-point group")
    _add_spec_args(sp)
    sp.add_argument("--list", type=int, default=0, metavar="N",
                    help="include up to N elements in the output")
    sp.set_defaults(func=cmd_points)

    so = subs.add_parser("order", help="closed order formulas")
    so.add_argument("--spec", default="SL")
    so.add_argument("--q", type=int, required=True)
    so.add_argument("--n", type=int, default=1)
    so.add_argument("--m", type=int, default=2)
    so.set_defaults(func=cmd_order)

    for name, fn in (("kernel", cmd_kernel), ("image", cmd_image),
                     ("cokernel", cmd_cokernel)):
        si = subs.add_parser(name, help=f"{name} of a catalog isogeny")
        _add_spec_args(si, with_n=(name != "kernel"))
        si.add_argument("--iso", required=True,
                        help="pow:K | normcover | id | compose:(a,b)")
        si.set_defaults(func=fn)
    subs.choices["cokernel"].add_argument("--seed", type=int, default=0)

    sc = subs.add_parser("census", help="index-k subgroup census")
    _add_spec_args(sc)
    sc.add_argument("--k", type=int, required=True)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--reached", action="store_true",
                    help="also compute reached-by flags (norm torus only)")
    sc.add_argument("--classes", action="store_true",
                    help="group the subgroups into conjugacy classes")
    sc.set_defaults(func=cmd_census)

    se = subs.add_parser("experiment", help="run one experiment (E1..E8)")
    se.add_argument("id", choices=[*EXPERIMENT_IDS,
                                   *[e.lower() for e in EXPERIMENT_IDS], "all"])
    _add_report_args(se)

    sa = subs.add_parser("all", help="run every experiment")
    _add_report_args(sa)
    sa.set_defaults(id="all")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "id", None) and args.id != "all":
        args.id = args.id.upper()
    try:
        return args.func(args)
    except Exception as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
