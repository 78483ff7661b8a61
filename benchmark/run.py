"""isocensus benchmark: experiment grids end to end, and layer by layer.

    python3 benchmark/run.py --workload image_index --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from `src/`.  One
process, one thread: passes of the workload (see workloads.py) run back to
back until `--seconds` have elapsed, each on a fresh `Runner`.  Every pass
is checked: report digests against `reference.json`, sweep censuses against
the lattice oracle.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` (cells, summed over passes) and
`metrics`; the line before it stamps the machine and commit.

--trace 0 reports the end-to-end metrics: median wall and CPU seconds of a
pass, peak resident memory, and the median set-up time of fresh processes
of setup_probe.py, which import the program and build the config.

--trace 1 alternates untraced and traced passes (tracer.py) and reports the
per-layer metrics of the traced passes, the tracing overhead and the kernel
microbenchmarks (kernels.py); spans go to .bench_out/.

reference.json holds the sha256 of every report, recorded once; reports
must stay byte-identical.  A digest failure prints the new sha256, so a
change that alters a report on purpose can update the file by hand.

The exit code is 0 exactly when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 15
PROBES_PER_PASS = 2


def load_program() -> None:
    """Import isocensus from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, SRC)
    import isocensus
    if not os.path.abspath(isocensus.__file__).startswith(SRC + os.sep):
        raise ImportError(f"isocensus imported from {isocensus.__file__}, "
                          f"not from {SRC}")
    import isocensus.cli  # noqa: F401  the entry point, counted in set-up


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": git_sha(ROOT)}


def git_sha(root: str) -> str:
    """HEAD of the checkout, or 'unknown' outside git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# set-up time


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it can run a cell."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
           str(seed)]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# passes


def timed_pass(workload: str, seed: int, reference: dict, tracer=None):
    """(wall s, cpu s, PassResult) of one pass, traced when a tracer is given.

    The garbage of earlier passes is collected first, so that every pass
    starts from the same heap, as a fresh process would.
    """
    import workloads
    gc.collect()
    wrap = tracer.span("bench.sweep_group") if tracer else None
    if tracer:
        tracer.install()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        result = workloads.run_pass(workload, seed, reference, wrap_sweep=wrap)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    finally:
        if tracer:
            tracer.uninstall()
    return wall, cpu, result


def end_to_end(workload: str, seed: int, seconds: float, reference: dict):
    # set-up probes run between passes, so that they sample the same spread
    # of machine load as the passes do
    passes, setup = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(timed_pass(workload, seed, reference))
        setup += measure_setup(workload, seed, PROBES_PER_PASS)
    setup += measure_setup(workload, seed, max(0, SETUP_PROBES - len(setup)))
    metrics = {
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        "cpu_s": (statistics.median(p[1] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    info = {"passes": len(passes), "pass_wall_s": [p[0] for p in passes],
            "setup_probe_s": setup}
    return [p[2] for p in passes], metrics, info


# ---------------------------------------------------------------------------
# traced run


def _ratio_hit(misses: int, calls: int) -> float:
    return 1 - misses / calls if calls else 0.0


def layer_metrics(t, cells: int) -> dict:
    """name -> (value, unit, is a count) from one traced pass."""
    from tracer import APPLY, GROUP_OP, LAYERS
    mult = "matgroup.FiniteGroup.mult"
    m = {}

    def calls(metric, name):
        m[metric] = (t.calls(name), "count", True)

    def secs(metric, name):
        m[metric] = (t.seconds(name), "s", False)

    for op in ("mul", "add", "inv", "frobenius"):
        calls(f"ffield.{op}_calls", f"ffield.AmbientField.{op}")
    secs("ffield.mul_s", "ffield.AmbientField.mul")
    calls("ffield.kth_root_calls", "ffield.kth_root")
    secs("ffield.kth_root_s", "ffield.kth_root")
    calls("matgroup.matmul_calls", "matgroup.Matrix.__mul__")
    secs("matgroup.matmul_s", "matgroup.Matrix.__mul__")
    calls("matgroup.group_mult_calls", mult)
    op_calls = t.edge(GROUP_OP, mult)
    m["matgroup.group_op_calls"] = (op_calls, "count", True)
    m["matgroup.mult_cache_hit_ratio"] = (
        _ratio_hit(op_calls, t.calls(mult)), "ratio", True)
    calls("matgroup.rational_points_calls", "matgroup.rational_points")
    secs("matgroup.rational_points_s", "matgroup.rational_points")
    secs("matgroup.closure_ids_s", "matgroup.FiniteGroup.closure_ids")
    m["experiments.group_cache_hit_ratio"] = (
        _ratio_hit(t.edge("matgroup.rational_points", "experiments.Runner.group"),
                   t.calls("experiments.Runner.group")), "ratio", True)
    calls("homs.apply_calls", APPLY)
    secs("homs.apply_s", APPLY)
    secs("homs.cokernel_s", "homs.cokernel")
    calls("homs.verify_mu_calls", "homs.verify_mu")
    secs("homs.verify_mu_s", "homs.verify_mu")
    m["homs.verify_mu_products"] = (t.edge(mult, "homs.verify_mu"), "count", True)
    secs("homs.induced_reaches_s", "homs.induced_isogeny_reaches")
    secs("homs.quotient_by_central_s", "homs.quotient_by_central")
    calls("census.index_k_calls", "census.index_k_subgroups")
    secs("census.index_k_s", "census.index_k_subgroups")
    calls("census.bfs_program_calls", "census._bfs_program")
    secs("census.bfs_program_s", "census._bfs_program")
    secs("census.oracle_s", "census.subgroup_lattice_oracle")
    secs("census.small_generating_set_s", "census.small_generating_set")
    secs("census.quotient_group_s", "census.quotient_group")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (t.self_s[layer], "s", False)
    m["experiments.cells"] = (cells, "count", True)
    return m


def traced(workload: str, seed: int, seconds: float, reference: dict):
    import kernels
    from tracer import Tracer
    plain, runs = [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        plain.append(timed_pass(workload, seed, reference))
        t = Tracer()
        runs.append((timed_pass(workload, seed, reference, tracer=t), t))
    per_pass = [layer_metrics(t, p[2].attempted) for p, t in runs]
    metrics, unstable = {}, []
    for name, (value, unit, is_count) in per_pass[0].items():
        values = [pm[name][0] for pm in per_pass]
        if is_count and len(set(values)) > 1:
            unstable.append(name)
        metrics[name] = (value if is_count else statistics.median(values), unit)
    results = [p[2] for p in plain] + [p[2] for p, _ in runs]
    failed = sum(r.failed for r in results)
    attempted = sum(r.attempted for r in results)
    metrics["experiments.cells_failed_ratio"] = (failed / attempted, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p[0] for p, _ in runs)
        / statistics.median(p[0] for p in plain), "ratio")
    metrics.update(kernels.run(seed))
    first = runs[0][1]
    info = {"passes": len(plain) + len(runs), "absent": sorted(set(first.absent)),
            "counts_not_repeated": unstable, "dropped_spans": first.dropped_spans}
    write_trace(workload, seed, info, first.spans())
    return results, metrics, info


def write_trace(workload: str, seed: int, info: dict, spans: list) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "env": environment(),
                   **info, "span_fields": ["parent", "name", "start_s", "end_s"],
                   "spans": spans}, fh)


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    from configs import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)[args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: no reference digests for {args.workload!r} in "
              f"{REFERENCE}: {exc!r}", file=sys.stderr)
        return 2

    run = traced if args.trace else end_to_end
    results, metrics, info = run(args.workload, args.seed, args.seconds, reference)
    failures = [f for r in results for f in r.failures]
    for cell, reason in sorted(set(failures)):
        print(f"FAIL {cell}: {reason}", file=sys.stderr)
    for name in info.get("absent", ()):
        print(f"absent: {name} is not in the program; its metrics read 0",
              file=sys.stderr)
    for name in info.get("counts_not_repeated", ()):
        print(f"warning: {name} differs between traced passes; the first "
              "pass is reported", file=sys.stderr)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = failed == 0
    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed, **info}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
