"""Self-test of the benchmark harness on the `tiny` workload (about 20 s).

    python3 benchmark/selftest.py

Checks that the printed metric names and units match BENCHMARK.json, that a
corrupted reference digest fails the run, that traced counts repeat exactly
across two runs with the same seed, and that a directory holding only the
benchmark exits nonzero without printing a result.  Exit code 0 when all
checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out", "selftest")
SEED = 3
# Per-layer metrics that are exact counts of a traced pass.
DETERMINISTIC_UNITS = ("count", "count_computed")
DETERMINISTIC_RATIOS = ("matgroup.mult_cache_hit_ratio",
                        "experiments.group_cache_hit_ratio",
                        "experiments.cells_failed_ratio")


def bench(cwd=ROOT, trace=0):
    cmd = [sys.executable, os.path.join(cwd, "benchmark", "run.py"),
           "--workload", "tiny", "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{\"correct\"") \
        else None
    return proc.returncode, result


def expected(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def copy_benchmark(dest: str, with_program: bool) -> str:
    """A checkout at `dest` holding BENCHMARK.json, benchmark/ and maybe src/."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, os.path.join(dest, "benchmark"), ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=skip)
    return dest


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    checks = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)

    code, plain = bench()
    checks.append(("untraced run passes its checks",
                   code == 0 and plain is not None and plain["correct"]))
    checks.append(("end-to-end metric names and units match BENCHMARK.json",
                   plain is not None
                   and units(plain) == expected(spec, "end_to_end")))

    code1, first = bench(trace=1)
    code2, second = bench(trace=1)
    checks.append(("per-layer metric names and units match BENCHMARK.json",
                   first is not None
                   and units(first) == expected(spec, "per_layer")))
    same = code1 == code2 == 0 and first is not None and second is not None
    if same:
        for name, m in first["metrics"].items():
            if m["unit"] in DETERMINISTIC_UNITS or name in DETERMINISTIC_RATIOS:
                if second["metrics"][name]["value"] != m["value"]:
                    print(f"  {name}: {m['value']} then "
                          f"{second['metrics'][name]['value']}")
                    same = False
    checks.append(("traced counts repeat across two runs with one seed", same))

    corrupt = copy_benchmark(os.path.join(SCRATCH, "corrupt"), True)
    path = os.path.join(corrupt, "benchmark", "reference.json")
    with open(path) as fh:
        reference = json.load(fh)
    digest = reference["tiny"]["E1"]
    reference["tiny"]["E1"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    with open(path, "w") as fh:
        json.dump(reference, fh)
    code, bad = bench(cwd=corrupt)
    checks.append(("a corrupted reference digest fails the run",
                   code != 0 and bad is not None and not bad["correct"]
                   and bad["failed"] > 0))

    code, result = bench(cwd=copy_benchmark(os.path.join(SCRATCH, "bare"), False))
    checks.append(("without the program it exits nonzero and prints no result",
                   code != 0 and result is None))

    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
