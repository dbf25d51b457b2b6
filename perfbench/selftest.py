"""Short self-test of the benchmark.  Run from the checkout root:

    python3 perfbench/selftest.py

It checks that
- BENCHMARK.json names the workloads worker.py runs;
- a short untraced and a short traced run of every workload print every
  metric BENCHMARK.json names, with its unit, and record fail_frac;
- a deliberately corrupted output of every workload (one grid gain moved by
  1 dB, one NV component moved by 10 sigma, one CSV cell edited) is counted
  as a failed operation, i.e. in fail_frac;
- run.py exits non-zero, printing no result, in a directory that holds only
  BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import golden  # noqa: E402
import worker  # noqa: E402

ROOT = os.getcwd()
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(golden.DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def load_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_benchmark_json() -> None:
    bench = load_benchmark_json()
    check(
        [w["name"] for w in bench["workloads"]] == list(worker.WORKLOADS),
        "BENCHMARK.json workloads match worker.WORKLOADS",
    )


def check_short_runs() -> None:
    bench = load_benchmark_json()
    for workload in worker.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = [(m["name"], m["unit"]) for m in bench[key]]
            proc = run_bench(ROOT, workload, trace)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"{what}: result keys",
            )
            got = [(name, m["unit"]) for name, m in result["metrics"].items()]
            check(got == list(expected), f"{what}: every metric with its unit")
            check(
                all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                    for m in result["metrics"].values()),
                f"{what}: finite values",
            )
            record_path = os.path.join(
                ROOT, ".perfbench", f"{workload}-s{golden.DEFAULT_SEED}-t{trace}", "record.json"
            )
            with open(record_path, encoding="utf-8") as fh:
                record = json.load(fh)
            check(record["fail_frac"]["unit"] == "ratio", f"{what}: fail_frac recorded")
            check(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{what}: nothing failed ({result['failed']}/{result['attempted']})",
            )


def check_corruption() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    work = os.path.join(ROOT, ".perfbench", "selftest-corrupt")
    shutil.rmtree(work, ignore_errors=True)
    for workload in worker.WORKLOADS:
        wl = worker.make(workload, golden.DEFAULT_SEED, os.path.join(work, workload))
        ops = worker.timed_run(wl, 0.0, corrupt=True)["ops"]
        failed = sum(1 for op in ops if not op["ok"])
        check(
            not ops[0]["ok"] and failed == 1,
            f"{workload}: corrupted output counted in fail_frac "
            f"({failed}/{len(ops)}: {ops[0]['errors'][:1]})",
        )


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, worker.WORKLOADS[0], 0)
    check(
        proc.returncode != 0 and "metrics" not in proc.stdout,
        f"bare directory: exit {proc.returncode}, no result printed",
    )


def main() -> int:
    check_benchmark_json()
    check_bare_directory()
    check_corruption()
    check_short_runs()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
