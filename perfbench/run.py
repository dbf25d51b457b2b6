"""comag benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc_wide --seed 3 --seconds 20 --trace 0

Run it from the root of a comag checkout; it imports the checkout's
``src`` through ``PYTHONPATH`` and installs nothing.  The workloads are
described in worker.py.  Each runs as one closed-loop caller in a worker
process, with no pool.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every round of a run repeats the same operations with the same inputs (see
worker.py): one rung of the calibration-error ladder on ``mc_wide``, the
study on ``mc_deep``, one reading on ``spectral``, one command on ``cli``.

Times are scaled to a nominal machine speed.  On a shared 2-core VM the
processor's speed moved by 1.5-2.8x for tens of seconds at a time, in CPU
time as much as in wall time, and whole runs went slow: ten 25 s spectral
runs spread 38% (quartile distance over median) on wall time, and taking
each operation's fastest repeat still left 26-42% on three of the four
workloads.  So worker.py times fixed reference kernels (worker.Reference)
between operations, and each operation's time here is its wall time
multiplied by REFERENCE_NOMINAL_S over the mean of the references just
before and after it; an operation's repeats are then reduced to their
median.  Over two sets of ten 20 s runs per workload the scaled figures
spread 3-11% (quartile distance over median), where each operation's
fastest wall time spread 10-46%, and the two sets' medians agreed within
6%.  A change to comag moves the operation and not the reference, so it
shows in full.  Each run's record keeps the unscaled figures too (each
operation's fastest repeat, as measured).

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: spawn of a fresh process until comag is imported and the
  workload's inputs are built, scaled by the reference timed right after;
  the median of SETUP_SAMPLES processes.  On ``cli`` this is the start-up
  every command pays.
- ``readings_per_s``: fused NV/Rb reading pairs of one round that passed
  their checks, over ``cli_round_s``.  A grid or study counts cells x reps;
  a command counts the pairs it fuses at the default settings.
- ``reading_ms_p50``/``reading_ms_p90``: time per reading pair, over the
  distinct operations of a round that fuse readings.  On ``spectral`` one
  nv_measure + rb_measure + combined_estimate; on ``mc_*`` a grid's time
  over its pairs; on ``cli`` the ``estimate`` command.
- ``command_s_p50``: median over a round's operations of their time; a CLI
  command runs from the call of ``comag.cli.main`` until it returns with
  its files on disk.
- ``cli_round_s``: time of one round, the operations that reproduce every
  output once: the eight-rung ladder, the study, SPECTRAL_ROUND readings,
  or the eight commands.
- ``peak_rss_mb``: peak resident memory of the worker process (the
  reference kernels add about 4 MB).

``fail_frac`` (failed over attempted operations) is the result's
``failed``/``attempted``; it is printed above the JSON and stored in the
run record, not repeated among the metrics, because it is 0 when all is
well.  ``--trace 1`` reports the per-layer metrics of layers.py instead,
with the import breakdown of ``python -X importtime -c "import comag.cli"``.

Each run also writes ``.perfbench/<workload>-s<seed>-t<trace>/record.json``
holding the metrics, fail_frac, sample counts, failures, output digests and
the environment (Python, numpy, scipy, cores, BLAS threads, git commit,
``src/comag`` line count).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import import_breakdown  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
# Times are reported at the speed at which worker.Reference takes this
# long: each measured time is multiplied by REFERENCE_NOMINAL_S / (the
# reference's time beside it).
REFERENCE_NOMINAL_S = 10e-3
RUN_LIMIT_S = 170.0
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Runner:
    def __init__(self, root: str, args):
        self.root = root
        self.args = args
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.work = os.path.join(
            root, ".perfbench", f"{args.workload}-s{args.seed}-t{args.trace}"
        )
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), self.env.get("PYTHONPATH")) if p
        )

    def remaining(self) -> float:
        return max(self.deadline - time.perf_counter(), 0.0)

    def spawn(self, setup_only: bool) -> tuple[subprocess.Popen, float]:
        """Start a worker; return it and the seconds until it printed READY."""
        a = self.args
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--seconds", str(a.seconds),
            "--trace", str(a.trace),
            "--work", self.work,
        ]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True
        )
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "READY":
            self.finish(proc)
            raise BenchError(f"worker did not start (exit {proc.returncode})")
        return proc, ready

    def finish(self, proc: subprocess.Popen) -> str:
        try:
            out, _ = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker did not finish in time")
        return out

    def run(self) -> dict:
        """Set up SETUP_SAMPLES workers (one when tracing); the last runs."""
        setups = []
        for k in range(1 if self.args.trace else SETUP_SAMPLES):
            last = k == (0 if self.args.trace else SETUP_SAMPLES - 1)
            proc, ready = self.spawn(setup_only=not last)
            out = self.finish(proc)
            if proc.returncode != 0:
                raise BenchError(f"worker exited {proc.returncode}")
            setups.append({"wall": ready, "ref": float(_tagged(out, "REF"))})
        result = json.loads(_tagged(out, "RESULT"))
        result["setups"] = setups
        return result

    def import_breakdown(self) -> dict:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import comag.cli"],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=self.remaining(),
        )
        if proc.returncode != 0:
            raise BenchError("importing comag.cli failed")
        return import_breakdown(proc.stderr)


def _tagged(out: str, tag: str) -> str:
    """The text after ``tag`` on the worker's last line that starts with it."""
    lines = [l for l in out.splitlines() if l.startswith(tag + " ")]
    if not lines:
        raise BenchError(f"worker printed no {tag} line")
    return lines[-1][len(tag) + 1:]


def scaled(sample: dict) -> float:
    """A measured time at the nominal reference speed."""
    return sample["wall"] * REFERENCE_NOMINAL_S / sample["ref"]


def per_position(ops: list[dict], pick) -> list[dict]:
    """One entry per round position: ``pick`` of its repeats' times; passed
    only if every repeat did."""
    groups: dict[int, list[dict]] = {}
    for op in ops:
        groups.setdefault(op["pos"], []).append(op)
    out = []
    for pos in sorted(groups):
        reps = groups[pos]
        out.append({**reps[0], "ok": all(op["ok"] for op in reps), "wall": pick(reps)})
    return out


def end_to_end(result: dict) -> tuple[dict, dict, dict]:
    """Metrics from the scaled times, the same unscaled, and sample counts."""
    values = _end_to_end(
        per_position(result["ops"], lambda reps: statistics.median(map(scaled, reps))),
        statistics.median(map(scaled, result["setups"])),
        result["peak_rss_mb"],
    )
    # As measured, without scaling: each position's fastest repeat.
    raw = _end_to_end(
        per_position(result["ops"], lambda reps: min(op["wall"] for op in reps)),
        statistics.median(s["wall"] for s in result["setups"]),
        result["peak_rss_mb"],
    )
    positions = per_position(result["ops"], len)
    samples = {
        "setup": len(result["setups"]),
        "operations": len(result["ops"]),
        "rounds": len(result["ops"]) // len(positions),
        "distinct_readings": sum(1 for op in positions if op["reading"] and op["pairs"]),
        "reference_s_median": statistics.median(op["ref"] for op in result["ops"]),
    }
    return values, raw, samples


def _end_to_end(ops: list[dict], setup_s: float, peak_rss_mb: float) -> dict:
    round_s = sum(op["wall"] for op in ops)
    per_pair_ms = [
        op["wall"] / op["pairs"] * 1e3 for op in ops if op["reading"] and op["pairs"]
    ]
    return {
        "setup_s": setup_s,
        "readings_per_s": sum(op["pairs"] for op in ops if op["ok"]) / round_s,
        "reading_ms_p50": percentile(per_pair_ms, 0.5),
        "reading_ms_p90": percentile(per_pair_ms, 0.9),
        "command_s_p50": statistics.median(op["wall"] for op in ops),
        "cli_round_s": round_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(result: dict, imports: dict) -> tuple[dict, dict]:
    """Layer numbers of the fastest traced round (coherent with each other)."""
    traced = result["traced_rounds"]
    values = dict(result["layers"][traced.index(min(traced))])
    values["import.comag_s"] = imports["comag_s"]
    values["import.scipy_s"] = imports["scipy_s"]
    values["trace.overhead_frac"] = min(traced) / min(result["untraced_rounds"]) - 1.0
    return values, {"traced_rounds": len(traced)}


def metric_units(root: str, key: str) -> dict[str, str]:
    """Name to unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` list."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def environment(root: str, worker_env: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src = os.path.join(root, "src", "comag")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        **worker_env,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": commit,
        "src_comag_lines": lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="comag benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "comag", "__init__.py")):
        print("run.py: no src/comag here; run it from a comag checkout", file=sys.stderr)
        return 2
    try:
        runner = Runner(root, args)
        result = runner.run()
        if args.trace:
            values, samples = per_layer(result, runner.import_breakdown())
            raw = None
            units = metric_units(root, "per_layer")
        else:
            values, raw, samples = end_to_end(result)
            units = metric_units(root, "end_to_end")
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as err:
        print(f"run.py: {err!r}", file=sys.stderr)
        return 1

    ops = result["ops"]
    failed = sum(1 for op in ops if not op["ok"])
    failures = [f"{op['label']}: {e}" for op in ops if not op["ok"] for e in op["errors"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "unscaled_fastest": raw,
        "fail_frac": {"value": failed / len(ops), "unit": "ratio"},
        "samples": samples,
        "failures": failures[:50],
        "op_walls": [round(op["wall"], 7) for op in ops],
        "op_refs": [round(op["ref"], 7) for op in ops],
        "setups": result["setups"],
        "digests": result.get("digests"),
        "env": environment(root, result["env"]),
    }
    with open(os.path.join(runner.work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':42s} {failed / len(ops):.6g} ratio ({failed}/{len(ops)})")
    print("samples: " + ", ".join(f"{k}={v}" for k, v in samples.items()))
    digests = result.get("digests") or {}
    if "matching" in digests:
        print(
            f"digests: {digests['matching']} match the reference, "
            f"{len(digests['differing'])} differ {digests['differing']}"
        )
    for line in failures[:5]:
        print(f"FAILED {line}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
