"""One benchmark process: build a workload's inputs, run it closed-loop, check it.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``,
so it measures the checked-out code, never an installed copy.  It prints
``READY`` once comag is imported and the inputs are built (the parent times
spawn-to-``READY`` as set-up, and reads the reference loop's time printed
next), then runs rounds of operations until
``--seconds`` have passed and prints ``RESULT <json>`` with the raw samples.

An operation is one top-level call: a study on ``mc_*``, one fused reading
on ``spectral``, one CLI command on ``cli``.  A round is a fixed list of
operations, and every round of a run repeats it with the same inputs: one
study, ``SPECTRAL_ROUND`` readings, or the eight commands.  Repeating lets
run.py take each operation's median over its repeats.  Every operation is
checked after its timer stops; a check that fails or an exception marks it
failed.

With ``--trace 1`` each round runs twice, untraced and then traced, and the
per-layer numbers come from the traced copies.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import golden  # noqa: E402

WORKLOADS = ("mc_wide", "mc_deep", "spectral", "cli")

# The background field measured in the lab; also the default of
# SpatialScanConfig.b_0.
B0_MEASURED = (0.004, -0.7454, 0.6451)

# Readings per spectral round.  The round repeats, so a run checks this many
# distinct readings: with four 5-sigma tests per reading, a chance failure
# comes about once in 2,000 runs.  128 readings keep the p90 over readings
# within a few percent from seed to seed (64 did not).
SPECTRAL_ROUND = 128
# Each lab component of a spectral field is drawn uniformly from
# +-SPECTRAL_RANGE G, inside the working-point readout range nv_measure
# documents.  At this commit about 1 reading in 1,500 of these raises
# UnresolvedPeaksError ("outside the working-point readout range"): at the
# measured background one dip's readout point sits 2.6 MHz right of its
# center, and noise can push the PL difference past the flank's top.  Such a
# reading counts as failed; the range is not narrowed to hide it.
SPECTRAL_RANGE = 0.3

CLI_COMMANDS = (
    "simulate-grid",
    "orthogonality",
    "marginal",
    "spatial-scan",
    "scalar-demo",
    "angular-map",
    "calibrate",
    "estimate",
)
# Files each command must leave in its output directory.
CLI_EXPECTED = {
    "simulate-grid": ("grid.csv", "grid_summary.txt", "plot_grid.py"),
    "orthogonality": (
        "orthogonality.csv",
        "orthogonality_summary.txt",
        "plot_orthogonality.py",
    ),
    "marginal": ("marginal.csv", "marginal_summary.txt", "plot_marginal.py"),
    "spatial-scan": (
        "spatial_scan.csv",
        "spatial_scan_summary.txt",
        "plot_spatial_scan.py",
    ),
    "scalar-demo": (
        "scalar_demo.csv",
        "scalar_demo_summary.txt",
        "plot_scalar_demo.py",
    ),
    "angular-map": (
        "angular_map.csv",
        "angular_map_summary.txt",
        "plot_angular_map.py",
    ),
    "calibrate": ("calibration_summary.txt",),
    "estimate": ("estimate.csv",),
}
# Times of the reference kernels (see Reference) taken right after set-up.
SETUP_REFERENCES = 5

CALIBRATION_PAIRS = 12
CALIBRATION_NOISE = 1e-4  # G, on each Rb reading of the pairs CSV
CALIBRATION_TOL = 1e-3  # G, per component of the recovered background


def _rng(seed: int):
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(seed))


def _study_seed(seed: int) -> int:
    """The SimConfig seed of the study a run repeats."""
    return int(_rng(seed).integers(0, 2**31))


class Op:
    """Outcome of one operation at position ``pos`` of its round."""

    def __init__(self, pos: int, label: str, pairs: int, reading: bool):
        self.pos = pos
        self.label = label
        self.pairs = pairs
        self.reading = reading
        self.wall = 0.0
        self.ref = 0.0
        self.errors: list[str] = []

    def as_dict(self) -> dict:
        return {
            "pos": self.pos,
            "label": self.label,
            "wall": self.wall,
            "ref": self.ref,
            "pairs": self.pairs,
            "reading": self.reading,
            "ok": not self.errors,
            "errors": self.errors[:3],
        }


# ---------------------------------------------------------------- mc_*


def _gain_errors(imp) -> list[str]:
    """The gain maps must be finite wherever the harness flags them valid."""
    import numpy as np

    errors = []
    if not np.any(imp.valid):
        errors.append("no valid cell")
    for name, mask in (
        ("gain_mag_mse_db", imp.valid),
        ("gain_mag_mae_db", imp.valid),
        ("gain_dir_mse_db", imp.dir_valid),
        ("gain_dir_mae_db", imp.dir_valid),
    ):
        bad = int(np.count_nonzero(~np.isfinite(getattr(imp, name)[mask])))
        if bad:
            errors.append(f"{name}: {bad} non-finite gains on valid cells")
    return errors


class McWide:
    """``sweep_calibration_error`` at SimConfig(b_0_true=(0.5, 0, 0)).

    Why: acceptance criterion 2's configuration, 8 grids x 1,681 cells x 50
    reps.  Many tiny cells: per-cell Python and per-cell generator
    construction dominate, and only about a tenth of a study is spent in
    batch_combined.  This is where a cell-batch kernel shows.

    Each operation sweeps one rung of the default calibration-error ladder
    (``cal_errors=(e,)``) and a round sweeps the whole ladder, so each
    time is scaled by a reference taken 0.3 s apart rather than 2.5 s.
    """

    name = "mc_wide"

    def __init__(self, seed: int):
        from comag import simulation
        from comag.geometry import FieldVector

        self.sim = simulation
        self.seed = seed
        self.cfg = simulation.SimConfig(
            b_0_true=FieldVector(0.5, 0.0, 0.0), seed=_study_seed(seed)
        )
        self.ladder = [f * self.cfg.sigma_nv for f in simulation.CAL_ERROR_FRACTIONS]
        self.round_len = len(self.ladder)
        self.pairs = self.cfg.grid_points**2 * self.cfg.n_reps
        self.peaks: dict[int, float] = {}

    def run_op(self, i: int, corrupt: bool) -> Op:
        import numpy as np

        op = Op(i, "grid", self.pairs, True)
        t0 = time.perf_counter()
        sweep = self.sim.sweep_calibration_error(self.cfg, cal_errors=(self.ladder[i],))
        op.wall = time.perf_counter() - t0
        (imp,) = sweep.values()
        if corrupt:
            _perturb_gain(imp)
        op.errors += _gain_errors(imp)
        gain = imp.gain_mag_mse_db
        self.peaks[i] = float(np.max(gain[imp.valid & np.isfinite(gain)]))
        if i == self.round_len - 1 and not any(22.0 <= g <= 28.0 for g in self.peaks.values()):
            op.errors.append(f"no rung peaks in [22, 28] dB: {sorted(self.peaks.values())}")
        if self.seed == golden.DEFAULT_SEED:
            op.errors += golden.compare_study(self.name, [imp], first=i)
        return op

    def golden_record(self) -> dict:
        return golden.study_record(list(self.sim.sweep_calibration_error(self.cfg).values()))


class McDeep:
    """``run_grid_simulation`` on 9 x 9 cells x 20,000 reps, unshielded.

    Why: the same harness used the other way round.  Per-cell overhead is
    negligible; random draws and 20,000-row batch_combined calls dominate,
    and the working set is about a hundred MB, so a kernel that batches all
    cells at once would show here as peak memory.  Background is the
    measured B_0, with a 1 mG calibration error drawn per repetition.
    """

    name = "mc_deep"
    round_len = 1

    def __init__(self, seed: int):
        from comag import simulation
        from comag.geometry import FieldVector

        self.sim = simulation
        self.seed = seed
        self.cfg = simulation.SimConfig(
            grid_points=9,
            n_reps=20000,
            b_0_true=FieldVector(*B0_MEASURED),
            b_0_cal_error=1e-3,
            seed=_study_seed(seed),
        )
        self.pairs = self.cfg.grid_points**2 * self.cfg.n_reps

    def run_op(self, i: int, corrupt: bool) -> Op:
        op = Op(i, "study", self.pairs, True)
        t0 = time.perf_counter()
        imp = self.sim.run_grid_simulation(self.cfg)
        op.wall = time.perf_counter() - t0
        if corrupt:
            _perturb_gain(imp)
        op.errors += _gain_errors(imp)
        if self.seed == golden.DEFAULT_SEED:
            op.errors += golden.compare_study(self.name, [imp])
        return op

    def golden_record(self) -> dict:
        return golden.study_record([self.sim.run_grid_simulation(self.cfg)])


def _perturb_gain(imp) -> None:
    """Self-test corruption: one valid cell's gain moved by 1 dB."""
    import numpy as np

    iy, ix = np.argwhere(imp.valid)[len(np.argwhere(imp.valid)) // 2]
    imp.gain_mag_mse_db[iy, ix] += 1.0


# ---------------------------------------------------------------- spectral


class Spectral:
    """A seeded stream of small fields through nv_measure + rb_measure + fusion.

    Why: the spectral pipeline, which the mc_* harnesses never call.  The
    ODMR fit (finite-difference Jacobian over a 13-parameter model) takes
    most of a reading, then brentq and the LIA fit.  Each field component is
    drawn uniformly from +-SPECTRAL_RANGE on top of the measured B_0 and the
    default bias, with default OdmrParams/LiaParams and a fresh rng_seed for
    each scan.
    """

    name = "spectral"
    round_len = SPECTRAL_ROUND

    def __init__(self, seed: int):
        from comag import estimator, measurement
        from comag.geometry import FieldVector, default_basis

        self.est = estimator
        self.meas = measurement
        self.seed = seed
        self.basis = default_basis()
        self.b_0 = FieldVector(*B0_MEASURED)
        self.odmr = measurement.OdmrParams()
        self.lia = measurement.LiaParams()
        rng = _rng(seed)
        self.inputs = []
        for _ in range(SPECTRAL_ROUND):
            delta = rng.uniform(-SPECTRAL_RANGE, SPECTRAL_RANGE, 3)
            nv_seed, rb_seed = (int(s) for s in rng.integers(0, 2**31, 2))
            self.inputs.append((FieldVector(*delta), nv_seed, rb_seed))

    def reading(self, i: int):
        delta, nv_seed, rb_seed = self.inputs[i]
        m = self.meas
        b_nv, sigma_nv = m.nv_measure(
            delta, m.DEFAULT_BIAS, self.b_0, self.basis, self.odmr, m.GAMMA_NV, nv_seed
        )
        b_rb, sigma_rb = m.rb_measure(delta, self.b_0, m.GAMMA_RB, self.lia, rb_seed)
        est = self.est.combined_estimate(b_nv, self.b_0, b_rb)
        return {
            "nv": b_nv.as_array().tolist(),
            "sigma_nv": [float(s) for s in sigma_nv],
            "rb": float(b_rb),
            "sigma_rb": float(sigma_rb),
            "b_hat": est.b_hat.as_array().tolist(),
        }

    def run_op(self, i: int, corrupt: bool) -> Op:
        op = Op(i, "reading", 1, True)
        t0 = time.perf_counter()
        out = self.reading(i)
        op.wall = time.perf_counter() - t0
        if corrupt:
            out["nv"][0] += 10.0 * out["sigma_nv"][0]
        delta = self.inputs[i][0]
        truth = delta.as_array()
        for axis in range(3):
            z = abs(out["nv"][axis] - truth[axis]) / out["sigma_nv"][axis]
            if not z <= 5.0:
                op.errors.append(f"NV axis {axis} is {z:.2f} sigma from the truth")
        rb_truth = (delta + self.b_0).magnitude()
        z = abs(out["rb"] - rb_truth) / out["sigma_rb"]
        if not z <= 5.0:
            op.errors.append(f"Rb reading is {z:.2f} sigma from |delta + B_0|")
        if not all(math.isfinite(v) for v in out["b_hat"]):
            op.errors.append("fused estimate is not finite")
        if self.seed == golden.DEFAULT_SEED:
            op.errors += golden.compare_reading(i, out)
        return op

    def golden_record(self) -> dict:
        from comag.errors import ComagError

        readings = []
        for i in range(SPECTRAL_ROUND):
            try:
                readings.append(self.reading(i))
            except ComagError as err:
                readings.append({"error": f"{type(err).__name__}: {err}"})
        return {"readings": readings}


# ---------------------------------------------------------------- cli


class Cli:
    """Each round runs the eight commands once through ``comag.cli.main``.

    Why: the only workload that reaches config, reports and plots.  All
    commands run the default config (an empty config file, so the config
    parser runs) plus a seeded ``--seed``; calibrate reads a seeded 12-pair
    CSV and estimate gets seeded flags.

    The commands run in this process.  Start-up, which every command pays
    (about 1.1 s of importing comag, scipy most of it), is this workload's
    ``setup_s``: a fresh process importing comag.cli.  Timing each command
    as a fresh ``python -m comag.cli`` process instead spread 15-29% from
    run to run on a shared 2-core machine (3 rounds a run), too wide for
    any bound a later change could be judged by.
    """

    name = "cli"
    round_len = len(CLI_COMMANDS)

    def __init__(self, seed: int, work: str):
        import numpy as np

        from comag import cli
        from comag.config import RunSettings

        self.cli = cli
        self.seed = seed
        self.out = os.path.join(work, "out")
        os.makedirs(work, exist_ok=True)
        rng = _rng(seed)
        self.cli_seed = int(rng.integers(0, 2**31))

        self.b_0 = rng.uniform(-0.8, 0.8, 3)
        dirs = rng.normal(size=(CALIBRATION_PAIRS, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        nv = dirs * rng.uniform(1.0, 3.0, CALIBRATION_PAIRS)[:, None]
        rb = np.linalg.norm(nv + self.b_0, axis=1)
        rb += rng.normal(0.0, CALIBRATION_NOISE, CALIBRATION_PAIRS)
        self.pairs_csv = os.path.join(work, "pairs.csv")
        rows = ["bx,by,bz,b_rb"] + [
            ",".join(repr(float(v)) for v in (*n, r)) for n, r in zip(nv, rb)
        ]
        with open(self.pairs_csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")

        b_true = rng.uniform(-0.5, 0.5, 3)
        self.b_nv = b_true + rng.normal(0.0, 0.026, 3)
        self.b_rb = float(np.linalg.norm(b_true + self.b_0) + rng.normal(0.0, 2.6e-5))

        self.config_path = os.path.join(work, "default.ini")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write("# empty: every key takes its documented default\n")

        # Fused pairs each command computes, from the default settings.
        s = RunSettings()
        self.pairs = {
            "simulate-grid": s.simulation.grid_points**2 * s.simulation.n_reps,
            "marginal": s.marginal.n_points * s.simulation.n_reps,
            "spatial-scan": s.spatial.n_positions,
            "scalar-demo": 2 * s.spatial.n_positions,
            "estimate": 1,
        }

    def argv(self, command: str) -> list[str]:
        argv = [
            command,
            "--config",
            self.config_path,
            "--out",
            os.path.join(self.out, command),
            "--seed",
            str(self.cli_seed),
        ]
        if command == "calibrate":
            argv += ["--pairs", self.pairs_csv]
        if command == "estimate":
            vec = lambda v: ",".join(repr(float(x)) for x in v)  # noqa: E731
            argv += [
                f"--b-nv={vec(self.b_nv)}",
                f"--b-0={vec(self.b_0)}",
                f"--b-rb={self.b_rb!r}",
            ]
        return argv

    def run_command(self, command: str) -> tuple[int, float]:
        out_dir = os.path.join(self.out, command)
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        argv = self.argv(command)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            wall = time.perf_counter() - t0
        return code, wall

    def run_op(self, i: int, corrupt: bool) -> Op:
        command = CLI_COMMANDS[i]
        op = Op(i, command, self.pairs.get(command, 0), command == "estimate")
        code, op.wall = self.run_command(command)
        if code != 0:
            op.errors.append(f"exit code {code}")
            return op
        out_dir = os.path.join(self.out, command)
        missing = [f for f in CLI_EXPECTED[command] if not os.path.isfile(os.path.join(out_dir, f))]
        if missing:
            op.errors.append(f"missing files: {missing}")
            return op
        if corrupt:
            _edit_csv_cell(out_dir)
        op.errors += self.value_errors(command, out_dir)
        if self.seed == golden.DEFAULT_SEED:
            op.errors += golden.compare_command(command, out_dir)
        return op

    def value_errors(self, command: str, out_dir: str) -> list[str]:
        """Calibrate must recover the background the pairs were made from;
        estimate must match the closed form computed here."""
        if command == "calibrate":
            with open(os.path.join(out_dir, "calibration_summary.txt"), encoding="utf-8") as fh:
                summary = golden.parse_summary(fh.read())
            got = [float(summary[k]) for k in ("b0_x", "b0_y", "b0_z")]
            err = max(abs(g - t) for g, t in zip(got, self.b_0))
            if not err <= CALIBRATION_TOL:
                return [f"calibrated background off by {err:.2e} G"]
        if command == "estimate":
            import numpy as np

            s = self.b_nv + self.b_0
            norm_s = float(np.linalg.norm(s))
            expected = self.b_nv - s * (norm_s - self.b_rb) / norm_s
            with open(os.path.join(out_dir, "estimate.csv"), newline="", encoding="utf-8") as fh:
                row = next(csv.DictReader(fh))
            got = [float(row[k]) for k in ("bhat_x", "bhat_y", "bhat_z")]
            err = max(abs(g - e) for g, e in zip(got, expected))
            if not err <= 1e-9:
                return [f"estimate differs from the closed form by {err:.2e} G"]
        return []

    def golden_record(self) -> dict:
        record = {}
        for command in CLI_COMMANDS:
            code, _ = self.run_command(command)
            if code != 0:
                raise RuntimeError(f"{command} exited {code} while recording")
            record[command] = golden.command_record(os.path.join(self.out, command))
        return record


def _edit_csv_cell(out_dir: str) -> None:
    """Self-test corruption: one numeric cell of the first CSV changed."""
    names = sorted(f for f in os.listdir(out_dir) if f.endswith(".csv"))
    if not names:
        return
    path = os.path.join(out_dir, names[0])
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1.0) if cells[-1] != "nan" else "1.0"
    lines[1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def make(name: str, seed: int, work: str):
    if name == "mc_wide":
        return McWide(seed)
    if name == "mc_deep":
        return McDeep(seed)
    if name == "spectral":
        return Spectral(seed)
    if name == "cli":
        return Cli(seed, work)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- loops


class Reference:
    """Fixed kernels, timed between operations, that gauge the machine's speed.

    On a shared machine the processor's speed moves by 1.5-2.8x for tens of
    seconds at a time, and CPU time moves with it.  run.py divides each
    time by the reference measured beside it, so that runs made at
    different speeds compare.  The kernels are the kinds of work comag does:
    a pure-Python loop, object churn, many small numpy calls, normal draws
    and a pass over arrays larger than the L2 cache.  No single kind
    followed all three of spectral, mc_wide and mc_deep through the
    machine's speed changes; their sum followed each best.  It takes about
    10 ms on a 2-core x86 VM.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.small = rng.normal(size=200)
        self.big = rng.normal(size=150_000)

    def __call__(self) -> float:
        """Seconds the kernels take now."""
        np = self.np
        t0 = time.perf_counter()
        acc = 0
        for i in range(25_000):
            acc += i * i
        table = {str(i): [i, (i, i)] for i in range(2_500)}
        sorted(table.items(), key=lambda kv: -kv[1][0])
        x = self.small
        for _ in range(450):
            x = np.sqrt(np.abs(x) + 1.0) * 0.5
        draws = np.random.default_rng(1)
        for _ in range(45):
            draws.normal(size=2_000)
        np.sin(self.big) * self.big + 1.0
        return time.perf_counter() - t0


def run_round(wl, k: int, corrupt: bool, reference: Reference) -> list[Op]:
    """One round; each operation's ``ref`` is the mean of the reference
    timed just before and just after it."""
    ops = []
    before = reference()
    for i in range(wl.round_len):
        t0 = time.perf_counter()
        try:
            op = wl.run_op(i, corrupt and k == 0 and i == 0)
        except Exception as err:  # a raise, ComagError included, is a failure
            op = Op(i, f"op{i}", 0, False)
            op.wall = time.perf_counter() - t0
            op.errors.append(f"{type(err).__name__}: {err}")
        after = reference()
        op.ref = (before + after) / 2
        before = after
        ops.append(op)
    return ops


def timed_run(wl, seconds: float, corrupt: bool = False) -> dict:
    """Closed loop: whole rounds until ``seconds`` of wall time have passed."""
    reference = Reference()
    ops: list[Op] = []
    rounds: list[float] = []
    t_end = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < t_end:
        round_ops = run_round(wl, k, corrupt, reference)
        ops += round_ops
        rounds.append(sum(op.wall for op in round_ops))
        k += 1
    return {"ops": [op.as_dict() for op in ops], "rounds": rounds}


def traced_run(wl, seconds: float, trace_path: str) -> dict:
    """Alternate untraced and traced copies of each round until time is up."""
    import layers
    from spans import Tracer

    tracer = Tracer()
    reference = Reference()
    untraced: list[float] = []
    traced: list[float] = []
    per_round: list[dict] = []
    ops: list[Op] = []
    t_end = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < t_end:
        plain = run_round(wl, k, False, reference)
        first = len(tracer.spans)
        with tracer.patched(layers.PROBES):
            spanned = run_round(wl, k, False, reference)
        ops += plain + spanned
        untraced.append(sum(op.wall for op in plain))
        traced.append(sum(op.wall for op in spanned))
        per_round.append(layers.layer_metrics(tracer, first))
        k += 1
    tracer.dump(trace_path)
    return {
        "ops": [op.as_dict() for op in ops],
        "untraced_rounds": untraced,
        "traced_rounds": traced,
        "layers": per_round,
    }


def environment() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for this run's files")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    wl = make(args.workload, args.seed, args.work)
    print("READY", flush=True)
    reference = Reference()
    refs = sorted(reference() for _ in range(SETUP_REFERENCES))
    print(f"REF {refs[len(refs) // 2]!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = traced_run(wl, args.seconds, os.path.join(args.work, "spans.jsonl"))
    else:
        result = timed_run(wl, args.seconds)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    if isinstance(wl, Cli):
        result["digests"] = golden.digest_report(wl.out, args.seed)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
