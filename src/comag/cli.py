"""Command-line front end: ``comag <command> --config <path> [--out DIR] [--seed N]``.

Commands cover the simulation harnesses (simulate-grid, orthogonality,
marginal, spatial-scan, scalar-demo, angular-map), background calibration
from a CSV of paired readings, and a one-shot combined estimate.  Each
command writes CSV data, a key-value summary, and a plot script into the
output directory.

Exit codes: 0 success, 2 config/usage parse error, 3 validation error,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import RunSettings, parse_config
from .errors import (
    ComagError,
    ConfigParseError,
    ConfigValidationError,
)
from .estimator import CalibrationSet, calibrate_background, combined_estimate
from .geometry import FieldVector
from .plots import emit_plot_script
from .reports import write_csv, write_summary
from .simulation import (
    SpatialScanConfig,
    angular_error_map,
    marginal_improvement,
    orthogonality_map,
    run_grid_simulation,
    scalar_vs_vector_demo,
    spatial_scan_sim,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

COMMANDS = (
    "simulate-grid",
    "orthogonality",
    "marginal",
    "spatial-scan",
    "scalar-demo",
    "angular-map",
    "calibrate",
    "estimate",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comag",
        description="Hybrid NV/Rb comagnetometer estimation and simulation tool",
    )
    parser.add_argument("--version", action="version", version=f"comag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file (defaults apply if omitted)")
        p.add_argument("--out", default="comag-results", help="output directory")
        p.add_argument("--seed", type=int, help="override the configured RNG seed")
        p.add_argument("-v", "--verbose", action="store_true")

    for name, desc in (
        ("simulate-grid", "Monte-Carlo improvement map over a field grid"),
        ("orthogonality", "noiseless correction-orthogonality map"),
        ("marginal", "single-axis improvement profile"),
        ("spatial-scan", "dipole scan measured by Rb, NV, and combined"),
        ("scalar-demo", "vector vs naive scalar background subtraction"),
        ("angular-map", "angular uncertainty of a vector reading"),
    ):
        common(sub.add_parser(name, help=desc))

    cal = sub.add_parser("calibrate", help="solve the background field from paired readings")
    common(cal)
    cal.add_argument("--pairs", help="CSV of calibration pairs (bx,by,bz,b_rb)")

    est = sub.add_parser("estimate", help="one combined estimate from a reading pair")
    common(est)
    est.add_argument("--b-nv", help="NV vector reading, comma separated (G)")
    est.add_argument("--b-0", help="background field vector, comma separated (G)")
    est.add_argument("--b-rb", type=float, help="Rb scalar reading (G)")
    return parser


def _parse_vector_flag(text: str, name: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigParseError(f"flag {name}: expected three comma-separated numbers")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigParseError(f"flag {name}: expected numbers, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise ConfigValidationError(f"flag {name}: values must be finite, got {text!r}")
    return values  # type: ignore[return-value]


def _load_settings(args) -> RunSettings:
    settings = parse_config(args.config) if args.config else RunSettings()
    if args.seed is not None:
        try:
            settings = settings.with_seed(args.seed)
        except ValueError as err:
            raise ConfigValidationError(f"--seed {args.seed}: {err}")
    return settings


def _out(args, name: str) -> str:
    import os

    return os.path.join(args.out, name)


def _config_echo(settings: RunSettings) -> dict:
    sim = settings.simulation
    return {
        "grid_min": sim.grid_min,
        "grid_max": sim.grid_max,
        "grid_points": sim.grid_points,
        "n_reps": sim.n_reps,
        "sigma_nv": sim.sigma_nv,
        "sigma_rb": sim.resolved_sigma_rb(),
        "sigma_ratio": sim.sigma_ratio,
        "b_0": ",".join(repr(float(v)) for v in sim.b_0_true.as_array()),
        "b_0_cal_error": sim.b_0_cal_error,
        "seed": sim.seed,
    }


def _grid_xy(bx: np.ndarray, by: np.ndarray) -> dict[str, np.ndarray]:
    """bx and by columns of a (by, bx) grid table, rows in C order."""
    return {"bx": np.tile(bx, len(by)), "by": np.repeat(by, len(bx))}


def _cmd_simulate_grid(args, settings: RunSettings) -> int:
    imp = run_grid_simulation(settings.simulation)
    write_csv(
        _out(args, "grid.csv"),
        {
            **_grid_xy(imp.bx, imp.by),
            "gain_mag_mse_db": imp.gain_mag_mse_db,
            "gain_mag_mae_db": imp.gain_mag_mae_db,
            "gain_dir_mse_db": imp.gain_dir_mse_db,
            "gain_dir_mae_db": imp.gain_dir_mae_db,
            "orthogonality": imp.orthogonality,
            "valid": imp.valid,
        },
    )
    gains = imp.gain_mag_mse_db[imp.valid & np.isfinite(imp.gain_mag_mse_db)]
    summary = _config_echo(settings)
    summary.update(
        {
            "cells": int(imp.valid.size),
            "valid_cells": int(np.count_nonzero(imp.valid)),
            "median_gain_mag_mse_db": float(np.median(gains)) if gains.size else math.nan,
            "max_gain_mag_mse_db": float(np.max(gains)) if gains.size else math.nan,
        }
    )
    write_summary(_out(args, "grid_summary.txt"), summary)
    emit_plot_script("grid", "grid.csv", _out(args, "plot_grid.py"))
    if args.verbose:
        print(f"median magnitude gain {summary['median_gain_mag_mse_db']:.2f} dB")
    return EXIT_OK


def _cmd_orthogonality(args, settings: RunSettings) -> int:
    cfg = settings.simulation
    ortho = orthogonality_map(cfg)
    write_csv(
        _out(args, "orthogonality.csv"),
        {**_grid_xy(cfg.axis_values(), cfg.axis_values()), "orthogonality": ortho},
    )
    summary = _config_echo(settings)
    summary["median_orthogonality"] = float(np.nanmedian(ortho))
    write_summary(_out(args, "orthogonality_summary.txt"), summary)
    emit_plot_script("orthogonality", "orthogonality.csv", _out(args, "plot_orthogonality.py"))
    return EXIT_OK


def _cmd_marginal(args, settings: RunSettings) -> int:
    mg = settings.marginal
    prof = marginal_improvement(
        settings.simulation,
        axis=mg.axis,
        field_min=mg.field_min,
        field_max=mg.field_max,
        n_points=mg.n_points,
    )
    write_csv(
        _out(args, "marginal.csv"),
        {
            "b_applied": prof.b_applied,
            "gain_mag_mse_db": prof.gain_mag_mse_db,
            "gain_mag_mae_db": prof.gain_mag_mae_db,
            "var_nv": prof.var_nv,
            "var_combined": prof.var_combined,
            "orthogonality": prof.orthogonality,
        },
    )
    summary = _config_echo(settings)
    ok = np.isfinite(prof.gain_mag_mse_db)
    summary.update(
        {
            "axis": mg.axis,
            "points": mg.n_points,
            "median_gain_mag_mse_db": float(np.median(prof.gain_mag_mse_db[ok])),
            "frac_points_above_0db": float(np.mean(prof.gain_mag_mse_db[ok] > 0.0)),
        }
    )
    write_summary(_out(args, "marginal_summary.txt"), summary)
    emit_plot_script("marginal", "marginal.csv", _out(args, "plot_marginal.py"))
    return EXIT_OK


def _cmd_spatial(args, settings: RunSettings) -> int:
    rep = spatial_scan_sim(settings.spatial)
    write_csv(
        _out(args, "spatial_scan.csv"),
        {
            "position_mm": rep.positions,
            "true_mag": rep.true_mag,
            "nv_mag": rep.nv_mag,
            "rb_mag": rep.rb_mag,
            "combined_mag": rep.combined_mag,
            "nv_fit": rep.nv_fit,
            "rb_fit": rep.rb_fit,
            "combined_fit": rep.combined_fit,
        },
    )
    write_summary(
        _out(args, "spatial_scan_summary.txt"),
        {
            "n_positions": rep.config.n_positions,
            "stage_range_mm": rep.config.stage_range,
            "sigma_nv": rep.config.sigma_nv,
            "sigma_rb": rep.config.sigma_rb,
            "seed": rep.config.seed,
            "rmse_nv": rep.rmse_nv,
            "rmse_rb": rep.rmse_rb,
            "rmse_combined": rep.rmse_combined,
            "gain_db": rep.gain_db,
        },
    )
    emit_plot_script("spatial", "spatial_scan.csv", _out(args, "plot_spatial_scan.py"))
    if args.verbose:
        print(f"NV RMSE {rep.rmse_nv:.4f} G, combined RMSE {rep.rmse_combined:.4f} G")
    return EXIT_OK


def _cmd_demo(args, settings: RunSettings) -> int:
    cfg = settings.spatial
    if cfg.source_axis is None:
        # A source collinear with the background hides the distortion the
        # demo exists to show; default to a clearly non-collinear axis.
        cfg = replace(cfg, source_axis=(0.0, 0.0, 1.0))
    rep = scalar_vs_vector_demo(cfg)
    write_csv(
        _out(args, "scalar_demo.csv"),
        {
            "position_mm": rep.positions,
            "true_mag": rep.true_mag,
            "combined": rep.combined,
            "naive": rep.naive,
            "combined_reversed": rep.combined_reversed,
            "naive_reversed": rep.naive_reversed,
        },
    )
    write_summary(
        _out(args, "scalar_demo_summary.txt"),
        {
            "n_positions": cfg.n_positions,
            "seed": cfg.seed,
            "rms_combined_error": float(
                np.sqrt(np.nanmean((rep.combined - rep.true_mag) ** 2))
            ),
            "rms_naive_error": float(
                np.sqrt(np.nanmean((rep.naive - rep.true_mag) ** 2))
            ),
        },
    )
    emit_plot_script("demo", "scalar_demo.csv", _out(args, "plot_scalar_demo.py"))
    return EXIT_OK


def _cmd_angular(args, settings: RunSettings) -> int:
    a = settings.angular
    amap = angular_error_map(a.grid_min, a.grid_max, a.grid_points, a.sigma)
    write_csv(
        _out(args, "angular_map.csv"),
        {
            **_grid_xy(amap.bx, amap.by),
            "d_theta_rad": amap.d_theta,
            "d_phi_rad": amap.d_phi,
            "total_db": amap.total_db,
        },
    )
    write_summary(
        _out(args, "angular_map_summary.txt"),
        {
            "sigma": a.sigma,
            "grid_points": a.grid_points,
            "min_total_db": float(np.nanmin(amap.total_db)),
            "max_total_db": float(np.nanmax(amap.total_db)),
        },
    )
    emit_plot_script("angular", "angular_map.csv", _out(args, "plot_angular_map.py"))
    return EXIT_OK


def _read_pairs_csv(path: str) -> CalibrationSet:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ConfigValidationError(f"calibration file {path!r} is empty")
            expected = ["bx", "by", "bz", "b_rb"]
            if [h.strip().lower() for h in header] != expected:
                raise ConfigValidationError(
                    f"calibration file must have header {','.join(expected)}"
                )
            pairs = []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    bx, by, bz, rb = (float(v) for v in row)
                except ValueError:
                    raise ConfigParseError(
                        f"{path}:{line_no}: expected four numbers, got {row!r}"
                    )
                pairs.append((bx, by, bz, rb))
    except OSError as err:
        raise ConfigParseError(f"cannot read calibration file {path!r}: {err}")
    try:
        return CalibrationSet(tuple((FieldVector(bx, by, bz), rb) for bx, by, bz, rb in pairs))
    except ValueError as err:
        raise ConfigValidationError(str(err))


def _cmd_calibrate(args, settings: RunSettings) -> int:
    path = args.pairs or settings.calibrate.pairs_csv
    if not path:
        raise ConfigValidationError(
            "calibrate needs --pairs or [calibrate] pairs_csv in the config"
        )
    cal = _read_pairs_csv(path)
    cal = CalibrationSet(cal.pairs, settings.calibrate.calibration_averages)
    b_0_hat, residual = calibrate_background(cal)
    write_summary(
        _out(args, "calibration_summary.txt"),
        {
            "pairs": len(cal.pairs),
            "b0_x": b_0_hat.bx,
            "b0_y": b_0_hat.by,
            "b0_z": b_0_hat.bz,
            "residual_norm": residual,
        },
    )
    print(
        f"b_0 = ({b_0_hat.bx:.6f}, {b_0_hat.by:.6f}, {b_0_hat.bz:.6f}) G, "
        f"residual norm {residual:.3e} G"
    )
    return EXIT_OK


def _cmd_estimate(args, settings: RunSettings) -> int:
    est_cfg = settings.estimate
    b_nv = _parse_vector_flag(args.b_nv, "--b-nv") if args.b_nv else est_cfg.b_nv
    b_0 = _parse_vector_flag(args.b_0, "--b-0") if args.b_0 else est_cfg.b_0
    b_rb = args.b_rb if args.b_rb is not None else est_cfg.b_rb
    if b_nv is None or b_rb is None:
        raise ConfigValidationError(
            "estimate needs --b-nv and --b-rb (flags or [estimate] section)"
        )
    if not math.isfinite(b_rb):
        raise ConfigValidationError(f"flag --b-rb: value must be finite, got {b_rb!r}")
    if b_rb < 0:
        raise ConfigValidationError("estimate b_rb must be >= 0")
    est = combined_estimate(FieldVector(*b_nv), FieldVector(*b_0), float(b_rb))
    print(f"b_hat        = ({est.b_hat.bx:.6f}, {est.b_hat.by:.6f}, {est.b_hat.bz:.6f}) G")
    print(
        f"correction   = ({est.correction.bx:.6f}, {est.correction.by:.6f}, "
        f"{est.correction.bz:.6f}) G"
    )
    print(f"radial       = {est.radial:.6f} G")
    print(f"tangential   = {est.tangential:.6f} G")
    print(f"orthogonality= {est.orthogonality:.6f}")
    print(f"b_0          = ({b_0[0]:.6f}, {b_0[1]:.6f}, {b_0[2]:.6f}) G")
    write_csv(
        _out(args, "estimate.csv"),
        {
            "bhat_x": est.b_hat.bx,
            "bhat_y": est.b_hat.by,
            "bhat_z": est.b_hat.bz,
            "correction_x": est.correction.bx,
            "correction_y": est.correction.by,
            "correction_z": est.correction.bz,
            "radial": est.radial,
            "tangential": est.tangential,
            "orthogonality": est.orthogonality,
        },
    )
    return EXIT_OK


_HANDLERS = {
    "simulate-grid": _cmd_simulate_grid,
    "orthogonality": _cmd_orthogonality,
    "marginal": _cmd_marginal,
    "spatial-scan": _cmd_spatial,
    "scalar-demo": _cmd_demo,
    "angular-map": _cmd_angular,
    "calibrate": _cmd_calibrate,
    "estimate": _cmd_estimate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _load_settings(args)
        return _HANDLERS[args.command](args, settings)
    except ConfigParseError as err:
        print(f"comag: config error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigValidationError as err:
        print(f"comag: invalid configuration: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except ComagError as err:
        print(f"comag: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as err:
        print(f"comag: i/o error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
