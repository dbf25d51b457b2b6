"""Command-line front end: ``comag <command> --config <path> [--out DIR] [--seed N]``.

Commands, declared once in ``_COMMANDS``, cover the simulation reports
(each writes ``<stem>.csv``, a key-value ``<stem>_summary.txt`` and a
``plot_<stem>.py`` script), background calibration from a CSV of paired
readings, and a one-shot combined estimate.  ``calibrate`` and
``estimate`` also take the keys of their config section as flags
(``--pairs``; ``--b-nv``, ``--b-0``, ``--b-rb``), and ``--seed`` sets
[simulation] and [spatial] seed.  A flag replaces the file's value before
any check; each section is then checked once.  An empty flag value unsets it.

Exit codes: 0 success, 2 config/usage parse error, 3 validation error,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import __version__
from .config import _KEYS, RunSettings, parse_config, parse_config_text, rendered
from .errors import ComagError, ConfigParseError, ConfigValidationError
from .estimator import CalibrationSet, calibrate_background, combined_estimate
from .geometry import FieldVector
from .plots import emit_plot_script
from .reports import write_csv, write_summary
from .simulation import (
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comag",
        description="Hybrid NV/Rb comagnetometer estimation and simulation tool",
    )
    parser.add_argument("--version", action="version", version=f"comag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, *sections) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI config file (defaults apply if omitted)")
        p.add_argument("--out", default="comag-results", help="output directory")
        p.add_argument("--seed", help="override the configured RNG seed")
        p.add_argument("-v", "--verbose", action="store_true")
        for section in sections:
            for key, (field_name, _) in _KEYS[section].items():
                p.add_argument(_flag(field_name), help=f"override [{section}] {key}")
    return parser


def _flag(field_name: str) -> str:
    return "--" + field_name.replace("_", "-")


def _load_settings(args) -> RunSettings:
    """The file's settings with the flags' values in place of its own, each
    section built and checked once, on the merged values."""
    flags = [
        (section, key, getattr(args, name), f"flag {_flag(name)}")
        for section, key, name in [("simulation", "seed", "seed"), ("spatial", "seed", "seed")]
        + [(s, k, n) for s in _COMMANDS[args.command][2:] for k, (n, _) in _KEYS[s].items()]
        if getattr(args, name) is not None
    ]
    if args.config:
        return parse_config(args.config, _flags=flags)
    return parse_config_text("", _flags=flags)


def _out(args, name: str) -> str:
    return os.path.join(args.out, name)


def _config_echo(settings: RunSettings) -> dict:
    """Every [simulation] key, sigma_rb resolved.  Not by replace(): a resolved
    sigma_rb that underflows to 0 would fail the section's check."""
    sim = settings.simulation
    return {**rendered(settings, "simulation"), "sigma_rb": sim.resolved_sigma_rb()}


def _grid_xy(bx: np.ndarray, by: np.ndarray) -> dict[str, np.ndarray]:
    """bx and by columns of a (by, bx) grid table, rows in C order."""
    return {"bx": np.tile(bx, len(by)), "by": np.repeat(by, len(bx))}


def _or_nan(reduce, values: np.ndarray) -> float:
    """reduce(values), or nan when there are none (numpy warns on an empty reduction)."""
    return float(reduce(values)) if values.size else math.nan


Report = tuple[dict, dict, "str | None"]  # CSV columns, summary, the line -v prints


def _report(stem: str):
    """Decorate a compute function, settings -> Report, into the handler that
    writes <stem>.csv, <stem>_summary.txt and plot_<stem>.py.  The writers and
    harnesses are looked up here when called, so a tracer can wrap them."""

    def decorate(compute):
        def handler(args, settings: RunSettings) -> int:
            columns, summary, line = compute(settings)
            write_csv(_out(args, f"{stem}.csv"), columns)
            write_summary(_out(args, f"{stem}_summary.txt"), summary)
            emit_plot_script(stem, _out(args, f"plot_{stem}.py"))
            if args.verbose and line:
                print(line)
            return EXIT_OK

        return handler

    return decorate


@_report("grid")
def _grid(settings: RunSettings) -> Report:
    imp = run_grid_simulation(settings.simulation)
    gains = imp.gain_mag_mse_db[imp.valid & np.isfinite(imp.gain_mag_mse_db)]
    median = _or_nan(np.median, gains)
    columns = {
        **_grid_xy(imp.bx, imp.by),
        "gain_mag_mse_db": imp.gain_mag_mse_db,
        "gain_mag_mae_db": imp.gain_mag_mae_db,
        "gain_dir_mse_db": imp.gain_dir_mse_db,
        "gain_dir_mae_db": imp.gain_dir_mae_db,
        "orthogonality": imp.orthogonality,
        "valid": imp.valid,
    }
    summary = {
        **_config_echo(settings),
        "cells": int(imp.valid.size),
        "valid_cells": int(np.count_nonzero(imp.valid)),
        "median_gain_mag_mse_db": median,
        "max_gain_mag_mse_db": _or_nan(np.max, gains),
    }
    return columns, summary, f"median magnitude gain {median:.2f} dB"


@_report("orthogonality")
def _orthogonality(settings: RunSettings) -> Report:
    cfg = settings.simulation
    ortho = orthogonality_map(cfg)
    columns = {**_grid_xy(cfg.axis_values(), cfg.axis_values()), "orthogonality": ortho}
    summary = {**_config_echo(settings), "median_orthogonality": float(np.nanmedian(ortho))}
    return columns, summary, None


@_report("marginal")
def _marginal(settings: RunSettings) -> Report:
    mg = settings.marginal
    prof = marginal_improvement(settings.simulation, mg)
    columns = {
        "b_applied": prof.b_applied,
        "gain_mag_mse_db": prof.gain_mag_mse_db,
        "gain_mag_mae_db": prof.gain_mag_mae_db,
        "var_nv": prof.var_nv,
        "var_combined": prof.var_combined,
        "orthogonality": prof.orthogonality,
    }
    gains = prof.gain_mag_mse_db[np.isfinite(prof.gain_mag_mse_db)]
    summary = {
        **_config_echo(settings),
        "axis": mg.axis,
        "points": mg.n_points,
        "median_gain_mag_mse_db": _or_nan(np.median, gains),
        "frac_points_above_0db": _or_nan(np.mean, gains > 0.0),
    }
    return columns, summary, None


@_report("spatial_scan")
def _spatial_scan(settings: RunSettings) -> Report:
    cfg = settings.spatial
    rep = spatial_scan_sim(cfg)
    columns = {
        "position_mm": rep.positions,
        "true_mag": rep.true_mag,
        "nv_mag": rep.nv_mag,
        "rb_mag": rep.rb_mag,
        "combined_mag": rep.combined_mag,
        "nv_fit": rep.nv_fit,
        "rb_fit": rep.rb_fit,
        "combined_fit": rep.combined_fit,
    }
    summary = {
        "n_positions": cfg.n_positions,
        "stage_range_mm": cfg.stage_range,
        "sigma_nv": cfg.sigma_nv,
        "sigma_rb": cfg.sigma_rb,
        "seed": cfg.seed,
        "rmse_nv": rep.rmse_nv,
        "rmse_rb": rep.rmse_rb,
        "rmse_combined": rep.rmse_combined,
        "gain_db": rep.gain_db,
    }
    line = f"NV RMSE {rep.rmse_nv:.4f} G, combined RMSE {rep.rmse_combined:.4f} G"
    return columns, summary, line


@_report("scalar_demo")
def _scalar_demo(settings: RunSettings) -> Report:
    cfg = settings.spatial
    rep = scalar_vs_vector_demo(cfg)
    columns = {
        "position_mm": rep.positions,
        "true_mag": rep.true_mag,
        "combined": rep.combined,
        "naive": rep.naive,
        "combined_reversed": rep.combined_reversed,
        "naive_reversed": rep.naive_reversed,
    }
    summary = {
        "n_positions": cfg.n_positions,
        "seed": cfg.seed,
        "rms_combined_error": float(np.sqrt(np.nanmean((rep.combined - rep.true_mag) ** 2))),
        "rms_naive_error": float(np.sqrt(np.nanmean((rep.naive - rep.true_mag) ** 2))),
    }
    return columns, summary, None


@_report("angular_map")
def _angular_map(settings: RunSettings) -> Report:
    a = settings.angular
    amap = angular_error_map(a)
    columns = {
        **_grid_xy(amap.bx, amap.by),
        "d_theta_rad": amap.d_theta,
        "d_phi_rad": amap.d_phi,
        "total_db": amap.total_db,
    }
    total_db = amap.total_db[np.isfinite(amap.total_db)]
    summary = {
        "sigma": a.sigma,
        "grid_points": a.grid_points,
        "min_total_db": _or_nan(np.min, total_db),
        "max_total_db": _or_nan(np.max, total_db),
    }
    return columns, summary, None


def _read_pairs_csv(path: str) -> CalibrationSet:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigParseError(f"cannot read calibration file {path!r}: {err}")
    try:
        return CalibrationSet(tuple((FieldVector(bx, by, bz), rb) for bx, by, bz, rb in pairs))
    except ValueError as err:
        raise ConfigValidationError(str(err))


def _cmd_calibrate(args, settings: RunSettings) -> int:
    path = settings.calibrate.pairs
    if not path:
        raise ConfigValidationError(
            "calibrate needs --pairs or [calibrate] pairs_csv in the config"
        )
    cal = _read_pairs_csv(path)
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
    b_nv, b_0, b_rb = settings.estimate.b_nv, settings.estimate.b_0, settings.estimate.b_rb
    if b_nv is None or b_rb is None:
        raise ConfigValidationError(
            "estimate needs --b-nv and --b-rb (flags or [estimate] section)"
        )
    est = combined_estimate(FieldVector(*b_nv), FieldVector(*b_0), b_rb)
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


# Each command, declared once: name -> (help text, handler, *the config
# section it also takes as flags, one per key: [estimate] b_nv is --b-nv).
_COMMANDS = {
    "simulate-grid": ("Monte-Carlo improvement map over a field grid", _grid),
    "orthogonality": ("noiseless correction-orthogonality map", _orthogonality),
    "marginal": ("single-axis improvement profile", _marginal),
    "spatial-scan": ("dipole scan measured by Rb, NV, and combined", _spatial_scan),
    "scalar-demo": ("vector vs naive scalar background subtraction", _scalar_demo),
    "angular-map": ("angular uncertainty of a vector reading", _angular_map),
    "calibrate": ("solve the background field from paired readings", _cmd_calibrate, "calibrate"),
    "estimate": ("one combined estimate from a reading pair", _cmd_estimate, "estimate"),
}


# Built once, at import; parse_args leaves it unchanged, so every main() call shares it.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; may be called repeatedly in
    one process.  argparse usage errors, ``--help`` and ``--version`` raise
    ``SystemExit`` as before."""
    args = _PARSER.parse_args(argv)
    try:
        settings = _load_settings(args)
        # Extreme inputs can overflow a computation: exit 4, never warn.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.command][1](args, settings)
    except ConfigParseError as err:
        print(f"comag: config error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigValidationError as err:
        print(f"comag: invalid configuration: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except ComagError as err:
        print(f"comag: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except (FloatingPointError, MemoryError) as err:
        print(f"comag: inputs too extreme to compute ({err})", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as err:
        print(f"comag: i/o error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
