"""Which comag functions the traced run wraps, and the per-layer numbers.

Layers are comag's modules.  Each probe names the module the *caller*
looks the function up in: the harness loops call ``batch_combined`` from
``comag.simulation``'s namespace, the commands call ``write_csv`` from
``comag.cli``'s, and the benchmark itself calls ``nv_measure`` through
``comag.measurement``.  Every number covers one traced round; run.py
reports the fastest traced round.  The metric names and units are those of
BENCHMARK.json's ``per_layer`` list.
"""

from __future__ import annotations

import os

from spans import Probe, Tracer

def _cells(attr: str):
    return lambda args, kwargs, result: {"cells": len(getattr(result, attr).ravel())}


def _fused_rows(args, kwargs, result):
    b_hat, valid = result
    return {"rows": len(valid), "invalid_rows": len(valid) - int(valid.sum())}


def _nfev(args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


_HARNESSES = {
    "run_grid_simulation": _cells("valid"),
    "orthogonality_map": lambda args, kwargs, result: {"cells": result.size},
    "marginal_improvement": _cells("b_applied"),
    "spatial_scan_sim": _cells("positions"),
    "scalar_vs_vector_demo": _cells("positions"),
    "angular_error_map": _cells("total_db"),
}

PROBES = (
    [Probe("comag.simulation", "sweep_calibration_error", "simulation.sweep_calibration_error")]
    + [Probe("comag.simulation", f, f"simulation.{f}", c) for f, c in _HARNESSES.items()]
    + [Probe("comag.cli", f, f"simulation.{f}", c) for f, c in _HARNESSES.items()]
    + [
        Probe("comag.simulation", "batch_combined", "estimator.batch_combined", _fused_rows),
        Probe("comag.estimator", "combined_estimate", "estimator.combined_estimate"),
        Probe("comag.cli", "combined_estimate", "estimator.combined_estimate"),
        Probe("comag.cli", "calibrate_background", "estimator.calibrate_background"),
        Probe("comag.measurement", "nv_measure", "measurement.nv_measure"),
        Probe("comag.measurement", "rb_measure", "measurement.rb_measure"),
        Probe("comag.measurement", "synth_odmr", "measurement.synth_odmr"),
        Probe("comag.measurement", "fit_odmr", "measurement.fit_odmr"),
        Probe("comag.measurement", "least_squares", "measurement.least_squares", _nfev),
        Probe("comag.measurement", "brentq", "measurement.brentq"),
        Probe("comag.measurement", "fit_lia", "measurement.fit_lia"),
        Probe("comag.cli", "parse_config", "config.parse_config"),
        Probe("comag.cli", "write_csv", "reports.write_csv", _bytes),
        Probe("comag.cli", "write_summary", "reports.write_summary", _bytes),
        Probe("comag.cli", "emit_plot_script", "plots.emit_plot_script"),
        Probe("comag.cli", "main", "cli.main"),
    ]
)


def layer_metrics(tracer: Tracer, first: int) -> dict[str, float]:
    """Per-layer numbers from the spans recorded since index ``first``."""
    totals = tracer.totals(first)

    def get(name: str, key: str = "self_s") -> float:
        return totals.get(name, {}).get(key, 0)

    def layer(prefix: str, key: str = "self_s") -> float:
        return sum(v.get(key, 0) for n, v in totals.items() if n.startswith(prefix))

    cells = layer("simulation.", "cells")
    sim_self = layer("simulation.")
    odmr_nfev = [
        span.counts["nfev"]
        for span in tracer.spans[first:]
        if span.name == "measurement.least_squares"
        and span.parent >= 0
        and tracer.spans[span.parent].name == "measurement.fit_odmr"
    ]
    readings = get("measurement.nv_measure", "calls")
    return {
        "simulation.cells": cells,
        "simulation.self_s": sim_self,
        "simulation.self_us_per_cell": sim_self / cells * 1e6 if cells else 0.0,
        "estimator.batch_combined.calls": get("estimator.batch_combined", "calls"),
        "estimator.batch_combined.rows": get("estimator.batch_combined", "rows"),
        "estimator.batch_combined.self_s": get("estimator.batch_combined"),
        "estimator.batch_combined.invalid_rows": get("estimator.batch_combined", "invalid_rows"),
        "estimator.combined_estimate.self_s": get("estimator.combined_estimate"),
        "estimator.calibrate_background.calls": get("estimator.calibrate_background", "calls"),
        "estimator.calibrate_background.self_s": get("estimator.calibrate_background"),
        "measurement.fit_odmr.calls": get("measurement.fit_odmr", "calls"),
        "measurement.fit_odmr.self_s": get("measurement.fit_odmr"),
        "measurement.fit_odmr.per_reading": (
            get("measurement.fit_odmr", "calls") / readings if readings else 0.0
        ),
        "measurement.least_squares.nfev_per_fit": (
            sum(odmr_nfev) / len(odmr_nfev) if odmr_nfev else 0.0
        ),
        "measurement.least_squares.self_s": get("measurement.least_squares"),
        "measurement.synth_odmr.self_s": get("measurement.synth_odmr"),
        "measurement.brentq.calls": get("measurement.brentq", "calls"),
        "measurement.brentq.self_s": get("measurement.brentq"),
        "measurement.nv_measure.self_s": get("measurement.nv_measure"),
        "measurement.fit_lia.self_s": get("measurement.fit_lia"),
        "measurement.rb_measure.self_s": get("measurement.rb_measure"),
        "config.parse_config.self_s": get("config.parse_config"),
        "reports.write_csv.calls": get("reports.write_csv", "calls"),
        "reports.bytes_written": layer("reports.", "bytes"),
        "reports.self_s": layer("reports."),
        "plots.emit_plot_script.self_s": get("plots.emit_plot_script"),
        "cli.self_s": get("cli.main"),
    }
