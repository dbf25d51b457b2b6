"""comag: hybrid NV-diamond / Rb-vapor comagnetometer toolkit.

Sensor models for the two magnetometers, the closed-form minimal-correction
fusion estimator, background-field calibration, and the Monte-Carlo
improvement studies, with a CLI front end (``comag``).

Exports load on first use (PEP 562), so ``import comag.cli`` stays free of
scipy, which only :mod:`comag.measurement` needs.
"""

import importlib

_EXPORTS = {
    "AngularUncertainty": "estimator",
    "CalibrationSet": "estimator",
    "CombinedEstimate": "estimator",
    "angular_uncertainty": "estimator",
    "batch_combined": "estimator",
    "calibrate_background": "estimator",
    "combined_estimate": "estimator",
    "correction_vector": "estimator",
    "AxisProjection": "geometry",
    "FieldVector": "geometry",
    "OrientationBasis": "geometry",
    "default_basis": "geometry",
    "project_field": "geometry",
    "propagate_axis_uncertainty": "geometry",
    "recover_field": "geometry",
    "recovery_matrix": "geometry",
    "select_best_axes": "geometry",
    "GAMMA_NV": "params",
    "GAMMA_RB": "params",
    "GyromagneticRatio": "params",
    "LiaParams": "params",
    "OdmrParams": "params",
    "DEFAULT_BIAS": "measurement",
    "LiaSignal": "measurement",
    "OdmrFit": "measurement",
    "OdmrSpectrum": "measurement",
    "fit_lia": "measurement",
    "fit_odmr": "measurement",
    "lia_sensitivity": "measurement",
    "nv_measure": "measurement",
    "odmr_sensitivity": "measurement",
    "rb_measure": "measurement",
    "synth_lia": "measurement",
    "synth_odmr": "measurement",
    "ImprovementMap": "simulation",
    "MarginalProfile": "simulation",
    "ScalarDemoReport": "simulation",
    "SimConfig": "simulation",
    "SpatialScanConfig": "simulation",
    "SpatialScanReport": "simulation",
    "angular_error_map": "simulation",
    "marginal_improvement": "simulation",
    "orthogonality_map": "simulation",
    "run_grid_simulation": "simulation",
    "scalar_vs_vector_demo": "simulation",
    "spatial_scan_sim": "simulation",
    "sweep_calibration_error": "simulation",
}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    # AttributeError for other names lets ``from comag import simulation`` import it.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
