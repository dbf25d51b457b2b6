"""Monte-Carlo harnesses for the combined-estimator improvement studies.

Grid simulations perturb the vector (NV) and scalar (Rb) readings directly
with Gaussian noise at the configured sensor uncertainties; spectral-level
simulation through the full synthetic scans is available separately in
:mod:`comag.measurement`.  Every harness derives one RNG stream per grid
cell (or scan position) from (seed, cell index), so results are
deterministic and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .estimator import batch_combined, row_norms
from .geometry import FieldVector

# Stream tags keep the per-cell RNG keys of different harnesses disjoint.
_TAG_GRID = 1
_TAG_MARGINAL = 2
_TAG_SPATIAL = 3
_TAG_DEMO = 4


@dataclass(frozen=True)
class SimConfig:
    """Grid Monte-Carlo configuration.

    The deterministic small field sweeps the x-y plane over
    [grid_min, grid_max]^2 while noise acts in all three dimensions.  When
    ``sigma_rb`` is None it is derived as sigma_nv / sigma_ratio.
    ``b_0_cal_error`` is the per-axis standard deviation of the background
    estimate supplied to the estimator (set by the calibration duration);
    a fresh calibration error is drawn for every repetition.

    The default sigma_nv keeps the noise well below the grid fields, so
    the improvement maps show the first-order stretch/rotation structure;
    only the NV-to-Rb ratio matters for the headline gains.
    """

    grid_min: float = -1.5
    grid_max: float = 1.5
    grid_points: int = 41
    n_reps: int = 50
    sigma_nv: float = 0.026
    sigma_rb: float | None = None
    sigma_ratio: float = 1000.0
    b_0_true: FieldVector = field(default_factory=lambda: FieldVector(0.0, 0.0, 0.0))
    b_0_cal_error: float = 0.0
    seed: int = 20240

    def __post_init__(self):
        if not self.grid_min < self.grid_max:
            raise ValueError("grid_min must be below grid_max")
        if self.n_reps < 2:
            raise ValueError("n_reps must be >= 2")
        if not self.sigma_ratio > 0:
            raise ValueError("sigma_ratio must be positive")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if self.sigma_nv <= 0:
            raise ValueError("sigma_nv must be positive")
        if self.sigma_rb is not None and self.sigma_rb <= 0:
            raise ValueError("sigma_rb must be positive")
        if self.b_0_cal_error < 0:
            raise ValueError("b_0_cal_error must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def resolved_sigma_rb(self) -> float:
        if self.sigma_rb is not None:
            return self.sigma_rb
        return self.sigma_nv / self.sigma_ratio

    def axis_values(self) -> np.ndarray:
        return np.linspace(self.grid_min, self.grid_max, self.grid_points)


@dataclass(frozen=True)
class ImprovementMap:
    """Per-cell dB gains of the combined estimator over NV-only estimation.

    Gains are 10*log10 of the NV-to-combined error ratio, per cell, for
    the squared (MSE) and absolute (MAE) error of the field magnitude and
    of the field direction angle.  ``orthogonality`` is the noiseless
    |cos| between (delta_b + b_0) and delta_b; ``valid`` flags cells where
    estimation succeeded, ``dir_valid`` additionally requires a nonzero
    true field for the angle metrics.
    """

    bx: np.ndarray
    by: np.ndarray
    gain_mag_mse_db: np.ndarray
    gain_mag_mae_db: np.ndarray
    gain_dir_mse_db: np.ndarray
    gain_dir_mae_db: np.ndarray
    orthogonality: np.ndarray
    valid: np.ndarray
    dir_valid: np.ndarray
    config: SimConfig


def _cell_rng(seed: int, tag: int, i: int, j: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, tag, i, j])


def _db(ratio: float) -> float:
    if ratio <= 0 or not math.isfinite(ratio):
        return math.nan
    return 10.0 * math.log10(ratio)


# Elementwise _db; the scalar math.log10 keeps the last digit of every gain.
_db_cells = np.vectorize(_db, otypes=[float])

# Readings (cells x reps) fused per batch: bounds the working set however
# many cells a harness asks for.
_CHUNK_ROWS = 8192


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a[k] @ b[k] of two (m, 3) arrays, as the 1-D ``@`` computes it."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _norms(a: np.ndarray) -> np.ndarray:
    """Row-wise np.linalg.norm(a[k]) of an (m, 3) array, to the last bit."""
    return np.sqrt(_dots(a, a))


def _angles(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Angles (rad) between each row of v[k] (m, n, 3) and d[k]; NaN for zero rows."""
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = np.matmul(v, d[:, :, None])[..., 0] / (row_norms(v) * _norms(d)[:, None])
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def _orthogonality(deltas: np.ndarray, b_0: np.ndarray) -> np.ndarray:
    """Per-cell |cos| between deltas[k] + b_0 and deltas[k]; NaN if either is 0."""
    s = deltas + b_0
    ns, nd = _norms(s), _norms(deltas)
    with np.errstate(invalid="ignore", divide="ignore"):
        ortho = np.abs(_dots(s, deltas)) / (ns * nd)
    return np.where((ns == 0.0) | (nd == 0.0), math.nan, ortho)


def _masked_mean(x: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Mean of each row of x over its ok entries (NaN if none), summed as
    ``np.mean(x[r][ok[r]])`` sums; rows with equal counts are averaged together."""
    out = np.full(len(x), math.nan)
    counts = np.count_nonzero(ok, axis=1)
    for k in np.unique(counts[counts > 0]):
        rows = counts == k
        out[rows] = np.mean(x[rows][ok[rows]].reshape(-1, k), axis=1)
    return out


def _simulate_cells(deltas, cfg: SimConfig, tag: int, keys) -> dict[str, np.ndarray]:
    """Error statistics of both estimators for many cells, fused in batches.

    Cell k (true small field deltas[k]) draws from its own stream
    ``_cell_rng(cfg.seed, tag, *keys[k])``, in the order NV (n_reps, 3),
    Rb (n_reps,), calibration error (n_reps, 3) if b_0_cal_error > 0, so
    its numbers do not depend on the cells batched with it.  Returns
    per-cell ``valid``, ``dir_valid`` and the NV/combined mean squared and
    absolute errors ``{mse,mae}_{mag,dir}_{nv,comb}``; combined errors
    average the fused repetitions only, NaN if there are none.
    """
    per_chunk = max(1, _CHUNK_ROWS // cfg.n_reps)
    chunks = [
        _simulate_chunk(deltas[k : k + per_chunk], cfg, tag, keys[k : k + per_chunk])
        for k in range(0, len(deltas), per_chunk)
    ]
    return {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}


def _simulate_chunk(deltas, cfg, tag, keys) -> dict[str, np.ndarray]:
    m, n = len(deltas), cfg.n_reps
    b_0 = cfg.b_0_true.as_array()
    cal = cfg.b_0_cal_error > 0
    nv, rb = np.empty((m, n, 3)), np.empty((m, n))
    b_0_hat = np.empty((m, n, 3)) if cal else b_0
    for c, key in enumerate(keys):
        rng = _cell_rng(cfg.seed, tag, *key)
        nv[c] = rng.normal(0.0, cfg.sigma_nv, size=(n, 3))
        rb[c] = rng.normal(0.0, cfg.resolved_sigma_rb(), size=n)
        if cal:
            b_0_hat[c] = rng.normal(0.0, cfg.b_0_cal_error, size=(n, 3))
    nv += deltas[:, None, :]
    rb = np.clip(rb + _norms(deltas + b_0)[:, None], 0.0, None)
    if cal:
        b_0_hat = (b_0_hat + b_0).reshape(-1, 3)
    b_hat, ok = batch_combined(nv.reshape(-1, 3), b_0_hat, rb.reshape(-1))
    b_hat, ok = b_hat.reshape(m, n, 3), ok.reshape(m, n)

    true_mag = _norms(deltas)
    errors = {
        "mag": (row_norms(nv) - true_mag[:, None], row_norms(b_hat) - true_mag[:, None]),
        "dir": (_angles(nv, deltas), _angles(b_hat, deltas)),
    }
    stats = {"valid": ok.any(axis=1)}
    stats["dir_valid"] = stats["valid"] & (true_mag > 0)
    for quantity, (err_nv, err_comb) in errors.items():
        for metric, f in (("mse", np.square), ("mae", np.abs)):
            stats[f"{metric}_{quantity}_nv"] = np.mean(f(err_nv), axis=1)
            stats[f"{metric}_{quantity}_comb"] = _masked_mean(f(err_comb), ok)
    return stats


def _gains(stats: dict[str, np.ndarray], metric: str, mask: np.ndarray) -> np.ndarray:
    """dB gain of the combined estimator on one metric, NaN outside mask."""
    with np.errstate(invalid="ignore", divide="ignore"):
        gains = _db_cells(stats[f"{metric}_nv"] / stats[f"{metric}_comb"])
    return np.where(mask, gains, math.nan)


def _grid_deltas(cfg: SimConfig) -> np.ndarray:
    """Cell fields (x, y, 0) in row-major (iy, ix) order."""
    x, y = np.meshgrid(cfg.axis_values(), cfg.axis_values())
    return np.stack([x.ravel(), y.ravel(), np.zeros(x.size)], axis=1)


def run_grid_simulation(cfg: SimConfig) -> ImprovementMap:
    """MSE/MAE improvement of the combined estimator over the whole grid.

    For every cell, draws n_reps noisy NV vector readings of delta_b and
    noisy Rb scalar readings of |delta_b + b_0_true|, applies the combined
    estimator with a per-repetition perturbed background estimate, and
    accumulates magnitude and direction errors for the combined and the
    NV-only estimates.  Deterministic for a fixed config.
    """
    n = cfg.grid_points
    keys = [(ix, iy) for iy in range(n) for ix in range(n)]
    cells = _simulate_cells(_grid_deltas(cfg), cfg, _TAG_GRID, keys)
    stats = {name: v.reshape(n, n) for name, v in cells.items()}
    valid, dir_valid = stats["valid"], stats["dir_valid"]
    return ImprovementMap(
        bx=cfg.axis_values(),
        by=cfg.axis_values(),
        gain_mag_mse_db=_gains(stats, "mse_mag", valid),
        gain_mag_mae_db=_gains(stats, "mae_mag", valid),
        gain_dir_mse_db=_gains(stats, "mse_dir", dir_valid),
        gain_dir_mae_db=_gains(stats, "mae_dir", dir_valid),
        orthogonality=orthogonality_map(cfg),
        valid=valid,
        dir_valid=dir_valid,
        config=cfg,
    )


def orthogonality_map(cfg: SimConfig) -> np.ndarray:
    """Noiseless per-cell |cos| between (delta_b + b_0) and delta_b.

    1 means the correction can only stretch the NV estimate (maximal
    magnitude improvement), 0 means it can only rotate it (none).  Cells
    where either vector vanishes are NaN.
    """
    n = cfg.grid_points
    return _orthogonality(_grid_deltas(cfg), cfg.b_0_true.as_array()).reshape(n, n)


@dataclass(frozen=True)
class MarginalProfile:
    """1-D slice of the improvement study along a single axis."""

    b_applied: np.ndarray
    gain_mag_mse_db: np.ndarray
    gain_mag_mae_db: np.ndarray
    var_nv: np.ndarray
    var_combined: np.ndarray
    orthogonality: np.ndarray
    axis: str
    config: SimConfig


def marginal_improvement(
    cfg: SimConfig,
    axis: str = "x",
    field_min: float = 0.0,
    field_max: float = 1.6,
    n_points: int = 41,
) -> MarginalProfile:
    """Improvement profile for a DC field swept along one axis.

    Mirrors the grid simulation restricted to a single axis, reporting the
    per-point empirical magnitude variance of both estimators over n_reps
    repetitions alongside the dB gains.
    """
    axis_i = {"x": 0, "y": 1, "z": 2}.get(axis)
    if axis_i is None:
        raise ValueError("axis must be x, y, or z")
    values = np.linspace(field_min, field_max, n_points)
    deltas = np.zeros((n_points, 3))
    deltas[:, axis_i] = values
    keys = [(i, axis_i) for i in range(n_points)]
    stats = _simulate_cells(deltas, cfg, _TAG_MARGINAL, keys)
    valid = stats["valid"]
    return MarginalProfile(
        b_applied=values,
        gain_mag_mse_db=_gains(stats, "mse_mag", valid),
        gain_mag_mae_db=_gains(stats, "mae_mag", valid),
        var_nv=np.where(valid, stats["mse_mag_nv"], math.nan),
        var_combined=np.where(valid, stats["mse_mag_comb"], math.nan),
        orthogonality=_orthogonality(deltas, cfg.b_0_true.as_array()),
        axis=axis,
        config=cfg,
    )


@dataclass(frozen=True)
class SpatialScanConfig:
    """Linear-stage scan of a dipole-like source.

    The source is a point dipole carried along the stage axis; the sensor
    sits at the origin.  The dipole moment points along ``source_axis``
    (default: the unit vector of the configured background field, which
    keeps the source field roughly collinear with the background), and the
    stage moves the dipole from standoff - range/2 to standoff + range/2
    along that same direction, with an optional perpendicular offset.
    ``dipole_moment`` is in Gauss * mm^3; defaults give a peak source
    field of about 1 G at the closest approach.
    """

    n_positions: int = 50
    stage_range: float = 30.0
    standoff: float = 67.0
    perp_offset: float = 0.0
    dipole_moment: float = 70304.0
    source_axis: tuple[float, float, float] | None = None
    poly_degree: int = 2
    n_reps: int = 50
    sigma_nv: float = 0.26
    sigma_rb: float = 7.9e-4
    b_0: FieldVector = field(
        default_factory=lambda: FieldVector(0.004, -0.7454, 0.6451)
    )
    b_0_cal_error: float = 0.0
    seed: int = 7

    def __post_init__(self):
        if self.n_positions < 3:
            raise ValueError("n_positions must be >= 3")
        if self.poly_degree < 1:
            raise ValueError("poly_degree must be >= 1")
        if self.stage_range <= 0 or self.standoff <= 0:
            raise ValueError("stage geometry must be positive")
        if self.sigma_nv <= 0 or self.sigma_rb <= 0:
            raise ValueError("sensor noise must be positive")
        if self.n_reps < 1:
            raise ValueError("n_reps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def axis_unit(self) -> np.ndarray:
        if self.source_axis is not None:
            v = np.asarray(self.source_axis, dtype=float)
        else:
            v = self.b_0.as_array()
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("source axis is undefined for a zero vector")
        return v / n

    def positions(self) -> np.ndarray:
        half = self.stage_range / 2.0
        return np.linspace(-half, half, self.n_positions)


def dipole_field(moment_vec: np.ndarray, r_vec: np.ndarray) -> np.ndarray:
    """Point-dipole field at displacement r from the dipole, Gauss for G*mm^3."""
    r = float(np.linalg.norm(r_vec))
    if r == 0.0:
        raise ValueError("field requested at the dipole position")
    rhat = r_vec / r
    return (3.0 * float(moment_vec @ rhat) * rhat - moment_vec) / r**3


def source_field_at_sensor(cfg: SpatialScanConfig, stage_pos: float) -> np.ndarray:
    """Source field at the sensor for one stage position (mm)."""
    axis = cfg.axis_unit()
    perp = _perpendicular_unit(axis)
    dipole_pos = (cfg.standoff + stage_pos) * axis + cfg.perp_offset * perp
    moment = cfg.dipole_moment * axis
    return dipole_field(moment, -dipole_pos)


def _perpendicular_unit(axis: np.ndarray) -> np.ndarray:
    trial = np.array([1.0, 0.0, 0.0])
    if abs(axis @ trial) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    p = trial - (trial @ axis) * axis
    return p / np.linalg.norm(p)


@dataclass(frozen=True)
class SpatialScanReport:
    """Per-position magnitude curves, polynomial fits, and error summary."""

    positions: np.ndarray
    true_mag: np.ndarray
    nv_mag: np.ndarray
    rb_mag: np.ndarray
    combined_mag: np.ndarray
    nv_fit: np.ndarray
    rb_fit: np.ndarray
    combined_fit: np.ndarray
    rmse_nv: float
    rmse_rb: float
    rmse_combined: float
    gain_db: float
    config: SpatialScanConfig


def _polyfit_curve(x: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    coeffs = np.polynomial.polynomial.polyfit(x, y, degree)
    return np.polynomial.polynomial.polyval(x, coeffs)


def spatial_scan_sim(cfg: SpatialScanConfig) -> SpatialScanReport:
    """Simulated stage scan measured by the Rb, NV, and combined estimators.

    At every position the n_reps raw readings are averaged first and the
    combined estimator is applied once to the averaged pair, keeping it in
    its linear regime.  Each magnitude curve is then fit with a degree
    ``poly_degree`` polynomial and its RMSE about its own fit is reported,
    with the NV-to-combined MSE gain in dB.
    """
    positions = cfg.positions()
    b_0 = cfg.b_0.as_array()
    n = cfg.n_reps

    true_mag = np.zeros(cfg.n_positions)
    nv_mag = np.zeros(cfg.n_positions)
    rb_mag = np.zeros(cfg.n_positions)
    comb_mag = np.zeros(cfg.n_positions)
    for i, pos in enumerate(positions):
        src = source_field_at_sensor(cfg, float(pos))
        true_mag[i] = np.linalg.norm(src)
        rng = _cell_rng(cfg.seed, _TAG_SPATIAL, i)
        nv_mean = src + rng.normal(0.0, cfg.sigma_nv / math.sqrt(n), size=3)
        rb_mean = float(
            np.linalg.norm(src + b_0) + rng.normal(0.0, cfg.sigma_rb / math.sqrt(n))
        )
        rb_mean = max(rb_mean, 0.0)
        b_0_hat = b_0
        if cfg.b_0_cal_error > 0:
            b_0_hat = b_0 + rng.normal(0.0, cfg.b_0_cal_error, size=3)
        b_hat, ok = batch_combined(nv_mean[None, :], b_0_hat, np.array([rb_mean]))
        nv_mag[i] = float(np.linalg.norm(nv_mean))
        rb_mag[i] = rb_mean
        comb_mag[i] = float(np.linalg.norm(b_hat[0])) if ok[0] else math.nan

    nv_fit = _polyfit_curve(positions, nv_mag, cfg.poly_degree)
    rb_fit = _polyfit_curve(positions, rb_mag, cfg.poly_degree)
    comb_fit = _polyfit_curve(positions, comb_mag, cfg.poly_degree)
    rmse_nv = float(np.sqrt(np.mean((nv_mag - nv_fit) ** 2)))
    rmse_rb = float(np.sqrt(np.mean((rb_mag - rb_fit) ** 2)))
    rmse_comb = float(np.sqrt(np.mean((comb_mag - comb_fit) ** 2)))
    gain = _db((rmse_nv / rmse_comb) ** 2) if rmse_comb > 0 else math.nan

    return SpatialScanReport(
        positions=positions,
        true_mag=true_mag,
        nv_mag=nv_mag,
        rb_mag=rb_mag,
        combined_mag=comb_mag,
        nv_fit=nv_fit,
        rb_fit=rb_fit,
        combined_fit=comb_fit,
        rmse_nv=rmse_nv,
        rmse_rb=rmse_rb,
        rmse_combined=rmse_comb,
        gain_db=gain,
        config=cfg,
    )


@dataclass(frozen=True)
class ScalarDemoReport:
    """Combined vs naive scalar background subtraction, with B_0 reversed.

    The naive curves subtract the scalar |B_0| from the Rb reading; the
    combined curves subtract the background vectorially via the estimator.
    Reversing B_0 distorts the naive curve but leaves the combined one
    unchanged in expectation.
    """

    positions: np.ndarray
    true_mag: np.ndarray
    combined: np.ndarray
    naive: np.ndarray
    combined_reversed: np.ndarray
    naive_reversed: np.ndarray
    config: SpatialScanConfig


def scalar_vs_vector_demo(cfg: SpatialScanConfig) -> ScalarDemoReport:
    """Distortion of naive scalar background subtraction along a scan."""
    positions = cfg.positions()
    b_0 = cfg.b_0.as_array()
    b_0_mag = float(np.linalg.norm(b_0))
    n = cfg.n_reps

    true_mag = np.zeros(cfg.n_positions)
    combined = np.zeros(cfg.n_positions)
    naive = np.zeros(cfg.n_positions)
    combined_rev = np.zeros(cfg.n_positions)
    naive_rev = np.zeros(cfg.n_positions)
    for i, pos in enumerate(positions):
        src = source_field_at_sensor(cfg, float(pos))
        true_mag[i] = np.linalg.norm(src)
        rng = _cell_rng(cfg.seed, _TAG_DEMO, i)
        nv_mean = src + rng.normal(0.0, cfg.sigma_nv / math.sqrt(n), size=3)
        noise_rb = float(rng.normal(0.0, cfg.sigma_rb / math.sqrt(n)))

        for b0_vec, comb_out, naive_out in (
            (b_0, combined, naive),
            (-b_0, combined_rev, naive_rev),
        ):
            rb = max(float(np.linalg.norm(src + b0_vec)) + noise_rb, 0.0)
            b_hat, ok = batch_combined(nv_mean[None, :], b0_vec, np.array([rb]))
            comb_out[i] = float(np.linalg.norm(b_hat[0])) if ok[0] else math.nan
            naive_out[i] = rb - b_0_mag

    return ScalarDemoReport(
        positions=positions,
        true_mag=true_mag,
        combined=combined,
        naive=naive,
        combined_reversed=combined_rev,
        naive_reversed=naive_rev,
        config=cfg,
    )


@dataclass(frozen=True)
class AngularErrorMap:
    """Linearized angular uncertainty over a field grid, with dB totals."""

    bx: np.ndarray
    by: np.ndarray
    d_theta: np.ndarray
    d_phi: np.ndarray
    total_db: np.ndarray
    sigma: float


def angular_error_map(
    grid_min: float = -1.5,
    grid_max: float = 1.5,
    grid_points: int = 41,
    sigma: float = 0.1,
) -> AngularErrorMap:
    """Angular uncertainty of a vector reading across the x-y plane.

    Per cell, the first-order angle uncertainties for an isotropic
    per-axis noise ``sigma``; ``total_db`` is 10*log10(d_theta^2 +
    d_phi^2).  The error falls off as 1/|B| along every ray, so larger
    working fields give better angular accuracy.  The origin is NaN.
    """
    from .estimator import angular_uncertainty

    xs = np.linspace(grid_min, grid_max, grid_points)
    ys = np.linspace(grid_min, grid_max, grid_points)
    d_theta = np.full((len(ys), len(xs)), math.nan)
    d_phi = np.full((len(ys), len(xs)), math.nan)
    total_db = np.full((len(ys), len(xs)), math.nan)
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            if x == 0.0 and y == 0.0:
                continue
            au = angular_uncertainty(FieldVector(x, y, 0.0), sigma)
            d_theta[iy, ix] = au.d_theta
            d_phi[iy, ix] = au.d_phi
            total_db[iy, ix] = _db(au.d_theta**2 + au.d_phi**2)
    return AngularErrorMap(
        bx=xs, by=ys, d_theta=d_theta, d_phi=d_phi, total_db=total_db, sigma=sigma
    )


# Calibration-error ladder as fractions of sigma_nv; spans calibrations
# from much better than the sensor noise to a quarter of it.
CAL_ERROR_FRACTIONS = (0.01, 0.02, 0.035, 0.05, 0.07, 0.10, 0.15, 0.25)


def sweep_calibration_error(
    cfg: SimConfig,
    cal_errors: tuple[float, ...] | None = None,
) -> dict[float, ImprovementMap]:
    """Grid simulations over a ladder of background-calibration errors.

    The calibration-duration-dependent uncertainty of the background
    estimate is not a fixed number; sweeping it maps how the peak
    improvement degrades as the calibration gets worse.  The default
    ladder is ``CAL_ERROR_FRACTIONS`` times the configured sigma_nv.
    """
    if cal_errors is None:
        cal_errors = tuple(f * cfg.sigma_nv for f in CAL_ERROR_FRACTIONS)
    return {e: run_grid_simulation(replace(cfg, b_0_cal_error=e)) for e in cal_errors}
