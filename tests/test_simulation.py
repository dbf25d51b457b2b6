import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from comag.estimator import angular_uncertainty
from comag import simulation
from comag.geometry import FieldVector
from comag.simulation import (
    SimConfig,
    SpatialScanConfig,
    angular_error_map,
    dipole_field,
    marginal_improvement,
    orthogonality_map,
    run_grid_simulation,
    scalar_vs_vector_demo,
    source_field_at_sensor,
    spatial_scan_sim,
    sweep_calibration_error,
)

B0_MEASURED = FieldVector(0.004, -0.7454, 0.6451)


class TestGridSimulation:
    def test_determinism(self):
        cfg = SimConfig(grid_points=7, n_reps=20)
        a = run_grid_simulation(cfg)
        b = run_grid_simulation(cfg)
        assert np.array_equal(a.gain_mag_mse_db, b.gain_mag_mse_db, equal_nan=True)
        assert np.array_equal(a.gain_dir_mse_db, b.gain_dir_mse_db, equal_nan=True)

    def test_seed_changes_output(self):
        a = run_grid_simulation(SimConfig(grid_points=7, n_reps=20, seed=1))
        b = run_grid_simulation(SimConfig(grid_points=7, n_reps=20, seed=2))
        assert not np.array_equal(a.gain_mag_mse_db, b.gain_mag_mse_db, equal_nan=True)

    def test_shielded_limit_law(self):
        # With no background and sigma_ratio r, the magnitude-MSE gain on
        # strong-field cells approaches 20*log10(r).
        cfg = SimConfig(grid_points=21)
        imp = run_grid_simulation(cfg)
        r = np.hypot(*np.meshgrid(imp.bx, imp.by))
        sel = (r >= 1.0) & imp.valid
        med = np.median(imp.gain_mag_mse_db[sel])
        assert med == pytest.approx(20.0 * math.log10(cfg.sigma_ratio), abs=3.0)

    def test_shielded_direction_unchanged(self):
        imp = run_grid_simulation(SimConfig(grid_points=11))
        sel = imp.dir_valid
        assert np.nanmax(np.abs(imp.gain_dir_mse_db[sel])) < 1e-9

    def test_equal_sensors_no_gain(self):
        imp = run_grid_simulation(SimConfig(grid_points=11, sigma_ratio=1.0, n_reps=200))
        sel = imp.valid & np.isfinite(imp.gain_mag_mse_db)
        assert abs(np.median(imp.gain_mag_mse_db[sel])) < 0.5

    def test_mirror_symmetry_without_background(self):
        imp = run_grid_simulation(SimConfig(grid_points=11, n_reps=400))
        g = imp.gain_mag_mse_db
        diff = np.abs(g - g[::-1, ::-1])
        sel = np.isfinite(diff)
        assert np.nanmedian(diff[sel]) < 1.0
        assert np.nanmax(diff[sel]) < 4.0

    def test_gain_sanity_in_stretch_regime(self):
        cfg = SimConfig(
            grid_points=15, b_0_true=FieldVector(0.5, 0, 0), b_0_cal_error=0.002
        )
        imp = run_grid_simulation(cfg)
        ortho = orthogonality_map(cfg)
        sel = imp.valid & np.isfinite(imp.gain_mag_mse_db) & (ortho > 0.5)
        # Stretch-dominated cells never lose beyond Monte-Carlo scatter.
        assert np.min(imp.gain_mag_mse_db[sel]) > -1.0

    def test_mae_gains_present(self):
        imp = run_grid_simulation(SimConfig(grid_points=7))
        sel = imp.valid
        assert np.all(np.isfinite(imp.gain_mag_mae_db[sel]))


class TestOrthogonalityMap:
    def test_no_background_all_ones(self):
        cfg = SimConfig(grid_points=9)
        om = orthogonality_map(cfg)
        finite = np.isfinite(om)
        assert np.allclose(om[finite], 1.0, atol=1e-12)
        # Only the origin cell (zero field) is undefined.
        assert np.count_nonzero(~finite) == 1

    def test_zero_locus_cell(self):
        # delta = (-0.45, 0.15) sits exactly on the circle where the field
        # is orthogonal to field + background for B_0 = 0.5 x.
        cfg = SimConfig(
            grid_points=41, b_0_true=FieldVector(0.5, 0, 0)
        )
        om = orthogonality_map(cfg)
        xs = cfg.axis_values()
        ix = int(np.argmin(np.abs(xs - (-0.45))))
        iy = int(np.argmin(np.abs(xs - 0.15)))
        assert om[iy, ix] == pytest.approx(0.0, abs=1e-12)

    def test_correlates_with_gain(self):
        cfg = SimConfig(
            grid_points=21, b_0_true=FieldVector(0.5, 0, 0), b_0_cal_error=0.0013
        )
        imp = run_grid_simulation(cfg)
        om = orthogonality_map(cfg)
        sel = imp.valid & np.isfinite(imp.gain_mag_mse_db) & np.isfinite(om)
        rc = spearmanr(imp.gain_mag_mse_db[sel], om[sel]).statistic
        assert rc > 0.8


class TestMarginalImprovement:
    def test_matches_grid_row(self):
        cfg = SimConfig(grid_points=21)
        imp = run_grid_simulation(cfg)
        prof = marginal_improvement(cfg, axis="x", field_min=0.0, field_max=1.5, n_points=11)
        xs = imp.bx
        iy = int(np.argmin(np.abs(imp.by)))
        diffs = []
        for i, v in enumerate(prof.b_applied):
            if v < 0.3:
                continue
            ix = int(np.argmin(np.abs(xs - v)))
            diffs.append(prof.gain_mag_mse_db[i] - imp.gain_mag_mse_db[iy, ix])
        diffs = np.array(diffs)
        assert np.median(np.abs(diffs)) < 1.5
        assert np.max(np.abs(diffs)) < 5.0

    def test_positive_gain_with_reported_noise(self):
        cfg = SimConfig(sigma_nv=0.26, sigma_rb=7.9e-4, b_0_true=B0_MEASURED)
        prof = marginal_improvement(cfg)
        ok = np.isfinite(prof.gain_mag_mse_db)
        assert np.mean(prof.gain_mag_mse_db[ok] > 0.0) >= 0.8

    def test_orthogonality_tracks_gain_dips(self):
        cfg = SimConfig(sigma_nv=0.26, sigma_rb=7.9e-4, b_0_true=B0_MEASURED, n_reps=200)
        prof = marginal_improvement(cfg, n_points=17)
        ok = np.isfinite(prof.gain_mag_mse_db) & np.isfinite(prof.orthogonality)
        rc = spearmanr(prof.gain_mag_mse_db[ok], prof.orthogonality[ok]).statistic
        assert rc > 0.6

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            marginal_improvement(SimConfig(), axis="w")


class TestSpatialScan:
    def test_dipole_field_on_axis(self):
        m = np.array([0.0, 0.0, 1000.0])
        b = dipole_field(m, np.array([0.0, 0.0, 10.0]))
        assert b == pytest.approx([0.0, 0.0, 2.0], abs=1e-12)

    def test_source_peak_scale(self):
        cfg = SpatialScanConfig()
        mags = [
            np.linalg.norm(source_field_at_sensor(cfg, p)) for p in cfg.positions()
        ]
        assert max(mags) == pytest.approx(1.0, rel=0.02)

    def test_zero_noise_gain_vanishes(self):
        cfg = SpatialScanConfig(sigma_nv=1e-12, sigma_rb=1e-12)
        rep = spatial_scan_sim(cfg)
        # Both RMSEs collapse to the same polynomial model error.
        assert rep.rmse_nv == pytest.approx(rep.rmse_combined, rel=1e-6)
        assert abs(rep.gain_db) < 1e-4

    def test_reported_noise_window(self):
        rep = spatial_scan_sim(SpatialScanConfig())
        assert rep.gain_db > 10.0
        assert 2.5 <= rep.rmse_nv / rep.rmse_combined <= 4.0

    def test_determinism(self):
        a = spatial_scan_sim(SpatialScanConfig())
        b = spatial_scan_sim(SpatialScanConfig())
        assert np.array_equal(a.combined_mag, b.combined_mag)

    def test_rb_curve_offset_by_background(self):
        # The scalar channel carries the background; its curve sits well
        # above the source magnitude.
        rep = spatial_scan_sim(SpatialScanConfig())
        assert np.all(rep.rb_mag > rep.true_mag)


class TestScalarDemo:
    def test_no_background_curves_coincide(self):
        cfg = SpatialScanConfig(
            b_0=FieldVector(0, 0, 0), source_axis=(0.0, 0.0, 1.0), sigma_nv=0.01
        )
        rep = scalar_vs_vector_demo(cfg)
        noise_scale = 5.0 * cfg.sigma_rb / math.sqrt(cfg.n_reps) + 1e-6
        assert np.nanmax(np.abs(rep.naive - rep.combined)) < max(
            0.02, noise_scale
        )

    def test_reversal_distorts_naive_not_combined(self):
        cfg = SpatialScanConfig(source_axis=(0.0, 0.0, 1.0))
        rep = scalar_vs_vector_demo(cfg)
        comb_shift = np.nanmax(np.abs(rep.combined - rep.combined_reversed))
        naive_shift = np.nanmax(np.abs(rep.naive - rep.naive_reversed))
        assert naive_shift > 10.0 * comb_shift
        # The combined curves track the true magnitude; naive ones do not.
        rms_comb = np.sqrt(np.nanmean((rep.combined - rep.true_mag) ** 2))
        rms_naive = np.sqrt(np.nanmean((rep.naive - rep.true_mag) ** 2))
        assert rms_comb < 0.2 * rms_naive

    def test_collinear_background_makes_naive_exact(self):
        # Source field parallel to the background: scalar subtraction is
        # exact up to sensor noise.
        cfg = SpatialScanConfig(sigma_nv=1e-9, sigma_rb=1e-9)
        rep = scalar_vs_vector_demo(cfg)
        assert np.nanmax(np.abs(rep.naive - rep.true_mag)) < 1e-6


class TestAngularErrorMap:
    def test_monotone_along_rays(self):
        amap = angular_error_map(grid_points=41)
        mid = len(amap.by) // 2
        row = amap.total_db[mid, :]
        xs = amap.bx
        right = row[xs > 0]
        assert np.all(np.diff(right) < 0)
        diag = np.array([amap.total_db[i, i] for i in range(mid + 1, len(xs))])
        assert np.all(np.diff(diag) < 0)

    def test_isotropy(self):
        amap = angular_error_map(grid_points=41)
        xs = amap.bx
        i_x = int(np.argmin(np.abs(xs - 1.5)))
        i_y = int(np.argmin(np.abs(amap.by - 1.5)))
        mid = len(xs) // 2
        on_x = amap.total_db[mid, i_x]
        on_y = amap.total_db[i_y, mid]
        assert on_x == pytest.approx(on_y, abs=1e-9)

    def test_matches_monte_carlo_at_unit_field(self):
        lin = angular_uncertainty(FieldVector(1.0, 0, 0), 0.1)
        mc = angular_uncertainty(
            FieldVector(1.0, 0, 0), 0.1, method="monte_carlo", n=100_000, seed=9
        )
        assert mc.d_phi == pytest.approx(lin.d_phi, rel=0.05)


class TestSweep:
    def test_ladder_scales_with_sigma(self):
        cfg = SimConfig(grid_points=5, n_reps=5)
        out = sweep_calibration_error(cfg, cal_errors=(0.001, 0.002))
        assert set(out) == {0.001, 0.002}
        for imp in out.values():
            assert imp.config.b_0_cal_error in (0.001, 0.002)


# Per-cell reference: the loop the batched kernel replaced, with the fusion
# of batch_combined inlined as it was (np.linalg.norm row norms).  Only a
# zero error denominator differs: it gives NaN here instead of raising.
def _oracle_angle_between(v, u):
    nv = np.linalg.norm(v, axis=1)
    nu = np.linalg.norm(u)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = (v @ u) / (nv * nu)
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def _oracle_orthogonality(delta, b_0):
    s = delta + b_0
    ns, nd = np.linalg.norm(s), np.linalg.norm(delta)
    if ns == 0.0 or nd == 0.0:
        return math.nan
    return abs(float(s @ delta)) / (ns * nd)


def _oracle_cell(delta, cfg, rng):
    n = cfg.n_reps
    b_0 = cfg.b_0_true.as_array()
    nv = delta[None, :] + rng.normal(0.0, cfg.sigma_nv, size=(n, 3))
    rb = np.linalg.norm(delta + b_0) + rng.normal(0.0, cfg.resolved_sigma_rb(), size=n)
    rb = np.clip(rb, 0.0, None)
    if cfg.b_0_cal_error > 0:
        b_0_hat = b_0[None, :] + rng.normal(0.0, cfg.b_0_cal_error, size=(n, 3))
    else:
        b_0_hat = np.broadcast_to(b_0, (n, 3))
    s = nv + b_0_hat
    norm_s = np.linalg.norm(s, axis=1)
    ok = norm_s > 0.0
    factor = np.zeros_like(norm_s)
    np.divide(norm_s - rb, norm_s, out=factor, where=ok)
    b_hat = np.where(ok[:, None], nv - s * factor[:, None], np.nan)

    true_mag = float(np.linalg.norm(delta))
    mag_err_comb = np.linalg.norm(b_hat[ok], axis=1) - true_mag
    mag_err_nv = np.linalg.norm(nv, axis=1) - true_mag
    out = {"valid": bool(np.any(ok)), "dir_valid": bool(true_mag > 0 and np.any(ok))}
    out["mse_mag"] = (np.mean(mag_err_nv**2), np.mean(mag_err_comb**2) if ok.any() else math.nan)
    out["mae_mag"] = (
        np.mean(np.abs(mag_err_nv)),
        np.mean(np.abs(mag_err_comb)) if ok.any() else math.nan,
    )
    if out["dir_valid"]:
        ang_nv = _oracle_angle_between(nv, delta)
        ang_comb = _oracle_angle_between(b_hat[ok], delta)
        out["mse_dir"] = (np.mean(ang_nv**2), np.mean(ang_comb**2))
        out["mae_dir"] = (np.mean(np.abs(ang_nv)), np.mean(np.abs(ang_comb)))
    return out


def _oracle_gain(pair):
    with np.errstate(invalid="ignore", divide="ignore"):
        return simulation._db(np.float64(pair[0]) / np.float64(pair[1]))


def _oracle_grid(cfg):
    xs = ys = cfg.axis_values()
    shape = (len(ys), len(xs))
    out = {name: np.full(shape, math.nan) for name in ORACLE_GAINS}
    out["orthogonality"] = np.full(shape, math.nan)
    out["valid"] = np.zeros(shape, dtype=bool)
    out["dir_valid"] = np.zeros(shape, dtype=bool)
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            delta = np.array([x, y, 0.0])
            cell = _oracle_cell(delta, cfg, simulation._cell_rng(cfg.seed, 1, ix, iy))
            out["orthogonality"][iy, ix] = _oracle_orthogonality(delta, cfg.b_0_true.as_array())
            if not cell["valid"]:
                continue
            out["valid"][iy, ix] = True
            out["gain_mag_mse_db"][iy, ix] = _oracle_gain(cell["mse_mag"])
            out["gain_mag_mae_db"][iy, ix] = _oracle_gain(cell["mae_mag"])
            if cell["dir_valid"]:
                out["dir_valid"][iy, ix] = True
                out["gain_dir_mse_db"][iy, ix] = _oracle_gain(cell["mse_dir"])
                out["gain_dir_mae_db"][iy, ix] = _oracle_gain(cell["mae_dir"])
    return out


def _oracle_marginal(cfg, axis_i, values):
    out = {
        name: np.full(len(values), math.nan)
        for name in ("gain_mag_mse_db", "gain_mag_mae_db", "var_nv", "var_combined")
    }
    out["orthogonality"] = np.full(len(values), math.nan)
    for i, v in enumerate(values):
        delta = np.zeros(3)
        delta[axis_i] = v
        cell = _oracle_cell(delta, cfg, simulation._cell_rng(cfg.seed, 2, i, axis_i))
        out["orthogonality"][i] = _oracle_orthogonality(delta, cfg.b_0_true.as_array())
        if not cell["valid"]:
            continue
        out["gain_mag_mse_db"][i] = _oracle_gain(cell["mse_mag"])
        out["gain_mag_mae_db"][i] = _oracle_gain(cell["mae_mag"])
        out["var_nv"][i], out["var_combined"][i] = cell["mse_mag"]
    return out


ORACLE_GAINS = ("gain_mag_mse_db", "gain_mag_mae_db", "gain_dir_mse_db", "gain_dir_mae_db")
MAP_ARRAYS = ("bx", "by", *ORACLE_GAINS, "orthogonality", "valid", "dir_valid")
PROFILE_ARRAYS = (
    "b_applied", "gain_mag_mse_db", "gain_mag_mae_db", "var_nv", "var_combined", "orthogonality"
)

# Noise scale at which |s|^2 underflows to 0 for many repetitions: fusion
# drops those rows, so near the origin cells are partly valid, or not at all.
TINY = 3e-163

BIT_IDENTITY_CONFIGS = {
    "shielded": SimConfig(grid_points=11, n_reps=50),
    "background_x": SimConfig(grid_points=11, n_reps=50, b_0_true=FieldVector(0.5, 0, 0)),
    "measured_b0_cal_error": SimConfig(
        grid_points=9, n_reps=40, b_0_true=B0_MEASURED, b_0_cal_error=1e-3
    ),
    "underflow_rows": SimConfig(
        grid_min=-10 * TINY, grid_max=10 * TINY, grid_points=5, n_reps=30, sigma_nv=TINY
    ),
    "rb_clipped": SimConfig(grid_points=7, n_reps=30, sigma_rb=1.0),
}


def _assert_same(actual, expected, names):
    for name in names:
        a = getattr(actual, name)
        e = expected[name] if isinstance(expected, dict) else getattr(expected, name)
        assert a.shape == e.shape, name
        assert np.array_equal(a, e, equal_nan=True), name


class TestCellBatchKernel:
    @pytest.mark.parametrize("name", sorted(BIT_IDENTITY_CONFIGS))
    def test_grid_matches_per_cell_loop(self, name):
        cfg = BIT_IDENTITY_CONFIGS[name]
        imp = run_grid_simulation(cfg)
        expected = _oracle_grid(cfg)
        expected["bx"] = expected["by"] = cfg.axis_values()
        _assert_same(imp, expected, MAP_ARRAYS)
        assert np.array_equal(
            orthogonality_map(cfg), expected["orthogonality"], equal_nan=True
        )

    @pytest.mark.parametrize("name", sorted(BIT_IDENTITY_CONFIGS))
    def test_marginal_matches_per_cell_loop(self, name):
        cfg = BIT_IDENTITY_CONFIGS[name]
        for axis_i, axis in enumerate("xyz"):
            lo, hi = cfg.grid_min, cfg.grid_max
            prof = marginal_improvement(cfg, axis=axis, field_min=lo, field_max=hi, n_points=9)
            expected = _oracle_marginal(cfg, axis_i, np.linspace(lo, hi, 9))
            expected["b_applied"] = np.linspace(lo, hi, 9)
            _assert_same(prof, expected, PROFILE_ARRAYS)

    def test_degenerate_configs_exercise_masks(self):
        under = run_grid_simulation(BIT_IDENTITY_CONFIGS["underflow_rows"])
        assert under.valid.any() and not under.valid.all()
        assert under.dir_valid.any()
        assert np.isnan(under.gain_mag_mse_db[under.valid]).any()
        clipped = run_grid_simulation(BIT_IDENTITY_CONFIGS["rb_clipped"])
        assert np.isnan(clipped.gain_dir_mse_db[clipped.dir_valid]).any()

    @pytest.mark.parametrize("name", ["measured_b0_cal_error", "underflow_rows"])
    def test_chunk_boundaries_do_not_matter(self, name, monkeypatch):
        cfg = BIT_IDENTITY_CONFIGS[name]
        reference_map = run_grid_simulation(cfg)
        reference_profile = marginal_improvement(cfg, n_points=13)
        for rows in (3 * cfg.n_reps - 1, 1, 10**9):
            monkeypatch.setattr(simulation, "_CHUNK_ROWS", rows)
            _assert_same(run_grid_simulation(cfg), reference_map, MAP_ARRAYS)
            _assert_same(marginal_improvement(cfg, n_points=13), reference_profile, PROFILE_ARRAYS)
