import itertools
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from comag.estimator import batch_combined, linearized_angles, row_norms
from comag import simulation
from comag.geometry import FieldVector
from comag.measurement import LiaParams, OdmrParams
from comag.simulation import (
    AngularSettings,
    MarginalSettings,
    SimConfig,
    SpatialScanConfig,
    angular_error_map,
    dipole_field,
    marginal_improvement,
    orthogonality_map,
    run_grid_simulation,
    scalar_vs_vector_demo,
    source_fields,
    spatial_scan_sim,
    sweep_calibration_error,
)
from test_estimator import monte_carlo_angles

B0_MEASURED = FieldVector(0.004, -0.7454, 0.6451)


@pytest.mark.parametrize("cls", [SimConfig, SpatialScanConfig])
@pytest.mark.parametrize("cal_error", [-1.0, math.nan], ids=["negative", "nan"])
def test_bad_calibration_error_is_rejected(cls, cal_error):
    # Both harnesses draw calibration error only where it is positive, so a
    # bad value would run silently as a study without any.
    with pytest.raises(ValueError, match="b_0_cal_error must be >= 0"):
        cls(b_0_cal_error=cal_error)


@pytest.mark.parametrize(
    "cls, field, match",
    [
        (SimConfig, "sigma_nv", "sigma_nv must be positive"),
        (SimConfig, "sigma_rb", "sigma_rb must be positive"),
        (SpatialScanConfig, "sigma_nv", "sensor noise must be positive"),
        (SpatialScanConfig, "sigma_rb", "sensor noise must be positive"),
        (SpatialScanConfig, "stage_range", "stage geometry must be positive"),
        (SpatialScanConfig, "standoff", "stage geometry must be positive"),
        (SpatialScanConfig, "perp_offset", "perp_offset must be finite"),
        (SpatialScanConfig, "dipole_moment", "dipole_moment must be finite"),
        (AngularSettings, "sigma", "angular sigma must be positive"),
        (OdmrParams, "pl_noise", "pl_noise must be >= 0"),
        (LiaParams, "y_noise", "y_noise must be >= 0"),
        (OdmrParams, "center_frequency", "center_frequency must be finite"),
        (LiaParams, "amplitude", "amplitude must be finite"),
    ],
)
def test_nan_is_rejected(cls, field, match):
    # A NaN fails every comparison, so each sign check reads "not x > 0".
    with pytest.raises(ValueError, match=match):
        cls(**{field: math.nan})


@pytest.mark.parametrize(
    "cls, field, value, match",
    [
        (SimConfig, "grid_min", -math.inf, "grid_min and grid_max must be finite"),
        (SimConfig, "grid_max", math.inf, "grid_min and grid_max must be finite"),
        (MarginalSettings, "field_min", -math.inf, "field_min and field_max must be finite"),
        (MarginalSettings, "field_max", math.inf, "field_min and field_max must be finite"),
        (SpatialScanConfig, "perp_offset", math.inf, "perp_offset must be finite"),
        (SpatialScanConfig, "dipole_moment", math.inf, "dipole_moment must be finite"),
        (SpatialScanConfig, "dipole_moment", -math.inf, "dipole_moment must be finite"),
        (SimConfig, "sigma_nv", math.inf, "sigma_nv must be finite"),
        (SimConfig, "sigma_rb", math.inf, "sigma_rb must be finite"),
        (SimConfig, "sigma_ratio", math.inf, "sigma_ratio must be finite"),
        (SimConfig, "b_0_cal_error", math.inf, "b_0_cal_error must be finite"),
        (SpatialScanConfig, "sigma_nv", math.inf, "sensor noise must be finite"),
        (SpatialScanConfig, "sigma_rb", math.inf, "sensor noise must be finite"),
        (SpatialScanConfig, "b_0_cal_error", math.inf, "b_0_cal_error must be finite"),
        (AngularSettings, "sigma", math.inf, "angular sigma must be finite"),
        (OdmrParams, "center_frequency", math.inf, "center_frequency must be finite"),
        (OdmrParams, "linewidth", math.inf, "linewidth must be finite"),
        (OdmrParams, "scan_span", math.inf, "scan_span must be finite"),
        (OdmrParams, "pl_noise", math.inf, "pl_noise must be finite"),
        (LiaParams, "amplitude", math.inf, "amplitude must be finite"),
        (LiaParams, "linewidth", math.inf, "linewidth must be finite"),
        (LiaParams, "chirp_max", math.inf, "chirp_min and chirp_max must be finite"),
        (LiaParams, "chirp_min", -math.inf, "chirp_min and chirp_max must be finite"),
        (LiaParams, "y_noise", math.inf, "y_noise must be finite"),
    ],
)
def test_infinite_range_is_rejected(cls, field, value, match):
    # An infinite end turns linspace's points or the dipole field into NaN, and
    # an infinite noise setting passes the sign checks and gives all-NaN gains,
    # or about 285 dB when sigma_ratio = inf makes sigma_rb 0.  An infinite
    # scan or line-shape setting makes the spectral readings warn or fail.
    with pytest.raises(ValueError, match=match):
        cls(**{field: value})


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
        sweep = MarginalSettings(axis="x", field_min=0.0, field_max=1.5, n_points=11)
        prof = marginal_improvement(cfg, sweep)
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
        prof = marginal_improvement(cfg, MarginalSettings())
        ok = np.isfinite(prof.gain_mag_mse_db)
        assert np.mean(prof.gain_mag_mse_db[ok] > 0.0) >= 0.8

    def test_orthogonality_tracks_gain_dips(self):
        cfg = SimConfig(sigma_nv=0.26, sigma_rb=7.9e-4, b_0_true=B0_MEASURED, n_reps=200)
        prof = marginal_improvement(cfg, MarginalSettings(n_points=17))
        ok = np.isfinite(prof.gain_mag_mse_db) & np.isfinite(prof.orthogonality)
        rc = spearmanr(prof.gain_mag_mse_db[ok], prof.orthogonality[ok]).statistic
        assert rc > 0.6

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            MarginalSettings(axis="w")


class TestSpatialScan:
    def test_dipole_field_on_axis(self):
        m = np.array([0.0, 0.0, 1000.0])
        (b,) = dipole_field(m, np.array([[0.0, 0.0, 10.0]]))
        assert b == pytest.approx([0.0, 0.0, 2.0], abs=1e-12)

    def test_source_peak_scale(self):
        cfg = SpatialScanConfig()
        mags = np.linalg.norm(source_fields(cfg, cfg.axis_unit()), axis=1)
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
        cfg = replace(cfg, source_axis=tuple(cfg.b_0.as_array()))
        rep = scalar_vs_vector_demo(cfg)
        assert np.nanmax(np.abs(rep.naive - rep.true_mag)) < 1e-6


class TestAngularErrorMap:
    def test_monotone_along_rays(self):
        amap = angular_error_map(SimConfig(grid_points=41), AngularSettings())
        mid = len(amap.by) // 2
        row = amap.total_db[mid, :]
        xs = amap.bx
        right = row[xs > 0]
        assert np.all(np.diff(right) < 0)
        diag = np.array([amap.total_db[i, i] for i in range(mid + 1, len(xs))])
        assert np.all(np.diff(diag) < 0)

    def test_isotropy(self):
        amap = angular_error_map(SimConfig(grid_points=41), AngularSettings())
        xs = amap.bx
        i_x = int(np.argmin(np.abs(xs - 1.5)))
        i_y = int(np.argmin(np.abs(amap.by - 1.5)))
        mid = len(xs) // 2
        on_x = amap.total_db[mid, i_x]
        on_y = amap.total_db[i_y, mid]
        assert on_x == pytest.approx(on_y, abs=1e-9)

    def test_default_total_db_is_the_log_of_the_squares(self):
        amap = angular_error_map(SimConfig(grid_points=9), AngularSettings())
        for t, p, db in zip(amap.d_theta.ravel(), amap.d_phi.ravel(), amap.total_db.ravel()):
            if math.isfinite(t):
                assert db == 10.0 * math.log10(t**2 + p**2)

    @pytest.mark.parametrize("sigma", [1e-160, 1e-170, 1e-320])
    def test_underflowing_sigma_keeps_total_db(self, sigma):
        # The squares of the angles (at 1e-320 the angles' own terms too)
        # underflow; the dB figure follows 20*log10(sigma) down instead.
        unit = angular_error_map(SimConfig(grid_points=9), AngularSettings(sigma=1.0))
        tiny = angular_error_map(SimConfig(grid_points=9), AngularSettings(sigma=sigma))
        finite = np.isfinite(unit.total_db)
        assert np.array_equal(np.isfinite(tiny.total_db), finite)
        expected = unit.total_db[finite] + 20.0 * math.log10(sigma)
        # A subnormal angle near 1e-320 keeps about 3 significant digits.
        assert tiny.total_db[finite] == pytest.approx(expected, abs=0.02)
        v = np.array([[0.3, -1.2, 0.5]])
        lin = np.concatenate(linearized_angles(v, sigma))
        ref = np.concatenate(linearized_angles(v, 1.0))
        assert lin / sigma == pytest.approx(ref, rel=2e-3)

    def test_matches_monte_carlo_at_unit_field(self):
        _, lin_phi = linearized_angles(np.array([[1.0, 0.0, 0.0]]), 0.1)
        _, mc_phi = monte_carlo_angles(FieldVector(1.0, 0, 0), 0.1, n=100_000, seed=9)
        assert mc_phi == pytest.approx(lin_phi[0], rel=0.05)


def _root_sum_squares(a, b, c=0.0):
    total = a**2 + b**2 + c**2
    return math.sqrt(total) if total >= 2.0**-1022 else math.hypot(a, b, c)


def per_vector_angles(v: np.ndarray, sig: np.ndarray) -> tuple[float, float]:
    """The linearized angles of one field, in the numpy-scalar and Python
    float arithmetic of the per-vector form the array kernel replaced."""
    r2 = float(v @ v)
    x, y, z = v
    rho2 = x * x + y * y
    rho = math.sqrt(rho2)
    if rho > 0.0:
        d_theta = _root_sum_squares(x * z * sig[0], y * z * sig[1], rho2 * sig[2]) / (rho * r2)
        d_phi = _root_sum_squares(y * sig[0], x * sig[1]) / rho2
    else:
        d_theta = math.sqrt((sig[0] ** 2 + sig[1] ** 2) / 2.0) / math.sqrt(r2)
        d_phi = math.pi
    return min(d_theta, math.pi), min(d_phi, math.pi)


def per_cell_angular_map(grid_min, grid_max, grid_points, sigma):
    """The cell-by-cell loop angular_error_map replaced, on per_vector_angles."""
    xs = np.linspace(grid_min, grid_max, grid_points)
    sig = np.full(3, float(sigma))
    d_theta, d_phi, total_db = np.full((3, grid_points, grid_points), math.nan)
    for iy, y in enumerate(xs):
        for ix, x in enumerate(xs):
            if x == 0.0 and y == 0.0:
                continue
            t, p = per_vector_angles(np.array([x, y, 0.0]), sig)
            d_theta[iy, ix], d_phi[iy, ix] = t, p
            total = t**2 + p**2
            if total >= 2.0**-1022:
                total_db[iy, ix] = _db(total)
            else:
                total_db[iy, ix] = 2.0 * _db(math.hypot(t, p))
    return d_theta, d_phi, total_db


def _db(ratio: float) -> float:
    return 10.0 * math.log10(ratio) if 0.0 < ratio < math.inf else math.nan


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit, any NaN equal to any NaN."""
    return a.shape == b.shape and bool(
        np.all((a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b)))
    )


def _random_grids(n: int, seed: int) -> list[tuple[float, float, int, float]]:
    rng = np.random.default_rng(seed)
    grids = []
    for i in range(n):
        half = 10.0 ** rng.uniform(-3, 2)
        lo, hi = (-half, half) if i % 2 else (-half, 10.0 ** rng.uniform(-3, 2))
        grids.append((lo, hi, int(rng.integers(35, 48)), 10.0 ** rng.uniform(-8, 2)))
    return grids


class TestAngularErrorMapBits:
    """The grid form gives the per-cell form's bits in every column."""

    @pytest.mark.parametrize(
        "grid",
        _random_grids(50, seed=18)
        + [(-1.5, 1.5, 41, sigma) for sigma in (1e-160, 1e-170, 1e-320)],
    )
    def test_matches_per_cell_form(self, grid):
        lo, hi, points, sigma = grid
        cfg = SimConfig(grid_min=lo, grid_max=hi, grid_points=points)
        amap = angular_error_map(cfg, AngularSettings(sigma=sigma))
        for got, want in zip((amap.d_theta, amap.d_phi, amap.total_db), per_cell_angular_map(*grid)):
            assert same_bits(got, want)

    def test_kernel_rows_match_per_vector_form(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(20_000, 3)) * 10.0 ** rng.uniform(-4, 4, size=(20_000, 3))
        v[::4, :2] = 0.0  # on the pole
        for sigma in (0.1, *10.0 ** rng.uniform(-8, 1, size=2)):
            sig = np.full(3, sigma)
            d_theta, d_phi = linearized_angles(v, sigma)
            want = np.array([per_vector_angles(row, sig) for row in v])
            assert same_bits(d_theta, want[:, 0]) and same_bits(d_phi, want[:, 1])
            for row in v[:40]:
                one = np.concatenate(linearized_angles(row[None, :], sigma))
                assert same_bits(one, np.array(per_vector_angles(row, sig)))

    @pytest.mark.parametrize("sigma", [-0.1, math.nan])
    def test_bad_sigma_rejected(self, sigma):
        # AngularSettings holds one positive sigma; the kernel checks it too.
        with pytest.raises(ValueError, match="sigma"):
            linearized_angles(np.array([[0.3, -1.2, 0.5]]), sigma)

    def test_pole_sigma_squares_overflow_loudly(self):
        # Only rho |v|^2 and the d_theta quotients may overflow quietly.
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            linearized_angles(np.array([[0.0, 0.0, 1.0]]), 1e200)


class TestSweep:
    def test_ladder_scales_with_sigma(self):
        cfg = SimConfig(grid_points=5, n_reps=5)
        out = sweep_calibration_error(cfg, cal_errors=(0.001, 0.002))
        assert set(out) == {0.001, 0.002}
        for cal_error, imp in out.items():
            rung = run_grid_simulation(replace(cfg, b_0_cal_error=cal_error))
            assert np.array_equal(imp.gain_mag_mse_db, rung.gain_mag_mse_db, equal_nan=True)


def first_order_gains(c, s_nv, s_rb, s_cal):
    """Small-noise dB gains of the combined estimator, magnitude and direction MSE.

    To first order the combined error is the NV error across u, the unit
    vector of delta + b_0, and Rb noise minus calibration error along u
    (variance s_rb^2 + s_cal^2); c = |cos| between u and delta.
    """
    s_par2 = s_rb**2 + s_cal**2
    mag = 10.0 * np.log10(s_nv**2 / ((1.0 - c**2) * s_nv**2 + c**2 * s_par2))
    direction = 10.0 * np.log10(2.0 * s_nv**2 / (s_par2 * (1.0 - c**2) + s_nv**2 * (1.0 + c**2)))
    return mag, direction


class TestFirstOrderGains:
    """The grid harness against the closed-form gains, within Monte-Carlo error.

    Each MSE is a mean of n squared Gaussian errors, whose relative variance
    is at most 2/n; the NV and combined errors are positively correlated, so
    a dB gain has a standard deviation of at most 10/ln(10) sqrt(4/n), 0.194 dB
    at n = 2,000.  A mean absolute error has a relative variance of
    (pi/2 - 1)/n, so an MAE gain has at most 10/ln(10) sqrt((pi - 2)/n).  Over
    N cells the median difference must lie within 4 of its standard errors,
    1.2533 sd/sqrt(N), and the 90th percentile of |difference| below |N(0, sd)|'s,
    1.6449 sd, plus 4 of its standard errors, sqrt(0.09/N)/(2 phi(1.6449)) sd.
    """

    N_REPS = 2000

    @staticmethod
    def assert_within(diff, sd):
        n_cells = len(diff)
        assert n_cells > 300
        assert abs(np.median(diff)) <= 4 * 1.2533 * sd / math.sqrt(n_cells)
        density = 2.0 * math.exp(-(1.6449**2) / 2.0) / math.sqrt(2.0 * math.pi)
        spread = 1.6449 + 4 * math.sqrt(0.09 / n_cells) / density
        assert np.percentile(np.abs(diff), 90) <= spread * sd

    SD_MSE = 10.0 / math.log(10.0) * math.sqrt(4.0 / N_REPS)
    SD_MAE = 10.0 / math.log(10.0) * math.sqrt((math.pi - 2.0) / N_REPS)

    @staticmethod
    def first_order_cells(cfg, fields):
        """Cells whose field and field plus b_0 are both far above the NV noise,
        as first order needs."""
        far = 20.0 * cfg.sigma_nv
        b_0 = cfg.b_0_true.as_array()
        return (row_norms(fields) > far) & (row_norms(fields + b_0) > far)

    def assert_grid_matches(self, imp, cfg):
        mag, direction = first_order_gains(
            orthogonality_map(cfg), cfg.sigma_nv, cfg.resolved_sigma_rb(), cfg.b_0_cal_error
        )
        x, y = np.meshgrid(imp.bx, imp.by)
        fields = np.stack([x, y, np.zeros_like(x)], axis=-1)
        cells = imp.dir_valid & self.first_order_cells(cfg, fields)
        self.assert_within(imp.gain_mag_mse_db[cells] - mag[cells], self.SD_MSE)
        self.assert_within(imp.gain_dir_mse_db[cells] - direction[cells], self.SD_MSE)
        # Gaussian magnitude errors: the MAE gain is half the MSE gain in dB.
        self.assert_within(imp.gain_mag_mae_db[cells] - mag[cells] / 2.0, self.SD_MAE)

    # Calibration error dominates the Rb noise at b_0 = 0.5 x; without either,
    # the Rb noise alone sets the gain.
    CASES = pytest.mark.parametrize(
        "b_0, cal_error", [((0.5, 0.0, 0.0), 1.3e-3), ((0.0, 0.0, 0.0), 0.0)], ids=["cal", "rb"]
    )

    @CASES
    def test_grid_matches_closed_form(self, b_0, cal_error):
        cfg = SimConfig(
            grid_points=21, n_reps=self.N_REPS, b_0_true=FieldVector(*b_0), b_0_cal_error=cal_error
        )
        self.assert_grid_matches(run_grid_simulation(cfg), cfg)

    # The sweep along y, across b_0 = 0.5 x, spans c from 0.72 to 0.95.
    @CASES
    def test_marginal_matches_closed_form(self, b_0, cal_error):
        cfg = SimConfig(n_reps=self.N_REPS, b_0_true=FieldVector(*b_0), b_0_cal_error=cal_error)
        sweep = MarginalSettings(axis="y", field_min=-1.6, field_max=1.6, n_points=601)
        prof = marginal_improvement(cfg, sweep)
        mag, _ = first_order_gains(
            prof.orthogonality, cfg.sigma_nv, cfg.resolved_sigma_rb(), cal_error
        )
        fields = np.zeros((sweep.n_points, 3))
        fields[:, 1] = prof.b_applied
        cells = np.isfinite(prof.gain_mag_mse_db) & self.first_order_cells(cfg, fields)
        self.assert_within(prof.gain_mag_mse_db[cells] - mag[cells], self.SD_MSE)
        self.assert_within(prof.gain_mag_mae_db[cells] - mag[cells] / 2.0, self.SD_MAE)

    def test_sweep_rungs_match_closed_form(self):
        cfg = SimConfig(grid_points=21, n_reps=self.N_REPS, b_0_true=FieldVector(0.5, 0.0, 0.0))
        # Two rungs of the ladder, 0.02 and 0.1 of sigma_nv.
        for cal_error, imp in sweep_calibration_error(cfg, (5.2e-4, 2.6e-3)).items():
            self.assert_grid_matches(imp, replace(cfg, b_0_cal_error=cal_error))


# Per-cell reference: the loop the batched kernel replaced, with the fusion
# of batch_combined inlined as it was (np.linalg.norm row norms), and both
# estimators' errors averaged over the same fused repetitions.  Only a zero
# error denominator differs: it gives NaN here instead of raising.
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


def _oracle_fuse(nv, b_0_hat, rb):
    s = nv + b_0_hat
    norm_s = np.linalg.norm(s, axis=1)
    ok = norm_s > 0.0
    factor = np.zeros_like(norm_s)
    np.divide(norm_s - rb, norm_s, out=factor, where=ok)
    return np.where(ok[:, None], nv - s * factor[:, None], np.nan), ok


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
    b_hat, ok = _oracle_fuse(nv, b_0_hat, rb)

    true_mag = float(np.linalg.norm(delta))
    out = {"valid": bool(np.any(ok)), "dir_valid": bool(true_mag > 0 and np.any(ok))}
    if not out["valid"]:
        return out
    mag_err_comb = np.linalg.norm(b_hat[ok], axis=1) - true_mag
    mag_err_nv = np.linalg.norm(nv[ok], axis=1) - true_mag
    out["mse_mag"] = (np.mean(mag_err_nv**2), np.mean(mag_err_comb**2))
    out["mae_mag"] = (np.mean(np.abs(mag_err_nv)), np.mean(np.abs(mag_err_comb)))
    if out["dir_valid"]:
        ang_nv = _oracle_angle_between(nv[ok], delta)
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
            cell = _oracle_cell(delta, cfg, np.random.default_rng([cfg.seed, 1, ix, iy]))
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
        cell = _oracle_cell(delta, cfg, np.random.default_rng([cfg.seed, 2, i, axis_i]))
        out["orthogonality"][i] = _oracle_orthogonality(delta, cfg.b_0_true.as_array())
        if not cell["valid"]:
            continue
        out["gain_mag_mse_db"][i] = _oracle_gain(cell["mse_mag"])
        out["gain_mag_mae_db"][i] = _oracle_gain(cell["mae_mag"])
        out["var_nv"][i], out["var_combined"][i] = cell["mse_mag"]
    return out


# Per-position reference: the loops the scan harnesses ran, one position's
# averaged readings drawn at a time, with the per-position dipole field.
def _oracle_source_field(cfg, stage_pos):
    axis = cfg.axis_unit()
    perp = simulation._perpendicular_unit(axis)
    r_vec = -((cfg.standoff + stage_pos) * axis + cfg.perp_offset * perp)
    moment_vec = cfg.dipole_moment * axis
    r = float(np.linalg.norm(r_vec))
    rhat = r_vec / r
    return (3.0 * float(moment_vec @ rhat) * rhat - moment_vec) / r**3


def _oracle_fit(x, y, degree):
    coeffs = np.polynomial.polynomial.polyfit(x, y, degree)
    return np.polynomial.polynomial.polyval(x, coeffs)


def _oracle_scan(cfg):
    positions = cfg.positions()
    b_0 = cfg.b_0.as_array()
    n = cfg.n_reps
    true_mag, nv_mag, rb_mag, comb_mag = np.zeros((4, cfg.n_positions))
    for i, pos in enumerate(positions):
        rng = np.random.default_rng([cfg.seed, 3, i, 0])
        src = _oracle_source_field(cfg, float(pos))
        true_mag[i] = np.linalg.norm(src)
        nv_mean = src + rng.normal(0.0, cfg.sigma_nv / math.sqrt(n), size=3)
        rb_mean = float(
            np.linalg.norm(src + b_0) + rng.normal(0.0, cfg.sigma_rb / math.sqrt(n))
        )
        rb_mean = max(rb_mean, 0.0)
        b_0_hat = b_0
        if cfg.b_0_cal_error > 0:
            b_0_hat = b_0 + rng.normal(0.0, cfg.b_0_cal_error, size=3)
        b_hat, ok = _oracle_fuse(nv_mean[None, :], b_0_hat, np.array([rb_mean]))
        nv_mag[i] = float(np.linalg.norm(nv_mean))
        rb_mag[i] = rb_mean
        comb_mag[i] = float(np.linalg.norm(b_hat[0])) if ok[0] else math.nan
    out = {"positions": positions, "true_mag": true_mag}
    for name, mag in (("nv", nv_mag), ("rb", rb_mag), ("combined", comb_mag)):
        out[f"{name}_mag"], out[f"{name}_fit"] = mag, _oracle_fit(positions, mag, cfg.poly_degree)
        out[f"rmse_{name}"] = float(np.sqrt(np.mean((mag - out[f"{name}_fit"]) ** 2)))
    rmse_nv, rmse_comb = out["rmse_nv"], out["rmse_combined"]
    out["gain_db"] = _db((rmse_nv / rmse_comb) ** 2) if rmse_comb > 0 else math.nan
    return out


def _oracle_demo(cfg):
    if cfg.source_axis is None:  # the demo's source points along z
        cfg = replace(cfg, source_axis=(0.0, 0.0, 1.0))
    positions = cfg.positions()
    b_0 = cfg.b_0.as_array()
    b_0_mag = float(np.linalg.norm(b_0))
    n = cfg.n_reps
    out = {name: np.zeros(cfg.n_positions) for name in DEMO_ARRAYS[1:]}
    out["positions"] = positions
    for i, pos in enumerate(positions):
        rng = np.random.default_rng([cfg.seed, 4, i, 0])
        src = _oracle_source_field(cfg, float(pos))
        out["true_mag"][i] = np.linalg.norm(src)
        nv_mean = src + rng.normal(0.0, cfg.sigma_nv / math.sqrt(n), size=3)
        noise_rb = float(rng.normal(0.0, cfg.sigma_rb / math.sqrt(n)))
        # Both backgrounds are calibrated with the same error.
        noise_cal = rng.normal(0.0, cfg.b_0_cal_error, size=3) if cfg.b_0_cal_error > 0 else None
        for b0_vec, suffix in ((b_0, ""), (-b_0, "_reversed")):
            rb = max(float(np.linalg.norm(src + b0_vec)) + noise_rb, 0.0)
            b_0_hat = b0_vec if noise_cal is None else b0_vec + noise_cal
            b_hat, ok = _oracle_fuse(nv_mean[None, :], b_0_hat, np.array([rb]))
            out["combined" + suffix][i] = float(np.linalg.norm(b_hat[0])) if ok[0] else math.nan
            out["naive" + suffix][i] = rb - b_0_mag
    return out


ORACLE_GAINS = ("gain_mag_mse_db", "gain_mag_mae_db", "gain_dir_mse_db", "gain_dir_mae_db")
MAP_ARRAYS = ("bx", "by", *ORACLE_GAINS, "orthogonality", "valid", "dir_valid")
PROFILE_ARRAYS = (
    "b_applied", "gain_mag_mse_db", "gain_mag_mae_db", "var_nv", "var_combined", "orthogonality"
)

SCAN_ARRAYS = (
    "positions", "true_mag", "nv_mag", "rb_mag", "combined_mag", "nv_fit", "rb_fit",
    "combined_fit", "rmse_nv", "rmse_rb", "rmse_combined", "gain_db",
)
DEMO_ARRAYS = (
    "positions", "true_mag", "combined", "naive", "combined_reversed", "naive_reversed"
)

# Noise scale at which |s|^2 underflows to 0 for many repetitions: fusion
# drops those rows, so near the origin cells are partly valid, or not at all.
TINY = 3e-163

# Two steps of the smallest subnormal: a draw below 1/4 in size scales to a
# signed zero, which meets the -0.0 components of the background and of the
# cells on its axes.
SUB = 1e-323

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
    "signed_zeros": SimConfig(
        grid_min=-1.0, grid_max=1.0, grid_points=5, n_reps=30, sigma_nv=SUB, sigma_rb=1e-3,
        b_0_true=FieldVector(-0.0, 0.5, -0.0), b_0_cal_error=SUB,
    ),
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
            sweep = MarginalSettings(axis=axis, field_min=lo, field_max=hi, n_points=9)
            prof = marginal_improvement(cfg, sweep)
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
        reference_profile = marginal_improvement(cfg, MarginalSettings(n_points=13))
        for rows in (3 * cfg.n_reps - 1, 1, 10**9):
            monkeypatch.setattr(simulation, "_CHUNK_ROWS", rows)
            _assert_same(run_grid_simulation(cfg), reference_map, MAP_ARRAYS)
            _assert_same(
                marginal_improvement(cfg, MarginalSettings(n_points=13)),
                reference_profile,
                PROFILE_ARRAYS,
            )


class TestSignedZeros:
    """A reading is Generator.normal(0.0, s) plus its true value, bit for bit,
    where the scaled draw or the true value is a signed zero."""

    def test_scaled_draws_underflow_to_negative_zero(self):
        cfg = BIT_IDENTITY_CONFIGS["signed_zeros"]
        scaled = SUB * np.random.default_rng([cfg.seed, 1, 0, 0]).standard_normal(7 * cfg.n_reps)
        assert np.any((scaled == 0.0) & np.signbit(scaled))

    def test_kernel_readings_match_normal_draws(self):
        m, n = 4, 6
        rng = np.random.default_rng(9)
        fields = rng.normal(size=(m, 3))
        fields[:2, 0], fields[2:, 2] = -0.0, 0.0
        b_0 = np.array([-0.0, 0.5, -0.0])
        z0 = rng.standard_normal((m, 7 * n))
        z = z0.copy()
        nv, rb, _, _ = simulation._fused_readings(fields, b_0, SUB, SUB, SUB, z)
        drawn = 0.0 + SUB * z0  # Generator.normal(0.0, SUB), as the oracles draw
        want_nv = drawn[:, : 3 * n].reshape(m, n, 3) + fields[:, None, :]
        want_b_0 = drawn[:, 4 * n :].reshape(m, n, 3) + b_0
        want_rb = drawn[:, 3 * n : 4 * n] + simulation._norms(fields + b_0)[:, None]
        assert same_bits(nv, want_nv)
        assert same_bits(z[:, 4 * n :].reshape(m, n, 3), want_b_0)
        assert same_bits(rb, np.clip(want_rb, 0.0, None))
        # Without the + 0.0, a -0.0 draw plus a -0.0 field would stay -0.0.
        bare = (SUB * z0[:, : 3 * n]).reshape(m, n, 3) + fields[:, None, :]
        assert not same_bits(bare, want_nv)

    def test_grid_bits_match_per_cell_loop(self):
        cfg = BIT_IDENTITY_CONFIGS["signed_zeros"]
        imp = run_grid_simulation(cfg)
        expected = _oracle_grid(cfg)
        for name in ORACLE_GAINS + ("orthogonality",):
            assert same_bits(getattr(imp, name), expected[name]), name
        assert not imp.valid.all() and imp.dir_valid.any()

    @pytest.mark.parametrize("name", ["signed_zeros", "measured_b0_cal_error"])
    def test_marginal_ending_at_negative_zero(self, name):
        cfg = BIT_IDENTITY_CONFIGS[name]
        for axis_i, axis in enumerate("xyz"):
            sweep = MarginalSettings(axis=axis, field_min=-1.0, field_max=-0.0, n_points=5)
            prof = marginal_improvement(cfg, sweep)
            values = np.linspace(-1.0, -0.0, 5)
            assert math.copysign(1.0, values[-1]) == -1.0
            expected = _oracle_marginal(cfg, axis_i, values)
            expected["b_applied"] = values
            for array in PROFILE_ARRAYS:
                assert same_bits(getattr(prof, array), expected[array]), (axis, array)


class TestDbCells:
    def test_matches_scalar_db_without_fp_flags(self):
        rng = np.random.default_rng(11)
        special = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1.0, 1.7e308]
        ratios = np.concatenate([special, rng.lognormal(0.0, 30.0, 500)])
        with np.errstate(all="raise"):  # the CLI's errstate
            got = simulation._db_cells(ratios)
            grid = simulation._db_cells(ratios[:9].reshape(3, 3))
        expected = np.array([simulation._db(x) for x in ratios.tolist()])
        assert same_bits(got, expected)
        assert same_bits(grid, expected[:9].reshape(3, 3))
        assert simulation._db_cells([]).shape == (0,)


# More reps than half a batch: every batch holds one cell, and the next
# cell's block is filled on the helper thread.
ONE_CELL_CONFIG = SimConfig(grid_points=3, n_reps=5000, b_0_true=B0_MEASURED, b_0_cal_error=1e-3)


class TestOneCellBatches:
    def test_grid_matches_per_cell_loop(self):
        cfg = ONE_CELL_CONFIG
        assert simulation._CHUNK_ROWS // cfg.n_reps == 1
        expected = _oracle_grid(cfg)
        expected["bx"] = expected["by"] = cfg.axis_values()
        _assert_same(run_grid_simulation(cfg), expected, MAP_ARRAYS)

    def test_marginal_matches_per_cell_loop(self):
        cfg = ONE_CELL_CONFIG
        for axis_i, axis in enumerate("xyz"):
            sweep = MarginalSettings(axis=axis, field_min=-1.0, field_max=1.0, n_points=3)
            expected = _oracle_marginal(cfg, axis_i, np.linspace(-1.0, 1.0, 3))
            expected["b_applied"] = np.linspace(-1.0, 1.0, 3)
            _assert_same(marginal_improvement(cfg, sweep), expected, PROFILE_ARRAYS)

    @staticmethod
    def _drawing(monkeypatch, before=None):
        """Record each draw's thread and starting stream state; before(main)
        runs ahead of each draw, main telling whether on the calling thread."""
        draws, main, draw = [], threading.get_ident(), simulation._draw_block

        def recording(z, rngs):
            (rng,) = rngs
            draws.append((threading.get_ident(), rng.bit_generator.state["state"]["state"]))
            if before is not None:
                before(draws[-1][0] == main)
            return draw(z, rngs)

        monkeypatch.setattr(simulation, "_draw_block", recording)
        return draws

    @staticmethod
    def _slow_helper(on_main):
        if not on_main:
            time.sleep(0.02)

    def test_each_block_is_drawn_once(self, monkeypatch):
        cfg = ONE_CELL_CONFIG
        draws = self._drawing(monkeypatch)
        before = threading.active_count()
        run_grid_simulation(cfg)
        cells = itertools.product(range(cfg.grid_points), repeat=2)
        rngs = (np.random.default_rng([cfg.seed, simulation._TAG_GRID, *key]) for key in cells)
        starts = [rng.bit_generator.state["state"]["state"] for rng in rngs]
        assert sorted(state for _, state in draws) == sorted(starts)
        assert len({thread for thread, _ in draws} - {threading.get_ident()}) <= 1
        assert threading.active_count() == before

    def test_calling_thread_draws_while_the_helper_is_slow(self, monkeypatch):
        cfg = ONE_CELL_CONFIG
        draws = self._drawing(monkeypatch, self._slow_helper)
        before = threading.active_count()
        imp = run_grid_simulation(cfg)
        assert threading.get_ident() in {thread for thread, _ in draws}
        assert len(draws) == cfg.grid_points**2
        expected = _oracle_grid(cfg)
        expected["bx"] = expected["by"] = cfg.axis_values()
        _assert_same(imp, expected, MAP_ARRAYS)
        assert threading.active_count() == before

    def test_concurrent_studies_under_fast_switching(self):
        # Three studies at once, each with its own helper: more threads than
        # cores, switching every microsecond, and every bit as run alone.
        reference = run_grid_simulation(ONE_CELL_CONFIG)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                runs = [pool.submit(run_grid_simulation, ONE_CELL_CONFIG) for _ in range(6)]
                maps = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert len(maps) == 6
        for imp in maps:
            _assert_same(imp, reference, MAP_ARRAYS)

    # The second draw fails on whichever thread makes it, and the second
    # fusion on this thread.  In the last case the helper is slow, so this
    # thread draws too, and its first draw fails.
    @pytest.mark.parametrize("name", ["_draw_block", "batch_combined", "calling_thread_draw"])
    def test_failure_reaches_the_caller_and_stops_the_helper(self, name, monkeypatch):
        if name == "calling_thread_draw":

            def failing_here(on_main):
                if on_main:
                    raise RuntimeError("the calling thread's draw failed")
                self._slow_helper(on_main)

            self._drawing(monkeypatch, failing_here)
        else:
            calls = []
            original = getattr(simulation, name)

            def failing(*args):
                calls.append(None)
                if len(calls) == 2:
                    raise RuntimeError("second call failed")
                return original(*args)

            monkeypatch.setattr(simulation, name, failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed|second call failed"):
            run_grid_simulation(ONE_CELL_CONFIG)
        assert threading.active_count() == before


class TestFusionKernel:
    """batch_combined gives the inline fusion's bits and leaves its inputs alone."""

    @staticmethod
    def _inputs(seed, per_row_b_0):
        """400 rows: |s| == 0 (rows 0-19), rb > |s| (20-59), rb == 0 (60-69),
        then noisy magnitudes."""
        rng = np.random.default_rng(seed)
        nv = rng.normal(0.0, 0.3, (400, 3))
        b_0 = rng.normal(0.0, 1.0, (400, 3) if per_row_b_0 else 3)
        nv[:20] = -np.broadcast_to(b_0, nv.shape)[:20]
        rb = np.abs(row_norms(nv + b_0) + rng.normal(0.0, 0.05, 400))
        rb[20:60] = 3.0 * row_norms(nv + b_0)[20:60]
        rb[60:70] = 0.0
        return nv, b_0, rb

    @pytest.mark.parametrize("per_row_b_0", [False, True], ids=["b_0_shared", "b_0_per_row"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_inline_fusion(self, seed, per_row_b_0):
        nv, b_0, rb = self._inputs(seed, per_row_b_0)
        before = [x.copy() for x in (nv, b_0, rb)]
        b_hat, ok = batch_combined(nv, b_0, rb)
        want_b_hat, want_ok = _oracle_fuse(nv, b_0, rb)
        assert same_bits(b_hat, want_b_hat)
        assert np.array_equal(ok, want_ok)
        assert not ok[:20].any() and ok[20:].all()
        assert np.all(row_norms(nv + b_0)[20:60] < rb[20:60])
        for x, y in zip((nv, b_0, rb), before):
            assert same_bits(x, y)
            assert not np.shares_memory(b_hat, x)

    # Cut as _fused_readings cuts a many-cell block: NV, Rb, then backgrounds.
    @pytest.mark.parametrize("per_row_b_0", [False, True], ids=["b_0_shared", "b_0_per_row"])
    @pytest.mark.parametrize("degenerate", [True, False], ids=["some_invalid", "all_valid"])
    def test_strided_block_views_give_flat_rows(self, per_row_b_0, degenerate):
        m, n = 8, 50
        nv, b_0, rb = self._inputs(3, per_row_b_0)
        if not degenerate:
            nv[:20] += 1.0
        block = np.random.default_rng(4).normal(size=(m, 7 * n))
        block[:, : 3 * n] = nv.reshape(m, 3 * n)
        block[:, 3 * n : 4 * n] = rb.reshape(m, n)
        b_0_view = b_0
        if per_row_b_0:
            block[:, 4 * n :] = b_0.reshape(m, 3 * n)
            b_0_view = block[:, 4 * n :].reshape(m, n, 3)
        before = block.copy()
        b_hat, ok = batch_combined(
            block[:, : 3 * n].reshape(m, n, 3), b_0_view, block[:, 3 * n : 4 * n]
        )
        # Flat rows, so a caller that counts len(ok) counts readings, not cells.
        assert b_hat.shape == (m * n, 3) and ok.shape == (m * n,)
        want_b_hat, want_ok = batch_combined(nv, b_0, rb)
        assert same_bits(b_hat, want_b_hat)
        assert np.array_equal(ok, want_ok)
        assert ok.all() != degenerate
        assert same_bits(block, before)

    def test_many_cell_block_is_fused_in_place(self):
        m, n = 4, 6
        rng = np.random.default_rng(6)
        fields, z = rng.normal(size=(m, 3)), rng.standard_normal((m, 7 * n))
        b_0 = B0_MEASURED.as_array()
        nv, rb, b_hat, ok = simulation._fused_readings(fields, b_0, 0.03, 3e-5, 1e-3, z)
        assert np.shares_memory(nv, z) and np.shares_memory(rb, z)
        assert nv.shape == b_hat.shape == (m, n, 3) and rb.shape == ok.shape == (m, n)


class TestMaskedMean:
    def test_matches_per_row_means(self):
        rng = np.random.default_rng(5)
        x = rng.lognormal(0.0, 2.0, (40, 50))
        every = np.ones(x.shape, bool)
        assert same_bits(simulation._masked_mean(x, every), np.mean(x, axis=1))
        ok = rng.random(x.shape) < rng.uniform(0.2, 1.0, (40, 1))
        ok[3], ok[4] = False, True
        got = simulation._masked_mean(x, ok)
        assert len(set(np.count_nonzero(ok, axis=1))) > 10
        for r in range(len(x)):
            if r == 3:
                assert math.isnan(got[r])
            else:
                assert same_bits(got[r : r + 1], np.array([np.mean(x[r][ok[r]])])), r


SCAN_CONFIGS = {
    "default": SpatialScanConfig(),
    "cal_error": SpatialScanConfig(b_0_cal_error=1e-3),
    "perp_offset": SpatialScanConfig(perp_offset=12.5),
    "source_axis": SpatialScanConfig(source_axis=(0.3, -0.2, 0.9)),
    "seed_above_2_32": SpatialScanConfig(seed=2**40 + 3, n_reps=7),
    "one_rep": SpatialScanConfig(n_reps=1),
    "rb_clipped": SpatialScanConfig(sigma_rb=20.0),
    "no_background": SpatialScanConfig(b_0=FieldVector(0, 0, 0), source_axis=(0.0, 0.0, 1.0)),
}


class TestScanKernel:
    """The scan harnesses give the per-position loops' bits in every array."""

    @pytest.mark.parametrize("name", sorted(SCAN_CONFIGS))
    def test_spatial_scan_matches_per_position_loop(self, name):
        cfg = SCAN_CONFIGS[name]
        rep, expected = spatial_scan_sim(cfg), _oracle_scan(cfg)
        for array in SCAN_ARRAYS:
            got, want = np.atleast_1d(getattr(rep, array), expected[array])
            assert same_bits(got, want), array

    @pytest.mark.parametrize("name", sorted(SCAN_CONFIGS))
    def test_scalar_demo_matches_per_position_loop(self, name):
        cfg = SCAN_CONFIGS[name]
        rep, expected = scalar_vs_vector_demo(cfg), _oracle_demo(cfg)
        for array in DEMO_ARRAYS:
            assert same_bits(getattr(rep, array), expected[array]), array

    def test_scalar_demo_draws_each_stream_once(self, monkeypatch):
        calls = {"_cell_rngs": 0, "_draw_block": 0}
        for name in calls:
            original = getattr(simulation, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(simulation, name, counting)
        scalar_vs_vector_demo(SCAN_CONFIGS["cal_error"])
        assert calls == {"_cell_rngs": 1, "_draw_block": 1}

    def test_rb_clipped_config_clips(self):
        rep = spatial_scan_sim(SCAN_CONFIGS["rb_clipped"])
        demo = scalar_vs_vector_demo(SCAN_CONFIGS["rb_clipped"])
        assert np.any(rep.rb_mag == 0.0)
        assert np.any(demo.naive == -np.linalg.norm(B0_MEASURED.as_array()))


STREAM_SEEDS = (
    0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 2**100 + 12345, np.int64(2**40 + 7)
)
STREAM_KEYS = [(0, 0), (1, 0), (7, 3), (40, 40), (2**32 - 1, 0), (0, 2**32 - 1), (2**32 - 1,) * 2]


class TestCellStreams:
    @pytest.mark.parametrize("tag", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_matches_default_rng(self, seed, tag):
        rngs = simulation._cell_rngs(seed, tag, STREAM_KEYS)
        for key, rng in zip(STREAM_KEYS, rngs, strict=True):
            expected = np.random.default_rng([seed, tag, *key])
            assert rng.bit_generator.state == expected.bit_generator.state, key
            assert np.array_equal(rng.standard_normal(9), expected.standard_normal(9)), key
