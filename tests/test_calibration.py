import numpy as np
import pytest

from comag.cli import EXIT_RUNTIME, main
from comag.errors import NonConvergenceError, SingularGeometryError
from comag.estimator import CalibrationSet, calibrate_background
from comag.geometry import FieldVector

B0_MEASURED = FieldVector(0.004, -0.7454, 0.6451)
CAL_FIELDS = (FieldVector(1, 0, 0), FieldVector(0, 1, 0), FieldVector(0, 0, 1))


def noiseless_set(b_0, cal_fields=CAL_FIELDS):
    return CalibrationSet(tuple((c, (b_0 + c).magnitude()) for c in cal_fields))


class TestCalibrationSet:
    def test_requires_three_pairs(self):
        with pytest.raises(ValueError):
            CalibrationSet(((FieldVector(1, 0, 0), 1.0), (FieldVector(0, 1, 0), 1.0)))

    def test_rejects_negative_rb(self):
        with pytest.raises(ValueError):
            CalibrationSet(
                (
                    (FieldVector(1, 0, 0), 1.0),
                    (FieldVector(0, 1, 0), 1.0),
                    (FieldVector(0, 0, 1), -1.0),
                )
            )


class TestCalibrateBackground:
    def test_noiseless_round_trip(self):
        est, resid = calibrate_background(noiseless_set(B0_MEASURED))
        assert est.as_array() == pytest.approx(B0_MEASURED.as_array(), abs=1e-8)
        assert resid == pytest.approx(0.0, abs=1e-9)

    def test_zero_background(self):
        est, resid = calibrate_background(noiseless_set(FieldVector(0, 0, 0)))
        assert est.as_array() == pytest.approx(np.zeros(3), abs=1e-10)
        assert resid == pytest.approx(0.0, abs=1e-9)

    def test_more_than_three_pairs(self):
        fields = CAL_FIELDS + (FieldVector(-1, 0.5, 0.2), FieldVector(0.3, -1, 0.8))
        est, _ = calibrate_background(noiseless_set(B0_MEASURED, fields))
        assert est.as_array() == pytest.approx(B0_MEASURED.as_array(), abs=1e-8)

    def test_residuals_bounded_by_residual_norm(self):
        rng = np.random.default_rng(0)
        pairs = tuple(
            (c, (B0_MEASURED + c).magnitude() + rng.normal(0, 0.01)) for c in CAL_FIELDS
        )
        est, resid = calibrate_background(CalibrationSet(pairs))
        r = np.array(
            [
                abs((FieldVector.from_array(est.as_array()) + c).magnitude() - rb)
                for c, rb in pairs
            ]
        )
        assert np.all(r <= resid + 1e-12)

    def test_singular_geometry(self):
        # Collinear calibration fields around a zero background make the
        # normal directions degenerate at the solution.
        fields = (
            FieldVector(1, 0, 0),
            FieldVector(2, 0, 0),
            FieldVector(3, 0, 0),
        )
        cal = CalibrationSet(tuple((c, c.magnitude()) for c in fields))
        with pytest.raises(SingularGeometryError):
            calibrate_background(cal)

    def test_noisy_scatter_matches_linearized_covariance(self):
        # Per-pair residual noise sigma_r maps to parameter covariance
        # sigma_r^2 (J^T J)^-1; the Monte-Carlo scatter over repeated
        # calibrations must agree with that prediction.
        rng = np.random.default_rng(1234)
        sigma_nv = 0.26 / np.sqrt(150.0)
        sigma_rb = 7.9e-4
        n_trials = 1000
        estimates = np.zeros((n_trials, 3))
        for t in range(n_trials):
            pairs = []
            for c in CAL_FIELDS:
                nv = FieldVector.from_array(c.as_array() + rng.normal(0, sigma_nv, 3))
                rb = (B0_MEASURED + c).magnitude() + rng.normal(0, sigma_rb)
                pairs.append((nv, max(rb, 0.0)))
            est, _ = calibrate_background(CalibrationSet(tuple(pairs)))
            estimates[t] = est.as_array()

        shifted = B0_MEASURED.as_array()[None, :] + np.array(
            [c.as_array() for c in CAL_FIELDS]
        )
        jac = shifted / np.linalg.norm(shifted, axis=1)[:, None]
        sigma_r2 = sigma_nv**2 + sigma_rb**2
        cov_pred = sigma_r2 * np.linalg.inv(jac.T @ jac)
        pred_std = np.sqrt(np.diag(cov_pred))
        emp_std = estimates.std(axis=0)
        assert emp_std == pytest.approx(pred_std, rel=0.20)
        # Solving a norm equation leaves an O(sigma^2) bias; bound it by a
        # few times sigma_nv^2 on top of the mean's statistical error.
        bias = np.abs(estimates.mean(axis=0) - B0_MEASURED.as_array())
        assert np.all(bias <= 8.0 * sigma_nv**2 + 4.0 * pred_std / np.sqrt(n_trials))


# Pairs (bx, by, bz, b_rb) made from B_0 = (0.8511, -0.9868, 1.0496), which
# leaves a residual norm of 0.0023 G; the lowest minimum, 0.0019 G, lies
# within 2 mG of that B_0.
WRONG_MINIMUM_PAIRS = (
    (-0.283521, 0.452637, 0.066265, 1.361737),
    (0.141943, 0.633686, 0.426036, 1.812829),
    (0.07716, -0.464372, -0.56199, 1.790642),
    (-0.032009, 0.161807, 0.251586, 1.743011),
    (0.390985, 0.489793, -1.201538, 1.347565),
)


@pytest.mark.xfail(
    strict=True,
    reason="the first start that converges is kept, here a local minimum with a"
    " residual of 0.507 G at (-1.3258, -0.8379, 0.5044)",
)
def test_keeps_the_lowest_minimum():
    cal = CalibrationSet(tuple((FieldVector(*p[:3]), p[3]) for p in WRONG_MINIMUM_PAIRS))
    est, resid = calibrate_background(cal)
    assert resid < 0.0024  # the residual at the B_0 the pairs came from
    assert est.as_array() == pytest.approx([0.8511, -0.9868, 1.0496], abs=0.01)


# Near-collinear three-pair sets (bx, by, bz, b_rb), drawn as the NV fields
# t_i d + N(0, 1 mG) along one random direction d, with 1 mG Rb noise and
# rounded to 1 uG.  From the origin, the solver hits its 200-iteration cap on
# both; the set below is solved from the last start, b_rb_3 times the unit
# vector opposing b_nv_3, and the next one from no start at all.
RESCUED_PAIRS = (
    (-0.741326, 0.163557, -0.788824, 0.838352),
    (-0.638156, 0.140708, -0.678159, 0.831166),
    (0.225832, -0.052223, 0.245244, 1.557086),
)
CAPPED_PAIRS = (
    (0.437636, 0.722866, 0.136458, 2.528746),
    (0.914163, 1.507278, 0.281381, 2.431239),
    (0.237635, 0.395628, 0.074096, 2.668861),
)


def pair_set(rows):
    return CalibrationSet(tuple((FieldVector(*p[:3]), p[3]) for p in rows))


class TestRetries:
    def test_a_later_start_rescues_a_capped_origin_start(self):
        est, resid = calibrate_background(pair_set(RESCUED_PAIRS))
        assert est.as_array().tolist() == [
            1.2405282441938286, 0.23471448931977235, 0.2456748344010314
        ]
        assert resid == 2.7194799110210365e-16

    def test_every_start_capped_raises(self):
        with pytest.raises(NonConvergenceError, match="iteration cap"):
            calibrate_background(pair_set(CAPPED_PAIRS))

    def test_every_start_capped_exits_4(self, tmp_path, capsys):
        p = tmp_path / "pairs.csv"
        rows = ["bx,by,bz,b_rb"] + [",".join(map(repr, row)) for row in CAPPED_PAIRS]
        p.write_text("\n".join(rows) + "\n")
        rc = main(["calibrate", "--pairs", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "comag: calibration solver hit the iteration cap\n"
        assert not (tmp_path / "o").exists()
