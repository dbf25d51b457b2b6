import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comag.errors import DegenerateDirectionError, ZeroFieldError
from comag.estimator import batch_combined, combined_estimate, linearized_angles
from comag.geometry import FieldVector

finite3 = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False), min_size=3, max_size=3
)


def fv(arr):
    return FieldVector.from_array(arr)


def angles(b, sigma):
    """The linearized (d_theta, d_phi) of the one field ``b``."""
    d_theta, d_phi = linearized_angles(b.as_array()[None, :], sigma)
    return float(d_theta[0]), float(d_phi[0])


def monte_carlo_angles(b, sigma, n, seed):
    """Oracle of :func:`linearized_angles`: the empirical standard deviations
    of (theta, phi) over ``n`` Gaussian perturbations of the field ``b`` at
    the per-axis deviation(s) ``sigma``.  The deviations from the angles of
    ``b`` are wrapped to (-pi, pi], and each result is capped at pi."""
    v = b.as_array()
    rng = np.random.default_rng(seed)
    samples = v[None, :] + rng.normal(0.0, 1.0, size=(n, 3)) * np.broadcast_to(sigma, 3)
    theta = np.arctan2(np.hypot(samples[:, 0], samples[:, 1]), samples[:, 2])
    phi = np.arctan2(samples[:, 1], samples[:, 0])
    theta0 = math.atan2(math.hypot(v[0], v[1]), v[2])
    phi0 = math.atan2(v[1], v[0])
    return tuple(
        min(float(np.std((d + math.pi) % (2.0 * math.pi) - math.pi)), math.pi)
        for d in (theta - theta0, phi - phi0)
    )


class TestCorrectionVector:
    """The minimal-norm correction that ``combined_estimate`` applies."""

    def test_constraint_already_satisfied(self):
        b_nv = FieldVector(0.6, -0.3, 0.2)
        b_0 = FieldVector(0.1, 0.1, -0.4)
        b_rb = (b_nv + b_0).magnitude()
        c = combined_estimate(b_nv, b_0, b_rb).correction
        assert c.as_array() == pytest.approx(np.zeros(3), abs=1e-12)

    def test_collinear_1d_case(self):
        c = combined_estimate(FieldVector(1, 0, 0), FieldVector(0, 0, 0), 0.9).correction
        assert c.as_array() == pytest.approx([0.1, 0.0, 0.0], abs=1e-12)

    def test_brute_force_sphere_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            b_nv = fv(rng.normal(0, 1, 3))
            b_0 = fv(rng.normal(0, 0.5, 3))
            b_rb = float(abs(rng.normal(1.0, 0.6)))
            c = combined_estimate(b_nv, b_0, b_rb).correction.as_array()
            s = b_nv.as_array() + b_0.as_array()
            u = rng.normal(0, 1, (100_000, 3))
            u /= np.linalg.norm(u, axis=1)[:, None]
            sampled = s[None, :] + b_rb * u
            best = sampled[np.argmin(np.linalg.norm(sampled, axis=1))]
            # Closed form can never lose to any sampled point on the sphere.
            assert np.linalg.norm(c) <= np.linalg.norm(best) + 1e-12
            # And it approaches the sampled argmin to sampling resolution.
            assert np.linalg.norm(c - best) <= 0.02 * (b_rb + np.linalg.norm(s))

    def test_rb_larger_than_center_flips_direction(self):
        b_nv = FieldVector(0.5, 0.0, 0.0)
        c = combined_estimate(b_nv, FieldVector(0, 0, 0), 2.0).correction
        assert c.as_array() == pytest.approx([-1.5, 0.0, 0.0], abs=1e-12)

    def test_rb_zero_gives_full_center(self):
        b_nv = FieldVector(0.3, 0.4, 0.0)
        b_0 = FieldVector(0.0, 0.0, 1.0)
        c = combined_estimate(b_nv, b_0, 0.0).correction
        assert c.as_array() == pytest.approx([0.3, 0.4, 1.0], abs=1e-12)

    def test_degenerate_direction(self):
        with pytest.raises(DegenerateDirectionError):
            combined_estimate(FieldVector(0.2, 0, 0), FieldVector(-0.2, 0, 0), 1.0)

    def test_negative_rb_rejected(self):
        with pytest.raises(ValueError):
            combined_estimate(FieldVector(1, 0, 0), FieldVector(0, 0, 0), -0.1)

    def test_nan_rb_rejected(self):
        with pytest.raises(ValueError, match="b_rb must be >= 0"):
            combined_estimate(FieldVector(1, 0, 0), FieldVector(0, 0, 0), math.nan)

    @settings(max_examples=200, deadline=None)
    @given(finite3, finite3, st.floats(0.0, 5.0))
    def test_sphere_constraint_and_parallelism(self, nv, b0, rb):
        b_nv, b_0 = FieldVector(*nv), FieldVector(*b0)
        s = b_nv.as_array() + b_0.as_array()
        if np.linalg.norm(s) < 1e-9:
            return
        c = combined_estimate(b_nv, b_0, rb).correction.as_array()
        assert abs(np.linalg.norm(s - c) - rb) < 1e-10 * max(1.0, rb)
        assert np.linalg.norm(np.cross(c, s)) < 1e-10


class TestCombinedEstimate:
    def test_shielded_collinear(self):
        est = combined_estimate(FieldVector(1.1, 0, 0), FieldVector(0, 0, 0), 1.0)
        assert est.b_hat.as_array() == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert est.orthogonality == pytest.approx(1.0)

    def test_magnitude_inheritance_shielded(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            b_nv = fv(rng.normal(0, 1, 3))
            if b_nv.magnitude() < 1e-6:
                continue
            rb = float(abs(rng.normal(1.0, 0.4)))
            est = combined_estimate(b_nv, FieldVector(0, 0, 0), rb)
            assert est.b_hat.magnitude() == pytest.approx(rb, abs=1e-12)

    def test_angle_inheritance_shielded(self):
        b_nv = FieldVector(0.3, -0.4, 0.8)
        est = combined_estimate(b_nv, FieldVector(0, 0, 0), 0.25)
        assert est.b_hat.as_array() / est.b_hat.magnitude() == pytest.approx(
            b_nv.as_array() / b_nv.magnitude(), abs=1e-12
        )

    def test_exact_constraint_keeps_nv(self):
        b_nv = FieldVector(1.0, 0.0, 0.0)
        b_0 = FieldVector(0.0, 0.5, 0.0)
        rb = math.sqrt(1.25)
        est = combined_estimate(b_nv, b_0, rb)
        assert est.correction.as_array() == pytest.approx(np.zeros(3), abs=1e-12)
        assert est.b_hat.as_array() == pytest.approx(b_nv.as_array(), abs=1e-12)

    def test_b_hat_is_nv_minus_correction(self):
        b_nv = FieldVector(0.7, -0.2, 0.1)
        b_0 = FieldVector(0.05, 0.6, -0.4)
        est = combined_estimate(b_nv, b_0, 0.8)
        assert (b_nv - est.correction).as_array() == pytest.approx(
            est.b_hat.as_array(), abs=1e-14
        )
        # The corrected estimate plus the background sits on the Rb sphere.
        assert (est.b_hat + b_0).magnitude() == pytest.approx(0.8, abs=1e-10)

    def test_decomposition_norm_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            b_nv = fv(rng.normal(0, 1, 3))
            b_0 = fv(rng.normal(0, 0.5, 3))
            rb = float(abs(rng.normal(0.8, 0.5)))
            if (b_nv + b_0).magnitude() < 1e-6 or b_nv.magnitude() < 1e-6:
                continue
            est = combined_estimate(b_nv, b_0, rb)
            c = est.correction.magnitude()
            assert est.radial**2 + est.tangential**2 == pytest.approx(c**2, abs=1e-10)

    def test_zero_reference_gives_nan_diagnostics(self):
        est = combined_estimate(FieldVector(0, 0, 0), FieldVector(0, 1, 0), 0.5)
        assert math.isnan(est.orthogonality)
        assert math.isnan(est.radial)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(12)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        rot = q @ np.diag(np.sign(np.diag(r)))
        if np.linalg.det(rot) < 0:
            rot[:, 0] = -rot[:, 0]
        b_nv = FieldVector(0.9, -0.1, 0.3)
        b_0 = FieldVector(0.1, 0.4, -0.2)
        rb = 0.75
        est = combined_estimate(b_nv, b_0, rb)
        est_rot = combined_estimate(fv(rot @ b_nv.as_array()), fv(rot @ b_0.as_array()), rb)
        assert est_rot.b_hat.as_array() == pytest.approx(rot @ est.b_hat.as_array(), abs=1e-10)
        assert est_rot.correction.as_array() == pytest.approx(
            rot @ est.correction.as_array(), abs=1e-10
        )
        assert est_rot.orthogonality == pytest.approx(est.orthogonality, abs=1e-10)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        nv = rng.normal(0, 1, (50, 3))
        b_0 = np.array([0.1, -0.2, 0.3])
        rb = np.abs(rng.normal(1.0, 0.3, 50))
        batch, ok = batch_combined(nv, b_0, rb)
        assert ok.all()
        for i in range(50):
            single = combined_estimate(fv(nv[i]), fv(b_0), float(rb[i]))
            assert batch[i] == pytest.approx(single.b_hat.as_array(), abs=1e-12)

    def test_batch_flags_degenerate_rows(self):
        nv = np.array([[0.2, 0.0, 0.0], [1.0, 0.0, 0.0]])
        b_0 = np.array([-0.2, 0.0, 0.0])
        batch, ok = batch_combined(nv, b_0, np.array([0.5, 0.5]))
        assert not ok[0] and ok[1]
        assert np.isnan(batch[0]).all()


class TestWorkingPoint:
    # A working-point field b_wp, on during the Rb reading only, centers the
    # constraint sphere at b_nv + b_0_hat + b_wp, so the estimate is
    # combined_estimate(b_nv, b_0_hat + b_wp, rb).

    def test_zero_wp_reduces_to_combined(self):
        b_nv = FieldVector(0.4, 0.1, -0.2)
        b_0 = FieldVector(0.0, 0.7, 0.1)
        rb = 0.9
        wp = combined_estimate(b_nv, b_0 + FieldVector(0, 0, 0), rb)
        plain = combined_estimate(b_nv, b_0, rb)
        assert wp.b_hat.as_array() == pytest.approx(plain.b_hat.as_array(), abs=1e-14)
        assert wp.correction.as_array() == pytest.approx(
            plain.correction.as_array(), abs=1e-14
        )

    def test_wp_shifts_sphere_center(self):
        b_nv = FieldVector(0.2, 0.0, 0.0)
        b_0 = FieldVector(0.0, 0.4, 0.0)
        b_wp = FieldVector(0.0, 2.0, 0.0)
        rb_w = (b_nv + b_0 + b_wp).magnitude() - 0.1
        est = combined_estimate(b_nv, b_0 + b_wp, rb_w)
        center = b_nv.as_array() + b_0.as_array() + b_wp.as_array()
        assert np.linalg.norm(center - est.correction.as_array()) == pytest.approx(
            rb_w, abs=1e-10
        )

    def test_parallel_wp_makes_correction_radial(self):
        # With the background-plus-working-point center aligned to the NV
        # reading, the correction can only stretch, not rotate.
        b_nv = FieldVector(0.5, 0.0, 0.0)
        b_0 = FieldVector(0.0, 0.3, 0.0)
        b_wp = FieldVector(2.0, -0.3, 0.0)  # center becomes (2.5, 0, 0)
        rb_w = 2.2
        est = combined_estimate(b_nv, b_0 + b_wp, rb_w)
        assert est.tangential == pytest.approx(0.0, abs=1e-12)
        assert abs(est.radial) == pytest.approx(est.correction.magnitude(), abs=1e-12)
        assert est.orthogonality == pytest.approx(1.0, abs=1e-12)

    def test_well_chosen_wp_reduces_magnitude_variance(self):
        # Rotation-dominated geometry; shifting the sphere center onto the
        # field direction converts the rotation error into a stretch that
        # the precise scalar reading pins down.
        rng = np.random.default_rng(99)
        delta = np.array([0.2, 0.0, 0.0])
        b_0 = np.array([-0.2, 0.8, 0.0])
        s = delta + b_0
        u = delta / np.linalg.norm(delta)
        # |alpha * u - s| = 2 keeps the working-point coil at 2 G.
        bq = -2.0 * (u @ s)
        cq = s @ s - 4.0
        alpha = (-bq + math.sqrt(bq * bq - 4.0 * cq)) / 2.0
        wp = alpha * u - s
        n = 100_000
        sigma_nv, sigma_rb = 0.26, 7.9e-4
        nv = delta[None, :] + rng.normal(0, sigma_nv, (n, 3))
        rb0 = np.clip(np.linalg.norm(s) + rng.normal(0, sigma_rb, n), 0, None)
        rbw = np.clip(np.linalg.norm(s + wp) + rng.normal(0, sigma_rb, n), 0, None)
        plain, ok0 = batch_combined(nv, b_0, rb0)
        shifted, okw = batch_combined(nv, b_0 + wp, rbw)
        var_plain = np.linalg.norm(plain[ok0], axis=1).var()
        var_wp = np.linalg.norm(shifted[okw], axis=1).var()
        assert var_wp < 0.7 * var_plain


class TestAngularUncertainty:
    def test_zero_sigma(self):
        assert angles(FieldVector(1, 0, 0), 0.0) == (0.0, 0.0)

    def test_inverse_field_scaling(self):
        t1, p1 = angles(FieldVector(1, 0, 0), 0.05)
        t10, p10 = angles(FieldVector(10, 0, 0), 0.05)
        assert p10 == pytest.approx(p1 / 10.0, rel=1e-9)
        assert t10 == pytest.approx(t1 / 10.0, rel=1e-9)

    @pytest.mark.parametrize("mag", [0.5, 1.0, 2.0])
    def test_linearized_matches_monte_carlo(self, mag):
        b = FieldVector(mag / math.sqrt(2), mag / math.sqrt(2), 0.0)
        lin_theta, lin_phi = angles(b, 0.1)
        mc_theta, mc_phi = monte_carlo_angles(b, 0.1, n=200_000, seed=42)
        assert mc_phi == pytest.approx(lin_phi, rel=0.05)
        assert mc_theta == pytest.approx(lin_theta, rel=0.05)

    def test_zero_field_raises(self):
        with pytest.raises(ZeroFieldError):
            angles(FieldVector(0, 0, 0), 0.1)

    def test_pole_caps_azimuth(self):
        d_theta, d_phi = angles(FieldVector(0, 0, 1), 0.1)
        assert d_phi == pytest.approx(math.pi)
        assert d_theta == pytest.approx(0.1, rel=1e-9)

    def test_results_capped_at_pi(self):
        d_theta, d_phi = angles(FieldVector(0.001, 0, 0), 10.0)
        assert d_phi <= math.pi and d_theta <= math.pi
