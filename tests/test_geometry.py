import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comag.errors import RankDeficientError
from comag.geometry import (
    FieldVector,
    OrientationBasis,
    default_basis,
    project_field,
    recovery_matrix,
    select_best_axes,
)

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def basis():
    return default_basis()


THREE_AXES = [0, 1, 2]
SUBSETS = ([0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3])


def recover(basis, proj, axes=THREE_AXES):
    """The lab-frame field that the selected axes of a (4,) projection give."""
    return recovery_matrix(basis, axes) @ proj[axes]


def propagate(basis, sigma, axes=THREE_AXES):
    """Per-lab-axis sigmas sqrt(diag(W S W^T)) of independent noise on the
    selected axes, from the (4,) per-axis sigmas ``sigma``."""
    return np.sqrt(recovery_matrix(basis, axes) ** 2 @ np.square(sigma)[axes])


def random_rotation(rng):
    # QR of a Gaussian matrix, sign-fixed to a proper rotation.
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestBasis:
    def test_first_axis_normalized(self, basis):
        assert np.allclose(basis.axes[0], [0.57735, 0.57735, 0.57735], atol=5e-6)

    def test_unit_norms(self, basis):
        assert np.allclose(np.linalg.norm(basis.axes, axis=1), 1.0, atol=1e-12)

    def test_tetrahedral_dot_products(self, basis):
        for i in range(4):
            for j in range(i + 1, 4):
                assert basis.axes[i] @ basis.axes[j] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_recovery_times_projection_identity(self, basis):
        for axes in SUBSETS:
            w = recovery_matrix(basis, axes)
            assert np.allclose(w @ basis.axes[axes], np.eye(3), atol=1e-10)

    def test_from_axes_normalizes(self):
        b = OrientationBasis.from_axes(np.array(default_basis().axes) * 7.5)
        assert np.allclose(np.linalg.norm(b.axes, axis=1), 1.0, atol=1e-12)

    def test_rejects_zero_axis(self):
        axes = np.array(default_basis().axes).copy()
        axes[2] = 0.0
        with pytest.raises(ValueError):
            OrientationBasis.from_axes(axes)


class TestProjection:
    def test_zero_field(self, basis):
        proj = project_field(basis, FieldVector(0, 0, 0))
        assert proj == pytest.approx(np.zeros(4))

    def test_projection_of_first_axis(self, basis):
        # One gauss along axis a projects as (1, -1/3, -1/3, -1/3).
        b = FieldVector.from_array(basis.axes[0])
        proj = project_field(basis, b)
        assert proj == pytest.approx([1.0, -1 / 3, -1 / 3, -1 / 3], abs=1e-12)

    def test_matrix_multiply_example(self, basis):
        got = basis.axes @ (np.ones(3) / SQRT3)
        assert got == pytest.approx([1.0, -1 / 3, -1 / 3, -1 / 3], abs=1e-12)

    def test_unit_x_field(self, basis):
        proj = project_field(basis, FieldVector(1, 0, 0))
        assert np.abs(proj) == pytest.approx(np.full(4, 1 / SQRT3), abs=1e-12)


class TestRecovery:
    def test_round_trip_three_axes(self, basis):
        b = FieldVector(0.3, -0.7, 1.1)
        back = recover(basis, project_field(basis, b), [0, 1, 2])
        assert back == pytest.approx(b.as_array(), abs=1e-10)

    def test_zero_projection(self, basis):
        assert recover(basis, np.zeros(4)) == pytest.approx(np.zeros(3))

    def test_all_three_axis_subsets(self, basis):
        rng = np.random.default_rng(11)
        b = FieldVector.from_array(rng.normal(0, 1, 3))
        proj = project_field(basis, b)
        for subset in SUBSETS:
            back = recover(basis, proj, subset)
            assert back == pytest.approx(b.as_array(), abs=1e-10)

    def test_rank_deficient_user_basis(self):
        axes = np.array(
            [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0]], dtype=float
        )
        b = OrientationBasis.from_axes(axes)
        with pytest.raises(RankDeficientError):
            recovery_matrix(b, [0, 1, 2])

    def test_rank_deficient_basis_raises_on_every_call(self):
        b = OrientationBasis.from_axes([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0]])
        for _ in range(2):
            with pytest.raises(RankDeficientError):
                recovery_matrix(b, [0, 1, 2])

    def test_equals_the_inverse_of_the_selected_rows(self, basis):
        rot = random_rotation(np.random.default_rng(2))
        rotated = OrientationBasis.from_axes(basis.axes @ rot.T)
        for b in (basis, rotated):
            for subset in SUBSETS:
                for _ in range(2):
                    w = recovery_matrix(b, subset)
                    assert w.tobytes() == np.linalg.inv(b.axes[subset]).tobytes()

    def test_writes_cannot_change_a_later_result(self):
        axes = np.array(default_basis().axes)  # writable, as a hand-built basis may hold
        b = OrientationBasis(axes=axes)
        w = recovery_matrix(b, THREE_AXES)
        with contextlib.suppress(ValueError):  # read-only, or the caller's own copy
            w[:] = 0.0
        assert recovery_matrix(b, THREE_AXES).tobytes() == np.linalg.inv(axes[:3]).tobytes()
        axes[1] = [1.0, 0.0, 0.0]
        assert recovery_matrix(b, THREE_AXES).tobytes() == np.linalg.inv(axes[:3]).tobytes()

    def test_too_few_axes(self, basis):
        with pytest.raises(ValueError):
            recovery_matrix(basis, [0, 1])

    @pytest.mark.parametrize("idx", [[0, 1, 4], [-1, 1, 2], [0, 0, 1, 2], [0, 0, 1], [0, 1, 2, 3]])
    def test_index_outside_range_or_repeated(self, basis, idx):
        with pytest.raises(ValueError, match="distinct axis indices in 0-3"):
            recovery_matrix(basis, idx)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3))
    def test_round_trip_property(self, comps):
        basis = default_basis()
        b = FieldVector(*comps)
        back = recover(basis, project_field(basis, b))
        assert np.allclose(back, b.as_array(), atol=1e-9)

    def test_rotation_equivariance(self, basis):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rot = random_rotation(rng)
            rotated = OrientationBasis.from_axes(basis.axes @ rot.T)
            b = FieldVector.from_array(rng.normal(0, 2, 3))
            b_rot = FieldVector.from_array(rot @ b.as_array())
            back = recover(rotated, project_field(rotated, b_rot))
            expect = rot @ recover(basis, project_field(basis, b))
            assert back == pytest.approx(expect, abs=1e-9)


class TestUncertainty:
    def test_zero_sigma(self, basis):
        out = propagate(basis, [0.0, 0.0, 0.0, 0.0])
        assert out == pytest.approx(np.zeros(3))

    def test_linear_mode_reproduces_260_mg(self, basis):
        # Uniform 150 mG per axis over a three-axis subset inflates to
        # ~260 mG per lab component under the direct |W| transform, the
        # worst-case bound that is exact for perfectly correlated axis noise.
        out = np.abs(recovery_matrix(basis, [0, 1, 2])) @ np.full(3, 0.15)
        assert out == pytest.approx(np.full(3, 0.26), abs=0.010)
        assert out == pytest.approx(np.full(3, 0.15 * SQRT3), abs=1e-12)

    def test_matches_recover_field_scatter(self, basis):
        # Independent-noise propagation must agree with the empirical
        # spread of recovered fields over noisy projections.
        rng = np.random.default_rng(3)
        sigma = np.array([0.12, 0.2, 0.05, 0.3])
        true = FieldVector(0.4, -0.2, 0.9)
        proj = project_field(basis, true)
        noisy = proj[None, :] + rng.normal(0, 1, (100_000, 4)) * sigma[None, :]
        for axes in SUBSETS:
            emp = (noisy[:, axes] @ recovery_matrix(basis, axes).T).std(axis=0)
            assert emp == pytest.approx(propagate(basis, sigma, axes), rel=0.02)

    def test_uncertainty_rotation_equivariance(self, basis):
        # Rotating the axes rotates the covariance; isotropic input noise
        # keeps per-lab-component sigmas invariant only as a set, so
        # compare full covariances.
        rng = np.random.default_rng(9)
        rot = random_rotation(rng)
        sigma = [0.1, 0.2, 0.3]
        w = recovery_matrix(basis, THREE_AXES)
        w_rot = recovery_matrix(OrientationBasis.from_axes(basis.axes @ rot.T), THREE_AXES)
        cov = w @ np.diag(np.square(sigma)) @ w.T
        cov_rot = w_rot @ np.diag(np.square(sigma)) @ w_rot.T
        assert cov_rot == pytest.approx(rot @ cov @ rot.T, abs=1e-9)


class TestAxisSelection:
    def test_picks_smallest(self):
        assert select_best_axes([0.4, 0.1, 0.3, 0.2]) == (1, 2, 3)

    def test_tie_break_by_index(self):
        assert select_best_axes([0.2, 0.2, 0.2, 0.2]) == (0, 1, 2)


class TestFieldVector:
    def test_magnitude(self):
        assert FieldVector(3.0, 4.0, 0.0).magnitude() == pytest.approx(5.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FieldVector(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            FieldVector(0.0, math.inf, 0.0)

    def test_arithmetic(self):
        a = FieldVector(1.0, 2.0, 3.0)
        b = FieldVector(0.5, -1.0, 2.0)
        assert (a + b).as_array() == pytest.approx([1.5, 1.0, 5.0])
        assert (a - b).as_array() == pytest.approx([0.5, 3.0, 1.0])
