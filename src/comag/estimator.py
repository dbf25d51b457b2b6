"""Combined NV+Rb field estimation.

The NV sensor supplies a vector reading of the small field of interest; the
Rb sensor supplies a high-precision scalar magnitude that also contains the
background field.  The combined estimator applies the minimal-norm
correction that places the NV reading (plus background) on the sphere of
Rb-measured radius, preserving the NV angular information while inheriting
the Rb magnitude precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateDirectionError,
    NonConvergenceError,
    SingularGeometryError,
    ZeroFieldError,
)
from .geometry import FieldVector


@dataclass(frozen=True)
class CombinedEstimate:
    """Result of fusing one NV vector reading with one Rb scalar reading.

    ``b_hat`` is the corrected field estimate, ``correction`` the applied
    minimal-norm adjustment.  ``radial`` and ``tangential`` decompose the
    correction relative to the reference direction (the NV reading unless a
    diagnostic reference was supplied): the radial part stretches the NV
    estimate, the tangential part rotates it.  ``orthogonality`` is the
    |cos| of the angle between the correction direction and the reference,
    in [0, 1]: 1 means pure stretch (maximal magnitude improvement), 0 pure
    rotation (no improvement).  Decomposition fields are NaN when the
    reference direction is zero.
    """

    b_hat: FieldVector
    correction: FieldVector
    radial: float
    tangential: float
    orthogonality: float


@dataclass(frozen=True)
class CalibrationSet:
    """Paired NV vector / Rb scalar readings of known strong fields.

    ``calibration_averages`` records the longer averaging period used for
    the calibration scans; it scales the per-axis NV noise as 1/sqrt(T).
    """

    pairs: tuple
    calibration_averages: int = 1

    def __post_init__(self):
        if len(self.pairs) < 3:
            raise ValueError("need at least three calibration pairs")
        if self.calibration_averages < 1:
            raise ValueError("calibration_averages must be >= 1")
        for b_nv, b_rb in self.pairs:
            if not isinstance(b_nv, FieldVector):
                raise TypeError("calibration NV readings must be FieldVector")
            if b_rb < 0:
                raise ValueError("calibration Rb readings must be >= 0")

    def nv_matrix(self) -> np.ndarray:
        return np.array([p[0].as_array() for p in self.pairs])

    def rb_values(self) -> np.ndarray:
        return np.array([float(p[1]) for p in self.pairs])


@dataclass(frozen=True)
class AngularUncertainty:
    """Standard deviations of the polar and azimuthal field angles, radians."""

    d_theta: float
    d_phi: float

    def __post_init__(self):
        if self.d_theta < 0 or self.d_phi < 0:
            raise ValueError("angular uncertainties must be >= 0")


def correction_vector(b_nv: FieldVector, b_0: FieldVector, b_rb: float) -> FieldVector:
    """Minimal-norm vector c with ||b_nv + b_0 - c|| = b_rb.

    The constraint sphere is centered at s = b_nv + b_0 with radius b_rb;
    the point of the sphere closest to the origin lies along s, giving the
    closed form c = (s/||s||) (||s|| - b_rb).  The expression stays valid
    when b_rb exceeds ||s|| (c flips anti-parallel).  Raises
    :class:`DegenerateDirectionError` when ||s|| = 0, where the direction
    is undefined.
    """
    if b_rb < 0:
        raise ValueError("b_rb must be >= 0")
    s = b_nv.as_array() + b_0.as_array()
    norm_s = float(np.linalg.norm(s))
    if norm_s == 0.0:
        raise DegenerateDirectionError("b_nv + b_0 = 0: correction direction undefined")
    return FieldVector.from_array(s * ((norm_s - b_rb) / norm_s))


def _decompose(correction: np.ndarray, s: np.ndarray, reference: np.ndarray):
    """Radial/tangential split of the correction and the |cos| diagnostic.

    The correction is parallel to s by construction, so the diagnostic is
    computed from s, which stays well-defined even when the correction has
    zero magnitude.
    """
    ref_norm = float(np.linalg.norm(reference))
    if ref_norm == 0.0:
        return math.nan, math.nan, math.nan
    u = reference / ref_norm
    radial = float(correction @ u)
    tangential = float(np.linalg.norm(correction - radial * u))
    s_norm = float(np.linalg.norm(s))
    ortho = abs(float(s @ u)) / s_norm
    return radial, tangential, ortho


def combined_estimate(
    b_nv: FieldVector,
    b_0: FieldVector,
    b_rb: float,
    reference: FieldVector | None = None,
) -> CombinedEstimate:
    """Fused field estimate b_hat = b_nv - c with the sphere constraint.

    ``reference`` optionally supplies the true small field for diagnostic
    decomposition; by default the NV reading itself is used.
    """
    c = correction_vector(b_nv, b_0, b_rb)
    b_hat = b_nv - c
    s = b_nv.as_array() + b_0.as_array()
    ref = (reference if reference is not None else b_nv).as_array()
    radial, tangential, ortho = _decompose(c.as_array(), s, ref)
    return CombinedEstimate(
        b_hat=b_hat,
        correction=c,
        radial=radial,
        tangential=tangential,
        orthogonality=ortho,
    )


def working_point_estimate(
    b_nv: FieldVector,
    b_0_hat: FieldVector,
    b_rb_with_wp: float,
    b_wp: FieldVector,
    reference: FieldVector | None = None,
) -> CombinedEstimate:
    """Combined estimate with a known working-point field applied.

    The controlled field ``b_wp`` is on during the Rb measurement only, so
    the constraint sphere is centered at b_nv + b_0_hat + b_wp while the
    reported estimate remains b_hat = b_nv - c.
    """
    return combined_estimate(b_nv, b_0_hat + b_wp, b_rb_with_wp, reference)


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of a (..., 3) array.

    Sums the squares in the same order as ``np.linalg.norm(x, axis=-1)``,
    so the result is bit-identical, without its generic reduction.
    """
    return np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2)


def batch_combined(
    nv: np.ndarray,
    b_0: np.ndarray,
    rb: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized combined estimates for simulation harnesses.

    ``nv`` is (n, 3), ``b_0`` is (3,) or (n, 3), ``rb`` is (n,).  Returns
    (b_hat (n, 3), valid (n,)); rows with a degenerate direction are NaN
    and flagged invalid rather than raising.
    """
    nv = np.asarray(nv, dtype=float)
    rb = np.asarray(rb, dtype=float)
    s = nv + np.asarray(b_0, dtype=float)
    norm_s = row_norms(s)
    valid = norm_s > 0.0
    factor = np.zeros_like(norm_s)
    np.divide(norm_s - rb, norm_s, out=factor, where=valid)
    correction = s * factor[:, None]
    b_hat = np.where(valid[:, None], nv - correction, np.nan)
    return b_hat, valid


def calibrate_background(cal: CalibrationSet) -> tuple[FieldVector, float]:
    """Solve ||B_0 + b_nv_i|| = b_rb_i for the background field B_0.

    Damped Gauss-Newton on the residuals r_i = ||B_0 + b_nv_i|| - b_rb_i,
    started at the origin, with Levenberg-style damping (lambda = 1e-3,
    x10 on a rejected step, /10 on an accepted one).  Converged when the
    step norm drops below 1e-10 G, capped at 200 iterations.  On a failed
    run, retries from each b_rb_i times the unit vector opposing b_nv_i,
    which escapes the reflected local minimum of near-collinear
    geometries.  Returns the estimate and the final residual norm.
    """
    nv = cal.nv_matrix()
    rb = cal.rb_values()

    starts = [np.zeros(3)]
    for v, r in zip(nv, rb):
        n = np.linalg.norm(v)
        if n > 0:
            starts.append(-v / n * r)

    last_error: NonConvergenceError | None = None
    for start in starts:
        try:
            x = _damped_gauss_newton(nv, rb, start)
        except NonConvergenceError as err:
            last_error = err
            continue
        resid = np.linalg.norm(x[None, :] + nv, axis=1) - rb
        jac = _calibration_jacobian(nv, x)
        if np.linalg.matrix_rank(jac, tol=1e-8) < 3:
            raise SingularGeometryError(
                "calibration geometry leaves the background field underdetermined"
            )
        return FieldVector.from_array(x), float(np.linalg.norm(resid))
    raise last_error if last_error is not None else NonConvergenceError("no starting point")


def _calibration_jacobian(nv: np.ndarray, x: np.ndarray) -> np.ndarray:
    shifted = x[None, :] + nv
    norms = np.linalg.norm(shifted, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return shifted / safe[:, None]


def _damped_gauss_newton(
    nv: np.ndarray,
    rb: np.ndarray,
    start: np.ndarray,
    step_tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    x = np.array(start, dtype=float)
    lam = 1e-3

    def residuals(p):
        return np.linalg.norm(p[None, :] + nv, axis=1) - rb

    r = residuals(x)
    cost = float(r @ r)
    for _ in range(max_iter):
        jac = _calibration_jacobian(nv, x)
        g = jac.T @ r
        h = jac.T @ jac
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(h + lam * np.eye(3), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if np.linalg.norm(step) < step_tol:
                return x
            r_new = residuals(x + step)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                x = x + step
                r, cost = r_new, cost_new
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if np.linalg.norm(step) < step_tol:
                    return x
                break
            lam *= 10.0
        if not accepted:
            # Damping drove the step to nothing: stationary point reached.
            return x
    raise NonConvergenceError("calibration solver hit the iteration cap")


def angular_uncertainty(
    b: FieldVector,
    sigma: Sequence[float] | float,
    method: str = "linearized",
    n: int = 100_000,
    seed: int | None = 0,
) -> AngularUncertainty:
    """Uncertainty of the field direction angles theta (polar, from z) and phi.

    ``sigma`` gives the per-lab-axis standard deviations (a scalar applies
    isotropically).  The linearized method propagates first-order through
    theta = arctan(sqrt(bx^2 + by^2)/bz) and phi = arctan(by/bx); the
    Monte-Carlo method takes the empirical standard deviation of the angles
    over ``n`` Gaussian perturbations with deviations wrapped to (-pi, pi].
    Both results are capped at pi.  Angular error shrinks as 1/||b|| at
    fixed sigma.
    """
    sig = np.asarray(sigma, dtype=float)
    if sig.ndim == 0:
        sig = np.full(3, float(sig))
    if sig.shape != (3,):
        raise ValueError("sigma must be a scalar or three per-axis values")
    if np.any(sig < 0):
        raise ValueError("sigma must be >= 0")

    v = b.as_array()
    r2 = float(v @ v)
    if method == "linearized":
        if r2 == 0.0:
            raise ZeroFieldError("angles undefined at zero field")
        x, y, z = v
        rho2 = x * x + y * y
        rho = math.sqrt(rho2)
        if rho > 0.0:
            d_theta = math.sqrt(
                (x * z * sig[0]) ** 2 + (y * z * sig[1]) ** 2 + (rho2 * sig[2]) ** 2
            ) / (rho * r2)
            d_phi = math.sqrt((y * sig[0]) ** 2 + (x * sig[1]) ** 2) / rho2
        else:
            # On the pole the transverse displacement sets the polar error;
            # the azimuth is undefined, so it saturates at the cap.
            d_theta = math.sqrt((sig[0] ** 2 + sig[1] ** 2) / 2.0) / math.sqrt(r2)
            d_phi = math.pi
        return AngularUncertainty(float(min(d_theta, math.pi)), float(min(d_phi, math.pi)))

    if method != "monte_carlo":
        raise ValueError("method must be 'linearized' or 'monte_carlo'")
    rng = np.random.default_rng(seed)
    samples = v[None, :] + rng.normal(0.0, 1.0, size=(n, 3)) * sig[None, :]
    theta = np.arctan2(np.hypot(samples[:, 0], samples[:, 1]), samples[:, 2])
    phi = np.arctan2(samples[:, 1], samples[:, 0])
    theta0 = math.atan2(math.hypot(v[0], v[1]), v[2]) if r2 > 0 else 0.0
    phi0 = math.atan2(v[1], v[0]) if (v[0] != 0 or v[1] != 0) else 0.0
    d_theta = float(np.std(_wrap_angle(theta - theta0)))
    d_phi = float(np.std(_wrap_angle(phi - phi0)))
    return AngularUncertainty(min(d_theta, math.pi), min(d_phi, math.pi))


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    """Wrap angle differences into (-pi, pi]."""
    return (a + math.pi) % (2.0 * math.pi) - math.pi
