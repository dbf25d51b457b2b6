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
    correction relative to the NV reading's direction: the radial part
    stretches the NV estimate, the tangential part rotates it.
    ``orthogonality`` is the |cos| of the angle between the correction
    direction and the NV reading, in [0, 1]: 1 means pure stretch (maximal
    magnitude improvement), 0 pure rotation (no improvement).
    Decomposition fields are NaN when the NV reading is zero.
    """

    b_hat: FieldVector
    correction: FieldVector
    radial: float
    tangential: float
    orthogonality: float


@dataclass(frozen=True)
class CalibrationSet:
    """Paired NV vector / Rb scalar readings of known strong fields."""

    pairs: tuple

    def __post_init__(self):
        if len(self.pairs) < 3:
            raise ValueError("need at least three calibration pairs")
        for b_nv, b_rb in self.pairs:
            if not isinstance(b_nv, FieldVector):
                raise TypeError("calibration NV readings must be FieldVector")
            if not math.isfinite(b_rb):
                raise ValueError("calibration Rb readings must be finite")
            if b_rb < 0:
                raise ValueError("calibration Rb readings must be >= 0")

    def nv_matrix(self) -> np.ndarray:
        return np.array([p[0].as_array() for p in self.pairs])

    def rb_values(self) -> np.ndarray:
        return np.array([float(p[1]) for p in self.pairs])


def combined_estimate(b_nv: FieldVector, b_0: FieldVector, b_rb: float) -> CombinedEstimate:
    """Fused field estimate b_hat = b_nv - c, where c is the minimal-norm
    vector with ||b_nv + b_0 - c|| = b_rb.

    The constraint sphere is centered at s = b_nv + b_0 with radius b_rb;
    the point of the sphere closest to the origin lies along s, giving the
    closed form c = (s/||s||) (||s|| - b_rb).  The expression stays valid
    when b_rb exceeds ||s|| (c flips anti-parallel).  Raises
    :class:`DegenerateDirectionError` when ||s|| = 0, where the direction
    is undefined, or when ||s|| or the correction overflows.  The
    correction is parallel to s, so the |cos| diagnostic is computed from
    s, which stays well-defined even when the correction is zero.
    """
    if not b_rb >= 0:  # NaN too
        raise ValueError("b_rb must be >= 0")
    nv = b_nv.as_array()
    s = nv + b_0.as_array()
    with np.errstate(over="ignore"):
        norm_s, _ = norm_and_unit(s)
    if norm_s == 0.0:
        raise DegenerateDirectionError("b_nv + b_0 = 0: correction direction undefined")
    if not math.isfinite(norm_s):
        raise DegenerateDirectionError("|b_nv + b_0| overflows: correction undefined")
    c = s * ((norm_s - b_rb) / norm_s)
    if not np.isfinite(c).all():
        raise DegenerateDirectionError("b_rb / |b_nv + b_0| overflows: correction undefined")
    radial = tangential = ortho = math.nan
    _, u = norm_and_unit(nv)
    if u is not None:
        radial = float(c @ u)
        tangential = float(np.linalg.norm(c - radial * u))
        ortho = abs(float(s @ u)) / norm_s
    correction = FieldVector.from_array(c)
    return CombinedEstimate(
        b_hat=b_nv - correction,
        correction=correction,
        radial=radial,
        tangential=tangential,
        orthogonality=ortho,
    )


def norm_and_unit(v: np.ndarray) -> tuple[float, np.ndarray | None]:
    """|v| and v / |v| (None where v is zero).  Where a nonzero v's squares
    underflow, v is divided by its largest component first."""
    scale, n = 1.0, float(np.linalg.norm(v))
    if n == 0.0 and v.any():
        scale = float(np.abs(v).max())
        v = v / scale
        n = float(np.linalg.norm(v))
    return scale * n, (v / n if n else None)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a[k] @ b[k] of two (m, 3) arrays, as the 1-D ``@`` computes it."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


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

    ``nv`` is (..., 3) with any leading shape, strided views included,
    ``b_0`` is (3,) or nv's shape, ``rb`` is nv's leading shape.  Returns
    flat rows (b_hat (rows, 3), valid (rows,)); rows with a degenerate
    direction are NaN and flagged invalid rather than raising.  The inputs
    are not written.
    """
    nv = np.asarray(nv, dtype=float)
    rb = np.asarray(rb, dtype=float)
    s = nv + np.asarray(b_0, dtype=float)
    norm_s = row_norms(s)
    valid = norm_s > 0.0
    every = valid.all()  # the usual case, which needs no where= and no NaN mask
    factor = (norm_s - rb) / norm_s if every else np.divide(
        norm_s - rb, norm_s, out=np.zeros_like(norm_s), where=valid
    )
    s *= factor[..., None]  # the correction, then b_hat, in s's own buffer
    np.subtract(nv, s, out=s)
    if not every:
        s[~valid] = np.nan
    return s.reshape(-1, 3), valid.reshape(-1)


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


def _damped_gauss_newton(nv: np.ndarray, rb: np.ndarray, start: np.ndarray) -> np.ndarray:
    x = np.array(start, dtype=float)
    lam = 1e-3

    def residuals(p):
        return np.linalg.norm(p[None, :] + nv, axis=1) - rb

    r = residuals(x)
    cost = float(r @ r)
    for _ in range(200):
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
            if np.linalg.norm(step) < 1e-10:
                return x
            r_new = residuals(x + step)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                x = x + step
                r, cost = r_new, cost_new
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # Damping drove the step to nothing: stationary point reached.
            return x
    raise NonConvergenceError("calibration solver hit the iteration cap")


def linearized_angles(v: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """First-order (d_theta, d_phi) of each field row of ``v`` (m, 3) at the
    deviation ``sigma`` of each lab component, each capped at pi.  theta is
    the polar angle from z, phi the azimuth.

    d_theta = s |(xz, yz, rho^2)| / (rho |v|^2), d_phi = s |(y, x)| / rho^2.
    Angular error shrinks as 1/|v| at fixed sigma.  Raises
    :class:`ZeroFieldError` if |v|^2 or rho |v|^2 is 0 in any row.  rho
    |v|^2 and d_theta's quotients overflow to inf or nan quietly, as Python
    floats do; every other step raises or warns as the caller's
    ``np.errstate`` says.
    """
    if not sigma >= 0:  # NaN too
        raise ValueError("sigma must be >= 0")
    sig = np.full(3, float(sigma))
    v = np.asarray(v, dtype=float)
    r2 = row_dots(v, v)
    x, y, z = v.T
    rho2 = x * x + y * y
    rho = np.sqrt(rho2)
    with np.errstate(over="ignore", invalid="ignore"):
        denom = rho * r2
    undefined = (r2 == 0.0) | ((rho > 0.0) & (denom == 0.0))
    if undefined.any():
        if not v.any(axis=1).all():
            raise ZeroFieldError("angles undefined at zero field")
        raise ZeroFieldError("angles undefined at an underflowing field")

    d_theta, d_phi = np.empty((2, len(v)))
    pole = rho == 0.0
    if pole.any():
        # On the pole the transverse displacement sets the polar error;
        # the azimuth is undefined, so it saturates at the cap.
        transverse = math.sqrt((sig[0] ** 2 + sig[1] ** 2) / 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            d_theta[pole] = transverse / np.sqrt(r2[pole])
        d_phi[pole] = math.pi
    off = ~pole
    x, y, z, rho2, denom = x[off], y[off], z[off], rho2[off], denom[off]
    num = _root_sum_squares(x * z * sig[0], y * z * sig[1], rho2 * sig[2])
    with np.errstate(over="ignore", invalid="ignore"):
        d_theta[off] = num / denom
    d_phi[off] = _root_sum_squares(y * sig[0], x * sig[1]) / rho2
    return np.minimum(d_theta, math.pi), np.minimum(d_phi, math.pi)


def _root_sum_squares(*terms: np.ndarray) -> np.ndarray:
    """Elementwise sqrt(a^2 + b^2 + ...), by ``math.hypot`` where the sum is
    below the smallest normal float 2**-1022.  ``np.float_power`` squares
    as a scalar ``**2`` does (``pow``), where ``a * a`` may differ in the
    last bit."""
    total = sum(np.float_power(t, 2.0) for t in terms)
    root = np.sqrt(total)
    low = ~(total >= 2.0**-1022)
    root[low] = [math.hypot(*cell) for cell in zip(*(t[low].tolist() for t in terms))]
    return root
