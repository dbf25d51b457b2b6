"""Monte-Carlo harnesses for the combined-estimator improvement studies.

Grid simulations perturb the vector (NV) and scalar (Rb) readings directly
with Gaussian noise at the configured sensor uncertainties; spectral-level
simulation through the full synthetic scans is available separately in
:mod:`comag.measurement`.  Determinism contract: each grid cell (or scan
position) draws from its own stream ``np.random.default_rng([seed, tag,
*key])`` (tag per harness, key the cell's indices), so for a given version
and seed results are bit-identical in any evaluation order.  A grid or
marginal cell draws one standard-normal block: NV (n_reps, 3), Rb
(n_reps,), then calibration error (n_reps, 3) if b_0_cal_error > 0, each
scaled as ``Generator.normal(0.0, sigma)`` scales it: a reading is (0.0 +
sigma z) + f for its true value f, which the kernel forms as sigma z + (f +
0.0), the same bits, signed zeros included.  A scan position draws one
block of its averaged readings: NV (3,) and Rb (1,) at sigma /
sqrt(n_reps), then calibration error (3,) as above.  The scalar demo draws
each position's stream once, and its two backgrounds fuse copies of that
block: the same noise and calibration error.
Every batch is fused in place in its block: the readings, the clipped Rb
values and the calibrated backgrounds overwrite the draws they come from.
Where a batch holds one cell (n_reps above 4,096), a helper thread and the
calling thread share the draws: either claims the next cell and fills its
block while the calling thread fuses the cells in order.  Each cell draws
its own stream exactly as the inline fill does, so every output bit is the
same whichever thread draws.  Many-cell batches fill inline, one short call
per cell, which would only contend for the GIL.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .estimator import batch_combined, linearized_angles, norm_and_unit, row_dots, row_norms
from .geometry import FieldVector

# Stream tags keep the per-cell RNG keys of different harnesses disjoint.
_TAG_GRID = 1
_TAG_MARGINAL = 2
_TAG_SPATIAL = 3
_TAG_DEMO = 4

# The most readings, points or cells (_MAX_SIDE a side) a harness takes: past
# it, a reading's 7 float64 draws overflow np.intp, and numpy raises
# ValueError where an array too big to hold raises MemoryError.
_MAX_COUNT = np.iinfo(np.intp).max // 56
_MAX_SIDE = math.isqrt(_MAX_COUNT)


def _require_count(name: str, count: int, limit: int = _MAX_COUNT) -> None:
    if count > limit:
        raise ValueError(f"{name} must be at most {limit}")


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
    b_0_true: FieldVector = field(
        default_factory=lambda: FieldVector(0.0, 0.0, 0.0), metadata={"ini": "b_0"}
    )
    b_0_cal_error: float = 0.0
    seed: int = 20240

    def __post_init__(self):
        if not self.grid_min < self.grid_max:
            raise ValueError("grid_min must be below grid_max")
        if not math.isfinite(self.grid_min) or not math.isfinite(self.grid_max):
            raise ValueError("grid_min and grid_max must be finite")
        if self.n_reps < 2:
            raise ValueError("n_reps must be >= 2")
        if not self.sigma_ratio > 0:
            raise ValueError("sigma_ratio must be positive")
        if not math.isfinite(self.sigma_ratio):
            raise ValueError("sigma_ratio must be finite")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        _require_count("n_reps", self.n_reps)
        _require_count("grid_points", self.grid_points, _MAX_SIDE)
        if not self.sigma_nv > 0:
            raise ValueError("sigma_nv must be positive")
        if not math.isfinite(self.sigma_nv):
            raise ValueError("sigma_nv must be finite")
        if self.sigma_rb is not None and not self.sigma_rb > 0:
            raise ValueError("sigma_rb must be positive")
        if self.sigma_rb is not None and not math.isfinite(self.sigma_rb):
            raise ValueError("sigma_rb must be finite")
        if not self.b_0_cal_error >= 0:  # NaN too
            raise ValueError("b_0_cal_error must be >= 0")
        if not math.isfinite(self.b_0_cal_error):
            raise ValueError("b_0_cal_error must be finite")
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


# numpy.random.SeedSequence's hash constants (its entropy pool is 4 words).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


@functools.cache
def _hash_table(const: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """(calls, 1) uint32 xor and multiplier columns of SeedSequence's hashmix calls."""
    table = np.array([const * pow(mult, k, 2**32) & _MASK32 for k in range(calls + 1)], np.uint32)
    table.flags.writeable = False  # shared by every caller
    return table[:-1, None], table[1:, None]


@functools.cache
def _preset_state():
    from numpy.random.bit_generator import ISeedSequence  # off the CLI's import path

    class PresetState(ISeedSequence):  # hands PCG64 a precomputed state
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return PresetState


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of values, one output row per constant row."""
    values = (values ^ xor) * mult
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _cell_rngs(seed: int, tag: int, keys):
    """Lazily built generators equal to ``np.random.default_rng([seed, tag, *key])``.

    SeedSequence's pool mixing and ``generate_state(4, np.uint64)`` run once
    on uint32 arrays over all keys (parts below 2**32; the seed enters as its
    little-endian 32-bit words), one hashmix call per source word on a (dsts,
    keys) array, constants from cached tables; each PCG64 is built when taken.
    """
    keys = np.asarray(keys, dtype=np.uint32)
    head = [seed >> s & _MASK32 for s in range(0, max(int(seed).bit_length(), 1), 32)] + [tag]
    entropy = np.zeros((max(len(head) + keys.shape[1], 4), len(keys)), np.uint32)
    entropy[: len(head)] = np.array(head, np.uint32)[:, None]
    entropy[len(head) : len(head) + keys.shape[1]] = keys.T
    xor, mult = _hash_table(_INIT_A, _MULT_A, 4 * len(entropy))  # 4 + 12 + 4 a word past 4
    pool = _hashmix(entropy[:4], xor[:4], mult[:4])
    for src in range(4):
        dst, k = [d for d in range(4) if d != src], slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k], mult[k]))
    for k, word in zip(range(16, 4 * len(entropy), 4), entropy[4:]):
        pool = _mix(pool, _hashmix(word, xor[k : k + 4], mult[k : k + 4]))
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_hash_table(_INIT_B, _MULT_B, 8))
    states = np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)
    return map(np.random.Generator, map(np.random.PCG64, map(_preset_state(), states)))


def _db(ratio: float) -> float:
    # isfinite first: ordering a NaN can set the FP invalid flag; _db_cells does the same.
    if not math.isfinite(ratio) or ratio <= 0:
        return math.nan
    return 10.0 * math.log10(ratio)


def _db_cells(ratios) -> np.ndarray:
    """Elementwise _db; the scalar math.log10 keeps the last digit of every gain."""
    ratios = np.asarray(ratios, dtype=float)
    ok = np.isfinite(ratios)
    ok[ok] = ratios[ok] > 0  # only finite ratios are ordered
    out = np.full(ratios.shape, math.nan)
    logs = map(math.log10, ratios[ok].tolist())
    out[ok] = 10.0 * np.fromiter(logs, float, np.count_nonzero(ok))
    return out


# Readings (cells x reps) fused per batch: bounds the working set however
# many cells a harness asks for.  A batch holds at least one whole cell, so
# a cell with more reps (perfbench's mc_deep has 20,000) is a batch alone.
_CHUNK_ROWS = 8192

# Blocks a study of one-cell batches fills in turn (see _one_cell_chunks).
_RING = 4


def _norms(a: np.ndarray) -> np.ndarray:
    """Row-wise np.linalg.norm(a[k]) of an (m, 3) array, to the last bit."""
    return np.sqrt(row_dots(a, a))


def _angles(v, v_norms, d, d_norms) -> np.ndarray:
    """Angles (rad) between rows of v[k] (m, n, 3) and d[k], given both norms; NaN for 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = np.matmul(v, d[:, :, None])[..., 0] / (v_norms * d_norms[:, None])
    np.clip(cosang, -1.0, 1.0, out=cosang)
    return np.arccos(cosang, out=cosang)


def _orthogonality(deltas: np.ndarray, b_0: np.ndarray) -> np.ndarray:
    """Per-cell |cos| between deltas[k] + b_0 and deltas[k]; NaN if either is 0."""
    s = deltas + b_0
    ns, nd = _norms(s), _norms(deltas)
    with np.errstate(invalid="ignore", divide="ignore"):
        ortho = np.abs(row_dots(s, deltas)) / (ns * nd)
    return np.where((ns == 0.0) | (nd == 0.0), math.nan, ortho)


def _masked_mean(x: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Mean of each row of x over its ok entries (NaN if none), summed as
    ``np.mean(x[r][ok[r]])`` sums; rows with equal counts are averaged together."""
    if ok.all():  # the usual case, every repetition fused: np.mean's own arithmetic
        return np.add.reduce(x, axis=1) / x.shape[1]
    out = np.full(len(x), math.nan)
    counts = np.count_nonzero(ok, axis=1)
    for k in np.unique(counts[counts > 0]):
        rows = counts == k
        out[rows] = np.mean(x[rows][ok[rows]].reshape(-1, k), axis=1)
    return out


def _simulate_cells(deltas, cfg: SimConfig, tag: int, keys) -> dict[str, np.ndarray]:
    """Error statistics of both estimators for many cells, fused in batches.

    Cell k (true small field deltas[k]) draws one standard-normal block from
    ``np.random.default_rng([cfg.seed, tag, *keys[k]])``: NV, Rb, then
    calibration error, as the module docstring says, so its numbers do not
    depend on the cells batched with it.  Each batch is fused in place in
    its block by ``_fused_readings``, the kernel the scans call with n = 1.
    A batch of one cell (n_reps above _CHUNK_ROWS / 2) has its block filled
    by a helper thread or by this one, whichever claims it first, while
    this thread fuses the cells in order (see ``_one_cell_chunks``); a
    many-cell batch draws inline.  Returns
    per-cell ``valid``, ``dir_valid`` and the NV/combined mean squared and
    absolute errors ``{mse,mae}_{mag,dir}_{nv,comb}``; both estimators'
    errors average the same samples, the fused repetitions, NaN if there
    are none.
    """
    rngs = _cell_rngs(cfg.seed, tag, keys)
    per_chunk = max(1, _CHUNK_ROWS // cfg.n_reps)
    if per_chunk == 1:
        chunks = _one_cell_chunks(deltas, cfg, rngs)
    else:
        batches = (deltas[k : k + per_chunk] for k in range(0, len(deltas), per_chunk))
        n, cal_error = cfg.n_reps, cfg.b_0_cal_error
        # One block at a time: drawn as its chunk's call begins, freed as it returns.
        chunks = [
            _simulate_chunk(d, cfg, _draw_block(_new_block(len(d), n, cal_error), rngs))
            for d in batches
        ]
    return {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}


def _one_cell_chunks(deltas, cfg: SimConfig, rngs) -> list[dict[str, np.ndarray]]:
    """One chunk per cell, its block filled by a helper thread or by this
    one, whichever claims the cell first; this thread scales, fuses and
    reduces every cell in order.

    numpy's fill releases the GIL, so fills and fusions overlap on two
    cores.  Claims go in cell order under one lock, and each takes the
    cell's generator and a free block from a ring of _RING blocks: a fresh
    block per cell could go back to the OS and fault in again (about 300
    page faults per 20,000-rep cell).  The helper claims whenever a block
    is free.  When this thread's next cell is not filled yet, it fills the
    next unclaimed cell itself instead of waiting, and waits only when
    every block is taken or every cell claimed, so the helper is drawing
    that cell.  It cannot deadlock: while cell k is unclaimed no later cell
    is, so all blocks but the one the helper may hold are free.  Each cell
    fills its own block from its own stream, so every output bit is the
    inline draw's whichever thread draws, and errstate and tracing see only
    this thread.  Blocks pass through C-level queues (a concurrent.futures
    handoff made the study about a quarter slower on a 2-core VM).  A
    failed draw on either thread is raised here, and the helper is joined
    before this returns or raises.
    """
    from queue import Empty, SimpleQueue  # off the CLI's import path

    free, done = SimpleQueue(), SimpleQueue()  # blocks to fill; the helper's filled blocks
    for _ in range(_RING):
        free.put(_new_block(1, cfg.n_reps, cfg.b_0_cal_error))
    lock = threading.Lock()
    claimed = 0  # cells 0 .. claimed - 1 have a thread and a block
    mine = {}  # cells this thread filled ahead of the one it fuses

    def claim():
        """The next unclaimed cell and its generator; None once all are claimed."""
        nonlocal claimed
        with lock:
            if claimed == len(deltas):
                return None
            rng = next(rngs)
            claimed += 1
            return claimed - 1, rng

    def fill():
        try:
            while (z := free.get()) is not None and (cell := claim()) is not None:
                done.put(_draw_block(z, [cell[1]]))
        except BaseException as err:  # raised again on the calling thread
            done.put(err)

    def draw_here():
        """Fill the next unclaimed cell on this thread; False if none is free."""
        try:
            z = free.get_nowait()
        except Empty:
            return False
        cell = claim()
        if cell is None:
            free.put(z)
            return False
        mine[cell[0]] = _draw_block(z, [cell[1]])
        return True

    helper = threading.Thread(target=fill, name="comag-draw", daemon=True)
    helper.start()
    try:
        chunks = []
        for k in range(len(deltas)):
            # Unless this thread filled cell k, the helper's next block is k's.
            while k not in mine and done.empty() and draw_here():
                pass
            z = mine.pop(k) if k in mine else done.get()
            if isinstance(z, BaseException):
                raise z
            chunks.append(_simulate_chunk(deltas[k : k + 1], cfg, z))
            free.put(z)  # the chunk keeps no view of its block
    finally:
        with lock:
            claimed = len(deltas)  # no more claims
        free.put(None)
        helper.join()
    return chunks


def _new_block(m: int, n: int, cal_error: float) -> np.ndarray:
    """An unfilled standard-normal block for m cells of n readings each."""
    return np.empty((m, (7 if cal_error > 0 else 4) * n))


def _draw_block(z: np.ndarray, rngs) -> np.ndarray:
    """Fill row c of z with standard normals from the next generator of rngs."""
    for c, rng in zip(range(len(z)), rngs):  # range first: the next chunk's rng stays untaken
        rng.standard_normal(out=z[c])
    return z


def _fused_readings(fields, b_0, sigma_nv, sigma_rb, cal_error, z):
    """Noisy reading pairs of each true field fields[k] from its filled
    standard-normal block z[k], and their fusion.

    z (m, 7 n) holds row k's draws in the module docstring's order ((m, 4 n)
    without calibration error), as ``_draw_block`` fills it.  The readings,
    the clipped Rb values and the calibrated backgrounds are formed in place
    in that block for every batch shape, and batch_combined takes their
    strided views without a copy.  Each reading is s z + (f + 0.0) for its
    true value f, the module docstring's (0.0 + s z) + f bit for bit.
    Returns nv (m, n, 3) and rb (m, n), both views of z, b_hat (m, n, 3) and
    ok (m, n); b_hat is NaN where ok is False.
    """
    m = len(fields)
    cal = cal_error > 0
    n = z.shape[1] // (7 if cal else 4)
    z[:, : 3 * n] *= sigma_nv
    z[:, 3 * n : 4 * n] *= sigma_rb
    z[:, 4 * n :] *= cal_error  # empty without calibration error
    nv = z[:, : 3 * n].reshape(m, n, 3)
    b_0_hat = z[:, 4 * n :].reshape(m, n, 3) if cal else b_0
    shift = fields + 0.0  # s z + (f + 0.0) == (0.0 + s z) + f: no pass over the block
    for k in range(3):  # axis by axis: an (m, n, 3) broadcast loops once per reading
        nv[..., k] += shift[:, k, None]
        if cal:
            b_0_hat[..., k] += b_0[k] + 0.0
    rb = z[:, 3 * n : 4 * n]
    rb += _norms(fields + b_0)[:, None] + 0.0
    np.maximum(rb, 0.0, out=rb)
    b_hat, ok = batch_combined(nv, b_0_hat, rb)
    return nv, rb, b_hat.reshape(m, n, 3), ok.reshape(m, n)


def _simulate_chunk(deltas, cfg, z) -> dict[str, np.ndarray]:
    """Statistics of one batch from its filled standard-normal block z."""
    b_0, sigma_rb = cfg.b_0_true.as_array(), cfg.resolved_sigma_rb()
    nv, _, b_hat, ok = _fused_readings(deltas, b_0, cfg.sigma_nv, sigma_rb, cfg.b_0_cal_error, z)
    true_mag, nv_mag, comb_mag = _norms(deltas), row_norms(nv), row_norms(b_hat)
    dir_errors = _angles(nv, nv_mag, deltas, true_mag), _angles(b_hat, comb_mag, deltas, true_mag)
    nv_mag -= true_mag[:, None]  # the angles are taken: the norms become the errors
    comb_mag -= true_mag[:, None]
    stats = {"valid": ok.any(axis=1)}
    stats["dir_valid"] = stats["valid"] & (true_mag > 0)
    for quantity, errors in (("mag", (nv_mag, comb_mag)), ("dir", dir_errors)):
        for estimator, err in zip(("nv", "comb"), errors):
            np.abs(err, out=err)  # |error|, then its square: |e| * |e| == e * e
            stats[f"mae_{quantity}_{estimator}"] = _masked_mean(err, ok)
            stats[f"mse_{quantity}_{estimator}"] = _masked_mean(np.square(err, out=err), ok)
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
    keys = np.indices((n, n))[::-1].reshape(2, -1).T  # (ix, iy) in row-major (iy, ix) order
    deltas = _grid_deltas(cfg)
    cells = _simulate_cells(deltas, cfg, _TAG_GRID, keys)
    stats = {name: v.reshape(n, n) for name, v in cells.items()}
    valid, dir_valid = stats["valid"], stats["dir_valid"]
    return ImprovementMap(
        bx=cfg.axis_values(),
        by=cfg.axis_values(),
        gain_mag_mse_db=_gains(stats, "mse_mag", valid),
        gain_mag_mae_db=_gains(stats, "mae_mag", valid),
        gain_dir_mse_db=_gains(stats, "mse_dir", dir_valid),
        gain_dir_mae_db=_gains(stats, "mae_dir", dir_valid),
        orthogonality=_orthogonality(deltas, cfg.b_0_true.as_array()).reshape(n, n),
        valid=valid,
        dir_valid=dir_valid,
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


@dataclass(frozen=True)
class MarginalSettings:
    """The single-axis sweep of :func:`marginal_improvement`."""

    axis: str = "x"
    field_min: float = 0.0
    field_max: float = 1.6
    n_points: int = 41

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError("marginal axis must be one of x, y, z")
        if self.n_points < 2:
            raise ValueError("marginal n_points must be >= 2")
        _require_count("marginal n_points", self.n_points)
        if not self.field_min < self.field_max:
            raise ValueError("marginal field_min must be below field_max")
        if not math.isfinite(self.field_min) or not math.isfinite(self.field_max):
            raise ValueError("marginal field_min and field_max must be finite")


def marginal_improvement(cfg: SimConfig, sweep: MarginalSettings) -> MarginalProfile:
    """Improvement profile for a DC field swept along one axis.

    Mirrors the grid simulation restricted to a single axis, reporting the
    per-point empirical magnitude variance of both estimators over n_reps
    repetitions alongside the dB gains.
    """
    axis_i = "xyz".index(sweep.axis)
    values = np.linspace(sweep.field_min, sweep.field_max, sweep.n_points)
    deltas = np.zeros((sweep.n_points, 3))
    deltas[:, axis_i] = values
    keys = np.column_stack([np.arange(sweep.n_points), np.full(sweep.n_points, axis_i)])
    stats = _simulate_cells(deltas, cfg, _TAG_MARGINAL, keys)
    valid = stats["valid"]
    return MarginalProfile(
        b_applied=values,
        gain_mag_mse_db=_gains(stats, "mse_mag", valid),
        gain_mag_mae_db=_gains(stats, "mae_mag", valid),
        var_nv=np.where(valid, stats["mse_mag_nv"], math.nan),
        var_combined=np.where(valid, stats["mse_mag_comb"], math.nan),
        orthogonality=_orthogonality(deltas, cfg.b_0_true.as_array()),
    )


@dataclass(frozen=True)
class SpatialScanConfig:
    """Linear-stage scan of a dipole-like source.

    The source is a point dipole carried along the stage axis; the sensor
    sits at the origin.  The dipole moment points along ``source_axis``
    (default: the unit vector of the configured background field, which
    keeps the source field roughly collinear with the background; z in
    :func:`scalar_vs_vector_demo`), and the
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
        _require_count("n_positions", self.n_positions)
        if not 1 <= self.poly_degree < self.n_positions:
            raise ValueError("poly_degree must be >= 1 and below n_positions")
        if not self.stage_range > 0 or not self.standoff > 0:
            raise ValueError("stage geometry must be positive")
        if not math.isfinite(self.perp_offset):
            raise ValueError("perp_offset must be finite")
        if not math.isfinite(self.dipole_moment):
            raise ValueError("dipole_moment must be finite")
        # Keep the fit's sum of position**(2 * poly_degree) and the distance**3 finite.
        half = self.stage_range / 2.0
        fit_log = math.log(self.n_positions) + 2 * self.poly_degree * math.log(max(half, 1.0))
        reach_log = 3 * math.log(self.standoff + half + abs(self.perp_offset))
        if max(fit_log, reach_log) >= math.log(np.finfo(float).max):
            raise ValueError("stage geometry overflows the dipole field or the scan's fit")
        # Keep half**(2 * poly_degree) a normal float too, or the fit loses rank.
        log_half = math.log(self.stage_range) - math.log(2.0)
        if 2 * self.poly_degree * log_half <= math.log(np.finfo(float).tiny):
            raise ValueError("stage_range underflows the scan's polynomial fit")
        closest = math.hypot(max(self.standoff - half, 0.0), self.perp_offset)
        if closest**3 < np.finfo(float).tiny:
            raise ValueError("the stage brings the source onto the sensor")
        if not self.sigma_nv > 0 or not self.sigma_rb > 0:
            raise ValueError("sensor noise must be positive")
        if not math.isfinite(self.sigma_nv) or not math.isfinite(self.sigma_rb):
            raise ValueError("sensor noise must be finite")
        if not self.b_0_cal_error >= 0:  # NaN too
            raise ValueError("b_0_cal_error must be >= 0")
        if not math.isfinite(self.b_0_cal_error):
            raise ValueError("b_0_cal_error must be finite")
        if self.n_reps < 1:
            raise ValueError("n_reps must be >= 1")
        _require_count("n_reps", self.n_reps)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        with np.errstate(over="ignore"):  # axis_unit rejects an overflowing norm
            self.axis_unit()

    def axis_unit(self) -> np.ndarray:
        v = self.b_0.as_array() if self.source_axis is None else np.asarray(self.source_axis, float)
        n, unit = norm_and_unit(v)
        if not 0.0 < n < math.inf:
            axis = "source_axis, or b_0 when source_axis is unset,"
            raise ValueError(f"{axis} must be nonzero, with a finite norm")
        return unit

    def positions(self) -> np.ndarray:
        half = self.stage_range / 2.0
        return np.linspace(-half, half, self.n_positions)


def dipole_field(moment: np.ndarray, r_vecs: np.ndarray) -> np.ndarray:
    """Point-dipole field (m, 3) at displacements r_vecs (m, 3) from the
    dipole, Gauss for G*mm^3."""
    r = _norms(r_vecs)
    if np.any(r == 0.0):
        raise ValueError("field requested at the dipole position")
    rhat = r_vecs / r[:, None]
    dots = row_dots(rhat, np.broadcast_to(moment, rhat.shape))
    return ((3.0 * dots)[:, None] * rhat - moment) / np.float_power(r, 3.0)[:, None]


def source_fields(cfg: SpatialScanConfig, axis: np.ndarray) -> np.ndarray:
    """Source field at the sensor (n_positions, 3) for every stage position, with the
    dipole moment and the stage along the unit vector ``axis``."""
    perp = _perpendicular_unit(axis)
    dipole_pos = (cfg.standoff + cfg.positions())[:, None] * axis + cfg.perp_offset * perp
    return dipole_field(cfg.dipole_moment * axis, -dipole_pos)


def _scan_readings(cfg: SpatialScanConfig, tag: int, src, *b_0s):
    """Each position's n_reps-averaged reading pair, as one draw at sigma /
    sqrt(n_reps), fused with each calibrated b_0 of b_0s: (nv (m, 3), rb (m,),
    b_hat (m, 3)) per b_0.  The draws are made once; the last b_0 fuses them
    in their block, the others in copies of it."""
    keys = np.column_stack([np.arange(cfg.n_positions), np.zeros(cfg.n_positions, int)])
    z = _draw_block(_new_block(len(src), 1, cfg.b_0_cal_error), _cell_rngs(cfg.seed, tag, keys))
    blocks = [z.copy() for _ in b_0s[1:]] + [z]
    scale = math.sqrt(cfg.n_reps)
    sigmas = cfg.sigma_nv / scale, cfg.sigma_rb / scale, cfg.b_0_cal_error
    fused = (_fused_readings(src, b_0, *sigmas, block) for b_0, block in zip(b_0s, blocks))
    return [(nv[:, 0], rb[:, 0], b_hat[:, 0]) for nv, rb, b_hat, _ in fused]


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
    src = source_fields(cfg, cfg.axis_unit())
    [(nv, rb_mag, b_hat)] = _scan_readings(cfg, _TAG_SPATIAL, src, cfg.b_0.as_array())
    true_mag, nv_mag, comb_mag = _norms(src), _norms(nv), _norms(b_hat)

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


def scalar_vs_vector_demo(cfg: SpatialScanConfig) -> ScalarDemoReport:
    """Distortion of naive scalar background subtraction along a scan.  The source
    points along ``source_axis``, or along z where that is unset: a source collinear
    with the background hides the distortion the demo exists to show."""
    b_0 = cfg.b_0.as_array()
    b_0_mag = float(np.linalg.norm(b_0))
    axis = np.array([0.0, 0.0, 1.0]) if cfg.source_axis is None else cfg.axis_unit()
    src = source_fields(cfg, axis)
    # Both backgrounds fuse the same draws: the same noise and calibration error.
    (_, rb, b_hat), (_, rb_rev, b_hat_rev) = _scan_readings(cfg, _TAG_DEMO, src, b_0, -b_0)
    return ScalarDemoReport(
        positions=cfg.positions(),
        true_mag=_norms(src),
        combined=_norms(b_hat),
        naive=rb - b_0_mag,
        combined_reversed=_norms(b_hat_rev),
        naive_reversed=rb_rev - b_0_mag,
    )


@dataclass(frozen=True)
class AngularErrorMap:
    """Linearized angular uncertainty over a field grid, with dB totals."""

    bx: np.ndarray
    by: np.ndarray
    d_theta: np.ndarray
    d_phi: np.ndarray
    total_db: np.ndarray


@dataclass(frozen=True)
class AngularSettings:
    """The per-axis reading noise of :func:`angular_error_map`, on SimConfig's grid."""

    sigma: float = 0.1

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("angular sigma must be positive")
        if not math.isfinite(self.sigma):
            raise ValueError("angular sigma must be finite")


def angular_error_map(cfg: SimConfig, settings: AngularSettings) -> AngularErrorMap:
    """Angular uncertainty of a vector reading across the x-y plane of
    ``cfg``'s field grid.

    Per cell, the first-order angle uncertainties for an isotropic
    per-axis noise ``settings.sigma``; ``total_db`` is 10*log10(d_theta^2 +
    d_phi^2), or 20*log10(hypot(d_theta, d_phi)) where that sum is not a
    normal float.  The error falls off as 1/|B| along every ray, so larger
    working fields give better angular accuracy.  The origin is NaN.
    """
    xs, ys = cfg.axis_values(), cfg.axis_values()
    if not np.isfinite(xs).all():
        raise ValueError("field components must be finite")
    x, y = np.meshgrid(xs, ys)
    cells = (x != 0.0) | (y != 0.0)
    fields = np.stack([x[cells], y[cells], np.zeros(np.count_nonzero(cells))], axis=1)
    d_theta_cells, d_phi_cells = linearized_angles(fields, settings.sigma)
    total = np.float_power(d_theta_cells, 2.0) + np.float_power(d_phi_cells, 2.0)
    normal = total >= 2.0**-1022  # the smallest normal float
    db_cells = np.empty_like(total)
    db_cells[normal] = _db_cells(total[normal])
    # Where the squares underflow, 20*log10 of the norm does not.
    low = zip(d_theta_cells[~normal].tolist(), d_phi_cells[~normal].tolist())
    db_cells[~normal] = 2.0 * _db_cells([math.hypot(t, p) for t, p in low])

    d_theta, d_phi, total_db = np.full((3, *x.shape), math.nan)
    d_theta[cells], d_phi[cells], total_db[cells] = d_theta_cells, d_phi_cells, db_cells
    return AngularErrorMap(bx=xs, by=ys, d_theta=d_theta, d_phi=d_phi, total_db=total_db)


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
