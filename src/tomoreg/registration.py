"""Registration drivers: subspace coefficients or dense fields by descent.

All drivers minimize the same total loss with analytic gradients, pulled
back to their own parameters: subspace coefficients or a per-voxel field.
The dense driver's loss context evaluates the diffusion regulariser on the
grid; the subspace drivers evaluate it as a k-by-k quadratic in the
coefficients, built once per registration, so an evaluation there costs
only the warp and the similarity.

The optimizer is gradient descent with an Armijo backtracking line search
(c = 1e-4, shrink factor 0.5, greedy step growth between iterations), which
guarantees a non-increasing trace of accepted losses.

Everything is deterministic: fixed evaluation order, no stochastic
sampling, so repeated runs on identical inputs reproduce results bitwise.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from .geometry import DrrOperator, ProjectionSet
from .grids import DisplacementField, Image3D, Mask3D
from .losses import LossConfig, LossContext, diffusion_quadratic
from .subspace import DeformationSubspace, reconstruct

_ARMIJO_C = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 60
_LOSS_WINDOW = 5


class NumericalAbort(RuntimeError):
    """Raised when a loss or gradient evaluation turns non-finite."""


@dataclass
class OptimConfig:
    max_iters: int = 200
    step_size: float = 1.0
    tol_grad: float = 1e-9
    tol_loss: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.step_size <= 0.0:
            raise ValueError("step_size must be positive")
        if self.tol_grad < 0.0 or self.tol_loss < 0.0:
            raise ValueError("tolerances must be >= 0")


@dataclass
class RegistrationReport:
    final_loss: float
    loss_trace: list
    iterations: int
    stop_reason: str
    alpha: list | None
    wall_time_s: float


def _check_finite(value, what: str):
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise NumericalAbort(f"non-finite {what} encountered")


def _require_contrast(ctx: LossContext):
    """Reject inputs whose correlation is undefined at every field."""
    operands = [("masked source", ctx.msrc)]
    if ctx.mode == "sim3d":
        operands.append(("masked target", ctx._fixed))
    else:
        for i, p in enumerate(ctx._proj):
            # an emitter whose rays all miss the grid renders zero for every field
            if ctx.drr_op._mat(i).nnz == 0:
                raise ValueError(f"projection {i}: no ray of emitter {i} meets the volume")
            operands.append((f"projection {i}", p))
    for name, arr in operands:
        if np.ptp(arr) == 0.0:
            raise ValueError(f"{name} is constant, so its correlation is undefined")


def _minimize(ctx: LossContext, to_field, pullback, x0: np.ndarray,
              cfg: OptimConfig | None, smooth=None, prior=None):
    """Descent on a flat parameter vector x for the loss at to_field(x).

    ``pullback`` maps dL/du to dL/dx; ``smooth``, when given, filters the
    descent direction; ``prior``, when given, maps x to a term and its
    gradient in x that are added to the loss.  Returns x and the report
    (with no alpha).
    """
    _require_contrast(ctx)
    cfg = cfg or OptimConfig()

    def loss_fn(x):
        loss = ctx.loss(to_field(x))
        if prior is not None:
            loss += prior(x)[0]
        _check_finite(loss, "loss")
        return loss

    def loss_grad_fn(x):
        loss, g = ctx.loss_and_grad(to_field(x))
        grad = pullback(g)
        if prior is not None:
            p, pg = prior(x)
            loss, grad = loss + p, grad + pg
        _check_finite(loss, "loss")
        _check_finite(grad, "gradient")
        return loss, grad

    x = np.asarray(x0, dtype=np.float64).copy()
    t0 = time.perf_counter()
    loss, grad = loss_grad_fn(x)
    trace = [float(loss)]
    stop = "max_iters"
    t = cfg.step_size
    it = 0
    for it in range(1, cfg.max_iters + 1):
        if np.max(np.abs(grad)) < cfg.tol_grad:
            stop = "converged_grad"
            it -= 1
            break

        d = -grad if smooth is None else -smooth(grad)
        slope = float(grad @ d)
        if slope >= 0.0:  # smoothed direction degenerated; fall back
            d = -grad
            slope = -float(grad @ grad)

        accepted = None
        t_try = t
        n_back = 0
        for _ in range(_MAX_BACKTRACKS):
            cand = x + t_try * d
            cand_loss = loss_fn(cand)
            if cand_loss <= loss + _ARMIJO_C * t_try * slope:
                accepted = (cand, cand_loss, t_try)
                break
            t_try *= _SHRINK
            n_back += 1
        if accepted is None:
            stop = "line_search_failed"
            it -= 1
            break

        # when the first trial step already passed, grow it greedily so a
        # badly scaled initial step_size is corrected within one iteration
        cand, cand_loss, t_acc = accepted
        while n_back == 0:
            t_big = 2.0 * t_acc
            big = x + t_big * d
            big_loss = loss_fn(big)
            if big_loss <= loss + _ARMIJO_C * t_big * slope and big_loss < cand_loss:
                cand, cand_loss, t_acc = big, big_loss, t_big
            else:
                break

        x = cand
        loss = cand_loss
        t = 2.0 * t_acc
        trace.append(float(loss))
        loss, grad = loss_grad_fn(x)

        if len(trace) > _LOSS_WINDOW:
            prev = trace[-1 - _LOSS_WINDOW]
            if prev - trace[-1] < cfg.tol_loss * max(abs(prev), 1e-30):
                stop = "converged_loss"
                break

    report = RegistrationReport(final_loss=trace[-1], loss_trace=trace,
                                iterations=it, stop_reason=stop, alpha=None,
                                wall_time_s=time.perf_counter() - t0)
    return x, report


def _register_subspace(ctx: LossContext, lam: float, sub: DeformationSubspace,
                       opt_cfg: OptimConfig | None):
    """Fit subspace coefficients; ``ctx`` has lam 0, the regulariser is here.

    On the subspace the diffusion energy is a quadratic in alpha, built once
    by ``diffusion_quadratic``, so an evaluation adds lam * energy and its
    gradient in k-by-k algebra instead of grid passes.
    """
    if sub.grid != ctx.grid:
        raise ValueError("subspace grid does not match source grid")
    if sub.n_components == 0:
        raise ValueError("subspace has no components, so there is nothing to fit")
    # structural checks happen at load time; non-finite payloads are a
    # numerical failure of the optimization state, not an input-format error
    _check_finite(sub.mean, "subspace mean field")
    _check_finite(sub.basis, "subspace basis")
    c, b, G = diffusion_quadratic(sub)

    def reg(a):
        Ga = G @ a
        return lam * (c + (2.0 * b + Ga) @ a), (2.0 * lam) * (b + Ga)

    alpha, report = _minimize(ctx, lambda a: reconstruct(sub, a),
                              lambda g: sub.basis @ g.reshape(-1),
                              np.zeros(sub.n_components), opt_cfg, prior=reg)
    report.alpha = [float(a) for a in alpha]
    return alpha, reconstruct(sub, alpha), report


def register_subspace_3d(source: Image3D, target: Image3D, source_mask: Mask3D,
                         target_mask: Mask3D, sub: DeformationSubspace,
                         loss_cfg: LossConfig | None = None,
                         opt_cfg: OptimConfig | None = None):
    """Volume-to-volume registration restricted to the subspace."""
    cfg = loss_cfg or LossConfig(loss_mode="sim3d")
    ctx = LossContext("sim3d", replace(cfg, lam=0.0), source, source_mask,
                      target=target, target_mask=target_mask)
    return _register_subspace(ctx, cfg.lam, sub, opt_cfg)


def register_subspace_2d(source: Image3D, projections: ProjectionSet,
                         source_mask: Mask3D, sub: DeformationSubspace,
                         loss_cfg: LossConfig | None = None,
                         opt_cfg: OptimConfig | None = None,
                         drr_op: DrrOperator | None = None):
    """Projection-driven registration; no target volume is ever read."""
    cfg = loss_cfg or LossConfig(loss_mode="sim2d")
    ctx = LossContext("sim2d", replace(cfg, lam=0.0), source, source_mask,
                      projections=projections, drr_op=drr_op)
    return _register_subspace(ctx, cfg.lam, sub, opt_cfg)


def register_dense_3d(source: Image3D, target: Image3D, source_mask: Mask3D,
                      target_mask: Mask3D, loss_cfg: LossConfig | None = None,
                      opt_cfg: OptimConfig | None = None,
                      grad_smooth_sigma_voxels: float = 1.0):
    """Free-form registration of a per-voxel displacement field.

    The raw gradient field is Gaussian-smoothed (default sigma of one
    voxel) before each step; the Armijo test still uses the raw gradient's
    directional derivative so accepted steps always descend.
    """
    ctx = LossContext("sim3d", loss_cfg or LossConfig(loss_mode="sim3d"),
                      source, source_mask, target=target, target_mask=target_mask)
    grid = source.grid
    shape = grid.dims + (3,)

    def to_field(x):
        return DisplacementField(grid.dims, grid.spacing, grid.origin,
                                 x.reshape(shape))

    def smooth(gflat):
        sigma = grad_smooth_sigma_voxels
        return gaussian_filter(gflat.reshape(shape), (sigma, sigma, sigma, 0),
                               mode="nearest").reshape(-1)

    x, report = _minimize(ctx, to_field, lambda g: g.reshape(-1),
                          np.zeros(grid.n_voxels * 3), opt_cfg, smooth)
    return to_field(x), report


# ---------------------------------------------------------------------------
# amortized coefficient prediction
# ---------------------------------------------------------------------------

_POOL_GRID = 8  # pooled feature blocks per axis


@dataclass
class LinearAmortizer:
    """Ridge regression from pooled image features to coefficients."""

    weights: np.ndarray    # (n_features, n_components)
    bias: np.ndarray       # (n_components,)
    n_channels: int
    ridge: float


def _pooled_features(volumes: list) -> np.ndarray:
    """Mean over an 8x8x8 block grid of each channel, concatenated."""
    feats = []
    for vol in volumes:
        data = vol.data.astype(np.float64, copy=False)
        parts = [np.array_split(np.arange(n), _POOL_GRID) for n in data.shape]
        pooled = np.empty((_POOL_GRID,) * 3)
        for bi, ix in enumerate(parts[0]):
            for bj, iy in enumerate(parts[1]):
                for bk, iz in enumerate(parts[2]):
                    pooled[bi, bj, bk] = data[np.ix_(ix, iy, iz)].mean()
        feats.append(pooled.reshape(-1))
    return np.concatenate(feats)


def _stack_channels(source: Image3D, lifted: list) -> list:
    for ch in lifted:
        if ch.grid != source.grid:
            raise ValueError("lifted channels must share the source grid")
    return list(lifted) + [source]


def fit_linear_amortizer(examples: list, ridge: float = 1e-3) -> LinearAmortizer:
    """Fit alpha ~ features(lifted channels, source volume).

    ``examples`` is a list of (source, lifted_channels, alpha) tuples.  The
    intercept is not penalized, so as ridge grows predictions approach the
    mean training alpha.
    """
    if ridge < 0.0:
        raise ValueError("ridge must be >= 0")
    if len(examples) == 0:
        raise ValueError("at least one training example is required")
    X = np.stack([_pooled_features(_stack_channels(src, lifted))
                  for src, lifted, _ in examples])
    Y = np.stack([np.asarray(a, dtype=np.float64).reshape(-1)
                  for _, _, a in examples])
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    Yc = Y - y_mean

    # ridge solution through the SVD; exact min-norm interpolation at ridge=0
    U, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    keep = s > (1e-12 * s[0] if s.size and s[0] > 0 else 0.0)
    U, s, Vt = U[:, keep], s[keep], Vt[keep]
    shrink = s / (s ** 2 + ridge)
    W = Vt.T @ (shrink[:, None] * (U.T @ Yc))
    bias = y_mean - x_mean @ W
    n_channels = len(examples[0][1]) + 1
    return LinearAmortizer(weights=W, bias=bias, n_channels=n_channels,
                           ridge=float(ridge))


def predict_alpha(model: LinearAmortizer, source: Image3D,
                  lifted: list) -> np.ndarray:
    """Predicted subspace coefficients for one lifted example."""
    channels = _stack_channels(source, lifted)
    if len(channels) != model.n_channels:
        raise ValueError(f"expected {model.n_channels} channels, got {len(channels)}")
    x = _pooled_features(channels)
    return x @ model.weights + model.bias
