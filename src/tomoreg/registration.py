"""Registration drivers: subspace coefficients or dense fields by descent.

Each driver descends one objective that its loss context builds: a
function of a flat parameter vector that evaluates the total loss at a
point and returns it with a callable for its analytic gradient there.  The
subspace drivers descend the context's subspace objective in the
coefficients, whose regulariser is a k-by-k quadratic and whose
coordinates come from the subspace's evaluation plan.  The dense driver
descends the context's dense objective in the flat per-voxel field, which
evaluates the diffusion regulariser on the grid.  So no driver builds a
field until the result, and only the loss layer knows how a vector lays
out a field.  Each objective reads the regulariser weight from the
context's ``LossConfig``.  The descent loop sees only the objective and
the field's grid.

The optimizer is limited-memory BFGS (Nocedal & Wright, Numerical
Optimization, ch. 7) with an Armijo backtracking line search (c = 1e-4,
shrink factor 0.5).  It keeps the last 7 curvature pairs (s, y) with
s.y > 0; the initial inverse Hessian is gamma times the driver's smoothing
of the direction, gamma = s.y / y.y of the newest pair.  For the subspace
drivers the smoothing is the identity.  For the dense driver it is a
Gaussian filter of one voxel per axis with the "nearest" edge, applied as
three small matrix products, one per axis: each matrix holds the 1-D
filter's weights, built once per registration.  The two-loop recursion
updates one work vector in place with BLAS axpys.  Two step rules:
while no pair is stored the direction is steepest (or smoothed) descent
and its first trial moves the field by one voxel RMS; once a pair is
stored the first trial is the unit step.  No step size is
configured.  The history costs 2 * 7 floats per parameter: a few hundred
bytes for subspace coefficients, 11 MB for a dense field at 32 cubed and
88 MB at 64 cubed.  Each trial is evaluated once, and only the accepted
trial's gradient is computed.  Accepted losses form a non-increasing trace.

Everything is deterministic: fixed evaluation order, no stochastic
sampling, so repeated runs on identical inputs reproduce results bitwise.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy, ddot, dscal
from scipy.ndimage import gaussian_filter1d

from .geometry import DrrOperator, ProjectionSet
from .grids import DisplacementField, GridSpec, Image3D, Mask3D, _whole
from .losses import LossConfig, LossContext, _check_finite
from .subspace import DeformationSubspace, reconstruct

_ARMIJO_C = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 60
_LOSS_WINDOW = 5
_MEMORY = 7  # curvature pairs (s, y) kept by L-BFGS
# converged_loss: the last _LOSS_WINDOW iterations cut the loss by less
# than this fraction
_TOL_LOSS = 1e-8
# converged_grad: every gradient entry is below this in magnitude.  Being
# positive, it keeps the descent direction non-zero with a negative slope.
_TOL_GRAD = 1e-9
# Gaussian filter of the dense descent direction, in voxels along each
# axis; none across the three components
_SMOOTH_SIGMA = 1.0


@dataclass
class OptimConfig:
    max_iters: int = 200

    def __post_init__(self):
        self.max_iters = _whole(self.max_iters, "max_iters", ">= 0")


@dataclass
class RegistrationReport:
    final_loss: float
    loss_trace: list
    iterations: int
    stop_reason: str
    alpha: list | None
    wall_time_s: float


def _lbfgs_direction(grad: np.ndarray, pairs, smooth) -> np.ndarray:
    """-H g by the two-loop recursion over ``pairs`` of (s, y, s.y), oldest first.

    H0 is gamma * ``smooth`` (the identity when None), gamma = s.y / y.y of
    the newest pair, and 1 with no pair, so then the direction is -H0 g.
    One work vector is updated in place by BLAS axpys, scaled by gamma and
    negated, so no pair adds a temporary of the parameter's size.
    """
    q = grad.copy()
    coefs = []
    for s, y, sy in reversed(pairs):
        a = ddot(s, q) / sy
        q = daxpy(y, q, a=-a)
        coefs.append(a)
    r = q if smooth is None else smooth(q)
    if pairs:
        _, y, sy = pairs[-1]
        r = dscal(sy / ddot(y, y), r)
    for (s, y, sy), a in zip(pairs, reversed(coefs)):
        r = daxpy(s, r, a=a - ddot(y, r) / sy)
    return np.negative(r, out=r)


def _minimize(objective, x0: np.ndarray, grid: GridSpec, cfg: OptimConfig | None,
              smooth=None):
    """L-BFGS on a flat parameter vector x for the loss ``objective`` gives.

    ``objective(x)`` returns the loss at x and a zero-argument callable for
    its gradient in x; ``smooth``, when given, filters the direction and
    scaled by gamma is the initial inverse Hessian H0 (gamma * I without
    it).  ``grid`` is the field's grid.  Returns x and the report (no alpha).

    The run stops as converged_grad once every gradient entry is below
    ``_TOL_GRAD``.  Otherwise the iteration takes d = -H g from the stored
    pairs (the smoothed or plain -g while none is stored) and falls back
    to -g when d does not descend, so d is non-zero with a negative slope.
    An accepted step's pair (s, y) is stored only when s.y > 0, which
    keeps H positive definite; the last ``_MEMORY`` are kept, 2 *
    ``_MEMORY`` floats per parameter.  With a pair stored the first trial
    is the unit step, the natural scale of a quasi-Newton step.  An
    accepted trial that does not lower the loss has lost the slope to
    rounding: a flat stretch, which ends as line_search_failed.

    Precondition: x maps to the field by an isometry, so a step in x moves
    the field's (W,H,D,3) entries by the same Euclidean length.  Both
    drivers' maps are: subspace basis rows are orthonormal, and the dense
    map is the identity.  So the first trial step with no pair stored, of
    length min(spacing) * sqrt(n_voxels) in x, moves the field by one voxel
    RMS without a warp to find that out.  Each trial is evaluated once; the
    gradient callable of the accepted trial gives the next gradient.
    """
    cfg = cfg or OptimConfig()

    def value(x):
        loss, grad_fn = objective(x)
        _check_finite(loss, "loss")
        return loss, grad_fn

    def gradient(grad_fn):
        grad = grad_fn()
        _check_finite(grad, "gradient")
        return grad

    x = np.asarray(x0, dtype=np.float64).copy()
    t0 = time.perf_counter()
    loss, grad_fn = value(x)
    grad = gradient(grad_fn)
    trace = [float(loss)]
    stop = "max_iters"
    first_len = min(grid.spacing) * np.sqrt(grid.n_voxels)
    pairs = deque(maxlen=_MEMORY)
    for _ in range(cfg.max_iters):
        if np.max(np.abs(grad)) < _TOL_GRAD:
            stop = "converged_grad"
            break

        d = _lbfgs_direction(grad, pairs, smooth)
        slope = float(grad @ d)
        if slope >= 0.0:  # not a descent direction; fall back
            d = -grad
            slope = -float(grad @ grad)
        t = 1.0 if pairs else first_len / float(np.linalg.norm(d))

        for _ in range(_MAX_BACKTRACKS):
            cand = x + t * d
            cand_loss, grad_fn = value(cand)
            if cand_loss <= loss + _ARMIJO_C * t * slope:
                break
            t *= _SHRINK
        else:
            stop = "line_search_failed"
            break
        if cand_loss >= loss:
            stop = "line_search_failed"
            break

        s = cand - x
        x, loss = cand, cand_loss
        trace.append(float(loss))
        new_grad = gradient(grad_fn)
        y = new_grad - grad
        grad = new_grad
        sy = float(s @ y)
        if sy > 0.0:  # otherwise the pair would make H indefinite
            pairs.append((s, y, sy))

        if len(trace) > _LOSS_WINDOW:
            prev = trace[-1 - _LOSS_WINDOW]
            if prev - trace[-1] < _TOL_LOSS * max(abs(prev), 1e-30):
                stop = "converged_loss"
                break

    report = RegistrationReport(final_loss=trace[-1], loss_trace=trace,
                                iterations=len(trace) - 1, stop_reason=stop,
                                alpha=None, wall_time_s=time.perf_counter() - t0)
    return x, report


def _loss_config(cfg: LossConfig | None, mode: str, driver: str) -> LossConfig:
    """``cfg``, or the default config of ``mode``; another mode is rejected."""
    cfg = cfg or LossConfig(loss_mode=mode)
    if cfg.loss_mode != mode:
        raise ValueError(f"{driver} needs loss_mode {mode!r}, got {cfg.loss_mode!r}")
    return cfg


def _register_subspace(ctx: LossContext, sub: DeformationSubspace,
                       opt_cfg: OptimConfig | None):
    """Fit subspace coefficients by descending ``ctx``'s subspace objective."""
    objective = ctx._subspace_objective(sub)
    ctx.require_contrast()
    alpha, report = _minimize(objective, np.zeros(sub.n_components), ctx.grid, opt_cfg)
    report.alpha = [float(a) for a in alpha]
    return alpha, reconstruct(sub, alpha), report


def register_subspace_3d(source: Image3D, target: Image3D, source_mask: Mask3D,
                         target_mask: Mask3D, sub: DeformationSubspace,
                         loss_cfg: LossConfig | None = None,
                         opt_cfg: OptimConfig | None = None):
    """Volume-to-volume registration restricted to the subspace."""
    cfg = _loss_config(loss_cfg, "sim3d", "register_subspace_3d")
    ctx = LossContext(cfg, source, source_mask, target=target, target_mask=target_mask)
    return _register_subspace(ctx, sub, opt_cfg)


def register_subspace_2d(source: Image3D, projections: ProjectionSet,
                         source_mask: Mask3D, sub: DeformationSubspace,
                         loss_cfg: LossConfig | None = None,
                         opt_cfg: OptimConfig | None = None,
                         drr_op: DrrOperator | None = None):
    """Projection-driven registration; no target volume is ever read."""
    cfg = _loss_config(loss_cfg, "sim2d", "register_subspace_2d")
    ctx = LossContext(cfg, source, source_mask, projections=projections, drr_op=drr_op)
    return _register_subspace(ctx, sub, opt_cfg)


def register_dense_3d(source: Image3D, target: Image3D, source_mask: Mask3D,
                      target_mask: Mask3D, loss_cfg: LossConfig | None = None,
                      opt_cfg: OptimConfig | None = None):
    """Free-form registration of a per-voxel displacement field.

    A Gaussian filter (sigma of one voxel per axis, "nearest" edge), scaled
    by gamma, is the initial inverse Hessian of the L-BFGS steps.  It is
    applied as three small matrix products, one per axis, so it costs a
    few BLAS calls instead of a pass of ``scipy.ndimage.gaussian_filter``
    and equals that filter to rounding.  The Armijo test still uses the raw
    gradient's directional derivative so accepted steps always descend.
    """
    ctx = LossContext(_loss_config(loss_cfg, "sim3d", "register_dense_3d"),
                      source, source_mask, target=target, target_mask=target_mask)
    grid = source.grid
    # the filter along each axis as the matrix of its weights, the
    # "nearest" edge folded in: K @ v filters v, so three small products
    # filter the (W,H,D,3) direction
    kx, ky, kz = (gaussian_filter1d(np.eye(n), _SMOOTH_SIGMA, axis=0, mode="nearest")
                  for n in grid.dims)
    nx, ny, nz = grid.dims

    def smooth(gflat):
        g = (kx @ gflat.reshape(nx, -1)).reshape(nx, ny, nz * 3)
        g = np.matmul(ky, g).reshape(nx * ny, nz, 3)
        return np.matmul(kz, g).reshape(-1)

    ctx.require_contrast()
    x, report = _minimize(ctx._dense_objective(), np.zeros(grid.n_voxels * 3), grid,
                          opt_cfg, smooth)
    return DisplacementField(grid.dims, grid.spacing, grid.origin,
                             x.reshape(grid.dims + (3,))), report

