"""Registration drivers: subspace coefficients or dense fields by descent.

Each driver builds one objective on its own parameters, subspace
coefficients or a per-voxel field: a function that evaluates the total loss
at a point and returns it with a callable for its analytic gradient there.
Both reach the loss context's coordinate core, which warps at given
source-voxel coordinates.  The dense driver's objective is its loss
context's ``evaluate``, which maps the field to coordinates and evaluates
the diffusion regulariser on the grid.  The subspace drivers read the
subspace's evaluation plan, built and checked once per subspace on its
first registration and kept on it: the coordinates of the mean field and
the basis scaled to voxel units, so an evaluation's coordinates are one
product away from the coefficients and the chain rule runs over the
supported voxels only, and the regulariser as a k-by-k quadratic in the
coefficients.  An evaluation there costs the product, the warp and the
similarity; no field is built until the result.  The descent loop sees
only the objective and the field's grid.

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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import daxpy, ddot, dscal
from scipy.ndimage import gaussian_filter1d

from .geometry import DrrOperator, ProjectionSet
from .grids import DisplacementField, GridSpec, Image3D, Mask3D, _warp_coords, _whole
from .losses import LossConfig, LossContext, diffusion_quadratic
from .subspace import DeformationSubspace, reconstruct

_ARMIJO_C = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 60
_LOSS_WINDOW = 5
_MEMORY = 7  # curvature pairs (s, y) kept by L-BFGS
_ORTHONORMAL_TOL = 1e-6  # on max |B B^T - I|
# converged_loss: the last _LOSS_WINDOW iterations cut the loss by less
# than this fraction
_TOL_LOSS = 1e-8
# converged_grad: every gradient entry is below this in magnitude.  Being
# positive, it keeps the descent direction non-zero with a negative slope.
_TOL_GRAD = 1e-9
# Gaussian filter of the dense descent direction, in voxels along each
# axis; none across the three components
_SMOOTH_SIGMA = 1.0


class NumericalAbort(RuntimeError):
    """Raised when a loss or gradient evaluation turns non-finite."""


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


def _check_finite(value, what: str):
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise NumericalAbort(f"non-finite {what} encountered")


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


class _Plan(NamedTuple):
    """What every evaluation on one subspace shares, built once per subspace.

    ``g0`` holds the source-voxel coordinates of the mean field, mean /
    spacing plus the index ramp, flat; ``bs`` the basis rows divided by the
    spacing of their component, as (n_voxels, 3, k).  So one product gives
    an evaluation's sample coordinates, and the rows of the supported
    voxels give the chain rule.  (c, b, G) is ``diffusion_quadratic``'s
    energy in alpha.  ``mean`` and ``basis`` are the subspace's read-only
    arrays the plan was built from.
    """

    mean: np.ndarray
    basis: np.ndarray
    g0: np.ndarray
    bs: np.ndarray
    c: float
    b: np.ndarray
    G: np.ndarray

    def coords(self, alpha: np.ndarray) -> np.ndarray:
        """Source-voxel coordinates (n_voxels, 3) of the field at alpha."""
        with np.errstate(over="ignore"):  # an overflow to +-inf reads the pad
            return (self.g0 + self.bs.reshape(self.g0.size, -1) @ alpha).reshape(-1, 3)

    def pullback(self, s: np.ndarray, active: np.ndarray, d: np.ndarray) -> np.ndarray:
        """dsim/dalpha from ``LossContext._evaluate_coords``'s gradient parts.

        The warp's derivative is zero off the supported voxels, so the sum
        runs over those rows of ``bs`` only.
        """
        return (s[active, None] * d).reshape(-1) @ self.bs[active].reshape(-1, self.bs.shape[2])


def _plan(sub: DeformationSubspace) -> _Plan:
    """``sub``'s evaluation plan, built and checked on its first registration.

    The plan is kept on ``sub`` and reused while ``sub.mean`` and
    ``sub.basis`` are the arrays it was built from; both are read-only, so
    it cannot go stale.  A subspace that fails a check keeps no plan.
    """
    plan = sub._plan
    if plan is not None and plan.mean is sub.mean and plan.basis is sub.basis:
        return plan
    # structural checks happen at load time; non-finite payloads are a
    # numerical failure of the optimization state, not an input-format error
    _check_finite(sub.mean, "subspace mean field")
    _check_finite(sub.basis, "subspace basis")
    k = sub.n_components
    deviation = np.max(np.abs(sub.basis @ sub.basis.T - np.eye(k)))
    if deviation > _ORTHONORMAL_TOL:
        raise ValueError(f"subspace basis rows are not orthonormal "
                         f"(max |B B^T - I| = {deviation:.3g})")
    mean = DisplacementField(sub.dims, sub.spacing, sub.origin, sub.mean)
    bs = sub.basis.reshape(k, -1, 3) / np.asarray(sub.spacing)
    sub._plan = _Plan(sub.mean, sub.basis, _warp_coords(sub.grid, mean).reshape(-1),
                      np.ascontiguousarray(bs.transpose(1, 2, 0)), *diffusion_quadratic(sub))
    return sub._plan


def _register_subspace(ctx: LossContext, lam: float, sub: DeformationSubspace,
                       opt_cfg: OptimConfig | None):
    """Fit subspace coefficients; ``ctx`` has lam 0, the regulariser is here.

    Every evaluation reads the subspace's plan: its sample coordinates are
    one product away from alpha, so no field is built until the result,
    and the diffusion energy is a quadratic in alpha, so an evaluation adds
    lam * energy and its gradient in k-by-k algebra instead of grid passes.
    The basis rows must be orthonormal, as ``_minimize``'s first step and
    ``reconstruct`` assume.
    """
    if sub.grid != ctx.grid:
        raise ValueError("subspace grid does not match source grid")
    if sub.n_components == 0:
        raise ValueError("subspace has no components, so there is nothing to fit")
    plan = _plan(sub)
    ctx.require_contrast()

    def objective(a):
        sim, sim_grad = ctx._evaluate_coords(plan.coords(a))
        Ga = plan.G @ a
        loss = sim + lam * (plan.c + (2.0 * plan.b + Ga) @ a)
        return loss, lambda: plan.pullback(*sim_grad()) + (2.0 * lam) * (plan.b + Ga)

    alpha, report = _minimize(objective, np.zeros(sub.n_components), ctx.grid, opt_cfg)
    report.alpha = [float(a) for a in alpha]
    return alpha, reconstruct(sub, alpha), report


def register_subspace_3d(source: Image3D, target: Image3D, source_mask: Mask3D,
                         target_mask: Mask3D, sub: DeformationSubspace,
                         loss_cfg: LossConfig | None = None,
                         opt_cfg: OptimConfig | None = None):
    """Volume-to-volume registration restricted to the subspace."""
    cfg = _loss_config(loss_cfg, "sim3d", "register_subspace_3d")
    ctx = LossContext(replace(cfg, lam=0.0), source, source_mask,
                      target=target, target_mask=target_mask)
    return _register_subspace(ctx, cfg.lam, sub, opt_cfg)


def register_subspace_2d(source: Image3D, projections: ProjectionSet,
                         source_mask: Mask3D, sub: DeformationSubspace,
                         loss_cfg: LossConfig | None = None,
                         opt_cfg: OptimConfig | None = None,
                         drr_op: DrrOperator | None = None):
    """Projection-driven registration; no target volume is ever read."""
    cfg = _loss_config(loss_cfg, "sim2d", "register_subspace_2d")
    ctx = LossContext(replace(cfg, lam=0.0), source, source_mask,
                      projections=projections, drr_op=drr_op)
    return _register_subspace(ctx, cfg.lam, sub, opt_cfg)


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
    shape = grid.dims + (3,)

    def to_field(x):
        return DisplacementField(grid.dims, grid.spacing, grid.origin,
                                 x.reshape(shape))

    def objective(x):
        loss, grad = ctx.evaluate(to_field(x))
        return loss, lambda: grad().reshape(-1)

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
    x, report = _minimize(objective, np.zeros(grid.n_voxels * 3), grid, opt_cfg,
                          smooth)
    return to_field(x), report

