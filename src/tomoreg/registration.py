"""Registration drivers: subspace coefficients or dense fields by descent.

Each driver builds a loss context, checks its operands' contrast and
descends one objective that the context builds: a function of a flat
parameter vector that evaluates the total loss at a point and returns it
with a callable for its analytic gradient there.  The subspace drivers
descend the context's subspace objective in the coefficients, whose
regulariser is a k-by-k quadratic and whose coordinates come from the
subspace's evaluation plan.  The dense driver descends the context's dense
objective in the flat per-voxel field, which evaluates the diffusion
regulariser on the grid.  So no driver builds a field until the result,
and only the loss layer knows how a vector lays out a field.  Each
objective reads the regulariser weight and the loss mode from the
context's ``LossConfig``; a driver given a config of the other mode is
refused by the context, which then lacks the operands that mode needs.
The descent loop sees only the objective and the field's grid.

The optimizer is limited-memory BFGS (Nocedal & Wright, Numerical
Optimization, ch. 7) with an Armijo backtracking line search (c = 1e-4,
shrink factor 0.5).  It keeps the last 7 curvature pairs (s, y) with
s.y > 0.  The initial inverse Hessian H0 comes from the objective itself,
as ``objective.h0(grad_fn)`` at the starting point (see ``losses``):

* The subspace objective's is the inverse of H, the k-by-k Gauss-Newton
  matrix of the loss in alpha at alpha = 0, factored by Cholesky.  It has
  its own scale, so it is not scaled by gamma and every first trial is the
  unit step.  The projection loss is many times flatter along depth than
  in the detector plane, the depth ambiguity of a limited-angle
  acquisition; H gives that scale from the start instead of leaving L-BFGS
  to learn it, so a projection registration needs about half the
  iterations.  An H that is not positive definite, which takes lam = 0 and
  a direction no operand sees, gives gamma * I instead.
* The dense objective's is gamma times a Gaussian filter of one voxel per
  axis with the "nearest" edge, gamma = s.y / y.y of the newest pair.

With H0 scaled by gamma and no pair stored the direction is steepest (or
smoothed) descent and its first trial moves the field by one voxel RMS;
once a pair is stored the first trial is the unit step.

The two-loop recursion updates one work vector in place with BLAS axpys.
No step size is configured.  The history costs 2 * 7 floats per
parameter: a few hundred bytes for subspace coefficients, 11 MB for a
dense field at 32 cubed and 88 MB at 64 cubed.  Each trial is evaluated
once, and only the accepted trial's gradient is computed.  Accepted
losses form a non-increasing trace.

Everything is deterministic: fixed evaluation order, no stochastic
sampling, so repeated runs on identical inputs reproduce results bitwise.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy, ddot, dscal

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


def _lbfgs_direction(grad: np.ndarray, pairs, apply, scaled: bool = True) -> np.ndarray:
    """-H g by the two-loop recursion over ``pairs`` of (s, y, s.y), oldest first.

    H0 is gamma * ``apply`` (the identity when None), gamma = s.y / y.y of
    the newest pair, and 1 with no pair, so then the direction is -H0 g.
    Unless ``scaled``, gamma is 1 throughout: ``apply`` is then an inverse
    Hessian with its own scale.  One work vector is updated in place by
    BLAS axpys, scaled by gamma and negated, so no pair adds a temporary of
    the parameter's size.
    """
    q = grad.copy()
    coefs = []
    for s, y, sy in reversed(pairs):
        a = ddot(s, q) / sy
        q = daxpy(y, q, a=-a)
        coefs.append(a)
    r = q if apply is None else apply(q)
    if pairs and scaled:
        _, y, sy = pairs[-1]
        r = dscal(sy / ddot(y, y), r)
    for (s, y, sy), a in zip(pairs, reversed(coefs)):
        r = daxpy(s, r, a=a - ddot(y, r) / sy)
    return np.negative(r, out=r)


def _minimize(objective, x0: np.ndarray, grid: GridSpec, cfg: OptimConfig | None):
    """L-BFGS on a flat parameter vector x for the loss ``objective`` gives.

    ``objective(x)`` returns the loss at x and a zero-argument callable for
    its gradient in x.  ``objective.h0(grad_fn)`` gives the initial inverse
    Hessian H0 as (apply, scaled): ``apply`` maps a vector to H0 times it
    (the identity when None), and H0 is scaled by gamma when ``scaled``.
    It is called once, with the starting point's gradient callable, after
    the start has passed the converged_grad test, and H0 stays for the
    whole run.  ``grid`` is the field's grid.  Returns x and the report (no
    alpha).

    The run stops as converged_grad once every gradient entry is below
    ``_TOL_GRAD``.  Otherwise the iteration takes d = -H g from the stored
    pairs (-H0 g while none is stored) and falls back to -g when d does
    not descend, so d is non-zero with a negative slope.  An accepted
    step's pair (s, y) is stored only when s.y > 0, which keeps H positive
    definite; the last ``_MEMORY`` are kept, 2 * ``_MEMORY`` floats per
    parameter.  With a pair stored, or with an unscaled H0, which has its
    own scale, the first trial is the unit step, the natural scale of a
    quasi-Newton step.  An accepted trial that does not lower the loss has
    lost the slope to rounding: a flat stretch, which ends as
    line_search_failed.

    Precondition: x maps to the field by an isometry, so a step in x moves
    the field's (W,H,D,3) entries by the same Euclidean length.  Both
    drivers' maps are: subspace basis rows are orthonormal, and the dense
    map is the identity.  So with H0 scaled by gamma, the first trial step
    with no pair stored, of length min(spacing) * sqrt(n_voxels) in x,
    moves the field by one voxel RMS without a warp to find that out.
    Each trial is evaluated once; the gradient callable of the accepted
    trial gives the next gradient.  A gradient callable holds its
    evaluation's state (see ``losses``), so each is dropped as soon as it
    has served: after ``h0``, after the accepted trial's gradient, and
    before the next trial is evaluated.
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
    h0 = None
    for _ in range(cfg.max_iters):
        if max(grad.max(), -grad.min()) < _TOL_GRAD:
            stop = "converged_grad"
            break
        if h0 is None:  # the starting point's, once
            apply, scaled = h0 = objective.h0(grad_fn)
            grad_fn = None

        d = _lbfgs_direction(grad, pairs, apply, scaled)
        slope = float(grad @ d)
        if slope >= 0.0:  # not a descent direction; fall back
            d = -grad
            slope = -float(grad @ grad)
        t = 1.0 if pairs or not scaled else first_len / float(np.linalg.norm(d))

        for _ in range(_MAX_BACKTRACKS):
            grad_fn = None  # the last trial's state goes before the next is evaluated
            cand = np.multiply(d, t)
            cand += x
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
        grad_fn = None
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
    ctx = LossContext(loss_cfg or LossConfig(loss_mode="sim3d"), source, source_mask,
                      target=target, target_mask=target_mask)
    return _register_subspace(ctx, sub, opt_cfg)


def register_subspace_2d(source: Image3D, projections: ProjectionSet,
                         source_mask: Mask3D, sub: DeformationSubspace,
                         loss_cfg: LossConfig | None = None,
                         opt_cfg: OptimConfig | None = None,
                         drr_op: DrrOperator | None = None):
    """Projection-driven registration; no target volume is ever read."""
    ctx = LossContext(loss_cfg or LossConfig(loss_mode="sim2d"), source, source_mask,
                      projections=projections, drr_op=drr_op)
    return _register_subspace(ctx, sub, opt_cfg)


def register_dense_3d(source: Image3D, target: Image3D, source_mask: Mask3D,
                      target_mask: Mask3D, loss_cfg: LossConfig | None = None,
                      opt_cfg: OptimConfig | None = None):
    """Free-form registration of a per-voxel displacement field.

    The dense objective's Gaussian filter, scaled by gamma, is the initial
    inverse Hessian of the L-BFGS steps.  The Armijo test still uses the
    raw gradient's directional derivative so accepted steps always descend.
    """
    ctx = LossContext(loss_cfg or LossConfig(loss_mode="sim3d"), source, source_mask,
                      target=target, target_mask=target_mask)
    grid = source.grid
    ctx.require_contrast()
    x, report = _minimize(ctx._dense_objective(), np.zeros(grid.n_voxels * 3), grid,
                          opt_cfg)
    return DisplacementField(grid.dims, grid.spacing, grid.origin,
                             x.reshape(grid.dims + (3,))), report

