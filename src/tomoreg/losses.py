"""Registration losses and their analytic gradients.

The total loss is sim + lam * reg where reg is diffusion energy of the
displacement field and sim is the mean over the measured operands of one
minus the Pearson correlation (with a variance underflow guard) between
the operand and its rendering of the warped masked source:

* sim2d: one measured projection per emitter, rendered by the DRR
  operator; the target volume is never touched in this mode.
* sim3d: one operand, the masked target volume, rendered by the identity,
  so the volume loss is the one-view case of the projection loss.

Gradients differentiate the exact discrete computation: warping
contributes the trilinear interpolant's own spatial derivative and the
projection adjoint redistributes pixel residuals through the same sampling
weights used by the forward rendering, so central finite differences agree
with the analytic gradients at tight tolerance.

Where the regulariser is evaluated: both objectives below weight it by
the context's ``cfg.lam``.  The dense objective runs the diffusion passes
over the grid on every evaluation with lam > 0.  On a subspace u = mean +
basis.T alpha the energy is a quadratic in alpha: ``diffusion_quadratic``
builds it once per subspace as one Gram matrix, and the subspace objective
evaluates it in closed form, with no grid pass.

A ``LossContext`` evaluates at source-voxel coordinates, in two phases.
Its coordinate core, ``_evaluate_coords``, runs the value phase of the
similarity: one warp at the given coordinates and, for sim2d, one DRR
forward product for every emitter.  It returns the similarity with a
callable for the gradient phase, which gives d sim / d warped (from one
adjoint product for sim2d), the voxels in a supported cell and the
interpolant derivative at them in voxel units.  Two objectives come
through it, one per kind of driver, and each is a function of a flat
parameter vector that gives the total loss and a callable for its
gradient.  ``_dense_objective()``, which the dense driver descends, reads
the vector as the (W,H,D,3) field, maps it to coordinates, adds the
diffusion energy from one forward-difference pass, and its callable
returns the flat dL/du in 1/mm: the derivative divided by the spacing,
times d sim / d warped, plus the diffusion gradient from the same
differences.  ``evaluate(u)``, under ``loss``, ``loss_and_grad`` and
``grad_dense``, is that objective at a ``DisplacementField``, with the
gradient shaped as the field.  ``_subspace_objective(sub)``, the loss in
alpha that the subspace drivers descend and ``grad_alpha`` differentiates,
gets the coordinates from the subspace's plan (``_plan``) in one product,
applies the chain rule over the supported voxels only and builds no
field.  So this module alone knows how a parameter vector lays out a
field.

The context itself keeps nothing between evaluations.  Besides its inputs
it holds the zero-padded masked source and the table of interpolation
cells where that source has support, both built once, so the warp copies
nothing per evaluation and gathers and blends only the sample points in
those cells.  A gradient callable holds its evaluation's state for as long
as the caller keeps it: per sample point in a supported cell the eight
gathered corners, three fractions, the two z-face planes of the
interpolant and the point's index; the correlation terms, two floats per
voxel (sim3d) or per detector pixel (sim2d); with lam > 0 the three
forward-difference arrays, about 9 floats per voxel; and, from
``evaluate``, the field itself.  On the benchmark scene 14-17 % of the
points sit in supported cells, so the warp's share is about 2 floats per
voxel instead of 13.  A line search keeps the callable of each trial until
the next one and calls it only for the trial it accepts, so each point a
registration evaluates is warped once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import DrrOperator, ProjectionSet
from .grids import (DisplacementField, Image3D, Mask3D, _cell_support, _pad,
                    _real, _warp_coords, warp_scalar_with_gradient)
from .subspace import DeformationSubspace, _coefficients

_EPS = 1e-8
_ORTHONORMAL_TOL = 1e-6  # on max |B B^T - I|

LOSS_MODES = ("sim3d", "sim2d")


@dataclass
class LossConfig:
    lam: float = 0.1
    loss_mode: str = "sim3d"

    def __post_init__(self):
        self.lam = _real(self.lam, "lam", ">= 0")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}")


class NumericalAbort(RuntimeError):
    """Raised when a loss or gradient evaluation turns non-finite."""


def _check_finite(value, what: str):
    if not np.all(np.isfinite(value)):
        raise NumericalAbort(f"non-finite {what} encountered")


# ---------------------------------------------------------------------------
# normalized cross correlation
# ---------------------------------------------------------------------------

def _ncc_core(a: np.ndarray, b: np.ndarray):
    """Guarded correlation plus the pieces needed for its gradient."""
    ac = a - a.mean()
    bc = b - b.mean()
    saa = float(ac @ ac)
    sbb = float(bc @ bc)
    sab = float(ac @ bc)
    denom = np.sqrt((saa + _EPS) * (sbb + _EPS))
    val = sab / denom
    return val, (ac, bc, sbb, sab, denom)


def _ncc_grad_b(parts) -> np.ndarray:
    """d ncc / d b for the cached forward pieces."""
    ac, bc, sbb, sab, denom = parts
    return ac / denom - (sab / denom) * bc / (sbb + _EPS)


# ---------------------------------------------------------------------------
# diffusion regularity energy
# ---------------------------------------------------------------------------

def _forward_diffs(data: np.ndarray, spacing):
    """Per axis: the axis, 1/spacing and the forward differences in 1/mm.

    The replicate boundary makes the last slice along each axis contribute
    zero, so each difference array is one slice shorter than ``data``.
    """
    for ax in range(3):
        inv = 1.0 / float(spacing[ax])
        yield ax, inv, np.diff(data, axis=ax) * inv


def _diffusion(data: np.ndarray, spacing):
    """Mean squared Frobenius norm of forward-difference Jacobians, and a
    zero-argument callable for its gradient with respect to ``data``.

    One difference pass serves both: the callable keeps the three
    difference arrays and builds a new gradient from them on each call.
    """
    shape = data.shape
    n = shape[0] * shape[1] * shape[2]
    diffs = list(_forward_diffs(data, spacing))
    energy = sum(float(np.sum(d * d)) for _, _, d in diffs) / n

    def grad():
        g = np.zeros(shape)
        for ax, inv, diff in diffs:
            scaled = (2.0 / n) * inv * diff
            head = (slice(None),) * ax
            g[head + (slice(1, None),)] += scaled
            g[head + (slice(0, -1),)] -= scaled
        return g

    return energy, grad


def diffusion_quadratic(sub: DeformationSubspace):
    """(c, b, G) with diffusion energy c + 2 b.a + a.G.a at reconstruct(sub, a).

    The energy is E(u) = sum over axes of |D_ax u|^2 / n_voxels for the
    forward differences D_ax, so with u = mean + basis.T a it is the Gram
    form of the k + 1 fields mean, e_1 .. e_k: one difference pass over
    their stack gives M = sum over axes of D_ax^T D_ax / n_voxels, and
    c = M[0, 0], b = M[0, 1:], G = M[1:, 1:].
    """
    stack = np.stack([sub.mean, *sub.basis.reshape((-1,) + sub.mean.shape)], axis=-1)
    M = 0.0
    for _, _, diff in _forward_diffs(stack, sub.spacing):
        cols = diff.reshape(-1, stack.shape[-1])
        M += cols.T @ cols  # one syrk on a shared buffer: exactly symmetric
    M /= sub.grid.n_voxels
    return float(M[0, 0]), M[0, 1:], M[1:, 1:]


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
    """``sub``'s evaluation plan, built and checked on its first evaluation.

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
    bs = sub.basis.reshape(k, -1, 3) / np.asarray(sub.spacing)
    sub._plan = _Plan(sub.mean, sub.basis, _warp_coords(sub.grid, sub.grid, sub.mean).reshape(-1),
                      np.ascontiguousarray(bs.transpose(1, 2, 0)), *diffusion_quadratic(sub))
    return sub._plan


# ---------------------------------------------------------------------------
# loss context: precomputations shared across evaluations
# ---------------------------------------------------------------------------

class LossContext:
    """Fixed inputs of a registration problem, reused across loss evals.

    The measured operands are the masked target (sim3d, rendered by the
    identity) or one projection per emitter (sim2d, rendered through
    ``drr_op``; without one, the context builds an operator on the source
    grid and the projections' geometry at the default step, half the
    smallest voxel spacing).
    """

    def __init__(self, cfg: LossConfig, source: Image3D, source_mask: Mask3D,
                 target=None, target_mask=None,
                 projections: ProjectionSet | None = None,
                 drr_op: DrrOperator | None = None):
        self.cfg = cfg
        self.grid = source.grid
        if source_mask.grid != self.grid:
            raise ValueError("source mask grid does not match source grid")
        self._padded = _pad(source.data.astype(np.float64) * source_mask.data, 0.0)
        self._support = _cell_support(self._padded)

        if cfg.loss_mode == "sim3d":
            if target is None or target_mask is None:
                raise ValueError("sim3d needs a target volume and target mask")
            if target.grid != self.grid or target_mask.grid != self.grid:
                raise ValueError("target grids must match the source grid")
            self.drr_op = None
            fixed = target.data.astype(np.float64) * target_mask.data
            self._measured = fixed.reshape(1, -1)
        else:
            if projections is None:
                raise ValueError("sim2d needs a projection set")
            if drr_op is None:
                drr_op = DrrOperator(self.grid, projections.geometry)
            else:
                if drr_op.grid != self.grid:
                    raise ValueError("projection operator grid does not match source")
                if not drr_op.geometry.allclose(projections.geometry):
                    raise ValueError("projection operator geometry does not match projections")
            self.drr_op = drr_op
            # one contiguous row per emitter
            self._measured = np.moveaxis(projections.data, -1, 0).reshape(
                projections.geometry.n_emitters, -1).astype(np.float64)

    def require_contrast(self):
        """Reject inputs whose correlation is undefined at every field."""
        op, n = self.drr_op, len(self._measured)
        if op is None:
            names = ["masked target"]
        else:
            names = [f"projection {i}" for i in range(n)]
            for i, nnz in enumerate(op._nnz()):
                # an emitter whose rays all miss the grid renders zero for every field
                if nnz == 0:
                    raise ValueError(f"projection {i}: no ray of emitter {i} meets the volume")
        msrc = self._padded[2:-2, 2:-2, 2:-2]
        for name, arr in zip(["masked source", *names], [msrc, *self._measured]):
            if np.ptp(arr) == 0.0:
                raise ValueError(f"{name} is constant, so its correlation is undefined")

    # -- evaluations ---------------------------------------------------------

    def _evaluate_coords(self, coords: np.ndarray):
        """The similarity at source-voxel coordinates ``coords``, (n_voxels, 3)
        in C order, and a zero-argument callable for its gradient phase.

        The one warp of an evaluation happens here; both objectives, which
        map a field or coefficients to coordinates, come through.  The
        callable returns dsim/dwarped per voxel (n_voxels,), the indices of
        the voxels whose coordinates lie in a supported cell, and the warp's
        derivative at them in voxel units, (len(active), 3); the derivative
        is zero at every other voxel.
        """
        warped, warp_grad = warp_scalar_with_gradient(self._padded, coords, self._support)
        # the closure captures what it needs, never ``self``, so a gradient
        # callable the caller keeps does not keep its context alive
        op = self.drr_op
        n = len(self._measured)
        # column i renders operand i: the warped volume itself, or every
        # emitter's projection from one forward product
        rendered = warped.reshape(-1, 1) if op is None else op.forward(warped).reshape(-1, n)
        shape = rendered.shape
        sim = 0.0
        parts = []
        for i, p in enumerate(self._measured):
            val, pi = _ncc_core(p, rendered[:, i])
            sim += (1.0 - val) / n
            parts.append(pi)

        def grad():
            gp = np.zeros(shape)
            for i, pi in enumerate(parts):
                gp[:, i] += -_ncc_grad_b(pi) / n
            return ((gp if op is None else op.adjoint(gp)).reshape(-1), *warp_grad())

        return sim, grad

    def _subspace_objective(self, sub: DeformationSubspace):
        """The total loss in alpha on ``sub``: a function of alpha that gives
        the loss and a zero-argument callable for dL/dalpha.

        Coordinates come from ``sub``'s plan, so no field is built, and the
        diffusion energy is the plan's quadratic, so lam * energy and its
        gradient cost k-by-k algebra instead of grid passes.  The basis rows
        must be orthonormal, as the descent's first step and ``reconstruct``
        assume.
        """
        if sub.grid != self.grid:
            raise ValueError("subspace grid does not match source grid")
        if sub.n_components == 0:
            raise ValueError("subspace has no components, so there is nothing to fit")
        plan = _plan(sub)
        lam = self.cfg.lam

        def objective(a):
            sim, sim_grad = self._evaluate_coords(plan.coords(a))
            Ga = plan.G @ a
            loss = sim + lam * (plan.c + (2.0 * plan.b + Ga) @ a)
            return loss, lambda: plan.pullback(*sim_grad()) + (2.0 * lam) * (plan.b + Ga)

        return objective

    def _dense_objective(self):
        """The total loss in a dense field: a function of the flat float64
        field x, the (W,H,D,3) displacement in mm in C order, that gives the
        loss and a zero-argument callable for the flat dL/dx in 1/mm.

        Coordinates come from x directly, so no field is built, and the
        diffusion energy takes one forward-difference pass, whose three
        arrays the callable reuses.  The callable gives the gradient at x as
        evaluated, so call it before x is changed in place.
        """
        grid, lam = self.grid, self.cfg.lam
        shape = grid.dims + (3,)
        sp = np.asarray(grid.spacing)

        def objective(x):
            data = x.reshape(shape)
            sim, sim_grad = self._evaluate_coords(_warp_coords(grid, grid, data))
            total = sim
            if lam:
                energy, reg_grad = _diffusion(data, grid.spacing)
                total += lam * energy

            def grad():
                s, active, d = sim_grad()
                dwarp = np.zeros((s.size, 3))
                dwarp[active] = d / sp
                g = (s[:, None] * dwarp).reshape(shape)
                if lam:
                    g += lam * reg_grad()
                return g.reshape(-1)

            return total, grad

        return objective

    def loss(self, u: DisplacementField) -> float:
        """Total loss at u; runs the value phase only."""
        return self.evaluate(u)[0]

    def loss_and_grad(self, u: DisplacementField):
        """Total loss and dL/du as a (W,H,D,3) array in 1/mm units."""
        total, grad = self.evaluate(u)
        return total, grad()

    def evaluate(self, u: DisplacementField):
        """Total loss at u and a zero-argument callable for dL/du, from the
        dense objective.

        The value phase runs now.  The callable runs the gradient phase from
        its state and returns dL/du as a (W,H,D,3) array in 1/mm units.  It
        gives the gradient at u as evaluated, so call it before u is changed
        in place.
        """
        if u.grid != self.grid:
            raise ValueError("displacement grid does not match the loss grid")
        total, grad = self._dense_objective()(u.data.astype(np.float64, copy=False))
        return total, lambda: grad().reshape(u.data.shape)


# ---------------------------------------------------------------------------
# gradient entry points
# ---------------------------------------------------------------------------

def grad_alpha(ctx: LossContext, sub: DeformationSubspace,
               alpha: np.ndarray) -> np.ndarray:
    """Analytic dL/dalpha at u = reconstruct(sub, alpha), from the objective
    the subspace drivers descend."""
    return ctx._subspace_objective(sub)(_coefficients(sub, alpha))[1]()


def grad_dense(ctx: LossContext, u: DisplacementField) -> DisplacementField:
    """Analytic dL/du on the grid of u, packaged as a vector field."""
    _, g = ctx.loss_and_grad(u)
    return DisplacementField(u.dims, u.spacing, u.origin, g)
