"""Registration losses and their analytic gradients.

The total loss is sim + lam * reg where reg is diffusion energy of the
displacement field and sim compares either

* sim3d: the masked target volume against the warped masked source, or
* sim2d: measured projections against renderings of the warped masked
  source (one term per emitter, averaged) -- the target volume itself is
  never touched in this mode.

Similarity is one minus Pearson correlation with a variance underflow
guard.  Gradients differentiate the exact discrete computation: warping
contributes the trilinear interpolant's own spatial derivative and the
projection adjoint redistributes pixel residuals through the same sampling
weights used by the forward rendering, so central finite differences agree
with the analytic gradients at tight tolerance.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import DrrOperator, ProjectionSet, default_step_mm
from .grids import DisplacementField, Image3D, Mask3D, warp_scalar_with_gradient
from .subspace import DeformationSubspace, reconstruct

_EPS = 1e-8

LOSS_MODES = ("sim3d", "sim2d")


@dataclass
class LossConfig:
    lam: float = 0.1
    loss_mode: str = "sim3d"
    drr_step_mm: float | None = None
    ncc_inside_target_mask: bool = False

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise ValueError("lam must be finite and >= 0")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}")
        if self.drr_step_mm is not None and self.drr_step_mm <= 0.0:
            raise ValueError("drr_step_mm must be positive")


# ---------------------------------------------------------------------------
# normalized cross correlation
# ---------------------------------------------------------------------------

def ncc(a, b) -> float:
    """Pearson correlation over all elements; constant input gives 0.

    Accepts Image3D/Image2D/ndarray operands of identical shape.  An
    exactly constant operand makes the correlation undefined; it is
    defined as 0 here and a RuntimeWarning is emitted.
    """
    da = np.asarray(getattr(a, "data", a), dtype=np.float64)
    db = np.asarray(getattr(b, "data", b), dtype=np.float64)
    if da.shape != db.shape:
        raise ValueError(f"shape mismatch {da.shape} vs {db.shape}")
    if da.size == 0:
        raise ValueError("empty input")
    if np.ptp(da) == 0.0 or np.ptp(db) == 0.0:
        warnings.warn("ncc of a constant input is undefined, returning 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    val, _ = _ncc_core(da.reshape(-1), db.reshape(-1))
    return val


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

def _diffusion_core(data: np.ndarray, spacing, with_grad: bool):
    """Mean squared Frobenius norm of forward-difference Jacobians.

    Differences are taken in world units with a replicate boundary, i.e.
    the last slice along each axis contributes zero.
    """
    n = data.shape[0] * data.shape[1] * data.shape[2]
    energy = 0.0
    grad = np.zeros_like(data) if with_grad else None
    for ax in range(3):
        inv = 1.0 / float(spacing[ax])
        sl_hi = [slice(None)] * 4
        sl_lo = [slice(None)] * 4
        sl_hi[ax] = slice(1, None)
        sl_lo[ax] = slice(0, -1)
        diff = (data[tuple(sl_hi)] - data[tuple(sl_lo)]) * inv
        energy += float(np.sum(diff * diff))
        if with_grad:
            scaled = (2.0 / n) * inv * diff
            grad[tuple(sl_hi)] += scaled
            grad[tuple(sl_lo)] -= scaled
    return energy / n, grad


def diffusion_energy(u: DisplacementField) -> float:
    """(1/|Omega|) sum of squared forward differences of u in 1/mm units."""
    e, _ = _diffusion_core(u.data.astype(np.float64, copy=False), u.spacing, False)
    return e


# ---------------------------------------------------------------------------
# loss context: precomputations shared across evaluations
# ---------------------------------------------------------------------------

class LossContext:
    """Fixed inputs of a registration problem, reused across loss evals."""

    def __init__(self, mode: str, cfg: LossConfig, source: Image3D,
                 source_mask: Mask3D, target=None, target_mask=None,
                 projections: ProjectionSet | None = None,
                 drr_op: DrrOperator | None = None):
        if mode != cfg.loss_mode:
            raise ValueError(f"loss context mode {mode!r} does not match "
                             f"loss_mode {cfg.loss_mode!r}")
        self.mode = mode
        self.cfg = cfg
        self.grid = source.grid
        if source_mask.grid != self.grid:
            raise ValueError("source mask grid does not match source grid")
        self.msrc = source.data.astype(np.float64) * source_mask.data

        if mode == "sim3d":
            if target is None or target_mask is None:
                raise ValueError("sim3d needs a target volume and target mask")
            if target.grid != self.grid or target_mask.grid != self.grid:
                raise ValueError("target grids must match the source grid")
            fixed = target.data.astype(np.float64) * target_mask.data
            if cfg.ncc_inside_target_mask:
                self._sel = target_mask.data.reshape(-1) > 0.0
                if not self._sel.any():
                    raise ValueError("target mask is empty")
            else:
                self._sel = None
            flat = fixed.reshape(-1)
            self._fixed = flat[self._sel] if self._sel is not None else flat
        else:
            if projections is None:
                raise ValueError("sim2d needs a projection set")
            if drr_op is None:
                step = cfg.drr_step_mm or default_step_mm(self.grid.spacing)
                drr_op = DrrOperator(self.grid, projections.geometry, step)
            else:
                if drr_op.grid != self.grid:
                    raise ValueError("projection operator grid does not match source")
                if not drr_op.geometry.allclose(projections.geometry):
                    raise ValueError("projection operator geometry does not match projections")
            self.drr_op = drr_op
            self._proj = [im.data.astype(np.float64).reshape(-1)
                          for im in projections.images]

    # -- similarity -------------------------------------------------------

    def _sim3d(self, warped: np.ndarray, grad: bool):
        b = warped.reshape(-1)
        if self._sel is not None:
            b = b[self._sel]
        val, parts = _ncc_core(self._fixed, b)
        if not grad:
            return 1.0 - val, None
        g = -_ncc_grad_b(parts)
        if self._sel is not None:
            full = np.zeros(warped.size, dtype=np.float64)
            full[self._sel] = g
            g = full
        return 1.0 - val, g.reshape(warped.shape)

    def _sim2d(self, warped: np.ndarray, grad: bool):
        n = len(self._proj)
        loss = 0.0
        gvol = np.zeros_like(warped) if grad else None
        for i, p in enumerate(self._proj):
            rendered = self.drr_op.forward(warped, i).reshape(-1)
            val, parts = _ncc_core(p, rendered)
            loss += (1.0 - val) / n
            if grad:
                gp = -_ncc_grad_b(parts) / n
                gvol += self.drr_op.adjoint(gp.reshape(self.drr_op.geometry.detector_dims), i)
        return loss, gvol

    # -- public evaluations -------------------------------------------------

    def loss(self, u: DisplacementField) -> float:
        return self._evaluate(u, with_grad=False)[0]

    def loss_and_grad(self, u: DisplacementField):
        """Total loss and dL/du as a (W,H,D,3) array in 1/mm units."""
        return self._evaluate(u, with_grad=True)

    def _evaluate(self, u: DisplacementField, with_grad: bool):
        if u.grid != self.grid:
            raise ValueError("displacement grid does not match the loss grid")
        warped, wgrad = warp_scalar_with_gradient(self.msrc, self.grid, u)
        if self.mode == "sim3d":
            sim, gsim = self._sim3d(warped, with_grad)
        else:
            sim, gsim = self._sim2d(warped, with_grad)
        udata = u.data.astype(np.float64, copy=False)
        reg, greg = _diffusion_core(udata, u.spacing, with_grad)
        total = sim + self.cfg.lam * reg
        if not with_grad:
            return total, None
        grad = gsim[..., None] * wgrad + self.cfg.lam * greg
        return total, grad


# ---------------------------------------------------------------------------
# spec-level convenience entry points
# ---------------------------------------------------------------------------

def masked_sim_loss(target: Image3D, source: Image3D, target_mask: Mask3D,
                    source_mask: Mask3D, u: DisplacementField) -> float:
    """1 - ncc(target*target_mask, warp(source*source_mask, u)).

    Masks are applied before warping.  A constant operand (emptied mask,
    zero image) drives the correlation to its defined value of 0, so the
    loss becomes 1.
    """
    ctx = LossContext("sim3d", LossConfig(lam=0.0), source, source_mask,
                      target=target, target_mask=target_mask)
    warped, _ = warp_scalar_with_gradient(ctx.msrc, ctx.grid, u)
    if np.ptp(ctx._fixed) == 0.0 or np.ptp(warped) == 0.0:
        return 1.0
    sim, _ = ctx._sim3d(warped, grad=False)
    return sim


def total_loss(u: DisplacementField, cfg: LossConfig, *, source: Image3D,
               source_mask: Mask3D, target: Image3D | None = None,
               target_mask: Mask3D | None = None,
               projections: ProjectionSet | None = None) -> float:
    """One-off total loss evaluation; builds a context and discards it."""
    ctx = LossContext(cfg.loss_mode, cfg, source, source_mask, target=target,
                      target_mask=target_mask, projections=projections)
    return ctx.loss(u)


def grad_alpha(ctx: LossContext, sub: DeformationSubspace,
               alpha: np.ndarray) -> np.ndarray:
    """Analytic dL/dalpha at u = reconstruct(sub, alpha)."""
    u = reconstruct(sub, alpha)
    _, g = ctx.loss_and_grad(u)
    return sub.basis @ g.reshape(-1)


def grad_dense(ctx: LossContext, u: DisplacementField) -> DisplacementField:
    """Analytic dL/du on the grid of u, packaged as a vector field."""
    _, g = ctx.loss_and_grad(u)
    return DisplacementField(u.dims, u.spacing, u.origin, g)
