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

Where the regulariser is evaluated: a ``LossContext`` with lam > 0 runs the
diffusion passes over the grid on every evaluation, which is what
``total_loss``, ``grad_alpha``, ``grad_dense`` and the dense driver use.  On
a subspace u = mean + basis.T alpha the energy is a quadratic in alpha,
``diffusion_quadratic`` builds its k-by-k form once per registration, and
the subspace drivers evaluate it in closed form next to a context with
lam = 0, which skips the grid passes.

A ``LossContext`` evaluates in two phases.  ``loss`` runs the value phase
only: the warp, the similarity (for sim2d the DRR forwards) and the
diffusion energy.  ``loss_and_grad`` adds the gradient phase: the interpolant
derivative, the projection adjoints, the diffusion gradient and the chain
rule.  The context keeps the state of the last two value phases, keyed on
the exact bytes of the field; ``loss_and_grad`` at one of those fields only
runs the gradient phase.  A line search accepts either its last trial or,
after one rejected growth step, the one before it, so each point a
registration evaluates is warped once.  The price is memory: per voxel,
each kept state holds the eight gathered corners, three fractions, the two
z-face planes of the interpolant, the three field components of its key
and the correlation terms, about 18 floats (4.7 MB per state on a 32-cube,
38 MB on a 64-cube).
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

def _forward_diffs(data: np.ndarray, spacing):
    """Per axis: the axis, 1/spacing and the forward differences in 1/mm.

    The replicate boundary makes the last slice along each axis contribute
    zero, so each difference array is one slice shorter than ``data``.
    """
    for ax in range(3):
        inv = 1.0 / float(spacing[ax])
        yield ax, inv, np.diff(data, axis=ax) * inv


def _diffusion_energy(data: np.ndarray, spacing) -> float:
    """Mean squared Frobenius norm of forward-difference Jacobians."""
    n = data.shape[0] * data.shape[1] * data.shape[2]
    return sum(float(np.sum(d * d)) for _, _, d in _forward_diffs(data, spacing)) / n


def _diffusion_grad(data: np.ndarray, spacing) -> np.ndarray:
    """Gradient of ``_diffusion_energy`` with respect to ``data``."""
    n = data.shape[0] * data.shape[1] * data.shape[2]
    grad = np.zeros_like(data)
    for ax, inv, diff in _forward_diffs(data, spacing):
        scaled = (2.0 / n) * inv * diff
        head = (slice(None),) * ax
        grad[head + (slice(1, None),)] += scaled
        grad[head + (slice(0, -1),)] -= scaled
    return grad


def diffusion_energy(u: DisplacementField) -> float:
    """(1/|Omega|) sum of squared forward differences of u in 1/mm units."""
    return _diffusion_energy(u.data.astype(np.float64, copy=False), u.spacing)


def diffusion_quadratic(sub: DeformationSubspace):
    """(c, b, G) with diffusion energy c + 2 b.a + a.G.a at reconstruct(sub, a).

    The energy is E(u) = u.L u for a symmetric L, and grad E(u) = 2 L u, so
    with u = mean + basis.T a: c = E(mean), b = basis L mean and the k-by-k
    G = basis L basis.T.  One energy pass and k + 1 gradient passes build
    them; G is symmetrised against rounding.
    """
    spacing, shape, k = sub.spacing, sub.dims + (3,), sub.n_components

    def basis_l(v):  # basis L v = 0.5 basis . grad E(v)
        return 0.5 * (sub.basis @ _diffusion_grad(v.reshape(shape), spacing).reshape(-1))

    G = np.array([basis_l(e) for e in sub.basis]).reshape(k, k)
    return (_diffusion_energy(sub.mean, spacing), basis_l(sub.mean),
            0.5 * (G + G.T))


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
        # (key, total, gradient finisher) of the last two value phases
        self._kept = []

    # -- similarity: value now, d sim / d warped on demand ------------------

    # The closures below capture what they need, never ``self``: a kept
    # state that referred back to its context would make a reference cycle
    # and keep every finished registration's states alive until the cyclic
    # garbage collector runs.

    def _sim3d(self, warped: np.ndarray):
        sel, dims = self._sel, self.grid.dims
        b = warped.reshape(-1)
        if sel is not None:
            b = b[sel]
        val, parts = _ncc_core(self._fixed, b)

        def grad():
            g = -_ncc_grad_b(parts)
            if sel is not None:
                full = np.zeros(sel.size, dtype=np.float64)
                full[sel] = g
                g = full
            return g.reshape(dims)

        return 1.0 - val, grad

    def _sim2d(self, warped: np.ndarray):
        op, dims = self.drr_op, self.grid.dims
        n = len(self._proj)
        loss = 0.0
        parts = []
        for i, p in enumerate(self._proj):
            rendered = op.forward(warped, i).reshape(-1)
            val, pi = _ncc_core(p, rendered)
            loss += (1.0 - val) / n
            parts.append(pi)

        def grad():
            gvol = np.zeros(dims, dtype=np.float64)
            for i, pi in enumerate(parts):
                gp = -_ncc_grad_b(pi) / n
                gvol += op.adjoint(gp.reshape(op.geometry.detector_dims), i)
            return gvol

        return loss, grad

    # -- public evaluations -------------------------------------------------

    def loss(self, u: DisplacementField) -> float:
        """Total loss at u; runs the value phase and keeps its state."""
        return self._value(u, self._key(u))[1]

    def loss_and_grad(self, u: DisplacementField):
        """Total loss and dL/du as a (W,H,D,3) array in 1/mm units.

        When u is one of the last two fields this context evaluated, only
        the gradient phase runs, from that evaluation's kept state.
        """
        key = self._key(u)
        state = next((s for s in self._kept if s[0] == key), None)
        if state is None:
            state = self._value(u, key)
        return state[1], state[2](u.data.astype(np.float64, copy=False))

    def _key(self, u: DisplacementField) -> bytes:
        """Exact bytes of the field, so -0.0 and +0.0 stay distinct."""
        if u.grid != self.grid:
            raise ValueError("displacement grid does not match the loss grid")
        return np.ascontiguousarray(u.data, dtype=np.float64).tobytes()

    def _value(self, u: DisplacementField, key: bytes):
        """Value phase; returns and keeps (key, total, gradient finisher)."""
        warped, warp_grad = warp_scalar_with_gradient(self.msrc, self.grid, u)
        if self.mode == "sim3d":
            sim, sim_grad = self._sim3d(warped)
        else:
            sim, sim_grad = self._sim2d(warped)
        lam, spacing = self.cfg.lam, self.grid.spacing
        total = sim
        if lam:
            total += lam * _diffusion_energy(u.data.astype(np.float64, copy=False),
                                             spacing)

        def finish(udata):
            g = sim_grad()[..., None] * warp_grad()
            if lam:
                g += lam * _diffusion_grad(udata, spacing)
            return g

        state = (key, total, finish)
        self._kept = self._kept[-1:] + [state]
        return state


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
    return ctx.loss(u)


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
