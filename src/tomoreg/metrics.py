"""Registration quality metrics: landmark error, overlap, fold statistics."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .grids import (DisplacementField, Landmarks, Mask3D, jacobian_stats,
                    sample_displacement, warp_image)


@dataclass
class MetricsReport:
    mtre_mm: float
    per_axis_mm: tuple[float, float, float]
    dice_pct: float
    pct_neg_jacobian: float
    n_landmarks: int
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        # a list, as JSON would read it back
        return {**asdict(self), "per_axis_mm": list(self.per_axis_mm)}


def _paired_points(lm_src: Landmarks, lm_tgt: Landmarks):
    if lm_src.ids.size != lm_tgt.ids.size or not np.array_equal(
            np.sort(lm_src.ids), np.sort(lm_tgt.ids)):
        raise ValueError("landmark id sets do not match")
    order_s = np.argsort(lm_src.ids)
    order_t = np.argsort(lm_tgt.ids)
    return lm_src.points[order_s], lm_tgt.points[order_t]


def _landmark_residuals(u: DisplacementField, lm_src: Landmarks,
                        lm_tgt: Landmarks):
    """Residuals (l_t + u(l_t)) - l_s over usable landmark pairs.

    Target landmarks outside the grid extent of u are excluded; the
    returned warning list says how many were dropped.  Empty landmark sets
    are refused as such, before any grid test.
    """
    p_src, p_tgt = _paired_points(lm_src, lm_tgt)
    if p_src.shape[0] == 0:
        raise ValueError("the landmark sets are empty, so there is no landmark error")
    inside = u.grid.contains(p_tgt)
    notes = []
    if not np.all(inside):
        notes.append(f"excluded {int(np.count_nonzero(~inside))} landmark(s) "
                     "outside the displacement grid")
    p_src, p_tgt = p_src[inside], p_tgt[inside]
    if p_src.shape[0] == 0:
        raise ValueError("no landmarks left inside the displacement grid")
    resid = p_tgt + sample_displacement(u, p_tgt) - p_src
    return resid, notes


def mtre(u: DisplacementField, lm_src: Landmarks, lm_tgt: Landmarks) -> float:
    """Mean Euclidean norm of landmark residuals in millimeters."""
    resid, _ = _landmark_residuals(u, lm_src, lm_tgt)
    return float(np.mean(np.linalg.norm(resid, axis=1)))


def per_axis_error(u: DisplacementField, lm_src: Landmarks,
                   lm_tgt: Landmarks) -> tuple[float, float, float]:
    """Mean absolute residual per world axis."""
    resid, _ = _landmark_residuals(u, lm_src, lm_tgt)
    ax = np.mean(np.abs(resid), axis=0)
    return float(ax[0]), float(ax[1]), float(ax[2])


def dice(a: Mask3D, b: Mask3D) -> float:
    """Overlap score 100 * 2|a&b| / (|a| + |b|); two empty masks give 100."""
    if a.grid != b.grid:
        raise ValueError("masks must share one grid")
    na = float(a.data.sum())
    nb = float(b.data.sum())
    if na == 0.0 and nb == 0.0:
        return 100.0
    inter = float(np.sum((a.data > 0) & (b.data > 0)))
    return 100.0 * 2.0 * inter / (na + nb)


def evaluate_registration(u: DisplacementField, lm_src: Landmarks,
                          lm_tgt: Landmarks, source_mask: Mask3D,
                          target_mask: Mask3D) -> MetricsReport:
    """Landmark, overlap and fold statistics for an estimated field."""
    resid, notes = _landmark_residuals(u, lm_src, lm_tgt)
    per_axis = np.mean(np.abs(resid), axis=0)
    mtre_val = float(np.mean(np.linalg.norm(resid, axis=1)))
    warped = warp_image(source_mask, u)
    stats = jacobian_stats(u)
    return MetricsReport(
        mtre_mm=mtre_val,
        per_axis_mm=(float(per_axis[0]), float(per_axis[1]), float(per_axis[2])),
        dice_pct=dice(warped, target_mask),
        pct_neg_jacobian=stats.pct_negative,
        n_landmarks=int(resid.shape[0]),
        warnings=notes,
    )
