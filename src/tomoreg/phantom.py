"""Synthetic benchmark generator: phantoms, smooth deformations, pairs.

A phantom is an ellipsoidal region of smoothly varying intensity threaded
with bright tube structures; intensity is exactly zero outside the region
mask, so the mask is the image support.  Deformations are drawn from a
fixed low-rank family: ``n_modes`` smooth single-axis fields (mode m
displaces along axis m % 3).  Depth-only modes are invisible to the
projection loss under a narrow emitter span, which makes per-axis
observability of the registration drivers controllable by construction.

All randomness flows through explicit seeds split with a stable hash, so
every artifact regenerates bitwise across runs and platforms.
"""
from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache

import numpy as np
from scipy.ndimage import gaussian_filter

from .geometry import (DrrOperator, ProjectionSet, SdctGeometry,
                       build_sdct_geometry, default_step_mm)
from .grids import (DisplacementField, GridSpec, Image3D, Landmarks, Mask3D,
                    _entries, _real, _trilinear_sampler, _whole, warp_image)

_WAYPOINTS_PER_VESSEL = 5
_GRAD_CAP = 0.45  # max forward-difference row sum of grad(u); < 1 forbids folds
_LANDMARK_TOL_MM = 1e-6
_LANDMARK_MAX_ITERS = 100


def split_seed(master_seed: int, key) -> int:
    """Stable derived seed for a sub-stream of a master seed."""
    master_seed = _whole(master_seed, "master_seed")
    digest = hashlib.sha256(f"{master_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------
# specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeformationSpec:
    n_modes: int = 4
    magnitude_mm: float = 12.0
    smoothness_sigma_voxels: float = 16.0

    def __post_init__(self):
        object.__setattr__(self, "n_modes", _whole(self.n_modes, "n_modes", ">= 1"))
        for name, bound in (("magnitude_mm", ">= 0"), ("smoothness_sigma_voxels", "> 0")):
            object.__setattr__(self, name, _real(getattr(self, name), name, bound))


@dataclass(frozen=True)
class AcquisitionSpec:
    n_emitters: int = 4
    span_angle_deg: float = 30.0
    source_detector_distance_mm: float | None = None  # default: 20x volume extent
    line_offset_mm: tuple[float, float] = (0.0, 0.0)
    detector_dims: tuple[int, int] | None = None      # default: ceil(1.25 * (W, H))
    detector_spacing_mm: tuple[float, float] | None = None
    step_mm: float | None = None                      # default: half min voxel spacing

    def __post_init__(self):
        object.__setattr__(self, "n_emitters", _whole(self.n_emitters, "n_emitters", "count"))
        for name in ("span_angle_deg", "source_detector_distance_mm", "step_mm"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _real(value, name))
        # tuples, as the defaults are, so a spec read back from JSON lists
        # compares equal to the one that was written
        for name, convert, bound in (("line_offset_mm", _real, None),
                                     ("detector_dims", _whole, "count"),
                                     ("detector_spacing_mm", _real, None)):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _entries(value, 2, convert, name, bound))


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = (64, 64, 64)
    spacing: tuple[float, float, float] = (2.2, 2.2, 2.2)
    seed: int = 0
    n_vessels: int = 6
    deformation: DeformationSpec = field(default_factory=DeformationSpec)
    geometry: AcquisitionSpec = field(default_factory=AcquisitionSpec)

    def __post_init__(self):
        object.__setattr__(self, "dims", _entries(self.dims, 3, _whole, "dims", "count"))
        object.__setattr__(self, "spacing",
                           _entries(self.spacing, 3, _real, "spacing", "> 0"))
        object.__setattr__(self, "seed", _whole(self.seed, "seed"))
        object.__setattr__(self, "n_vessels", _whole(self.n_vessels, "n_vessels", ">= 0"))
        if min(self.dims) < 16:
            raise ValueError("dims too small to fit phantom structures (min 16)")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "PhantomSpec":
        """The spec ``to_dict`` wrote; a missing or null entry keeps its default.

        Raises ValueError, naming the field, for an unknown key, for a spec
        or section that is not an object, and for every value the spec's
        classes refuse.
        """
        kw = _spec_fields(d, PhantomSpec, "spec")
        for name, cls in (("deformation", DeformationSpec), ("geometry", AcquisitionSpec)):
            if name in kw:
                kw[name] = cls(**_spec_fields(kw[name], cls, name))
        return PhantomSpec(**kw)


def _spec_fields(d, cls, what: str) -> dict:
    """The non-null entries of the JSON object ``d`` for dataclass ``cls``."""
    if not isinstance(d, dict):
        raise ValueError(f"phantom {what} must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown phantom {what} key(s): {', '.join(unknown)}")
    return {k: v for k, v in d.items() if v is not None}


def grid_for(spec: PhantomSpec) -> GridSpec:
    """Volume grid: centered laterally, lifted off the detector plane."""
    W, H, D = spec.dims
    sx, sy, sz = spec.spacing
    z_center = 0.55 * D * sz
    origin = (-0.5 * (W - 1) * sx, -0.5 * (H - 1) * sy,
              z_center - 0.5 * (D - 1) * sz)
    return GridSpec(spec.dims, spec.spacing, origin)


def geometry_for(spec: PhantomSpec) -> SdctGeometry:
    """Acquisition geometry with extent-derived defaults resolved."""
    g = spec.geometry
    extent = tuple(d * s for d, s in zip(spec.dims, spec.spacing))
    dist = g.source_detector_distance_mm
    if dist is None:
        dist = 20.0 * max(extent)
    det_dims = g.detector_dims
    if det_dims is None:
        det_dims = (int(np.ceil(1.25 * spec.dims[0])), int(np.ceil(1.25 * spec.dims[1])))
    det_spacing = g.detector_spacing_mm
    if det_spacing is None:
        det_spacing = (1.25 * extent[0] / det_dims[0], 1.25 * extent[1] / det_dims[1])
    return build_sdct_geometry(
        n_emitters=g.n_emitters,
        span_angle_deg=g.span_angle_deg,
        source_detector_distance=dist,
        line_offset=g.line_offset_mm,
        detector_dims=det_dims,
        detector_spacing=det_spacing,
    )


def step_for(spec: PhantomSpec) -> float:
    step = spec.geometry.step_mm
    return default_step_mm(spec.spacing) if step is None else step


# ---------------------------------------------------------------------------
# phantom volume
# ---------------------------------------------------------------------------

def _ellipsoid(grid: GridSpec):
    extent = np.array([d * s for d, s in zip(grid.dims, grid.spacing)])
    center = np.asarray(grid.origin) + 0.5 * (np.asarray(grid.dims) - 1) * np.asarray(grid.spacing)
    semi = np.array([0.30, 0.30, 0.32]) * extent
    return center, semi


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only, so a memoised array cannot be changed in place."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=4)
def _region_frame(grid: GridSpec):
    """Voxel centres, the boolean ellipsoid mask and the mask times its rim
    taper, read-only.

    They depend on the grid alone, so every phantom and deformation on one
    grid shares them; the mask is the one rule of what lies inside.
    """
    center, semi = _ellipsoid(grid)
    coords = grid.voxel_centers()
    rel = (coords - center) / semi
    rel2 = np.sum(rel * rel, axis=-1)
    mask = rel2 <= 1.0
    # smoothstep shoulder so intensity reaches zero continuously at the rim
    t = np.clip((1.0 - rel2) / 0.3, 0.0, 1.0)
    taper = t * t * (3.0 - 2.0 * t)
    return _frozen(coords), _frozen(mask), _frozen(mask * taper)


def _segment_distance(pts: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    d = p1 - p0
    denom = float(d @ d)
    if denom < 1e-12:
        return np.linalg.norm(pts - p0[None, :], axis=1)
    q = np.clip((pts - p0[None, :]) @ d / denom, 0.0, 1.0)
    closest = p0[None, :] + q[:, None] * d[None, :]
    return np.linalg.norm(pts - closest, axis=1)


def _sample_inside(rng, center, semi, shrink: float) -> np.ndarray:
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    r = shrink * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
    return center + r * v * semi


def gen_phantom(spec: PhantomSpec):
    """Deterministic phantom volume, region mask and tube landmarks."""
    grid = grid_for(spec)
    rng = np.random.default_rng(split_seed(spec.seed, "phantom"))
    center, semi = _ellipsoid(grid)
    coords, mask, shell = _region_frame(grid)

    noise = rng.standard_normal(grid.dims)
    smooth = gaussian_filter(noise, sigma=3.0, mode="nearest")
    lo, hi = smooth.min(), smooth.max()
    base = 0.25 + 0.5 * (smooth - lo) / max(hi - lo, 1e-12)

    tube_radius = 1.5 * min(spec.spacing)
    tubes = np.zeros(grid.dims)
    lm_points = []
    for _ in range(spec.n_vessels):
        waypoints = [_sample_inside(rng, center, semi, shrink=0.80)]
        step_len = 0.35 * float(np.mean(semi))
        for _ in range(_WAYPOINTS_PER_VESSEL - 1):
            for _attempt in range(64):
                direction = rng.standard_normal(3)
                direction /= np.linalg.norm(direction)
                cand = waypoints[-1] + step_len * direction
                crel = (cand - center) / semi
                if float(crel @ crel) <= 0.80 ** 2:
                    break
            else:
                cand = _sample_inside(rng, center, semi, shrink=0.80)
            waypoints.append(cand)
        lm_points.extend(waypoints)
        for p0, p1 in zip(waypoints[:-1], waypoints[1:]):
            lo_box = np.minimum(p0, p1) - 3.5 * tube_radius
            hi_box = np.maximum(p0, p1) + 3.5 * tube_radius
            i0 = np.maximum(0, np.floor(grid.world_to_voxel(lo_box)).astype(int))
            i1 = np.minimum(np.asarray(grid.dims) - 1,
                            np.ceil(grid.world_to_voxel(hi_box)).astype(int))
            if np.any(i1 < i0):
                continue
            sub = tuple(slice(a, b + 1) for a, b in zip(i0, i1))
            pts = coords[sub].reshape(-1, 3)
            dist = _segment_distance(pts, p0, p1)
            bump = 0.9 * np.exp(-0.5 * (dist / tube_radius) ** 2)
            tubes[sub] = np.maximum(tubes[sub], bump.reshape(tubes[sub].shape))

    intensity = shell * (base + tubes)

    image = Image3D(grid.dims, grid.spacing, grid.origin,
                    intensity.astype(np.float32))
    mask3d = Mask3D(grid.dims, grid.spacing, grid.origin,
                    mask.astype(np.float32))
    return image, mask3d, Landmarks(np.arange(len(lm_points)), np.asarray(lm_points))


# ---------------------------------------------------------------------------
# smooth low-rank deformations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _deformation_modes(grid: GridSpec, seed, n_modes, sigma):
    """Fixed family of smooth single-axis mode fields, read-only.

    Smoothing zero-pads so values taper off toward the grid boundary, and
    each mode is normalized by its peak inside the phantom region; both
    choices keep the scale anchored where the object (and its landmarks)
    actually live.
    """
    inside = _region_frame(grid)[1]
    modes = np.zeros((n_modes,) + grid.dims + (3,))
    for m in range(n_modes):
        rng = np.random.default_rng(split_seed(seed, f"dvf-mode-{m}"))
        comp = gaussian_filter(rng.standard_normal(grid.dims), sigma=sigma,
                               mode="constant", cval=0.0)
        peak = np.max(np.abs(comp[inside]))
        if peak > 0.0:
            comp = comp / peak
        modes[m, ..., m % 3] = comp
    return _frozen(modes)


def _grad_row_sum_max(data: np.ndarray, spacing) -> float:
    """Max over voxels/components of sum_d |forward diff along d| / s_d."""
    # appending the last slice gives the last voxel a difference of exactly 0
    rows = sum(np.abs(np.diff(data, axis=ax, append=data.take([-1], axis=ax)))
               / float(spacing[ax]) for ax in range(3))
    return float(rows.max())


def gen_smooth_dvf(spec: PhantomSpec, alpha=None,
                   seed: int | None = None) -> DisplacementField:
    """Draw a smooth fold-free displacement from the fixed mode family.

    The combined field is scaled to the requested peak magnitude and then,
    if needed, shrunk further so the forward-difference Jacobian row sums
    stay below 0.45 everywhere, which keeps det(I + grad u) positive.
    Either pass explicit coefficients, one per mode (``np.eye(n_modes)[m]``
    selects mode m alone), or let a seed draw them uniformly from [-1, 1].
    """
    defo = spec.deformation
    grid = grid_for(spec)
    modes = _deformation_modes(grid, spec.seed, defo.n_modes, defo.smoothness_sigma_voxels)
    if alpha is None:
        rng = np.random.default_rng(split_seed(spec.seed if seed is None else seed, "dvf-alpha"))
        alpha = rng.uniform(-1.0, 1.0, size=defo.n_modes)
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    if alpha.shape[0] != defo.n_modes:
        raise ValueError(f"alpha must have {defo.n_modes} entries")

    u = np.tensordot(alpha, modes, axes=(0, 0))
    inside = _region_frame(grid)[1]
    peak = float(np.max(np.linalg.norm(u[inside], axis=-1)))
    if peak > 0.0:
        u = u * (defo.magnitude_mm / peak)
        row_max = _grad_row_sum_max(u, spec.spacing)
        if row_max > _GRAD_CAP:
            u = u * (_GRAD_CAP / row_max)
    return DisplacementField(grid.dims, grid.spacing, grid.origin,
                             u.astype(np.float32))


# ---------------------------------------------------------------------------
# registration pairs
# ---------------------------------------------------------------------------

@dataclass
class PhantomPair:
    source: Image3D
    target: Image3D
    source_mask: Mask3D
    target_mask: Mask3D
    projections: ProjectionSet
    lm_src: Landmarks
    lm_tgt: Landmarks
    u_true: DisplacementField
    geometry: SdctGeometry


def _solve_target_landmarks(u: DisplacementField, pts_src: np.ndarray) -> np.ndarray:
    """Fixed-point solve of p + u(p) = l_s for each source landmark."""
    sample = _trilinear_sampler(u.data)  # pads the field once per solve
    grid = u.grid
    p = pts_src.copy()
    for _ in range(_LANDMARK_MAX_ITERS):
        p_new = pts_src - sample(grid.world_to_voxel(p))
        if float(np.max(np.linalg.norm(p_new - p, axis=1))) < _LANDMARK_TOL_MM:
            return p_new
        p = p_new
    raise RuntimeError("landmark fixed-point iteration did not converge")


def make_pair(spec: PhantomSpec, seed: int,
              drr_op: DrrOperator | None = None) -> PhantomPair:
    """Source/target pair with ground truth under one drawn deformation.

    The target volume is the source pulled back through the true field,
    the target mask is its nearest-neighbor warp, target landmarks solve
    the inverse point relation, and the projections are rendered from the
    deformed volume.
    """
    phantom_spec = replace(spec, seed=split_seed(seed, "phantom"))
    source, source_mask, lm_src = gen_phantom(phantom_spec)

    rng = np.random.default_rng(split_seed(seed, "alpha"))
    alpha = rng.uniform(-1.0, 1.0, size=spec.deformation.n_modes)
    u_true = gen_smooth_dvf(spec, alpha=alpha)

    target = warp_image(source, u_true, interp="trilinear")
    target_mask = warp_image(source_mask, u_true, interp="nearest")
    lm_tgt_pts = _solve_target_landmarks(u_true, lm_src.points)
    lm_tgt = Landmarks(lm_src.ids.copy(), lm_tgt_pts)

    geom = geometry_for(spec)
    if drr_op is None:
        drr_op = DrrOperator(grid_for(spec), geom, step_for(spec))
    else:
        if drr_op.grid != grid_for(spec) or not drr_op.geometry.allclose(geom):
            raise ValueError("provided projection operator does not match the spec")
    projections = ProjectionSet(drr_op.geometry,
                                drr_op.render_all(target).data.astype(np.float32))

    return PhantomPair(source=source, target=target, source_mask=source_mask,
                       target_mask=target_mask, projections=projections,
                       lm_src=lm_src, lm_tgt=lm_tgt, u_true=u_true,
                       geometry=drr_op.geometry)
