"""Stationary-detector multi-emitter geometry, DRR rendering, backprojection.

The acquisition model is a fixed planar detector plus N x-ray emitters
spaced evenly on a line parallel to the detector plane.  Forward rendering
integrates volume intensity along emitter-to-pixel segments with a fixed
step (midpoint rule, trilinear sampling).  The lift operation goes the
other way: each voxel center is perspective-projected through each emitter
onto the detector and picks up the bilinearly interpolated pixel value,
giving one volume channel per emitter.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .grids import GridSpec, Image3D, sample_trilinear, trilinear_weights

_ORTHO_TOL = 1e-9
_PLANE_TOL = 1e-9
_CHUNK_PIXELS = 2048  # detector pixels per block when building the matrix


# ---------------------------------------------------------------------------
# geometry container
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SdctGeometry:
    """Emitter positions plus detector frame.

    detector_origin is the world center of pixel (0, 0); pixel (iu, iv) is
    centered at detector_origin + iu*pu*axes[0] + iv*pv*axes[1].
    """

    n_emitters: int
    emitter_positions: np.ndarray      # (N, 3) world mm
    detector_origin: np.ndarray        # (3,) world mm
    detector_axes: np.ndarray          # (2, 3) orthonormal in-plane axes
    detector_dims: tuple[int, int]     # (Wd, Hd) pixels
    detector_spacing: tuple[float, float]  # (pu, pv) mm

    def __post_init__(self):
        self.n_emitters = int(self.n_emitters)
        self.emitter_positions = np.asarray(self.emitter_positions, dtype=np.float64).reshape(-1, 3)
        self.detector_origin = np.asarray(self.detector_origin, dtype=np.float64).reshape(3)
        self.detector_axes = np.asarray(self.detector_axes, dtype=np.float64).reshape(2, 3)
        self.detector_dims = (int(self.detector_dims[0]), int(self.detector_dims[1]))
        self.detector_spacing = (float(self.detector_spacing[0]), float(self.detector_spacing[1]))

        if self.n_emitters < 1:
            raise ValueError("n_emitters must be >= 1")
        if self.emitter_positions.shape[0] != self.n_emitters:
            raise ValueError("emitter_positions count does not match n_emitters")
        for arr in (self.emitter_positions, self.detector_origin, self.detector_axes):
            if not np.all(np.isfinite(arr)):
                raise ValueError("geometry arrays must be finite")
        if any(d < 1 for d in self.detector_dims):
            raise ValueError("detector_dims must be >= 1")
        if any(s <= 0 for s in self.detector_spacing):
            raise ValueError("detector_spacing must be positive")

        gram = self.detector_axes @ self.detector_axes.T
        if not np.allclose(gram, np.eye(2), atol=_ORTHO_TOL):
            raise ValueError("detector_axes must be orthonormal")

        # all emitters strictly off the detector plane, on a common side
        dist = (self.emitter_positions - self.detector_origin) @ self.normal
        if np.any(np.abs(dist) <= _PLANE_TOL):
            raise ValueError("emitters must lie strictly off the detector plane")
        if np.any(np.sign(dist) != np.sign(dist[0])):
            raise ValueError("emitters must all lie on the same side of the detector")

    @property
    def normal(self) -> np.ndarray:
        n = np.cross(self.detector_axes[0], self.detector_axes[1])
        return n / np.linalg.norm(n)

    def pixel_centers(self) -> np.ndarray:
        """World positions of pixel centers, shape (Wd, Hd, 3)."""
        wd, hd = self.detector_dims
        pu, pv = self.detector_spacing
        iu = np.arange(wd, dtype=np.float64) * pu
        iv = np.arange(hd, dtype=np.float64) * pv
        return (self.detector_origin[None, None, :]
                + iu[:, None, None] * self.detector_axes[0][None, None, :]
                + iv[None, :, None] * self.detector_axes[1][None, None, :])

    def allclose(self, other: "SdctGeometry", tol: float = 1e-9) -> bool:
        return (self.n_emitters == other.n_emitters
                and self.detector_dims == other.detector_dims
                and np.allclose(self.detector_spacing, other.detector_spacing, atol=tol)
                and np.allclose(self.emitter_positions, other.emitter_positions, atol=tol)
                and np.allclose(self.detector_origin, other.detector_origin, atol=tol)
                and np.allclose(self.detector_axes, other.detector_axes, atol=tol))


def build_sdct_geometry(n_emitters: int,
                        span_angle_deg: float,
                        source_detector_distance: float,
                        line_offset=(0.0, 0.0),
                        detector_dims=(128, 128),
                        detector_spacing=(1.0, 1.0)) -> SdctGeometry:
    """Place emitters evenly on a line parallel to a z=0 detector plane.

    The emitter line runs along the detector u axis at height
    ``source_detector_distance`` above the detector center (shifted by
    ``line_offset`` in detector coordinates).  Its length is chosen so the
    extreme emitters subtend ``span_angle_deg`` at the detector center.
    """
    n_emitters = int(n_emitters)
    if n_emitters < 1:
        raise ValueError("n_emitters must be >= 1")
    if not (0.0 < span_angle_deg < 180.0):
        raise ValueError("span_angle_deg must lie in (0, 180)")
    if source_detector_distance <= 0.0:
        raise ValueError("source_detector_distance must be positive")

    axes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    wd, hd = int(detector_dims[0]), int(detector_dims[1])
    pu, pv = float(detector_spacing[0]), float(detector_spacing[1])
    det_origin = np.array([-0.5 * (wd - 1) * pu, -0.5 * (hd - 1) * pv, 0.0])

    center = np.array([float(line_offset[0]), float(line_offset[1]),
                       float(source_detector_distance)])
    if n_emitters == 1:
        positions = center[None, :]
    else:
        half = np.radians(span_angle_deg) / 2.0
        length = 2.0 * source_detector_distance * np.tan(half)
        offsets = (np.arange(n_emitters, dtype=np.float64) / (n_emitters - 1) - 0.5) * length
        positions = center[None, :] + offsets[:, None] * np.array([1.0, 0.0, 0.0])

    return SdctGeometry(
        n_emitters=n_emitters,
        emitter_positions=positions,
        detector_origin=det_origin,
        detector_axes=axes,
        detector_dims=(wd, hd),
        detector_spacing=(pu, pv),
    )


# ---------------------------------------------------------------------------
# 2D images
# ---------------------------------------------------------------------------

@dataclass
class Image2D:
    """Detector-plane image indexed data[iu, iv]."""

    dims: tuple[int, int]
    spacing: tuple[float, float]
    data: np.ndarray

    def __post_init__(self):
        self.dims = (int(self.dims[0]), int(self.dims[1]))
        self.spacing = (float(self.spacing[0]), float(self.spacing[1]))
        self.data = np.asarray(self.data)
        if any(d < 1 for d in self.dims):
            raise ValueError("dims must be >= 1")
        if any(s <= 0 for s in self.spacing):
            raise ValueError("spacing must be positive")
        if self.data.shape != self.dims:
            raise ValueError(f"data shape {self.data.shape} does not match dims {self.dims}")
        if not np.issubdtype(self.data.dtype, np.floating):
            raise ValueError("data must be a float array")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("data contains non-finite values")


@dataclass
class ProjectionSet:
    """One detector image per emitter under a shared geometry."""

    geometry: SdctGeometry
    images: list

    def __post_init__(self):
        if len(self.images) != self.geometry.n_emitters:
            raise ValueError("projection count does not match n_emitters")
        for im in self.images:
            if im.dims != self.geometry.detector_dims:
                raise ValueError("projection dims do not match detector_dims")
            if np.any(im.data < 0.0):
                raise ValueError("projection values must be >= 0")


def default_step_mm(spacing) -> float:
    return 0.5 * float(min(spacing))


# ---------------------------------------------------------------------------
# DRR rendering
# ---------------------------------------------------------------------------

def _segment_box_range(c: np.ndarray, unit: np.ndarray, length: np.ndarray,
                       lo: np.ndarray, hi: np.ndarray):
    """Parameter interval of each ray inside an axis-aligned box."""
    tmin = np.zeros(unit.shape[0])
    tmax = length.copy()
    for a in range(3):
        ua = unit[:, a]
        ca = c[a]
        # a parallel (incl. subnormal) component's quotients are replaced below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t1 = (lo[a] - ca) / ua
            t2 = (hi[a] - ca) / ua
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
        parallel = np.abs(ua) < 1e-12
        inside = (ca >= lo[a]) & (ca <= hi[a])
        near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
        far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
        tmin = np.maximum(tmin, near)
        tmax = np.minimum(tmax, far)
    return tmin, tmax


class DrrOperator:
    """Precomputed fixed-step line-integral operator for one grid/geometry.

    Sample points along each emitter-to-pixel segment are fixed in world
    space, so the projection is an exactly linear map from voxel values to
    pixel values.  Both the forward map and its adjoint are exposed; the
    adjoint distributes pixel values back through the same interpolation
    weights, which keeps finite-difference checks of projection-domain
    losses consistent.
    """

    def __init__(self, grid: GridSpec, geometry: SdctGeometry,
                 step_mm: float | None = None):
        if step_mm is None:
            step_mm = default_step_mm(grid.spacing)
        if step_mm <= 0.0:
            raise ValueError("step_mm must be positive")
        self.grid = grid
        self.geometry = geometry
        self.step_mm = float(step_mm)
        self._mats: dict[int, sparse.csr_matrix] = {}

    def _mat(self, emitter_index: int) -> sparse.csr_matrix:
        if not (0 <= emitter_index < self.geometry.n_emitters):
            raise ValueError(f"emitter_index {emitter_index} out of range")
        mat = self._mats.get(emitter_index)
        if mat is None:
            mat = self._build(emitter_index)
            self._mats[emitter_index] = mat
        return mat

    def _build(self, emitter_index: int):
        grid, geom, step = self.grid, self.geometry, self.step_mm
        c = geom.emitter_positions[emitter_index]
        pix = geom.pixel_centers().reshape(-1, 3)
        npix = pix.shape[0]

        delta = pix - c[None, :]
        length = np.linalg.norm(delta, axis=1)
        if np.any(length < 1e-9):
            raise ValueError("emitter coincides with a detector pixel center")
        unit = delta / length[:, None]

        # interpolant support: voxel-center extent padded by one spacing
        sp = np.asarray(grid.spacing)
        lo = np.asarray(grid.origin) - sp
        hi = np.asarray(grid.origin) + (np.asarray(grid.dims) - 1) * sp + sp
        tmin, tmax = _segment_box_range(c, unit, length, lo, hi)
        # a ray parallel to an axis outside the box misses with infinite bounds
        hit = tmax > tmin
        tmin, tmax = np.where(hit, tmin, 0.0), np.where(hit, tmax, 0.0)

        n_total = np.floor(length / step).astype(np.int64)
        k0 = np.maximum(0, np.ceil(tmin / step - 1.5).astype(np.int64))
        k1 = np.minimum(n_total - 1, np.floor(tmax / step + 0.5).astype(np.int64))
        k1 = np.where(hit, k1, -1)
        count = np.maximum(0, k1 - k0 + 1)

        rows_acc, cols_acc, vals_acc = [], [], []
        for start in range(0, npix, _CHUNK_PIXELS):
            sl = slice(start, min(start + _CHUNK_PIXELS, npix))
            cnt = count[sl]
            m = int(cnt.max()) if cnt.size else 0
            if m == 0:
                continue
            ks = k0[sl][:, None] + np.arange(m)[None, :]
            valid = ks <= k1[sl][:, None]
            t = (ks + 0.5) * step
            pts = c[None, None, :] + t[:, :, None] * unit[sl][:, None, :]
            rows = np.broadcast_to(np.arange(sl.start, sl.stop)[:, None], ks.shape)
            point, cols, wgt = trilinear_weights(grid, pts[valid])
            rows_acc.append(rows[valid][point])
            cols_acc.append(cols)
            vals_acc.append(step * wgt)

        if rows_acc:
            rows = np.concatenate(rows_acc)
            cols = np.concatenate(cols_acc)
            vals = np.concatenate(vals_acc)
        else:
            rows = np.empty(0, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
            vals = np.empty(0, dtype=np.float64)
        mat = sparse.coo_matrix((vals, (rows, cols)),
                                shape=(npix, grid.n_voxels)).tocsr()
        mat.sum_duplicates()
        return mat

    def forward(self, vol_data: np.ndarray, emitter_index: int) -> np.ndarray:
        """Project (W,H,D) voxel values to a (Wd,Hd) detector image."""
        flat = np.ascontiguousarray(vol_data, dtype=np.float64).reshape(-1)
        out = self._mat(emitter_index) @ flat
        return out.reshape(self.geometry.detector_dims)

    def adjoint(self, pix_data: np.ndarray, emitter_index: int) -> np.ndarray:
        """Transpose map: (Wd,Hd) pixel values back to (W,H,D) voxels."""
        flat = np.ascontiguousarray(pix_data, dtype=np.float64).reshape(-1)
        out = self._mat(emitter_index).T @ flat
        return out.reshape(self.grid.dims)

    def render(self, vol: Image3D, emitter_index: int) -> Image2D:
        if vol.grid != self.grid:
            raise ValueError("volume grid does not match the operator grid")
        return Image2D(self.geometry.detector_dims,
                       self.geometry.detector_spacing,
                       self.forward(vol.data, emitter_index))

    def render_all(self, vol: Image3D) -> ProjectionSet:
        images = [self.render(vol, i) for i in range(self.geometry.n_emitters)]
        return ProjectionSet(geometry=self.geometry, images=images)


def render_drr(vol: Image3D, geometry: SdctGeometry, emitter_index: int,
               step_mm: float | None = None) -> Image2D:
    """Fixed-step line integral of ``vol`` from one emitter to every pixel.

    Samples sit at t = (k + 1/2) * step_mm along each emitter-to-pixel
    segment; the integral is step_mm times the sum of trilinear samples.
    """
    if not (0 <= emitter_index < geometry.n_emitters):
        raise ValueError(f"emitter_index {emitter_index} out of range")
    op = DrrOperator(vol.grid, geometry, step_mm)
    return op.render(vol, emitter_index)


# ---------------------------------------------------------------------------
# backprojection lift
# ---------------------------------------------------------------------------

@dataclass
class LiftedVolume:
    """Per-emitter backprojected channels plus undefined-projection count."""

    channels: list          # one Image3D per emitter
    n_undefined: int


def lift3d(projs: ProjectionSet, target_grid: GridSpec) -> LiftedVolume:
    """Backproject each projection into volume space.

    Every voxel center is projected through its emitter onto the detector
    plane and receives the bilinearly interpolated pixel value (zero when
    the projection falls outside the detector).  The image is read as a
    one-voxel-deep volume by ``sample_trilinear``, so detector coordinates
    within 1e-9 of a pixel center snap onto it, as the warp's voxel
    coordinates do.  No ray-length weighting is applied.  Voxels whose
    projection is undefined (voxel at the emitter, or sight line parallel
    to the detector plane) get zero and are counted.
    """
    geom = projs.geometry
    pts = target_grid.voxel_centers().reshape(-1, 3)
    normal = geom.normal
    pu, pv = geom.detector_spacing
    plane_off = float(geom.detector_origin @ normal)

    channels = []
    n_undef = 0
    for i in range(geom.n_emitters):
        c = geom.emitter_positions[i]
        d = pts - c[None, :]
        denom = d @ normal
        dist = np.linalg.norm(d, axis=1)
        bad = (np.abs(denom) < 1e-12) | (dist < 1e-12)
        n_undef += int(np.count_nonzero(bad))

        s = np.where(bad, 1.0, (plane_off - c @ normal) / np.where(bad, 1.0, denom))
        hit = c[None, :] + s[:, None] * d
        rel = hit - geom.detector_origin[None, :]
        gu = (rel @ geom.detector_axes[0]) / pu
        gv = (rel @ geom.detector_axes[1]) / pv
        img = projs.images[i].data.astype(np.float64, copy=False)
        g = np.stack([gu, gv, np.zeros_like(gu)], axis=1)
        vals = sample_trilinear(img[..., None], g)
        vals = np.where(bad, 0.0, vals)
        channels.append(Image3D(target_grid.dims, target_grid.spacing,
                                target_grid.origin,
                                vals.reshape(target_grid.dims)))
    return LiftedVolume(channels=channels, n_undefined=n_undef)
