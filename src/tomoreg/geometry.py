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

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .grids import (GridSpec, Image3D, _array, _checked_payload, _entries,
                    _real, _whole, sample_trilinear, trilinear_weights)

_ORTHO_TOL = 1e-9
_PLANE_TOL = 1e-9
_MATCH_TOL = 1e-9  # mm; geometry entries further apart than this differ
_MAX_STEPS = 2.0 ** 53  # samples per ray whose indices float64 holds exactly


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
        self.n_emitters = _whole(self.n_emitters, "n_emitters", "count")
        self.detector_dims = _entries(self.detector_dims, 2, _whole, "detector_dims", "count")
        self.detector_spacing = _entries(self.detector_spacing, 2, _real,
                                         "detector_spacing", "> 0")
        self.emitter_positions = _array(self.emitter_positions, "emitter_positions",
                                        (self.n_emitters, 3))
        self.detector_origin = _array(self.detector_origin, "detector_origin", (3,))
        self.detector_axes = _array(self.detector_axes, "detector_axes", (2, 3))

        with np.errstate(over="ignore", invalid="ignore"):  # huge entries fail below
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

    def allclose(self, other: "SdctGeometry") -> bool:
        """Same counts and dims, every array equal within an absolute 1e-9."""
        return (self.n_emitters == other.n_emitters
                and self.detector_dims == other.detector_dims
                and all(np.allclose(getattr(self, name), getattr(other, name),
                                    rtol=0.0, atol=_MATCH_TOL)
                        for name in ("detector_spacing", "emitter_positions",
                                     "detector_origin", "detector_axes")))


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
    n_emitters = _whole(n_emitters, "n_emitters", "count")
    span_angle_deg = _real(span_angle_deg, "span_angle_deg", "(0, 180)")
    source_detector_distance = _real(source_detector_distance,
                                     "source_detector_distance", "> 0")

    axes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    wd, hd = _entries(detector_dims, 2, _whole, "detector_dims", "count")
    pu, pv = _entries(detector_spacing, 2, _real, "detector_spacing")
    det_origin = np.array([-0.5 * (wd - 1) * pu, -0.5 * (hd - 1) * pv, 0.0])

    center = np.array([*_entries(line_offset, 2, _real, "line_offset"),
                       source_detector_distance])
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
# projections
# ---------------------------------------------------------------------------

@dataclass
class ProjectionSet:
    """One detector image per emitter under a shared geometry, stacked.

    ``data[iu, iv, i]`` is pixel (iu, iv) of emitter i, so the shape is
    ``detector_dims + (n_emitters,)``; dims and pixel pitch are the
    geometry's.
    """

    geometry: SdctGeometry
    data: np.ndarray

    def __post_init__(self):
        self.data = _checked_payload(self.data, 3, self.geometry.detector_dims)
        if self.data.shape[2] != self.geometry.n_emitters:
            raise ValueError(f"projection count {self.data.shape[2]} does not match "
                             f"n_emitters {self.geometry.n_emitters}")
        if np.any(self.data < 0.0):
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
    pixel values.  Both the forward map and its adjoint are exposed, each
    acting on every emitter at once in the ``ProjectionSet`` layout
    ``detector_dims + (n_emitters,)``; the adjoint distributes pixel values
    back through the same interpolation weights, which keeps
    finite-difference checks of projection-domain losses consistent.

    The emitters' matrices are built on first use (``render_all`` forces
    them) and stacked into one CSR matrix, kept with a CSR copy of its
    transpose so that the adjoint is a row-wise product too.  The copy
    doubles the matrices' memory.  With four emitters each of the two
    takes about 7 MB at 32 cubed (40 x 40 pixels) and about 60 MB at 64
    cubed (80 x 80 pixels), about 15 MB per emitter.
    """

    def __init__(self, grid: GridSpec, geometry: SdctGeometry,
                 step_mm: float | None = None):
        step_mm = (default_step_mm(grid.spacing) if step_mm is None
                   else _real(step_mm, "step_mm", "> 0"))
        self.grid = grid
        self.geometry = geometry
        self.step_mm = step_mm
        self._stack: tuple[sparse.csr_matrix, sparse.csr_matrix] | None = None

    def _matrices(self):
        """The stacked matrix A and a CSR copy of its transpose, built once.

        Row p * n_emitters + i of A is emitter i's matrix row for pixel p,
        so A @ volume is the ``ProjectionSet`` layout and the rows of each
        emitter are every n_emitters-th row.  Each row is ``_build``'s row,
        entry for entry, so A's products equal each emitter's own.
        """
        if self._stack is None:
            n = self.geometry.n_emitters
            A = sparse.vstack([self._build(i) for i in range(n)], format="csr")
            npix = A.shape[0] // n
            A = A[(np.arange(n) * npix + np.arange(npix)[:, None]).reshape(-1)]
            self._stack = A, A.T.tocsr()
        return self._stack

    def _nnz(self) -> np.ndarray:
        """Stored entries of each emitter's matrix, read from A's row pointers."""
        A = self._matrices()[0]
        return np.diff(A.indptr).reshape(-1, self.geometry.n_emitters).sum(axis=0)

    def _build(self, emitter_index: int):
        grid, geom, step = self.grid, self.geometry, self.step_mm
        c = geom.emitter_positions[emitter_index]
        pix = geom.pixel_centers().reshape(-1, 3)
        npix = pix.shape[0]

        delta = pix - c[None, :]
        with np.errstate(over="ignore"):  # an overflowing length fails below
            length = np.linalg.norm(delta, axis=1)
        if np.any(length < 1e-9):
            raise ValueError("emitter coincides with a detector pixel center")
        if not np.all(length < _MAX_STEPS * step):
            raise ValueError(f"emitter {emitter_index}: a ray of {length.max():.3g} mm "
                             f"needs more than 2**53 steps of {step} mm")
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

        # Samples k0..k1 of each ray, one past the box at either end for
        # rounding; a sample outside the box has no in-grid corner of
        # positive weight, so dropping it drops nothing.  One pass lists
        # them ray by ray, k ascending: entry j is ray ray[j] at
        # k = k0 + j - start, start being the ray's first entry.
        ray = np.repeat(np.arange(npix), count)
        start = np.cumsum(count) - count
        t = (np.arange(ray.size) + (k0 - start)[ray] + 0.5) * step
        point, cols, wgt = trilinear_weights(grid, c[None, :] + t[:, None] * unit[ray])
        # tocsr sums duplicate entries and leaves the matrix canonical
        return sparse.coo_matrix((step * wgt, (ray[point], cols)),
                                 shape=(npix, grid.n_voxels)).tocsr()

    def forward(self, vol_data: np.ndarray) -> np.ndarray:
        """Project (W,H,D) voxel values through every emitter at once.

        Returns ``detector_dims + (n_emitters,)``, the ``ProjectionSet``
        layout, from one sparse product.
        """
        flat = np.ascontiguousarray(vol_data, dtype=np.float64).reshape(-1)
        out = self._matrices()[0] @ flat
        return out.reshape(self.geometry.detector_dims + (self.geometry.n_emitters,))

    def adjoint(self, pix_data: np.ndarray) -> np.ndarray:
        """Transpose map: ``detector_dims + (n_emitters,)`` pixel values back to
        (W,H,D) voxels, summed over the emitters in one sparse product."""
        flat = np.ascontiguousarray(pix_data, dtype=np.float64).reshape(-1)
        out = self._matrices()[1] @ flat
        return out.reshape(self.grid.dims)

    def render_all(self, vol: Image3D) -> ProjectionSet:
        """Every emitter's projection of ``vol``, stacked on the last axis."""
        if vol.grid != self.grid:
            raise ValueError("volume grid does not match the operator grid")
        return ProjectionSet(self.geometry, self.forward(vol.data))


# ---------------------------------------------------------------------------
# backprojection lift
# ---------------------------------------------------------------------------

@dataclass
class LiftedVolume:
    """Per-emitter backprojections on the target grid, ``data[x, y, z, i]``,
    plus the count of voxel projections that were undefined."""

    data: np.ndarray        # (W, H, D, n_emitters)
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

    out = np.empty((pts.shape[0], geom.n_emitters))
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
        img = projs.data[..., i].astype(np.float64)
        g = np.stack([gu, gv, np.zeros_like(gu)], axis=1)
        out[:, i] = np.where(bad, 0.0, sample_trilinear(img[..., None], g))
    return LiftedVolume(data=out.reshape(target_grid.dims + (geom.n_emitters,)),
                        n_undefined=n_undef)
