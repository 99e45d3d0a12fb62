"""Regular-grid volumes, displacement fields, interpolation and warping.

Array conventions used across the package:

* scalar volumes are indexed ``data[x, y, z]`` with ``dims = (W, H, D)``;
* vector fields append a trailing component axis, ``data[x, y, z, c]``;
* ``spacing`` and ``origin`` are world millimeters and voxel ``(i, j, k)``
  is centered at ``origin + (i * sx, j * sy, k * sz)``;
* displacement values are world millimeters, so fields move points between
  grids with different (anisotropic) spacings without rescaling;
* interpolation uses a zero-padding convention: contributions from corner
  voxels outside the grid are zero.  Every grid read of the package (the
  warp, the DRR matrix weights, the lift's detector reads) goes through
  ``_pad`` and ``_padded_index``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# fractional coordinates this close to a lattice point snap onto it, so
# grid-aligned sampling reproduces stored voxel values bit for bit
_ALIGN_EPS = 1e-9


def _tuple3(values, kind):
    t = tuple(kind(v) for v in values)
    if len(t) != 3:
        raise ValueError(f"expected 3 entries, got {len(t)}")
    return t


# ---------------------------------------------------------------------------
# grid description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Voxel lattice: counts, mm spacing and world position of voxel (0,0,0)."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "dims", _tuple3(self.dims, int))
        object.__setattr__(self, "spacing", _tuple3(self.spacing, float))
        object.__setattr__(self, "origin", _tuple3(self.origin, float))
        if any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be >= 1 per axis, got {self.dims}")
        if any(not np.isfinite(s) or s <= 0.0 for s in self.spacing):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        if any(not np.isfinite(o) for o in self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")

    @property
    def n_voxels(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    def voxel_centers(self) -> np.ndarray:
        """World coordinates of every voxel center, shape (W, H, D, 3)."""
        axes = [
            self.origin[a] + self.spacing[a] * np.arange(self.dims[a], dtype=np.float64)
            for a in range(3)
        ]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        return np.stack([gx, gy, gz], axis=-1)

    def world_to_voxel(self, pts: np.ndarray) -> np.ndarray:
        """Continuous voxel coordinates of world points (..., 3)."""
        pts = np.asarray(pts, dtype=np.float64)
        return (pts - np.asarray(self.origin)) / np.asarray(self.spacing)

    def voxel_to_world(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.float64)
        return np.asarray(self.origin) + idx * np.asarray(self.spacing)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """True for points inside the voxel-center extent of the grid."""
        g = self.world_to_voxel(np.atleast_2d(pts))
        hi = np.asarray(self.dims, dtype=np.float64) - 1.0
        return np.all((g >= 0.0) & (g <= hi), axis=-1)


def _validate_grid_payload(obj, expected_ndim: int):
    grid = GridSpec(obj.dims, obj.spacing, obj.origin)  # reuse grid validation
    data = np.asarray(obj.data)
    if data.ndim != expected_ndim:
        raise ValueError(f"data must have {expected_ndim} axes, got {data.ndim}")
    if tuple(data.shape[:3]) != grid.dims:
        raise ValueError(f"data shape {data.shape[:3]} does not match dims {grid.dims}")
    if not np.issubdtype(data.dtype, np.floating):
        raise ValueError(f"data must be a float array, got dtype {data.dtype}")
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite values")
    return grid, data


# ---------------------------------------------------------------------------
# field containers
# ---------------------------------------------------------------------------

@dataclass
class Image3D:
    """Scalar intensity volume on a regular grid."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        grid, data = _validate_grid_payload(self, 3)
        self.dims, self.spacing, self.origin = grid.dims, grid.spacing, grid.origin
        self.data = data

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.dims, self.spacing, self.origin)


@dataclass
class Mask3D:
    """Binary volume; voxel values are exactly 0 or 1."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        grid, data = _validate_grid_payload(self, 3)
        if not np.all((data == 0.0) | (data == 1.0)):
            raise ValueError("mask values must be exactly 0 or 1")
        self.dims, self.spacing, self.origin = grid.dims, grid.spacing, grid.origin
        self.data = data

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.dims, self.spacing, self.origin)


@dataclass
class DisplacementField:
    """Per-voxel world-mm displacement vectors, data[x, y, z, c]."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        grid, data = _validate_grid_payload(self, 4)
        if data.shape[3] != 3:
            raise ValueError(f"displacement data must have 3 components, got {data.shape[3]}")
        self.dims, self.spacing, self.origin = grid.dims, grid.spacing, grid.origin
        self.data = data

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.dims, self.spacing, self.origin)


def zero_displacement(grid: GridSpec, dtype=np.float64) -> DisplacementField:
    return DisplacementField(
        grid.dims, grid.spacing, grid.origin,
        np.zeros(grid.dims + (3,), dtype=dtype),
    )


@dataclass
class Landmarks:
    """Labelled world-mm points; ids are unique integers."""

    ids: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64).reshape(-1)
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if self.ids.shape[0] != self.points.shape[0]:
            raise ValueError("ids and points disagree in length")
        if np.unique(self.ids).size != self.ids.size:
            raise ValueError("landmark ids must be unique")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("landmark coordinates must be finite")

    def __len__(self) -> int:
        return int(self.ids.size)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def _snap_fraction(g: np.ndarray):
    """Split continuous voxel coords into base index and snapped fraction.

    The base index stays a float; ``_padded_index`` bounds it before the
    integer cast, so coordinates beyond the int64 range are well defined.
    """
    i0 = np.floor(g)
    f = g - i0
    hi = f > 1.0 - _ALIGN_EPS
    i0 += hi
    f = np.where(hi, 0.0, f)
    f = np.where(f < _ALIGN_EPS, 0.0, f)
    return i0, f


# corner steps (dx, dy, dz) of a trilinear cell, x fastest as _planes reads them
_CELL_X_FASTEST = np.array([(dx, dy, dz) for dz in (0, 1)
                            for dy in (0, 1) for dx in (0, 1)])
# the same corners z fastest, the order of the DRR matrix entries
_CELL_Z_FASTEST = np.array([(dx, dy, dz) for dx in (0, 1)
                            for dy in (0, 1) for dz in (0, 1)])
_VOXEL = np.zeros((1, 3), dtype=np.int64)


def _pad(data: np.ndarray, fill) -> np.ndarray:
    """``data`` with a border of two voxels of ``fill`` on each spatial axis."""
    out = np.full(tuple(n + 4 for n in data.shape[:3]) + data.shape[3:], fill,
                  dtype=np.result_type(data, fill))
    out[2:-2, 2:-2, 2:-2] = data
    return out


def _padded_index(dims, i0: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Flat indices (k, n) into ``_pad`` of a dims grid for voxels i0 + offsets.

    Each whole-valued float base index i0 (n,3) is clipped into the pad, to
    [-2, dim] per axis, before it is cast to int64, so with offsets of 0 or
    1 a voxel outside the grid always lands on the fill, however far out.
    This is the package's only bounds rule for grid reads.
    """
    sy = dims[2] + 4
    sx = (dims[1] + 4) * sy
    i0 = np.clip(i0, -2, np.asarray(dims)).astype(np.int64) + 2
    base = i0[:, 0] * sx + i0[:, 1] * sy + i0[:, 2]
    return base[None, :] + (offsets @ np.array([sx, sy, 1]))[:, None]


def _gather_corners(data: np.ndarray, g: np.ndarray):
    """The 8 cell corners around each voxel coord g (n,3), in one gather.

    Returns the corners (8, n) or (8, n, C), ordered with x fastest
    (c000, c100, c010, c110, c001, ...), and the snapped fractions (n, 3).
    A cell with any corner outside the grid reads zeros there.
    """
    i0, f = _snap_fraction(np.asarray(g, dtype=np.float64))
    flat = _pad(data, 0.0).reshape((-1,) + data.shape[3:])
    return flat.take(_padded_index(data.shape[:3], i0, _CELL_X_FASTEST), axis=0), f


def trilinear_weights(grid: GridSpec, pts: np.ndarray):
    """Nonzero trilinear weights of world points (n,3) on the voxels of grid.

    Returns (point, voxel, weight): for each point in turn, its in-grid
    corners with a positive weight, z fastest, as a point index, a flat
    voxel index and the weight (1 - f or f per axis, multiplied x, y, z).
    The corners are listed z fastest because the DRR matrix is built from
    these entries and scipy's CSR index sort is not stable: with x-fastest
    corners, duplicate entries were summed in another order and every
    matrix changed in the last bit.
    """
    i0, f = _snap_fraction(grid.world_to_voxel(pts))
    wx, wy, wz = (np.stack([1.0 - f[:, a], f[:, a]]) for a in range(3))
    w = ((wx[:, None, None] * wy[None, :, None]) * wz[None, None, :]).reshape(8, -1)
    voxel = _pad(np.arange(grid.n_voxels).reshape(grid.dims), -1).reshape(-1)
    col = voxel.take(_padded_index(grid.dims, i0, _CELL_Z_FASTEST))
    keep = ((col >= 0) & (w > 0.0)).T
    point = np.repeat(np.arange(keep.shape[0]), np.count_nonzero(keep, axis=1))
    return point, col.T[keep], w.T[keep]


def _weights(f: np.ndarray, ndim: int):
    """Per-axis (1 - f, f) weights shaped to broadcast against one corner."""
    tail = (1,) * (ndim - 2)
    return [(1.0 - fa, fa) for fa in (f[:, a].reshape((-1,) + tail) for a in range(3))]


def _planes(corners: np.ndarray, wx, wy) -> np.ndarray:
    """The interpolant on the lower and upper z face of each cell, (2, n[, C])."""
    c = corners.reshape((2, 2, 2) + corners.shape[1:])  # [z, y, x]
    cx = c[:, :, 0] * wx[0] + c[:, :, 1] * wx[1]
    return cx[:, 0] * wy[0] + cx[:, 1] * wy[1]


def _interpolate(corners: np.ndarray, f: np.ndarray):
    """Trilinear values from gathered corners: along x, then y, then z.

    Returns the values and the two z-face planes they were blended from,
    which the derivative reuses.
    """
    wx, wy, (gz0, gz1) = _weights(f, corners.ndim)
    planes = _planes(corners, wx, wy)
    return planes[0] * gz0 + planes[1] * gz1, planes


def _interpolant_gradient(corners: np.ndarray, f: np.ndarray,
                          planes: np.ndarray) -> np.ndarray:
    """Exact spatial derivative of the interpolant in voxel units, (n,3[,C]).

    ``planes`` are the z-face planes ``_interpolate`` returned for the same
    corners and fractions.
    """
    wx, wy, (gz0, gz1) = _weights(f, corners.ndim)
    c = corners.reshape((2, 2, 2) + corners.shape[1:])  # [z, y, x]
    ex = c[:, :, 1] - c[:, :, 0]
    ex = ex[:, 0] * wy[0] + ex[:, 1] * wy[1]
    ey = c[:, 1] - c[:, 0]
    ey = ey[:, 0] * wx[0] + ey[:, 1] * wx[1]
    lo, hi = planes
    return np.stack([ex[0] * gz0 + ex[1] * gz1,
                     ey[0] * gz0 + ey[1] * gz1,
                     hi - lo], axis=1)


def sample_trilinear(data: np.ndarray, g: np.ndarray, with_gradient: bool = False):
    """Trilinear sampling of (W,H,D) or (W,H,D,C) data at voxel coords g (n,3).

    Returns values (n,) or (n,C); with ``with_gradient`` also the exact
    spatial derivative of the interpolant in voxel units, (n,3) or (n,3,C).
    Corners outside the grid contribute zero.

    All eight corners of every point come from one gather over a copy of
    ``data`` zero-padded by two voxels, which materializes 8 values per
    point (and channel).  The derivative is computed from those same
    corners; ``warp_scalar_with_gradient`` keeps them so that a caller can
    ask for it later, or never.
    """
    corners, f = _gather_corners(data, g)
    vals, planes = _interpolate(corners, f)
    if not with_gradient:
        return vals
    return vals, _interpolant_gradient(corners, f, planes)


def sample_nearest(data: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Nearest-voxel sampling with zeros outside the grid (ties round up)."""
    idx = np.floor(np.asarray(g, dtype=np.float64) + 0.5)
    flat = _pad(data, 0.0).reshape((-1,) + data.shape[3:])
    return flat.take(_padded_index(data.shape[:3], idx, _VOXEL)[0], axis=0)


def trilinear_sample(vol: Image3D, p) -> float:
    """Interpolated intensity at one world-mm point; 0 outside the grid."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    if p.shape != (3,):
        raise ValueError(f"point must have 3 coordinates, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("sample point must be finite")
    g = vol.grid.world_to_voxel(p[None, :])
    return float(sample_trilinear(vol.data, g)[0])


def sample_displacement(u: DisplacementField, pts: np.ndarray) -> np.ndarray:
    """Trilinear displacement vectors at world points (n, 3) -> (n, 3)."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    if not np.all(np.isfinite(pts)):
        raise ValueError("sample points must be finite")
    g = u.grid.world_to_voxel(pts)
    return sample_trilinear(u.data, g)


# ---------------------------------------------------------------------------
# warping
# ---------------------------------------------------------------------------

def _warp_coords(src_grid: GridSpec, u: DisplacementField) -> np.ndarray:
    """Continuous source-voxel coords of x + u(x) for every target voxel."""
    sp = np.asarray(src_grid.spacing)
    g = u.data.astype(np.float64)
    same = src_grid == u.grid
    if same:
        # index-space arithmetic keeps grid-aligned samples exact for u == 0
        g /= sp
    for a, n in enumerate(u.dims):
        ramp = np.arange(n, dtype=np.float64)
        if not same:
            ramp = u.origin[a] + u.spacing[a] * ramp
        g[..., a] += ramp.reshape((-1,) + (1,) * (2 - a))
    if not same:
        g -= np.asarray(src_grid.origin)
        g /= sp
    return g.reshape(-1, 3)


def warp_image(src, u: DisplacementField, interp: str = "trilinear"):
    """Resample ``src`` at x + u(x) over the grid of ``u``.

    Masks must be warped with ``interp="nearest"`` so values stay binary.
    """
    if interp not in ("trilinear", "nearest"):
        raise ValueError(f"unknown interpolation mode {interp!r}")
    if isinstance(src, Mask3D) and interp != "nearest":
        raise ValueError("Mask3D must be warped with nearest-neighbor interpolation")
    g = _warp_coords(src.grid, u)
    if interp == "trilinear":
        vals = sample_trilinear(src.data.astype(np.float64, copy=False), g)
    else:
        vals = sample_nearest(src.data.astype(np.float64, copy=False), g)
    out = vals.reshape(u.dims).astype(src.data.dtype, copy=False)
    cls = Mask3D if isinstance(src, Mask3D) else Image3D
    return cls(u.dims, u.spacing, u.origin, out)


def warp_scalar_with_gradient(data: np.ndarray, src_grid: GridSpec,
                              u: DisplacementField):
    """Warped values plus a callable for d(warped)/d(displacement) in 1/mm.

    The warp is the value phase: it gathers the eight corners of every
    sample point once and returns the warped (W,H,D) volume.  The returned
    zero-argument callable is the gradient phase: it finishes the
    (W,H,D,3) derivative from those same corners and the two z-face planes
    the values were blended from, so a caller that needs only values never
    pays for it.  The closure holds the corners, the fractions and the
    planes, 13 floats per voxel, for as long as the caller keeps it;
    ``LossContext`` keeps the closures of its last two evaluations.

    The gradient is the exact spatial derivative of the trilinear
    interpolant at the sample points, so finite differences of downstream
    losses agree with chain-rule gradients at tight tolerance.
    """
    corners, f = _gather_corners(data, _warp_coords(src_grid, u))
    sp = np.asarray(src_grid.spacing)
    shape = u.dims + (3,)

    vals, planes = _interpolate(corners, f)

    def gradient():
        return (_interpolant_gradient(corners, f, planes) / sp).reshape(shape)

    return vals.reshape(u.dims), gradient


# ---------------------------------------------------------------------------
# differential quantities
# ---------------------------------------------------------------------------

def image_gradient(vol: Image3D) -> np.ndarray:
    """Spatial gradient in 1/mm: central differences inside, one-sided at faces."""
    gx, gy, gz = np.gradient(vol.data.astype(np.float64, copy=False), *vol.spacing)
    return np.stack([gx, gy, gz], axis=-1)


@dataclass(frozen=True)
class JacobianStats:
    pct_negative: float
    min_det: float


def jacobian_stats(u: DisplacementField) -> JacobianStats:
    """det(I + grad u) statistics over interior voxels (central differences)."""
    W, H, D = u.dims
    if min(W, H, D) < 3:
        raise ValueError("jacobian stats need at least 3 voxels per axis")
    data = u.data.astype(np.float64, copy=False)
    sp = u.spacing
    core = (slice(1, -1), slice(1, -1), slice(1, -1))

    J = np.empty((W - 2, H - 2, D - 2, 3, 3), dtype=np.float64)
    for d, ax in enumerate(range(3)):
        plus = [slice(1, -1)] * 3
        minus = [slice(1, -1)] * 3
        plus[ax] = slice(2, None)
        minus[ax] = slice(0, -2)
        diff = (data[tuple(plus)] - data[tuple(minus)]) / (2.0 * sp[d])
        J[..., :, d] = diff
    J[..., 0, 0] += 1.0
    J[..., 1, 1] += 1.0
    J[..., 2, 2] += 1.0

    a, b, c = J[..., 0, 0], J[..., 0, 1], J[..., 0, 2]
    d_, e, f = J[..., 1, 0], J[..., 1, 1], J[..., 1, 2]
    g, h, i = J[..., 2, 0], J[..., 2, 1], J[..., 2, 2]
    det = a * (e * i - f * h) - b * (d_ * i - f * g) + c * (d_ * h - e * g)

    pct = 100.0 * float(np.count_nonzero(det < 0.0)) / det.size
    return JacobianStats(pct_negative=pct, min_det=float(det.min()))
