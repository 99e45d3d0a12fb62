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

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

# fractional coordinates this close to a lattice point snap onto it, so
# grid-aligned sampling reproduces stored voxel values bit for bit
_ALIGN_EPS = 1e-9


# the largest count that sizes an array: voxels along one axis, emitters,
# detector pixels along one axis, channels.  A larger one is refused at the
# reader, naming its field, before anything is allocated.
_MAX_COUNT = 2 ** 16

# the bounds a scalar field may carry: the test, and what the error says
# the field must do
_BOUNDS = {
    None: (lambda x: True, "be finite"),
    ">= 0": (lambda x: x >= 0.0, "be finite and >= 0"),
    ">= 1": (lambda x: x >= 1.0, "be finite and >= 1"),
    "count": (lambda x: 1.0 <= x <= _MAX_COUNT, f"lie in [1, {_MAX_COUNT}]"),
    "> 0": (lambda x: x > 0.0, "be positive and finite"),
    "(0, 1]": (lambda x: 0.0 < x <= 1.0, "lie in (0, 1]"),
    "(0, 180)": (lambda x: 0.0 < x < 180.0, "lie in (0, 180)"),
}


def _real(value, name: str, bound=None, kind: str = "real number") -> float:
    """A finite real number within ``bound`` (a key of ``_BOUNDS``) as a float.

    The one reader of a scalar from outside.  A boolean or a string, which
    float() would read as 1.0 or 2.5, is not a ``kind``, nor is null, a
    list or an object; every error names the field.
    """
    if isinstance(value, (bool, np.bool_, str)):
        raise ValueError(f"{name} must be a {kind}, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a {kind}, got {value!r}") from None
    within, rule = _BOUNDS[bound]
    if not (math.isfinite(x) and within(x)):
        raise ValueError(f"{name} must {rule}, got {value}")
    return x


def _whole(value, name: str, bound=None) -> int:
    """A count as an int, read by ``_real``; 16.0 passes, 2.7 is rejected."""
    _real(value, name, bound, "whole number")
    count = int(value)
    if count != value:
        raise ValueError(f"{name} must be a whole number, got {value}")
    return count


def _entries(values, n: int, convert, name: str, *args) -> tuple:
    """``values`` as exactly ``n`` entries, each read by ``convert(v, name, *args)``."""
    try:
        t = tuple(values)
    except TypeError:  # a number or null where a list belongs
        raise ValueError(f"{name} must have {n} entries, got {values!r}") from None
    if len(t) != n:
        raise ValueError(f"{name} must have {n} entries, got {len(t)}")
    return tuple(convert(v, name, *args) for v in t)


def _array(values, name: str, shape: tuple, bound=None):
    """``values`` as a float array of ``shape``, each entry read by ``_real``."""
    if not shape:
        return _real(values, name, bound)
    return np.array(_entries(values, shape[0], _array, name, shape[1:], bound),
                    dtype=np.float64).reshape(shape)


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
        object.__setattr__(self, "dims", _entries(self.dims, 3, _whole, "dims", "count"))
        object.__setattr__(self, "spacing",
                           _entries(self.spacing, 3, _real, "spacing", "> 0"))
        object.__setattr__(self, "origin", _entries(self.origin, 3, _real, "origin"))

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

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """True for points inside the voxel-center extent of the grid."""
        g = self.world_to_voxel(np.atleast_2d(pts))
        hi = np.asarray(self.dims, dtype=np.float64) - 1.0
        return np.all((g >= 0.0) & (g <= hi), axis=-1)


def _checked_payload(data, ndim: int, dims: tuple) -> np.ndarray:
    """``data`` as an array of ``ndim`` axes whose leading axes are ``dims``.

    The one payload check of the package: axis count, shape, float dtype
    and finiteness, in that order.
    """
    data = np.asarray(data)
    if data.ndim != ndim:
        raise ValueError(f"data must have {ndim} axes, got {data.ndim}")
    if tuple(data.shape[:len(dims)]) != dims:
        raise ValueError(f"data shape {data.shape[:len(dims)]} does not match dims {dims}")
    if not np.issubdtype(data.dtype, np.floating):
        raise ValueError(f"data must be a float array, got dtype {data.dtype}")
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite values")
    return data


# ---------------------------------------------------------------------------
# field containers
# ---------------------------------------------------------------------------

@dataclass
class GridContainer:
    """Base of every container that lives on a grid: dims, spacing, origin.

    The three are normalised and validated once, through ``GridSpec``, so a
    container holds plain int and float tuples that ``grid`` turns back
    into the same ``GridSpec``.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]

    def __post_init__(self):
        grid = self.grid
        self.dims, self.spacing, self.origin = grid.dims, grid.spacing, grid.origin

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.dims, self.spacing, self.origin)


@dataclass
class GridPayload(GridContainer):
    """A float array on the grid: (W, H, D) plus ``ndim - 3`` trailing axes."""

    data: np.ndarray
    ndim: ClassVar[int] = 3

    def __post_init__(self):
        super().__post_init__()
        self.data = _checked_payload(self.data, self.ndim, self.dims)


class Image3D(GridPayload):
    """Scalar intensity volume on a regular grid."""


class Mask3D(GridPayload):
    """Binary volume; voxel values are exactly 0 or 1."""

    def __post_init__(self):
        super().__post_init__()
        if not np.all((self.data == 0.0) | (self.data == 1.0)):
            raise ValueError("mask values must be exactly 0 or 1")


class DisplacementField(GridPayload):
    """Per-voxel world-mm displacement vectors, data[x, y, z, c]."""

    ndim: ClassVar[int] = 4

    def __post_init__(self):
        super().__post_init__()
        if self.data.shape[3] != 3:
            raise ValueError(f"displacement data must have 3 components, got {self.data.shape[3]}")


def zero_displacement(grid: GridSpec) -> DisplacementField:
    return DisplacementField(grid.dims, grid.spacing, grid.origin,
                             np.zeros(grid.dims + (3,)))


@dataclass
class Landmarks:
    """Labelled world-mm points; ids are unique integers within int64.

    Ids of any shape are flattened and points taken as rows of three, as
    the objects given; each id is read by ``_whole`` and each coordinate by
    ``_real``, so a boolean, a string or an object is refused, naming the
    field, instead of being cast.
    """

    ids: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        ids = [_whole(i, "landmark ids") for i in np.asarray(self.ids, dtype=object).reshape(-1)]
        if not all(-2 ** 63 <= i < 2 ** 63 for i in ids):
            raise ValueError("landmark ids must fit in a 64-bit integer")
        self.ids = np.array(ids, dtype=np.int64)
        points = np.asarray(self.points, dtype=object)
        if points.size % 3:
            raise ValueError(f"landmark points must be rows of 3 coordinates, "
                             f"got {points.size} entries")
        self.points = _array(points.reshape(-1, 3), "landmark points", (self.ids.size, 3))
        unique, counts = np.unique(self.ids, return_counts=True)
        if unique.size != self.ids.size:
            raise ValueError(f"landmark ids must be unique, got duplicate id "
                             f"{unique[counts > 1][0]}")

    def __len__(self) -> int:
        return int(self.ids.size)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def _snap_fraction(g: np.ndarray):
    """Split continuous voxel coords into base index and snapped fraction.

    The base index stays a float; ``_padded_index`` bounds it before the
    integer cast, so coordinates beyond the int64 range are well defined.
    An infinite coordinate, from a displacement that overflowed in voxel
    units, gets fraction 0 instead of inf - inf, so it reads the pad.
    """
    i0 = np.floor(g)
    with np.errstate(invalid="ignore"):
        f = g - i0
    hi = f > 1.0 - _ALIGN_EPS
    i0 += hi
    f = np.where(hi, 0.0, f)
    f = np.where(f >= _ALIGN_EPS, f, 0.0)  # also maps NaN to 0
    return i0, f


# corner steps (dx, dy, dz) of a trilinear cell, z fastest: the warp reads
# them as c[x, y, z], and the DRR matrix lists its entries in this order
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


def _gather_corners(padded: np.ndarray, g: np.ndarray):
    """The 8 cell corners around each voxel coord g (n,3), in one gather
    from ``padded``, which is ``_pad(data, 0.0)``.

    Returns the corners (8, n) or (8, n, C), ordered with z fastest
    (c000, c001, c010, c011, c100, ...), and the snapped fractions (n, 3).
    A cell with any corner outside the grid reads zeros there.
    """
    i0, f = _snap_fraction(np.asarray(g, dtype=np.float64))
    flat = padded.reshape((-1,) + padded.shape[3:])
    return flat.take(_padded_index(_unpadded(padded), i0, _CELL_Z_FASTEST), axis=0), f


def _unpadded(padded: np.ndarray) -> tuple:
    """The dims of the grid that ``_pad`` padded into ``padded``."""
    return tuple(n - 4 for n in padded.shape[:3])


def trilinear_weights(grid: GridSpec, pts: np.ndarray):
    """Nonzero trilinear weights of world points (n,3) on the voxels of grid.

    Returns (point, voxel, weight): for each point in turn, its in-grid
    corners with a positive weight, z fastest, as a point index, a flat
    voxel index and the weight (1 - f or f per axis, multiplied x, y, z).
    scipy's CSR index sort is not stable, so this order fixes the order in
    which a DRR matrix sums duplicate entries: another order changes every
    matrix in the last bit.
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
    c = corners.reshape((2, 2, 2) + corners.shape[1:])  # [x, y, z]
    cx = c[0] * wx[0] + c[1] * wx[1]
    return cx[0] * wy[0] + cx[1] * wy[1]


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
    c = corners.reshape((2, 2, 2) + corners.shape[1:])  # [x, y, z]
    ex = c[1] - c[0]
    ex = ex[0] * wy[0] + ex[1] * wy[1]
    ey = c[:, 1] - c[:, 0]
    ey = ey[0] * wx[0] + ey[1] * wx[1]
    lo, hi = planes
    return np.stack([ex[0] * gz0 + ex[1] * gz1,
                     ey[0] * gz0 + ey[1] * gz1,
                     hi - lo], axis=1)


def sample_trilinear(data: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Trilinear sampling of (W,H,D) or (W,H,D,C) data at voxel coords g (n,3).

    Returns values (n,) or (n,C).  Corners outside the grid contribute zero.
    All eight corners of every point come from one gather over a copy of
    ``data`` zero-padded by two voxels, which materializes 8 values per
    point (and channel).  For the interpolant's spatial derivative, use
    ``warp_scalar_with_gradient``, which keeps the corners so that a caller
    can ask for it later, or never.
    """
    return _trilinear_sampler(data)(g)


def _trilinear_sampler(data: np.ndarray):
    """``sample_trilinear`` of ``data`` as a callable of g alone, which pads
    ``data`` once for every call it serves."""
    padded = _pad(data, 0.0)
    return lambda g: _interpolate(*_gather_corners(padded, g))[0]


def sample_nearest(data: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Nearest-voxel sampling with zeros outside the grid (ties round up)."""
    idx = np.floor(np.asarray(g, dtype=np.float64) + 0.5)
    flat = _pad(data, 0.0).reshape((-1,) + data.shape[3:])
    return flat.take(_padded_index(data.shape[:3], idx, _VOXEL)[0], axis=0)


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

def _warp_coords(src_grid: GridSpec, grid: GridSpec, data: np.ndarray) -> np.ndarray:
    """Continuous source-voxel coords of x + u(x) for every voxel x of ``grid``.

    ``data`` holds u's (W,H,D,3) values in mm on ``grid``, the field's own
    grid, which may differ from ``src_grid``, the grid that is sampled.  The
    coordinates come back as (n_voxels, 3) in C order, a new float64 array.
    """
    sp = np.asarray(src_grid.spacing)
    g = data.astype(np.float64)
    same = src_grid == grid
    with np.errstate(over="ignore"):  # an overflow to +-inf reads the pad
        if same:
            # index-space arithmetic keeps grid-aligned samples exact for u == 0
            g /= sp
        for a, n in enumerate(grid.dims):
            ramp = np.arange(n, dtype=np.float64)
            if not same:
                ramp = grid.origin[a] + grid.spacing[a] * ramp
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
    g = _warp_coords(src.grid, u.grid, u.data)
    if interp == "trilinear":
        vals = sample_trilinear(src.data.astype(np.float64, copy=False), g)
    else:
        vals = sample_nearest(src.data.astype(np.float64, copy=False), g)
    out = vals.reshape(u.dims).astype(src.data.dtype, copy=False)
    return type(src)(u.dims, u.spacing, u.origin, out)


def _cell_support(padded: np.ndarray) -> np.ndarray:
    """Flat table over ``padded``, which is ``_pad(data, 0.0)``: True for
    each cell with a corner that is not bitwise +0.0.

    Entry b is the cell whose lowest corner is padded voxel b, the base
    index ``_padded_index`` gives a sample point.  A cell whose eight
    corners are all +0.0 interpolates to +0.0 with a +0.0 derivative at
    every point inside it; one with a -0.0 corner can give -0.0, so the
    test is on the bits, not on the value.
    """
    cell = padded.view(f"i{padded.itemsize}") != 0
    for a in range(3):  # each cell ORs its corner voxel with its upper neighbours
        head = (slice(None),) * a
        cell[head + (slice(0, -1),)] |= cell[head + (slice(1, None),)]
    return cell.reshape(-1)


def warp_scalar_with_gradient(padded: np.ndarray, g: np.ndarray, support: np.ndarray):
    """Trilinear values of a (W,H,D) ``data`` at voxel coords g (n,3), plus a
    callable for their spatial derivative.

    ``padded`` is ``_pad(data, 0.0)`` and ``support`` is
    ``_cell_support(padded)``, both built once by the caller and read, not
    copied, on every call.  This is the value phase: it
    looks up the cell of every point in ``support``, gathers the eight
    corners of the points in a supported cell once, and returns the (n,)
    values with +0.0 at every other point, which is what blending eight
    +0.0 corners gives.  The returned zero-argument callable is the
    gradient phase.  It returns the indices of the supported points and
    their (m,3) derivative in voxel units, from those same corners and the
    two z-face planes the values were blended from; the derivative is +0.0
    at every other point.  So a caller that needs only values never pays
    for it.  The closure holds the corners, the fractions and the planes,
    13 floats per supported point, and the points' indices, for as long as
    the caller keeps it.

    The derivative is the exact spatial derivative of the trilinear
    interpolant at the sample points, so finite differences of downstream
    losses agree with chain-rule gradients at tight tolerance.
    """
    dims = _unpadded(padded)
    i0, f = _snap_fraction(g)
    active = np.flatnonzero(support.take(_padded_index(dims, i0, _VOXEL)[0]))
    f = f[active]
    corners = padded.reshape(-1).take(_padded_index(dims, i0[active], _CELL_Z_FASTEST))

    vals, planes = _interpolate(corners, f)
    warped = np.zeros(i0.shape[0])
    warped[active] = vals

    def gradient():
        return active, _interpolant_gradient(corners, f, planes)

    return warped, gradient


# ---------------------------------------------------------------------------
# differential quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobianStats:
    pct_negative: float
    min_det: float


def jacobian_stats(u: DisplacementField) -> JacobianStats:
    """det(I + grad u) statistics over interior voxels (central differences)."""
    if min(u.dims) < 3:
        raise ValueError("jacobian stats need at least 3 voxels per axis")
    grads = np.gradient(u.data.astype(np.float64, copy=False), *u.spacing, axis=(0, 1, 2))
    J = np.stack(grads, axis=-1)[1:-1, 1:-1, 1:-1]  # J[..., c, d] = du_c / dx_d
    J[..., 0, 0] += 1.0
    J[..., 1, 1] += 1.0
    J[..., 2, 2] += 1.0

    a, b, c = J[..., 0, 0], J[..., 0, 1], J[..., 0, 2]
    d_, e, f = J[..., 1, 0], J[..., 1, 1], J[..., 1, 2]
    g, h, i = J[..., 2, 0], J[..., 2, 1], J[..., 2, 2]
    det = a * (e * i - f * h) - b * (d_ * i - f * g) + c * (d_ * h - e * g)

    pct = 100.0 * float(np.count_nonzero(det < 0.0)) / det.size
    return JacobianStats(pct_negative=pct, min_det=float(det.min()))
