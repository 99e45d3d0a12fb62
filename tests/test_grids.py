"""Volume containers, trilinear sampling, warping and Jacobian statistics."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from tomoreg import (DisplacementField, GridSpec, Image3D, Landmarks, Mask3D,
                     gen_smooth_dvf, jacobian_stats, sample_displacement,
                     warp_image, zero_displacement)
from tomoreg.grids import (_cell_support, _gather_corners, _interpolant_gradient,
                           _interpolate, _pad, _snap_fraction, _warp_coords, sample_nearest,
                           sample_trilinear, trilinear_weights, warp_scalar_with_gradient)

from conftest import SPEC32


def rand_image(seed, dims=(5, 6, 4), spacing=(1.5, 1.2, 2.0),
               origin=(-3.0, 2.0, 0.5)):
    rng = np.random.default_rng(seed)
    return Image3D(dims, spacing, origin, rng.random(dims))


def world(grid, g):
    """World points of voxel coords g (..., 3): origin + g * spacing."""
    return np.asarray(grid.origin) + np.asarray(g, dtype=np.float64) * np.asarray(grid.spacing)


def scattered(parts, n):
    """The warp's (n, 3) derivative from its gradient phase's (active, d)."""
    active, d = parts
    out = np.zeros((n, 3))
    out[active] = d
    return out


def warp(data, g):
    """``warp_scalar_with_gradient`` of ``data`` with its pad and support
    table built as ``LossContext`` builds them."""
    padded = _pad(data, 0.0)
    return warp_scalar_with_gradient(padded, g, _cell_support(padded))


def sample_at(vol, p):
    """Interpolated intensity of ``vol`` at one world-mm point."""
    g = vol.grid.world_to_voxel(np.asarray(p, dtype=np.float64)[None, :])
    return float(sample_trilinear(vol.data, g)[0])


# ---------------------------------------------------------------------------
# grid and container validation
# ---------------------------------------------------------------------------

def test_gridspec_rejects_bad_axes():
    with pytest.raises(ValueError):
        GridSpec((0, 4, 4), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec((4, 4, 4), (1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec((4, 4, 4), (1.0, 1.0, 1.0), (np.inf, 0.0, 0.0))
    # dims are whole numbers: 4.0 reads as 4, a fraction or a boolean is refused
    assert GridSpec((4.0, np.float64(5.0), np.int64(6)), (1, 1, 1)).dims == (4, 5, 6)
    for bad in (4.7, True, np.bool_(True)):
        with pytest.raises(ValueError, match="dims must be a whole number"):
            GridSpec((bad, 4, 4), (1.0, 1.0, 1.0))
    # spacing and origin are real numbers: a boolean or a string is refused
    grid = GridSpec((4, 4, 4), (1, np.float32(2.0), 3), (np.int64(-1), 0, 0.5))
    assert (grid.spacing, grid.origin) == ((1.0, 2.0, 3.0), (-1.0, 0.0, 0.5))
    with pytest.raises(ValueError, match="spacing must be a real number, got True"):
        GridSpec((4, 4, 4), (True, 1, 1), (False, 0, 0))
    with pytest.raises(ValueError, match="spacing must be a real number"):
        GridSpec((4, 4, 4), (1, np.bool_(True), 1))
    with pytest.raises(ValueError, match="origin must be a real number, got '2.5'"):
        GridSpec((4, 4, 4), (1, 1, 1), ("2.5", 0, 0))


def test_image_rejects_nonfinite_and_shape_mismatch():
    data = np.ones((3, 3, 3))
    data[1, 1, 1] = np.nan
    with pytest.raises(ValueError):
        Image3D((3, 3, 3), (1, 1, 1), (0, 0, 0), data)
    with pytest.raises(ValueError):
        Image3D((3, 3, 4), (1, 1, 1), (0, 0, 0), np.ones((3, 3, 3)))


def test_mask_values_must_be_binary():
    with pytest.raises(ValueError):
        Mask3D((3, 3, 3), (1, 1, 1), (0, 0, 0), 0.5 * np.ones((3, 3, 3)))
    Mask3D((3, 3, 3), (1, 1, 1), (0, 0, 0), np.ones((3, 3, 3)))


def test_displacement_field_requires_three_finite_components():
    with pytest.raises(ValueError):
        DisplacementField((3, 3, 3), (1, 1, 1), (0, 0, 0),
                          np.zeros((3, 3, 3, 2)))
    bad = np.zeros((3, 3, 3, 3))
    bad[0, 0, 0, 1] = np.inf
    with pytest.raises(ValueError):
        DisplacementField((3, 3, 3), (1, 1, 1), (0, 0, 0), bad)


def test_landmark_ids_must_be_unique():
    with pytest.raises(ValueError, match="landmark ids must be unique, got duplicate id 1$"):
        Landmarks([1, 1], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="got duplicate id 5$"):
        Landmarks([5, 2, 5.0], np.zeros((3, 3)))


@pytest.mark.parametrize("ids, points, message", [
    ([True, False], [[1.5, 0, 0], [0, 0, 0]], "landmark ids must be a whole number, got True"),
    (np.array([1, 0], dtype=bool), np.zeros((2, 3)), "landmark ids must be a whole number"),
    (["1", 2], np.zeros((2, 3)), "landmark ids must be a whole number, got '1'"),
    ([{}, 2], np.zeros((2, 3)), r"landmark ids must be a whole number, got \{\}"),
    ([1.7, 2], np.zeros((2, 3)), "landmark ids must be a whole number, got 1.7"),
    ([2 ** 63, 2], np.zeros((2, 3)), "landmark ids must fit in a 64-bit integer"),
    ([1, 0], [["1.5", True, 0], [0, 0, 0]], "landmark points must be a real number, got '1.5'"),
    ([1, 0], [[1.5, True, 0], [0, 0, 0]], "landmark points must be a real number, got True"),
    ([1, 0], [[1.5, None, 0], [0, 0, 0]], "landmark points must be a real number, got None"),
    ([1, 0], [[1.5, np.nan, 0], [0, 0, 0]], "landmark points must be finite, got nan"),
    ([1, 0], np.zeros((3, 3)), "landmark points must have 2 entries, got 3"),
    ([1, 0], np.zeros((2, 2)), "landmark points must be rows of 3 coordinates, got 4"),
    ([1, 0], [[1, 2, 3], [4, 5]], "landmark points must be rows of 3 coordinates, got 2"),
])
def test_landmarks_refuse_what_is_not_a_number(ids, points, message):
    """Ids are read as whole numbers within int64 and points as finite
    reals, entry by entry: nothing is cast, and the error names the field."""
    with pytest.raises(ValueError, match=message):
        Landmarks(ids, points)


def test_landmarks_keep_whole_floats_and_int64_ids():
    lm = Landmarks(np.array([4, -2 ** 63 + 1]), np.arange(6).reshape(2, 3))
    assert lm.ids.dtype == np.int64 and lm.ids.tolist() == [4, -2 ** 63 + 1]
    assert lm.points.dtype == np.float64 and lm.points[1].tolist() == [3.0, 4.0, 5.0]
    assert Landmarks([4.0, np.float32(5.0)], np.zeros((2, 3))).ids.tolist() == [4, 5]
    assert len(Landmarks(np.empty(0, dtype=np.int64), np.empty((0, 3)))) == 0
    # ids of any shape are flattened, and points are taken as rows of three
    one = Landmarks(7, [1, 2, 3])
    assert one.ids.tolist() == [7] and one.points.tolist() == [[1.0, 2.0, 3.0]]
    two = Landmarks(np.array([[1, 2]]), np.arange(6))
    assert two.ids.tolist() == [1, 2] and two.points.shape == (2, 3)


# ---------------------------------------------------------------------------
# trilinear sampling
# ---------------------------------------------------------------------------

def test_sample_constant_volume_interior():
    vol = Image3D((4, 4, 4), (2.0, 2.0, 2.0), (1.0, 1.0, 1.0),
                  np.full((4, 4, 4), 5.0))
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = 1.0 + rng.random(3) * 6.0  # inside the voxel-center extent
        assert sample_at(vol, p) == pytest.approx(5.0, abs=1e-12)


def test_sample_reproduces_grid_aligned_values():
    vol = rand_image(1)
    centers = vol.grid.voxel_centers()
    for i in range(vol.dims[0]):
        for j in range(vol.dims[1]):
            for k in range(vol.dims[2]):
                p = centers[i, j, k]
                assert sample_at(vol, p) == vol.data[i, j, k]


def test_sample_cell_center_is_corner_mean():
    vol = Image3D((2, 2, 2), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0),
                  np.arange(8, dtype=np.float64).reshape(2, 2, 2))
    assert sample_at(vol, (0.5, 0.5, 0.5)) == pytest.approx(3.5)


def test_sample_is_linear_in_the_volume():
    v1, v2 = rand_image(2), rand_image(3)
    comb = Image3D(v1.dims, v1.spacing, v1.origin,
                   2.0 * v1.data - 0.5 * v2.data)
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = np.asarray(v1.origin) + rng.random(3) * 3.0
        want = 2.0 * sample_at(v1, p) - 0.5 * sample_at(v2, p)
        assert sample_at(comb, p) == pytest.approx(want, abs=1e-12)


def test_sample_outside_grid_is_zero():
    vol = rand_image(5)
    assert sample_at(vol, (1e4, 0.0, 0.0)) == 0.0
    assert sample_at(vol, (-3.0 - 1.5 * 10, 2.0, 0.5)) == 0.0


def test_sample_rejects_nonfinite_points():
    u = zero_displacement(rand_image(6).grid)
    with pytest.raises(ValueError):
        sample_displacement(u, [(np.nan, 0.0, 0.0)])


# ---------------------------------------------------------------------------
# the one-gather sampler against an eight-corner reference
# ---------------------------------------------------------------------------

def _corner(volc, i0, dx, dy, dz):
    W, H, D = volc.shape[:3]
    ix, iy, iz = i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz
    ok = (ix >= 0) & (ix < W) & (iy >= 0) & (iy < H) & (iz >= 0) & (iz < D)
    vals = volc[np.clip(ix, 0, W - 1), np.clip(iy, 0, H - 1), np.clip(iz, 0, D - 1)]
    return np.where(ok[:, None], vals, 0.0)


def reference_trilinear(data, g, with_gradient=False):
    """Trilinear sampling that reads each corner separately and masks it."""
    scalar = data.ndim == 3
    volc = data[..., None] if scalar else data
    i0, f = _snap_fraction(np.asarray(g, dtype=np.float64))
    i0 = i0.astype(np.int64)
    c000, c100, c010, c110, c001, c101, c011, c111 = (
        _corner(volc, i0, dx, dy, dz)
        for dz in (0, 1) for dy in (0, 1) for dx in (0, 1))
    fx, fy, fz = (f[:, a][:, None] for a in range(3))
    gx0, gx1 = 1.0 - fx, fx
    gy0, gy1 = 1.0 - fy, fy
    gz0, gz1 = 1.0 - fz, fz
    lo = (c000 * gx0 + c100 * gx1) * gy0 + (c010 * gx0 + c110 * gx1) * gy1
    hi = (c001 * gx0 + c101 * gx1) * gy0 + (c011 * gx0 + c111 * gx1) * gy1
    vals = lo * gz0 + hi * gz1
    if not with_gradient:
        return vals[:, 0] if scalar else vals
    dx = ((c100 - c000) * gy0 + (c110 - c010) * gy1) * gz0 \
        + ((c101 - c001) * gy0 + (c111 - c011) * gy1) * gz1
    dy = ((c010 - c000) * gx0 + (c110 - c100) * gx1) * gz0 \
        + ((c011 - c001) * gx0 + (c111 - c101) * gx1) * gz1
    grad = np.stack([dx, dy, hi - lo], axis=1)
    if scalar:
        return vals[:, 0], grad[:, :, 0]
    return vals, grad


def reference_nearest(data, g):
    """Nearest-voxel sampling that clips the index and masks what was outside."""
    scalar = data.ndim == 3
    volc = data[..., None] if scalar else data
    W, H, D = volc.shape[:3]
    idx = np.floor(np.asarray(g, dtype=np.float64) + 0.5).astype(np.int64)
    ok = np.all((idx >= 0) & (idx < np.array([W, H, D])), axis=1)
    ix = np.clip(idx[:, 0], 0, W - 1)
    iy = np.clip(idx[:, 1], 0, H - 1)
    iz = np.clip(idx[:, 2], 0, D - 1)
    vals = np.where(ok[:, None], volc[ix, iy, iz], 0.0)
    return vals[:, 0] if scalar else vals


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    bits = f"i{got.itemsize}"
    assert_array_equal(got.view(bits), want.view(bits))


def axis_coord(n):
    """One voxel coordinate on an axis of n voxels, from every regime."""
    inside = st.floats(0.0, n - 1.0)
    # within the snap band around a lattice point, incl. the rim ones
    lattice = st.tuples(st.integers(-1, n),
                        st.sampled_from([-1e-10, 0.0, 1e-10])).map(sum)
    # halfway between lattice points, where nearest sampling breaks a tie
    half = st.integers(-2, n).map(lambda k: k + 0.5)
    rim = st.one_of(st.floats(-1.0, 0.0), st.floats(n - 1.0, float(n)))
    far = st.one_of(st.floats(-1e6, -2.0), st.floats(n + 1.0, 1e6))
    return st.one_of(inside, lattice, half, rim, far)


# how much of the sampled volume is not +0.0: where the loss warp skips cells
SUPPORTS = ("scattered -0.0", "all +0.0", "-0.0 blocks", "one voxel", "full")


def sparse_source(rng, shape, support):
    """A standard normal volume with the drawn pattern of zeros."""
    data = rng.standard_normal(shape)
    if support == "scattered -0.0":
        data[rng.random(shape) < 0.2] = -0.0
    elif support != "full":
        keep = np.zeros(shape[:3], dtype=bool)
        if support == "one voxel":
            keep[tuple(rng.integers(0, n) for n in shape[:3])] = True
        data[~keep] = 0.0
        if support == "-0.0 blocks":
            box = []
            for n in shape[:3]:  # 2 voxels or more where they fit
                m = rng.integers(min(2, n), n + 1)
                a = rng.integers(0, n - m + 1)
                box.append(slice(a, a + m))
            data[tuple(box)] = -0.0
            data[tuple(rng.integers(0, n) for n in shape[:3])] = -0.0
    return data


@st.composite
def sampling_cases(draw):
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    spacing = tuple(draw(st.floats(0.5, 3.0)) for _ in range(3))
    channels = draw(st.sampled_from([0, 3]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    points = draw(st.lists(st.tuples(*(axis_coord(n) for n in dims)),
                           min_size=1, max_size=24))
    support = draw(st.sampled_from(SUPPORTS))
    return dims, spacing, channels, seed, np.array(points, dtype=np.float64), support


@settings(max_examples=120, deadline=None)
@given(sampling_cases())
def test_one_gather_sampler_matches_the_eight_corner_reference(case):
    dims, spacing, channels, seed, g, support = case
    rng = np.random.default_rng(seed)
    data = sparse_source(rng, dims + ((channels,) if channels else ()), support)
    assert_same_bits(sample_trilinear(data, g), reference_trilinear(data, g))
    assert_same_bits(sample_nearest(data, g), reference_nearest(data, g))
    # the derivative, from the same corners and planes the warp keeps
    corners, f = _gather_corners(_pad(data, 0.0), g)
    planes = _interpolate(corners, f)[1]
    assert_same_bits(_interpolant_gradient(corners, f, planes),
                     reference_trilinear(data, g, with_gradient=True)[1])

    origin = (-3.0, 2.0, 0.5)
    grid = GridSpec(dims, spacing, origin)
    if channels:
        u = DisplacementField(dims, spacing, origin, data)
        pts = world(grid, g)
        assert_same_bits(sample_displacement(u, pts),
                         reference_trilinear(data, grid.world_to_voxel(pts)))
        return
    # whole-voxel shifts, some nudged into the snap band, some fractional
    shift = rng.integers(-2, 3, dims + (3,)) + rng.choice(
        [0.0, -1e-10, 1e-10, 0.37], dims + (3,))
    shift[rng.random(shift.shape) < 0.2] = -0.0
    u = DisplacementField(dims, spacing, origin, shift * np.asarray(spacing))
    base = np.stack(np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims),
                                indexing="ij"), axis=-1)
    g_ref = (base + u.data / np.asarray(spacing)).reshape(-1, 3)
    want_vals, want_grad = reference_trilinear(data, g_ref, with_gradient=True)
    # the warp samples only cells with a corner that is not +0.0
    vals, gradient = warp(data, _warp_coords(grid, u.grid, u.data))
    assert_same_bits(vals, want_vals)
    assert_same_bits(scattered(gradient(), vals.size), want_grad)


def reference_weight_table(grid, pts):
    """The 8 corner voxels (n, 8) and weights of each point, z fastest, with
    each corner bounds-tested and its weight zeroed outside the grid."""
    W, H, D = grid.dims
    i0, f = _snap_fraction(grid.world_to_voxel(pts))
    i0 = i0.astype(np.int64)
    wx, wy, wz = (np.stack([1.0 - f[:, a], f[:, a]], axis=1) for a in range(3))
    cols = np.empty((pts.shape[0], 8), dtype=np.int64)
    wgt = np.empty((pts.shape[0], 8), dtype=np.float64)
    k = 0
    for dx in (0, 1):
        ix = i0[:, 0] + dx
        okx = (ix >= 0) & (ix < W)
        for dy in (0, 1):
            iy = i0[:, 1] + dy
            oky = okx & (iy >= 0) & (iy < H)
            for dz in (0, 1):
                iz = i0[:, 2] + dz
                ok = oky & (iz >= 0) & (iz < D)
                wgt[:, k] = np.where(ok, wx[:, dx] * wy[:, dy] * wz[:, dz], 0.0)
                cols[:, k] = (np.clip(ix, 0, W - 1) * H + np.clip(iy, 0, H - 1)) * D \
                    + np.clip(iz, 0, D - 1)
                k += 1
    return cols, wgt


@settings(max_examples=60, deadline=None)
@given(sampling_cases())
def test_weight_table_matches_the_masked_corner_loop(case):
    dims, spacing, _, _, g, _ = case
    grid = GridSpec(dims, spacing, (-3.0, 2.0, 0.5))
    pts = world(grid, g)
    cols, wgt = reference_weight_table(grid, pts)
    keep = wgt > 0.0
    point, col, w = trilinear_weights(grid, pts)
    assert_array_equal(point, np.nonzero(keep)[0])
    assert_array_equal(col, cols[keep])
    assert_same_bits(w, wgt[keep])


# ---------------------------------------------------------------------------
# warping
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 9)] * 3),
       spacing=st.tuples(*[st.floats(0.1, 5.0)] * 3),
       origin=st.tuples(*[st.floats(-1e3, 1e3)] * 3),
       dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_zero_warp_is_bit_identical(dims, spacing, origin, dtype, seed):
    data = np.random.default_rng(seed).standard_normal(dims).astype(dtype)
    src = Image3D(dims, spacing, origin, data)
    u = zero_displacement(src.grid)
    for interp in ("trilinear", "nearest"):
        assert_same_bits(warp_image(src, u, interp).data, data)
    data64 = data.astype(np.float64)
    vals, _ = warp(data64, _warp_coords(src.grid, u.grid, u.data))
    assert_same_bits(vals, data.astype(np.float64).reshape(-1))


def test_constant_one_voxel_shift_indexes_neighbors():
    src = rand_image(8, dims=(6, 5, 4))
    shift = np.zeros(src.dims + (3,))
    shift[..., 0] = src.spacing[0]
    u = DisplacementField(src.dims, src.spacing, src.origin, shift)
    out = warp_image(src, u)
    assert_allclose(out.data[:-1, :, :], src.data[1:, :, :], atol=1e-12)
    # the last x-slab samples one voxel past the grid: zero padded
    assert_array_equal(out.data[-1, :, :], np.zeros(src.dims[1:]))


def test_impulse_survives_identity_warp():
    data = np.zeros((5, 5, 5))
    data[2, 3, 1] = 1.0
    src = Image3D((5, 5, 5), (1, 1, 1), (0, 0, 0), data)
    out = warp_image(src, zero_displacement(src.grid))
    assert_array_equal(out.data, data)


def test_nearest_mask_warp_stays_binary():
    rng = np.random.default_rng(9)
    mask = Mask3D((6, 6, 6), (1.5, 1.5, 1.5), (0, 0, 0),
                  (rng.random((6, 6, 6)) > 0.5).astype(np.float64))
    u = DisplacementField((6, 6, 6), (1.5, 1.5, 1.5), (0, 0, 0),
                          0.8 * rng.standard_normal((6, 6, 6, 3)))
    out = warp_image(mask, u, interp="nearest")
    assert isinstance(out, Mask3D)
    assert set(np.unique(out.data)) <= {0.0, 1.0}


@pytest.mark.parametrize("interp", ["trilinear", "nearest"])
@pytest.mark.parametrize("mm", [1e20, -1e20, 1e300, -1e300, 1e308, -1e308])
def test_far_outside_displacements_read_zeros_without_warnings(interp, mm):
    """Voxel coordinates beyond the int64 range are bounded before the cast;
    at a sub-millimetre spacing +-1e308 mm overflows to an infinite voxel
    coordinate, on the source's own grid and on another one."""
    for spacing in (1.0, 0.5):
        src = rand_image(12, dims=(4, 4, 4), spacing=(spacing,) * 3)
        for origin in (src.origin, np.add(src.origin, 0.25)):
            for axes in ([0], [0, 1, 2]):
                data = np.zeros((4, 4, 4, 3))
                data[..., axes] = mm
                u = DisplacementField(src.dims, src.spacing, origin, data)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    out = warp_image(src, u, interp)
                    if interp == "trilinear":
                        vals, gradient = warp(src.data, _warp_coords(src.grid, u.grid, u.data))
                        assert_array_equal(vals, 0.0)
                        assert gradient()[0].size == 0  # no point in a supported cell
                assert_array_equal(out.data, 0.0)


def test_mask_warp_requires_nearest_mode():
    mask = Mask3D((4, 4, 4), (1, 1, 1), (0, 0, 0), np.ones((4, 4, 4)))
    with pytest.raises(ValueError):
        warp_image(mask, zero_displacement(mask.grid), interp="trilinear")


def test_warp_rejects_nonfinite_displacement():
    # a displacement field with non-finite entries cannot even be built
    bad = np.zeros((4, 4, 4, 3))
    bad[2, 2, 2, 0] = np.nan
    with pytest.raises(ValueError):
        DisplacementField((4, 4, 4), (1, 1, 1), (0, 0, 0), bad)


# ---------------------------------------------------------------------------
# Jacobian statistics
# ---------------------------------------------------------------------------

def test_jacobian_of_identity_transform():
    u = zero_displacement(GridSpec((5, 5, 5), (1.3, 1.0, 0.8)))
    stats = jacobian_stats(u)
    assert stats.pct_negative == 0.0
    assert stats.min_det == pytest.approx(1.0, abs=1e-12)


def test_jacobian_of_point_reflection_is_minus_one():
    grid = GridSpec((5, 5, 5), (1.5, 1.5, 1.5), (-3.0, -3.0, -3.0))
    xyz = grid.voxel_centers()
    u = DisplacementField(grid.dims, grid.spacing, grid.origin, -2.0 * xyz)
    stats = jacobian_stats(u)
    assert stats.pct_negative == 100.0
    assert stats.min_det == pytest.approx(-1.0, abs=1e-12)


def test_jacobian_of_constant_displacement_is_one():
    grid = GridSpec((4, 5, 6), (1.0, 2.0, 1.5))
    u = DisplacementField(grid.dims, grid.spacing, grid.origin,
                          np.broadcast_to(np.array([3.0, -1.0, 2.5]),
                                          grid.dims + (3,)).copy())
    stats = jacobian_stats(u)
    assert stats.pct_negative == 0.0
    assert stats.min_det == pytest.approx(1.0, abs=1e-12)


def test_generated_smooth_field_has_no_folding():
    u = gen_smooth_dvf(SPEC32, seed=42)
    assert jacobian_stats(u).pct_negative < 0.5
