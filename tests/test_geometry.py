"""Emitter-line geometry, ray-integral rendering, and backprojection."""
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import SPEC32

from tomoreg import (DrrOperator, GridSpec, Image3D, LossConfig,
                     Mask3D, ProjectionSet, SdctGeometry, build_sdct_geometry,
                     geometry_for, grid_for, lift3d, make_pair, step_for)
from tomoreg.grids import sample_trilinear
from tomoreg.losses import LossContext

DIMS = (20, 20, 20)
SPACING = (1.5, 1.5, 1.5)
ORIGIN = (-0.5 * 19 * 1.5, -0.5 * 19 * 1.5, 40.0)
GRID = GridSpec(DIMS, SPACING, ORIGIN)


def three_emitter_geometry():
    return build_sdct_geometry(3, 30.0, 400.0, detector_dims=(40, 40),
                               detector_spacing=(1.8, 1.8))


def project_point(geom, emitter_index, point):
    """Pixel coordinates of world points (..., 3) seen from one emitter."""
    c = geom.emitter_positions[emitter_index]
    p = np.asarray(point, dtype=np.float64)
    t = c[2] / (c[2] - p[..., 2])
    hit = c + t[..., None] * (p - c)
    rel = hit - geom.detector_origin
    return (rel @ geom.detector_axes[0] / geom.detector_spacing[0],
            rel @ geom.detector_axes[1] / geom.detector_spacing[1])


# ---------------------------------------------------------------------------
# geometry construction
# ---------------------------------------------------------------------------

def test_single_emitter_sits_above_detector_center_plus_offset():
    geom = build_sdct_geometry(1, 25.0, 300.0, line_offset=(4.0, -2.5),
                               detector_dims=(10, 12),
                               detector_spacing=(2.0, 2.0))
    center = (geom.detector_origin
              + 0.5 * (10 - 1) * 2.0 * geom.detector_axes[0]
              + 0.5 * (12 - 1) * 2.0 * geom.detector_axes[1])
    want = center + 4.0 * geom.detector_axes[0] - 2.5 * geom.detector_axes[1]
    want = want + 300.0 * np.array([0.0, 0.0, 1.0])
    assert_allclose(geom.emitter_positions[0], want, atol=1e-9)


def test_emitter_line_length_and_gaps_match_trigonometry():
    geom = build_sdct_geometry(4, 30.0, 1000.0, detector_dims=(16, 16),
                               detector_spacing=(4.0, 4.0))
    pos = geom.emitter_positions
    length = np.linalg.norm(pos[-1] - pos[0])
    assert length == pytest.approx(2.0 * 1000.0 * np.tan(np.radians(15.0)),
                                   rel=1e-12)
    gaps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    assert_allclose(gaps, length / 3.0, rtol=1e-12)


def test_extreme_rays_subtend_the_span_angle():
    geom = build_sdct_geometry(5, 30.0, 800.0, detector_dims=(21, 21),
                               detector_spacing=(2.0, 2.0))
    center = (geom.detector_origin
              + 0.5 * 20 * 2.0 * geom.detector_axes[0]
              + 0.5 * 20 * 2.0 * geom.detector_axes[1])
    a = geom.emitter_positions[0] - center
    b = geom.emitter_positions[-1] - center
    cosang = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    assert ang == pytest.approx(30.0, abs=1e-9)


def test_emitters_are_collinear_and_evenly_spaced():
    geom = build_sdct_geometry(6, 40.0, 500.0, line_offset=(10.0, 3.0),
                               detector_dims=(12, 12),
                               detector_spacing=(3.0, 3.0))
    pos = geom.emitter_positions
    d = pos[-1] - pos[0]
    d = d / np.linalg.norm(d)
    rel = pos - pos[0]
    off_axis = rel - (rel @ d)[:, None] * d[None, :]
    assert np.abs(off_axis).max() < 1e-9
    gaps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    assert np.ptp(gaps) < 1e-9


def test_geometry_rejects_bad_angle_and_distance():
    for kwargs in (dict(span_angle=0.0), dict(span_angle=180.0),
                   dict(span_angle=-5.0), dict(distance=0.0),
                   dict(distance=-10.0)):
        span = kwargs.get("span_angle", 30.0)
        dist = kwargs.get("distance", 100.0)
        with pytest.raises(ValueError):
            build_sdct_geometry(3, span, dist, detector_dims=(8, 8),
                                detector_spacing=(1.0, 1.0))
    with pytest.raises(ValueError):
        build_sdct_geometry(0, 30.0, 100.0, detector_dims=(8, 8),
                            detector_spacing=(1.0, 1.0))
    # counts are whole numbers: 2.7 emitters or 8.6 pixels are not truncated
    with pytest.raises(ValueError, match="n_emitters must be a whole number"):
        build_sdct_geometry(2.7, 30.0, 100.0, detector_dims=(8, 8))
    with pytest.raises(ValueError, match="detector_dims must be a whole number"):
        build_sdct_geometry(3, 30.0, 100.0, detector_dims=(8.6, 8))
    with pytest.raises(ValueError, match="detector_spacing must be a real number"):
        build_sdct_geometry(3, 30.0, 100.0, detector_spacing=(1.0, "1.6"))
    with pytest.raises(ValueError, match="line_offset must be a real number"):
        build_sdct_geometry(3, 30.0, 100.0, line_offset=(True, "2.5"))
    # two-entry fields take exactly two entries: a third is not dropped
    for kwargs in (dict(detector_dims=(8, 8, 3)), dict(detector_spacing=(1.0, 1.0, 7.0)),
                   dict(line_offset=(0.0, 0.0, 5.0)), dict(detector_dims=(8,))):
        with pytest.raises(ValueError, match="must have 2 entries"):
            build_sdct_geometry(3, 30.0, 100.0, **kwargs)
    geom = three_emitter_geometry()
    assert replace(geom, n_emitters=3.0, detector_dims=(40.0, 40)).allclose(geom)
    for kwargs in (dict(n_emitters=2.7), dict(detector_dims=(8.9, True)),
                   dict(detector_dims=(40, np.True_)),
                   dict(detector_spacing=(True, 1.8))):
        with pytest.raises(ValueError, match="must be a (whole|real) number"):
            replace(geom, **kwargs)
    for kwargs in (dict(detector_dims=(40, 40, 3)),
                   dict(detector_spacing=(1.8, 1.8, 5.0))):
        with pytest.raises(ValueError, match="must have 2 entries, got 3"):
            replace(geom, **kwargs)


def test_geometry_rejects_emitters_on_the_detector_plane():
    with pytest.raises(ValueError):
        SdctGeometry(n_emitters=1, emitter_positions=[[0.0, 0.0, 0.0]],
                     detector_origin=(0.0, 0.0, 0.0),
                     detector_axes=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                     detector_dims=(8, 8), detector_spacing=(1.0, 1.0))


def test_detector_and_image_spacing_must_be_positive_and_finite():
    # a projection stack has no spacing of its own: its pixel pitch is the
    # detector's
    for bad in ((np.nan, 2.0), (1.0, np.inf), (0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(ValueError, match="detector_spacing must be positive and finite"):
            replace(three_emitter_geometry(), detector_spacing=bad)


def test_detector_axes_must_be_orthonormal():
    with pytest.raises(ValueError):
        SdctGeometry(n_emitters=1, emitter_positions=[[0.0, 0.0, 100.0]],
                     detector_origin=(0.0, 0.0, 0.0),
                     detector_axes=[[1.0, 0.0, 0.0], [0.5, 1.0, 0.0]],
                     detector_dims=(8, 8), detector_spacing=(1.0, 1.0))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_zero_volume_renders_zero_image():
    geom = three_emitter_geometry()
    vol = Image3D(DIMS, SPACING, ORIGIN, np.zeros(DIMS))
    projs = DrrOperator(vol.grid, geom, 0.75).render_all(vol)
    assert_array_equal(projs.data, np.zeros(geom.detector_dims + (3,)))


def test_central_ray_through_unit_cube_integrates_chord_length():
    # emitter far above the cube center; vertical ray, chord = z extent
    dims, sp = (16, 16, 16), (1.0, 1.0, 1.0)
    org = (-7.5, -7.5, 50.0)
    vol = Image3D(dims, sp, org, np.ones(dims))
    geom = build_sdct_geometry(1, 10.0, 2000.0, detector_dims=(9, 9),
                               detector_spacing=(2.0, 2.0))
    img = DrrOperator(vol.grid, geom, 0.5).forward(vol.data)[..., 0]
    center = img[4, 4]
    assert abs(center - 16.0) < 2.0 * 0.5


def test_impulse_projects_within_one_pixel_of_the_closed_form():
    geom = three_emitter_geometry()
    data = np.zeros(DIMS)
    data[9, 11, 7] = 1.0
    vol = Image3D(DIMS, SPACING, ORIGIN, data)
    voxel_world = GRID.voxel_centers()[9, 11, 7]
    imgs = DrrOperator(vol.grid, geom, 0.75).forward(vol.data)
    for ei in range(3):
        img = imgs[..., ei]
        pu, pv = project_point(geom, ei, voxel_world)
        nz = np.argwhere(img > 1e-9)
        assert nz.size > 0
        assert np.abs(nz[:, 0] - pu).max() <= 1.0
        assert np.abs(nz[:, 1] - pv).max() <= 1.0


def test_render_is_linear_in_the_volume():
    geom = three_emitter_geometry()
    rng = np.random.default_rng(1)
    v1 = Image3D(DIMS, SPACING, ORIGIN, rng.random(DIMS))
    v2 = Image3D(DIMS, SPACING, ORIGIN, rng.random(DIMS))
    comb = Image3D(DIMS, SPACING, ORIGIN, 2.5 * v1.data - 0.7 * v2.data)
    op = DrrOperator(GRID, geom, 0.75)
    got = op.forward(comb.data)
    want = 2.5 * op.forward(v1.data) - 0.7 * op.forward(v2.data)
    rel = np.abs(got - want).max() / np.abs(want).max()
    assert rel < 1e-6


def test_halved_step_changes_pixels_less_than_one_sample():
    geom = three_emitter_geometry()
    rng = np.random.default_rng(0)
    vol = Image3D(DIMS, SPACING, ORIGIN, np.abs(rng.standard_normal(DIMS)))
    coarse = DrrOperator(GRID, geom, 1.5).forward(vol.data)[..., 0]
    fine = DrrOperator(GRID, geom, 0.75).forward(vol.data)[..., 0]
    assert np.abs(coarse - fine).max() < 1.5 * vol.data.max()


def test_render_rejects_bad_emitter_index_and_step():
    geom = three_emitter_geometry()
    vol = Image3D(DIMS, SPACING, ORIGIN, np.ones(DIMS))
    # every emitter renders at once, on the last axis: there is no fourth
    assert DrrOperator(vol.grid, geom, 0.75).forward(vol.data).shape == (40, 40, 3)
    for step in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="step_mm must be positive and finite"):
            DrrOperator(vol.grid, geom, step).forward(vol.data)
    for step in (True, "1"):
        with pytest.raises(ValueError, match="step_mm must be a real number"):
            DrrOperator(vol.grid, geom, step)
    other = Image3D(DIMS, SPACING, (0.0, 0.0, 40.0), np.ones(DIMS))
    with pytest.raises(ValueError, match="volume grid does not match the operator grid"):
        DrrOperator(vol.grid, geom, 0.75).render_all(other)


# ---------------------------------------------------------------------------
# backprojection
# ---------------------------------------------------------------------------

def test_constant_image_backprojects_to_its_value_inside_the_frustum():
    geom = build_sdct_geometry(1, 20.0, 400.0, detector_dims=(40, 40),
                               detector_spacing=(1.8, 1.8))
    lifted = lift3d(ProjectionSet(geom, np.full((40, 40, 1), 7.25)), GRID)
    ch = lifted.data[..., 0]
    inside = ch != 0.0
    assert inside.any()
    assert_allclose(ch[inside], 7.25, rtol=1e-12)


def test_impulse_pixel_lifts_to_a_one_pixel_tube():
    geom = three_emitter_geometry()
    pix = np.zeros((40, 40, 3))
    iu, iv = 17, 23
    pix[iu, iv, 1] = 1.0
    lifted = lift3d(ProjectionSet(geom, pix), GRID)
    assert lifted.data.shape == DIMS + (3,)
    nz = np.argwhere(lifted.data[..., 1] > 1e-9)
    assert nz.size > 0
    # bilinear pickup is supported within one pixel of the impulse, so every
    # nonzero voxel must project there; that is the tube membership test
    world = GRID.voxel_centers()[tuple(nz.T)]
    for p in world:
        pu, pv = project_point(geom, 1, p)
        assert max(abs(pu - iu), abs(pv - iv)) < 1.0 + 1e-9
    assert_array_equal(lifted.data[..., 0], np.zeros(DIMS))
    assert_array_equal(lifted.data[..., 2], np.zeros(DIMS))


def test_render_then_lift_keeps_the_impulse_voxel_positive():
    geom = three_emitter_geometry()
    data = np.zeros(DIMS)
    data[9, 11, 7] = 1.0
    vol = Image3D(DIMS, SPACING, ORIGIN, data)
    projs = DrrOperator(GRID, geom, 0.75).render_all(vol)
    lifted = lift3d(projs, GRID)
    voxel_world = GRID.voxel_centers()[9, 11, 7]
    for ei in range(3):
        ch = lifted.data[..., ei]
        assert ch[9, 11, 7] > 0.0
        # the channel maximum lies on (or within a voxel of) the emitter ray
        mx = np.unravel_index(np.argmax(ch), ch.shape)
        c = geom.emitter_positions[ei]
        ray = voxel_world - c
        ray = ray / np.linalg.norm(ray)
        rel = GRID.voxel_centers()[mx] - c
        perp = rel - (rel @ ray) * ray
        assert np.linalg.norm(perp) < min(SPACING)


def test_lift_is_linear_in_projection_intensities():
    geom = three_emitter_geometry()
    rng = np.random.default_rng(2)
    a = rng.random((40, 40, 3))
    b = rng.random((40, 40, 3))
    la = lift3d(ProjectionSet(geom, a), GRID)
    lb = lift3d(ProjectionSet(geom, b), GRID)
    lc = lift3d(ProjectionSet(geom, 1.5 * a + 0.25 * b), GRID)
    assert_allclose(lc.data, 1.5 * la.data + 0.25 * lb.data, atol=1e-12)


def test_voxel_at_the_emitter_is_zeroed_and_counted():
    geom = build_sdct_geometry(1, 20.0, 100.0, detector_dims=(12, 12),
                               detector_spacing=(2.0, 2.0))
    emitter = geom.emitter_positions[0]
    grid = GridSpec((3, 3, 3), (1.0, 1.0, 1.0),
                    tuple(emitter - np.array([1.0, 1.0, 1.0])))
    lifted = lift3d(ProjectionSet(geom, np.ones((12, 12, 1))), grid)
    assert lifted.n_undefined >= 1
    assert lifted.data[1, 1, 1, 0] == 0.0


def test_projection_set_validates_count_and_sign():
    geom = three_emitter_geometry()
    ones = np.ones((40, 40, 3))
    assert ProjectionSet(geom, ones).data.shape == (40, 40, 3)
    with pytest.raises(ValueError, match="projection count 2 does not match n_emitters 3"):
        ProjectionSet(geom, ones[..., :2])
    negative = ones.copy()
    negative[..., 2] = -1.0
    with pytest.raises(ValueError, match="projection values must be >= 0"):
        ProjectionSet(geom, negative)
    # the stack's leading axes are the detector's dims, whatever its count
    for data in (np.ones((39, 40, 3)), np.ones((40, 41, 2))):
        with pytest.raises(ValueError, match="does not match dims"):
            ProjectionSet(geom, data)
    for data, message in ((np.ones((40, 40)), "data must have 3 axes, got 2"),
                          (np.ones((40, 40, 3), dtype=np.int64), "float array"),
                          (np.full((40, 40, 3), np.nan), "non-finite")):
        with pytest.raises(ValueError, match=message):
            ProjectionSet(geom, data)


# ---------------------------------------------------------------------------
# generated geometries: non-cubic grids, anisotropic voxels and pixels,
# off-centre emitter lines, 1-5 emitters
# ---------------------------------------------------------------------------

@st.composite
def scenes(draw):
    dims = tuple(draw(st.integers(2, 9)) for _ in range(3))
    spacing = tuple(draw(st.floats(0.5, 3.0)) for _ in range(3))
    origin = (draw(st.floats(-20.0, 5.0)), draw(st.floats(-20.0, 5.0)),
              draw(st.floats(5.0, 60.0)))
    geom = build_sdct_geometry(
        draw(st.integers(1, 5)), draw(st.floats(10.0, 60.0)),
        draw(st.floats(150.0, 400.0)),
        line_offset=(draw(st.floats(-30.0, 30.0)), draw(st.floats(-30.0, 30.0))),
        detector_dims=(draw(st.integers(4, 16)), draw(st.integers(4, 16))),
        detector_spacing=(draw(st.floats(0.7, 3.0)), draw(st.floats(0.7, 3.0))))
    step = draw(st.one_of(st.none(), st.floats(0.3, 2.0)))
    return GridSpec(dims, spacing, origin), geom, step, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None)
@given(scenes())
def test_operator_adjoint_matches_forward_inner_product(scene):
    grid, geom, step, seed = scene
    op = DrrOperator(grid, geom, step_mm=step)
    rng = np.random.default_rng(seed)
    x = rng.random(grid.dims)
    y = rng.random(geom.detector_dims + (geom.n_emitters,))
    lhs = float(np.sum(op.forward(x) * y))
    rhs = float(np.sum(x * op.adjoint(y)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(scenes())
def test_the_stacked_matrix_holds_each_emitters_rows_entry_for_entry(scene):
    """Row p * n + i of the stacked matrix is row p of emitter i's own
    matrix, with the same entries in the same order, so the all-emitter
    forward equals each emitter's own product bit for bit."""
    grid, geom, step, seed = scene
    op = DrrOperator(grid, geom, step_mm=step)
    A, AT = op._matrices()
    n = geom.n_emitters
    vol = np.random.default_rng(seed).random(grid.dims)
    got = op.forward(vol)
    assert got.shape == geom.detector_dims + (n,)
    for i in range(n):
        own = op._build(i)
        rows = A[i::n]
        assert_array_equal(rows.indptr, own.indptr)
        assert_array_equal(rows.indices, own.indices)
        assert_array_equal(rows.data.view(np.int64), own.data.view(np.int64))
        want = own @ vol.reshape(-1)
        assert_array_equal(got[..., i].reshape(-1).view(np.int64), want.view(np.int64))
    assert (AT != A.T).nnz == 0
    assert_array_equal(op._nnz(), [op._build(i).nnz for i in range(n)])


def test_the_emitter_whose_rays_all_miss_the_grid_is_named():
    """Emitter 1 sits 60 mm to the side of a grid just below emitter 0, so
    none of its rays to the detector crosses the grid."""
    grid = GridSpec((5, 5, 5), (1.0, 1.0, 1.0), (-2.0, -2.0, 88.0))
    geom = SdctGeometry(n_emitters=3,
                        emitter_positions=[[0.0, 0.0, 100.0], [60.0, 0.0, 100.0],
                                           [1.0, 0.0, 100.0]],
                        detector_origin=(-3.5, -3.5, 0.0),
                        detector_axes=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                        detector_dims=(8, 8), detector_spacing=(1.0, 1.0))
    op = DrrOperator(grid, geom)
    nnz = op._nnz()
    assert nnz[0] > 0 and nnz[1] == 0 and nnz[2] > 0
    rng = np.random.default_rng(4)
    ones = np.ones(grid.dims)
    ctx = LossContext(LossConfig(loss_mode="sim2d"),
                      Image3D(grid.dims, grid.spacing, grid.origin, rng.random(grid.dims)),
                      Mask3D(grid.dims, grid.spacing, grid.origin, ones),
                      projections=ProjectionSet(geom, rng.random((8, 8, 3))), drr_op=op)
    with pytest.raises(ValueError, match="projection 1: no ray of emitter 1 meets"):
        ctx.require_contrast()


@settings(max_examples=30, deadline=None)
@given(scenes())
def test_forward_is_the_unclipped_midpoint_sum(scene):
    """The matrix keeps only the samples near the grid; every sample it
    leaves out must weigh zero, so the forward equals step times the sum
    over all k < floor(length / step) of the samples at (k + 1/2) * step."""
    grid, geom, step, seed = scene
    op = DrrOperator(grid, geom, step_mm=step)
    step = op.step_mm
    vol = np.random.default_rng(seed).random(grid.dims)
    pix = geom.pixel_centers().reshape(-1, 3)
    got = op.forward(vol)
    for i, c in enumerate(geom.emitter_positions):
        length = np.linalg.norm(pix - c, axis=1)
        n = np.floor(length / step).astype(np.int64)
        k = np.arange(n.max())
        t = (k + 0.5) * step
        pts = c + t[None, :, None] * ((pix - c) / length[:, None])[:, None, :]
        vals = sample_trilinear(vol, grid.world_to_voxel(pts.reshape(-1, 3)))
        want = step * np.where(k < n[:, None], vals.reshape(n.size, -1), 0.0).sum(axis=1)
        assert_allclose(got[..., i].reshape(-1), want, rtol=1e-12, atol=0.0)


def test_a_geometry_2e_3_mm_off_is_another_geometry():
    """Geometries match within an absolute 1e-9 mm: a relative tolerance
    would pass emitters 2e-3 mm deeper at a distance of metres, so an
    operator built for them would render the wrong acquisition."""
    geom = geometry_for(SPEC32)
    deeper = replace(geom, emitter_positions=geom.emitter_positions + [0.0, 0.0, 2e-3])
    assert geom.allclose(replace(geom)) and not geom.allclose(deeper)
    op = DrrOperator(grid_for(SPEC32), deeper, step_for(SPEC32))
    grid = op.grid
    ones = np.ones(grid.dims)
    projs = ProjectionSet(geom, np.ones(geom.detector_dims + (geom.n_emitters,)))
    with pytest.raises(ValueError, match="geometry does not match projections"):
        LossContext(LossConfig(loss_mode="sim2d"),
                    Image3D(grid.dims, grid.spacing, grid.origin, ones),
                    Mask3D(grid.dims, grid.spacing, grid.origin, ones),
                    projections=projs, drr_op=op)
    with pytest.raises(ValueError, match="does not match the spec"):
        make_pair(SPEC32, 0, drr_op=op)


def test_axis_parallel_ray_beside_the_grid_builds_without_warnings():
    # the central pixel lies straight below the emitter, so its ray is
    # parallel to x and y; the grid sits beside it in x
    geom = build_sdct_geometry(1, 30.0, 200.0, detector_dims=(5, 5),
                               detector_spacing=(1.0, 1.0))
    grid = GridSpec((3, 4, 5), (1.0, 1.5, 2.0), (2.0, -2.0, 20.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mat = DrrOperator(grid, geom)._build(0)
    assert mat.nnz > 0 and mat[12].nnz == 0


def test_subnormal_ray_component_builds_without_warnings():
    # the emitter sits a subnormal distance off y = 0, so the central
    # pixel's ray has a subnormal y component: parallel to y in effect
    tiny = 2.2250738585072014e-308
    grid = GridSpec((2, 2, 2), (1.0, 1.0, 1.0), (0.0, 0.0, 5.0))
    mats = []
    for y in (tiny, 0.0):
        geom = build_sdct_geometry(1, 30.0, 200.0, line_offset=(0.0, y),
                                   detector_dims=(5, 5), detector_spacing=(1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mats.append(DrrOperator(grid, geom)._build(0))
    assert mats[0].nnz > 0 and (mats[0] != mats[1]).nnz == 0


def reference_bilinear_pixels(data, gu, gv):
    """Bilinear detector-image sampling, each corner masked outside the image."""
    wd, hd = data.shape
    iu0, iv0 = np.floor(gu), np.floor(gv)
    fu, fv = gu - iu0, gv - iv0
    iu0, iv0 = iu0.astype(np.int64), iv0.astype(np.int64)
    out = np.zeros(gu.shape[0], dtype=np.float64)
    for du in (0, 1):
        iu = iu0 + du
        oku = (iu >= 0) & (iu < wd)
        wu = fu if du else 1.0 - fu
        for dv in (0, 1):
            iv = iv0 + dv
            ok = oku & (iv >= 0) & (iv < hd)
            wv = fv if dv else 1.0 - fv
            out += np.where(ok, wu * wv, 0.0) * data[np.clip(iu, 0, wd - 1),
                                                     np.clip(iv, 0, hd - 1)]
    return out


@settings(max_examples=40, deadline=None)
@given(scenes())
def test_lift_matches_the_masked_bilinear_reference(scene):
    grid, geom, _, seed = scene
    rng = np.random.default_rng(seed)
    images = rng.random(geom.detector_dims + (geom.n_emitters,))
    lifted = lift3d(ProjectionSet(geom, images), grid)
    assert lifted.n_undefined == 0
    assert lifted.data.shape == grid.dims + (geom.n_emitters,)
    centers = grid.voxel_centers().reshape(-1, 3)
    for i in range(geom.n_emitters):
        img = images[..., i]
        gu, gv = project_point(geom, i, centers)
        want = reference_bilinear_pixels(img, gu, gv).reshape(grid.dims)
        # rounding, and fractions within 1e-9 of a pixel that the lift snaps
        assert_allclose(lifted.data[..., i], want, rtol=0.0, atol=2e-9 * img.max())
