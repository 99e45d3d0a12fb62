"""Emitter-line geometry, ray-integral rendering, and backprojection."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from tomoreg import (DrrOperator, GridSpec, Image2D, Image3D, ProjectionSet,
                     SdctGeometry, build_sdct_geometry, lift3d, render_drr)

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


def test_geometry_rejects_emitters_on_the_detector_plane():
    with pytest.raises(ValueError):
        SdctGeometry(n_emitters=1, emitter_positions=[[0.0, 0.0, 0.0]],
                     detector_origin=(0.0, 0.0, 0.0),
                     detector_axes=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                     detector_dims=(8, 8), detector_spacing=(1.0, 1.0))


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
    img = render_drr(vol, geom, 1, step_mm=0.75)
    assert_array_equal(img.data, np.zeros(geom.detector_dims))


def test_central_ray_through_unit_cube_integrates_chord_length():
    # emitter far above the cube center; vertical ray, chord = z extent
    dims, sp = (16, 16, 16), (1.0, 1.0, 1.0)
    org = (-7.5, -7.5, 50.0)
    vol = Image3D(dims, sp, org, np.ones(dims))
    geom = build_sdct_geometry(1, 10.0, 2000.0, detector_dims=(9, 9),
                               detector_spacing=(2.0, 2.0))
    img = render_drr(vol, geom, 0, step_mm=0.5)
    center = img.data[4, 4]
    assert abs(center - 16.0) < 2.0 * 0.5


def test_impulse_projects_within_one_pixel_of_the_closed_form():
    geom = three_emitter_geometry()
    data = np.zeros(DIMS)
    data[9, 11, 7] = 1.0
    vol = Image3D(DIMS, SPACING, ORIGIN, data)
    voxel_world = GRID.voxel_centers()[9, 11, 7]
    for ei in range(3):
        img = render_drr(vol, geom, ei, step_mm=0.75)
        pu, pv = project_point(geom, ei, voxel_world)
        nz = np.argwhere(img.data > 1e-9)
        assert nz.size > 0
        assert np.abs(nz[:, 0] - pu).max() <= 1.0
        assert np.abs(nz[:, 1] - pv).max() <= 1.0


def test_render_is_linear_in_the_volume():
    geom = three_emitter_geometry()
    rng = np.random.default_rng(1)
    v1 = Image3D(DIMS, SPACING, ORIGIN, rng.random(DIMS))
    v2 = Image3D(DIMS, SPACING, ORIGIN, rng.random(DIMS))
    comb = Image3D(DIMS, SPACING, ORIGIN, 2.5 * v1.data - 0.7 * v2.data)
    got = render_drr(comb, geom, 1, step_mm=0.75).data
    want = (2.5 * render_drr(v1, geom, 1, step_mm=0.75).data
            - 0.7 * render_drr(v2, geom, 1, step_mm=0.75).data)
    rel = np.abs(got - want).max() / np.abs(want).max()
    assert rel < 1e-6


def test_halved_step_changes_pixels_less_than_one_sample():
    geom = three_emitter_geometry()
    rng = np.random.default_rng(0)
    vol = Image3D(DIMS, SPACING, ORIGIN, np.abs(rng.standard_normal(DIMS)))
    coarse = render_drr(vol, geom, 0, step_mm=1.5).data
    fine = render_drr(vol, geom, 0, step_mm=0.75).data
    assert np.abs(coarse - fine).max() < 1.5 * vol.data.max()


def test_render_rejects_bad_emitter_index_and_step():
    geom = three_emitter_geometry()
    vol = Image3D(DIMS, SPACING, ORIGIN, np.ones(DIMS))
    with pytest.raises((IndexError, ValueError)):
        render_drr(vol, geom, 3, step_mm=0.75)
    with pytest.raises(ValueError):
        render_drr(vol, geom, 0, step_mm=0.0)


# ---------------------------------------------------------------------------
# backprojection
# ---------------------------------------------------------------------------

def test_constant_image_backprojects_to_its_value_inside_the_frustum():
    geom = build_sdct_geometry(1, 20.0, 400.0, detector_dims=(40, 40),
                               detector_spacing=(1.8, 1.8))
    img = Image2D((40, 40), (1.8, 1.8), np.full((40, 40), 7.25))
    lifted = lift3d(ProjectionSet(geom, [img]), GRID)
    ch = lifted.channels[0].data
    inside = ch != 0.0
    assert inside.any()
    assert_allclose(ch[inside], 7.25, rtol=1e-12)


def test_impulse_pixel_lifts_to_a_one_pixel_tube():
    geom = three_emitter_geometry()
    pix = np.zeros((40, 40))
    iu, iv = 17, 23
    pix[iu, iv] = 1.0
    images = [Image2D((40, 40), (1.8, 1.8),
                      pix if i == 1 else np.zeros((40, 40))) for i in range(3)]
    lifted = lift3d(ProjectionSet(geom, images), GRID)
    nz = np.argwhere(lifted.channels[1].data > 1e-9)
    assert nz.size > 0
    # bilinear pickup is supported within one pixel of the impulse, so every
    # nonzero voxel must project there; that is the tube membership test
    world = GRID.voxel_centers()[tuple(nz.T)]
    for p in world:
        pu, pv = project_point(geom, 1, p)
        assert max(abs(pu - iu), abs(pv - iv)) < 1.0 + 1e-9
    assert_array_equal(lifted.channels[0].data, np.zeros(DIMS))
    assert_array_equal(lifted.channels[2].data, np.zeros(DIMS))


def test_render_then_lift_keeps_the_impulse_voxel_positive():
    geom = three_emitter_geometry()
    data = np.zeros(DIMS)
    data[9, 11, 7] = 1.0
    vol = Image3D(DIMS, SPACING, ORIGIN, data)
    projs = ProjectionSet(
        geom, [render_drr(vol, geom, i, step_mm=0.75) for i in range(3)])
    lifted = lift3d(projs, GRID)
    voxel_world = GRID.voxel_centers()[9, 11, 7]
    for ei in range(3):
        ch = lifted.channels[ei].data
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
    a = [Image2D((40, 40), (1.8, 1.8), rng.random((40, 40))) for _ in range(3)]
    b = [Image2D((40, 40), (1.8, 1.8), rng.random((40, 40))) for _ in range(3)]
    comb = [Image2D((40, 40), (1.8, 1.8), 1.5 * x.data + 0.25 * y.data)
            for x, y in zip(a, b)]
    la = lift3d(ProjectionSet(geom, a), GRID)
    lb = lift3d(ProjectionSet(geom, b), GRID)
    lc = lift3d(ProjectionSet(geom, comb), GRID)
    for ch_a, ch_b, ch_c in zip(la.channels, lb.channels, lc.channels):
        assert_allclose(ch_c.data, 1.5 * ch_a.data + 0.25 * ch_b.data,
                        atol=1e-12)


def test_voxel_at_the_emitter_is_zeroed_and_counted():
    geom = build_sdct_geometry(1, 20.0, 100.0, detector_dims=(12, 12),
                               detector_spacing=(2.0, 2.0))
    emitter = geom.emitter_positions[0]
    grid = GridSpec((3, 3, 3), (1.0, 1.0, 1.0),
                    tuple(emitter - np.array([1.0, 1.0, 1.0])))
    img = Image2D((12, 12), (2.0, 2.0), np.ones((12, 12)))
    lifted = lift3d(ProjectionSet(geom, [img]), grid)
    assert lifted.n_undefined >= 1
    assert lifted.channels[0].data[1, 1, 1] == 0.0


def test_projection_set_validates_count_and_sign():
    geom = three_emitter_geometry()
    img = Image2D((40, 40), (1.8, 1.8), np.ones((40, 40)))
    with pytest.raises(ValueError):
        ProjectionSet(geom, [img, img])
    with pytest.raises(ValueError):
        ProjectionSet(geom, [img, img,
                             Image2D((40, 40), (1.8, 1.8),
                                     -np.ones((40, 40)))])


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
    for i in range(geom.n_emitters):
        x = rng.random(grid.dims)
        y = rng.random(geom.detector_dims)
        lhs = float(np.sum(op.forward(x, i) * y))
        rhs = float(np.sum(x * op.adjoint(y, i)))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_axis_parallel_ray_beside_the_grid_builds_without_warnings():
    # the central pixel lies straight below the emitter, so its ray is
    # parallel to x and y; the grid sits beside it in x
    geom = build_sdct_geometry(1, 30.0, 200.0, detector_dims=(5, 5),
                               detector_spacing=(1.0, 1.0))
    grid = GridSpec((3, 4, 5), (1.0, 1.5, 2.0), (2.0, -2.0, 20.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mat = DrrOperator(grid, geom)._mat(0)
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
            mats.append(DrrOperator(grid, geom)._mat(0))
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
    images = [Image2D(geom.detector_dims, geom.detector_spacing,
                      rng.random(geom.detector_dims)) for _ in range(geom.n_emitters)]
    lifted = lift3d(ProjectionSet(geom, images), grid)
    assert lifted.n_undefined == 0
    centers = grid.voxel_centers().reshape(-1, 3)
    for i, (img, ch) in enumerate(zip(images, lifted.channels)):
        gu, gv = project_point(geom, i, centers)
        want = reference_bilinear_pixels(img.data, gu, gv).reshape(grid.dims)
        # rounding, and fractions within 1e-9 of a pixel that the lift snaps
        assert_allclose(ch.data, want, rtol=0.0, atol=2e-9 * img.data.max())
