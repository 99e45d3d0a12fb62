"""Similarity and regularization terms plus their analytic gradients."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.ndimage import gaussian_filter

from tomoreg import (DeformationSubspace, DisplacementField, DrrOperator,
                     GridSpec, Image3D, LossConfig, Mask3D,
                     ProjectionSet, build_sdct_geometry, build_subspace,
                     reconstruct, warp_image, zero_displacement)
from tomoreg.grids import _warp_coords
from tomoreg.losses import (LossContext, _diffusion, _ncc_core, _plan,
                            diffusion_quadratic, grad_alpha, grad_dense)


def ncc(a, b) -> float:
    """The guarded correlation of two arrays over all their elements."""
    return _ncc_core(np.ravel(a), np.ravel(b))[0]


def diffusion_energy(u) -> float:
    """Diffusion energy of a displacement field, from one difference pass."""
    return _diffusion(u.data, u.spacing)[0]


def ones_mask(dims, spacing, origin):
    return Mask3D(dims, spacing, origin, np.ones(dims))


def masked_sim(target, source, target_mask, source_mask, u):
    """The volume similarity alone: the sim3d loss at lam 0."""
    ctx = LossContext(LossConfig(lam=0.0), source, source_mask,
                      target=target, target_mask=target_mask)
    return ctx.loss(u)


# a non-cubic grid whose source mask is a box inside it: sample points near
# the box's faces fall in cells with some corners of the masked source
# non-zero and some zero, on either side of where the warp stops sampling
PARTIAL = {"dims": (9, 7, 8), "spacing": (1.4, 1.1, 0.9),
           "mask_box": (slice(2, 7), slice(1, 5), slice(3, 8))}


def box_mask(dims, spacing, origin, box):
    data = np.zeros(dims)
    data[box] = 1.0
    return Mask3D(dims, spacing, origin, data)


def fd_instance(seed, **grid):
    """``fd_scene``'s problem with both loss modes attached, at lam 0.1."""
    scene, sub, alpha = fd_scene(seed, **grid)
    ctx3 = LossContext(LossConfig(0.1, "sim3d"), scene["source"], scene["source_mask"],
                       target=scene["target"], target_mask=scene["target_mask"])
    ctx2 = LossContext(LossConfig(0.1, "sim2d"), scene["source"], scene["source_mask"],
                       projections=scene["projections"], drr_op=scene["drr_op"])
    return ctx3, ctx2, sub, alpha


def fd_scene(seed, dims=(8, 8, 8), spacing=(1.5, 1.2, 1.0), mask_box=None):
    """Smooth random problem: the inputs of both loss modes, a subspace and
    a coefficient vector.

    The grid is centred in x and y.  With ``mask_box`` the source mask is
    that box, otherwise all ones.  The finite-difference probe itself is
    only trustworthy when no sample point of the perturbed field straddles
    an interpolation cell face, so the instances are pinned by seed; they
    were screened for healthy per-coefficient derivatives.
    """
    rng = np.random.default_rng(seed)
    origin = (-spacing[0] * (dims[0] - 1) / 2, -spacing[1] * (dims[1] - 1) / 2, 3.0)

    def smooth(shape):
        return gaussian_filter(rng.standard_normal(shape), sigma=1.5,
                               mode="nearest")

    s = smooth(dims)
    t = smooth(dims)
    src = Image3D(dims, spacing, origin, (s - s.min() + 0.1).astype(np.float32))
    tgt = Image3D(dims, spacing, origin, (t - t.min() + 0.1).astype(np.float32))
    mask = ones_mask(dims, spacing, origin)
    src_mask = mask if mask_box is None else box_mask(dims, spacing, origin, mask_box)
    geom = build_sdct_geometry(2, 24.0, 60.0, detector_dims=(10, 10),
                               detector_spacing=(1.6, 1.6))
    op = DrrOperator(GridSpec(dims, spacing, origin), geom)
    projs = op.render_all(tgt)

    raw = np.stack([np.stack([smooth(dims) for _ in range(3)],
                             axis=-1).reshape(-1) for _ in range(3)])
    q, _ = np.linalg.qr(raw.T)
    basis = q.T.copy()
    mean = 0.4 * np.stack([smooth(dims) for _ in range(3)], axis=-1)
    sub = DeformationSubspace(dims=dims, spacing=spacing, origin=origin,
                              mean=mean, basis=basis,
                              singular_values=np.array([3.0, 2.0, 1.0]),
                              variance_fraction=1.0)
    alpha = 0.5 * rng.standard_normal(3)
    scene = dict(source=src, source_mask=src_mask, target=tgt, target_mask=mask,
                 projections=projs, drr_op=op)
    return scene, sub, alpha


# ---------------------------------------------------------------------------
# normalized cross correlation
# ---------------------------------------------------------------------------

def test_ncc_of_a_volume_with_itself_is_one():
    rng = np.random.default_rng(0)
    a = rng.random((7, 6, 5))
    assert abs(ncc(a, a) - 1.0) < 1e-8
    assert abs(ncc(a, -a) + 1.0) < 1e-8


def test_ncc_is_invariant_to_positive_affine_rescaling():
    rng = np.random.default_rng(1)
    a = rng.random((6, 6, 6))
    b = rng.random((6, 6, 6))
    assert abs(ncc(a, 2.0 * a + 3.0) - 1.0) < 1e-8
    assert ncc(a, 1.7 * b + 0.4) == pytest.approx(ncc(a, b), abs=1e-10)


def test_ncc_stays_in_the_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(25):
        v = ncc(rng.random((4, 4, 4)), rng.random((4, 4, 4)))
        assert -1.0 <= v <= 1.0


def test_ncc_of_a_constant_is_zero_by_the_variance_guard():
    rng = np.random.default_rng(3)
    a = rng.random((5, 5, 5))
    assert ncc(a, np.full((5, 5, 5), 4.0)) == 0.0
    assert ncc(np.zeros((5, 5, 5)), a) == 0.0


def test_ncc_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ncc(np.ones((4, 4, 4)), np.ones((4, 4, 5)))


# ---------------------------------------------------------------------------
# masked similarity
# ---------------------------------------------------------------------------

def test_perfectly_aligned_pair_has_zero_loss():
    rng = np.random.default_rng(4)
    dims, sp, org = (8, 8, 8), (2.0, 2.0, 2.0), (0.0, 0.0, 0.0)
    img = Image3D(dims, sp, org, rng.random(dims))
    mask = ones_mask(dims, sp, org)
    u = zero_displacement(img.grid)
    assert masked_sim(img, img, mask, mask, u) < 1e-8


def test_constant_warped_source_hits_the_degenerate_guard():
    rng = np.random.default_rng(5)
    dims, sp, org = (6, 6, 6), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)
    tgt = Image3D(dims, sp, org, rng.random(dims))
    src = Image3D(dims, sp, org, np.full(dims, 2.5))
    mask = ones_mask(dims, sp, org)
    u = zero_displacement(tgt.grid)
    assert masked_sim(tgt, src, mask, mask, u) == 1.0


def test_true_field_scores_better_than_identity(pair32):
    at_true = masked_sim(pair32.target, pair32.source,
                         pair32.target_mask, pair32.source_mask, pair32.u_true)
    at_zero = masked_sim(pair32.target, pair32.source,
                         pair32.target_mask, pair32.source_mask,
                         zero_displacement(pair32.u_true.grid))
    assert at_true < at_zero


# ---------------------------------------------------------------------------
# diffusion energy
# ---------------------------------------------------------------------------

def test_constant_displacement_has_zero_energy():
    grid = GridSpec((5, 4, 6), (1.5, 1.0, 2.0))
    u = DisplacementField(grid.dims, grid.spacing, grid.origin,
                          np.broadcast_to(np.array([1.0, -2.0, 0.5]),
                                          grid.dims + (3,)).copy())
    assert diffusion_energy(u) == 0.0


def test_two_cube_single_component_hand_sum():
    # forward differences live only at index 0 per axis; one nonzero entry
    # v at voxel (0,0,0) contributes (v/sx)^2+(v/sy)^2+(v/sz)^2, then /8
    v, sx, sy, sz = 2.0, 1.0, 2.0, 4.0
    data = np.zeros((2, 2, 2, 3))
    data[0, 0, 0, 0] = v
    u = DisplacementField((2, 2, 2), (sx, sy, sz), (0, 0, 0), data)
    want = v * v * (1.0 / sx ** 2 + 1.0 / sy ** 2 + 1.0 / sz ** 2) / 8.0
    assert diffusion_energy(u) == pytest.approx(want, rel=1e-12)


def test_linear_field_energy_approaches_frobenius_norm():
    rng = np.random.default_rng(6)
    A = 0.2 * rng.standard_normal((3, 3))
    grid = GridSpec((12, 10, 14), (1.5, 1.1, 0.9), (-3.0, 0.0, 1.0))
    xyz = grid.voxel_centers()
    u = DisplacementField(grid.dims, grid.spacing, grid.origin,
                          xyz @ A.T)
    want = float(np.sum(A * A))
    got = diffusion_energy(u)
    assert abs(got - want) / want <= 3.0 / min(grid.dims)


def test_energy_is_zero_only_for_constant_fields():
    rng = np.random.default_rng(7)
    grid = GridSpec((5, 5, 5), (1.0, 1.0, 1.0))
    u = DisplacementField(grid.dims, grid.spacing, grid.origin,
                          rng.standard_normal(grid.dims + (3,)))
    assert diffusion_energy(u) > 0.0


def reference_diffusion_grad(data, spacing):
    """dE/du summed into zeros: per axis, the forward difference scaled by
    2 / n_voxels / spacing, added to the upper slices and subtracted from
    the lower ones."""
    n = data.shape[0] * data.shape[1] * data.shape[2]
    g = np.zeros(data.shape)
    for ax in range(3):
        inv = 1.0 / float(spacing[ax])
        scaled = (2.0 / n) * inv * (np.diff(data, axis=ax) * inv)
        head = (slice(None),) * ax
        g[head + (slice(1, None),)] += scaled
        g[head + (slice(0, -1),)] -= scaled
    return g


@pytest.mark.parametrize("dims", [(5, 4, 6), (1, 4, 3), (3, 1, 1), (1, 1, 1)])
def test_the_diffusion_gradient_is_the_sum_from_zero_bit_for_bit(dims):
    """Signed zeros included: a -0.0 difference, and a product that
    underflows to -0.0, add to 0.0 as +0.0 on the first axis.  The callable
    gives the same gradient on every call."""
    rng = np.random.default_rng(sum(dims))
    data = rng.standard_normal(dims + (3,))
    for value, share in ((0.0, 0.3), (-0.0, 0.3), (-1e-320, 0.1), (1e-320, 0.1)):
        data[rng.random(data.shape) < share] = value
    spacing = (1.5, 0.7, 2.2)
    grad = _diffusion(data, spacing)[1]
    want = reference_diffusion_grad(data, spacing)
    assert_same_bits(grad(), want)
    assert_same_bits(grad(), want)


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------

def test_identity_pair_at_zero_lambda_scores_zero():
    rng = np.random.default_rng(8)
    dims, sp, org = (8, 8, 8), (1.5, 1.5, 1.5), (0.0, 0.0, 0.0)
    img = Image3D(dims, sp, org, rng.random(dims))
    mask = ones_mask(dims, sp, org)
    ctx = LossContext(LossConfig(0.0, "sim3d"), img, mask, target=img,
                      target_mask=mask)
    loss = ctx.loss(zero_displacement(img.grid))
    assert loss < 1e-8


def test_loss_is_linear_in_lambda():
    rng = np.random.default_rng(9)
    dims, sp, org = (8, 8, 8), (1.5, 1.5, 1.5), (0.0, 0.0, 0.0)
    src = Image3D(dims, sp, org, rng.random(dims))
    tgt = Image3D(dims, sp, org, rng.random(dims))
    mask = ones_mask(dims, sp, org)
    u = DisplacementField(dims, sp, org,
                          0.5 * rng.standard_normal(dims + (3,)))
    l1, l2 = (LossContext(LossConfig(lam, "sim3d"), src, mask, target=tgt,
                          target_mask=mask).loss(u) for lam in (0.4, 0.8))
    assert l2 - l1 == pytest.approx(0.4 * diffusion_energy(u), rel=1e-10)


def test_degenerate_projection_pair_reduces_to_regularizer_plus_guard():
    # zero volume and zero projections make every emitter correlation
    # undefined; each similarity term takes the guarded value 1 - 0
    dims, sp, org = (8, 8, 8), (2.0, 2.0, 2.0), (-7.0, -7.0, 10.0)
    src = Image3D(dims, sp, org, np.zeros(dims))
    mask = ones_mask(dims, sp, org)
    geom = build_sdct_geometry(3, 30.0, 300.0, detector_dims=(12, 12),
                               detector_spacing=(2.5, 2.5))
    projs = ProjectionSet(geom, np.zeros((12, 12, 3)))
    rng = np.random.default_rng(10)
    u = DisplacementField(dims, sp, org,
                          0.5 * rng.standard_normal(dims + (3,)))
    cfg = LossConfig(0.3, "sim2d")
    loss = LossContext(cfg, src, mask, projections=projs).loss(u)
    assert loss == pytest.approx(1.0 + 0.3 * diffusion_energy(u), rel=1e-12)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(lam=-0.1)
    with pytest.raises(ValueError):
        LossConfig(lam=0.1, loss_mode="sim4d")


def test_missing_mode_inputs_are_rejected():
    dims, sp, org = (6, 6, 6), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)
    img = Image3D(dims, sp, org, np.ones(dims))
    mask = ones_mask(dims, sp, org)
    with pytest.raises(ValueError):
        LossContext(LossConfig(0.1, "sim3d"), img, mask)
    with pytest.raises(ValueError):
        LossContext(LossConfig(0.1, "sim2d"), img, mask)


def test_the_contrast_check_names_the_constant_operand():
    """Correlation with a constant is undefined at every field; the check
    names the operand, and an emitter that misses the grid comes first."""
    dims, sp, org = (8, 8, 8), (2.0, 2.0, 2.0), (-7.0, -7.0, 10.0)
    img = Image3D(dims, sp, org, np.random.default_rng(0).random(dims))
    full, empty = ones_mask(dims, sp, org), Mask3D(dims, sp, org, np.zeros(dims))
    geom = build_sdct_geometry(3, 30.0, 300.0, detector_dims=(12, 12),
                               detector_spacing=(2.5, 2.5))
    op = DrrOperator(img.grid, geom)
    projs = op.render_all(img)
    dark = ProjectionSet(geom, np.zeros_like(projs.data))
    # every ray of a geometry shifted 5 m sideways misses the grid
    off = np.array([5000.0, 0.0, 0.0])
    missed = ProjectionSet(replace(geom, emitter_positions=geom.emitter_positions + off,
                                   detector_origin=geom.detector_origin + off),
                           projs.data)

    def sim3d(source_mask=full, target_mask=full):
        return LossContext(LossConfig(0.1, "sim3d"), img, source_mask,
                           target=img, target_mask=target_mask)

    def sim2d(source_mask=full, projections=projs, drr_op=op):
        return LossContext(LossConfig(0.1, "sim2d"), img, source_mask,
                           projections=projections, drr_op=drr_op)

    sim3d().require_contrast()
    sim2d().require_contrast()
    undefined = "is constant, so its correlation is undefined"
    for ctx, message in (
            (sim3d(source_mask=empty), f"masked source {undefined}"),
            (sim3d(target_mask=empty), f"masked target {undefined}"),
            (sim2d(source_mask=empty), f"masked source {undefined}"),
            (sim2d(projections=dark), f"projection 0 {undefined}"),
            (sim2d(source_mask=empty, projections=missed, drr_op=None),
             "projection 0: no ray of emitter 0 meets the volume")):
        with pytest.raises(ValueError, match=message):
            ctx.require_contrast()


# ---------------------------------------------------------------------------
# gradients with respect to the coefficients
# ---------------------------------------------------------------------------

def test_gradient_vanishes_at_an_exact_minimum():
    ctx3, ctx2, sub, _ = fd_instance(3)
    zero_sub = DeformationSubspace(dims=sub.dims, spacing=sub.spacing,
                                   origin=sub.origin,
                                   mean=np.zeros_like(sub.mean),
                                   basis=sub.basis,
                                   singular_values=sub.singular_values,
                                   variance_fraction=1.0)
    rng = np.random.default_rng(0)
    dims, spacing, origin = sub.dims, sub.spacing, sub.origin
    img = Image3D(dims, spacing, origin, rng.random(dims) + 0.5)
    mask = ones_mask(dims, spacing, origin)
    ctx = LossContext(LossConfig(0.1, "sim3d"), img, mask,
                      target=img, target_mask=mask)
    g = grad_alpha(ctx, zero_sub, np.zeros(3))
    assert np.abs(g).max() < 1e-6


@pytest.mark.parametrize("seed, grid", [
    pytest.param(3, {}, id="3"), pytest.param(5, {}, id="5"),
    pytest.param(7, PARTIAL, id="partial-mask-7")])
def test_coefficient_gradient_matches_finite_differences(seed, grid):
    ctx3, ctx2, sub, alpha = fd_instance(seed, **grid)
    h = 1e-3
    for ctx in (ctx3, ctx2):
        g = grad_alpha(ctx, sub, alpha)
        for i in range(3):
            ap = alpha.copy()
            ap[i] += h
            am = alpha.copy()
            am[i] -= h
            fd = (ctx.loss(reconstruct(sub, ap))
                  - ctx.loss(reconstruct(sub, am))) / (2.0 * h)
            assert abs(g[i] - fd) / max(abs(fd), 1e-12) < 1e-4


@pytest.mark.parametrize("seed, grid", [
    pytest.param(3, {}, id="3"), pytest.param(7, PARTIAL, id="partial-mask-7")])
def test_grad_alpha_is_the_gradient_the_subspace_drivers_descend(monkeypatch, seed, grid):
    """Both subspace drivers descend the objective grad_alpha differentiates,
    with the caller's lam: their first gradient at alpha is grad_alpha's
    bit for bit."""
    from tomoreg import RegistrationReport, register_subspace_2d, register_subspace_3d
    from tomoreg import registration
    scene, sub, alpha = fd_scene(seed, **grid)
    got = []

    def first_gradient(objective, x0, *args):
        got.append(objective(alpha)[1]())
        return x0, RegistrationReport(0.0, [0.0], 0, "max_iters", None, 0.0)

    monkeypatch.setattr(registration, "_minimize", first_gradient)
    register_subspace_3d(scene["source"], scene["target"], scene["source_mask"],
                         scene["target_mask"], sub, LossConfig(0.1, "sim3d"))
    register_subspace_2d(scene["source"], scene["projections"], scene["source_mask"],
                         sub, LossConfig(0.1, "sim2d"), drr_op=scene["drr_op"])
    ctx3, ctx2 = fd_instance(seed, **grid)[:2]
    assert_same_bits(got[0], grad_alpha(ctx3, sub, alpha))
    assert_same_bits(got[1], grad_alpha(ctx2, sub, alpha))


@pytest.mark.parametrize("lam", [0.1, 0.0])
@pytest.mark.parametrize("mode", ["sim3d", "sim2d"])
def test_the_gauss_newton_matrix_is_the_hessian_at_zero_residual(mode, lam):
    """The measured operands are the renderings of the masked source warped
    by the subspace mean, so alpha = 0 has zero residual and there the
    Gauss-Newton matrix of 1 - NCC is its Hessian; with the exact
    regulariser quadratic added, H matches central differences of
    grad_alpha."""
    scene, sub, _ = fd_scene(3)
    src, src_mask, op = scene["source"], scene["source_mask"], scene["drr_op"]
    masked = Image3D(src.dims, src.spacing, src.origin,
                     src.data.astype(np.float64) * src_mask.data)
    moved = warp_image(masked, reconstruct(sub, np.zeros(sub.n_components)))
    cfg = LossConfig(lam, mode)
    if mode == "sim3d":
        ctx = LossContext(cfg, src, src_mask, target=moved,
                          target_mask=ones_mask(src.dims, src.spacing, src.origin))
    else:
        ctx = LossContext(cfg, src, src_mask, projections=op.render_all(moved), drr_op=op)
    k = sub.n_components
    _, grad = ctx._subspace_objective(sub)(np.zeros(k))
    # the similarity is stationary; the regulariser's gradient is its own
    sim_grad = grad() - 2.0 * lam * _plan(sub).b
    assert np.max(np.abs(sim_grad)) < 1e-7 * np.max(np.abs(grad.gauss_newton()))
    H = grad.gauss_newton()
    # small enough that no sample point crosses a cell face, where the
    # interpolant's derivative jumps
    h = 1e-5
    fd = np.stack([(grad_alpha(ctx, sub, h * e) - grad_alpha(ctx, sub, -h * e)) / (2.0 * h)
                   for e in np.eye(k)], axis=1)
    assert_allclose(H, fd, rtol=0.0, atol=1e-4 * np.abs(H).max())
    assert np.all(np.linalg.eigvalsh(H) > 0.0)


def test_constant_images_isolate_the_regularizer_gradient():
    dims, sp, org = (6, 6, 6), (1.5, 1.2, 1.0), (0.0, 0.0, 0.0)
    const = Image3D(dims, sp, org, np.full(dims, 2.0))
    mask = ones_mask(dims, sp, org)
    rng = np.random.default_rng(0)
    raw = np.stack([rng.standard_normal(3 * 6 ** 3) for _ in range(2)])
    q, _ = np.linalg.qr(raw.T)
    sub = DeformationSubspace(dims=dims, spacing=sp, origin=org,
                              mean=np.zeros(dims + (3,)), basis=q.T.copy(),
                              singular_values=np.array([2.0, 1.0]),
                              variance_fraction=1.0)
    alpha = np.array([0.3, -0.2])
    ctx = LossContext(LossConfig(0.7, "sim3d"), const, mask,
                      target=const, target_mask=mask)
    g = grad_alpha(ctx, sub, alpha)
    h = 1e-6
    for i in range(2):
        ap = alpha.copy()
        ap[i] += h
        am = alpha.copy()
        am[i] -= h
        fd = (ctx.loss(reconstruct(sub, ap))
              - ctx.loss(reconstruct(sub, am))) / (2.0 * h)
        assert g[i] == pytest.approx(fd, rel=1e-6)
    # with the regularizer off the gradient vanishes entirely
    ctx0 = LossContext(LossConfig(0.0, "sim3d"), const, mask,
                       target=const, target_mask=mask)
    assert_array_equal(grad_alpha(ctx0, sub, alpha), np.zeros(2))


# ---------------------------------------------------------------------------
# gradients with respect to the dense field
# ---------------------------------------------------------------------------

def test_dense_gradient_of_constant_images_is_zero():
    dims, sp, org = (6, 6, 6), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)
    const = Image3D(dims, sp, org, np.full(dims, 3.0))
    mask = ones_mask(dims, sp, org)
    ctx = LossContext(LossConfig(0.0, "sim3d"), const, mask,
                      target=const, target_mask=mask)
    rng = np.random.default_rng(11)
    u = DisplacementField(dims, sp, org,
                          0.4 * rng.standard_normal(dims + (3,)))
    g = grad_dense(ctx, u)
    assert_array_equal(g.data, np.zeros(dims + (3,)))


@pytest.mark.parametrize("seed, grid", [
    pytest.param(0, {}, id="0"), pytest.param(3, {}, id="3"),
    pytest.param(7, PARTIAL, id="partial-mask-7")])
def test_dense_gradient_matches_finite_differences(seed, grid):
    rng = np.random.default_rng(seed)
    dims = grid.get("dims", (6, 6, 6))
    sp, org = grid.get("spacing", (1.5, 1.2, 1.0)), (0.0, 0.0, 0.0)

    def smooth():
        return gaussian_filter(rng.standard_normal(dims), sigma=1.2,
                               mode="nearest")

    src = Image3D(dims, sp, org, (smooth() + 2.0).astype(np.float32))
    tgt = Image3D(dims, sp, org, (smooth() + 2.0).astype(np.float32))
    mask = ones_mask(dims, sp, org)
    src_mask = box_mask(dims, sp, org, grid["mask_box"]) if grid else mask
    u0 = 0.35 * np.stack([smooth() for _ in range(3)], axis=-1)
    ctx = LossContext(LossConfig(0.1, "sim3d"), src, src_mask,
                      target=tgt, target_mask=mask)
    u = DisplacementField(dims, sp, org, u0)
    g = grad_dense(ctx, u)
    h = 1e-3
    for ix in [tuple(x) for x in rng.integers(0, dims + (3,), size=(20, 4))]:
        up = u0.copy()
        up[ix] += h
        um = u0.copy()
        um[ix] -= h
        fd = (ctx.loss(DisplacementField(dims, sp, org, up))
              - ctx.loss(DisplacementField(dims, sp, org, um))) / (2.0 * h)
        assert abs(g.data[ix] - fd) / max(abs(fd), 1e-10) < 1e-4


def test_regularizer_adjoint_at_a_linear_field_is_boundary_only():
    # constant images turn the similarity term off; the dense gradient is
    # then lambda times the diffusion adjoint, which for a linear field
    # cancels at interior voxels and survives only on the boundary
    dims, sp, org = (5, 5, 5), (1.0, 1.5, 2.0), (0.0, 0.0, 0.0)
    const = Image3D(dims, sp, org, np.full(dims, 1.0))
    mask = ones_mask(dims, sp, org)
    grid = GridSpec(dims, sp, org)
    A = np.array([[0.1, 0.02, -0.03],
                  [0.0, -0.08, 0.05],
                  [0.04, 0.0, 0.06]])
    u0 = grid.voxel_centers() @ A.T
    lam = 0.7
    ctx = LossContext(LossConfig(lam, "sim3d"), const, mask,
                      target=const, target_mask=mask)
    u = DisplacementField(dims, sp, org, u0)
    g = grad_dense(ctx, u).data

    # brute-force derivative of the whole loss at every component
    h = 1e-6
    fd = np.zeros_like(u0)
    for ix in np.ndindex(u0.shape):
        up = u0.copy()
        up[ix] += h
        um = u0.copy()
        um[ix] -= h
        fd[ix] = (ctx.loss(DisplacementField(dims, sp, org, up))
                  - ctx.loss(DisplacementField(dims, sp, org, um))) / (2 * h)
    assert_allclose(g, fd, atol=1e-7)
    interior = g[1:-1, 1:-1, 1:-1]
    assert np.abs(interior).max() < 1e-12
    assert np.abs(g).max() > 1e-4


@pytest.mark.parametrize("lam", [0.1, 0.0])
@pytest.mark.parametrize("seed, grid", [
    pytest.param(3, {}, id="3"), pytest.param(7, PARTIAL, id="partial-mask-7")])
def test_grad_dense_is_the_gradient_the_dense_driver_descends(monkeypatch, seed, grid,
                                                               lam):
    """The dense driver descends the objective that ``loss`` evaluates and
    grad_dense differentiates, with the caller's lam: at a random field its
    loss and gradient are theirs bit for bit."""
    from tomoreg import RegistrationReport, register_dense_3d
    from tomoreg import registration
    scene, sub, _ = fd_scene(seed, **grid)
    rng = np.random.default_rng(seed)
    u = DisplacementField(sub.dims, sub.spacing, sub.origin,
                          0.5 * rng.standard_normal(sub.dims + (3,)))
    got = []

    def at_u(objective, x0, *args):
        loss, grad = objective(u.data.reshape(-1))
        got.append((loss, grad()))
        return x0, RegistrationReport(0.0, [0.0], 0, "max_iters", None, 0.0)

    monkeypatch.setattr(registration, "_minimize", at_u)
    register_dense_3d(scene["source"], scene["target"], scene["source_mask"],
                      scene["target_mask"], LossConfig(lam, "sim3d"))
    ctx = LossContext(LossConfig(lam, "sim3d"), scene["source"], scene["source_mask"],
                      target=scene["target"], target_mask=scene["target_mask"])
    (loss, grad), = got
    assert_same_bits(loss, ctx.loss(u))
    assert_same_bits(grad, grad_dense(ctx, u).data.reshape(-1))


# ---------------------------------------------------------------------------
# limited-angle null space
# ---------------------------------------------------------------------------

def test_projection_loss_ignores_displacement_along_the_rays():
    """Moving constant-intensity material along each sight line is invisible
    to every projection, so the 2D loss cannot see it."""
    dims, sp = (16, 16, 16), (1.0, 1.0, 1.0)
    org = (-7.5, -7.5, -7.5)
    grid = GridSpec(dims, sp, org)
    xyz = grid.voxel_centers()
    r = np.linalg.norm(xyz, axis=-1)
    vol = np.where(r < 20.0, 0.5, 0.0) + np.where(r < 12.0, 4.5, 0.0)
    src = Image3D(dims, sp, org, vol)
    mask = ones_mask(dims, sp, org)
    geom = build_sdct_geometry(1, 10.0, 400.0, detector_dims=(24, 24),
                               detector_spacing=(2.0, 2.0))
    op = DrrOperator(grid, geom, step_mm=0.5)
    projs = op.render_all(src)
    ctx = LossContext(LossConfig(0.0, "sim2d"), src, mask,
                      projections=projs, drr_op=op)

    emitter = geom.emitter_positions[0]
    rays = xyz - emitter
    rays = rays / np.linalg.norm(rays, axis=-1, keepdims=True)
    du = np.where((r < 6.0)[..., None], 1.5 * rays, 0.0)

    l0 = ctx.loss(zero_displacement(grid))
    l1 = ctx.loss(DisplacementField(dims, sp, org, du))
    assert abs(l1 - l0) <= 1e-12


# ---------------------------------------------------------------------------
# value and gradient phases: the kept state
# ---------------------------------------------------------------------------

def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert_array_equal(got.view(np.int64), want.view(np.int64))


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = [0]
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("mode", ["sim3d", "sim2d"])
def test_gradient_from_a_kept_state_matches_a_fresh_context(monkeypatch, mode):
    """evaluate warps once; its callable gives loss_and_grad's bits, also
    after another field has been evaluated."""
    import tomoreg.losses
    ctx3, ctx2, sub, alpha = fd_instance(3)
    ctx = ctx3 if mode == "sim3d" else ctx2
    fresh3, fresh2, _, _ = fd_instance(3)
    fresh = fresh3 if mode == "sim3d" else fresh2
    u = reconstruct(sub, alpha)
    v = reconstruct(sub, 0.5 * alpha)
    want_total, want_grad = fresh.loss_and_grad(u)
    warps = counting(monkeypatch, tomoreg.losses, "warp_scalar_with_gradient")
    total, grad = ctx.evaluate(u)
    assert warps[0] == 1
    assert_same_bits(total, want_total)
    assert_same_bits(grad(), want_grad)
    assert warps[0] == 1
    # the callable keeps u's state: evaluating v does not replace it
    ctx.evaluate(v)[1]()
    assert_same_bits(grad(), want_grad)
    assert warps[0] == 2


@pytest.mark.parametrize("mode", ["sim3d", "sim2d"])
def test_a_field_changed_in_place_is_evaluated_afresh(mode):
    ctx3, ctx2, sub, alpha = fd_instance(5)
    ctx = ctx3 if mode == "sim3d" else ctx2
    u = reconstruct(sub, alpha)
    ctx.loss(u)
    u.data[2:5, 3, 4, 1] += 0.25
    total, grad = ctx.loss_and_grad(u)
    fresh3, fresh2, _, _ = fd_instance(5)
    want_total, want_grad = (fresh3 if mode == "sim3d" else fresh2).loss_and_grad(u)
    assert_same_bits(total, want_total)
    assert_same_bits(grad, want_grad)


def test_registration_warps_each_evaluated_point_once(monkeypatch, pair32,
                                                      sub32, op32):
    """Each trial is one evaluation, whose gradient callable serves the
    accepted point, so the drivers warp once per evaluation.  Every driver
    reaches the coordinate core from the objective its loss context builds,
    the dense one as the subspace ones, and none calls ``loss`` or
    ``loss_and_grad``."""
    import tomoreg.losses
    from tomoreg import OptimConfig, register_dense_3d, register_subspace_2d
    warps = counting(monkeypatch, tomoreg.losses, "warp_scalar_with_gradient")
    evals = counting(monkeypatch, LossContext, "_evaluate_coords")
    losses = counting(monkeypatch, LossContext, "loss")
    grads = counting(monkeypatch, LossContext, "loss_and_grad")
    opt = OptimConfig(max_iters=12)
    _, _, rep = register_subspace_2d(pair32.source, pair32.projections,
                                     pair32.source_mask, sub32,
                                     LossConfig(0.1, "sim2d"), opt, drr_op=op32)
    assert evals[0] > rep.iterations > 1 and warps[0] == evals[0]
    warps[0] = evals[0] = 0
    _, rep = register_dense_3d(pair32.source, pair32.target, pair32.source_mask,
                               pair32.target_mask, LossConfig(0.1, "sim3d"), opt)
    assert evals[0] > rep.iterations > 1 and warps[0] == evals[0]
    assert losses[0] == grads[0] == 0


def test_a_dense_registration_makes_one_difference_pass_per_evaluation(
        monkeypatch, pair32):
    """The value phase takes the forward differences and the accepted
    trial's gradient callable reuses them, so no evaluation takes two."""
    import tomoreg.losses
    from tomoreg import OptimConfig, register_dense_3d
    diffs = counting(monkeypatch, tomoreg.losses, "_forward_diffs")
    evals = counting(monkeypatch, LossContext, "_evaluate_coords")
    _, rep = register_dense_3d(pair32.source, pair32.target, pair32.source_mask,
                               pair32.target_mask, LossConfig(0.1, "sim3d"),
                               OptimConfig(max_iters=4))
    assert rep.iterations == 4 and evals[0] > rep.iterations
    assert diffs[0] == evals[0]


def test_a_dropped_context_frees_its_kept_states_without_the_collector():
    """Kept states must not refer back to their context: a cycle would hold
    every finished registration's states until a garbage collection."""
    import gc
    import weakref
    ctx3, ctx2, sub, alpha = fd_instance(3)
    u = reconstruct(sub, alpha)
    refs = []
    gc.disable()
    try:
        for ctx in (ctx3, ctx2):
            ctx.loss(u)
            ctx.loss_and_grad(u)
            refs.append(weakref.ref(ctx))
        del ctx, ctx3, ctx2
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the subspace regulariser in closed form
# ---------------------------------------------------------------------------

def test_closed_form_regulariser_matches_the_grid_passes():
    """On a non-cubic, anisotropic subspace with an offset mean, the
    quadratic in alpha gives the grid energy and its pulled-back gradient."""
    rng = np.random.default_rng(11)
    dims, spacing, origin = (7, 5, 9), (0.7, 1.3, 2.1), (1.0, -2.0, 3.0)
    fields = [DisplacementField(dims, spacing, origin,
                                gaussian_filter(rng.standard_normal(dims + (3,)),
                                                (1.0, 1.0, 1.0, 0.0)) + 5.0)
              for _ in range(6)]
    sub = build_subspace(fields, 1.0)
    c, b, G = diffusion_quadratic(sub)
    assert G.shape == (sub.n_components,) * 2
    assert_array_equal(G, G.T)
    for _ in range(5):
        alpha = 3.0 * rng.standard_normal(sub.n_components)
        u = reconstruct(sub, alpha).data
        want, want_grad = _diffusion(u, spacing)
        assert c + (2.0 * b + G @ alpha) @ alpha == pytest.approx(want, rel=1e-12)
        want_grad = sub.basis @ want_grad().reshape(-1)
        assert np.max(np.abs(2.0 * (b + G @ alpha) - want_grad)) \
            <= 1e-12 * np.max(np.abs(want_grad))


def subspace_registration(mode, pair, sub, op, lam, iters):
    from tomoreg import OptimConfig, register_subspace_2d, register_subspace_3d
    opt = OptimConfig(max_iters=iters)
    if mode == "sim3d":
        cfg = LossConfig(lam, "sim3d")
        inputs = dict(target=pair.target, target_mask=pair.target_mask)
        report = register_subspace_3d(pair.source, pair.target, pair.source_mask,
                                      pair.target_mask, sub, cfg, opt)[2]
    else:
        cfg = LossConfig(lam, "sim2d")
        inputs = dict(projections=pair.projections)
        report = register_subspace_2d(pair.source, pair.projections,
                                      pair.source_mask, sub, cfg, opt, drr_op=op)[2]
    return cfg, inputs, report


@pytest.mark.parametrize("mode", ["sim3d", "sim2d"])
def test_subspace_objective_is_the_total_loss_of_its_field(mode, pair32, sub32, op32):
    """The drivers add lam * energy in closed form; what they report is still
    the total loss of the field they return."""
    cfg, inputs, report = subspace_registration(mode, pair32, sub32, op32, 0.1, 3)
    assert report.iterations == 3
    u = reconstruct(sub32, report.alpha)
    want = LossContext(cfg, pair32.source, pair32.source_mask, **inputs).loss(u)
    assert report.final_loss == pytest.approx(want, rel=1e-12)
    # lam * reg is over a tenth of that loss, so the check covers it
    assert 0.1 * diffusion_energy(u) > 0.1 * want


@pytest.mark.parametrize("mode", ["sim3d", "sim2d"])
def test_subspace_registration_makes_one_difference_pass(
        monkeypatch, mode, pair32, sub32, op32):
    """One difference pass over the stacked fields per subspace, in its
    first registration, which builds the plan; the second registration on
    the same subspace makes none.  No diffusion pass on the grid, however
    many iterations."""
    import tomoreg.losses
    sub = replace(sub32)  # a copy that has no plan yet
    diffs = counting(monkeypatch, tomoreg.losses, "_forward_diffs")
    grid_passes = counting(monkeypatch, tomoreg.losses, "_diffusion")
    for iters, passes in ((1, 1), (5, 0)):
        diffs[0] = grid_passes[0] = 0
        report = subspace_registration(mode, pair32, sub, op32, 0.1, iters)[2]
        assert report.iterations == iters
        assert (diffs[0], grid_passes[0]) == (passes, 0)


# ---------------------------------------------------------------------------
# the subspace evaluation plan
# ---------------------------------------------------------------------------

def test_the_plan_at_zero_is_the_mean_fields_warp_coordinates(sub32):
    """At alpha = 0 the plan's coordinates are the field path's bit for bit,
    so an identity registration starts from the same warp as before."""
    for sub in (replace(sub32), fd_instance(7, **PARTIAL)[2]):
        coords = _plan(sub).coords(np.zeros(sub.n_components))
        mean = DisplacementField(sub.dims, sub.spacing, sub.origin, sub.mean)
        assert_same_bits(coords, _warp_coords(sub.grid, mean.grid, mean.data))


@pytest.mark.parametrize("seed, grid", [
    pytest.param(3, {}, id="3"), pytest.param(7, PARTIAL, id="partial-mask-7")])
def test_the_plan_gives_the_field_paths_loss_and_gradient(seed, grid):
    """Coordinates from alpha and the chain rule over the supported voxels
    agree with reconstruct, evaluate and the basis product to rounding."""
    ctx3, ctx2, sub, alpha = fd_instance(seed, **grid)
    plan = _plan(sub)
    u = reconstruct(sub, alpha)
    energy, reg_grad = _diffusion(u.data, u.spacing)
    for ctx in (ctx3, ctx2):
        sim, parts = ctx._evaluate_coords(plan.coords(alpha))
        total, grad = ctx.evaluate(u)
        assert sim + 0.1 * energy == pytest.approx(total, rel=1e-12)
        want = sub.basis @ (grad() - 0.1 * reg_grad()).reshape(-1)
        assert_allclose(plan.pullback(*parts()), want, rtol=0.0,
                        atol=1e-10 * np.abs(want).max())


# ---------------------------------------------------------------------------
# the projection loss's products over the supported voxels
# ---------------------------------------------------------------------------

def minus_zero_scene(seed):
    """``fd_scene`` on the anisotropic partial-mask grid, with a block of
    the masked source set to -0.0: it has support, so its cells are
    sampled, and each of its corners blends to a signed zero."""
    scene, sub, alpha = fd_scene(seed, **PARTIAL)
    src = scene["source"]
    data = src.data.copy()
    data[3:5, 2:4, 4:7] = -0.0
    scene["source"] = Image3D(src.dims, src.spacing, src.origin, data)
    return scene, sub, alpha


@pytest.mark.parametrize("seed", [3, 7])
def test_the_supported_voxel_products_equal_the_full_operator_products(seed):
    """The coordinate core renders from the transpose's rows at the
    supported voxels and back-projects into them only; its similarity and
    d sim / d warped there equal, bit for bit, those of the full
    ``DrrOperator.forward`` of the warped volume and ``adjoint`` of the
    pixel gradient, taken at the same voxels."""
    from tomoreg.grids import _cell_support, _pad, warp_scalar_with_gradient
    from tomoreg.losses import _ncc_grad_b
    scene, sub, alpha = minus_zero_scene(seed)
    src, src_mask, op = scene["source"], scene["source_mask"], scene["drr_op"]
    ctx = LossContext(LossConfig(0.1, "sim2d"), src, src_mask,
                      projections=scene["projections"], drr_op=op)
    for a in (alpha, 3.0 * alpha, np.zeros(sub.n_components)):
        coords = _plan(sub).coords(a)
        sim, grad = ctx._evaluate_coords(coords)
        s, active, d = grad()

        padded = _pad(src.data.astype(np.float64) * src_mask.data, 0.0)
        want_active, vals, _ = warp_scalar_with_gradient(padded, coords, _cell_support(padded))
        assert_array_equal(active, want_active)
        assert np.any(np.signbit(vals) & (vals == 0.0))  # the -0.0 block is sampled
        assert 0 < active.size < coords.shape[0]
        warped = np.zeros(src.grid.n_voxels)
        warped[active] = vals
        rendered = op.forward(warped.reshape(src.dims))
        n = rendered.shape[-1]
        want_sim, gp = 0.0, np.zeros(rendered.shape)
        for i in range(n):
            val, parts = _ncc_core(scene["projections"].data[..., i].reshape(-1),
                                   rendered[..., i].reshape(-1))
            want_sim += (1.0 - val) / n
            gp[..., i] += (-_ncc_grad_b(parts) / n).reshape(rendered.shape[:2])
        assert_same_bits(sim, want_sim)
        assert_same_bits(s, op.adjoint(gp).reshape(-1)[active])
        assert d.shape == (active.size, 3)


def test_a_projection_evaluation_slices_the_matrix_once(monkeypatch):
    """A sim2d value, its gradient and its Gauss-Newton matrix share one
    column slice of the operator's matrix, and none of them calls the
    full ``DrrOperator.forward`` or ``adjoint``."""
    from scipy import sparse

    _, ctx2, sub, alpha = fd_instance(7, **PARTIAL)
    op = ctx2.drr_op
    slices = []

    class CountingColumns(sparse.csc_matrix):
        def __getitem__(self, key):
            slices.append(key)
            return super().__getitem__(key)

    op._A = CountingColumns(op._A)
    full = [counting(monkeypatch, DrrOperator, name) for name in ("forward", "adjoint")]
    loss, grad = ctx2._subspace_objective(sub)(alpha)
    g, H = grad(), grad.gauss_newton()
    assert len(slices) == 1 and [c[0] for c in full] == [0, 0]
    # the same numbers as a fresh context on an unwrapped operator
    _, fresh, _, _ = fd_instance(7, **PARTIAL)
    want_loss, want_grad = fresh._subspace_objective(sub)(alpha)
    assert_same_bits(loss, want_loss)
    assert_same_bits(g, want_grad())
    assert_same_bits(H, want_grad.gauss_newton())
