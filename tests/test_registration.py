"""Registration drivers: coefficient search and dense descent."""
import dataclasses
import warnings

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter
from conftest import SPEC32, zero_mean_subspace

from tomoreg import (DeformationSubspace, DisplacementField, GridSpec, Image3D,
                     LossConfig, Mask3D, NumericalAbort, OptimConfig,
                     ProjectionSet, build_sdct_geometry, build_subspace, dice,
                     gen_phantom, jacobian_stats, make_pair, mtre,
                     per_axis_error, project, reconstruct, register_dense_3d,
                     register_subspace_2d, register_subspace_3d, warp_image,
                     zero_displacement)
from tomoreg.losses import LossContext, _plan, grad_alpha
from tomoreg.phantom import DeformationSpec, PhantomSpec, split_seed
from tomoreg import registration


def masked(img, mask):
    return Image3D(img.dims, img.spacing, img.origin, img.data * mask.data)


def masked_epe(u, u_true, mask):
    sel = mask.data > 0
    return float(np.linalg.norm(u.data[sel] - u_true.data[sel],
                                axis=-1).mean())


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def recovery3d(pair32, sub32):
    """One full 3D subspace registration of the standard pair."""
    alpha, u, rep = register_subspace_3d(
        pair32.source, pair32.target, pair32.source_mask, pair32.target_mask,
        sub32, LossConfig(lam=0.1, loss_mode="sim3d"),
        OptimConfig(max_iters=200))
    return alpha, u, rep


@pytest.fixture(scope="module")
def recovery2d(pair32, sub32, op32):
    """The same pair registered from its projections alone."""
    alpha, u, rep = register_subspace_2d(
        pair32.source, pair32.projections, pair32.source_mask, sub32,
        LossConfig(lam=0.1, loss_mode="sim2d"),
        OptimConfig(max_iters=200), drr_op=op32)
    return alpha, u, rep


@pytest.fixture(scope="module")
def recovery_dense(pair32):
    u, rep = register_dense_3d(
        pair32.source, pair32.target, pair32.source_mask, pair32.target_mask,
        LossConfig(lam=0.1, loss_mode="sim3d"),
        OptimConfig(max_iters=150))
    return u, rep


# ---------------------------------------------------------------------------
# identity: a registered pair of identical scenes must not move
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def identity_scene(op32):
    img, mask, _ = gen_phantom(SPEC32)
    sub = zero_mean_subspace(SPEC32, 8, "idn")
    projs = op32.render_all(masked(img, mask))
    return img, mask, sub, projs


def test_identity_volume_registration_stays_at_zero(identity_scene):
    img, mask, sub, _ = identity_scene
    alpha, u, rep = register_subspace_3d(img, img, mask, mask, sub,
                                         LossConfig(lam=0.1, loss_mode="sim3d"),
                                         OptimConfig(max_iters=100))
    assert rep.final_loss < 1e-4
    assert np.abs(alpha).max() < 1e-3
    assert rep.stop_reason == "converged_grad"
    assert rep.iterations == 0


def test_identity_projection_registration_stays_at_zero(identity_scene, op32):
    img, mask, sub, projs = identity_scene
    alpha, u, rep = register_subspace_2d(img, projs, mask, sub,
                                         LossConfig(lam=0.1, loss_mode="sim2d"),
                                         OptimConfig(max_iters=100),
                                         drr_op=op32)
    assert rep.final_loss < 1e-4
    assert np.abs(alpha).max() < 1e-3


def test_identity_dense_registration_stays_at_zero(identity_scene):
    img, mask, _, _ = identity_scene
    u, rep = register_dense_3d(img, img, mask, mask,
                               LossConfig(lam=0.1, loss_mode="sim3d"),
                               OptimConfig(max_iters=100))
    assert rep.final_loss < 1e-4
    assert np.abs(u.data).max() < 0.1 * min(u.spacing)


def test_huge_regularization_pins_a_zero_mean_search_at_zero(identity_scene):
    img, mask, sub, _ = identity_scene
    alpha, u, rep = register_subspace_3d(img, img, mask, mask, sub,
                                         LossConfig(lam=1e6, loss_mode="sim3d"),
                                         OptimConfig(max_iters=60))
    assert np.abs(alpha).max() < 1e-3


def test_huge_regularization_suppresses_recovered_motion(pair32, sub32):
    """At lam=1e6 even a strongly deformed pair must come back essentially
    rigid; any recovered motion should be far below the voxel size."""
    alpha, u, rep = register_subspace_3d(
        pair32.source, pair32.target, pair32.source_mask, pair32.target_mask,
        sub32, LossConfig(lam=1e6, loss_mode="sim3d"),
        OptimConfig(max_iters=60))
    assert np.abs(u.data).max() < 0.01


# ---------------------------------------------------------------------------
# recovery of a synthetic deformation
# ---------------------------------------------------------------------------

def test_volume_registration_recovers_most_of_the_deformation(pair32,
                                                              recovery3d):
    _, u, rep = recovery3d
    zero = zero_displacement(u.grid)
    before = mtre(zero, pair32.lm_src, pair32.lm_tgt)
    after = mtre(u, pair32.lm_src, pair32.lm_tgt)
    assert after < 0.3 * before
    d_before = dice(pair32.source_mask, pair32.target_mask)
    d_after = dice(warp_image(pair32.source_mask, u, interp="nearest"),
                   pair32.target_mask)
    assert d_after > d_before
    assert jacobian_stats(u).pct_negative < 0.5


def test_loss_trace_is_monotone_and_consistent(recovery3d):
    _, _, rep = recovery3d
    trace = np.asarray(rep.loss_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert rep.final_loss == trace[-1]
    assert len(trace) == rep.iterations + 1
    assert rep.stop_reason in {"converged_grad", "converged_loss",
                               "max_iters", "line_search_failed"}
    assert rep.wall_time_s > 0.0


def test_projection_registration_captures_in_plane_motion(pair32, recovery3d,
                                                          recovery2d):
    """With a narrow emitter span the depth axis is weakly constrained:
    the projection-driven result should show a clear out-of-plane error
    excess while the volume-driven result stays isotropic."""
    _, u3, _ = recovery3d
    _, u2, _ = recovery2d
    ax2 = per_axis_error(u2, pair32.lm_src, pair32.lm_tgt)
    ax3 = per_axis_error(u3, pair32.lm_src, pair32.lm_tgt)
    zratio2 = ax2[2] / (0.5 * (ax2[0] + ax2[1]))
    zratio3 = ax3[2] / (0.5 * (ax3[0] + ax3[1]))
    assert zratio2 > 1.5
    assert zratio3 < 1.5

    epe2 = masked_epe(u2, pair32.u_true, pair32.source_mask)
    epe3 = masked_epe(u3, pair32.u_true, pair32.source_mask)
    assert epe3 < epe2

    before = mtre(zero_displacement(u2.grid), pair32.lm_src, pair32.lm_tgt)
    after2 = mtre(u2, pair32.lm_src, pair32.lm_tgt)
    assert after2 < 0.6 * before


def test_uncapped_projection_registration_converges_within_30_iterations(
        recovery2d):
    """Quasi-Newton steps on the k coefficients stop on their own within
    30 iterations; steepest descent takes 32 on this pair."""
    _, _, rep = recovery2d
    assert rep.stop_reason in {"converged_grad", "converged_loss"}
    assert rep.iterations <= 30


def test_dense_registration_improves_overlap(pair32, recovery_dense):
    u, rep = recovery_dense
    d_before = dice(pair32.source_mask, pair32.target_mask)
    d_after = dice(warp_image(pair32.source_mask, u, interp="nearest"),
                   pair32.target_mask)
    assert d_after > d_before
    assert rep.alpha is None


def test_subspace_loss_cannot_beat_dense_loss(recovery3d, recovery_dense):
    # the subspace search is a constrained version of the dense search,
    # so at matched settings its final loss is no better
    _, _, rep_sub = recovery3d
    _, rep_dense = recovery_dense
    assert rep_sub.final_loss >= rep_dense.final_loss


def test_registration_is_deterministic(pair32, sub32):
    cfg_l = LossConfig(lam=0.1, loss_mode="sim3d")
    cfg_o = OptimConfig(max_iters=15)
    a1, u1, r1 = register_subspace_3d(pair32.source, pair32.target,
                                      pair32.source_mask, pair32.target_mask,
                                      sub32, cfg_l, cfg_o)
    a2, u2, r2 = register_subspace_3d(pair32.source, pair32.target,
                                      pair32.source_mask, pair32.target_mask,
                                      sub32, cfg_l, cfg_o)
    assert np.array_equal(a1, a2)
    assert np.array_equal(u1.data, u2.data)
    assert r1.loss_trace == r2.loss_trace


# ---------------------------------------------------------------------------
# the first trial step and small or degenerate grids
# ---------------------------------------------------------------------------

def random_problem(dims, spacing, seed):
    """Random source and target, a full mask and a subspace with a mean."""
    rng = np.random.default_rng(seed)
    origin = (1.0, -2.0, 0.5)
    src, tgt = (Image3D(dims, spacing, origin, rng.random(dims))
                for _ in range(2))
    mask = Mask3D(dims, spacing, origin, np.ones(dims))
    sub = build_subspace([DisplacementField(dims, spacing, origin,
                                            rng.standard_normal(dims + (3,)))
                          for _ in range(4)], 1.0)
    return src, tgt, mask, sub


@pytest.mark.parametrize("driver", ["subspace3d", "dense"])
def test_first_trial_moves_the_field_by_one_voxel_rms(monkeypatch, driver):
    src, tgt, mask, sub = random_problem((10, 8, 6), (1.5, 1.2, 2.0), 3)
    evaluated = []
    evaluate = LossContext._evaluate_coords

    def recording(ctx, coords):
        evaluated.append(coords.copy())
        return evaluate(ctx, coords)

    # both drivers reach the coordinate core, at source-voxel coordinates
    monkeypatch.setattr(LossContext, "_evaluate_coords", recording)
    opt = OptimConfig(max_iters=1)
    if driver == "subspace3d":
        register_subspace_3d(src, tgt, mask, mask, sub, opt_cfg=opt)
    else:
        register_dense_3d(src, tgt, mask, mask, opt_cfg=opt)
    # evaluated[0] is the starting point, evaluated[1] the first trial
    moved = (evaluated[1] - evaluated[0]) * np.asarray(src.spacing)
    rms = np.sqrt(np.mean(np.sum(moved ** 2, axis=-1)))
    assert rms == pytest.approx(min(src.spacing), rel=1e-9)


def test_an_exactly_zero_direction_takes_no_step_and_no_warning(pair32):
    """The one basis field moves only voxel (0, 0, 0), where the masked
    source and its interpolant gradient are exactly zero: the gradient is
    already below the fixed tolerance, so the run stops before a step."""
    msrc = pair32.source.data * pair32.source_mask.data
    assert not msrc[:2, :2, :2].any()
    basis = np.zeros((1, pair32.source.grid.n_voxels * 3))
    basis[0, 0] = 1.0
    sub = DeformationSubspace(dims=pair32.source.dims,
                              spacing=pair32.source.spacing,
                              origin=pair32.source.origin,
                              mean=np.zeros(pair32.source.dims + (3,)),
                              basis=basis, singular_values=np.ones(1),
                              variance_fraction=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, _, rep = register_subspace_3d(
            pair32.source, pair32.target, pair32.source_mask,
            pair32.target_mask, sub, LossConfig(lam=0.0),
            OptimConfig(max_iters=10))
    assert alpha.tolist() == [0.0]
    assert (rep.iterations, rep.stop_reason) == (0, "converged_grad")
    assert len(set(rep.loss_trace)) == 1


@pytest.mark.parametrize("dims, spacing", [((2, 1, 3), (0.7, 1.9, 1.3)),
                                           ((3, 2, 1), (2.5, 0.6, 1.1))])
def test_grids_with_a_single_voxel_axis_register(dims, spacing):
    src, tgt, mask, sub = random_problem(dims, spacing, 5)
    opt = OptimConfig(max_iters=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [register_subspace_3d(src, tgt, mask, mask, sub,
                                        opt_cfg=opt)[2],
                   register_dense_3d(src, tgt, mask, mask, opt_cfg=opt)[1]]
    for rep in reports:
        assert rep.iterations >= 1
        assert np.all(np.diff(rep.loss_trace) <= 0.0)


def test_a_single_voxel_grid_is_rejected_as_a_constant_source():
    src, tgt, mask, sub = random_problem((1, 1, 1), (1.0, 2.0, 3.0), 7)
    with pytest.raises(ValueError, match="masked source is constant"):
        register_subspace_3d(src, tgt, mask, mask, sub)
    with pytest.raises(ValueError, match="masked source is constant"):
        register_dense_3d(src, tgt, mask, mask)


# ---------------------------------------------------------------------------
# the quasi-Newton loop on synthetic objectives
# ---------------------------------------------------------------------------

def quadratic_objective(diag):
    """x^T diag(diag) x / 2 and its gradient, recording each evaluated point."""
    a = np.asarray(diag, dtype=np.float64)
    points = []

    def objective(x):
        points.append(x.copy())
        return 0.5 * float(x @ (a * x)), lambda: a * x
    return objective, points


# a grid only for the first step length: min spacing * sqrt(n_voxels) = 2
SMALL_GRID = GridSpec((4, 4, 4), (0.25, 0.25, 0.25))


def spy_directions(monkeypatch, points, replace_with=None):
    """Record (accepted x, gradient, stored pairs, number of points evaluated
    so far) at each direction call; with pairs stored, ``replace_with(g)``
    stands in for the recursion's direction."""
    calls = []
    direction = registration._lbfgs_direction

    def recording(grad, pairs, smooth):
        calls.append((points[-1].copy(), grad.copy(), list(pairs), len(points)))
        if replace_with is not None and pairs:
            return replace_with(grad)
        return direction(grad, pairs, smooth)

    monkeypatch.setattr(registration, "_lbfgs_direction", recording)
    return calls


def reference_direction(grad, pairs, smooth):
    """The two-loop recursion written with temporaries, as in the textbook."""
    q = grad.copy()
    coefs = []
    for s, y, sy in reversed(pairs):
        a = float(s @ q) / sy
        q = q - a * y
        coefs.append(a)
    gamma = 1.0
    if pairs:
        _, y, sy = pairs[-1]
        gamma = sy / float(y @ y)
    r = gamma * (q if smooth is None else smooth(q))
    for (s, y, sy), a in zip(pairs, reversed(coefs)):
        r = r + (a - float(y @ r) / sy) * s
    return -r


@pytest.mark.parametrize("n_pairs", [0, 1, 7])
@pytest.mark.parametrize(
    "smooth", [None, lambda v: np.convolve(v, [0.25, 0.5, 0.25], "same")],
    ids=["identity", "filter"])
def test_the_in_place_recursion_is_the_two_loop_recursion(n_pairs, smooth):
    """The BLAS recursion gives the reference direction to rounding and
    writes into neither the gradient nor the stored pairs."""
    rng = np.random.default_rng(n_pairs)
    n = 50
    pairs = []
    for _ in range(n_pairs):
        s = rng.standard_normal(n)
        y = s + 0.3 * rng.standard_normal(n)
        pairs.append((s, y, float(s @ y)))
    grad = rng.standard_normal(n)
    kept = [grad.copy()] + [a.copy() for s, y, _ in pairs for a in (s, y)]
    got = registration._lbfgs_direction(grad, pairs, smooth)
    want = reference_direction(grad, pairs, smooth)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert all(np.array_equal(a, b) for a, b in
               zip(kept, [grad] + [a for s, y, _ in pairs for a in (s, y)]))


@pytest.mark.parametrize("dims, spacing", [((7, 5, 9), (0.7, 1.3, 2.1)),
                                           ((3, 12, 2), (1.1, 0.6, 2.4))])
def test_the_dense_initial_hessian_is_the_gaussian_filter(monkeypatch, dims, spacing):
    """H0's three matrix products filter as the Gaussian of one voxel per
    axis, none across components, with the "nearest" edge; on the second
    grid two axes are shorter than the filter's 4-voxel radius."""
    src, tgt, mask, _ = random_problem(dims, spacing, 2)
    smooths = []
    direction = registration._lbfgs_direction

    def recording(grad, pairs, smooth):
        smooths.append(smooth)
        return direction(grad, pairs, smooth)

    monkeypatch.setattr(registration, "_lbfgs_direction", recording)
    register_dense_3d(src, tgt, mask, mask, opt_cfg=OptimConfig(max_iters=1))
    g = np.random.default_rng(8).standard_normal(dims + (3,))
    want = gaussian_filter(g, (1.0, 1.0, 1.0, 0.0), mode="nearest")
    got = smooths[0](g.reshape(-1)).reshape(g.shape)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(g))


def test_a_pair_without_positive_curvature_is_not_stored(monkeypatch):
    """On a saddle, steps along the concave axis give s.y <= 0; such a pair
    would make the inverse Hessian indefinite, so it is skipped."""
    objective, points = quadratic_objective([1.0, -0.1])
    calls = spy_directions(monkeypatch, points)
    _, rep = registration._minimize(objective, np.array([1.0, 0.01]),
                                    SMALL_GRID, OptimConfig(max_iters=20))
    assert rep.stop_reason == "max_iters"
    assert np.all(np.diff(rep.loss_trace) <= 0.0)
    stored = skipped = 0
    for (x0, g0, before, _), (x1, g1, after, _) in zip(calls, calls[1:]):
        s, y = x1 - x0, g1 - g0
        assert all(sy > 0.0 for _, _, sy in after)
        if s @ y > 0.0:
            stored += 1
            assert np.array_equal(after[-1][0], s)
            assert np.array_equal(after[-1][1], y)
        else:
            skipped += 1
            assert len(after) == len(before)
            assert all(p is q for p, q in zip(after, before))
    assert stored >= 1 and skipped >= 1


def test_a_non_descent_quasi_newton_direction_falls_back_to_the_gradient(
        monkeypatch):
    """An ascent direction from the recursion is replaced by -g, tried
    first at the unit step because a curvature pair is stored."""
    objective, points = quadratic_objective([1.0, 4.0])
    calls = spy_directions(monkeypatch, points, replace_with=lambda g: g)
    _, rep = registration._minimize(objective, np.array([1.0, 1.0]),
                                    SMALL_GRID, OptimConfig(max_iters=3))
    assert rep.iterations == 3
    assert np.all(np.diff(rep.loss_trace) < 0.0)
    for x, g, pairs, n_evaluated in calls[1:]:
        assert pairs
        assert np.array_equal(points[n_evaluated], x - g)


def test_a_flat_problem_ends_in_line_search_failed(monkeypatch):
    """The loss is floored at 0 inside an ellipse while the reported
    gradient is not: no trial from there can pass the Armijo test, and the
    flat stretch must not read as convergence."""
    quadratic, points = quadratic_objective([1.0, 4.0])

    def objective(x):
        loss, grad_fn = quadratic(x)
        return max(loss - 1.0, 0.0), grad_fn

    calls = spy_directions(monkeypatch, points)
    _, rep = registration._minimize(objective, np.array([3.0, 3.0]),
                                    SMALL_GRID, OptimConfig(max_iters=50))
    assert rep.stop_reason == "line_search_failed"
    assert rep.loss_trace[-1] == 0.0
    assert np.all(np.diff(rep.loss_trace) <= 0.0)
    assert any(pairs for _, _, pairs, _ in calls)


@pytest.mark.parametrize("floor", [0.0, 1.0])
def test_a_flat_stretch_at_any_loss_is_not_convergence(floor):
    """The loss is flat at ``floor`` inside an ellipse while the reported
    gradient is not.  Above a non-zero floor, c * t * |slope| soon falls
    below half an ulp of the loss, so the Armijo test accepts a trial with
    the same loss; that still is no progress and must not read as
    convergence."""
    quadratic, points = quadratic_objective([1.0, 4.0])

    def objective(x):
        loss, grad_fn = quadratic(x)
        return max(loss - 1.0, 0.0) + floor, grad_fn

    _, rep = registration._minimize(objective, np.array([3.0, 3.0]),
                                    SMALL_GRID, OptimConfig(max_iters=50))
    assert rep.stop_reason == "line_search_failed"
    assert rep.loss_trace[-1] == floor
    assert np.all(np.diff(rep.loss_trace) < 0.0)
    assert len(points) < 100


# ---------------------------------------------------------------------------
# subspaces built from dense registrations generalize
# ---------------------------------------------------------------------------

def test_dense_registrations_span_a_reusable_subspace():
    spec24 = PhantomSpec(dims=(24, 24, 24), spacing=(5.5, 5.5, 5.5), seed=0,
                         deformation=DeformationSpec(
                             n_modes=4, magnitude_mm=10.0,
                             smoothness_sigma_voxels=6.0))
    cfg_l = LossConfig(lam=0.1, loss_mode="sim3d")
    cfg_o = OptimConfig(max_iters=150)
    fields = []
    for i in range(21):
        pr = make_pair(spec24, seed=split_seed(5000, f"d{i}"))
        u, _ = register_dense_3d(pr.source, pr.target, pr.source_mask,
                                 pr.target_mask, cfg_l, cfg_o)
        fields.append(u)
    sub = build_subspace(fields[:20], 1.0)
    held = fields[20]
    recon = reconstruct(sub, project(sub, held))
    rel = (np.linalg.norm(recon.data - held.data)
           / np.linalg.norm(held.data))
    assert rel < 0.5


# ---------------------------------------------------------------------------
# failure handling and configuration
# ---------------------------------------------------------------------------

def test_non_finite_subspace_payload_aborts(identity_scene):
    img, mask, sub, _ = identity_scene
    bad_basis = sub.basis.copy()
    bad_basis[0, 17] = np.nan
    bad = DeformationSubspace(dims=sub.dims, spacing=sub.spacing,
                              origin=sub.origin, mean=sub.mean,
                              basis=bad_basis,
                              singular_values=sub.singular_values,
                              variance_fraction=sub.variance_fraction)
    with pytest.raises(NumericalAbort):
        register_subspace_3d(img, img, mask, mask, bad,
                             LossConfig(lam=0.1, loss_mode="sim3d"),
                             OptimConfig(max_iters=5))
    bad_mean = sub.mean.copy()
    bad_mean[1, 2, 3, 0] = np.nan
    bad = dataclasses.replace(sub, mean=bad_mean)
    for _ in range(2):  # a subspace that fails a check keeps no plan
        with pytest.raises(NumericalAbort, match="subspace mean field"):
            register_subspace_3d(img, img, mask, mask, bad,
                                 LossConfig(lam=0.1, loss_mode="sim3d"),
                                 OptimConfig(max_iters=5))
    ctx = LossContext(LossConfig(), img, mask, target=img, target_mask=mask)
    with pytest.raises(NumericalAbort, match="subspace mean field"):
        grad_alpha(ctx, bad, np.zeros(bad.n_components))


def test_wrong_loss_mode_is_rejected(identity_scene):
    img, mask, sub, projs = identity_scene
    with pytest.raises(ValueError, match="loss_mode"):
        register_subspace_3d(img, img, mask, mask, sub,
                             LossConfig(lam=0.1, loss_mode="sim2d"))
    with pytest.raises(ValueError, match="loss_mode"):
        register_subspace_2d(img, projs, mask, sub,
                             LossConfig(lam=0.1, loss_mode="sim3d"))
    with pytest.raises(ValueError, match="loss_mode"):
        register_dense_3d(img, img, mask, mask,
                          LossConfig(lam=0.1, loss_mode="sim2d"))


def test_a_basis_that_is_not_orthonormal_is_rejected(identity_scene, op32):
    """The first step, project and reconstruct all assume orthonormal rows;
    a basis scaled by 100 would make the first trial move 100 voxels RMS."""
    img, mask, sub, projs = identity_scene
    scaled = dataclasses.replace(sub, basis=100.0 * sub.basis)
    with pytest.raises(ValueError, match="not orthonormal"):
        register_subspace_3d(img, img, mask, mask, scaled)
    with pytest.raises(ValueError, match="not orthonormal"):
        register_subspace_2d(img, projs, mask, scaled, drr_op=op32)
    ctx = LossContext(LossConfig(), img, mask, target=img, target_mask=mask)
    with pytest.raises(ValueError, match="not orthonormal"):
        grad_alpha(ctx, scaled, np.zeros(scaled.n_components))


def test_the_plan_follows_the_arrays_the_subspace_holds(identity_scene):
    """The plan is reused while the subspace holds the arrays it was built
    from.  They cannot be written in place; a new basis gets a new plan,
    checked afresh."""
    img, mask, sub, _ = identity_scene
    sub = dataclasses.replace(sub)  # a copy that has no plan yet
    opt = OptimConfig(max_iters=1)
    register_subspace_3d(img, img, mask, mask, sub, opt_cfg=opt)
    plan = _plan(sub)
    register_subspace_3d(img, img, mask, mask, sub, opt_cfg=opt)
    assert _plan(sub) is plan
    with pytest.raises(ValueError, match="read-only"):
        sub.basis *= 100.0
    with pytest.raises(ValueError, match="read-only"):
        sub.mean[0, 0, 0, 0] = 1.0
    sub.basis = 100.0 * sub.basis
    with pytest.raises(ValueError, match="not orthonormal"):
        register_subspace_3d(img, img, mask, mask, sub, opt_cfg=opt)


@pytest.mark.parametrize("driver", ["subspace3d", "subspace2d", "dense"])
def test_constant_operands_are_rejected(identity_scene, op32, driver):
    """Correlation with a constant is undefined for every field, so no
    driver may start a search (and report convergence) on such inputs."""
    img, mask, sub, projs = identity_scene
    empty = Mask3D(mask.dims, mask.spacing, mask.origin,
                   np.zeros_like(mask.data))
    dark = ProjectionSet(projs.geometry, np.zeros_like(projs.data))
    opt = OptimConfig(max_iters=5)

    def run(source_mask=mask, target_mask=mask, projections=projs, drr_op=op32):
        if driver == "subspace3d":
            return register_subspace_3d(img, img, source_mask, target_mask,
                                        sub, opt_cfg=opt)
        if driver == "subspace2d":
            return register_subspace_2d(img, projections, source_mask, sub,
                                        opt_cfg=opt, drr_op=drr_op)
        return register_dense_3d(img, img, source_mask, target_mask, opt_cfg=opt)

    with pytest.raises(ValueError, match="masked source is constant"):
        run(source_mask=empty)
    if driver == "subspace2d":
        with pytest.raises(ValueError, match="projection 0 is constant"):
            run(projections=dark)
        # every ray of a geometry shifted 5 m sideways misses the volume, so
        # each rendering is zero whatever the field
        off = np.array([5000.0, 0.0, 0.0])
        missed = dataclasses.replace(
            projs.geometry,
            emitter_positions=projs.geometry.emitter_positions + off,
            detector_origin=projs.geometry.detector_origin + off)
        with pytest.raises(ValueError, match="projection 0: no ray of "
                                             "emitter 0 meets the volume"):
            run(projections=ProjectionSet(missed, projs.data), drr_op=None)
        return
    with pytest.raises(ValueError, match="masked target is constant"):
        run(target_mask=empty)


def test_subspace_grid_must_match_source(identity_scene, op32):
    img, mask, sub, projs = identity_scene
    other = DeformationSubspace(dims=sub.dims, spacing=(1.0, 1.0, 1.0),
                                origin=sub.origin, mean=sub.mean,
                                basis=sub.basis,
                                singular_values=sub.singular_values,
                                variance_fraction=sub.variance_fraction)
    # identical training fields leave no variance, so no component
    still = zero_displacement(sub.grid)
    empty = build_subspace([still, still], 0.99)
    assert empty.n_components == 0
    for bad, message in ((other, "grid does not match"),
                         (empty, "subspace has no components")):
        with pytest.raises(ValueError, match=message):
            register_subspace_3d(img, img, mask, mask, bad)
        with pytest.raises(ValueError, match=message):
            register_subspace_2d(img, projs, mask, bad, drr_op=op32)
    # the gradient entry point refuses what the drivers refuse, and a
    # coefficient vector of the wrong length
    ctx = LossContext(LossConfig(), img, mask, target=img, target_mask=mask)
    with pytest.raises(ValueError, match="grid does not match"):
        grad_alpha(ctx, other, np.zeros(other.n_components))
    k = sub.n_components
    with pytest.raises(ValueError, match=f"alpha has {k + 1} entries, subspace has {k}$"):
        grad_alpha(ctx, sub, np.zeros(k + 1))


def test_optimizer_configuration_is_validated():
    with pytest.raises(ValueError):
        OptimConfig(max_iters=-1)
    # counts are whole numbers and real values are numbers, not booleans or
    # strings, which float() and comparisons would read as 1.0 or fail on late
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="max_iters must be a whole number"):
            OptimConfig(max_iters=bad)
    assert OptimConfig(max_iters=3.0).max_iters == 3
    for bad in (True, "0.1"):
        with pytest.raises(ValueError, match="lam must be a real number"):
            LossConfig(lam=bad)
    with pytest.raises(ValueError, match="span_angle_deg must be a real number"):
        build_sdct_geometry(3, True, 100.0)
    with pytest.raises(ValueError,
                       match="source_detector_distance must be a real number"):
        build_sdct_geometry(3, 30.0, True)
    # the gradient tolerance is fixed, like the loss-stall tolerance
    with pytest.raises(TypeError):
        OptimConfig(tol_grad=1e-9)
