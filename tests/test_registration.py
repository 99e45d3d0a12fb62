"""Registration drivers: coefficient search, dense descent, amortization."""
import numpy as np
import pytest
from conftest import SPEC32, zero_mean_subspace

from tomoreg import (DeformationSubspace, DisplacementField, Image2D, Image3D,
                     LossConfig, Mask3D, NumericalAbort, OptimConfig,
                     ProjectionSet, build_subspace,
                     dice, gen_phantom, grid_for, jacobian_stats, lift3d,
                     make_pair, mtre, per_axis_error, project, reconstruct,
                     register_dense_3d, register_subspace_2d,
                     register_subspace_3d, warp_image, zero_displacement)
from tomoreg.phantom import DeformationSpec, PhantomSpec, split_seed
from tomoreg.registration import fit_linear_amortizer, predict_alpha


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
        OptimConfig(max_iters=200, step_size=1.0))
    return alpha, u, rep


@pytest.fixture(scope="module")
def recovery2d(pair32, sub32, op32):
    """The same pair registered from its projections alone."""
    alpha, u, rep = register_subspace_2d(
        pair32.source, pair32.projections, pair32.source_mask, sub32,
        LossConfig(lam=0.1, loss_mode="sim2d"),
        OptimConfig(max_iters=200, step_size=1.0), drr_op=op32)
    return alpha, u, rep


@pytest.fixture(scope="module")
def recovery_dense(pair32):
    u, rep = register_dense_3d(
        pair32.source, pair32.target, pair32.source_mask, pair32.target_mask,
        LossConfig(lam=0.1, loss_mode="sim3d"),
        OptimConfig(max_iters=150, step_size=1.0))
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
        OptimConfig(max_iters=60, step_size=1.0))
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
    cfg_o = OptimConfig(max_iters=15, step_size=1.0)
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
# subspaces built from dense registrations generalize
# ---------------------------------------------------------------------------

def test_dense_registrations_span_a_reusable_subspace():
    spec24 = PhantomSpec(dims=(24, 24, 24), spacing=(5.5, 5.5, 5.5), seed=0,
                         deformation=DeformationSpec(
                             n_modes=4, magnitude_mm=10.0,
                             smoothness_sigma_voxels=6.0))
    cfg_l = LossConfig(lam=0.1, loss_mode="sim3d")
    cfg_o = OptimConfig(max_iters=150, step_size=1.0)
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
# amortized coefficient prediction
# ---------------------------------------------------------------------------

def test_amortizer_interpolates_a_realizable_training_set():
    # at ridge 0 the min-norm solution reproduces every training target
    rng = np.random.default_rng(0)
    dims, sp, org = (8, 8, 8), (2.0, 2.0, 2.0), (0.0, 0.0, 0.0)
    examples = []
    for _ in range(12):
        src = Image3D(dims, sp, org, rng.random(dims))
        lifted = [Image3D(dims, sp, org, rng.random(dims))]
        examples.append((src, lifted, rng.standard_normal(3)))
    model = fit_linear_amortizer(examples, ridge=0.0)
    for src, lifted, alpha in examples:
        pred = predict_alpha(model, src, lifted)
        assert np.abs(pred - alpha).max() < 1e-6


def test_amortizer_validation():
    rng = np.random.default_rng(1)
    dims, sp, org = (8, 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)
    src = Image3D(dims, sp, org, rng.random(dims))
    lifted = [Image3D(dims, sp, org, rng.random(dims))]
    with pytest.raises(ValueError):
        fit_linear_amortizer([], ridge=0.0)
    with pytest.raises(ValueError):
        fit_linear_amortizer([(src, lifted, np.zeros(2))], ridge=-1.0)
    model = fit_linear_amortizer([(src, lifted, np.zeros(2))], ridge=1.0)
    with pytest.raises(ValueError):
        predict_alpha(model, src, lifted + lifted)


def test_amortizer_beats_the_zero_guess_on_synthetic_pairs(op32):
    """Trained on 40 lifted pairs, the predictor should land closer to the
    true coefficients than doing nothing, on every held-out pair."""
    sub = zero_mean_subspace(SPEC32, 8, "amo-sub")
    grid = grid_for(SPEC32)
    train, test = [], []
    for i in range(50):
        pr = make_pair(SPEC32, seed=split_seed(4000, f"s{i}"), drr_op=op32)
        lifted = lift3d(pr.projections, grid)
        alpha = project(sub, pr.u_true)
        (train if i < 40 else test).append((pr, lifted, alpha))

    model = fit_linear_amortizer(
        [(p.source, l.channels, a) for p, l, a in train], ridge=1e-3)
    u_zero = reconstruct(sub, np.zeros(sub.n_components))
    wins, epe_pred, epe_zero = 0, [], []
    for p, l, a in test:
        pred = predict_alpha(model, p.source, l.channels)
        u_pred = reconstruct(sub, pred)
        e_pred = masked_epe(u_pred, p.u_true, p.source_mask)
        e_zero = masked_epe(u_zero, p.u_true, p.source_mask)
        wins += e_pred < e_zero
        epe_pred.append(e_pred)
        epe_zero.append(e_zero)
    assert np.mean(epe_pred) < np.mean(epe_zero)
    assert wins >= 8

    # infinite shrinkage collapses the predictor onto the training mean
    model_inf = fit_linear_amortizer(
        [(p.source, l.channels, a) for p, l, a in train], ridge=1e12)
    a_mean = np.mean([a for _, _, a in train], axis=0)
    pred_inf = predict_alpha(model_inf, train[0][0].source,
                             train[0][1].channels)
    assert np.abs(pred_inf - a_mean).max() < 1e-2


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


def test_wrong_loss_mode_is_rejected(identity_scene):
    img, mask, sub, projs = identity_scene
    with pytest.raises(ValueError):
        register_subspace_3d(img, img, mask, mask, sub,
                             LossConfig(lam=0.1, loss_mode="sim2d"))
    with pytest.raises(ValueError):
        register_subspace_2d(img, projs, mask, sub,
                             LossConfig(lam=0.1, loss_mode="sim3d"))
    with pytest.raises(ValueError):
        register_dense_3d(img, img, mask, mask,
                          LossConfig(lam=0.1, loss_mode="sim2d"))


@pytest.mark.parametrize("driver", ["subspace3d", "subspace2d", "dense"])
def test_constant_operands_are_rejected(identity_scene, op32, driver):
    """Correlation with a constant is undefined for every field, so no
    driver may start a search (and report convergence) on such inputs."""
    img, mask, sub, projs = identity_scene
    empty = Mask3D(mask.dims, mask.spacing, mask.origin,
                   np.zeros_like(mask.data))
    dark = ProjectionSet(projs.geometry,
                         [Image2D(im.dims, im.spacing, np.zeros_like(im.data))
                          for im in projs.images])
    uniform = Image3D(img.dims, img.spacing, img.origin, np.ones_like(img.data))
    opt = OptimConfig(max_iters=5)

    def run(source_mask=mask, target_mask=mask, projections=projs, target=img,
            loss_cfg=None):
        if driver == "subspace3d":
            return register_subspace_3d(img, target, source_mask, target_mask,
                                        sub, loss_cfg, opt)
        if driver == "subspace2d":
            return register_subspace_2d(img, projections, source_mask, sub,
                                        opt_cfg=opt, drr_op=op32)
        return register_dense_3d(img, target, source_mask, target_mask,
                                 loss_cfg, opt)

    with pytest.raises(ValueError, match="masked source is constant"):
        run(source_mask=empty)
    if driver == "subspace2d":
        with pytest.raises(ValueError, match="projection 0 is constant"):
            run(projections=dark)
        return
    with pytest.raises(ValueError, match="masked target is constant"):
        run(target_mask=empty)
    # uniform inside its mask: constant only once the mask selects the voxels
    with pytest.raises(ValueError, match="masked target is constant"):
        run(target=uniform, loss_cfg=LossConfig(ncc_inside_target_mask=True))


def test_subspace_grid_must_match_source(identity_scene):
    img, mask, sub, _ = identity_scene
    other = DeformationSubspace(dims=sub.dims, spacing=(1.0, 1.0, 1.0),
                                origin=sub.origin, mean=sub.mean,
                                basis=sub.basis,
                                singular_values=sub.singular_values,
                                variance_fraction=sub.variance_fraction)
    with pytest.raises(ValueError):
        register_subspace_3d(img, img, mask, mask, other)


def test_optimizer_configuration_is_validated():
    with pytest.raises(ValueError):
        OptimConfig(max_iters=-1)
    with pytest.raises(ValueError):
        OptimConfig(step_size=0.0)
    with pytest.raises(ValueError):
        OptimConfig(tol_grad=-1e-9)
