"""Acceptance gate: one test per headline behavior, each printing a verdict.

The expensive fixtures (the default 64-cube scene, its training subspace
and ten registered pairs) are shared across criteria, so this module is
meant to run as a whole; expect a few minutes of wall time.
"""
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import SPEC32, zero_mean_subspace
from scipy.ndimage import gaussian_filter

from tomoreg import (DeformationSubspace, DisplacementField, DrrOperator,
                     GridSpec, Image3D, Landmarks, LossConfig, Mask3D,
                     OptimConfig, PhantomSpec, build_sdct_geometry,
                     build_subspace, dice, gen_phantom, gen_smooth_dvf,
                     geometry_for, grid_for, jacobian_stats, make_pair, mtre,
                     per_axis_error, project, reconstruct, register_dense_3d,
                     register_subspace_2d, register_subspace_3d, step_for,
                     warp_image, zero_displacement)
from tomoreg import io as tio
from tomoreg.losses import LossContext, grad_alpha, grad_dense
from tomoreg.phantom import DeformationSpec, split_seed

SPEC64 = PhantomSpec()
N_PAIRS = 10


def announce(capsys, num, name, detail, ok):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {name}: {detail} -> "
              f"{'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# shared 64-cube scene
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def op64():
    return DrrOperator(grid_for(SPEC64), geometry_for(SPEC64),
                       step_mm=step_for(SPEC64))


@pytest.fixture(scope="module")
def sub64():
    fields = [gen_smooth_dvf(SPEC64, seed=split_seed(1000, f"tr{i}"))
              for i in range(30)]
    return build_subspace(fields, 0.99)


@pytest.fixture(scope="module")
def pairs64(op64):
    return [make_pair(SPEC64, seed=split_seed(77, f"pair{i}"), drr_op=op64)
            for i in range(N_PAIRS)]


@pytest.fixture(scope="module")
def reg3d(pairs64, sub64):
    cfg_l = LossConfig(lam=0.1, loss_mode="sim3d")
    cfg_o = OptimConfig(max_iters=200)
    t0 = time.perf_counter()
    results = [register_subspace_3d(p.source, p.target, p.source_mask,
                                    p.target_mask, sub64, cfg_l, cfg_o)
               for p in pairs64]
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def reg2d(pairs64, sub64, op64):
    cfg_l = LossConfig(lam=0.1, loss_mode="sim2d")
    cfg_o = OptimConfig(max_iters=200)
    results = [register_subspace_2d(p.source, p.projections, p.source_mask,
                                    sub64, cfg_l, cfg_o, drr_op=op64)
               for p in pairs64]
    return results


# ---------------------------------------------------------------------------
# 1. analytic gradients match finite differences in both loss modes
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_fidelity(capsys):
    def instance(seed):
        rng = np.random.default_rng(seed)
        dims, spacing, origin = (8, 8, 8), (1.5, 1.2, 1.0), (-5.25, -4.2, 3.0)

        def smooth(shape):
            return gaussian_filter(rng.standard_normal(shape), sigma=1.5,
                                   mode="nearest")

        s = smooth(dims)
        t = smooth(dims)
        src = Image3D(dims, spacing, origin,
                      (s - s.min() + 0.1).astype(np.float32))
        tgt = Image3D(dims, spacing, origin,
                      (t - t.min() + 0.1).astype(np.float32))
        mask = Mask3D(dims, spacing, origin, np.ones(dims))
        geom = build_sdct_geometry(2, 24.0, 60.0, detector_dims=(10, 10),
                                   detector_spacing=(1.6, 1.6))
        op = DrrOperator(GridSpec(dims, spacing, origin), geom)
        raw = np.stack([np.stack([smooth(dims) for _ in range(3)],
                                 axis=-1).reshape(-1) for _ in range(3)])
        q, _ = np.linalg.qr(raw.T)
        sub = DeformationSubspace(dims=dims, spacing=spacing, origin=origin,
                                  mean=0.4 * np.stack([smooth(dims)
                                                       for _ in range(3)],
                                                      axis=-1),
                                  basis=q.T.copy(),
                                  singular_values=np.array([3.0, 2.0, 1.0]),
                                  variance_fraction=1.0)
        alpha = 0.5 * rng.standard_normal(3)
        ctx3 = LossContext(LossConfig(0.1, "sim3d"), src, mask,
                           target=tgt, target_mask=mask)
        ctx2 = LossContext(LossConfig(0.1, "sim2d"), src, mask,
                           projections=op.render_all(tgt), drr_op=op)
        return ctx3, ctx2, sub, alpha, rng

    h = 1e-5
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        ctx3, ctx2, sub, alpha, rng = instance(seed)
        u0 = reconstruct(sub, alpha).data
        for ctx in (ctx3, ctx2):
            ga = grad_alpha(ctx, sub, alpha)
            fd = np.zeros(alpha.size)
            for i in range(alpha.size):
                ap = alpha.copy()
                ap[i] += h
                am = alpha.copy()
                am[i] -= h
                fd[i] = (ctx.loss(reconstruct(sub, ap))
                         - ctx.loss(reconstruct(sub, am))) / (2.0 * h)
            worst = max(worst, np.abs(ga - fd).max() / np.abs(fd).max())

            g = grad_dense(ctx, DisplacementField(sub.dims, sub.spacing,
                                                  sub.origin, u0))
            idx = [tuple(x) for x in rng.integers(0, (8, 8, 8, 3),
                                                  size=(60, 4))]
            fs = np.zeros(len(idx))
            for k, ix in enumerate(idx):
                up = u0.copy()
                up[ix] += h
                um = u0.copy()
                um[ix] -= h
                fs[k] = (ctx.loss(DisplacementField(sub.dims, sub.spacing,
                                                    sub.origin, up))
                         - ctx.loss(DisplacementField(sub.dims, sub.spacing,
                                                      sub.origin, um))
                         ) / (2.0 * h)
            gs = np.array([g.data[ix] for ix in idx])
            worst = max(worst, np.abs(gs - fs).max() / np.abs(fs).max())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    announce(capsys, 1, "gradient fidelity",
             f"max rel deviation {worst:.2e} over 10 seeds x 2 modes, "
             f"coefficient and dense paths, h={h:g} ({elapsed:.1f}s, tol 1e-4)",
             ok)
    assert worst < 1e-4
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. the subspace builder is an exact PCA at full variance
# ---------------------------------------------------------------------------

def test_criterion_02_subspace_exactness(train_fields32, capsys):
    fields = train_fields32[:20]
    sub = build_subspace(fields, 1.0)
    worst_recon = 0.0
    for f in fields:
        r = reconstruct(sub, project(sub, f))
        worst_recon = max(worst_recon,
                          np.linalg.norm(r.data - f.data)
                          / np.linalg.norm(f.data))
    gram = sub.basis @ sub.basis.T
    gram_dev = np.abs(gram - np.eye(sub.n_components)).max()
    stack = np.stack([f.data.reshape(-1).astype(np.float64) for f in fields])
    centered = stack - stack.mean(axis=0)
    energy = float(np.sum(centered * centered))
    kept = float(np.sum(sub.singular_values ** 2))
    energy_dev = abs(kept - energy) / energy
    ok = worst_recon < 1e-6 and gram_dev < 1e-8 and energy_dev < 1e-6
    announce(capsys, 2, "subspace exactness at full variance",
             f"training recon rel {worst_recon:.2e} (tol 1e-6), "
             f"orthonormality dev {gram_dev:.2e} (tol 1e-8), "
             f"energy accounting dev {energy_dev:.2e} (tol 1e-6)", ok)
    assert worst_recon < 1e-6
    assert gram_dev < 1e-8
    assert energy_dev < 1e-6


# ---------------------------------------------------------------------------
# 3. a low-rank generator yields a compact subspace
# ---------------------------------------------------------------------------

def test_criterion_03_subspace_compactness(sub64, capsys):
    n = sub64.n_components
    ok = 1 <= n <= 4
    announce(capsys, 3, "subspace compactness",
             f"{n} components keep 99% variance of 30 draws from a "
             f"4-mode generator (bound 4)", ok)
    assert 1 <= n <= 4


# ---------------------------------------------------------------------------
# 4. registering a scene onto itself does not move
# ---------------------------------------------------------------------------

def test_criterion_04_identity_registrations(op32, capsys):
    from dataclasses import replace
    t0 = time.perf_counter()
    worst_loss, worst_alpha, worst_motion = 0.0, 0.0, 0.0
    for s in range(5):
        spec = replace(SPEC32, seed=s)
        img, mask, _ = gen_phantom(spec)
        sub = zero_mean_subspace(spec, 4, f"acc4-{s}")
        msrc = Image3D(img.dims, img.spacing, img.origin,
                       img.data * mask.data)
        projs = op32.render_all(msrc)

        a3, u3, r3 = register_subspace_3d(
            img, img, mask, mask, sub, LossConfig(lam=0.1, loss_mode="sim3d"),
            OptimConfig(max_iters=100))
        a2, u2, r2 = register_subspace_2d(
            img, projs, mask, sub, LossConfig(lam=0.1, loss_mode="sim2d"),
            OptimConfig(max_iters=100), drr_op=op32)
        ud, rd = register_dense_3d(
            img, img, mask, mask, LossConfig(lam=0.1, loss_mode="sim3d"),
            OptimConfig(max_iters=100))
        worst_loss = max(worst_loss, r3.final_loss, r2.final_loss,
                         rd.final_loss)
        worst_alpha = max(worst_alpha, np.abs(a3).max(), np.abs(a2).max())
        worst_motion = max(worst_motion, np.abs(u3.data).max(),
                           np.abs(u2.data).max(), np.abs(ud.data).max())
    elapsed = time.perf_counter() - t0
    motion_tol = 0.1 * min(SPEC32.spacing)
    ok = worst_loss < 1e-4 and worst_alpha < 1e-3 and worst_motion < motion_tol
    announce(capsys, 4, "identity stability",
             f"5 scenes x 3 drivers: worst loss {worst_loss:.1e} (tol 1e-4), "
             f"worst |alpha| {worst_alpha:.1e} (tol 1e-3), worst motion "
             f"{worst_motion:.1e}mm (tol {motion_tol:.2f}) ({elapsed:.0f}s)",
             ok)
    assert worst_loss < 1e-4
    assert worst_alpha < 1e-3
    assert worst_motion < motion_tol
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. volume-driven subspace registration recovers synthetic deformations
# ---------------------------------------------------------------------------

def test_criterion_05_recovery(pairs64, reg3d, capsys):
    results, elapsed = reg3d
    n_red, n_dice, n_fold = 0, 0, 0
    reductions = []
    for pair, (_, u, _) in zip(pairs64, results):
        before = mtre(zero_displacement(u.grid), pair.lm_src, pair.lm_tgt)
        after = mtre(u, pair.lm_src, pair.lm_tgt)
        red = 1.0 - after / before
        reductions.append(red)
        n_red += red >= 0.70
        d0 = dice(pair.source_mask, pair.target_mask)
        d1 = dice(warp_image(pair.source_mask, u),
                  pair.target_mask)
        n_dice += d1 > d0
        n_fold += jacobian_stats(u).pct_negative < 0.5
    ok = (n_red >= 9 and n_dice == N_PAIRS and n_fold == N_PAIRS
          and elapsed < 600.0)
    announce(capsys, 5, "deformation recovery",
             f"mTRE reduction >=70% on {n_red}/10 (need 9), median "
             f"{100 * np.median(reductions):.1f}%, DICE improved {n_dice}/10, "
             f"folds <0.5% on {n_fold}/10 ({elapsed:.0f}s)", ok)
    assert n_red >= 9
    assert n_dice == N_PAIRS
    assert n_fold == N_PAIRS
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 6. the limited-angle geometry leaves a depth-dominant error
# ---------------------------------------------------------------------------

def test_criterion_06_depth_anisotropy(pairs64, reg3d, reg2d, capsys):
    ax3 = np.mean([per_axis_error(u, p.lm_src, p.lm_tgt)
                   for p, (_, u, _) in zip(pairs64, reg3d[0])], axis=0)
    ax2 = np.mean([per_axis_error(u, p.lm_src, p.lm_tgt)
                   for p, (_, u, _) in zip(pairs64, reg2d)], axis=0)
    zr2 = ax2[2] / (0.5 * (ax2[0] + ax2[1]))
    zr3 = ax3[2] / (0.5 * (ax3[0] + ax3[1]))
    ok = zr2 >= 1.5 and zr3 < 1.5
    announce(capsys, 6, "depth-axis anisotropy",
             f"projection-driven z/in-plane ratio {zr2:.2f} (need >=1.5), "
             f"volume-driven {zr3:.2f} (need <1.5)", ok)
    assert zr2 >= 1.5
    assert zr3 < 1.5


# ---------------------------------------------------------------------------
# 7. seeing the target volume beats seeing only its projections
# ---------------------------------------------------------------------------

def test_criterion_07_volume_beats_projections(pairs64, reg3d, reg2d, capsys):
    wins = 0
    e3s, e2s = [], []
    for p, (_, u3, _), (_, u2, _) in zip(pairs64, reg3d[0], reg2d):
        sel = p.source_mask.data > 0
        e3 = np.linalg.norm(u3.data[sel] - p.u_true.data[sel], axis=-1).mean()
        e2 = np.linalg.norm(u2.data[sel] - p.u_true.data[sel], axis=-1).mean()
        wins += e3 < e2
        e3s.append(e3)
        e2s.append(e2)
    ok = wins >= 8
    announce(capsys, 7, "volume loss beats projection loss",
             f"masked mean EPE lower on {wins}/10 pairs (need 8); "
             f"means {np.mean(e3s):.2f}mm vs {np.mean(e2s):.2f}mm", ok)
    assert wins >= 8


# ---------------------------------------------------------------------------
# 8. optimization respects the best-in-subspace bound
# ---------------------------------------------------------------------------

def test_criterion_08_projection_bound(pairs64, sub64, reg3d, capsys):
    worst_gap = -np.inf
    ok = True
    for p, (_, u, _) in zip(pairs64, reg3d[0]):
        u_best = reconstruct(sub64, project(sub64, p.u_true))
        m_best = mtre(u_best, p.lm_src, p.lm_tgt)
        m_reg = mtre(u, p.lm_src, p.lm_tgt)
        worst_gap = max(worst_gap, m_best - m_reg)
        ok = ok and m_best <= m_reg
    announce(capsys, 8, "best-in-subspace bound",
             f"projected truth never worse than the registered result on "
             f"10/10 pairs (worst margin {worst_gap:.2e}mm)", ok)
    assert ok


# ---------------------------------------------------------------------------
# 9. the file formats and pipelines are bit-exact and rerunnable
# ---------------------------------------------------------------------------

def run_cli(*args):
    # the suite's RuntimeWarning filter does not reach a child interpreter
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "tomoreg", *args],
                          capture_output=True, text=True)


def tree_hashes(root):
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            p = os.path.join(base, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def test_criterion_09_pipeline_determinism(tmp_path, capsys):
    spec = PhantomSpec(dims=(24, 24, 24), spacing=(5.5, 5.5, 5.5), seed=0,
                       deformation=DeformationSpec(
                           n_modes=4, magnitude_mm=10.0,
                           smoothness_sigma_voxels=6.0))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()) + "\n")

    r1 = run_cli("phantom", "gen", "--spec", str(spec_path), "--seed", "7",
                 "--n", "1", "--out", str(tmp_path / "d1"))
    r2 = run_cli("phantom", "gen", "--spec", str(spec_path), "--seed", "7",
                 "--n", "1", "--out", str(tmp_path / "d2"))
    gen_ok = (r1.returncode == 0 and r2.returncode == 0
              and tree_hashes(tmp_path / "d1") == tree_hashes(tmp_path / "d2"))

    dvf_dir = tmp_path / "dvfs"
    dvf_dir.mkdir()
    for i in range(3):
        f = gen_smooth_dvf(spec, seed=split_seed(9000, f"acc9-{i}"))
        tio.write_dvf(str(dvf_dir / f"f{i}.json"), f)
        tio.write_dvf(str(dvf_dir / f"g{i}.json"),
                      DisplacementField(f.dims, f.spacing, f.origin, -f.data))
    rs = run_cli("subspace", "build", "--dvf-dir", str(dvf_dir),
                 "--variance", "0.99", "--out", str(tmp_path / "sub.json"))

    sd = tmp_path / "d1" / "sample_000"
    reg_args = ("register", "subspace3d",
                "--source", str(sd / "source.json"),
                "--target", str(sd / "target.json"),
                "--source-mask", str(sd / "source_mask.json"),
                "--target-mask", str(sd / "target_mask.json"),
                "--subspace", str(tmp_path / "sub.json"), "--iters", "10")
    ra = run_cli(*reg_args, "--out-dvf", str(tmp_path / "u1.json"),
                 "--out-alpha", str(tmp_path / "a1.json"))
    rb = run_cli(*reg_args, "--out-dvf", str(tmp_path / "u2.json"),
                 "--out-alpha", str(tmp_path / "a2.json"))
    reg_ok = (rs.returncode == 0 and ra.returncode == 0 and rb.returncode == 0
              and (tmp_path / "u1.raw").read_bytes()
              == (tmp_path / "u2.raw").read_bytes()
              and (tmp_path / "a1.json").read_bytes()
              == (tmp_path / "a2.json").read_bytes())

    re_ = run_cli("evaluate", "--dvf", str(sd / "dvf_true.json"),
                  "--lm-src", str(sd / "landmarks_source.csv"),
                  "--lm-tgt", str(sd / "landmarks_target.csv"),
                  "--mask-src", str(sd / "source_mask.json"),
                  "--mask-tgt", str(sd / "target_mask.json"),
                  "--out", str(tmp_path / "metrics.json"))
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    eval_ok = re_.returncode == 0 and metrics["mtre_mm"] < 1e-3

    u = tio.read_dvf(str(tmp_path / "u1.json"))
    tio.write_dvf(str(tmp_path / "u3.json"), u)
    rt_ok = ((tmp_path / "u1.raw").read_bytes()
             == (tmp_path / "u3.raw").read_bytes())

    ok = gen_ok and reg_ok and eval_ok and rt_ok
    announce(capsys, 9, "pipeline determinism",
             f"dataset rerun bitwise: {gen_ok}; registration rerun bitwise: "
             f"{reg_ok}; ground-truth metrics from files: {eval_ok}; "
             f"container round-trip bitwise: {rt_ok}", ok)
    assert gen_ok and reg_ok and eval_ok and rt_ok


# ---------------------------------------------------------------------------
# 10. the metrics compute their defining hand values
# ---------------------------------------------------------------------------

def test_criterion_10_metric_definitions(capsys):
    grid = GridSpec((10, 10, 10), (2.0, 2.0, 2.0))
    zero = zero_displacement(grid)
    lm_t = Landmarks(np.array([0, 1]),
                     np.array([[4.0, 4.0, 4.0], [10.0, 8.0, 6.0]]))
    lm_s = Landmarks(lm_t.ids.copy(), lm_t.points + np.array([1.0, 2.0, 2.0]))
    m = mtre(zero, lm_s, lm_t)
    ax = per_axis_error(zero, lm_s, lm_t)
    mtre_ok = m == pytest.approx(3.0, abs=1e-12) and ax == pytest.approx(
        (1.0, 2.0, 2.0), abs=1e-12)

    def cube(lo, hi):
        d = np.zeros(grid.dims)
        d[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = 1.0
        return Mask3D(grid.dims, grid.spacing, grid.origin, d)

    half = dice(cube((0, 0, 0), (4, 5, 10)), cube((2, 0, 0), (6, 5, 10)))
    full = dice(cube((1, 1, 1), (5, 5, 5)), cube((1, 1, 1), (5, 5, 5)))
    dice_ok = half == 50.0 and full == 100.0

    xyz = grid.voxel_centers()
    fold = DisplacementField(grid.dims, grid.spacing, grid.origin, -2.0 * xyz)
    js_fold = jacobian_stats(fold)
    js_id = jacobian_stats(zero)
    jac_ok = (js_fold.pct_negative == 100.0
              and js_fold.min_det == pytest.approx(-1.0)
              and js_id.pct_negative == 0.0
              and js_id.min_det == pytest.approx(1.0))

    ok = mtre_ok and dice_ok and jac_ok
    announce(capsys, 10, "metric hand values",
             f"landmark error 3.0mm/(1,2,2): {mtre_ok}; overlap 50/100: "
             f"{dice_ok}; fold detection -1/+1: {jac_ok}", ok)
    assert mtre_ok and dice_ok and jac_ok
