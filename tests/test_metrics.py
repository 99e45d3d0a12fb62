"""Landmark error, mask overlap and fold statistics."""
import numpy as np
import pytest

from tomoreg import (DisplacementField, GridSpec, Landmarks, Mask3D,
                     build_subspace, dice, evaluate_registration, mtre,
                     per_axis_error, project, reconstruct, warp_image,
                     zero_displacement)

GRID = GridSpec((10, 10, 10), (2.0, 2.0, 2.0), (0.0, 0.0, 0.0))


def landmarks(points, ids=None):
    pts = np.asarray(points, dtype=np.float64)
    if ids is None:
        ids = np.arange(pts.shape[0])
    return Landmarks(np.asarray(ids, dtype=np.int64), pts)


def cube_mask(grid, lo, hi):
    data = np.zeros(grid.dims)
    data[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = 1.0
    return Mask3D(grid.dims, grid.spacing, grid.origin, data)


# ---------------------------------------------------------------------------
# mean target registration error
# ---------------------------------------------------------------------------

def test_identity_field_measures_raw_landmark_distance():
    lm_t = landmarks([[4.0, 4.0, 4.0], [10.0, 8.0, 6.0]])
    lm_s = landmarks(lm_t.points + np.array([1.0, 2.0, 2.0]))
    u = zero_displacement(GRID)
    assert mtre(u, lm_s, lm_t) == pytest.approx(3.0, abs=1e-12)
    assert per_axis_error(u, lm_s, lm_t) == pytest.approx((1.0, 2.0, 2.0),
                                                          abs=1e-12)


def test_field_mapping_targets_onto_sources_scores_zero():
    lm_t = landmarks([[4.0, 4.0, 4.0], [10.0, 8.0, 6.0], [6.0, 12.0, 9.0]])
    shift = np.array([1.5, -2.0, 0.5])
    lm_s = landmarks(lm_t.points + shift)
    u = DisplacementField(GRID.dims, GRID.spacing, GRID.origin,
                          np.broadcast_to(shift, GRID.dims + (3,)).copy())
    assert mtre(u, lm_s, lm_t) < 1e-10
    assert mtre(zero_displacement(GRID), lm_s, lm_t) == pytest.approx(
        np.linalg.norm(shift), abs=1e-12)


def test_coincident_landmarks_score_zero():
    lm = landmarks([[5.0, 5.0, 5.0], [9.0, 3.0, 7.0]])
    assert mtre(zero_displacement(GRID), lm, lm) == 0.0


def test_mtre_dominates_every_per_axis_error():
    rng = np.random.default_rng(0)
    lm_t = landmarks(2.0 + 14.0 * rng.random((12, 3)))
    lm_s = landmarks(lm_t.points + rng.standard_normal((12, 3)))
    u = DisplacementField(GRID.dims, GRID.spacing, GRID.origin,
                          0.5 * rng.standard_normal(GRID.dims + (3,)))
    assert mtre(u, lm_s, lm_t) >= max(per_axis_error(u, lm_s, lm_t)) - 1e-12


def test_mismatched_landmark_ids_are_rejected():
    lm_a = landmarks([[4.0, 4.0, 4.0]], ids=[1])
    lm_b = landmarks([[4.0, 4.0, 4.0]], ids=[2])
    with pytest.raises(ValueError):
        mtre(zero_displacement(GRID), lm_a, lm_b)
    lm_c = landmarks([[4.0, 4.0, 4.0], [6.0, 6.0, 6.0]], ids=[1, 2])
    with pytest.raises(ValueError):
        mtre(zero_displacement(GRID), lm_a, lm_c)


def test_pairs_are_matched_by_id_not_by_order():
    lm_t = landmarks([[4.0, 4.0, 4.0], [10.0, 8.0, 6.0]], ids=[7, 3])
    lm_s = landmarks([[10.0, 8.0, 6.0], [4.0, 4.0, 4.0]], ids=[3, 7])
    assert mtre(zero_displacement(GRID), lm_s, lm_t) == 0.0


def test_targets_outside_the_grid_are_excluded_with_a_note():
    lm_t = landmarks([[4.0, 4.0, 4.0], [100.0, 4.0, 4.0]])
    lm_s = landmarks(lm_t.points + np.array([2.0, 0.0, 0.0]))
    src_mask = cube_mask(GRID, (2, 2, 2), (8, 8, 8))
    rep = evaluate_registration(zero_displacement(GRID), lm_s, lm_t,
                                src_mask, src_mask)
    assert rep.n_landmarks == 1
    assert rep.mtre_mm == pytest.approx(2.0, abs=1e-12)
    assert any("excluded 1" in w for w in rep.warnings)


def test_all_targets_outside_the_grid_is_an_error():
    lm_t = landmarks([[100.0, 4.0, 4.0]])
    lm_s = landmarks([[4.0, 4.0, 4.0]])
    with pytest.raises(ValueError, match="^no landmarks left inside the displacement grid$"):
        mtre(zero_displacement(GRID), lm_s, lm_t)


def test_empty_landmark_sets_are_an_error_that_names_them():
    """Sets with no landmark at all are refused as empty, not as landmarks
    that the grid excludes."""
    empty = landmarks(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="^the landmark sets are empty"):
        mtre(zero_displacement(GRID), empty, empty)


# ---------------------------------------------------------------------------
# dice overlap
# ---------------------------------------------------------------------------

def test_identical_masks_overlap_fully():
    m = cube_mask(GRID, (1, 1, 1), (6, 6, 6))
    assert dice(m, m) == 100.0


def test_disjoint_masks_do_not_overlap():
    a = cube_mask(GRID, (0, 0, 0), (4, 10, 10))
    b = cube_mask(GRID, (6, 0, 0), (10, 10, 10))
    assert dice(a, b) == 0.0


def test_half_overlap_scores_fifty():
    # |a| = |b| = 200, intersection 100
    a = cube_mask(GRID, (0, 0, 0), (4, 5, 10))
    b = cube_mask(GRID, (2, 0, 0), (6, 5, 10))
    assert dice(a, b) == 50.0


def test_dice_is_symmetric():
    rng = np.random.default_rng(1)
    a = Mask3D(GRID.dims, GRID.spacing, GRID.origin,
               (rng.random(GRID.dims) > 0.5).astype(np.float64))
    b = Mask3D(GRID.dims, GRID.spacing, GRID.origin,
               (rng.random(GRID.dims) > 0.5).astype(np.float64))
    assert dice(a, b) == dice(b, a)
    assert 0.0 <= dice(a, b) <= 100.0


def test_two_empty_masks_count_as_full_overlap():
    z = Mask3D(GRID.dims, GRID.spacing, GRID.origin, np.zeros(GRID.dims))
    m = cube_mask(GRID, (1, 1, 1), (4, 4, 4))
    assert dice(z, z) == 100.0
    assert dice(z, m) == 0.0


def test_dice_rejects_mismatched_grids():
    a = cube_mask(GRID, (0, 0, 0), (4, 4, 4))
    other = GridSpec((10, 10, 10), (1.0, 1.0, 1.0))
    b = cube_mask(other, (0, 0, 0), (4, 4, 4))
    with pytest.raises(ValueError):
        dice(a, b)


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def test_identity_report_on_a_perfectly_aligned_scene():
    lm = landmarks([[4.0, 4.0, 4.0], [10.0, 8.0, 6.0]])
    m = cube_mask(GRID, (2, 2, 2), (8, 8, 8))
    rep = evaluate_registration(zero_displacement(GRID), lm, lm, m, m)
    assert rep.mtre_mm == 0.0
    assert rep.per_axis_mm == (0.0, 0.0, 0.0)
    assert rep.dice_pct == 100.0
    assert rep.pct_neg_jacobian == 0.0
    assert rep.n_landmarks == 2
    assert rep.warnings == []


def test_report_serializes_to_plain_types():
    lm = landmarks([[4.0, 4.0, 4.0]])
    m = cube_mask(GRID, (2, 2, 2), (8, 8, 8))
    d = evaluate_registration(zero_displacement(GRID), lm, lm, m, m).to_dict()
    assert set(d) == {"mtre_mm", "per_axis_mm", "dice_pct",
                      "pct_neg_jacobian", "n_landmarks", "warnings"}
    assert isinstance(d["mtre_mm"], float)
    assert isinstance(d["per_axis_mm"], list) and len(d["per_axis_mm"]) == 3
    assert isinstance(d["n_landmarks"], int)
    assert isinstance(d["warnings"], list)


def test_ground_truth_field_explains_a_synthetic_pair(pair32):
    rep = evaluate_registration(pair32.u_true, pair32.lm_src,
                                pair32.lm_tgt, pair32.source_mask,
                                pair32.target_mask)
    assert rep.mtre_mm < 1e-4
    assert rep.dice_pct == 100.0
    assert rep.pct_neg_jacobian < 0.5
    before = dice(pair32.source_mask, pair32.target_mask)
    assert before < rep.dice_pct
    warped = warp_image(pair32.source_mask, pair32.u_true)
    assert np.array_equal(warped.data, pair32.target_mask.data)


def test_truncated_reconstruction_inflates_error_but_stays_bounded(
        train_fields32, pair32):
    """Projecting the true field onto a deliberately starved basis must
    cost accuracy, yet still remove most of the initial misalignment."""
    sub = build_subspace(train_fields32, variance_fraction=0.5)
    assert sub.n_components < build_subspace(train_fields32, 0.99).n_components
    u_recon = reconstruct(sub, project(sub, pair32.u_true))
    m_before = mtre(zero_displacement(pair32.u_true.grid), pair32.lm_src,
                    pair32.lm_tgt)
    m_true = mtre(pair32.u_true, pair32.lm_src, pair32.lm_tgt)
    m_recon = mtre(u_recon, pair32.lm_src, pair32.lm_tgt)
    assert m_true < 1e-4
    assert m_recon > m_true
    assert m_recon < 0.6 * m_before
