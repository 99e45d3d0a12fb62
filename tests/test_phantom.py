"""Synthetic scene generator: volumes, low-rank deformations, pairs."""
import hashlib
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from conftest import SPEC32

from tomoreg import (AcquisitionSpec, DeformationSpec, DrrOperator,
                     PhantomSpec, gen_phantom, gen_smooth_dvf, geometry_for,
                     grid_for, jacobian_stats, make_pair, mtre, step_for,
                     zero_displacement)
from tomoreg import io as tio
from tomoreg.cli import main
from tomoreg.phantom import (_GRAD_CAP, _WAYPOINTS_PER_VESSEL, _deformation_modes,
                             _region_frame, split_seed)


def grad_row_sum_max(data, spacing):
    rows = np.zeros(data.shape)
    for ax in range(3):
        hi = [slice(None)] * 4
        lo = [slice(None)] * 4
        hi[ax] = slice(1, None)
        lo[ax] = slice(0, -1)
        rows[tuple(lo)] += np.abs(data[tuple(hi)]
                                  - data[tuple(lo)]) / spacing[ax]
    return float(rows.max())


def high_frequency_fraction(img: np.ndarray, cutoff_cyc_px: float = 0.25):
    d = img.astype(np.float64)
    win = np.hanning(d.shape[0])[:, None] * np.hanning(d.shape[1])[None, :]
    F = np.abs(np.fft.fftshift(np.fft.fft2(d * win))) ** 2
    fu = np.fft.fftshift(np.fft.fftfreq(d.shape[0]))
    fv = np.fft.fftshift(np.fft.fftfreq(d.shape[1]))
    R = np.hypot(fu[:, None], fv[None, :])
    return float(F[R > cutoff_cyc_px].sum() / F.sum())


# ---------------------------------------------------------------------------
# seed splitting
# ---------------------------------------------------------------------------

def test_seed_splitting_is_deterministic_and_key_sensitive():
    assert split_seed(0, "a") == split_seed(0, "a")
    assert split_seed(0, "a") != split_seed(0, "b")
    assert split_seed(0, "a") != split_seed(1, "a")
    v = split_seed(12345, "anything")
    assert isinstance(v, int) and 0 <= v < 2 ** 64
    # the seed is read as a whole number: 7.0 is 7, a boolean or 2.5 is refused
    assert split_seed(7.0, "a") == split_seed(np.int64(7), "a") == split_seed(7, "a")
    for bad in (True, 2.5, "7", float("nan")):
        with pytest.raises(ValueError, match="master_seed must"):
            split_seed(bad, "a")


# ---------------------------------------------------------------------------
# phantom volumes
# ---------------------------------------------------------------------------

def test_generation_is_bitwise_deterministic():
    img1, mask1, lm1 = gen_phantom(SPEC32)
    img2, mask2, lm2 = gen_phantom(SPEC32)
    assert np.array_equal(img1.data, img2.data)
    assert np.array_equal(mask1.data, mask2.data)
    assert np.array_equal(lm1.points, lm2.points)


def test_the_memoised_per_grid_arrays_are_read_only():
    """The arrays every phantom and field on one grid shares cannot be
    written, while each call's own outputs stay writeable."""
    defo = SPEC32.deformation
    grid = grid_for(SPEC32)
    shared = [*_region_frame(grid),
              _deformation_modes(grid, SPEC32.seed, defo.n_modes,
                                 defo.smoothness_sigma_voxels)]
    for arr in shared:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.reshape(-1)[0] = 1
    img, mask, lm = gen_phantom(SPEC32)
    u = gen_smooth_dvf(SPEC32, seed=3)
    for arr in (img.data, mask.data, lm.points, u.data):
        assert arr.flags.writeable


def _tree_hashes(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


def test_phantom_gen_files_are_equal_across_processes_and_warm_caches(tmp_path):
    """Two fresh processes and this one, whose per-grid caches are warm,
    write SHA-256-equal datasets on a non-cubic grid."""
    spec = PhantomSpec(dims=(16, 18, 17), spacing=(4.0, 3.5, 4.2), seed=5,
                       deformation=DeformationSpec(smoothness_sigma_voxels=5.0),
                       geometry=AcquisitionSpec(n_emitters=2))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    argv = ["phantom", "gen", "--spec", str(spec_path), "--seed", "3", "--n", "2"]
    for out in ("a", "b"):
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "tomoreg", *argv, "--out", str(tmp_path / out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    gen_smooth_dvf(spec, seed=1)  # warms the caches this process keeps
    assert main(argv + ["--out", str(tmp_path / "c")]) == 0
    want = _tree_hashes(tmp_path / "a")
    assert len(want) == 2 * 15 + 1  # 9 files per sample, 6 with a raw payload
    assert _tree_hashes(tmp_path / "b") == want == _tree_hashes(tmp_path / "c")


def test_mask_is_binary_and_intensities_live_inside_it():
    img, mask, _ = gen_phantom(SPEC32)
    assert set(np.unique(mask.data)) <= {0.0, 1.0}
    assert mask.data.sum() > 0
    assert np.all(img.data[mask.data == 0] == 0.0)
    assert img.data.min() >= 0.0


def test_landmarks_are_tube_waypoints_inside_the_mask():
    _, mask, lm = gen_phantom(SPEC32)
    assert len(lm.ids) == SPEC32.n_vessels * _WAYPOINTS_PER_VESSEL
    vox = np.round(mask.grid.world_to_voxel(lm.points)).astype(int)
    assert np.all(mask.data[tuple(vox.T)] > 0)


def test_no_tubes_means_no_landmarks():
    spec = replace(SPEC32, n_vessels=0)
    _, _, lm = gen_phantom(spec)
    assert len(lm.ids) == 0


def test_a_tube_free_pair_has_no_landmarks_on_either_side(tmp_path):
    """``n_vessels`` may be 0: the pair then has no landmarks on either
    side, and the dataset's landmark files hold their header only."""
    spec = PhantomSpec(dims=(16, 16, 16), spacing=(8.8, 8.8, 8.8), n_vessels=0,
                       geometry=AcquisitionSpec(n_emitters=2))
    pair = make_pair(spec, 3)
    assert len(pair.lm_src) == len(pair.lm_tgt) == 0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert main(["phantom", "gen", "--spec", str(path), "--n", "1",
                 "--out", str(tmp_path / "out")]) == 0
    for side in ("source", "target"):
        csv = tmp_path / "out" / "sample_000" / f"landmarks_{side}.csv"
        assert csv.read_text() == "id,x,y,z\n"
        assert len(tio.read_landmarks(str(csv))) == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec(dims=(8, 8, 8))
    with pytest.raises(ValueError):
        PhantomSpec(spacing=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        PhantomSpec(n_vessels=-1)
    with pytest.raises(ValueError):
        DeformationSpec(n_modes=0)
    with pytest.raises(ValueError):
        DeformationSpec(magnitude_mm=-1.0)
    with pytest.raises(ValueError):
        DeformationSpec(smoothness_sigma_voxels=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            PhantomSpec(spacing=(bad, 1.0, 1.0))
        with pytest.raises(ValueError, match="n_modes must be finite"):
            DeformationSpec(n_modes=bad)
        with pytest.raises(ValueError, match="magnitude_mm must be finite"):
            DeformationSpec(magnitude_mm=bad)
        with pytest.raises(ValueError,
                           match="smoothness_sigma_voxels must be positive and finite"):
            DeformationSpec(smoothness_sigma_voxels=bad)


def test_spec_round_trips_through_plain_dicts():
    spec = replace(SPEC32, n_vessels=3)
    assert PhantomSpec.from_dict(spec.to_dict()) == spec
    assert PhantomSpec.from_dict(PhantomSpec().to_dict()) == PhantomSpec()
    # through JSON, where every tuple comes back as a list
    geometry = AcquisitionSpec(line_offset_mm=(3.0, -1.5), detector_dims=(40, 36),
                               detector_spacing_mm=(2.5, 2.0), step_mm=1.1)
    spec = replace(spec, geometry=geometry)
    assert PhantomSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_spec_from_dict_keeps_defaults_for_null_and_missing_entries():
    spec = PhantomSpec.from_dict({"dims": [16, 16, 16], "seed": None,
                                  "deformation": None,
                                  "geometry": {"n_emitters": 2, "step_mm": None}})
    assert spec == PhantomSpec(dims=(16, 16, 16),
                               geometry=AcquisitionSpec(n_emitters=2))


@pytest.mark.parametrize("d, message", [
    ({"dimz": [16, 16, 16]}, r"unknown phantom spec key\(s\): dimz"),
    ({"geometry": {"n_emiters": 2}}, r"unknown phantom geometry key\(s\): n_emiters"),
    ({"deformation": {"modes": 2, "sigma": 1}},
     r"unknown phantom deformation key\(s\): modes, sigma"),
    ([16, 16, 16], "phantom spec must be an object, got list"),
    ({"deformation": 5}, "phantom deformation must be an object, got int"),
    ({"geometry": [4]}, "phantom geometry must be an object, got list"),
    ({"dims": 16}, "dims must have 3 entries, got 16"),
    ({"seed": float("inf")}, "seed must be finite, got inf"),
    ({"deformation": {"n_modes": "4"}}, "n_modes must be a whole number, got '4'"),
    ({"deformation": {"n_modes": 2.5}}, r"n_modes must be a whole number, got 2\.5"),
    ({"dims": [20.7, 20, 20]}, r"dims must be a whole number, got 20\.7"),
    ({"seed": 2.7}, r"seed must be a whole number, got 2\.7"),
    ({"n_vessels": 2.7}, r"n_vessels must be a whole number, got 2\.7"),
    ({"geometry": {"n_emitters": 2.7}}, r"n_emitters must be a whole number, got 2\.7"),
    ({"geometry": {"detector_dims": [20.7, 20]}},
     r"detector_dims must be a whole number, got 20\.7"),
    ({"geometry": {"line_offset_mm": [1]}}, "line_offset_mm must have 2 entries, got 1"),
    ({"geometry": {"detector_dims": [20, 20, 20]}},
     "detector_dims must have 2 entries, got 3"),
    ({"geometry": {"detector_spacing_mm": [2.0]}},
     "detector_spacing_mm must have 2 entries, got 1"),
    ({"geometry": {"line_offset_mm": [True, "2.5"]}},
     "line_offset_mm must be a real number, got True"),
    ({"geometry": {"detector_spacing_mm": [2.0, "2.0"]}},
     "detector_spacing_mm must be a real number, got '2.0'"),
    ({"dims": [16, 16]}, "dims must have 3 entries, got 2"),
    ({"spacing": [2.0, 2.0]}, "spacing must have 3 entries, got 2"),
    ({"geometry": {"step_mm": "1"}}, "step_mm must be a real number, got '1'"),
    ({"geometry": {"step_mm": True}}, "step_mm must be a real number, got True"),
    ({"geometry": {"span_angle_deg": True}},
     "span_angle_deg must be a real number, got True"),
    ({"geometry": {"source_detector_distance_mm": True}},
     "source_detector_distance_mm must be a real number, got True"),
    ({"deformation": {"magnitude_mm": True}},
     "magnitude_mm must be a real number, got True"),
    ({"deformation": {"magnitude_mm": "3"}},
     "magnitude_mm must be a real number, got '3'"),
    ({"deformation": {"smoothness_sigma_voxels": True}},
     "smoothness_sigma_voxels must be a real number, got True"),
    ({"geometry": {"n_emitters": 1e20}}, r"n_emitters must lie in \[1, 65536\], got 1e\+20"),
    ({"geometry": {"detector_dims": [1e20, 8]}},
     r"detector_dims must lie in \[1, 65536\], got 1e\+20"),
    ({"dims": [16, 16, 2 ** 16 + 1]}, r"dims must lie in \[1, 65536\], got 65537"),
], ids=["unknown-key", "unknown-geometry-key", "unknown-deformation-keys",
        "list-spec", "number-section", "list-section", "number-dims",
        "infinite-seed", "string-modes", "fractional-modes", "fractional-dims",
        "fractional-seed", "fractional-vessels", "fractional-emitters",
        "fractional-detector-dims", "one-entry-offset", "three-detector-dims",
        "one-entry-detector-spacing", "boolean-offset", "string-detector-spacing",
        "two-entry-dims", "two-entry-spacing", "string-step", "boolean-step",
        "boolean-span", "boolean-distance", "boolean-magnitude", "string-magnitude",
        "boolean-smoothness", "huge-emitters", "huge-detector-dims", "huge-dims"])
def test_spec_from_dict_rejects_unknown_keys_and_malformed_values(d, message):
    with pytest.raises(ValueError, match=message):
        PhantomSpec.from_dict(d)


def test_projections_of_a_tube_free_phantom_are_spectrally_smooth():
    """Rendered projections should concentrate energy at low spatial
    frequency, far from a white-noise image of the same size."""
    nd = 48
    spec = PhantomSpec(dims=(nd,) * 3, spacing=(2.2 * 64 / nd,) * 3, seed=3,
                       n_vessels=0,
                       deformation=DeformationSpec(
                           n_modes=4, magnitude_mm=12.0,
                           smoothness_sigma_voxels=16.0 * nd / 64))
    img, _, _ = gen_phantom(spec)
    proj = DrrOperator(img.grid, geometry_for(spec), step_for(spec)).forward(img.data)[..., 0]
    rng = np.random.default_rng(0)
    noise = rng.random(proj.shape).astype(np.float32)
    assert high_frequency_fraction(proj) < 0.002
    assert high_frequency_fraction(noise) > 0.05


# ---------------------------------------------------------------------------
# smooth deformation draws
# ---------------------------------------------------------------------------

def test_deformation_is_deterministic_per_seed_and_varies_across_seeds():
    u1 = gen_smooth_dvf(SPEC32, seed=5)
    u2 = gen_smooth_dvf(SPEC32, seed=5)
    u3 = gen_smooth_dvf(SPEC32, seed=6)
    assert np.array_equal(u1.data, u2.data)
    assert not np.array_equal(u1.data, u3.data)


def test_zero_coefficients_give_the_zero_field():
    u = gen_smooth_dvf(SPEC32, alpha=np.zeros(4))
    assert np.all(u.data == 0.0)


def test_coefficient_selection_is_validated():
    with pytest.raises(ValueError):
        gen_smooth_dvf(SPEC32, alpha=np.zeros(3))


def test_draws_are_fold_free_with_bounded_gradients():
    for i in range(5):
        u = gen_smooth_dvf(SPEC32, seed=split_seed(42, f"g{i}"))
        assert jacobian_stats(u).pct_negative == 0.0
        row = grad_row_sum_max(u.data.astype(np.float64), u.spacing)
        assert row <= _GRAD_CAP * (1.0 + 1e-5)


def test_single_mode_fields_move_along_one_axis():
    for m in range(4):
        u = gen_smooth_dvf(SPEC32, alpha=np.eye(4)[m])
        active = m % 3
        for c in range(3):
            if c == active:
                assert np.abs(u.data[..., c]).max() > 0.0
            else:
                assert np.all(u.data[..., c] == 0.0)


def test_requested_magnitude_is_reached_unless_capped():
    # the scale is anchored to the peak inside the phantom region
    spec = replace(SPEC32, deformation=replace(SPEC32.deformation,
                                               magnitude_mm=2.0))
    u = gen_smooth_dvf(spec, seed=9)
    inside = _region_frame(grid_for(spec))[1]
    norms = np.linalg.norm(u.data.astype(np.float64), axis=-1)
    assert float(norms[inside].max()) == pytest.approx(2.0, rel=1e-5)


def test_draw_family_has_the_generator_rank(train_fields32, sub32):
    stack = np.stack([gen_smooth_dvf(SPEC32,
                                     seed=split_seed(123, f"r{i}")
                                     ).data.reshape(-1)
                      for i in range(12)])
    s = np.linalg.svd(stack, compute_uv=False)
    assert s[4] / s[0] < 1e-6
    assert sub32.n_components <= 4


# ---------------------------------------------------------------------------
# registration pairs
# ---------------------------------------------------------------------------

def test_pair_ground_truth_is_self_consistent(pair32):
    assert mtre(pair32.u_true, pair32.lm_src, pair32.lm_tgt) < 1e-4
    assert np.array_equal(pair32.lm_src.ids, pair32.lm_tgt.ids)
    geom = pair32.projections.geometry
    assert pair32.projections.data.shape == geom.detector_dims + (geom.n_emitters,)
    assert pair32.projections.data.dtype == np.float32
    assert pair32.projections.data.min() >= 0.0


def test_pair_misalignment_sits_in_the_expected_band(pair32):
    before = mtre(zero_displacement(pair32.u_true.grid), pair32.lm_src,
                  pair32.lm_tgt)
    assert 3.0 <= before <= 15.0


def test_pair_generation_is_deterministic(op32, pair32):
    again = make_pair(SPEC32, seed=2000, drr_op=op32)
    assert np.array_equal(again.source.data, pair32.source.data)
    assert np.array_equal(again.target.data, pair32.target.data)
    assert np.array_equal(again.u_true.data, pair32.u_true.data)
    assert np.array_equal(again.lm_tgt.points, pair32.lm_tgt.points)


def test_vanishing_deformation_degenerates_to_identical_scenes():
    spec = replace(SPEC32, deformation=replace(SPEC32.deformation,
                                               magnitude_mm=1e-12))
    pz = make_pair(spec, seed=11)
    assert np.array_equal(pz.source.data, pz.target.data)
    assert np.array_equal(pz.source_mask.data, pz.target_mask.data)
    op = DrrOperator(grid_for(spec), geometry_for(spec),
                     step_mm=step_for(spec))
    rendered = op.render_all(pz.source).data.astype(np.float32)
    assert np.array_equal(pz.projections.data, rendered)


def test_pair_rejects_a_mismatched_projection_operator(op32):
    spec = replace(SPEC32, spacing=(4.0, 4.0, 4.0))
    with pytest.raises(ValueError):
        make_pair(spec, seed=1, drr_op=op32)
