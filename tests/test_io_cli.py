"""File formats and the command-line pipelines built on them."""
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoreg import (DisplacementField, DrrOperator, GridSpec,
                     DeformationSubspace, Image3D, Landmarks, LossConfig,
                     Mask3D, OptimConfig, ProjectionSet,
                     build_sdct_geometry, build_subspace, gen_smooth_dvf,
                     make_pair, mtre, reconstruct, register_subspace_2d,
                     zero_displacement)
from tomoreg import io as tio
from tomoreg.cli import build_parser, generate_dataset, main
from tomoreg.phantom import DeformationSpec, PhantomSpec, split_seed

GRID = GridSpec((6, 5, 4), (1.5, 2.0, 1.0), (-1.0, 0.5, 3.0))

SPEC24 = PhantomSpec(dims=(24, 24, 24), spacing=(5.5, 5.5, 5.5), seed=0,
                     deformation=DeformationSpec(n_modes=4, magnitude_mm=10.0,
                                                 smoothness_sigma_voxels=6.0))


def rand_image(rng, grid=GRID):
    return Image3D(grid.dims, grid.spacing, grid.origin,
                   rng.random(grid.dims).astype(np.float32))


def rand_dvf(rng, grid=GRID):
    return DisplacementField(grid.dims, grid.spacing, grid.origin,
                             rng.standard_normal(grid.dims + (3,)
                                                 ).astype(np.float32))


def file_hashes(root):
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            p = os.path.join(base, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_volume_container_round_trips_bitwise(tmp_path):
    img = rand_image(np.random.default_rng(0))
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.json")
    tio.write_image3d(p1, img)
    back = tio.read_image3d(p1)
    assert np.array_equal(back.data, img.data)
    assert back.grid == img.grid
    tio.write_image3d(p2, back)
    assert (tmp_path / "a.raw").read_bytes() == (tmp_path / "b.raw").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_header_is_sorted_utf8_json_with_trailing_newline(tmp_path):
    p = str(tmp_path / "v.json")
    tio.write_image3d(p, rand_image(np.random.default_rng(1)))
    raw = (tmp_path / "v.json").read_bytes()
    assert raw.endswith(b"\n")
    header = json.loads(raw)
    assert list(header) == sorted(header)
    assert header["kind"] == "volume"
    assert header["dtype"] == "f32le"


def test_payload_interleaving_is_channel_then_x_fastest(tmp_path):
    u = rand_dvf(np.random.default_rng(2))
    p = str(tmp_path / "u.json")
    tio.write_dvf(p, u)
    flat = np.fromfile(tmp_path / "u.raw", dtype="<f4")
    W, H, D = GRID.dims
    # flat index c + 3*(x + W*(y + H*z))
    x, y, z, c = 4, 3, 2, 1
    assert flat[c + 3 * (x + W * (y + H * z))] == u.data[x, y, z, c]


def test_mask_and_dvf_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    mask = Mask3D(GRID.dims, GRID.spacing, GRID.origin,
                  (rng.random(GRID.dims) > 0.4).astype(np.float32))
    u = rand_dvf(rng)
    mp, up = str(tmp_path / "m.json"), str(tmp_path / "u.json")
    tio.write_mask3d(mp, mask)
    tio.write_dvf(up, u)
    assert np.array_equal(tio.read_mask3d(mp).data, mask.data)
    assert np.array_equal(tio.read_dvf(up).data, u.data)
    assert tio.read_grid(up) == GRID


def test_projection_round_trip_and_geometry_checks(tmp_path):
    rng = np.random.default_rng(4)
    geom = build_sdct_geometry(3, 25.0, 300.0, detector_dims=(8, 7),
                               detector_spacing=(2.0, 2.5))
    projs = ProjectionSet(geom, rng.random((8, 7, 3)).astype(np.float32))
    p = str(tmp_path / "p.json")
    tio.write_projections(p, projs)
    back = tio.read_projections(p, geom)
    assert same_bits(back.data, projs.data)
    header = json.loads((tmp_path / "p.json").read_text())
    assert (header["dims"], header["spacing"], header["channels"]) == ([8, 7], [2.0, 2.5], 3)

    # the header's pixel pitch must be the detector's within 1e-9 mm
    for spacing, ok in (([2.0, 2.5 + 1e-10], True), ([2.0, 2.5 + 2e-3], False)):
        (tmp_path / "p.json").write_text(json.dumps({**header, "spacing": spacing}))
        if ok:
            assert same_bits(tio.read_projections(p, geom).data, projs.data)
        else:
            with pytest.raises(ValueError, match="does not match detector_spacing"):
                tio.read_projections(p, geom)
    (tmp_path / "p.json").write_text(json.dumps({**header, "spacing": [float("nan"), 2.5]}))
    with pytest.raises(ValueError, match="spacing must be finite, got nan"):
        tio.read_projections(p, geom)
    (tmp_path / "p.json").write_text(json.dumps({**header, "spacing": [2.0, 2.5, 1.0]}))
    with pytest.raises(ValueError, match="spacing must have 2 entries, got 3"):
        tio.read_projections(p, geom)
    tio.write_projections(p, projs)

    wrong_count = build_sdct_geometry(2, 25.0, 300.0, detector_dims=(8, 7),
                                      detector_spacing=(2.0, 2.5))
    with pytest.raises(ValueError, match="channels"):
        tio.read_projections(p, wrong_count)
    wrong_dims = build_sdct_geometry(3, 25.0, 300.0, detector_dims=(9, 7),
                                     detector_spacing=(2.0, 2.5))
    with pytest.raises(ValueError, match="dims"):
        tio.read_projections(p, wrong_dims)


def test_subspace_round_trip_rewrites_identical_bytes(tmp_path):
    rng = np.random.default_rng(5)
    fields = [rand_dvf(rng) for _ in range(5)]
    sub = build_subspace(fields, 0.99)
    p1, p2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
    tio.write_subspace(p1, sub)
    back = tio.read_subspace(p1)
    assert back.n_components == sub.n_components
    assert np.array_equal(back.singular_values, sub.singular_values)
    assert back.variance_fraction == sub.variance_fraction
    tio.write_subspace(p2, back)
    assert (tmp_path / "s1.raw").read_bytes() == (tmp_path / "s2.raw").read_bytes()
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()


def test_read_subspace_returns_arrays_that_own_their_data(tmp_path):
    """No strided view into the file's payload: reconstruct reads the mean
    without a gather, and the payload is freed once the subspace is built."""
    rng = np.random.default_rng(5)
    sub = build_subspace([rand_dvf(rng) for _ in range(5)], 0.99)
    p = str(tmp_path / "s.json")
    tio.write_subspace(p, sub)
    back = tio.read_subspace(p)
    assert back.mean.flags.c_contiguous and back.mean.flags.owndata
    basis = back.basis
    while basis.base is not None:
        basis = basis.base
    assert back.basis.flags.c_contiguous and basis.nbytes == back.basis.nbytes
    assert np.array_equal(back.mean, sub.mean.astype(np.float32))


def test_container_kind_and_payload_are_validated(tmp_path):
    p = str(tmp_path / "v.json")
    tio.write_image3d(p, rand_image(np.random.default_rng(6)))
    with pytest.raises(ValueError, match="kind"):
        tio.read_mask3d(p)
    payload = (tmp_path / "v.raw").read_bytes()
    (tmp_path / "v.raw").write_bytes(payload[:-4])
    with pytest.raises(ValueError, match="payload"):
        tio.read_image3d(p)
    with pytest.raises(ValueError, match="json"):
        tio.write_image3d(str(tmp_path / "v.raw"),
                          rand_image(np.random.default_rng(6)))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def container_grids(draw):
    """A non-cubic grid, anisotropic spacing, non-zero origin, and a seed."""
    def uneven(t):
        return len(set(t)) > 1

    dims = draw(st.tuples(*[st.integers(1, 7)] * 3).filter(uneven))
    spacing = draw(st.tuples(*[st.floats(0.25, 4.0)] * 3).filter(uneven))
    origin = tuple(draw(st.floats(-100.0, 100.0).filter(bool)) for _ in range(3))
    return GridSpec(dims, spacing, origin), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=30, deadline=None)
@given(container_grids(), st.integers(1, 4), st.integers(0, 3))
def test_every_container_kind_round_trips_bitwise(case, channels, n_comp):
    """Each kind reads back bit for bit, and writing it again gives the same bytes."""
    grid, seed = case
    rng = np.random.default_rng(seed)

    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    dims2, spacing2 = grid.dims[:2], grid.spacing[:2]
    geom = build_sdct_geometry(channels, 25.0, 300.0, detector_dims=dims2,
                               detector_spacing=spacing2)

    def write_stack(p, data):
        tio.write_volume_stack(p, grid, data, extra={"n_undefined": 3})

    def read_stack(p):
        h, data = tio._read_payload(p, "volume")
        assert h["n_undefined"] == 3 and tio.read_grid(p) == grid
        return data

    kinds = {
        "volume": (tio.write_image3d, tio.read_image3d,
                   Image3D(grid.dims, grid.spacing, grid.origin, f32(*grid.dims))),
        "mask": (tio.write_mask3d, tio.read_mask3d,
                 Mask3D(grid.dims, grid.spacing, grid.origin,
                        (rng.random(grid.dims) > 0.5).astype(np.float32))),
        "dvf": (tio.write_dvf, tio.read_dvf,
                DisplacementField(grid.dims, grid.spacing, grid.origin,
                                  f32(*grid.dims, 3))),
        "stack": (write_stack, read_stack, f32(*grid.dims, channels)),
        "projections": (
            tio.write_projections, lambda p: tio.read_projections(p, geom),
            ProjectionSet(geom, np.abs(f32(*dims2, channels)))),
        # float32 values, so the float64 arrays survive the float32 payload
        "subspace": (tio.write_subspace, tio.read_subspace, DeformationSubspace(
            grid.dims, grid.spacing, grid.origin, f32(*grid.dims, 3).astype(np.float64),
            f32(n_comp, 3 * grid.n_voxels).astype(np.float64),
            np.sort(rng.random(n_comp))[::-1], float(rng.random()))),
    }
    with tempfile.TemporaryDirectory() as d:
        for kind, (write, read, obj) in kinds.items():
            p1, p2 = os.path.join(d, kind + "1.json"), os.path.join(d, kind + "2.json")
            write(p1, obj)
            back = read(p1)
            if kind == "stack":
                assert same_bits(back, obj)
            elif kind == "projections":
                assert back.geometry is geom and same_bits(back.data, obj.data)
            elif kind == "subspace":
                assert back.grid == grid and back.n_components == n_comp
                assert same_bits(back.mean, obj.mean) and same_bits(back.basis, obj.basis)
                assert same_bits(back.singular_values, obj.singular_values)
                assert back.variance_fraction == obj.variance_fraction
            else:
                assert back.grid == grid and same_bits(back.data, obj.data)
            write(p2, back)
            for ext in (".json", ".raw"):
                with open(p1[:-5] + ext, "rb") as a, open(p2[:-5] + ext, "rb") as b:
                    assert a.read() == b.read(), (kind, ext)


def test_landmark_csv_format(tmp_path):
    lm = Landmarks(np.array([3, 1, 7]),
                   np.array([[1.25, -2.0, 3.5],
                             [0.1, 0.2, 0.3],
                             [9.0, 8.0, 7.0]]))
    p = str(tmp_path / "lm.csv")
    tio.write_landmarks(p, lm)
    text = (tmp_path / "lm.csv").read_text()
    assert text.splitlines()[0] == "id,x,y,z"
    assert "\r" not in text
    back = tio.read_landmarks(p)
    assert np.array_equal(back.ids, lm.ids)
    assert np.array_equal(back.points, lm.points)

    (tmp_path / "bad.csv").write_text("x,y,z,id\n1,2,3,4\n")
    with pytest.raises(ValueError, match="header"):
        tio.read_landmarks(str(tmp_path / "bad.csv"))
    (tmp_path / "dup.csv").write_text("id,x,y,z\n1,0,0,0\n1,1,1,1\n")
    with pytest.raises(ValueError, match="duplicate"):
        tio.read_landmarks(str(tmp_path / "dup.csv"))
    (tmp_path / "short.csv").write_text("id,x,y,z\n1,0,0\n")
    with pytest.raises(ValueError):
        tio.read_landmarks(str(tmp_path / "short.csv"))


def test_geometry_json_round_trips_exactly(tmp_path):
    geom = build_sdct_geometry(4, 30.0, 520.0, line_offset=(3.0, -1.5),
                               detector_dims=(12, 10),
                               detector_spacing=(1.8, 2.1))
    p = str(tmp_path / "g.json")
    tio.write_geometry(p, geom)
    back = tio.read_geometry(p)
    assert np.array_equal(back.emitter_positions, geom.emitter_positions)
    assert np.array_equal(back.detector_origin, geom.detector_origin)
    assert np.array_equal(back.detector_axes, geom.detector_axes)
    assert back.detector_dims == geom.detector_dims
    assert back.detector_spacing == geom.detector_spacing


def test_alpha_and_report_json(tmp_path):
    alpha = np.array([0.125, -3.5, 2.0 ** -20])
    p = str(tmp_path / "a.json")
    tio.write_alpha(p, alpha)
    assert np.array_equal(tio.read_alpha(p), alpha)
    (tmp_path / "notlist.json").write_text('{"a": 1}\n')
    with pytest.raises(ValueError):
        tio.read_alpha(str(tmp_path / "notlist.json"))
    # booleans and numeric strings are not coefficients
    for bad in ('[true, 0.5]', '[1.0, "0.5"]'):
        (tmp_path / "bad.json").write_text(bad)
        with pytest.raises(ValueError, match="coefficient must be a real number"):
            tio.read_alpha(str(tmp_path / "bad.json"))
    rp = str(tmp_path / "r.json")
    tio.write_report(rp, {"b": 1.0, "a": [2, 3]})
    assert json.loads((tmp_path / "r.json").read_text()) == {"b": 1.0,
                                                             "a": [2, 3]}


# ---------------------------------------------------------------------------
# command-line pipelines
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small generated dataset shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC24.to_dict()) + "\n")
    out = root / "data"
    rc = main(["phantom", "gen", "--spec", str(spec_path), "--seed", "5",
               "--n", "2", "--out", str(out)])
    assert rc == 0
    return root, out


def sample_dir(out, i=0):
    return out / f"sample_{i:03d}"


def test_dataset_generation_is_rerun_identical(dataset, tmp_path):
    root, out = dataset
    again = tmp_path / "again"
    rc = main(["phantom", "gen", "--spec", str(root / "spec.json"),
               "--seed", "5", "--n", "2", "--out", str(again)])
    assert rc == 0
    assert file_hashes(out) == file_hashes(again)


def test_dataset_manifest_and_members_reload_cleanly(dataset):
    _, out = dataset
    manifest = tio.read_manifest(str(out / "manifest.json"))
    assert manifest["n_samples"] == 2
    assert len(manifest["members"]) == 2
    sd = sample_dir(out)
    src = tio.read_image3d(str(sd / "source.json"))
    geom = tio.read_geometry(str(sd / "geometry.json"))
    projs = tio.read_projections(str(sd / "projections.json"), geom)
    u_true = tio.read_dvf(str(sd / "dvf_true.json"))
    lm_s = tio.read_landmarks(str(sd / "landmarks_source.csv"))
    lm_t = tio.read_landmarks(str(sd / "landmarks_target.csv"))
    assert src.grid == u_true.grid
    assert projs.data.shape == geom.detector_dims + (geom.n_emitters,)
    assert mtre(u_true, lm_s, lm_t) < 1e-3
    before = mtre(zero_displacement(u_true.grid), lm_s, lm_t)
    assert before > 1.0


def test_cli_seed_varies_draws_not_the_spec(dataset):
    # --seed must pick the sample draws while the spec (including its own
    # seed, which fixes the deformation mode family) stays untouched, so
    # datasets generated with different seeds stay mutually registrable.
    _, out = dataset
    manifest = tio.read_manifest(str(out / "manifest.json"))
    assert manifest["master_seed"] == 5
    assert manifest["spec"]["seed"] == SPEC24.seed
    assert manifest["members"][0]["seed"] == split_seed(5, 0)
    pair = make_pair(SPEC24, split_seed(5, 0))
    sd = sample_dir(out)
    u_true = tio.read_dvf(str(sd / "dvf_true.json"))
    src = tio.read_image3d(str(sd / "source.json"))
    assert np.array_equal(u_true.data, pair.u_true.data.astype(np.float32))
    assert np.array_equal(src.data, pair.source.data)


def test_generating_an_empty_dataset_is_allowed(tmp_path):
    out = tmp_path / "empty"
    rc = main(["phantom", "gen", "--n", "0", "--out", str(out)])
    assert rc == 0
    manifest = tio.read_manifest(str(out / "manifest.json"))
    assert manifest["n_samples"] == 0
    assert manifest["members"] == []


def test_a_negative_sample_count_exits_with_code_two(tmp_path, capsys):
    out = tmp_path / "neg"
    rc = main(["phantom", "gen", "--n", "-1", "--out", str(out)])
    assert one_error_and_no_output(rc, capsys, out) == "error: n must be finite and >= 0, got -1"
    for bad in (-1, 2.5, True):
        with pytest.raises(ValueError, match="n must be"):
            generate_dataset(SPEC24, 0, bad, str(out))
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["register", "subspace3d", "--source", "s", "--target", "t", "--source-mask", "m",
     "--target-mask", "m", "--subspace", "b"],
    ["register", "subspace2d", "--source", "s", "--source-mask", "m",
     "--projections", "p", "--geometry", "g", "--subspace", "b"],
    ["register", "dense", "--source", "s", "--target", "t", "--source-mask", "m",
     "--target-mask", "m"],
], ids=["subspace3d", "subspace2d", "dense"])
def test_register_flag_defaults_are_the_config_defaults(command):
    args = build_parser().parse_args(command)
    assert args.lam == LossConfig().lam
    assert args.iters == OptimConfig().max_iters


@pytest.mark.parametrize("spec, message", [
    ({"dimz": [16, 16, 16]}, "unknown phantom spec key(s): dimz"),
    ({"geometry": {"n_emiters": 2}}, "unknown phantom geometry key(s): n_emiters"),
    ([16, 16, 16], "phantom spec must be an object, got list"),
    ({"deformation": 5}, "phantom deformation must be an object, got int"),
    ({"deformation": {"smoothness_sigma_voxels": float("inf")}},
     "smoothness_sigma_voxels must be positive and finite"),
    ({"deformation": {"magnitude_mm": float("nan")}},
     "magnitude_mm must be finite and >= 0"),
    ({"deformation": {"n_modes": 2.5}}, "n_modes must be a whole number, got 2.5"),
    ({"geometry": {"line_offset_mm": [1]}}, "line_offset_mm must have 2 entries, got 1"),
    ({"dims": [20.7, 20, 20]}, "dims must be a whole number, got 20.7"),
    ({"seed": 2.7}, "seed must be a whole number, got 2.7"),
    ({"n_vessels": 2.7}, "n_vessels must be a whole number, got 2.7"),
    ({"n_vessels": True}, "n_vessels must be a whole number, got True"),
    ({"geometry": {"n_emitters": 2.7}}, "n_emitters must be a whole number, got 2.7"),
    ({"geometry": {"detector_dims": [20.7, 20]}},
     "detector_dims must be a whole number, got 20.7"),
    ({"geometry": {"step_mm": 0}}, "step_mm must be positive and finite, got 0"),
    ({"dims": [16, 16]}, "dims must have 3 entries, got 2"),
    ({"spacing": [2.0, 2.0, 2.0, 2.0]}, "spacing must have 3 entries, got 4"),
    ({"spacing": [True, "2.0", 2.0]}, "spacing must be a real number, got True"),
    ({"geometry": {"line_offset_mm": [True, "2.5"]}},
     "line_offset_mm must be a real number, got True"),
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
], ids=["unknown-key", "unknown-geometry-key", "list-spec", "number-section",
        "infinite-smoothness", "nan-magnitude", "fractional-modes",
        "one-entry-offset", "fractional-dims", "fractional-seed",
        "fractional-vessels", "boolean-vessels", "fractional-emitters", "fractional-detector-dims",
        "zero-step", "two-entry-dims", "four-entry-spacing", "boolean-spacing",
        "boolean-offset", "string-step", "boolean-step", "boolean-span",
        "boolean-distance", "boolean-magnitude", "string-magnitude",
        "boolean-smoothness"])
def test_phantom_gen_rejects_a_malformed_spec(tmp_path, capsys, spec, message):
    """Rejected before anything is written, with or without samples to make."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))  # NaN and Infinity as json.load reads them
    for n in ("0", "1"):
        rc = main(["phantom", "gen", "--spec", str(path), "--n", n,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not os.path.exists(tmp_path / "out")


def test_drr_render_cli_matches_the_operator(dataset, tmp_path):
    _, out = dataset
    sd = sample_dir(out)
    zero = Image3D(SPEC24.dims, SPEC24.spacing,
                   tio.read_grid(str(sd / "source.json")).origin,
                   np.zeros(SPEC24.dims, np.float32))
    zp = str(tmp_path / "zero.json")
    tio.write_image3d(zp, zero)
    op = str(tmp_path / "proj.json")
    rc = main(["drr", "render", "--volume", zp,
               "--geometry", str(sd / "geometry.json"), "--out", op])
    assert rc == 0
    geom = tio.read_geometry(str(sd / "geometry.json"))
    projs = tio.read_projections(op, geom)
    assert np.all(projs.data == 0.0)


def test_drr_render_cli_rejects_a_non_finite_detector_spacing(dataset, tmp_path,
                                                            capsys):
    _, out = dataset
    sd = sample_dir(out)
    geom = json.loads((sd / "geometry.json").read_text())
    geom["detector_spacing"] = [float("nan"), 2.0]
    (tmp_path / "nan_geometry.json").write_text(json.dumps(geom))
    op = tmp_path / "proj.json"
    rc = main(["drr", "render", "--volume", str(sd / "source.json"),
               "--geometry", str(tmp_path / "nan_geometry.json"), "--out", str(op)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: detector_spacing must be positive and finite")
    assert not os.path.exists(op)


def test_lift3d_export_cli_writes_per_emitter_channels(dataset, tmp_path):
    _, out = dataset
    sd = sample_dir(out)
    lp = str(tmp_path / "lifted.json")
    rc = main(["lift3d", "export", "--projections", str(sd / "projections.json"),
               "--geometry", str(sd / "geometry.json"),
               "--grid-like", str(sd / "source.json"), "--out", lp])
    assert rc == 0
    header = json.loads((tmp_path / "lifted.json").read_text())
    geom = tio.read_geometry(str(sd / "geometry.json"))
    assert header["channels"] == geom.n_emitters
    assert "n_undefined" in header
    _, data = tio._read_payload(lp, "volume")
    assert data.max() > 0.0
    assert data.min() >= 0.0


def test_a_multi_channel_volume_or_mask_is_rejected(dataset, tmp_path, capsys):
    """A lift3d export is a 4-channel volume stack, not a CT volume."""
    _, out = dataset
    sd = sample_dir(out)
    lp = tmp_path / "lifted.json"
    assert main(["lift3d", "export", "--projections", str(sd / "projections.json"),
                 "--geometry", str(sd / "geometry.json"),
                 "--grid-like", str(sd / "source.json"), "--out", str(lp)]) == 0
    op = tmp_path / "proj.json"
    rc = main(["drr", "render", "--volume", str(lp),
               "--geometry", str(sd / "geometry.json"), "--out", str(op)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "a volume has 1 channel, got 4" in err[0]
    assert not op.exists()
    header = json.loads(lp.read_text())
    header["kind"] = "mask"
    (tmp_path / "stack_mask.json").write_text(json.dumps(header))
    shutil.copyfile(tmp_path / "lifted.raw", tmp_path / "stack_mask.raw")
    with pytest.raises(ValueError, match="a mask has 1 channel, got 4"):
        tio.read_mask3d(str(tmp_path / "stack_mask.json"))


@pytest.fixture(scope="module")
def balanced_subspace(dataset):
    """Subspace built through the CLI from a +/- closed field directory."""
    root, _ = dataset
    dvf_dir = root / "dvfs"
    dvf_dir.mkdir()
    for i in range(4):
        f = gen_smooth_dvf(SPEC24, seed=split_seed(9000, f"cli{i}"))
        tio.write_dvf(str(dvf_dir / f"f{i}.json"), f)
        neg = DisplacementField(f.dims, f.spacing, f.origin, -f.data)
        tio.write_dvf(str(dvf_dir / f"g{i}.json"), neg)
    sub_path = root / "sub.json"
    rc = main(["subspace", "build", "--dvf-dir", str(dvf_dir),
               "--variance", "0.99", "--out", str(sub_path)])
    assert rc == 0
    return sub_path


def test_subspace_build_cli(dataset, balanced_subspace, tmp_path):
    header = json.loads(balanced_subspace.read_text())
    assert 1 <= header["n_components"] <= 4
    sub = tio.read_subspace(str(balanced_subspace))
    assert np.all(sub.mean == 0.0)

    # a single field has no variance to keep
    root, _ = dataset
    one_dir = tmp_path / "one"
    one_dir.mkdir()
    f = gen_smooth_dvf(SPEC24, seed=1)
    tio.write_dvf(str(one_dir / "f.json"), f)
    one_out = str(tmp_path / "one_sub.json")
    assert main(["subspace", "build", "--dvf-dir", str(one_dir),
                 "--out", one_out]) == 0
    assert json.loads((tmp_path / "one_sub.json").read_text())["n_components"] == 0

    assert main(["subspace", "build", "--dvf-dir", str(one_dir),
                 "--variance", "1.01", "--out", one_out]) == 2
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["subspace", "build", "--dvf-dir", str(empty),
                 "--out", one_out]) == 2


def test_register_subspace3d_cli_identity(dataset, balanced_subspace, tmp_path):
    _, out = dataset
    sd = sample_dir(out)
    out_dvf = str(tmp_path / "u.json")
    out_alpha = str(tmp_path / "alpha.json")
    report = str(tmp_path / "report.json")
    args = ["register", "subspace3d",
            "--source", str(sd / "source.json"),
            "--target", str(sd / "source.json"),
            "--source-mask", str(sd / "source_mask.json"),
            "--target-mask", str(sd / "source_mask.json"),
            "--subspace", str(balanced_subspace),
            "--iters", "20", "--out-dvf", out_dvf,
            "--out-alpha", out_alpha, "--report", report]
    assert main(args) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["final_loss"] < 1e-4
    alpha = tio.read_alpha(out_alpha)
    assert np.abs(alpha).max() < 1e-3
    u = tio.read_dvf(out_dvf)
    assert np.abs(u.data).max() < 1e-3

    # rerunning writes byte-identical outputs, minus the timing field
    rerun = str(tmp_path / "alpha2.json")
    args2 = list(args)
    args2[args2.index(out_alpha)] = rerun
    assert main(args2) == 0
    assert (tmp_path / "alpha.json").read_bytes() == (tmp_path / "alpha2.json").read_bytes()


def test_register_subspace2d_cli_runs_without_target_volumes(
        dataset, balanced_subspace, tmp_path):
    """The projection-driven path must work when only the source scene and
    the measured projections exist on disk."""
    _, out = dataset
    sd = sample_dir(out, 1)
    workdir = tmp_path / "blind"
    workdir.mkdir()
    for name in ("source.json", "source.raw", "source_mask.json",
                 "source_mask.raw", "projections.json", "projections.raw",
                 "geometry.json"):
        (workdir / name).write_bytes((sd / name).read_bytes())
    # no target.* or target_mask.* files exist in workdir at all
    out_dvf = str(workdir / "u.json")
    report = str(workdir / "report.json")
    rc = main(["register", "subspace2d",
               "--source", str(workdir / "source.json"),
               "--source-mask", str(workdir / "source_mask.json"),
               "--projections", str(workdir / "projections.json"),
               "--geometry", str(workdir / "geometry.json"),
               "--subspace", str(balanced_subspace),
               "--iters", "10", "--out-dvf", out_dvf, "--report", report])
    assert rc == 0
    rep = json.loads((workdir / "report.json").read_text())
    assert rep["final_loss"] <= rep["loss_trace"][0]
    assert os.path.exists(out_dvf)


def test_register_subspace2d_cli_step_reaches_the_operator(
        dataset, balanced_subspace, tmp_path, capsys):
    """--step-mm is the ray step of the DRR operator the driver renders with."""
    _, out = dataset
    sd = sample_dir(out)
    args = ["register", "subspace2d",
            "--source", str(sd / "source.json"),
            "--source-mask", str(sd / "source_mask.json"),
            "--projections", str(sd / "projections.json"),
            "--geometry", str(sd / "geometry.json"),
            "--subspace", str(balanced_subspace), "--iters", "5"]
    assert main(args + ["--step-mm", "1.7",
                        "--out-alpha", str(tmp_path / "a17.json")]) == 0
    assert main(args + ["--out-alpha", str(tmp_path / "a.json")]) == 0

    source = tio.read_image3d(str(sd / "source.json"))
    geom = tio.read_geometry(str(sd / "geometry.json"))
    alpha = register_subspace_2d(
        source, tio.read_projections(str(sd / "projections.json"), geom),
        tio.read_mask3d(str(sd / "source_mask.json")),
        tio.read_subspace(str(balanced_subspace)),
        opt_cfg=OptimConfig(max_iters=5),
        drr_op=DrrOperator(source.grid, geom, 1.7))[0]
    tio.write_alpha(str(tmp_path / "lib.json"), alpha)
    step17 = (tmp_path / "a17.json").read_bytes()
    assert step17 == (tmp_path / "lib.json").read_bytes()
    assert step17 != (tmp_path / "a.json").read_bytes()

    capsys.readouterr()
    rc = main(args + ["--step-mm", "0", "--out-alpha", str(tmp_path / "a0.json")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: step_mm must be positive")
    assert not os.path.exists(tmp_path / "a0.json")


def test_register_dense_cli(dataset, tmp_path):
    _, out = dataset
    sd = sample_dir(out)
    out_dvf = str(tmp_path / "ud.json")
    report = str(tmp_path / "rd.json")
    rc = main(["register", "dense",
               "--source", str(sd / "source.json"),
               "--target", str(sd / "target.json"),
               "--source-mask", str(sd / "source_mask.json"),
               "--target-mask", str(sd / "target_mask.json"),
               "--iters", "10", "--out-dvf", out_dvf, "--report", report])
    assert rc == 0
    rep = json.loads((tmp_path / "rd.json").read_text())
    assert rep["alpha"] is None
    assert rep["final_loss"] <= rep["loss_trace"][0]


def test_written_field_matches_written_coefficients(dataset, balanced_subspace,
                                                    tmp_path):
    _, out = dataset
    sd = sample_dir(out)
    out_dvf = str(tmp_path / "u.json")
    out_alpha = str(tmp_path / "a.json")
    rc = main(["register", "subspace3d",
               "--source", str(sd / "source.json"),
               "--target", str(sd / "target.json"),
               "--source-mask", str(sd / "source_mask.json"),
               "--target-mask", str(sd / "target_mask.json"),
               "--subspace", str(balanced_subspace),
               "--iters", "15", "--out-dvf", out_dvf, "--out-alpha", out_alpha])
    assert rc == 0
    sub = tio.read_subspace(str(balanced_subspace))
    alpha = tio.read_alpha(out_alpha)
    u = tio.read_dvf(out_dvf)
    assert np.abs(alpha).max() > 0.0
    recon = reconstruct(sub, alpha)
    assert np.abs(recon.data - u.data).max() < 1e-4 * max(
        1.0, np.abs(u.data).max())


def test_evaluate_cli(dataset, tmp_path):
    _, out = dataset
    sd = sample_dir(out)

    # ground truth field explains its own pair
    rep_path = str(tmp_path / "gt.json")
    rc = main(["evaluate", "--dvf", str(sd / "dvf_true.json"),
               "--lm-src", str(sd / "landmarks_source.csv"),
               "--lm-tgt", str(sd / "landmarks_target.csv"),
               "--mask-src", str(sd / "source_mask.json"),
               "--mask-tgt", str(sd / "target_mask.json"),
               "--out", rep_path])
    assert rc == 0
    rep = json.loads((tmp_path / "gt.json").read_text())
    assert rep["mtre_mm"] < 1e-3
    assert rep["dice_pct"] == 100.0
    assert rep["pct_neg_jacobian"] == 0.0
    assert rep["n_landmarks"] == 30

    # identity scene: zero field, identical landmarks and masks
    grid = tio.read_grid(str(sd / "source.json"))
    zp = str(tmp_path / "zero_dvf.json")
    tio.write_dvf(zp, zero_displacement(grid))
    idp = str(tmp_path / "id.json")
    rc = main(["evaluate", "--dvf", zp,
               "--lm-src", str(sd / "landmarks_source.csv"),
               "--lm-tgt", str(sd / "landmarks_source.csv"),
               "--mask-src", str(sd / "source_mask.json"),
               "--mask-tgt", str(sd / "source_mask.json"),
               "--out", idp])
    assert rc == 0
    rep = json.loads((tmp_path / "id.json").read_text())
    assert rep["mtre_mm"] == 0.0
    assert rep["dice_pct"] == 100.0
    assert rep["pct_neg_jacobian"] == 0.0

    # hand-built two-landmark offset
    center = grid.voxel_centers()[12, 12, 12]
    lm_t = Landmarks(np.array([0, 1]),
                     np.stack([center, center + np.array([8.0, 0.0, 0.0])]))
    lm_s = Landmarks(lm_t.ids.copy(), lm_t.points + np.array([1.0, 2.0, 2.0]))
    tio.write_landmarks(str(tmp_path / "ls.csv"), lm_s)
    tio.write_landmarks(str(tmp_path / "lt.csv"), lm_t)
    hp = str(tmp_path / "hand.json")
    rc = main(["evaluate", "--dvf", zp,
               "--lm-src", str(tmp_path / "ls.csv"),
               "--lm-tgt", str(tmp_path / "lt.csv"),
               "--mask-src", str(sd / "source_mask.json"),
               "--mask-tgt", str(sd / "source_mask.json"),
               "--out", hp])
    assert rc == 0
    rep = json.loads((tmp_path / "hand.json").read_text())
    assert rep["mtre_mm"] == pytest.approx(3.0, abs=1e-9)
    assert rep["per_axis_mm"] == pytest.approx([1.0, 2.0, 2.0], abs=1e-9)


def test_commands_never_mutate_their_inputs(dataset, balanced_subspace,
                                            tmp_path):
    _, out = dataset
    sd = sample_dir(out)
    before = file_hashes(sd)
    main(["register", "subspace3d",
          "--source", str(sd / "source.json"),
          "--target", str(sd / "target.json"),
          "--source-mask", str(sd / "source_mask.json"),
          "--target-mask", str(sd / "target_mask.json"),
          "--subspace", str(balanced_subspace),
          "--iters", "2", "--out-dvf", str(tmp_path / "u.json")])
    main(["evaluate", "--dvf", str(sd / "dvf_true.json"),
          "--lm-src", str(sd / "landmarks_source.csv"),
          "--lm-tgt", str(sd / "landmarks_target.csv"),
          "--mask-src", str(sd / "source_mask.json"),
          "--mask-tgt", str(sd / "target_mask.json"),
          "--out", str(tmp_path / "m.json")])
    assert file_hashes(sd) == before


def test_validation_failures_exit_with_code_two(dataset, balanced_subspace,
                                                tmp_path, capsys):
    _, out = dataset
    sd = sample_dir(out)
    # a mask container is not a volume container
    rc = main(["register", "subspace3d",
               "--source", str(sd / "source_mask.json"),
               "--target", str(sd / "target.json"),
               "--source-mask", str(sd / "source_mask.json"),
               "--target-mask", str(sd / "target_mask.json"),
               "--subspace", str(balanced_subspace),
               "--iters", "1"])
    assert rc == 2
    assert "kind" in capsys.readouterr().err

    rc = main(["evaluate", "--dvf", str(tmp_path / "missing.json"),
               "--lm-src", str(sd / "landmarks_source.csv"),
               "--lm-tgt", str(sd / "landmarks_target.csv"),
               "--mask-src", str(sd / "source_mask.json"),
               "--mask-tgt", str(sd / "target_mask.json"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 2

    # an empty target mask leaves nothing to correlate against
    empty = tio.read_mask3d(str(sd / "target_mask.json"))
    empty.data[...] = 0.0
    tio.write_mask3d(str(tmp_path / "empty_mask.json"), empty)
    capsys.readouterr()
    for driver in (["dense"], ["subspace3d", "--subspace", str(balanced_subspace)]):
        rc = main(["register", *driver,
                   "--source", str(sd / "source.json"),
                   "--target", str(sd / "target.json"),
                   "--source-mask", str(sd / "source_mask.json"),
                   "--target-mask", str(tmp_path / "empty_mask.json"),
                   "--iters", "1", "--out-dvf", str(tmp_path / "u.json")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: masked target is constant, so its correlation is undefined"]
        assert not os.path.exists(tmp_path / "u.json")

    # a geometry shifted 5 m sideways: no ray meets the volume
    geom = json.loads((sd / "geometry.json").read_text())
    geom["emitter_positions"] = [[x + 5000.0, y, z]
                                 for x, y, z in geom["emitter_positions"]]
    geom["detector_origin"][0] += 5000.0
    (tmp_path / "missed.json").write_text(json.dumps(geom))
    rc = main(["register", "subspace2d",
               "--source", str(sd / "source.json"),
               "--source-mask", str(sd / "source_mask.json"),
               "--projections", str(sd / "projections.json"),
               "--geometry", str(tmp_path / "missed.json"),
               "--subspace", str(balanced_subspace),
               "--iters", "1", "--out-dvf", str(tmp_path / "u.json")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: projection 0: no ray of emitter 0 meets the volume"]
    assert not os.path.exists(tmp_path / "u.json")

    # a subspace built from one field has no component to fit
    one_dir = tmp_path / "one"
    one_dir.mkdir()
    tio.write_dvf(str(one_dir / "f.json"), gen_smooth_dvf(SPEC24, seed=1))
    assert main(["subspace", "build", "--dvf-dir", str(one_dir),
                 "--out", str(tmp_path / "empty_sub.json")]) == 0
    capsys.readouterr()
    rc = main(["register", "subspace3d",
               "--source", str(sd / "source.json"),
               "--target", str(sd / "target.json"),
               "--source-mask", str(sd / "source_mask.json"),
               "--target-mask", str(sd / "target_mask.json"),
               "--subspace", str(tmp_path / "empty_sub.json"),
               "--iters", "1", "--out-dvf", str(tmp_path / "u.json")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: subspace has no components")
    assert not os.path.exists(tmp_path / "u.json")

    # a basis scaled by 100 breaks the orthonormality the first step assumes
    scaled = tio.read_subspace(str(balanced_subspace))
    scaled = dataclasses.replace(scaled, basis=100.0 * scaled.basis)
    tio.write_subspace(str(tmp_path / "scaled_sub.json"), scaled)
    capsys.readouterr()
    rc = main(["register", "subspace3d",
               "--source", str(sd / "source.json"),
               "--target", str(sd / "target.json"),
               "--source-mask", str(sd / "source_mask.json"),
               "--target-mask", str(sd / "target_mask.json"),
               "--subspace", str(tmp_path / "scaled_sub.json"),
               "--iters", "1", "--out-dvf", str(tmp_path / "u.json")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: subspace basis rows are not orthonormal")
    assert not os.path.exists(tmp_path / "u.json")

    # a one-voxel volume is constant, so nothing can be correlated
    one = GridSpec((1, 1, 1), (1.0, 2.0, 3.0))
    tio.write_image3d(str(tmp_path / "one.json"),
                      Image3D(one.dims, one.spacing, one.origin, np.ones((1, 1, 1))))
    tio.write_mask3d(str(tmp_path / "one_mask.json"),
                     Mask3D(one.dims, one.spacing, one.origin, np.ones((1, 1, 1))))
    one_args = ["register", "dense",
                "--source", str(tmp_path / "one.json"),
                "--target", str(tmp_path / "one.json"),
                "--source-mask", str(tmp_path / "one_mask.json"),
                "--target-mask", str(tmp_path / "one_mask.json"),
                "--iters", "1", "--out-dvf", str(tmp_path / "u.json")]
    rc = main(one_args)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: masked source is constant, so its correlation is undefined"]
    assert not os.path.exists(tmp_path / "u.json")

    # the first step is scaled from the grid; there is no step size to set
    with pytest.raises(SystemExit) as exc:
        main(one_args + ["--step-size", "1.0"])
    assert exc.value.code == 2


def test_numerical_failure_exits_with_code_three(dataset, balanced_subspace,
                                                 tmp_path, capsys):
    _, out = dataset
    sd = sample_dir(out)
    bad = tmp_path / "bad_sub.json"
    bad.write_bytes(balanced_subspace.read_bytes())
    raw = np.fromfile(balanced_subspace.with_suffix(".raw"), dtype="<f4")
    raw[5] = np.nan
    raw.tofile(tmp_path / "bad_sub.raw")
    rc = main(["register", "subspace3d",
               "--source", str(sd / "source.json"),
               "--target", str(sd / "target.json"),
               "--source-mask", str(sd / "source_mask.json"),
               "--target-mask", str(sd / "target_mask.json"),
               "--subspace", str(bad), "--iters", "5",
               "--out-dvf", str(tmp_path / "u.json")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "u.json")


def one_error_and_no_output(rc, capsys, out_path):
    """Exit 2, exactly one ``error:`` line on stderr, nothing written."""
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not os.path.exists(out_path)
    return err[0]


@pytest.mark.parametrize("name, field, value", [
    ("source.json", "dims", 5),
    ("source.json", "channels", None),
    ("source.json", "spacing", None),
    ("geometry.json", "detector_dims", 6),
    ("source.json", "dims", [4.7, 4, 4]),
    ("source.json", "channels", 1.5),
    ("source.json", "channels", True),
    ("source.json", "spacing", [True, 4, 4]),
    ("source.json", "origin", ["2.5", 0, 0]),
    ("geometry.json", "detector_spacing", [True, "1.6"]),
])
def test_a_header_field_of_the_wrong_json_type_exits_with_code_two(
        dataset, tmp_path, capsys, name, field, value):
    _, out = dataset
    sd = sample_dir(out)
    for fn in ("source.json", "source.raw", "geometry.json"):
        shutil.copyfile(sd / fn, tmp_path / fn)
    edited = json.loads((sd / name).read_text())
    edited[field] = value
    (tmp_path / name).write_text(json.dumps(edited))
    op = tmp_path / "proj.json"
    rc = main(["drr", "render", "--volume", str(tmp_path / "source.json"),
               "--geometry", str(tmp_path / "geometry.json"), "--out", str(op)])
    assert one_error_and_no_output(rc, capsys, op).startswith(f"error: {field} must ")


@pytest.mark.parametrize("field, value", [("detector_dims", [8, 8, 3]),
                                          ("detector_spacing", [1.6, 1.6, 7.0])])
def test_a_geometry_pair_field_with_a_third_entry_exits_with_code_two(
        dataset, tmp_path, capsys, field, value):
    _, out = dataset
    sd = sample_dir(out)
    geom = json.loads((sd / "geometry.json").read_text())
    geom[field] = value
    (tmp_path / "geometry.json").write_text(json.dumps(geom))
    op = tmp_path / "proj.json"
    rc = main(["drr", "render", "--volume", str(sd / "source.json"),
               "--geometry", str(tmp_path / "geometry.json"), "--out", str(op)])
    assert f"{field} must have 2 entries, got 3" in one_error_and_no_output(rc, capsys, op)


def test_projections_of_another_detector_pitch_exit_with_code_two(
        dataset, balanced_subspace, tmp_path, capsys):
    _, out = dataset
    sd = sample_dir(out)
    header = json.loads((sd / "projections.json").read_text())
    header["spacing"] = [3.0, 7.0]
    (tmp_path / "proj.json").write_text(json.dumps(header))
    shutil.copyfile(sd / "projections.raw", tmp_path / "proj.raw")
    rc = main(["register", "subspace2d",
               "--source", str(sd / "source.json"),
               "--source-mask", str(sd / "source_mask.json"),
               "--projections", str(tmp_path / "proj.json"),
               "--geometry", str(sd / "geometry.json"),
               "--subspace", str(balanced_subspace),
               "--iters", "1", "--out-dvf", str(tmp_path / "u.json")])
    err = one_error_and_no_output(rc, capsys, tmp_path / "u.json")
    assert "projection spacing (3.0, 7.0) does not match detector_spacing" in err


@pytest.mark.parametrize("field, value, message", [
    ("singular_values", "nan-first", "singular_values must be finite"),
    ("variance_fraction", float("nan"), "variance_fraction must lie in (0, 1]"),
    ("variance_fraction", True,
     "variance_fraction must be a real number, got True"),
    ("variance_fraction", "0.99",
     "variance_fraction must be a real number, got '0.99'"),
], ids=["nan-singular-value", "nan-variance", "boolean-variance", "string-variance"])
def test_a_malformed_subspace_header_exits_with_code_two(
        dataset, balanced_subspace, tmp_path, capsys, field, value, message):
    _, out = dataset
    sd = sample_dir(out)
    header = json.loads(balanced_subspace.read_text())
    if value == "nan-first":
        value = [float("nan")] + header[field][1:]
    header[field] = value
    (tmp_path / "sub.json").write_text(json.dumps(header))  # NaN as json.load reads it
    shutil.copyfile(balanced_subspace.with_suffix(".raw"), tmp_path / "sub.raw")
    rc = main(["register", "subspace2d",
               "--source", str(sd / "source.json"),
               "--source-mask", str(sd / "source_mask.json"),
               "--projections", str(sd / "projections.json"),
               "--geometry", str(sd / "geometry.json"),
               "--subspace", str(tmp_path / "sub.json"),
               "--iters", "1", "--out-dvf", str(tmp_path / "u.json")])
    assert message in one_error_and_no_output(rc, capsys, tmp_path / "u.json")


def nan_copy(header_path, dest):
    """A copy of the container at ``header_path`` with one NaN in its payload."""
    shutil.copyfile(header_path, dest)
    raw = np.fromfile(header_path.with_suffix(".raw"), dtype="<f4")
    raw[len(raw) // 2] = np.nan
    raw.tofile(dest.with_suffix(".raw"))
    return str(dest)


@pytest.mark.parametrize("command", ["drr render", "lift3d export",
                                     "subspace build", "register subspace3d",
                                     "register subspace2d", "register dense",
                                     "evaluate"])
def test_a_nan_payload_exits_with_code_two(dataset, balanced_subspace, tmp_path,
                                           capsys, command):
    """Each command that reads a payload container rejects a NaN in it when
    it loads the file, before any computation or output."""
    _, out = dataset
    sd = sample_dir(out)
    result = tmp_path / "result.json"
    f = {name: str(sd / f"{name}.json")
         for name in ("source", "target", "source_mask", "target_mask", "geometry")}
    reg = ["--iters", "1", "--out-dvf", str(result)]
    if command == "drr render":
        argv = ["drr", "render", "--volume", nan_copy(sd / "source.json", tmp_path / "v.json"),
                "--geometry", f["geometry"], "--out", str(result)]
    elif command == "lift3d export":
        argv = ["lift3d", "export",
                "--projections", nan_copy(sd / "projections.json", tmp_path / "p.json"),
                "--geometry", f["geometry"], "--grid-like", f["source"],
                "--out", str(result)]
    elif command == "subspace build":
        (tmp_path / "dvfs").mkdir()
        nan_copy(sd / "dvf_true.json", tmp_path / "dvfs" / "u.json")
        argv = ["subspace", "build", "--dvf-dir", str(tmp_path / "dvfs"),
                "--out", str(result)]
    elif command == "register subspace3d":
        argv = ["register", "subspace3d", "--source", f["source"],
                "--target", nan_copy(sd / "target.json", tmp_path / "t.json"),
                "--source-mask", f["source_mask"], "--target-mask", f["target_mask"],
                "--subspace", str(balanced_subspace)] + reg
    elif command == "register subspace2d":
        argv = ["register", "subspace2d", "--source", f["source"],
                "--source-mask", f["source_mask"],
                "--projections", nan_copy(sd / "projections.json", tmp_path / "p.json"),
                "--geometry", f["geometry"], "--subspace", str(balanced_subspace)] + reg
    elif command == "register dense":
        argv = ["register", "dense",
                "--source", nan_copy(sd / "source.json", tmp_path / "s.json"),
                "--target", f["target"], "--source-mask", f["source_mask"],
                "--target-mask", f["target_mask"]] + reg
    else:
        argv = ["evaluate", "--dvf", nan_copy(sd / "dvf_true.json", tmp_path / "u.json"),
                "--lm-src", str(sd / "landmarks_source.csv"),
                "--lm-tgt", str(sd / "landmarks_target.csv"),
                "--mask-src", f["source_mask"],
                "--mask-tgt", f["target_mask"], "--out", str(result)]
    err = one_error_and_no_output(main(argv), capsys, result)
    assert "non-finite" in err


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "tomoreg", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "register" in proc.stdout
