"""Every reader of an outside file, fed one field it cannot expect.

One generated test per kind of file a command reads: volume, mask, dvf,
projections, subspace, geometry, phantom spec and landmark CSV, each
through ``cli.main`` in process, and the coefficient file through
``io.read_alpha``.  Each example writes a small valid scene, replaces one
field of one file (a top-level field, a section entry or one entry of a
list, at any depth; for the CSV, one field of one row) with a drawn value
and runs a command that reads it.  The run either exits 0, or exits 2 (3 for a numerical failure) with
exactly one ``error:`` line and no output file.  It never raises, never
warns, and a boolean or a string in a numeric field always exits 2.
"""
import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tomoreg import (AcquisitionSpec, DeformationSpec, DisplacementField, DrrOperator,
                     GridSpec, Image3D, Landmarks, Mask3D, PhantomSpec,
                     build_sdct_geometry, build_subspace)
from tomoreg import io as tio
from tomoreg.cli import main

# bool, string, null, list, object, zero, fraction, negative, huge, NaN, Infinity
VALUES = [True, False, "1", "x", None, [1.0], [], {"a": 1}, {}, 0, 0.5, 2.5, -3,
          -0.5, 1e300, 10 ** 20, math.nan, math.inf, -math.inf]
EXAMPLES = settings(max_examples=40, deadline=None)


def _write_scene(root: str) -> None:
    """Containers on a 6 x 5 x 4 grid, a two-emitter geometry, landmarks,
    a two-component subspace, a phantom spec and a coefficient file."""
    rng = np.random.default_rng(0)
    grid = GridSpec((6, 5, 4), (2.0, 2.0, 2.5), (-5.0, -4.0, 20.0))

    def on_grid(cls, data):
        return cls(grid.dims, grid.spacing, grid.origin, data)

    def path(name):
        return os.path.join(root, name)

    source = on_grid(Image3D, rng.random(grid.dims))
    mask = np.zeros(grid.dims)
    mask[1:5, 1:4, 1:3] = 1.0
    dvfs = [on_grid(DisplacementField, 0.2 * rng.standard_normal(grid.dims + (3,)))
            for _ in range(3)]
    geom = build_sdct_geometry(2, 20.0, 300.0, detector_dims=(8, 8),
                               detector_spacing=(2.0, 2.0))
    tio.write_image3d(path("source.json"), source)
    tio.write_image3d(path("target.json"), on_grid(Image3D, rng.random(grid.dims)))
    tio.write_mask3d(path("mask.json"), on_grid(Mask3D, mask))
    tio.write_dvf(path("dvf.json"), dvfs[0])
    tio.write_geometry(path("geometry.json"), geom)
    tio.write_projections(path("projections.json"),
                          DrrOperator(grid, geom).render_all(source))
    tio.write_subspace(path("subspace.json"), build_subspace(dvfs, 1.0))
    tio.write_landmarks(path("landmarks.csv"),
                        Landmarks([0, 1, 2], [[0.0, 0.0, 24.0], [2.0, -1.0, 25.0],
                                              [-2.0, 1.0, 23.0]]))
    spec = PhantomSpec(dims=(16, 16, 16), spacing=(2.2, 2.2, 2.2), seed=1, n_vessels=1,
                       deformation=DeformationSpec(),
                       geometry=AcquisitionSpec(2, 20.0, 700.0, (0.0, 0.0), (20, 20),
                                                (2.2, 2.2), 1.1))
    with open(path("spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh)
    tio.write_alpha(path("alpha.json"), [0.5, -1.0, 2.0])


with tempfile.TemporaryDirectory() as _tmp:
    _write_scene(_tmp)
    SCENE = {}
    for _name in os.listdir(_tmp):
        with open(os.path.join(_tmp, _name), "rb") as _fh:
            SCENE[_name] = _fh.read()


def _paths(doc, prefix=()):
    """Every place in a JSON document that holds a value, the root excepted."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def fields(name):
    return st.sampled_from(sorted(_paths(json.loads(SCENE[name])), key=str))


def _edited(doc, path, value):
    """``doc`` with the entry at ``path`` replaced; also the entry it held."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    held, node[path[-1]] = node[path[-1]], value
    return doc, held


def run(name, text, argv, out):
    """Run ``argv`` (``@`` standing for the scene directory) on the scene with
    file ``name`` replaced by ``text``, check how it ends, and return the
    exit code and the error line, if any."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for fn, payload in SCENE.items():
            with open(os.path.join(tmp, fn), "wb") as fh:
                fh.write(payload)
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main([a.replace("@", tmp + os.sep) for a in argv])
        wrote = os.path.exists(os.path.join(tmp, out))
    lines = err.getvalue().splitlines()
    assert [str(w.message) for w in caught] == []
    if rc == 0:
        assert lines == []
        return rc, None
    assert rc in (2, 3)
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not wrote
    return rc, lines[0]


def check(name, path, value, argv, out):
    """``run`` on the scene with the JSON file ``name`` edited at ``path``."""
    doc, held = _edited(json.loads(SCENE[name]), path, value)
    rc, _ = run(name, json.dumps(doc), argv, out)
    if isinstance(value, (bool, str)) and not isinstance(held, str):
        assert rc == 2, (path, value)


DRR = ["drr", "render", "--volume", "@source.json", "--geometry", "@geometry.json",
       "--out", "@out.json"]
EVALUATE = ["evaluate", "--dvf", "@dvf.json", "--lm-src", "@landmarks.csv",
            "--lm-tgt", "@landmarks.csv", "--mask-src", "@mask.json",
            "--mask-tgt", "@mask.json", "--out", "@out.json"]


@EXAMPLES
@given(fields("source.json"), st.sampled_from(VALUES))
def test_volume_reader(path, value):
    check("source.json", path, value, DRR, "out.json")


@EXAMPLES
@given(fields("mask.json"), st.sampled_from(VALUES))
def test_mask_reader(path, value):
    check("mask.json", path, value, EVALUATE, "out.json")


@EXAMPLES
@given(fields("dvf.json"), st.sampled_from(VALUES))
def test_dvf_reader(path, value):
    check("dvf.json", path, value, EVALUATE, "out.json")


@EXAMPLES
@given(fields("projections.json"), st.sampled_from(VALUES))
def test_projections_reader(path, value):
    check("projections.json", path, value,
          ["lift3d", "export", "--projections", "@projections.json",
           "--geometry", "@geometry.json", "--grid-like", "@source.json",
           "--out", "@out.json"], "out.json")


@EXAMPLES
@given(fields("subspace.json"), st.sampled_from(VALUES))
def test_subspace_reader(path, value):
    check("subspace.json", path, value,
          ["register", "subspace3d", "--source", "@source.json",
           "--target", "@target.json", "--source-mask", "@mask.json",
           "--target-mask", "@mask.json", "--subspace", "@subspace.json",
           "--iters", "1", "--out-dvf", "@out.json"], "out.json")


@EXAMPLES
@given(fields("geometry.json"), st.sampled_from(VALUES))
@example(("detector_origin", 0), True)
@example(("detector_origin", 1), "0")
@example(("emitter_positions", 1, 2), True)
@example(("detector_dims", 0), 1e300)
def test_geometry_reader(path, value):
    check("geometry.json", path, value, DRR, "out.json")


@EXAMPLES
@given(fields("spec.json"), st.sampled_from(VALUES))
@example(("geometry", "source_detector_distance_mm"), math.inf)
@example(("deformation", "n_modes"), "4")
def test_phantom_spec_reader(path, value):
    check("spec.json", path, value,
          ["phantom", "gen", "--spec", "@spec.json", "--n", "0", "--out", "@out"], "out")


PHANTOM_GEN = ["phantom", "gen", "--spec", "@spec.json", "--n", "0", "--out", "@out"]


@pytest.mark.parametrize("name, path, value, argv, field", [
    ("geometry.json", ("detector_dims", 0), 1e20, DRR, "detector_dims"),
    ("geometry.json", ("detector_dims", 1), 10 ** 20, DRR, "detector_dims"),
    ("geometry.json", ("n_emitters",), 1e20, DRR, "n_emitters"),
    ("spec.json", ("geometry", "detector_dims"), [1e20, 8], PHANTOM_GEN, "detector_dims"),
    ("spec.json", ("geometry", "n_emitters"), 1e20, PHANTOM_GEN, "n_emitters"),
    ("spec.json", ("dims", 2), 2 ** 16 + 1, PHANTOM_GEN, "dims"),
    ("source.json", ("dims", 0), 1e20, DRR, "dims"),
], ids=["geometry-detector-u", "geometry-detector-v", "geometry-emitters",
        "spec-detector", "spec-emitters", "spec-dims", "volume-dims"])
def test_a_huge_count_exits_2_naming_its_field(name, path, value, argv, field):
    """A finite count too large for any array is refused by the reader, with
    the field's name, before numpy is asked for the array."""
    doc, _ = _edited(json.loads(SCENE[name]), path, value)
    rc, error = run(name, json.dumps(doc), argv, "out")
    assert rc == 2 and error.startswith(f"error: {field} must lie in [1, 65536], got"), error


# what a landmark CSV field may hold: each of VALUES as JSON text, and
# texts that int() or float() reject or read out of range
CSV_TEXTS = [json.dumps(v) for v in VALUES] + [
    "", "x", "1.7", "0x10", "1e400", "nan", "-inf", " 7 ", "99999999999999999999",
    str(2 ** 63), str(-2 ** 63)]


def _int64_text(text):
    try:
        return -2 ** 63 <= int(text) < 2 ** 63
    except ValueError:
        return False


def _finite_text(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


@EXAMPLES
@given(st.integers(2, 4), st.integers(0, 3), st.sampled_from(CSV_TEXTS))
@example(2, 0, "99999999999999999999")
@example(3, 0, "1.7")
@example(4, 1, "0x10")
def test_landmark_reader(line, column, text):
    """Line ``line`` of the CSV gets ``text`` in field ``column``; an id
    that is not a whole number within int64, or a coordinate that is not a
    finite number, exits 2 with an error naming the line and the field."""
    rows = SCENE["landmarks.csv"].decode("utf-8").splitlines()
    entries = rows[line - 1].split(",")
    entries[column] = text
    rows[line - 1] = ",".join(entries)
    rc, error = run("landmarks.csv", "\n".join(rows) + "\n", EVALUATE, "out.json")
    field = ("id", "x", "y", "z")[column]
    if not (_int64_text(text) if column == 0 else _finite_text(text)):
        assert rc == 2 and error.startswith(f"error: landmark line {line} {field} must"), error


@EXAMPLES
@given(fields("alpha.json"), st.sampled_from(VALUES))
def test_alpha_reader(path, value):
    doc, _ = _edited(json.loads(SCENE["alpha.json"]), path, value)
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "alpha.json")
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(value, (bool, str, type(None), list, dict)):
                with pytest.raises(ValueError, match="coefficient"):
                    tio.read_alpha(p)
            else:
                try:
                    alpha = tio.read_alpha(p)
                except ValueError as exc:
                    assert "coefficient must be finite" in str(exc)
                else:
                    assert alpha.dtype == np.float64 and np.all(np.isfinite(alpha))
