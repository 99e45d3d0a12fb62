"""Bit-exact file formats: raw+JSON containers, geometry, landmarks, reports.

A container is a JSON header ``name.json`` next to a payload ``name.raw``
of little-endian 32-bit floats.  The payload layout is x-fastest
interleaved: the channel index varies fastest, then x, then y, then z
(flat index c + C*(x + W*(y + H*z))).  Every kind (volume, mask, dvf,
image2d, subspace) is written through one header builder, ``_header``:
kind, dims, spacing, origin, channels, dtype and layout, plus the kind's
extras.  Projection stacks have 2-D dims and origin [0, 0], and the
payload packer takes the axes past the header's dims as the channels.
Readers validate the kind, the dims and the payload byte length before
touching the data, and every writer/reader pair round-trips bitwise.

JSON files are UTF-8 with sorted keys and a trailing newline so reruns
with identical content produce identical bytes.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

from .geometry import _MATCH_TOL, ProjectionSet, SdctGeometry
from .grids import (DisplacementField, GridSpec, Image3D, Landmarks, Mask3D,
                    _dims, _entries, _real, _whole)
from .subspace import DeformationSubspace

_GRID_KINDS = {Image3D: "volume", Mask3D: "mask", DisplacementField: "dvf"}
_KINDS = (*_GRID_KINDS.values(), "image2d", "subspace")
_DTYPE = "f32le"
_LAYOUT = "x-fastest interleaved"


def _dump_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_object(path: str) -> dict:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path!r} must hold a JSON object, got {type(obj).__name__}")
    return obj


def _raw_path(header_path: str) -> str:
    base, ext = os.path.splitext(header_path)
    if ext != ".json":
        raise ValueError(f"container header path must end in .json, got {header_path!r}")
    return base + ".raw"


def _require(cond: bool, field: str, detail: str):
    if not cond:
        raise ValueError(f"container field '{field}' invalid: {detail}")


# ---------------------------------------------------------------------------
# raw+JSON containers
# ---------------------------------------------------------------------------

def _header(kind: str, dims, spacing, origin, channels: int, **extra) -> dict:
    """The header of every container: grid, channel count, dtype, layout, extras."""
    return {
        "kind": kind,
        "dims": list(dims),
        "spacing": list(spacing),
        "origin": list(origin),
        "channels": channels,
        "dtype": _DTYPE,
        "layout": _LAYOUT,
        **extra,
    }


def _pack(data: np.ndarray, header: dict) -> bytes:
    """Interleave grid data channel-fastest, then x fastest of the header's axes.

    Axes of ``data`` past the header's dims are channels; with none, there
    is one channel.
    """
    n = len(header["dims"])
    arr = np.asarray(data, dtype="<f4")
    arr = arr.reshape(arr.shape[:n] + (-1,))
    return np.ascontiguousarray(arr.transpose(tuple(range(n - 1, -1, -1)) + (n,))).tobytes()


def _unpack(payload: bytes, dims, channels: int) -> np.ndarray:
    arr = np.frombuffer(payload, dtype="<f4").reshape(tuple(reversed(dims)) + (channels,))
    n = len(dims)
    return np.array(arr.transpose(tuple(range(n - 1, -1, -1)) + (n,)),
                    dtype=np.float32, order="C")


def _write_payload(header_path: str, header: dict, data: np.ndarray) -> None:
    payload = _pack(data, header)
    expect = 4 * header["channels"] * int(np.prod(header["dims"]))
    if len(payload) != expect:
        raise ValueError("payload byte length does not match header dims")
    _dump_json(header_path, header)
    with open(_raw_path(header_path), "wb") as fh:
        fh.write(payload)


def _read_payload(header_path: str, expect_kind: str):
    header = _load_object(header_path)
    kind = header.get("kind")
    _require(kind in _KINDS, "kind", f"unknown kind {kind!r}")
    _require(kind == expect_kind, "kind", f"got '{kind}', expected '{expect_kind}'")
    _require(header.get("dtype") == _DTYPE, "dtype", f"got {header.get('dtype')!r}")
    _require(header.get("layout") == _LAYOUT, "layout", f"got {header.get('layout')!r}")
    n, unit = (2, "pixels") if kind == "image2d" else (3, "voxels")
    dims = _dims(header["dims"], n, "dims", unit)
    channels = _whole(header["channels"], "channels", "count")
    with open(_raw_path(header_path), "rb") as fh:
        payload = fh.read()
    expect = 4 * channels * math.prod(dims)
    _require(len(payload) == expect, "payload",
             f"byte length {len(payload)}, header implies {expect}")
    header.update(dims=dims, channels=channels)
    return header, _unpack(payload, dims, channels)


def _write_grid(path: str, cls, obj) -> None:
    channels = obj.data.shape[3] if cls.ndim == 4 else 1
    _write_payload(path, _header(_GRID_KINDS[cls], obj.dims, obj.spacing, obj.origin,
                                 channels), obj.data)


def _read_grid(path: str, cls):
    kind = _GRID_KINDS[cls]
    h, data = _read_payload(path, kind)
    if cls.ndim == 3:
        # a multi-channel volume is a stack, such as lift3d export writes
        _require(h["channels"] == 1, "channels",
                 f"a {kind} has 1 channel, got {h['channels']}")
        data = data[..., 0]
    return cls(h["dims"], h["spacing"], h["origin"], data)


def write_image3d(path: str, img: Image3D) -> None:
    _write_grid(path, Image3D, img)


def read_image3d(path: str) -> Image3D:
    return _read_grid(path, Image3D)


def write_mask3d(path: str, mask: Mask3D) -> None:
    _write_grid(path, Mask3D, mask)


def read_mask3d(path: str) -> Mask3D:
    return _read_grid(path, Mask3D)


def write_dvf(path: str, u: DisplacementField) -> None:
    _write_grid(path, DisplacementField, u)


def read_dvf(path: str) -> DisplacementField:
    return _read_grid(path, DisplacementField)


def read_grid(path: str):
    """Grid described by any 3D container header, without the payload."""
    h = _load_object(path)
    return GridSpec(h["dims"], h["spacing"], h["origin"])


def write_volume_stack(path: str, grid, data: np.ndarray,
                       extra: dict | None = None) -> None:
    """Multi-channel scalar volume container (kind 'volume') of a
    (W, H, D, C) stack."""
    _write_payload(path, _header("volume", grid.dims, grid.spacing, grid.origin,
                                 data.shape[3], **(extra or {})), data)


def write_projections(path: str, projs: ProjectionSet) -> None:
    """All emitter images in one container, one channel per emitter."""
    geom = projs.geometry
    _write_payload(path, _header("image2d", geom.detector_dims, geom.detector_spacing,
                                 (0.0, 0.0), geom.n_emitters), projs.data)


def read_projections(path: str, geometry: SdctGeometry) -> ProjectionSet:
    """The stack in ``path``, whose dims, pixel pitch and channel count must
    be the detector's and the emitter count of ``geometry``."""
    h, data = _read_payload(path, "image2d")
    dims = h["dims"]
    spacing = _entries(h["spacing"], 2, _real, "spacing")
    _entries(h["origin"], 2, _real, "origin")  # unused, but read as in any header
    _require(h["channels"] == geometry.n_emitters, "channels",
             f"{h['channels']} images for {geometry.n_emitters} emitters")
    _require(dims == geometry.detector_dims, "dims",
             f"image dims {dims} vs geometry detector_dims {geometry.detector_dims}")
    _require(np.all(np.abs(np.subtract(spacing, geometry.detector_spacing)) <= _MATCH_TOL),
             "spacing", f"projection spacing {spacing} does not match "
                        f"detector_spacing {geometry.detector_spacing}")
    return ProjectionSet(geometry, data)


def write_subspace(path: str, sub: DeformationSubspace) -> None:
    """Mean field then each basis field, stacked along the channel axis."""
    fields = np.concatenate([sub.mean.reshape(1, -1), sub.basis])
    stack = fields.reshape(sub.n_components + 1, -1, 3).transpose(1, 0, 2)
    _write_payload(path, _header("subspace", sub.dims, sub.spacing, sub.origin,
                                 3 * (sub.n_components + 1),
                                 n_components=sub.n_components,
                                 variance_fraction=sub.variance_fraction,
                                 singular_values=[float(s) for s in sub.singular_values]),
                   stack.reshape(sub.dims + (-1,)))


def read_subspace(path: str) -> DeformationSubspace:
    h, data = _read_payload(path, "subspace")
    dims = h["dims"]
    n_comp = _whole(h["n_components"], "n_components", ">= 0")
    _require(h["channels"] == 3 * (n_comp + 1), "channels",
             f"{h['channels']} channels for n_components {n_comp}")
    # (field, voxel, component); the subspace copies both slices to float64
    fields = data.reshape(-1, n_comp + 1, 3).transpose(1, 0, 2)
    return DeformationSubspace(
        dims=dims, spacing=h["spacing"], origin=h["origin"],
        mean=fields[0].reshape(dims + (3,)),
        basis=fields[1:].reshape(n_comp, 3 * fields.shape[1]),
        singular_values=h["singular_values"],
        variance_fraction=h["variance_fraction"],
    )


# ---------------------------------------------------------------------------
# geometry JSON
# ---------------------------------------------------------------------------

def write_geometry(path: str, geom: SdctGeometry) -> None:
    _dump_json(path, {
        "n_emitters": geom.n_emitters,
        "emitter_positions": geom.emitter_positions.tolist(),
        "detector_origin": geom.detector_origin.tolist(),
        "detector_axes": geom.detector_axes.tolist(),
        "detector_dims": list(geom.detector_dims),
        "detector_spacing": list(geom.detector_spacing),
    })


def read_geometry(path: str) -> SdctGeometry:
    d = _load_object(path)
    return SdctGeometry(d["n_emitters"], d["emitter_positions"], d["detector_origin"],
                        d["detector_axes"], d["detector_dims"], d["detector_spacing"])


# ---------------------------------------------------------------------------
# landmarks CSV
# ---------------------------------------------------------------------------

def write_landmarks(path: str, lm: Landmarks) -> None:
    lines = ["id,x,y,z"]
    for i in range(len(lm)):
        x, y, z = (float(v) for v in lm.points[i])
        lines.append(f"{int(lm.ids[i])},{x!r},{y!r},{z!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_number(text: str, name: str, whole: bool):
    """A landmark CSV field: an id (``whole``) as an int within int64, or a
    coordinate as a finite float read by ``_real``.  Every error names the
    field."""
    kind = "whole number" if whole else "real number"
    try:
        value = int(text) if whole else float(text)
    except ValueError:
        raise ValueError(f"{name} must be a {kind}, got {text!r}") from None
    if not whole:
        return _real(value, name)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{name} must fit in a 64-bit integer, got {text}")
    return value


def read_landmarks(path: str) -> Landmarks:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or lines[0][1] != "id,x,y,z":
        raise ValueError(f"landmark file {path!r} must start with header 'id,x,y,z'")
    ids, pts = [], []
    for n, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"landmark line {n} ({ln!r}) must have 4 comma-separated fields")
        ids.append(_csv_number(parts[0], f"landmark line {n} id", True))
        pts.append([_csv_number(v, f"landmark line {n} {axis}", False)
                    for axis, v in zip("xyz", parts[1:])])
    return Landmarks(ids, pts)


# ---------------------------------------------------------------------------
# coefficient / report / manifest JSON
# ---------------------------------------------------------------------------

def write_alpha(path: str, alpha) -> None:
    _dump_json(path, [float(a) for a in np.asarray(alpha).reshape(-1)])


def read_alpha(path: str) -> np.ndarray:
    vals = _load_json(path)
    if not isinstance(vals, list):
        raise ValueError("coefficient file must hold a JSON array of floats")
    return np.asarray([_real(v, "coefficient") for v in vals], dtype=np.float64)


def write_report(path: str, report_dict: dict) -> None:
    _dump_json(path, report_dict)


def write_manifest(path: str, manifest: dict) -> None:
    _dump_json(path, manifest)


def read_manifest(path: str) -> dict:
    return _load_json(path)
