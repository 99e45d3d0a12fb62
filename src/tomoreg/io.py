"""Bit-exact file formats: raw+JSON containers, geometry, landmarks, reports.

A container is a JSON header ``name.json`` next to a payload ``name.raw``
of little-endian 32-bit floats.  The payload layout is x-fastest
interleaved: the channel index varies fastest, then x, then y, then z
(flat index c + C*(x + W*(y + H*z))).  Headers carry kind, dims, spacing,
origin and channel count plus kind-specific extras; readers validate the
kind, the dims and the payload byte length before touching the data, and
every writer/reader pair round-trips bitwise.

JSON files are UTF-8 with sorted keys and a trailing newline so reruns
with identical content produce identical bytes.
"""
from __future__ import annotations

import json
import os

import numpy as np

from .geometry import Image2D, ProjectionSet, SdctGeometry
from .grids import DisplacementField, Image3D, Landmarks, Mask3D
from .subspace import DeformationSubspace

_KINDS = ("volume", "mask", "dvf", "image2d", "subspace")
_DTYPE = "f32le"
_LAYOUT = "x-fastest interleaved"


def _dump_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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

def _pack(data: np.ndarray, has_channels: bool) -> bytes:
    """Interleave grid data channel-fastest, then x fastest of the axes."""
    arr = np.asarray(data, dtype="<f4")
    if not has_channels:
        arr = arr[..., None]
    axes = tuple(range(arr.ndim - 2, -1, -1)) + (arr.ndim - 1,)
    return np.ascontiguousarray(arr.transpose(axes)).tobytes()


def _unpack(payload: bytes, dims, channels: int) -> np.ndarray:
    arr = np.frombuffer(payload, dtype="<f4")
    rev = tuple(reversed(dims)) + (channels,)
    arr = arr.reshape(rev)
    axes = tuple(range(len(dims) - 1, -1, -1)) + (len(dims),)
    out = arr.transpose(axes)
    return np.ascontiguousarray(out.astype(np.float32))


def _write_payload(header_path: str, header: dict, data: np.ndarray,
                   has_channels: bool = True) -> None:
    payload = _pack(data, has_channels)
    expect = 4 * header["channels"] * int(np.prod(header["dims"]))
    if len(payload) != expect:
        raise ValueError("payload byte length does not match header dims")
    _dump_json(header_path, header)
    with open(_raw_path(header_path), "wb") as fh:
        fh.write(payload)


def _read_payload(header_path: str, expect_kind: str):
    header = _load_json(header_path)
    kind = header.get("kind")
    _require(kind in _KINDS, "kind", f"unknown kind {kind!r}")
    _require(kind == expect_kind, "kind", f"got '{kind}', expected '{expect_kind}'")
    _require(header.get("dtype") == _DTYPE, "dtype", f"got {header.get('dtype')!r}")
    _require(header.get("layout") == _LAYOUT, "layout", f"got {header.get('layout')!r}")
    dims = tuple(int(d) for d in header["dims"])
    channels = int(header["channels"])
    _require(channels >= 1, "channels", "must be >= 1")
    with open(_raw_path(header_path), "rb") as fh:
        payload = fh.read()
    expect = 4 * channels * int(np.prod(dims))
    _require(len(payload) == expect, "payload",
             f"byte length {len(payload)}, header implies {expect}")
    return header, _unpack(payload, dims, channels)


def _grid_header(kind: str, obj, channels: int, extra: dict | None = None) -> dict:
    header = {
        "kind": kind,
        "dims": list(obj.dims),
        "spacing": list(obj.spacing),
        "origin": list(obj.origin),
        "channels": channels,
        "dtype": _DTYPE,
        "layout": _LAYOUT,
    }
    if extra:
        header.update(extra)
    return header


def write_image3d(path: str, img: Image3D) -> None:
    _write_payload(path, _grid_header("volume", img, 1), img.data, has_channels=False)


def read_image3d(path: str) -> Image3D:
    h, data = _read_payload(path, "volume")
    return Image3D(tuple(h["dims"]), tuple(h["spacing"]), tuple(h["origin"]), data[..., 0])


def write_mask3d(path: str, mask: Mask3D) -> None:
    _write_payload(path, _grid_header("mask", mask, 1), mask.data, has_channels=False)


def read_mask3d(path: str) -> Mask3D:
    h, data = _read_payload(path, "mask")
    return Mask3D(tuple(h["dims"]), tuple(h["spacing"]), tuple(h["origin"]), data[..., 0])


def read_grid(path: str):
    """Grid described by any 3D container header, without the payload."""
    from .grids import GridSpec
    h = _load_json(path)
    _require("dims" in h and len(h["dims"]) == 3, "dims", "3D container required")
    return GridSpec(tuple(h["dims"]), tuple(h["spacing"]), tuple(h["origin"]))


def write_volume_stack(path: str, grid, arrays: list, extra: dict | None = None) -> None:
    """Multi-channel scalar volume container (kind 'volume')."""
    _write_payload(path, _grid_header("volume", grid, len(arrays), extra),
                   np.stack(arrays, axis=-1))


def write_dvf(path: str, u: DisplacementField) -> None:
    _write_payload(path, _grid_header("dvf", u, 3), u.data)


def read_dvf(path: str) -> DisplacementField:
    h, data = _read_payload(path, "dvf")
    return DisplacementField(tuple(h["dims"]), tuple(h["spacing"]), tuple(h["origin"]), data)


def write_projections(path: str, projs: ProjectionSet) -> None:
    """All emitter images in one container, one channel per emitter."""
    first = projs.images[0]
    stack = np.stack([im.data for im in projs.images], axis=-1)
    header = {
        "kind": "image2d",
        "dims": list(first.dims),
        "spacing": list(first.spacing),
        "origin": [0.0, 0.0],
        "channels": len(projs.images),
        "dtype": _DTYPE,
        "layout": _LAYOUT,
    }
    _write_payload(path, header, stack)


def read_projections(path: str, geometry: SdctGeometry) -> ProjectionSet:
    h, data = _read_payload(path, "image2d")
    dims = tuple(h["dims"])
    spacing = tuple(h["spacing"])
    _require(h["channels"] == geometry.n_emitters, "channels",
             f"{h['channels']} images for {geometry.n_emitters} emitters")
    _require(dims == tuple(geometry.detector_dims), "dims",
             f"image dims {dims} vs geometry detector_dims {tuple(geometry.detector_dims)}")
    images = [Image2D(dims, spacing, data[..., i]) for i in range(h["channels"])]
    return ProjectionSet(geometry=geometry, images=images)


def write_subspace(path: str, sub: DeformationSubspace) -> None:
    """Mean field then each basis field, stacked along the channel axis."""
    fields = [sub.mean] + [sub.basis[i].reshape(sub.dims + (3,))
                           for i in range(sub.n_components)]
    stack = np.concatenate([f[..., None, :] for f in fields], axis=-2)
    stack = stack.reshape(sub.dims + (3 * len(fields),))
    extra = {
        "n_components": sub.n_components,
        "variance_fraction": sub.variance_fraction,
        "singular_values": [float(s) for s in sub.singular_values],
    }
    _write_payload(path, _grid_header("subspace", sub, 3 * len(fields), extra), stack)


def read_subspace(path: str) -> DeformationSubspace:
    h, data = _read_payload(path, "subspace")
    dims = tuple(h["dims"])
    n_comp = int(h["n_components"])
    _require(h["channels"] == 3 * (n_comp + 1), "channels",
             f"{h['channels']} channels for n_components {n_comp}")
    fields = data.reshape(dims + (n_comp + 1, 3)).astype(np.float64)
    return DeformationSubspace(
        dims=dims, spacing=tuple(h["spacing"]), origin=tuple(h["origin"]),
        mean=fields[..., 0, :],
        basis=np.stack([fields[..., 1 + i, :].reshape(-1) for i in range(n_comp)])
        if n_comp else np.zeros((0, int(np.prod(dims)) * 3)),
        singular_values=np.asarray(h["singular_values"], dtype=np.float64),
        variance_fraction=float(h["variance_fraction"]),
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
    d = _load_json(path)
    return SdctGeometry(
        n_emitters=int(d["n_emitters"]),
        emitter_positions=np.asarray(d["emitter_positions"], dtype=np.float64),
        detector_origin=np.asarray(d["detector_origin"], dtype=np.float64),
        detector_axes=np.asarray(d["detector_axes"], dtype=np.float64),
        detector_dims=tuple(int(v) for v in d["detector_dims"]),
        detector_spacing=tuple(float(v) for v in d["detector_spacing"]),
    )


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


def read_landmarks(path: str) -> Landmarks:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "id,x,y,z":
        raise ValueError(f"landmark file {path!r} must start with header 'id,x,y,z'")
    ids, pts = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"landmark row {ln!r} must have 4 comma-separated fields")
        ids.append(int(parts[0]))
        pts.append([float(v) for v in parts[1:]])
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size != np.unique(ids).size:
        raise ValueError(f"landmark file {path!r} contains duplicate ids")
    return Landmarks(ids, np.asarray(pts, dtype=np.float64).reshape(-1, 3))


# ---------------------------------------------------------------------------
# coefficient / report / manifest JSON
# ---------------------------------------------------------------------------

def write_alpha(path: str, alpha) -> None:
    _dump_json(path, [float(a) for a in np.asarray(alpha).reshape(-1)])


def read_alpha(path: str) -> np.ndarray:
    vals = _load_json(path)
    if not isinstance(vals, list):
        raise ValueError("coefficient file must hold a JSON array of floats")
    return np.asarray([float(v) for v in vals], dtype=np.float64)


def write_report(path: str, report_dict: dict) -> None:
    _dump_json(path, report_dict)


def write_manifest(path: str, manifest: dict) -> None:
    _dump_json(path, manifest)


def read_manifest(path: str) -> dict:
    return _load_json(path)
