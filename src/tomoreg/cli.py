"""Command-line pipelines over the registration library.

Subcommands cover dataset generation, projection rendering, backprojection
export, subspace construction, registration and metric evaluation.  All
randomness enters through explicit --seed flags, every output is a
bit-exact container or sorted-key JSON, and no command mutates its inputs.

Exit codes: 0 success, 2 invalid input or validation failure, or an input
too large for memory (for example a ray step so small that the DRR matrix
cannot be allocated), 3 numerical failure during optimization.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Sequence

from . import io as tio
from .geometry import DrrOperator, lift3d
from .grids import _whole
from .losses import LossConfig, NumericalAbort
from .phantom import (PhantomSpec, geometry_for, grid_for, make_pair,
                      split_seed, step_for)
from .registration import (OptimConfig, register_dense_3d, register_subspace_2d,
                           register_subspace_3d)
from .metrics import evaluate_registration
from .subspace import build_subspace

SAMPLE_FILES = {
    "source": "source.json",
    "target": "target.json",
    "source_mask": "source_mask.json",
    "target_mask": "target_mask.json",
    "dvf_true": "dvf_true.json",
    "projections": "projections.json",
    "geometry": "geometry.json",
    "landmarks_source": "landmarks_source.csv",
    "landmarks_target": "landmarks_target.csv",
}


def generate_dataset(spec: PhantomSpec, master_seed: int, n: int, out_dir: str) -> dict:
    """Write n independent samples plus a manifest; returns the manifest."""
    master_seed, n = _whole(master_seed, "master_seed"), _whole(n, "n", ">= 0")
    # built only when a pair renders through it, so an empty dataset pays
    # no build; the spec has read its geometry fields with their bounds
    drr_op = DrrOperator(grid_for(spec), geometry_for(spec), step_for(spec)) if n else None
    os.makedirs(out_dir, exist_ok=True)
    members = []
    for i in range(n):
        seed = split_seed(master_seed, i)
        pair = make_pair(spec, seed, drr_op=drr_op)
        name = f"sample_{i:03d}"
        sdir = os.path.join(out_dir, name)
        os.makedirs(sdir, exist_ok=True)
        tio.write_image3d(os.path.join(sdir, SAMPLE_FILES["source"]), pair.source)
        tio.write_image3d(os.path.join(sdir, SAMPLE_FILES["target"]), pair.target)
        tio.write_mask3d(os.path.join(sdir, SAMPLE_FILES["source_mask"]), pair.source_mask)
        tio.write_mask3d(os.path.join(sdir, SAMPLE_FILES["target_mask"]), pair.target_mask)
        tio.write_dvf(os.path.join(sdir, SAMPLE_FILES["dvf_true"]), pair.u_true)
        tio.write_projections(os.path.join(sdir, SAMPLE_FILES["projections"]), pair.projections)
        tio.write_geometry(os.path.join(sdir, SAMPLE_FILES["geometry"]), pair.geometry)
        tio.write_landmarks(os.path.join(sdir, SAMPLE_FILES["landmarks_source"]), pair.lm_src)
        tio.write_landmarks(os.path.join(sdir, SAMPLE_FILES["landmarks_target"]), pair.lm_tgt)
        members.append({"name": name, "seed": seed,
                        "files": {k: f"{name}/{v}" for k, v in SAMPLE_FILES.items()}})
    manifest = {"spec": spec.to_dict(), "master_seed": master_seed,
                "n_samples": n, "members": members}
    tio.write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _cmd_phantom_gen(args) -> int:
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = PhantomSpec.from_dict(json.load(fh))
    else:
        spec = PhantomSpec()
    master = spec.seed if args.seed is None else args.seed
    generate_dataset(spec, master, args.n, args.out)
    return 0


def _cmd_drr_render(args) -> int:
    vol = tio.read_image3d(args.volume)
    geom = tio.read_geometry(args.geometry)
    op = DrrOperator(vol.grid, geom, args.step_mm)
    projs = op.render_all(vol)
    tio.write_projections(args.out, projs)
    return 0


def _cmd_lift3d_export(args) -> int:
    geom = tio.read_geometry(args.geometry)
    projs = tio.read_projections(args.projections, geom)
    grid = tio.read_grid(args.grid_like)
    lifted = lift3d(projs, grid)
    tio.write_volume_stack(args.out, grid, lifted.data,
                           extra={"n_undefined": lifted.n_undefined})
    return 0


class _Dvfs(Sequence):
    """Displacement containers read one per index, so that iterating holds
    one field at a time."""

    def __init__(self, paths: list):
        self._paths = paths

    def __len__(self) -> int:
        return len(self._paths)

    def __getitem__(self, i):
        return tio.read_dvf(self._paths[i])


def _cmd_subspace_build(args) -> int:
    names = sorted(fn for fn in os.listdir(args.dvf_dir) if fn.endswith(".json"))
    if not names:
        raise ValueError(f"no displacement containers (*.json) found in {args.dvf_dir!r}")
    fields = _Dvfs([os.path.join(args.dvf_dir, fn) for fn in names])
    sub = build_subspace(fields, args.variance)
    tio.write_subspace(args.out, sub)
    return 0


def _write_reg_outputs(args, u, report, alpha=None) -> None:
    if args.out_dvf:
        tio.write_dvf(args.out_dvf, u)
    if alpha is not None and getattr(args, "out_alpha", None):
        tio.write_alpha(args.out_alpha, alpha)
    if args.report:
        tio.write_report(args.report, dataclasses.asdict(report))


def _cmd_register_subspace3d(args) -> int:
    source = tio.read_image3d(args.source)
    target = tio.read_image3d(args.target)
    smask = tio.read_mask3d(args.source_mask)
    tmask = tio.read_mask3d(args.target_mask)
    sub = tio.read_subspace(args.subspace)
    alpha, u, report = register_subspace_3d(source, target, smask, tmask, sub,
                                            LossConfig(args.lam, "sim3d"),
                                            OptimConfig(args.iters))
    _write_reg_outputs(args, u, report, alpha)
    return 0


def _cmd_register_subspace2d(args) -> int:
    source = tio.read_image3d(args.source)
    smask = tio.read_mask3d(args.source_mask)
    geom = tio.read_geometry(args.geometry)
    projs = tio.read_projections(args.projections, geom)
    sub = tio.read_subspace(args.subspace)
    alpha, u, report = register_subspace_2d(source, projs, smask, sub,
                                            LossConfig(args.lam, "sim2d"),
                                            OptimConfig(args.iters),
                                            DrrOperator(source.grid, geom, args.step_mm))
    _write_reg_outputs(args, u, report, alpha)
    return 0


def _cmd_register_dense(args) -> int:
    source = tio.read_image3d(args.source)
    target = tio.read_image3d(args.target)
    smask = tio.read_mask3d(args.source_mask)
    tmask = tio.read_mask3d(args.target_mask)
    u, report = register_dense_3d(source, target, smask, tmask,
                                  LossConfig(args.lam, "sim3d"), OptimConfig(args.iters))
    _write_reg_outputs(args, u, report)
    return 0


def _cmd_evaluate(args) -> int:
    u = tio.read_dvf(args.dvf)
    lm_src = tio.read_landmarks(args.lm_src)
    lm_tgt = tio.read_landmarks(args.lm_tgt)
    smask = tio.read_mask3d(args.mask_src)
    tmask = tio.read_mask3d(args.mask_tgt)
    report = evaluate_registration(u, lm_src, lm_tgt, smask, tmask)
    tio.write_report(args.out, report.to_dict())
    return 0


def _add_register_common(p, with_alpha: bool) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=LossConfig.lam,
                   help="regularization weight")
    p.add_argument("--iters", type=int, default=OptimConfig.max_iters,
                   help="max iterations")
    p.add_argument("--out-dvf", help="output displacement container")
    if with_alpha:
        p.add_argument("--out-alpha", help="output coefficient JSON")
    p.add_argument("--report", help="output registration report JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomoreg",
        description="Limited-angle 2D/3D deformable registration pipelines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ph = sub.add_parser("phantom", help="synthetic dataset commands")
    ph_sub = p_ph.add_subparsers(dest="subcommand", required=True)
    p_gen = ph_sub.add_parser("gen", help="generate a phantom dataset")
    p_gen.add_argument("--spec", help="phantom spec JSON file")
    p_gen.add_argument("--seed", type=int,
                       help="master seed for sample draws (default: spec seed)")
    p_gen.add_argument("--n", type=int, default=1, help="number of samples")
    p_gen.add_argument("--out", required=True, help="output dataset directory")
    p_gen.set_defaults(func=_cmd_phantom_gen)

    p_drr = sub.add_parser("drr", help="projection rendering commands")
    drr_sub = p_drr.add_subparsers(dest="subcommand", required=True)
    p_render = drr_sub.add_parser("render", help="render all emitter projections")
    p_render.add_argument("--volume", required=True, help="volume container")
    p_render.add_argument("--geometry", required=True, help="geometry JSON")
    p_render.add_argument("--step-mm", type=float, help="ray sampling step")
    p_render.add_argument("--out", required=True, help="output projection container")
    p_render.set_defaults(func=_cmd_drr_render)

    p_lift = sub.add_parser("lift3d", help="backprojection commands")
    lift_sub = p_lift.add_subparsers(dest="subcommand", required=True)
    p_exp = lift_sub.add_parser("export", help="export per-emitter backprojections")
    p_exp.add_argument("--projections", required=True, help="projection container")
    p_exp.add_argument("--geometry", required=True, help="geometry JSON")
    p_exp.add_argument("--grid-like", required=True,
                       help="any 3D container whose grid the output should use")
    p_exp.add_argument("--out", required=True, help="output multi-channel volume")
    p_exp.set_defaults(func=_cmd_lift3d_export)

    p_ss = sub.add_parser("subspace", help="deformation subspace commands")
    ss_sub = p_ss.add_subparsers(dest="subcommand", required=True)
    p_build = ss_sub.add_parser("build", help="PCA subspace from a DVF directory")
    p_build.add_argument("--dvf-dir", required=True, help="directory of DVF containers")
    p_build.add_argument("--variance", type=float, default=0.99,
                         help="cumulative variance fraction to keep")
    p_build.add_argument("--out", required=True, help="output subspace container")
    p_build.set_defaults(func=_cmd_subspace_build)

    p_reg = sub.add_parser("register", help="registration drivers")
    reg_sub = p_reg.add_subparsers(dest="subcommand", required=True)

    p_s3 = reg_sub.add_parser("subspace3d", help="volume loss, subspace coefficients")
    for flag in ("--source", "--target", "--source-mask", "--target-mask", "--subspace"):
        p_s3.add_argument(flag, required=True)
    _add_register_common(p_s3, with_alpha=True)
    p_s3.set_defaults(func=_cmd_register_subspace3d)

    p_s2 = reg_sub.add_parser("subspace2d",
                              help="projection loss, subspace coefficients")
    for flag in ("--source", "--source-mask", "--projections", "--geometry",
                 "--subspace"):
        p_s2.add_argument(flag, required=True)
    p_s2.add_argument("--step-mm", type=float, help="ray sampling step")
    _add_register_common(p_s2, with_alpha=True)
    p_s2.set_defaults(func=_cmd_register_subspace2d)

    p_dn = reg_sub.add_parser("dense", help="volume loss, free-form field")
    for flag in ("--source", "--target", "--source-mask", "--target-mask"):
        p_dn.add_argument(flag, required=True)
    _add_register_common(p_dn, with_alpha=False)
    p_dn.set_defaults(func=_cmd_register_dense)

    p_ev = sub.add_parser("evaluate", help="registration quality metrics")
    p_ev.add_argument("--dvf", required=True, help="displacement container")
    p_ev.add_argument("--lm-src", required=True, help="source landmark CSV")
    p_ev.add_argument("--lm-tgt", required=True, help="target landmark CSV")
    p_ev.add_argument("--mask-src", required=True, help="source mask container")
    p_ev.add_argument("--mask-tgt", required=True, help="target mask container")
    p_ev.add_argument("--out", required=True, help="output metrics JSON")
    p_ev.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except NumericalAbort as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        print(f"error: {detail}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
