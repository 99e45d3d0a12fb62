"""Workloads of the tomoreg benchmark: set-up, timed registrations, checks.

Both workloads use a 32-cube version of the default phantom scene: the same
physical extent, deformation family and emitter layout as the 64-cube
default, at half resolution (the scene the test suite calls SPEC32).  At 64
cubed one registration takes 10-30 s, so a run of under a minute would hold
one or two pairs and the pair-to-pair spread in iteration count (about 2x)
would swamp every timing; at 32 cubed a run registers 25 to 30 pairs.

One client registers pairs one after another (a closed loop).  Every
registration is checked; a failed one still counts in the timings.
"""
from __future__ import annotations

import os
import resource
import statistics
import tempfile
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

import tomoreg
from tomoreg import (DeformationSpec, DrrOperator, Image3D, LossConfig,
                     OptimConfig, PhantomSpec, build_subspace,
                     evaluate_registration, gen_smooth_dvf, geometry_for,
                     grid_for, make_pair, mtre, register_dense_3d,
                     register_subspace_2d, step_for, zero_displacement)
from tomoreg import io as tio
from tomoreg.phantom import split_seed

from tracing import Tracer

SPEC = PhantomSpec(dims=(32, 32, 32), spacing=(4.4, 4.4, 4.4),
                   deformation=DeformationSpec(smoothness_sigma_voxels=8.0))
LAM = 0.1
N_TRAIN = 30
VARIANCE = 0.99
SETUP_REPS = 3


@dataclass(frozen=True)
class Workload:
    driver: str          # "subspace2d" or "dense"
    n_pairs: int         # distinct pairs registered in every run
    max_iters: int       # OptimConfig.max_iters
    spec: PhantomSpec = SPEC


WORKLOADS = {
    # projection-driven subspace registration: the only workload whose loop
    # runs DrrOperator.forward/adjoint, and the one needing the most
    # iterations, so evaluation-count changes show most here.  Uncapped,
    # pairs take 19-70 iterations and a run's median time moves by 15% from
    # seed to seed; at 30, most pairs stop at the cap and the rest converge
    # before it, so a change that makes most pairs converge sooner still
    # lowers the median iteration count
    "proj2d": Workload("subspace2d", n_pairs=25, max_iters=30),
    # free-form registration on a fixed 30-iteration budget: same warp and
    # loss on a 98k-entry parameter vector, no subspace and no projections,
    # so subspace- or geometry-only changes should leave it unchanged
    "dense3d": Workload("dense", n_pairs=28, max_iters=30),
}

# what each driver reads, written and read back through tomoreg.io; masks
# and landmarks are read by the scoring as well
_IMAGES = {
    "subspace2d": ("source",),
    "dense": ("source", "target"),
}


@contextmanager
def _timed(stages: dict, key: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stages[key] = stages.get(key, 0.0) + time.perf_counter() - t0


@dataclass
class Case:
    """One pair's inputs, as read back from disk."""

    source_mask: object
    target_mask: object
    lm_src: object
    lm_tgt: object
    source: object = None
    target: object = None
    projections: object = None


@dataclass
class Inputs:
    cases: list
    sub: object
    op: DrrOperator
    stages: dict


def _clear_library_caches():
    """Empty tomoreg's in-process memo caches, as a fresh process has them."""
    for mod in (tomoreg.grids, tomoreg.geometry, tomoreg.phantom,
                tomoreg.subspace, tomoreg.losses, tomoreg.registration):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _round_trip(w: Workload, pairs: list, sub, workdir: str, stages: dict):
    """Write the driver and scoring inputs with tomoreg.io and read them back."""
    images = _IMAGES[w.driver]
    with _timed(stages, "io.write_s"):
        if sub is not None:
            tio.write_subspace(os.path.join(workdir, "subspace.json"), sub)
        tio.write_geometry(os.path.join(workdir, "geometry.json"), pairs[0].geometry)
        for i, p in enumerate(pairs):
            base = os.path.join(workdir, f"pair{i}_")
            for name in images:
                tio.write_image3d(base + name + ".json", getattr(p, name))
            tio.write_mask3d(base + "source_mask.json", p.source_mask)
            tio.write_mask3d(base + "target_mask.json", p.target_mask)
            tio.write_landmarks(base + "lm_src.csv", p.lm_src)
            tio.write_landmarks(base + "lm_tgt.csv", p.lm_tgt)
            if w.driver == "subspace2d":
                tio.write_projections(base + "projections.json", p.projections)
    stages["io.bytes"] = float(sum(e.stat().st_size for e in os.scandir(workdir)))

    with _timed(stages, "io.read_s"):
        if sub is not None:
            sub = tio.read_subspace(os.path.join(workdir, "subspace.json"))
        geom = tio.read_geometry(os.path.join(workdir, "geometry.json"))
        cases = []
        for i in range(len(pairs)):
            base = os.path.join(workdir, f"pair{i}_")
            case = Case(source_mask=tio.read_mask3d(base + "source_mask.json"),
                        target_mask=tio.read_mask3d(base + "target_mask.json"),
                        lm_src=tio.read_landmarks(base + "lm_src.csv"),
                        lm_tgt=tio.read_landmarks(base + "lm_tgt.csv"))
            for name in images:
                setattr(case, name, tio.read_image3d(base + name + ".json"))
            if w.driver == "subspace2d":
                case.projections = tio.read_projections(base + "projections.json", geom)
            cases.append(case)
    return cases, sub


def set_up(w: Workload, seed: int, workdir: str) -> Inputs:
    """Everything before the first registration, timed stage by stage."""
    _clear_library_caches()
    spec = w.spec
    stages = {}
    t0 = time.perf_counter()
    sub = None
    if w.driver == "subspace2d":
        with _timed(stages, "phantom.train_fields_s"):
            fields = [gen_smooth_dvf(spec, seed=split_seed(seed, f"train{i}"))
                      for i in range(N_TRAIN)]
        with _timed(stages, "subspace.build_s"):
            sub = build_subspace(fields, VARIANCE)
        del fields
    grid = grid_for(spec)
    with _timed(stages, "geometry.drr_build_s"):
        op = DrrOperator(grid, geometry_for(spec), step_for(spec))
        # the emitter matrices are built lazily; force them here so the
        # first registration does not pay for them
        op.render_all(Image3D(grid.dims, grid.spacing, grid.origin,
                              np.zeros(grid.dims, dtype=np.float32)))
    with _timed(stages, "phantom.make_pair_s"):
        pairs = [make_pair(spec, split_seed(seed, f"pair{i}"), drr_op=op)
                 for i in range(w.n_pairs)]
    with tempfile.TemporaryDirectory(prefix="io-", dir=workdir) as tmp:
        cases, sub = _round_trip(w, pairs, sub, tmp, stages)
    stages["setup_s"] = time.perf_counter() - t0
    return Inputs(cases, sub, op, stages)


def register(w: Workload, inputs: Inputs, case: Case):
    """One driver call; returns (field, alpha or None, report)."""
    opt = OptimConfig(max_iters=w.max_iters)
    if w.driver == "subspace2d":
        alpha, u, report = register_subspace_2d(
            case.source, case.projections, case.source_mask, inputs.sub,
            LossConfig(lam=LAM, loss_mode="sim2d"), opt, drr_op=inputs.op)
        return u, alpha, report
    u, report = register_dense_3d(case.source, case.target, case.source_mask,
                                  case.target_mask, LossConfig(lam=LAM), opt)
    return u, None, report


def check(case: Case, u, alpha, report):
    """Score one result; returns (final mTRE, identity mTRE, problems).

    A result is wrong if its field or coefficients are non-finite, its
    accepted loss trace ever increases, or it leaves the landmarks no
    closer than the identity field does.
    """
    problems = []
    if not np.all(np.isfinite(u.data)):
        problems.append("non-finite displacement field")
    if alpha is not None and not np.all(np.isfinite(alpha)):
        problems.append("non-finite subspace coefficients")
    if np.any(np.diff(np.asarray(report.loss_trace, dtype=np.float64)) > 0.0):
        problems.append("accepted loss trace increases")
    ident = mtre(zero_displacement(u.grid), case.lm_src, case.lm_tgt)
    if problems:
        return float("nan"), ident, problems
    final = evaluate_registration(u, case.lm_src, case.lm_tgt, case.source_mask,
                                  case.target_mask).mtre_mm
    if not final < ident:
        problems.append(f"final mTRE {final:.4g} mm is not below the "
                        f"identity field's {ident:.4g} mm")
    return final, ident, problems


@dataclass
class Attempt:
    pair: int
    wall_s: float
    cpu_s: float
    eval_s: float
    problems: list
    iterations: int | None = None
    mtre_mm: float = float("nan")
    identity_mtre_mm: float = float("nan")
    peak_alloc_mb: float = float("nan")
    layers: dict = field(default_factory=dict)


def attempt(w: Workload, inputs: Inputs, k: int, tracer: Tracer | None = None,
            trace_id: int = 0, track_alloc: bool = False) -> Attempt:
    """Register pair ``k`` once, timed, then check the result.

    With a tracer, the call records spans; with ``track_alloc``, tracemalloc
    records its peak allocation.  The two are kept to separate calls because
    tracemalloc slows every numpy allocation and would distort the spans.
    """
    case = inputs.cases[k]
    result, problems = None, []
    if track_alloc:
        tracemalloc.start()
    with tracer.installed() if tracer is not None else nullcontext():
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with (tracer.span("registration.register", trace_id)
                  if tracer is not None else nullcontext()):
                result = register(w, inputs, case)
        except Exception as exc:  # a raising driver is a failed registration
            problems.append(f"raised {type(exc).__name__}: {exc}")
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    out = Attempt(k, wall, cpu, 0.0, problems)
    if track_alloc:
        out.peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
    if tracer is not None:
        out.layers = tracer.summary(trace_id)
    if result is not None:
        t0 = time.perf_counter()
        u, alpha, report = result
        out.iterations = report.iterations
        out.mtre_mm, out.identity_mtre_mm, checked = check(case, u, alpha, report)
        problems.extend(checked)
        out.eval_s = time.perf_counter() - t0
    return out


def _finite(values) -> list:
    return [v for v in values if v is not None and np.isfinite(v)]


def _median(values) -> float:
    values = _finite(values)
    return float(statistics.median(values)) if values else float("nan")


def _mean(values) -> float:
    values = _finite(values)
    return float(statistics.fmean(values)) if values else float("nan")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(setups: list, attempts: list, n_pairs: int) -> dict:
    walls = [[a.wall_s for a in attempts if a.pair == k] for k in range(n_pairs)]
    cpus = [[a.cpu_s for a in attempts if a.pair == k] for k in range(n_pairs)]
    first = attempts[:n_pairs]
    pair_wall = [statistics.median(v) for v in walls]
    return {
        "setup_s": _median(s["setup_s"] for s in setups),
        "register_s": _median(pair_wall),
        "register_cpu_s": _median(statistics.median(v) for v in cpus),
        "register_total_s": float(sum(pair_wall)),
        "iterations": _median(a.iterations for a in first),
        # a mean: across seeds it spreads about 30% less than the median
        "mtre_residual_pct": _mean(100.0 * a.mtre_mm / a.identity_mtre_mm
                                   for a in first),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _layer_row(untraced: Attempt, a: Attempt, alloc: Attempt) -> dict:
    """Layer numbers of one pair from its untraced, traced and tracemalloc calls."""
    def calls(name):
        return a.layers.get(name, {}).get("calls", 0)

    def total(name):
        return a.layers.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return a.layers.get(name, {}).get("self_s", 0.0)

    warps = calls("grids.warp")
    n_loss, n_lag = calls("losses.loss"), calls("losses.loss_and_grad")
    iters = a.iterations or 0
    return {
        "pair": a.pair,
        "iterations": iters,
        "grids.warp_calls": warps,
        "grids.warp_s": total("grids.warp"),
        "grids.warp_ms_per_call": 1e3 * total("grids.warp") / warps if warps else 0.0,
        "geometry.forward_calls": calls("geometry.forward"),
        "geometry.forward_s": total("geometry.forward"),
        "geometry.adjoint_calls": calls("geometry.adjoint"),
        "geometry.adjoint_s": total("geometry.adjoint"),
        "subspace.reconstruct_calls": calls("subspace.reconstruct"),
        "subspace.reconstruct_s": total("subspace.reconstruct"),
        "losses.loss_calls": n_loss,
        "losses.loss_and_grad_calls": n_lag,
        "losses.eval_s": total("losses.loss") + total("losses.loss_and_grad"),
        "losses.self_s": self_s("losses.loss") + self_s("losses.loss_and_grad"),
        "registration.self_s": self_s("registration.register"),
        "registration.evals_per_iter": (n_loss + n_lag) / iters if iters else 0.0,
        "registration.accepted_per_trial": iters / n_loss if n_loss else 0.0,
        "registration.peak_alloc_mb": alloc.peak_alloc_mb,
        "metrics.evaluate_s": a.eval_s,
        "metrics.mtre_mm": a.mtre_mm,
        "trace.register_s": a.wall_s,
        "trace.untraced_register_s": untraced.wall_s,
    }


SETUP_LAYERS = ("phantom.train_fields_s", "subspace.build_s",
                "geometry.drr_build_s", "phantom.make_pair_s", "io.write_s",
                "io.read_s", "io.bytes")


def _per_layer(setups: list, triples: list) -> tuple[dict, list]:
    rows = [_layer_row(*t) for t in triples]
    metrics = {k: _median(r[k] for r in rows) for k in rows[0] if k != "pair"}
    metrics["trace.overhead_s"] = (metrics["trace.register_s"]
                                   - metrics.pop("trace.untraced_register_s"))
    for k in SETUP_LAYERS:
        metrics[k] = _median(s.get(k, 0.0) for s in setups)
    return metrics, rows


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: str):
    """One benchmark run; returns (result line dict, full record dict).

    Untraced: every pair is registered once, then pairs are registered again
    in order until ``seconds`` have passed.  Traced: each pair is registered
    three times (untraced, with spans, with tracemalloc), pair after pair,
    until ``seconds`` have passed or every pair is done.
    """
    setups, inputs = [], None
    for _ in range(SETUP_REPS):
        inputs = None  # release the previous set-up before building the next
        inputs = set_up(w, seed, workdir)
        setups.append(inputs.stages)
    n = len(inputs.cases)

    attempts, tracer, triples = [], None, []
    deadline = time.perf_counter() + seconds
    if not trace:
        i = 0
        while i < n or time.perf_counter() < deadline:
            attempts.append(attempt(w, inputs, i % n))
            i += 1
        metrics = _end_to_end(setups, attempts, n)
        rows = []
    else:
        tracer = Tracer()
        for k in range(n):
            if k and time.perf_counter() >= deadline:
                break
            triple = (attempt(w, inputs, k),
                      attempt(w, inputs, k, tracer, trace_id=k),
                      attempt(w, inputs, k, track_alloc=True))
            attempts += triple
            triples.append(triple)
        metrics, rows = _per_layer(setups, triples)

    failed = sum(1 for a in attempts if a.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "setups": setups,
        "attempts": [{"pair": a.pair, "wall_s": a.wall_s, "cpu_s": a.cpu_s,
                      "iterations": a.iterations, "mtre_mm": a.mtre_mm,
                      "identity_mtre_mm": a.identity_mtre_mm,
                      "problems": a.problems} for a in attempts],
        "layers_per_registration": rows,
        "spans": tracer.to_json() if tracer is not None else [],
    }
    return result, record
