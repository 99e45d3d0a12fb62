"""Paired benchmark runs of a parent commit and the working tree.

    python3 tools/bench_pair.py --parent HEAD --label change \\
        --workload proj2d --workload dense3d --traced-seed 4242

Exports the parent commit with ``git archive`` into a temporary directory
(no worktree is registered in the repository) and runs the unchanged
``perfbench/run.py`` there and in the working tree, each from the root of
its own checkout.  Pair i uses the i-th seed of ``--seeds`` and one run per
side; even pairs run the parent first, odd pairs the change.  With
``--traced-seed`` each workload also gets one traced pair for its per-layer
metrics.  The record is written to ``BENCH_<label>.json`` at the root of the
working tree: the environment, each side's code-line count of ``src/tomoreg/*.py``,
every run with its result line (or, for a run without one, why not), per
workload each side's count of runs without a result (exited non-zero, or
exited 0 without a result line) and the number of pairs whose
``iterations`` differ, and per workload and end-to-end metric each side's
median and quartiles, how many pairs the change read lower, higher or
equal, and two flags:
``gain_shown`` (better in 9 of 10 pairs, medians apart by more than the
parent's IQR) and ``within_bound`` (the change's median no worse than the
parent's by more than the metric's bound).

The record also holds a 64-cubed section, ``setup64``.  For three
alternating pairs, on the first three seeds, a child process per checkout,
with that checkout's ``src`` first on ``sys.path``, times 30 training
fields, ``build_subspace(..., 0.99)``, the ``DrrOperator(...)`` call and
one ``make_pair`` on the default ``PhantomSpec()`` (64 cubed), then three
registrations of that pair at lam 0.1: ``register_subspace_2d`` and
``register_subspace_3d`` at most 200 iterations each, and
``register_dense_3d`` at most 30.  It reports each registration's
iterations, one SHA-256 of the three registrations' coefficients, fields
and loss traces and of the JSON of ``evaluate_registration`` of the dense
field, a SHA-256 of the set-up's data (the 30 training fields, the
subspace's mean, basis and singular values, the DRR operator's ``forward``
of a seeded volume, its ``adjoint`` of a seeded projection stack and its
per-emitter entry counts, every array of the pair and ``lift3d`` of the
pair's projections) and its own ``ru_maxrss``.  Per
stage the section holds each side's median and quartiles and how many
pairs the change read lower, higher or equal, and it counts the complete
pairs whose two sides differ in each digest.  Three pairs are too few for the claim rule, so these
figures are indicative only.  A child peaks near 1 GB.
"""
from __future__ import annotations

import argparse
import ast
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = [1618, 2718, 4242, 9001, 31337] * 2
SIDES = ("parent", "change")
NON_CODE_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                   tokenize.DEDENT, tokenize.ENDMARKER}
STATISTICS = ("median and quartiles (numpy.percentile, linear) over each side's "
              "runs; a pair counts for the change when its value is lower")


def _json_object(line: str, what: str) -> dict:
    """``line`` read as a JSON object; ValueError naming ``what`` otherwise."""
    try:
        value = json.loads(line)
    except ValueError:
        value = None
    if not isinstance(value, dict):
        raise ValueError(f"{what} is not a JSON object: {line[:200]!r}")
    return value


def parse_output(stdout: str) -> tuple[dict, dict]:
    """(environment, result) from run.py's first and last output lines;
    ValueError when either is missing or not the JSON object it should be."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("run.py printed nothing")
    env = _json_object(lines[0], "run.py's first line").get("environment")
    if not isinstance(env, dict):
        raise ValueError("run.py's first line holds no environment object")
    return env, _json_object(lines[-1], "run.py's last line")


def _child(command: list, checkout: Path, parse, env=None):
    """Run ``command`` in ``checkout``: the process, ``parse`` of its output
    (None when it fails) and the error (None when it succeeds).  A run that
    exits 0 with output ``parse`` rejects is recorded, not raised."""
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return proc, None, f"exited with code {proc.returncode}"
    try:
        return proc, parse(proc.stdout), None
    except ValueError as exc:
        return proc, None, str(exc)


def run_one(checkout: Path, pair: int, side: str, workload: str, seed: int,
            seconds: float, trace: int) -> dict:
    """One run.py run; ``result`` and ``environment`` are None, and ``error``
    says why, when it has no result."""
    command = ["python3", "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc, parsed, error = _child(command, checkout, parse_output)
    env, result = parsed or (None, None)
    return {"pair": pair, "side": side, "workload": workload, "seed": seed,
            "trace": trace, "command": command, "returncode": proc.returncode,
            "result": result, "environment": env, "error": error}


# the 64-cubed set-up and three registrations, run from the root of one
# checkout: argv[1] is the seed; prints one JSON object of stage times
# (wall seconds), the registrations' iterations, the digests of the
# set-up's data and of the registrations' outputs, and peak RSS
SETUP64_CHILD = """
import hashlib, json, resource, sys, time
sys.path.insert(0, "src")
import numpy as np
from tomoreg import (DrrOperator, LossConfig, OptimConfig, PhantomSpec, build_subspace,
                     evaluate_registration, gen_smooth_dvf, geometry_for, grid_for, lift3d,
                     make_pair, register_dense_3d, register_subspace_2d,
                     register_subspace_3d, step_for)
from tomoreg.phantom import split_seed

seed, spec, out = int(sys.argv[1]), PhantomSpec(), {}


def timed(name, fn):
    t0 = time.perf_counter()
    value = fn()
    out[name] = time.perf_counter() - t0
    return value


fields = timed("train_fields_s", lambda: [
    gen_smooth_dvf(spec, seed=split_seed(seed, f"train{i}")) for i in range(30)])
setup = hashlib.sha256()
for field in fields:
    setup.update(np.ascontiguousarray(field.data))
sub = timed("build_subspace_s", lambda: build_subspace(fields, 0.99))
del fields
for part in (sub.mean, sub.basis, sub.singular_values):
    setup.update(np.ascontiguousarray(part))
op = timed("drr_build_s", lambda: DrrOperator(grid_for(spec), geometry_for(spec),
                                              step_for(spec)))
# the operator through its public products, which every checkout has
rng = np.random.default_rng(seed)
for part in (op.forward(rng.random(op.grid.dims)),
             op.adjoint(rng.random(op.geometry.detector_dims + (op.geometry.n_emitters,))),
             op._counts):
    setup.update(np.ascontiguousarray(part))
pair = timed("make_pair_s", lambda: make_pair(spec, split_seed(seed, "pair0"), drr_op=op))
for part in (pair.source.data, pair.target.data, pair.source_mask.data,
             pair.target_mask.data, pair.projections.data, pair.lm_src.ids,
             pair.lm_src.points, pair.lm_tgt.ids, pair.lm_tgt.points, pair.u_true.data,
             lift3d(pair.projections, pair.source.grid).data):
    setup.update(np.ascontiguousarray(part))
out["setup_sha256"] = setup.hexdigest()
outputs = hashlib.sha256()


def registered(name, fn):
    # (alpha,) field, report: the time, the iterations, and alpha, the
    # field and the loss trace into the outputs digest; returns the field
    *values, report = timed(name + "_s", fn)
    out[name + "_iterations"] = report.iterations
    for part in (*values[:-1], values[-1].data, report.loss_trace):
        outputs.update(np.ascontiguousarray(part).tobytes())
    return values[-1]


registered("register2d", lambda: register_subspace_2d(
    pair.source, pair.projections, pair.source_mask, sub, LossConfig(0.1, "sim2d"),
    OptimConfig(max_iters=200), drr_op=op))
registered("register3d", lambda: register_subspace_3d(
    pair.source, pair.target, pair.source_mask, pair.target_mask, sub,
    LossConfig(0.1, "sim3d"), OptimConfig(max_iters=200)))
dense = registered("dense", lambda: register_dense_3d(
    pair.source, pair.target, pair.source_mask, pair.target_mask,
    LossConfig(0.1, "sim3d"), OptimConfig(max_iters=30)))
# the dense field's evaluation, which reads the landmarks by trilinear sampling
outputs.update(json.dumps(evaluate_registration(
    dense, pair.lm_src, pair.lm_tgt, pair.source_mask, pair.target_mask).to_dict()).encode())
out["outputs_sha256"] = outputs.hexdigest()
out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps(out))
"""
SETUP64_PAIRS = 3
SETUP64_STAGES = ("train_fields_s", "build_subspace_s", "drr_build_s", "make_pair_s",
                  "register2d_s", "register2d_iterations", "register3d_s",
                  "register3d_iterations", "dense_s", "dense_iterations", "peak_rss_mb")
# the child's digests, each with the name of the count of complete pairs
# whose two sides differ in it: of the three registrations' coefficients,
# fields and loss traces and the dense field's evaluation, and of the
# set-up's fields, subspace, DRR products, pair and lift
SETUP64_DIGESTS = {"outputs_sha256": "pairs_outputs_differ",
                   "setup_sha256": "pairs_setup_differ"}


def run_setup64(checkout: Path, pair: int, side: str, seed: int) -> dict:
    """One 64-cubed set-up child in ``checkout``; ``stages`` is None, and
    ``error`` says why, if it printed no stage line."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc, stages, error = _child(
        ["python3", "-c", SETUP64_CHILD, str(seed)], checkout,
        lambda out: _json_object(out.strip().rpartition("\n")[2], "the last line"), env)
    return {"pair": pair, "side": side, "seed": seed, "returncode": proc.returncode,
            "stages": stages, "error": error}


def summarize_setup64(runs: list) -> dict:
    """Per stage of the complete 64-cubed pairs: each side's statistics and
    how many pairs the change read lower, higher or equal; the runs without
    a result per side; and per digest the number of complete pairs whose
    two sides differ in it."""
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["stages"]
    pairs = [p for p in by_pair.values() if all(p.get(s) for s in SIDES)]
    out = {name: _paired({s: [p[s][name] for p in pairs] for s in SIDES})
           for name in SETUP64_STAGES}
    out["runs_without_result"] = {s: sum(r["side"] == s and r["stages"] is None
                                         for r in runs) for s in SIDES}
    for digest, count in SETUP64_DIGESTS.items():
        out[count] = sum(len({p[s].get(digest) for s in SIDES}) > 1 for p in pairs)
    return out


def _paired(vals: dict) -> dict:
    """Each side's statistics of paired values, and how many pairs the
    change read lower, higher or equal."""
    diffs = np.subtract(vals["change"], vals["parent"])
    return {**{s: _stats(vals[s]) for s in SIDES},
            "pairs_change_lower": int(np.sum(diffs < 0)),
            "pairs_change_higher": int(np.sum(diffs > 0)),
            "pairs_tied": int(np.sum(diffs == 0))}


def _stats(values: list) -> dict:
    if not values:  # no complete pair
        return {"median": None, "q1": None, "q3": None, "iqr": None, "n": 0}
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1), "n": len(values)}


def _claim_flags(vals: dict, metric: dict) -> dict:
    """The claim rule on one metric's paired values.

    ``gain_shown``: the change is better in at least 9 of 10 pairs and its
    median is better than the parent's by more than the parent's IQR.
    ``within_bound``: the change's median is no worse than the parent's by
    more than the metric's relative ``bound``.  With no pair, neither holds.
    """
    if not vals["parent"]:
        return {"gain_shown": False, "within_bound": False}
    sign = 1.0 if metric["better"] == "lower" else -1.0
    parent, change = (sign * np.asarray(vals[s], dtype=np.float64) for s in SIDES)
    wins = int(np.sum(change < parent))
    p_med, c_med = np.median(parent), np.median(change)
    q3, q1 = np.percentile(parent, [75, 25])
    return {
        "gain_shown": bool(10 * wins >= 9 * parent.size and p_med - c_med > q3 - q1),
        "within_bound": bool(c_med <= p_med + metric["bound"] * abs(p_med)),
    }


def summarize(runs: list, spec: dict) -> dict:
    """Per workload: each end-to-end metric's statistics and pairs won, the
    failed and attempted counts per side, the traced per-layer values, per
    side the runs, traced or not, without a result (exited non-zero or
    printed no result line), and the number of complete pairs whose two
    sides differ in ``iterations``.  A run without a result leaves its pair
    out of every statistic above; a workload with no complete pair gets
    null statistics and false flags."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        own = [r for r in runs if r["workload"] == workload]
        untraced = [r for r in own if not r["trace"]]
        by_pair = {}
        for r in untraced:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [p for p in by_pair.values() if all(p.get(s) for s in SIDES)]
        out = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            vals = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
            paired = _paired(vals)
            p_med, c_med = (paired[s]["median"] for s in SIDES)
            out[name] = {
                "unit": m["unit"],
                **paired,
                "change_over_parent": c_med / p_med if p_med else None,
                "bound": m["bound"],
                **_claim_flags(vals, m),
            }
        for key in ("failed", "attempted"):
            out[key] = {s: sum(r["result"][key] for r in untraced
                               if r["side"] == s and r["result"]) for s in SIDES}
        out["traced"] = {r["side"]: {k: v["value"] for k, v in r["result"]["metrics"].items()}
                         for r in own if r["trace"] and r["result"]}
        out["runs_without_result"] = {s: sum(r["side"] == s and r["result"] is None
                                             for r in own) for s in SIDES}
        # a rounding-level change that moves an iteration count shows here,
        # not only in a median
        out["pairs_iterations_differ"] = sum(
            len({p[s]["metrics"]["iterations"]["value"] for s in SIDES}) > 1 for p in pairs)
        summary[workload] = out
    return summary


def src_code_lines(checkout: Path) -> int:
    """Code lines of the package source, ``src/tomoreg/*.py``, in one checkout:
    lines that hold a token other than a comment, outside module, class and
    function docstrings.  Blank lines, comments and docstrings do not count."""
    total = 0
    for path in (checkout / "src" / "tomoreg").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        code = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in NON_CODE_TOKENS:
                code.update(range(tok.start[0], tok.end[0] + 1))
        total += len(code - docstrings)
    return total


def record(runs: list, spec: dict, parent: str, seeds: dict,
           traced_seed: int | None, lines: dict, setup64: list) -> dict:
    """The record of ``runs``; its environment is the first run's that has
    one, and null when none has."""
    env = next((r["environment"] for r in runs if r["environment"]), None)
    doc = {
        "what": ("Paired perfbench/run.py runs of the parent commit and of the "
                 "working tree, alternating which side runs first in each pair"),
        "parent_commit": parent,
        "command": ("python3 perfbench/run.py --workload W --seed N --seconds S "
                    "--trace T (run from the root of each checkout)"),
        "seeds": seeds,
        "traced_seed": traced_seed,
        "statistics": STATISTICS,
        "environment": env and {k: v for k, v in env.items()
                                if k not in ("git_commit", "workload", "seed")},
        "src_code_lines": lines,
        "summary": summarize(runs, spec),
        "runs": runs,
        "setup64": {
            "what": ("The default 64-cubed PhantomSpec's set-up, one child process "
                     "per side and pair with that checkout's src first on sys.path: "
                     "30 training fields, build_subspace(fields, 0.99), the "
                     "DrrOperator(...) call, one make_pair, and three registrations "
                     "of that pair at lam 0.1: register_subspace_2d and "
                     "register_subspace_3d (max_iters 200 each) and "
                     "register_dense_3d (max_iters 30); wall seconds, each "
                     "registration's iterations, one SHA-256 of the three "
                     "registrations' alpha, fields and loss traces and of the "
                     "JSON of evaluate_registration of the dense field, a "
                     "SHA-256 of the training fields, the subspace's mean, "
                     "basis and singular values, the DRR "
                     "operator's forward of a seeded volume, adjoint of a seeded "
                     "projection stack and per-emitter entry counts, every "
                     "array of the pair and lift3d of its projections, and "
                     "ru_maxrss.  Three pairs are too few for the claim rule, so "
                     "these figures are indicative only"),
            "summary": summarize_setup64(setup64),
            "runs": list(setup64),
        },
    }
    return doc


def write_record(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; returns its abbreviated hash."""
    commit = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = dest / "parent.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), commit],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    return commit


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workload", action="append", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, nargs="+", default=SEEDS,
                    help="one pair per seed")
    ap.add_argument("--traced-seed", type=int, help="seed of one traced pair")
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        parent = export(args.parent, Path(tmp))
        checkouts = {"parent": Path(tmp) / "tree", "change": ROOT}
        lines = {side: src_code_lines(checkouts[side]) for side in SIDES}
        plan = [(w, seed, 0) for w in args.workload for seed in args.seeds]
        if args.traced_seed is not None:
            plan += [(w, args.traced_seed, 1) for w in args.workload]
        for pair, (workload, seed, trace) in enumerate(plan):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                runs.append(run_one(checkouts[side], pair, side, workload, seed,
                                    seconds, trace))
                res = runs[-1]["result"]
                print(f"pair {pair} {side} {workload} seed {seed} trace {trace}: "
                      f"{'failed to run' if res is None else 'ok'}", flush=True)
        setup64 = []
        for pair, seed in enumerate(args.seeds[:SETUP64_PAIRS]):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                setup64.append(run_setup64(checkouts[side], pair, side, seed))
                print(f"setup64 pair {pair} {side} seed {seed}: "
                      f"{'failed to run' if setup64[-1]['stages'] is None else 'ok'}",
                      flush=True)
    doc = record(runs, spec, parent, {w: list(args.seeds) for w in args.workload},
                 args.traced_seed, lines, setup64)
    write_record(ROOT / f"BENCH_{args.label}.json", doc)
    return 0 if all(r["error"] is None for r in runs + setup64) else 1


if __name__ == "__main__":
    sys.exit(main())
