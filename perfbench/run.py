"""Run one tomoreg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload proj2d --seed 4242 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  With ``--trace 0`` the run reports the end-to-end
metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.
Standard output holds one JSON line with the run environment, one line per
metric, and last one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record of the run (environment, set-up
stages, every registration and, when traced, every span) is written to
``perfbench/out/`` when the run ends.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
DEFAULT_SEED = 4242  # not a seed of the acceptance tests (77, 1000)

# One client runs one registration at a time, and the library's BLAS work is
# a few k-by-N matrix-vector products; more BLAS threads only add scheduling
# noise on a shared machine.  Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"


def _import_library():
    """Import tomoreg from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tomoreg
    except ImportError as exc:
        raise SystemExit(f"error: cannot import tomoreg from {src}: {exc}")
    if Path(tomoreg.__file__).resolve().parent != (src / "tomoreg").resolve():
        raise SystemExit(f"error: tomoreg was imported from {tomoreg.__file__}, "
                         f"not from {src}")


def _openblas() -> list:
    """Version and thread count of each OpenBLAS loaded (numpy's, scipy's)."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                found.append({"library": os.path.basename(path),
                              "config": get_config().decode(errors="replace"),
                              "threads": int(get_threads())})
                break
    return found


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    blas = _openblas()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": max((b["threads"] for b in blas), default=None),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def named_metrics(computed: dict, section: list) -> dict:
    """The metrics a BENCHMARK.json section names, each with its unit."""
    out = {}
    for m in section:
        value = float(computed[m["name"]])
        out[m["name"]] = {"value": value if math.isfinite(value) else None,
                          "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    import bench

    env = environment(args.workload, args.seed)
    print(json.dumps({"environment": env}), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    result, record = bench.run(bench.WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace), str(OUT_DIR))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["metrics"] = named_metrics(result["metrics"], section)

    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, **record}, fh)
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']} {m['unit']}")
    for a in record["attempts"]:
        for problem in a["problems"]:
            print(f"failed: pair {a['pair']}: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
