"""Smoke test of the benchmark itself, on a tiny scene.

    python3 -m pytest -q perfbench/test_bench.py
"""
import dataclasses
import math

import numpy as np
import pytest

import run

run._import_library()
import bench  # noqa: E402  (needs the library path set up above)
from tomoreg import DeformationSpec, DisplacementField, PhantomSpec  # noqa: E402

TINY = PhantomSpec(dims=(24, 24, 24), spacing=(5.5, 5.5, 5.5),
                   deformation=DeformationSpec(smoothness_sigma_voxels=6.0))


def tiny(driver: str) -> bench.Workload:
    return bench.Workload(driver, n_pairs=1, max_iters=5, spec=TINY)


@pytest.mark.parametrize("driver", ["subspace2d", "dense"])
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(driver, trace, tmp_path):
    result, _ = bench.run(tiny(driver), seed=5, seconds=0.0, trace=trace,
                          workdir=str(tmp_path))
    spec = run.load_spec()
    section = spec["per_layer"] if trace else spec["end_to_end"]
    emitted = run.named_metrics(result["metrics"], section)
    assert [m["name"] for m in section] == list(emitted)
    for m in section:
        got = emitted[m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] is not None and math.isfinite(got["value"]), m["name"]
    assert result["attempted"] >= 1
    assert list(tmp_path.iterdir()) == []  # the io round trip cleans up


def test_check_rejects_wrong_results(tmp_path):
    w = tiny("subspace2d")
    inputs = bench.set_up(w, seed=5, workdir=str(tmp_path))
    case = inputs.cases[0]
    u, alpha, report = bench.register(w, inputs, case)
    final, ident, problems = bench.check(case, u, alpha, report)
    assert problems == [] and final < ident

    away = DisplacementField(u.dims, u.spacing, u.origin, -u.data)
    assert any("mTRE" in p for p in bench.check(case, away, alpha, report)[2])

    nan_field = DisplacementField(u.dims, u.spacing, u.origin, u.data.copy())
    nan_field.data[0, 0, 0, 0] = np.nan  # the constructor rejects NaN
    assert bench.check(case, nan_field, alpha, report)[2]
    assert bench.check(case, u, [math.inf] * len(alpha), report)[2]

    rising = dataclasses.replace(report, loss_trace=report.loss_trace + [
        report.loss_trace[-1] + 1.0])
    assert bench.check(case, u, alpha, rising)[2]

    inputs.cases[0] = dataclasses.replace(case, projections=None)
    assert bench.attempt(w, inputs, 0).problems  # a raising driver fails
