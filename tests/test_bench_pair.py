"""The paired-benchmark recorder's parsing, statistics and record writer."""
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {"end_to_end": [{"name": "register_s", "unit": "s", "better": "lower",
                        "bound": 0.25},
                       {"name": "iterations", "unit": "count", "better": "lower",
                        "bound": 0.1}]}
ENV = {"cpu_model": "cpu", "nproc": 2, "python": "3", "numpy": "2", "scipy": "1",
       "openblas": [], "blas_threads": 1, "git_commit": "unknown",
       "workload": "proj2d", "seed": 1}


def stdout(metrics: dict, failed: int = 0, attempted: int = 5) -> str:
    """What run.py prints: environment line, metric lines, result line."""
    result = {"correct": not failed, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}
    lines = [json.dumps({"environment": ENV})]
    lines += [f"{k:34s} {v} s" for k, v in metrics.items()]
    return "\n".join(lines + [json.dumps(result)]) + "\n"


def canned_runs(bench_pair):
    # (pair, side, register_s, iterations); the change wins pairs 0 and 1,
    # loses pair 2 and ties pair 3 on register_s
    rows = [(0, "parent", 0.30, 30), (0, "change", 0.20, 30),
            (1, "change", 0.25, 30), (1, "parent", 0.40, 30),
            (2, "parent", 0.10, 30), (2, "change", 0.15, 30),
            (3, "change", 0.50, 30), (3, "parent", 0.50, 30)]
    runs = []
    for pair, side, reg, iters in rows:
        env, result = bench_pair.parse_output(
            stdout({"register_s": reg, "iterations": iters}, failed=int(pair == 2)))
        runs.append({"pair": pair, "side": side, "workload": "proj2d", "seed": 1,
                     "trace": 0, "command": [], "returncode": 0,
                     "result": result, "environment": env})
    for side in ("parent", "change"):
        _, result = bench_pair.parse_output(stdout({"grids.warp_calls": 11.0}))
        runs.append({"pair": 4, "side": side, "workload": "proj2d", "seed": 1,
                     "trace": 1, "command": [], "returncode": 0,
                     "result": result, "environment": ENV})
    return runs


def test_the_record_holds_every_run_and_the_paired_statistics(bench_pair, tmp_path):
    runs = canned_runs(bench_pair)
    doc = bench_pair.record(runs, SPEC, "abc1234", {"proj2d": [1] * 4}, 1,
                            {"parent": 120, "change": 110}, [])
    path = tmp_path / "BENCH_smoke.json"
    bench_pair.write_record(path, doc)
    back = json.loads(path.read_text(encoding="utf-8"))

    assert back["runs"] == runs
    assert back["parent_commit"] == "abc1234"
    assert back["src_code_lines"] == {"parent": 120, "change": 110}
    assert "git_commit" not in back["environment"]
    reg = back["summary"]["proj2d"]["register_s"]
    assert reg["parent"] == pytest.approx({"median": 0.35, "q1": 0.25, "q3": 0.425,
                                           "iqr": 0.175, "n": 4})
    assert reg["change"]["median"] == pytest.approx(0.225)
    assert (reg["pairs_change_lower"], reg["pairs_change_higher"],
            reg["pairs_tied"]) == (2, 1, 1)
    assert reg["bound"] == 0.25
    assert back["summary"]["proj2d"]["iterations"]["pairs_tied"] == 4
    assert back["summary"]["proj2d"]["failed"] == {"parent": 1, "change": 1}
    assert back["summary"]["proj2d"]["attempted"] == {"parent": 20, "change": 20}
    assert back["summary"]["proj2d"]["traced"]["change"] == {"grids.warp_calls": 11.0}
    assert back["summary"]["proj2d"]["runs_without_result"] == {"parent": 0, "change": 0}
    assert back["summary"]["proj2d"]["pairs_iterations_differ"] == 0


def test_a_run_that_exited_nonzero_is_counted_not_just_dropped(bench_pair):
    runs = canned_runs(bench_pair)
    crashed = {**runs[2], "returncode": 1, "result": None, "environment": None}
    summary = bench_pair.summarize([*runs[:2], crashed, *runs[3:]], SPEC)["proj2d"]
    # pair 1 lost its change run, so only pairs 0, 2 and 3 are compared
    assert summary["register_s"]["parent"]["n"] == 3
    assert summary["attempted"] == {"parent": 20, "change": 15}
    assert summary["runs_without_result"] == {"parent": 0, "change": 1}


def test_a_workload_with_no_complete_pair_keeps_the_record(bench_pair, tmp_path):
    """Every change run of dense3d exited non-zero: its statistics are null
    and its flags false, and proj2d's record is kept as before."""
    runs = canned_runs(bench_pair)
    broken = [{**r, "workload": "dense3d"} for r in runs]
    broken = [{**r, "returncode": 1, "result": None, "environment": None}
              if r["side"] == "change" else r for r in broken]
    doc = bench_pair.record(runs + broken, SPEC, "abc1234",
                            {"proj2d": [1] * 4, "dense3d": [1] * 4}, 1,
                            {"parent": 120, "change": 110}, [])
    bench_pair.write_record(tmp_path / "BENCH_smoke.json", doc)
    back = json.loads((tmp_path / "BENCH_smoke.json").read_text(encoding="utf-8"))
    summary = back["summary"]
    assert summary["proj2d"] == bench_pair.summarize(runs, SPEC)["proj2d"]
    for name in ("register_s", "iterations"):
        metric = summary["dense3d"][name]
        for side in ("parent", "change"):
            assert metric[side] == {"median": None, "q1": None, "q3": None,
                                    "iqr": None, "n": 0}
        assert metric["change_over_parent"] is None
        assert (metric["pairs_change_lower"], metric["pairs_change_higher"],
                metric["pairs_tied"]) == (0, 0, 0)
        assert (metric["gain_shown"], metric["within_bound"]) == (False, False)
    assert summary["dense3d"]["runs_without_result"] == {"parent": 0, "change": 5}


def test_pairs_whose_iteration_counts_differ_are_counted(bench_pair):
    """A change that moves one pair's iteration count, by one in either
    direction, shows in the count even where the medians tie."""
    runs = json.loads(json.dumps(canned_runs(bench_pair)))
    for r, iters in ((runs[1], 31), (runs[6], 29)):  # pairs 0 and 3, change side
        assert (r["side"], r["trace"]) == ("change", 0)
        r["result"]["metrics"]["iterations"]["value"] = iters
    summary = bench_pair.summarize(runs, SPEC)["proj2d"]
    assert summary["pairs_iterations_differ"] == 2
    assert summary["iterations"]["change"]["median"] == summary["iterations"]["parent"]["median"]


def scaled_change(runs, factor):
    """The canned runs with every untraced change register_s times factor."""
    out = json.loads(json.dumps(runs))
    for r in out:
        if r["side"] == "change" and not r["trace"]:
            r["result"]["metrics"]["register_s"]["value"] *= factor
    return out


def test_the_claim_flags_follow_the_pairs_won_and_the_bound(bench_pair):
    runs = canned_runs(bench_pair)
    flags = {}
    for factor in (1.0, 0.5, 2.0):
        summary = bench_pair.summarize(scaled_change(runs, factor), SPEC)["proj2d"]
        flags[factor] = {m: (summary[m]["gain_shown"], summary[m]["within_bound"])
                         for m in ("register_s", "iterations")}
    # as canned: 2 of 4 pairs won is not a shown gain; 0.225 s is within
    # 1.25 x 0.35 s; 4 tied iteration counts are within the bound, no gain
    assert flags[1.0] == {"register_s": (False, True), "iterations": (False, True)}
    # halved: 4 of 4 pairs won and 0.35 - 0.1125 s > the parent's IQR 0.175 s
    assert flags[0.5]["register_s"] == (True, True)
    # doubled: 0.45 s is over 1.25 x 0.35 s
    assert flags[2.0]["register_s"] == (False, False)
    assert flags[2.0]["iterations"] == (False, True)


def test_a_win_in_too_few_pairs_or_by_less_than_the_iqr_shows_no_gain(bench_pair):
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]

    def flags(change, better="lower"):
        metric = {"name": "m", "unit": "s", "better": better, "bound": 0.1}
        return bench_pair._claim_flags({"parent": parent, "change": change}, metric)

    # 9 of 10 pairs won, medians 1.45 and 0.95 apart by more than IQR 0.45
    assert flags([v - 0.5 for v in parent[:9]] + [2.0])["gain_shown"]
    # 8 of 10 pairs won
    assert not flags([v - 0.5 for v in parent[:8]] + [2.0, 2.0])["gain_shown"]
    # 10 of 10 pairs won, but the medians are only 0.4 apart
    assert not flags([v - 0.4 for v in parent])["gain_shown"]
    # for a higher-is-better metric the same lower values are a loss
    assert flags([v - 0.5 for v in parent], "higher") == {"gain_shown": False,
                                                           "within_bound": False}


def test_src_lines_counts_the_package_modules_only(bench_pair, tmp_path):
    pkg = tmp_path / "src" / "tomoreg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (pkg / "b.py").write_text("z = 3", encoding="utf-8")  # no final newline
    (pkg / "notes.txt").write_text("not\ncode\n", encoding="utf-8")
    (tmp_path / "tools.py").write_text("w = 4\n", encoding="utf-8")
    assert bench_pair.src_code_lines(tmp_path) == 3
    # docstrings, comments and blank lines are not code; a string that is
    # not a docstring is, on every line it spans, and so is a line that
    # ends in a comment
    (pkg / "c.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\n'
        'def f():\n    """One line."""\n\n    return 1  # one\n\n'
        'class C:\n    """Two\n    lines."""\n    s = """not\na docstring"""\n',
        encoding="utf-8")
    assert bench_pair.src_code_lines(tmp_path) == 3 + 5


def test_an_empty_run_output_is_an_error(bench_pair):
    with pytest.raises(ValueError, match="printed nothing"):
        bench_pair.parse_output("\n")


def canned_setup64():
    """Three 64-cubed pairs, sides alternating; the change is faster in every
    stage but the DRR build, which ties in pair 0 and loses in pair 2, and
    the dense registration, which ties in both; its projection registration
    takes fewer iterations, with the same outputs in pair 0 and other ones
    in pair 2, from other set-up data in pair 0 and the same in pair 2; its
    pair-1 parent child failed."""
    rows = [(0, "parent", 2.0, 5.0, 2.1, 1.0, 0.70, 11, 0.30, 8, 2.5, 30, 940.0, "aa", "s0"),
            (0, "change", 1.1, 2.0, 2.1, 0.9, 0.40, 6, 0.20, 7, 2.5, 30, 960.0, "aa", "s1"),
            (1, "change", 1.2, 2.1, 2.0, 0.8, 0.35, 5, 0.25, 7, 2.4, 30, 950.0, "bb", "s2"),
            (1, "parent", None),
            (2, "parent", 2.2, 5.4, 2.0, 1.2, 0.80, 12, 0.28, 9, 2.6, 30, 942.0, "cc", "s3"),
            (2, "change", 1.0, 1.9, 2.2, 0.7, 0.45, 6, 0.18, 8, 2.6, 30, 930.0, "dd", "s3")]
    runs = []
    for pair, side, *values in rows:
        stages = (None if values == [None]
                  else dict(zip(["train_fields_s", "build_subspace_s", "drr_build_s",
                                 "make_pair_s", "register2d_s", "register2d_iterations",
                                 "register3d_s", "register3d_iterations", "dense_s",
                                 "dense_iterations", "peak_rss_mb", "outputs_sha256",
                                 "setup_sha256"], values)))
        runs.append({"pair": pair, "side": side, "seed": 7, "stages": stages,
                     "returncode": 0 if stages else 1})
    return runs


def test_the_64_cubed_setup_section_holds_medians_and_pairs_won(bench_pair, tmp_path):
    setup64 = canned_setup64()
    doc = bench_pair.record(canned_runs(bench_pair), SPEC, "abc1234", {"proj2d": [1] * 4},
                            1, {"parent": 120, "change": 110}, setup64)
    bench_pair.write_record(tmp_path / "BENCH_smoke.json", doc)
    back = json.loads((tmp_path / "BENCH_smoke.json").read_text(encoding="utf-8"))
    section = back["setup64"]
    assert section["runs"] == setup64
    summary = section["summary"]
    # pair 1 has no parent result, so pairs 0 and 2 are compared
    build = summary["build_subspace_s"]
    assert build["parent"] == pytest.approx({"median": 5.2, "q1": 5.1, "q3": 5.3,
                                             "iqr": 0.2, "n": 2})
    assert build["change"]["median"] == pytest.approx(1.95)
    assert (build["pairs_change_lower"], build["pairs_change_higher"],
            build["pairs_tied"]) == (2, 0, 0)
    drr = summary["drr_build_s"]
    assert (drr["pairs_change_lower"], drr["pairs_change_higher"],
            drr["pairs_tied"]) == (0, 1, 1)
    assert summary["peak_rss_mb"]["change"]["median"] == pytest.approx(945.0)
    assert summary["register2d_s"]["parent"]["median"] == pytest.approx(0.75)
    iters = summary["register2d_iterations"]
    assert (iters["parent"]["median"], iters["change"]["median"]) == (11.5, 6.0)
    assert iters["pairs_change_lower"] == 2
    assert summary["register3d_s"]["change"]["median"] == pytest.approx(0.19)
    assert summary["register3d_iterations"]["pairs_change_lower"] == 2
    dense = summary["dense_s"]
    assert dense["parent"]["median"] == pytest.approx(2.55)
    assert dense["pairs_tied"] == 2
    assert summary["dense_iterations"]["pairs_tied"] == 2
    assert set(summary) == {*bench_pair.SETUP64_STAGES, "runs_without_result",
                            "pairs_outputs_differ", "pairs_setup_differ"}
    assert summary["runs_without_result"] == {"parent": 1, "change": 0}
    # pair 2's output digests and pair 0's set-up digests differ; pair 1,
    # with no parent result, is not compared
    assert summary["pairs_outputs_differ"] == 1
    assert summary["pairs_setup_differ"] == 1


def assert_counts_pairs_that_differ(bench_pair, digest, count):
    """Equal digests count nothing, whatever the timings; each complete pair
    with two different digests counts one, and each count reads its own
    digest only."""
    setup64 = json.loads(json.dumps(canned_setup64()))
    for r in setup64:
        if r["stages"]:
            r["stages"][digest] = "same"
    assert bench_pair.summarize_setup64(setup64)[count] == 0
    setup64[1]["stages"][digest] = "ab"  # pair 0, change side
    assert bench_pair.summarize_setup64(setup64)[count] == 1
    setup64[5]["stages"][digest] = "cd"  # pair 2, change side
    assert bench_pair.summarize_setup64(setup64)[count] == 2
    setup64[2]["stages"][digest] = "ef"  # pair 1 has no parent result
    summary = bench_pair.summarize_setup64(setup64)
    assert summary[count] == 2
    # as canned, one pair differs in each digest
    assert [summary[c] for c in bench_pair.SETUP64_DIGESTS.values() if c != count] == [1]


def test_pairs_whose_64_cubed_outputs_differ_are_counted(bench_pair):
    assert_counts_pairs_that_differ(bench_pair, "outputs_sha256", "pairs_outputs_differ")


def test_pairs_whose_64_cubed_setups_differ_are_counted(bench_pair):
    assert_counts_pairs_that_differ(bench_pair, "setup_sha256", "pairs_setup_differ")


def test_runs_that_print_no_result_are_recorded_and_fail_the_exit_code(
        bench_pair, tmp_path, monkeypatch):
    """A run.py and a set-up child that exit 0 after a line that is not JSON
    are recorded without a result, with the parse error, and counted; the
    record is still written, with no environment, and main exits 1."""
    checkout = tmp_path / "tree"
    for rel in ("perfbench/run.py", "src/tomoreg/__init__.py"):
        (checkout / rel).parent.mkdir(parents=True)
        (checkout / rel).write_text("import sys\nprint('not json')\nsys.exit(0)\n",
                                    encoding="utf-8")
    root = tmp_path / "root"
    root.mkdir()
    (root / "BENCHMARK.json").write_text((TOOL.parents[1] / "BENCHMARK.json").read_text())
    run_one, run_setup64 = bench_pair.run_one, bench_pair.run_setup64
    monkeypatch.setattr(bench_pair, "ROOT", root)
    monkeypatch.setattr(bench_pair, "export", lambda rev, dest: "abc1234")
    monkeypatch.setattr(bench_pair, "run_one", lambda _, *args: run_one(checkout, *args))
    monkeypatch.setattr(bench_pair, "run_setup64",
                        lambda _, *args: run_setup64(checkout, *args))
    assert bench_pair.main(["--parent", "HEAD", "--label", "smoke",
                            "--workload", "proj2d", "--seeds", "1"]) == 1
    back = json.loads((root / "BENCH_smoke.json").read_text(encoding="utf-8"))
    assert back["environment"] is None
    for run in back["runs"] + back["setup64"]["runs"]:
        assert run["returncode"] == 0
        assert run.get("result", run.get("stages")) is None
        assert "is not a JSON object: 'not json'" in run["error"]
    both = {"parent": 1, "change": 1}
    assert back["summary"]["proj2d"]["runs_without_result"] == both
    assert back["setup64"]["summary"]["runs_without_result"] == both


def test_the_64_cubed_child_reports_every_stage(bench_pair, monkeypatch, capsys):
    """The set-up child, run in process on a 16-cubed scene instead of the
    default 64-cubed one, prints one JSON line with every stage, each
    registration's time and a whole, positive iteration count among them,
    one SHA-256 of the three registrations' alpha, fields and loss traces
    and of the dense field's evaluation report, and the SHA-256 of the
    training fields, the subspace's mean, basis and singular values, the
    DRR products, the pair and its lift."""
    import sys

    import tomoreg
    from tomoreg import AcquisitionSpec, DeformationSpec, PhantomSpec
    from tomoreg.phantom import split_seed

    small = PhantomSpec(dims=(16, 16, 16), spacing=(8.8, 8.8, 8.8), n_vessels=2,
                        deformation=DeformationSpec(n_modes=2, magnitude_mm=8.0,
                                                    smoothness_sigma_voxels=3.0),
                        geometry=AcquisitionSpec(n_emitters=2))
    monkeypatch.setattr(tomoreg, "PhantomSpec", lambda: small)
    monkeypatch.setattr(sys, "argv", ["-c", "7"])
    monkeypatch.setattr(sys, "path", list(sys.path))
    exec(compile(bench_pair.SETUP64_CHILD, "setup64", "exec"), {"__name__": "__main__"})
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {*bench_pair.SETUP64_STAGES, *bench_pair.SETUP64_DIGESTS}
    assert all(out[name] > 0 for name in bench_pair.SETUP64_STAGES)
    assert all(isinstance(out[f"{name}_iterations"], int)
               for name in ("register2d", "register3d", "dense"))
    # the digests are of the set-up and the registration the child ran:
    # rerun them here
    small = tomoreg.PhantomSpec()
    fields = [tomoreg.gen_smooth_dvf(small, seed=split_seed(7, f"train{i}"))
              for i in range(30)]
    sub = tomoreg.build_subspace(fields, 0.99)
    op = tomoreg.DrrOperator(tomoreg.grid_for(small), tomoreg.geometry_for(small),
                             tomoreg.step_for(small))
    pair = tomoreg.make_pair(small, split_seed(7, "pair0"), drr_op=op)
    rng = np.random.default_rng(7)
    setup = [f.data for f in fields] + [
        sub.mean, sub.basis, sub.singular_values,
        op.forward(rng.random(op.grid.dims)),
        op.adjoint(rng.random(op.geometry.detector_dims + (op.geometry.n_emitters,))),
        op._counts]
    setup += [pair.source.data, pair.target.data, pair.source_mask.data,
              pair.target_mask.data, pair.projections.data, pair.lm_src.ids,
              pair.lm_src.points, pair.lm_tgt.ids, pair.lm_tgt.points, pair.u_true.data,
              tomoreg.lift3d(pair.projections, pair.source.grid).data]
    assert out["setup_sha256"] == hashlib.sha256(
        b"".join(part.tobytes() for part in setup)).hexdigest()
    alpha2, u2, report2 = tomoreg.register_subspace_2d(
        pair.source, pair.projections, pair.source_mask, sub,
        tomoreg.LossConfig(0.1, "sim2d"), tomoreg.OptimConfig(max_iters=200), drr_op=op)
    alpha3, u3, report3 = tomoreg.register_subspace_3d(
        pair.source, pair.target, pair.source_mask, pair.target_mask, sub,
        tomoreg.LossConfig(0.1, "sim3d"), tomoreg.OptimConfig(max_iters=200))
    ud, reportd = tomoreg.register_dense_3d(
        pair.source, pair.target, pair.source_mask, pair.target_mask,
        tomoreg.LossConfig(0.1, "sim3d"), tomoreg.OptimConfig(max_iters=30))
    assert [out[f"{name}_iterations"] for name in ("register2d", "register3d", "dense")] == [
        report2.iterations, report3.iterations, reportd.iterations]
    outputs = [alpha2, u2.data, report2.loss_trace, alpha3, u3.data, report3.loss_trace,
               ud.data, reportd.loss_trace]
    evaluation = tomoreg.evaluate_registration(ud, pair.lm_src, pair.lm_tgt,
                                               pair.source_mask, pair.target_mask)
    want = hashlib.sha256(b"".join(np.asarray(part).tobytes() for part in outputs)
                          + json.dumps(evaluation.to_dict()).encode()).hexdigest()
    assert out["outputs_sha256"] == want
