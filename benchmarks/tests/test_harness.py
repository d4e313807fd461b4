"""Tests of the benchmark harness itself, on reduced (smoke) inputs.

    python3 -m pytest -q benchmarks/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CONTRACT = json.load(f)
with open(os.path.join(BENCH, "workloads.json")) as f:
    WORKLOADS = sorted(json.load(f))


def _run(args, cwd=ROOT, out=None):
    cmd = [sys.executable] + CONTRACT["command"][1:] + args + (["--out", str(out)] if out else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _declared(section):
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload, tmp_path):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", "0", "--smoke"], out=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((tmp_path / f"{workload}-seed3-trace0.json").read_text())
    prov = record["provenance"]
    assert prov["seed"] == 3 and prov["params"]
    assert "OPENBLAS_NUM_THREADS" in prov["blas_env"] and prov["nproc"] >= 1


def test_traced_run_reports_every_layer_metric(tmp_path):
    proc = _run(["--workload", "ovo-10class", "--seed", "1", "--seconds", "0.1",
                 "--trace", "1", "--smoke"], out=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["multiclass.ovo_train_s"] > 0 and m["data.binary_view_calls"] == 3
    assert m["multiclass.scaling_eff"] > 0 and m["qp.solve_calls"] > 0
    spans = json.loads((tmp_path / "ovo-10class-seed1-trace1-spans.json").read_text())
    assert {"harness.job", "trainer.train", "qp.recover"} <= {s["name"] for s in spans}


def _lookup_sites():
    import spmd.data

    sites = {(name, key): value for name, mod in sys.modules.items()
             if name == "spmd" or name.startswith("spmd.")
             for key, value in vars(mod).items() if callable(value)}
    sites[("MulticlassDataset", "binary_view")] = \
        spmd.data.MulticlassDataset.__dict__["binary_view"]
    return sites


def test_wrapped_functions_are_restored(tmp_path, capsys):
    run.import_spmd()
    before = _lookup_sites()
    code = run.main(["--workload", "ovo-10class", "--seed", "2", "--seconds", "0.1",
                     "--trace", "1", "--smoke", "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().out
    after = _lookup_sites()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_layer_self_times_and_remainder_sum_to_job(tmp_path, capsys):
    code = run.main(["--workload", "tucker-qp", "--seed", "0", "--seconds", "0.1",
                     "--trace", "1", "--smoke", "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().out
    record = json.loads((tmp_path / "tucker-qp-seed0-trace1.json").read_text())
    m = {k: v["value"] for k, v in record["metrics"].items()}
    parts = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert parts + m["harness.remainder_s"] == pytest.approx(
        m["harness.job_traced_s"], rel=1e-9)
    assert m["qp.solve_s"] > 0 and m["trainer.self_s"] > 0
    assert m["harness.overhead_s"] == pytest.approx(
        m["harness.job_traced_s"] - m["harness.job_untraced_s"])


def test_self_times_subtract_children_and_union_overlaps():
    t = tracer.Tracer("spmd")
    with t.span("root"):
        with t.span("a.one"):
            with t.span("b.two"):
                time.sleep(0.002)
        time.sleep(0.001)
        with t.span("a.three"):
            pass
    selfs = tracer.self_times(t.spans)
    root = t.spans[0]
    assert sum(selfs.values()) == pytest.approx(root.duration, rel=1e-12)
    assert all(v >= 0 for v in selfs.values())
    # two overlapping children cover their union once
    spans = [tracer.Span(0, "p", None, 1, 0.0, 10.0),
             tracer.Span(1, "c", 0, 2, 1.0, 5.0),
             tracer.Span(2, "c", 0, 3, 3.0, 7.0)]
    assert tracer.self_times(spans)[0] == pytest.approx(4.0)


class _Result:
    def __init__(self, accuracy=0.9, exit_code=0, failed=0, parts=()):
        self.accuracy, self.exit_code, self.checks_failed = accuracy, exit_code, failed
        self.digest_parts, self.checks, self.certified = list(parts), failed, True


class _Report:
    def __init__(self, objectives):
        self.objectives, self.weight_norms = objectives, [1.0] * len(objectives)
        self.seed, self.n_train = 0, 4


def _outcome(result=None, objectives=(2.0, 1.0), index=0):
    return run.Outcome(index, 1.0, result or _Result(), [_Report(list(objectives))], 0)


def test_output_checks_flag_each_failure():
    spmd = run.import_spmd()
    good = _outcome()
    assert run.check([good, good, _outcome(index=1, objectives=(3.0, 1.0))],
                     spmd, 0.8, 0.9) == []
    assert any("floor" in p for p in run.check([good], spmd, 0.8, 0.7))
    rising = _outcome(objectives=(1.0, 2.0))
    assert any("descent" in p for p in run.check([rising], spmd, 0.8, 0.9))
    rising.result.certified = False
    assert run.check([rising], spmd, 0.8, 0.9) == []
    crashed = _outcome(_Result(exit_code=3))
    assert any("returned 3" in p for p in run.check([crashed], spmd, 0.8, 0.9))
    unexplained = _outcome(_Result(exit_code=1))
    assert any("returned 1" in p for p in run.check([unexplained], spmd, 0.8, 0.9))
    failed_rows = _outcome(_Result(exit_code=1, failed=2))
    assert run.check([failed_rows], spmd, 0.8, 0.9) == []
    assert failed_rows.failed == 2
    other = _outcome(_Result(parts=[1]))
    assert any("different" in p for p in run.check([good, other], spmd, 0.8, 0.9))


def test_gated_workloads_are_defined():
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
