"""Tests of the benchmark itself, at smoke sizes (N = 8, a few steps, width 32).

Run from the root of the repository:

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import bench  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import summarize  # noqa: E402

SPEC = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())


def _run_smoke(capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.001",
                   "--trace", str(trace)], profile="smoke")
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(capsys, workload):
    lines, result = _run_smoke(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in list(want.items()) + [("fail_ratio", "1")]:
        assert any(line.startswith(f"{name} ") and f" {unit} " in line for line in lines), name
    assert any(line.startswith("env ") for line in lines)

    lines, result = _run_smoke(capsys, workload, trace=1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 16])


def _make_hermitian(path):
    head, _, payload = path.read_bytes().partition(b"\n")
    W = np.frombuffer(payload, dtype="<c16")
    path.write_bytes(head + b"\n" + (1j * W).astype("<c16").tobytes())


@pytest.mark.parametrize("corrupt", [_truncate, _make_hermitian], ids=["truncated", "non-skew"])
def test_corrupted_output_raises_fail_ratio(monkeypatch, corrupt):
    real_worker = bench._Run.worker

    def worker(self, job):
        res = real_worker(self, job)
        if job["mode"] == "command":
            out = Path(job["argv"][job["argv"].index("--out") + 1])
            corrupt(out / "final_vorticity.qmat")
        return res

    monkeypatch.setattr(bench._Run, "worker", worker)
    printed = []
    line = bench.run("vorticity-n128", 3, 0.001, 0, profile="smoke", emit=printed.append)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] >= 1
    assert any(p.startswith("fail_ratio 1.0 ") for p in printed)


def test_blob_check_passes_clean_outputs_and_rejects_a_moved_start(tmp_path):
    spec = workloads.prepare("blob-n128", tmp_path, 5, "smoke")
    r = bench._Run(tmp_path, spec)
    out = tmp_path / "out"
    res = r.worker({"mode": "command", "argv": spec["argv"] + ["--out", str(out)],
                    "trace": False, "spans": str(tmp_path / "spans.json")})
    assert res["rc"] == 0
    assert spec["check"](out, spec["oracle"]) == []
    spec["oracle"]["z0"] += 1e-3
    assert any("seeded point" in f for f in spec["check"](out, spec["oracle"]))


def test_seeded_inputs_repeat_and_differ():
    assert np.array_equal(workloads.seeded_vorticity(4), workloads.seeded_vorticity(4))
    assert not np.array_equal(workloads.seeded_vorticity(4), workloads.seeded_vorticity(5))
    v = workloads.seeded_vorticity(4)
    assert v[0] == 0 and np.isclose(np.linalg.norm(v), workloads.VORTICITY_NORM)
    p = workloads.seeded_point(4)
    assert np.isclose(np.linalg.norm(p), 1.0) and -0.8 <= p[2] <= 0.6


def test_summarize_self_times_and_fixed_point_iterations():
    spans = [
        ["dynamics.evolve", -1, 0.0, 10.0, None],
        ["dynamics.isomp_step", 0, 1.0, 5.0, None],
        ["laplacian.solve_stream", 1, 1.0, 2.0, None],
        ["laplacian.solve_stream", 1, 2.0, 3.0, None],
        ["laplacian.solve_stream", 1, 3.0, 4.0, None],
        ["laplacian.decompose", 4, 3.0, 3.5, None],
    ]
    m, detail = summarize(spans, 12.0)
    assert m["dynamics.isomp_step.calls"] == 1
    assert m["dynamics.fixed_point_iters"] == 2
    assert m["dynamics.isomp_step.self_s"] == 1.0
    assert m["dynamics.evolve.self_s"] == 6.0
    assert m["laplacian.solve_stream.s"] == 3.0
    assert m["cli.self_s"] == 2.0
    assert detail["self_sum_s"] + m["cli.self_s"] == 12.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deform-render", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
