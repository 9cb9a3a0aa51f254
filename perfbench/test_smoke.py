"""Smoke test of the benchmark harness at its smallest size (--seconds 1).

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced (about two minutes on two
cores) and checks the result line against BENCHMARK.json.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_self_time_subtracts_children():
    spans = [Span(0, "bench.pass", 0.0, 10.0, None, 0),
             Span(1, "radial.solve_ground", 1.0, 4.0, 0, 0),
             Span(2, "observables.compute_integrals", 4.0, 4.5, 0, 0)]
    assert self_times(spans) == {"bench": 6.5, "radial": 3.0, "observables": 0.5}


def test_tracer_records_parent_and_operation():
    tracer = Tracer(enabled=True)
    with tracer.span("bench.pass"):
        with tracer.span("bench.solve", new_op=True):
            with tracer.span("radial.solve_ground"):
                pass
    with tracer.span("bench.idle"):
        pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["radial.solve_ground"].parent == by_name["bench.solve"].span_id
    assert by_name["radial.solve_ground"].op == by_name["bench.solve"].op
    assert by_name["bench.solve"].op != by_name["bench.pass"].op
    assert by_name["bench.idle"].parent is None
    disabled = Tracer()
    with disabled.span("bench.pass"):
        pass
    assert disabled.spans == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smallest_size(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
