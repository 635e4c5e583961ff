"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/test_smoke.py

It is not part of the library's test suite (pytest's testpaths is
`tests/`). It runs every workload once untraced and once traced at
`--size tiny --seconds 0`, which is one round of calls, and checks the
output contract, the span tree and the refusal to run without the library.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    report = json.loads(lines[-2])["report"]
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0, proc.stderr
    assert last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in last["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    for name, v in last["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
        assert math.isfinite(v["value"]), name
        if not trace:
            assert v["value"] > 0, name
    # every metric is also printed by name with its unit
    for name, v in last["metrics"].items():
        assert any(line.split()[:1] == [name] and line.endswith(v["unit"])
                   for line in lines), name
    assert report["provenance"]["python"]
    if not trace:
        assert report["speed"]["samples"] >= run.MIN_SAMPLES
        assert report["wall"]["call_s"] > 0
    if trace:
        assert set(report["layers"]) >= {n for n, _ in run.LAYER_REPORT_ONLY}
        assert "call_s_traced" in report["overhead"]


def test_benchmark_json_declares_what_the_code_emits():
    assert ([(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
            == list(run.E2E_METRICS))
    assert ([(m["name"], m["unit"]) for m in SPEC["per_layer"]]
            == list(run.LAYER_EXPORT))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def test_speedometer_scales_to_reference_speed():
    speed = run.Speedometer()
    # a kernel twice as slow as the reference, sampled every 0.1 s, each
    # sample holding up the timed work for 0.01 s
    speed.samples = [(0.1 * i, 2 * run.REFERENCE_S, 0.01) for i in range(20)]
    # ten samples inside: their time is taken off, the rest is halved
    assert speed.scaled(0.05, 1.05, 1.0) == pytest.approx((1.0 - 0.1) / 2)
    assert speed.scaled(0.05, 1.05, 0.5) == pytest.approx(0.9 / 2 ** 0.5)
    # none inside: the nearest four give the speed
    assert speed.scaled(0.51, 0.52, 1.0) == pytest.approx(0.01 / 2)
    with run.Speedometer() as live:
        time.sleep(5 * run.SAMPLE_PERIOD_S)
    assert len(live.samples) >= 3
    assert all(kernel > 0 and busy >= kernel for _, kernel, busy in
               live.samples)


def test_spans_nest_and_self_times_add_up(tmp_path):
    w = workloads.make("holonomy-sweep", 3, "tiny", tmp_path, ROOT / "src",
                       BENCH)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        root = tracer.wrap("bench.call", lambda: w.call(w.setup(), 0))
        t0 = time.perf_counter()
        root()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    import algpaths.comorph
    assert not hasattr(algpaths.comorph.lift_path, "__wrapped__")

    assert tracer.dropped == 0
    spans = {s[0]: s for s in tracer.spans}
    roots = [s for s in spans.values() if s[1] == 0]
    assert [s[2] for s in roots] == ["bench.call"]
    for span_id, parent, name, start, end in spans.values():
        assert start <= end, name
        if parent:
            _, _, pname, pstart, pend = spans[parent]
            assert pstart <= start and end <= pend, (name, pname)
    for name, st in tracer.stats.items():
        assert st.self_time >= -1e-9, name
        assert st.self_time <= st.total + 1e-9, name
    self_sum = sum(st.self_time for st in tracer.stats.values())
    root_total = tracer.stats["bench.call"].total
    assert self_sum <= wall + 1e-6
    assert abs(self_sum - root_total) <= 1e-6 * max(1.0, root_total)
    assert tracer.stats["expr.fn"].count > 0
    assert tracer.counters["numkernel.rk4_steps"] == 3 * w.grid


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "holonomy-sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
