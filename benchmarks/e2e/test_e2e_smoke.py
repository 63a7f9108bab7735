"""One round of each workload at tiny sizes, untraced and traced."""

import os
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads

TINY = workloads.Sizes(
    composite_instructions=300,
    composite_warmup=100,
    steady_warmup=1_000,
    steady_instructions=1_600,
    steady_windows=4,
    sweep_instructions=600,
    sweep_warmup=200,
    service_instructions=300,
    service_warmup=100,
    min_units=1,
)


@pytest.fixture
def ctx(tmp_path, monkeypatch):
    for key, value in workloads.child_env(str(tmp_path)).items():
        monkeypatch.setenv(key, value)
    return workloads.Context(seed=3, seconds=0, tmp=str(tmp_path), sizes=TINY)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_round_checks_out(ctx, name):
    record = workloads.run(name, ctx, trace=False)
    assert record["failed"] == 0, record["errors"]
    assert record["attempted"] > 0
    metrics = run.end_to_end(record)
    assert set(metrics) == {metric[0] for metric in run.END_TO_END}
    assert all(metric["value"] > 0 for metric in metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_round_yields_every_layer_metric(ctx, name):
    record = workloads.run(name, ctx, trace=True)
    assert record["failed"] == 0, record["errors"]
    metrics = run.per_layer(record)
    assert list(metrics) == [metric[0] for metric in layers.per_layer_metrics()]
    shares = sum(metrics[layer + ".share"]["value"] for layer in layers.LAYER_NAMES)
    assert shares == pytest.approx(1.0, abs=0.01)
    assert metrics["trace.profiled_s"]["value"] > 0
    assert all(metrics[layer + ".ns_per_instr"]["value"] > 0 for layer in layers.IN_MACHINE)


def test_run_fails_without_the_program_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark directory: no result."""
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "tables-cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
