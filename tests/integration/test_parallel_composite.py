"""Determinism of the parallel composite: jobs=4 must reproduce jobs=1
bit for bit — histograms, event counters, and the Table 8 matrix.

These tests are the acceptance gate for the parallel engine: fan-out is
only admissible because the results are indistinguishable from the
sequential reference.
"""

import json
import os

import pytest

from repro.core.executor import RunSpec
from repro.core.scheduler import run_specs
from repro.core.experiment import run_composite_experiment
from repro.core.histogram_io import result_to_json
from repro.core import tables

SMALL = dict(instructions_per_workload=800, warmup_instructions=200)
WORKLOADS = ["timesharing_light", "scientific"]


@pytest.fixture(scope="module")
def sequential():
    return run_composite_experiment(workloads=WORKLOADS, jobs=1, **SMALL)


@pytest.fixture(scope="module")
def parallel():
    return run_composite_experiment(workloads=WORKLOADS, jobs=4, **SMALL)


class TestParallelCompositeDeterminism:
    def test_full_payload_bit_identical(self, sequential, parallel):
        # result_to_json covers the reduction matrix, routine cycles,
        # event counters and machine stats; serialized forms must match
        # byte for byte.
        seq = json.dumps(result_to_json(sequential), sort_keys=True)
        par = json.dumps(result_to_json(parallel), sort_keys=True)
        assert seq == par

    def test_event_counters_identical(self, sequential, parallel):
        assert sequential.events.instructions == parallel.events.instructions
        assert sequential.events.opcode_counts == parallel.events.opcode_counts
        assert sequential.events.specifier_counts == parallel.events.specifier_counts

    def test_table8_matrix_identical(self, sequential, parallel):
        assert tables.table8(sequential) == tables.table8(parallel)

    def test_raw_histogram_dumps_identical(self):
        specs = [RunSpec(workload=name, instructions=800, warmup_instructions=200) for name in WORKLOADS]
        seq_runs = run_specs(specs, jobs=1)
        par_runs = run_specs(specs, jobs=4)
        for seq, par in zip(seq_runs, par_runs):
            assert seq.histogram == par.histogram


class TestCompositePlumbing:
    def test_per_workload_overrides(self):
        plain = run_composite_experiment(workloads=WORKLOADS, jobs=1, **SMALL)
        overridden = run_composite_experiment(
            workloads=WORKLOADS,
            jobs=1,
            overrides={"scientific": {"instructions": 400}},
            **SMALL
        )
        assert overridden.instructions < plain.instructions

    def test_global_process_count(self):
        # One generated process per workload runs fine and still measures.
        result = run_composite_experiment(
            workloads=WORKLOADS, jobs=1, process_count=1, **SMALL
        )
        # The kernel loop can land a hair under the budget; near-full
        # measurement with a one-process population is what matters.
        assert result.instructions >= 2 * SMALL["instructions_per_workload"] * 0.95


def _worker_pid(_index: int) -> int:
    # A short sleep holds the first worker busy long enough that the
    # pool hands remaining items to other workers, even on one core.
    import time

    time.sleep(0.05)
    return os.getpid()


class TestParallelFanOut:
    """jobs=4 genuinely fans out over worker processes.

    Structural replacement for the old wall-clock speedup assertion,
    which could only run on >= 4 free cores and therefore skipped
    everywhere that mattered; process identity is deterministic on any
    machine, and wall-clock claims live in benchmarks/perf/bench_engine.py
    (and TestShardedRerunSpeedup below, which does not need spare cores).
    """

    def test_specs_execute_outside_the_coordinator(self):
        from repro.core.executor import parallel_map

        pids = parallel_map(_worker_pid, range(4), jobs=4)
        assert len(pids) == 4
        assert os.getpid() not in pids
        assert len(set(pids)) >= 2


class TestShardedRerunSpeedup:
    def test_warm_cache_rerun_is_faster(self, tmp_path):
        import time

        from repro.core.executor import execute_spec
        from repro.core.runcache import RunCache

        spec = RunSpec(
            workload="educational", instructions=1_200, warmup_instructions=300
        )
        cache = RunCache(str(tmp_path / "cache"))
        started = time.perf_counter()
        cold = execute_spec(spec, shards=4, cache=cache)
        cold_wall = time.perf_counter() - started
        started = time.perf_counter()
        warm = execute_spec(spec, shards=4, cache=cache)
        warm_wall = time.perf_counter() - started
        assert warm.shards_from_cache == 4
        # Replaying four finished shards is pure deserialization; even a
        # conservative 2x bound leaves a wide margin (typically > 20x).
        assert warm_wall < cold_wall / 2
        assert result_to_json(warm.result) == result_to_json(cold.result)
        assert warm.histogram == cold.histogram
