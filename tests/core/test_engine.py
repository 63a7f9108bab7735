"""The parallel experiment engine: specs, configs, fan-out, determinism."""

import gc
import multiprocessing
import pickle
import signal

import pytest

from repro.core.executor import (
    EngineError,
    EngineRun,
    MachineConfig,
    ProgressEvent,
    RunSpec,
    execute_spec,
    parallel_map,
    shard_boundaries,
)
from repro.core.scheduler import run_specs
from repro.core.histogram_io import result_to_json
from repro.core.monitor import UPCMonitor
from repro.cpu import VAX780

SMALL = dict(instructions=600, warmup_instructions=150)


class TestMachineConfig:
    def test_baseline_config_changes_nothing(self):
        machine = VAX780(monitor=UPCMonitor.build())
        cache, tb, wb = machine.memory.cache, machine.memory.tb, machine.memory.write_buffer
        MachineConfig().apply(machine)
        assert machine.memory.cache is cache
        assert machine.memory.tb is tb
        assert machine.memory.write_buffer is wb

    def test_overrides_replace_components(self):
        machine = VAX780(monitor=UPCMonitor.build())
        config = MachineConfig(
            cache_size_bytes=2 * 1024,
            tb_half_entries=16,
            wb_drain_cycles=12,
            decode_overlap=True,
            float_slowdown=3,
        )
        config.apply(machine)
        cache = machine.memory.cache
        assert cache.sets * cache.ways * cache.block_size == 2 * 1024
        assert machine.memory.tb.half_entries == 16
        assert machine.memory.write_buffer.drain_cycles == 12
        assert machine.ebox.decode_overlap is True
        assert machine.ebox.float_slowdown == 3

    def test_describe(self):
        assert MachineConfig().describe() == "baseline"
        assert "cache=2KB" in MachineConfig(cache_size_bytes=2048).describe()
        assert "tb=16+16" in MachineConfig(tb_half_entries=16).describe()

    def test_config_and_spec_pickle(self):
        # Specs cross the process-pool boundary; this is the contract.
        spec = RunSpec(
            workload="scientific", config=MachineConfig(tb_half_entries=32)
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestRunSpec:
    def test_name_defaults_to_workload(self):
        assert RunSpec(workload="scientific").name == "scientific"

    def test_name_reflects_config_and_label(self):
        spec = RunSpec(workload="scientific", config=MachineConfig(tb_half_entries=16))
        assert spec.name == "scientific[tb=16+16]"
        assert RunSpec(workload="scientific", label="mine").name == "mine"


class TestExecuteSpec:
    def test_payload_shape(self):
        run = execute_spec(RunSpec(workload="timesharing_light", **SMALL))
        assert isinstance(run, EngineRun)
        assert run.result.instructions >= SMALL["instructions"]
        assert run.wall_seconds > 0
        counts, stalled = run.histogram
        # The sparse dump carries the same cycle mass the reduction saw.
        assert sum(counts.values()) + sum(stalled.values()) == int(
            run.result.reduction.total_cycles
        )

    def test_payload_carries_manifest_and_metrics(self):
        spec = RunSpec(workload="timesharing_light", **SMALL)
        run = execute_spec(spec)
        manifest = run.manifest
        assert manifest is not None
        assert manifest.spec_name == spec.name
        assert manifest.workload == "timesharing_light"
        assert manifest.wall_seconds > 0
        assert manifest.instructions_measured == run.result.instructions
        assert manifest.cycles_measured == run.result.stats.cycles
        metrics = run.metrics
        assert metrics["histograms"]["phase.measure.seconds"]["count"] == 1
        assert metrics["gauges"]["speed.instructions_per_second"] > 0

    def test_config_changes_the_measurement(self):
        base = execute_spec(RunSpec(workload="timesharing_light", **SMALL))
        tiny_tb = execute_spec(
            RunSpec(
                workload="timesharing_light",
                config=MachineConfig(tb_half_entries=8),
                **SMALL
            )
        )
        assert tiny_tb.result.stats.tb_misses > base.result.stats.tb_misses


def _machine_memories() -> int:
    from repro.memory.physical import PhysicalMemory

    return sum(1 for obj in gc.get_objects() if type(obj) is PhysicalMemory)


@pytest.mark.parametrize("shards", [1, 2], ids=["whole", "sharded"])
def test_a_finished_spec_task_leaves_no_machine_behind(shards):
    # A dead machine is a reference cycle holding an 8 MB memory array;
    # a worker running spec after spec must not keep a pile of them.
    from repro.core.executor import _execute_guarded

    before = _machine_memories()
    for offset in range(3):
        spec = RunSpec(workload="timesharing_light", seed_offset=offset, **SMALL)
        outcome = _execute_guarded(spec, shards, None)
        assert outcome[0] == "ok"
        assert _machine_memories() <= before


class TestRunSpecs:
    def test_sequential_matches_parallel_bit_for_bit(self):
        specs = [
            RunSpec(workload="timesharing_light", **SMALL),
            RunSpec(workload="scientific", **SMALL),
        ]
        sequential = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=2)
        for seq, par in zip(sequential, parallel):
            assert seq.histogram == par.histogram
            assert result_to_json(seq.result) == result_to_json(par.result)

    def test_order_is_preserved(self):
        specs = [
            RunSpec(workload=name, **SMALL)
            for name in ("scientific", "timesharing_light")
        ]
        runs = run_specs(specs, jobs=2)
        assert [run.spec.workload for run in runs] == [
            "scientific",
            "timesharing_light",
        ]

    def test_duplicates_execute_once_and_keep_order(self):
        # The module front door is a Scheduler sweep: a repeated spec
        # runs once and comes back attached, bit-identical.
        events = []
        duplicate = RunSpec(workload="timesharing_light", **SMALL)
        specs = [duplicate, duplicate, RunSpec(workload="scientific", **SMALL)]
        runs = run_specs(specs, jobs=2, progress=events.append)
        assert sorted(e.index for e in events if e.kind == "start") == [0, 2]
        assert [run.spec.workload for run in runs] == [
            "timesharing_light", "timesharing_light", "scientific",
        ]
        first, second, _ = runs
        assert first.manifest.attached_to is None
        assert second.manifest.attached_to == first.manifest.config_hash
        assert second.wall_seconds == second.manifest.wall_seconds == 0.0
        assert second.histogram == first.histogram
        assert result_to_json(second.result) == result_to_json(first.result)

    def test_pool_workers_are_joined_on_return(self):
        specs = [
            RunSpec(workload=name, **SMALL)
            for name in ("scientific", "timesharing_light")
        ]
        run_specs(specs, jobs=2)
        assert multiprocessing.active_children() == []

    def test_seed_offset_perturbs_the_run(self):
        # seed_offset reseeds the kernel's device-jitter streams, so the
        # run must be long enough for device timers to actually fire.
        long = dict(instructions=2_500, warmup_instructions=500)
        base, shifted = run_specs(
            [
                RunSpec(workload="timesharing_light", **long),
                RunSpec(workload="timesharing_light", seed_offset=17, **long),
            ],
            jobs=1,
        )
        assert base.histogram != shifted.histogram


class TestProgressAndFailures:
    def test_progress_events_sequential(self):
        events = []
        specs = [
            RunSpec(workload="timesharing_light", **SMALL),
            RunSpec(workload="scientific", **SMALL),
        ]
        run_specs(specs, jobs=1, progress=events.append)
        assert [(e.kind, e.name) for e in events if e.kind == "start"] == [
            ("start", "timesharing_light"),
            ("start", "scientific"),
        ]
        done = [e for e in events if e.kind == "done"]
        assert {e.name for e in done} == {"timesharing_light", "scientific"}
        assert all(e.wall_seconds > 0 for e in done)
        assert all(e.total == 2 for e in events)

    def test_progress_events_parallel(self):
        events = []
        specs = [
            RunSpec(workload="timesharing_light", **SMALL),
            RunSpec(workload="scientific", **SMALL),
        ]
        run_specs(specs, jobs=2, progress=events.append)
        kinds = [e.kind for e in events]
        assert kinds.count("start") == 2
        assert kinds.count("done") == 2

    def test_failing_spec_names_itself_sequential(self):
        specs = [
            RunSpec(workload="timesharing_light", **SMALL),
            RunSpec(workload="no_such_workload", label="doomed", **SMALL),
        ]
        with pytest.raises(EngineError) as excinfo:
            run_specs(specs, jobs=1)
        assert excinfo.value.spec_name == "doomed"
        assert "no_such_workload" in excinfo.value.worker_traceback
        assert "doomed" in str(excinfo.value)

    def test_failing_spec_names_itself_parallel(self):
        events = []
        specs = [
            RunSpec(workload="no_such_workload", label="doomed", **SMALL),
            RunSpec(workload="timesharing_light", **SMALL),
        ]
        with pytest.raises(EngineError) as excinfo:
            run_specs(specs, jobs=2, progress=events.append)
        assert excinfo.value.spec_name == "doomed"
        # The worker-side traceback crossed the pickle boundary intact.
        assert "no_such_workload" in excinfo.value.worker_traceback
        assert "Traceback" in excinfo.value.worker_traceback
        errored = [e for e in events if e.kind == "error"]
        assert len(errored) == 1 and errored[0].name == "doomed"

    def test_progress_event_is_frozen(self):
        event = ProgressEvent("start", 0, 1, "x")
        with pytest.raises(Exception):
            event.kind = "done"


def _square(value):
    return value * value


def _sigint_handler(_):
    return signal.getsignal(signal.SIGINT)


class TestParallelMap:
    def test_sequential_and_parallel_agree(self):
        items = list(range(8))
        assert parallel_map(_square, items, jobs=1) == [v * v for v in items]
        assert parallel_map(_square, items, jobs=3) == [v * v for v in items]

    def test_empty_and_single(self):
        assert parallel_map(_square, [], jobs=4) == []
        assert parallel_map(_square, [5], jobs=4) == [25]

    def test_workers_ignore_sigint(self):
        # A Ctrl-C reaches the whole process group; the owner, not each
        # worker, decides what it stops.
        assert parallel_map(_sigint_handler, range(2), jobs=2) == [signal.SIG_IGN] * 2
        assert multiprocessing.active_children() == []


class TestShardBoundaries:
    def test_one_shard_is_the_whole_span(self):
        assert shard_boundaries(600, 1) == [0, 600]

    def test_even_split(self):
        assert shard_boundaries(600, 4) == [0, 150, 300, 450, 600]

    def test_uneven_split_covers_everything(self):
        bounds = shard_boundaries(10, 3)
        assert bounds == [0, 3, 6, 10]
        assert sum(b - a for a, b in zip(bounds, bounds[1:])) == 10

    def test_aligned_shard_counts_share_boundaries(self):
        # i*N//K means K=2 boundaries are a subset of K=4's whenever
        # 2 divides 4 — the property the snapshot cache reuse rests on.
        assert set(shard_boundaries(600, 2)) <= set(shard_boundaries(600, 4))

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_boundaries(600, 0)


@pytest.fixture(scope="module")
def reference_run():
    """The uninterrupted single-shard reference every sharded variant
    must reproduce byte for byte."""
    return execute_spec(RunSpec(workload="timesharing_light", **SMALL))


def _assert_bit_identical(sharded, reference):
    assert sharded.histogram == reference.histogram
    assert result_to_json(sharded.result) == result_to_json(reference.result)
    assert sharded.result.events == reference.result.events
    assert sharded.result.stats == reference.result.stats


class TestExecuteSpecSharded:
    def test_three_shards_no_cache_bit_identical(self, reference_run):
        spec = RunSpec(workload="timesharing_light", **SMALL)
        sharded = execute_spec(spec, shards=3)
        _assert_bit_identical(sharded, reference_run)
        assert sharded.shard_count == 3
        assert sharded.shards_from_cache == 0
        assert sharded.manifest.shards == 3
        assert sharded.manifest.shards_from_cache == 0

    def test_sharded_run_records_the_phase_split(self):
        # A sharded run builds, warms up and measures like a whole one,
        # and its metrics must say how long each phase took.
        spec = RunSpec(workload="timesharing_light", **SMALL)
        metrics = execute_spec(spec, shards=3).metrics
        histograms = metrics["histograms"]
        for phase in ("build", "warmup", "measure"):
            assert histograms["phase.{}.seconds".format(phase)]["count"] == 1
        assert histograms["phase.measure.seconds"]["sum"] > 0
        assert metrics["gauges"]["speed.instructions_per_second"] > 0

    def test_single_shard_is_a_passthrough(self, reference_run):
        spec = RunSpec(workload="timesharing_light", **SMALL)
        run = execute_spec(spec, shards=1)
        _assert_bit_identical(run, reference_run)
        assert run.shard_count == 1

    def test_shards_clamped_to_instruction_budget(self):
        spec = RunSpec(workload="timesharing_light", instructions=3, warmup_instructions=50)
        run = execute_spec(spec, shards=100)
        assert run.shard_count == 3

    def test_cold_then_warm_cache(self, reference_run, tmp_path):
        from repro.core.runcache import RunCache

        spec = RunSpec(workload="timesharing_light", **SMALL)
        cache = RunCache(str(tmp_path / "cache"))

        cold = execute_spec(spec, shards=4, cache=cache)
        _assert_bit_identical(cold, reference_run)
        assert cold.shards_from_cache == 0
        assert cache.puts > 0

        warm = execute_spec(spec, shards=4, cache=cache)
        _assert_bit_identical(warm, reference_run)
        assert warm.shards_from_cache == 4
        assert warm.manifest.shards_from_cache == 4

    def test_different_shard_count_reuses_boundary_snapshots(
        self, reference_run, tmp_path, monkeypatch
    ):
        # K=4 banks snapshots at 0/150/300/450; a later K=2 run of the
        # same spec shares the 0 and 300 boundaries, so both of its
        # shards restore from cache instead of re-simulating from boot —
        # and the merge is still bit-identical.  Structural proof: with
        # every start snapshot cached, the engine must never build a
        # machine from scratch, so prepare_workload is poisoned.
        import repro.core.experiment as experiment_module
        from repro.core.runcache import RunCache

        spec = RunSpec(workload="timesharing_light", **SMALL)
        cache = RunCache(str(tmp_path / "cache"))
        execute_spec(spec, shards=4, cache=cache)

        def _must_not_rebuild(*args, **kwargs):
            raise AssertionError(
                "boundary snapshots were cached; rebuilding from boot "
                "means the cache was bypassed"
            )

        monkeypatch.setattr(experiment_module, "prepare_workload", _must_not_rebuild)
        halved = execute_spec(spec, shards=2, cache=cache)
        _assert_bit_identical(halved, reference_run)
        assert halved.shard_count == 2
        # The poison is live: a run with nothing cached must build from
        # boot through the patched seam, and trips it.
        with pytest.raises(EngineError, match="rebuilding from boot"):
            execute_spec(spec, shards=2)

    def test_sharded_progress_events_name_the_shards(self):
        events = []
        spec = RunSpec(workload="timesharing_light", **SMALL)
        execute_spec(spec, shards=3, progress=events.append)
        names = [e.name for e in events if e.kind == "start"]
        assert names == [
            "timesharing_light[shard 1/3]",
            "timesharing_light[shard 2/3]",
            "timesharing_light[shard 3/3]",
        ]
        done = [e for e in events if e.kind == "done"]
        assert len(done) == 3

    def test_cached_manifest_still_reflects_this_run(self, tmp_path):
        # Replayed shards must not leak the cold run's wall-clock or
        # identity into the warm manifest.
        from repro.core.runcache import RunCache

        spec = RunSpec(workload="timesharing_light", **SMALL)
        cache = RunCache(str(tmp_path / "cache"))
        cold = execute_spec(spec, shards=2, cache=cache)
        warm = execute_spec(spec, shards=2, cache=cache)
        assert warm.manifest.config_hash == cold.manifest.config_hash
        assert warm.manifest.started_at >= cold.manifest.started_at
