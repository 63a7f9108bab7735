"""Differential harness: the compiled replay path vs the interpreter.

The replay compiler (:mod:`repro.core.compile`) promises bit-identical
results to the interpreted microcode walk — same histograms, same event
counters, same hardware stats, same machine state, same snapshots.
This file holds it to that promise:

* every workload profile, run compiled and under ``REPRO_NO_COMPILE=1``,
  must serialize to the same bytes (histogram banks included), and the
  compiled arm must actually have replayed instructions — likewise one
  profile under the decode-overlap ablation, where the replayed decode
  cycle depends on the previous instruction;
* an attached tracer forces the slow path yet changes nothing;
* interrupt delivery, a cycle budget ending at a device's fire time,
  and a loop branch falling through leave both machines identical;
* mid-run snapshots from the two modes carry identical digests (the
  compiler's caches and stats are deliberately outside machine state);
* the engine's run manifest records whether the compiler was active,
  for sharded runs too;
* randomized specifier-mode programs (hypothesis) leave both machines
  in exactly the same architectural state, cycle for cycle.
"""

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import Assembler
from repro.core import compile as replay
from repro.core.executor import MachineConfig, RunSpec, execute_spec
from repro.core.experiment import (
    MachineStats,
    prepare_workload,
    result_from_machine,
)
from repro.core.histogram_io import result_to_json
from repro.core.monitor import UPCMonitor
from repro.core.snapshot import capture
from repro.cpu import VAX780
from repro.obs.trace import Tracer
from repro.workloads import PROFILES

INSTRUCTIONS = 700
WARMUP = 200


@pytest.fixture(autouse=True)
def _own_the_gate(monkeypatch):
    # These tests control the env gate themselves; a globally exported
    # REPRO_NO_COMPILE (the CI interpreted tier-1 leg) would otherwise
    # collapse both arms onto the interpreter.
    monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)


@contextmanager
def interpreter():
    """Force the interpreted path for machines built inside the block."""
    prior = os.environ.get(replay.NO_COMPILE_ENV)
    os.environ[replay.NO_COMPILE_ENV] = "1"
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop(replay.NO_COMPILE_ENV, None)
        else:
            os.environ[replay.NO_COMPILE_ENV] = prior


@contextmanager
def compiler():
    """Force the compiled path (clear the gate) inside the block.

    Needed where the autouse monkeypatch cannot reach: module-scoped
    fixtures are set up before function-scoped autouse fixtures run.
    """
    prior = os.environ.pop(replay.NO_COMPILE_ENV, None)
    try:
        yield
    finally:
        if prior is not None:
            os.environ[replay.NO_COMPILE_ENV] = prior


def measured_run(
    profile, tracer=None, instructions=INSTRUCTIONS, warmup=WARMUP, config=None
):
    """One measured workload run; returns (result, board, machine)."""
    kernel, monitor = prepare_workload(
        profile, tracer=tracer, configure=config.apply if config else None
    )
    machine = kernel.machine
    kernel.run(max_instructions=warmup)
    baseline = MachineStats.from_machine(machine)
    kernel.start_measurement()
    kernel.run(max_instructions=instructions)
    kernel.stop_measurement()
    result = result_from_machine(
        machine, monitor, name=profile, stats_baseline=baseline
    )
    return result, monitor.board, machine


#: arm name -> (profile, MachineConfig).  Every profile at the 780
#: baseline, plus the decode-overlap ablation a MachineConfig (and so the
#: service) can ask for: the one configuration where a record's
#: DECODE_TICK op spends its cycle only after a redirect.
ARMS = {profile: (profile, None) for profile in PROFILES}
ARMS["educational+decode_overlap"] = (
    "educational",
    MachineConfig(decode_overlap=True),
)


@pytest.fixture(scope="module", params=sorted(ARMS))
def arms(request):
    """Both arms of one entry of ARMS: (name, compiled triple, interpreted triple)."""
    profile, config = ARMS[request.param]
    with compiler():
        compiled = measured_run(profile, config=config)
    with interpreter():
        interpreted = measured_run(profile, config=config)
    return request.param, compiled, interpreted


class TestWorkloadDifferential:
    def test_serialized_results_bit_identical(self, arms):
        _, (c_result, c_board, _), (i_result, i_board, _) = arms
        assert result_to_json(c_result, c_board) == result_to_json(
            i_result, i_board
        )

    def test_events_stats_and_reduction_equal(self, arms):
        _, (c_result, _, _), (i_result, _, _) = arms
        assert c_result.events == i_result.events
        assert c_result.stats == i_result.stats
        assert c_result.instructions == i_result.instructions
        assert c_result.cpi == i_result.cpi

    def test_compiled_arm_replayed_interpreted_arm_did_not(self, arms):
        profile, (_, _, c_machine), (_, _, i_machine) = arms
        config = ARMS[profile][1]
        overlap = config is not None and config.decode_overlap
        assert c_machine.ebox.decode_overlap is overlap is i_machine.ebox.decode_overlap
        assert c_machine.ebox._compile_active, profile
        assert c_machine.ebox.compile_stats.jit_hits > 0, profile
        assert not i_machine.ebox._compile_active, profile
        assert i_machine.ebox.compile_stats.jit_hits == 0, profile


class TestTracerPassivity:
    def test_tracer_forces_slow_path_and_changes_nothing(self):
        c_result, c_board, _ = measured_run("educational")
        tracer = Tracer()
        t_result, t_board, t_machine = measured_run("educational", tracer=tracer)
        assert not t_machine.ebox._compile_active
        assert t_machine.ebox.compile_stats.jit_hits == 0
        assert len(tracer) > 0
        assert result_to_json(c_result, c_board) == result_to_json(
            t_result, t_board
        )

    def test_trace_stream_identical_across_env_gate(self):
        # With a tracer attached both env settings take the slow path;
        # the streams they record must be byte-for-byte the same.
        tracer_a = Tracer()
        measured_run("educational", tracer=tracer_a)
        tracer_b = Tracer()
        with interpreter():
            measured_run("educational", tracer=tracer_b)
        assert tracer_a.events() == tracer_b.events()


def countdown_program(iterations):
    """A hot five-instruction loop ending in a HALT; returns
    ``(image, budget)`` with a budget that overshoots the program."""
    asm = Assembler(origin=ORIGIN)
    asm.instr("MOVL", "I^#%d" % iterations, "R1")
    asm.instr("CLRL", "R0")
    asm.label("loop")
    asm.instr("ADDL2", "#3", "R0")
    asm.instr("XORL2", "R1", "R0")
    asm.instr("INCL", "R0")
    asm.instr("DECL", "R2")
    asm.instr("SOBGTR", "R1", "loop")
    asm.instr("HALT")
    return asm.assemble(), 2 + 5 * iterations + 50


def machine_state(machine):
    return {
        "regs": [machine.ebox.regs.read(i) for i in range(16)],
        "psl": machine.ebox.psl.pack(),
        "cycles": machine.ebox.cycle_count,
        "halted": machine.ebox.halted,
    }


def kernel_state(kernel):
    state = machine_state(kernel.machine)
    state["devices"] = kernel.devices.state_summary()
    return state


class TestBoundaries:
    def test_interrupt_heavy_run_bit_identical(self):
        # Device interrupts deliver between replayed instructions; a
        # profile with live terminal traffic must serialize identically.
        c_result, c_board, c_machine = measured_run(
            "timesharing_heavy", instructions=4000, warmup=500
        )
        with interpreter():
            i_result, i_board, _ = measured_run(
                "timesharing_heavy", instructions=4000, warmup=500
            )
        assert c_machine.ebox.compile_stats.jit_hits > 0
        assert c_result.events.interrupts_delivered > 0
        assert result_to_json(c_result, c_board) == result_to_json(
            i_result, i_board
        )

    def test_budget_ending_at_device_fire_time(self):
        # Stop exactly where the next device timer fires, then keep
        # going: the poll at that boundary must see the same cycle and
        # the same pending device state in both modes.
        def stopped_kernel():
            kernel, _ = prepare_workload("timesharing_heavy")
            kernel.run(max_instructions=600)
            fire = min(timer.next_fire for timer in kernel.devices.timers)
            executed = kernel.run(max_instructions=50_000, max_cycles=fire)
            stopped = kernel_state(kernel)
            kernel.run(max_instructions=300)
            return executed, stopped, kernel_state(kernel), kernel

        c_executed, c_stopped, c_after, c_kernel = stopped_kernel()
        with interpreter():
            i_executed, i_stopped, i_after, _ = stopped_kernel()
        assert c_kernel.machine.ebox.compile_stats.jit_hits > 0
        assert c_executed == i_executed
        assert c_stopped == i_stopped
        assert c_after == i_after

    def test_branch_fallthrough_identical_state(self):
        # The last SOBGTR falls through after the taken path ran hot.
        program, budget = countdown_program(40)
        compiled = VAX780(monitor=UPCMonitor.build())
        compiled.load_program(program, ORIGIN)
        c_executed = compiled.run(max_instructions=budget)
        with interpreter():
            interpreted = VAX780(monitor=UPCMonitor.build())
            interpreted.load_program(program, ORIGIN)
            i_executed = interpreted.run(max_instructions=budget)
        assert compiled.ebox.compile_stats.jit_hits > 0
        assert compiled.ebox.halted
        assert c_executed == i_executed
        assert machine_state(compiled) == machine_state(interpreted)


class TestSnapshotEquivalence:
    def test_mid_run_snapshots_share_a_digest(self):
        # The compiler's record caches and CompileStats live outside
        # pickled machine state, so a compiled machine and an
        # interpreted machine paused at the same instruction produce
        # the same snapshot bytes.
        kernel_c, _ = prepare_workload("educational")
        kernel_c.run(max_instructions=400)
        snap_c = capture(kernel_c, label="differential")
        with interpreter():
            kernel_i, _ = prepare_workload("educational")
            kernel_i.run(max_instructions=400)
            snap_i = capture(kernel_i, label="differential")
        assert kernel_c.machine.ebox._compile_active
        assert not kernel_i.machine.ebox._compile_active
        assert snap_c.digest == snap_i.digest
        assert snap_c.payload == snap_i.payload


class TestManifestCompileStats:
    SPEC = dict(workload="educational", instructions=300, warmup_instructions=100)

    def test_manifest_records_active_compiler(self):
        run = execute_spec(RunSpec(**self.SPEC))
        info = run.manifest.compile
        assert info is not None
        assert info["active"] == 1
        assert info["routines_specialized"] > 0
        assert info["jit_hits"] + info["jit_misses"] > 0

    def test_manifest_records_disabled_compiler(self):
        with interpreter():
            run = execute_spec(RunSpec(**self.SPEC))
        info = run.manifest.compile
        assert info is not None
        assert info["active"] == 0
        assert info["jit_hits"] == 0

    def test_sharded_run_reports_the_chain_compile_counters(self):
        # Without a cache a sharded run is one chain — one machine
        # through the warmup and every shard — so its summed counters
        # are the unsharded run's.  Both arms compile from cold.
        spec = RunSpec(workload="educational", instructions=2000, warmup_instructions=300)
        replay.clear_record_caches()
        whole = execute_spec(spec)
        replay.clear_record_caches()
        sharded = execute_spec(spec, 2)
        assert sharded.shard_count == 2
        info = sharded.manifest.compile
        assert info is not None and info["jit_hits"] > 0
        assert info == whole.manifest.compile

        def compile_counters(run):
            return {
                name: value
                for name, value in run.metrics["counters"].items()
                if name.startswith(replay.METRIC_PREFIX)
            }

        assert compile_counters(sharded) == compile_counters(whole)


# --------------------------------------------------------------------------
# Randomized specifier-mode programs
# --------------------------------------------------------------------------

ORIGIN = 0x200
SCRATCH = 0x3040  # a separate page from the code; inside the built-in P0 map

# Operand specifiers spanning the addressing modes the replay compiler
# specializes: literals, immediates, registers, autoincrement,
# autodecrement, displacements of each width, and indexing.  (Deferred
# modes that chase a pointer the random ops may clobber are excluded —
# a garbage pointer faults on a bare machine with no VMS handler.)
SOURCES = [
    "#5",
    "#63",
    "I^#305419896",
    "R0",
    "R1",
    "R2",
    "(R6)",
    "(R6)+",
    "-(R6)",
    "B^4(R6)",
    "W^8(R6)",
    "L^12(R6)",
    "(R6)[R3]",
]
DESTS = [
    "R0",
    "R1",
    "R2",
    "R4",
    "(R6)",
    "(R6)+",
    "-(R6)",
    "B^4(R6)",
    "W^8(R6)",
    "(R6)[R3]",
]
TWO_OPERAND = ["MOVL", "ADDL2", "SUBL2", "BISL2", "BICL2", "XORL2", "CMPL"]
ONE_OPERAND = ["TSTL", "INCL", "DECL", "CLRL"]

op_strategy = st.one_of(
    st.tuples(
        st.sampled_from(TWO_OPERAND),
        st.sampled_from(SOURCES),
        st.sampled_from(DESTS),
    ),
    st.tuples(st.sampled_from(ONE_OPERAND), st.sampled_from(DESTS)),
)


def _assemble(ops, repeats):
    asm = Assembler(origin=ORIGIN)
    # Point R6 into the scratch page and give the index register a
    # small fixed value; @B^4(R6) chases a pointer stored at entry.
    asm.instr("MOVL", "I^#%d" % (SCRATCH + 64), "R6")
    asm.instr("MOVL", "#1", "R3")
    for _ in range(repeats):
        for op in ops:
            asm.instr(*op)
    asm.instr("HALT")
    return asm.assemble(), 2 + repeats * len(ops)


def _final_state(machine):
    regs = [machine.ebox.regs.read(i) for i in range(16)]
    memory = [
        machine.read_virtual(SCRATCH + offset, 4)
        for offset in range(-64, 128, 4)
    ]
    return {
        "regs": regs,
        "psl": machine.ebox.psl.pack(),
        "cycles": machine.ebox.cycle_count,
        "memory": memory,
    }


class TestRandomizedSpecifierModes:
    @staticmethod
    def _load(machine, program):
        machine.load_program(program, ORIGIN)
        # Pre-map the pages around SCRATCH so programs that never touch
        # memory still leave a readable (all-zero) region to compare.
        machine.map_range(SCRATCH - 0x440, 0x800)

    @settings(max_examples=10, deadline=None)
    @given(ops=st.lists(op_strategy, min_size=2, max_size=8))
    def test_compiled_and_interpreted_agree(self, ops):
        # Repeat the block so the two-sightings gate opens and later
        # iterations actually replay compiled records.
        program, budget = _assemble(ops, repeats=3)
        compiled = VAX780(monitor=UPCMonitor.build())
        self._load(compiled, program)
        compiled.run(max_instructions=budget)
        with interpreter():
            interpreted = VAX780(monitor=UPCMonitor.build())
            self._load(interpreted, program)
            interpreted.run(max_instructions=budget)
        assert compiled.ebox._compile_active
        assert not interpreted.ebox._compile_active
        assert _final_state(compiled) == _final_state(interpreted)

    @settings(max_examples=5, deadline=None)
    @given(ops=st.lists(op_strategy, min_size=2, max_size=6))
    def test_check_and_validate_verdicts_agree_across_all_modes(self, ops):
        """Randomized specifier programs put the *verdict machinery*
        through the differential: both compile modes must produce
        bit-identical observables (so ``repro validate``'s cross-mode
        checks hold) and the identical set of passing ``repro check``
        identities."""
        from repro.core.experiment import ExperimentResult
        from repro.obs.invariants import check_result
        from repro.validate import ALL_MODES, RefutationRunner, execute_probe
        from repro.validate.probes import Probe

        def build():
            asm = Assembler(origin=ORIGIN)
            asm.instr("MOVL", "I^#%d" % (SCRATCH + 64), "R6")
            asm.instr("MOVL", "#1", "R3")
            for _ in range(3):
                for op in ops:
                    asm.instr(*op)
            asm.instr("HALT")
            return asm

        probe = Probe(
            name="randomized",
            title="hypothesis-generated specifier program",
            covers="specifier",
            canonical=False,
            build=build,
            expectations=(),
            map_ranges=((SCRATCH - 0x440, 0x800),),
        )

        # The runner's cross-mode checks pin both arms together.
        report = RefutationRunner(modes=ALL_MODES, trace=False).run_probe(probe)
        assert report.ok, [outcome.to_dict() for outcome in report.failures]

        # And every arm's counter identities return the same verdicts.
        verdicts = {}
        for mode in ALL_MODES:
            run = execute_probe(probe, mode)
            outcomes = check_result(
                ExperimentResult(
                    name=mode,
                    reduction=run.reduction,
                    events=run.events,
                    stats=run.stats,
                ),
                run.counts,
                run.stalled,
                run.layout,
            )
            verdicts[mode] = [(outcome.name, outcome.ok) for outcome in outcomes]
            assert all(ok for _name, ok in verdicts[mode]), (mode, outcomes)
        assert verdicts["interpreted"] == verdicts["compiled"]
