"""Shared fixtures: assemble-and-run helpers for CPU tests.

Every test class here that takes the ``harness`` fixture is collected
twice: as written, and as ``<Class>Replayed``, whose harness first runs
the program on a throwaway machine of the same layout with records
forming at their first sighting, so the measured machine replays
straight-line code at its first execution and the same programs and
expected values check the replay path too.  The compiled-vs-interpreted
differential cannot catch an operand bug the two paths share; these
absolute expectations can.
"""

import inspect

import pytest

from repro.asm import Assembler
from repro.core import compile as replay
from repro.core.monitor import UPCMonitor
from repro.cpu import VAX780
from repro.cpu.operands import IllegalInstruction

ORIGIN = 0x200


class MachineHarness:
    """Assemble a program, run it on a monitored machine, inspect state."""

    #: On the replayed arm, how many executions may still interpret
    #: (None: any, as long as something replays).  The cold first
    #: instruction always does: nothing is buffered or translated yet.
    max_interpreted = None

    def __init__(self, replayed=False):
        self.replayed = replayed
        self.monitor = UPCMonitor.build()
        self.machine = VAX780(monitor=self.monitor)
        self.asm = Assembler(origin=ORIGIN)

    def run(self, max_instructions=100_000):
        image = self.asm.assemble()
        if self.replayed:
            self._form_records(image, max_instructions)
        self.machine.load_program(image, ORIGIN)
        self.monitor.start()
        executed = self.machine.run(max_instructions=max_instructions)
        self.monitor.stop()
        if self.replayed:
            stats = self.ebox.compile_stats
            assert stats.jit_hits > 0, "nothing replayed"
            if self.max_interpreted is not None:
                assert stats.jit_misses <= self.max_interpreted, stats.fallback_causes
        return executed

    def _form_records(self, image, max_instructions):
        """Run ``image`` once on a throwaway machine sharing this one's
        layout: records are memos of interpreted executions, and the
        ones formed there are the ones the measured run replays."""
        rehearsal = VAX780(monitor=UPCMonitor.build(), layout=self.machine.layout)
        rehearsal.load_program(image, ORIGIN)
        try:
            rehearsal.run(max_instructions=max_instructions)
        except IllegalInstruction:
            # The measured run raises it again, where the test expects it.
            pass

    # Conveniences -----------------------------------------------------

    @property
    def ebox(self):
        return self.machine.ebox

    @property
    def regs(self):
        return self.machine.ebox.regs

    @property
    def cc(self):
        return self.machine.ebox.psl.cc

    def reg(self, index):
        return self.machine.ebox.regs.read(index)

    def mem(self, va, size=4):
        return self.machine.read_virtual(va, size)


def _uses_harness(cls):
    return any(
        "harness" in inspect.signature(member).parameters
        for name, member in inspect.getmembers(cls, inspect.isfunction)
        if name.startswith("test")
    )


def pytest_pycollect_makeitem(collector, name, obj):
    if not (
        inspect.isclass(obj)
        and collector.istestclass(obj, name)
        and _uses_harness(obj)
    ):
        return None
    replayed = type(name + "Replayed", (obj,), {"harness_replayed": True})
    # Collection looks test classes up on their module by name.
    setattr(collector.obj, replayed.__name__, replayed)
    return [
        pytest.Class.from_parent(collector, name=name, obj=obj),
        pytest.Class.from_parent(collector, name=replayed.__name__, obj=replayed),
    ]


@pytest.fixture
def harness(request, monkeypatch):
    replayed = getattr(request.cls, "harness_replayed", False)
    if replayed:
        monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
        monkeypatch.setattr(replay, "_COMPILE_MIN_SIGHTINGS", 1)
    return MachineHarness(replayed)
