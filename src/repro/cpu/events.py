"""Direct event counters for things the micro-PC monitor cannot see.

The paper is explicit about the monitor's blind spots: I-stream memory
references are made by hardware, not microcode, so their counts came from
a separate cache study [Clark 83]; branch-taken proportions and some
opcode distinctions came from "other measurements".  This module is the
simulator's stand-in for those companion instruments.  Everything that
*can* come from the histogram does come from the histogram (see
:mod:`repro.core.reduction`); these counters carry only the rest, plus
ground truth used by tests to validate the histogram pipeline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict


def _counter_minus(current: Counter, baseline: Counter) -> Counter:
    """``current - baseline`` preserving ``current``'s key order.

    Counts only ever grow, so every key of ``baseline`` is present in
    ``current`` and no delta is negative; keys whose count did not change
    are omitted (they contribute nothing to a merge)."""
    delta = Counter()
    for key, value in current.items():
        remaining = value - baseline.get(key, 0)
        if remaining:
            delta[key] = remaining
    return delta


@dataclass
class EventCounters:
    """Ground-truth event counts accumulated by the machine."""

    instructions: int = 0
    #: dynamic opcode execution counts, by mnemonic
    opcode_counts: Counter = field(default_factory=Counter)
    #: branch outcomes by Table 2 class name: (executed, taken)
    branch_executed: Counter = field(default_factory=Counter)
    branch_taken: Counter = field(default_factory=Counter)
    #: operand-specifier occurrences: (position_class, table4_row) -> count
    specifier_counts: Counter = field(default_factory=Counter)
    indexed_specifiers: Counter = field(default_factory=Counter)  # by position class
    branch_displacements: int = 0
    #: instruction-stream size accounting
    instruction_bytes: int = 0
    specifier_bytes: int = 0
    displacement_bytes: int = 0
    #: D-stream reads/writes by Table 5 row label
    reads_by_source: Counter = field(default_factory=Counter)
    writes_by_source: Counter = field(default_factory=Counter)
    #: interrupt / context switch events (Table 7)
    software_interrupt_requests: int = 0
    interrupts_delivered: int = 0
    context_switches: int = 0
    #: exceptions
    page_faults: int = 0
    arithmetic_exceptions: int = 0

    def record_branch(self, class_name: str, taken: bool) -> None:
        self.branch_executed[class_name] += 1
        if taken:
            self.branch_taken[class_name] += 1

    def minus(self, baseline: "EventCounters") -> "EventCounters":
        """Counters accumulated since ``baseline`` was copied off.

        The shard-side companion of :meth:`merge_from`: a resumable
        measurement records ``current.minus(baseline)`` per shard, and
        merging the shard deltas in order reconstructs the uninterrupted
        run bit for bit.  Counter keys keep their first-occurrence order
        (plain ``Counter`` subtraction would reorder and sort-drop keys),
        so serialized output is byte-identical too.
        """
        delta = EventCounters()
        for name in self.__dataclass_fields__:
            current = getattr(self, name)
            if isinstance(current, Counter):
                setattr(delta, name, _counter_minus(current, getattr(baseline, name)))
            else:
                setattr(delta, name, current - getattr(baseline, name))
        return delta

    def merge_from(self, other: "EventCounters") -> None:
        """Accumulate another run's counters (composites, shard merges).

        Field by field with in-place ``+=``, so a Counter keeps its own
        key order and serialized output stays byte-identical."""
        for name in self.__dataclass_fields__:
            total = getattr(self, name)
            total += getattr(other, name)
            setattr(self, name, total)
