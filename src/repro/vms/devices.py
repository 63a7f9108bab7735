"""Device interrupt sources, in EBOX cycle time.

The measured machines took hardware interrupts from the interval clock,
terminal multiplexers (heavily, with 15-40 users typing) and disks.
Each :class:`DeviceTimer` fires on a cycle-count schedule with a
deterministic jitter; firing posts an interrupt request that the EBOX
delivers between instructions, exactly like the real request lines.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional


@dataclass
class DeviceTimer:
    """A recurring interrupt source.

    ``callback(timer)`` runs at each firing and is responsible for
    posting the interrupt (the kernel wires this).  ``jitter`` is the
    fractional spread applied to each period.
    """

    name: str
    ipl: int
    period_cycles: int
    callback: Callable[["DeviceTimer"], None]
    jitter: float = 0.3
    next_fire: int = 0
    firings: int = 0
    _random: random.Random = field(default_factory=lambda: random.Random(0))

    def schedule_first(self, now: int) -> None:
        self.next_fire = now + self._spread()

    def _spread(self) -> int:
        if self.jitter <= 0:
            return self.period_cycles
        low = int(self.period_cycles * (1.0 - self.jitter))
        high = int(self.period_cycles * (1.0 + self.jitter))
        return max(1, self._random.randint(low, high))

    def poll(self, now: int) -> None:
        while now >= self.next_fire:
            self.firings += 1
            self.callback(self)
            self.next_fire += self._spread()


class DeviceBoard:
    """All device timers; the kernel loop polls them between
    instructions once the clock reaches :attr:`next_fire`."""

    def __init__(self, seed: int = 0):
        self.timers: List[DeviceTimer] = []
        self._seed = seed
        #: earliest next_fire over all timers.  The kernel polls only
        #: once the clock reaches it; device periods are thousands of
        #: cycles, so between firings each instruction pays one
        #: comparison.
        self.next_fire = 0

    def add(self, name: str, ipl: int, period_cycles: int, callback, jitter: float = 0.3) -> DeviceTimer:
        timer = DeviceTimer(
            name=name,
            ipl=ipl,
            period_cycles=period_cycles,
            callback=callback,
            jitter=jitter,
            # crc32, not hash(): str hashing is randomized per interpreter
            # process (PYTHONHASHSEED), and per-device jitter streams must
            # be identical whether a run executes in-process or in a
            # parallel experiment worker.
            _random=random.Random((self._seed ^ zlib.crc32(name.encode())) & 0xFFFFFFFF),
        )
        self.timers.append(timer)
        self.next_fire = min(self.next_fire, timer.next_fire)
        return timer

    def start(self, now: int) -> None:
        for timer in self.timers:
            timer.schedule_first(now)
        self._refresh_next_fire()

    def _refresh_next_fire(self) -> None:
        self.next_fire = min(
            (timer.next_fire for timer in self.timers), default=1 << 62
        )

    def poll(self, now: int) -> None:
        for timer in self.timers:
            timer.poll(now)
        self._refresh_next_fire()

    def state_summary(self) -> dict:
        """Per-timer schedule state, for snapshot metadata and debugging."""
        return {
            timer.name: {
                "ipl": timer.ipl,
                "period_cycles": timer.period_cycles,
                "next_fire": timer.next_fire,
                "firings": timer.firings,
            }
            for timer in self.timers
        }
