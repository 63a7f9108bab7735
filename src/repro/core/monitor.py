"""The micro-PC histogram monitor (Section 2.2 of the paper).

Two boards, as built at DEC in 1982-83:

* the **histogram count board** — a general-purpose Unibus device with
  16,000 addressable count locations, incrementable at the 780's 200ns
  microcycle rate, actually holding *two* counts per location: one for
  non-stalled microinstruction executions and one for read-/write-stalled
  cycles (Section 4.3);
* the **processor-specific interface board** — taps the micro-PC and the
  stall lines, and supplies the count board with a bucket address plus a
  "count now" strobe each microcycle.

While collecting, the monitor is totally passive: it never perturbs the
machine it measures.  The simulator enforces this structurally — the
monitor object only ever receives notifications; it has no reference to
the machine at all.

Because the strobe path runs once per simulated microcycle it is the
hottest code in the repository.  The banks are ``array('Q')`` (machine
words, like the real board's count RAM), and the interface precomputes
its micro-PC → bucket map once (:func:`bucket_fold`).  The EBOX's cycle
charge (``EBox._tick_slot``) and the replay's batched increments index
that map and the banks directly instead of calling through the boards.
The Unibus command surface (``start`` / ``stop`` / ``clear`` /
``read_bucket``) is unchanged.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import add
from typing import Optional

from repro.ucode.control_store import CONTROL_STORE_SIZE

HISTOGRAM_BUCKETS = 16_000

#: The largest count one bank location holds (the boards used 64-bit
#: count words; ``array('Q')`` enforces the same ceiling).
BANK_COUNT_MAX = (1 << 64) - 1


class MonitorCommandError(Exception):
    """An ill-formed Unibus command (bad bucket address, etc.)."""


def bucket_fold(buckets: int = HISTOGRAM_BUCKETS) -> array:
    """The interface board's micro-PC → bucket map for a ``buckets``-wide
    count board: identity below the top bucket, everything above folded
    onto it."""
    top = buckets - 1
    return array("l", (upc if upc < top else top for upc in range(CONTROL_STORE_SIZE)))


def _zero_bank(buckets: int) -> array:
    return array("Q", bytes(8 * buckets))


class HistogramBoard:
    """The general-purpose dual-bank count board.

    Unibus commands: :meth:`start`, :meth:`stop`, :meth:`clear`,
    :meth:`read_bucket`.  :meth:`strobe` is the checked counting entry
    (histogram loading uses it); the simulator's per-cycle charge
    increments the banks directly.
    """

    def __init__(self, buckets: int = HISTOGRAM_BUCKETS):
        self.buckets = buckets
        self._counts = _zero_bank(buckets)
        self._stalled_counts = _zero_bank(buckets)
        self._collecting = False

    @classmethod
    def from_sparse(cls, counts, stalled_counts, buckets: int = HISTOGRAM_BUCKETS) -> "HistogramBoard":
        """Rebuild a stopped board from sparse ``{bucket: count}`` dumps.

        The inverse of :meth:`dump_sparse`: shard workers ship sparse
        deltas across the process boundary and the coordinator loads them
        back onto boards to :meth:`merge_from`.  Bad bucket addresses and
        counts a 64-bit bank word cannot hold are rejected with the
        offending bucket named."""
        board = cls(buckets)
        for bank_name, bank, sparse in (
            ("non-stalled", board._counts, counts),
            ("stalled", board._stalled_counts, stalled_counts),
        ):
            for bucket, count in sparse.items():
                board._check_bucket(bucket)
                if not 0 <= count <= BANK_COUNT_MAX:
                    raise MonitorCommandError(
                        "count {} at bucket {} in the {} bank does not fit "
                        "a 64-bit count word (0..{})".format(
                            count, bucket, bank_name, BANK_COUNT_MAX
                        )
                    )
                bank[bucket] = count
        return board

    # -- Unibus commands -------------------------------------------------

    def start(self) -> None:
        self._collecting = True

    def stop(self) -> None:
        self._collecting = False

    def clear(self) -> None:
        if self._collecting:
            raise MonitorCommandError("cannot clear while collecting")
        self._counts = _zero_bank(self.buckets)
        self._stalled_counts = _zero_bank(self.buckets)

    def read_bucket(self, bucket: int):
        """Read one bucket's (non-stalled, stalled) counts."""
        self._check_bucket(bucket)
        return self._counts[bucket], self._stalled_counts[bucket]

    # -- counting path (driven by the interface board) --------------------

    @property
    def collecting(self) -> bool:
        return self._collecting

    def strobe(self, bucket: int, stalled: bool = False, repeat: int = 1) -> None:
        """Count ``repeat`` cycles at ``bucket`` in the selected bank."""
        if not self._collecting:
            return
        self._check_bucket(bucket)
        if stalled:
            self._stalled_counts[bucket] += repeat
        else:
            self._counts[bucket] += repeat

    def _check_bucket(self, bucket: int) -> None:
        if not 0 <= bucket < self.buckets:
            raise MonitorCommandError(
                "bucket {} out of range (board has {} buckets, 0..{})".format(
                    bucket, self.buckets, self.buckets - 1
                )
            )

    # -- bulk readout ------------------------------------------------------

    def dump(self):
        """Read out both banks (what the measurement host did after a run).

        Returns (counts, stalled_counts) as lists indexed by bucket.
        Fault-injection site ``monitor.dump`` (action ``miscount``)
        damages the readout — never the live banks — modelling a flaky
        Unibus transfer; ``repro check`` exists to catch exactly this.
        """
        from repro.testing import faults

        counts, stalled = list(self._counts), list(self._stalled_counts)
        faults.corrupt_counts("monitor.dump", "board", counts, stalled)
        return counts, stalled

    def dump_sparse(self):
        """Both banks as sparse ``{bucket: count}`` dicts (zeros omitted).

        The compact wire format: what a parallel experiment worker ships
        back to the coordinating process, and what
        :mod:`repro.core.histogram_io` persists.
        """
        return (
            {i: c for i, c in enumerate(self._counts) if c},
            {i: c for i, c in enumerate(self._stalled_counts) if c},
        )

    def total_cycles(self) -> int:
        """All cycles counted so far, both banks."""
        return sum(self._counts) + sum(self._stalled_counts)

    def merge_from(self, other: "HistogramBoard") -> None:
        """Accumulate another board's counts into this one.

        The paper reports "the composite of all five [experiments], that
        is, the sum of the five UPC histograms" — this is that sum.  It
        is a readout-side operation: merging while either board is still
        collecting is an error (the real merge happened on the host after
        the boards were stopped and dumped).
        """
        if other.buckets != self.buckets:
            raise MonitorCommandError(
                "bucket-count mismatch: this board has {} buckets, "
                "the other has {}".format(self.buckets, other.buckets)
            )
        if self._collecting or other._collecting:
            sides = []
            if self._collecting:
                sides.append("this board")
            if other._collecting:
                sides.append("the other board")
            raise MonitorCommandError(
                "cannot merge while collecting ({} still collecting)".format(
                    " and ".join(sides)
                )
            )
        self._counts = self._merge_bank(self._counts, other._counts, "non-stalled")
        self._stalled_counts = self._merge_bank(
            self._stalled_counts, other._stalled_counts, "stalled"
        )

    def _merge_bank(self, mine: array, theirs: array, bank_name: str) -> array:
        """Sum two banks, naming the first overflowing bucket on failure.

        The fast path stays a single C-level ``map(add)``; the per-bucket
        scan only runs after ``array('Q')`` has rejected an overflowing
        sum, to say *which* location wrapped."""
        try:
            return array("Q", map(add, mine, theirs))
        except OverflowError:
            for bucket, (a, b) in enumerate(zip(mine, theirs)):
                if a + b > BANK_COUNT_MAX:
                    raise MonitorCommandError(
                        "merge overflow at bucket {} in the {} bank: "
                        "{} + {} exceeds the 64-bit count word (max {})".format(
                            bucket, bank_name, a, b, BANK_COUNT_MAX
                        )
                    ) from None
            raise


class MonitorInterface:
    """The processor-specific interface board.

    Maps micro-PC values onto histogram buckets.  The 780 control store (16K locations) does not quite fit the
    16,000-bucket board one-to-one; the interface folds the few overflow
    addresses onto the top bucket, which the layout never allocates, so
    in practice the mapping is injective for every used address.

    The fold is precomputed into a lookup table at construction — the
    real board's address-mapping PROM — so the per-microcycle path does a
    single indexed load instead of a range check plus ``min``.
    """

    def __init__(self, board: HistogramBoard):
        self.board = board
        self.bucket_map = bucket_fold(board.buckets)

    def bucket_for(self, upc: int) -> int:
        if not 0 <= upc < CONTROL_STORE_SIZE:
            raise MonitorCommandError("micro-PC {:#x} out of range".format(upc))
        return self.bucket_map[upc]


@dataclass
class UPCMonitor:
    """The assembled monitor: count board + interface board.

    This is what gets plugged into a :class:`~repro.cpu.machine.VAX780`.
    """

    board: HistogramBoard
    interface: MonitorInterface

    def __post_init__(self):
        self._bucket_map = self.interface.bucket_map

    @classmethod
    def build(cls) -> "UPCMonitor":
        board = HistogramBoard()
        return cls(board=board, interface=MonitorInterface(board))

    def start(self) -> None:
        self.board.start()

    def stop(self) -> None:
        self.board.stop()

    def clear(self) -> None:
        self.board.clear()

    @property
    def collecting(self) -> bool:
        return self.board.collecting
