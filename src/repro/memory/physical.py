"""Byte-addressable physical memory.

All measured machines in the paper had 8 Megabytes; that is the default.
Values are little-endian, as everywhere on the VAX.  The bytes live in a
private anonymous mapping: the host kernel hands out a zeroed page on
the first write to it, so a machine is resident only in the pages its
workload touches (about 150 KB of the 8 MB), not in all of them.
"""

from __future__ import annotations

import mmap
import sys

DEFAULT_MEMORY_BYTES = 8 * 1024 * 1024

#: The page size (VAX pages are 512 bytes) and the block size the
#: pickling scan skips zero memory by.
_PAGE = 512
_SCAN_BLOCK = 64 * 1024
_ZERO_BLOCK = bytes(_SCAN_BLOCK)


def _zero_pages(size: int) -> mmap.mmap:
    # MAP_PRIVATE, not the default MAP_SHARED: the CLI's worker pools
    # fork, and a shared mapping would carry a child's writes back into
    # its parent.  Untouched pages read as the kernel's shared zero page.
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)


class PhysicalMemory:
    """Little-endian bytes on demand-zero pages, with bounds checking."""

    def __init__(self, size: int = DEFAULT_MEMORY_BYTES):
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self._bytes = _zero_pages(size)
        self._bind_view()

    def _bind_view(self) -> None:
        # A zero-copy longword window over the mapping: aligned longword
        # loads (every I-stream fetch and most D-stream hits) become one
        # index instead of a slice + int.from_bytes.  The view tracks
        # in-place writes; nothing here ever resizes or closes the
        # mapping, which a live view forbids.
        # Native-endian cast, hence the byte-order guard (VAX memory is
        # little-endian); odd sizes cannot cast to 4-byte items.
        if sys.byteorder == "little" and self.size % 4 == 0:
            self._mem32 = memoryview(self._bytes).cast("I")
        else:
            self._mem32 = None

    def read(self, address: int, size: int) -> int:
        """Read ``size`` bytes at ``address`` as an unsigned integer."""
        end = address + size
        if address < 0 or end > self.size:
            raise IndexError(
                "physical read [{:#x}, {:#x}) outside memory of {:#x} bytes".format(
                    address, end, self.size
                )
            )
        return int.from_bytes(self._bytes[address:end], "little")

    def write(self, address: int, size: int, value: int) -> None:
        """Write ``size`` low-order bytes of ``value`` at ``address``."""
        end = address + size
        if address < 0 or end > self.size:
            raise IndexError(
                "physical write [{:#x}, {:#x}) outside memory of {:#x} bytes".format(
                    address, end, self.size
                )
            )
        self._bytes[address:end] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")

    def load(self, address: int, payload: bytes) -> None:
        """Bulk-load an image (used to install assembled programs)."""
        end = address + len(payload)
        if address < 0 or end > self.size:
            raise IndexError("image of {} bytes does not fit at {:#x}".format(len(payload), address))
        self._bytes[address:end] = payload

    def dump(self, address: int, size: int) -> bytes:
        """Copy out raw bytes (for tests and debugging)."""
        return bytes(self._bytes[address : address + size])

    # -- pickling ----------------------------------------------------------
    # Machine snapshots pickle the whole object graph, and the 8 MB array
    # is almost entirely zero pages, so the state keeps only the 512-byte
    # pages holding a non-zero byte, coalesced into runs of adjacent
    # pages.  The scan compares 64 KB blocks, then the pages of a non-zero
    # block, against zero slices: mapping slices are bytes, compared at
    # memcmp speed (under 1 ms for 8 MB), where memoryview compares cost
    # about 40 times that.  Reading an untouched page maps the shared
    # zero page, so the scan makes nothing resident.  The state is not
    # compressed here; the snapshot codec compresses the whole pickle
    # once.

    def __getstate__(self):
        data, size = self._bytes, self.size
        runs = []
        for block in range(0, size, _SCAN_BLOCK):
            block_end = min(block + _SCAN_BLOCK, size)
            if data[block:block_end] == _ZERO_BLOCK[: block_end - block]:
                continue
            for page in range(block, block_end, _PAGE):
                end = min(page + _PAGE, size)
                if data[page:end] == _ZERO_BLOCK[: end - page]:
                    continue
                if runs and runs[-1][1] == page:
                    runs[-1][1] = end
                else:
                    runs.append([page, end])
        return {
            "size": size,
            "runs": [(start, bytes(data[start:end])) for start, end in runs],
        }

    def __setstate__(self, state):
        size = state["size"]
        data = _zero_pages(size)
        for start, payload in state["runs"]:
            end = start + len(payload)
            if start < 0 or end > size:
                raise ValueError(
                    "page run [{:#x}, {:#x}) outside memory of {:#x} bytes".format(
                        start, end, size
                    )
                )
            data[start:end] = payload
        self.size = size
        self._bytes = data
        self._bind_view()
