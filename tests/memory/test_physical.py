"""Unit tests for physical memory."""

import hashlib
import os
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.memory import PhysicalMemory


class TestPhysicalMemory:
    def test_read_back_longword(self):
        mem = PhysicalMemory(1024)
        mem.write(100, 4, 0xDEADBEEF)
        assert mem.read(100, 4) == 0xDEADBEEF

    def test_little_endian_layout(self):
        mem = PhysicalMemory(16)
        mem.write(0, 4, 0x11223344)
        assert mem.read(0, 1) == 0x44
        assert mem.read(3, 1) == 0x11

    def test_write_masks_value(self):
        mem = PhysicalMemory(16)
        mem.write(0, 1, 0x1FF)
        assert mem.read(0, 1) == 0xFF

    def test_load_and_dump(self):
        mem = PhysicalMemory(64)
        mem.load(8, b"\x01\x02\x03")
        assert mem.dump(8, 3) == b"\x01\x02\x03"

    def test_out_of_bounds_read_raises(self):
        mem = PhysicalMemory(16)
        with pytest.raises(IndexError):
            mem.read(15, 4)

    def test_out_of_bounds_write_raises(self):
        mem = PhysicalMemory(16)
        with pytest.raises(IndexError):
            mem.write(-1, 1, 0)

    def test_oversize_load_raises(self):
        mem = PhysicalMemory(4)
        with pytest.raises(IndexError):
            mem.load(2, b"abc")

    def test_default_size_is_8mb(self):
        assert PhysicalMemory().size == 8 * 1024 * 1024

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(0)

    @given(
        st.integers(min_value=0, max_value=1020),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    def test_longword_roundtrip_property(self, address, value):
        mem = PhysicalMemory(1024)
        mem.write(address, 4, value)
        assert mem.read(address, 4) == value


# Sizes that straddle the pickling scan's 64 KB blocks and 512-byte
# pages, and the 4-byte longword view.
_EDGE_SIZES = [1, 3, 511, 513, 4 * 1024 + 2, 64 * 1024 - 4, 64 * 1024 + 1,
               64 * 1024 + 512, 2 * 64 * 1024 + 510]


def _nonzero_pages(data: bytes):
    return {page // 512 for page in range(0, len(data), 512)
            if any(data[page : page + 512])}


class TestPickling:
    @given(
        size=st.one_of(st.sampled_from(_EDGE_SIZES),
                       st.integers(min_value=1, max_value=3 * 64 * 1024)),
        data=st.data(),
    )
    def test_pickle_round_trip_keeps_only_pages_in_use(self, size, data):
        mem = PhysicalMemory(size)
        writes = data.draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=size - 1),
                      st.binary(min_size=1, max_size=600)),
            max_size=6,
        ))
        if data.draw(st.booleans()):
            # a non-zero byte in the last, possibly partial, page
            writes.append((size - 1, b"\x5a"))
        for address, payload in writes:
            mem.load(address, payload[: size - address])
        before = mem.dump(0, size)

        state = mem.__getstate__()
        stored = {start // 512 + offset
                  for start, payload in state["runs"]
                  for offset in range((len(payload) + 511) // 512)}
        assert stored == _nonzero_pages(before)

        clone = pickle.loads(pickle.dumps(mem))
        assert clone.size == size
        assert clone.dump(0, size) == before
        if mem._mem32 is None:
            assert clone._mem32 is None
        else:
            # the longword view is rebound to the clone's own bytes
            assert clone._mem32.obj is clone._bytes
            clone.write(size - 4, 4, 0x0BADCAFE)
            assert clone._mem32[(size - 4) // 4] == 0x0BADCAFE
            assert mem.read(size - 4, 4) == int.from_bytes(before[-4:], "little")

    def test_all_zero_memory_pickles_no_pages(self):
        mem = PhysicalMemory()
        assert mem.__getstate__()["runs"] == []
        clone = pickle.loads(pickle.dumps(mem))
        assert clone.size == mem.size
        assert not any(clone.dump(0, clone.size))

    def test_page_run_past_the_end_is_rejected(self):
        # A run reaching past ``size`` used to grow the backing array
        # (and the longword view) beyond the memory's stated size.
        mem = PhysicalMemory.__new__(PhysicalMemory)
        with pytest.raises(ValueError, match=r"\[0x3fc, 0x404\)"):
            mem.__setstate__({"size": 1024, "runs": [(1020, b"\x01" * 8)]})
        with pytest.raises(ValueError, match="outside memory"):
            mem.__setstate__({"size": 1024, "runs": [(-4, b"\x01" * 4)]})

    def test_run_cache_quarantines_an_overlong_page_run(self, tmp_path, monkeypatch):
        from repro.core.runcache import RunCache

        mem = PhysicalMemory(1024)
        monkeypatch.setattr(
            PhysicalMemory, "__getstate__",
            lambda self: {"size": 1024, "runs": [(1020, b"\x01" * 8)]},
        )
        data = pickle.dumps(mem)
        monkeypatch.undo()
        cache = RunCache(str(tmp_path))
        key = hashlib.sha256(data).hexdigest()
        cache.put(key, data)
        assert cache.load(key, PhysicalMemory) is None
        assert cache.quarantined == 1


def _resident_bytes():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class TestDemandZeroPages:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_stay_in_the_child(self):
        # Worker pools fork: a child's writes must never reach the
        # parent's memory (they would through a shared mapping).
        mem = PhysicalMemory()
        mem.write(0x12340, 4, 0x11111111)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports via the pipe
            status = 1
            try:
                os.close(read_end)
                seen = mem.read(0x12340, 4)
                mem.write(0x12340, 4, 0x22222222)
                own = mem._mem32[0x12340 // 4]
                os.write(write_end, b"%08x %08x" % (seen, own))
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            report = pipe.read()
        _, status = os.waitpid(pid, 0)
        assert status == 0
        assert report == b"11111111 22222222"
        assert mem.read(0x12340, 4) == 0x11111111
        assert mem._mem32[0x12340 // 4] == 0x11111111

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm")
    def test_memory_is_paid_for_per_touched_page(self):
        before = _resident_bytes()
        memories = [PhysicalMemory() for _ in range(8)]
        for index, mem in enumerate(memories):
            mem.write(0x10000, 4, index + 1)
            # pickling reads every page, touched or not
            assert len(mem.__getstate__()["runs"]) == 1
        grown = _resident_bytes() - before
        assert grown < 8 * 1024 * 1024, grown
