"""The bank of generated images in the default run cache.

A fresh process reads each workload image back from the bank instead
of re-running the generator and the text assembler.  The bank may only
ever save time: every image it hands out is bit-identical to a fresh
generation, whatever state the bank is in — corrupted on read or on
disk, half-written, written by older sources, or not writable at all.
"""

import os
import pickle

import pytest

from repro.core.runcache import CACHE_DIR_ENV, RunCache
from repro.testing import faults
from repro.testing.faults import FaultPlan, FaultRule
from repro.workloads import codegen, profile_by_name

PROFILE = profile_by_name("educational")


@pytest.fixture
def bank(tmp_path, monkeypatch):
    """An empty bank, and a process that has generated nothing yet."""
    root = str(tmp_path / "bank")
    monkeypatch.setenv(CACHE_DIR_ENV, root)
    monkeypatch.setattr(codegen, "_PROGRAM_CACHE", {})
    faults.uninstall()
    yield RunCache(root)
    faults.uninstall()


@pytest.fixture(scope="module")
def fresh():
    return codegen._generate_program(PROFILE, 0)


def _new_process(monkeypatch):
    """Forget the in-process images, as a new process would."""
    monkeypatch.setattr(codegen, "_PROGRAM_CACHE", {})


def _generations(monkeypatch):
    """Count calls of the generator from here on."""
    calls = []
    real = codegen._generate_program

    def counting(profile, variant):
        calls.append((profile.name, variant))
        return real(profile, variant)

    monkeypatch.setattr(codegen, "_generate_program", counting)
    return calls


def _plan(tmp_path, site, action):
    return FaultPlan(rules=[FaultRule(site=site, action=action)],
                     state_dir=str(tmp_path / "faults"))


def test_a_warm_hit_equals_a_fresh_generation(bank, fresh, monkeypatch):
    assert codegen.generate_program(PROFILE, 0) == fresh
    (entry,) = bank.entries()
    assert entry.meta["kind"] == "program"
    _new_process(monkeypatch)
    calls = _generations(monkeypatch)
    warm = codegen.generate_program(PROFILE, 0)
    assert calls == []
    assert warm == fresh
    assert warm.code == fresh.code and warm.data == fresh.data


def test_bank_traffic_stays_out_of_the_stats_ledger(bank, monkeypatch):
    codegen.generate_program(PROFILE, 0)
    _new_process(monkeypatch)
    codegen.generate_program(PROFILE, 0)
    assert bank.persistent_totals()["flushes"] == 0


def test_bitflip_on_read_is_quarantined_and_regenerated(bank, fresh, tmp_path, monkeypatch):
    codegen.generate_program(PROFILE, 0)
    _new_process(monkeypatch)
    with _plan(tmp_path, "cache.get", "bitflip").active():
        assert codegen.generate_program(PROFILE, 0) == fresh
    assert bank.quarantined_objects() == 1
    # the regenerated image took the vacated address
    assert len(list(bank.entries())) == 1


def test_bitrot_on_disk_is_quarantined_by_the_next_reader(bank, fresh, tmp_path, monkeypatch):
    with _plan(tmp_path, "cache.stored", "bitflip").active():
        assert codegen.generate_program(PROFILE, 0) == fresh
    assert bank.quarantined_objects() == 0
    _new_process(monkeypatch)
    assert codegen.generate_program(PROFILE, 0) == fresh
    assert bank.quarantined_objects() == 1


def test_a_failed_write_leaves_no_object_and_no_quarantine(bank, fresh, tmp_path, monkeypatch):
    with _plan(tmp_path, "cache.write", "raise").active():
        assert codegen.generate_program(PROFILE, 0) == fresh
    assert list(bank.entries()) == []
    assert bank.quarantined_objects() == 0
    _new_process(monkeypatch)
    calls = _generations(monkeypatch)
    assert codegen.generate_program(PROFILE, 0) == fresh
    assert calls == [("educational", 0)]


def test_a_foreign_object_is_quarantined(bank, fresh, monkeypatch):
    codegen.generate_program(PROFILE, 0)
    (entry,) = bank.entries()
    for suffix in ("", ".sum", ".json"):
        os.unlink(entry.path + suffix)
    bank.put(entry.key, pickle.dumps("not a program"))
    _new_process(monkeypatch)
    assert codegen.generate_program(PROFILE, 0) == fresh
    assert bank.quarantined_objects() == 1


def test_changed_sources_are_a_miss(bank, fresh, monkeypatch):
    codegen.generate_program(PROFILE, 0)
    _new_process(monkeypatch)
    monkeypatch.setattr(codegen, "_sources_digest", "0" * 64)
    calls = _generations(monkeypatch)
    assert codegen.generate_program(PROFILE, 0) == fresh
    assert calls == [("educational", 0)]
    assert len(list(bank.entries())) == 2


def test_an_unusable_cache_root_still_generates(tmp_path, fresh, monkeypatch):
    # A root below a regular file cannot be created, even by root.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv(CACHE_DIR_ENV, str(blocker / "bank"))
    _new_process(monkeypatch)
    assert codegen.generate_program(PROFILE, 0) == fresh
