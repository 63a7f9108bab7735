"""Run manifests, config hashing and the code version."""

import os
import shutil
import subprocess
import sys

import repro
from repro.core.executor import MachineConfig, RunSpec
from repro.obs.provenance import RunManifest, code_version, config_hash


def test_config_hash_is_stable():
    spec = RunSpec(workload="educational", instructions=5_000)
    assert config_hash(spec) == config_hash(
        RunSpec(workload="educational", instructions=5_000)
    )


def test_config_hash_tracks_every_determining_field():
    base = RunSpec(workload="educational")
    variants = [
        RunSpec(workload="scientific"),
        RunSpec(workload="educational", instructions=base.instructions + 1),
        RunSpec(workload="educational", warmup_instructions=1),
        RunSpec(workload="educational", seed_offset=7),
        RunSpec(workload="educational", process_count=2),
        RunSpec(workload="educational", config=MachineConfig(cache_size_bytes=4096)),
    ]
    hashes = {config_hash(base)} | {config_hash(v) for v in variants}
    assert len(hashes) == len(variants) + 1


def test_label_does_not_change_the_hash():
    # The label names the run; it cannot change the measurement.
    assert config_hash(RunSpec(workload="educational")) == config_hash(
        RunSpec(workload="educational", label="renamed")
    )


def test_manifest_for_spec_round_trips_to_dict():
    spec = RunSpec(workload="educational", seed_offset=3, label="edu")
    manifest = RunManifest.for_spec(spec, profile_seed=303, started_at=123.0)
    payload = manifest.to_dict()
    assert payload["spec_name"] == "edu"
    assert payload["workload"] == "educational"
    assert payload["profile_seed"] == 303
    assert payload["seed_offset"] == 3
    assert payload["config_hash"] == config_hash(spec)
    assert payload["code_version"] == code_version()
    assert payload["package_version"] == repro.__version__
    assert payload["started_at"] == 123.0
    assert payload["python_version"]


def test_manifest_pickles():
    import pickle

    manifest = RunManifest.for_spec(
        RunSpec(workload="educational"), profile_seed=303
    )
    clone = pickle.loads(pickle.dumps(manifest))
    assert clone == manifest


def _copy_package(destination):
    source = os.path.dirname(os.path.abspath(repro.__file__))
    target = os.path.join(str(destination), "repro")
    shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
    return target


def _digest_in_fresh_process(root):
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-c",
         "from repro.obs.provenance import code_version; print(code_version())"],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.strip()


def test_code_version_is_a_digest_of_the_sources(tmp_path):
    # Two copies of the package at different paths agree; one byte
    # changed in a third copy changes the digest.
    first, second, edited = (tmp_path / name for name in ("a", "b", "c"))
    for root in (first, second, edited):
        _copy_package(root)
    target = os.path.join(str(edited), "repro", "cpu", "ebox.py")
    with open(target, "ab") as handle:
        handle.write(b"#")
    digest = _digest_in_fresh_process(first)
    assert len(digest) == 64
    assert _digest_in_fresh_process(first) == digest
    assert _digest_in_fresh_process(second) == digest
    assert _digest_in_fresh_process(edited) != digest
