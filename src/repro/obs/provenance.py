"""Run provenance: the manifest every engine run carries.

The paper's experimenters could answer "which machine, which day, which
workload, how long" for every histogram they banked; a simulator should
do at least as well.  A :class:`RunManifest` pins down everything needed
to reproduce (or distrust) one :class:`~repro.core.executor.EngineRun`:
the spec's configuration hash, the seeds actually used, the code
version (a digest of the package's sources, beside the package version
and the git commit when available), and the wall-clock timings.

Manifests are plain picklable data — they cross the process-pool
boundary inside ``EngineRun`` payloads and serialize with
``to_dict()``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

_git_commit_cache: Optional[str] = None
_git_commit_probed = False
_code_digest: Optional[str] = None


def code_version() -> str:
    """sha256 over every ``.py`` source of the ``repro`` package.

    Each file contributes its package-relative path, its length and its
    bytes, in sorted path order; the digest is computed once per
    process.  Cache keys commit to it, so editing any module retires
    every shard, snapshot, run and generated image the old code banked.
    It depends on the sources alone — not on where the package lives,
    file times or ``__pycache__`` — so a server, its spawned workers and
    a restarted server on the same tree agree on it.
    """
    global _code_digest
    if _code_digest is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        sources = []
        for directory, _dirs, names in os.walk(root):
            for name in names:
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    sources.append(os.path.relpath(path, root).replace(os.sep, "/"))
        digest = hashlib.sha256()
        for relative in sorted(sources):
            with open(os.path.join(root, relative), "rb") as handle:
                data = handle.read()
            digest.update("{}\0{}\0".format(relative, len(data)).encode("utf-8"))
            digest.update(data)
        _code_digest = digest.hexdigest()
    return _code_digest


def package_version() -> str:
    from repro import __version__

    return __version__


def git_commit() -> Optional[str]:
    """The repository HEAD, or None outside a git checkout.

    Probed once per process (fork workers inherit the cache), so a
    sweep of hundreds of specs costs one subprocess, not hundreds.
    """
    global _git_commit_cache, _git_commit_probed
    if not _git_commit_probed:
        _git_commit_probed = True
        try:
            _git_commit_cache = (
                subprocess.run(
                    ["git", "rev-parse", "HEAD"],
                    capture_output=True,
                    timeout=5,
                    cwd=None,
                )
                .stdout.decode()
                .strip()
                or None
            )
        except (OSError, subprocess.SubprocessError):
            _git_commit_cache = None
    return _git_commit_cache


def config_hash(spec) -> str:
    """A stable digest of everything that determines a spec's result.

    Two specs with equal hashes produce bit-identical histograms (the
    engine's determinism guarantee); anything that could change the
    measurement — workload, budgets, seeds, ablation config, even the
    name of a ``configure`` hook — feeds the digest.
    """
    config = spec.config
    payload = {
        "workload": spec.workload,
        "instructions": spec.instructions,
        "warmup_instructions": spec.warmup_instructions,
        "process_count": spec.process_count,
        "seed_offset": spec.seed_offset,
        "config": None
        if config is None
        else {name: getattr(config, name) for name in sorted(config.__dataclass_fields__)},
        "configure": None
        if spec.configure is None
        else "{}.{}".format(
            getattr(spec.configure, "__module__", "?"),
            getattr(spec.configure, "__qualname__", repr(spec.configure)),
        ),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class RunManifest:
    """Everything needed to identify and reproduce one engine run."""

    spec_name: str
    workload: str
    config_hash: str
    profile_seed: int
    seed_offset: int
    instructions_requested: int
    warmup_instructions: int
    code_version: str = field(default_factory=code_version)
    package_version: str = field(default_factory=package_version)
    git_commit: Optional[str] = None
    python_version: str = field(default_factory=platform.python_version)
    #: the process that executed the run (a service's worker process,
    #: a CLI pool worker, or the CLI process itself); ``None`` on a
    #: manifest banked before runs recorded it
    pid: Optional[int] = None
    started_at: float = 0.0
    wall_seconds: float = 0.0
    instructions_measured: int = 0
    cycles_measured: int = 0
    #: intra-workload sharding provenance (1 = unsharded, the default)
    shards: int = 1
    #: how many of those shards replayed from the content-addressed cache
    shards_from_cache: int = 0
    #: sha256 of the boundary snapshot a resumed chain restarted from
    #: (or, for a run resolved whole from the cache, its run-level key)
    resumed_from: Optional[str] = None
    #: config hash of the in-flight or indexed job this run attached to
    #: instead of executing — a deduplicated run did no work of its own,
    #: which is also why its ``wall_seconds`` is zero rather than a copy
    #: of the executing job's timing
    attached_to: Optional[str] = None
    #: this run's cache traffic (hit/miss/put/quarantine deltas of the
    #: cache instance that executed it, which runs every shard of the
    #: spec in one process) — ``None`` when the run used no cache
    cache_stats: Optional[Dict] = None
    #: engine executions this run needed (1 = succeeded first try; >1
    #: means the resilience layer retried it)
    attempts: int = 1
    #: corrupt cache objects quarantined while this run executed
    quarantined_objects: int = 0
    #: shards a failed chain left unfilled that the repair pass
    #: recomputed
    repaired_shards: int = 0
    #: replay-compiler diagnostics (``sim.compile.*``: JIT hits/misses,
    #: fast-path fractions, routines specialized) — ``None`` when the
    #: run's metrics carried none (sharded resume paths, old snapshots)
    compile: Optional[Dict] = None

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def for_spec(cls, spec, profile_seed: int, started_at: Optional[float] = None) -> "RunManifest":
        """Build the pre-run manifest for ``spec`` (timings filled in by
        the engine when the run completes)."""
        return cls(
            spec_name=spec.name,
            workload=spec.workload,
            config_hash=config_hash(spec),
            profile_seed=profile_seed,
            seed_offset=spec.seed_offset,
            instructions_requested=spec.instructions,
            warmup_instructions=spec.warmup_instructions,
            git_commit=git_commit(),
            pid=os.getpid(),
            started_at=started_at if started_at is not None else time.time(),
        )
