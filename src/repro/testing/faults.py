"""Deterministic fault injection for the engine's recovery paths.

The measurement infrastructure earns trust the way the paper's monitor
did: by surviving its own faults.  nanoBench-style validation work makes
the same point for modern microbenchmarks — recovery code that is never
exercised is recovery code that does not work.  This module lets tests
(and the CI chaos job) *deterministically* break the engine at named
sites — worker crashes, hangs, corrupted cache objects, snapshot restore
failures — and assert that the recovered run is bit-identical to an
undisturbed one.

Design constraints, in order:

* **Disarmed is free.**  Every injection site calls :func:`fire` /
  :func:`corrupt_bytes`, which returns immediately unless the
  ``REPRO_FAULTS`` environment variable carries a plan.  Production runs
  never pay more than one dict lookup.
* **Process-safe.**  Plans propagate to pool workers through the
  environment (inherited on fork and spawn alike), and occurrence
  budgets ("crash the first two times only") are claimed through
  ``O_CREAT | O_EXCL`` marker files in a shared ``state_dir`` — the same
  site firing from four workers at once still fires exactly ``times``
  times.
* **Deterministic.**  A rule either always matches a ``(site, key)``
  pair or gates on a seeded hash of it (``probability``); no wall clock,
  no per-process RNG state.  Re-running the same plan against the same
  engine run injects the same faults.

Sites currently instrumented (see the callers for exact keys):

========================  ====================================================
``worker``                :func:`repro.core.executor._execute_spec_guarded`,
                          keyed by spec name — ``raise``/``crash``/``hang``
``shard.task``            sharded pool worker entry, keyed ``<spec>@<start>``
``shard.measure``         every measured shard span (chain *and* workers),
                          keyed ``<spec>@<start>``
``cache.get``             :meth:`repro.core.runcache.RunCache.get` — corrupt
                          the bytes read back (``truncate``/``bitflip``)
``cache.write``           mid-write inside ``RunCache._write_atomic``, keyed
                          by destination path — ``raise`` simulates a full
                          disk / I/O error between write and rename
``cache.stored``          just after a successful put — corrupt the object
                          *on disk* (the bit-rot simulation)
``snapshot.restore``      :func:`repro.core.snapshot.restore`, keyed by the
                          snapshot digest — ``raise`` surfaces as a
                          :class:`~repro.core.snapshot.SnapshotError`
``costs.skew``            :meth:`EBox._bind_transients` via :func:`cost_skew`
                          — ``skew`` makes the micro-routine named by
                          ``match`` overcharge compute cycles (the model
                          error ``repro validate`` exists to refute)
========================  ====================================================

A hung spec worker is terminated when its pool is recycled, but a hung
shard worker finishes its sleep before the sharded fan-out can join it:
keep ``hang`` durations at the ``shard.*`` sites short.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import List, Optional

#: The environment variable a serialized plan travels in.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit code a ``crash`` injection kills the worker process with.
CRASH_EXIT_CODE = 70

#: Actions that raise/kill/sleep at a site (handled by :func:`fire`).
DISRUPT_ACTIONS = ("raise", "crash", "hang")

#: Actions that damage payload bytes (handled by :func:`corrupt_bytes`).
CORRUPT_ACTIONS = ("truncate", "bitflip")

#: Actions that damage counter banks (handled by :func:`corrupt_counts`):
#: ``miscount`` credits phantom cycles to a histogram bucket at readout,
#: the lab accident the invariant checker (repro.obs.invariants) exists
#: to catch.  Documented site: ``monitor.dump`` (key ``board``).
COUNT_ACTIONS = ("miscount",)

#: Actions that perturb the cycle *model* itself (handled by
#: :func:`cost_skew`): ``skew`` makes one micro-routine charge extra
#: compute cycles per visit.  Documented site: ``costs.skew``, where the
#: rule's ``match`` names the victim routine (e.g. ``spec1.register``).
#: Unlike ``miscount`` this corrupts no instrument — every identity in
#: ``repro check`` still holds, because the cycles are honestly counted;
#: only the refutation suite (``repro validate``), which knows what the
#: charge *should* be, can catch it.  That asymmetry is the point.
MODEL_ACTIONS = ("skew",)

#: The site :func:`cost_skew` answers for.
COSTS_SKEW_SITE = "costs.skew"


class InjectedFault(RuntimeError):
    """The default exception an armed ``raise`` rule throws."""


class FaultPlanError(ValueError):
    """A plan is malformed or cannot be installed as specified."""


@dataclass(frozen=True)
class FaultRule:
    """One injection: fire ``action`` at ``site`` for matching keys.

    ``match`` is a substring filter on the site key (``"*"`` matches
    everything).  ``times`` caps total firings per ``(site, key)`` pair
    across *all* processes (negative = unlimited).  ``probability``
    gates on a seeded hash of the key, so the same plan always picks the
    same victims.  ``seconds`` is the sleep for ``hang``.
    """

    site: str
    action: str
    match: str = "*"
    times: int = 1
    probability: float = 1.0
    seconds: float = 0.0

    def __post_init__(self):
        known = DISRUPT_ACTIONS + CORRUPT_ACTIONS + COUNT_ACTIONS + MODEL_ACTIONS
        if self.action not in known:
            raise FaultPlanError(
                "unknown fault action {!r} (know {})".format(
                    self.action, ", ".join(known)
                )
            )

    def matches(self, key: str) -> bool:
        return self.match == "*" or self.match in key


@dataclass
class FaultPlan:
    """A set of rules plus the state shared by every process.

    ``state_dir`` holds the occurrence marker files; it is required as
    soon as any rule has a finite ``times`` budget.  ``coordinator_pid``
    is stamped by :meth:`install` so a ``crash`` rule firing in the
    coordinating process degrades to ``raise`` instead of killing the
    whole run.
    """

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 0
    state_dir: str = ""
    coordinator_pid: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "state_dir": self.state_dir,
                "coordinator_pid": self.coordinator_pid,
                "rules": [asdict(rule) for rule in self.rules],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FaultPlanError("fault plan is not valid JSON: {}".format(exc))
        return cls(
            rules=[FaultRule(**rule) for rule in payload.get("rules", [])],
            seed=payload.get("seed", 0),
            state_dir=payload.get("state_dir", ""),
            coordinator_pid=payload.get("coordinator_pid", 0),
        )

    def install(self) -> "FaultPlan":
        """Arm the plan for this process and every future child."""
        if any(rule.times >= 0 for rule in self.rules) and not self.state_dir:
            raise FaultPlanError(
                "rules with a finite 'times' budget need a shared state_dir "
                "to count occurrences across processes"
            )
        if self.state_dir:
            os.makedirs(self.state_dir, exist_ok=True)
        if not self.coordinator_pid:
            self.coordinator_pid = os.getpid()
        os.environ[FAULTS_ENV] = self.to_json()
        _reset_cache()
        return self

    @contextmanager
    def active(self):
        """``with plan.active():`` — install, then always disarm."""
        self.install()
        try:
            yield self
        finally:
            uninstall()


def uninstall() -> None:
    """Disarm whatever plan is installed in this process."""
    os.environ.pop(FAULTS_ENV, None)
    _reset_cache()


# Parsing the env JSON on every fire would be measurable; cache keyed by
# the raw string so a re-install (or a worker inheriting a plan) parses
# exactly once per process.
_cache_raw: Optional[str] = None
_cache_plan: Optional[FaultPlan] = None


def _reset_cache() -> None:
    global _cache_raw, _cache_plan
    _cache_raw = None
    _cache_plan = None


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, or None (the overwhelmingly common case)."""
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        return None
    global _cache_raw, _cache_plan
    if raw != _cache_raw:
        _cache_raw, _cache_plan = raw, FaultPlan.from_json(raw)
    return _cache_plan


def _seeded_gate(plan: FaultPlan, rule_index: int, site: str, key: str, probability: float) -> bool:
    """Deterministic probability gate: same plan, same victims."""
    if probability >= 1.0:
        return True
    if probability <= 0.0:
        return False
    blob = "{}|{}|{}|{}".format(plan.seed, rule_index, site, key).encode("utf-8")
    draw = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / float(1 << 64)
    return draw < probability


def _claim_occurrence(plan: FaultPlan, rule_index: int, site: str, key: str, times: int) -> bool:
    """Atomically claim one of the rule's ``times`` firings for this
    ``(site, key)`` pair; False once the budget is spent."""
    if times < 0:
        return True
    if times == 0:
        return False
    digest = hashlib.sha256("{}|{}".format(site, key).encode("utf-8")).hexdigest()[:16]
    for occurrence in range(times):
        marker = os.path.join(
            plan.state_dir, "r{}-{}-{}".format(rule_index, digest, occurrence)
        )
        try:
            handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(handle)
        return True
    return False


def _armed_rules(site: str, key: str, actions):
    plan = active_plan()
    if plan is None:
        return plan, ()
    hits = []
    for index, rule in enumerate(plan.rules):
        if rule.site != site or rule.action not in actions:
            continue
        if not rule.matches(key):
            continue
        if not _seeded_gate(plan, index, site, key, rule.probability):
            continue
        if not _claim_occurrence(plan, index, site, key, rule.times):
            continue
        hits.append(rule)
    return plan, hits


def fire(site: str, key: str = "", raiser=None) -> None:
    """Injection point for disruptive faults; a no-op when disarmed.

    ``raiser`` lets a site surface the injection as the exception type
    its real failure mode would produce (e.g. ``SnapshotError``), so the
    recovery code under test cannot tell injected faults from real ones.
    """
    plan, hits = _armed_rules(site, key, DISRUPT_ACTIONS)
    for rule in hits:
        if rule.action == "hang":
            time.sleep(rule.seconds)
            continue
        if rule.action == "crash" and os.getpid() != plan.coordinator_pid:
            os._exit(CRASH_EXIT_CODE)
        # crash in the coordinator itself degrades to raise: killing the
        # coordinating process would take the test harness down with it.
        make = raiser if raiser is not None else InjectedFault
        raise make("injected fault at site {!r} (key {!r})".format(site, key))


def corrupt_bytes(site: str, key: str, data: bytes) -> bytes:
    """Damage ``data`` per the armed corruption rules; identity when
    disarmed.  ``truncate`` halves the payload, ``bitflip`` flips one
    bit in the middle — both defeat any honest content digest."""
    _, hits = _armed_rules(site, key, CORRUPT_ACTIONS)
    for rule in hits:
        if not data:
            continue
        if rule.action == "truncate":
            data = data[: len(data) // 2]
        elif rule.action == "bitflip":
            middle = len(data) // 2
            data = data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1 :]
    return data


def corrupt_counts(site: str, key: str, counts, stalled_counts) -> int:
    """Damage a histogram readout in place per the armed ``miscount``
    rules; a no-op (returning 0) when disarmed.

    The injected accident is a deterministic one: phantom *stalled*
    cycles credited to the busiest non-stalled bucket — on a real
    readout that bucket is the opcode-decode dispatch, a compute-slot
    microinstruction that can never legitimately land in the stalled
    bank.  The data reduction will dutifully add those cycles to the
    total but can classify them into no Table 8 column, which is
    exactly the inconsistency counter-identity checking exists to trip.
    Returns the number of phantom cycles injected.
    """
    plan, hits = _armed_rules(site, key, COUNT_ACTIONS)
    injected = 0
    for _rule in hits:
        if not counts:
            continue
        bucket = max(range(len(counts)), key=counts.__getitem__)
        phantom = 1000 + (plan.seed % 1000)
        stalled_counts[bucket] += phantom
        injected += phantom
    return injected


def cost_skew() -> Optional[tuple]:
    """The armed cycle-model perturbation, or None (the common case).

    Resolved once per machine binding (:meth:`EBox._bind_transients`),
    not per cycle: returns ``(routine_name, extra_cycles)`` when a
    ``skew`` rule is armed at the ``costs.skew`` site.  The rule's
    ``match`` field names the skewed micro-routine and its occurrence
    budget counts machine *bindings* — use ``times=-1`` to skew every
    machine a test constructs (the refutation runner builds one per
    compile mode).  ``extra_cycles`` is derived from the plan seed so
    different plans exercise different magnitudes deterministically.
    """
    plan = active_plan()
    if plan is None:
        return None
    for index, rule in enumerate(plan.rules):
        if rule.site != COSTS_SKEW_SITE or rule.action not in MODEL_ACTIONS:
            continue
        if rule.match == "*":
            raise FaultPlanError(
                "a costs.skew rule must name the victim micro-routine "
                "in match= (e.g. 'spec1.register')"
            )
        if not _seeded_gate(plan, index, rule.site, rule.match, rule.probability):
            continue
        if not _claim_occurrence(plan, index, rule.site, rule.match, rule.times):
            continue
        return rule.match, 1 + plan.seed % 4
    return None


def corrupt_file(site: str, key: str, path: str) -> bool:
    """Apply corruption rules to a file in place (the bit-rot
    simulation).  Returns True when the file was actually damaged."""
    plan = active_plan()
    if plan is None:
        return False
    try:
        with open(path, "rb") as handle:
            original = handle.read()
    except OSError:
        return False
    damaged = corrupt_bytes(site, key, original)
    if damaged == original:
        return False
    with open(path, "wb") as handle:
        handle.write(damaged)
    return True
