"""Golden-run regression gate: the canonical workload's digest is pinned.

Bit-identical merging (the sharded engine's whole premise) is only as
good as the underlying determinism, and determinism bugs are silent: a
stray RNG, an unstable dict order or an accidental measurement
perturbation changes every count slightly and no behavioral test
notices.  This fixture freezes a tiny canonical run — the full sparse
histogram, the headline scalars and a sha256 over the canonical JSON of
all of it — so any silent change to the counts fails the suite loudly.

If the change is *intentional* (a modeling fix that legitimately alters
counts), regenerate the fixture and commit it alongside the change:

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_golden_run.py

and call out the digest change in the PR description — it is the suite's
way of making "the numbers moved" a reviewed event instead of an
accident.
"""

import hashlib
import json
import os

import pytest

from repro.core.executor import RunSpec, execute_spec

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_educational.json")
UPDATE_ENV = "REPRO_UPDATE_GOLDEN"

# Small enough to run in ~100 ms, long enough that every subsystem
# (cache, TB, write buffer, devices, scheduler) has fired.
SPEC = RunSpec(workload="educational", instructions=400, warmup_instructions=100)


def _golden_payload():
    run = execute_spec(SPEC)
    counts, stalled = run.histogram
    reduction = run.result.reduction
    payload = {
        "workload": SPEC.workload,
        "instructions_requested": SPEC.instructions,
        "warmup_instructions": SPEC.warmup_instructions,
        "instructions_measured": run.result.instructions,
        "cycles": run.result.stats.cycles,
        "cpi": round(reduction.cpi, 12),
        "histogram": {str(k): v for k, v in sorted(counts.items())},
        "stalled_histogram": {str(k): v for k, v in sorted(stalled.items())},
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    payload["digest"] = hashlib.sha256(blob).hexdigest()
    return payload


class TestGoldenRun:
    def test_canonical_run_matches_the_checked_in_fixture(self):
        fresh = _golden_payload()
        if os.environ.get(UPDATE_ENV):
            with open(GOLDEN_PATH, "w") as handle:
                json.dump(fresh, handle, indent=2, sort_keys=True)
                handle.write("\n")
            pytest.skip("golden fixture regenerated; commit the new file")
        if not os.path.exists(GOLDEN_PATH):
            pytest.fail(
                "golden fixture missing; generate it with {}=1".format(UPDATE_ENV)
            )
        with open(GOLDEN_PATH) as handle:
            golden = json.load(handle)

        assert fresh["digest"] == golden["digest"], (
            "the canonical educational run no longer reproduces the "
            "checked-in histogram — counts changed silently. If this is "
            "an intentional modeling change, regenerate with {}=1 and "
            "commit the updated fixture; otherwise a determinism or "
            "measurement-perturbation bug slipped in. First divergence: "
            "{}".format(UPDATE_ENV, _first_divergence(fresh, golden))
        )
        # Belt and braces: the digest covers these, but direct compares
        # give readable diffs when something does move.
        assert fresh["histogram"] == golden["histogram"]
        assert fresh["stalled_histogram"] == golden["stalled_histogram"]
        assert fresh["cycles"] == golden["cycles"]
        assert fresh["instructions_measured"] == golden["instructions_measured"]


def _first_divergence(fresh, golden):
    for field in (
        "instructions_measured",
        "cycles",
        "cpi",
        "histogram",
        "stalled_histogram",
    ):
        if fresh.get(field) != golden.get(field):
            if isinstance(fresh.get(field), dict):
                mine, theirs = fresh[field], golden[field]
                for bucket in sorted(set(mine) | set(theirs), key=int):
                    if mine.get(bucket) != theirs.get(bucket):
                        return "{}[bucket {}]: {} != {}".format(
                            field, bucket, mine.get(bucket), theirs.get(bucket)
                        )
            return "{}: {} != {}".format(field, fresh.get(field), golden.get(field))
    return "digest only (payload shape changed?)"
