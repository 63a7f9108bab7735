"""The ``repro.check/v1`` JSON schema is a contract: downstream
consumers (the CI validation leg, dashboards) key on its field names
and nesting.  The golden file pins the *shape* — key sets and leaf
types — so counter-value drift never churns it but a renamed or
dropped field fails loudly.  Regenerate deliberately with:

    PYTHONPATH=src python tests/obs/test_check_schema.py
"""

import json
import os

from repro.obs.invariants import (
    SCHEMA_VERSION,
    Check,
    CheckReport,
    schema_envelope,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "check_schema.json")

INSTRUCTIONS = 2_000
WARMUP = 500


def shape(value):
    """Collapse a JSON value to its structural skeleton."""
    if isinstance(value, dict):
        return {key: shape(val) for key, val in sorted(value.items())}
    if isinstance(value, list):
        return [shape(value[0])] if value else []
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "null"


def check_envelope():
    from repro.obs.invariants import run_checked_workload

    report, _result = run_checked_workload(
        "timesharing_light",
        instructions=INSTRUCTIONS,
        warmup_instructions=WARMUP,
    )
    assert report.ok
    return schema_envelope("check", [report.to_dict()])


def test_check_envelope_matches_the_golden_shape():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    assert shape(check_envelope()) == golden


def test_validate_envelope_reuses_the_same_schema():
    """``repro validate --json`` emits the identical envelope; its
    checks carry the same required keys (plus ``mode``)."""
    from repro.validate import RefutationRunner, build_probes

    with open(GOLDEN) as handle:
        golden = json.load(handle)
    golden_check_keys = set(golden["reports"][0]["checks"][0])

    report = RefutationRunner(modes=("compiled",), trace=False).run_probe(
        build_probes()["reg_mov_chain"]
    )
    envelope = schema_envelope("validate", [report.to_dict()])
    assert envelope["schema"] == SCHEMA_VERSION
    assert set(envelope) == set(golden)
    assert set(envelope["summary"]) == set(golden["summary"])
    check_keys = set(envelope["reports"][0]["checks"][0])
    # Same contract minus the identity-only field, plus the mode tag.
    assert check_keys - {"mode"} == golden_check_keys - {"description"}


def test_one_key_order_fits_both_commands():
    """One ``Check`` / ``CheckReport`` serializer emits both commands'
    shapes: identities add ``description``, probe checks add ``mode``,
    probe reports add the probe header."""
    identity = Check.identity("cycles.classified", "d", lhs=1, rhs=1)
    assert list(identity.to_dict()) == [
        "name", "description", "expected", "actual", "ok", "blame", "detail",
    ]
    probe_check = Check("instructions", "== 1", 1, True, mode="compiled")
    assert list(probe_check.to_dict()) == [
        "name", "expected", "actual", "ok", "mode", "blame", "detail",
    ]
    assert list(CheckReport("w").to_dict()) == ["name", "ok", "checks", "skipped"]
    assert list(CheckReport("p", modes=("compiled",)).to_dict()) == [
        "name", "title", "covers", "canonical", "modes", "ok", "checks",
        "skipped",
    ]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(shape(check_envelope()), handle, indent=2)
        handle.write("\n")
    print("wrote", GOLDEN)
