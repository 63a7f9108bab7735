"""Regression tests for EngineError's round-trips.

The historical bug: ``EngineError`` takes constructor extras (spec
name, worker traceback, shard status), but the default exception
pickling contract reconstructs from ``args`` — which holds the
*formatted message*, one string, so unpickling raised ``TypeError``
inside the process-pool plumbing and the original failure was lost.
``__reduce__`` now re-ships the constructor arguments, and the JSON
envelope (:meth:`to_payload` / :meth:`from_payload`) gives the service
API the same guarantee.
"""

import pickle

import pytest

from repro.core.executor import EngineError


def _specimen():
    return EngineError(
        "educational[cache=4KB]",
        "Traceback (most recent call last):\n  boom\n",
        shard_status={0: "computed", 1: "worker failed: boom", 2: "unfilled"},
    )


class TestPickleRoundTrip:
    def test_survives_pickle(self):
        error = _specimen()
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, EngineError)
        assert clone.spec_name == error.spec_name
        assert clone.worker_traceback == error.worker_traceback
        assert clone.shard_status == error.shard_status
        assert str(clone) == str(error)
        assert clone.args == error.args

    def test_survives_pickle_without_shard_status(self):
        clone = pickle.loads(pickle.dumps(EngineError("w", "tb")))
        assert clone.spec_name == "w"
        assert clone.worker_traceback == "tb"
        assert clone.shard_status == {}

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_protocol(self, protocol):
        clone = pickle.loads(pickle.dumps(_specimen(), protocol))
        assert clone.shard_status[1] == "worker failed: boom"

    def test_reconstructible_from_args_alone(self):
        # The core of the old bug: type(error)(*error.args) must not
        # blow up — that is exactly what naive pickling does.
        error = _specimen()
        rebuilt = type(error)(*error.__reduce__()[1])
        assert rebuilt.spec_name == error.spec_name


class TestJsonEnvelope:
    def test_payload_round_trip(self):
        error = _specimen()
        payload = error.to_payload()
        # The envelope is pure JSON: string keys everywhere.
        import json

        json.loads(json.dumps(payload))
        clone = EngineError.from_payload(json.loads(json.dumps(payload)))
        assert clone.spec_name == error.spec_name
        assert clone.worker_traceback == error.worker_traceback
        assert clone.shard_status == error.shard_status  # int keys restored
        assert clone.args  # .args never lost

    def test_envelope_type_tag(self):
        assert _specimen().to_payload()["type"] == "EngineError"

    def test_api_envelope_dispatch(self):
        from repro.service import api

        engine_error = api.error_from_envelope(api.error_envelope(_specimen()))
        assert isinstance(engine_error, EngineError)
        assert engine_error.shard_status == {0: "computed", 1: "worker failed: boom", 2: "unfilled"}
        generic = api.error_from_envelope(api.error_envelope(ValueError("nope")))
        assert isinstance(generic, RuntimeError)
        assert "nope" in str(generic)
