"""Refutation suite: directed microbenchmarks with analytic ground truth.

``repro validate`` and ``tests/validate/`` run every
:class:`~repro.validate.probes.Probe` through the real engine/monitor
path in both compile modes and diff the counters against
expectations known *by construction* — see :mod:`repro.validate.probes`
for the model and :mod:`repro.validate.runner` for the execution and
blame localization.
"""

from repro.validate.probes import (
    CostModel,
    Expectation,
    Probe,
    ProbeError,
    build_probes,
    canonical_names,
)
from repro.validate.runner import (
    ALL_MODES,
    MODES,
    ProbeOutcome,
    ProbeReport,
    ProbeRun,
    RefutationRunner,
    ValidationError,
    execute_probe,
    resolve_metric,
)

__all__ = [
    "ALL_MODES",
    "MODES",
    "CostModel",
    "Expectation",
    "Probe",
    "ProbeError",
    "ProbeOutcome",
    "ProbeReport",
    "ProbeRun",
    "RefutationRunner",
    "ValidationError",
    "build_probes",
    "canonical_names",
    "execute_probe",
    "resolve_metric",
]
