"""A three-name shim kept only for ``benchmarks/e2e/units.py``.

The engine lives in three layers: :mod:`repro.core.executor`,
:mod:`repro.core.cache_resolution` and :mod:`repro.core.scheduler`.
Import from those.  The e2e benchmark's units still import these three
names from here; ROADMAP item 8 moves those imports and deletes this
module.
"""

from repro.core.executor import MachineConfig, RunSpec
from repro.core.scheduler import run_specs

__all__ = ["MachineConfig", "RunSpec", "run_specs"]
