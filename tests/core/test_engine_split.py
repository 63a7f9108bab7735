"""The engine split: three real layers and one live build seam.

The engine is three layers — ``executor`` / ``cache_resolution`` /
``scheduler``.  These tests pin the split's contract: the layering is
acyclic and never loads the ``core/engine.py`` shim, and the live
``repro.core.experiment.prepare_workload`` patch seam still intercepts
fresh builds triggered anywhere in the layers.
"""

import subprocess
import sys

import repro.core.experiment as experiment
from repro.core.executor import RunSpec
from repro.core.scheduler import execute_spec_sharded


class TestLayering:
    def test_layers_import_without_the_facade(self):
        # The layers must not need the shim: importing any one of them
        # in a fresh interpreter must not load core/engine.py.
        for module in (
            "repro.core.executor",
            "repro.core.cache_resolution",
            "repro.core.scheduler",
        ):
            probe = (
                "import os, sys\n"
                "import {}\n"
                "shim = os.path.join('core', 'engine.py')\n"
                "files = [getattr(m, '__file__', None) or ''"
                " for m in list(sys.modules.values())]\n"
                "assert not [f for f in files if f.endswith(shim)], 'cycle'\n"
            ).format(module)
            subprocess.run(
                [sys.executable, "-c", probe], check=True, timeout=120
            )

    def test_prepare_workload_seam_is_live(self, monkeypatch):
        # The sharded chain opener resolves prepare_workload through
        # repro.core.experiment at call time; patching it there must
        # intercept the fresh build.
        calls = []
        real = experiment.prepare_workload

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "prepare_workload", spy)
        run = execute_spec_sharded(
            RunSpec(workload="educational", instructions=600, warmup_instructions=100),
            shards=2,
        )
        assert calls, "the prepare_workload seam was bypassed"
        assert run.result.instructions > 0
