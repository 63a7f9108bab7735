"""Suite-wide fixtures.

Generated workload images are banked in the default run cache
(``$REPRO_CACHE_DIR``, else ``.repro-cache`` in the cwd).  The suite
points that at a directory of its own, so a run starts from an empty
bank and leaves nothing in the checkout; processes the tests start
inherit it and share the session's bank.
"""

import os

import pytest

from repro.core.runcache import CACHE_DIR_ENV


@pytest.fixture(scope="session", autouse=True)
def session_program_bank(tmp_path_factory):
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous
