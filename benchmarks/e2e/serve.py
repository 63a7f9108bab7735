"""Run the experiment service under per-thread cProfile.

What ``repro serve --port 0 --shards 2 --cache-dir DIR`` does, through
the public :class:`~repro.service.server.ExperimentService`, with one
profiler per thread (the event loop and every job worker).  Every
thread waits most of the time, so the profilers use the per-thread CPU
clock.  SIGINT stops the service; the merged profile is then written to
``--profile``.

The traced ``service-replay`` pass starts this in place of ``repro
serve``; by hand: ``PYTHONPATH=src python benchmarks/e2e/serve.py
--cache-dir DIR --profile serve.prof``.
"""

from __future__ import annotations

import argparse
import time

from layers import ThreadProfiles

#: Resumable shards per measurement, untraced (``repro serve``) and
#: traced (this launcher) alike.
SHARDS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--profile", required=True)
    args = parser.parse_args(argv)

    profiles = ThreadProfiles(timer=time.thread_time)
    profiles.start()
    from repro.core.resilience import ResiliencePolicy
    from repro.core.runcache import RunCache
    from repro.obs.log import WARN, set_level
    from repro.service.server import ExperimentService

    set_level(WARN)
    service = ExperimentService(
        port=args.port,
        shards=SHARDS,
        cache=RunCache(args.cache_dir),
        policy=ResiliencePolicy.from_options(retries=0, spec_timeout=None),
    )

    def announce(bound):
        print("service listening on http://{}:{}".format(bound.host, bound.port), flush=True)

    service.run(announce=announce)
    profiles.dump(args.profile)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
