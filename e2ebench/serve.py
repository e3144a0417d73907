"""Server launcher: ``python3 e2ebench/serve.py SPANS_PATH|- serve ARGS...``.

Runs ``repro.cli serve ARGS`` in this process with the spool's fsync
switched off (``DurabilityConfig(fsync=False)``; the CLI has no flag for
it): fsync latency on a shared virtual disk swings by more than an order of
magnitude from minute to minute, which no end-to-end bound could absorb.
With a SPANS_PATH, the layer wrappers of :mod:`tracing` are installed first
and the recorded spans are written there after the graceful SIGTERM
shutdown (drain, checkpoint).
"""

import functools
import sys

import repro.service
from repro import cli

spans = sys.argv[1]
repro.service.DurabilityConfig = functools.partial(repro.service.DurabilityConfig, fsync=False)
if spans != "-":
    import tracing

    tracing.install()
status = cli.main(sys.argv[2:])
if spans != "-":
    tracing.dump(spans)
sys.exit(status)
