"""Set-up probe: import, construct, print ``READY``, exit.

``python3 e2ebench/probe.py paper-single|store-replay [store-root]`` — the
parent process times the span from starting this process to the ``READY``
line: interpreter start, imports and detector (or store) construction.
"""

import sys

import configs

kind = sys.argv[1]
if kind == "paper-single":
    from repro import api

    api.create("class", configs.PAPER_CONFIG)
elif kind == "store-replay":
    from repro import api
    from repro.storage import StreamStore

    StreamStore(sys.argv[2])
    api.create(configs.STORE_DETECTOR, configs.STORE_CONFIG)
else:
    raise SystemExit(f"unknown probe {kind!r}")
print("READY", flush=True)
