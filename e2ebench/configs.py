"""Detector, service and store settings of the three workloads (no imports).

Kept import-free so a set-up probe can read them without loading anything
the program itself would not load.
"""

#: paper-single: the paper's defaults — 10k window, score every point, width
#: learned from the warm-up prefix; a fixed permutation-test seed.
PAPER_CONFIG = {"window_size": 10_000, "scoring_interval": 1, "random_state": 0}

#: service-fleet: small-window ClaSS, pinned width so the exclusion zone fits.
FLEET_CONFIG = {
    "window_size": 100, "scoring_interval": 10, "subsequence_width": 5, "random_state": 0,
}

#: service-fleet server flags: 2 shard workers, durable spool, tiny in-memory
#: event history so old ``?since=`` cursors are served from the disk spill.
FLEET_SERVER_FLAGS = ["--shards", "2", "--history-window", "16", "--checkpoint-every", "100"]

#: store-replay: Page-Hinkley, small chunks, a score event per chunk and
#: frequent checkpoints.
STORE_DETECTOR = "page-hinkley"
STORE_CONFIG = {"delta": 0.005, "threshold": 50.0, "min_observations": 30}
STORE_CHUNK = 32
STORE_CHECKPOINT_EVERY = 2_000
