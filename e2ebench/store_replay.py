"""store-replay: record-then-audit on ``repro.storage.StreamStore``.

Eight mean-shift streams are ingested into the chunk store once.  Every
*round* then repeats the same work:

1. ``segment`` each stream with Page-Hinkley in small chunks: a score event
   per chunk lands in the event log, checkpoints every 2k points.
2. Answer a fixed, seeded list of audit queries in closed loop, in groups
   of one same-config ``resegment(from_t)`` (anchored on a checkpoint) and
   three event-log ``read_range`` windows.  Each query's time is a latency
   sample.

Rounds repeat until ``--seconds`` have passed.  The timings pool all
rounds: ``throughput_obs_s`` is the observations segmented over the time
spent segmenting, and the latency quantiles are taken over every query.
The cheap detector leaves storage and event bookkeeping with the time.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

import checks
import common
import configs
import inputs
import tracing

N_STREAMS = 8
STREAM_POINTS = 50_000
#: Query groups per round, each one ``resegment`` and READS_PER_GROUP reads:
#: a quarter of the queries are replays, so p50 falls among the reads and
#: p90 among the replays, not on the border between the two.
GROUPS_PER_ROUND = 60
READS_PER_GROUP = 3
SETUP_PROBES = 3
MATCH_TOLERANCE = 500


def _segment(store, name) -> float:
    """Segment one stored stream; return the seconds it took."""
    began = time.perf_counter()
    run = store.segment(
        name, configs.STORE_DETECTOR, configs.STORE_CONFIG,
        chunk_size=configs.STORE_CHUNK,
        checkpoint_every=configs.STORE_CHECKPOINT_EVERY,
        include_scores=True,
    )
    elapsed = time.perf_counter() - began
    checks.require(run.n_seen == STREAM_POINTS, f"store-replay: {name} segmented {run.n_seen}")
    return elapsed


def _check_run(store, name, values, change_points) -> list[dict]:
    """Independent Page-Hinkley and log parse; returns the parsed log records."""
    detections, scores = checks.page_hinkley(values, **{
        key: configs.STORE_CONFIG[key] for key in ("delta", "threshold", "min_observations")
    })
    expected = [
        {"kind": "change_point", "at": at, "change_point": cp, "score": score, "p_value": None}
        for cp, at, score in detections
    ]
    checks.require(
        change_points == expected,
        f"store-replay: {name} change points differ from the reference Page-Hinkley",
    )
    records = checks.parse_event_log(store.path_for(name) / "events.log")
    checks.require(
        [record["seq"] for record in records] == list(range(len(records))),
        f"store-replay: {name} log sequence numbers are not dense",
    )
    events = [record["event"] for record in records]
    checks.require(events[0] == {"kind": "warmup", "at": 0, "subsequence_width": None},
                   f"store-replay: {name} log does not open with the warm-up event")
    checks.require(
        [event for event in events if event["kind"] == "change_point"] == expected,
        f"store-replay: {name} logged change points differ from the reference Page-Hinkley",
    )
    score_events = [event for event in events if event["kind"] == "score"]
    checks.require(
        all(event["score"] == scores[event["at"] - 1] for event in score_events)
        and score_events[-1]["at"] == len(values),
        f"store-replay: {name} logged scores differ from the reference Page-Hinkley",
    )
    return records


def _queries(seed: int, names) -> list[tuple[str, str, int, int]]:
    """The seeded audit queries of every round: ``(kind, stream, low, high)``."""
    rng = np.random.default_rng(seed + 31_337)
    queries = []
    for _ in range(GROUPS_PER_ROUND):
        name = names[int(rng.integers(0, len(names)))]
        from_t = int(rng.integers(int(0.9 * STREAM_POINTS), STREAM_POINTS))
        queries.append(("resegment", name, from_t, 0))
        for _ in range(READS_PER_GROUP):
            low = int(rng.integers(0, STREAM_POINTS))
            queries.append(("read", name, low, low + int(rng.integers(1_000, 10_000))))
    return queries


def _audit(store, queries, records) -> list[float]:
    """Answer every query in closed loop; return their latencies."""
    latencies: list[float] = []
    logs = {}
    for kind, name, low, high in queries:
        tracing.set_operation(len(latencies) + 1)
        if kind == "resegment":
            began = time.perf_counter()
            audit = store.resegment(name, low)
            latencies.append(time.perf_counter() - began)
            checks.require(
                audit.identical and audit.same_config and audit.checkpoint_used is not None
                and audit.checkpoint_used <= low,
                f"store-replay: resegment({name}, {low}) is not an identical anchored replay",
            )
            continue
        log = logs.get(name)
        if log is None:
            log = logs[name] = store.event_log(name, fsync=False)
        began = time.perf_counter()
        found = log.read_range(low, high)
        latencies.append(time.perf_counter() - began)
        checks.require(
            found == [record for record in records[name] if low <= record["at"] < high],
            f"store-replay: read_range({name}, {low}, {high}) differs from the log filter",
        )
    for log in logs.values():
        log.close()
    return latencies


def run(seed: int, seconds: float, trace: bool) -> dict:
    work = common.work_dir("store-replay", seed)
    try:
        streams = {
            f"s{index}": inputs.mean_shift_stream(seed * 100 + index, STREAM_POINTS)
            for index in range(N_STREAMS)
        }
        setup = []
        if not trace:
            for probe in range(SETUP_PROBES):
                setup.append(common.setup_probe(
                    [sys.executable, str(common.BENCH_DIR / "probe.py"), "store-replay",
                     str(work / f"probe-{probe}")],
                    b"READY",
                ))
        from repro.storage import StreamStore

        if trace:
            tracing.install()
        store = StreamStore(work / "store", fsync=False)
        for name, (values, _cps) in streams.items():
            stored = store.ingest(name, values)
            checks.require(
                checks.checksum(stored.iter_chunks()) == checks.checksum([values]),
                f"store-replay: {name} read-back differs from the ingested array",
            )
        names = list(streams)
        queries = _queries(seed, names)
        total = sum(len(values) for values, _ in streams.values())
        rounds: list[tuple[list[float], float]] = []
        first_meta = None
        untraced = traced = 0.0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            busy = 0.0
            for name in names:
                if trace:
                    # each stream segmented untraced, then traced: same input,
                    # same host state
                    tracing.enable(False)
                    untraced += _segment(store, name)
                    tracing.enable(True)
                busy += _segment(store, name)
            traced += busy
            # the full logs, parsed and checked apart from the program, answer
            # every query's check below
            metas = {name: store.run_meta(name)["change_points"] for name in names}
            if first_meta is None:
                first_meta = metas
                records = {
                    name: _check_run(store, name, streams[name][0], metas[name])
                    for name in names
                }
            checks.require(
                metas == first_meta,
                f"store-replay: round {len(rounds) + 1} found other change points than round 1",
            )
            rounds.append((_audit(store, queries, records), busy))
        rss = common.peak_rss_mib()
        if trace:
            tracing.uninstall()

        weighted = 0.0
        delays: list[int] = []
        for name in names:
            values, true_cps = streams[name]
            found = [(event["change_point"], event["at"]) for event in first_meta[name]]
            cover = checks.covering(true_cps, [cp for cp, _ in found], len(values))
            weighted += len(values) * cover
            delays.extend(checks.detection_delays(true_cps, found, MATCH_TOLERANCE))
        checks.require(
            len(delays) > 0, "store-replay: no detection matched an annotated change point"
        )

        latencies = [latency for round_latencies, _ in rounds for latency in round_latencies]
        result = {"attempted": len(rounds) * len(names) + len(latencies), "failed": 0}
        if trace:
            layers = tracing.layer_metrics(tracing.SPANS)
            layers["storage.bytes_written_per_obs"] = common.directory_bytes(work / "store") / total
            layers["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
            tracing.dump(work / "spans.json")
            result["layers"] = layers
        else:
            result["metrics"] = {
                "setup_s": statistics.median(setup),
                "throughput_obs_s": total * len(rounds) / sum(busy for _, busy in rounds),
                "latency_p50_ms": common.quantile(latencies, 0.50) * 1e3,
                "latency_p90_ms": common.quantile(latencies, 0.90) * 1e3,
                "covering": weighted / total,
                "detection_delay_p50_obs": float(statistics.median(delays)),
                "peak_rss_mb": rss,
            }
        return result
    finally:
        common.remove_work_dir(work)
