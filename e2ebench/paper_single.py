"""paper-single: one ClaSS stream at the paper's defaults, closed loop.

A multi-segment stream is fed through ``api.create`` + ``api.stream`` in
sensor-sized batches of 10 observations by a caller that sends the next
batch as soon as the previous one returned.  The detector is warmed up once
(buffering the first window and learning the width, not timed); every
*round* then feeds the same :data:`ROUND_POINTS` observations to a fresh
copy of the warmed detector.  Rounds repeat until ``--seconds`` have passed,
so every run times the same work, whatever the host speed.  The timings
pool all rounds: throughput is the observations fed over the time spent
feeding them, and the latency quantiles are taken over every batch.
"""

from __future__ import annotations

import copy
import statistics
import sys
import time

import checks
import common
import configs
import inputs
import tracing

BATCH = 10
#: Observations per round after warm-up: four segments of the stream, so
#: four annotated change points per round.
ROUND_POINTS = 12_000
#: Prefix re-fed from scratch with another batch size for the chunk-invariance
#: check; it ends after the first change point of the round was reported.
REFEED_PREFIX = 13_000
REFEED_BATCH = 1_000
SETUP_PROBES = 3
MATCH_TOLERANCE = 500


def _warm(api, values, segmenter) -> int:
    """Feed batches until the detector is live; return the position reached."""
    position = 0
    while segmenter.warmup_end is None:
        for _ in api.stream(segmenter, values[position : position + BATCH]):
            pass
        position += BATCH
    return position


def _round(api, values, warmed, begin, reference=None):
    """Feed one round to a copy of ``warmed``; return it, its latencies and wall time.

    With a ``reference`` (a second warmed detector, trace mode), each batch
    is first fed to a copy of it with recording switched off, then to the
    traced copy; the summed times of both give the tracing overhead.
    """
    segmenter = copy.deepcopy(warmed)
    twin = copy.deepcopy(reference) if reference is not None else None
    latencies: list[float] = []
    reference_time = 0.0
    start = time.perf_counter()
    for position in range(begin, begin + ROUND_POINTS, BATCH):
        batch = values[position : position + BATCH]
        if twin is not None:
            tracing.enable(False)
            began = time.perf_counter()
            for _ in api.stream(twin, batch):
                pass
            reference_time += time.perf_counter() - began
            tracing.enable(True)
        tracing.set_operation(position // BATCH)
        began = time.perf_counter()
        for _ in api.stream(segmenter, batch):
            pass
        latencies.append(time.perf_counter() - began)
    elapsed = time.perf_counter() - start - reference_time
    return segmenter, latencies, elapsed, reference_time


def _feed(api, values, seconds, trace=False):
    """Warm up once, then run whole rounds until ``seconds`` have passed.

    Returns the first round's detector, the per-round latencies and wall
    times, and the tracing overhead (0 untraced).  Every round must report
    the same events as the first.
    """
    warmed = api.create("class", configs.PAPER_CONFIG)
    begin = _warm(api, values, warmed)
    reference = copy.deepcopy(warmed) if trace else None
    rounds: list[tuple[list[float], float]] = []
    first = None
    traced_time = untraced_time = 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        segmenter, latencies, elapsed, reference_time = _round(
            api, values, warmed, begin, reference
        )
        events = [event.to_dict() for event in segmenter.events()]
        if first is None:
            first, first_events = segmenter, events
        checks.require(
            events == first_events,
            f"paper-single: round {len(rounds) + 1} reported other events than round 1",
        )
        rounds.append((latencies, elapsed))
        traced_time += elapsed
        untraced_time += reference_time
    overhead = (traced_time / untraced_time - 1.0) * 100.0 if trace else 0.0
    return first, rounds, overhead


def _check(api, segmenter, values) -> None:
    """Ordering, window and significance properties plus chunk invariance."""
    config = segmenter.config
    found = [event for event in segmenter.events() if event.kind == "change_point"]
    checks.require(len(found) > 0, "paper-single: no change point detected")
    positions = [event.change_point for event in found]
    checks.require(
        all(a < b for a, b in zip(positions, positions[1:])),
        f"paper-single: change points not strictly increasing: {positions}",
    )
    for event in found:
        checks.require(
            event.at - config.window_size <= event.change_point < event.at,
            f"paper-single: change point {event.change_point} outside the window "
            f"at its detection time {event.at}",
        )
        checks.require(
            event.p_value is not None and event.p_value <= config.significance_level,
            f"paper-single: p-value {event.p_value} above {config.significance_level}",
        )
        checks.require(
            event.score is not None and event.score >= config.score_threshold,
            f"paper-single: score {event.score} below {config.score_threshold}",
        )
    fresh = api.create("class", configs.PAPER_CONFIG)
    prefix = values[:REFEED_PREFIX]
    refed = [e.to_dict() for e in api.stream(fresh, prefix, chunk_size=REFEED_BATCH)]
    original = [e.to_dict() for e in segmenter.events() if e.at <= REFEED_PREFIX]
    checks.require(
        refed == original,
        f"paper-single: re-feeding {REFEED_PREFIX} points in batches of {REFEED_BATCH} "
        f"gave {refed}, batches of {BATCH} gave {original}",
    )


def _quality(segmenter, true_cps, end) -> tuple[float, float]:
    """Covering and median detection delay of the first ``end`` observations."""
    found = [
        (event.change_point, event.at)
        for event in segmenter.events()
        if event.kind == "change_point"
    ]
    truth = [cp for cp in true_cps if cp < end]
    score = checks.covering(truth, [cp for cp, _ in found], end)
    delays = checks.detection_delays(truth, found, MATCH_TOLERANCE)
    checks.require(len(delays) > 0, "paper-single: no detection matched an annotated change point")
    return score, float(statistics.median(delays))


def run(seed: int, seconds: float, trace: bool) -> dict:
    work = common.work_dir("paper-single", seed)
    try:
        values, true_cps = inputs.paper_stream(seed)
        if not trace:
            setup = [
                common.setup_probe(
                    [sys.executable, str(common.BENCH_DIR / "probe.py"), "paper-single"], b"READY"
                )
                for _ in range(SETUP_PROBES)
            ]
        from repro import api

        if trace:
            tracing.install()
        segmenter, rounds, overhead = _feed(api, values, seconds, trace)
        if trace:
            tracing.uninstall()
        rss = common.peak_rss_mib()
        _check(api, segmenter, values)
        cover, delay = _quality(segmenter, true_cps, int(segmenter.n_seen))
        latencies = [latency for round_latencies, _ in rounds for latency in round_latencies]
        result = {"attempted": len(latencies), "failed": 0}
        if trace:
            tracing.dump(work / "spans.json")
            layers = tracing.layer_metrics(tracing.SPANS)
            layers["trace.overhead_pct"] = overhead
            result["layers"] = layers
        else:
            result["metrics"] = {
                "setup_s": statistics.median(setup),
                "throughput_obs_s": ROUND_POINTS * len(rounds) / sum(t for _, t in rounds),
                "latency_p50_ms": common.quantile(latencies, 0.50) * 1e3,
                "latency_p90_ms": common.quantile(latencies, 0.90) * 1e3,
                "covering": cover,
                "detection_delay_p50_obs": delay,
                "peak_rss_mb": rss,
            }
        return result
    finally:
        common.remove_work_dir(work)
