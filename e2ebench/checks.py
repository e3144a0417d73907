"""Output checks made apart from the program under test.

Everything here is written from the definitions, not by calling into
``repro``: the Covering score (paper Eqn. 6), the matching of detections to
annotated change points, a Page-Hinkley test, the event-log frame parser
and the input checksum.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib

import numpy as np


class CheckFailed(AssertionError):
    """An output check of the benchmark failed."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def covering(true_cps, found_cps, n: int) -> float:
    """Covering of the annotated segmentation by the found one (Eqn. 6).

    ``Cov = 1/n * sum_{s in truth} |s| * max_{p in found} J(s, p)`` with
    ``J`` the Jaccard index of two half-open intervals; the segment borders
    0 and ``n`` are implicit.
    """

    def segments(cps):
        inner = sorted({int(cp) for cp in cps if 0 < int(cp) < n})
        borders = [0, *inner, n]
        return list(zip(borders[:-1], borders[1:]))

    found = segments(found_cps)
    total = 0.0
    for start, end in segments(true_cps):
        best = 0.0
        for other_start, other_end in found:
            overlap = min(end, other_end) - max(start, other_start)
            if overlap > 0:
                best = max(best, overlap / (max(end, other_end) - min(start, other_start)))
        total += (end - start) * best
    return total / n


def detection_delays(true_cps, detections, tolerance: int) -> list[int]:
    """Observations from each annotated change point to its detection's report.

    ``detections`` are ``(change_point, reported_at)`` pairs.  Each annotated
    change point is matched to the nearest unmatched detected change point
    within ``tolerance`` positions; the delay is ``reported_at - true_cp``.
    """
    unmatched = sorted(detections)
    delays = []
    for true_cp in sorted(int(cp) for cp in true_cps):
        best = None
        for index, (found_cp, _at) in enumerate(unmatched):
            distance = abs(found_cp - true_cp)
            if distance <= tolerance and (best is None or distance < best[0]):
                best = (distance, index)
        if best is not None:
            _found_cp, reported_at = unmatched.pop(best[1])
            delays.append(int(reported_at) - true_cp)
    return delays


def page_hinkley(values: np.ndarray, delta: float, threshold: float, min_observations: int):
    """Two-sided Page-Hinkley test (Page 1954) written from its definition.

    The running mean is Welford's; once ``min_observations`` points have been
    seen since the last reset, the cumulative deviations ``sum(x - mean -
    delta)`` and ``sum(x - mean + delta)`` are tracked against their running
    minimum and maximum.  When either distance exceeds ``threshold``, a
    change is reported at the triggering observation and all statistics
    restart.

    Returns ``(detections, scores)``: ``detections`` lists ``(change_point,
    reported_at, score)`` with the change point as the triggering
    observation's 0-based index and ``reported_at`` the number of
    observations seen; ``scores[i]`` is the statistic/threshold ratio after
    observation ``i`` (held over the restart's warm-up).
    """
    detections: list[tuple[int, int, float]] = []
    scores = np.zeros(len(values))
    count = 0
    mean = 0.0
    up = up_min = down = down_max = 0.0
    score = 0.0
    for index, value in enumerate(values.tolist()):
        count += 1
        mean += (value - mean) / count
        if count >= min_observations:
            deviation = value - mean
            up += deviation - delta
            up_min = min(up_min, up)
            down += deviation + delta
            down_max = max(down_max, down)
            statistic = max(up - up_min, down_max - down)
            score = statistic / threshold
            if statistic > threshold:
                detections.append((index, index + 1, score))
                count = 0
                mean = 0.0
                up = up_min = down = down_max = 0.0
        scores[index] = score
    return detections, scores


def parse_event_log(path) -> list[dict]:
    """Every record of an event-log file: ``u32 length | u32 CRC-32 | JSON``.

    Frames are little-endian; a CRC mismatch or a torn frame fails the check.
    """
    data = open(path, "rb").read()
    records = []
    offset = 0
    while offset < len(data):
        require(offset + 8 <= len(data), f"{path}: torn frame header at byte {offset}")
        length, crc = struct.unpack_from("<II", data, offset)
        body = data[offset + 8 : offset + 8 + length]
        require(len(body) == length, f"{path}: torn frame body at byte {offset}")
        require(zlib.crc32(body) == crc, f"{path}: CRC mismatch at byte {offset}")
        records.append(json.loads(body))
        offset += 8 + length
    return records


def checksum(chunks) -> str:
    """SHA-256 of the float64 bytes of a sequence of array chunks, in order."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(np.ascontiguousarray(chunk, dtype=np.float64).tobytes())
    return digest.hexdigest()
