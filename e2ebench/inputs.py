"""Seeded inputs of the three workloads (generated here, never timed).

Every stream is an annotated sequence of homogeneous segments rendered by
:mod:`repro.datasets`.  The *order of signal states* is fixed per workload
so that runs on different seeds face equally hard change points; the seed
draws the noise and, on service-fleet and store-replay, each segment's
length.  Paper-single and service-fleet fix each segment's generator
parameters (periods, amplitudes, noise levels) at the middle of its state's
ranges, which keeps covering and detection delay from swinging by seed.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import STATE_LIBRARY, SegmentSpec, compose_stream

#: paper-single: a baseline longer than the 10k window, then segments of
#: 3k points, each state different from its neighbours (sine, square,
#: noise, ECG, ...).  With the baseline, the warm-up window holds no change
#: point: ClaSS reports change points in order, so of several inside the
#: first window it could only ever report the strongest and those after it,
#: which made covering swing by seed.  Lengths and generator parameters are
#: fixed (the middle of each state's ranges) and the seed draws the noise:
#: every seed puts the change points at the same positions, so the share of
#: observations scored near a change (where the significance test runs, the
#: slow batches) and the detection delays are alike on every seed.
PAPER_STATES = ("slow_sine", "square", "fast_sine", "wild_noise", "ecg_normal")
PAPER_BASELINE_LENGTH = (11_000, 11_000)
PAPER_SEGMENT_LENGTH = (3_000, 3_000)
#: 10k warm-up plus one 12k round (see ``paper_single.ROUND_POINTS``).
PAPER_POINTS = 22_000

#: service-fleet: short-period states a 100-point window with width-5
#: subsequences can tell apart; segments of 200-300 points, fixed generator
#: parameters.
FLEET_STATES = ("fast_sine", "wild_noise", "ar_smooth", "calm_noise", "fast_sine", "ar_rough")
FLEET_SEGMENT_LENGTH = (200, 300)


def _state_params(state: dict, rng: np.random.Generator | None) -> dict:
    """Draw a segment's generator parameters from the middle half of a state's ranges.

    The middle half keeps every segment typical of its state, so how hard a
    change point is to find depends on the pair of states more than on the
    seed.  Without ``rng`` every range gives its midpoint and every choice
    its first option.
    """
    params = {}
    for key, value in state.items():
        if key == "generator":
            continue
        numeric_range = (
            isinstance(value, tuple)
            and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        )
        if numeric_range:
            low, high = value
            quarter = (float(high) - float(low)) / 4
            if rng is None:
                drawn = (float(low) + float(high)) / 2
            else:
                drawn = rng.uniform(float(low) + quarter, float(high) - quarter)
            integral = isinstance(low, int) and isinstance(high, int)
            params[key] = int(round(drawn)) if integral else drawn
        elif isinstance(value, tuple):
            params[key] = value[int(rng.integers(0, len(value))) if rng is not None else 0]
        else:
            params[key] = value
    return params


def annotated_stream(
    states, length_range, n_points: int, seed: int, first_range=None, draw_params=True
):
    """A stream of at least ``n_points`` cycling through ``states``.

    ``first_range`` optionally draws the first segment's length from its own
    range; ``draw_params=False`` fixes the generator parameters (see
    :func:`_state_params`).  Returns ``(values, change_points)`` with the
    annotated change points as an int64 array.
    """
    rng = np.random.default_rng(seed)
    specs: list[SegmentSpec] = []
    total = 0
    index = 0
    while total < n_points:
        name = states[index % len(states)]
        low, high = first_range if (index == 0 and first_range) else length_range
        length = int(rng.integers(low, high + 1))
        state = STATE_LIBRARY[name]
        specs.append(
            SegmentSpec(
                state["generator"], length,
                _state_params(state, rng if draw_params else None), label=name,
            )
        )
        total += length
        index += 1
    dataset = compose_stream(specs, seed=int(rng.integers(0, 2**31)))
    values = np.asarray(dataset.values, dtype=np.float64)
    return values, np.asarray(dataset.change_points, dtype=np.int64)


def paper_stream(seed: int, n_points: int = PAPER_POINTS):
    """The multi-segment stream of the paper-single workload."""
    values, change_points = annotated_stream(
        PAPER_STATES, PAPER_SEGMENT_LENGTH, n_points, seed,
        first_range=PAPER_BASELINE_LENGTH, draw_params=False,
    )
    return values[:n_points], change_points[change_points < n_points]


def fleet_stream(seed: int, index: int, n_points: int):
    """Stream ``index`` of the service fleet (rotated state order per stream)."""
    shift = index % len(FLEET_STATES)
    states = FLEET_STATES[shift:] + FLEET_STATES[:shift]
    return annotated_stream(
        states, FLEET_SEGMENT_LENGTH, n_points, seed * 1_000 + index, draw_params=False
    )


def mean_shift_stream(seed: int, n_points: int, length_range=(1_000, 2_000), noise=0.3):
    """Piecewise-constant mean plus Gaussian noise (store-replay input).

    Consecutive segment means differ by 1 to 2.5, always stepping towards
    the other side of zero, so a Page-Hinkley test fires at each boundary.
    """
    rng = np.random.default_rng(seed)
    pieces = []
    change_points = []
    mean = 0.0
    total = 0
    while total < n_points:
        length = int(rng.integers(length_range[0], length_range[1] + 1))
        length = min(length, n_points - total)
        pieces.append(mean + noise * rng.standard_normal(length))
        total += length
        if total < n_points:
            change_points.append(total)
        step = rng.uniform(1.0, 2.5)
        mean = mean + step if (mean < 0 or (mean == 0 and rng.random() < 0.5)) else mean - step
    return np.concatenate(pieces), np.asarray(change_points, dtype=np.int64)
