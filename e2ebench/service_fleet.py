"""service-fleet: many small-window ClaSS streams through the HTTP service.

The server (``repro.cli serve`` through :mod:`serve`, with the spool on
but not fsynced, and a tiny in-memory event history) runs as its own
process.  This process is the load
generator; it runs two phases:

1. **closed loop** (saturation): one keep-alive connection per processor (2
   on the reference host) each posts the next batch of its own "sat"
   streams as soon as the previous reply arrived, until every sat stream
   was sent in full (a fixed amount of work); the observations acked per
   wall-second give ``throughput_obs_s``.  Streams are partitioned over the
   connections, so each stream's batches are sent in order.
2. **open loop** (latency): one connection replays a seeded Poisson
   schedule, fixed in absolute time, of observation posts to the "fleet"
   streams plus a share of ``GET .../events?since=`` history reads.  Each
   operation's latency runs from its due time, so waiting for the busy
   connection counts.

Any non-2xx reply, a 503 shed included, is a failed operation.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import common
import configs
import inputs
import tracing

BATCH = 40
N_FLEET = 16
N_SAT = 8
#: Offered open-loop rate (operations per second): under a tenth of one
#: core, so an operation seldom waits for the previous one.  About 280
#: operations per 25-second run put 28 samples beyond p90.
OPEN_RATE = 16.0
READ_SHARE = 0.25
#: The open loop lasts this share of ``--seconds``; the closed loop's fixed
#: work takes about the rest on the reference host.
OPEN_SHARE = 0.7
#: Points per sat stream: 48k observations in the closed loop.
SAT_POINTS = 6_000
SETUP_PROBES = 3
MATCH_TOLERANCE = 50


class Connection:
    """One keep-alive HTTP connection that records every exchange."""

    def __init__(self, port: int) -> None:
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.failed = 0
        self.attempted = 0

    def request(self, method: str, path: str, body=None):
        """Send one request; return ``(status, document)``."""
        self.attempted += 1
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        self.http.request(method, path, body=payload, headers=headers)
        response = self.http.getresponse()
        document = json.loads(response.read() or b"null")
        if not 200 <= response.status < 300:
            self.failed += 1
        return response.status, document

    def close(self) -> None:
        self.http.close()


class Stream:
    """Client-side ledger of one stream: values sent, events acked."""

    def __init__(self, name: str, values: np.ndarray, true_cps) -> None:
        self.name = name
        self.values = values
        self.true_cps = true_cps
        self.sent = 0
        self.seq = 0
        self.events: list[dict] = []

    def post(self, connection: Connection):
        """Post the next batch; check and record its ack."""
        batch = self.values[self.sent : self.sent + BATCH]
        status, ack = connection.request(
            "POST", f"/streams/{self.name}/observations",
            {"values": batch.tolist(), "seq": self.seq},
        )
        if status == 200:
            self.sent += len(batch)
            checks.require(
                ack["n_seen"] == self.sent,
                f"service-fleet: {self.name} ack n_seen {ack['n_seen']} != {self.sent} sent",
            )
            checks.require(
                ack.get("seq") == self.seq and not ack.get("replayed"),
                f"service-fleet: {self.name} seq {self.seq} acked as {ack.get('seq')}",
            )
            self.seq += 1
            self.events.extend(ack["events"])
        return status

    def read_history(self, connection: Connection, cursor: int):
        status, document = connection.request(
            "GET", f"/streams/{self.name}/events?since={cursor}"
        )
        if status == 200:
            checks.require(
                document["events"] == self.events[cursor:]
                and document["next"] == len(self.events),
                f"service-fleet: {self.name} ?since={cursor} differs from the acked events",
            )
        return status


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """The service as a child process; ``start`` returns once /healthz answers."""

    def __init__(self, work: Path, tag: str, spans: Path | None = None) -> None:
        self.port = _free_port()
        self.spool = work / f"spool-{tag}"
        flags = [
            "--port", str(self.port), "--spool-dir", str(self.spool), *configs.FLEET_SERVER_FLAGS,
        ]
        launcher = str(common.BENCH_DIR / "serve.py")
        self.argv = [sys.executable, launcher, str(spans) if spans else "-", "serve", *flags]
        self.log = open(work / f"server-{tag}.log", "wb")
        self.process: subprocess.Popen | None = None

    def start(self) -> float:
        began = time.perf_counter()
        self.process = subprocess.Popen(
            self.argv, stdout=self.log, stderr=subprocess.STDOUT,
            env=common.child_env(), cwd=common.REPO_ROOT,
        )
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode} during start")
            try:
                with socket.create_connection(("127.0.0.1", self.port), timeout=1) as sock:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                    if sock.recv(64).startswith(b"HTTP/1.1 200"):
                        return time.perf_counter() - began
            except OSError:
                pass
            time.sleep(0.005)

    def stop(self) -> int:
        """Graceful SIGTERM shutdown (drain + checkpoint); returns the exit code."""
        assert self.process is not None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.log.close()
        return code


def _streams(seed: int, schedule) -> tuple[list[Stream], list[Stream]]:
    """Sat streams (long) and fleet streams (exactly as long as the schedule needs)."""
    sat = []
    for index in range(N_SAT):
        values, cps = inputs.fleet_stream(seed, 1_000 + index, SAT_POINTS)
        sat.append(Stream(f"sat-{index}", values[:SAT_POINTS], cps[cps < SAT_POINTS]))
    posts = [0] * N_FLEET
    for lane in schedule:
        for _due, kind, target, _draw in lane:
            if kind == "post":
                posts[target] += 1
    fleet = []
    for index in range(N_FLEET):
        values, cps = inputs.fleet_stream(seed, index, max(posts[index], 1) * BATCH)
        fleet.append(Stream(f"fleet-{index:02d}", values[: posts[index] * BATCH], cps))
    return sat, fleet


def _schedule(seed: int, duration: float, lanes: int):
    """Per connection: seeded Poisson arrivals ``(due offset, kind, stream index, draw)``.

    Streams are partitioned over the connections, so each stream's batches
    go out in order on one connection; ``draw`` picks a read's cursor.
    """
    rng = np.random.default_rng(seed + 7_919)
    schedule = []
    for lane in range(lanes):
        mine = [index for index in range(N_FLEET) if index % lanes == lane]
        ops = []
        due = float(rng.exponential(lanes / OPEN_RATE))
        while due < duration:
            kind = "read" if rng.random() < READ_SHARE else "post"
            ops.append((due, kind, mine[int(rng.integers(0, len(mine)))], float(rng.random())))
            due += float(rng.exponential(lanes / OPEN_RATE))
        schedule.append(ops)
    return schedule


def _run_lanes(target, lanes):
    """Run ``target(lane)`` on one thread per lane; re-raise the first failure."""
    errors: list[BaseException] = []

    def guarded(lane):
        try:
            target(lane)
        except BaseException as error:  # surfaced below, on the main thread
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(lane,)) for lane in range(lanes)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _closed_loop(connections, sat):
    """Saturate: each connection posts its sat streams round-robin until all are sent."""
    lanes = len(connections)
    stamps: list[tuple[float, int]] = []
    start = time.perf_counter()

    def lane_loop(lane):
        mine = [stream for index, stream in enumerate(sat) if index % lanes == lane]
        turn = 0
        while any(stream.sent < len(stream.values) for stream in mine):
            stream = mine[turn % len(mine)]
            turn += 1
            if stream.sent >= len(stream.values):
                continue
            checks.require(
                stream.post(connections[lane]) == 200,
                f"service-fleet: closed-loop post to {stream.name} failed",
            )
            stamps.append((time.perf_counter(), BATCH))

    _run_lanes(lane_loop, lanes)
    end = time.perf_counter()
    return common.sliced_rate(stamps, start, end, width=0.25)


def _open_loop(connections, fleet, schedule):
    """Replay the schedule in absolute time; return latency, lateness, round trips."""
    latencies: list[float] = []
    lateness: list[float] = []
    round_trips: list[float] = []
    origin = time.perf_counter() + 0.05

    def lane_loop(lane):
        free_at = origin
        for due_offset, kind, target, draw in schedule[lane]:
            due = origin + due_offset
            # spin, not sleep, until the due time: a halted vCPU that the
            # hypervisor must wake first adds its wake-up delay to the latency
            while time.perf_counter() < due:
                pass
            sent = time.perf_counter()
            stream = fleet[target]
            if kind == "post":
                stream.post(connections[lane])
            else:
                stream.read_history(connections[lane], int(draw * (len(stream.events) + 1)))
            done = time.perf_counter()
            latencies.append(done - due)
            round_trips.append(done - sent)
            lateness.append(sent - max(due, free_at))
            free_at = done

    _run_lanes(lane_loop, len(connections))
    return latencies, lateness, round_trips


def _reference_check(streams) -> None:
    """Every stream's events equal an in-process ``api.stream`` on the same values."""
    from repro import api

    for stream in streams:
        detector = api.create("class", configs.FLEET_CONFIG)
        offline = [
            event.to_dict()
            for event in api.stream(
                detector, stream.values[: stream.sent], chunk_size=BATCH, include_scores=True
            )
        ]
        checks.require(
            offline == stream.events,
            f"service-fleet: {stream.name} events differ from an in-process api.stream run",
        )


def _quality(streams) -> tuple[float, float]:
    """Length-weighted covering and median delay over the streams."""
    weighted = 0.0
    total = 0
    delays: list[int] = []
    for stream in streams:
        n = stream.sent
        if n == 0:
            continue
        truth = [cp for cp in stream.true_cps if cp < n]
        found = [
            (event["change_point"], event["at"])
            for event in stream.events
            if event["kind"] == "change_point"
        ]
        weighted += n * checks.covering(truth, [cp for cp, _ in found], n)
        total += n
        delays.extend(checks.detection_delays(truth, found, MATCH_TOLERANCE))
    checks.require(len(delays) > 0, "service-fleet: no detection matched an annotated change point")
    return weighted / total, float(statistics.median(delays))


def run(seed: int, seconds: float, trace: bool) -> dict:
    # the connection threads hand the GIL over within 0.5 ms instead of the
    # default 5 ms, so the generator itself adds no waits to the latencies
    sys.setswitchinterval(0.0005)
    work = common.work_dir("service-fleet", seed)
    servers: list[Server] = []
    try:
        lanes = max(1, min(os.cpu_count() or 1, 2))
        schedule = _schedule(seed, seconds * OPEN_SHARE, 1)
        sat, fleet = _streams(seed, schedule)

        def launch(tag, spans=None):
            server = Server(work, tag, spans)
            servers.append(server)
            return server, server.start()

        def connect_and_create(server, streams):
            connections = [Connection(server.port) for _ in range(lanes)]
            spec = {"detector": "class", "config": configs.FLEET_CONFIG, "include_scores": True}
            for stream in streams:
                status, document = connections[0].request("POST", f"/streams/{stream.name}", spec)
                checks.require(status == 201, f"service-fleet: creating {stream.name}: {document}")
            return connections

        setup = []
        overhead = 0.0
        if trace:
            server, _ = launch("untraced")
            connections = connect_and_create(server, sat)
            untraced_rate = _closed_loop(connections, sat)
            for connection in connections:
                connection.close()
            server.stop()
            sat, fleet = _streams(seed, schedule)
            server, _ = launch("traced", spans=work / "spans.json")
        else:
            for probe in range(SETUP_PROBES):
                server, elapsed = launch(f"probe{probe}")
                setup.append(elapsed)
                if probe < SETUP_PROBES - 1:
                    server.stop()
        connections = connect_and_create(server, sat + fleet)
        throughput = _closed_loop(connections, sat)
        if trace:
            overhead = (untraced_rate / throughput - 1.0) * 100.0
        latencies, lateness, round_trips = _open_loop(connections[:1], fleet, schedule)
        for stream in sat + fleet:
            stream.read_history(connections[0], 0)
        rss = common.peak_rss_mib(server.process.pid)
        attempted = sum(connection.attempted for connection in connections)
        failed = sum(connection.failed for connection in connections)
        for connection in connections:
            connection.close()
        checks.require(server.stop() == 0, "service-fleet: server did not shut down cleanly")
        _reference_check(sat + fleet)
        cover, delay = _quality(sat + fleet)
        result = {"attempted": attempted, "failed": failed}
        if trace:
            layers = tracing.layer_metrics(tracing.load(work / "spans.json"))
            acked = sum(stream.sent for stream in sat + fleet)
            layers.update(
                {
                    "trace.overhead_pct": overhead,
                    "service.client.round_trip_ms_p50": common.quantile(round_trips, 0.5) * 1e3,
                    "service.requests": attempted,
                    "service.failed": failed,
                    "generator.lateness_ms_p99": common.quantile(lateness, 0.99) * 1e3,
                    "storage.bytes_written_per_obs": common.directory_bytes(server.spool) / acked,
                }
            )
            result["layers"] = layers
        else:
            result["metrics"] = {
                "setup_s": statistics.median(setup),
                "throughput_obs_s": throughput,
                "latency_p50_ms": common.quantile(latencies, 0.50) * 1e3,
                "latency_p90_ms": common.quantile(latencies, 0.90) * 1e3,
                "covering": cover,
                "detection_delay_p50_obs": delay,
                "peak_rss_mb": rss,
            }
        return result
    finally:
        for server in servers:
            if server.process is not None and server.process.poll() is None:
                server.process.kill()
                server.process.wait()
            if not server.log.closed:
                server.log.close()
        common.remove_work_dir(work)
