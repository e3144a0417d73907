"""Shared helpers: host fingerprint, calibration loop, quantiles, memory, work dirs."""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

#: Environment that pins BLAS/OpenMP pools to one thread in every process the
#: benchmark starts (numpy reads these at import time).
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def child_env() -> dict[str, str]:
    """Environment for child processes: pinned threads, ``src`` importable."""
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    paths = [str(SRC_DIR), *filter(None, [env.get("PYTHONPATH")])]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def sliced_rate(stamps: list[tuple[float, int]], start: float, end: float, width: float) -> float:
    """Median over wall-clock slices of about ``width`` seconds of work done per second.

    ``stamps`` holds ``(completion time, units)`` pairs.  Taking the median of
    the slice rates keeps host stalls that cover less than half of the
    slices from setting the figure.
    """
    slices = max(1, round((end - start) / width))
    width = (end - start) / slices
    done = [0] * slices
    for stamp, units in stamps:
        index = int((stamp - start) / width)
        if 0 <= index < slices:
            done[index] += units
    return statistics.median(units / width for units in done)


def calibration_ms() -> float:
    """Time a fixed numpy + pure-Python loop; a slow host reads high here."""
    import numpy as np

    rng = np.random.default_rng(12345)
    matrix = rng.standard_normal((200, 200))
    start = time.perf_counter()
    total = 0.0
    for _ in range(20):
        total += float(np.sort(matrix @ matrix, axis=0)[100].sum())
    for index in range(200_000):
        total += index % 7
    elapsed = time.perf_counter() - start
    if total != total:  # keep the loop's result alive
        raise RuntimeError("calibration produced NaN")
    return elapsed * 1e3


def peak_rss_mib(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_ticks() -> tuple[int, int]:
    """Total and stolen CPU ticks of the machine so far (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return sum(fields), fields[7] if len(fields) > 7 else 0


def directory_bytes(path: Path) -> int:
    """Total size of the regular files below ``path``."""
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def host_info() -> dict:
    """CPU model, processor count, load average and library versions."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg": [round(value, 2) for value in os.getloadavg()],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def work_dir(workload: str, seed: int) -> Path:
    """A fresh scratch directory inside the checkout for one run's files."""
    path = REPO_ROOT / ".e2ebench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    """Delete a run's scratch directory and, when empty, its parent."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def setup_probe(argv: list[str], ready_marker: bytes, timeout: float = 60.0) -> float:
    """Seconds from starting a fresh process until it prints ``ready_marker``.

    The probe process exits right after; it is waited for before returning.
    """
    import subprocess

    start = time.perf_counter()
    process = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(), cwd=REPO_ROOT
    )
    try:
        assert process.stdout is not None
        for line in process.stdout:
            if line.strip() == ready_marker:
                elapsed = time.perf_counter() - start
                break
        else:
            raise RuntimeError(f"setup probe {argv} ended without becoming ready")
        process.wait(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"setup probe {argv} exited with {process.returncode}")
    return elapsed
