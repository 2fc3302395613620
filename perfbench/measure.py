"""Measurement helpers shared by every workload: percentiles, the host
drift control, peak memory, set-up probes and per-package attribution
of ``cProfile`` self time."""

from __future__ import annotations

import os
import pstats
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Layers are ``repro.<package>``; ``repro.sim.steady`` is split out of
#: ``repro.sim``.  Any other ``repro`` module is ``other``; everything
#: outside ``repro`` (stdlib, builtins) is ``stdlib``.
LAYERS = (
    "sim", "sim.steady", "channel", "phy", "mac", "queueing", "core",
    "transport", "node", "campus", "scenario", "campaign", "serve",
    "experiments", "other", "stdlib",
)


def percentile(values: Sequence[float], q: int) -> float:
    """``q``-th percentile (1..99) with linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def with_failures(latencies: List[float], failed: int,
                  ceiling: float) -> List[float]:
    """A failed op misses every latency limit: it enters the sample as
    ``ceiling`` (the whole run's timed wall), above any real op."""
    return latencies + [ceiling] * failed


#: Iterations of the host drift control loop (about 3 ms here).
CONTROL_ITERATIONS = 40000
#: Control time that defines "reference host speed": the median of the
#: control loop on the 2-vCPU Xeon (2.1 GHz) host the bounds were set on.
REF_CONTROL_MS = 3.5
#: Ops on each side whose controls normalise an op (see local_controls).
CONTROL_WINDOW = 2


def control_ms() -> float:
    """Host drift control: a fixed pure-Python loop, timed in ms.

    It touches no program code, so it moves only when the host does.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CONTROL_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
    return (time.perf_counter() - start) * 1000.0


def control_median_ms() -> float:
    return statistics.median(control_ms() for _ in range(5))


def host_normalised(seconds: float, control: float) -> float:
    """Scale a CPU-bound wall time to reference host speed.

    The host's speed drifts by tens of percent within seconds, and the
    control loop timed next to a region moves with it; dividing by it
    cancels that drift, while any change in the program's own cost
    passes through unchanged.
    """
    return seconds * REF_CONTROL_MS / control


def local_controls(controls: Sequence[float]) -> List[float]:
    """For each op, the median of the controls run after the
    :data:`CONTROL_WINDOW` ops before it through as many ops after it:
    close enough in time to track the drift, with one sample's noise
    smoothed out."""
    return [
        statistics.median(
            controls[max(0, i - CONTROL_WINDOW):i + CONTROL_WINDOW + 1])
        for i in range(len(controls))
    ]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def setup_probe_s(argv: List[str], cwd: Path, timeout_s: float) -> float:
    """Host-normalised seconds from spawning ``argv`` until it prints
    ``ready``.

    The child must then exit 0; anything else raises, so a set-up that
    fails is never reported as a time.
    """
    before = control_median_ms()
    start = time.perf_counter()
    child = subprocess.Popen(
        argv, cwd=cwd, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = child.stdout.read()
        code = child.wait(timeout=timeout_s)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(
            f"set-up probe failed (exit {code}): {(line + rest)[-500:]!r}"
        )
    after = control_median_ms()
    return host_normalised(elapsed, (before + after) / 2.0)


def layer_of(filename: str, src_root: str) -> str:
    """Map a ``cProfile`` code location to its layer name."""
    if not filename.startswith(src_root):
        return "stdlib"
    parts = filename[len(src_root):].lstrip(os.sep).split(os.sep)
    if len(parts) < 2 or parts[0] != "repro":
        return "stdlib"
    package = parts[1][:-3] if parts[1].endswith(".py") else parts[1]
    if package == "sim" and len(parts) > 2 and parts[2] == "steady.py":
        return "sim.steady"
    return package if package in LAYERS else "other"


class LayerTotals:
    """Self time and primitive calls summed by layer over many profiles."""

    def __init__(self, src_root: Path) -> None:
        self.src_root = str(src_root)
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}

    def add(self, profile) -> None:
        stats = pstats.Stats(profile).stats
        for (filename, _, _), (cc, _, tt, _, _) in stats.items():
            layer = layer_of(filename, self.src_root)
            self.self_s[layer] += tt
            self.calls[layer] += cc

    def total_s(self) -> float:
        return sum(self.self_s.values())

    def metrics(self, ops: int) -> Dict[str, tuple]:
        out = {}
        for name in LAYERS:
            out[f"{name}.self_ms_per_op"] = (
                1000.0 * self.self_s[name] / ops, "ms")
            out[f"{name}.calls_per_op"] = (self.calls[name] / ops, "count")
        return out

