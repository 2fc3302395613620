"""``cell-mix`` and ``campus-air``: in-process ``run_spec`` +
``render_result`` ops, one caller, whole cycles of a fixed op list."""

from __future__ import annotations

import cProfile
import statistics
import sys
import time
from typing import Dict, List

import measure
from workloads import IN_PROCESS_OPS

EVENT_KEYS = ("phy", "mac", "traffic", "timer")


def _run_op(spec):
    """One op; returns the result, its render and when ``run_spec`` ended."""
    from repro.scenario.runner import render_result, run_spec

    result = run_spec(spec, sanitize=False, fast_forward=False)
    ran_at = time.perf_counter()
    return result, render_result(result), ran_at


class InProcessBench:
    """Compile a workload's specs and replay them in a closed loop."""

    def __init__(self, workload: str, seed: int) -> None:
        self.ops = IN_PROCESS_OPS[workload](seed)
        self.specs = [op.build() for op in self.ops]
        self.reference: List[str] = []
        self.setup_failures: List[str] = []
        # One discarded warm-up cycle; its renders are the references
        # every later op of the same spec must reproduce byte for byte.
        for op, spec in zip(self.ops, self.specs):
            try:
                result, rendered, _ = _run_op(spec)
            except Exception as exc:  # noqa: BLE001 — reported as failed
                result, rendered = None, None
                self.setup_failures.append(f"{op.label}: {exc!r}")
            if result is not None and result.pool_leaked != 0:
                self.setup_failures.append(
                    f"{op.label}: pool_leaked={result.pool_leaked}")
            self.reference.append(rendered)

    def run(self, seconds: float, trace: bool, src_root) -> Dict:
        """Timed loop over whole cycles.

        With ``trace`` the cycles alternate untraced and traced (under
        ``cProfile``), so the traced run also measures its own overhead.
        A host control sample runs between ops, outside op timings.
        """
        from repro.scenario.runner import scenario_job

        res = {
            "attempted": 0, "failed": 0, "traced_ops": 0,
            "wall": {False: [], True: []},  # traced? -> raw op seconds
            "slot": {False: [], True: []},  # each op's index in "control"
            "sim_s": {False: 0.0, True: 0.0},
            "events": dict.fromkeys(("total",) + EVENT_KEYS, 0),
            "untraced_events": 0, "jumps": 0, "skipped_s": 0.0,
            "render_s": [], "digest_s": [], "control": [],
            "profile_s": 0.0, "layers": measure.LayerTotals(src_root),
        }
        failures: List[str] = []
        deadline = time.perf_counter() + seconds
        cycle = 0
        while True:
            traced = trace and cycle % 2 == 1
            profile = cProfile.Profile() if traced else None
            for op, spec, reference in zip(self.ops, self.specs,
                                           self.reference):
                res["attempted"] += 1
                problem = ""
                start = time.perf_counter()
                if profile is not None:
                    profile.enable()
                try:
                    result, rendered, ran_at = _run_op(spec)
                except Exception as exc:  # noqa: BLE001 — a failed op
                    problem = repr(exc)
                finally:
                    if profile is not None:
                        profile.disable()
                end = time.perf_counter()
                res["control"].append(measure.control_ms())
                if not problem and (rendered != reference
                                    or result.pool_leaked != 0):
                    problem = (f"render differs from the warm-up render or "
                               f"pool_leaked={result.pool_leaked}")
                if problem:
                    res["failed"] += 1
                    failures.append(f"{op.label}: {problem}")
                    continue
                res["wall"][traced].append(end - start)
                res["slot"][traced].append(len(res["control"]) - 1)
                res["sim_s"][traced] += spec.warmup_seconds + spec.seconds
                res["events"]["total"] += result.events_executed
                for key in EVENT_KEYS:
                    res["events"][key] += result.events_by_category.get(
                        key, 0)
                res["jumps"] += result.fast_forwards
                res["skipped_s"] += result.fast_forwarded_s
                if traced:
                    res["traced_ops"] += 1
                    res["profile_s"] += end - start
                else:
                    res["untraced_events"] += result.events_executed
                    res["render_s"].append(end - ran_at)
                if trace:
                    start = time.perf_counter()
                    scenario_job(spec).digest
                    res["digest_s"].append(time.perf_counter() - start)
            if profile is not None:
                res["layers"].add(profile)
            cycle += 1
            if time.perf_counter() >= deadline and (
                    not trace or cycle % 2 == 0):
                break
        for line in failures[:5]:
            print(f"op failed: {line}", file=sys.stderr)
        local = measure.local_controls(res["control"])
        res["norm"] = {
            traced: [measure.host_normalised(wall, local[slot])
                     for wall, slot in zip(res["wall"][traced],
                                           res["slot"][traced])]
            for traced in (False, True)
        }
        return res


def summary(workload: str, res: Dict, cycle_len: int) -> str:
    wall = res["wall"][False]
    return (f"{workload}: {len(wall)} untraced ops in "
            f"{res['attempted'] // cycle_len} cycles of {cycle_len}, raw "
            f"wall p50 {1000.0 * statistics.median(wall):.2f} ms, "
            f"host.control_ms {statistics.median(res['control']):.3f}")


def end_to_end(res: Dict, setup_s: float) -> Dict[str, tuple]:
    norm = res["norm"][False]
    timed = sum(norm)
    sample = measure.with_failures(norm, res["failed"], timed)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(norm) / timed, "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(sample), "ms"),
        "op_p95_ms": (1000.0 * measure.percentile(sample, 95), "ms"),
        "sim_s_per_wall_s": (res["sim_s"][False] / timed, "s/s"),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
    }


def per_layer(res: Dict) -> Dict[str, tuple]:
    ops = res["attempted"] - res["failed"]
    events = res["events"]
    layers = res["layers"]
    out = layers.metrics(res["traced_ops"])
    out.update({
        "sim.events_per_op": (events["total"] / ops, "count"),
        **{f"sim.{key}_events_per_op": (events[key] / ops, "count")
           for key in EVENT_KEYS},
        "sim.events_per_wall_s": (
            res["untraced_events"] / sum(res["wall"][False]), "1/s"),
        "sim.steady.jumps_per_miss": (res["jumps"] / ops, "count"),
        "sim.steady.skipped_share": (
            res["skipped_s"] / sum(res["sim_s"].values()), "ratio"),
        # No HTTP, store or campaign executor in process.
        "serve.http_ms_per_hit": (0.0, "ms"),
        "serve.run_ms_per_hit": (0.0, "ms"),
        "campaign.store_get_ms": (0.0, "ms"),
        "campaign.run_jobs_ms_per_miss": (0.0, "ms"),
        "serve.hit_ratio": (0.0, "ratio"),
        "campaign.executed_per_miss": (0.0, "count"),
        "scenario.render_ms": (
            1000.0 * statistics.median(res["render_s"]), "ms"),
        "scenario.digest_ms": (
            1000.0 * statistics.median(res["digest_s"]), "ms"),
        "trace.overhead_ratio": (
            statistics.median(res["norm"][True])
            / statistics.median(res["norm"][False]), "ratio"),
        "trace.attributed_share": (
            layers.total_s() / res["profile_s"], "ratio"),
        "host.control_ms": (statistics.median(res["control"]), "ms"),
    })
    return out
