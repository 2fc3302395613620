"""``serve-repeat``: one keep-alive HTTP/1.1 client replaying a seeded
script of store hits and first-seen misses against ``repro serve``.

Untraced runs drive a ``python -m repro serve`` subprocess.  Traced
runs host the same server in process through ``make_server`` so that
``cProfile`` can follow the handler thread, and record spans around the
public calls a request makes (``ServeState.run``, the store's ``get``,
``run_jobs`` and ``render_result``).
"""

from __future__ import annotations

import cProfile
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import measure
from inproc import EVENT_KEYS
from workloads import serve_cycles

SERVER_START_TIMEOUT_S = 60.0


class SubprocessServer:
    """``python -m repro serve`` on a fresh store, with fast-forward on."""

    def __init__(self, root: Path, src_root: Path, store: Path) -> None:
        env = dict(os.environ)
        for name in ("REPRO_SANITIZE", "REPRO_CAMPAIGN_FAULTS",
                     "REPRO_CACHE_DIR"):
            env.pop(name, None)
        env["PYTHONPATH"] = str(src_root)
        env["REPRO_FASTFWD"] = "1"
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(store)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            banner = self.proc.stdout.readline()
            # "serving on http://HOST:PORT (store: ...)"
            address = banner.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            self._wait_healthy()
        except Exception:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while True:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                if resp.status == 200 and resp.read() == b"ok\n":
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
            finally:
                conn.close()

    def peak_rss_mb(self) -> float:
        return measure.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Spans:
    """Per-request span lists, filled by wrappers on the server side."""

    def __init__(self) -> None:
        self.current: Dict[str, List[float]] = defaultdict(list)
        self.profile: Optional[cProfile.Profile] = None
        # Released by the handler once its spans are recorded, so the
        # client never reads them (or the profile) half-written.
        self.handled = threading.Semaphore(0)

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.current[name].append(time.perf_counter() - start)
        return timed


class InProcessServer:
    """``make_server`` on a background thread, instrumented for tracing."""

    def __init__(self, store: Path, spans: Spans) -> None:
        import repro.campaign.executor as executor
        import repro.scenario.runner as runner
        from repro.campaign.store import ResultStore
        from repro.serve import make_server

        self._fastfwd = os.environ.get("REPRO_FASTFWD")
        os.environ["REPRO_FASTFWD"] = "1"
        self.server = make_server(ResultStore(store))
        state = self.server.repro_state
        state.run = spans.wrap("run", state.run)
        state.store.get = spans.wrap("store_get", state.store.get)
        # ServeState.run looks these up at call time.
        self._restore = [(executor, "run_jobs", executor.run_jobs),
                         (runner, "render_result", runner.render_result)]
        executor.run_jobs = spans.wrap("run_jobs", executor.run_jobs)
        runner.render_result = spans.wrap("render", runner.render_result)

        base = self.server.RequestHandlerClass

        class TracedHandler(base):
            def do_POST(self):  # noqa: N802 (stdlib name)
                profile = spans.profile
                start = time.perf_counter()
                if profile is not None:
                    profile.enable()
                try:
                    super().do_POST()
                finally:
                    if profile is not None:
                        profile.disable()
                    spans.current["handler"].append(
                        time.perf_counter() - start)
                    spans.handled.release()

        self.server.RequestHandlerClass = TracedHandler
        self.host, self.port = self.server.server_address[:2]
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def peak_rss_mb(self) -> float:
        return measure.peak_rss_mb()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        for module, name, fn in self._restore:
            setattr(module, name, fn)
        if self._fastfwd is None:
            os.environ.pop("REPRO_FASTFWD", None)
        else:
            os.environ["REPRO_FASTFWD"] = self._fastfwd


class ServeBench:
    """Replay the seeded script over one persistent connection."""

    def __init__(self, seed: int, root: Path, src_root: Path) -> None:
        self.seed = seed
        self.root = root
        self.src_root = src_root
        self.work = root / ".perfbench-work" / f"serve-{os.getpid()}"
        self.specs: Dict[tuple, object] = {}
        self.digests: Dict[tuple, str] = {}
        self.digest_s: List[float] = []

    def _expect(self, request) -> str:
        from repro.scenario.registry import build_spec
        from repro.scenario.runner import scenario_job

        key = request.key
        if key not in self.digests:
            spec = build_spec(request.body["family"],
                              **request.body["overrides"])
            start = time.perf_counter()
            digest = scenario_job(spec).digest
            self.digest_s.append(time.perf_counter() - start)
            self.specs[key] = spec
            self.digests[key] = digest
        return self.digests[key]

    def start_server(self, name: str):
        """A fresh subprocess server and its host-normalised start time
        (spawn until ``/healthz`` answers)."""
        before = measure.control_median_ms()
        server = SubprocessServer(self.root, self.src_root,
                                  self.work / name)
        after = measure.control_median_ms()
        return server, measure.host_normalised(server.setup_s,
                                               (before + after) / 2.0)

    def run(self, seconds: float, trace: bool) -> Dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            return self._run(seconds, trace)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                self.work.parent.rmdir()
            except OSError:
                pass  # another run's work directory is still there

    def _run(self, seconds: float, trace: bool) -> Dict:
        spans = Spans()
        setup = []
        if trace:
            server = InProcessServer(self.work / "main", spans)
        else:
            for name in ("probe-0", "probe-1", "main"):
                server, setup_s = self.start_server(name)
                setup.append(setup_s)
                if name != "main":
                    server.stop()
        records = []
        bodies: Dict[tuple, bytes] = {}
        layers = measure.LayerTotals(self.src_root)
        controls: List[float] = []
        failures: List[str] = []
        run_failures: List[str] = []
        scripted_hits = 0
        try:
            conn = http.client.HTTPConnection(server.host, server.port,
                                              timeout=120)
            script = serve_cycles(self.seed)
            deadline = None
            cycle = 0
            for requests in script:
                # Cycle 0 is the discarded warm-up.
                measured = cycle > 0
                traced = trace and measured and cycle % 2 == 0
                spans.profile = cProfile.Profile() if traced else None
                for request in requests:
                    scripted_hits += request.hit
                    digest = self._expect(request)
                    payload = json.dumps(request.body).encode("utf-8")
                    spans.current = defaultdict(list)
                    start = time.perf_counter()
                    try:
                        conn.request(
                            "POST", "/run", body=payload,
                            headers={"Content-Type": "application/json"})
                        resp = conn.getresponse()
                        data = resp.read()
                        latency = time.perf_counter() - start
                        problem = self._check(request, digest, resp, data,
                                              bodies)
                        executed = int(resp.getheader("X-Repro-Executed",
                                                      "0"))
                        if trace and not spans.handled.acquire(timeout=30):
                            problem = problem or "handler never finished"
                    except (OSError, http.client.HTTPException) as exc:
                        latency, executed = None, 0
                        problem = repr(exc)
                        conn.close()
                    controls.append(measure.control_ms())
                    if problem:
                        failures.append(problem)
                    if measured:
                        records.append({
                            "key": request.key, "hit": request.hit,
                            "latency": latency, "ok": not problem,
                            "slot": len(controls) - 1,
                            "traced": traced, "executed": executed,
                            "spans": spans.current,
                        })
                if spans.profile is not None:
                    layers.add(spans.profile)
                    spans.profile = None
                cycle += 1
                if cycle == 1:
                    deadline = time.perf_counter() + seconds
                elif time.perf_counter() >= deadline and (
                        not trace or cycle % 2 == 1):
                    break
            conn.request("GET", "/stats")
            stats = json.loads(conn.getresponse().read())
            conn.close()
            peak_rss = server.peak_rss_mb()
        finally:
            server.stop()
        if stats.get("hits") != scripted_hits:
            run_failures.append(f"server counted {stats.get('hits')} hits, "
                                f"script sent {scripted_hits}")
        local = measure.local_controls(controls)
        for record in records:
            if record["latency"] is not None:
                record["norm"] = measure.host_normalised(
                    record["latency"], local[record["slot"]])
        results = self._verify(bodies, records, failures)
        for line in failures[:5]:
            print(f"op failed: {line}", file=sys.stderr)
        return {
            "records": records, "results": results, "setup": setup,
            "stats": stats, "layers": layers, "control": controls,
            "peak_rss": peak_rss, "run_failures": run_failures,
        }

    def _check(self, request, digest, resp, data, bodies) -> str:
        verdict = resp.getheader("X-Repro-Cache")
        if resp.status != 200:
            return f"status {resp.status}: {data[:200]!r}"
        if verdict != ("hit" if request.hit else "miss"):
            return f"expected {'hit' if request.hit else 'miss'}, " \
                   f"got {verdict}"
        if resp.getheader("X-Repro-Digest") != digest:
            return "digest header does not match scenario_job(spec).digest"
        if request.hit:
            if data != bodies.get(request.key):
                return "hit body differs from the miss body"
        else:
            bodies[request.key] = data
        return ""

    def _verify(self, bodies, records, failures) -> Dict[tuple, object]:
        """Every miss body must equal the in-process render of its spec
        (hits were already checked byte-equal to the miss body)."""
        from repro.scenario.runner import render_result, run_spec

        results = {}
        bad = set()
        for key, body in bodies.items():
            result = run_spec(self.specs[key], sanitize=False,
                              fast_forward=True)
            results[key] = result
            if (render_result(result) + "\n").encode("utf-8") != body:
                bad.add(key)
                failures.append(f"served render differs in process: {key}")
        for record in records:
            if record["key"] in bad:
                record["ok"] = False
        return results


def _median_ms(values: List[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def reported_s(record) -> float:
    """A request's latency in its own time base: hits are bound by a
    40 ms kernel timer (see README) and stay raw; misses are CPU-bound
    and are host-normalised like the in-process ops."""
    return record["latency"] if record["hit"] else record["norm"]


def end_to_end(res: Dict) -> Dict[str, tuple]:
    records = res["records"]
    ok = [r for r in records if r["ok"]]
    timed = sum(reported_s(r) for r in ok)
    hits = [r["latency"] for r in ok if r["hit"]]
    misses = [r for r in ok if not r["hit"]]
    hit_sample = measure.with_failures(
        hits, sum(1 for r in records if r["hit"] and not r["ok"]), timed)
    sim_s = sum(res["results"][r["key"]].warmup_seconds
                + res["results"][r["key"]].seconds for r in misses)
    return {
        "setup_s": (statistics.median(res["setup"]), "s"),
        "ops_per_s": (len(ok) / timed, "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(hit_sample), "ms"),
        "op_p95_ms": (1000.0 * measure.percentile(hit_sample, 95), "ms"),
        "sim_s_per_wall_s": (sim_s / sum(r["norm"] for r in misses), "s/s"),
        "peak_rss_mb": (res["peak_rss"], "MB"),
    }


def summary(res: Dict) -> str:
    ok = [r for r in res["records"] if r["ok"] and not r["traced"]]
    hits = [r["latency"] for r in ok if r["hit"]]
    misses = [r["latency"] for r in ok if not r["hit"]]
    return (f"serve-repeat: {len(hits)} untraced hits, raw p50 "
            f"{_median_ms(hits):.2f} ms; {len(misses)} misses, raw p50 "
            f"{_median_ms(misses):.2f} ms; "
            f"host.control_ms {statistics.median(res['control']):.3f}")


def per_layer(res: Dict, digest_s: List[float]) -> Dict[str, tuple]:
    records = res["records"]
    ok = [r for r in records if r["ok"]]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    u_hits = [r for r in untraced if r["hit"]]
    u_misses = [r for r in untraced if not r["hit"]]
    t_hits = [r for r in traced if r["hit"]]
    misses = [r for r in ok if not r["hit"]]
    results = res["results"]
    miss_results = [results[r["key"]] for r in misses]
    n = len(ok)
    events = dict.fromkeys(("total",) + EVENT_KEYS, 0)
    for result in miss_results:
        events["total"] += result.events_executed
        for key in EVENT_KEYS:
            events[key] += result.events_by_category.get(key, 0)
    u_miss_events = sum(results[r["key"]].events_executed for r in u_misses)
    sim_s = sum(r.warmup_seconds + r.seconds for r in miss_results)
    stats = res["stats"]

    def span(rs, name):
        return [s for r in rs for s in r["spans"][name]]

    out = res["layers"].metrics(max(len(traced), 1))
    out.update({
        "sim.events_per_op": (events["total"] / n, "count"),
        **{f"sim.{key}_events_per_op": (events[key] / n, "count")
           for key in EVENT_KEYS},
        "sim.events_per_wall_s": (
            u_miss_events / sum(r["latency"] for r in u_misses), "1/s"),
        "sim.steady.jumps_per_miss": (
            sum(r.fast_forwards for r in miss_results) / len(misses),
            "count"),
        "sim.steady.skipped_share": (
            sum(r.fast_forwarded_s for r in miss_results) / sim_s, "ratio"),
        "serve.http_ms_per_hit": (_median_ms(
            [r["latency"] - sum(r["spans"]["run"]) for r in u_hits]), "ms"),
        "serve.run_ms_per_hit": (_median_ms(span(u_hits, "run")), "ms"),
        "campaign.store_get_ms": (
            _median_ms(span(u_hits, "store_get")), "ms"),
        "campaign.run_jobs_ms_per_miss": (
            _median_ms(span(u_misses, "run_jobs")), "ms"),
        "scenario.render_ms": (_median_ms(span(u_hits, "render")), "ms"),
        "scenario.digest_ms": (_median_ms(digest_s), "ms"),
        "serve.hit_ratio": (
            stats["hits"] / (stats["hits"] + stats["misses"]), "ratio"),
        "campaign.executed_per_miss": (
            sum(r["executed"] for r in misses) / len(misses), "count"),
        "trace.overhead_ratio": (
            statistics.median(r["latency"] for r in t_hits)
            / statistics.median(r["latency"] for r in u_hits), "ratio"),
        "trace.attributed_share": (
            res["layers"].total_s() / sum(span(traced, "handler")),
            "ratio"),
        "host.control_ms": (statistics.median(res["control"]), "ms"),
    })
    return out
