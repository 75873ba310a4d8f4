"""The ``service`` workload: a closed loop of ``POST /run`` requests from
one client on one persistent HTTP/1.1 connection to a ``--jobs 1``
experiment service with a fresh store.

A seeded plan draws from a pool of Figure 6 latency specs.  The first
touch of a spec is cold (simulate, then store put); every later request
for it is warm (served from the store).  The client sends the next
request only after the previous response has been read in full.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import BENCH_DIR, Tally, child_env, percentile, tail_note, vm_hwm_mb

#: Figure 6's device@bus configurations, without repeats.
CONFIGS = (
    ("NI2w", "memory"), ("CNI4", "memory"), ("CNI16Q", "memory"),
    ("CNI512Q", "memory"), ("CNI16Qm", "memory"),
    ("NI2w", "io"), ("CNI4", "io"), ("CNI16Q", "io"), ("CNI512Q", "io"),
    ("NI2w", "cache"),
)
SIZES = (8, 16, 24, 32, 48, 64, 96, 128, 160, 192, 224, 256)
ITERATIONS = 30
POOL = [
    {"kind": "latency", "device": device, "bus": bus, "message_bytes": size, "iterations": ITERATIONS}
    for device, bus in CONFIGS
    for size in SIZES
]
#: Host seconds per request of the mix on a 2-core Xeon; ``--seconds``
#: divided by this is the request count, so a given ``--seconds`` always
#: sends the same mix.
NOMINAL_REQUEST_S = 0.06
#: Share of requests that first-touch a spec (the rest are repeats).
COLD_SHARE = 0.3
#: Launches timed for set-up, half before the mix and half after it.
SETUP_LAUNCHES = 8
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")
_BANNER = re.compile(r"on http://([^:]+):(\d+) ")


def spec_label(spec: Dict[str, Any]) -> str:
    return f"{spec['device']}@{spec['bus']} {spec['message_bytes']}B"


def plan(seed: int, seconds: float) -> Tuple[List[int], List[bool]]:
    """The request sequence: pool indices and whether each is a first touch.

    The count of cold and warm requests depends only on ``seconds``; the
    seed picks which specs are touched, their order, and which earlier
    spec each repeat asks for.
    """
    rng = random.Random(seed)
    total = max(10, round(seconds / NOMINAL_REQUEST_S))
    distinct = min(len(POOL), max(1, round(COLD_SHARE * total)))
    fresh = iter(rng.sample(range(len(POOL)), distinct))
    cold_at = {0, *rng.sample(range(1, total), distinct - 1)}
    touched: List[int] = []
    order: List[int] = []
    for position in range(total):
        if position in cold_at:
            touched.append(next(fresh))
            order.append(touched[-1])
        else:
            order.append(rng.choice(touched))
    return order, [position in cold_at for position in range(total)]


# ----------------------------------------------------------------------
# Server lifetime
# ----------------------------------------------------------------------
class Server:
    """One service process with a fresh store, and the client connection.

    ``setup_s`` is the time from launch to reading the readiness banner on
    stdout, plus opening the connection.
    """

    def __init__(self, store_dir: str, spans_path: Optional[str] = None):
        args = ["--port", "0", "--jobs", "1", "--store-dir", store_dir]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.service", *args]
        else:
            command = [sys.executable, os.path.join(BENCH_DIR, "traced_server.py"), spans_path, *args]
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=child_env())
        try:
            banner = self.proc.stdout.readline()
            match = _BANNER.search(banner)
            if match is None:
                raise RuntimeError(f"service did not start: {banner!r}")
            self.conn = http.client.HTTPConnection(match.group(1), int(match.group(2)), timeout=120)
            self.conn.connect()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def post_run(self, body: bytes) -> Tuple[int, Dict[str, str], bytes]:
        self.conn.request("POST", "/run", body=body, headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = response.read()
        return response.status, {k.lower(): v for k, v in response.getheaders()}, data

    def stats(self) -> Dict[str, Any]:
        self.conn.request("GET", "/stats")
        response = self.conn.getresponse()
        return json.loads(response.read())

    def stop(self) -> None:
        """SIGTERM (the service drains and exits 0); kill if it hangs."""
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def launch_probe(store_dir: str) -> float:
    """Set-up seconds of one launch, shut down straight after."""
    server = Server(store_dir)
    server.stop()
    return server.setup_s


# ----------------------------------------------------------------------
# The request mix
# ----------------------------------------------------------------------
def load_pins() -> Dict[str, Dict[str, float]]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["service"]


def run_mix(server: Server, order: List[int], cold: List[bool], tally: Tally) -> Dict[str, Any]:
    """Send the plan; check every response; return per-request timings."""
    pins = load_pins()
    bodies = [json.dumps(spec).encode("utf-8") for spec in POOL]
    first_etag: Dict[int, str] = {}
    round_trips: List[float] = []
    started = time.perf_counter()
    for index, is_cold in zip(order, cold):
        sent = time.perf_counter()
        try:
            status, headers, data = server.post_run(bodies[index])
        except (OSError, http.client.HTTPException) as exc:
            round_trips.append(time.perf_counter() - sent)
            tally.check(False, f"request for {spec_label(POOL[index])} failed: {exc!r}")
            server.conn.close()  # http.client reconnects on the next request
            continue
        round_trips.append(time.perf_counter() - sent)
        label = spec_label(POOL[index])
        etag = headers.get("etag")
        problem = None
        if status != 200:
            problem = f"status {status}"
        elif headers.get("x-repro-role") != ("leader" if is_cold else "store"):
            problem = f"role {headers.get('x-repro-role')!r} on a {'cold' if is_cold else 'warm'} request"
        elif not is_cold and etag != first_etag.get(index):
            problem = "repeat ETag differs from the first response"
        elif json.loads(data).get("metrics") != pins.get(label):
            problem = "metrics differ from the pinned values"
        if is_cold and etag is not None:
            first_etag[index] = etag
        tally.check(problem is None, f"{label}: {problem}")
    wall = time.perf_counter() - started
    stats = server.stats()["service"]
    distinct = sum(cold)
    tally.invariant(
        stats["runs_started"] == distinct,
        f"runs_started {stats['runs_started']} != {distinct} distinct specs",
    )
    return {"wall": wall, "round_trips": round_trips, "stats": stats}


def end_to_end(setup: List[float], mix: Dict[str, Any], cold: List[bool], rss_mb: float) -> Dict[str, Tuple[float, str, str]]:
    cold_rt = [rt for rt, c in zip(mix["round_trips"], cold) if c]
    warm_rt = [rt for rt, c in zip(mix["round_trips"], cold) if not c]
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} launches"),
        "wall_s": (mix["wall"], "s", f"{len(cold)} requests"),
        "peak_rss_mb": (rss_mb, "MB", "server VmHWM before shutdown"),
        "cold_ms_p50": (1000 * percentile(cold_rt, 50), "ms", f"{tail_note(len(cold_rt), 50)} first touches"),
        "cold_ms_p90": (1000 * percentile(cold_rt, 90), "ms", f"{tail_note(len(cold_rt), 90)} first touches"),
        "warm_ms_p50": (1000 * percentile(warm_rt, 50), "ms", f"{tail_note(len(warm_rt), 50)} repeats"),
        "warm_ms_p90": (1000 * percentile(warm_rt, 90), "ms", f"{tail_note(len(warm_rt), 90)} repeats"),
        "req_per_s": (len(cold) / mix["wall"], "1/s", "requests / wall_s"),
    }


def serve_mix(seed: int, seconds: float, work_dir: str, tally: Tally, spans_path: Optional[str] = None):
    """Set-up samples from launches before and after the mix (the last one
    before it serves the mix), so a slow spell of the host touches set-up
    and the mix alike.  One untimed launch first compiles the bytecode a
    fresh checkout lacks."""
    order, cold = plan(seed, seconds)
    store = lambda name: os.path.join(work_dir, f"store-{name}")  # noqa: E731
    launch_probe(store("compile"))
    setup = [launch_probe(store(f"before-{i}")) for i in range(SETUP_LAUNCHES // 2 - 1)]
    server = Server(store("mix"), spans_path)
    setup.append(server.setup_s)
    try:
        mix = run_mix(server, order, cold, tally)
        rss_mb = vm_hwm_mb(server.proc.pid)
    finally:
        server.stop()
    setup += [launch_probe(store(f"after-{i}")) for i in range(SETUP_LAUNCHES - len(setup))]
    return setup, mix, cold, rss_mb


def measure(workload: str, seed: int, seconds: float, work_dir: str, tally: Tally) -> Dict[str, Tuple[float, str, str]]:
    setup, mix, cold, rss_mb = serve_mix(seed, seconds, work_dir, tally)
    return end_to_end(setup, mix, cold, rss_mb)


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def trace(workload: str, seed: int, seconds: float, work_dir: str, tally: Tally, spans_path: str) -> Dict[str, Tuple[float, str, str]]:
    """The untraced mix, then the same mix against a server whose layer
    calls are spans (see traced_server.py)."""
    from spans import durations

    _, untraced, _, _ = serve_mix(seed, seconds, os.path.join(work_dir, "untraced"), tally)
    _, traced, cold, _ = serve_mix(seed, seconds, os.path.join(work_dir, "traced"), tally, spans_path)
    with open(spans_path, encoding="utf-8") as handle:
        spans = json.load(handle)

    handlers = sorted((s for s in spans if s["name"] == "service.handler"), key=lambda s: s["ident"])
    tally.invariant(
        len(handlers) == len(cold), f"{len(handlers)} handler spans for {len(cold)} requests"
    )
    handler = [s["end"] - s["start"] for s in handlers]
    wait = [rt - h for rt, h in zip(traced["round_trips"], handler)]

    def split(values: List[float], want_cold: bool) -> List[float]:
        return [v for v, c in zip(values, cold) if c == want_cold]

    def median_ms(values: List[float]) -> float:
        return 1000 * statistics.median(values)

    def median_us(name: str, **tags: Any) -> Tuple[float, str, str]:
        values = durations(spans, name, **tags)
        return 1e6 * statistics.median(values), "us", f"median, n={len(values)}"

    stats = traced["stats"]
    n_cold = sum(cold)
    n_warm = len(cold) - n_cold
    return {
        "service.handler_ms": (median_ms(handler), "ms", f"median do_POST, n={len(handler)}"),
        "service.handler_cold_ms": (median_ms(split(handler, True)), "ms", f"median, n={n_cold}"),
        "service.handler_warm_ms": (median_ms(split(handler, False)), "ms", f"median, n={n_warm}"),
        "service.wire_wait_ms": (median_ms(split(wait, False)), "ms", f"warm round trip - handler, median, n={n_warm}"),
        "service.wire_wait_cold_ms": (median_ms(split(wait, True)), "ms", f"cold round trip - handler, median, n={n_cold}"),
        "api.parse_spec_us": median_us("api.parse_spec"),
        "service.cache_key_us": median_us("service.cache_key"),
        "service.read_entry_us": median_us("service.read_entry"),
        "service.store_get_us": median_us("service.store_get"),
        "service.store_get_hit_us": median_us("service.store_get", outcome="hit"),
        "service.store_get_miss_us": median_us("service.store_get", outcome="miss"),
        "service.store_put_us": median_us("service.store_put"),
        "api.run_point_ms": (median_ms(durations(spans, "api.run_point")), "ms", f"median, n={n_cold}"),
        "service.hit_ratio": (stats["store_served"] / stats["run_requests"], "ratio", "store_served / run_requests"),
        "service.runs_started": (stats["runs_started"], "count", f"{n_cold} distinct specs"),
        "tracing.overhead_s": (
            traced["wall"] - untraced["wall"], "s",
            f"traced {traced['wall']:.3f} s - untraced {untraced['wall']:.3f} s",
        ),
    }
