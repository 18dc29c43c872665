"""The repository benchmark: two seeded workloads over the AutoCheck layers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 40 --trace 0

Workloads (``--workload``):

* ``fleet`` -- the 16-app bundled fleet, serially, at default parameters,
  visited in turn until ``--seconds`` is used (at least one pass).  Each
  pass starts from an empty store and trace directory; each visit runs
  ``compile_source`` -> ``trace_to_file(fmt="binary")`` ->
  ``AutoCheck(...).run()`` with ``use_cache=True`` (cold), then repeats
  compile + ``run()`` on the store (warm, answered by the store's read and
  deserialize path).
* ``serve_mix`` -- the ``serve`` daemon in its own process with 2 pool
  workers (:mod:`serve_daemon`), its store pre-warmed with the fleet.  Two
  client lanes (one open connection each) send an open-loop, seeded
  Poisson stream of warm ``POST /analyze`` app requests at a fixed rate,
  with cold requests spread over it (apps at iteration counts not seen
  before, uploads of traces built in set-up, some sent as identical
  pairs).  A warm-only ladder of rates 10% apart follows.

The seed drives every generated input (app order, arrival times, request
order, which requests are paired); the program only sees those inputs.
Every result is checked: each critical set must equal the app's
``expected_critical`` (paper Table II), and the ``canonical_report_json``
bytes of one key must be identical in every cold and warm analysis and
every serve response.  A mismatch counts as a failed operation and the
command exits 1.

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  With ``--trace 0`` the metrics are the end-to-end
ones of ``BENCHMARK.json``; with ``--trace 1`` the layer entry points are
wrapped in spans (:mod:`layers`) and the metrics are the per-layer ones.
The end-to-end metrics carry the same names on every workload.  Their
times are CPU seconds (see :class:`Clock`); wall times are printed beside
them under the issue's names.

* ``cold_s`` -- fleet: a cold pass over the 16 sources (sum of the
  per-app medians); serve_mix: the daemon's mean CPU per cold input,
  handlers plus analysis job.
* ``warm_ms`` -- fleet: a warm round of the 16 apps (sum of the per-app
  medians); serve_mix: the daemon's median CPU per warm ``POST`` handler
  at the fixed rate.
* ``peak_mb`` -- peak RSS added by the measured work (the benchmark
  process for fleet, the daemon for serve_mix).
* ``setup_s`` -- the workload's set-up CPU time (median of several set-ups
  where one run allows it).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import gc
import http.client
import json
import os
import queue
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import fmean, median
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: ``AutoCheckConfig`` fields that select a non-default analysis mode.  The
#: benchmark measures the default production path only, so it sets none.
MODE_FIELDS = ("analysis_engine", "decode", "streaming_preprocessing",
               "parallel_preprocessing", "static_prefilter", "workers")

#: fleet warm re-analyses of each app per visit
FLEET_WARM_ROUNDS = 6

#: serve_mix: fixed warm rate (a third of the 2-connection warm capacity
#: the ladder measured on a 2-core host in its slow state, so the phase
#: shows contention with the cold work rather than queueing on the two
#: client lanes), the ladder's rungs 10% apart, and the warm-tail limit.
SERVE_RATE = 20.0
SERVE_LADDER = tuple(round(20.0 * 1.1 ** k, 1) for k in range(22))
SERVE_LIMIT_MS = 250.0
#: cold app requests at iteration counts the pre-warmed store has not seen
SERVE_COLD_APPS = (("is", {"iters": 7}), ("bigarray", {"iterations": 9}),
                   ("example", {"iterations": 30, "size": 30}))
#: traces built in set-up and uploaded as cold requests.  An upload carries
#: no IR and no per-app options, so these are apps that need neither.
SERVE_UPLOADS = (("himeno", {"iters": 7}), ("hpccg", {"iters": 7}),
                 ("hacc", {"steps": 7}))
#: closed-loop batches (and requests in each) that price tracing in the
#: traced run
SERVE_OVERHEAD_BATCHES = 6
SERVE_OVERHEAD_BATCH = 25
#: serve_mix client threads, each with at most one open connection
CLIENT_LANES = 2


# ---------------------------------------------------------------------- #
# Statistics and process memory
# ---------------------------------------------------------------------- #
def tail(samples: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least 10 samples beyond it; the maximum when there are fewer than 11."""
    ordered = sorted(samples)
    index = len(ordered) - (11 if len(ordered) >= 11 else 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def sum_of_medians(samples: Dict[str, List[float]]) -> float:
    return sum(median(values) for values in samples.values())


def cpu_s() -> float:
    """CPU seconds of this process and of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Clock:
    """Wall and CPU seconds of one block of work: ``with Clock() as c``.

    The end-to-end times are CPU times.  On a virtual host, wall time also
    counts the time the hypervisor gives this CPU to another guest (steal
    time).  It comes in bursts, which stretched a 150 ms loop to as much as
    285 ms of wall time; CPU time leaves it out.  Wall times are printed
    beside the CPU times.
    """

    def __enter__(self) -> "Clock":
        self.wall = self.cpu = 0.0
        self._start = (time.perf_counter(), cpu_s())
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall = time.perf_counter() - self._start[0]
        self.cpu = cpu_s() - self._start[1]


def _status_kb(pid: str, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def reset_peak() -> float:
    """Reset this process's peak-RSS mark; return its current RSS in MB.

    Freed memory is first handed back to the OS, so the RSS the measured
    work starts from does not depend on what earlier work left in the
    allocator's free lists.
    """
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")
    return rss_mb()


def rss_mb(pid: str = "self") -> float:
    return _status_kb(pid, "VmRSS") / 1024.0


def peak_mb(pid: str = "self") -> float:
    return _status_kb(pid, "VmHWM") / 1024.0


# ---------------------------------------------------------------------- #
# Checks
# ---------------------------------------------------------------------- #
class Checks:
    """Counts attempted and failed operations, keeping failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self._lock = threading.Lock()

    def op(self, problems: List[str]) -> bool:
        with self._lock:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.messages.extend(problems[:3])
        return not problems


def critical_problems(label: str, expected: Dict[str, str],
                      got: Dict[str, str]) -> List[str]:
    if got == dict(expected):
        return []
    return [f"{label}: critical set {sorted(got.items())} != paper "
            f"Table II {sorted(expected.items())}"]


def critical_of(report) -> Dict[str, str]:
    return {v.name: v.dependency.value for v in report.critical_variables}


def critical_of_json(body: bytes) -> Dict[str, str]:
    payload = json.loads(body)
    return {v["name"]: v["dependency"] for v in payload["critical_variables"]}


def assert_default_path(config) -> None:
    """Refuse a config that selects anything but the default analysis."""
    from repro.core.config import AutoCheckConfig

    for field in dataclasses.fields(AutoCheckConfig):
        if field.name in MODE_FIELDS and \
                getattr(config, field.name) != field.default:
            raise RuntimeError(
                f"benchmark config sets {field.name}="
                f"{getattr(config, field.name)!r}; only the default "
                f"production path is measured")


# ---------------------------------------------------------------------- #
# Run context
# ---------------------------------------------------------------------- #
class Run:
    """One benchmark invocation: seed, budget, checks, spans, workdir."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool) -> None:
        from layers import Recorder, install

        self.workload = workload
        self.seconds = seconds
        self.traced = traced
        self.rng = random.Random(f"{workload}:{seed}")
        self.checks = Checks()
        self.recorder = Recorder()
        self.recorder.enabled = traced
        self._restore = install(self.recorder) if traced else None
        #: (start, end) windows of a traced run with spans on, and off
        self.windows: Dict[bool, List[Tuple[float, float]]] = {
            True: [], False: []}
        #: extra spans from other processes (the serve daemon)
        self.foreign_spans: List[Dict[str, Any]] = []
        #: human-readable lines printed before the result
        self.report_lines: List[str] = []
        #: values of the end-to-end and extra per-layer metrics
        self.values: Dict[str, float] = {}
        #: wall times of repeated units of work, by unit label, with spans
        #: on and off
        self.unit_walls: Dict[str, Dict[bool, List[float]]] = {}
        self.dir = WORK / f"{workload}-{os.getpid()}"

    def close(self) -> None:
        if self._restore is not None:
            self._restore()
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    def fresh_dir(self, name: str) -> Path:
        path = self.dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    @contextlib.contextmanager
    def tracing(self, on: bool):
        """Record spans inside the block only when ``on`` (traced run)."""
        previous = self.recorder.enabled
        self.recorder.enabled = self.traced and on
        start = time.perf_counter()
        try:
            yield
        finally:
            if self.traced:
                self.windows[on].append((start, time.perf_counter()))
            self.recorder.enabled = previous

    @contextlib.contextmanager
    def paired_unit(self, label: str = ""):
        """Time one repeated unit of work, yielding whether spans are on.

        A traced run records spans on every other unit of each ``label``
        only, so comparing the two groups' median wall times prices the
        tracing itself.
        """
        walls = self.unit_walls.setdefault(label, {True: [], False: []})
        on = len(walls[True]) <= len(walls[False])
        with self.tracing(on):
            start = time.perf_counter()
            yield on
            walls[on].append(time.perf_counter() - start)

    def say(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.report_lines.append(
            f"{self.workload}: {name} = {value:.6g} {unit}"
            + (f"  ({note})" if note else ""))


# ---------------------------------------------------------------------- #
# Shared app helpers
# ---------------------------------------------------------------------- #
def make_config(app, spec, **options):
    from repro.core.config import AutoCheckConfig

    config = AutoCheckConfig(main_loop=spec, **dict(app.autocheck_options),
                             **options)
    assert_default_path(config)
    return config


def import_probe() -> None:
    """Import the program's layers in a fresh interpreter (a cold start)."""
    subprocess.run(
        [sys.executable, "-c",
         "import repro.codegen.lowering, repro.tracer.driver, "
         "repro.core.pipeline, repro.store.cache, repro.serve.server"],
        check=True, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT)


def canonical(report) -> bytes:
    from repro.store.serialize import canonical_report_json

    return canonical_report_json(report).encode()


def check_report(run: Run, label: str, app, report,
                 expected_bytes: Dict[str, bytes], hit: Optional[bool]) -> None:
    """One checked analysis: Table II critical set, store hit or miss when
    ``hit`` is given, and the same canonical bytes as every earlier report
    for ``label``."""
    problems = critical_problems(label, app.expected_critical,
                                 critical_of(report))
    if hit is not None and (report.cache_info is None
                            or report.cache_info.hit != hit):
        problems.append(f"{label}: expected a store "
                        f"{'hit' if hit else 'miss'}")
    body = canonical(report)
    if expected_bytes.setdefault(label, body) != body:
        problems.append(f"{label}: report bytes differ from the first "
                        f"report of this input")
    run.checks.op(problems)


def repeat_units(run: Run, one_unit: Callable[[int], None],
                 min_units: int) -> None:
    """Run ``one_unit(index)`` until one more unit as long as the longest
    so far would overrun ``--seconds``; then, in a traced run, re-run the
    modules traced under spans without a sink.
    """
    started = time.perf_counter()
    index = 0
    longest = 0.0
    while True:
        start = time.perf_counter()
        with run.tracing(True):
            one_unit(index)
        longest = max(longest, time.perf_counter() - start)
        index += 1
        if index >= min_units and \
                time.perf_counter() - started + longest > run.seconds:
            break
    with run.tracing(True):
        run.recorder.rerun_untraced()


def timed_setups(run: Run, setup: Callable[[], Any], count: int) -> Any:
    """Run ``setup`` ``count`` times; record the median CPU time; return
    the last set-up."""
    clocks = []
    with run.tracing(True):
        for _ in range(count):
            with Clock() as clock:
                staged = setup()
            clocks.append(clock)
    run.values["setup_s"] = median(c.cpu for c in clocks)
    run.say("setup_wall_s", median(c.wall for c in clocks), "s",
            f"median of {count} set-ups")
    return staged


# ---------------------------------------------------------------------- #
# fleet
# ---------------------------------------------------------------------- #
def run_fleet(run: Run) -> None:
    from repro.apps.registry import app_names, get_app
    from repro.codegen import lowering
    from repro.core.pipeline import AutoCheck
    from repro.tracer import driver

    names = app_names(include_example=True, include_extras=True)
    # The seed orders the apps; every pass runs all 16.
    run.rng.shuffle(names)

    def setup() -> List[Tuple[str, Any, str, Any]]:
        import_probe()
        run.fresh_dir("store")
        run.fresh_dir("traces")
        staged = []
        for name in names:
            app = get_app(name)
            source = app.source()
            staged.append((name, app, source, app.main_loop(source)))
        return staged

    staged = timed_setups(run, setup, 3)
    expected_bytes: Dict[str, bytes] = {}
    cold_cpu: Dict[str, List[float]] = {name: [] for name, *_ in staged}
    cold_wall: Dict[str, List[float]] = {name: [] for name, *_ in staged}
    warm_cpu: Dict[str, List[float]] = {name: [] for name, *_ in staged}
    warm_wall: Dict[str, List[float]] = {name: [] for name, *_ in staged}
    visit: Dict[str, Any] = {"peak": 0.0}

    def analyze(name, app, source, spec, store: Path, traces: Path,
                cold: bool):
        with run.recorder.request(name):
            module = lowering.compile_source(source, module_name=name)
            path = str(traces / f"{name}.btrace")
            if cold:
                driver.trace_to_file(module, path, module_name=name,
                                     fmt="binary")
            config = make_config(app, spec, use_cache=True,
                                 cache_dir=str(store))
            return AutoCheck(config, trace_path=path, module=module).run()

    def one_app(index: int) -> None:
        # The apps are visited in turn, pass after pass, until the time is
        # up: one cold analysis from an empty store, then the warm ones.
        # So warm samples fall over the whole run, as the cold ones do,
        # and every app's medians take in all its visits.
        if index % len(staged) == 0:
            visit["store"] = run.fresh_dir("store")
            visit["traces"] = run.fresh_dir("traces")
            visit["rss"] = reset_peak()
        item = staged[index % len(staged)]
        name, app = item[0], item[1]
        with Clock() as clock:
            report = analyze(*item, visit["store"], visit["traces"],
                             cold=True)
        cold_cpu[name].append(clock.cpu)
        cold_wall[name].append(clock.wall)
        check_report(run, name, app, report, expected_bytes, hit=False)
        for _ in range(FLEET_WARM_ROUNDS):
            with run.paired_unit(name), Clock() as clock:
                report = analyze(*item, visit["store"], visit["traces"],
                                 cold=False)
            warm_cpu[name].append(clock.cpu)
            warm_wall[name].append(clock.wall)
            check_report(run, name, app, report, expected_bytes, hit=True)
        del report
        visit["peak"] = max(visit["peak"], peak_mb() - visit["rss"])

    repeat_units(run, one_app, min_units=len(staged))
    run.values.update({
        "cold_s": sum_of_medians(cold_cpu),
        "warm_ms": sum_of_medians(warm_cpu) * 1000.0,
        "peak_mb": visit["peak"],
    })
    run.say("fleet_cold_s", sum_of_medians(cold_wall), "s",
            f"wall, sum of per-app medians, "
            f"{sum(map(len, cold_wall.values()))} cold analyses")
    run.say("fleet_warm_s", sum_of_medians(warm_wall), "s",
            f"wall, sum of per-app medians, "
            f"{sum(map(len, warm_wall.values()))} warm analyses")


# ---------------------------------------------------------------------- #
# serve_mix
# ---------------------------------------------------------------------- #
@dataclasses.dataclass
class Request:
    """One scheduled request and what came back."""

    rid: str
    kind: str                      # "warm" | "mixed" | "cold" | "pair"
    due: float                     # offset from the phase start, seconds
    method: str
    path: str
    body: bytes = b""
    content_type: str = "application/json"
    app: str = ""
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    headers: Dict[str, str] = dataclasses.field(default_factory=dict)
    response: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        """Seconds from the due time until the response arrived."""
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def app_request(rid: str, kind: str, due: float, app: str,
                params: Optional[Dict[str, int]] = None) -> Request:
    payload: Dict[str, Any] = {"app": app}
    if params:
        payload["params"] = params
    return Request(rid, kind, due, "POST", "/analyze",
                   json.dumps(payload).encode(), app=app)


class Client:
    """Open-loop sender over at most two lanes, one connection at a time each.

    The lanes take requests from one queue in due order; a request due
    while both lanes are busy waits, and that wait is the generator's
    lateness.  Latency is timed from the due time, so a stall counts
    against every request it delays.
    """

    def __init__(self, port: int, run: Run) -> None:
        self.port = port
        self.run = run
        #: every request sent, for the transport-time estimate
        self.sent: List[Request] = []

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def send_all(self, requests: List[Request],
                 lanes: int = CLIENT_LANES) -> float:
        """Send every request at its due time; return the phase start."""
        pending: "queue.Queue[Request]" = queue.Queue()
        for request in sorted(requests, key=lambda r: r.due):
            pending.put(request)
        start = time.perf_counter() + 0.05
        for request in requests:
            request.due += start
        errors: List[BaseException] = []

        def lane() -> None:
            try:
                while True:
                    try:
                        request = pending.get_nowait()
                    except queue.Empty:
                        return
                    delay = request.due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    self._send(request)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=lane, daemon=True)
                   for _ in range(lanes)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
            if thread.is_alive():
                raise RuntimeError("serve client lane did not finish")
        if errors:
            raise errors[0]
        return start

    def _send(self, request: Request) -> None:
        # One connection per request, as the program's ``ServeClient``
        # does.  On a kept-alive connection the daemon's split header and
        # body writes meet Nagle's algorithm and the client's delayed ACK,
        # which stalls small responses by ~40 ms (see README.md).
        recorder = self.run.recorder
        with recorder.request(request.rid), recorder.span("serve.request"):
            request.sent = time.perf_counter()
            conn = self._connect()
            try:
                conn.request(request.method, request.path, body=request.body,
                             headers={"Content-Type": request.content_type,
                                      "X-Request-Id": request.rid})
                response = conn.getresponse()
                request.response = response.read()
                request.status = response.status
                request.headers = {k.lower(): v
                                   for k, v in response.getheaders()}
            except (OSError, http.client.HTTPException) as exc:
                request.error = f"{type(exc).__name__}: {exc}"
            finally:
                conn.close()
            request.done = time.perf_counter()
        self.sent.append(request)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = self._connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()


class Daemon:
    """The benchmark-owned ``serve`` daemon process."""

    def __init__(self, run: Run, store: Path, traces: Path) -> None:
        self.spans_path = run.dir / "daemon-spans.json" if run.traced else None
        command = [sys.executable, str(HERE / "serve_daemon.py"),
                   "--cache-dir", str(store), "--trace-dir", str(traces)]
        if self.spans_path is not None:
            command += ["--spans", str(self.spans_path)]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)))
        line = self.process.stdout.readline()
        if not line.startswith("port "):
            self.stop()
            raise RuntimeError(f"serve daemon did not start: {line!r}")
        self.port = int(line.split()[1])
        self.pid = str(self.process.pid)

    def command(self, text: str) -> str:
        """Send one launcher command; return its acknowledgement line."""
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self.process.stdout.readline()

    def cpu(self) -> Dict[str, Any]:
        """The daemon's CPU seconds: process, per request id, per key."""
        return json.loads(self.command("cpu").split(" ", 2)[2])

    def stop(self) -> List[Dict[str, Any]]:
        """Shut down gracefully; return the daemon's spans (traced run)."""
        process = self.process
        if process.poll() is None:
            try:
                process.communicate(input="stop\n", timeout=90)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()
        if self.spans_path is not None and self.spans_path.exists():
            return json.loads(self.spans_path.read_text())
        return []


def poisson_schedule(rng: random.Random, rate: float, seconds: float,
                     exact: bool = False) -> List[float]:
    """Seeded Poisson arrival offsets in ``[0, seconds)``.

    With ``exact`` the gaps are rescaled so the schedule holds exactly
    ``rate * seconds`` arrivals spanning the interval.
    """
    if exact:
        count = max(2, round(rate * seconds))
        gaps = [rng.expovariate(1.0) for _ in range(count)]
        scale = seconds / sum(gaps)
        offsets, now = [], 0.0
        for gap in gaps:
            offsets.append(now)
            now += gap * scale
        return offsets
    offsets, now = [], rng.expovariate(rate)
    while now < seconds:
        offsets.append(now)
        now += rng.expovariate(rate)
    return offsets


def run_serve(run: Run) -> None:
    from repro.apps.registry import app_names, get_app
    from repro.codegen import lowering
    from repro.store.batch import prepare_app_analysis
    from repro.tracer import driver

    rng = run.rng
    fleet = app_names(include_example=True, include_extras=True)
    # Warm requests cycle through a seeded order of the whole fleet, so
    # every seed offers the same mix of apps.
    warm_apps = rng.sample(fleet, len(fleet))
    checks = run.checks
    expected_bytes: Dict[str, bytes] = {}

    setup_clock = Clock().__enter__()
    with run.tracing(True):
        store = run.fresh_dir("store")
        traces = run.fresh_dir("traces")
        uploads_dir = run.fresh_dir("uploads")
        uploads = []
        for name, params in SERVE_UPLOADS:
            app = get_app(name)
            source = app.source(**params)
            spec = app.main_loop(source)
            path = uploads_dir / f"{name}.btrace"
            with run.recorder.request(f"upload:{name}"):
                module = lowering.compile_source(source, module_name=name)
                driver.trace_to_file(module, str(path), module_name=name,
                                     fmt="binary")
            uploads.append((name, spec, path.read_bytes()))
        daemon = Daemon(run, store, traces)
    try:
        with run.tracing(True):
            # Pre-warm the daemon's store with the fleet on both cores:
            # every other app as a cold request to the daemon, the rest in
            # this process, staged exactly as the daemon stages them.
            client = Client(daemon.port, run)
            by_daemon = [app_request(f"prewarm-{name}", "cold", 0.0, name)
                         for name in fleet[1::2]]
            sender = threading.Thread(target=client.send_all,
                                      args=(by_daemon, 1), daemon=True)
            sender.start()
            for name in fleet[0::2]:
                with run.recorder.request(name):
                    prepared = prepare_app_analysis(
                        name, use_cache=True, cache_dir=str(store),
                        trace_dir=str(traces))
                    assert_default_path(prepared.config)
                    report = prepared.autocheck.run()
                checks.op(critical_problems(
                    name, get_app(name).expected_critical,
                    critical_of(report)))
                expected_bytes[name] = canonical(report)
            del report
            sender.join(timeout=170)
            for request in by_daemon:
                problems = [f"{request.rid}: answered {request.status} "
                            f"{request.error}"]
                if request.status == 200:
                    problems = critical_problems(
                        request.rid, get_app(request.app).expected_critical,
                        critical_of_json(request.response))
                checks.op(problems)
                expected_bytes[request.app] = request.response
            # One request per in-process app fills the daemon's response
            # memo; the daemon's own cold answers already did for the rest.
            memo = [app_request(f"memo-{name}", "warm", 0.0, name)
                    for name in fleet[0::2]]
            client.send_all(memo, lanes=1)
            check_warm(run, memo, expected_bytes)
        setup_clock.__exit__()
        # Set-up CPU: this process's, plus all the daemon's so far.
        setup_cpu = setup_clock.cpu + daemon.cpu()["process"]
        daemon.command("reset-peak")
        rss_before = rss_mb(daemon.pid)

        # Fixed-rate phase: the warm stream runs throughout and is cut into
        # one slot per cold request.  A slot opens with a quiet stretch
        # (warm requests alone, which give the warm latency) and closes
        # with a mixed stretch that starts with its cold request.
        # Interleaving the two spreads the quiet samples over the whole
        # phase, so a passing change in host speed falls on both.
        phase = 0.75 * run.seconds
        cold = cold_requests(rng, uploads)
        slot = phase / len(cold)
        quiet = 0.4 * slot
        with run.tracing(True):
            requests = [app_request(f"w{i}", "warm", due,
                                    warm_apps[i % len(fleet)])
                        for i, due in enumerate(
                            poisson_schedule(rng, SERVE_RATE, phase))]
            for request in requests:
                if request.due % slot >= quiet:
                    request.kind = "mixed"
            for index, group in enumerate(cold):
                due = index * slot + quiet + rng.uniform(0.0, 0.1) * slot
                for request in group:
                    request.due = due
                    requests.append(request)
            client.send_all(requests)
        warm = [r for r in requests if r.kind == "warm"]
        contended = [r for r in requests if r.kind == "mixed"]
        colds = [r for r in requests if r.kind == "cold"]
        check_cold(run, client, colds,
                   [r for r in requests if r.kind == "pair"])
        check_warm(run, warm + contended, expected_bytes)
        cold_keys = {r.headers.get("x-autocheck-key") for r in colds}
        spent = daemon.cpu()

        # Warm-only ladder of rates 10% apart.
        step_seconds = 0.05 * run.seconds
        ladder_note: List[str] = []

        def ladder_step(rate: float) -> float:
            """Run one warm-only step; its achieved rate, or 0 on a miss."""
            step = [app_request(f"l{rate}-{i}", "warm", due,
                                warm_apps[i % len(fleet)])
                    for i, due in enumerate(poisson_schedule(
                        rng, rate, step_seconds, exact=True))]
            start = client.send_all(step)
            ok = check_warm(run, step, expected_bytes)
            step_tail = tail([r.latency for r in step])[0] * 1000.0
            finished = max(r.done for r in step) - start
            backlog_ms = (finished - step_seconds) * 1000.0
            ladder_note.append(f"{rate}:{step_tail:.0f}ms")
            if not ok or step_tail > SERVE_LIMIT_MS or \
                    backlog_ms > SERVE_LIMIT_MS:
                return 0.0
            return len(step) / finished

        # Bisect the ladder for its highest rung that meets the limit, so
        # the probes follow the knee wherever the host's speed puts it.
        max_rps = 0.0
        with run.tracing(True):
            passed, missed = -1, len(SERVE_LADDER)
            while missed - passed > 1:
                rung = (passed + missed) // 2
                achieved = ladder_step(SERVE_LADDER[rung])
                if achieved:
                    passed, max_rps = rung, achieved
                else:
                    missed = rung
        daemon_peak = peak_mb(daemon.pid) - rss_before

        if run.traced:
            overhead_batches(run, client, daemon, fleet, expected_bytes)
        stats = json.loads(client.get("/stats")[1])
    finally:
        run.foreign_spans = daemon.stop()
    with run.tracing(True):
        run.recorder.rerun_untraced()

    warm_p50 = median([r.latency for r in warm]) * 1000.0
    contended_p50 = median([r.latency for r in contended]) * 1000.0
    tail_s, tail_pct, tail_n = tail([r.latency for r in contended])
    late_s, late_pct, late_n = tail([r.late for r in requests])
    cold_p50 = median([r.latency for r in colds])
    # Daemon CPU: a warm request's handler; a cold key's handlers (its
    # pair copy too) and its analysis job.
    key_cpu = dict.fromkeys(cold_keys, 0.0)
    for request in colds + [r for r in requests if r.kind == "pair"]:
        key = request.headers.get("x-autocheck-key") or \
            json.loads(request.response)["key"]
        key_cpu[key] += spent["requests"][request.rid]
    for key in key_cpu:
        key_cpu[key] += spent["keys"].get(key, 0.0)
    run.values.update({
        "cold_s": fmean(key_cpu.values()),
        "warm_ms": median(spent["requests"][r.rid]
                          for r in warm + contended) * 1000.0,
        "peak_mb": daemon_peak,
        "setup_s": setup_cpu,
    })
    run.say("setup_wall_s", setup_clock.wall, "s", "one set-up")
    run.say("serve_warm_p50_ms", warm_p50, "ms",
            f"{len(warm)} warm requests at {SERVE_RATE} req/s, quiet stretches")
    run.say("serve_mixed_warm_p50_ms", contended_p50, "ms",
            f"{len(contended)} warm requests in the mixed stretches")
    run.say("serve_warm_tail_ms", tail_s * 1000.0, "ms",
            f"p{tail_pct:.1f} of {tail_n} warm requests in the mixed stretches")
    run.say("serve_cold_p50_s", cold_p50, "s",
            f"{len(colds)} cold requests, {len(cold_keys)} distinct keys")
    run.say("serve_max_rps", max_rps, "req/s",
            f"limit {SERVE_LIMIT_MS} ms; ladder {' '.join(ladder_note)}")
    run.say("generator_late_ms", late_s * 1000.0, "ms",
            f"p{late_pct:.1f} of {late_n} sends")
    run.say("daemon_peak_mb", daemon_peak, "MB", "added during the load")

    endpoint = stats["endpoints"].get("POST analyze", {})
    handler_ms = (endpoint.get("seconds", 0.0) * 1000.0
                  / max(1, endpoint.get("requests", 0)))
    answered = [r for r in client.sent if r.status and r.method == "POST"]
    client_ms = fmean(
        (r.done - r.sent) * 1000.0 for r in answered)
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    run.values.update({
        "serve.handler_ms": handler_ms,
        "serve.transport_ms": client_ms - handler_ms,
        "serve.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.coalesce_joined": stats["coalesce"]["joined"],
        "serve.walks_per_cold_key": (stats["jobs"]["completed"]
                                     / max(1, len(cold_keys))),
        "serve.rejected": stats["jobs"]["rejected"],
        "serve.gen_late_ms": late_s * 1000.0,
    })


def cold_requests(rng: random.Random,
                  uploads: List[Tuple[str, Any, bytes]]) -> List[List[Request]]:
    """The fixed set of cold requests, seeded order and pairing."""
    groups: List[List[Request]] = []
    for name, params in SERVE_COLD_APPS:
        groups.append([app_request(f"c-{name}", "cold", 0.0, name, params)])
    for name, spec, body in uploads:
        path = (f"/analyze?function={spec.function}&start={spec.start_line}"
                f"&end={spec.end_line}")
        groups.append([Request(f"u-{name}", "cold", 0.0, "POST", path, body,
                               "application/octet-stream", app=name)])
    # One app request and one upload are sent twice at the same instant:
    # first with ``wait=0`` (answered 202 with a job handle), then the
    # identical blocking request, which joins the in-flight analysis.
    app_pair = rng.randrange(len(SERVE_COLD_APPS))
    upload_pair = len(SERVE_COLD_APPS) + rng.randrange(len(uploads))
    for index in (app_pair, upload_pair):
        twin = groups[index][0]
        sep = "&" if "?" in twin.path else "?"
        groups[index].insert(0, dataclasses.replace(
            twin, rid=twin.rid + "-nowait", kind="pair",
            path=twin.path + sep + "wait=0", headers={}))
    rng.shuffle(groups)
    return groups


def check_warm(run: Run, requests: List[Request],
               expected_bytes: Dict[str, bytes]) -> bool:
    ok = True
    for request in requests:
        problems = []
        if request.error or request.status != 200:
            problems.append(f"{request.rid}: warm {request.app} answered "
                            f"{request.status} {request.error}")
        elif request.response != expected_bytes[request.app]:
            problems.append(f"{request.rid}: warm {request.app} bytes differ "
                            f"from the in-process cold run's")
        ok = run.checks.op(problems) and ok
    return ok


def check_cold(run: Run, client: Client, requests: List[Request],
               handles: List[Request]) -> None:
    """Check cold answers, the ``wait=0`` job handles of the pairs, and
    that the daemon's stored bytes for each key equal the cold answer."""
    from repro.apps.registry import get_app

    by_key: Dict[str, bytes] = {}
    for request in requests:
        problems = []
        key = request.headers.get("x-autocheck-key", "")
        if request.error or request.status != 200:
            problems.append(f"{request.rid}: cold {request.app} answered "
                            f"{request.status} {request.error}")
        else:
            problems += critical_problems(
                request.rid, get_app(request.app).expected_critical,
                critical_of_json(request.response))
            if by_key.setdefault(key, request.response) != request.response:
                problems.append(f"{request.rid}: twin answers differ")
        run.checks.op(problems)
    for request in handles:
        ok = request.status == 202 and not request.error
        if ok:
            handle = json.loads(request.response)
            ok = handle.get("job") is not None and handle["key"] in by_key
        run.checks.op([] if ok else [f"{request.rid}: no job handle for a "
                                     f"cold key ({request.status})"])
    for key, body in by_key.items():
        status, stored = client.get(f"/report/{key}")
        run.checks.op([] if status == 200 and stored == body else
                      [f"report {key[:12]}: stored bytes differ from the "
                       f"cold answer"])


def overhead_batches(run: Run, client: Client, daemon: Daemon,
                     fleet: List[str],
                     expected_bytes: Dict[str, bytes]) -> None:
    """Closed-loop warm batches, spans on and off in turn in both
    processes, so their wall times price the tracing."""
    for index in range(SERVE_OVERHEAD_BATCHES):
        batch = [app_request(f"o{index}-{i}", "warm", 0.0,
                             fleet[i % len(fleet)])
                 for i in range(SERVE_OVERHEAD_BATCH)]
        with run.paired_unit() as on:
            daemon.command("trace on" if on else "trace off")
            client.send_all(batch, lanes=1)
        check_warm(run, batch, expected_bytes)
    daemon.command("trace on")


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "fleet": run_fleet,
    "serve_mix": run_serve,
}



def traced_metrics(run: Run, spec: Dict[str, Any]) -> Dict[str, float]:
    from layers import layer_metrics, uncovered_share

    spans = run.recorder.spans + run.foreign_spans
    values = layer_metrics(spans)
    values.update({k: v for k, v in run.values.items()
                   if k.startswith("serve.")})
    pairs = [w for w in run.unit_walls.values() if w[True] and w[False]]
    if pairs:
        values["tracing.overhead_share"] = (
            sum(median(w[True]) for w in pairs)
            / sum(median(w[False]) for w in pairs) - 1.0)
    values["tracing.uncovered_share"] = uncovered_share(
        spans, run.windows[True], run.windows[False])
    names = [m["name"] for m in spec["per_layer"]]
    return {name: values.get(name, 0.0) for name in names}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="AutoCheck repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        WORKLOADS[args.workload](run)
    finally:
        run.close()

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if run.traced:
        metrics = traced_metrics(run, spec)
    else:
        metrics = {m["name"]: run.values[m["name"]]
                   for m in spec["end_to_end"]}
    checks = run.checks
    for line in run.report_lines:
        print(line)
    for message in checks.messages[:20]:
        print(f"{args.workload}: FAILED {message}")
    print(f"{args.workload}: failed_share = "
          f"{checks.failed / max(1, checks.attempted):.6g} ratio "
          f"({checks.failed} of {checks.attempted} operations)")
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {units[name]}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
