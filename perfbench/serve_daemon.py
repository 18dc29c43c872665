"""Launcher for the ``serve_mix`` workload's daemon process.

Runs :class:`repro.serve.server.AnalysisServer` with 2 pool workers on an
ephemeral localhost port, prints ``port <n>`` on stdout and then reads
commands from stdin, one per line:

* ``trace on`` / ``trace off`` -- pause or resume span recording;
* ``reset-peak`` -- hand freed memory back to the OS and reset the
  peak-RSS mark, so the benchmark can read the peak its load adds;
* ``cpu`` -- answer ``ok cpu <json>``: the daemon's process CPU seconds,
  and the CPU seconds each ``POST`` handler spent by ``X-Request-Id`` and
  each analysis job spent by store key;
* ``stop`` (or end of input) -- shut down gracefully and exit.

With ``--spans PATH`` the launcher wraps the same layer entry points as the
benchmark process (:mod:`layers`), tags each request's spans with the
client's ``X-Request-Id`` header, and on shutdown re-runs the modules it
traced without a sink and writes every span to ``PATH``.  Without it the
launcher installs nothing but the per-request CPU clocks behind ``cpu``:
two ``time.thread_time()`` reads around each ``POST`` handler and each
analysis job.

CPU time, unlike wall time, leaves out the time a virtual host's
hypervisor takes the CPU away (steal time), which is what makes wall times
on a shared host swing between runs.

Usage::

    PYTHONPATH=src python3 perfbench/serve_daemon.py \\
        --cache-dir STORE --trace-dir TRACES [--spans spans.json]
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Optional


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from repro.serve import server as serve_module
    from repro.serve.server import AnalysisServer

    recorder = None
    analyzer = None
    handler = serve_module._Handler
    if args.spans:
        from layers import Recorder, install

        recorder = Recorder()
        install(recorder)

        def traced(method):
            def wrapper(self) -> None:
                with recorder.request(self.headers.get("X-Request-Id")), \
                        recorder.span("serve.handler"):
                    method(self)
            return wrapper

        handler.do_GET = traced(handler.do_GET)
        handler.do_POST = traced(handler.do_POST)

        def analyzer(work: Any, job: Any) -> Any:
            with recorder.request(work.label), recorder.span("serve.job"):
                return serve_module.run_analysis(work, job)

    request_cpu: Dict[str, float] = {}
    key_cpu: Dict[str, float] = {}
    lock = threading.Lock()

    def charge(table: Dict[str, float], name: Optional[str],
               start: float) -> None:
        spent = time.thread_time() - start
        with lock:
            table[name or ""] = table.get(name or "", 0.0) + spent

    post = handler.do_POST

    def cpu_timed_post(self) -> None:
        start = time.thread_time()
        try:
            post(self)
        finally:
            charge(request_cpu, self.headers.get("X-Request-Id"), start)

    handler.do_POST = cpu_timed_post
    run_job: Callable[[Any, Any], Any] = analyzer or serve_module.run_analysis

    def cpu_timed_analyzer(work: Any, job: Any) -> Any:
        start = time.thread_time()
        try:
            return run_job(work, job)
        finally:
            charge(key_cpu, work.address.key, start)

    daemon = AnalysisServer(workers=2, cache_dir=args.cache_dir,
                            trace_dir=args.trace_dir,
                            analyzer=cpu_timed_analyzer)
    daemon.start()
    print(f"port {daemon.port}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            if command in ("trace on", "trace off"):
                if recorder is not None:
                    recorder.enabled = command == "trace on"
            elif command == "reset-peak":
                gc.collect()
                ctypes.CDLL(None).malloc_trim(0)
                with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
                    handle.write("5")
            elif command == "cpu":
                with lock:
                    command += " " + json.dumps({
                        "process": time.process_time(),
                        "requests": request_cpu, "keys": key_cpu})
            print(f"ok {command}", flush=True)
    finally:
        daemon.close(graceful=True)
    if recorder is not None:
        recorder.enabled = True
        recorder.rerun_untraced()
        recorder.dump(args.spans)
    print("stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
