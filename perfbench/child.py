"""The omnieval process of the benchmark.

``setup`` times a fresh interpreter through ``import omnieval.cli``,
``build_run_config``, ``build_backend`` and ``load_dataset``; it writes the
monotonic clock reading at which the dataset is loaded, and the parent takes
the time from its own reading before it started this process.

``cycles`` reads a job file and runs its cycles in this one process. A cycle
is one cold ``omnieval eval`` (the cache directory is removed first), then
``warm`` evals over the filled cache, then ``rescore`` ``omnieval score``
calls. Interleaving the phases spreads each phase's samples over the whole
run, so a slow spell of the host does not fall on one phase alone. For every
call it writes the exit code, wall and CPU time, the Markdown report printed,
the SHA-256 of the file the call wrote, the process's peak resident memory so
far, the call counters of any stub backend built, and the loopback server's
counters read after the call. With ``--trace`` the layer wrappers of
``tracing.py`` are installed first and the spans of each call are written too.

Before every call the process collects garbage, writes ``ready`` to its
standard output and waits for ``go`` on its standard input; the parent takes
a reading of the host's speed in that pause, while this process is idle.

    python3 perfbench/child.py cycles --src src --result r.json --job job.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import http.client
import io
import json
import os
import resource
import shutil
import sys
import time
import urllib.parse


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def _tracer(enabled: bool):
    if not enabled:
        return None
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import omnieval
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(omnieval)
    return tracer


def server_stats(url: str | None, samples: bool) -> dict | None:
    if not url:
        return None
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        conn.request("GET", "/stats?samples=1" if samples else "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def setup(args) -> dict:
    from omnieval import cli

    tracer = _tracer(args.trace is not None)
    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    cli.build_run_config(raw)
    cli.build_backend(raw["backend"])
    _, items = cli.load_dataset(args.dataset)
    ready = time.monotonic()
    cpu = time.process_time()
    if tracer is not None:
        _write(args.trace, [{"phase": "setup", "spans": tracer.spans}])
    return {"ready": ready, "cpu_s": cpu, "items": len(items)}


def cycles(args) -> dict:
    from omnieval import cli

    with open(args.job, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = _tracer(args.trace is not None)
    built = []
    build_backend = cli.build_backend

    def capture(*a, **k):
        backend = build_backend(*a, **k)
        built.append(backend)
        return backend

    cli.build_backend = capture
    calls, units = [], []

    def call(phase: str, argv: list[str], output: str) -> None:
        built.clear()
        if tracer is not None:
            tracer.spans.clear()
        out = io.StringIO()
        gc.collect()
        _pause()
        c0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        stubs = [b for b in built if hasattr(b, "generate_calls")]
        calls.append({
            "phase": phase, "rc": rc, "wall_s": wall, "cpu_s": cpu, "report": out.getvalue(),
            "hash": _sha256(output),
            "stub_calls": sum(b.generate_calls + b.loglikelihood_calls for b in stubs),
            "stub_in_flight_max": max((b.max_inflight for b in stubs), default=0),
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "server": server_stats(job["stats_url"], tracer is not None),
        })
        if tracer is not None:
            units.append({"phase": phase, "spans": list(tracer.spans)})

    start = server_stats(job["stats_url"], tracer is not None)
    for _ in range(job["cycles"]):
        shutil.rmtree(job["cache"], ignore_errors=True)
        call("cold", job["eval"], job["records"])
        for _ in range(job["warm"]):
            call("warm", job["eval"], job["records"])
        for _ in range(job["rescore"]):
            call("score", job["score"], job["rescored"])
    if tracer is not None:
        _write(args.trace, units)
    return {"server_start": start, "calls": calls, "missing": tracer.missing if tracer else []}


def _pause() -> None:
    """Hand the host to the parent for a reading of its speed."""
    sys.__stdout__.write("ready\n")
    sys.__stdout__.flush()
    if sys.stdin.readline() != "go\n":
        raise SystemExit("perfbench child: the parent went away")


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def main() -> int:
    parser = argparse.ArgumentParser(description="omnieval process of the benchmark")
    parser.add_argument("mode", choices=("setup", "cycles"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--config")
    parser.add_argument("--dataset")
    parser.add_argument("--job")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    result = setup(args) if args.mode == "setup" else cycles(args)
    _write(args.result, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
