"""Benchmark of ``omnieval eval`` and ``omnieval score``.

    python3 perfbench/run.py --workload gen_stub_large --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; omnieval is imported from ``src/``. A run
repeats whole rounds until one more would pass ``--seconds``. A round is:

1. set-up, several times, each in a fresh interpreter: ``import
   omnieval.cli``, ``build_run_config``, ``build_backend``, ``load_dataset``;
2. one omnieval process that runs cycles of a cold ``eval`` (empty cache),
   warm ``eval`` reruns over the filled cache, and ``score`` calls over the
   stored ``records.jsonl``.

Every call is checked against expectations computed from the seeded plan
(``workloads.py``), never from omnieval. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics of the traced
run with ``--trace 1``. Per-phase counts go to standard error.

All the run's processes share one CPU, and the end-to-end times are given at
a reference host speed, measured between omnieval's calls by timing a fixed
task (``reading``); the times as measured go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from child import server_stats  # noqa: E402

CHILD_TIMEOUT_S = 120
# A reading of reference_cpu_s on a 2-vCPU Xeon VM at 2.0 GHz running at full
# speed, with Python 3.11. The end-to-end times are reported at this speed, so
# that a slow spell of a shared host does not read as a slower omnieval; the
# readings a run takes, between omnieval's calls, say how fast the host ran.
REFERENCE_S = 0.0095
READING_SHARE = 0.05


class BenchError(Exception):
    pass


_REFERENCE_RE = re.compile(r'"id": "item-(\d+)"')
_REFERENCE_TOTAL = 3 * 3000 + sum(i % 7 for i in range(3000))


def reference_cpu_s() -> float:
    """CPU time of this thread for a fixed pure-Python task: string
    formatting, dicts, lists, a regex and JSON, the kinds of work omnieval's
    pipeline does. It runs in this process, whose heap omnieval cannot
    change, with the cyclic collector off."""
    gc.disable()
    try:
        t0 = time.thread_time()
        rows = {}
        for i in range(3000):
            key = f"item-{i:06d}"
            rows[key] = {"id": key, "words": f"{key} alpha beta {i % 97}".split(), "n": i % 7}
        text = json.dumps(rows)
        hits = len(_REFERENCE_RE.findall(text))
        total = sum(len(r["words"]) - 1 + r["n"] for r in json.loads(text).values())
        cpu = time.thread_time() - t0
    finally:
        gc.enable()
    if hits != 3000 or total != _REFERENCE_TOTAL:
        raise BenchError("the reference task computed a wrong result")
    return cpu


def reading(since_s: float) -> float:
    """One reading of the host's speed: the mean of as many runs of the
    reference task as fill READING_SHARE of ``since_s``, the time since the
    last reading, and at least one. The host's speed changes from one 10 ms
    run to the next, so a long call gets a reading long enough to average
    that out. One unkept run first refills the caches the child used."""
    reference_cpu_s()
    samples = [reference_cpu_s()]
    while sum(samples) < READING_SHARE * since_s and len(samples) < 50:
        samples.append(reference_cpu_s())
    return statistics.fmean(samples)


def at_reference(wall: float, cpu: float, server_cpu: float, slowdown: float) -> float:
    """A call's wall time at the reference host speed: the CPU time that
    omnieval's process and the loopback server spent on it is divided by the
    call's slowdown; the rest, the server's planned delay and other waiting,
    is kept as it is."""
    busy = cpu + server_cpu
    return wall - busy + busy / slowdown


class Server:
    """The loopback server process; stopped by closing its standard input."""

    def __init__(self, plan_path: Path, delay_ms: int, slots: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "server.py"), "--plan", str(plan_path),
             "--delay-ms", str(delay_ms), "--slots", str(slots)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}"

    def stats(self) -> dict:
        return server_stats(self.url, samples=False)

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, args, root: Path, work: Path):
        self.args = args
        self.src = root / "src"
        self.work = work
        self.trace = bool(args.trace)
        self.built = workloads.build(args.workload, args.seed)
        self.spec = self.built["spec"]
        self.items = self.spec.items
        self.expected = self.built["expected"]
        self.unextracted = sum(1 for e in self.expected if e["status"] == "unextracted")
        self.server = None
        self.problems: list[str] = []
        self.phases = {p: {"attempted": 0, "failed": 0} for p in ("cold", "warm", "score")}
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.env.pop("OMNIEVAL_API_KEY", None)

    def _child(self, name: str, mode: str, extra: list[str]) -> dict:
        result = self.work / f"{name}.result.json"
        trace = self.work / f"{name}.trace.json"
        cmd = [sys.executable, str(BENCH / "child.py"), mode, "--src", str(self.src),
               "--result", str(result), *extra]
        if self.trace:
            cmd += ["--trace", str(trace)]
        log = self.work / f"{name}.stderr"
        reference = []
        last = time.monotonic()
        with open(log, "w") as err:
            proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, text=True)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                for line in proc.stdout:
                    if line == "ready\n":
                        reference.append(reading(time.monotonic() - last))
                        proc.stdin.write("go\n")
                        proc.stdin.flush()
                        last = time.monotonic()
            except BrokenPipeError:
                pass
            finally:
                timer.cancel()
                proc.stdout.close()
                try:
                    proc.stdin.close()
                except BrokenPipeError:
                    pass
                proc.wait()
        reference.append(reading(time.monotonic() - last))
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"{name} exited {proc.returncode}: {log.read_text()[-2000:]}")
        out = json.loads(result.read_text())
        out["reference"] = reference
        out["units"] = json.loads(trace.read_text()) if self.trace else []
        return out

    # --- one round -----------------------------------------------------------

    def round(self, k: int) -> dict:
        spec = self.spec
        rdir = self.work / f"r{k}"
        records = rdir / "runs" / spec.name / workloads.MODEL / "records.jsonl"
        rescored = rdir / "rescored.jsonl"
        setups, units, reference = [], [], []
        for i in range(spec.setups):
            t0 = time.monotonic()
            out = self._child(f"r{k}-setup{i}", "setup",
                              ["--config", str(self.config), "--dataset", str(self.dataset)])
            setups.append((out["ready"] - t0, out["cpu_s"], 0.0, out["reference"][-1] / REFERENCE_S))
            reference += out["reference"]
            units += out["units"]

        job = {
            "cycles": spec.cycles, "warm": spec.warm, "rescore": spec.rescore,
            "cache": str(rdir / "cache"), "records": str(records), "rescored": str(rescored),
            "eval": ["eval", "--config", str(self.config), "--dataset", str(self.dataset),
                     "--cache", str(rdir / "cache"), "--output", str(rdir / "runs")],
            "score": ["score", "--records", str(records), "--dataset", str(self.dataset),
                      "--config", str(self.config), "--out", str(rescored)],
            "stats_url": self.server.url if self.server else None,
        }
        job_path = self.work / f"r{k}.job.json"
        job_path.write_text(json.dumps(job))
        out = self._child(f"r{k}-cycles", "cycles", ["--job", str(job_path)])
        if not records.exists() or not rescored.exists():
            raise BenchError(f"round {k} wrote no records: exit codes {[c['rc'] for c in out['calls']]}")
        self.check(out["calls"], out["server_start"], records, rescored)
        if k == 0:
            self.check_full_precision(rdir / "runs")
        shutil.rmtree(rdir)

        calls = out["calls"]
        previous = [out["server_start"]] + [c["server"] for c in calls[:-1]]
        # a call's slowdown: the mean of the readings taken just before and just after it
        readings = out["reference"]
        for c, p, r0, r1 in zip(calls, previous, readings, readings[1:]):
            c["slowdown"] = (r0 + r1) / 2 / REFERENCE_S
            c["server_cpu_s"] = c["server"]["cpu_s"] - p["cpu_s"] if self.server else 0.0
        cold = [(c, p) for c, p in zip(calls, previous) if c["phase"] == "cold"]
        return {
            "setups": setups,
            "reference": reference + out["reference"],
            "units": units + out["units"],
            "times": {p: [(c["wall_s"], c["cpu_s"], c["server_cpu_s"], c["slowdown"])
                          for c in calls if c["phase"] == p] for p in self.phases},
            "cold_maxrss_mb": cold[0][0]["maxrss_mb"],  # the process's first call
            "cold_requests": [sum(checks.server_diff(p, c["server"])["requests"].values())
                              if self.server else c["stub_calls"] for c, p in cold],
            "stub_in_flight_max": max(c["stub_in_flight_max"] for c, _ in cold),
            "cold_server": [checks.server_diff(p, c["server"]) for c, p in cold] if self.server else [],
            "cold_handle_ms": [x for c, p in cold if self.trace and self.server
                               for x in c["server"]["handle_ms"][p["handled"]:c["server"]["handled"]]],
        }

    # --- checks --------------------------------------------------------------

    def _fail(self, where: str, problems: list[str]) -> None:
        self.problems += [f"{where}: {p}" for p in problems]

    def check(self, calls: list[dict], server_start, records: Path, rescored: Path) -> None:
        """Every call of a round: exit code, printed report, the bytes it wrote,
        and what it asked of the backend."""
        spec, built = self.spec, self.built
        cold_records = [json.loads(line) for line in records.read_text().splitlines()]
        self._fail("cold", checks.check_records(cold_records, self.expected))
        rescored_problems, failed = checks.check_rescore(
            [json.loads(line) for line in rescored.read_text().splitlines()], cold_records,
            self.expected)
        self._fail("score", rescored_problems)
        score_table = checks.expected_table(self.expected, built["dataset"],
                                            checks.zero_scores(self.expected, failed))
        # the files read above hold the last eval's and the last score's bytes
        hashes = {"cold": calls[0]["hash"], "warm": calls[0]["hash"], "score": calls[-1]["hash"]}
        planned = sum(built["requests"].values())
        previous = server_start
        for i, c in enumerate(calls):
            phase = c["phase"]
            where = f"{phase} call {i}"
            self.phases[phase]["attempted"] += self.items
            if c["rc"] != 0:
                self._fail(where, [f"exited {c['rc']}"])
            self._fail(where, checks.check_same_bytes(hashes[phase], c["hash"]))
            if phase == "score":
                self.phases["score"]["failed"] += len(failed)
                self._fail(where, checks.check_markdown(c["report"], score_table, self.items,
                                                        self.unextracted + len(failed)))
            else:
                self._fail(where, checks.check_markdown(c["report"], self.table, self.items,
                                                        self.unextracted))
            if self.server:
                diff = checks.server_diff(previous, c["server"])
                previous = c["server"]
                if phase == "cold":
                    self._fail(where, checks.check_server_cold(diff, built["requests"]))
                else:
                    problems, extractor_calls = checks.check_server_warm(
                        diff, built["n_extract"] if phase == "warm" else 0)
                    self._fail(where, problems)
                    self.phases[phase]["failed"] += extractor_calls
            else:
                want = planned if phase == "cold" else 0
                if c["stub_calls"] != want:
                    self._fail(where, [f"{c['stub_calls']} stub calls, planned {want}"])
                self._fail(where, checks.check_in_flight(c["stub_in_flight_max"], spec.concurrency))
        if self.server:
            self._fail("server", checks.check_in_flight(calls[-1]["server"]["in_flight_max"],
                                                        spec.concurrency))

    def check_full_precision(self, runs: Path) -> None:
        """Once per run, the stored run against the expected means at full precision."""
        proc = subprocess.run(
            [sys.executable, "-m", "omnieval.cli", "report", "--runs", str(runs), "--format", "jsonl"],
            capture_output=True, text=True, env=self.env, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            self._fail("report", [f"exited {proc.returncode}: {proc.stderr[-500:]}"])
        else:
            self._fail("report", checks.check_report_jsonl(proc.stdout, self.table))

    # --- the run -------------------------------------------------------------

    def prepare(self) -> None:
        self.work.mkdir(parents=True)
        self.dataset = self.work / "dataset.json"
        self.dataset.write_text(json.dumps(self.built["dataset"]))
        config = self.built["config"]
        if self.spec.server:
            plan = self.work / "plan.json"
            plan.write_text(json.dumps(self.built["plan"]))
            self.server = Server(plan, self.spec.delay_ms, os.cpu_count() or 2)
            config["backend"]["base_url"] = self.server.url
            if "extractor" in config:
                config["extractor"]["base_url"] = self.server.url
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(config))
        self.table = checks.expected_table(self.expected, self.built["dataset"])

    def run(self) -> dict:
        self.prepare()
        rounds = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            rounds.append(self.round(len(rounds)))
            now = time.monotonic()
            if now - start + (now - t0) > self.args.seconds:
                break
        for phase, counts in self.phases.items():
            print(f"{phase}: attempted {counts['attempted']} failed {counts['failed']}", file=sys.stderr)
        for p in self.problems[:20]:
            print(f"FAILED CHECK {p}", file=sys.stderr)
        metrics = self.layer_metrics(rounds) if self.trace else self.end_to_end(rounds)
        return {
            "correct": not self.problems,
            "attempted": sum(c["attempted"] for c in self.phases.values()),
            "failed": sum(c["failed"] for c in self.phases.values()),
            "metrics": metrics,
        }

    def end_to_end(self, rounds: list[dict]) -> dict:
        """The seven end-to-end metrics, times at the reference host speed. A
        call's slowdown is the mean of the readings taken just before and just
        after it, over ``REFERENCE_S``."""
        n = self.items
        med = statistics.median

        def rate(phase):
            return med(n / at_reference(*t) for r in rounds for t in r["times"][phase])

        cold = [t for r in rounds for t in r["times"]["cold"]]
        values = {
            "items_per_s": ("items/s", rate("cold")),
            "warm_items_per_s": ("items/s", rate("warm")),
            "rescore_items_per_s": ("items/s", rate("score")),
            "cpu_ms_per_item": ("ms", med(cpu * 1000.0 / n / slowdown for _, cpu, _, slowdown in cold)),
            "requests_per_item": ("requests", med(q / n for r in rounds for q in r["cold_requests"])),
            "setup_s": ("s", med(at_reference(*t) for r in rounds for t in r["setups"])),
            "peak_rss_mb": ("MB", med(r["cold_maxrss_mb"] for r in rounds)),
        }
        raw = {p: med(n / t[0] for r in rounds for t in r["times"][p]) for p in self.phases}
        slowdown = med(x for r in rounds for x in r["reference"]) / REFERENCE_S
        print(f"host slowdown {slowdown:.4f} x reference; as measured: items_per_s {raw['cold']:.6g}, "
              f"warm_items_per_s {raw['warm']:.6g}, rescore_items_per_s {raw['score']:.6g}, "
              f"cpu_ms_per_item {med(t[1] * 1000.0 / n for t in cold):.6g}, "
              f"setup_s {med(t[0] for r in rounds for t in r['setups']):.6g}", file=sys.stderr)
        return {k: {"value": v, "unit": u} for k, (u, v) in values.items()}

    def layer_metrics(self, rounds: list[dict]) -> dict:
        server = None
        if self.server:
            diffs = [d for r in rounds for d in r["cold_server"]]
            final = self.server.stats()
            server = {
                "requests": {k: sum(d["requests"][k] for d in diffs) for k in ("chat", "completions")},
                "accepted": sum(d["accepted"] for d in diffs),
                "bytes_in": sum(d["bytes_in"] for d in diffs),
                "bytes_out": sum(d["bytes_out"] for d in diffs),
                "handle_ms": [x for r in rounds for x in r["cold_handle_ms"]],
                "in_flight_max": final["in_flight_max"],
                "open_connections_max": final["open_connections_max"],
            }
        units = [u for r in rounds for u in r["units"]]
        cold_s = [at_reference(*t) for r in rounds for t in r["times"]["cold"]]
        return tracing.layer_metrics(units, server, self.items, rounds, cold_s)

    def close(self) -> None:
        if self.server:
            self.server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of omnieval eval and score")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "omnieval" / "cli.py").is_file():
        print("perfbench: run from the root of an omnieval checkout (no src/omnieval here)",
              file=sys.stderr)
        return 2
    # This process and every process it starts (the loopback server, the
    # omnieval processes) run on one CPU, whose speed the readings measure.
    # On two virtual CPUs that the host deschedules at different moments, a
    # wake-up from one to the other, or a hand-over of omnieval's interpreter
    # lock between its threads, waits for the host as well.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(args, root, work)
    try:
        result = bench.run()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
