"""Spans around omnieval's layer boundaries, and the per-layer metrics made
from them.

The wrappers are installed from outside: each one replaces a function or
method at the place its caller looks it up (``runner`` imports most of its
helpers by name, so wrapping them in their home module would miss those
calls). Nothing under ``src/`` changes. Spans are kept in memory and written
out when the traced process ends.

A span is ``(name, thread, start, end, thread_cpu, parent, tag)``: the parent
is the innermost open span of the same thread, and the tag is a small number
taken from the call (records written, items loaded, cache hit).
"""

from __future__ import annotations

import functools
import math
import statistics
import threading
import time

# (module, owner attribute or None, function, span name, thread CPU, tag)
# ``tag`` picks a count out of (args, result).
SITES = (
    ("cli", None, "build_run_config", "cli.build", False, None),
    ("cli", None, "build_backend", "cli.build", False, None),
    ("cli", None, "load_dataset", "dataset.load", False, "items"),
    ("cli", None, "run_generation_eval", "runner.run", False, "len"),
    ("cli", None, "run_ppl_eval", "runner.run", False, "len"),
    ("cli", None, "write_run_output", "runner.write_output", False, None),
    ("cli", None, "read_records", "runner.read_records", False, "len"),
    ("cli", None, "records_to_jsonl", "runner.serialize", False, "arg0"),
    ("runner", None, "records_to_jsonl", "runner.serialize", False, "arg0"),
    ("cli", None, "aggregate", "report.aggregate", False, "arg0"),
    ("cli", None, "report_to_markdown", "report.render", False, None),
    ("cli", None, "extract_answer", "filters.extract", False, None),
    ("cli", None, "score_item", "estimators.score", False, None),
    ("runner", None, "render_prompt", "prompts.render", False, None),
    ("runner", None, "flatten_bundle", "prompts.flatten", False, None),
    ("runner", None, "cache_key", "runner.cache_key", False, None),
    ("runner", None, "with_retries", "runner.with_retries", False, None),
    ("runner", None, "extract_answer", "filters.extract", False, None),
    ("runner", None, "model_extract", "filters.model_extract", False, None),
    ("runner", None, "score_item", "estimators.score", False, None),
    ("runner", None, "score_choice_exact", "estimators.score", False, None),
    ("runner", "ResponseCache", "get", "runner.cache_get", False, "hit"),
    ("runner", "ResponseCache", "put", "runner.cache_put", False, None),
    ("backends.http", "HttpBackend", "generate", "http.call", True, None),
    ("backends.http", "HttpBackend", "loglikelihood", "http.call", True, None),
    ("backends.stub", "StubBackend", "generate", "stub.call", False, None),
    ("backends.stub", "StubBackend", "loglikelihood", "stub.call", False, None),
)

_TAGS = {
    None: lambda args, result: None,
    "len": lambda args, result: len(result),
    "items": lambda args, result: len(result[1]),
    "arg0": lambda args, result: len(args[0]),
    "hit": lambda args, result: 0 if result is None else 1,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, cpu: bool, tag) -> None:
        fn = getattr(owner, attr)
        spans, local, pick = self.spans, self._local, _TAGS[tag]
        perf, thread_time, ident = time.perf_counter, time.thread_time, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            stack.append(name)
            c0 = thread_time() if cpu else 0.0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
            spans.append((name, ident(), t0, t1, thread_time() - c0 if cpu else 0.0, parent,
                          pick(args, result)))
            return result

        setattr(owner, attr, wrapper)

    def install(self, package) -> None:
        """Wrap every site of ``SITES`` found in the imported omnieval package."""
        import importlib

        for module_name, owner_name, attr, name, cpu, tag in SITES:
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}")
                continue
            self.wrap(owner, attr, name, cpu, tag)


# --- per-layer metrics -------------------------------------------------------

# name -> (unit, kind); "dist" timings also report .tail, .tail_pct and .n,
# "few" timings (one sample per process) report .n beside the median.
PER_LAYER = {
    "cli.build_ms": ("ms", "few"),
    "dataset.load_us_per_item": ("us", "few"),
    "prompts.render_us_per_item": ("us", "dist"),
    "runner.cache_key_us_per_call": ("us", "dist"),
    "runner.cache_get_us_per_call": ("us", "dist"),
    "runner.cache_hit_ratio.cold": ("ratio", "value"),
    "runner.cache_hit_ratio.warm": ("ratio", "value"),
    "runner.cache_put_us_per_call": ("us", "dist"),
    "runner.retry_attempts_per_call": ("attempts", "value"),
    "runner.self_us_per_item.cold": ("us", "few"),
    "runner.self_us_per_item.warm": ("us", "few"),
    "runner.in_flight_max": ("requests", "value"),
    "runner.serialize_us_per_record": ("us", "few"),
    "runner.write_output_ms": ("ms", "few"),
    "runner.read_records_us_per_record": ("us", "few"),
    "http.call_ms": ("ms", "dist"),
    "http.cpu_us_per_request": ("us", "dist"),
    "http.connections_per_request": ("connections", "value"),
    "http.open_connections_max": ("connections", "value"),
    "http.server_ms_per_request": ("ms", "dist"),
    "http.requests_per_item.chat": ("requests", "value"),
    "http.requests_per_item.completions": ("requests", "value"),
    "http.request_bytes_per_item": ("bytes", "value"),
    "http.response_bytes_per_item": ("bytes", "value"),
    "stub.calls_per_item": ("calls", "value"),
    "filters.extract_us_per_call": ("us", "dist"),
    "filters.model_extract_calls_per_item": ("calls", "value"),
    "estimators.score_us_per_call": ("us", "dist"),
    "report.aggregate_ms": ("ms", "few"),
    "report.aggregate_us_per_record": ("us", "few"),
    "report.render_ms": ("ms", "few"),
    "trace.items_per_s": ("items/s", "few"),
    "host.reference_ms": ("ms", "few"),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    out = []
    for name, (unit, kind) in PER_LAYER.items():
        out.append((name, unit))
        if kind == "dist":
            out += [(f"{name}.tail", unit), (f"{name}.tail_pct", "%"), (f"{name}.n", "count")]
        elif kind == "few":
            out.append((f"{name}.n", "count"))
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest of p99.9, p99, p90 and p75 with at least ten samples beyond
    it (nearest rank). Under forty samples there is no tail: the median stands
    in with percentile 50."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 40:
        for pct in (99.9, 99.0, 90.0, 75.0):
            if n * (100.0 - pct) / 100.0 >= 10:
                return ordered[max(math.ceil(pct / 100.0 * n) - 1, 0)], pct
    return (statistics.median(ordered), 50.0) if ordered else (0.0, 50.0)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _ms(span):
    return (span[3] - span[2]) * 1e3


def _us(span):
    return (span[3] - span[2]) * 1e6


def layer_metrics(units: list[dict], server: dict | None, items: int, rounds: list[dict],
                  cold_s: list[float]) -> dict:
    """Per-layer metrics from traced units.

    ``units`` are the traced omnieval calls, each {"phase", "spans", ...};
    ``server`` holds the server's counters over the cold phases (or None);
    ``rounds`` carry the stub counters and the host's speed readings;
    ``cold_s`` are the cold calls' times at the reference host speed.
    """
    by_phase: dict[str, list[list]] = {}
    by_name: dict[tuple[str, str], list] = {}
    for unit in units:
        by_phase.setdefault(unit["phase"], []).append(unit["spans"])
        for s in unit["spans"]:
            by_name.setdefault((unit["phase"], s[0]), []).append(s)

    def spans(phases, name):
        return [s for p in phases for s in by_name.get((p, name), ())]

    samples: dict[str, list[float]] = {k: [] for k in PER_LAYER}
    values: dict[str, float] = {}
    every = ("setup", "cold", "warm", "score")

    for phase in every:
        for unit in by_phase.get(phase, []):
            builds = [_ms(s) for s in unit if s[0] == "cli.build" and s[5] != "cli.build"]
            if builds:
                samples["cli.build_ms"].append(sum(builds))
    samples["dataset.load_us_per_item"] = [_us(s) / s[6] for s in spans(every, "dataset.load")]

    for unit in by_phase.get("cold", []):
        flatten: dict[int, list] = {}
        for s in unit:
            if s[0] == "prompts.flatten":
                flatten.setdefault(s[1], []).append(s)
        renders = sorted((s for s in unit if s[0] == "prompts.render"), key=lambda s: (s[1], s[2]))
        queues = {tid: sorted(v, key=lambda s: s[2]) for tid, v in flatten.items()}
        for s in renders:
            extra = 0.0
            q = queues.get(s[1])
            if q and q[0][2] >= s[3]:
                extra = _us(q.pop(0))  # flatten follows its render on the same thread
            samples["prompts.render_us_per_item"].append(_us(s) + extra)

    samples["runner.cache_key_us_per_call"] = [_us(s) for s in spans(("warm",), "runner.cache_key")]
    samples["runner.cache_get_us_per_call"] = [_us(s) for s in spans(("warm",), "runner.cache_get")]
    samples["runner.cache_put_us_per_call"] = [_us(s) for s in spans(("cold",), "runner.cache_put")]
    for phase in ("cold", "warm"):
        gets = spans((phase,), "runner.cache_get")
        values[f"runner.cache_hit_ratio.{phase}"] = sum(s[6] for s in gets) / len(gets) if gets else 0.0
    retries = spans(("cold",), "runner.with_retries")
    attempts = [s for name in ("http.call", "stub.call") for s in spans(("cold",), name)
                if s[5] == "runner.with_retries"]
    values["runner.retry_attempts_per_call"] = len(attempts) / len(retries) if retries else 0.0

    for phase in ("cold", "warm"):
        for unit in by_phase.get(phase, []):
            for run in (s for s in unit if s[0] == "runner.run"):
                inner = [(s[2], s[3]) for s in unit
                         if s is not run and s[2] >= run[2] and s[3] <= run[3]]
                own = (run[3] - run[2]) - _covered(inner)
                samples[f"runner.self_us_per_item.{phase}"].append(own * 1e6 / max(run[6], 1))

    samples["runner.serialize_us_per_record"] = [
        _us(s) / max(s[6], 1) for s in spans(("cold", "warm"), "runner.serialize")]
    samples["runner.write_output_ms"] = [_ms(s) for s in spans(("cold", "warm"), "runner.write_output")]
    samples["runner.read_records_us_per_record"] = [
        _us(s) / max(s[6], 1) for s in spans(("score",), "runner.read_records")]

    calls = spans(("cold",), "http.call")
    samples["http.call_ms"] = [_ms(s) for s in calls]
    samples["http.cpu_us_per_request"] = [s[4] * 1e6 for s in calls]
    cold_items = items * len(by_phase.get("cold", []))
    if server is not None:
        reqs = server["requests"]["chat"] + server["requests"]["completions"]
        values["http.connections_per_request"] = server["accepted"] / reqs if reqs else 0.0
        values["http.open_connections_max"] = server["open_connections_max"]
        samples["http.server_ms_per_request"] = server["handle_ms"]
        for endpoint in ("chat", "completions"):
            values[f"http.requests_per_item.{endpoint}"] = server["requests"][endpoint] / cold_items
        values["http.request_bytes_per_item"] = server["bytes_in"] / cold_items
        values["http.response_bytes_per_item"] = server["bytes_out"] / cold_items
        values["runner.in_flight_max"] = server["in_flight_max"]
    else:
        for key in ("http.connections_per_request", "http.open_connections_max",
                    "http.requests_per_item.chat", "http.requests_per_item.completions",
                    "http.request_bytes_per_item", "http.response_bytes_per_item"):
            values[key] = 0.0
        values["runner.in_flight_max"] = max((r["stub_in_flight_max"] for r in rounds), default=0)
    values["stub.calls_per_item"] = len(spans(("cold",), "stub.call")) / cold_items
    values["filters.model_extract_calls_per_item"] = (
        len(spans(("cold",), "filters.model_extract")) / cold_items)

    samples["filters.extract_us_per_call"] = [_us(s) for s in spans(("cold", "score"), "filters.extract")]
    samples["estimators.score_us_per_call"] = [_us(s) for s in spans(("cold", "score"), "estimators.score")]
    aggregates = spans(("cold", "warm", "score"), "report.aggregate")
    samples["report.aggregate_ms"] = [_ms(s) for s in aggregates]
    samples["report.aggregate_us_per_record"] = [_us(s) / max(s[6], 1) for s in aggregates]
    samples["report.render_ms"] = [_ms(s) for s in spans(("cold", "warm", "score"), "report.render")]
    samples["trace.items_per_s"] = [items / t for t in cold_s]
    samples["host.reference_ms"] = [x * 1000.0 for r in rounds for x in r["reference"]]

    out = {}
    for name, (unit, kind) in PER_LAYER.items():
        if kind == "value":
            out[name] = {"value": values[name], "unit": unit}
            continue
        data = samples[name]
        out[name] = {"value": statistics.median(data) if data else 0.0, "unit": unit}
        if kind == "dist":
            value, pct = tail(data)
            out[f"{name}.tail"] = {"value": value, "unit": unit}
            out[f"{name}.tail_pct"] = {"value": pct, "unit": "%"}
        out[f"{name}.n"] = {"value": len(data), "unit": "count"}
    return out
