"""Checks of omnieval's outputs against the plan-derived expectations.

Each check returns a list of problems (empty when the output is right); the
ones that may meet the known extractor faults also return how many
operations failed because of them.
"""

from __future__ import annotations

import json
import math

from workloads import EXTRACTOR_MODEL, expected_corpus_bleu, expected_report

KEEP = 5  # problems quoted per check


def fmt4(value: float) -> str:
    return format(value, ".4f")


def _scores(record: dict) -> dict:
    return {o["metric"]: o["score"] for o in record["outcomes"]}


def _extracted(record: dict):
    ex = record.get("extracted") or {}
    return ex.get("status"), ex.get("value")


def check_records(records: list[dict], expected: list[dict]) -> list[str]:
    """Cold-phase records against the planned answers, scores and logprobs."""
    problems = []
    if len(records) != len(expected):
        return [f"{len(records)} records for {len(expected)} items"]
    for rec, exp in zip(records, expected):
        want = (exp["status"], exp["value"])
        if rec["item_id"] != exp["id"]:
            problems.append(f"record {rec['item_id']} where {exp['id']} belongs")
        elif rec.get("error") is not None:
            problems.append(f"{exp['id']}: error {rec['error']}")
        elif _extracted(rec) != want:
            problems.append(f"{exp['id']}: extracted {_extracted(rec)}, planned {want}")
        elif _scores(rec) != exp["scores"]:
            problems.append(f"{exp['id']}: scores {_scores(rec)}, planned {exp['scores']}")
        elif "totals" in exp:
            got = [(c["total_logprob"], c["continuation_chars"]) for c in rec["choice_logprobs"] or ()]
            if got != list(zip(exp["totals"], exp["chars"])):
                problems.append(f"{exp['id']}: choice logprobs {got}")
        if len(problems) >= KEEP:
            break
    return problems


def check_rescore(rescored: list[dict], cold: list[dict], expected: list[dict]):
    """``score`` against ``eval``: every answer the regex bank gave must match.
    An extractor-given answer that ``score`` turns into ``unextracted`` is a
    failed operation; returns (problems, ids of those items)."""
    problems, failed = [], []
    if len(rescored) != len(expected):
        return [f"{len(rescored)} rescored records for {len(expected)} items"], failed
    for new, old, exp in zip(rescored, cold, expected):
        same = _extracted(new) == _extracted(old) and _scores(new) == exp["scores"]
        if new["item_id"] != exp["id"]:
            problems.append(f"rescored {new['item_id']} where {exp['id']} belongs")
        elif exp["status"] == "model_extracted" and not same:
            if _extracted(new)[0] == "unextracted":
                failed.append(exp["id"])
            else:
                problems.append(f"{exp['id']}: score gave {_extracted(new)}")
        elif not same:
            problems.append(f"{exp['id']}: score gave {_extracted(new)} {_scores(new)}, "
                            f"eval gave {_extracted(old)}")
    return problems[:KEEP], failed


def zero_scores(expected: list[dict], ids) -> dict:
    """Scores of items that ended up unextracted: every metric reads 0."""
    ids = set(ids)
    return {e["id"]: {k: 0.0 for k in e["scores"]} for e in expected if e["id"] in ids}


def parse_markdown(text: str) -> tuple[str, dict]:
    """(summary line, {category: {metric: cell}}) of a Markdown report."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    summary = next((ln for ln in lines if ln.startswith("items:")), "")
    rows = [ln.strip().strip("|").split("|") for ln in lines if ln.startswith("|")]
    if len(rows) < 2:
        return summary, {}
    names = [c.strip() for c in rows[0][1:]]
    table = {}
    for row in rows[2:]:
        cells = [c.strip() for c in row]
        table[cells[0]] = {n: c for n, c in zip(names, cells[1:]) if c != "-"}
    return summary, table


def expected_table(expected: list[dict], dataset: dict, overrides: dict | None = None) -> dict:
    """Full-precision expected report: {category: {metric: (mean, support)}}."""
    table = expected_report(expected, overrides)
    pooled = expected_corpus_bleu(expected, dataset)  # overrides never touch text items
    if pooled is not None:
        count = sum(1 for e in expected if "bleu" in e["scores"])
        table["__all__"]["bleu_corpus"] = (pooled, count)
    return table


def check_markdown(text: str, table: dict, items: int, unextracted: int) -> list[str]:
    """A printed report against the expected means, at its 4-decimal display."""
    summary, got = parse_markdown(text)
    want_summary = f"items: {items}, errors: 0, extraction_failure_rate: {fmt4(unextracted / items)}"
    problems = [] if summary == want_summary else [f"summary {summary!r}, expected {want_summary!r}"]
    want = {cat: {m: fmt4(v) for m, (v, _) in metrics.items()} for cat, metrics in table.items()}
    if got != want:
        bad = sorted(c for c in set(got) | set(want) if got.get(c) != want.get(c))
        problems += [f"report row {c}: {got.get(c)}, expected {want.get(c)}" for c in bad[:KEEP]]
    return problems


def check_report_jsonl(text: str, table: dict) -> list[str]:
    """``omnieval report --format jsonl`` against the expected means, to full
    precision. Means of item scores must be equal; the pooled BLEU, a chain of
    logarithms, may differ in the last bits."""
    got = {}
    for line in text.splitlines():
        obj = json.loads(line)
        if obj.get("type") == "metric":
            got.setdefault(obj["category"], {})[obj["metric"]] = (obj["value"], obj["support"])
    problems = []
    for cat in sorted(set(got) | set(table)):
        for metric in sorted(set(got.get(cat, {})) | set(table.get(cat, {}))):
            g, w = got.get(cat, {}).get(metric), table.get(cat, {}).get(metric)
            close = g is not None and w is not None and g[1] == w[1] and (
                g[0] == w[0] or (metric == "bleu_corpus" and math.isclose(g[0], w[0], rel_tol=1e-12)))
            if not close:
                problems.append(f"report {cat}/{metric}: {g}, expected {w}")
            if len(problems) >= KEEP:
                return problems
    return problems


def check_same_bytes(reference: str, digest: str) -> list[str]:
    """A rerun must write the same bytes: every warm eval the cold eval's
    records.jsonl, every cold eval and every score call the same as before."""
    return [] if digest == reference else ["wrote different bytes than the first call"]


def server_diff(before: dict, after: dict) -> dict:
    out = {k: after[k] - before[k] for k in ("accepted", "malformed", "unplanned", "bytes_in",
                                             "bytes_out", "completion_prompts", "handled")}
    out["requests"] = {k: after["requests"][k] - before["requests"][k] for k in after["requests"]}
    out["by_model"] = {k: v - before["by_model"].get(k, 0) for k, v in after["by_model"].items()
                       if v - before["by_model"].get(k, 0)}
    return out


def check_server_cold(diff: dict, planned: dict) -> list[str]:
    problems = []
    if diff["requests"] != planned:
        problems.append(f"cold phase sent {diff['requests']}, planned {planned}")
    if diff["malformed"] or diff["unplanned"]:
        problems.append(f"{diff['malformed']} malformed and {diff['unplanned']} unplanned requests")
    return problems


def check_server_warm(diff: dict, extractor_items: int):
    """A warm eval may reach the server only for extractor calls, which
    omnieval does not cache: at most one per extractor item. Each is a failed
    operation. A score call may reach nothing (``extractor_items`` 0).
    Returns (problems, extractor calls)."""
    extractor = diff["by_model"].get(EXTRACTOR_MODEL, 0)
    others = sum(diff["requests"].values()) - extractor
    problems = []
    if others or diff["malformed"] or diff["unplanned"]:
        problems.append(f"{others} requests besides extractor calls "
                        f"({diff['requests']}, by model {diff['by_model']})")
    if extractor > extractor_items:
        problems.append(f"{extractor} extractor calls for {extractor_items} extractor items")
    return problems, extractor


def check_in_flight(in_flight_max: int, limit: int) -> list[str]:
    if in_flight_max > limit:
        return [f"{in_flight_max} requests in flight at once, concurrency limit {limit}"]
    return []
