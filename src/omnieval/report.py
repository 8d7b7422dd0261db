"""Aggregate per-item records into dataset/model reports and emit them as
JSONL, Markdown, or CSV.

Errored items score 0 (with error_count making the effect auditable) so that
values stay comparable across runs with different failure rates. Stored JSONL
carries full precision; the 4-decimal rounding in Markdown/CSV is display-only.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import NamedTuple

from .dataset import RESERVED_CATEGORY, DatasetManifest
from .errors import EmptyRun
from .estimators import MetricValue, candidate_text, corpus_bleu, reference_texts
from .filters import ExtractionStatus
from .runner import RunRecord

UNCATEGORIZED = "uncategorized"


class MetricReport(NamedTuple):
    dataset: str
    model: str
    overall: tuple[MetricValue, ...]
    by_category: dict[str, tuple[MetricValue, ...]]
    extraction_failure_rate: float
    item_count: int
    error_count: int


def aggregate(records: list[RunRecord], manifest: DatasetManifest | None = None,
              model_name: str = "unknown") -> MetricReport:
    """Summarize a run. Mean of item scores per metric; errored items count as
    score 0 toward every metric's support; categories group by item category
    with absent categories pooled under "uncategorized"."""
    if not records:
        raise EmptyRun("no records to aggregate")
    dataset = manifest.name if manifest else "unknown"

    # manifest metrics seed the name set so an all-errored run still reports 0.0
    seeded = set(manifest.metrics) if manifest else set()
    names = sorted(seeded | {o.metric_name for r in records for o in r.outcomes})
    overall = _metric_values(records, names)
    if "bleu" in names:
        pooled = _pooled_bleu(records)
        if pooled is not None:
            overall = overall + (pooled,)

    groups: dict[str, list[RunRecord]] = {}
    for r in records:
        groups.setdefault(r.category or UNCATEGORIZED, []).append(r)
    by_category = {category: _metric_values(groups[category], names) for category in sorted(groups)}

    unextracted = sum(
        1
        for r in records
        if r.extracted is not None and r.extracted.status is ExtractionStatus.UNEXTRACTED
    )
    return MetricReport(
        dataset=dataset,
        model=model_name,
        overall=overall,
        by_category=by_category,
        extraction_failure_rate=unextracted / len(records),
        item_count=len(records),
        error_count=sum(1 for r in records if r.error is not None),
    )


def _metric_values(records: list[RunRecord], names: list[str]) -> tuple[MetricValue, ...]:
    errored = sum(1 for r in records if r.error is not None)
    values = []
    for name in names:
        scores = [o.score for r in records for o in r.outcomes if o.metric_name == name]
        support = len(scores) + errored
        if support == 0:
            continue
        values.append(MetricValue(name, math.fsum(scores) / support, support))
    return tuple(values)


def _pooled_bleu(records: list[RunRecord]) -> MetricValue | None:
    # micro-average over scored items: pooled n-gram counts, not mean of sentences
    scored = [r for r in records if any(o.metric_name == "bleu" for o in r.outcomes)]
    candidates = [candidate_text(r.extracted) for r in scored]
    references = [reference_texts(r.ground_truth) for r in scored]
    if not candidates:
        return None
    return MetricValue("bleu_corpus", corpus_bleu(candidates, references), len(candidates))


# --- emission ----------------------------------------------------------------

def fmt4(value: float) -> str:
    # Python's float formatting rounds half-to-even on the underlying value
    return format(value, ".4f")


def _rows(report: MetricReport) -> list:
    """The report's rows, each (category, values): all items first, then each category in order."""
    return [(RESERVED_CATEGORY, report.overall)] + sorted(report.by_category.items())


def report_to_jsonl(report: MetricReport) -> str:
    head = {"dataset": report.dataset, "model": report.model}
    lines = [{"type": "summary", **head, "item_count": report.item_count, "error_count": report.error_count,
              "extraction_failure_rate": report.extraction_failure_rate}]
    lines += [{"type": "metric", **head, "metric": mv.name, "category": category, "value": mv.value,
               "support": mv.support} for category, values in _rows(report) for mv in values]
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def report_to_markdown(report: MetricReport) -> str:
    names = [mv.name for mv in report.overall]
    out = [
        f"# {report.dataset} / {report.model}",
        "",
        f"items: {report.item_count}, errors: {report.error_count}, "
        f"extraction_failure_rate: {fmt4(report.extraction_failure_rate)}",
        "",
        "| category | " + " | ".join(names) + " |",
        "| --- |" + " --- |" * len(names),
    ]
    for category, values in _rows(report):
        by_name = {mv.name: mv.value for mv in values}
        cells = [fmt4(by_name[name]) if name in by_name else "-" for name in names]
        out.append(f"| {category} | " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


def report_to_csv(report: MetricReport, header: bool = True) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(["dataset", "model", "metric", "category", "value", "support"])
    for category, values in _rows(report):
        for mv in values:
            writer.writerow([report.dataset, report.model, mv.name, category, fmt4(mv.value), mv.support])
    return buf.getvalue()


# each emitter formats a list of reports: CSV has one header, Markdown a blank line between tables
EMITTERS = {
    "jsonl": lambda reports: "".join(map(report_to_jsonl, reports)),
    "md": lambda reports: "\n".join(map(report_to_markdown, reports)),
    "csv": lambda reports: "".join(report_to_csv(report, header=not i) for i, report in enumerate(reports)),
}

