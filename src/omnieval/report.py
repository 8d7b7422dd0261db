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
from dataclasses import dataclass
from pathlib import Path

from .dataset import DatasetManifest
from .errors import EmptyRun
from .estimators import MetricValue, corpus_bleu
from .filters import ExtractionStatus
from .runner import RunRecord

OVERALL = "__all__"
UNCATEGORIZED = "uncategorized"


@dataclass(frozen=True)
class MetricReport:
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
    candidates, references = [], []
    for r in records:
        if not any(o.metric_name == "bleu" for o in r.outcomes):
            continue
        value = r.extracted.value if r.extracted and r.extracted.value is not None else ""
        candidates.append(value if isinstance(value, str) else " ".join(value))
        truth = r.ground_truth
        references.append(list(truth) if isinstance(truth, tuple) else [truth])
    if not candidates:
        return None
    return MetricValue("bleu_corpus", corpus_bleu(candidates, references), len(candidates))


# --- emission ----------------------------------------------------------------

def fmt4(value: float) -> str:
    # Python's float formatting rounds half-to-even on the underlying value
    return format(value, ".4f")


def report_to_jsonl(report: MetricReport) -> str:
    lines = [
        json.dumps(
            {
                "type": "summary",
                "dataset": report.dataset,
                "model": report.model,
                "item_count": report.item_count,
                "error_count": report.error_count,
                "extraction_failure_rate": report.extraction_failure_rate,
            },
            sort_keys=True,
        )
    ]
    for category, values in [(OVERALL, report.overall)] + sorted(report.by_category.items()):
        for mv in values:
            lines.append(
                json.dumps(
                    {
                        "type": "metric",
                        "dataset": report.dataset,
                        "model": report.model,
                        "metric": mv.name,
                        "category": category,
                        "value": mv.value,
                        "support": mv.support,
                    },
                    sort_keys=True,
                )
            )
    return "\n".join(lines) + "\n"


def parse_report_jsonl(text: str) -> MetricReport:
    """Inverse of report_to_jsonl."""
    summary = None
    overall: list[MetricValue] = []
    by_category: dict[str, list[MetricValue]] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        if obj["type"] == "summary":
            summary = obj
        else:
            mv = MetricValue(obj["metric"], obj["value"], obj["support"])
            if obj["category"] == OVERALL:
                overall.append(mv)
            else:
                by_category.setdefault(obj["category"], []).append(mv)
    if summary is None:
        raise EmptyRun("report stream has no summary line")
    return MetricReport(
        dataset=summary["dataset"],
        model=summary["model"],
        overall=tuple(overall),
        by_category={k: tuple(v) for k, v in by_category.items()},
        extraction_failure_rate=summary["extraction_failure_rate"],
        item_count=summary["item_count"],
        error_count=summary["error_count"],
    )


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
    rows = [(OVERALL, report.overall)] + sorted(report.by_category.items())
    for category, values in rows:
        cells = []
        by_name = {mv.name: mv for mv in values}
        for name in names:
            mv = by_name.get(name)
            cells.append(fmt4(mv.value) if mv else "-")
        out.append(f"| {category} | " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


def report_to_csv(report: MetricReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "model", "metric", "category", "value", "support"])
    for category, values in [(OVERALL, report.overall)] + sorted(report.by_category.items()):
        for mv in values:
            writer.writerow([report.dataset, report.model, mv.name, category, fmt4(mv.value), mv.support])
    return buf.getvalue()


EMITTERS = {
    "jsonl": report_to_jsonl,
    "md": report_to_markdown,
    "csv": report_to_csv,
}


def emit_report(report: MetricReport, format: str, destination) -> None:
    """Render the report and write it to ``destination``. IO failures raise
    OSError (IOError)."""
    if format not in EMITTERS:
        raise ValueError(f"unknown report format {format!r}")
    Path(destination).write_text(EMITTERS[format](report), encoding="utf-8")
