"""Command-line interface.

Subcommands:
  eval      run a dataset against a backend and write records + reports
  score     re-run extraction and scoring over stored raw responses
  validate  schema-check a dataset file
  report    aggregate stored runs into md/csv/jsonl reports

Exit codes: 0 success, 1 usage or config error, 2 dataset error, 3 the run
finished but some items errored (outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path

from .backends import GenerationOptions, HttpBackend, StubBackend
from .dataset import DatasetManifest, load_dataset
from .errors import ConfigError, EmptyDataset, EvalKitError, ParseError, SchemaError
from .estimators import score_item
from .filters import ExtractionRule, ExtractionStatus, QuestionType, extract_answer
from .prompts import PromptTemplate
from .report import EMITTERS, aggregate, report_to_markdown
from .runner import (
    RunConfig,
    RunRecord,
    read_records,
    records_to_jsonl,
    run_generation_eval,
    run_ppl_eval,
    write_run_output,
    write_text_atomic,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATASET = 2
EXIT_ITEM_ERRORS = 3


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def build_backend(desc: dict, transport=None):
    kind = desc.get("type", "http")
    if kind == "stub":
        # JSON cannot carry tuple keys; config tables use continuation-only keys
        return StubBackend(
            scripted=desc.get("scripted"),
            logprob_table=desc.get("logprob_table"),
            default_reply=desc.get("default_reply"),
            char_logprob=desc.get("char_logprob", -0.25),
            model_name=desc.get("model_name", "stub"),
            supports_generation=desc.get("supports_generation", True),
            supports_loglikelihood=desc.get("supports_loglikelihood", True),
            supports_images=desc.get("supports_images", True),
        )
    if kind == "http":
        if "base_url" not in desc:
            raise ConfigError("http backend descriptor needs base_url")
        if "model_name" not in desc:
            raise ConfigError("http backend descriptor needs model_name")
        return HttpBackend(
            desc["base_url"],
            desc["model_name"],
            api_key_env=desc.get("api_key_env", "OMNIEVAL_API_KEY"),
            supports_generation=desc.get("supports_generation", True),
            supports_loglikelihood=desc.get("supports_loglikelihood", True),
            supports_images=desc.get("supports_images", False),
            timeout_s=desc.get("timeout_s", 120.0),
            transport=transport,
        )
    raise ConfigError(f"unknown backend type {kind!r}")


def build_run_config(raw: dict) -> RunConfig:
    try:
        template = PromptTemplate(**raw.get("template", {}))
    except TypeError as exc:
        raise ConfigError(f"bad template object: {exc}") from exc
    generation = GenerationOptions.from_dict(raw.get("generation", {}))
    extractor = None
    if raw.get("extractor"):
        extractor = build_backend(raw["extractor"])
    rules = tuple(
        ExtractionRule(
            name=r["name"],
            pattern=r["pattern"],
            capture_group=r.get("capture_group", 1),
            applicable_types=frozenset(QuestionType(t) for t in r["applicable_types"]),
        )
        for r in raw.get("extraction_rules", [])
    )
    qtype = raw.get("default_question_type")
    return RunConfig(
        mode=raw.get("mode", "generate"),
        num_shots=raw.get("num_shots", 0),
        use_cot=raw.get("use_cot", False),
        concurrency_limit=raw.get("concurrency_limit", 4),
        max_retries=raw.get("max_retries", 3),
        backoff_base_ms=raw.get("backoff_base_ms", 500),
        limit=raw.get("limit"),
        cache_dir=raw.get("cache_dir"),
        output_dir=raw.get("output_dir"),
        generation=generation,
        template=template,
        extractor=extractor,
        extraction_rules=rules,
        default_question_type=QuestionType(qtype) if qtype else None,
        default_metrics=tuple(raw.get("default_metrics", ("accuracy",))),
    )


def _dataset_defaults(config: RunConfig, name: str = "") -> DatasetManifest:
    return DatasetManifest(
        name=name,
        default_question_type=config.default_question_type,
        metrics=config.default_metrics,
    )


def cmd_eval(args) -> int:
    raw = _load_json(args.config)
    overrides = {
        "mode": args.mode,
        "num_shots": args.shots,
        "limit": args.limit,
        "concurrency_limit": args.concurrency,
        "output_dir": args.output,
        "cache_dir": args.cache,
    }
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    if args.cot:
        raw["use_cot"] = True
    backend_desc = raw.get("backend")
    if backend_desc is None:
        raise ConfigError("config has no backend descriptor")
    if args.backend:
        backend_desc["base_url"] = args.backend
        backend_desc.setdefault("type", "http")
    if args.model:
        backend_desc["model_name"] = args.model

    config = build_run_config(raw)
    if config.output_dir is None:
        raise ConfigError("output_dir must be set (config file or --output)")
    backend = build_backend(backend_desc)

    dataset_path = args.dataset or raw.get("dataset")
    if dataset_path is None:
        raise ConfigError("no dataset given (config file or --dataset)")
    manifest, items = load_dataset(dataset_path, defaults=_dataset_defaults(config))

    started = datetime.now(timezone.utc).isoformat()
    if config.mode == "ppl":
        records = run_ppl_eval(items, backend, config, manifest)
    else:
        records = run_generation_eval(items, backend, config, manifest)
    finished = datetime.now(timezone.utc).isoformat()

    run_dir = write_run_output(records, manifest, backend, config, started, finished)
    report = aggregate(records, manifest, model_name=backend.capabilities().model_name)
    print(report_to_markdown(report), end="")
    print(f"records written to {run_dir}", file=sys.stderr)
    return EXIT_ITEM_ERRORS if report.error_count else EXIT_OK


def cmd_score(args) -> int:
    config = build_run_config(_load_json(args.config) if args.config else {})
    manifest, items = load_dataset(args.dataset, defaults=_dataset_defaults(config))
    by_id = {item.id: item for item in items}
    stored = read_records(args.records)

    rescored: list[RunRecord] = []
    for record in stored:
        item = by_id.get(record.item_id)
        if item is None:
            logger.warning("record %s has no matching dataset item; kept as-is", record.item_id)
            rescored.append(record)
            continue
        if record.error is not None or record.response_text is None:
            rescored.append(record)
            continue
        extracted = extract_answer(
            record.response_text, item.question_type, item.choices, config.extraction_rules
        )
        stored = record.extracted
        if (extracted.status is ExtractionStatus.UNEXTRACTED and stored is not None
                and stored.status is ExtractionStatus.MODEL_EXTRACTED):
            # the extractor's answer came from a backend call, which score never makes
            extracted = stored
        outcomes = tuple(score_item(item, extracted, manifest.metrics))
        rescored.append(
            RunRecord(
                item_id=item.id,
                prompt_digest=record.prompt_digest,
                category=item.category,
                ground_truth=item.answer,
                response_text=record.response_text,
                extracted=extracted,
                outcomes=outcomes,
            )
        )

    if args.out:
        write_text_atomic(args.out, records_to_jsonl(rescored))
    report = aggregate(rescored, manifest, model_name=args.model or "rescored")
    print(report_to_markdown(report), end="")
    return EXIT_ITEM_ERRORS if report.error_count else EXIT_OK


def cmd_validate(args) -> int:
    try:
        manifest, items = load_dataset(args.dataset)
    except (ParseError, SchemaError, EmptyDataset, OSError) as exc:
        print(f"INVALID: {exc}")
        return 1
    print(f"OK: {manifest.name}: {len(items)} items")
    return EXIT_OK


def cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    record_files = sorted(runs_dir.rglob("records.jsonl"))
    if not record_files:
        print(f"no records.jsonl found under {runs_dir}", file=sys.stderr)
        return EXIT_USAGE
    emitter = EMITTERS[args.format]
    chunks = []
    for record_file in record_files:
        meta_path = record_file.with_name("run_meta.json")
        dataset = model = "unknown"
        if meta_path.exists():
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            dataset = meta.get("dataset", dataset)
            model = meta.get("model", model)
        records = read_records(record_file)
        manifest = DatasetManifest(name=dataset)
        chunks.append(emitter(aggregate(records, manifest, model_name=model)))
    text = "\n".join(chunks) if args.format == "md" else "".join(chunks)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omnieval", description="LLM evaluation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run an evaluation")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--dataset")
    p_eval.add_argument("--backend", help="override backend base URL")
    p_eval.add_argument("--model", help="override backend model name")
    p_eval.add_argument("--mode", choices=["generate", "ppl"])
    p_eval.add_argument("--shots", type=int)
    p_eval.add_argument("--cot", action="store_true")
    p_eval.add_argument("--limit", type=int)
    p_eval.add_argument("--concurrency", type=int)
    p_eval.add_argument("--output")
    p_eval.add_argument("--cache")
    p_eval.set_defaults(fn=cmd_eval)

    p_score = sub.add_parser("score", help="re-filter and re-score stored responses")
    p_score.add_argument("--records", required=True)
    p_score.add_argument("--dataset", required=True)
    p_score.add_argument("--config")
    p_score.add_argument("--model")
    p_score.add_argument("--out", help="write rescored records here")
    p_score.set_defaults(fn=cmd_score)

    p_val = sub.add_parser("validate", help="schema-check a dataset")
    p_val.add_argument("--dataset", required=True)
    p_val.set_defaults(fn=cmd_validate)

    p_rep = sub.add_parser("report", help="aggregate stored runs")
    p_rep.add_argument("--runs", required=True)
    p_rep.add_argument("--format", choices=["md", "csv", "jsonl"], default="md")
    p_rep.add_argument("--out")
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, SchemaError, EmptyDataset) as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except EvalKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
