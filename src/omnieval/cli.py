"""Command-line interface.

Subcommands:
  eval      run a dataset against a backend and write records + reports
  score     rebuild stored records from their replies or loglikelihoods
  validate  schema-check a dataset file
  report    aggregate stored runs into md/csv/jsonl reports

Exit codes: 0 success, 1 usage or config error, 2 dataset error, 3 the run
finished but some items errored (outputs are still written).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path

from .backends import GenerationOptions, HttpBackend, StubBackend
from .dataset import DatasetManifest, load_dataset
from .errors import STRING, ConfigError, EmptyDataset, EvalKitError, ParseError, SchemaError, Stored, read_stored
from .filters import ExtractionRule
from .prompts import PromptTemplate
from .report import EMITTERS, aggregate, report_to_markdown
from .runner import (
    RunConfig,
    read_records,
    records_to_jsonl,
    rescore,
    run_generation_eval,
    run_ppl_eval,
    write_run_output,
    write_text_atomic,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATASET = 2
EXIT_ITEM_ERRORS = 3


def _load_json(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _object(raw, f"config {path}")


def _object(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    return raw


@functools.cache
def _config_keys(cls) -> tuple[frozenset, tuple]:
    """The config keys of ``cls``, and those of them without a default, in order: a
    NamedTuple's fields, or a backend's ``__init__`` parameters after ``self`` but test
    seams (a name starting with ``_``)."""
    if issubclass(cls, tuple):
        names, defaults = cls._fields, cls._field_defaults
    else:
        init = cls.__init__
        code, positional = init.__code__, init.__code__.co_argcount - 1
        names = code.co_varnames[1:1 + positional + code.co_kwonlyargcount]
        # the last positional parameters take __defaults__, the keyword-only ones __kwdefaults__
        defaults = {*names[positional - len(init.__defaults__ or ()):positional], *(init.__kwdefaults__ or ())}
        names = [name for name in names if not name.startswith("_")]
    return frozenset(names), tuple(name for name in names if name not in defaults)


def _build(cls, raw, where: str, **built):
    """``cls(**raw)`` for the JSON object ``raw``, ``built`` holding values
    already decoded from it. A key that is no config key of ``cls``, a
    required one that it lacks, or a bad value, is a ConfigError naming
    ``where``; ``cls`` names only the field."""
    raw = _object(raw, where)
    accepted, required = _config_keys(cls)
    # refused here, since the constructor's own TypeError words them the interpreter's way
    if unknown := sorted(raw.keys() - accepted):
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
    if missing := [name for name in required if name not in raw and name not in built]:
        raise ConfigError(f"{where}: missing key {missing[0]!r}")
    try:
        return cls(**{**raw, **built})
    except (ConfigError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# backend type -> class; its constructor's parameters are the keys a JSON descriptor may set
_BACKENDS = {"stub": StubBackend, "http": HttpBackend}


def build_backend(desc: dict, where: str = "backend"):
    """The backend that the JSON object ``desc`` describes; ``type`` is http when absent."""
    desc = dict(_object(desc, where))
    kind = desc.pop("type", "http")
    if not isinstance(kind, str) or kind not in _BACKENDS:
        raise ConfigError(f"{where}: unknown backend type {kind!r}")
    return _build(_BACKENDS[kind], desc, where)


def build_run_config(raw: dict) -> RunConfig:
    """The RunConfig of a config file's top-level object, whose ``backend``
    and ``dataset`` are left to ``cmd_eval``."""
    raw = {key: value for key, value in raw.items() if key not in ("backend", "dataset")}
    built = {key: _build(cls, raw[key], key)
             for key, cls in (("generation", GenerationOptions), ("template", PromptTemplate)) if key in raw}
    if raw.get("extractor") is not None:
        built["extractor"] = build_backend(raw["extractor"], "extractor")
    if "extraction_rules" in raw:
        rules = raw["extraction_rules"]
        if not isinstance(rules, list):
            raise ConfigError(f"extraction_rules: must be a list of objects, got {rules!r}")
        built["extraction_rules"] = tuple(
            _build(ExtractionRule, rule, f"extraction_rules[{i}]") for i, rule in enumerate(rules)
        )
    return _build(RunConfig, raw, "config", **built)


def cmd_eval(args) -> int:
    raw = _load_json(args.config)
    # a flag whose dest is a RunConfig key overrides that key
    accepted, _ = _config_keys(RunConfig)
    raw.update((key, value) for key, value in vars(args).items() if key in accepted and value is not None)
    backend_desc = _object(raw.get("backend"), "backend")
    for key in ("base_url", "model_name"):
        if getattr(args, key) is not None:
            backend_desc[key] = getattr(args, key)

    config = build_run_config(raw)
    if config.output_dir is None:
        raise ConfigError("config: output_dir must be set (config file or --output)")
    backend = build_backend(backend_desc)

    dataset_path = args.dataset or raw.get("dataset")
    if not isinstance(dataset_path, str):
        raise ConfigError(f"config: dataset must be a path (config file or --dataset), got {dataset_path!r}")
    manifest, items = load_dataset(dataset_path, config.default_question_type, config.default_metrics)

    started = datetime.now(timezone.utc).isoformat()
    if config.mode == "ppl":
        records = run_ppl_eval(items, backend, config, manifest)
    else:
        records = run_generation_eval(items, backend, config, manifest)
    finished = datetime.now(timezone.utc).isoformat()

    run_dir = write_run_output(records, manifest, backend, config, started, finished)
    report = aggregate(records, manifest, model_name=backend.model_name)
    print(report_to_markdown(report), end="")
    print(f"records written to {run_dir}", file=sys.stderr)
    return EXIT_ITEM_ERRORS if report.error_count else EXIT_OK


def cmd_score(args) -> int:
    config = build_run_config(_load_json(args.config) if args.config else {})
    manifest, items = load_dataset(args.dataset, config.default_question_type, config.default_metrics)
    rescored = rescore(read_records(args.records), items, config, manifest.metrics)
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


# the fields of run_meta.json that report reads; its metrics are checked as a dataset's are
_RUN_META = Stored((("dataset", STRING, "unknown"), ("model", STRING, "unknown")))


def cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    record_files = sorted(runs_dir.rglob("records.jsonl"))
    if not record_files:
        print(f"no records.jsonl found under {runs_dir}", file=sys.stderr)
        return EXIT_USAGE
    reports = []
    for record_file in record_files:
        meta_path = record_file.with_name("run_meta.json")
        meta = {}
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ParseError(f"{meta_path}: not JSON: {exc}") from exc
            if not isinstance(meta, dict):
                raise ParseError(f"{meta_path}: not a JSON object")
        # a run_meta.json written before runs stored their metrics reports the default ones
        metrics = {"metrics": meta["metrics"]} if "metrics" in meta else {}
        try:
            dataset, model = read_stored(meta, _RUN_META)
            manifest = DatasetManifest(name=dataset, **metrics)
        except (ValueError, SchemaError) as exc:
            raise ParseError(f"{meta_path}: {exc}") from exc
        records = read_records(record_file)
        reports.append(aggregate(records, manifest, model_name=model))
    text = EMITTERS[args.format](reports)
    if args.out:
        write_text_atomic(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


@functools.cache  # parse_args leaves the parser as it was
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omnieval", description="LLM evaluation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run an evaluation")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--dataset")
    # each dest is the config key that the flag overrides
    p_eval.add_argument("--backend", dest="base_url", help="override backend base URL")
    p_eval.add_argument("--model", dest="model_name", help="override backend model name")
    p_eval.add_argument("--mode", choices=["generate", "ppl"])
    p_eval.add_argument("--shots", type=int, dest="num_shots")
    p_eval.add_argument("--cot", action="store_const", const=True, dest="use_cot")
    p_eval.add_argument("--limit", type=int)
    p_eval.add_argument("--concurrency", type=int, dest="concurrency_limit")
    p_eval.add_argument("--output", dest="output_dir")
    p_eval.add_argument("--cache", dest="cache_dir")
    p_eval.set_defaults(fn=cmd_eval)

    p_score = sub.add_parser("score", help="rebuild stored records against a dataset")
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
