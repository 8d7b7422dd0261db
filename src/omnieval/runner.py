"""End-to-end evaluation driver: prompt -> inference -> extraction -> scores,
per item, with request caching, retries, and bounded parallelism.

Records come back in dataset order regardless of completion order, and a
failing item never aborts the run: it yields a record carrying the error.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .backends.base import Backend, GenerationOptions, LoglikelihoodResult, ModelResponse
from .dataset import DatasetManifest, EvalItem
from .errors import ConfigError, ParseError, RateLimited, TransportError
from .estimators import METRIC_REGISTRY, QuestionOutcome, score_choice_exact, score_item
from .filters import (
    LETTERS,
    ExtractedAnswer,
    ExtractionRule,
    ExtractionStatus,
    QuestionType,
    extract_answer,
    model_extract,
)
from .prompts import PromptBundle, PromptTemplate, flatten_bundle, render_prompt

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    mode: str = "generate"  # "generate" or "ppl"
    num_shots: int = 0
    use_cot: bool = False
    concurrency_limit: int = 4
    max_retries: int = 3
    backoff_base_ms: int = 500
    limit: int | None = None
    cache_dir: str | None = None
    output_dir: str | None = None
    generation: GenerationOptions = field(default_factory=GenerationOptions)
    template: PromptTemplate = field(default_factory=PromptTemplate)
    extractor: Backend | None = None
    extraction_rules: tuple[ExtractionRule, ...] = ()
    default_question_type: QuestionType | None = None
    default_metrics: tuple[str, ...] = ("accuracy",)

    def __post_init__(self):
        if self.mode not in ("generate", "ppl"):
            raise ConfigError(f"mode must be 'generate' or 'ppl', got {self.mode!r}")
        if self.concurrency_limit < 1:
            raise ConfigError("concurrency_limit must be >= 1")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_ms < 1:
            raise ConfigError("backoff_base_ms must be positive")
        if self.num_shots < 0:
            raise ConfigError("num_shots must be >= 0")
        if self.limit is not None and self.limit < 1:
            raise ConfigError("limit must be >= 1")
        for name in self.default_metrics:
            if name not in METRIC_REGISTRY:
                raise ConfigError(f"unknown metric {name!r} in default_metrics")


@dataclass(frozen=True)
class RunRecord:
    """Everything the aggregator needs about one item."""

    item_id: str
    prompt_digest: str
    category: str | None = None
    ground_truth: str | tuple[str, ...] | None = None
    response_text: str | None = None
    choice_logprobs: tuple[dict, ...] | None = None
    extracted: ExtractedAnswer | None = None
    outcomes: tuple[QuestionOutcome, ...] = ()
    error: str | None = None

    def to_dict(self) -> dict:
        extracted = None
        if self.extracted is not None:
            value = self.extracted.value
            extracted = {
                "value": list(value) if isinstance(value, tuple) else value,
                "status": self.extracted.status.value,
                "rule_name": self.extracted.rule_name,
                "raw_span": self.extracted.raw_span,
            }
        truth = self.ground_truth
        return {
            "item_id": self.item_id,
            "prompt_digest": self.prompt_digest,
            "category": self.category,
            "ground_truth": list(truth) if isinstance(truth, tuple) else truth,
            "response_text": self.response_text,
            "choice_logprobs": list(self.choice_logprobs) if self.choice_logprobs else None,
            "extracted": extracted,
            "outcomes": [{"metric": o.metric_name, "score": o.score} for o in self.outcomes],
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        extracted = None
        raw = data.get("extracted")
        if raw is not None:
            value = raw.get("value")
            extracted = ExtractedAnswer(
                tuple(value) if isinstance(value, list) else value,
                ExtractionStatus(raw["status"]),
                raw.get("rule_name"),
                raw.get("raw_span"),
            )
        truth = data.get("ground_truth")
        logprobs = data.get("choice_logprobs")
        return cls(
            item_id=data["item_id"],
            prompt_digest=data.get("prompt_digest", ""),
            category=data.get("category"),
            ground_truth=tuple(truth) if isinstance(truth, list) else truth,
            response_text=data.get("response_text"),
            choice_logprobs=tuple(logprobs) if logprobs else None,
            extracted=extracted,
            outcomes=tuple(QuestionOutcome(o["metric"], o["score"]) for o in data.get("outcomes", [])),
            error=data.get("error"),
        )


# --- cache -------------------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def cache_key(model_name: str, request: dict, options: dict | None = None) -> str:
    """SHA-256 of the canonical serialization of the full request. Stable
    across runs, platforms, and JSON key order."""
    payload = {"model": model_name, "request": request, "options": options}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def bundle_request(bundle: PromptBundle) -> dict:
    # item_id identifies the record, not the wire request, so it stays out
    return {
        "system": bundle.system_text,
        "turns": [
            {"role": t.role, "text": t.text, "attachments": list(t.attachments)}
            for t in bundle.turns
        ],
    }


def generate_key(model_name: str, bundle: PromptBundle, options: GenerationOptions) -> str:
    request = {"kind": "generate", "conversation": bundle_request(bundle)}
    return cache_key(model_name, request, options.to_dict())


class ResponseCache:
    """Append-only JSONL cache sharded by the first two digest hex chars.

    Reads populate an in-memory index per shard; writes go through one lock.
    Each shard is opened for appending once and each entry is one
    ``os.write``, so entries of processes sharing the directory do not
    interleave. The newest entry for a key wins, which makes interrupted runs
    resumable. A line torn by a kill mid-append is skipped, so only its own
    key is refetched. ``close`` releases the shard descriptors.
    """

    def __init__(self, cache_dir):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._shards: dict[str, dict[str, dict]] = {}
        self._unterminated: set[str] = set()
        self._fds: dict[str, int] = {}

    def _shard(self, key: str) -> dict[str, dict]:
        name = key[:2]
        with self._lock:
            if name not in self._shards:
                index: dict[str, dict] = {}
                shard_path = self.cache_dir / f"{name}.jsonl"
                if shard_path.exists():
                    # a torn line may end inside a multi-byte character
                    text = shard_path.read_text(encoding="utf-8", errors="replace")
                    torn = 0
                    for line in text.splitlines():
                        if not line.strip():
                            continue
                        try:
                            entry = json.loads(line)
                        except json.JSONDecodeError:
                            entry = None
                        if not isinstance(entry, dict) or "key" not in entry:
                            torn += 1
                            continue
                        index[entry["key"]] = entry
                    if torn:
                        logger.warning("cache shard %s: skipped %d unreadable line(s)", shard_path, torn)
                    if text and not text.endswith("\n"):
                        # a torn last line: start the next entry on a line of its own
                        self._unterminated.add(name)
                self._shards[name] = index
            return self._shards[name]

    def get(self, key: str):
        entry = self._shard(key).get(key)
        if entry is None:
            return None
        if entry["kind"] == "generate":
            return ModelResponse.from_dict(entry["response"])
        return LoglikelihoodResult.from_dict(entry["response"])

    def put(self, key: str, kind: str, response: ModelResponse | LoglikelihoodResult):
        entry = {
            "key": key,
            "kind": kind,
            "created_at": datetime.now(timezone.utc).isoformat(),
            "response": response.to_dict(),
        }
        line = (canonical_json(entry) + "\n").encode("utf-8")
        shard = self._shard(key)
        name = key[:2]
        with self._lock:
            if name in self._unterminated:
                line = b"\n" + line
            fd = self._fds.get(name)
            if fd is None:
                fd = self._fds[name] = os.open(
                    self.cache_dir / f"{name}.jsonl", os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
                )
            written = os.write(fd, line)
            if written != len(line):
                # the line is torn: the next entry starts on a line of its own
                self._unterminated.add(name)
                raise OSError(f"cache shard {name}: wrote {written} of {len(line)} bytes")
            self._unterminated.discard(name)
            shard[key] = entry

    def close(self):
        with self._lock:
            for fd in self._fds.values():
                os.close(fd)
            self._fds.clear()


# --- retries -----------------------------------------------------------------

def with_retries(thunk, *, max_retries: int = 3, backoff_base_ms: int = 500, sleep=time.sleep):
    """Run ``thunk``, retrying transport failures and rate limits with
    exponential backoff. Rate-limit replies that carry a larger retry-after
    hint are honored. Anything else propagates immediately.
    """
    attempt = 0
    while True:
        try:
            return thunk()
        except (TransportError, RateLimited) as exc:
            if attempt >= max_retries:
                raise
            delay_s = backoff_base_ms * (2 ** attempt) / 1000.0
            retry_after = getattr(exc, "retry_after_s", None)
            if retry_after is not None and retry_after > delay_s:
                delay_s = retry_after
            logger.info("retry %d after %s (sleeping %.3fs)", attempt + 1, exc, delay_s)
            sleep(delay_s)
            attempt += 1


# --- evaluation loops --------------------------------------------------------

def _cached(cache: ResponseCache | None, key: str, kind: str, fetch):
    """The cached reply for ``key``, else ``fetch()``'s, which is then cached.
    A failed fetch raises and caches nothing."""
    response = cache.get(key) if cache else None
    if response is None:
        response = fetch()
        if cache:
            cache.put(key, kind, response)
    return response


def _retrying(config: RunConfig, call, *args):
    return lambda: with_retries(
        lambda: call(*args), max_retries=config.max_retries, backoff_base_ms=config.backoff_base_ms
    )


class _CachedExtractor:
    """An extractor backend whose generate calls go through the run's
    response cache, so a warm rerun sends it nothing."""

    def __init__(self, backend: Backend, cache: ResponseCache):
        self._backend = backend
        self._cache = cache
        self._caps = backend.capabilities()

    def capabilities(self):
        return self._caps

    def generate(self, bundle: PromptBundle, options: GenerationOptions) -> ModelResponse:
        key = generate_key(self._caps.model_name, bundle, options)
        return _cached(self._cache, key, "generate", lambda: self._backend.generate(bundle, options))


def _run_parallel(items, config: RunConfig, task, cache: ResponseCache | None) -> list[RunRecord]:
    """``task`` over the items in a pool, in item order; closes the run's cache."""
    try:
        with ThreadPoolExecutor(max_workers=config.concurrency_limit) as pool:
            futures = [pool.submit(task, item) for item in items]
            return [f.result() for f in futures]
    finally:
        if cache:
            cache.close()


def _soft_fail(item: EvalItem, digest: str, exc: Exception) -> RunRecord:
    logger.warning("item %s failed: %s", item.id, exc)
    return RunRecord(
        item_id=item.id,
        prompt_digest=digest,
        category=item.category,
        ground_truth=item.answer,
        error=f"{type(exc).__name__}: {exc}",
    )


def _metric_names(manifest: DatasetManifest | None, config: RunConfig) -> tuple[str, ...]:
    return manifest.metrics if manifest is not None else config.default_metrics


def score_response(
    item: EvalItem,
    digest: str,
    text: str,
    config: RunConfig,
    metrics: tuple[str, ...],
    fallback=None,
) -> RunRecord:
    """Extract the answer from a generated response and score it: the one
    path that ``eval`` and ``score`` share. ``fallback()`` gives the answer
    when the regex bank finds none."""
    extracted = extract_answer(text, item.question_type, item.choices, config.extraction_rules)
    if extracted.status is ExtractionStatus.UNEXTRACTED and fallback is not None:
        extracted = fallback()
    return RunRecord(
        item_id=item.id,
        prompt_digest=digest,
        category=item.category,
        ground_truth=item.answer,
        response_text=text,
        extracted=extracted,
        outcomes=score_item(item, extracted, metrics),
    )


def run_generation_eval(
    items: list[EvalItem],
    backend: Backend,
    config: RunConfig,
    manifest: DatasetManifest | None = None,
) -> list[RunRecord]:
    """Generation mode: prompt -> generate -> extract -> score, per item."""
    items = items[: config.limit]
    caps = backend.capabilities()
    if not caps.supports_generation:
        raise ConfigError(f"backend {caps.model_name!r} does not support generation")
    cache = ResponseCache(config.cache_dir) if config.cache_dir else None
    metrics = _metric_names(manifest, config)
    extractor = config.extractor
    if extractor is not None and cache is not None:
        extractor = _CachedExtractor(extractor, cache)

    def task(item: EvalItem) -> RunRecord:
        digest = ""
        try:
            bundle = render_prompt(item, config.template, config.use_cot, config.num_shots)
            digest = generate_key(caps.model_name, bundle, config.generation)
            text = _cached(cache, digest, "generate",
                           _retrying(config, backend.generate, bundle, config.generation)).text
            fallback = None
            if extractor is not None:
                fallback = lambda: model_extract(
                    text, item.question_type, item.choices, extractor, config.extraction_rules
                )
            return score_response(item, digest, text, config, metrics, fallback)
        except Exception as exc:
            return _soft_fail(item, digest, exc)

    return _run_parallel(items, config, task, cache)


def run_ppl_eval(
    items: list[EvalItem],
    backend: Backend,
    config: RunConfig,
    manifest: DatasetManifest | None = None,
) -> list[RunRecord]:
    """Perplexity mode: score each choice as a continuation of the prompt.

    The continuation is " " + choice text. The predicted letter is the argmax
    of the total logprob; the argmax of the per-character-normalized logprob
    is scored separately as accuracy_norm. Ties break to the lowest index.
    """
    items = items[: config.limit]
    caps = backend.capabilities()
    if not caps.supports_loglikelihood:
        raise ConfigError(f"backend {caps.model_name!r} does not support loglikelihood")
    for item in items:
        if not item.choices:
            raise ConfigError(f"ppl mode requires choices on every item; {item.id!r} has none")
    cache = ResponseCache(config.cache_dir) if config.cache_dir else None

    def task(item: EvalItem) -> RunRecord:
        digest = ""
        try:
            bundle = render_prompt(item, config.template, config.use_cot, config.num_shots)
            context = flatten_bundle(bundle, config.template.exemplar_separator)
            digest = cache_key(caps.model_name, {"kind": "ppl_context", "context": context}, None)
            per_choice = []
            for i, choice in enumerate(item.choices):
                continuation = " " + choice
                request = {"kind": "loglikelihood", "context": context, "continuation": continuation}
                key = cache_key(caps.model_name, request, None)
                result = _cached(cache, key, "loglikelihood",
                                 _retrying(config, backend.loglikelihood, context, continuation))
                per_choice.append(
                    {
                        "letter": LETTERS[i],
                        "total_logprob": result.total_logprob,
                        "token_count": result.token_count,
                        "continuation_chars": result.continuation_chars,
                        "normalized_logprob": result.per_char_logprob,
                    }
                )
        except Exception as exc:
            return _soft_fail(item, digest, exc)

        predicted = _argmax_letter(per_choice, "total_logprob")
        predicted_norm = _argmax_letter(per_choice, "normalized_logprob")
        extracted = ExtractedAnswer(predicted, ExtractionStatus.EXTRACTED, "ppl_argmax", predicted)
        outcomes = (
            QuestionOutcome("accuracy", score_choice_exact(extracted, item.answer)),
            QuestionOutcome("accuracy_norm", 1.0 if predicted_norm == item.answer else 0.0),
        )
        return RunRecord(
            item_id=item.id,
            prompt_digest=digest,
            category=item.category,
            ground_truth=item.answer,
            choice_logprobs=tuple(per_choice),
            extracted=extracted,
            outcomes=outcomes,
        )

    return _run_parallel(items, config, task, cache)


def _argmax_letter(per_choice: list[dict], field_name: str) -> str:
    best = max(range(len(per_choice)), key=lambda i: (per_choice[i][field_name], -i))
    return per_choice[best]["letter"]


# --- run outputs -------------------------------------------------------------

def _safe_segment(name: str) -> str:
    return re.sub(r"[^\w.-]+", "_", name) or "unnamed"


def records_to_jsonl(records: list[RunRecord]) -> str:
    return "".join(canonical_json(r.to_dict()) + "\n" for r in records)


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path`` and move it into
    place, so a crash leaves either the old file or the new one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_records(path) -> list[RunRecord]:
    """The records of a ``records.jsonl``. A line that does not hold a record
    raises ``ParseError`` naming the file and the 1-based line number."""
    records = []
    # bytes, not str: str.splitlines also splits at U+0085 and U+2028, which records keep raw
    for number, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            if not isinstance(data, dict) or "item_id" not in data:
                raise ValueError("expected a JSON object with an item_id")
            records.append(RunRecord.from_dict(data))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ParseError(f"{path}, line {number}: not a record: {exc}") from exc
    return records


def write_run_output(
    records: list[RunRecord],
    manifest: DatasetManifest,
    backend: Backend,
    config: RunConfig,
    started_at: str,
    finished_at: str,
) -> Path:
    """Write records.jsonl and run_meta.json under output_dir/dataset/model."""
    if config.output_dir is None:
        raise ConfigError("output_dir is not configured")
    caps = backend.capabilities()
    run_dir = Path(config.output_dir) / _safe_segment(manifest.name) / _safe_segment(caps.model_name)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(run_dir / "records.jsonl", records_to_jsonl(records))
    meta = {
        "dataset": manifest.name,
        "model": caps.model_name,
        "mode": config.mode,
        "started_at": started_at,
        "finished_at": finished_at,
        "capabilities": caps.to_dict(),
        "config": {
            "mode": config.mode,
            "num_shots": config.num_shots,
            "use_cot": config.use_cot,
            "concurrency_limit": config.concurrency_limit,
            "max_retries": config.max_retries,
            "backoff_base_ms": config.backoff_base_ms,
            "limit": config.limit,
            "generation": config.generation.to_dict(),
        },
        "item_count": len(records),
        "error_count": sum(1 for r in records if r.error is not None),
    }
    write_text_atomic(run_dir / "run_meta.json", json.dumps(meta, indent=2, sort_keys=True))
    return run_dir
