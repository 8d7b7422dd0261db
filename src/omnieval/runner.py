"""End-to-end evaluation driver: prompt -> inference -> extraction -> scores,
with request caching, retries, and bounded parallelism.

Both modes send one request per distinct key that the cache misses, so equal
prompts share one reply with or without a cache. Generate mode sends the
extractor's requests in a second round, so a cold run appends all model
replies before the extractor's; the keys are unchanged, so caches written
earlier stay warm. Records come back in dataset order, and a failing item
never aborts the run: it yields a record carrying the error.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

from .backends.base import Backend, GenerationOptions, LoglikelihoodResult, ModelResponse
from .dataset import DatasetManifest, EvalItem
from .errors import (NUMBER, REQUIRED, STRING, STRING_OR_NULL, BackendError, ConfigError, ParseError, RateLimited,
                     Stored, TransportError, checked, config_enum, read_stored)
from .estimators import METRIC_REGISTRY, OUTCOME_NAMES, QuestionOutcome, score_choice_exact, score_item
from .filters import (
    LETTERS,
    UNEXTRACTED,
    ExtractedAnswer,
    ExtractionRule,
    ExtractionStatus,
    QuestionType,
    extract_answer,
    extraction_prompt,
)
from .prompts import PromptBundle, PromptTemplate, Turn, flatten_bundle, render_prompt

logger = logging.getLogger(__name__)


@checked
class RunConfig(NamedTuple):
    mode: str = "generate"  # "generate" or "ppl"
    num_shots: int = 0
    use_cot: bool = False
    concurrency_limit: int = 4
    max_retries: int = 3
    backoff_base_ms: int = 500
    limit: int | None = None
    cache_dir: str | None = None
    output_dir: str | None = None
    generation: GenerationOptions = GenerationOptions()
    template: PromptTemplate = PromptTemplate()
    extractor: Backend | None = None
    extraction_rules: tuple[ExtractionRule, ...] = ()
    default_question_type: QuestionType | None = None
    default_metrics: tuple[str, ...] = ("accuracy",)

    def _check(self):
        if self.mode not in ("generate", "ppl"):
            raise ConfigError(f"mode must be 'generate' or 'ppl', got {self.mode!r}")
        if type(self.use_cot) is not bool:
            raise ConfigError(f"use_cot must be true or false, got {self.use_cot!r}")
        for name, least in (("num_shots", 0), ("concurrency_limit", 1), ("max_retries", 0),
                            ("backoff_base_ms", 1), ("limit", 1)):
            value = getattr(self, name)
            if value is None and name == "limit":
                continue
            # type(), not isinstance(): a bool is an int, but true is no count
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}")
        for name in ("cache_dir", "output_dir"):
            if not isinstance(getattr(self, name), (str, os.PathLike, type(None))):
                raise ConfigError(f"{name} must be a path, got {getattr(self, name)!r}")
        qtype = self.default_question_type
        if qtype is not None:
            qtype = config_enum(QuestionType, qtype, "default_question_type")
        metrics = self.default_metrics
        if not isinstance(metrics, (list, tuple)) or not all(isinstance(name, str) for name in metrics):
            raise ConfigError(f"default_metrics must be a list of metric names, got {metrics!r}")
        for name in metrics:
            if name not in METRIC_REGISTRY:
                raise ConfigError(f"unknown metric {name!r} in default_metrics")
        return {"default_question_type": qtype, "default_metrics": tuple(metrics)}


class RunRecord(NamedTuple):
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
        item_id, digest, category, truth, text, logprobs, extracted, outcomes, error = read_stored(data, _RECORD)
        if outcomes and truth in (None, ()):  # what its outcomes were scored against, and text metrics read
            raise ValueError("ground_truth must be a string or a non-empty list of strings in a scored record, "
                             f"got {data.get('ground_truth')!r}")
        return cls(item_id, digest, category, truth, text, logprobs or None, extracted, outcomes, error)


_TEXTS = ({str: None, list: str, type(None): None}, "a string, a list of strings or null")
_STATUS = ({str: {status.value: status for status in ExtractionStatus}},
           "one of " + ", ".join(status.value for status in ExtractionStatus))
_EXTRACTED = Stored((("value", _TEXTS, None), ("status", _STATUS, REQUIRED),
                     ("rule_name", STRING_OR_NULL, None), ("raw_span", STRING_OR_NULL, None)), ExtractedAnswer)
_CHOICE = Stored((("total_logprob", NUMBER, REQUIRED), ("normalized_logprob", NUMBER, REQUIRED)))  # kept as stored
_OUTCOME = Stored((("metric", ({str: {name: name for name in OUTCOME_NAMES}}, "a metric name"), REQUIRED),
                   ("score", NUMBER, REQUIRED)), QuestionOutcome)
_RECORD = Stored((  # in RunRecord's order
    ("item_id", STRING, REQUIRED), ("prompt_digest", STRING, ""), ("category", STRING_OR_NULL, None),
    ("ground_truth", _TEXTS, None), ("response_text", STRING_OR_NULL, None),
    ("choice_logprobs", ({list: _CHOICE, type(None): None}, "a list of objects or null"), None),
    ("extracted", ({dict: _EXTRACTED, type(None): None}, "an object or null"), None),
    ("outcomes", ({list: _OUTCOME}, "a list of objects"), []), ("error", STRING_OR_NULL, None),
))


# --- cache -------------------------------------------------------------------

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


def _json(obj) -> bytes:
    return canonical_json(obj).encode("utf-8")


class CacheKeys:
    """The cache keys of one model under one set of options: each is the
    SHA-256 of ``canonical_json({"model", "request", "options"})``. Every byte
    but the request's per-item values is the same for a whole run, so those
    bytes are made once, and a key only encodes the item's own values and
    hashes them with the literal bytes around them."""

    # canonical_json sorts keys: the payload reads "model", "options",
    # "request", and a request reads "context", "continuation", "conversation",
    # "kind". So a ppl context digest and its choices' keys share every byte up
    # to the end of the context.
    def __init__(self, model_name: str, options: dict | None):
        self._head = b'{"model":' + _json(model_name) + b',"options":' + _json(options) + b',"request":'

    def generate(self, bundle: PromptBundle) -> str:
        return hashlib.sha256(self._head + b'{"conversation":' + _json(bundle_request(bundle))
                              + b',"kind":"generate"}}').hexdigest()

    def ppl(self, context: str, continuations: list[str]) -> tuple[str, list[str]]:
        """The ``ppl_context`` digest of ``context`` and the loglikelihood key
        of each continuation of it; the context is hashed once for all."""
        state = hashlib.sha256(self._head + b'{"context":' + _json(context))
        digest = state.copy()
        digest.update(b',"kind":"ppl_context"}}')
        keys = []
        for continuation in continuations:
            choice = state.copy()
            choice.update(b',"continuation":' + _json(continuation) + b',"kind":"loglikelihood"}}')
            keys.append(choice.hexdigest())
        return digest.hexdigest(), keys


def bundle_request(bundle: PromptBundle) -> dict:
    # item_id identifies the record, not the wire request, so it stays out
    return {
        "system": bundle.system_text,
        "turns": [
            {"role": t.role, "text": t.text, "attachments": list(t.attachments)}
            for t in bundle.turns
        ],
    }


_DECODERS = {"generate": ModelResponse.from_dict, "loglikelihood": LoglikelihoodResult.from_dict}


class ResponseCache:
    """Append-only JSONL cache: one file, ``responses.jsonl``, per directory.

    The file is read once, when the cache opens, into an in-memory index,
    after any ``00.jsonl`` .. ``ff.jsonl`` shards that earlier versions wrote
    there; those are never written. Each entry is one ``os.write`` of ``\\n``
    and the entry, through one descriptor opened at the first ``put``, so
    entries of processes sharing the directory do not interleave, and each
    starts its own line even after a tail torn by a kill or while another
    process's append is in flight. The newest entry for a key wins, which
    makes interrupted runs resumable. A torn line is skipped, and an entry
    that does not decode as the kind asked for is a miss, so only its own
    key is refetched. ``close`` releases the descriptor; a ``put`` after it
    raises, so a worker still running then cannot reopen it.
    """

    def __init__(self, cache_dir):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.cache_dir / "responses.jsonl"
        self._lock = threading.Lock()
        self._index: dict[str, dict] = {}
        self._fd: int | None = None
        self._closed = False
        for path in sorted(self.cache_dir.glob("[0-9a-f][0-9a-f].jsonl")) + [self.path]:
            self._load(path)

    def _load(self, path: Path):
        try:
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            return
        torn = 0
        # bytes, not str: str.splitlines also splits at U+0085 and U+2028, which entries keep raw
        for line in data.split(b"\n"):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:  # not JSON, or torn inside a multi-byte character
                entry = None
            if not isinstance(entry, dict) or not isinstance(entry.get("key"), str):
                torn += 1
                continue
            self._index[entry["key"]] = entry
        if torn:
            logger.warning("cache %s: skipped %d unreadable line(s)", path, torn)

    def get(self, key: str, kind: str):
        entry = self._index.get(key)
        if entry is None:
            return None
        try:
            if entry["kind"] == kind:
                return _DECODERS[kind](entry["response"])
            problem = f"its kind is {entry['kind']!r}"
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        logger.warning("cache %s: entry %s does not decode as %s (%s), fetching it again",
                       self.path, key, kind, problem)
        return None

    def put(self, key: str, kind: str, response: ModelResponse | LoglikelihoodResult):
        entry = {
            "key": key,
            "kind": kind,
            "created_at": datetime.now(timezone.utc).isoformat(),
            "response": response.to_dict(),
        }
        line = b"\n" + _json(entry)
        with self._lock:
            if self._closed:
                raise ValueError(f"cache {self.cache_dir} is closed")
            if self._fd is None:
                self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            written = os.write(self._fd, line)
            if written != len(line):
                raise OSError(f"cache {self.path}: wrote {written} of {len(line)} bytes")
            self._index[key] = entry

    def close(self):
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
            self._fd = None
            self._closed = True


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


# --- evaluation --------------------------------------------------------------

EXTRACTION_OPTIONS = GenerationOptions(temperature=0.0, max_new_tokens=64)


def model_extract(reply: str, qtype: QuestionType, choices: list[str] | tuple[str, ...] | None,
                  rules: tuple[ExtractionRule, ...] = ()) -> ExtractedAnswer:
    """The second pass: the regex bank run again on the text of an extractor
    model's ``reply`` to ``extraction_prompt``."""
    second = extract_answer(reply, qtype, choices, rules)
    if second.status is ExtractionStatus.UNEXTRACTED:
        return UNEXTRACTED
    return ExtractedAnswer(second.value, ExtractionStatus.MODEL_EXTRACTED, second.rule_name, second.raw_span)


def score_response(item: EvalItem, digest: str, text: str, extracted: ExtractedAnswer,
                   metrics: tuple[str, ...]) -> RunRecord:
    """Score the answer ``extracted`` from a generated response: the one path
    that ``eval`` and ``score`` share."""
    return RunRecord(item.id, digest, item.category, item.answer, response_text=text, extracted=extracted,
                     outcomes=score_item(item, extracted, metrics))


def _ppl_record(item: EvalItem, digest: str, per_choice: list[dict] | tuple[dict, ...]) -> RunRecord:
    """Score the argmax of the per-choice loglikelihoods, which the record
    stores as ``choice_logprobs``: the one path that ``eval`` and ``score``
    share in ppl mode."""
    indices = range(len(per_choice))
    # ties break to the lowest index
    best = LETTERS[max(indices, key=lambda i: (per_choice[i]["total_logprob"], -i))]
    best_norm = LETTERS[max(indices, key=lambda i: (per_choice[i]["normalized_logprob"], -i))]
    # a multiple_choice answer is a letter set, so its argmax is a set of one letter
    multi = item.question_type is QuestionType.MULTIPLE_CHOICE
    predicted, predicted_norm = ((best,), (best_norm,)) if multi else (best, best_norm)
    extracted = ExtractedAnswer(predicted, ExtractionStatus.EXTRACTED, "ppl_argmax", best)
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


def _ppl_refusal(item: EvalItem, stored: int | None = None) -> str | None:
    """Why ppl mode cannot score ``item``, or from ``stored`` choice
    loglikelihoods when given; None when it can."""
    if not item.choices:
        return f"ppl mode requires choices on every item; {item.id!r} has none"
    # the argmax is a letter, which no other type's answer can equal
    if item.question_type not in (QuestionType.SINGLE_CHOICE, QuestionType.MULTIPLE_CHOICE):
        return ("ppl mode scores only single_choice and multiple_choice items; "
                f"{item.id!r} is {item.question_type.value}")
    if stored is not None and stored != len(item.choices):
        return f"{item.id!r} has {len(item.choices)} choices, the record {stored} choice_logprobs"
    return None


def _run(
    mode: str,
    items: list[EvalItem],
    backend: Backend,
    config: RunConfig,
    manifest: DatasetManifest | None,
) -> list[RunRecord]:
    """The one execution path of both modes, in rounds. The calling thread
    plans every item, sorting its keys into cached replies and misses, and the
    distinct misses go to up to ``concurrency_limit`` worker threads. Generate
    mode then extracts each reply in the calling thread and plans the
    extractor's requests the same way. Last, the records are built in order."""
    items = items[: config.limit]
    ppl = mode == "ppl"
    capability = "loglikelihood" if ppl else "generation"
    if not getattr(backend, f"supports_{capability}"):
        raise ConfigError(f"backend {backend.model_name!r} does not support {capability}")
    extractor = config.extractor
    if extractor is not None and not extractor.supports_generation:
        raise ConfigError("extractor backend does not support generation")
    for item in items:
        if ppl and (refusal := _ppl_refusal(item)):
            raise ConfigError(refusal)
        # a ppl context is text only, so its images would be dropped without a word
        if item.images and (ppl or not backend.supports_images):
            taker = "ppl mode" if ppl else f"backend {backend.model_name!r}"
            raise ConfigError(f"{taker} does not take images; {item.id!r} has some")
    cache = ResponseCache(config.cache_dir) if config.cache_dir else None
    metrics = manifest.metrics if manifest is not None else config.default_metrics

    replies: dict = {}  # key -> its reply, or the exception its fetch raised
    misses: dict[str, tuple] = {}  # key -> (kind, request, *args), first seen first

    def want(key: str, kind: str, request, *args):
        """Sort ``key`` into ``replies`` when the cache holds it, else into ``misses``."""
        if key not in replies and key not in misses:
            reply = cache.get(key, kind) if cache else None
            if reply is None:
                misses[key] = (kind, request, *args)
            else:
                replies[key] = reply

    def fetch(miss: tuple[str, tuple]):
        """``request(*args)``'s reply, made with retries and then cached under
        ``key``; or the exception that failed it, which caches nothing."""
        key, (kind, request, *args) = miss
        try:
            response = with_retries(lambda: request(*args), max_retries=config.max_retries,
                                    backoff_base_ms=config.backoff_base_ms)
            if cache:
                cache.put(key, kind, response)
            return response
        except Exception as exc:  # it fails the items that need this key, when they next read it
            return exc

    def fetch_misses():
        replies.update(zip(misses, _on_workers(fetch, list(misses.items()), config.concurrency_limit)))
        misses.clear()

    def reply(key: str):
        if isinstance(response := replies[key], Exception):
            raise response
        return response

    # loglikelihood requests carry no generation options, so their keys hold none
    keys = CacheKeys(backend.model_name, None if ppl else config.generation.to_dict())
    extract_keys = CacheKeys(extractor.model_name, EXTRACTION_OPTIONS.to_dict()) if extractor else None
    rendered: dict = {}  # each exemplar's turn pair, rendered once per run

    def plan(item: EvalItem):
        """The digest of ``item`` and the keys of its requests, each passed to ``want``."""
        bundle = render_prompt(item, config.template, config.use_cot, config.num_shots, rendered)
        if not ppl:
            digest = keys.generate(bundle)
            want(digest, "generate", backend.generate, bundle, config.generation)
            return (digest,)
        context = flatten_bundle(bundle, config.template.exemplar_separator)
        continuations = [" " + choice for choice in item.choices]
        digest, choice_keys = keys.ppl(context, continuations)
        for key, continuation in zip(choice_keys, continuations):
            want(key, "loglikelihood", backend.loglikelihood, context, continuation)
        return digest, choice_keys

    def read(item: EvalItem, digest: str):
        """The reply to ``item``, the regex bank's answer in it and, when that
        is none and an extractor is set, the key of the extractor's request."""
        text = reply(digest).text
        extracted = extract_answer(text, item.question_type, item.choices, config.extraction_rules)
        extract_key = None
        if extracted.status is ExtractionStatus.UNEXTRACTED and extractor is not None:
            prompt = extraction_prompt(text, item.question_type, item.choices)
            bundle = PromptBundle(system_text=None, turns=(Turn("user", prompt),))
            extract_key = extract_keys.generate(bundle)
            want(extract_key, "generate", extractor.generate, bundle, EXTRACTION_OPTIONS)
        return digest, text, extracted, extract_key

    def build(item: EvalItem, digest: str, *planned) -> RunRecord:
        if ppl:
            choices = [reply(key) for key in planned[0]]  # the first failing choice names the item's error
            per_choice = [{"letter": LETTERS[i], **choice.to_dict(), "normalized_logprob": choice.per_char_logprob}
                          for i, choice in enumerate(choices)]
            return _ppl_record(item, digest, per_choice)
        text, extracted, extract_key = planned
        if extract_key is not None:
            try:
                extracted = model_extract(reply(extract_key).text, item.question_type, item.choices,
                                          config.extraction_rules)
            except BackendError as exc:  # a failed extractor call degrades to unextracted
                logger.warning("model extraction failed: %s", exc)
                extracted = UNEXTRACTED
        return score_response(item, digest, text, extracted, metrics)

    def each(step, states: list) -> list:
        """``step(item, *state)`` for each item that has not failed, in item
        order. A planned state starts with the item's digest, and an exception
        fails only its own item, with that digest."""
        done = []
        for item, state in zip(items, states):
            try:
                done.append(state if isinstance(state, RunRecord) else step(item, *state))
            except Exception as exc:
                logger.warning("item %s failed: %s", item.id, exc)
                done.append(RunRecord(item.id, state[0] if state else "", item.category, item.answer,
                                      error=f"{type(exc).__name__}: {exc}"))
        return done

    try:
        states = each(plan, [()] * len(items))
        fetch_misses()
        if not ppl:
            states = each(read, states)
            fetch_misses()
        return each(build, states)
    finally:
        if cache:
            cache.close()


def _on_workers(task, items: list, limit: int) -> list:
    """``task`` over ``items`` on ``min(limit, len(items))`` threads, results
    in item order; the caller only waits. The first exception a task lets
    through stops the workers taking items and is raised once they have
    ended. An interrupt of the wait stops them too, and is raised at once."""
    results = [None] * len(items)
    indices = iter(range(len(items)))
    lock = threading.Lock()
    raised: list[BaseException] = []

    def work():
        try:
            while not raised:
                with lock:
                    i = next(indices, None)
                if i is None:
                    return
                results[i] = task(items[i])
        except BaseException as exc:  # raised again by the caller
            raised.append(exc)

    workers = [threading.Thread(target=work, name="omnieval-worker") for _ in range(min(limit, len(items)))]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    except BaseException as exc:  # an interrupt, or no thread to start: finish the items held, no more
        raised.append(exc)
        raise
    if raised:
        raise raised[0]
    return results


def run_generation_eval(
    items: list[EvalItem],
    backend: Backend,
    config: RunConfig,
    manifest: DatasetManifest | None = None,
) -> list[RunRecord]:
    """Generation mode: prompt -> generate -> extract -> score, per item."""
    return _run("generate", items, backend, config, manifest)


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
    return _run("ppl", items, backend, config, manifest)


def rescore(records: list[RunRecord], items: list[EvalItem], config: RunConfig,
            metrics: tuple[str, ...]) -> list[RunRecord]:
    """Rebuild each stored record against its item with the builder that
    ``eval`` used, from the stored reply or choice loglikelihoods, without a
    backend call. An errored record is kept, and so is one whose item is gone
    or, for a ppl record, can no longer be scored that way."""
    by_id = {item.id: item for item in items}
    rescored = []
    for record in records:
        item = by_id.get(record.item_id)
        if item is None:
            logger.warning("record %s has no matching dataset item; kept as-is", record.item_id)
        elif record.error is not None:
            pass  # what the record holds is the item's failure
        elif (text := record.response_text) is not None:
            answer = extract_answer(text, item.question_type, item.choices, config.extraction_rules)
            stored = record.extracted
            # the extractor's answer came from a backend call, which score never makes
            if (answer.status is ExtractionStatus.UNEXTRACTED and stored is not None
                    and stored.status is ExtractionStatus.MODEL_EXTRACTED):
                answer = stored
            record = score_response(item, record.prompt_digest, text, answer, metrics)
        elif record.choice_logprobs is not None:
            if refusal := _ppl_refusal(item, len(record.choice_logprobs)):
                logger.warning("record %s kept as-is: %s", record.item_id, refusal)
            else:
                record = _ppl_record(item, record.prompt_digest, record.choice_logprobs)
        rescored.append(record)
    return rescored


# --- run outputs -------------------------------------------------------------

def _safe_segment(name: str) -> str:
    """``name`` as one directory name under the output directory: each run of
    characters other than word characters, ``.`` and ``-`` becomes ``_``, and
    ``.`` and ``..`` become ``_`` and ``__``."""
    segment = re.sub(r"[^\w.-]+", "_", name) or "unnamed"
    return "_" * len(segment) if segment in (".", "..") else segment


def records_to_jsonl(records: list[RunRecord]) -> str:
    return "".join(canonical_json(r.to_dict()) + "\n" for r in records)


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` as UTF-8 to a temporary file beside ``path`` and move it
    into place, so a crash leaves either the old file or the new one. When
    ``path`` already holds exactly those bytes nothing is written, so an
    unchanged output keeps its inode and mtime."""
    path = Path(path)
    data = text.encode("utf-8")
    if _holds(path, data):
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _holds(path: Path, data: bytes) -> bool:
    """Whether the file at ``path`` holds exactly ``data``, read a chunk at a
    time; a file that cannot be read does not."""
    chunk = 1 << 16
    try:
        if os.stat(path).st_size != len(data):
            return False
        with open(path, "rb") as f:
            for start in range(0, len(data), chunk):
                # bytes against bytes: comparing with a memoryview goes byte by byte, many times slower
                if f.read(chunk) != data[start:start + chunk]:
                    return False
            return not f.read(1)
    except OSError:
        return False


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
        except ValueError as exc:
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
    run_dir = Path(config.output_dir) / _safe_segment(manifest.name) / _safe_segment(backend.model_name)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(run_dir / "records.jsonl", records_to_jsonl(records))
    meta = {
        "dataset": manifest.name,
        "model": backend.model_name,
        "mode": config.mode,
        "started_at": started_at,
        "finished_at": finished_at,
        "capabilities": {name: getattr(backend, name) for name in
                         ("model_name", "supports_generation", "supports_loglikelihood", "supports_images")},
        "config": {**{name: getattr(config, name) for name in ("mode", "num_shots", "use_cot", "concurrency_limit",
                                                               "max_retries", "backoff_base_ms", "limit")},
                   "generation": config.generation.to_dict()},
        "item_count": len(records),
        "error_count": sum(1 for r in records if r.error is not None),
        "metrics": list(manifest.metrics),
    }
    write_text_atomic(run_dir / "run_meta.json", json.dumps(meta, indent=2, sort_keys=True))
    return run_dir
