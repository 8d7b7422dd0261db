"""Loading and validating evaluation datasets stored in the unified JSON
format: either a bare array of records or ``{"meta": {...}, "data": [...]}``.

Loaded items are immutable and fully canonicalized: option letters are
positional (choice 0 is A), multi-answer ground truth becomes a sorted letter
tuple, and yes/no truth becomes the literal token "yes" or "no". Unknown
record keys survive a round trip untouched.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import EmptyDataset, ParseError, SchemaError, checked
from .estimators import METRIC_REGISTRY
from .filters import LETTERS, YES_NO_WORDS, QuestionType, normalize_text

# the category of the report's row over all items, which no record may take
RESERVED_CATEGORY = "__all__"


class FewShotExemplar(NamedTuple):
    instruction: str
    answer: str
    choices: tuple[str, ...] | None = None


class EvalItem(NamedTuple):
    """One evaluation record, after validation."""

    id: str
    instruction: str
    question_type: QuestionType
    answer: str | tuple[str, ...]
    choices: tuple[str, ...] | None = None
    few_shot: tuple[FewShotExemplar, ...] = ()
    cot_directive: str | None = None
    images: tuple[str, ...] = ()
    category: str | None = None
    language: str | None = None
    domain: str | None = None
    modality: str | None = None
    extra: Mapping = MappingProxyType({})  # read-only, since every item without extra keys shares it


# the record keys that an item's own fields hold; ``extra`` holds the rest
_RECORD_KEYS = frozenset(EvalItem._fields) - {"extra"}


@checked
class DatasetManifest(NamedTuple):
    """Per-dataset defaults carried by the optional ``meta`` object."""

    name: str
    version: str = "0"
    default_question_type: QuestionType | None = None
    metrics: tuple[str, ...] = ("accuracy",)
    language: str | None = None
    domain: str | None = None
    modality: str | None = None
    few_shot: tuple[FewShotExemplar, ...] = ()

    def _check(self):
        metrics = self.metrics
        if not isinstance(metrics, (list, tuple)) or not all(isinstance(name, str) for name in metrics):
            raise SchemaError(f"bad field: metrics: must be a list of metric names, got {metrics!r}")
        for name in metrics:
            if name not in METRIC_REGISTRY:
                raise SchemaError(f"bad field: metrics: unknown metric {name!r} "
                                  f"(known: {', '.join(sorted(METRIC_REGISTRY))})")
        return None if type(metrics) is tuple else {"metrics": tuple(metrics)}


def load_dataset(path, default_question_type: QuestionType | None = None,
                 default_metrics: tuple[str, ...] = ("accuracy",)) -> tuple[DatasetManifest, list[EvalItem]]:
    """Load and validate a dataset file.

    The two defaults, typically the run configuration's, apply where the
    file's ``meta`` sets neither; a bare-array file has no ``meta``. Raises
    ParseError on bad JSON, SchemaError naming the first offending record and
    field, and EmptyDataset when no records are present.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"{path}: cannot read dataset: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: not valid UTF-8 JSON: {exc}") from exc

    if isinstance(payload, list):
        meta, records = {}, payload
    elif isinstance(payload, dict):
        meta, records = payload.get("meta", {}), payload.get("data")
        if not isinstance(meta, dict) or not isinstance(records, list):
            raise ParseError(f"{path}: object form requires a 'meta' object and a 'data' array")
    else:
        raise ParseError(f"{path}: top level must be an array or an object")
    manifest = _manifest_from_meta(meta, path.stem, default_question_type, default_metrics)

    if not records:
        raise EmptyDataset(f"{path}: dataset contains no records")

    items = []
    seen_ids: set[str] = set()
    exemplars: dict = {}  # shared by all records, so each distinct exemplar is validated once
    for index, record in enumerate(records):
        item = validate_item(record, manifest, index=index, exemplars=exemplars)
        if item.id in seen_ids:
            raise SchemaError(f"record {item.id!r} (index {index}): duplicate field: id")
        seen_ids.add(item.id)
        items.append(item)
    return manifest, items


def _manifest_from_meta(meta: dict, fallback_name: str, default_question_type, default_metrics) -> DatasetManifest:
    try:
        name = meta.get("name", fallback_name)
        if not isinstance(name, str):
            raise SchemaError(f"bad field: name: must be a string, got {name!r}")
        qtype = meta.get("default_question_type")
        try:
            default_qtype = QuestionType(qtype) if qtype else default_question_type
        except ValueError:
            raise SchemaError(f"bad field: default_question_type: {qtype!r}") from None
        return DatasetManifest(
            name=name,
            version=str(meta.get("version", "0")),
            default_question_type=default_qtype,
            metrics=meta.get("metrics", default_metrics),
            language=_text(meta, "language", None),
            domain=_text(meta, "domain", None),
            modality=_text(meta, "modality", None),
            few_shot=_few_shot(meta, {}),
        )
    except SchemaError as exc:
        raise SchemaError(f"meta: {exc}") from None


def validate_item(record, manifest: DatasetManifest, index: int = 0, exemplars: dict | None = None) -> EvalItem:
    """Validate one raw record against the schema and canonicalize it.

    Fills the question type from the manifest default when absent and
    normalizes the ground-truth answer. Raises SchemaError with the record id
    (or index) and the offending field in the message. ``exemplars`` maps the
    few-shot exemplars already accepted to their loaded form, which records
    passing the same dict share.
    """
    rid = record.get("id") if isinstance(record, dict) else None
    try:
        if not isinstance(record, dict):
            raise SchemaError("not an object")
        if not rid or not isinstance(rid, str):
            raise SchemaError("missing field: id")
        instruction = record.get("instruction")
        if not isinstance(instruction, str) or not instruction.strip():
            raise SchemaError("missing field: instruction")

        qtype_raw = record.get("question_type") or (
            manifest.default_question_type.value if manifest.default_question_type else None
        )
        if not qtype_raw:
            raise SchemaError("missing field: question_type")
        try:
            qtype = QuestionType(qtype_raw)
        except ValueError:
            raise SchemaError(f"bad field: question_type: {qtype_raw!r}") from None

        choices = record.get("choices")
        if choices is not None:
            choices = _choices(choices, "choices")
        if qtype in (QuestionType.SINGLE_CHOICE, QuestionType.MULTIPLE_CHOICE) and not choices:
            raise SchemaError("missing field: choices")

        if "answer" not in record or record["answer"] is None:
            raise SchemaError("missing field: answer")
        answer = _canonical_answer(record["answer"], qtype, choices)

        few_shot = _few_shot(record, {} if exemplars is None else exemplars) or manifest.few_shot

        category = _text(record, "category", None)
        if category == RESERVED_CATEGORY:
            raise SchemaError(f"bad field: category: {RESERVED_CATEGORY!r} is reserved")

        images = record.get("images", [])
        if not isinstance(images, list) or not all(isinstance(p, str) for p in images):
            raise SchemaError("bad field: images: must be a list of paths")

        extra = {k: v for k, v in record.items() if k not in _RECORD_KEYS}
        return EvalItem(
            id=rid,
            instruction=instruction,
            question_type=qtype,
            answer=answer,
            choices=choices,
            few_shot=few_shot,
            cot_directive=_text(record, "cot_directive", None),
            images=tuple(images),
            category=category,
            language=_text(record, "language", manifest.language),
            domain=_text(record, "domain", manifest.domain),
            modality=_text(record, "modality", manifest.modality),
            extra=extra,
        )
    except SchemaError as exc:
        where = f"record {rid!r} (index {index})" if rid else f"record at index {index}"
        raise SchemaError(f"{where}: {exc}") from None


# a ground truth may also abbreviate; a reply's "y" or "n" is no answer
_TRUTH_WORDS = {**YES_NO_WORDS, "y": "yes", "n": "no"}


def _canonical_answer(answer, qtype, choices):
    if qtype is QuestionType.SINGLE_CHOICE:
        letter = _parse_letter(answer, choices)
        if letter is None:
            raise SchemaError(f"bad field: answer: {answer!r} is not a letter within the {len(choices)} choices")
        return letter
    if qtype is QuestionType.MULTIPLE_CHOICE:
        letters = _parse_letter_set(answer, choices)
        if not letters:
            raise SchemaError(f"bad field: answer: {answer!r} is not a letter set "
                              f"within the {len(choices)} choices")
        return letters
    if qtype is QuestionType.YES_NO:
        token = normalize_text(str(answer)) if not isinstance(answer, bool) else ("yes" if answer else "no")
        if token in _TRUTH_WORDS:
            return _TRUTH_WORDS[token]
        raise SchemaError(f"bad field: answer: {answer!r} does not normalize to yes or no")
    # fill_blank / free_open: a string or a list of accepted alternatives
    if isinstance(answer, str):
        if not answer.strip():
            raise SchemaError("missing field: answer")
        return answer
    if isinstance(answer, list) and answer and all(isinstance(a, str) and a.strip() for a in answer):
        return tuple(answer)
    raise SchemaError(f"bad field: answer: expected text or a list of texts, got {answer!r}")


def _parse_letter(answer, choices) -> str | None:
    if not isinstance(answer, str):
        return None
    letter = answer.strip().upper()
    if len(letter) == 1 and letter in LETTERS and LETTERS.index(letter) < len(choices):
        return letter
    return None


def _parse_letter_set(answer, choices) -> tuple[str, ...] | None:
    """Canonicalize "A,C", "CA", or ["A","C"] into a sorted letter tuple."""
    if isinstance(answer, str):
        parts = [ch for ch in answer.upper() if not ch.isspace() and ch != ","]
    elif isinstance(answer, list):
        parts = [str(a).strip().upper() for a in answer]
    else:
        return None
    letters = set()
    for part in parts:
        if len(part) != 1 or part not in LETTERS or LETTERS.index(part) >= len(choices):
            return None
        letters.add(part)
    return tuple(sorted(letters)) if letters else None


# The checks below name only the field; validate_item and _manifest_from_meta
# put the record or ``meta`` before their messages.

def _text(raw: dict, key: str, default) -> str | None:
    """``raw[key]`` if it is a string or null, ``default`` if it is absent."""
    value = raw.get(key, default)
    if value is not None and not isinstance(value, str):
        raise SchemaError(f"bad field: {key}: must be a string or null, got {value!r}")
    return value


def _few_shot(raw: dict, accepted: dict) -> tuple[FewShotExemplar, ...]:
    exemplars = raw.get("few_shot", [])
    if not isinstance(exemplars, list):
        raise SchemaError(f"bad field: few_shot: must be a list of objects, got {exemplars!r}")
    return tuple(_exemplar(f, i, accepted) for i, f in enumerate(exemplars))


def _exemplar(raw, index, accepted: dict) -> FewShotExemplar:
    """The exemplar of ``raw``. ``accepted`` maps the key of each exemplar
    that passed these checks to it; a raw exemplar with the same key is that
    one, without checking it again."""
    if not isinstance(raw, dict):
        raise SchemaError(f"bad field: few_shot[{index}]: not an object")
    instruction = raw.get("instruction")
    answer = raw.get("answer")
    choices = raw.get("choices")
    # the choices' type is in the key, so only a list can match a list accepted before
    key = (instruction, answer, type(choices), tuple(choices) if type(choices) is list else choices)
    try:
        return accepted[key]
    except (KeyError, TypeError):  # not seen yet, or holding an unhashable value, which the checks refuse
        pass
    if not isinstance(instruction, str) or not instruction.strip():
        raise SchemaError(f"missing field: few_shot[{index}].instruction")
    if not isinstance(answer, str) or not answer.strip():
        raise SchemaError(f"missing field: few_shot[{index}].answer")
    if choices is not None:
        choices = _choices(choices, f"few_shot[{index}].choices")
    exemplar = accepted[key] = FewShotExemplar(instruction, answer, choices or None)
    return exemplar


def _choices(raw, name) -> tuple[str, ...]:
    # one letter per option: A to Z
    if not isinstance(raw, list) or len(raw) > len(LETTERS) or not all(isinstance(c, str) for c in raw):
        raise SchemaError(f"bad field: {name}: must be a list of at most {len(LETTERS)} strings")
    return tuple(raw)


# --- serialization back to the unified format --------------------------------

def item_to_record(item: EvalItem) -> dict:
    """Inverse of validate_item, modulo canonicalization already applied."""
    record: dict = {"id": item.id, "instruction": item.instruction}
    if item.choices is not None:
        record["choices"] = list(item.choices)
    record["answer"] = list(item.answer) if isinstance(item.answer, tuple) else item.answer
    record["question_type"] = item.question_type.value
    if item.few_shot:
        record["few_shot"] = [
            {
                "instruction": f.instruction,
                "answer": f.answer,
                **({"choices": list(f.choices)} if f.choices else {}),
            }
            for f in item.few_shot
        ]
    for key in ("cot_directive", "category", "language", "domain", "modality"):
        value = getattr(item, key)
        if value is not None:
            record[key] = value
    if item.images:
        record["images"] = list(item.images)
    record.update(item.extra)
    return record


def dump_dataset(manifest: DatasetManifest, items: list[EvalItem]) -> dict:
    meta: dict = {"name": manifest.name, "version": manifest.version, "metrics": list(manifest.metrics)}
    if manifest.default_question_type:
        meta["default_question_type"] = manifest.default_question_type.value
    for key in ("language", "domain", "modality"):
        value = getattr(manifest, key)
        if value is not None:
            meta[key] = value
    return {"meta": meta, "data": [item_to_record(item) for item in items]}
