"""Scoring: exact-match scorers for the five question formats plus sentence
BLEU and ROUGE.

Tokenization everywhere is lowercase + split on Unicode whitespace; no
stemming, no language-specific handling. All scores live in [0, 1].
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import EmptyReferences, checked
from .filters import ExtractedAnswer, ExtractionStatus, QuestionType, normalize_text

MAX_BLEU_ORDER = 4


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def _ngrams(tokens: Sequence[str], n: int) -> Iterable[tuple[str, ...]]:
    """The n-grams of ``tokens`` in order, each a tuple of n tokens."""
    return zip(*[tokens[i:] for i in range(n)])


def _bleu_ngram_counts(tokens: Sequence[str]) -> Counter:
    """The counts of every n-gram of orders 1 to MAX_BLEU_ORDER, in one Counter;
    an n-gram's order is its length."""
    return Counter(chain.from_iterable(_ngrams(tokens, n) for n in range(1, MAX_BLEU_ORDER + 1)))


# --- exact-match scorers -----------------------------------------------------

def score_choice_exact(extracted: ExtractedAnswer, truth: str) -> float:
    """1.0 iff the extracted letter (or yes/no token) equals the truth."""
    if extracted.status is ExtractionStatus.UNEXTRACTED:
        return 0.0
    return 1.0 if extracted.value == truth else 0.0


def score_multi_choice(extracted: Iterable[str], truth: Iterable[str]) -> tuple[float, float]:
    """Exact set match plus the Jaccard overlap as a diagnostic."""
    got, want = set(extracted), set(truth)
    exact = 1.0 if got == want else 0.0
    union = got | want
    jaccard = len(got & want) / len(union) if union else 0.0
    return exact, jaccard


def score_fill_blank(extracted: str, truth: str | Sequence[str]) -> float:
    """1.0 iff the normalized answer equals any accepted normalized truth."""
    return _matches(extracted, reference_texts(truth))


def _matches(extracted: str, references: list[str]) -> float:
    return 1.0 if normalize_text(extracted) in references else 0.0


# --- BLEU --------------------------------------------------------------------

def _closest_ref_len(refs_tokens: list[list[str]], c: int) -> int:
    # ties between equally close references go to the shorter one
    return min((abs(len(r) - c), len(r)) for r in refs_tokens)[1]


def bleu(candidate: str, references: Sequence[str]) -> float:
    """Sentence-level BLEU: ``corpus_bleu`` over the one candidate/references pair."""
    if not references:
        raise EmptyReferences("bleu needs at least one reference")
    return corpus_bleu([candidate], [references])


def corpus_bleu(candidates: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    """Micro-averaged corpus BLEU, max order 4: n-gram counts pooled over all
    pairs before the precisions are formed.

    Modified (clipped) n-gram precision with multi-reference clipping. p1 is
    unsmoothed; higher orders get add-one smoothing; orders where the
    candidates have no n-grams are dropped from the geometric mean. Brevity
    penalty exp(1 - r/c) applies when the pooled candidate length c is below
    the pooled closest-reference length r. Empty candidates score 0.
    """
    if len(candidates) != len(references):
        raise ValueError("candidates and references must pair up")
    if not candidates:
        return 0.0
    for refs in references:
        if not refs:
            raise EmptyReferences("corpus_bleu needs at least one reference per candidate")

    matched = [0] * MAX_BLEU_ORDER
    total = [0] * MAX_BLEU_ORDER
    cand_len = 0
    ref_len = 0
    for candidate, refs in zip(candidates, references):
        cand = tokenize(candidate)
        refs_tokens = [tokenize(r) for r in refs]
        ref_len += _closest_ref_len(refs_tokens, len(cand))
        if not cand:
            continue
        cand_len += len(cand)
        orders = range(min(len(cand), MAX_BLEU_ORDER))
        for i in orders:
            total[i] += len(cand) - i
        if cand in refs_tokens:
            # a reference equal to the candidate matches every n-gram in full
            for i in orders:
                matched[i] += len(cand) - i
            continue
        # multi-reference clipping: each n-gram's count in its most generous reference
        max_ref = _bleu_ngram_counts(refs_tokens[0])
        for ref in refs_tokens[1:]:
            max_ref |= _bleu_ngram_counts(ref)
        for gram, count in _bleu_ngram_counts(cand).items():
            matched[len(gram) - 1] += min(count, max_ref.get(gram, 0))

    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    orders = 0
    for n in range(1, MAX_BLEU_ORDER + 1):
        if total[n - 1] == 0:
            continue
        if n == 1:
            if matched[0] == 0:
                return 0.0
            p = matched[0] / total[0]
        else:
            p = (matched[n - 1] + 1) / (total[n - 1] + 1)
        log_sum += math.log(p)
        orders += 1
    geo = math.exp(log_sum / orders)
    bp = math.exp(1.0 - ref_len / cand_len) if cand_len < ref_len else 1.0
    return bp * geo


# --- ROUGE -------------------------------------------------------------------

def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def rouge_n(candidate: str, reference: str, n: int) -> tuple[float, float, float]:
    """ROUGE-N (n in {1, 2}): clipped n-gram overlap as (precision, recall, f1)."""
    if n not in (1, 2):
        raise ValueError("rouge_n supports n in {1, 2}")
    cand_counts = Counter(_ngrams(tokenize(candidate), n))
    ref_counts = Counter(_ngrams(tokenize(reference), n))
    cand_total = sum(cand_counts.values())
    ref_total = sum(ref_counts.values())
    if cand_total == 0 or ref_total == 0:
        return (0.0, 0.0, 0.0)
    overlap = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
    precision = overlap / cand_total
    recall = overlap / ref_total
    return (precision, recall, _f1(precision, recall))


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length, bit-parallel (Allison and Dix 1986;
    Hyyro 2004). After the tokens of ``a`` seen so far, bit j of ``v`` is
    clear iff their LCS with b[: j + 1] is one longer than with b[:j], so the
    clear bits count the LCS. One step per token of ``a`` updates every j at
    once, on Python ints of any length."""
    if not a or not b:
        return 0
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        if u:
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: str, reference: str) -> tuple[float, float, float]:
    """ROUGE-L over token sequences: P = LCS/|cand|, R = LCS/|ref|."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        return (0.0, 0.0, 0.0)
    lcs = lcs_length(cand, ref)
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return (precision, recall, _f1(precision, recall))


# --- metric registry ---------------------------------------------------------

@checked
class MetricValue(NamedTuple):
    name: str
    value: float
    support: int

    def _check(self):
        if self.support < 1:
            raise ValueError("a metric value needs at least one supporting item")


class QuestionOutcome(NamedTuple):
    """One metric's score for one item; the item's record holds the rest."""

    metric_name: str
    score: float


class MetricSpec(NamedTuple):
    name: str
    applicable_types: frozenset[QuestionType]
    fn: Callable  # (extracted, item, references) -> dict[str, float]


def reference_texts(truth: str | Sequence[str]) -> list[str]:
    """The reference texts of a ground truth: each accepted answer, normalized
    as the candidate was, so a reply equal to its reference scores 1."""
    return [normalize_text(truth)] if isinstance(truth, str) else [normalize_text(t) for t in truth]


def candidate_text(extracted: ExtractedAnswer | None) -> str:
    """The text that text metrics score for an extracted answer: empty when
    nothing was extracted, letters joined by spaces."""
    if extracted is None or extracted.status is ExtractionStatus.UNEXTRACTED:
        return ""
    return extracted.value if isinstance(extracted.value, str) else " ".join(extracted.value)


def _accuracy(extracted, item, references):
    qtype = item.question_type
    if qtype in (QuestionType.SINGLE_CHOICE, QuestionType.YES_NO):
        return {"accuracy": score_choice_exact(extracted, item.answer)}
    if qtype is QuestionType.MULTIPLE_CHOICE:
        got = extracted.value if extracted.status is not ExtractionStatus.UNEXTRACTED else ()
        exact, jaccard = score_multi_choice(got, item.answer)
        return {"accuracy": exact, "multi_choice_jaccard": jaccard}
    return {"accuracy": _matches(candidate_text(extracted), references)}


def _multi_choice_exact(extracted, item, references):
    got = extracted.value if extracted.status is not ExtractionStatus.UNEXTRACTED else ()
    exact, jaccard = score_multi_choice(got, item.answer)
    return {"multi_choice_exact": exact, "multi_choice_jaccard": jaccard}


def _fill_blank_exact(extracted, item, references):
    return {"fill_blank_exact": _matches(candidate_text(extracted), references)}


def _bleu_metric(extracted, item, references):
    return {"bleu": bleu(candidate_text(extracted), references)}


def _rouge_metric(name, scorer):
    def fn(extracted, item, references):
        candidate = candidate_text(extracted)
        best = max(scorer(candidate, ref)[2] for ref in references)
        return {name: best}

    return fn


_ALL_TYPES = frozenset(QuestionType)
_TEXTUAL = frozenset({QuestionType.FILL_BLANK, QuestionType.FREE_OPEN})

METRIC_REGISTRY: dict[str, MetricSpec] = {
    spec.name: spec
    for spec in (
        MetricSpec("accuracy", _ALL_TYPES, _accuracy),
        MetricSpec("multi_choice_exact", frozenset({QuestionType.MULTIPLE_CHOICE}), _multi_choice_exact),
        MetricSpec("fill_blank_exact", _TEXTUAL, _fill_blank_exact),
        MetricSpec("bleu", _TEXTUAL, _bleu_metric),
        MetricSpec("rouge1", _TEXTUAL, _rouge_metric("rouge1", lambda c, r: rouge_n(c, r, 1))),
        MetricSpec("rouge2", _TEXTUAL, _rouge_metric("rouge2", lambda c, r: rouge_n(c, r, 2))),
        MetricSpec("rougeL", _TEXTUAL, _rouge_metric("rougeL", rouge_l)),
    )
}
# every name an outcome may carry: a metric's own, and the two scored beside one
OUTCOME_NAMES = (*METRIC_REGISTRY, "multi_choice_jaccard", "accuracy_norm")


def score_item(
    item, extracted: ExtractedAnswer, metric_names: Iterable[str]
) -> tuple[QuestionOutcome, ...]:
    """Apply every applicable registered metric to one item. When two metrics
    report the same name, the first one keeps it."""
    scores: dict[str, float] = {}
    # a text item's references, normalized once for all its metrics
    references = reference_texts(item.answer) if item.question_type in _TEXTUAL else None
    for name in metric_names:
        spec = METRIC_REGISTRY[name]
        if item.question_type in spec.applicable_types:
            for out_name, score in spec.fn(extracted, item, references).items():
                scores.setdefault(out_name, score)
    return tuple(QuestionOutcome(name, score) for name, score in scores.items())
