"""Answer extraction: strip the noise out of a free-form model response and
pull out a canonical answer.

Extraction runs a bank of regex rules in a fixed precedence order (user rules
first, then the built-in marker rules), followed by per-question-type fallback
stages. Within a single rule the LAST match in the text wins, because
step-by-step responses restate the final answer at the end. Extraction never
raises: failure is an ``ExtractedAnswer`` with status ``unextracted``.
"""

from __future__ import annotations

import re
import unicodedata
from enum import Enum
from typing import NamedTuple

from .errors import ConfigError, checked, config_enum


class QuestionType(str, Enum):
    SINGLE_CHOICE = "single_choice"
    MULTIPLE_CHOICE = "multiple_choice"
    YES_NO = "yes_no"
    FILL_BLANK = "fill_blank"
    FREE_OPEN = "free_open"


class ExtractionStatus(str, Enum):
    EXTRACTED = "extracted"
    MODEL_EXTRACTED = "model_extracted"
    UNEXTRACTED = "unextracted"


LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# each word that answers a yes/no question, and the answer it gives
YES_NO_WORDS = {"yes": "yes", "true": "yes", "correct": "yes", "no": "no", "false": "no", "incorrect": "no"}
_NEGATORS = {"not", "never"}
_ARTICLE_RE = re.compile(r"^(?:a|an|the)\s+")


def normalize_text(s: str) -> str:
    """Canonicalize free text for comparison.

    Compatibility-form Unicode normalization, lowercasing, surrounding
    punctuation stripped, internal whitespace collapsed, leading English
    articles dropped. Applied to a fixpoint, so the function is idempotent.
    """
    s = _normalize_once(s)
    # NFKC and lowercasing change nothing after the first pass, so every later
    # pass that changes the text makes it shorter
    for _ in range(len(s)):
        prev, s = s, _normalize_once(s)
        if s == prev:
            break
    return s


def _normalize_once(s: str) -> str:
    if not s.isascii():
        s = unicodedata.normalize("NFKC", s)  # which leaves ASCII unchanged
    s = " ".join(_strip_edge_punct(s.lower()).split())
    return _ARTICLE_RE.sub("", s)


def _strip_edge_punct(s: str) -> str:
    if s.isascii():
        return s.strip(_ASCII_JUNK)
    start, end = 0, len(s)
    while start < end and _is_junk(s[start]):
        start += 1
    while end > start and _is_junk(s[end - 1]):
        end -= 1
    return s[start:end]


def _is_junk(ch: str) -> bool:
    return ch.isspace() or unicodedata.category(ch)[0] in ("P", "S")


_ASCII_JUNK = "".join(filter(_is_junk, map(chr, range(128))))


# each rule's pattern, compiled once by the rule's constructor: a NamedTuple holds only its fields
_COMPILED: dict[str, re.Pattern] = {}


@checked
class ExtractionRule(NamedTuple):
    """One regex in the extraction bank.

    ``pattern`` must compile and contain ``capture_group``; the captured span
    is parsed according to the question type it is applied to. A list of
    question type names becomes a frozenset of ``QuestionType``.
    """

    name: str
    pattern: str
    capture_group: int = 1
    applicable_types: frozenset[QuestionType] = frozenset(QuestionType)

    def _check(self):
        if type(self.capture_group) is not int or self.capture_group < 0:
            raise ConfigError("capture_group must be an integer >= 0")
        types = self.applicable_types
        if not isinstance(types, (list, tuple, set, frozenset)):
            raise ConfigError(f"applicable_types must be a list, got {types!r}")
        types = frozenset(config_enum(QuestionType, t, "applicable_types") for t in types)
        try:
            compiled = re.compile(self.pattern)
        except re.error as exc:
            raise ConfigError(f"pattern does not compile: {exc}") from exc
        if self.capture_group > compiled.groups:
            raise ConfigError(f"capture group {self.capture_group} not in pattern")
        _COMPILED[self.pattern] = compiled
        return {"applicable_types": types}

    @property
    def compiled(self) -> re.Pattern:
        return _COMPILED[self.pattern]


@checked
class ExtractedAnswer(NamedTuple):
    """Canonical answer plus how it was obtained.

    ``value`` is a letter, a sorted tuple of letters, a yes/no token, or
    normalized text; it is None exactly when status is ``unextracted``.
    """

    value: str | tuple[str, ...] | None
    status: ExtractionStatus
    rule_name: str | None = None
    raw_span: str | None = None

    def _check(self):
        if (self.value is None) != (self.status is ExtractionStatus.UNEXTRACTED):
            raise ValueError("value must be absent exactly when status is unextracted")


UNEXTRACTED = ExtractedAnswer(None, ExtractionStatus.UNEXTRACTED)

# Captures a standalone option letter, tolerating (B), **B**, lowercase.
_LETTER = r"\(?\**([A-Za-z])\**\)?\b"
# Captures a letter list: "A, C", "A and C", "(A) and (C)", or a bare run "AC".
_LETTER_SET = r"\(?\**([A-Za-z]\b(?:\)?\s*(?:,|and|or|&)\s*\(?[A-Za-z]\b)*|[A-Z]{2,}\b)\**\)?"
# Captures the rest of the sentence or line after a marker.
_TEXT_SPAN = r"(.+?)(?:\.(?=\s|$)|\n|$)"
# Captures one word, for yes/no style markers.
_WORD = r"[\"'(]*\**([A-Za-z]+)\**"
# Fallback scans: a standalone capital letter, and the letter runs of a span.
_CAPITAL_RE = re.compile(r"\b([A-Z])\b")
_LETTER_RUN_RE = re.compile(r"[A-Za-z]+")

_ANSWER_IS = r"(?i:\banswers?\s+(?:is|are)\s*:?\s*)"
_ANSWER_COLON = r"(?i:\banswers?\s*:\s*)"
_CORRECT_IS = r"(?i:\b(?:correct|right|final)\s+(?:answer|option|choice)s?\s*(?:is|are)?\s*:?\s*)"

# The lowercase words that the matches of a built-in rule start with (see _scan_start).
_ANSWER = ("answer",)
_CORRECT = ("correct", "right", "final")
_BOXED = ("\\boxed", "boxed")
_PAREN = ("(",)

_SC = frozenset({QuestionType.SINGLE_CHOICE})
_MC = frozenset({QuestionType.MULTIPLE_CHOICE})
_CHOICE_TYPES = _SC | _MC
_TEXT_TYPES = frozenset({QuestionType.FILL_BLANK, QuestionType.FREE_OPEN})
_YN = frozenset({QuestionType.YES_NO})

_BUILTINS: tuple[tuple[ExtractionRule, tuple[str, ...]], ...] = (
    # single-choice letters
    (ExtractionRule("answer_is_letter", _ANSWER_IS + _LETTER, 1, _SC), _ANSWER),
    (ExtractionRule("answer_colon_letter", _ANSWER_COLON + _LETTER, 1, _SC), _ANSWER),
    (ExtractionRule("correct_option_letter", _CORRECT_IS + _LETTER, 1, _SC), _CORRECT),
    # multiple-choice letter sets
    (ExtractionRule("answer_is_letters", _ANSWER_IS + _LETTER_SET, 1, _MC), _ANSWER),
    (ExtractionRule("answer_colon_letters", _ANSWER_COLON + _LETTER_SET, 1, _MC), _ANSWER),
    (ExtractionRule("correct_option_letters", _CORRECT_IS + _LETTER_SET, 1, _MC), _CORRECT),
    # shared letter markers
    (ExtractionRule("paren_line_start", r"(?m:^\s*\(([A-Za-z])\))", 1, _CHOICE_TYPES), _PAREN),
    (ExtractionRule("boxed_letters", r"(?i:\\?boxed)\{([^{}]+)\}", 1, _CHOICE_TYPES), _BOXED),
    # yes/no markers
    (ExtractionRule("answer_is_token", _ANSWER_IS + _WORD, 1, _YN), _ANSWER),
    (ExtractionRule("answer_colon_token", _ANSWER_COLON + _WORD, 1, _YN), _ANSWER),
    (ExtractionRule("correct_answer_token", _CORRECT_IS + _WORD, 1, _YN), _CORRECT),
    # free-text markers
    (ExtractionRule("boxed_text", r"(?i:\\?boxed)\{([^{}]+)\}", 1, _TEXT_TYPES), _BOXED),
    (ExtractionRule("answer_is_text", _ANSWER_IS + _TEXT_SPAN, 1, _TEXT_TYPES), _ANSWER),
    (ExtractionRule("answer_colon_text", _ANSWER_COLON + _TEXT_SPAN, 1, _TEXT_TYPES), _ANSWER),
)
BUILTIN_RULES: tuple[ExtractionRule, ...] = tuple(rule for rule, _ in _BUILTINS)
# The built-ins that apply to each question type, in precedence order.
_BUILTINS_BY_TYPE = {
    qtype: tuple(entry for entry in _BUILTINS if qtype in entry[0].applicable_types) for qtype in QuestionType
}

# Wording is frozen so that reruns with the same extractor model are reproducible.
MODEL_EXTRACTION_PROMPT = (
    "Extract the final answer from the response below.\n"
    "Reply with only the answer and nothing else:\n"
    "- for a multiple-choice question, reply with the option letter(s), e.g. \"B\" or \"A, C\";\n"
    "- for a yes-or-no question, reply with \"yes\" or \"no\";\n"
    "- otherwise, reply with the short answer text.\n"
    "\n"
    "Question type: {question_type}\n"
    "{options_block}"
    "Response:\n"
    "{response}\n"
    "\n"
    "Final answer:"
)


def extract_answer(
    raw: str,
    qtype: QuestionType,
    choices: list[str] | tuple[str, ...] | None = None,
    rules: list[ExtractionRule] | tuple[ExtractionRule, ...] = (),
) -> ExtractedAnswer:
    """Extract a canonical answer from a raw model response.

    ``rules`` are user rules; they run ahead of the built-ins. Total and
    deterministic; returns status ``unextracted`` instead of raising.
    """
    qtype = QuestionType(qtype)
    if not raw:
        return UNEXTRACTED
    n_choices = len(choices) if choices else 0

    for rule in rules:
        if qtype in rule.applicable_types:
            hit = _apply_rule(rule, raw, 0, qtype, n_choices)
            if hit is not None:
                return hit
    # For an ASCII reply str.lower() folds case as the rules' IGNORECASE does
    # and keeps every index; other replies are scanned in full.
    low = raw.lower() if raw.isascii() else None
    for rule, words in _BUILTINS_BY_TYPE[qtype]:
        start = 0 if low is None else _scan_start(low, words)
        if start >= 0:
            hit = _apply_rule(rule, raw, start, qtype, n_choices)
            if hit is not None:
                return hit

    if qtype is QuestionType.SINGLE_CHOICE:
        return _standalone_letter(raw, n_choices) or _choice_text(raw, choices, single=True) or UNEXTRACTED
    if qtype is QuestionType.MULTIPLE_CHOICE:
        return _standalone_letters(raw, n_choices) or _choice_text(raw, choices, single=False) or UNEXTRACTED
    if qtype is QuestionType.YES_NO:
        tokens = _clean_tokens(raw)
        return _leading_token(tokens) or _polarity_scan(tokens) or UNEXTRACTED
    # fill_blank / free_open: the normalized full response
    text = normalize_text(raw)
    if not text:
        return UNEXTRACTED
    return ExtractedAnswer(text, ExtractionStatus.EXTRACTED, "full_text", raw)


def _scan_start(low: str, words: tuple[str, ...]) -> int:
    """Where a built-in rule's scan of the lowercased ASCII reply ``low`` can
    start: at the first of its words, less the whitespace before it, or -1
    when none occurs. No match starts earlier: each starts with one of the
    words, except that ``paren_line_start``'s starts at the whitespace
    before its ``(``. ``re`` tests ``^`` and ``\\b`` against the characters
    before the start, so a match found from there is the match of a full scan.
    """
    found = [i for i in map(low.find, words) if i >= 0]
    if not found:
        return -1
    start = min(found)
    while start > 0 and low[start - 1].isspace():
        start -= 1
    return start


def _apply_rule(rule: ExtractionRule, raw: str, start: int, qtype: QuestionType, n_choices: int):
    last = None
    for last in rule.compiled.finditer(raw, start):
        pass
    if last is None:
        return None
    span = last.group(rule.capture_group)
    if span is None:
        return None
    value = _parse_span(span, qtype, n_choices)
    if value is None:
        return None  # last match invalid: the rule is skipped
    return ExtractedAnswer(value, ExtractionStatus.EXTRACTED, rule.name, span)


def _parse_span(span: str, qtype: QuestionType, n_choices: int):
    if qtype is QuestionType.SINGLE_CHOICE:
        letters = _span_letters(span)
        if letters is None or len(letters) != 1 or not _valid(letters[0], n_choices):
            return None
        return letters[0]
    if qtype is QuestionType.MULTIPLE_CHOICE:
        letters = _span_letters(span)
        if not letters or any(not _valid(ch, n_choices) for ch in letters):
            return None
        return tuple(sorted(set(letters)))
    if qtype is QuestionType.YES_NO:
        return YES_NO_WORDS.get(normalize_text(span).split(" ")[0])
    text = normalize_text(span)
    return text or None


def _span_letters(span: str) -> list[str] | None:
    """Parse "A", "a and c", "A, C" or an all-caps run "AC" into letters."""
    letters: list[str] = []
    for run in _LETTER_RUN_RE.findall(span):
        if run.lower() in ("and", "or"):
            continue
        if len(run) == 1:
            letters.append(run.upper())
        elif run.isupper():
            letters.extend(run)  # "AC" -> A, C
        else:
            return None  # an ordinary word: not a letter list
    return letters


def _valid(letter: str, n_choices: int) -> bool:
    return letter in LETTERS and LETTERS.index(letter) < n_choices


def _standalone_letter(raw: str, n_choices: int):
    last = None
    for m in _CAPITAL_RE.finditer(raw):
        if _valid(m.group(1), n_choices):
            last = m.group(1)
    if last is None:
        return None
    return ExtractedAnswer(last, ExtractionStatus.EXTRACTED, "standalone_letter", last)


def _standalone_letters(raw: str, n_choices: int):
    # For set answers, collect every valid letter on the last line that has one.
    for line in reversed(raw.splitlines()):
        valid = [m.group(1) for m in _CAPITAL_RE.finditer(line) if _valid(m.group(1), n_choices)]
        if valid:
            return ExtractedAnswer(
                tuple(sorted(set(valid))), ExtractionStatus.EXTRACTED, "standalone_letters", line
            )
    return None


def _choice_text(raw: str, choices, single: bool):
    if not choices:
        return None
    norm = normalize_text(raw)
    if not norm:
        return None
    for i, choice in enumerate(choices):
        if normalize_text(choice) == norm:
            letter = LETTERS[i]
            value = letter if single else (letter,)
            return ExtractedAnswer(value, ExtractionStatus.EXTRACTED, "choice_text", raw.strip())
    return None


def _clean_tokens(raw: str) -> list[str]:
    return [t for t in map(_strip_edge_punct, normalize_text(raw).split(" ")) if t]


def _leading_token(tokens: list[str]):
    if not tokens:
        return None
    value = YES_NO_WORDS.get(tokens[0])
    if value is None:
        return None
    return ExtractedAnswer(value, ExtractionStatus.EXTRACTED, "leading_token", tokens[0])


def _polarity_scan(tokens: list[str]):
    """Decide yes/no from the polarity tokens in the response.

    "not"/"never" flips the token that follows it; a mix of polarities is
    treated as ambiguous.
    """
    polarities = set()
    for i, token in enumerate(tokens):
        value = YES_NO_WORDS.get(token)
        if value is None:
            continue
        if i > 0 and tokens[i - 1] in _NEGATORS:
            value = "no" if value == "yes" else "yes"
        polarities.add(value)
    if len(polarities) != 1:
        return None
    value = polarities.pop()
    return ExtractedAnswer(value, ExtractionStatus.EXTRACTED, "polarity_scan", value)


def extraction_prompt(raw: str, qtype: QuestionType, choices: list[str] | tuple[str, ...] | None) -> str:
    """The one-turn request that asks an extractor model to isolate the
    answer in ``raw``: ``MODEL_EXTRACTION_PROMPT`` filled in."""
    options_block = ""
    if choices:
        lines = "\n".join(f"{LETTERS[i]}. {text}" for i, text in enumerate(choices))
        options_block = f"Options:\n{lines}\n"
    return MODEL_EXTRACTION_PROMPT.format(
        question_type=QuestionType(qtype).value, options_block=options_block, response=raw
    )
