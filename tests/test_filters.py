import ast
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from omnieval import (
    EvalItem,
    ExtractionRule,
    ExtractionStatus,
    QuestionType,
    RunConfig,
    StubBackend,
    extract_answer,
    normalize_text,
    run_generation_eval,
)
from omnieval.errors import ConfigError, TransportError
from omnieval.filters import BUILTIN_RULES
from omnieval.runner import model_extract
from oracles import naive_normalize_text

FILTERS_PY = Path(__file__).resolve().parent.parent / "src" / "omnieval" / "filters.py"

CHOICES4 = ["Paris", "Rome", "Berlin", "Madrid"]

VERDICT_RULE = ExtractionRule(name="verdict", pattern=r"(?i:verdict:\s*)\(?([A-Za-z])\)?\b")

# Replies built from segments of a separator, a built-in rule's marker and an
# answer, and from ASCII punctuation. Markers are also spelt with the
# non-ASCII characters that re's IGNORECASE folds onto ASCII letters
# (\u017f onto s, \u0131 and \u0130 onto i, \u212a onto k), and with
# \ufb05, which NFKC turns into "st".
_SEPARATORS = ["", " ", "  ", "\n", "\n ", ". ", "\t", "\x0b", "\x1c"]
_MARKERS = [
    "", "(", " (", "\n (", "The answer is ", "answers are ", "Answer: ", "ANSWER:", "correct option is ",
    "Right answer: ", "final choices are ", "\\boxed{", "Boxed{", "Verdict: ", "the an\u017fwer \u0130s ",
    "an\u017fwer: ", "r\u0131ght answer: ", "f\u0130nal option ", "\\bo\u212aed{", "\ufb05",
]
_ANSWERS = ["A", "b", "A)", "c)", "(C)", "A}", "A, C", "B and D}", "yes", "No", "not true", "Paris", "the rome}"]
MARKER_TEXT = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(_SEPARATORS), st.sampled_from(_MARKERS), st.sampled_from(_ANSWERS)).map("".join),
        st.characters(min_codepoint=0x21, max_codepoint=0x7E).filter(lambda ch: not ch.isalnum()),
    ),
    max_size=6,
).map("".join)


class TestNormalizeText:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  The   Answer. ", "answer"),
            ("", ""),
            ("YES!", "yes"),
            ("42.", "42"),
            ("A fruit.", "fruit"),
            ("the the cat", "cat"),
            ("Ligne dure", "ligne dure"),
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_text(raw) == expected

    @given(st.text(max_size=60))
    def test_idempotent(self, s):
        once = normalize_text(s)
        assert normalize_text(once) == once

    def test_many_leading_articles(self):
        assert normalize_text("the " * 20 + "cat") == "cat"

    def test_many_article_and_punctuation_layers(self):
        assert normalize_text("the ," * 20 + "cat") == "cat"

    @given(st.one_of(st.text(max_size=60), MARKER_TEXT))
    def test_matches_naive_reference(self, s):
        assert normalize_text(s) == naive_normalize_text(s)


class TestExtractCorpus:
    def test_full_corpus(self, extraction_corpus):
        assert len(extraction_corpus) == 60
        for case in extraction_corpus:
            got = extract_answer(
                case["raw"], QuestionType(case["question_type"]), case.get("choices")
            )
            expected = case["expected"]
            if isinstance(expected, list):
                expected = tuple(expected)
            assert got.value == expected, f"{case['id']}: {got}"
            if expected is None:
                assert got.status is ExtractionStatus.UNEXTRACTED
            else:
                assert got.status is ExtractionStatus.EXTRACTED

    def test_corpus_covers_all_question_types(self, extraction_corpus):
        seen = {case["question_type"] for case in extraction_corpus}
        assert seen == {t.value for t in QuestionType}


class TestExtractAnswer:
    def test_clean_letter_identity(self):
        for letter in "ABCD":
            got = extract_answer(letter, QuestionType.SINGLE_CHOICE, CHOICES4)
            assert got.value == letter

    def test_clean_letter_identity_full_range(self):
        choices = [f"option {i}" for i in range(26)]
        for i in range(26):
            letter = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[i]
            got = extract_answer(letter, QuestionType.SINGLE_CHOICE, choices)
            assert got.value == letter

    def test_never_raises_and_deterministic(self):
        weird = ["\x00\x01", "((((", "answer is", "\\boxed{}", "A" * 500, "\n\n\n"]
        for raw in weird:
            first = extract_answer(raw, QuestionType.SINGLE_CHOICE, CHOICES4)
            second = extract_answer(raw, QuestionType.SINGLE_CHOICE, CHOICES4)
            assert first == second

    @given(st.text(max_size=80), st.sampled_from(list(QuestionType)))
    def test_total_over_random_text(self, raw, qtype):
        got = extract_answer(raw, qtype, CHOICES4)
        assert (got.value is None) == (got.status is ExtractionStatus.UNEXTRACTED)

    @given(
        MARKER_TEXT,
        st.sampled_from(list(QuestionType)),
        st.sampled_from([None, CHOICES4[:2], CHOICES4]),
        st.sampled_from([(), (VERDICT_RULE,)]),
    )
    @example("x\n  (B) is it", QuestionType.SINGLE_CHOICE, CHOICES4, ())
    @example("The an\u017fwer is B", QuestionType.SINGLE_CHOICE, CHOICES4, ())
    @example("Answer is B", QuestionType.SINGLE_CHOICE, CHOICES4, ())
    @example("Final option C", QuestionType.SINGLE_CHOICE, CHOICES4, ())
    def test_skipped_scans_change_no_answer(self, raw, qtype, choices, user_rules):
        # built-ins passed as user rules are scanned over the whole reply
        got = extract_answer(raw, qtype, choices, rules=user_rules)
        full = extract_answer(raw, qtype, choices, rules=user_rules + BUILTIN_RULES)
        assert (got.value, got.status, got.rule_name, got.raw_span) == (
            full.value, full.status, full.rule_name, full.raw_span
        )

    def test_user_rule_takes_precedence(self):
        rule = ExtractionRule(
            name="verdict",
            pattern=r"(?i:verdict:\s*)\(?([A-Za-z])\)?\b",
            applicable_types=frozenset({QuestionType.SINGLE_CHOICE}),
        )
        raw = "The answer is C. Verdict: A"
        assert extract_answer(raw, QuestionType.SINGLE_CHOICE, CHOICES4).value == "C"
        got = extract_answer(raw, QuestionType.SINGLE_CHOICE, CHOICES4, rules=(rule,))
        assert got.value == "A"
        assert got.rule_name == "verdict"

    def test_rule_pattern_must_compile(self):
        with pytest.raises(ConfigError):
            ExtractionRule(name="bad", pattern="([unclosed")
        with pytest.raises(ConfigError):
            ExtractionRule(name="bad", pattern="no groups here", capture_group=1)


class TestModelExtract:
    def test_scripted_extractor(self):
        got = model_extract("B", QuestionType.SINGLE_CHOICE, CHOICES4)
        assert got.value == "B"
        assert got.status is ExtractionStatus.MODEL_EXTRACTED

    def test_unextractable_reply_stays_unextracted(self):
        got = model_extract("beats me", QuestionType.SINGLE_CHOICE, CHOICES4)
        assert got.status is ExtractionStatus.UNEXTRACTED

    def test_transport_failure_is_soft(self):
        item = EvalItem(id="q1", instruction="Capital of France?", question_type=QuestionType.SINGLE_CHOICE,
                        choices=tuple(CHOICES4), answer="A")
        extractor = StubBackend(default_reply="B", _failures=[TransportError("down")])
        config = RunConfig(extractor=extractor, max_retries=0)
        (record,) = run_generation_eval([item], StubBackend(default_reply="mumble"), config)
        assert extractor.generate_calls == 1
        assert record.error is None
        assert record.extracted.status is ExtractionStatus.UNEXTRACTED


class TestLayering:
    def test_filters_makes_no_model_call(self):
        # filters is a pure stage: it imports nothing from the package that
        # could reach a backend, and never imports inside a function
        tree = ast.parse(FILTERS_PY.read_text(encoding="utf-8"))
        package_imports = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{node.name} imports inside the function"
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.startswith("omnieval")):
                package_imports.append(node.module.removeprefix("omnieval."))
            if isinstance(node, ast.Import):
                package_imports += [a.name for a in node.names if a.name.startswith("omnieval")]
        assert package_imports == ["errors"]
