"""The value types: immutable NamedTuples that check what they hold when they are
built, by their constructor or by ``_replace``; and the cost of importing them."""

import subprocess
import sys
from pathlib import Path

import pytest

from omnieval import (
    DatasetManifest,
    EvalItem,
    ExtractedAnswer,
    ExtractionRule,
    ExtractionStatus,
    FewShotExemplar,
    GenerationOptions,
    LoglikelihoodResult,
    MetricReport,
    MetricValue,
    ModelResponse,
    PromptBundle,
    PromptTemplate,
    QuestionType,
    RunConfig,
    RunRecord,
    Turn,
)
from omnieval.errors import ConfigError, SchemaError
from omnieval.estimators import METRIC_REGISTRY

SRC = Path(__file__).parent.parent / "src"

# each type: one value of it, and a field with a value its constructor refuses (None
# when it checks nothing), with the error and words of that refusal
VALUES = {
    "FewShotExemplar": (FewShotExemplar("Q?", "A", ("x", "y")), None),
    "EvalItem": (EvalItem("q1", "Q?", QuestionType.FREE_OPEN, "a"), None),
    "Turn": (Turn("user", "hi"), None),
    "PromptBundle": (PromptBundle(None, (Turn("user", "hi"),)),
                     ("turns", (Turn("assistant", "hi"),), ConfigError, "a prompt bundle must end with a user turn")),
    "ModelResponse": (ModelResponse("hi"), None),
    "LoglikelihoodResult": (LoglikelihoodResult(-1.0, 1, 2),
                            ("token_count", 0, ValueError, "token_count must be >= 1")),
    "ExtractedAnswer": (ExtractedAnswer("A", ExtractionStatus.EXTRACTED),
                        ("value", None, ValueError, "value must be absent exactly when status is unextracted")),
    "RunRecord": (RunRecord("q1", "d"), None),
    "MetricValue": (MetricValue("accuracy", 1.0, 1),
                    ("support", 0, ValueError, "a metric value needs at least one supporting item")),
    "MetricReport": (MetricReport("d", "m", (), {}, 0.0, 1, 0), None),
    "MetricSpec": (METRIC_REGISTRY["accuracy"], None),
    "RunConfig": (RunConfig(), ("mode", "greedy", ConfigError, "mode must be 'generate' or 'ppl', got 'greedy'")),
    "GenerationOptions": (GenerationOptions(),
                          ("max_new_tokens", True, ConfigError, "max_new_tokens must be an integer >= 1, got True")),
    "PromptTemplate": (PromptTemplate(), ("answer_prefix", 5, ConfigError, "answer_prefix must be a string, got 5")),
    "ExtractionRule": (ExtractionRule("r", r"Answer: (\w)"),
                       ("capture_group", 2, ConfigError, "capture group 2 not in pattern")),
    "DatasetManifest": (DatasetManifest("d"),
                        ("metrics", ["nope"], SchemaError, "bad field: metrics: unknown metric 'nope'")),
}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every omnieval process pays for the modules that its first import loads
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import omnieval.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("name", list(VALUES))
def test_value_is_immutable_and_replace_checks_like_the_constructor(name):
    value, refused = VALUES[name]
    assert type(value).__name__ == name
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    if name in ("FewShotExemplar", "PromptTemplate"):  # they key render_prompt's memo
        assert hash(value) == hash(type(value)(*value))
    if refused is not None:
        field, bad, error, words = refused
        with pytest.raises(error) as built:
            type(value)(**{**value._asdict(), field: bad})
        with pytest.raises(error) as replaced:
            value._replace(**{field: bad})
        assert str(replaced.value) == str(built.value)
        assert str(built.value).startswith(words)


def test_replace_coerces_like_the_constructor():
    assert RunConfig()._replace(default_metrics=["bleu"], default_question_type="yes_no")[-2:] == (
        QuestionType.YES_NO, ("bleu",))
    assert GenerationOptions()._replace(stop_sequences=["\n"]).stop_sequences == ("\n",)
    rule = ExtractionRule("r", r"Answer: (\w)")._replace(pattern=r"Verdict: (\w)", applicable_types=["yes_no"])
    assert rule.applicable_types == frozenset({QuestionType.YES_NO})
    assert rule.compiled.pattern == r"Verdict: (\w)"
