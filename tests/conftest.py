import json
from pathlib import Path

import pytest
from hypothesis import settings

# CI runs the properties with --hypothesis-profile=ci: more examples, and the
# same examples on every run and Python version.
settings.register_profile("ci", max_examples=1000, derandomize=True, deadline=None)

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "goldens"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def extraction_corpus():
    return json.loads((DATA_DIR / "extraction_corpus.json").read_text(encoding="utf-8"))


@pytest.fixture
def fixture_dataset_path() -> Path:
    return DATA_DIR / "fixture_dataset.json"


# Scripted stub replies for the 10-item fixture dataset; the hand-traced
# accuracy over these is 7/10 with one extraction failure (q03).
FIXTURE_REPLIES = {
    "q01": "The answer is A.",
    "q02": "B",
    "q03": "nonsense reply with no usable content",
    "q04": "Answer: A, B",
    "q05": "The answers are B and C.",
    "q06": "Yes, definitely.",
    "q07": "The answer is no.",
    "q08": "The answer is the Pacific Ocean.",
    "q09": "I computed 41.",
    "q10": "Paris is the capital of France.",
}


@pytest.fixture
def fixture_replies():
    return dict(FIXTURE_REPLIES)
