import random

import pytest

from omnieval import (
    DatasetManifest,
    RunConfig,
    StubBackend,
    aggregate,
    emit_report,
    load_dataset,
    run_generation_eval,
)
from omnieval.errors import EmptyRun
from omnieval.report import (
    fmt4,
    parse_report_jsonl,
    report_to_csv,
    report_to_jsonl,
    report_to_markdown,
)
from omnieval.runner import RunRecord


def simple_record(i, score, category=None, error=None):
    from omnieval.estimators import QuestionOutcome
    from omnieval.filters import ExtractedAnswer, ExtractionStatus

    if error is not None:
        return RunRecord(item_id=f"r{i}", prompt_digest="d", category=category,
                         ground_truth="A", error=error)
    extracted = ExtractedAnswer("A", ExtractionStatus.EXTRACTED, "test")
    outcome = QuestionOutcome(f"r{i}", "accuracy", score, extracted, "A")
    return RunRecord(
        item_id=f"r{i}", prompt_digest="d", category=category, ground_truth="A",
        response_text="A", extracted=extracted, outcomes=(outcome,),
    )


MANIFEST = DatasetManifest(name="fixture")


class TestAggregate:
    def test_mean(self):
        records = [simple_record(i, s) for i, s in enumerate([1.0, 1.0, 0.0])]
        report = aggregate(records, MANIFEST, model_name="stub")
        accuracy = report.overall[0]
        assert accuracy.name == "accuracy"
        assert accuracy.value == pytest.approx(2 / 3)
        assert accuracy.support == 3
        assert report.item_count == 3 and report.error_count == 0

    def test_all_errored(self):
        records = [simple_record(i, 0.0, error="boom") for i in range(3)]
        report = aggregate(records, MANIFEST)
        assert report.error_count == 3 == report.item_count
        accuracy = report.overall[0]
        # the manifest seeds the metric list, so errored-only runs still report 0.0
        assert accuracy.name == "accuracy"
        assert accuracy.value == 0.0
        assert accuracy.support == 3
        assert report.extraction_failure_rate == 0.0

    def test_errored_items_score_zero(self):
        records = [simple_record(0, 1.0), simple_record(1, 1.0, error="boom")]
        report = aggregate(records, MANIFEST)
        accuracy = report.overall[0]
        assert accuracy.value == pytest.approx(0.5)
        assert accuracy.support == 2
        assert report.error_count == 1

    def test_category_breakdown(self):
        records = [
            simple_record(0, 1.0, category="math"),
            simple_record(1, 0.0, category="math"),
            simple_record(2, 1.0, category="law"),
        ]
        report = aggregate(records, MANIFEST)
        math_values = {v.name: v for v in report.by_category["math"]}
        law_values = {v.name: v for v in report.by_category["law"]}
        assert math_values["accuracy"].value == pytest.approx(0.5)
        assert math_values["accuracy"].support == 2
        assert law_values["accuracy"].value == pytest.approx(1.0)
        assert law_values["accuracy"].support == 1

    def test_interleaved_categories_match_per_category_runs(self):
        rng = random.Random(3)
        categories = ["b", "a", None, "c", "a", "b", None, "b", "c", "a"] * 3
        records = [simple_record(i, rng.random(), category=c) for i, c in enumerate(categories)]
        report = aggregate(records, MANIFEST)
        assert list(report.by_category) == ["a", "b", "c", "uncategorized"]
        for category, values in report.by_category.items():
            group = [r for r in records if (r.category or "uncategorized") == category]
            assert values == aggregate(group, MANIFEST).overall

    def test_uncategorized_bucket(self):
        report = aggregate([simple_record(0, 1.0)], MANIFEST)
        assert "uncategorized" in report.by_category

    def test_category_supports_sum_to_item_count(self):
        records = [
            simple_record(i, 1.0, category=c)
            for i, c in enumerate(["a", "b", None, "a", None])
        ]
        report = aggregate(records, MANIFEST)
        total = sum(v.support for values in report.by_category.values() for v in values)
        assert total == report.item_count

    def test_permutation_invariant(self):
        records = [
            simple_record(i, random.Random(i).random(), category=random.Random(i).choice(["x", "y"]))
            for i in range(20)
        ]
        base = aggregate(records, MANIFEST)
        for seed in range(3):
            shuffled = records[:]
            random.Random(seed).shuffle(shuffled)
            assert aggregate(shuffled, MANIFEST) == base

    def test_empty_run(self):
        with pytest.raises(EmptyRun):
            aggregate([], MANIFEST)

    def test_extraction_failure_rate(self, fixture_dataset_path, fixture_replies):
        manifest, items = load_dataset(fixture_dataset_path)
        records = run_generation_eval(items, StubBackend(scripted=fixture_replies), RunConfig(), manifest)
        report = aggregate(records, manifest, model_name="stub")
        assert report.extraction_failure_rate == pytest.approx(0.1)
        accuracy = {v.name: v for v in report.overall}["accuracy"]
        assert accuracy.value == pytest.approx(0.7)
        by_cat = {c: {v.name: v.value for v in vals} for c, vals in report.by_category.items()}
        assert by_cat["knowledge"]["accuracy"] == pytest.approx(0.6)
        assert by_cat["language"]["accuracy"] == pytest.approx(0.8)


class TestEmission:
    def _report(self):
        records = [simple_record(i, s, category="math") for i, s in enumerate([1.0, 1.0, 0.0])]
        return aggregate(records, MANIFEST, model_name="stub")

    def test_markdown_rounding(self):
        text = report_to_markdown(self._report())
        assert "0.6667" in text
        assert "| category | accuracy |" in text
        assert "| __all__ |" in text

    def test_csv_schema(self):
        lines = report_to_csv(self._report()).splitlines()
        assert lines[0] == "dataset,model,metric,category,value,support"
        assert "fixture,stub,accuracy,__all__,0.6667,3" in lines

    def test_jsonl_round_trip(self):
        report = self._report()
        assert parse_report_jsonl(report_to_jsonl(report)) == report

    def test_formats_agree_on_values(self):
        report = self._report()
        md = report_to_markdown(report)
        csv_text = report_to_csv(report)
        for mv in report.overall:
            assert fmt4(mv.value) in md
            assert fmt4(mv.value) in csv_text

    def test_jsonl_keeps_full_precision(self):
        report = self._report()
        parsed = parse_report_jsonl(report_to_jsonl(report))
        assert parsed.overall[0].value == report.overall[0].value == 2 / 3

    def test_emit_writes_file(self, tmp_path):
        destination = tmp_path / "out.csv"
        emit_report(self._report(), "csv", destination)
        assert destination.read_text(encoding="utf-8").startswith("dataset,model")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self._report(), "xml", tmp_path / "x")

    def test_round_half_even_display(self):
        assert fmt4(2 / 3) == "0.6667"
        assert fmt4(0.5) == "0.5000"
        assert fmt4(0.00005000000000000001) == "0.0001"


class TestCorpusBleuInReports:
    def test_bleu_corpus_row_appears(self):
        import json

        from omnieval import QuestionType
        from omnieval.dataset import EvalItem
        from omnieval.runner import run_generation_eval

        items = [
            EvalItem(id="t1", instruction="say hi", question_type=QuestionType.FREE_OPEN,
                     answer="hello there"),
            EvalItem(id="t2", instruction="say bye", question_type=QuestionType.FREE_OPEN,
                     answer="good bye"),
        ]
        stub = StubBackend(scripted={"t1": "hello there", "t2": "good bye"})
        manifest = DatasetManifest(name="txt", metrics=("accuracy", "bleu"))
        records = run_generation_eval(items, stub, RunConfig(), manifest)
        report = aggregate(records, manifest, model_name="stub")
        names = [v.name for v in report.overall]
        assert "bleu" in names and "bleu_corpus" in names
        values = {v.name: v.value for v in report.overall}
        assert values["bleu"] == pytest.approx(1.0)
        assert values["bleu_corpus"] == pytest.approx(1.0)
