import json
from pathlib import Path

import pytest

from omnieval.cli import main

from conftest import FIXTURE_REPLIES


def make_config(tmp_path, dataset_path, *, replies=None, mode="generate", extra=None):
    config = {
        "mode": mode,
        "dataset": str(dataset_path),
        "output_dir": str(tmp_path / "runs"),
        "cache_dir": str(tmp_path / "cache"),
        "backend": {
            "type": "stub",
            "model_name": "stub",
            "scripted": replies or {},
        },
    }
    if extra:
        config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestValidate:
    def test_valid_dataset(self, fixture_dataset_path, capsys):
        assert main(["validate", "--dataset", str(fixture_dataset_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_dataset(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"id": "x", "answer": "A"}]), encoding="utf-8")
        assert main(["validate", "--dataset", str(bad)]) == 1
        assert "instruction" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--dataset", str(tmp_path / "nope.json")]) == 1


class TestEval:
    def test_end_to_end_with_stub(self, tmp_path, fixture_dataset_path, capsys):
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES)
        code = main(["eval", "--config", str(config)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.7000" in out  # hand-traced accuracy
        run_dir = tmp_path / "runs" / "fixture10" / "stub"
        assert (run_dir / "records.jsonl").exists()
        meta = json.loads((run_dir / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["dataset"] == "fixture10"
        assert meta["error_count"] == 0

    def test_flag_overrides_limit(self, tmp_path, fixture_dataset_path):
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES)
        main(["eval", "--config", str(config), "--limit", "2"])
        records_path = tmp_path / "runs" / "fixture10" / "stub" / "records.jsonl"
        assert len(records_path.read_text(encoding="utf-8").splitlines()) == 2

    def test_shots_and_cot_flags(self, tmp_path):
        dataset = tmp_path / "shots.json"
        dataset.write_text(
            json.dumps(
                [
                    {
                        "id": "s1", "instruction": "echo this back",
                        "question_type": "free_open", "answer": "whatever",
                        "few_shot": [{"instruction": "2+2?", "answer": "4"}],
                    }
                ]
            ),
            encoding="utf-8",
        )
        # no scripted reply: the stub echoes the final user turn, so the
        # rendered prompt itself shows up in the record
        config = make_config(tmp_path, dataset)
        assert main(["eval", "--config", str(config), "--shots", "1", "--cot"]) == 0
        records_path = tmp_path / "runs" / "shots" / "stub" / "records.jsonl"
        record = json.loads(records_path.read_text(encoding="utf-8"))
        assert "Let's think step by step." in record["response_text"]

    def test_item_errors_exit_code(self, tmp_path, capsys):
        dataset = tmp_path / "mini.json"
        dataset.write_text(
            json.dumps(
                {
                    "meta": {"name": "mini"},
                    "data": [
                        {"id": "a", "instruction": "img q", "question_type": "free_open",
                         "answer": "x", "images": ["/missing/file.png"]}
                    ],
                }
            ),
            encoding="utf-8",
        )
        config = make_config(tmp_path, dataset)
        # stub supports images but the backend never sees the file; force http-style
        # failure by pointing at an unreachable server instead
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["backend"] = {"type": "http", "base_url": "http://127.0.0.1:1", "model_name": "m"}
        raw["max_retries"] = 0
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["eval", "--config", str(config)]) == 3
        records_path = tmp_path / "runs" / "mini" / "m" / "records.jsonl"
        record = json.loads(records_path.read_text(encoding="utf-8").splitlines()[0])
        assert record["error"]

    def test_missing_config(self, tmp_path):
        assert main(["eval", "--config", str(tmp_path / "none.json")]) == 1

    def test_dataset_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]", encoding="utf-8")
        config = make_config(tmp_path, bad)
        assert main(["eval", "--config", str(config)]) == 2

    def test_ppl_mode(self, tmp_path, capsys):
        dataset = tmp_path / "ppl.json"
        dataset.write_text(
            json.dumps(
                {
                    "meta": {"name": "pplset"},
                    "data": [
                        {"id": "p1", "instruction": "pick one",
                         "question_type": "single_choice",
                         "choices": ["red", "green"], "answer": "B"}
                    ],
                }
            ),
            encoding="utf-8",
        )
        config = make_config(tmp_path, dataset, mode="ppl")
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["backend"]["logprob_table"] = {" red": [-4.0, 1], " green": [-2.0, 1]}
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["eval", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "accuracy_norm" in out
        assert "1.0000" in out


class TestConfigExtras:
    def test_extraction_rules_from_config(self, tmp_path):
        from omnieval.cli import build_run_config

        config = build_run_config(
            {
                "extraction_rules": [
                    {
                        "name": "verdict",
                        "pattern": r"(?i:verdict:\s*)\(?([A-Za-z])\)?\b",
                        "capture_group": 1,
                        "applicable_types": ["single_choice"],
                    }
                ]
            }
        )
        assert config.extraction_rules[0].name == "verdict"
        from omnieval import QuestionType, extract_answer

        got = extract_answer(
            "The answer is C. Verdict: A",
            QuestionType.SINGLE_CHOICE,
            ["w", "x", "y", "z"],
            rules=config.extraction_rules,
        )
        assert got.value == "A"

    def test_unknown_backend_type(self):
        from omnieval.cli import build_backend
        from omnieval.errors import ConfigError

        with pytest.raises(ConfigError):
            build_backend({"type": "carrier-pigeon"})


class TestScore:
    def test_rescore_without_backend(self, tmp_path, fixture_dataset_path, capsys):
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES)
        main(["eval", "--config", str(config)])
        capsys.readouterr()
        records = tmp_path / "runs" / "fixture10" / "stub" / "records.jsonl"
        out_path = tmp_path / "rescored.jsonl"
        code = main(
            [
                "score",
                "--records", str(records),
                "--dataset", str(fixture_dataset_path),
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert "0.7000" in capsys.readouterr().out
        assert out_path.read_text(encoding="utf-8") == records.read_text(encoding="utf-8")

    def test_rescore_keeps_model_extracted_answer(self, tmp_path, capsys):
        dataset = tmp_path / "two.json"
        dataset.write_text(json.dumps({
            "meta": {"name": "two", "metrics": ["accuracy"]},
            "data": [
                {"id": "x1", "instruction": "Capital of Italy?", "choices": ["Paris", "Rome"],
                 "answer": "B", "question_type": "single_choice"},
                {"id": "x2", "instruction": "Capital of Italy, again?", "choices": ["Paris", "Rome"],
                 "answer": "B", "question_type": "single_choice"},
            ],
        }), encoding="utf-8")
        config = make_config(
            tmp_path, dataset,
            replies={"x1": "The answer is B.", "x2": "the second one, obviously"},
            extra={"extractor": {"type": "stub", "model_name": "extractor", "default_reply": "B"}},
        )
        assert main(["eval", "--config", str(config)]) == 0
        assert "| __all__ | 1.0000 |" in capsys.readouterr().out
        records = tmp_path / "runs" / "two" / "stub" / "records.jsonl"
        out_path = tmp_path / "rescored.jsonl"
        code = main(["score", "--records", str(records), "--dataset", str(dataset),
                     "--out", str(out_path)])
        assert code == 0
        assert "| __all__ | 1.0000 |" in capsys.readouterr().out
        assert out_path.read_text(encoding="utf-8") == records.read_text(encoding="utf-8")


class TestReportCommand:
    def _run(self, tmp_path, fixture_dataset_path):
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES)
        main(["eval", "--config", str(config)])
        return tmp_path / "runs"

    def test_markdown(self, tmp_path, fixture_dataset_path, capsys):
        runs = self._run(tmp_path, fixture_dataset_path)
        capsys.readouterr()
        assert main(["report", "--runs", str(runs), "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert "fixture10 / stub" in out
        assert "0.7000" in out

    def test_csv_to_file(self, tmp_path, fixture_dataset_path):
        runs = self._run(tmp_path, fixture_dataset_path)
        out_path = tmp_path / "report.csv"
        assert main(["report", "--runs", str(runs), "--format", "csv", "--out", str(out_path)]) == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "dataset,model,metric,category,value,support"
        assert any(line.startswith("fixture10,stub,accuracy,__all__,0.7000,10") for line in lines)

    def test_jsonl(self, tmp_path, fixture_dataset_path, capsys):
        runs = self._run(tmp_path, fixture_dataset_path)
        capsys.readouterr()
        assert main(["report", "--runs", str(runs), "--format", "jsonl"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines[0]["type"] == "summary"
        assert lines[0]["extraction_failure_rate"] == pytest.approx(0.1)

    def test_empty_runs_dir(self, tmp_path):
        assert main(["report", "--runs", str(tmp_path)]) == 1

    def test_usage_error(self):
        assert main(["report"]) == 1
