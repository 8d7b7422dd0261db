import json
import os
import re
from pathlib import Path

import pytest

from omnieval import (
    ExtractionRule,
    GenerationOptions,
    PromptTemplate,
    RunConfig,
    StubBackend,
    load_dataset,
    run_generation_eval,
)
from omnieval.cli import _BACKENDS, _config_keys, main
from omnieval.errors import BackendRefused
from omnieval.estimators import METRIC_REGISTRY
from omnieval.runner import records_to_jsonl

from conftest import FIXTURE_REPLIES

# one single-choice item with an image path that does not exist
IMAGE_DATASET = str(Path(__file__).parent / "data" / "image_dataset.json")


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

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_refused(self, tmp_path, fixture_dataset_path, capsys, limit):
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES)
        assert main(["eval", "--config", str(config), "--limit", limit]) == 1
        assert "limit must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_config_value_of_wrong_type(self, tmp_path, fixture_dataset_path, capsys):
        config = make_config(tmp_path, fixture_dataset_path, extra={"limit": "5"})
        assert main(["eval", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "config error: config: limit must be an integer, got '5'\n"
        assert not (tmp_path / "runs").exists()

    # (config keys to set, the words the one error line must hold: the field's
    # name, not the interpreter's wording, which differs between versions)
    CONFIG_ERRORS = {
        "max_new_tokens_string": ({"generation": {"max_new_tokens": "64"}}, "max_new_tokens"),
        "rule_without_name": ({"extraction_rules": [{"pattern": "(x)"}]}, "name"),
        "backend_not_an_object": ({"backend": "stub"}, "backend"),
        # temperature alone picks the decoding; the old default mode is refused like any unknown key
        "decoding_mode": ({"generation": {"decoding_mode": "greedy"}}, "decoding_mode"),
        "bad_default_question_type": ({"default_question_type": "nope"}, "default_question_type"),
        "bad_applicable_type": (
            {"extraction_rules": [{"name": "r", "pattern": "(x)", "applicable_types": ["nope"]}]},
            "applicable_types",
        ),
        "scripted_string": ({"backend": {"type": "stub", "scripted": "x"}}, "scripted"),
        "misspelled_key": ({"concurency_limit": 1}, "concurency_limit"),
        "misspelled_generation_key": ({"generation": {"max_tokens": 8}}, "max_tokens"),
        "default_metrics_string": ({"default_metrics": "accuracy"}, "default_metrics must be a list"),
        "timeout_string": (
            {"backend": {"type": "http", "base_url": "http://127.0.0.1:1", "model_name": "m", "timeout_s": "5"}},
            "timeout_s",
        ),
        "unknown_backend_key": ({"backend": {"type": "stub", "model": "m"}}, "model"),
        "extractor_cannot_generate": (
            {"extractor": {"type": "stub", "supports_generation": False}}, "extractor"
        ),
        "base_url_without_scheme": (
            {"backend": {"type": "http", "base_url": "localhost:8000", "model_name": "m"}}, "base_url"
        ),
        "base_url_port_out_of_range": (
            {"backend": {"type": "http", "base_url": "http://127.0.0.1:99999", "model_name": "m"}}, "base_url"
        ),
        "api_key_env_number": (
            {"backend": {"type": "http", "base_url": "http://127.0.0.1:1", "model_name": "m", "api_key_env": 5}},
            "api_key_env",
        ),
        "default_reply_number": ({"backend": {"type": "stub", "default_reply": 5}}, "default_reply"),
        "scripted_reply_number": ({"backend": {"type": "stub", "scripted": {"a": 5}}}, "scripted"),
        "char_logprob_string": ({"backend": {"type": "stub", "char_logprob": "x"}}, "char_logprob"),
        "logprob_table_entry_string": ({"backend": {"type": "stub", "logprob_table": {" A": "x"}}}, "logprob_table"),
        "images_on_a_backend_without_images": (
            {"dataset": IMAGE_DATASET, "backend": {"type": "http", "base_url": "http://127.0.0.1:1", "model_name": "m"}},
            "images",
        ),
        "images_in_ppl_mode": ({"dataset": IMAGE_DATASET, "mode": "ppl"}, "images"),
        "base_url_path_with_space": (
            {"backend": {"type": "http", "base_url": "http://127.0.0.1:1/v1 beta", "model_name": "m"}}, "base_url"
        ),
        "base_url_query_with_control_character": (
            {"backend": {"type": "http", "base_url": "http://127.0.0.1:1/v1?k=\x01", "model_name": "m"}}, "base_url"
        ),
        "model_name_number": ({"backend": {"type": "stub", "model_name": 5}}, "model_name"),
        "http_model_name_number": (
            {"backend": {"type": "http", "base_url": "http://127.0.0.1:1", "model_name": 5}}, "model_name"
        ),
        # q06, the first item past the choice questions, is yes_no and has no choices
        "ppl_on_the_whole_fixture": ({"mode": "ppl"}, "q06"),
        # a choice line that fails to render every choice, or hides its letter
        "choice_line_with_unknown_field": ({"template": {"choice_line_format": "{letter}. {text} {x}"}},
                                           "choice_line_format"),
        "choice_line_with_positional_field": ({"template": {"choice_line_format": "{letter}. {text} {0}"}},
                                              "choice_line_format"),
        "choice_line_with_escaped_letter": ({"template": {"choice_line_format": "{{letter}}. {text}"}},
                                            "choice_line_format"),
        "backend_type_list": ({"backend": {"type": ["stub"]}}, "backend"),
        # a constructor parameter starting with "_" is a test seam, no config key
        "seam_is_no_key": ({"backend": {"type": "stub", "_failures": []}}, "_failures"),
        # a capability flag is true or false, never a value that reads like one
        "supports_loglikelihood_number": ({"backend": {"type": "stub", "supports_loglikelihood": 0}},
                                          "supports_loglikelihood"),
        "supports_images_null": ({"extractor": {"type": "stub", "supports_images": None}}, "supports_images"),
        "extraction_rules_object": ({"extraction_rules": {"name": "x"}}, "extraction_rules"),
        "output_dir_unset": ({"output_dir": None}, "output_dir"),
        "dataset_number": ({"dataset": 5}, "dataset"),
        "seed_fraction": ({"generation": {"seed": 1.5}}, "seed"),
        "stop_sequences_string": ({"generation": {"stop_sequences": "END"}}, "stop_sequences"),
        "cache_dir_number": ({"cache_dir": 5}, "cache_dir"),
    }

    @pytest.mark.parametrize("extra,named", list(CONFIG_ERRORS.values()), ids=list(CONFIG_ERRORS))
    def test_config_error_is_one_line(self, tmp_path, fixture_dataset_path, capsys, extra, named):
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES, extra=extra)
        assert main(["eval", "--config", str(config)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error:")
        assert re.search(rf"\b{named}\b", lines[0]), lines[0]
        assert not (tmp_path / "runs").exists()

    # a bad value is named by the section it came in: a backend's and an extractor's differ
    @pytest.mark.parametrize("extra,line", [
        ({"backend": {"type": "http", "base_url": "localhost:8000", "model_name": "m"}},
         "backend: base_url must be an http:// or https:// URL with a host, got 'localhost:8000'"),
        ({"extractor": {"type": "http", "base_url": "localhost:8000", "model_name": "m"}},
         "extractor: base_url must be an http:// or https:// URL with a host, got 'localhost:8000'"),
        ({"generation": {"temperature": -1}}, "generation: temperature must be a number >= 0, got -1"),
        ({"extraction_rules": [{"name": "r", "pattern": "(x)", "capture_group": 5}]},
         "extraction_rules[0]: capture group 5 not in pattern"),
        ({"backend": {"type": "stub", "supports_generation": "false"}},
         "backend: supports_generation must be true or false, got 'false'"),
        ({"extraction_rules": {"name": "x"}}, "extraction_rules: must be a list of objects, got {'name': 'x'}"),
        ({"output_dir": None}, "config: output_dir must be set (config file or --output)"),
        ({"dataset": 5}, "config: dataset must be a path (config file or --dataset), got 5"),
    ], ids=["backend_base_url", "extractor_base_url", "generation_temperature", "rule_capture_group",
            "backend_flag", "rules_object", "output_dir_unset", "dataset_number"])
    def test_bad_value_is_named_by_its_section(self, tmp_path, fixture_dataset_path, capsys, extra, line):
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES, extra=extra)
        assert main(["eval", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not (tmp_path / "runs").exists() and not (tmp_path / "cache").exists()

    def test_template_field_of_wrong_type(self, tmp_path, fixture_dataset_path, capsys):
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES,
                             extra={"template": {"answer_prefix": 5}})
        assert main(["eval", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "config error: template: answer_prefix must be a string, got 5\n"
        assert not (tmp_path / "runs").exists() and not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("extra,where", [
        ({"template": {"bogus": 1}}, "template"),
        ({"extraction_rules": [{"name": "r", "pattern": "(x)", "bogus": 1}]}, "extraction_rules[0]"),
        ({"generation": {"bogus": 1}}, "generation"),
        ({"bogus": 1}, "config"),
        ({"backend": {"type": "stub", "bogus": 1}}, "backend"),
        ({"extractor": {"type": "http", "base_url": "http://127.0.0.1:1", "model_name": "x", "bogus": 1}},
         "extractor"),
    ], ids=["template", "extraction_rule", "generation", "top_level", "backend", "extractor"])
    def test_unknown_key_is_named_in_one_wording(self, tmp_path, fixture_dataset_path, capsys, extra, where):
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES, extra=extra)
        assert main(["eval", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"config error: {where}: unknown key 'bogus'\n"
        assert not (tmp_path / "runs").exists() and not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("extra,where,key", [
        ({"extraction_rules": [{"pattern": "(x)"}]}, "extraction_rules[0]", "name"),
        ({"extraction_rules": [{"name": "r"}]}, "extraction_rules[0]", "pattern"),
        ({"extraction_rules": [{}]}, "extraction_rules[0]", "name"),
        ({"backend": {"type": "http", "model_name": "m"}}, "backend", "base_url"),
        ({"extractor": {"type": "http", "base_url": "http://127.0.0.1:1"}}, "extractor", "model_name"),
    ], ids=["no_name", "no_pattern", "empty", "http_backend_without_base_url", "extractor_without_model_name"])
    def test_missing_key_is_named_in_one_wording(self, tmp_path, fixture_dataset_path, capsys, extra, where, key):
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES, extra=extra)
        assert main(["eval", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"config error: {where}: missing key {key!r}\n"
        assert not (tmp_path / "runs").exists() and not (tmp_path / "cache").exists()

    def test_backend_flags_set_base_url_and_model_name(self, tmp_path, fixture_dataset_path, capsys):
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES)
        # a stub backend takes no base_url
        assert main(["eval", "--config", str(config), "--backend", "http://127.0.0.1:1"]) == 1
        assert capsys.readouterr().err == "config error: backend: unknown key 'base_url'\n"
        assert not (tmp_path / "runs").exists()
        http = make_config(tmp_path, fixture_dataset_path,
                           extra={"backend": {"type": "http", "base_url": "http://127.0.0.1:1", "model_name": "m"}})
        assert main(["eval", "--config", str(http), "--backend", "localhost:8000"]) == 1
        assert capsys.readouterr().err == ("config error: backend: base_url must be an http:// or https:// URL "
                                           "with a host, got 'localhost:8000'\n")
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES)
        assert main(["eval", "--config", str(config), "--model", "renamed"]) == 0
        assert [p.name for p in (tmp_path / "runs" / "fixture10").iterdir()] == ["renamed"]
        meta = json.loads((tmp_path / "runs" / "fixture10" / "renamed" / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["model"] == "renamed"

    def test_bad_default_question_type_in_meta(self, tmp_path, fixture_dataset_path, capsys):
        dataset = json.loads(fixture_dataset_path.read_text(encoding="utf-8"))
        dataset["meta"]["default_question_type"] = "nope"
        dataset_path = tmp_path / "fixture.json"
        dataset_path.write_text(json.dumps(dataset), encoding="utf-8")
        config = make_config(tmp_path, dataset_path, replies=FIXTURE_REPLIES)
        assert main(["eval", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "dataset error: meta: bad field: default_question_type: 'nope'\n"
        assert not (tmp_path / "runs").exists()
        assert main(["validate", "--dataset", str(dataset_path)]) == 1
        assert capsys.readouterr().out == "INVALID: meta: bad field: default_question_type: 'nope'\n"

    @pytest.mark.parametrize("part,field", [
        ("record", "few_shot"), ("record", "category"), ("record", "cot_directive"), ("record", "language"),
        ("record", "domain"), ("record", "modality"),
        ("meta", "few_shot"), ("meta", "language"), ("meta", "domain"), ("meta", "modality"),
        ("meta", "name"),
    ])
    def test_dataset_field_of_wrong_type(self, tmp_path, fixture_dataset_path, capsys, part, field):
        dataset = json.loads(fixture_dataset_path.read_text(encoding="utf-8"))
        (dataset["data"][0] if part == "record" else dataset["meta"])[field] = 5
        dataset_path = tmp_path / "fixture.json"
        dataset_path.write_text(json.dumps(dataset), encoding="utf-8")
        config = make_config(tmp_path, dataset_path, replies=FIXTURE_REPLIES)
        assert main(["eval", "--config", str(config)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert re.match(rf"dataset error: .*bad field: (meta\.)?{field}: must be .*, got 5$", lines[0]), lines[0]
        assert not (tmp_path / "runs").exists()
        assert main(["validate", "--dataset", str(dataset_path)]) == 1
        assert capsys.readouterr().out == f"INVALID: {lines[0].removeprefix('dataset error: ')}\n"

    def test_ppl_limit_applies_before_choices_check(self, tmp_path, fixture_dataset_path):
        # q01-q05 have choices, q06 onwards do not
        config = make_config(tmp_path, fixture_dataset_path, mode="ppl")
        assert main(["eval", "--config", str(config), "--limit", "5"]) == 0
        records_path = tmp_path / "runs" / "fixture10" / "stub" / "records.jsonl"
        lines = records_path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["item_id"] for line in lines] == ["q01", "q02", "q03", "q04", "q05"]

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
        # failure by pointing at an unreachable server instead (one that takes
        # images: a backend that does not is refused before any item runs)
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["backend"] = {"type": "http", "base_url": "http://127.0.0.1:1", "model_name": "m",
                          "supports_images": True}
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

    def test_every_documented_key_is_accepted(self, tmp_path, fixture_dataset_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Config file\n", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for part in section.split("\n### ")[1:]:
            heading, _, body = part.partition("\n")
            documented[heading] = sorted(re.findall(r"^\| `(\w+)` \|", body, re.M))

        http = {"type": "http", "base_url": "http://127.0.0.1:1", "model_name": "extractor",
                "api_key_env": "OMNIEVAL_TEST_KEY", "timeout_s": 5, "supports_generation": True,
                "supports_loglikelihood": False, "supports_images": False}
        stub = {"type": "stub", "scripted": FIXTURE_REPLIES, "default_reply": "A",
                "logprob_table": {" Paris": [-1.0, 1]}, "char_logprob": -0.5, "model_name": "stub",
                "supports_generation": True, "supports_loglikelihood": True, "supports_images": False}
        generation = {"temperature": 0.5, "max_new_tokens": 64, "stop_sequences": ["\n\n"], "seed": 7}
        template = {"system_text": "Be brief.", "question_prefix": "Q: ", "choice_line_format": "({letter}) {text}",
                    "answer_prefix": "A:", "exemplar_separator": "\n", "cot_suffix": "Think."}
        rule = {"name": "verdict", "pattern": r"Verdict: ([A-D])", "capture_group": 1,
                "applicable_types": ["single_choice"]}
        config = {
            "backend": stub, "dataset": str(fixture_dataset_path), "mode": "generate", "num_shots": 0,
            "use_cot": True, "concurrency_limit": 2, "max_retries": 0, "backoff_base_ms": 10,
            # one item, whose reply the regex bank extracts: the extractor is never called
            "limit": 1, "cache_dir": str(tmp_path / "cache"), "output_dir": str(tmp_path / "runs"),
            "generation": generation, "template": template, "extraction_rules": [rule],
            "extractor": http, "default_question_type": "single_choice", "default_metrics": ["bleu"],
        }
        objects = {
            "Top level": config,
            "`generation`": generation,
            "`template`": template,
            "`extraction_rules[]`": rule,
            "`backend` and `extractor` of type `http`": http,
            "`backend` and `extractor` of type `stub`": stub,
        }
        assert documented == {heading: sorted(obj) for heading, obj in objects.items()}
        # and the decoder takes no key that the README leaves out
        declared = [set(RunConfig._fields) | {"backend", "dataset"},
                    set(GenerationOptions._fields), set(PromptTemplate._fields),
                    set(ExtractionRule._fields), _config_keys(_BACKENDS["http"])[0] | {"type"},
                    _config_keys(_BACKENDS["stub"])[0] | {"type"}]
        assert [set(keys) for keys in documented.values()] == declared

        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["eval", "--config", str(path)]) == 0
        assert (tmp_path / "runs" / "fixture10" / "stub" / "records.jsonl").exists()

    def test_unknown_backend_type(self):
        from omnieval.cli import build_backend
        from omnieval.errors import ConfigError

        with pytest.raises(ConfigError):
            build_backend({"type": "carrier-pigeon"})


class TestScore:
    @pytest.mark.parametrize("metrics", [["accuracy"], list(METRIC_REGISTRY)], ids=["accuracy", "all"])
    def test_rescore_without_backend(self, tmp_path, fixture_dataset_path, capsys, metrics):
        dataset = json.loads(fixture_dataset_path.read_text(encoding="utf-8"))
        dataset["meta"]["metrics"] = metrics
        dataset_path = tmp_path / "fixture.json"
        dataset_path.write_text(json.dumps(dataset), encoding="utf-8")
        config = make_config(tmp_path, dataset_path, replies=FIXTURE_REPLIES)
        main(["eval", "--config", str(config)])
        capsys.readouterr()
        records = tmp_path / "runs" / "fixture10" / "stub" / "records.jsonl"
        out_path = tmp_path / "rescored.jsonl"
        code = main(
            [
                "score",
                "--records", str(records),
                "--dataset", str(dataset_path),
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert "0.7000" in capsys.readouterr().out
        assert out_path.read_text(encoding="utf-8") == records.read_text(encoding="utf-8")

    def test_rescore_response_with_line_separators(self, tmp_path, fixture_dataset_path):
        # U+2028 and U+0085 stay raw in records.jsonl; str.splitlines would split there
        replies = {**FIXTURE_REPLIES, "q10": "Paris is\u2028the capital\u0085of France."}
        config = make_config(tmp_path, fixture_dataset_path, replies=replies)
        assert main(["eval", "--config", str(config)]) == 0
        records = tmp_path / "runs" / "fixture10" / "stub" / "records.jsonl"
        out_path = tmp_path / "rescored.jsonl"
        assert main(["score", "--records", str(records), "--dataset", str(fixture_dataset_path),
                     "--out", str(out_path)]) == 0
        assert out_path.read_bytes() == records.read_bytes()

    @pytest.mark.parametrize(
        "mode,damage,message",
        [
            ("generate", lambda text: text[:-20], "line 10: not a record: Unterminated string"),
            ("generate", lambda text: text + "[1, 2]\n", "line 11: not a record: expected a JSON object"),
            ("generate", lambda text: text + '{"prompt_digest": "d"}\n',
             "line 11: not a record: expected a JSON object"),
            ("generate", lambda text: text.replace('"status":"extracted"', '"status":"bogus"', 1),
             "line 1: not a record: extracted.status must be one of extracted, model_extracted, unextracted, "
             "got 'bogus'"),
            ("generate", lambda text: "\udcff" + text, "line 1: not a record: 'utf-8' codec can't decode"),
            ("ppl", lambda text: re.sub(r'"total_logprob":[^,}]+', '"total_logprob":"x"', text, count=1),
             "line 1: not a record: choice_logprobs[0].total_logprob must be a finite number, got 'x'"),
        ],
        ids=["truncated", "not_an_object", "no_item_id", "bad_status", "not_utf8", "bad_choice_logprob"],
    )
    def test_unreadable_records(self, tmp_path, fixture_dataset_path, capsys, mode, damage, message):
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES, mode=mode)
        main(["eval", "--config", str(config)] + (["--limit", "5"] if mode == "ppl" else []))
        records = tmp_path / "runs" / "fixture10" / "stub" / "records.jsonl"
        damaged = damage(records.read_text(encoding="utf-8"))
        records.write_bytes(damaged.encode("utf-8", errors="surrogateescape"))
        capsys.readouterr()
        code = main(["score", "--records", str(records), "--dataset", str(fixture_dataset_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{records}, {message}" in err

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

    def test_errored_and_unmatched_records_are_kept_as_they_are(self, tmp_path, fixture_dataset_path, caplog):
        manifest, items = load_dataset(fixture_dataset_path)
        stub = StubBackend(scripted=FIXTURE_REPLIES, _failures=[BackendRefused("refused")])
        records = run_generation_eval(items, stub, RunConfig(concurrency_limit=1), manifest)
        assert records[0].error == "BackendRefused: refused"
        # a record of an item that the dataset no longer holds
        orphan = records[0]._replace(item_id="gone", response_text="The answer is A.", error=None)
        path = tmp_path / "records.jsonl"
        path.write_text(records_to_jsonl(records + [orphan]), encoding="utf-8")
        out_path = tmp_path / "rescored.jsonl"
        code = main(["score", "--records", str(path), "--dataset", str(fixture_dataset_path),
                     "--out", str(out_path)])
        assert code == 3  # the errored record is still an error
        assert out_path.read_bytes() == path.read_bytes()
        assert "record gone has no matching dataset item; kept as-is" in caplog.text

    def test_ppl_records_pass_through_unchanged(self, tmp_path, fixture_dataset_path):
        # rebuilt from their stored choice_logprobs, against an unchanged dataset
        config = make_config(tmp_path, fixture_dataset_path, mode="ppl")
        assert main(["eval", "--config", str(config), "--limit", "5"]) == 0
        records = tmp_path / "runs" / "fixture10" / "stub" / "records.jsonl"
        out_path = tmp_path / "rescored.jsonl"
        assert main(["score", "--records", str(records), "--dataset", str(fixture_dataset_path),
                     "--out", str(out_path)]) == 0
        assert out_path.read_bytes() == records.read_bytes()

    def test_ppl_records_follow_a_corrected_answer_key(self, tmp_path, fixture_dataset_path, capsys):
        config = make_config(tmp_path, fixture_dataset_path, mode="ppl")
        assert main(["eval", "--config", str(config), "--limit", "5"]) == 0
        records = tmp_path / "runs" / "fixture10" / "stub" / "records.jsonl"
        stored = records.read_text(encoding="utf-8").splitlines()
        q01 = json.loads(stored[0])
        assert (q01["item_id"], q01["ground_truth"], q01["extracted"]["value"]) == ("q01", "A", "B")
        dataset = json.loads(fixture_dataset_path.read_text(encoding="utf-8"))
        dataset["data"][0]["answer"] = "B"
        corrected = tmp_path / "corrected.json"
        corrected.write_text(json.dumps(dataset), encoding="utf-8")
        out_path = tmp_path / "rescored.jsonl"
        capsys.readouterr()
        assert main(["score", "--records", str(records), "--dataset", str(corrected),
                     "--out", str(out_path)]) == 0
        rescored = out_path.read_text(encoding="utf-8").splitlines()
        q01_after = json.loads(rescored[0])
        assert q01_after["ground_truth"] == "B"
        assert q01_after["outcomes"][0] == {"metric": "accuracy", "score": 1.0}
        assert q01_after["choice_logprobs"] == q01["choice_logprobs"]
        assert rescored[1:] == stored[1:]
        assert "| __all__ | 0.2000 |" in capsys.readouterr().out  # was 0: q01 is right now, of five

    def test_ppl_records_that_ppl_mode_cannot_score_are_kept(self, tmp_path, fixture_dataset_path, caplog):
        config = make_config(tmp_path, fixture_dataset_path, mode="ppl")
        assert main(["eval", "--config", str(config), "--limit", "5"]) == 0
        records = tmp_path / "runs" / "fixture10" / "stub" / "records.jsonl"
        stored = records.read_text(encoding="utf-8").splitlines()
        dataset = json.loads(fixture_dataset_path.read_text(encoding="utf-8"))
        q01, q02 = dataset["data"][:2]
        q01.update(question_type="yes_no", answer="yes")
        del q01["choices"]
        q02.update(choices=q02["choices"][:1], answer="A")
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(dataset), encoding="utf-8")
        out_path = tmp_path / "rescored.jsonl"
        caplog.clear()
        assert main(["score", "--records", str(records), "--dataset", str(changed),
                     "--out", str(out_path)]) == 0
        assert out_path.read_text(encoding="utf-8").splitlines() == stored
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [
            "record q01 kept as-is: ppl mode requires choices on every item; 'q01' has none",
            "record q02 kept as-is: 'q02' has 1 choices, the record 3 choice_logprobs",
        ]
        # eval refuses the same dataset
        assert main(["eval", "--config", str(config), "--dataset", str(changed), "--limit", "5"]) == 1

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

    @pytest.mark.parametrize("damage,message", [
        (lambda meta: "{not json", "not JSON"),
        (lambda meta: json.dumps({**meta, "metrics": "accuracy"}),
         "bad field: metrics: must be a list of metric names, got 'accuracy'"),
        (lambda meta: json.dumps({**meta, "metrics": ["nope"]}), "bad field: metrics: unknown metric 'nope' ("),
        (lambda meta: json.dumps({**meta, "dataset": 5}), "dataset must be a string, got 5\n"),
        (lambda meta: json.dumps({**meta, "dataset": None}), "dataset must be a string, got None\n"),
        (lambda meta: json.dumps({**meta, "model": ["m"]}), "model must be a string, got ['m']\n"),
    ], ids=["not_json", "metrics_not_a_list", "unknown_metric", "dataset_number", "dataset_null", "model_list"])
    def test_unreadable_run_meta(self, tmp_path, fixture_dataset_path, capsys, damage, message):
        runs = self._run(tmp_path, fixture_dataset_path)
        meta_path = runs / "fixture10" / "stub" / "run_meta.json"
        meta_path.write_text(damage(json.loads(meta_path.read_text(encoding="utf-8"))), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--runs", str(runs)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"dataset error: {meta_path}: {message}")

    def test_run_meta_not_an_object(self, tmp_path, fixture_dataset_path, capsys):
        runs = self._run(tmp_path, fixture_dataset_path)
        meta_path = runs / "fixture10" / "stub" / "run_meta.json"
        meta_path.write_text("[]", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--runs", str(runs)]) == 2
        assert capsys.readouterr().err == f"dataset error: {meta_path}: not a JSON object\n"

    def test_failed_replace_keeps_previous_report(self, tmp_path, fixture_dataset_path, monkeypatch):
        runs = self._run(tmp_path, fixture_dataset_path)
        out_dir = tmp_path / "reports"
        out_dir.mkdir()
        out_path = out_dir / "report.md"
        assert main(["report", "--runs", str(runs), "--out", str(out_path)]) == 0
        before = out_path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        assert main(["report", "--runs", str(runs), "--format", "csv", "--out", str(out_path)]) == 1
        assert out_path.read_bytes() == before
        assert [p.name for p in out_dir.iterdir()] == ["report.md"]

    def test_reports_the_metrics_of_the_run(self, tmp_path, capsys):
        # every item errors, so only the metric names stored with the run name the columns
        dataset = tmp_path / "bleu.json"
        dataset.write_text(json.dumps({
            "meta": {"name": "bleuset", "metrics": ["bleu"]},
            "data": [{"id": "a", "instruction": "say x", "question_type": "free_open", "answer": "x"}],
        }), encoding="utf-8")
        http = {"type": "http", "base_url": "http://127.0.0.1:1", "model_name": "m"}
        config = make_config(tmp_path, dataset, extra={"backend": http, "max_retries": 0})
        assert main(["eval", "--config", str(config)]) == 3
        eval_out = capsys.readouterr().out
        assert "| category | bleu |" in eval_out
        assert main(["report", "--runs", str(tmp_path / "runs")]) == 0
        assert capsys.readouterr().out == eval_out
        # a run_meta.json written before runs stored their metrics reports the default ones
        meta_path = tmp_path / "runs" / "bleuset" / "m" / "run_meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        del meta["metrics"]
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        assert main(["report", "--runs", str(tmp_path / "runs")]) == 0
        assert "| category | accuracy |" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["md", "csv", "jsonl"])
    def test_two_runs(self, tmp_path, fixture_dataset_path, capsys, fmt):
        runs = self._run(tmp_path, fixture_dataset_path)
        config = make_config(tmp_path, fixture_dataset_path, replies=FIXTURE_REPLIES)
        main(["eval", "--config", str(config), "--model", "other"])
        capsys.readouterr()
        single = []
        for model in ("other", "stub"):  # the order report reads them in
            assert main(["report", "--runs", str(runs / "fixture10" / model), "--format", fmt]) == 0
            single.append(capsys.readouterr().out)
        assert main(["report", "--runs", str(runs), "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "csv":  # one header line, then both runs' rows
            header = "dataset,model,metric,category,value,support\n"
            assert out == header + single[0].removeprefix(header) + single[1].removeprefix(header)
            assert out.count(header) == 1
        else:  # markdown tables are parted by a blank line
            assert out == (single[0] + "\n" + single[1] if fmt == "md" else single[0] + single[1])

    def test_stored_score_that_is_no_number(self, tmp_path, fixture_dataset_path, capsys):
        runs = self._run(tmp_path, fixture_dataset_path)
        records_path = runs / "fixture10" / "stub" / "records.jsonl"
        lines = records_path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[1])
        record["outcomes"][0]["score"] = "1"
        lines[1] = json.dumps(record) + "\n"
        records_path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--runs", str(runs)]) == 2
        assert capsys.readouterr().err == (f"dataset error: {records_path}, line 2: not a record: "
                                           "outcomes[0].score must be a finite number, got '1'\n")

    def test_stored_category_that_is_no_string(self, tmp_path, fixture_dataset_path, capsys):
        runs = self._run(tmp_path, fixture_dataset_path)
        records_path = runs / "fixture10" / "stub" / "records.jsonl"
        lines = records_path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[0] = json.dumps({**json.loads(lines[0]), "category": 5}) + "\n"
        records_path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--runs", str(runs)]) == 2
        assert capsys.readouterr().err == (f"dataset error: {records_path}, line 1: not a record: "
                                           "category must be a string or null, got 5\n")

    def _text_run(self, tmp_path, data_dir, damage):
        """The records file of a ``stub_text_demo.json`` run whose first record ``damage`` changed in place."""
        config = Path(__file__).parent.parent / "configs" / "stub_text_demo.json"
        runs = tmp_path / "runs"
        assert main(["eval", "--config", str(config), "--dataset", str(data_dir / "text_fixture_dataset.json"),
                     "--output", str(runs), "--cache", str(tmp_path / "cache")]) == 0
        records_path = runs / "text14" / "stub" / "records.jsonl"
        lines = records_path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[0])
        damage(record)
        lines[0] = json.dumps(record) + "\n"
        records_path.write_text("".join(lines), encoding="utf-8")
        return records_path

    def test_stored_ground_truth_that_is_no_text(self, tmp_path, data_dir, capsys):
        # the pooled BLEU of a text run read this field as references
        records_path = self._text_run(tmp_path, data_dir, lambda record: record.update(ground_truth=[5]))
        capsys.readouterr()
        assert main(["report", "--runs", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err == (f"dataset error: {records_path}, line 1: not a record: "
                                           "ground_truth must be a string, a list of strings or null, got [5]\n")

    @pytest.mark.parametrize("damage,problem", [
        (lambda record: record.update(prompt_digest=5), "prompt_digest must be a string, got 5"),
        (lambda record: record["extracted"].update(rule_name=5), "extracted.rule_name must be a string or null, got 5"),
        (lambda record: record["extracted"].update(raw_span=[1]),
         "extracted.raw_span must be a string or null, got [1]"),
        (lambda record: record.update(choice_logprobs=5), "choice_logprobs must be a list of objects or null, got 5"),
        (lambda record: record.update(outcomes=5), "outcomes must be a list of objects, got 5"),
        (lambda record: record.update(outcomes=[5]), "outcomes[0] must be an object, got 5"),
        (lambda record: record["extracted"].pop("status"), "extracted.status is missing"),
        (lambda record: record["outcomes"][0].pop("score"), "outcomes[0].score is missing"),
        # no scorer emits it, so report would print it as a metric of its own
        (lambda record: record["outcomes"][0].update(metric="nope"),
         "outcomes[0].metric must be a metric name, got 'nope'"),
        (lambda record: record.update(ground_truth=None),
         "ground_truth must be a string or a non-empty list of strings in a scored record, got None"),
        (lambda record: record.pop("ground_truth"),
         "ground_truth must be a string or a non-empty list of strings in a scored record, got None"),
        (lambda record: record.update(ground_truth=[]),
         "ground_truth must be a string or a non-empty list of strings in a scored record, got []"),
    ], ids=["prompt_digest_number", "rule_name_number", "raw_span_list", "choice_logprobs_number",
            "outcomes_number", "outcome_number", "no_status", "no_score", "unknown_metric", "ground_truth_null",
            "no_ground_truth", "ground_truth_empty"])
    def test_stored_field_is_named(self, tmp_path, data_dir, capsys, damage, problem):
        # report and score read a stored record alike: one line naming the field, never a traceback
        records_path = self._text_run(tmp_path, data_dir, damage)
        dataset = data_dir / "text_fixture_dataset.json"
        for argv in (["report", "--runs", str(tmp_path / "runs")],
                     ["score", "--records", str(records_path), "--dataset", str(dataset)]):
            capsys.readouterr()
            assert main(argv) == 2
            assert capsys.readouterr().err == f"dataset error: {records_path}, line 1: not a record: {problem}\n"

    def test_empty_runs_dir(self, tmp_path):
        assert main(["report", "--runs", str(tmp_path)]) == 1

    def test_usage_error(self):
        assert main(["report"]) == 1


class TestTextMetricGoldens:
    """``configs/stub_text_demo.json`` scores fill-blank and free-open replies
    (wrong, partial, multi-reference, repeated tokens, one empty) with
    accuracy, BLEU and ROUGE. Its records and full-precision report were made
    before the BLEU and LCS kernels were rewritten, and made again, checked
    against ``tests/oracles.py``, when references began to be normalized like
    candidates (t08 and the nine rows it enters changed)."""

    def test_eval_score_and_report_match_goldens(self, tmp_path, data_dir, golden_dir, capsys):
        repo = Path(__file__).parent.parent
        config = repo / "configs" / "stub_text_demo.json"
        dataset = data_dir / "text_fixture_dataset.json"
        runs = tmp_path / "runs"
        assert main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--output", str(runs), "--cache", str(tmp_path / "cache")]) == 0
        records = runs / "text14" / "stub" / "records.jsonl"
        golden_records = (golden_dir / "text_fixture_records.jsonl").read_bytes()
        assert records.read_bytes() == golden_records

        rescored = tmp_path / "rescored.jsonl"
        assert main(["score", "--config", str(config), "--records", str(records),
                     "--dataset", str(dataset), "--out", str(rescored)]) == 0
        assert rescored.read_bytes() == golden_records

        report = tmp_path / "report.jsonl"
        assert main(["report", "--runs", str(runs), "--format", "jsonl", "--out", str(report)]) == 0
        assert report.read_bytes() == (golden_dir / "text_fixture_report.jsonl").read_bytes()
