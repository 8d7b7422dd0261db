import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omnieval import (
    DatasetManifest,
    ExtractionStatus,
    FewShotExemplar,
    QuestionType,
    extract_answer,
    load_dataset,
    validate_item,
)
from omnieval.dataset import dump_dataset, item_to_record
from omnieval.errors import EmptyDataset, ParseError, SchemaError
from omnieval.filters import YES_NO_WORDS


def write(tmp_path, payload, name="ds.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


GOOD_RECORD = {
    "id": "r1",
    "instruction": "Capital of France?",
    "choices": ["Paris", "Rome"],
    "answer": "A",
    "question_type": "single_choice",
}


class TestLoadDataset:
    def test_object_form(self, tmp_path):
        payload = {
            "meta": {"name": "fixture", "metrics": ["accuracy"]},
            "data": [GOOD_RECORD, {**GOOD_RECORD, "id": "r2", "answer": "B"}],
        }
        manifest, items = load_dataset(write(tmp_path, payload))
        assert manifest.name == "fixture"
        assert manifest.metrics == ("accuracy",)
        assert [i.id for i in items] == ["r1", "r2"]

    def test_bare_array_inherits_config_default(self, tmp_path):
        record = {"id": "r1", "instruction": "q", "choices": ["Paris", "Rome"], "answer": "A"}
        manifest, items = load_dataset(write(tmp_path, [record]), default_question_type=QuestionType.SINGLE_CHOICE)
        assert manifest.name == "ds"  # synthesized from the filename
        assert items[0].question_type is QuestionType.SINGLE_CHOICE

    def test_answer_outside_choices(self, tmp_path):
        bad = {**GOOD_RECORD, "answer": "C"}
        with pytest.raises(SchemaError, match="r1") as err:
            load_dataset(write(tmp_path, [bad]))
        assert "answer" in str(err.value)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_empty_dataset(self, tmp_path):
        with pytest.raises(EmptyDataset):
            load_dataset(write(tmp_path, []))

    def test_duplicate_ids(self, tmp_path):
        with pytest.raises(SchemaError, match="duplicate"):
            load_dataset(write(tmp_path, [GOOD_RECORD, dict(GOOD_RECORD)]))

    def test_too_many_choices(self, tmp_path):
        bad = {**GOOD_RECORD, "choices": [str(i) for i in range(27)]}
        with pytest.raises(SchemaError, match="choices"):
            load_dataset(write(tmp_path, [bad]))

    @pytest.mark.parametrize("choices", ["xyz", [str(i) for i in range(27)]], ids=["string", "27"])
    def test_exemplar_choices_rejected(self, tmp_path, choices):
        bad = {**GOOD_RECORD, "few_shot": [{"instruction": "ex", "answer": "A", "choices": choices}]}
        with pytest.raises(SchemaError, match=r"few_shot\[0\]\.choices"):
            load_dataset(write(tmp_path, [bad]))

    def test_reserved_category_rejected(self, tmp_path):
        bad = {**GOOD_RECORD, "category": "__all__"}
        with pytest.raises(SchemaError, match="category"):
            load_dataset(write(tmp_path, [bad]))

    def test_unknown_metric_rejected(self, tmp_path):
        payload = {"meta": {"name": "x", "metrics": ["made_up"]}, "data": [GOOD_RECORD]}
        with pytest.raises(SchemaError, match="made_up"):
            load_dataset(write(tmp_path, payload))

    def test_metrics_must_be_a_list(self, tmp_path):
        payload = {"meta": {"name": "x", "metrics": "accuracy"}, "data": [GOOD_RECORD]}
        with pytest.raises(SchemaError, match="meta: bad field: metrics: must be a list"):
            load_dataset(write(tmp_path, payload))

    @pytest.mark.parametrize("qtype", ["nope", ["fill_blank"]])
    def test_bad_default_question_type(self, tmp_path, qtype):
        payload = {"meta": {"name": "x", "default_question_type": qtype}, "data": [GOOD_RECORD]}
        with pytest.raises(SchemaError, match="meta: bad field: default_question_type"):
            load_dataset(write(tmp_path, payload))

    def test_deterministic(self, tmp_path):
        path = write(tmp_path, [GOOD_RECORD])
        assert load_dataset(path, QuestionType.SINGLE_CHOICE) == load_dataset(path, QuestionType.SINGLE_CHOICE)


FREE_TEXT = {"id": "r1", "instruction": "Ocean?", "question_type": "fill_blank"}
MULTI = {**GOOD_RECORD, "question_type": "multiple_choice"}
YES_NO = {"id": "r1", "instruction": "Is water wet?", "question_type": "yes_no"}
NO_CHOICES = {key: value for key, value in GOOD_RECORD.items() if key != "choices"}
NO_ANSWER = {key: value for key, value in GOOD_RECORD.items() if key != "answer"}


@pytest.mark.parametrize("payload,error,message", [
    ([GOOD_RECORD, {**GOOD_RECORD, "id": "r2"}, {**GOOD_RECORD, "id": "r3"}, "r4"],
     SchemaError, "record at index 3: not an object"),
    ([{**GOOD_RECORD, "id": ""}], SchemaError, "record at index 0: missing field: id"),
    ([{**GOOD_RECORD, "question_type": "essay"}], SchemaError,
     "record 'r1' (index 0): bad field: question_type: 'essay'"),
    ([NO_CHOICES], SchemaError, "record 'r1' (index 0): missing field: choices"),
    ([NO_ANSWER], SchemaError, "record 'r1' (index 0): missing field: answer"),
    ([{**GOOD_RECORD, "answer": None}], SchemaError, "record 'r1' (index 0): missing field: answer"),
    ([{**FREE_TEXT, "answer": "  "}], SchemaError, "record 'r1' (index 0): missing field: answer"),
    ([{**GOOD_RECORD, "images": "cat.png"}], SchemaError,
     "record 'r1' (index 0): bad field: images: must be a list of paths"),
    ([{**GOOD_RECORD, "answer": "C"}], SchemaError,
     "record 'r1' (index 0): bad field: answer: 'C' is not a letter within the 2 choices"),
    ([{**GOOD_RECORD, "answer": 1}], SchemaError,
     "record 'r1' (index 0): bad field: answer: 1 is not a letter within the 2 choices"),
    ([{**MULTI, "answer": "AZ"}], SchemaError,
     "record 'r1' (index 0): bad field: answer: 'AZ' is not a letter set within the 2 choices"),
    ([{**MULTI, "answer": 5}], SchemaError,
     "record 'r1' (index 0): bad field: answer: 5 is not a letter set within the 2 choices"),
    ([{**YES_NO, "answer": "maybe"}], SchemaError,
     "record 'r1' (index 0): bad field: answer: 'maybe' does not normalize to yes or no"),
    ([{**FREE_TEXT, "answer": 5}], SchemaError,
     "record 'r1' (index 0): bad field: answer: expected text or a list of texts, got 5"),
    ([{**GOOD_RECORD, "few_shot": [{"answer": "A"}]}], SchemaError,
     "record 'r1' (index 0): missing field: few_shot[0].instruction"),
    ({"meta": {}, "data": {"r1": GOOD_RECORD}}, ParseError,
     "{path}: object form requires a 'meta' object and a 'data' array"),
    ({"meta": [], "data": [GOOD_RECORD]}, ParseError,
     "{path}: object form requires a 'meta' object and a 'data' array"),
    ("r1", ParseError, "{path}: top level must be an array or an object"),
], ids=["not_an_object", "blank_id", "unknown_question_type", "choices_missing", "answer_missing",
        "answer_null", "answer_blank", "images_not_a_list", "letter_out_of_range", "letter_not_a_string",
        "letter_set_out_of_range", "letter_set_not_text", "yes_no_other", "free_text_not_text",
        "exemplar_without_instruction", "data_not_an_array", "meta_not_an_object", "top_level_string"])
def test_rejection_message(tmp_path, payload, error, message):
    path = write(tmp_path, payload)
    with pytest.raises(error) as err:
        load_dataset(path)
    assert str(err.value) == message.replace("{path}", str(path))


class TestValidateItem:
    MANIFEST = DatasetManifest(name="m")

    def test_multi_letter_canonicalization(self):
        for answer in ("CA", "A,C", ["A", "C"], "ac"):
            record = {
                "id": "x",
                "instruction": "q",
                "question_type": "multiple_choice",
                "choices": ["1", "2", "3"],
                "answer": answer,
            }
            item = validate_item(record, self.MANIFEST)
            assert item.answer == ("A", "C")

    def test_yes_no_normalization(self):
        record = {"id": "x", "instruction": "q", "question_type": "yes_no", "answer": "True"}
        assert validate_item(record, self.MANIFEST).answer == "yes"

    def test_every_word_the_extractor_maps_is_a_ground_truth(self):
        for word, meaning in YES_NO_WORDS.items():
            assert extract_answer(word, QuestionType.YES_NO, None).value == meaning
            record = {"id": "x", "instruction": "q", "question_type": "yes_no", "answer": word.upper()}
            assert validate_item(record, self.MANIFEST).answer == meaning
        # a ground truth may also abbreviate, which a reply may not
        for word, meaning in (("y", "yes"), ("n", "no")):
            record = {"id": "x", "instruction": "q", "question_type": "yes_no", "answer": word}
            assert validate_item(record, self.MANIFEST).answer == meaning
            assert extract_answer(word, QuestionType.YES_NO, None).status is ExtractionStatus.UNEXTRACTED

    def test_missing_instruction(self):
        record = {"id": "x", "question_type": "yes_no", "answer": "yes"}
        with pytest.raises(SchemaError, match="missing field: instruction"):
            validate_item(record, self.MANIFEST)

    def test_manifest_default_question_type(self):
        manifest = DatasetManifest(name="m", default_question_type=QuestionType.FREE_OPEN)
        record = {"id": "x", "instruction": "q", "answer": "whatever"}
        assert validate_item(record, manifest).question_type is QuestionType.FREE_OPEN

    def test_missing_question_type(self):
        record = {"id": "x", "instruction": "q", "answer": "y"}
        with pytest.raises(SchemaError, match="question_type"):
            validate_item(record, self.MANIFEST)

    def test_exemplar_answer_must_be_nonempty(self):
        record = {
            **GOOD_RECORD,
            "few_shot": [{"instruction": "ex", "answer": "  "}],
        }
        with pytest.raises(SchemaError, match="few_shot"):
            validate_item(record, self.MANIFEST)

    def test_manifest_few_shot_fallback(self, tmp_path):
        payload = {
            "meta": {
                "name": "m",
                "few_shot": [{"instruction": "2+2?", "answer": "4"}],
            },
            "data": [GOOD_RECORD],
        }
        _, items = load_dataset(write(tmp_path, payload))
        assert items[0].few_shot[0].answer == "4"

    def test_equal_exemplars_load_as_one_object(self, tmp_path):
        shot = {"instruction": "Sky?", "answer": "B", "choices": ["green", "blue"]}
        records = [
            {**GOOD_RECORD, "few_shot": [shot, {"instruction": "2+2?", "answer": "4"}]},
            {**GOOD_RECORD, "id": "r2", "few_shot": [{"instruction": "2+2?", "answer": "4"}, dict(shot)]},
        ]
        _, items = load_dataset(write(tmp_path, records))
        assert items[0].few_shot[0] is items[1].few_shot[1]
        assert items[0].few_shot[1] is items[1].few_shot[0]
        assert items[0].few_shot[0] == FewShotExemplar("Sky?", "B", ("green", "blue"))

    @pytest.mark.parametrize("shot,message", [
        ({"instruction": "Sky?", "answer": "B", "choices": ["green", 2]},
         r"bad field: few_shot\[1\]\.choices: must be a list of at most 26 strings"),
        ({"instruction": "Sky?", "answer": " ", "choices": ["green", "blue"]},
         r"missing field: few_shot\[1\]\.answer"),
        (["Sky?", "B", ["green", "blue"]], r"bad field: few_shot\[1\]: not an object"),
    ], ids=["non_string_choice", "blank_answer", "not_an_object"])
    def test_exemplar_like_an_accepted_one_is_still_checked(self, tmp_path, shot, message):
        valid = {"instruction": "Sky?", "answer": "B", "choices": ["green", "blue"]}
        records = [
            {**GOOD_RECORD, "few_shot": [valid]},
            {**GOOD_RECORD, "id": "r2", "few_shot": [valid, shot]},
        ]
        with pytest.raises(SchemaError, match=rf"^record 'r2' \(index 1\): {message}"):
            load_dataset(write(tmp_path, records))

    def test_unknown_keys_preserved(self):
        record = {**GOOD_RECORD, "source_url": "http://example.com"}
        item = validate_item(record, self.MANIFEST)
        assert item.extra == {"source_url": "http://example.com"}
        assert item_to_record(item)["source_url"] == "http://example.com"

    def test_round_trip_keeps_images_and_meta_defaults(self, tmp_path):
        meta = {"name": "omni", "version": "2", "metrics": ["accuracy"], "default_question_type": "single_choice",
                "language": "en", "domain": "vision", "modality": "image"}
        records = [
            {"id": "r1", "instruction": "Which animal?", "choices": ["cat", "dog"], "answer": "A",
             "images": ["img/cat.png", "img/dog.png"]},
            {**GOOD_RECORD, "id": "r2", "language": "fr", "cot_directive": "Think."},
        ]
        manifest, items = load_dataset(write(tmp_path, {"meta": meta, "data": records}))
        assert items[0].images == ("img/cat.png", "img/dog.png")
        assert (items[0].language, items[0].domain, items[0].modality) == ("en", "vision", "image")
        dumped = dump_dataset(manifest, items)
        assert dumped["meta"] == meta
        assert dumped["data"][0]["images"] == ["img/cat.png", "img/dog.png"]
        assert load_dataset(write(tmp_path, dumped, "again.json")) == (manifest, items)


# --- round-trip property ------------------------------------------------------

_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=20
).filter(lambda s: s.strip())


# a small pool, so records often share exemplars
_exemplars = st.sampled_from([
    {"instruction": "2+2?", "answer": "4"},
    {"instruction": "Sky?", "answer": "B", "choices": ["green", "blue"]},
    {"instruction": "Sky?", "answer": "B", "choices": []},
    {"instruction": "Sky?", "answer": "B"},
]) | st.fixed_dictionaries({"instruction": _texts, "answer": _texts})


@st.composite
def valid_records(draw, index):
    qtype = draw(st.sampled_from(list(QuestionType)))
    record = {
        "id": f"gen{index}-{draw(st.integers(0, 10 ** 6))}",
        "instruction": draw(_texts),
        "question_type": qtype.value,
    }
    if qtype in (QuestionType.SINGLE_CHOICE, QuestionType.MULTIPLE_CHOICE):
        n = draw(st.integers(2, 6))
        record["choices"] = [draw(_texts) for _ in range(n)]
        letters = "ABCDEFGHIJ"[:n]
        if qtype is QuestionType.SINGLE_CHOICE:
            record["answer"] = draw(st.sampled_from(letters))
        else:
            picked = draw(st.sets(st.sampled_from(letters), min_size=1, max_size=n))
            record["answer"] = sorted(picked)
    elif qtype is QuestionType.YES_NO:
        record["answer"] = draw(st.sampled_from(["yes", "no", "True", "False"]))
    else:
        record["answer"] = draw(_texts)
    if draw(st.booleans()):
        record["few_shot"] = draw(st.lists(_exemplars, min_size=1, max_size=3))
    if draw(st.booleans()):
        record["category"] = draw(st.sampled_from(["math", "law", "misc"]))
    return record


@given(st.lists(st.integers(), min_size=1, max_size=5).flatmap(
    lambda idxs: st.tuples(*[valid_records(i) for i in range(len(idxs))])
))
def test_round_trip_property(tmp_path_factory, records):
    # distinct ids are guaranteed by the per-record index prefix only when the
    # random suffixes differ; drop duplicates to keep the input valid
    seen, unique = set(), []
    for record in records:
        if record["id"] not in seen:
            seen.add(record["id"])
            unique.append(record)
    tmp = tmp_path_factory.mktemp("roundtrip")
    path = tmp / "ds.json"
    path.write_text(json.dumps({"meta": {"name": "gen"}, "data": unique}), encoding="utf-8")
    m1, items1 = load_dataset(path)
    path.write_text(json.dumps(dump_dataset(m1, items1)), encoding="utf-8")
    m2, items2 = load_dataset(path)
    assert items1 == items2
    assert m1 == m2
    # exemplars written alike load as one object, and each is what its record says
    loaded: dict[str, set[int]] = {}
    for record, item in zip(unique, items1):
        for raw, shot in zip(record.get("few_shot", []), item.few_shot):
            loaded.setdefault(json.dumps(raw, sort_keys=True), set()).add(id(shot))
        assert item.few_shot == tuple(
            FewShotExemplar(f["instruction"], f["answer"], tuple(f["choices"]) if f.get("choices") else None)
            for f in record.get("few_shot", [])
        )
    assert all(len(ids) == 1 for ids in loaded.values())
    # loaded items satisfy the schema invariants
    assert len({item.id for item in items1}) == len(items1)
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    for item in items1:
        if item.question_type is QuestionType.SINGLE_CHOICE:
            assert letters.index(item.answer) < len(item.choices)
        elif item.question_type is QuestionType.MULTIPLE_CHOICE:
            assert item.answer == tuple(sorted(set(item.answer)))
            assert all(letters.index(ch) < len(item.choices) for ch in item.answer)
        elif item.question_type is QuestionType.YES_NO:
            assert item.answer in ("yes", "no")
