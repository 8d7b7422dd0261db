"""Acceptance suite.

Each test prints one PASS/FAIL line (run with -s or read captured output).
Everything runs offline against the stub backend; tolerances and runtime
budgets are pinned here, not configurable.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from omnieval import (
    DatasetManifest,
    GenerationOptions,
    PromptBundle,
    QuestionType,
    RunConfig,
    StubBackend,
    Turn,
    aggregate,
    bleu,
    extract_answer,
    load_dataset,
    rouge_l,
    rouge_n,
    run_generation_eval,
    run_ppl_eval,
)
from omnieval.backends.http import (
    build_chat_request,
    build_completions_request,
    parse_chat_response,
    parse_completions_logprobs,
)
from omnieval.dataset import dump_dataset
from omnieval.errors import MalformedReply, SchemaError
from omnieval.runner import records_to_jsonl

from conftest import FIXTURE_REPLIES
from oracles import brute_bleu, brute_rouge_l

BLEU_GOLDEN = 0.4518010018049224  # hand-evaluated formula: (1/24) ** 0.25
TOL = 1e-9


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [FAIL] {description}")
        raise
    print(f"ACCEPTANCE {number} [PASS] {description}")


def test_criterion_1_metric_oracles():
    with criterion(1, "metric golden values and identities"):
        start = time.monotonic()
        assert abs(bleu("the cat the cat", ["the cat sat"]) - BLEU_GOLDEN) < TOL
        assert rouge_n("the cat", "the cat sat", 1)[2] == 0.8
        assert rouge_l("the cat sat", "the cat on the mat")[2] == 0.5
        assert bleu("the cat sat", ["the cat sat"]) == 1.0
        assert rouge_n("a b c", "a b c", 1)[2] == 1.0
        assert rouge_n("a b c", "a b c", 2)[2] == 1.0
        assert rouge_l("a b c", "a b c")[2] == 1.0
        assert time.monotonic() - start < 1.0


def test_criterion_2_oracle_equivalence():
    with criterion(2, "bleu and rouge_l match brute-force oracles on 500 random pairs"):
        start = time.monotonic()
        rng = random.Random(20240101)
        vocab = "abcde"

        def sentence(min_len=0):
            return " ".join(rng.choice(vocab) for _ in range(rng.randint(min_len, 8)))

        for _ in range(500):
            cand = sentence()
            ref = sentence(min_len=1)
            assert abs(bleu(cand, [ref]) - brute_bleu(cand, [ref])) < TOL
            got = rouge_l(cand, ref)
            want = brute_rouge_l(cand, ref)
            assert all(abs(g - w) < TOL for g, w in zip(got, want))
        assert time.monotonic() - start < 10.0


def test_criterion_3_extraction_corpus(extraction_corpus):
    with criterion(3, "60-case hand-adjudicated extraction corpus passes 60/60"):
        assert len(extraction_corpus) == 60
        passed = 0
        for case in extraction_corpus:
            got = extract_answer(
                case["raw"], QuestionType(case["question_type"]), case.get("choices")
            )
            expected = case["expected"]
            if isinstance(expected, list):
                expected = tuple(expected)
            assert got.value == expected, f"{case['id']}: expected {expected!r}, got {got.value!r}"
            passed += 1
        assert passed == 60


def test_criterion_4_end_to_end_generation(tmp_path, fixture_dataset_path):
    with criterion(4, "10-item fixture run: hand-traced accuracy, byte-identical warm rerun"):
        manifest, items = load_dataset(fixture_dataset_path)
        config = RunConfig(cache_dir=str(tmp_path / "cache"))

        cold_stub = StubBackend(scripted=FIXTURE_REPLIES)
        cold = run_generation_eval(items, cold_stub, config, manifest)
        assert cold_stub.generate_calls == 10

        warm_stub = StubBackend(scripted=FIXTURE_REPLIES)
        warm = run_generation_eval(items, warm_stub, config, manifest)
        assert warm_stub.generate_calls == 0

        cold_bytes = records_to_jsonl(cold).encode("utf-8")
        warm_bytes = records_to_jsonl(warm).encode("utf-8")
        assert cold_bytes == warm_bytes

        report = aggregate(cold, manifest, model_name="stub")
        accuracy = {v.name: v for v in report.overall}["accuracy"]
        assert accuracy.value == 0.7  # hand-traced: q03 unextracted, q05 and q09 wrong
        assert accuracy.support == 10
        assert report.extraction_failure_rate == 0.1
        by_cat = {c: {v.name: v.value for v in vals} for c, vals in report.by_category.items()}
        assert by_cat["knowledge"]["accuracy"] == 0.6
        assert by_cat["language"]["accuracy"] == 0.8


def _ppl_items(choices, answer):
    from omnieval.dataset import EvalItem

    return [
        EvalItem(
            id="p1", instruction="pick", question_type=QuestionType.SINGLE_CHOICE,
            answer=answer, choices=tuple(choices),
        )
    ]


def test_criterion_5_ppl_mode():
    with criterion(5, "ppl argmax, index tie-break, raw-vs-normalized divergence"):
        config = RunConfig(mode="ppl")

        stub = StubBackend(logprob_table={" red": (-4.0, 1), " green": (-2.0, 1), " blue": (-9.0, 1)})
        records = run_ppl_eval(_ppl_items(["red", "green", "blue"], "B"), stub, config)
        assert records[0].extracted.value == "B"

        stub = StubBackend(logprob_table={" left": (-2.0, 1), " right": (-2.0, 1)})
        records = run_ppl_eval(_ppl_items(["left", "right"], "A"), stub, config)
        assert records[0].extracted.value == "A"

        # -6.0/2 chars vs -5.0/10 chars: raw and normalized both pick B
        stub = StubBackend(logprob_table={" x": (-6.0, 1, 2), " y": (-5.0, 1, 10)})
        records = run_ppl_eval(_ppl_items(["x", "y"], "B"), stub, config)
        scores = {o.metric_name: o.score for o in records[0].outcomes}
        assert records[0].extracted.value == "B"
        assert scores == {"accuracy": 1.0, "accuracy_norm": 1.0}

        # -2.0/1 char vs -3.0/30 chars: raw picks A, normalized picks B
        stub = StubBackend(logprob_table={" x": (-2.0, 1, 1), " y": (-3.0, 1, 30)})
        records = run_ppl_eval(_ppl_items(["x", "y"], "B"), stub, config)
        scores = {o.metric_name: o.score for o in records[0].outcomes}
        assert records[0].extracted.value == "A"
        assert scores == {"accuracy": 0.0, "accuracy_norm": 1.0}
        normalized = [c["normalized_logprob"] for c in records[0].choice_logprobs]
        assert normalized == [-2.0, -0.1]


def test_criterion_6_concurrency_contract():
    with criterion(6, "high-water mark <= 4 over 100 items, output order preserved"):
        from omnieval.dataset import EvalItem

        items = [
            EvalItem(
                id=f"c{i:03d}", instruction=f"item {i}",
                question_type=QuestionType.FREE_OPEN, answer="x",
            )
            for i in range(100)
        ]
        rng = random.Random(42)
        delay_lock = __import__("threading").Lock()

        def delay():
            with delay_lock:
                return rng.random() * 0.004

        stub = StubBackend(_delay_fn=delay)
        records = run_generation_eval(items, stub, RunConfig(concurrency_limit=4))
        assert stub.max_inflight <= 4
        assert [r.item_id for r in records] == [i.id for i in items]


def test_criterion_7_wire_format_goldens(golden_dir):
    with criterion(7, "HTTP request bodies match committed goldens; malformed replies raise"):
        bundle = PromptBundle(
            system_text="You are a helpful assistant.",
            turns=(
                Turn("user", "2+2?\nAnswer:"),
                Turn("assistant", "4"),
                Turn("user", "What is the capital of France?\nA. Paris\nB. Rome\nAnswer:"),
            ),
            item_id="q1",
        )
        body = build_chat_request("test-model", bundle, GenerationOptions())
        golden = (golden_dir / "generate_request.json").read_text(encoding="utf-8")
        assert json.dumps(body, indent=2, sort_keys=True) + "\n" == golden

        ll_body = build_completions_request("test-model", "Paris is the capital of France")
        ll_golden = (golden_dir / "loglikelihood_request.json").read_text(encoding="utf-8")
        assert json.dumps(ll_body, indent=2, sort_keys=True) + "\n" == ll_golden

        with pytest.raises(MalformedReply):
            parse_chat_response({"choices": []})
        with pytest.raises(MalformedReply):
            parse_chat_response({"choices": [{"message": {"content": None}}]})
        with pytest.raises(MalformedReply):
            parse_completions_logprobs(
                {"choices": [{"logprobs": {"tokens": ["a"], "token_logprobs": [-1.0]}}]}, 0, "a"
            )


# --- criterion 8: schema round-trip -------------------------------------------

_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def _random_record(rng, index):
    qtype = rng.choice(list(QuestionType))
    record = {
        "id": f"g{index:04d}",
        "instruction": " ".join(rng.sample(_WORDS, rng.randint(1, 4))) + "?",
        "question_type": qtype.value,
    }
    if qtype in (QuestionType.SINGLE_CHOICE, QuestionType.MULTIPLE_CHOICE):
        n = rng.randint(2, 8)
        record["choices"] = [rng.choice(_WORDS) + str(j) for j in range(n)]
        letters = "ABCDEFGH"[:n]
        if qtype is QuestionType.SINGLE_CHOICE:
            record["answer"] = rng.choice(letters)
        else:
            record["answer"] = sorted(rng.sample(letters, rng.randint(1, n)))
    elif qtype is QuestionType.YES_NO:
        record["answer"] = rng.choice(["yes", "no"])
    else:
        record["answer"] = " ".join(rng.sample(_WORDS, rng.randint(1, 3)))
    if rng.random() < 0.4:
        record["few_shot"] = [
            {"instruction": rng.choice(_WORDS) + "?", "answer": rng.choice(_WORDS)}
        ]
    if rng.random() < 0.4:
        record["category"] = rng.choice(["math", "law", "health"])
    if rng.random() < 0.3:
        record["custom_tag"] = rng.choice(_WORDS)  # unknown key must survive
    return record


def test_criterion_8_schema_round_trip(tmp_path):
    with criterion(8, "200 random datasets round-trip; invalid mutations rejected by field"):
        rng = random.Random(8888)
        path = tmp_path / "ds.json"
        for run in range(200):
            records = [_random_record(rng, i) for i in range(rng.randint(1, 6))]
            path.write_text(
                json.dumps({"meta": {"name": f"gen{run}"}, "data": records}), encoding="utf-8"
            )
            m1, items1 = load_dataset(path)
            path.write_text(json.dumps(dump_dataset(m1, items1)), encoding="utf-8")
            m2, items2 = load_dataset(path)
            assert (m1, items1) == (m2, items2)

        base = {
            "id": "x", "instruction": "q", "question_type": "single_choice",
            "choices": ["one", "two"], "answer": "A",
        }

        def rejected_naming(mutation, field_name):
            path.write_text(json.dumps([mutation]), encoding="utf-8")
            with pytest.raises(SchemaError) as err:
                load_dataset(path)
            assert field_name in str(err.value)

        rejected_naming({**base, "answer": "E"}, "answer")  # bad letter
        bad = dict(base)
        del bad["instruction"]
        rejected_naming(bad, "instruction")  # missing field
        rejected_naming({**base, "choices": [str(i) for i in range(27)], "answer": "A"}, "choices")
