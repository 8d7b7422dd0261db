import hashlib
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from omnieval import (
    GenerationOptions,
    QuestionType,
    RunConfig,
    StubBackend,
    load_dataset,
    run_generation_eval,
    run_ppl_eval,
    with_retries,
)
from omnieval.backends.base import ModelResponse
from omnieval.dataset import DatasetManifest, EvalItem, validate_item
from omnieval.errors import BackendRefused, ConfigError, ParseError, RateLimited, TransportError
from omnieval.prompts import PromptBundle, Turn
from omnieval.runner import (
    CacheKeys,
    ResponseCache,
    RunRecord,
    bundle_request,
    canonical_json,
    read_records,
    records_to_jsonl,
    rescore,
    write_run_output,
    write_text_atomic,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def make_item(i, **kwargs):
    defaults = dict(
        id=f"it{i:03d}",
        instruction=f"question number {i}",
        question_type=QuestionType.FREE_OPEN,
        answer=f"answer {i}",
    )
    defaults.update(kwargs)
    return EvalItem(**defaults)


def choice_item(i, choices, answer, **kwargs):
    return make_item(
        i, question_type=QuestionType.SINGLE_CHOICE, choices=tuple(choices), answer=answer, **kwargs
    )


def generate_key(model_name, bundle, options):
    return CacheKeys(model_name, options).generate(bundle)


class TestCacheKey:
    BUNDLE = PromptBundle(None, (Turn("user", "hi"),))

    def test_deterministic(self):
        a = generate_key("m", self.BUNDLE, {"temperature": 0})
        b = generate_key("m", PromptBundle(None, (Turn("user", "hi"),)), json.loads('{"temperature": 0}'))
        assert a == b
        assert len(a) == 64

    def test_temperature_changes_digest(self):
        a = generate_key("m", self.BUNDLE, {"temperature": 0})
        b = generate_key("m", self.BUNDLE, {"temperature": 0.1})
        assert a != b

    def test_key_order_is_canonicalized(self):
        left = generate_key("m", self.BUNDLE, {"a": 1, "b": 2})
        right = generate_key("m", self.BUNDLE, {"b": 2, "a": 1})
        assert left == right

    def test_model_changes_digest(self):
        assert generate_key("m1", self.BUNDLE, None) != generate_key("m2", self.BUNDLE, None)

    # A changed key turns every existing cache cold, so the bytes are pinned.
    def test_golden_generate_key(self):
        bundle = PromptBundle("Answer briefly.", (
            Turn("user", "2+2?"),
            Turn("assistant", "4"),
            Turn("user", "Capital of France? Paris or Rome", ("img.png",)),
        ), item_id="q1")
        options = GenerationOptions(temperature=0.5, stop_sequences=("\n",), seed=7)
        assert generate_key("org/model-7b", bundle, options.to_dict()) == (
            "2af6a1baeb1c8672f026756b4d5ee208d33c252ac7c0a03016f7e84cf96ddfe1")
        stub = StubBackend(model_name="org/model-7b", default_reply="A")
        records = run_generation_eval([choice_item(1, ["Paris", "Rome"], "A")], stub, RunConfig())
        assert records[0].prompt_digest == (
            "5a4bf68b99e4debb1be64dcfd355d47a61df97588e290f9843a50910f480e116")

    def test_golden_loglikelihood_key(self, tmp_path):
        _, (key,) = CacheKeys("org/model-7b", None).ppl("Q: Capital of France?\nA:", [" Paris"])
        assert key == (
            "8b5af4b2d8e0d9a696fe68eb7eaf631abd3a217ea1b522415d02a676acb72656")
        config = RunConfig(mode="ppl", cache_dir=str(tmp_path))
        records = run_ppl_eval([choice_item(1, ["Paris", "Rome"], "A")],
                               StubBackend(model_name="org/model-7b"), config)
        assert records[0].prompt_digest == (
            "e6365e6672171bc45d307e7d04ac7f395117eae2948e63ba7df2a956df080ce5")
        keys = {json.loads(line)["key"] for shard in tmp_path.glob("*.jsonl")
                for line in shard.read_bytes().splitlines()[1:]}  # each shard starts with \n
        assert keys == {"0742e6ce549f883e50f9d494a5554300b498c7802b8a1ac41384968c596b9e7e",
                        "5839f72a697bbf44656fcc38bc506b7a079d0f670d7b7bc6de2a4be13207e7f3"}


# Adversarial strings for the key builder: JSON escapes, separators that
# str.splitlines knows, astral characters, empty strings and the sentinel that
# an earlier builder put in the per-item places.
SLOT = "\x00omnieval-slot\x00"
ODD_TEXTS = ["", 'say "hi"', "back\\slash", "nul\x00byte", "line\u2028sep", "next\u0085line",
             "astral \U0001F600\U00010348", SLOT, f'"{SLOT}"', "caf\u00e9 \u4e2d\u6587"]


def oracle_key(model_name, request, options):
    """The key's definition: SHA-256 of the whole payload dumped at once."""
    payload = {"model": model_name, "request": request, "options": options}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestCacheKeys:
    """The per-run builder gives the key of the whole payload dumped at once."""

    @pytest.mark.parametrize("model_name", ["org/model-7b", *ODD_TEXTS])
    def test_generate_keys(self, model_name):
        rng = random.Random(model_name)
        for system in (None, *ODD_TEXTS):
            options = GenerationOptions(temperature=0.5, stop_sequences=(SLOT, rng.choice(ODD_TEXTS), "\n"),
                                        seed=rng.choice([None, 7]))
            turns = tuple(
                Turn(role, rng.choice(ODD_TEXTS), tuple(rng.sample(ODD_TEXTS, rng.randrange(3))))
                for role in rng.choice([("user",), ("user", "assistant", "user")])
            )
            bundle = PromptBundle(system, turns, item_id="q1")
            request = {"kind": "generate", "conversation": bundle_request(bundle)}
            want = oracle_key(model_name, request, options.to_dict())
            assert CacheKeys(model_name, options.to_dict()).generate(bundle) == want

    @pytest.mark.parametrize("model_name", ["org/model-7b", *ODD_TEXTS])
    @pytest.mark.parametrize("n_choices", [1, 26])
    def test_ppl_keys(self, model_name, n_choices):
        keys = CacheKeys(model_name, None)
        for context in ODD_TEXTS:
            continuations = [" " + ODD_TEXTS[i % len(ODD_TEXTS)] + str(i) for i in range(n_choices)]
            digest, choice_keys = keys.ppl(context, continuations)
            request = {"kind": "ppl_context", "context": context}
            assert digest == oracle_key(model_name, request, None)
            assert len(choice_keys) == n_choices
            for key, continuation in zip(choice_keys, continuations):
                request = {"kind": "loglikelihood", "context": context, "continuation": continuation}
                assert key == oracle_key(model_name, request, None)

    def test_any_request(self):
        bundle = PromptBundle(SLOT, (Turn("user", f'"{SLOT}"', (SLOT,)),))
        generate = {"kind": "generate", "conversation": bundle_request(bundle)}
        for options in (None, {"stop_sequences": [SLOT]}, {}, {"a": SLOT, "b": [SLOT, None]}, {"z": {"y": ODD_TEXTS}}):
            keys = CacheKeys(SLOT, options)
            assert keys.generate(bundle) == oracle_key(SLOT, generate, options)
            digest, (key,) = keys.ppl(SLOT, [SLOT])
            assert digest == oracle_key(SLOT, {"kind": "ppl_context", "context": SLOT}, options)
            assert key == oracle_key(SLOT, {"kind": "loglikelihood", "context": SLOT, "continuation": SLOT}, options)


class TestWithRetries:
    def test_fails_twice_then_succeeds(self):
        calls = {"n": 0}
        sleeps = []

        def thunk():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise TransportError("flaky")
            return "ok"

        result = with_retries(thunk, max_retries=3, backoff_base_ms=100, sleep=sleeps.append)
        assert result == "ok"
        assert calls["n"] == 3
        assert sleeps == [0.1, 0.2]  # exponential backoff

    def test_refused_is_not_retried(self):
        calls = {"n": 0}

        def thunk():
            calls["n"] += 1
            raise BackendRefused("400")

        with pytest.raises(BackendRefused):
            with_retries(thunk, max_retries=5, sleep=lambda s: None)
        assert calls["n"] == 1

    def test_zero_retries(self):
        calls = {"n": 0}

        def thunk():
            calls["n"] += 1
            raise TransportError("down")

        with pytest.raises(TransportError):
            with_retries(thunk, max_retries=0, sleep=lambda s: None)
        assert calls["n"] == 1

    def test_rate_limit_honors_larger_retry_after(self):
        sleeps = []
        calls = {"n": 0}

        def thunk():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RateLimited("429", retry_after_s=3.0)
            return "ok"

        with_retries(thunk, max_retries=2, backoff_base_ms=100, sleep=sleeps.append)
        assert sleeps == [3.0]

    def test_backoff_wins_when_larger(self):
        sleeps = []
        calls = {"n": 0}

        def thunk():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RateLimited("429", retry_after_s=0.01)
            return "ok"

        with_retries(thunk, max_retries=2, backoff_base_ms=500, sleep=sleeps.append)
        assert sleeps == [0.5]


class TestGenerationEval:
    def test_three_item_trace(self, tmp_path):
        items = [
            choice_item(1, ["Paris", "Rome", "Berlin", "Madrid"], "A"),
            choice_item(2, ["Paris", "Rome", "Berlin", "Madrid"], "B"),
            choice_item(3, ["Paris", "Rome", "Berlin", "Madrid"], "C"),
        ]
        stub = StubBackend(
            scripted={"it001": "The answer is A.", "it002": "B", "it003": "nonsense"}
        )
        config = RunConfig(cache_dir=str(tmp_path / "cache"))
        records = run_generation_eval(items, stub, config)
        scores = [r.outcomes[0].score for r in records]
        assert scores == [1.0, 1.0, 0.0]
        assert sum(1 for r in records if r.extracted.value is None) == 1

    def test_warm_cache_makes_no_backend_calls(self, tmp_path, fixture_dataset_path, fixture_replies):
        manifest, items = load_dataset(fixture_dataset_path)
        config = RunConfig(cache_dir=str(tmp_path / "cache"))

        stub = StubBackend(scripted=fixture_replies)
        cold = run_generation_eval(items, stub, config, manifest)
        assert stub.generate_calls == len(items)

        stub2 = StubBackend(scripted=fixture_replies)
        warm = run_generation_eval(items, stub2, config, manifest)
        assert stub2.generate_calls == 0
        assert records_to_jsonl(cold) == records_to_jsonl(warm)

    def test_warm_cache_makes_no_extractor_calls(self, tmp_path):
        manifest = DatasetManifest(name="extracted")
        items = [choice_item(1, ["Paris", "Rome"], "B"), choice_item(2, ["Paris", "Rome"], "A")]
        replies = {"it001": "the second one, obviously", "it002": "The answer is A."}
        config = RunConfig(cache_dir=str(tmp_path / "cache"), output_dir=str(tmp_path / "runs"))
        outputs = []
        for _ in range(2):
            extractor = StubBackend(default_reply="B", model_name="extractor")
            stub = StubBackend(scripted=replies)
            records = run_generation_eval(items, stub, config._replace(extractor=extractor), manifest)
            run_dir = write_run_output(records, manifest, StubBackend(), config, "t0", "t1")
            outputs.append((extractor.generate_calls, (run_dir / "records.jsonl").read_bytes()))
        (cold_calls, cold_bytes), (warm_calls, warm_bytes) = outputs
        assert cold_calls == 1
        assert warm_calls == 0
        assert warm_bytes == cold_bytes
        assert b"model_extracted" in cold_bytes

    def test_failed_extractor_reply_is_not_cached(self, tmp_path):
        items = [choice_item(1, ["Paris", "Rome"], "B")]
        stub = StubBackend(scripted={"it001": "the second one, obviously"})
        config = RunConfig(cache_dir=str(tmp_path / "cache"), backoff_base_ms=1)
        failures = [TransportError("down")] * (config.max_retries + 1)
        down = StubBackend(default_reply="B", _failures=failures)
        first = run_generation_eval(items, stub, config._replace(extractor=down))
        assert first[0].extracted.status.value == "unextracted"
        up = StubBackend(default_reply="B")
        second = run_generation_eval(items, stub, config._replace(extractor=up))
        assert up.generate_calls == 1
        assert second[0].extracted.status.value == "model_extracted"

    def test_extractor_error_that_is_no_backend_error_fails_only_its_item(self):
        items = [choice_item(1, ["Paris", "Rome"], "B"), choice_item(2, ["Paris", "Rome"], "A")]
        stub = StubBackend(scripted={"it001": "the second one, obviously", "it002": "The answer is A."})
        extractor = StubBackend(default_reply="B", _failures=[RuntimeError("extractor exploded")])
        records = run_generation_eval(items, stub, RunConfig(extractor=extractor))
        assert records[0].error == "RuntimeError: extractor exploded"
        assert records[0].prompt_digest and records[0].response_text is None
        assert records[1].error is None and records[1].extracted.value == "A"

    def test_extractor_call_is_retried(self):
        items = [choice_item(1, ["Paris", "Rome"], "B")]
        stub = StubBackend(scripted={"it001": "the second one, obviously"})
        extractor = StubBackend(default_reply="B", _failures=[RateLimited("slow down")])
        config = RunConfig(extractor=extractor, backoff_base_ms=1)
        records = run_generation_eval(items, stub, config)
        assert records[0].extracted.status.value == "model_extracted"
        assert extractor.generate_calls == 2

    def test_warm_rerun_of_reply_with_line_separator(self, tmp_path, fixture_dataset_path,
                                                      fixture_replies, caplog):
        # canonical_json writes U+2028 raw; the cache reader must split at b"\n" only
        manifest, items = load_dataset(fixture_dataset_path)
        replies = {**fixture_replies, "q10": "Paris is\u2028the capital\u0085of France."}
        config = RunConfig(cache_dir=str(tmp_path / "cache"))
        cold = run_generation_eval(items, StubBackend(scripted=replies), config, manifest)
        stub = StubBackend(scripted=replies)
        with caplog.at_level("WARNING", logger="omnieval.runner"):
            warm = run_generation_eval(items, stub, config, manifest)
        assert stub.generate_calls == 0
        assert not caplog.messages
        assert records_to_jsonl(warm) == records_to_jsonl(cold)

    def test_torn_cache_line_fails_only_its_own_key(self, tmp_path, fixture_dataset_path,
                                                   fixture_replies, caplog):
        manifest, items = load_dataset(fixture_dataset_path)
        cache_dir = tmp_path / "cache"
        config = RunConfig(cache_dir=str(cache_dir))
        cold = run_generation_eval(items, StubBackend(scripted=fixture_replies), config, manifest)
        path = cache_dir / "responses.jsonl"
        path.write_bytes(path.read_bytes()[:-20])  # a kill mid-append

        stub = StubBackend(scripted=fixture_replies)
        with caplog.at_level("WARNING", logger="omnieval.runner"):
            rerun = run_generation_eval(items, stub, config, manifest)
        assert all(r.error is None for r in rerun)
        assert stub.generate_calls == 1  # the torn entry, refetched
        assert records_to_jsonl(rerun) == records_to_jsonl(cold)
        assert sum("unreadable" in m for m in caplog.messages) == 1

        # the refetched entry landed on a line of its own, so it is read back
        stub = StubBackend(scripted=fixture_replies)
        warm = run_generation_eval(items, stub, config, manifest)
        assert stub.generate_calls == 0
        assert records_to_jsonl(warm) == records_to_jsonl(cold)

    @pytest.mark.parametrize("entry", [
        {"kind": "generate", "response": {"txt": "oops"}},
        {"kind": "generate", "response": {"text": 5}},
        {"kind": "generate", "response": {"text": "A", "finish_reason": 5}},
        {"kind": "generate", "response": {"text": "A", "latency_ms": True}},
        {"kind": "generate", "response": "A"},
        {"kind": "generate"},
        {"kind": "loglikelihood", "response": {"total_logprob": -1.0, "token_count": 1,
                                               "continuation_chars": 2}},
        {"kind": "chat", "response": {"text": "A"}},
        {"response": {"text": "A"}},
    ], ids=["no_text", "text_not_a_string", "bad_finish_reason", "count_that_is_a_bool", "not_an_object",
            "no_response", "other_kind", "unknown_kind", "no_kind"])
    def test_cache_entry_that_does_not_decode_is_fetched_again(self, tmp_path, fixture_dataset_path,
                                                                fixture_replies, caplog, entry):
        manifest, items = load_dataset(fixture_dataset_path)
        cache_dir = tmp_path / "cache"
        config = RunConfig(cache_dir=str(cache_dir))
        cold = run_generation_eval(items, StubBackend(scripted=fixture_replies), config, manifest)
        key = next(r for r in cold if r.item_id == "q03").prompt_digest
        with open(cache_dir / "responses.jsonl", "ab") as f:
            f.write(b"\n" + canonical_json({"created_at": "x", "key": key, **entry}).encode("utf-8"))

        for calls in (1, 0):  # fetched again once, and then the fresh entry wins
            stub = StubBackend(scripted=fixture_replies)
            caplog.clear()
            with caplog.at_level("WARNING", logger="omnieval.runner"):
                rerun = run_generation_eval(items, stub, config, manifest)
            assert stub.generate_calls == calls
            assert records_to_jsonl(rerun) == records_to_jsonl(cold)
            assert sum("does not decode" in m for m in caplog.messages) == calls

    @pytest.mark.parametrize("response", [
        {"total_logprob": -1.0, "token_count": 0, "continuation_chars": 2},
        {"total_logprob": float("nan"), "token_count": 1, "continuation_chars": 2},
        {"total_logprob": True, "token_count": 1, "continuation_chars": 2},
        {"total_logprob": -1.0, "token_count": 1.5, "continuation_chars": 2},
    ], ids=["no_tokens", "nan", "bool_logprob", "float_count"])
    def test_loglikelihood_entry_that_fails_its_checks_is_fetched_again(self, tmp_path, fixture_dataset_path,
                                                                       fixture_replies, caplog, response):
        manifest, items = load_dataset(fixture_dataset_path)
        cache_dir = tmp_path / "cache"
        config = RunConfig(mode="ppl", cache_dir=str(cache_dir), limit=5)
        cold = run_ppl_eval(items, StubBackend(scripted=fixture_replies), config, manifest)
        path = cache_dir / "responses.jsonl"
        key = json.loads(path.read_bytes().split(b"\n")[1])["key"]
        with open(path, "ab") as f:
            entry = {"created_at": "x", "key": key, "kind": "loglikelihood", "response": response}
            f.write(b"\n" + canonical_json(entry).encode("utf-8"))

        for calls in (1, 0):  # fetched again once, and then the fresh entry wins
            stub = StubBackend(scripted=fixture_replies)
            caplog.clear()
            with caplog.at_level("WARNING", logger="omnieval.runner"):
                rerun = run_ppl_eval(items, stub, config, manifest)
            assert stub.loglikelihood_calls == calls
            assert records_to_jsonl(rerun) == records_to_jsonl(cold)
            assert sum("does not decode" in m for m in caplog.messages) == calls

    def test_limit(self):
        items = [make_item(i) for i in range(5)]
        records = run_generation_eval(items, StubBackend(), RunConfig(limit=1))
        assert len(records) == 1

    def test_partially_warm_cache_resumes(self, tmp_path, fixture_dataset_path, fixture_replies):
        manifest, items = load_dataset(fixture_dataset_path)
        cache_dir = str(tmp_path / "cache")

        stub = StubBackend(scripted=fixture_replies)
        run_generation_eval(items, stub, RunConfig(cache_dir=cache_dir, limit=4), manifest)
        assert stub.generate_calls == 4

        stub2 = StubBackend(scripted=fixture_replies)
        run_generation_eval(items, stub2, RunConfig(cache_dir=cache_dir), manifest)
        assert stub2.generate_calls == 6  # only the uncached tail

    def test_per_item_failure_does_not_abort(self):
        items = [make_item(1), make_item(2), make_item(3)]
        stub = StubBackend(_failures=[BackendRefused("400 on first call")])
        config = RunConfig(concurrency_limit=1, max_retries=0)
        records = run_generation_eval(items, stub, config)
        assert len(records) == 3
        assert records[0].error is not None and "400" in records[0].error
        assert records[1].error is None and records[2].error is None

    def test_retry_then_success(self):
        items = [make_item(1)]
        stub = StubBackend(_failures=[TransportError("x"), TransportError("y")])
        config = RunConfig(max_retries=3, backoff_base_ms=1)
        records = run_generation_eval(items, stub, config)
        assert records[0].error is None
        assert stub.generate_calls == 3

    def test_output_order_matches_input_order(self):
        rng = random.Random(7)
        items = [make_item(i) for i in range(50)]
        stub = StubBackend(_delay_fn=lambda: rng.random() * 0.01)
        config = RunConfig(concurrency_limit=8)
        records = run_generation_eval(items, stub, config)
        assert [r.item_id for r in records] == [i.id for i in items]

    def test_every_item_runs_once_under_thread_switching(self):
        items = [make_item(i) for i in range(400)]
        stub = StubBackend()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            records = run_generation_eval(items, stub, RunConfig(concurrency_limit=16))
        finally:
            sys.setswitchinterval(interval)
        assert [r.item_id for r in records] == [i.id for i in items]
        assert stub.generate_calls == len(items)

    def test_concurrency_high_water_mark(self):
        items = [make_item(i) for i in range(40)]
        stub = StubBackend(_delay_fn=lambda: 0.005)
        records = run_generation_eval(items, stub, RunConfig(concurrency_limit=4))
        assert len(records) == 40
        assert stub.max_inflight <= 4

    def test_workers_end_with_the_run(self):
        threads_seen = set()
        stub = StubBackend(_delay_fn=lambda: threads_seen.add(threading.get_ident()) or 0.001)
        before = threading.active_count()
        records = run_generation_eval([make_item(i) for i in range(3)], stub,
                                      RunConfig(concurrency_limit=8))
        assert [r.error for r in records] == [None] * 3
        assert threading.active_count() == before
        assert 1 <= len(threads_seen) <= 3
        assert threading.get_ident() not in threads_seen

    def test_uncaught_task_exception_propagates(self, tmp_path, monkeypatch):
        import omnieval.runner as runner_mod

        class Stop(BaseException):
            pass

        def stop(*args, **kwargs):
            raise Stop("not an Exception")

        calls = itertools.count(1)
        stub = StubBackend(_delay_fn=lambda: stop() if next(calls) == 3 else 0.001)
        with pytest.raises(Stop):
            run_generation_eval([make_item(i) for i in range(20)], stub, RunConfig(concurrency_limit=2))
        assert stub.generate_calls < 20  # the workers took no new calls after it

        # scoring runs in the calling thread: a Stop there propagates too, and the cache is closed
        closed = []
        close = runner_mod.ResponseCache.close
        monkeypatch.setattr(runner_mod.ResponseCache, "close", lambda cache: closed.append(cache) or close(cache))
        monkeypatch.setattr(runner_mod, "score_item", stop)
        config = RunConfig(concurrency_limit=2, cache_dir=str(tmp_path / "cache"))
        with pytest.raises(Stop):
            run_generation_eval([make_item(i) for i in range(20)], StubBackend(), config)
        assert len(closed) == 1

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_interrupt_stops_the_workers(self, tmp_path):
        class Interrupt(BaseException):
            pass

        def interrupt(signum, frame):
            raise Interrupt()

        calls = itertools.count()

        def delay():
            if next(calls) == 5:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGUSR1)  # as Ctrl-C would
            return 0.002

        stub = StubBackend(_delay_fn=delay)
        config = RunConfig(concurrency_limit=2, cache_dir=str(tmp_path))
        before = len(os.listdir("/proc/self/fd"))
        previous = signal.signal(signal.SIGUSR1, interrupt)
        try:
            with pytest.raises(Interrupt):
                run_generation_eval([make_item(i) for i in range(200)], stub, config)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        for worker in threading.enumerate():
            if worker.name == "omnieval-worker":
                worker.join(timeout=10)
                assert not worker.is_alive()
        assert stub.generate_calls < 20
        # the items the workers held ended after the cache closed, and reopened no cache file
        assert len(os.listdir("/proc/self/fd")) == before

    def test_model_extract_fallback(self):
        items = [choice_item(1, ["Paris", "Rome"], "B")]
        stub = StubBackend(scripted={"it001": "the second one, obviously"})
        extractor = StubBackend(default_reply="B")
        records = run_generation_eval(items, stub, RunConfig(extractor=extractor))
        assert records[0].extracted.value == "B"
        assert records[0].extracted.status.value == "model_extracted"

    def test_each_extraction_prompt_is_rendered_once(self, monkeypatch):
        import omnieval.runner as runner_mod

        rendered = []
        render = runner_mod.extraction_prompt
        monkeypatch.setattr(runner_mod, "extraction_prompt", lambda *args: rendered.append(args) or render(*args))
        items = [choice_item(1, ["Paris", "Rome"], "B"), choice_item(2, ["Paris", "Rome"], "A")]
        stub = StubBackend(scripted={"it001": "the second one, obviously", "it002": "the first, surely"})
        records = run_generation_eval(items, stub, RunConfig(extractor=StubBackend(default_reply="B")))
        assert [r.extracted.status.value for r in records] == ["model_extracted"] * 2
        assert len(rendered) == 2

    def test_requires_generation_capability(self):
        backend = StubBackend(supports_generation=False)
        with pytest.raises(ConfigError):
            run_generation_eval([make_item(1)], backend, RunConfig())

    def test_extractor_must_generate(self):
        stub = StubBackend()
        extractor = StubBackend(supports_generation=False)
        with pytest.raises(ConfigError, match="extractor"):
            run_generation_eval([make_item(1)], stub, RunConfig(extractor=extractor))
        assert stub.generate_calls == 0 and extractor.generate_calls == 0

    def test_refuses_images_the_backend_cannot_take(self, tmp_path):
        backend = StubBackend(supports_images=False)
        config = RunConfig(cache_dir=str(tmp_path / "cache"))
        with pytest.raises(ConfigError, match="'it002' has some"):
            run_generation_eval([make_item(1), make_item(2, images=("img.png",))], backend, config)
        assert backend.generate_calls == 0
        assert not (tmp_path / "cache").exists()

    def test_scoring_stage_failure_is_soft(self, monkeypatch):
        import omnieval.runner as runner_mod

        def boom(*args, **kwargs):
            raise RuntimeError("scorer exploded")

        monkeypatch.setattr(runner_mod, "score_item", boom)
        records = run_generation_eval([make_item(1), make_item(2)], StubBackend(), RunConfig())
        assert all(r.error is not None and "scorer exploded" in r.error for r in records)
        assert len(records) == 2


class TestPplEval:
    def _items(self, choices, answer="A"):
        return [choice_item(1, choices, answer)]

    def test_argmax(self):
        items = self._items(["red", "green", "blue"], answer="B")
        stub = StubBackend(logprob_table={" red": (-4.0, 1), " green": (-2.0, 1), " blue": (-9.0, 1)})
        records = run_ppl_eval(items, stub, RunConfig(mode="ppl"))
        assert records[0].extracted.value == "B"
        assert records[0].outcomes[0].score == 1.0

    def test_tie_breaks_to_lowest_index(self):
        items = self._items(["left", "right"], answer="A")
        stub = StubBackend(logprob_table={" left": (-2.0, 1), " right": (-2.0, 1)})
        records = run_ppl_eval(items, stub, RunConfig(mode="ppl"))
        assert records[0].extracted.value == "A"

    def test_raw_and_normalized_agree(self):
        # totals -6.0 over 2 chars and -5.0 over 10 chars: both argmaxes pick B
        items = self._items(["x", "y"], answer="B")
        stub = StubBackend(logprob_table={" x": (-6.0, 1, 2), " y": (-5.0, 1, 10)})
        records = run_ppl_eval(items, stub, RunConfig(mode="ppl"))
        by_name = {o.metric_name: o.score for o in records[0].outcomes}
        assert records[0].extracted.value == "B"
        assert by_name == {"accuracy": 1.0, "accuracy_norm": 1.0}

    def test_raw_vs_normalized_divergence(self):
        # -2.0 over 1 char vs -3.0 over 30 chars: raw picks A, normalized picks B
        items = self._items(["x", "y"], answer="B")
        stub = StubBackend(logprob_table={" x": (-2.0, 1, 1), " y": (-3.0, 1, 30)})
        records = run_ppl_eval(items, stub, RunConfig(mode="ppl"))
        by_name = {o.metric_name: o.score for o in records[0].outcomes}
        assert records[0].extracted.value == "A"
        assert by_name == {"accuracy": 0.0, "accuracy_norm": 1.0}
        norms = [c["normalized_logprob"] for c in records[0].choice_logprobs]
        assert norms == pytest.approx([-2.0, -0.1])

    def test_multiple_choice_argmax_is_a_set_of_one_letter(self):
        # "B" is canonicalized to the letter set ("B",), which the argmax must equal
        item = validate_item({"id": "m1", "instruction": "pick all that apply", "question_type": "multiple_choice",
                              "choices": ["red", "green", "blue"], "answer": "B"}, DatasetManifest(name="d"))
        stub = StubBackend(logprob_table={" red": (-4.0, 1), " green": (-2.0, 1), " blue": (-9.0, 1)})
        record = run_ppl_eval([item], stub, RunConfig(mode="ppl"))[0]
        assert record.extracted.value == ("B",) and record.extracted.raw_span == "B"
        assert {o.metric_name: o.score for o in record.outcomes} == {"accuracy": 1.0, "accuracy_norm": 1.0}
        assert record.to_dict()["extracted"]["value"] == ["B"]

    def test_requires_choices(self):
        with pytest.raises(ConfigError):
            run_ppl_eval([make_item(1)], StubBackend(), RunConfig(mode="ppl"))

    @pytest.mark.parametrize("qtype,answer", [(QuestionType.YES_NO, "yes"), (QuestionType.FILL_BLANK, "A"),
                                              (QuestionType.FREE_OPEN, "A")])
    def test_refuses_types_a_letter_cannot_answer(self, tmp_path, qtype, answer):
        items = [choice_item(1, ["red", "green"], "A"),
                 make_item(2, question_type=qtype, choices=("yes", "no"), answer=answer)]
        stub = StubBackend()
        config = RunConfig(mode="ppl", cache_dir=str(tmp_path / "cache"))
        refusal = f"only single_choice and multiple_choice items; 'it002' is {qtype.value}$"
        with pytest.raises(ConfigError, match=refusal):
            run_ppl_eval(items, stub, config)
        assert stub.loglikelihood_calls == 0
        assert not (tmp_path / "cache").exists()

    def test_requires_loglikelihood_capability(self):
        backend = StubBackend(supports_loglikelihood=False)
        with pytest.raises(ConfigError):
            run_ppl_eval(self._items(["a", "b"]), backend, RunConfig(mode="ppl"))

    def test_refuses_image_items(self, tmp_path):
        # the flattened context has no room for them, and the backend takes images
        items = [choice_item(1, ["red", "green"], "A", images=("/missing/img.png",))]
        stub = StubBackend()
        config = RunConfig(mode="ppl", cache_dir=str(tmp_path / "cache"))
        with pytest.raises(ConfigError, match="ppl mode does not take images"):
            run_ppl_eval(items, stub, config)
        assert stub.loglikelihood_calls == 0
        assert not (tmp_path / "cache").exists()

    def test_ppl_cache_round_trip(self, tmp_path):
        items = self._items(["red", "green"], answer="A")
        table = {" red": (-1.0, 1), " green": (-2.0, 1)}
        config = RunConfig(mode="ppl", cache_dir=str(tmp_path / "cache"))
        stub = StubBackend(logprob_table=table)
        cold = run_ppl_eval(items, stub, config)
        stub2 = StubBackend(logprob_table=table)
        warm = run_ppl_eval(items, stub2, config)
        assert stub2.loglikelihood_calls == 0
        assert records_to_jsonl(cold) == records_to_jsonl(warm)

    @staticmethod
    def _in_step(parties):
        """A delay_fn that holds each call until ``parties`` calls are in
        flight; with fewer, the call fails after the timeout."""
        barrier = threading.Barrier(parties)
        return lambda: barrier.wait(timeout=5) and 0

    def test_choices_are_fetched_in_parallel_up_to_the_limit(self):
        for n_items, limit in ((1, 4), (6, 3)):
            items = [choice_item(i, ["red", "green", "blue", "grey"], "A") for i in range(n_items)]
            stub = StubBackend(_delay_fn=self._in_step(limit))
            records = run_ppl_eval(items, stub, RunConfig(mode="ppl", concurrency_limit=limit))
            assert [r.error for r in records] == [None] * n_items
            assert stub.loglikelihood_calls == 4 * n_items
            assert stub.max_inflight == limit

    def test_records_in_dataset_order_when_later_calls_finish_first(self):
        # all six calls are in flight at once; then each call sleeps less than the one that came before it
        arrivals = itertools.count()
        in_step = self._in_step(6)
        stub = StubBackend(_delay_fn=lambda: (6 - next(arrivals)) * 0.01 + in_step(),
                           logprob_table={f" {c}": (-float(n), 1) for n, c in enumerate("abcdef", 1)})
        items = [choice_item(1, ["a", "b", "c"], "A"), choice_item(2, ["d", "e", "f"], "A")]
        records = run_ppl_eval(items, stub, RunConfig(mode="ppl", concurrency_limit=6))
        assert [r.error for r in records] == [None, None]
        assert [r.item_id for r in records] == ["it001", "it002"]
        assert [[(c["letter"], c["total_logprob"]) for c in r.choice_logprobs] for r in records] == [
            [("A", -1.0), ("B", -2.0), ("C", -3.0)], [("A", -4.0), ("B", -5.0), ("C", -6.0)]]

    def test_a_failing_choice_fails_only_its_own_items(self, tmp_path):
        class Refusing(StubBackend):
            def loglikelihood(self, context, continuation):
                if continuation == " worse":
                    time.sleep(0.05)  # the later choice " bad" fails first
                if continuation in (" worse", " bad"):
                    raise BackendRefused(f"{continuation.strip()} refused")
                return super().loglikelihood(context, continuation)

        items = [choice_item(1, ["fine", "worse", "bad"], "A"), choice_item(2, ["fine", "good"], "A")]
        config = RunConfig(mode="ppl", cache_dir=str(tmp_path / "cache"))
        records = run_ppl_eval(items, Refusing(), config)
        clean = run_ppl_eval(items, StubBackend(), config._replace(cache_dir=None))
        assert records[0].error == "BackendRefused: worse refused"
        assert records[0].prompt_digest == clean[0].prompt_digest
        assert records_to_jsonl(records[1:]) == records_to_jsonl(clean[1:])
        # the failed choices were not cached, so a rerun fetches only them
        stub = StubBackend()
        rerun = run_ppl_eval(items, stub, config)
        assert stub.loglikelihood_calls == 2
        assert records_to_jsonl(rerun) == records_to_jsonl(clean)


class TestPlannedRun:
    """Both modes plan every item in the calling thread, and only the distinct
    keys that the cache misses go to the workers: the model's requests first,
    then the extractor's."""

    MODES = ["generate", "extractor", "ppl"]

    @staticmethod
    def _backends(mode, delay_fn=None):
        """The model and the extractor of ``mode``; with an extractor, every
        reply of the model is one that the regex bank cannot read."""
        if mode != "extractor":
            return StubBackend(_delay_fn=delay_fn), None
        return (StubBackend(default_reply="the second one, obviously"),
                StubBackend(default_reply="B", model_name="extractor", _delay_fn=delay_fn))

    @staticmethod
    def _eval(mode, items, config, stub, extractor=None):
        config = config._replace(mode="ppl" if mode == "ppl" else "generate", extractor=extractor)
        return (run_ppl_eval if mode == "ppl" else run_generation_eval)(items, stub, config)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("cached", [False, True])
    def test_a_key_needed_twice_is_fetched_once(self, tmp_path, cached, mode):
        # two calls of a pair would be in flight together, so neither would find the other's reply cached
        config = RunConfig(cache_dir=str(tmp_path / "cache") if cached else None, concurrency_limit=2)
        stub, extractor = self._backends(mode, delay_fn=lambda: 0.01)
        if mode == "extractor":
            # two prompts whose unreadable replies give one extractor bundle
            items = [choice_item(1, ["red", "green"], "B"), choice_item(2, ["red", "green"], "B")]
            records = self._eval(mode, items, config, stub, extractor)
            assert (stub.generate_calls, extractor.generate_calls) == (2, 1)
            assert [r.extracted.status.value for r in records] == ["model_extracted"] * 2
            return
        # two items with one prompt and the same choices: each request is one key for both
        twins = [choice_item(1, ["red", "green"], "A"),
                 choice_item(2, ["red", "green"], "B", instruction="question number 1")]
        records = self._eval(mode, twins, config, stub)
        assert stub.generate_calls + stub.loglikelihood_calls == (2 if mode == "ppl" else 1)
        assert records[0].prompt_digest == records[1].prompt_digest
        assert records[0].response_text == records[1].response_text
        assert records[0].choice_logprobs == records[1].choice_logprobs
        if mode == "ppl":
            stub = StubBackend()
            record = run_ppl_eval([choice_item(3, ["same", "same"], "A")], stub, config._replace(mode="ppl"))[0]
            assert stub.loglikelihood_calls == 1
            assert record.choice_logprobs[0] == {**record.choice_logprobs[1], "letter": "A"}

    @pytest.mark.parametrize("mode", MODES)
    def test_warm_rerun_starts_no_worker(self, tmp_path, monkeypatch, mode):
        items = [choice_item(i, ["red", "green"], "A") for i in range(6)]
        config = RunConfig(cache_dir=str(tmp_path / "cache"))
        cold = self._eval(mode, items, config, *self._backends(mode))
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread.name) or start(thread))
        stub, extractor = self._backends(mode)
        warm = self._eval(mode, items, config, stub, extractor)
        monkeypatch.undo()
        assert started == []
        assert stub.generate_calls + stub.loglikelihood_calls == 0
        assert extractor is None or extractor.generate_calls == 0
        assert records_to_jsonl(warm) == records_to_jsonl(cold)
        assert ("model_extracted" in records_to_jsonl(cold)) == (mode == "extractor")


class TestRescore:
    def _ppl_run(self):
        # raw and normalized argmaxes that disagree, a tie, and a multiple_choice item
        items = [choice_item(1, ["x", "y"], "B"), choice_item(2, ["left", "right"], "A"),
                 make_item(3, question_type=QuestionType.MULTIPLE_CHOICE, choices=("red", "green"), answer=("B",))]
        table = {" x": (-2.0, 1, 1), " y": (-3.0, 1, 30), " left": (-2.0, 1), " right": (-2.0, 1),
                 " red": (-4.0, 1), " green": (-2.0, 1)}
        return items, run_ppl_eval(items, StubBackend(logprob_table=table), RunConfig(mode="ppl"))

    def test_ppl_records_rebuild_to_the_same_bytes(self, tmp_path):
        items, records = self._ppl_run()
        path = tmp_path / "records.jsonl"
        path.write_text(records_to_jsonl(records), encoding="utf-8")
        rescored = rescore(read_records(path), items, RunConfig(), ("accuracy",))
        assert records_to_jsonl(rescored) == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("entry,problem", [
        ({"total_logprob": "x"}, "choice_logprobs[1].total_logprob must be a finite number, got 'x'"),
        ({"total_logprob": True}, "choice_logprobs[1].total_logprob must be a finite number, got True"),
        ({"total_logprob": None}, "choice_logprobs[1].total_logprob must be a finite number, got None"),
        ({"normalized_logprob": float("nan")},
         "choice_logprobs[1].normalized_logprob must be a finite number, got nan"),
        ({"normalized_logprob": float("-inf")},
         "choice_logprobs[1].normalized_logprob must be a finite number, got -inf"),
        (None, "choice_logprobs[1].total_logprob is missing"),
        (5, "choice_logprobs[1] must be an object, got 5"),
    ], ids=["string", "bool", "null", "nan", "infinite", "missing", "not_an_object"])
    def test_bad_choice_logprob_is_refused(self, tmp_path, entry, problem):
        data = self._ppl_run()[1][0].to_dict()
        choice = data["choice_logprobs"][1]
        if entry is None:
            del choice["total_logprob"]
        else:
            data["choice_logprobs"][1] = {**choice, **entry} if isinstance(entry, dict) else entry
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"records\.jsonl, line 1: not a record: {re.escape(problem)}$"):
            read_records(path)

    @pytest.mark.parametrize("outcome,problem", [
        ({"score": "1"}, "outcomes[0].score must be a finite number, got '1'"),
        ({"score": True}, "outcomes[0].score must be a finite number, got True"),
        ({"score": None}, "outcomes[0].score must be a finite number, got None"),
        ({"score": float("nan")}, "outcomes[0].score must be a finite number, got nan"),
        ({"score": float("inf")}, "outcomes[0].score must be a finite number, got inf"),
        ({"metric": 5}, "outcomes[0].metric must be a metric name, got 5"),
        ({"metric": None}, "outcomes[0].metric must be a metric name, got None"),
    ], ids=["string", "bool", "null", "nan", "infinite", "metric_number", "metric_null"])
    def test_bad_outcome_is_refused(self, tmp_path, outcome, problem):
        data = self._ppl_run()[1][0].to_dict()
        data["outcomes"][0].update(outcome)
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"records\.jsonl, line 1: not a record: {re.escape(problem)}$"):
            read_records(path)

    @pytest.mark.parametrize("field,value,problem", [
        ("item_id", ["q02"], "item_id must be a string, got ['q02']"),
        ("item_id", None, "item_id must be a string, got None"),
        ("category", 5, "category must be a string or null, got 5"),
        ("response_text", 5, "response_text must be a string or null, got 5"),
        ("error", {"kind": "x"}, "error must be a string or null, got {'kind': 'x'}"),
        ("ground_truth", 5, "ground_truth must be a string, a list of strings or null, got 5"),
        ("ground_truth", [5], "ground_truth must be a string, a list of strings or null, got [5]"),
        ("extracted", {"value": 5, "status": "extracted"},
         "extracted.value must be a string, a list of strings or null, got 5"),
        ("extracted", {"value": ["a", 5], "status": "extracted"},
         "extracted.value must be a string, a list of strings or null, got ['a', 5]"),
        ("extracted", 5, "extracted must be an object or null, got 5"),
    ], ids=["item_id_list", "item_id_null", "category_number", "response_text_number", "error_object",
            "ground_truth_number", "ground_truth_list_of_number", "extracted_value_number",
            "extracted_value_list_with_number", "extracted_number"])
    def test_field_of_wrong_type_is_refused(self, tmp_path, field, value, problem):
        data = {**self._ppl_run()[1][0].to_dict(), field: value}
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"records\.jsonl, line 1: not a record: {re.escape(problem)}$"):
            read_records(path)


# Puts ``count`` entries of over 8 KiB each into a cache directory shared
# with another process.
_WRITER = """
import sys
from omnieval.backends.base import ModelResponse
from omnieval.runner import ResponseCache
cache_dir, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResponseCache(cache_dir)
for i in range(count):
    cache.put(f"{tag}-{i}", "generate", ModelResponse(f"{tag}{i} " * 1500))
cache.close()
"""


def split_into_old_shards(cache_dir: Path, framing: str):
    """Rewrite a cache directory in the layout of earlier versions: one shard
    per first two key characters, each entry framed as ``\\n`` + JSON
    ("leading") or as JSON + ``\\n`` ("trailing")."""
    path = cache_dir / "responses.jsonl"
    for line in path.read_bytes().split(b"\n")[1:]:
        with open(cache_dir / f"{json.loads(line)['key'][:2]}.jsonl", "ab") as shard:
            shard.write(b"\n" + line if framing == "leading" else line + b"\n")
    path.unlink()


class TestResponseCache:
    def test_two_writer_processes_do_not_interleave(self, tmp_path):
        count = 150
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        writers = [
            subprocess.Popen([sys.executable, "-c", _WRITER, str(tmp_path), tag, str(count)], env=env)
            for tag in ("x", "y")
        ]
        assert [w.wait(timeout=60) for w in writers] == [0, 0]

        assert os.listdir(tmp_path) == ["responses.jsonl"]
        data = (tmp_path / "responses.jsonl").read_bytes()
        assert data.startswith(b"\n")
        assert data.count(b"\n") == 2 * count  # no blank line between entries
        lines = [line for line in data.split(b"\n") if line]
        assert len(lines) == 2 * count
        assert all(json.loads(line)["kind"] == "generate" for line in lines)
        cache = ResponseCache(tmp_path)
        for tag in ("x", "y"):
            for i in range(count):
                assert cache.get(f"{tag}-{i}", "generate").text == f"{tag}{i} " * 1500

    def test_line_torn_inside_a_character_is_skipped(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        cache.put("whole", "generate", ModelResponse("caf\u00e9"))
        cache.put("torn", "generate", ModelResponse("caf\u00e9" * 50))
        cache.close()
        path = tmp_path / "responses.jsonl"
        data = path.read_bytes()
        cut = data.rindex("\u00e9".encode("utf-8")) + 1  # between the two bytes of one character
        path.write_bytes(data[:cut])

        with caplog.at_level("WARNING", logger="omnieval.runner"):
            cache = ResponseCache(tmp_path)
            assert cache.get("whole", "generate").text == "caf\u00e9"
            assert cache.get("torn", "generate") is None
        assert sum("skipped 1 unreadable line" in m for m in caplog.messages) == 1
        cache.put("torn", "generate", ModelResponse("again"))
        cache.close()
        assert ResponseCache(tmp_path).get("torn", "generate").text == "again"

    def test_line_that_holds_no_entry_is_skipped(self, tmp_path, caplog):
        whole = canonical_json({"key": "whole", "kind": "generate", "created_at": "x",
                                "response": ModelResponse("kept").to_dict()})
        (tmp_path / "responses.jsonl").write_text(
            "\n".join(["", '{"key":["a list"]}', '{"key":7}', '{"kind":"generate"}', "[1,2]", '"text"', whole]))
        with caplog.at_level("WARNING", logger="omnieval.runner"):
            cache = ResponseCache(tmp_path)
        assert sum("skipped 5 unreadable line" in m for m in caplog.messages) == 1
        assert cache.get("whole", "generate").text == "kept"
        cache.close()

    def test_entry_in_flight_from_another_process_keeps_its_own_line(self, tmp_path, caplog):
        # the bytes of another process's put, taken from a cache of its own
        other = ResponseCache(tmp_path / "other")
        other.put("other", "generate", ModelResponse("theirs"))
        other.close()
        entry = (tmp_path / "other" / "responses.jsonl").read_bytes()
        path = tmp_path / "shared" / "responses.jsonl"
        path.parent.mkdir()
        path.write_bytes(entry[: len(entry) // 2])

        with caplog.at_level("WARNING", logger="omnieval.runner"):
            cache = ResponseCache(tmp_path / "shared")
            assert cache.get("other", "generate") is None  # loaded mid-append
        with open(path, "ab") as f:
            f.write(entry[len(entry) // 2:])
        cache.put("mine", "generate", ModelResponse("mine"))
        cache.close()

        assert b"\n\n" not in path.read_bytes()
        reread = ResponseCache(tmp_path / "shared")
        assert reread.get("other", "generate").text == "theirs"
        assert reread.get("mine", "generate").text == "mine"

    def test_shard_in_the_old_format_resumes(self, tmp_path, caplog):
        # each entry ends in \n, as earlier versions wrote them, and the last one is torn
        entries = [
            canonical_json({"key": f"aa-{i}", "kind": "generate", "created_at": "2024-01-01T00:00:00+00:00",
                            "response": ModelResponse(f"reply {i}").to_dict()}) + "\n"
            for i in range(3)
        ]
        shard = tmp_path / "aa.jsonl"
        shard.write_bytes("".join(entries).encode("utf-8")[:-20])
        old = shard.read_bytes()

        cache = ResponseCache(tmp_path)
        with caplog.at_level("WARNING", logger="omnieval.runner"):
            assert [cache.get(f"aa-{i}", "generate") is not None for i in range(3)] == [True, True, False]
        cache.put("aa-2", "generate", ModelResponse("again"))
        cache.close()
        assert shard.read_bytes() == old  # read, never written

        reread = ResponseCache(tmp_path)
        assert [reread.get(f"aa-{i}", "generate").text for i in range(3)] == ["reply 0", "reply 1", "again"]

    @pytest.mark.parametrize("framing", ["leading", "trailing"])
    @pytest.mark.parametrize("mode", ["generate", "ppl"])
    def test_directory_of_old_shards_stays_warm(self, tmp_path, fixture_dataset_path, fixture_replies,
                                                framing, mode):
        manifest, items = load_dataset(fixture_dataset_path)
        cache_dir = tmp_path / "cache"
        config = RunConfig(mode=mode, cache_dir=str(cache_dir), limit=5 if mode == "ppl" else None)
        run = run_ppl_eval if mode == "ppl" else run_generation_eval
        cold = run(items, StubBackend(scripted=fixture_replies), config, manifest)
        split_into_old_shards(cache_dir, framing)
        shards = {path.name: path.read_bytes() for path in cache_dir.iterdir()}
        assert len(shards) > 1

        stub = StubBackend(scripted=fixture_replies)
        warm = run(items, stub, config, manifest)
        assert stub.generate_calls == stub.loglikelihood_calls == 0
        assert records_to_jsonl(warm) == records_to_jsonl(cold)
        assert {path.name: path.read_bytes() for path in cache_dir.iterdir()} == shards

    @pytest.mark.parametrize("mode", ["generate", "ppl"])
    def test_cold_eval_leaves_one_cache_file(self, tmp_path, mode):
        items = [choice_item(i, ["Paris", "Rome"], "B") for i in range(40)]
        config = RunConfig(mode=mode, cache_dir=str(tmp_path / "cache"))
        run = run_ppl_eval if mode == "ppl" else run_generation_eval
        records = run(items, StubBackend(default_reply="B"), config)
        assert all(r.error is None for r in records)
        assert os.listdir(tmp_path / "cache") == ["responses.jsonl"]

    def test_warm_eval_opens_the_cache_file_once(self, tmp_path, monkeypatch, fixture_dataset_path,
                                                 fixture_replies):
        manifest, items = load_dataset(fixture_dataset_path)
        cache_dir = tmp_path / "cache"
        config = RunConfig(cache_dir=str(cache_dir))
        cold = run_generation_eval(items, StubBackend(scripted=fixture_replies), config, manifest)
        opened = []

        def spy(real):
            def open_(file, *args, **kwargs):
                if isinstance(file, (str, os.PathLike)) and cache_dir in Path(file).parents:
                    opened.append(Path(file).name)
                return real(file, *args, **kwargs)
            return open_

        monkeypatch.setattr("builtins.open", spy(open))
        monkeypatch.setattr(os, "open", spy(os.open))
        stub = StubBackend(scripted=fixture_replies)
        warm = run_generation_eval(items, stub, config, manifest)
        monkeypatch.undo()
        assert stub.generate_calls == 0
        assert records_to_jsonl(warm) == records_to_jsonl(cold)
        assert opened == ["responses.jsonl"]

    def test_threads_read_while_another_puts(self, tmp_path, caplog):
        old = [f"old-{i}" for i in range(300)]
        cache = ResponseCache(tmp_path)
        for key in old:
            cache.put(key, "generate", ModelResponse(key))
        cache.close()
        with open(tmp_path / "responses.jsonl", "ab") as f:
            f.write(b'\n{"key":"torn","kind":"gen')  # a kill mid-append

        with caplog.at_level("WARNING", logger="omnieval.runner"):
            cache = ResponseCache(tmp_path)
        # the file is read once, when the cache opens, and reports its torn line then
        assert sum("skipped 1 unreadable line" in m for m in caplog.messages) == 1
        readers = 6
        new = [f"new-{i}" for i in range(50)]
        barrier = threading.Barrier(readers + 1)
        hits = [0] * readers

        def read(i):
            barrier.wait(timeout=10)
            hits[i] = sum(cache.get(key, "generate") is not None for key in old)

        def write():
            barrier.wait(timeout=10)
            for key in new:
                cache.put(key, "generate", ModelResponse(key))

        threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
        threads.append(threading.Thread(target=write))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert hits == [len(old)] * readers
        assert all(cache.get(key, "generate").text == key for key in old + new)
        cache.close()

        lines = (tmp_path / "responses.jsonl").read_bytes().split(b"\n")
        assert lines[len(old) + 1] == b'{"key":"torn","kind":"gen'  # the next entry began a new line
        reread = ResponseCache(tmp_path)
        assert all(reread.get(key, "generate").text == key for key in old + new)
        assert reread.get("torn", "generate") is None

    def test_put_after_close_raises(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put("before", "generate", ModelResponse("kept"))
        cache.close()
        with pytest.raises(ValueError, match="closed"):
            cache.put("after", "generate", ModelResponse("lost"))
        reread = ResponseCache(tmp_path)
        assert reread.get("before", "generate").text == "kept"
        assert reread.get("after", "generate") is None

    def test_short_write_raises(self, tmp_path, monkeypatch):
        cache = ResponseCache(tmp_path)
        monkeypatch.setattr(os, "write", lambda fd, data: len(data) - 1)
        with pytest.raises(OSError, match="wrote"):
            cache.put("short", "generate", ModelResponse("reply"))
        monkeypatch.undo()
        assert cache.get("short", "generate") is None
        cache.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("mode", ["generate", "ppl"])
    def test_eval_leaves_no_cache_descriptor_open(self, tmp_path, mode):
        items = [choice_item(i, ["Paris", "Rome"], "B") for i in range(20)]
        config = RunConfig(mode=mode, cache_dir=str(tmp_path / "cache"))
        run = run_ppl_eval if mode == "ppl" else run_generation_eval
        before = len(os.listdir("/proc/self/fd"))
        records = run(items, StubBackend(default_reply="B"), config)
        assert all(r.error is None for r in records)
        assert (tmp_path / "cache" / "responses.jsonl").stat().st_size > 0  # a descriptor was opened
        assert len(os.listdir("/proc/self/fd")) == before


class TestRunRecordSerialization:
    def test_round_trip(self, fixture_dataset_path, fixture_replies):
        manifest, items = load_dataset(fixture_dataset_path)
        records = run_generation_eval(items, StubBackend(scripted=fixture_replies), RunConfig(), manifest)
        for record in records:
            clone = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
            assert clone.item_id == record.item_id
            assert clone.extracted == record.extracted
            assert clone.ground_truth == record.ground_truth
            assert [o.score for o in clone.outcomes] == [o.score for o in record.outcomes]


class TestWriteRunOutput:
    def test_model_name_with_slash_is_sanitized(self, tmp_path, fixture_dataset_path, fixture_replies):
        from omnieval.runner import write_run_output

        manifest, items = load_dataset(fixture_dataset_path)
        stub = StubBackend(scripted=fixture_replies, model_name="org/model-7b")
        config = RunConfig(output_dir=str(tmp_path / "runs"))
        records = run_generation_eval(items, stub, config, manifest)
        run_dir = write_run_output(records, manifest, stub, config, "t0", "t1")
        assert run_dir.name == "org_model-7b"
        assert (run_dir / "records.jsonl").exists()
        meta = json.loads((run_dir / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["model"] == "org/model-7b"  # the true name survives in metadata

    def test_run_meta_holds_the_backend_capabilities(self, tmp_path):
        manifest = DatasetManifest(name="d")
        stub = StubBackend(model_name="m", supports_loglikelihood=False)
        config = RunConfig(output_dir=str(tmp_path / "runs"))
        run_dir = write_run_output([], manifest, stub, config, "t0", "t1")
        meta = json.loads((run_dir / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["capabilities"] == {"model_name": "m", "supports_generation": True,
                                        "supports_loglikelihood": False, "supports_images": True}

    @pytest.mark.parametrize("dataset_name,model_name,segments", [
        ("..", "stub", ("__", "stub")),
        ("fixture", "..", ("fixture", "__")),
        (".", ".", ("_", "_")),
        ("...", "a..b", ("...", "a..b")),  # only the two names that leave a directory change
        ("../x", "./", (".._x", "._")),
    ])
    def test_run_directory_stays_under_the_output(self, tmp_path, dataset_name, model_name, segments):
        from omnieval.runner import write_run_output

        output = tmp_path / "sub" / "runs"
        manifest = DatasetManifest(name=dataset_name)
        stub = StubBackend(model_name=model_name)
        config = RunConfig(output_dir=str(output))
        records = run_generation_eval([make_item(1)], stub, config, manifest)
        run_dir = write_run_output(records, manifest, stub, config, "t0", "t1")
        assert run_dir == output.joinpath(*segments)
        assert (run_dir / "records.jsonl").exists()
        assert [p.relative_to(tmp_path) for p in tmp_path.rglob("records.jsonl")] == [
            Path("sub", "runs", *segments, "records.jsonl")
        ]


    def test_failed_replace_keeps_previous_records(self, tmp_path, fixture_dataset_path,
                                                   fixture_replies, monkeypatch):
        manifest, items = load_dataset(fixture_dataset_path)
        stub = StubBackend(scripted=fixture_replies)
        config = RunConfig(output_dir=str(tmp_path / "runs"))
        records = run_generation_eval(items, stub, config, manifest)
        run_dir = write_run_output(records, manifest, stub, config, "t0", "t1")
        before = (run_dir / "records.jsonl").read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_run_output(run_generation_eval(items[:3], stub, config, manifest),
                             manifest, stub, config, "t2", "t3")
        assert (run_dir / "records.jsonl").read_bytes() == before
        assert sorted(p.name for p in run_dir.iterdir()) == ["records.jsonl", "run_meta.json"]


class TestWriteTextAtomic:
    OLD_NS = 1_000_000_000_000_000_000  # an mtime no write can leave behind

    def aged(self, tmp_path, data: bytes) -> Path:
        path = tmp_path / "out.jsonl"
        path.write_bytes(data)
        os.utime(path, ns=(self.OLD_NS, self.OLD_NS))
        return path

    def test_same_bytes_are_not_written(self, tmp_path):
        text = "caf\u00e9\n" * 30000  # more than one chunk of the comparison
        path = self.aged(tmp_path, text.encode("utf-8"))
        before = path.stat()
        write_text_atomic(path, text)
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, self.OLD_NS)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]

    @pytest.mark.parametrize("old", [b"abcd\n", b"abc\n", b"abcd\nX", b""],
                             ids=["same_size", "shorter", "longer", "empty"])
    def test_other_bytes_are_written(self, tmp_path, old):
        path = self.aged(tmp_path, old)
        write_text_atomic(path, "abce\n")
        assert path.read_bytes() == b"abce\n"
        assert path.stat().st_mtime_ns != self.OLD_NS
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]

    def test_same_size_differing_in_a_later_chunk_is_written(self, tmp_path):
        text = "a" * 200_000
        path = self.aged(tmp_path, text[:-1].encode() + b"b")
        write_text_atomic(path, text)
        assert path.read_text() == text

    def test_missing_file_is_written(self, tmp_path):
        path = tmp_path / "new.json"
        write_text_atomic(path, "{}")
        assert path.read_bytes() == b"{}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json"]

    def test_warm_eval_keeps_records_and_rewrites_run_meta(self, tmp_path, fixture_dataset_path,
                                                           fixture_replies):
        from omnieval.cli import main

        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dataset": str(fixture_dataset_path),
            "output_dir": str(tmp_path / "runs"),
            "cache_dir": str(tmp_path / "cache"),
            "backend": {"type": "stub", "model_name": "stub", "scripted": fixture_replies},
        }), encoding="utf-8")
        run_dir = tmp_path / "runs" / "fixture10" / "stub"
        assert main(["eval", "--config", str(config)]) == 0
        records, meta = (run_dir / "records.jsonl").stat(), (run_dir / "run_meta.json").stat()
        assert main(["eval", "--config", str(config)]) == 0
        assert (run_dir / "records.jsonl").stat().st_ino == records.st_ino
        assert (run_dir / "run_meta.json").stat().st_ino != meta.st_ino
        assert sorted(p.name for p in run_dir.iterdir()) == ["records.jsonl", "run_meta.json"]


class TestRunConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="dream")

    def test_bad_concurrency(self):
        with pytest.raises(ConfigError):
            RunConfig(concurrency_limit=0)

    def test_bad_retries(self):
        with pytest.raises(ConfigError):
            RunConfig(max_retries=-1)

    @pytest.mark.parametrize("field,value", [
        ("limit", "5"),
        ("concurrency_limit", 2.0),
        ("max_retries", "3"),
        ("num_shots", None),
        ("backoff_base_ms", "500"),
        ("concurrency_limit", True),
    ], ids=["limit", "concurrency_limit", "max_retries", "num_shots", "backoff_base_ms", "bool"])
    def test_value_that_is_not_an_int(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            RunConfig(**{field: value})

    def test_use_cot_that_is_not_a_bool(self):
        with pytest.raises(ConfigError, match="use_cot must be true or false"):
            RunConfig(use_cot="false")

    def test_unknown_default_metric(self):
        with pytest.raises(ConfigError):
            RunConfig(default_metrics=("made_up",))
