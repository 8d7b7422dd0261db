import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from omnieval import (
    GenerationOptions,
    QuestionType,
    RunConfig,
    StubBackend,
    cache_key,
    load_dataset,
    run_generation_eval,
    run_ppl_eval,
    with_retries,
)
from omnieval.dataset import DatasetManifest, EvalItem
from omnieval.errors import BackendRefused, ConfigError, RateLimited, TransportError
from omnieval.runner import ResponseCache, RunRecord, records_to_jsonl, write_run_output

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


class TestCacheKey:
    REQUEST = {"kind": "generate", "conversation": {"turns": [{"text": "hi"}]}}

    def test_deterministic(self):
        a = cache_key("m", self.REQUEST, {"temperature": 0})
        b = cache_key("m", json.loads(json.dumps(self.REQUEST)), {"temperature": 0})
        assert a == b
        assert len(a) == 64

    def test_temperature_changes_digest(self):
        a = cache_key("m", self.REQUEST, {"temperature": 0})
        b = cache_key("m", self.REQUEST, {"temperature": 0.1})
        assert a != b

    def test_key_order_is_canonicalized(self):
        left = cache_key("m", {"a": 1, "b": 2}, None)
        right = cache_key("m", {"b": 2, "a": 1}, None)
        assert left == right

    def test_model_changes_digest(self):
        assert cache_key("m1", self.REQUEST, None) != cache_key("m2", self.REQUEST, None)


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
            records = run_generation_eval(items, stub, replace(config, extractor=extractor), manifest)
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
        config = RunConfig(cache_dir=str(tmp_path / "cache"))
        down = StubBackend(default_reply="B", failures=[TransportError("down")])
        first = run_generation_eval(items, stub, replace(config, extractor=down))
        assert first[0].extracted.status.value == "unextracted"
        up = StubBackend(default_reply="B")
        second = run_generation_eval(items, stub, replace(config, extractor=up))
        assert up.generate_calls == 1
        assert second[0].extracted.status.value == "model_extracted"

    def test_torn_cache_line_fails_only_its_own_key(self, tmp_path, fixture_dataset_path,
                                                   fixture_replies, caplog):
        manifest, items = load_dataset(fixture_dataset_path)
        cache_dir = tmp_path / "cache"
        config = RunConfig(cache_dir=str(cache_dir))
        cold = run_generation_eval(items, StubBackend(scripted=fixture_replies), config, manifest)
        shard = cache_dir / f"{next(r for r in cold if r.item_id == 'q09').prompt_digest[:2]}.jsonl"
        shard.write_bytes(shard.read_bytes()[:-20])  # a kill mid-append

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
        stub = StubBackend(failures=[BackendRefused("400 on first call")])
        config = RunConfig(concurrency_limit=1, max_retries=0)
        records = run_generation_eval(items, stub, config)
        assert len(records) == 3
        assert records[0].error is not None and "400" in records[0].error
        assert records[1].error is None and records[2].error is None

    def test_retry_then_success(self):
        items = [make_item(1)]
        stub = StubBackend(failures=[TransportError("x"), TransportError("y")])
        config = RunConfig(max_retries=3, backoff_base_ms=1)
        records = run_generation_eval(items, stub, config)
        assert records[0].error is None
        assert stub.generate_calls == 3

    def test_output_order_matches_input_order(self):
        rng = random.Random(7)
        items = [make_item(i) for i in range(50)]
        stub = StubBackend(delay_fn=lambda: rng.random() * 0.01)
        config = RunConfig(concurrency_limit=8)
        records = run_generation_eval(items, stub, config)
        assert [r.item_id for r in records] == [i.id for i in items]

    def test_concurrency_high_water_mark(self):
        items = [make_item(i) for i in range(40)]
        stub = StubBackend(delay_s=0.005)
        records = run_generation_eval(items, stub, RunConfig(concurrency_limit=4))
        assert len(records) == 40
        assert stub.max_inflight <= 4

    def test_model_extract_fallback(self):
        items = [choice_item(1, ["Paris", "Rome"], "B")]
        stub = StubBackend(scripted={"it001": "the second one, obviously"})
        extractor = StubBackend(default_reply="B")
        records = run_generation_eval(items, stub, RunConfig(extractor=extractor))
        assert records[0].extracted.value == "B"
        assert records[0].extracted.status.value == "model_extracted"

    def test_requires_generation_capability(self):
        backend = StubBackend(supports_generation=False)
        with pytest.raises(ConfigError):
            run_generation_eval([make_item(1)], backend, RunConfig())

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

    def test_requires_choices(self):
        with pytest.raises(ConfigError):
            run_ppl_eval([make_item(1)], StubBackend(), RunConfig(mode="ppl"))

    def test_requires_loglikelihood_capability(self):
        backend = StubBackend(supports_loglikelihood=False)
        with pytest.raises(ConfigError):
            run_ppl_eval(self._items(["a", "b"]), backend, RunConfig(mode="ppl"))

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


# Puts ``count`` entries of over 8 KiB each into one shard of a cache
# directory shared with another process.
_WRITER = """
import sys
from omnieval.backends.base import FinishReason, ModelResponse
from omnieval.runner import ResponseCache
cache_dir, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResponseCache(cache_dir)
for i in range(count):
    cache.put(f"aa-{tag}-{i}", "generate", ModelResponse(f"{tag}{i} " * 1500, FinishReason.STOP))
cache.close()
"""


class TestResponseCache:
    def test_two_writer_processes_do_not_interleave(self, tmp_path):
        count = 150
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        writers = [
            subprocess.Popen([sys.executable, "-c", _WRITER, str(tmp_path), tag, str(count)], env=env)
            for tag in ("x", "y")
        ]
        assert [w.wait(timeout=60) for w in writers] == [0, 0]

        lines = (tmp_path / "aa.jsonl").read_bytes().splitlines()
        assert len(lines) == 2 * count
        assert all(json.loads(line)["kind"] == "generate" for line in lines)
        cache = ResponseCache(tmp_path)
        for tag in ("x", "y"):
            for i in range(count):
                assert cache.get(f"aa-{tag}-{i}").text == f"{tag}{i} " * 1500

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("mode", ["generate", "ppl"])
    def test_eval_leaves_no_shard_descriptor_open(self, tmp_path, mode):
        items = [choice_item(i, ["Paris", "Rome"], "B") for i in range(20)]
        config = RunConfig(mode=mode, cache_dir=str(tmp_path / "cache"))
        run = run_ppl_eval if mode == "ppl" else run_generation_eval
        before = len(os.listdir("/proc/self/fd"))
        records = run(items, StubBackend(default_reply="B"), config)
        assert all(r.error is None for r in records)
        assert len(list((tmp_path / "cache").glob("*.jsonl"))) > 1
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

    def test_unknown_default_metric(self):
        with pytest.raises(ConfigError):
            RunConfig(default_metrics=("made_up",))
