import base64
import http.server
import json
import threading
import zlib
from urllib.parse import urlsplit

import pytest

from omnieval import (
    GenerationOptions,
    HttpBackend,
    PromptBundle,
    StubBackend,
    Turn,
    with_retries,
)
from omnieval.backends.base import LoglikelihoodResult, ModelResponse
from omnieval.backends.http import (
    build_chat_request,
    build_completions_request,
    parse_chat_response,
    parse_completions_logprobs,
)
from omnieval.errors import (
    AttachmentError,
    BackendRefused,
    ConfigError,
    MalformedReply,
    RateLimited,
    TransportError,
)

BUNDLE = PromptBundle(
    system_text="You are a helpful assistant.",
    turns=(
        Turn("user", "2+2?\nAnswer:"),
        Turn("assistant", "4"),
        Turn("user", "What is the capital of France?\nA. Paris\nB. Rome\nAnswer:"),
    ),
    item_id="q1",
)

PING = PromptBundle(system_text=None, turns=(Turn("user", "ping"),))


def canonical(body: dict) -> str:
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


class TestGenerationOptions:
    @pytest.mark.parametrize("temperature,sent", [(0, 0.0), (0.0, 0.0), (0.7, 0.7), (1, 1)])
    def test_temperature_alone_picks_the_decoding(self, temperature, sent):
        body = build_chat_request("m", PING, GenerationOptions(temperature=temperature))
        assert body["temperature"] == sent
        assert type(body["temperature"]) is type(sent)

    @pytest.mark.parametrize("temperature,mode", [(0, "greedy"), (0.0, "greedy"), (0.5, "sample")])
    def test_to_dict_derives_the_decoding_mode(self, temperature, mode):
        # cache keys and run_meta.json keep the bytes they had when the mode was an option
        assert GenerationOptions(temperature=temperature).to_dict()["decoding_mode"] == mode

    def test_decoding_mode_is_no_option(self):
        with pytest.raises(TypeError, match="decoding_mode"):
            GenerationOptions(temperature=0.5, decoding_mode="greedy")

    def test_validation(self):
        with pytest.raises(ConfigError):
            GenerationOptions(temperature=-1)
        with pytest.raises(ConfigError):
            GenerationOptions(max_new_tokens=0)


class TestStubBackend:
    def test_scripted_reply(self):
        stub = StubBackend(scripted={"q1": "The answer is B."})
        response = stub.generate(BUNDLE, GenerationOptions())
        assert response.text == "The answer is B."
        assert response.finish_reason == "stop"

    def test_echo_mode(self):
        stub = StubBackend()
        assert stub.generate(PING, GenerationOptions()).text == "ping"

    def test_deterministic(self):
        stub = StubBackend(scripted={"q1": "B"})
        first = stub.generate(BUNDLE, GenerationOptions())
        second = stub.generate(BUNDLE, GenerationOptions())
        assert first == second
        assert stub.generate_calls == 2

    def test_scripted_logprobs(self):
        stub = StubBackend(logprob_table={("Q", "A"): (-1.5, 2)})
        result = stub.loglikelihood("Q", "A")
        assert result.total_logprob == -1.5
        assert result.token_count == 2
        assert result.continuation_chars == 1

    @pytest.mark.parametrize("entry", [[-1.0, 0], {"total_logprob": float("nan")}, {"total_logprob": True},
                                       [-1.0, 1.5], [-1.0]],
                             ids=["no_tokens", "nan", "bool_logprob", "float_count", "no_count"])
    def test_table_entry_that_is_no_loglikelihood_is_a_config_error(self, entry):
        with pytest.raises(ConfigError, match=r"^logprob_table\[' A'\] is not a loglikelihood entry: "):
            StubBackend(logprob_table={" A": entry})

    def test_empty_continuation(self):
        with pytest.raises(ValueError):
            StubBackend().loglikelihood("Q", "")

    def test_additivity_of_fallback_model(self):
        stub = StubBackend(char_logprob=-0.5)
        whole = stub.loglikelihood("ctx", " alpha beta").total_logprob
        left = stub.loglikelihood("ctx", " alpha").total_logprob
        right = stub.loglikelihood("ctx alpha", " beta").total_logprob
        assert whole == pytest.approx(left + right)

    def test_additivity_of_scripted_table(self):
        # a table scripted to be additive over the continuation split
        stub = StubBackend(
            logprob_table={
                ("ctx", " ab"): (-3.0, 2),
                ("ctx", " a"): (-1.0, 1),
                ("ctx a", "b"): (-2.0, 1),
            }
        )
        whole = stub.loglikelihood("ctx", " ab").total_logprob
        parts = stub.loglikelihood("ctx", " a").total_logprob
        parts += stub.loglikelihood("ctx a", "b").total_logprob
        assert whole == pytest.approx(parts)

    def test_capabilities(self):
        stub = StubBackend()
        assert stub.supports_generation and stub.supports_loglikelihood and stub.supports_images
        assert stub.model_name == "stub"

    def test_no_capabilities_rejected(self):
        with pytest.raises(ConfigError):
            StubBackend(
                supports_generation=False,
                supports_loglikelihood=False,
                supports_images=False,
            )


class TestWireGoldens:
    def test_generate_request_golden(self, golden_dir):
        body = build_chat_request("test-model", BUNDLE, GenerationOptions())
        golden = (golden_dir / "generate_request.json").read_text(encoding="utf-8")
        assert canonical(body) == golden

    def test_generate_request_sampling_golden(self, golden_dir):
        options = GenerationOptions(
            temperature=0.7,
            max_new_tokens=128,
            stop_sequences=("\n\n",),
            seed=42,
        )
        body = build_chat_request("test-model", PING, options)
        golden = (golden_dir / "generate_request_sampling.json").read_text(encoding="utf-8")
        assert canonical(body) == golden

    def test_loglikelihood_request_golden(self, golden_dir):
        body = build_completions_request("test-model", "Paris is the capital of" + " France")
        golden = (golden_dir / "loglikelihood_request.json").read_text(encoding="utf-8")
        assert canonical(body) == golden

    def test_image_attachment_becomes_data_uri(self, tmp_path):
        png = tmp_path / "pixel.png"
        png.write_bytes(_tiny_png())
        bundle = PromptBundle(
            system_text=None, turns=(Turn("user", "describe", attachments=(str(png),)),)
        )
        body = build_chat_request("m", bundle, GenerationOptions())
        parts = body["messages"][0]["content"]
        assert parts[0] == {"type": "text", "text": "describe"}
        url = parts[1]["image_url"]["url"]
        assert url.startswith("data:image/png;base64,")
        assert base64.b64decode(url.split(",", 1)[1]) == _tiny_png()

    def test_missing_image_is_attachment_error(self):
        bundle = PromptBundle(
            system_text=None, turns=(Turn("user", "x", attachments=("/nonexistent.png",)),)
        )
        with pytest.raises(AttachmentError):
            build_chat_request("m", bundle, GenerationOptions())


class TestReplyParsing:
    def test_chat_reply(self):
        payload = {
            "choices": [{"message": {"content": "hi"}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 1},
        }
        response = parse_chat_response(payload, latency_ms=5)
        assert response.text == "hi"
        assert response.prompt_tokens == 7
        assert response.latency_ms == 5

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"choices": []},
            {"choices": [{"message": {}}]},
            {"choices": [{"message": {"content": None}}]},
        ],
    )
    def test_malformed_chat_reply(self, payload):
        with pytest.raises(MalformedReply):
            parse_chat_response(payload)

    @pytest.mark.parametrize(
        "usage,field",
        [
            ({"prompt_tokens": "many"}, "usage.prompt_tokens"),
            ([1], "usage"),
            ({"completion_tokens": None}, "usage.completion_tokens"),
        ],
        ids=["string_count", "list", "null_count"],
    )
    def test_bad_usage_is_malformed(self, usage, field):
        payload = {"choices": [{"message": {"content": "hi"}, "finish_reason": "stop"}], "usage": usage}
        with pytest.raises(MalformedReply, match=field):
            parse_chat_response(payload)

    def test_message_that_is_not_an_object_is_malformed(self):
        with pytest.raises(MalformedReply):
            parse_chat_response({"choices": [{"message": [1]}]})

    @pytest.mark.parametrize("reason", ["stop", "length", "content_filter", "tool_calls"])
    def test_finish_reason_is_kept_as_sent(self, reason):
        response = parse_chat_response({"choices": [{"message": {"content": "hi"}, "finish_reason": reason}]})
        assert response.finish_reason == reason

    @pytest.mark.parametrize("choice", [{"finish_reason": ["stop"]}, {"finish_reason": None}, {}],
                             ids=["list", "null", "absent"])
    def test_finish_reason_that_is_not_a_string_reads_as_none(self, choice):
        response = parse_chat_response({"choices": [{"message": {"content": "hi"}, **choice}]})
        assert response.finish_reason is None

    @pytest.mark.parametrize("logprobs", [{"content": [{"tok": "x"}]}, "abc"], ids=["entry_without_token", "string"])
    def test_unrequested_chat_logprobs_are_not_read(self, logprobs):
        # build_chat_request asks for no logprobs, so whatever a server sends there is ignored
        choice = {"message": {"content": "hi"}, "finish_reason": "stop"}
        response = parse_chat_response({"choices": [{**choice, "logprobs": logprobs}]})
        assert response == parse_chat_response({"choices": [choice]})
        assert response.text == "hi"

    def test_span_summing(self):
        # context "Hello" (5 chars), continuation " world"
        payload = _echo_payload(
            tokens=["Hello", " wor", "ld"],
            logprobs=[None, -1.0, -0.5],
            offsets=[0, 5, 9],
        )
        result = parse_completions_logprobs(payload, 5, " world")
        assert result.total_logprob == pytest.approx(-1.5)
        assert result.token_count == 2
        assert result.continuation_chars == 6

    def test_straddling_token_goes_to_continuation(self):
        # token "lo wo" spans the boundary at 3 and counts toward the continuation
        payload = _echo_payload(
            tokens=["Hel", "lo wo", "rld"],
            logprobs=[None, -2.0, -0.25],
            offsets=[0, 3, 8],
        )
        result = parse_completions_logprobs(payload, 5, " world")
        assert result.total_logprob == pytest.approx(-2.25)
        assert result.token_count == 2

    def test_missing_offsets_is_malformed(self):
        payload = {
            "choices": [
                {"logprobs": {"tokens": ["a"], "token_logprobs": [-1.0]}}
            ]
        }
        with pytest.raises(MalformedReply):
            parse_completions_logprobs(payload, 0, "a")

    def test_echoed_array_that_is_not_a_list_is_malformed(self):
        with pytest.raises(MalformedReply, match="missing echoed logprobs"):
            parse_completions_logprobs(_echo_payload(tokens=5, logprobs=[-1.0], offsets=[0]), 0, "a")

    def test_echoed_arrays_of_different_length_are_malformed(self):
        payload = _echo_payload(tokens=["a", "b"], logprobs=[None, -1.0], offsets=[0])
        with pytest.raises(MalformedReply, match="^completions reply logprob arrays disagree in length$"):
            parse_completions_logprobs(payload, 1, "b")

    def test_no_continuation_tokens_is_malformed(self):
        payload = _echo_payload(tokens=["ab"], logprobs=[None], offsets=[0])
        with pytest.raises(MalformedReply):
            parse_completions_logprobs(payload, 2, "xyz")

    @pytest.mark.parametrize("logprob", [float("-inf"), float("nan"), "-Infinity"])
    def test_non_finite_continuation_sum_is_malformed(self, logprob):
        payload = _echo_payload(tokens=["a", "b"], logprobs=[None, logprob], offsets=[0, 1])
        with pytest.raises(MalformedReply, match="sum to"):
            parse_completions_logprobs(payload, 1, "b")

    @pytest.mark.parametrize(
        "tokens,logprobs,offsets,field",
        [
            (["a", "b"], [None, "abc"], [0, 1], "token_logprobs"),
            (["a", 5], [None, -1.0], [0, 1], "tokens"),
            (["a", "b"], [None, -1.0], [0, "1"], "text_offset"),
            # float(True) is 1.0 and True + 1 is 2: a bool is refused, not read as a number
            (["a", "b"], [None, True], [0, 1], "token_logprobs"),
            (["a", "b"], [None, -1.0], [0, True], "text_offset"),
            (["a", "b"], [None, -1.0], [False, 1], "text_offset"),
        ],
        ids=["string_logprob", "int_token", "string_offset", "bool_logprob", "bool_offset", "bool_context_offset"],
    )
    def test_bad_echoed_values_are_malformed(self, tokens, logprobs, offsets, field):
        with pytest.raises(MalformedReply, match=f"logprobs.{field}"):
            parse_completions_logprobs(_echo_payload(tokens, logprobs, offsets), 1, "b")


class FakeTransport:
    def __init__(self, status=200, headers=None, body=None):
        self.status = status
        # a transport hands back reply header names lower-cased
        self.headers = {name.lower(): value for name, value in (headers or {}).items()}
        self.body = body if body is not None else "{}"
        self.calls = []

    def __call__(self, url, body, headers, timeout_s):
        self.calls.append((url, body, headers))
        return self.status, self.headers, self.body


class TestHttpBackendErrors:
    def _backend(self, transport):
        return HttpBackend("http://test", "m", _transport=transport)

    def test_rate_limited_carries_retry_after(self):
        for hint in ("7", "300"):  # 300 s is the largest hint honoured
            transport = FakeTransport(status=429, headers={"Retry-After": hint})
            with pytest.raises(RateLimited) as err:
                self._backend(transport).generate(PING, GenerationOptions())
            assert err.value.retry_after_s == float(hint)

    @pytest.mark.parametrize("hint", ["inf", "1e400", "nan", "soon", "1e10", "9223372035", "1e9", "301"])
    def test_retry_after_that_is_no_number_of_seconds_is_ignored(self, hint):
        limited = (429, {"retry-after": hint}, "")
        ok = (200, {}, json.dumps({"choices": [{"message": {"content": "ok"}, "finish_reason": "stop"}]}))
        replies = iter([limited, limited, ok])
        backend = HttpBackend("http://test", "m", _transport=lambda url, body, headers, timeout_s: next(replies))
        with pytest.raises(RateLimited) as err:
            backend.generate(PING, GenerationOptions())
        assert err.value.retry_after_s is None
        # time.sleep(inf) or time.sleep(1e10) would raise OverflowError instead of backing off,
        # and time.sleep(1e9) would wait for 31 years
        assert with_retries(lambda: backend.generate(PING, GenerationOptions()), backoff_base_ms=1).text == "ok"

    def test_client_error_is_refused(self):
        transport = FakeTransport(status=400, body="bad request")
        with pytest.raises(BackendRefused):
            self._backend(transport).generate(PING, GenerationOptions())

    def test_server_error_is_transport(self):
        transport = FakeTransport(status=503)
        with pytest.raises(TransportError):
            self._backend(transport).generate(PING, GenerationOptions())

    def test_non_json_reply_is_malformed(self):
        transport = FakeTransport(status=200, body="<html>oops</html>")
        with pytest.raises(MalformedReply):
            self._backend(transport).generate(PING, GenerationOptions())

    def test_bearer_token_from_env(self, monkeypatch):
        monkeypatch.setenv("OMNIEVAL_API_KEY", "sk-test")
        transport = FakeTransport(
            body=json.dumps({"choices": [{"message": {"content": "ok"}, "finish_reason": "stop"}]})
        )
        self._backend(transport).generate(PING, GenerationOptions())
        assert transport.calls[0][2]["Authorization"] == "Bearer sk-test"

    def test_custom_api_key_env(self, monkeypatch):
        monkeypatch.setenv("OTHER_KEY", "sk-other")
        transport = FakeTransport(
            body=json.dumps({"choices": [{"message": {"content": "ok"}, "finish_reason": "stop"}]})
        )
        backend = HttpBackend("http://test", "m", api_key_env="OTHER_KEY", _transport=transport)
        backend.generate(PING, GenerationOptions())
        assert transport.calls[0][2]["Authorization"] == "Bearer sk-other"

    def test_api_key_is_read_when_built(self, monkeypatch):
        monkeypatch.delenv("OMNIEVAL_API_KEY", raising=False)
        transport = FakeTransport(
            body=json.dumps({"choices": [{"message": {"content": "ok"}, "finish_reason": "stop"}]})
        )
        backend = self._backend(transport)
        monkeypatch.setenv("OMNIEVAL_API_KEY", "sk-late")
        backend.generate(PING, GenerationOptions())
        assert "Authorization" not in transport.calls[0][2]

    @pytest.mark.parametrize("key", ["sk-abc\n", "sk\r\nX-Injected: 1", "sk-\r", "sk-\u20ac"])
    def test_api_key_that_cannot_be_a_header_value_is_refused(self, monkeypatch, key):
        monkeypatch.setenv("OMNIEVAL_API_KEY", key)
        with pytest.raises(ConfigError, match="OMNIEVAL_API_KEY") as err:
            self._backend(FakeTransport())
        assert "sk" not in str(err.value)

    def test_api_key_with_other_latin_1_characters_is_sent(self, monkeypatch):
        monkeypatch.setenv("OMNIEVAL_API_KEY", "sk-\u00e9\t1")
        transport = FakeTransport(
            body=json.dumps({"choices": [{"message": {"content": "ok"}, "finish_reason": "stop"}]})
        )
        self._backend(transport).generate(PING, GenerationOptions())
        assert transport.calls[0][2]["Authorization"] == "Bearer sk-\u00e9\t1"

    @pytest.mark.parametrize("base_url", [
        "http://127.0.0.1:1/v1 beta", "http://127.0.0.1:1/v1\x00", "http://127.0.0.1:1/v1\x7f",
        "http://127.0.0.1:1/v1?a=b c", "http://127.0.0.1:1/v1?a=\x1b", "http://127.0.0.1:1/v1 ",
        "http://127.0.0.1:1/\u20ac",
    ])
    def test_base_url_path_or_query_that_cannot_be_sent_is_refused(self, base_url):
        with pytest.raises(ConfigError, match="base_url"):
            HttpBackend(base_url, "m", _transport=FakeTransport())

    @pytest.mark.parametrize("base_url,path", [
        ("http://test/v1/", "/v1/v1/completions"),
        ("http://test/caf\u00e9", "/caf\u00e9/v1/completions"),
        ("http://test/v1?a=b", "/v1?a=b/v1/completions"),
        ("http://test/v1#a b", "/v1"),  # the fragment is never sent
        ("http://test/v1\n", "/v1/v1/completions"),  # line breaks are dropped from a URL
    ])
    def test_base_url_that_can_be_sent_is_kept(self, base_url, path):
        transport = FakeTransport(body=json.dumps(_echo_payload(["a", "b"], [None, -1.0], [0, 1])))
        HttpBackend(base_url, "m", _transport=transport).loglikelihood("a", "b")
        parts = urlsplit(transport.calls[0][0])
        assert parts.path + (f"?{parts.query}" if parts.query else "") == path

    def test_chat_only_configuration_mirrored(self):
        backend = HttpBackend("http://test", "m", supports_loglikelihood=False,
                              _transport=FakeTransport())
        assert backend.supports_loglikelihood is False
        assert backend.supports_generation is True and backend.supports_images is False

    def test_empty_continuation_precondition(self):
        backend = HttpBackend("http://test", "m", _transport=FakeTransport())
        with pytest.raises(ValueError):
            backend.loglikelihood("context", "")


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        if self.path == "/v1/chat/completions":
            reply = {
                "choices": [{"message": {"content": "pong"}, "finish_reason": "stop"}],
                "usage": {"prompt_tokens": 1, "completion_tokens": 1},
            }
        else:
            prompt = request["prompt"]
            reply = {
                "choices": [
                    {
                        "logprobs": {
                            "tokens": [prompt[:2], prompt[2:]],
                            "token_logprobs": [None, -1.25],
                            "text_offset": [0, 2],
                        }
                    }
                ]
            }
        body = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def local_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestHttpIntegration:
    def test_generate_over_loopback(self, local_server):
        backend = HttpBackend(local_server, "m")
        response = backend.generate(PING, GenerationOptions())
        assert response.text == "pong"
        assert response.finish_reason == "stop"

    def test_loglikelihood_over_loopback(self, local_server):
        backend = HttpBackend(local_server, "m")
        result = backend.loglikelihood("ab", "cd")
        assert result.total_logprob == pytest.approx(-1.25)
        assert result.continuation_chars == 2

    def test_connect_failure_is_transport_error(self):
        backend = HttpBackend("http://127.0.0.1:1", "m", timeout_s=0.2)
        with pytest.raises(TransportError):
            backend.generate(PING, GenerationOptions())


class TestSerializationRoundTrip:
    def test_model_response(self):
        response = ModelResponse(
            text="x", finish_reason="length", prompt_tokens=3, completion_tokens=1, latency_ms=9,
        )
        assert ModelResponse.from_dict(response.to_dict()) == response
        assert "token_logprobs" not in response.to_dict()
        # cache entries that earlier versions wrote carry the key, with null or a list
        for logprobs in (None, [["x", -0.5]]):
            assert ModelResponse.from_dict({**response.to_dict(), "token_logprobs": logprobs}) == response
        # and the finish reasons that they folded every server reason into read back as they are
        for reason in ("stop", "length", "error"):
            assert ModelResponse.from_dict({"text": "x", "finish_reason": reason}).finish_reason == reason

    def test_loglikelihood_result(self):
        result = LoglikelihoodResult(-2.5, 3, 11)
        assert LoglikelihoodResult.from_dict(result.to_dict()) == result


def _echo_payload(tokens, logprobs, offsets):
    return {
        "choices": [
            {"logprobs": {"tokens": tokens, "token_logprobs": logprobs, "text_offset": offsets}}
        ]
    }


def _tiny_png() -> bytes:
    # minimal 1x1 grayscale PNG assembled by hand
    def chunk(kind: bytes, data: bytes) -> bytes:
        return (
            len(data).to_bytes(4, "big")
            + kind
            + data
            + zlib.crc32(kind + data).to_bytes(4, "big")
        )

    ihdr = chunk(b"IHDR", (1).to_bytes(4, "big") + (1).to_bytes(4, "big") + b"\x08\x00\x00\x00\x00")
    idat = chunk(b"IDAT", zlib.compress(b"\x00\x00"))
    return b"\x89PNG\r\n\x1a\n" + ihdr + idat + chunk(b"IEND", b"")
