import base64
import http.server
import json
import threading
import zlib

import pytest

from omnieval import (
    GenerationOptions,
    HttpBackend,
    PromptBundle,
    StubBackend,
    Turn,
)
from omnieval.backends.base import DecodingMode, FinishReason, LoglikelihoodResult, ModelResponse
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
    UnsupportedCapability,
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
    def test_temperature_zero_is_greedy(self):
        options = GenerationOptions(temperature=0.0, decoding_mode=DecodingMode.SAMPLE)
        assert options.effective_mode is DecodingMode.GREEDY

    def test_nonzero_keeps_mode(self):
        options = GenerationOptions(temperature=0.5, decoding_mode=DecodingMode.SAMPLE)
        assert options.effective_mode is DecodingMode.SAMPLE

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
        assert response.finish_reason is FinishReason.STOP

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
        caps = StubBackend().capabilities()
        assert caps.supports_generation and caps.supports_loglikelihood and caps.supports_images
        assert caps.model_name == "stub"

    def test_capability_gate(self):
        stub = StubBackend(supports_generation=False)
        with pytest.raises(UnsupportedCapability):
            stub.generate(PING, GenerationOptions())

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
            decoding_mode=DecodingMode.SAMPLE,
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

    def test_no_continuation_tokens_is_malformed(self):
        payload = _echo_payload(tokens=["ab"], logprobs=[None], offsets=[0])
        with pytest.raises(MalformedReply):
            parse_completions_logprobs(payload, 2, "xyz")


class FakeTransport:
    def __init__(self, status=200, headers=None, body=None):
        self.status = status
        self.headers = headers or {}
        self.body = body if body is not None else "{}"
        self.calls = []

    def __call__(self, url, body, headers, timeout_s):
        self.calls.append((url, body, headers))
        return self.status, self.headers, self.body


class TestHttpBackendErrors:
    def _backend(self, transport):
        return HttpBackend("http://test", "m", transport=transport)

    def test_rate_limited_carries_retry_after(self):
        transport = FakeTransport(status=429, headers={"Retry-After": "7"})
        with pytest.raises(RateLimited) as err:
            self._backend(transport).generate(PING, GenerationOptions())
        assert err.value.retry_after_s == 7.0

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

    def test_beam_mode_unsupported(self):
        backend = self._backend(FakeTransport())
        options = GenerationOptions(temperature=0.5, decoding_mode=DecodingMode.BEAM)
        with pytest.raises(UnsupportedCapability):
            backend.generate(PING, options)

    def test_images_require_capability(self):
        backend = self._backend(FakeTransport())
        bundle = PromptBundle(None, (Turn("user", "x", attachments=("a.png",)),))
        with pytest.raises(UnsupportedCapability):
            backend.generate(bundle, GenerationOptions())

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
        backend = HttpBackend("http://test", "m", api_key_env="OTHER_KEY", transport=transport)
        backend.generate(PING, GenerationOptions())
        assert transport.calls[0][2]["Authorization"] == "Bearer sk-other"

    def test_chat_only_configuration_mirrored(self):
        backend = HttpBackend("http://test", "m", supports_loglikelihood=False,
                              transport=FakeTransport())
        assert backend.capabilities().supports_loglikelihood is False
        with pytest.raises(UnsupportedCapability):
            backend.loglikelihood("context", "continuation")

    def test_empty_continuation_precondition(self):
        backend = HttpBackend("http://test", "m", transport=FakeTransport())
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
        assert response.finish_reason is FinishReason.STOP

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
            text="x", finish_reason=FinishReason.LENGTH,
            token_logprobs=(("x", -0.5),), prompt_tokens=3, completion_tokens=1, latency_ms=9,
        )
        assert ModelResponse.from_dict(response.to_dict()) == response

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
